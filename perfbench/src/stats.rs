//! Order statistics over timing samples.

use std::time::Instant;

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (sorted in place).
/// Returns NaN on an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Quantile taken over repeated throughput windows.
/// Interference from other tenants of the host only ever slows a window,
/// so a high quantile tracks the program's own speed far more steadily
/// than the median, while one lucky window cannot set it alone when
/// there are ten or more.
pub const BEST_OF_Q: f64 = 0.9;

/// Rates of consecutive, non-overlapping windows of `k` events over the
/// sorted event times `at`: `k` events over the time since the event
/// before the window, so windows meet without a gap.
pub fn window_rates(at: &[Instant], k: usize) -> Vec<f64> {
    (k..at.len())
        .step_by(k.max(1))
        .map(|end| k as f64 / (at[end] - at[end - k]).as_secs_f64().max(f64::MIN_POSITIVE))
        .collect()
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Deterministic 64-bit mixer (splitmix64) for seeded choices.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn windows_meet_without_a_gap() {
        let t0 = Instant::now();
        let at: Vec<Instant> = [0, 10, 20, 40, 50, 60, 100]
            .iter()
            .map(|ms| t0 + Duration::from_millis(*ms))
            .collect();
        // Windows end at events 2, 4 and 6: 2 events in 20, 30 and 50 ms.
        let rates = window_rates(&at, 2);
        let want = [100.0, 2.0 / 0.03, 40.0];
        assert_eq!(rates.len(), want.len());
        for (got, want) in rates.iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!(window_rates(&at[..2], 2).is_empty());
    }
}
