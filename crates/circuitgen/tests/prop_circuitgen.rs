//! Property tests on the chip composer.

use paragraph_circuitgen::{
    compose_chip, Family, FAMILY_ANALOG, FAMILY_DAC, FAMILY_DIGITAL, FAMILY_IO, FAMILY_MEM,
    FAMILY_PLL, FAMILY_PMU, FAMILY_REF,
};
use paragraph_netlist::{NetClass, NetId};
use proptest::prelude::*;

const FAMILIES: [(&str, Family); 8] = [
    ("digital", FAMILY_DIGITAL),
    ("analog", FAMILY_ANALOG),
    ("io", FAMILY_IO),
    ("dac", FAMILY_DAC),
    ("pll", FAMILY_PLL),
    ("ref", FAMILY_REF),
    ("mem", FAMILY_MEM),
    ("pmu", FAMILY_PMU),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any family at any size composes a valid circuit with connected
    /// block outputs.
    #[test]
    fn composed_chips_validate(
        fam in 0_usize..FAMILIES.len(),
        blocks in 3_usize..30,
        seed in any::<u64>(),
    ) {
        let (name, family) = FAMILIES[fam];
        let c = compose_chip(name, seed, family, blocks);
        c.validate().unwrap();
        prop_assert!(c.num_devices() >= blocks, "{name}: too few devices");
        // Rails exist and are classified.
        let vss = c.find_net("vss").expect("ground rail");
        prop_assert_eq!(c.net_ref(vss).class, NetClass::Ground);
    }

    /// Same seed -> identical chip; different seed -> different sizing.
    #[test]
    fn composition_determinism(fam in 0_usize..FAMILIES.len(), seed in any::<u64>()) {
        let (name, family) = FAMILIES[fam];
        let a = compose_chip(name, seed, family, 10);
        let b = compose_chip(name, seed, family, 10);
        prop_assert_eq!(a.num_devices(), b.num_devices());
        for (d1, d2) in a.devices().iter().zip(b.devices()) {
            prop_assert_eq!(d1, d2);
        }
        let c = compose_chip(name, seed ^ 0xDEAD_BEEF, family, 10);
        // Device count may coincide, but full equality is vanishingly
        // unlikely for a different seed.
        let identical = a.num_devices() == c.num_devices()
            && a.devices().iter().zip(c.devices()).all(|(x, y)| x == y);
        prop_assert!(!identical, "different seeds produced identical chips");
    }

}

/// Fanout distribution: averaged over seeds, the global distribution nets
/// carry far more fanout than the median signal net (they produce the
/// heavy capacitance tail). Statistical, so checked in aggregate over a
/// fixed seed set rather than per-seed.
#[test]
fn global_nets_carry_heavy_fanout_in_aggregate() {
    let mut global_total = 0_usize;
    let mut median_total = 0_usize;
    for seed in 0..8_u64 {
        let c = compose_chip("t", seed, FAMILY_DIGITAL, 60);
        let all = c.fanouts();
        let mut fanouts: Vec<usize> = (0..c.num_nets())
            .filter(|&i| c.net_ref(NetId(i as u32)).class == NetClass::Signal)
            .map(|i| all[i])
            .collect();
        fanouts.sort_unstable();
        median_total += fanouts[fanouts.len() / 2];
        global_total += (0..3)
            .filter_map(|g| c.find_net(&format!("n{}_glb{g}", g + 1)))
            .map(|n| all[n.0 as usize])
            .max()
            .unwrap_or(0);
    }
    assert!(
        global_total >= 2 * median_total,
        "global fanout {global_total} vs 2x median {median_total}"
    );
}
