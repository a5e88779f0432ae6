//! Criterion bench: observability disabled-path overhead.
//!
//! The tracing layer's contract is that an un-enabled `span!` costs one
//! relaxed atomic load — nothing else — and that an enabled trace store
//! stays cheap for a request it does not retain. This bench measures
//! both costs in isolation, compares them against the wall-clock of the
//! matmul they would instrument, **asserts each ratio stays under 2%**,
//! and writes the numbers to `target/obs_overhead.json`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use paragraph_tensor::{init_rng, ParamSet};
use serde_json::json;

fn quick_mode() -> bool {
    // `cargo test` invokes harness-less bench targets with `--test`.
    std::env::args().any(|a| a == "--test")
}

/// Nanoseconds per disabled span (open + drop), measured over `iters`
/// spans. Args closures must not be evaluated on this path, so the span
/// carries one.
fn disabled_span_ns(iters: u64) -> f64 {
    paragraph_obs::set_enabled(false);
    let start = Instant::now();
    for i in 0..iters {
        let _g = paragraph_obs::span!("bench_noop", i = i);
        std::hint::black_box(i);
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Nanoseconds per full store-enabled, not-retained request cycle:
/// `begin` → enter context → one recorded span → `complete` with an
/// unremarkable outcome the tail sampler drops (`keep_one_in = 0`, not
/// flagged slow). This is the steady-state per-request cost a
/// service pays for an always-on store when nothing interesting
/// happens. Request ids are prebuilt so the measurement excludes
/// formatting.
fn store_not_retained_cycle_ns(iters: u64) -> f64 {
    paragraph_obs::set_enabled(false);
    paragraph_obs::set_store_enabled(true);
    let store = paragraph_obs::trace_store();
    store.reset();
    store.set_keep_one_in(0);
    let ids: Vec<String> = (0..iters).map(|i| format!("bench-{i}")).collect();
    let start = Instant::now();
    for id in &ids {
        store.begin(id, None);
        {
            let ctx = paragraph_obs::SpanContext::request(id, None);
            let _ctx = ctx.enter();
            let _g = paragraph_obs::span!("bench_store_span");
        }
        let reason = store.complete(id, paragraph_obs::RequestOutcome::default());
        std::hint::black_box(reason);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
    let counters = store.counters();
    assert_eq!(
        counters.retained_total(),
        0,
        "store fast-path bench retained a trace; the measurement no longer \
         exercises the not-retained path"
    );
    paragraph_obs::set_store_enabled(false);
    store.reset();
    ns
}

/// Seconds per `n x n` matmul call (the operation the span guards).
fn matmul_secs(n: usize, reps: usize) -> f64 {
    let mut rng = init_rng(1);
    let mut p = ParamSet::new();
    let a = p.add_xavier("a", n, n, &mut rng);
    let b = p.add_xavier("b", n, n, &mut rng);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(p.value(a).matmul(p.value(b)));
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn bench_disabled_span(c: &mut Criterion) {
    paragraph_obs::set_enabled(false);
    let mut group = c.benchmark_group("obs_overhead");
    group.bench_function("disabled_span", |bench| {
        bench.iter(|| {
            let _g = paragraph_obs::span!("bench_noop");
            std::hint::black_box(0)
        })
    });
    group.finish();
}

/// Measurement + assertion + JSON summary.
fn write_summary(_c: &mut Criterion) {
    let quick = quick_mode();
    let (n, reps, iters) = if quick {
        (64, 20, 100_000)
    } else {
        (256, 20, 5_000_000)
    };

    // Sanity: the enabled path must actually record, otherwise a broken
    // feature gate would make the overhead numbers meaningless.
    paragraph_obs::set_enabled(true);
    {
        let _g = paragraph_obs::span!("overhead_probe");
    }
    let probe = paragraph_obs::take_events();
    assert!(
        probe.iter().any(|e| e.name == "overhead_probe"),
        "enabled span did not record; overhead measurement is invalid"
    );

    let span_ns = disabled_span_ns(iters);
    // The store cycle takes a mutex twice per request; far fewer iters
    // keep the bench fast while the per-cycle cost stays stable.
    let store_ns = store_not_retained_cycle_ns(iters.min(200_000));
    let mm_secs = matmul_secs(n, reps);
    let overhead_pct = span_ns / (mm_secs * 1e9) * 100.0;
    let store_pct = store_ns / (mm_secs * 1e9) * 100.0;
    println!(
        "obs overhead: disabled span {span_ns:.2} ns, store not-retained \
         cycle {store_ns:.2} ns, {n}x{n} matmul {:.2} us -> span \
         {overhead_pct:.5}% / store {store_pct:.5}% per instrumented call",
        mm_secs * 1e6
    );
    assert!(
        overhead_pct <= 2.0,
        "disabled-path span overhead {overhead_pct:.3}% exceeds the 2% budget \
         ({span_ns:.1} ns per span vs {:.1} us per matmul)",
        mm_secs * 1e6
    );
    assert!(
        store_pct <= 2.0,
        "trace-store not-retained request cycle {store_pct:.3}% exceeds the \
         2% budget ({store_ns:.1} ns per request vs {:.1} us per matmul)",
        mm_secs * 1e6
    );

    let summary = json!({
        "bench": "obs_overhead",
        "quick_mode": quick,
        "disabled_span_ns": span_ns,
        "store_not_retained_cycle_ns": store_ns,
        "matmul_n": n,
        "matmul_us": mm_secs * 1e6,
        "overhead_pct_per_call": overhead_pct,
        "store_overhead_pct_per_call": store_pct,
        "budget_pct": 2.0,
    });
    let target_dir = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
    let path = format!("{target_dir}/obs_overhead.json");
    match serde_json::to_string_pretty(&summary) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("obs overhead bench: could not write {path}: {e}");
            } else {
                println!("obs overhead summary written to {path}");
            }
        }
        Err(e) => eprintln!("obs overhead bench: could not serialise summary: {e}"),
    }
}

criterion_group!(benches, bench_disabled_span, write_summary);
criterion_main!(benches);
