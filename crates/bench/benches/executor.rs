//! Criterion bench: compiled tape-free executor vs the autograd tape on
//! single-request inference.
//!
//! The workload is circuit-realistic: the real serving schema
//! ([`paragraph::circuit_schema`]) with degree-8 connectivity per edge
//! type, the shape `build_graph` produces for analog blocks. Both paths
//! run the identical fused kernels (`crates/exec/tests/parity.rs` pins
//! bitwise equality); this bench tracks what skipping tape-node
//! recording and reusing the preallocated arena buys, and counts heap
//! allocations per request on each path via a counting global
//! allocator. Results land in `target/executor_bench.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use paragraph::circuit_schema;
use paragraph_exec::{CompiledModel, Precision};
use paragraph_gnn::{GnnKind, GnnModel, HeteroGraph, ModelConfig};
use paragraph_tensor::Tensor;
use serde_json::json;

/// In-edges per node per edge type, matching the fan-in `build_graph`
/// yields on transistor-dominated circuits.
const DEGREE: usize = 8;

/// Counts allocation calls so the two inference paths can report heap
/// traffic per request.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn quick_mode() -> bool {
    // `cargo test` invokes harness-less bench targets with `--test`.
    std::env::args().any(|a| a == "--test")
}

/// Deterministic pseudo-random stream (no RNG dependency needed).
struct Lcg(u64);

impl Lcg {
    fn next_f32(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    }

    fn next_in(&mut self, n: usize) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as u32
    }
}

/// A degree-8 graph over the real circuit schema: alternating
/// device/net nodes, every edge type populated.
fn workload(n: usize) -> (HeteroGraph, Vec<u32>) {
    let schema = circuit_schema();
    let num_types = schema.node_feat_dims.len();
    let mut rng = Lcg(2020);
    let types: Vec<u16> = (0..n).map(|i| (i % num_types) as u16).collect();
    let mut g = HeteroGraph::new(&schema, types.clone());
    for (t, &dim) in schema.node_feat_dims.iter().enumerate() {
        let count = types.iter().filter(|&&x| x == t as u16).count();
        g.set_features(t as u16, Tensor::from_fn(count, dim, |_, _| rng.next_f32()));
    }
    // Give every node DEGREE incoming edges, each assigned to a random
    // edge type (DEGREE / num_edge_types truncates to zero — an edgeless
    // graph — now that the real schema has 30 edge types).
    let mut src: Vec<Vec<u32>> = vec![Vec::new(); schema.num_edge_types];
    let mut dst: Vec<Vec<u32>> = vec![Vec::new(); schema.num_edge_types];
    for d in 0..n {
        for _ in 0..DEGREE {
            let et = rng.next_in(schema.num_edge_types) as usize;
            src[et].push(rng.next_in(n));
            dst[et].push(d as u32);
        }
    }
    for (et, (src, dst)) in src.into_iter().zip(dst).enumerate() {
        g.set_edges(et, src, dst);
    }
    g.validate().expect("synthetic graph is well-formed");
    // Query half the nodes, as a CAP request over the signal nets would.
    let nodes: Vec<u32> = (0..n / 2).map(|_| rng.next_in(n)).collect();
    (g, nodes)
}

fn model() -> GnnModel {
    let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
    // Paper-scale embedding width (the paper used 256; 128 keeps the
    // CI bench fast while the per-layer GEMMs still dominate the
    // request, as they do at serving scale).
    cfg.embed_dim = 128;
    cfg.layers = 3;
    cfg.fc_layers = 3;
    GnnModel::new(cfg, &circuit_schema())
}

/// Mean latency (µs/request) and heap allocations per request for each
/// phase, interleaved round-robin so bursty host noise (CI runners,
/// shared VMs) lands on every phase roughly equally — the speedup
/// *ratios* stay meaningful even when absolute timings wobble. Each
/// phase is warmed up twice before measurement.
fn measure_interleaved(reps: usize, phases: &mut [Box<dyn FnMut() + '_>]) -> Vec<(f64, f64)> {
    for f in phases.iter_mut() {
        f();
        f();
    }
    let rounds = 20.min(reps).max(1);
    let per = reps.div_ceil(rounds);
    let mut elapsed = vec![0.0_f64; phases.len()];
    let mut allocs = vec![0_u64; phases.len()];
    for _ in 0..rounds {
        for (i, f) in phases.iter_mut().enumerate() {
            let allocs_before = ALLOCS.load(Ordering::Relaxed);
            let start = Instant::now();
            for _ in 0..per {
                f();
            }
            elapsed[i] += start.elapsed().as_secs_f64();
            allocs[i] += ALLOCS.load(Ordering::Relaxed) - allocs_before;
        }
    }
    let total = (rounds * per) as f64;
    elapsed
        .iter()
        .zip(&allocs)
        .map(|(&e, &a)| (e * 1e6 / total, a as f64 / total))
        .collect()
}

/// Criterion-visible timings.
fn bench_executor(c: &mut Criterion) {
    let n = if quick_mode() { 64 } else { 128 };
    let (graph, nodes) = workload(n);
    let gnn = model();
    let compiled = CompiledModel::compile(&gnn).expect("ParaGraph compiles");
    let _ = graph.plan();
    let nodes_arc = Arc::new(nodes.clone());

    let mut group = c.benchmark_group("executor");
    group.sample_size(10);
    group.bench_function("tape", |b| {
        b.iter(|| std::hint::black_box(gnn.predict(&graph, &nodes_arc)));
    });
    let mut out = Vec::new();
    group.bench_function("compiled", |b| {
        b.iter(|| {
            compiled.predict_into(&graph, &nodes, &mut out);
            std::hint::black_box(&out);
        });
    });
    // The int8 tier, calibrated on the workload graph as serve would
    // calibrate from baseline statistics at artifact load.
    let calibration = compiled.calibrate(&[(&graph, nodes.clone())]);
    let int8 = CompiledModel::compile_with(&gnn, Precision::Int8, Some(&calibration))
        .expect("ParaGraph compiles at int8");
    group.bench_function("compiled_int8", |b| {
        b.iter(|| {
            int8.predict_into(&graph, &nodes, &mut out);
            std::hint::black_box(&out);
        });
    });
    group.finish();
}

/// Steady-state measurement + JSON summary.
fn write_summary(_c: &mut Criterion) {
    let quick = quick_mode();
    // A ~128-node graph is the size build_graph yields for the paper's
    // analog blocks (tens of devices plus their nets); override with
    // BENCH_N to sweep other sizes.
    let n = std::env::var("BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 64 } else { 128 });
    // BENCH_REPS widens the averaging window when the host is noisy
    // (e.g. a busy CI runner or a shared VM).
    let reps = std::env::var("BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 10 } else { 200 });
    let (graph, nodes) = workload(n);
    let gnn = model();
    let compiled = CompiledModel::compile(&gnn).expect("ParaGraph compiles");
    // Pre-build the cached GraphPlan, as serve does: plan compilation is
    // shared by both paths and not part of the per-request cost.
    let _ = graph.plan();

    let nodes_arc = Arc::new(nodes.clone());
    let reference = compiled.predict(&graph, &nodes);
    let ref_scale = reference.iter().fold(1e-6f32, |m, v| m.max(v.abs()));

    // The int8 tier: calibrated on the workload graph, accuracy
    // reported as max abs error over the f32 compiled predictions,
    // normalised by their largest magnitude.
    let calibration = compiled.calibrate(&[(&graph, nodes.clone())]);
    let int8 = CompiledModel::compile_with(&gnn, Precision::Int8, Some(&calibration))
        .expect("ParaGraph compiles at int8");

    let (mut o1, mut o2) = (Vec::new(), Vec::new());
    let mut phases: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            std::hint::black_box(gnn.predict(&graph, &nodes_arc));
        }),
        Box::new(|| {
            compiled.predict_into(&graph, &nodes, &mut o1);
            std::hint::black_box(&o1);
        }),
        Box::new(|| {
            int8.predict_into(&graph, &nodes, &mut o2);
            std::hint::black_box(&o2);
        }),
    ];
    let timings = measure_interleaved(reps, &mut phases);
    drop(phases);
    let (tape_us, tape_allocs) = timings[0];
    let (exec_us, exec_allocs) = timings[1];

    let (q_us, q_allocs) = timings[2];
    let q_err = int8
        .predict(&graph, &nodes)
        .iter()
        .zip(&reference)
        .fold(0f32, |m, (q, r)| m.max((q - r).abs()))
        / ref_scale;

    let speedup = tape_us / exec_us;
    println!(
        "executor summary: tape {tape_us:.1} us/req ({tape_allocs:.0} allocs), \
         compiled {exec_us:.1} us/req ({exec_allocs:.0} allocs), speedup {speedup:.2}x"
    );
    println!(
        "  int8: {q_us:.1} us/req ({q_allocs:.0} allocs), \
         {:.2}x vs f32 compiled, max rel err {q_err:.2e}",
        exec_us / q_us
    );

    let hardware_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let summary = json!({
        "bench": "executor",
        "quick_mode": quick,
        "hardware_threads": hardware_threads,
        "nodes": n,
        "degree": DEGREE,
        "query_nodes": nodes.len(),
        "tape": {
            "latency_us": tape_us,
            "allocs_per_request": tape_allocs,
        },
        "compiled": {
            "latency_us": exec_us,
            "allocs_per_request": exec_allocs,
        },
        "compiled_int8": {
            "latency_us": q_us,
            "allocs_per_request": q_allocs,
            "speedup_vs_f32_compiled": exec_us / q_us,
            "max_rel_err_vs_f32": q_err,
        },
        "speedup": speedup,
    });

    let target_dir = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
    let path = format!("{target_dir}/executor_bench.json");
    match serde_json::to_string_pretty(&summary) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("executor bench: could not write {path}: {e}");
            } else {
                println!("executor summary written to {path}");
            }
        }
        Err(e) => eprintln!("executor bench: could not serialise summary: {e}"),
    }
}

criterion_group!(benches, bench_executor, write_summary);
criterion_main!(benches);
