//! Criterion bench: fused message-passing kernels vs the composed
//! primitive chains they replaced.
//!
//! Pits each fused tape op (`attend_aggregate`, `spmm_mean`,
//! `spmm_norm`) against the exact gather/softmax/scatter chain the
//! pre-fusion layers recorded, on the same compiled [`CsrPlan`], and
//! writes per-kernel forward/backward wall-clock plus tape-node counts
//! to `target/kernels_bench.json`. The fused ops are bit-compatible
//! with the chains (`crates/gnn/tests/fused_equivalence.rs` proves it);
//! this bench tracks what that fusion buys.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use paragraph_tensor::quant::{self, QuantMatrix};
use paragraph_tensor::{kernels, CsrPlan, ParamSet, Tape, Tensor, Var};
use serde_json::json;

const FEAT_DIM: usize = 16;
const DEGREE: usize = 8;
const LEAKY_SLOPE: f32 = 0.2;

fn quick_mode() -> bool {
    // `cargo test` invokes harness-less bench targets with `--test`.
    std::env::args().any(|a| a == "--test")
}

/// Synthetic aggregation workload: `n` nodes, every node aggregating
/// [`DEGREE`] in-edges, plus the parameters both kernel forms read.
struct Workload {
    plan: Arc<CsrPlan>,
    src: Arc<Vec<u32>>,
    dst: Arc<Vec<u32>>,
    /// GCN coefficients in plan (sorted-edge) order, as
    /// `GraphPlan::build` computes them.
    coeff: Arc<Vec<f32>>,
    params: ParamSet,
    z: paragraph_tensor::ParamId,
    a: paragraph_tensor::ParamId,
}

fn workload(n: usize) -> Workload {
    let mut src = Vec::with_capacity(n * DEGREE);
    let mut dst = Vec::with_capacity(n * DEGREE);
    for j in 0..n {
        for d in 0..DEGREE {
            src.push(((j * 7 + d * 13 + 1) % n) as u32);
            dst.push(j as u32);
        }
    }
    let plan = CsrPlan::shared(&src, &dst, n);
    let coeff = Arc::new(
        (0..plan.num_edges())
            .map(|ei| {
                let s = plan.sorted_src()[ei] as usize;
                let d = plan.sorted_dst()[ei] as usize;
                1.0 / (plan.out_degree()[s].max(1.0) * plan.in_degree()[d].max(1.0)).sqrt()
            })
            .collect(),
    );
    let mut params = ParamSet::new();
    let z = params.add(
        "z",
        Tensor::from_fn(n, FEAT_DIM, |i, j| {
            ((i * 3 + j * 5) % 17) as f32 * 0.1 - 0.8
        }),
    );
    let a = params.add(
        "a",
        Tensor::from_fn(2 * FEAT_DIM, 1, |i, _| ((i * 11) % 13) as f32 * 0.05 - 0.3),
    );
    Workload {
        plan,
        src: Arc::new(src),
        dst: Arc::new(dst),
        coeff,
        params,
        z,
        a,
    }
}

/// Mean forward and backward wall-clock (µs per pass) plus the recorded
/// tape length for one kernel form. Forward cost is measured alone;
/// backward cost is the fwd+bwd measurement minus it.
fn measure(
    w: &Workload,
    reps: usize,
    mut build: impl FnMut(&mut Tape, &Workload) -> Var,
) -> (f64, f64, usize) {
    let mut tape_nodes = 0;
    let start = Instant::now();
    for _ in 0..reps {
        let mut tape = Tape::new();
        let out = build(&mut tape, w);
        let loss = tape.sum_all(out);
        std::hint::black_box(tape.value(loss));
        tape_nodes = tape.len();
    }
    let fwd = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..reps {
        let mut tape = Tape::new();
        let out = build(&mut tape, w);
        let loss = tape.sum_all(out);
        let grads = tape.backward(loss);
        std::hint::black_box(&grads);
    }
    let both = start.elapsed().as_secs_f64();
    let r = reps as f64;
    (fwd * 1e6 / r, (both - fwd).max(0.0) * 1e6 / r, tape_nodes)
}

// --- fused forms ------------------------------------------------------

fn fused_attend(tape: &mut Tape, w: &Workload) -> Var {
    let z = tape.param(&w.params, w.z);
    let a = tape.param(&w.params, w.a);
    tape.attend_aggregate(z, a, w.plan.clone(), LEAKY_SLOPE)
}

fn fused_spmm_mean(tape: &mut Tape, w: &Workload) -> Var {
    let z = tape.param(&w.params, w.z);
    tape.spmm_mean(z, w.plan.clone())
}

fn fused_spmm_norm(tape: &mut Tape, w: &Workload) -> Var {
    let z = tape.param(&w.params, w.z);
    tape.spmm_norm(z, w.plan.clone(), w.coeff.clone())
}

// --- composed forms (the pre-fusion op chains) ------------------------

fn composed_attend(tape: &mut Tape, w: &Workload) -> Var {
    let n = w.plan.num_nodes();
    let z = tape.param(&w.params, w.z);
    let zs = tape.gather_rows(z, w.src.clone());
    let zd = tape.gather_rows(z, w.dst.clone());
    let cat = tape.concat_cols(zd, zs);
    let a = tape.param(&w.params, w.a);
    let scores = tape.matmul(cat, a);
    let scores = tape.leaky_relu(scores, LEAKY_SLOPE);
    let att = tape.segment_softmax(scores, w.dst.clone(), n);
    let weighted = tape.mul_col_broadcast(zs, att);
    tape.scatter_add_rows(weighted, w.dst.clone(), n)
}

fn composed_spmm_mean(tape: &mut Tape, w: &Workload) -> Var {
    let n = w.plan.num_nodes();
    let z = tape.param(&w.params, w.z);
    let msg = tape.gather_rows(z, w.src.clone());
    let agg = tape.scatter_add_rows(msg, w.dst.clone(), n);
    let inv = tape.constant(Tensor::from_col(w.plan.inv_in_degree()));
    tape.mul_col_broadcast(agg, inv)
}

fn composed_spmm_norm(tape: &mut Tape, w: &Workload) -> Var {
    let n = w.plan.num_nodes();
    // Per-edge coefficients in original (COO) edge order, as the
    // pre-fusion GCN layer built them.
    let norm: Vec<f32> = w
        .src
        .iter()
        .zip(w.dst.iter())
        .map(|(&s, &d)| {
            1.0 / (w.plan.out_degree()[s as usize].max(1.0)
                * w.plan.in_degree()[d as usize].max(1.0))
            .sqrt()
        })
        .collect();
    let z = tape.param(&w.params, w.z);
    let msg = tape.gather_rows(z, w.src.clone());
    let norm_col = tape.constant(Tensor::from_col(&norm));
    let msg = tape.mul_col_broadcast(msg, norm_col);
    tape.scatter_add_rows(msg, w.dst.clone(), n)
}

/// Criterion-visible timings.
fn bench_kernels(c: &mut Criterion) {
    let w = workload(if quick_mode() { 64 } else { 1024 });
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    type Form = fn(&mut Tape, &Workload) -> Var;
    let forms: [(&str, Form); 6] = [
        ("attend_aggregate/fused", fused_attend),
        ("attend_aggregate/composed", composed_attend),
        ("spmm_mean/fused", fused_spmm_mean),
        ("spmm_mean/composed", composed_spmm_mean),
        ("spmm_norm/fused", fused_spmm_norm),
        ("spmm_norm/composed", composed_spmm_norm),
    ];
    for (name, form) in forms {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut tape = Tape::new();
                let out = form(&mut tape, &w);
                let loss = tape.sum_all(out);
                let grads = tape.backward(loss);
                std::hint::black_box(&grads);
            });
        });
    }
    group.finish();
}

/// Single-precision vs int8 GEMM on the executor's weight
/// shapes: one `m x k` activation block against a `k x n` packed weight
/// matrix, quantize-on-the-fly included in the int8 timing (that is
/// what the compiled path pays per request).
fn bench_gemm_precision(c: &mut Criterion) {
    let m = if quick_mode() { 64 } else { 512 };
    for kn in [16usize, 64, 128] {
        let (k, n) = (kn, kn);
        // Post-ReLU activations, as every layer past the first sees:
        // about half the entries are exact zeros, which the int8
        // kernel's nonzero-pair compression exploits.
        let a = Tensor::from_fn(m, k, |i, j| {
            (((i * 7 + j * 3) % 23) as f32 * 0.09 - 1.0).max(0.0)
        });
        let b = Tensor::from_fn(k, n, |i, j| ((i * 5 + j * 11) % 19) as f32 * 0.1 - 0.9);
        let b8 = QuantMatrix::quantize(b.as_slice(), k, n);
        let a_scale = quant::max_abs(a.as_slice()) / 127.0;
        let mut qa = vec![0_i8; m * k];
        let mut out = vec![0f32; m * n];

        let mut group = c.benchmark_group(format!("gemm_{m}x{k}x{n}"));
        group.sample_size(10);
        group.bench_function("f32", |bench| {
            bench.iter(|| {
                kernels::matmul(a.as_slice(), b.as_slice(), &mut out, m, k, n);
                std::hint::black_box(&out);
            });
        });
        group.bench_function("int8", |bench| {
            bench.iter(|| {
                quant::quantize_i8(a.as_slice(), a_scale, &mut qa);
                kernels::matmul_q8(&qa, a_scale, &b8, &mut out, m, k, n);
                std::hint::black_box(&out);
            });
        });
        group.finish();
    }
}

/// Steady-state measurement + JSON summary.
fn write_summary(_c: &mut Criterion) {
    let quick = quick_mode();
    let n = if quick { 64 } else { 1024 };
    let reps = if quick { 10 } else { 200 };
    let w = workload(n);

    type Form = fn(&mut Tape, &Workload) -> Var;
    let kernels: [(&str, Form, Form); 3] = [
        ("attend_aggregate", fused_attend, composed_attend),
        ("spmm_mean", fused_spmm_mean, composed_spmm_mean),
        ("spmm_norm", fused_spmm_norm, composed_spmm_norm),
    ];

    let mut rows = Vec::new();
    for (name, fused, composed) in kernels {
        let (f_fwd, f_bwd, f_nodes) = measure(&w, reps, fused);
        let (c_fwd, c_bwd, c_nodes) = measure(&w, reps, composed);
        println!(
            "kernels summary: {name} fused fwd {f_fwd:.1} us / bwd {f_bwd:.1} us \
             ({f_nodes} tape nodes); composed fwd {c_fwd:.1} us / bwd {c_bwd:.1} us \
             ({c_nodes} tape nodes); speedup fwd {:.2}x bwd {:.2}x",
            c_fwd / f_fwd,
            c_bwd / f_bwd
        );
        rows.push(json!({
            "kernel": name,
            "fused": {
                "forward_us": f_fwd,
                "backward_us": f_bwd,
                "tape_nodes": f_nodes,
            },
            "composed": {
                "forward_us": c_fwd,
                "backward_us": c_bwd,
                "tape_nodes": c_nodes,
            },
            "speedup_forward": c_fwd / f_fwd,
            "speedup_backward": c_bwd / f_bwd,
        }));
    }

    let hardware_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let summary = json!({
        "bench": "kernels",
        "quick_mode": quick,
        "hardware_threads": hardware_threads,
        "nodes": n,
        "edges": n * DEGREE,
        "feat_dim": FEAT_DIM,
        "kernels": rows,
    });

    let target_dir = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
    let path = format!("{target_dir}/kernels_bench.json");
    match serde_json::to_string_pretty(&summary) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("kernels bench: could not write {path}: {e}");
            } else {
                println!("kernels summary written to {path}");
            }
        }
        Err(e) => eprintln!("kernels bench: could not serialise summary: {e}"),
    }
}

criterion_group!(benches, bench_kernels, bench_gemm_precision, write_summary);
criterion_main!(benches);
