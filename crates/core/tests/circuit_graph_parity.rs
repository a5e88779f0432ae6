//! Executor parity on real circuit graphs.
//!
//! The executor's random-graph parity suite wires every edge type to
//! most nodes. Circuit graphs built by `build_graph` are different: of
//! the 30 directed edge types only some are non-empty, each touches a
//! fraction of the nodes, and a device wired only to rails touches no
//! edge at all. These tests pin the executor on exactly those shapes:
//!
//! * f32: bitwise equal to the autograd-tape forward
//!   (`GnnModel::predict`), single graphs and block-diagonal batches;
//! * int8: bitwise equal to pinned digests of the outputs and
//!   calibration tables (`tests/golden/int8_circuit_graphs.json`, taken
//!   from an executor that projected every node per edge type), so
//!   skipping untouched rows can never move an int8 output. The digests
//!   pin the AVX2 + FMA dispatch; hosts without it compare against the
//!   f32 executor within the int8 tolerance.

use std::sync::Arc;

use paragraph::{build_graph, circuit_schema, raw_feature_rows, CircuitGraph, FeatureNorm};
use paragraph_circuitgen::{
    grow_chip, ChipBuilder, Family, FAMILY_ANALOG, FAMILY_DAC, FAMILY_DIGITAL, FAMILY_IO,
};
use paragraph_exec::{CompiledModel, Precision};
use paragraph_gnn::{GnnKind, GnnModel, HeteroGraph, ModelConfig};
use paragraph_netlist::{parse_spice, Circuit};
use serde_json::{json, Value};

const FAMILIES: [Family; 4] = [FAMILY_DIGITAL, FAMILY_ANALOG, FAMILY_IO, FAMILY_DAC];

/// Scale-relative int8 bound of the executor's quantized suite for
/// untrained (random-init) models.
const INT8_REL_TOL: f32 = 5e-2;

/// A chip of `blocks` blocks drawn evenly from four block families.
fn chip(seed: u64, blocks: usize) -> Circuit {
    let mut builder = ChipBuilder::new(format!("chip{seed}"), seed);
    for family in FAMILIES {
        grow_chip(&mut builder, family, blocks / FAMILIES.len());
    }
    builder.into_circuit()
}

/// MOSFETs only — every resistor / capacitor / diode / BJT / thick-gate
/// edge type stays empty — plus devices wired only to rails, whose graph
/// nodes no edge type touches.
fn sparse_circuit() -> Circuit {
    parse_spice(
        "mp1 o i vdd vdd pch nf=2\n\
         mn1 o i vss vss nch\n\
         mp2 o2 o vdd vdd pch\n\
         mn2 o2 o vss vss nch nfin=3\n\
         mn3 vss vss vss vss nch\n\
         mp3 vdd vdd vdd vdd pch l=0.1u\n\
         .end\n",
    )
    .unwrap()
    .flatten()
    .unwrap()
}

struct Case {
    name: &'static str,
    graph: CircuitGraph,
}

fn cases() -> Vec<Case> {
    let circuits = [
        ("chip20", chip(7, 20)),
        ("chip240", chip(11, 240)),
        ("sparse", sparse_circuit()),
    ];
    let mut rows: Vec<Vec<Vec<f32>>> = vec![Vec::new(); circuit_schema().num_node_types()];
    for (_, c) in &circuits {
        for (t, r) in raw_feature_rows(c).into_iter().enumerate() {
            rows[t].extend(r);
        }
    }
    let norm = FeatureNorm::fit(&rows);
    circuits
        .into_iter()
        .map(|(name, c)| {
            let mut graph = build_graph(&c);
            graph.normalize(&norm);
            Case { name, graph }
        })
        .collect()
}

/// Model variants covering every executor attention-head path: the
/// single-head ParaGraph layer, multi-head, both ablations that change
/// the head (mean aggregation, one shared edge type), GAT over the union
/// plan, and a portable (non-multiple-of-8) width.
fn variants() -> Vec<(&'static str, GnnModel)> {
    let base = |kind: GnnKind, seed: u64| {
        let mut cfg = ModelConfig::new(kind);
        cfg.embed_dim = 32;
        cfg.layers = 3;
        cfg.seed = seed;
        cfg
    };
    let mut out = Vec::new();
    out.push(("paragraph", base(GnnKind::ParaGraph, 1)));
    let mut two_heads = base(GnnKind::ParaGraph, 2);
    two_heads.attention_heads = 2;
    out.push(("paragraph_2h", two_heads));
    let mut mean = base(GnnKind::ParaGraph, 3);
    mean.ablate_attention = true;
    out.push(("paragraph_mean", mean));
    let mut shared = base(GnnKind::ParaGraph, 4);
    shared.ablate_edge_types = true;
    out.push(("paragraph_shared", shared));
    let mut gat = base(GnnKind::Gat, 5);
    gat.attention_heads = 2;
    out.push(("gat_2h", gat));
    let mut portable = base(GnnKind::ParaGraph, 6);
    portable.embed_dim = 12;
    out.push(("paragraph_w12", portable));
    out.into_iter()
        .map(|(name, cfg)| (name, GnnModel::new(cfg, &circuit_schema())))
        .collect()
}

fn all_nodes(g: &HeteroGraph) -> Vec<u32> {
    (0..g.num_nodes() as u32).collect()
}

fn assert_bitwise(got: &[f32], want: &[f32], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: output {i} differs: executor {g} vs tape {w}"
        );
    }
}

#[test]
fn circuit_graphs_have_untouched_rows_and_empty_edge_types() {
    let cases = cases();
    for case in &cases {
        let g = &case.graph.graph;
        let plan = g.plan();
        let empty = (0..g.num_edge_types())
            .filter(|&t| plan.edge_type(t).num_edges() == 0)
            .count();
        assert!(empty > 0, "{}: expected empty edge types", case.name);
        for t in 0..g.num_edge_types() {
            let tp = plan.edge_type(t);
            if tp.num_edges() > 0 {
                assert!(
                    tp.touched_rows().len() < g.num_nodes(),
                    "{}: edge type {t} touches every node",
                    case.name
                );
            }
        }
    }
    // Rail-only devices are isolated nodes.
    let sparse = &cases[2].graph.graph;
    assert!(sparse.plan().union().touched_rows().len() < sparse.num_nodes());
}

#[test]
fn f32_executor_is_bitwise_equal_to_tape_on_circuit_graphs() {
    let cases = cases();
    for (name, model) in variants() {
        let exec = CompiledModel::compile(&model).unwrap();
        for case in &cases {
            let g = &case.graph.graph;
            let nodes = all_nodes(g);
            let want = model.predict(g, &Arc::new(nodes.clone()));
            let got = exec.predict(g, &nodes);
            assert_bitwise(&got, &want, &format!("{name}/{}", case.name));
        }
    }
}

#[test]
fn f32_batched_executor_is_bitwise_equal_to_tape_on_circuit_graphs() {
    let cases = cases();
    let graphs: Vec<&HeteroGraph> = cases.iter().map(|c| &c.graph.graph).collect();
    let nodes: Vec<Vec<u32>> = graphs.iter().map(|g| all_nodes(g)).collect();
    for (name, model) in variants() {
        let exec = CompiledModel::compile(&model).unwrap();
        let batched = exec.predict_batch(&graphs, &nodes);
        for ((case, g), (local, got)) in cases.iter().zip(&graphs).zip(nodes.iter().zip(&batched)) {
            let want = model.predict(g, &Arc::new(local.clone()));
            assert_bitwise(got, &want, &format!("{name}/{} batched", case.name));
        }
    }
}

/// FNV-1a over the output bit patterns.
fn digest(values: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn record(values: &[f32]) -> Value {
    json!({
        "len": values.len(),
        "fnv1a": digest(values),
        "head": values.iter().take(4).map(|v| format!("{:08x}", v.to_bits())).collect::<Vec<_>>(),
    })
}

/// Runs every int8 variant over every case (single graphs and one
/// batch of all cases), returning the digests plus each single-graph
/// run's scale-relative error against the f32 executor.
fn int8_run() -> (Value, Vec<(String, f32)>) {
    let cases = cases();
    let graphs: Vec<&HeteroGraph> = cases.iter().map(|c| &c.graph.graph).collect();
    let nodes: Vec<Vec<u32>> = graphs.iter().map(|g| all_nodes(g)).collect();
    let mut digests = serde_json::Map::new();
    let mut errors = Vec::new();
    for (name, model) in variants() {
        let f32_exec = CompiledModel::compile(&model).unwrap();
        let samples: Vec<(&HeteroGraph, Vec<u32>)> = graphs
            .iter()
            .zip(&nodes)
            .map(|(g, n)| (*g, n.clone()))
            .collect();
        let calib = f32_exec.calibrate(&samples);
        let int8 = CompiledModel::compile_with(&model, Precision::Int8, Some(&calib)).unwrap();
        digests.insert(format!("{name}/calibration"), record(calib.sites()));
        for (case, (g, n)) in cases.iter().zip(graphs.iter().zip(&nodes)) {
            let got = int8.predict(g, n);
            digests.insert(format!("{name}/{}", case.name), record(&got));
            let reference = f32_exec.predict(g, n);
            let scale = reference.iter().fold(1e-6_f32, |m, v| m.max(v.abs()));
            let err = got
                .iter()
                .zip(&reference)
                .map(|(g, w)| (g - w).abs() / scale)
                .fold(0.0, f32::max);
            errors.push((format!("{name}/{}", case.name), err));
        }
        let batched: Vec<f32> = int8.predict_batch(&graphs, &nodes).concat();
        digests.insert(format!("{name}/batched"), record(&batched));
    }
    (Value::Object(digests), errors)
}

fn simd_dispatch_matches_golden_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[test]
fn int8_executor_matches_pinned_digests_on_circuit_graphs() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/int8_circuit_graphs.json"
    );
    let (got, errors) = int8_run();
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!(
            "missing {path}; digests of this build:\n{}",
            serde_json::to_string_pretty(&got).unwrap()
        )
    });
    let want: Value = serde_json::from_str(&text).unwrap();
    if simd_dispatch_matches_golden_host() {
        assert_eq!(
            got,
            want,
            "int8 outputs drifted from the pinned digests; this build:\n{}",
            serde_json::to_string_pretty(&got).unwrap()
        );
    } else {
        for (label, err) in errors {
            assert!(err < INT8_REL_TOL, "{label}: int8 error {err}");
        }
    }
}
