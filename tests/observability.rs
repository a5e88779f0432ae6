//! Observability acceptance tests, spanning `paragraph-obs` and the
//! training stack:
//!
//! 1. a pinned-seed training run with tracing enabled writes a valid
//!    Chrome-trace `trace.json` (schema-checked field by field),
//! 2. instrumentation never changes the math — model parameters and
//!    predictions from a traced run are bitwise identical to an
//!    uninstrumented run, and
//! 3. so are predictions made with the per-request trace store
//!    collecting.

use std::sync::Mutex;

use paragraph::prelude::*;
use paragraph_layout::LayoutConfig;
use paragraph_netlist::parse_spice;
use serde_json::Value;

/// Serialises tests that toggle the process-wide trace flag.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn dataset() -> Vec<PreparedCircuit> {
    let sources = [
        ("a", "mp o i vdd vdd pch nf=2\nmn o i vss vss nch\nr1 o f 10k\n.end\n"),
        (
            "b",
            "mp1 x i vdd vdd pch nf=4\nmn1 x i vss vss nch nf=2\nmp2 y x vdd vdd pch\nmn2 y x vss vss nch\n.end\n",
        ),
        ("c", "mn1 d1 g1 s1 vss nch nfin=8\nmn2 d2 g1 d1 vss nch nfin=4\nc1 d2 vss 20f\n.end\n"),
    ];
    let mut prepared: Vec<PreparedCircuit> = sources
        .iter()
        .map(|(name, src)| {
            let c = parse_spice(src).unwrap().flatten().unwrap();
            PreparedCircuit::new(*name, c, &LayoutConfig::default())
        })
        .collect();
    let norm = fit_norm(&prepared);
    normalize_circuits(&mut prepared, &norm);
    prepared
}

/// Trains the pinned-seed quick model.
fn train_model(prepared: &[PreparedCircuit]) -> TargetModel {
    let norm = fit_norm(prepared);
    let mut fit = FitConfig::quick(GnnKind::ParaGraph);
    fit.epochs = 8;
    fit.seed = 11;
    let (model, loss) = TargetModel::train(prepared, Target::Cap, None, fit, &norm);
    assert!(loss.is_finite());
    model
}

fn param_bits(model: &TargetModel) -> Vec<(String, usize, usize, Vec<u32>)> {
    model
        .gnn()
        .params()
        .export()
        .into_iter()
        .map(|(name, r, c, data)| (name, r, c, data.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Trains the pinned-seed quick model and returns its parameters as
/// exact bit patterns.
fn train_param_bits(prepared: &[PreparedCircuit]) -> Vec<(String, usize, usize, Vec<u32>)> {
    param_bits(&train_model(prepared))
}

/// Per-circuit predictions as exact bit patterns.
fn predict_bits(model: &TargetModel, prepared: &[PreparedCircuit]) -> Vec<Vec<Option<u64>>> {
    prepared
        .iter()
        .map(|pc| {
            model
                .predict_circuit(&pc.circuit)
                .into_iter()
                .map(|p| p.map(f64::to_bits))
                .collect()
        })
        .collect()
}

#[test]
fn traced_training_writes_schema_valid_chrome_trace() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prepared = dataset();

    paragraph_obs::take_events(); // drop leftovers from other tests
    paragraph_obs::set_enabled(true);
    let _ = train_param_bits(&prepared);
    paragraph_obs::set_enabled(false);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/target/trace.json");
    let written = paragraph_obs::write_trace(path).expect("trace written");
    assert!(written > 0, "traced training produced no events");

    let body = std::fs::read_to_string(path).unwrap();
    let doc: Value = serde_json::from_str(&body).expect("trace.json parses as JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), written);
    let mut names = std::collections::BTreeSet::new();
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"), "complete events only: {e:?}");
        assert_eq!(e["cat"].as_str(), Some("paragraph"));
        let name = e["name"].as_str().expect("string name");
        names.insert(name.to_owned());
        assert!(e["ts"].as_f64().expect("numeric ts") >= 0.0);
        assert!(e["dur"].as_f64().expect("numeric dur") >= 0.0);
        assert!(e["pid"].as_u64().is_some());
        assert!(e["tid"].as_u64().is_some());
        assert!(e["args"].as_object().is_some(), "args must be an object");
    }
    // The span hierarchy wired through the stack must actually appear.
    for expected in [
        "train_target",
        "epoch",
        "train_step",
        "tape_backward",
        "matmul",
    ] {
        assert!(
            names.contains(expected),
            "span '{expected}' missing from {names:?}"
        );
    }
}

#[test]
fn tracing_does_not_change_trained_parameters() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prepared = dataset();

    paragraph_obs::set_enabled(false);
    let plain = train_param_bits(&prepared);

    paragraph_obs::set_enabled(true);
    let traced = train_param_bits(&prepared);
    paragraph_obs::set_enabled(false);
    paragraph_obs::take_events(); // leave no buffered events behind

    assert_eq!(plain.len(), traced.len());
    for ((n_a, r_a, c_a, bits_a), (n_b, r_b, c_b, bits_b)) in plain.iter().zip(&traced) {
        assert_eq!(n_a, n_b);
        assert_eq!((r_a, c_a), (r_b, c_b), "{n_a}: shape changed");
        assert_eq!(bits_a, bits_b, "{n_a}: parameters not bitwise identical");
    }
}

/// A traced run's trained parameters *and* every prediction stay
/// bitwise identical to the quiet run.
#[test]
fn traced_run_is_bitwise_identical_in_parameters_and_predictions() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prepared = dataset();

    paragraph_obs::set_enabled(false);
    let quiet_model = train_model(&prepared);
    let quiet_preds = predict_bits(&quiet_model, &prepared);

    paragraph_obs::take_events();
    paragraph_obs::set_enabled(true);
    let traced_model = train_model(&prepared);
    let traced_preds = predict_bits(&traced_model, &prepared);
    paragraph_obs::set_enabled(false);
    paragraph_obs::take_events();

    assert_eq!(param_bits(&quiet_model), param_bits(&traced_model));
    assert_eq!(
        quiet_preds, traced_preds,
        "tracing must not perturb predictions"
    );
}

/// The tail-sampled trace store must never perturb the math: every
/// prediction from a run with the store on (context entered, spans
/// collected, trace retained) is bitwise identical to the quiet run —
/// even with span *tracing* off, where the store is the only collector.
#[test]
fn trace_store_does_not_perturb_predictions() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prepared = dataset();

    paragraph_obs::set_enabled(false);
    paragraph_obs::set_store_enabled(false);
    let model = train_model(&prepared);
    let quiet_preds = predict_bits(&model, &prepared);

    paragraph_obs::set_store_enabled(true);
    // False when the `trace` feature is compiled out; the bitwise
    // assertion below still runs in that configuration.
    let collecting = paragraph_obs::store_enabled();
    let store = paragraph_obs::trace_store();
    store.reset();
    store.set_keep_one_in(1); // retain everything: maximal bookkeeping
    store.begin("obs-parity", None);
    let stored_preds = {
        let ctx = paragraph_obs::SpanContext::request("obs-parity", None);
        let _ctx = ctx.enter();
        let _span = paragraph_obs::span!("parity_probe");
        predict_bits(&model, &prepared)
    };
    let reason = store.complete(
        "obs-parity",
        paragraph_obs::RequestOutcome {
            op: "predict".into(),
            ..Default::default()
        },
    );
    paragraph_obs::set_store_enabled(false);

    assert_eq!(
        quiet_preds, stored_preds,
        "trace store must not perturb predictions"
    );
    if collecting {
        assert_eq!(reason, Some(paragraph_obs::RetainReason::Sampled));
        let retained = store.get("obs-parity").expect("trace retained");
        assert!(
            retained.spans.iter().any(|s| s.name == "parity_probe"),
            "store-only collection lost the probe span: {:?}",
            retained.spans
        );
    }
    store.reset();
}
