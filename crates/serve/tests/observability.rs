//! Request-scoped observability end to end: request IDs, per-stage
//! debug breakdowns, the trace store's retained request records,
//! rolling latency quantiles, slow-request accounting, and drift-driven
//! health degradation.
//!
//! Every test serialises on [`LOCK`]: tests that flip the process-global
//! trace and store flags restore them before returning, and a service in
//! any other test would otherwise complete requests into the global
//! trace store while those flags are on. Assertions on recorded spans
//! and retained traces are guarded on `paragraph_obs::enabled()` /
//! `store_enabled()` so the suite also passes when the `trace` feature
//! is compiled out.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use paragraph::{
    fit_norm, normalize_circuits, FitConfig, GnnKind, PreparedCircuit, Target, TargetModel,
};
use paragraph_layout::LayoutConfig;
use paragraph_netlist::parse_spice;
use paragraph_obs::{RetainReason, TraceStore};
use paragraph_serve::{DriftConfig, LoadedModels, ModelRegistry, Service, ServiceConfig};
use serde_json::Value;

const NETLIST: &str = "mp o i vdd vdd pch\nmn o i vss vss nch\n.end\n";
const NL_ESCAPED: &str = "mp o i vdd vdd pch\\nmn o i vss vss nch\\n.end\\n";

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn train_cap_model(max_v: f64) -> TargetModel {
    let circuit = parse_spice(NETLIST).unwrap().flatten().unwrap();
    let mut train = vec![PreparedCircuit::new(
        "seed",
        circuit,
        &LayoutConfig::default(),
    )];
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    let mut fit = FitConfig::quick(GnnKind::Gcn);
    fit.epochs = 2;
    fit.embed_dim = 4;
    fit.layers = 1;
    TargetModel::train(&train, Target::Cap, Some(max_v), fit, &norm).0
}

fn service(config: ServiceConfig) -> Service {
    let snapshot = LoadedModels::from_models([
        ("cap_1f".to_owned(), train_cap_model(1e-15)),
        ("cap_10f".to_owned(), train_cap_model(10e-15)),
    ])
    .unwrap();
    Service::new(Arc::new(ModelRegistry::from_snapshot(snapshot)), config)
}

fn call(service: &Service, line: &str) -> Value {
    serde_json::from_str(&service.handle_line(line)).unwrap()
}

/// Turns the process-wide trace store on, empty, keeping one in
/// `keep_one_in` unremarkable requests.
fn fresh_store(keep_one_in: u64) -> &'static TraceStore {
    paragraph_obs::set_store_enabled(true);
    let store = paragraph_obs::trace_store();
    store.reset();
    store.set_keep_one_in(keep_one_in);
    store
}

fn close_store(store: &TraceStore) {
    paragraph_obs::set_store_enabled(false);
    store.reset();
}

/// Requests the store retained, per reason name, in completion order.
fn retained(store: &TraceStore) -> Vec<(String, &'static str)> {
    let mut summaries = store.summaries();
    summaries.reverse();
    summaries
        .into_iter()
        .map(|s| (s.op, s.reason.name()))
        .collect()
}

/// A netlist electrically unlike the training circuit: one net fanning
/// out to dozens of gates, oversized devices.
fn ood_netlist() -> String {
    let mut s = String::new();
    for i in 0..40 {
        s.push_str(&format!("mn d{i} g vss vss nch w=50u l=5u nf=8\n"));
    }
    s.push_str(".end\n");
    s.replace('\n', "\\n")
}

/// The `debug` block and the retained trace are two views of one
/// request record: the same id, model, cache flag, batch count and
/// stage breakdown.
fn assert_debug_matches_retained(store: &TraceStore, debug: &Value) {
    let request_id = debug["request_id"].as_str().expect("request id");
    let trace = store
        .get(request_id)
        .unwrap_or_else(|| panic!("{request_id} not retained"));
    assert_eq!(trace.request_id, request_id);
    assert_eq!(debug["model"].as_str(), trace.model.as_deref(), "{debug:?}");
    assert_eq!(debug["cache_hit"].as_bool(), trace.cache_hit, "{debug:?}");
    assert_eq!(debug["batched"].as_u64(), trace.batched, "{debug:?}");
    let stages: Vec<(String, f64)> = debug["stages"]
        .as_object()
        .expect("stages object")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().expect("numeric stage")))
        .collect();
    assert_eq!(stages, trace.stages, "{debug:?}");
}

#[test]
fn debug_predict_carries_stage_breakdown_and_matches_its_retained_trace() {
    let _g = lock();
    paragraph_obs::set_enabled(true);
    let _ = paragraph_obs::take_events();
    let store = fresh_store(1); // retain every request

    let svc = service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let plain = call(
        &svc,
        &format!(r#"{{"op": "predict", "id": 1, "netlist": "{NL_ESCAPED}"}}"#),
    );
    assert_eq!(plain["ok"].as_bool(), Some(true), "{plain:?}");
    assert!(plain["debug"].is_null(), "no debug unless requested");
    assert!(
        plain.as_object().unwrap().get("_obs").is_none(),
        "internal timing payload must never reach the client"
    );

    let dbg = call(
        &svc,
        &format!(r#"{{"op": "predict", "id": 2, "netlist": "{NL_ESCAPED}", "debug": true}}"#),
    );
    assert_eq!(dbg["ok"].as_bool(), Some(true), "{dbg:?}");
    assert_eq!(
        dbg["result"], plain["result"],
        "debug instrumentation must not perturb the payload"
    );
    let debug = &dbg["debug"];
    let request_id = debug["request_id"].as_str().expect("request id").to_owned();
    assert!(request_id.starts_with("req-"), "{request_id}");
    assert_eq!(debug["span"].as_str(), Some("serve_request"));
    assert_eq!(debug["cache_hit"].as_bool(), Some(true), "{debug:?}");
    let stages = &debug["stages"];
    for stage in ["parse_us", "queue_wait_us", "cache_lookup_us", "total_us"] {
        assert!(
            stages[stage].as_f64().is_some_and(|v| v >= 0.0),
            "missing stage {stage}: {stages:?}"
        );
    }

    // A cold debug request (fresh netlist) exposes the model stages.
    let cold = call(
        &svc,
        r#"{"op": "predict", "id": 3, "netlist": "mp z a vdd vdd pch\nmn z a vss vss nch\n.end\n", "debug": true}"#
            .replace('\n', "\\n")
            .as_str(),
    );
    assert_eq!(cold["ok"].as_bool(), Some(true), "{cold:?}");
    let cold_stages = &cold["debug"]["stages"];
    assert!(
        cold_stages["graph_build_us"].as_f64().is_some(),
        "{cold_stages:?}"
    );
    assert!(
        cold_stages["inference_us"]
            .as_f64()
            .is_some_and(|v| v > 0.0),
        "{cold_stages:?}"
    );
    assert_eq!(cold["debug"]["cache_hit"].as_bool(), Some(false));
    assert_eq!(
        cold["debug"]["model"].as_str(),
        Some("cap_ensemble"),
        "{cold:?}"
    );

    if paragraph_obs::store_enabled() {
        assert_debug_matches_retained(store, debug);
        assert_debug_matches_retained(store, &cold["debug"]);
    }
    if paragraph_obs::enabled() {
        let spans = paragraph_obs::take_events();
        assert!(
            spans.iter().any(|s| {
                s.name == "serve_request"
                    && s.args
                        .iter()
                        .any(|(k, v)| *k == "request_id" && v == &request_id)
            }),
            "no serve_request span carrying {request_id}"
        );
    }
    close_store(store);
    paragraph_obs::set_enabled(false);
}

#[test]
fn store_retains_errors_and_shed_requests_with_sampling_off() {
    let _g = lock();
    let store = fresh_store(0); // remarkable requests only

    let svc = service(ServiceConfig {
        // Out of reach, so no request is retained as slow.
        slow_threshold: Duration::from_secs(3600),
        ..ServiceConfig::default()
    });
    for i in 0..9 {
        let r = call(&svc, &format!(r#"{{"op": "health", "id": {i}}}"#));
        assert_eq!(r["ok"].as_bool(), Some(true));
    }
    let r = call(
        &svc,
        r#"{"op": "predict", "id": 99, "netlist": "m broken\n.end\n"}"#,
    );
    assert_eq!(
        r["error"]["code"].as_str(),
        Some("invalid_netlist"),
        "{r:?}"
    );
    // A zero deadline has passed by the time a worker pops the job.
    let r = call(
        &svc,
        &format!(r#"{{"op": "predict", "id": 100, "netlist": "{NL_ESCAPED}", "deadline_ms": 0}}"#),
    );
    assert_eq!(
        r["error"]["code"].as_str(),
        Some("deadline_exceeded"),
        "{r:?}"
    );

    if paragraph_obs::store_enabled() {
        assert_eq!(
            retained(store),
            [
                ("predict".to_owned(), "error"),
                ("predict".to_owned(), "shed")
            ],
            "ok requests are not retained with sampling off"
        );
        let counters = store.counters();
        assert_eq!(counters.completed, 11);
        assert_eq!(counters.not_retained, 9);
    }
    close_store(store);
}

#[test]
fn slow_requests_are_counted_and_always_retained() {
    let _g = lock();
    let store = fresh_store(0); // sampling must not decide slow requests

    let svc = service(ServiceConfig {
        // Zero threshold: every request counts as slow.
        slow_threshold: Duration::ZERO,
        ..ServiceConfig::default()
    });
    for i in 0..3 {
        let r = call(&svc, &format!(r#"{{"op": "health", "id": {i}}}"#));
        assert_eq!(r["ok"].as_bool(), Some(true));
    }
    // The metrics op renders before its own request is finalised, so
    // it sees exactly the three health requests.
    let metrics = call(&svc, r#"{"op": "metrics", "id": 100}"#);
    let text = metrics["result"]["prometheus"].as_str().unwrap();
    let slow_line = text
        .lines()
        .find(|l| l.starts_with("paragraph_serve_slow_requests_total"))
        .expect("slow counter rendered");
    let n: u64 = slow_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(n, 3, "slow requests counted: {slow_line}");

    if paragraph_obs::store_enabled() {
        let kept = retained(store);
        assert_eq!(kept.len(), 4, "every request retained: {kept:?}");
        assert!(kept.iter().all(|(_, reason)| *reason == "slow"), "{kept:?}");
        let counters = store.counters();
        assert_eq!(counters.retained[RetainReason::Slow as usize], 4);
        assert_eq!(counters.not_retained, 0);
    }
    close_store(store);
}

#[test]
fn rolling_latency_quantiles_reach_the_metrics_endpoint() {
    let _g = lock();
    let svc = service(ServiceConfig::default());
    for i in 0..20 {
        call(&svc, &format!(r#"{{"op": "health", "id": {i}}}"#));
    }
    let r = call(&svc, r#"{"op": "metrics", "id": 21}"#);
    let text = r["result"]["prometheus"].as_str().unwrap();
    for q in ["0.5", "0.95", "0.99"] {
        let needle =
            format!("paragraph_request_latency_rolling_us{{op=\"health\",quantile=\"{q}\"}}");
        let line = text
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("missing {needle} in:\n{text}"));
        let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(v.is_finite() && v > 0.0, "{line}");
    }
    let snap = &r["result"]["metrics"]["endpoints"];
    let health = snap
        .as_array()
        .unwrap()
        .iter()
        .find(|e| e["op"].as_str() == Some("health"))
        .unwrap();
    assert!(health["latency_rolling"][0]["latency_us"].as_f64().unwrap() > 0.0);
}

#[test]
fn ood_traffic_degrades_health_and_in_distribution_stays_green() {
    let _g = lock();
    let svc = service(ServiceConfig {
        drift: DriftConfig {
            min_requests: 4,
            degraded_fraction: 0.5,
            ..DriftConfig::default()
        },
        ..ServiceConfig::default()
    });

    // In-distribution traffic: the training netlist itself.
    for i in 0..4 {
        let r = call(
            &svc,
            &format!(r#"{{"op": "predict", "id": {i}, "netlist": "{NL_ESCAPED}"}}"#),
        );
        assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
    }
    let health = call(&svc, r#"{"op": "health", "id": 50}"#);
    assert_eq!(
        health["result"]["status"].as_str(),
        Some("ok"),
        "{health:?}"
    );
    assert_eq!(
        health["result"]["drift"]["active"].as_bool(),
        Some(true),
        "baseline stats from the artifact must arm the monitor: {health:?}"
    );
    assert_eq!(
        health["result"]["drift"]["ood_requests_total"].as_u64(),
        Some(0),
        "{health:?}"
    );

    // Now a burst of circuits far outside the training distribution.
    let bad = ood_netlist();
    for i in 0..12 {
        let r = call(
            &svc,
            &format!(
                r#"{{"op": "predict", "id": {}, "netlist": "{bad}"}}"#,
                100 + i
            ),
        );
        assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
    }
    let health = call(&svc, r#"{"op": "health", "id": 51}"#);
    assert_eq!(
        health["result"]["status"].as_str(),
        Some("degraded"),
        "{health:?}"
    );
    let ood = health["result"]["drift"]["ood_requests_total"]
        .as_u64()
        .unwrap();
    assert!(ood >= 12, "ood requests counted: {health:?}");
    let reasons = health["result"]["degraded_reasons"].as_array().unwrap();
    assert!(
        reasons
            .iter()
            .any(|r| r.as_str().unwrap().contains("out-of-distribution")),
        "{reasons:?}"
    );

    // Drift gauges are exported per feature.
    let metrics = call(&svc, r#"{"op": "metrics", "id": 52}"#);
    let text = metrics["result"]["prometheus"].as_str().unwrap();
    assert!(
        text.contains("paragraph_serve_drift_z{"),
        "missing drift gauges in:\n{text}"
    );
    assert!(text.contains("paragraph_serve_ood_requests_total"));
}

#[test]
fn health_reports_per_model_readiness() {
    let _g = lock();
    let svc = service(ServiceConfig::default());
    let health = call(&svc, r#"{"op": "health", "id": 1}"#);
    let registry = health["result"]["model_registry"].as_array().unwrap();
    assert_eq!(registry.len(), 2, "{registry:?}");
    for entry in registry {
        assert!(entry["name"].as_str().is_some());
        assert_eq!(entry["target"].as_str(), Some("CAP"));
        assert!(entry["param_count"].as_u64().unwrap() > 0);
        assert!(entry["max_value"].as_f64().unwrap() > 0.0);
        assert_eq!(entry["baseline_stats"].as_bool(), Some(true));
    }
    let ranges = health["result"]["ensemble_ranges"].as_array().unwrap();
    assert_eq!(ranges.len(), 2);
    // Members are ordered ascending max_value, each with its label range.
    assert!(ranges[0]["max_value"].as_f64().unwrap() < ranges[1]["max_value"].as_f64().unwrap());
    for r in ranges {
        assert!(r["label_max"].as_f64().is_some(), "{r:?}");
        assert_eq!(r["baseline_stats"].as_bool(), Some(true));
    }
}
