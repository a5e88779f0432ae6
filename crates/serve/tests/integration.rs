//! End-to-end test: spawn the gateway on an ephemeral port, hammer it
//! with concurrent JSON-lines clients mixing valid, malformed, and
//! past-deadline requests, and assert that served predictions are
//! bit-identical to direct in-process model predictions on both cache
//! paths.

mod common;

use std::path::Path;
use std::sync::Arc;

use common::{
    build_model_dir, direct_reference, predict_line, response_predictions, start_gateway,
    train_cap_model, LineClient as Client, NETLIST_A, NETLIST_B,
};
use paragraph::SavedModel;
use paragraph_serve::{
    GatewayConfig, GatewayHandle, ModelRegistry, Service, ServiceConfig, ENSEMBLE_KEY,
};
use serde_json::Value;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 24;

/// A one-shard gateway over `dir` (so every connection shares one cache
/// and one metrics registry) plus that shard's in-process service.
fn start_server(dir: &Path) -> (Arc<Service>, GatewayHandle) {
    let config = ServiceConfig {
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 64,
        enable_debug_ops: true,
        ..ServiceConfig::default()
    };
    let handle = start_gateway(
        dir,
        GatewayConfig {
            shards: 1,
            service: config,
            ..GatewayConfig::default()
        },
    );
    (handle.services()[0].clone(), handle)
}

#[test]
fn concurrent_clients_mixed_traffic() {
    let (dir, ensemble) = build_model_dir("it-mixed");
    let (service, handle) = start_server(&dir);
    let addr = handle.addr();
    let expected_a = Arc::new(direct_reference(&ensemble, NETLIST_A));
    let expected_b = Arc::new(direct_reference(&ensemble, NETLIST_B));
    assert!(
        expected_a.iter().any(|(_, v)| *v > 0.0),
        "reference predictions must be non-trivial"
    );

    // Warm the cache once so later identical requests can hit it, and
    // check the cached-path payload is bit-identical to the cold one.
    {
        let mut c = Client::connect(addr);
        let cold = c.roundtrip(&predict_line(9_000, NETLIST_A, None));
        assert_eq!(cold["ok"].as_bool(), Some(true), "{cold:?}");
        assert_eq!(cold["cached"].as_bool(), Some(false));
        let warm = c.roundtrip(&predict_line(9_001, NETLIST_A, None));
        assert_eq!(warm["cached"].as_bool(), Some(true));
        assert_eq!(
            cold["result"], warm["result"],
            "cache must serve identical payloads"
        );
        assert_eq!(response_predictions(&cold), *expected_a);
    }

    let threads: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let expected_a = expected_a.clone();
            let expected_b = expected_b.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut predictions_checked = 0_usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    let id = (client_id * 1000 + i) as u64;
                    match i % 8 {
                        0 | 1 => {
                            let (netlist, expected) = if i % 16 < 8 {
                                (NETLIST_A, &expected_a)
                            } else {
                                (NETLIST_B, &expected_b)
                            };
                            let r = client.roundtrip(&predict_line(id, netlist, None));
                            assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
                            assert_eq!(r["id"].as_u64(), Some(id));
                            assert_eq!(
                                response_predictions(&r),
                                **expected,
                                "served prediction differs from direct predict"
                            );
                            predictions_checked += 1;
                        }
                        2 => {
                            // Malformed JSON: structured error, connection stays up.
                            let r = client.roundtrip("this is not json {{{");
                            assert_eq!(r["ok"].as_bool(), Some(false));
                            assert_eq!(r["error"]["code"].as_str(), Some("bad_request"));
                        }
                        3 => {
                            // Unknown op.
                            let r = client.roundtrip(&format!(
                                r#"{{"op": "frobnicate", "id": {id}}}"#
                            ));
                            assert_eq!(r["error"]["code"].as_str(), Some("bad_request"));
                            assert_eq!(r["id"].as_u64(), Some(id), "id salvaged on errors");
                        }
                        4 => {
                            // Past-deadline request.
                            let r = client.roundtrip(&format!(
                                r#"{{"op": "predict", "id": {id}, "netlist": "{NL_A_ESCAPED}", "deadline_ms": 0}}"#
                            ));
                            assert_eq!(r["ok"].as_bool(), Some(false));
                            assert_eq!(
                                r["error"]["code"].as_str(),
                                Some("deadline_exceeded"),
                                "{r:?}"
                            );
                        }
                        5 => {
                            // Unparseable netlist.
                            let r = client.roundtrip(&format!(
                                r#"{{"op": "predict", "id": {id}, "netlist": "m broken\n.end\n"}}"#
                            ));
                            assert_eq!(r["ok"].as_bool(), Some(false));
                            assert_eq!(r["error"]["code"].as_str(), Some("invalid_netlist"));
                        }
                        6 => {
                            let r = client.roundtrip(&format!(
                                r#"{{"op": "stats", "id": {id}, "netlist": "{NL_A_ESCAPED}"}}"#
                            ));
                            assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
                            assert!(r["result"]["devices"].as_u64().unwrap() >= 2);
                        }
                        _ => {
                            let r = client.roundtrip(&format!(r#"{{"op": "health", "id": {id}}}"#));
                            assert_eq!(r["ok"].as_bool(), Some(true));
                            let models = r["result"]["models"].as_array().unwrap();
                            assert!(models
                                .iter()
                                .any(|m| m.as_str() == Some(ENSEMBLE_KEY)));
                        }
                    }
                }
                predictions_checked
            })
        })
        .collect();

    let total_checked: usize = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .sum();
    assert!(
        total_checked >= CLIENTS * 4,
        "predictions exercised: {total_checked}"
    );

    // Panic isolation: a worker panic returns a structured internal
    // error, and the pool keeps serving afterwards.
    {
        let mut c = Client::connect(addr);
        let r = c.roundtrip(r#"{"op": "debug_panic", "id": 7777}"#);
        assert_eq!(r["ok"].as_bool(), Some(false));
        assert_eq!(r["error"]["code"].as_str(), Some("internal"));
        assert!(r["error"]["message"].as_str().unwrap().contains("panicked"));
        let after = c.roundtrip(&predict_line(7_778, NETLIST_B, None));
        assert_eq!(
            after["ok"].as_bool(),
            Some(true),
            "pool died after a panic: {after:?}"
        );
        assert_eq!(response_predictions(&after), *expected_b);
    }

    // Metrics: counts, histogram buckets, queue depth, cache hit rate.
    {
        let mut c = Client::connect(addr);
        let r = c.roundtrip(r#"{"op": "metrics", "id": 8888}"#);
        assert_eq!(r["ok"].as_bool(), Some(true));
        let m = &r["result"]["metrics"];
        let endpoints = m["endpoints"].as_array().unwrap();
        let predict = endpoints
            .iter()
            .find(|e| e["op"].as_str() == Some("predict"))
            .expect("predict endpoint");
        let requests = predict["requests"].as_u64().unwrap();
        assert!(
            requests >= (CLIENTS * 4) as u64,
            "predict requests: {requests}"
        );
        let bucket_sum: u64 = predict["latency_buckets"]
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b["count"].as_u64().unwrap())
            .sum();
        assert_eq!(bucket_sum, requests, "histogram must cover every request");
        assert!(
            predict["errors"].as_u64().unwrap() >= 1,
            "deadline errors recorded"
        );
        assert!(m["queue_depth"].as_u64().is_some() || m["queue_depth"].as_f64().is_some());
        assert!(m["bad_lines"].as_u64().unwrap() >= CLIENTS as u64);
        let cache = &m["cache"];
        assert!(
            cache["hits"].as_u64().unwrap() > 0,
            "repeated identical requests must hit"
        );
        assert!(cache["hit_rate"].as_f64().unwrap() > 0.0);
        assert!(r["result"]["prometheus"]
            .as_str()
            .unwrap()
            .contains("paragraph_requests_total"));
    }

    // In-process API serves the same bit-identical payloads as TCP.
    {
        let line = predict_line(12_345, NETLIST_A, None);
        let response: Value = serde_json::from_str(&service.handle_line(&line)).unwrap();
        assert_eq!(response["ok"].as_bool(), Some(true));
        assert_eq!(response_predictions(&response), *expected_a);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `l=1.0000004n` prints as `l=1n` at the 6 decimals SPICE text keeps,
/// but its feature rows differ: the cache key must tell the two apart,
/// and the second request must be answered from its own circuit.
#[test]
fn parameters_that_print_alike_do_not_share_a_cache_entry() {
    let (dir, ensemble) = build_model_dir("it-exactkey");
    let (_service, handle) = start_server(&dir);
    let mut c = Client::connect(handle.addr());
    let coarse = "mp o i vdd vdd pch l=1n\nmn o i vss vss nch\n.end\n";
    let fine = "mp o i vdd vdd pch l=1.0000004n\nmn o i vss vss nch\n.end\n";
    let first = c.roundtrip(&predict_line(1, coarse, None));
    assert_eq!(first["cached"].as_bool(), Some(false), "{first:?}");
    let second = c.roundtrip(&predict_line(2, fine, None));
    assert_eq!(second["ok"].as_bool(), Some(true), "{second:?}");
    assert_eq!(
        second["cached"].as_bool(),
        Some(false),
        "served from the l=1n entry"
    );
    let served = response_predictions(&second);
    let expected = direct_reference(&ensemble, fine);
    assert_eq!(served.len(), expected.len());
    for ((net, got), (_, want)) in served.iter().zip(&expected) {
        assert_eq!(got.to_bits(), want.to_bits(), "net {net}: {got} vs {want}");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deck respelled with comments, blank lines, `+` continuations, other
/// letter case and a renamed, reordered hierarchy flattens to the same
/// circuit: it hits the entry the original wrote, byte for byte.
#[test]
fn respelled_netlist_hits_with_a_byte_identical_result() {
    let original = "\
.subckt inv a y vdd vss
mp y a vdd vdd pch l=16n nfin=4
mn y a vss vss nch l=16n nfin=2
.ends
x0 in mid vdd vss inv
x1 mid out vdd vss inv
c0 out vss 2f
.end
";
    let respelled = "\
* two-stage buffer, respelled

.SUBCKT spare p
R1 P VSS 1K
.ENDS
.Subckt INVERTER IN OUT SUP GND   $ ports renamed
MP OUT IN SUP SUP
+ PCH L=16N NFIN=4
mn out in gnd gnd nch l=16n
+ nfin=2
.ends INVERTER

X0 IN MID VDD VSS INVERTER
x1 mid out vdd vss inverter
C0 OUT VSS 2F ; load
.END
";
    let (dir, _ensemble) = build_model_dir("it-respell");
    let (_service, handle) = start_server(&dir);
    let mut c = Client::connect(handle.addr());
    let miss = c.roundtrip(&predict_line(1, original, None));
    assert_eq!(miss["ok"].as_bool(), Some(true), "{miss:?}");
    assert_eq!(miss["cached"].as_bool(), Some(false));
    let hit = c.roundtrip(&predict_line(2, respelled, None));
    assert_eq!(hit["cached"].as_bool(), Some(true), "{hit:?}");
    assert_eq!(
        serde_json::to_string(&hit["result"]).unwrap(),
        serde_json::to_string(&miss["result"]).unwrap()
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_swaps_registry() {
    let (dir, _ensemble) = build_model_dir("it-reload");
    let (service, handle) = start_server(&dir);
    let mut c = Client::connect(handle.addr());

    let r = c.roundtrip(r#"{"op": "reload", "id": 1}"#);
    assert_eq!(r["ok"].as_bool(), Some(true), "{r:?}");
    assert_eq!(r["result"]["models"].as_u64(), Some(2));
    assert_eq!(r["result"]["ensemble"].as_bool(), Some(true));

    // Add a third range member on disk; reload must pick it up.
    let model = train_cap_model(100e-15);
    std::fs::write(
        dir.join("cap_100f.json"),
        SavedModel::from_model(&model).to_json(),
    )
    .unwrap();
    let r = c.roundtrip(r#"{"op": "reload", "id": 2}"#);
    assert_eq!(r["result"]["models"].as_u64(), Some(3), "{r:?}");

    // A corrupt snapshot must fail the reload and keep the old registry.
    std::fs::write(dir.join("broken.json"), "{not a model").unwrap();
    let r = c.roundtrip(r#"{"op": "reload", "id": 3}"#);
    assert_eq!(r["ok"].as_bool(), Some(false));
    assert_eq!(r["error"]["code"].as_str(), Some("internal"));
    assert_eq!(
        service.registry().current().models.len(),
        3,
        "old snapshot retained"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `NETLIST_A` with `\n` escaped for embedding in JSON string literals.
const NL_A_ESCAPED: &str = "mp o i vdd vdd pch\\nmn o i vss vss nch\\n.end\\n";

/// A saved CAP range member with `edit` applied to its artifact text.
fn artifact(max_v: f64, edit: impl FnOnce(&mut SavedModel)) -> String {
    let mut saved = SavedModel::from_model(&train_cap_model(max_v));
    edit(&mut saved);
    saved.to_json()
}

/// An int8-pinned artifact whose first layer weight does not fit an
/// f32: it loads as +inf, which int8 packing refuses. (A NaN weight
/// cannot reach disk: the JSON writer emits `null` for it, which then
/// fails to parse.)
fn non_finite_int8_artifact() -> String {
    const MARKER: f32 = 12345.5;
    let json = artifact(100e-15, |saved| {
        saved.precision = Some("int8".into());
        let layer = saved
            .params
            .iter_mut()
            .find(|(name, ..)| name == "layer0.w")
            .expect("GCN layer weight");
        layer.3[0] = MARKER;
    });
    assert_eq!(json.matches("12345.5").count(), 1);
    json.replace("12345.5", "1e39")
}

fn temp_model_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("paragraph-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An f32 artifact whose output bias does not fit an f32 loads as +inf
/// and compiles, but drives every prediction to +inf. The service must
/// answer with a structured `internal` error — never `ok: true` with a
/// non-finite value — and must not cache that answer.
#[test]
fn non_finite_predictions_are_internal_errors_not_answers() {
    const MARKER: f32 = 12345.5;
    let dir = temp_model_dir("nonfinite");
    let json = artifact(1e-15, |saved| {
        let bias = saved
            .params
            .iter_mut()
            .rev()
            .find(|(name, ..)| name.starts_with("head") && name.ends_with(".b"))
            .expect("output bias");
        bias.3[0] = MARKER;
    });
    assert_eq!(json.matches("12345.5").count(), 1);
    std::fs::write(dir.join("cap_inf.json"), json.replace("12345.5", "1e39")).unwrap();
    let (_service, handle) = start_server(&dir);
    let mut c = Client::connect(handle.addr());
    for id in 1..=2 {
        let r = c.roundtrip(&predict_line(id, NETLIST_A, Some("cap_inf")));
        assert_eq!(r["ok"].as_bool(), Some(false), "{r:?}");
        assert_eq!(r["error"]["code"].as_str(), Some("internal"), "{r:?}");
        let message = r["error"]["message"].as_str().unwrap();
        assert!(message.contains("non-finite"), "{message}");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_rejects_an_f16_pinned_artifact() {
    let dir = temp_model_dir("f16");
    let json = artifact(1e-15, |saved| saved.precision = Some("f16".into()));
    std::fs::write(dir.join("cap_f16.json"), json).unwrap();
    let err = ModelRegistry::open(&dir).unwrap_err().to_string();
    assert!(err.contains("cap_f16.json"), "{err}");
    assert!(err.contains("unknown precision 'f16'"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_rejects_a_model_that_does_not_compile_at_open() {
    let dir = temp_model_dir("nocompile");
    std::fs::write(dir.join("cap_bad.json"), non_finite_int8_artifact()).unwrap();
    let err = ModelRegistry::open(&dir).unwrap_err().to_string();
    assert!(
        err.contains("cap_bad.json"),
        "error must name the file: {err}"
    );
    assert!(
        err.contains("cannot pack weights as int8") && err.contains("non-finite"),
        "error must give the compile reason: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_rejects_a_model_that_does_not_compile_and_keeps_serving() {
    let (dir, ensemble) = build_model_dir("it-nocompile");
    let (service, handle) = start_server(&dir);
    let mut c = Client::connect(handle.addr());
    let before = c.roundtrip(&predict_line(1, NETLIST_A, None));
    assert_eq!(before["ok"].as_bool(), Some(true), "{before:?}");

    std::fs::write(dir.join("cap_bad.json"), non_finite_int8_artifact()).unwrap();
    let r = c.roundtrip(r#"{"op": "reload", "id": 2}"#);
    assert_eq!(r["ok"].as_bool(), Some(false), "{r:?}");
    let message = r["error"]["message"].as_str().unwrap();
    assert!(
        message.contains("cap_bad.json") && message.contains("non-finite"),
        "{message}"
    );
    assert_eq!(service.registry().current().models.len(), 2);

    // The old snapshot keeps serving: a fresh netlist (a cache miss)
    // runs the old ensemble bit for bit, and the warm one is unchanged.
    let fresh = c.roundtrip(&predict_line(3, NETLIST_B, None));
    assert_eq!(fresh["cached"].as_bool(), Some(false), "{fresh:?}");
    assert_eq!(
        response_predictions(&fresh),
        direct_reference(&ensemble, NETLIST_B)
    );
    let again = c.roundtrip(&predict_line(4, NETLIST_A, None));
    assert_eq!(again["result"], before["result"]);
    assert_eq!(
        response_predictions(&again),
        direct_reference(&ensemble, NETLIST_A)
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
