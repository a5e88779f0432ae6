//! The traced run (`--trace 1`): per-layer numbers from the benchmark's
//! own spans around public calls into each layer, on the workload's own
//! generated inputs.
//!
//! 1. Two short closed loops through the gateway, untraced then traced
//!    (`"debug": true` breakdown, allocation counting, a span per
//!    request); their `rps` ratio is the tracing overhead.
//! 2. Serial HTTP round trips, then the request path replayed in process
//!    one layer call at a time, then `Service::handle_line`.
//! 3. A manual tape / backward / Adam loop on the set-up's training set.
//!
//! Every layer is timed on every workload; which stages lie on the
//! workload's request path (and so count toward `stage.coverage`) follows
//! whether its requests hit the cache.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use paragraph::{build_graph, raw_feature_rows, CircuitGraph};
use paragraph_netlist::{parse_spice, write_flat_spice, Circuit};
use paragraph_serve::{
    fnv1a, DriftConfig, DriftMonitor, ModelRef, ModelRegistry, PredictionCache, Request as Line,
    Service,
};
use paragraph_tensor::{Adam, Tape};
use serde_json::{json, Value};

use crate::report::{Counts, Outcome};
use crate::serve::{self, PhaseCtx, Request, Setup, Spec};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{alloc, Args, CLIENTS};

/// Length of each of the untraced and traced closed loops, seconds.
const OVERHEAD_SECS: f64 = 1.5;
/// Distinct inputs replayed layer by layer (t5-class / whole-block).
const CHAIN_SMALL: usize = 24;
const CHAIN_LARGE: usize = 6;
/// Manual training steps timed per run.
const TRAIN_STEPS: usize = 18;
/// Registry opens timed per run.
const REGISTRY_OPENS: usize = 3;

/// Stages on the path of every request, in path order.
const HIT_PATH: [&str; 9] = [
    "protocol.parse",
    "netlist.parse",
    "netlist.flatten",
    "core.features",
    "drift.observe",
    "netlist.canon",
    "cache.hash",
    "cache.get",
    "protocol.encode",
];
/// Stages a cache miss adds.
const MISS_PATH: [&str; 4] = ["core.graph_build", "gnn.plan", "core.forward", "cache.put"];

/// Extra distinct inputs the traced run needs beyond the timed pools.
pub fn inputs_needed(spec: &Spec) -> usize {
    match spec.working_set {
        Some(_) => 0,
        None if spec.blocks >= 100 => CHAIN_LARGE,
        None => CHAIN_SMALL,
    }
}

fn forward(model: &ModelRef, circuit: &Circuit, cg: &CircuitGraph) -> Vec<Option<f64>> {
    match model {
        ModelRef::Single(m) => m.predict_graph(circuit, cg),
        ModelRef::Ensemble(e) => e.predict_graph(circuit, cg),
    }
}

fn member(model: &ModelRef) -> &paragraph::TargetModel {
    match model {
        ModelRef::Single(m) => m,
        ModelRef::Ensemble(e) => &e.members()[0],
    }
}

/// Dense multiply-accumulates of one forward pass, computed from tensor
/// shapes: every weight matrix applied to every node, per member.
fn computed_macs(model: &ModelRef, nodes: usize) -> f64 {
    let members = match model {
        ModelRef::Single(_) => 1,
        ModelRef::Ensemble(e) => e.members().len(),
    };
    let per_node: usize = member(model)
        .gnn()
        .params()
        .export()
        .iter()
        .filter(|(_, rows, _, _)| *rows > 1)
        .map(|(_, rows, cols, _)| rows * cols)
        .sum();
    (members * per_node * nodes) as f64
}

struct Loops {
    untraced: Counts,
    traced: crate::serve::PhaseLog,
    rps_untraced: f64,
    rps_traced: f64,
}

/// Untraced, then traced, closed loops on disjoint halves of the pool
/// (the whole working set on hit workloads).
fn overhead_loops(spec: &Spec, args: &Args, setup: &mut Setup) -> Loops {
    let pool = &setup.plan.closed;
    let (first, second) = match spec.working_set {
        Some(_) => (&pool[..], &pool[..]),
        None => pool.split_at(pool.len() / 2),
    };
    let mut ctx = PhaseCtx {
        spec,
        seed: args.seed,
        phase: 3,
        pool: first,
        miss_bodies: &setup.miss_bodies,
        sample_every: usize::MAX,
        traced: false,
    };
    let (untraced, rps_untraced, _) = serve::closed_loop(&ctx, &mut setup.conns, OVERHEAD_SECS, 0);
    ctx.phase = 4;
    ctx.pool = second;
    ctx.traced = true;
    let (traced, rps_traced, _) = serve::closed_loop(&ctx, &mut setup.conns, OVERHEAD_SECS, 0);
    Loops {
        rps_untraced,
        rps_traced,
        untraced: untraced.counts,
        traced,
    }
}

/// Replays `inputs` (with the gateway's response to each) one layer call
/// at a time, all stages for every input. Returns the median computed
/// MACs of a forward pass and any mismatch found on the way.
fn chain(
    spec: &Spec,
    setup: &Setup,
    inputs: &[(&Request, Value)],
    tracer: &mut Tracer,
) -> Result<(f64, Vec<String>), String> {
    let key = serve::model_key(spec);
    let (_, model) = setup.registry.current().resolve(Some(key))?;
    let first = member(&model);
    let obs = paragraph_obs::Registry::new();
    let drift = DriftMonitor::new(&obs, DriftConfig::default());
    drift.set_baseline(&obs, first.baseline.clone());
    let cache = PredictionCache::new(serve::service_config().cache_capacity);
    let hit = spec.working_set.is_some();
    let parsed = |body: &str| -> Result<Circuit, String> {
        let line = Line::parse(body).map_err(|e| e.to_string())?;
        let text = line.netlist.ok_or("request without netlist")?;
        parse_spice(&text)
            .map_err(|e| e.to_string())?
            .flatten()
            .map_err(|e| e.to_string())
    };
    if hit {
        for (request, response) in inputs {
            let hash = fnv1a(&write_flat_spice(&parsed(&request.body)?));
            cache.put(key, hash, Arc::new(response["result"].clone()));
        }
    }
    let tol = serve::tolerance(spec.precision);
    let macs_per_node = computed_macs(&model, 1);
    let mut macs = Vec::new();
    let mut circuits = Vec::new();
    let mut errors = Vec::new();
    for (i, (request, response)) in inputs.iter().enumerate() {
        let id = i as u64;
        let root = tracer.open("request", id);
        let p = Some(root);
        let line = tracer
            .time("protocol.parse", id, p, || Line::parse(&request.body))
            .map_err(|e| e.to_string())?;
        let text = line.netlist.as_deref().ok_or("request without netlist")?;
        let netlist = tracer
            .time("netlist.parse", id, p, || parse_spice(text))
            .map_err(|e| e.to_string())?;
        let circuit = tracer
            .time("netlist.flatten", id, p, || netlist.flatten())
            .map_err(|e| e.to_string())?;
        let rows = tracer.time("core.features", id, p, || raw_feature_rows(&circuit));
        tracer.time("drift.observe", id, p, || drift.observe(&rows));
        let canon = tracer.time("netlist.canon", id, p, || write_flat_spice(&circuit));
        let hash = tracer.time("cache.hash", id, p, || fnv1a(&canon));
        let cached = tracer.time("cache.get", id, p, || cache.get(key, hash));
        if cached.is_some() != hit {
            errors.push(format!("replayed cache lookup {i}: expected hit={hit}"));
        }
        let cg = tracer.time("core.graph_build", id, p, || {
            let mut cg = build_graph(&circuit);
            cg.normalize(&first.norm);
            cg
        });
        tracer.time("gnn.plan", id, p, || cg.graph.plan());
        let preds = tracer.time("core.forward", id, p, || forward(&model, &circuit, &cg));
        let result = Arc::new(response["result"].clone());
        tracer.time("cache.put", id, p, || cache.put(key, hash, result));
        tracer.time("protocol.encode", id, p, || crate::text(response));
        tracer.close(root);

        let names: Vec<String> = circuit.nets().iter().map(|n| n.name.clone()).collect();
        if let Err(e) = serve::compare_with_reference(response, &names, &preds, tol) {
            errors.push(format!(
                "replayed forward {i} differs from the gateway: {e}"
            ));
        }
        tracer.time("core.member_forward", id, None, || {
            first.predict_graph(&circuit, &cg)
        });
        let nodes = Arc::new(cg.net_nodes());
        tracer.time("core.forward_tape", id, None, || {
            first.gnn().predict(&cg.graph, &nodes)
        });
        macs.push(macs_per_node * cg.graph.num_nodes() as f64);
        circuits.push(circuit);
    }
    for (i, batch) in circuits.chunks_exact(CLIENTS).enumerate() {
        let refs: Vec<&Circuit> = batch.iter().collect();
        tracer.time("core.forward_batched", i as u64, None, || match &model {
            ModelRef::Single(m) => m.predict_circuits(&refs),
            ModelRef::Ensemble(e) => e.predict_circuits(&refs),
        });
    }
    Ok((median(&mut macs), errors))
}

/// `Service::handle_line` on a service with the gateway's per-shard
/// configuration over the same registry (warmed first on hit workloads).
fn service_calls(spec: &Spec, setup: &Setup, inputs: &[(&Request, Value)], tracer: &mut Tracer) {
    let service = Service::new(setup.registry.clone(), serve::service_config());
    if spec.working_set.is_some() {
        for (request, _) in inputs {
            service.handle_line(&request.body);
        }
    }
    for (i, (request, _)) in inputs.iter().enumerate() {
        tracer.time("service.call", i as u64, None, || {
            service.handle_line(&request.body)
        });
    }
}

/// Manual training steps at paper dimensions on the set-up's training set.
fn train_steps(setup: &Setup, tracer: &mut Tracer) {
    let tasks = crate::train::tasks(&setup.train);
    let mut model = crate::train::paper_model(setup.fit.seed);
    let mut opt = Adam::new(setup.fit.lr);
    for (i, task) in tasks.iter().cycle().take(TRAIN_STEPS).enumerate() {
        let id = i as u64;
        let root = tracer.open("train.step", id);
        let mut tape = Tape::new();
        let loss = tracer.time("train.forward", id, Some(root), || {
            let pred = model.predict_nodes(&mut tape, &task.graph, &task.nodes);
            let target = tape.constant(task.labels.clone());
            tape.mse_loss(pred, target)
        });
        let grads = tracer.time("train.backward", id, Some(root), || {
            tape.backward(loss).param_grads(&tape)
        });
        tracer.time("train.optim", id, Some(root), || {
            opt.step(model.params_mut(), &grads)
        });
        tracer.close(root);
    }
}

/// Runs `pass` twice on fresh state: first counting allocations (those
/// spans are dropped), then timed with counting off, so the counter
/// never perturbs a timing. The timed spans take the counted pass's
/// allocation counts.
fn counted<R>(tracer: &mut Tracer, mut pass: impl FnMut(&mut Tracer) -> R) -> R {
    let mut counting = Tracer::new();
    alloc::set_counting(true);
    pass(&mut counting);
    alloc::set_counting(false);
    let from = tracer.spans.len();
    let out = pass(tracer);
    tracer.adopt_allocs(from, &counting);
    out
}

fn metrics_json(conn: &mut crate::http::Conn) -> Result<Value, String> {
    let reply = conn
        .get("/metrics.json")
        .map_err(|e| format!("GET /metrics.json: {e}"))?;
    serde_json::from_str(&reply.body).map_err(|e| format!("/metrics.json: {e}"))
}

pub fn run_serving(
    spec: &Spec,
    args: &Args,
    setup: &mut Setup,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut loops = overhead_loops(spec, args, setup);
    outcome.errors.append(&mut loops.traced.errors);
    tracer.spans.append(&mut loops.traced.spans);

    // Serial round trips; each response also feeds the in-process replay.
    let chain_inputs: Vec<&Request> = match spec.working_set {
        Some(_) => setup.plan.closed.iter().take(CHAIN_SMALL).collect(),
        None => setup.plan.replay.iter().collect(),
    };
    let mut rtt_counts = Counts::default();
    let mut replayed = Vec::new();
    for (i, request) in chain_inputs.into_iter().enumerate() {
        let conn = &mut setup.conns[0];
        let reply = tracer.time("gateway.rtt", i as u64, None, || {
            conn.post("/predict", &request.body)
        });
        rtt_counts.attempted += 1;
        match reply {
            Ok(r) if r.status == 200 => {
                rtt_counts.ok += 1;
                let v: Value = serde_json::from_str(&r.body).map_err(|e| e.to_string())?;
                if let Err(e) =
                    serve::check_response(&v, request.signal_nets, spec.working_set.map(|_| true))
                {
                    outcome.errors.push(format!("round trip {i}: {e}"));
                }
                replayed.push((request, v));
            }
            _ => rtt_counts.other += 1,
        }
    }
    let (macs, mut mismatches) = counted(&mut tracer, |t| chain(spec, setup, &replayed, t))?;
    outcome.errors.append(&mut mismatches);
    counted(&mut tracer, |t| service_calls(spec, setup, &replayed, t));
    counted(&mut tracer, |t| train_steps(setup, t));
    let mut opens = Vec::new();
    for _ in 0..REGISTRY_OPENS {
        let t = Instant::now();
        ModelRegistry::open(&setup.model_dir).map_err(|e| e.to_string())?;
        opens.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let m = metrics_json(&mut setup.conns[0])?;
    let hits = m["totals"]["cache"]["hits"].as_f64().unwrap_or(0.0);
    let misses = m["totals"]["cache"]["misses"].as_f64().unwrap_or(0.0);
    let shards = m["shards"].as_array().cloned().unwrap_or_default();
    let batched: f64 = shards
        .iter()
        .filter_map(|s| s["batching"]["batched_jobs"].as_f64())
        .sum();
    let batches: f64 = shards
        .iter()
        .filter_map(|s| s["batching"]["batches_formed"].as_f64())
        .sum();
    let traced = &loops.traced;
    let mut queue = traced.queue_wait_us.clone();
    let mut window = traced.window_wait_us.clone();
    let attempted = traced.counts.attempted + loops.untraced.attempted;
    let failed = traced.counts.failed() + loops.untraced.failed();

    let path: Vec<&str> = if spec.working_set.is_some() {
        HIT_PATH.to_vec()
    } else {
        HIT_PATH.iter().chain(&MISS_PATH).copied().collect()
    };
    // Per replayed request: its stages' sum over its own service call.
    let mut coverage: Vec<f64> = (0..replayed.len() as u64)
        .filter_map(|r| {
            let stages: Option<f64> = path.iter().map(|s| tracer.duration_us(s, r)).sum();
            Some(stages? / tracer.duration_us("service.call", r)?)
        })
        .collect();
    let coverage = median(&mut coverage);
    let stage_sum: f64 = path.iter().map(|s| tracer.median_us(s)).sum();
    let call_us = tracer.median_us("service.call");
    let us = |name: &str| tracer.median_us(name);
    let allocs = |name: &str| tracer.median_allocs(name);
    for (metric, value, unit) in [
        ("gateway.rtt_us", us("gateway.rtt"), "us"),
        ("service.call_us", call_us, "us"),
        ("protocol.parse_us", us("protocol.parse"), "us"),
        ("protocol.encode_us", us("protocol.encode"), "us"),
        ("netlist.parse_us", us("netlist.parse"), "us"),
        ("netlist.flatten_us", us("netlist.flatten"), "us"),
        ("netlist.canon_us", us("netlist.canon"), "us"),
        ("cache.hash_us", us("cache.hash"), "us"),
        ("cache.get_us", us("cache.get"), "us"),
        ("cache.put_us", us("cache.put"), "us"),
        ("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        ("core.features_us", us("core.features"), "us"),
        ("drift.observe_us", us("drift.observe"), "us"),
        ("core.graph_build_us", us("core.graph_build"), "us"),
        ("gnn.plan_us", us("gnn.plan"), "us"),
        ("core.forward_us", us("core.forward"), "us"),
        ("core.member_forward_us", us("core.member_forward"), "us"),
        (
            "core.forward_batched_us",
            us("core.forward_batched") / CLIENTS as f64,
            "us",
        ),
        ("core.forward_tape_us", us("core.forward_tape"), "us"),
        ("exec.macs", macs, "count"),
        ("service.queue_wait_us", median(&mut queue), "us"),
        ("service.window_wait_us", median(&mut window), "us"),
        (
            "service.batch_size_mean",
            batched / batches.max(1.0),
            "count",
        ),
        (
            "service.failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("registry.open_ms", median(&mut opens), "ms"),
        ("train.forward_us", us("train.forward"), "us"),
        ("train.backward_us", us("train.backward"), "us"),
        ("train.optim_us", us("train.optim"), "us"),
        ("netlist.parse_allocs", allocs("netlist.parse"), "count"),
        ("netlist.flatten_allocs", allocs("netlist.flatten"), "count"),
        ("core.features_allocs", allocs("core.features"), "count"),
        (
            "core.graph_build_allocs",
            allocs("core.graph_build"),
            "count",
        ),
        ("core.forward_allocs", allocs("core.forward"), "count"),
        ("protocol.parse_allocs", allocs("protocol.parse"), "count"),
        ("service.call_allocs", allocs("service.call"), "count"),
        ("train.step_allocs", allocs("train.step"), "count"),
        ("stage.coverage", coverage, "ratio"),
        (
            "trace.overhead",
            loops.rps_untraced / loops.rps_traced,
            "ratio",
        ),
    ] {
        outcome.metric(metric, value, unit);
    }
    outcome.note("cache_hits", json!(hits));
    outcome.note("cache_misses", json!(misses));
    outcome.note("batches_formed", json!(batches));
    outcome.note("rps_untraced", json!(loops.rps_untraced));
    outcome.note("rps_traced", json!(loops.rps_traced));
    outcome.note("stage_sum_us", json!(stage_sum));
    outcome.note("coverage_stages", json!(path));
    outcome.note(
        "exec_over_tape",
        json!(us("core.member_forward") / us("core.forward_tape")),
    );
    outcome.note(
        "macs_basis",
        json!("computed: weight rows x cols x graph nodes x members"),
    );
    outcome
        .phases
        .push(("overhead_untraced".into(), loops.untraced));
    outcome
        .phases
        .push(("overhead_traced".into(), loops.traced.counts.clone()));
    outcome.phases.push(("round_trips".into(), rtt_counts));

    print_self_times(&tracer, coverage, stage_sum, call_us);
    let file = Path::new(".bench_out").join(format!("trace-{}-{}.json", args.workload, args.seed));
    tracer
        .write_chrome(&file)
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    outcome.note("trace_file", json!(file.display().to_string()));
    Ok(())
}

fn print_self_times(tracer: &Tracer, coverage: f64, stage_sum: f64, call_us: f64) {
    eprintln!(
        "{:<24} {:>6} {:>12} {:>12}",
        "span", "count", "median_us", "self_us"
    );
    for (name, (count, total, own)) in tracer.self_times() {
        eprintln!("{name:<24} {count:>6} {total:>12.1} {own:>12.1}");
    }
    eprintln!(
        "stage.coverage = {coverage:.3} (median over requests of stage sum / service.call; \
         base: stage medians sum {stage_sum:.1} us, service.call median {call_us:.1} us)"
    );
}
