//! The serving workloads: seeded netlists sent to the sharded gateway
//! over loopback HTTP by two client threads on keep-alive connections.
//!
//! A run sets up [`SETUP_REPS`] times (inputs, training, artifacts,
//! registry, gateway, warm-up) and reports the median as `setup_s`. The
//! last set-up then serves [`ROUNDS`] rounds of a saturated closed loop
//! (`rps`, over short windows of successful replies), a paced open loop
//! at the workload's fixed rate (`p50_ms`, `tail_ms`, timed from each
//! request's due time) and a slice of the training probe
//! (`train_steps_per_s`). The correctness gate checks every
//! response and compares a seeded sample with in-process predictions of
//! the same model.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use paragraph::{FeatureNorm, FitConfig, Precision, PreparedCircuit};
use paragraph_netlist::parse_spice;
use paragraph_serve::{
    Gateway, GatewayConfig, GatewayHandle, ModelRef, ModelRegistry, ServiceConfig, ENSEMBLE_KEY,
};
use serde_json::{json, Value};

use crate::http::{Conn, Reply};
use crate::inputs::{self, Input};
use crate::report::{Counts, Outcome};
use crate::stats::{median, mix, quantile, window_rates, BEST_OF_Q};
use crate::trace::Span;
use crate::{Args, CLIENTS};

/// One serving workload.
pub struct Spec {
    /// Blocks per generated chip.
    pub blocks: usize,
    /// Serve the four-member Algorithm-2 ensemble (else one CAP model).
    pub ensemble: bool,
    pub precision: Precision,
    /// `Some(n)`: requests repeat a warmed working set of `n` netlists.
    pub working_set: Option<usize>,
    /// Fixed arrival rate of the paced phase, requests/s.
    pub paced_rps: f64,
    /// Percentile reported as `tail_ms`.
    pub tail_q: f64,
    /// Closed-loop rate the distinct-input pool is sized for (a faster
    /// server ends the closed phase early when the pool runs out).
    pub pool_rps: f64,
    /// Successful replies per closed-loop throughput window: a multiple
    /// of the client count (windows are timed from the loop's start), and
    /// a tenth of a second or so at the workload's rate.
    pub window: usize,
}

pub const SERVE_MISS: Spec = Spec {
    blocks: 20,
    ensemble: true,
    precision: Precision::F32,
    working_set: None,
    paced_rps: 30.0,
    tail_q: 0.75,
    pool_rps: 320.0,
    window: 12,
};

pub const SERVE_HIT: Spec = Spec {
    blocks: 20,
    ensemble: true,
    precision: Precision::F32,
    working_set: Some(64),
    paced_rps: 500.0,
    tail_q: 0.75,
    pool_rps: 0.0,
    window: 100,
};

pub const SERVE_LARGE: Spec = Spec {
    blocks: 240,
    ensemble: false,
    precision: Precision::Int8,
    working_set: None,
    paced_rps: 10.0,
    tail_q: 0.8,
    pool_rps: 60.0,
    window: 8,
};

/// Closed/paced/probe rounds per run: short, so that each part samples
/// the whole run.
const ROUNDS: usize = 30;
/// Paced rounds (those with the lowest median) whose samples give
/// `p50_ms` and `tail_ms`.
const LATENCY_ROUNDS: usize = ROUNDS / 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` spent in closed-loop rounds; the paced rounds get
/// what neither they nor the training probe use.
const CLOSED_SHARE: f64 = 0.32;
/// Epochs of the serving models' training, on the seeded paper dataset.
const TRAIN_EPOCHS: usize = 1;
/// Share of `--seconds` spent timing training steps on the set-up's
/// training set (`train_steps_per_s`), split over the rounds.
const TRAIN_SHARE: f64 = 0.2;
/// Distinct warm-up requests per connection (miss workloads).
const WARMUP_PER_CONN: usize = 2;
/// Responses compared with the in-process reference, per phase.
const REFERENCE_SAMPLES: usize = 12;
/// One in this many working-set entries is compared with the reference.
const HIT_SAMPLE_EVERY: usize = 8;
/// Relative tolerance of int8 predictions (the repository's pinned int8
/// metric tolerance).
const INT8_REL_TOL: f64 = 1e-2;

/// The pinned server configuration: nothing is left to defaults that an
/// environment variable could change.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 256,
        default_deadline: Duration::from_secs(30),
        max_batch: 8,
        batch_window: Duration::ZERO,
        ..ServiceConfig::default()
    }
}

pub const SHARDS: usize = 2;

pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        shards: SHARDS,
        service: service_config(),
        ..GatewayConfig::default()
    }
}

/// The pinned settings, for the run's fingerprint.
pub fn settings_json(spec: &Spec) -> Value {
    let s = service_config();
    json!({
        "shards": SHARDS,
        "workers_per_shard": s.workers,
        "queue_capacity": s.queue_capacity,
        "cache_capacity": s.cache_capacity,
        "max_batch": s.max_batch,
        "batch_window_us": s.batch_window.as_micros() as u64,
        "deadline_ms": s.default_deadline.as_millis() as u64,
        "precision": spec.precision.name(),
        "model": model_key(spec),
        "clients": CLIENTS,
        "paced_rps": spec.paced_rps,
        "tail_percentile": spec.tail_q * 100.0,
    })
}

pub fn model_key(spec: &Spec) -> &'static str {
    if spec.ensemble {
        ENSEMBLE_KEY
    } else {
        "cap"
    }
}

/// One prepared request.
pub struct Request {
    pub body: String,
    pub signal_nets: usize,
}

/// Where each phase draws its requests from.
pub struct Plan {
    pub warmup: Vec<Request>,
    /// Closed-loop pool (miss workloads) or the working set (hit).
    pub closed: Vec<Request>,
    /// Paced pool (miss workloads; empty for hit).
    pub paced: Vec<Request>,
    /// Extra distinct inputs for the traced replay.
    pub replay: Vec<Request>,
}

impl Plan {
    fn new(spec: &Spec, args: &Args, replay: usize) -> Self {
        let closed_n = match spec.working_set {
            Some(n) => n,
            None => (spec.pool_rps * args.seconds * CLOSED_SHARE).ceil() as usize,
        };
        let paced_n = match spec.working_set {
            Some(_) => 0,
            None => paced_count(spec, args),
        };
        let warm_n = if spec.working_set.is_some() {
            0
        } else {
            WARMUP_PER_CONN * CLIENTS
        };
        let sizes = [warm_n, closed_n, paced_n, replay];
        let all = inputs::netlists(args.seed, spec.blocks, sizes.iter().sum());
        let key = model_key(spec);
        let mut requests = all.into_iter().enumerate().map(
            |(
                i,
                Input {
                    netlist,
                    signal_nets,
                },
            )| {
                Request {
                    body: inputs::request_body(i, key, &netlist),
                    signal_nets,
                }
            },
        );
        let mut take = |n: usize| requests.by_ref().take(n).collect::<Vec<_>>();
        Self {
            warmup: take(warm_n),
            closed: take(closed_n),
            paced: take(paced_n),
            replay: take(replay),
        }
    }
}

fn paced_count(spec: &Spec, args: &Args) -> usize {
    (spec.paced_rps * args.seconds * (1.0 - CLOSED_SHARE - TRAIN_SHARE)).round() as usize
}

/// A running set-up: models on disk, registry, gateway, connections.
pub struct Setup {
    pub plan: Plan,
    pub train: Vec<PreparedCircuit>,
    pub fit: FitConfig,
    pub registry: Arc<ModelRegistry>,
    pub gateway: Option<GatewayHandle>,
    pub conns: Vec<Conn>,
    /// Warm-up (cache-miss) body per connection per working-set entry.
    pub miss_bodies: Vec<Vec<String>>,
    pub model_dir: PathBuf,
    pub warmup_counts: Counts,
    pub errors: Vec<String>,
}

impl Setup {
    /// Stops the gateway and removes the artifacts.
    pub fn teardown(mut self) {
        self.conns.clear();
        if let Some(g) = self.gateway.take() {
            g.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.model_dir);
    }
}

pub fn setup(spec: &Spec, args: &Args, dir: &Path, replay: usize) -> Result<Setup, String> {
    let plan = Plan::new(spec, args, replay);
    let (train, norm) = inputs::train_set(args.seed, crate::train::SCALE);
    let fit = inputs::paper_fit(args.seed, TRAIN_EPOCHS);
    start(spec, plan, train, norm, fit, dir)
}

/// Trains and saves the models, opens the registry, starts the gateway
/// and warms it up with `plan`.
fn start(
    spec: &Spec,
    plan: Plan,
    train: Vec<PreparedCircuit>,
    norm: FeatureNorm,
    fit: FitConfig,
    dir: &Path,
) -> Result<Setup, String> {
    inputs::train_and_save(&train, &norm, &fit, spec.ensemble, spec.precision, dir)
        .map_err(|e| format!("saving artifacts: {e}"))?;
    let registry = Arc::new(ModelRegistry::open(dir).map_err(|e| e.to_string())?);
    let gateway = Gateway::bind("127.0.0.1:0", registry.clone(), gateway_config())
        .map_err(|e| format!("gateway bind: {e}"))?
        .spawn();
    let conns = (0..CLIENTS)
        .map(|_| Conn::open(gateway.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut setup = Setup {
        plan,
        train,
        fit,
        registry,
        gateway: Some(gateway),
        conns,
        miss_bodies: Vec::new(),
        model_dir: dir.to_owned(),
        warmup_counts: Counts::default(),
        errors: Vec::new(),
    };
    warm_up(spec, &mut setup);
    Ok(setup)
}

/// Compiles the lazily built executors and, for the hit workload, fills
/// every shard's cache with the working set (each connection is pinned to
/// one shard) while keeping each miss response for the byte comparison.
fn warm_up(spec: &Spec, setup: &mut Setup) {
    let Setup {
        plan,
        conns,
        miss_bodies,
        warmup_counts,
        errors,
        ..
    } = setup;
    for (c, conn) in conns.iter_mut().enumerate() {
        let mut bodies = Vec::new();
        let requests: Vec<&Request> = if spec.working_set.is_some() {
            plan.closed.iter().collect()
        } else {
            plan.warmup[c * WARMUP_PER_CONN..(c + 1) * WARMUP_PER_CONN]
                .iter()
                .collect()
        };
        for request in requests {
            let reply = conn.post("/predict", &request.body);
            match &reply {
                Ok(r) => {
                    if let Err(e) = check_reply(r, request.signal_nets, Some(false)) {
                        errors.push(format!("warm-up: {e}"));
                    }
                    bodies.push(r.body.clone());
                }
                Err(_) => bodies.push(String::new()),
            }
            tally(warmup_counts, &reply);
        }
        miss_bodies.push(bodies);
    }
}

/// Counts one reply by outcome.
fn tally(counts: &mut Counts, reply: &std::io::Result<Reply>) {
    counts.attempted += 1;
    match reply {
        Ok(r) if r.status == 200 => counts.ok += 1,
        Ok(r) if r.status == 503 => counts.shed += 1,
        Ok(r) if r.status == 504 => counts.deadline += 1,
        _ => counts.other += 1,
    }
}

/// Per-response gate: `ok`, the expected `cached` flag, and one finite
/// value per signal net.
pub fn check_reply(reply: &Reply, signal_nets: usize, cached: Option<bool>) -> Result<(), String> {
    if reply.status != 200 {
        return Ok(()); // counted as failed, not as a wrong output
    }
    let v: Value = serde_json::from_str(&reply.body).map_err(|e| format!("bad JSON: {e}"))?;
    check_response(&v, signal_nets, cached)
}

pub fn check_response(v: &Value, signal_nets: usize, cached: Option<bool>) -> Result<(), String> {
    if v["ok"].as_bool() != Some(true) {
        return Err(format!("not ok: {}", crate::text(v)));
    }
    if let Some(cached) = cached {
        if v["cached"].as_bool() != Some(cached) {
            return Err(format!("expected cached={cached}"));
        }
    }
    let preds = v["result"]["predictions"]
        .as_array()
        .ok_or("response without predictions")?;
    if preds.len() != signal_nets {
        return Err(format!(
            "{} predictions for {signal_nets} signal nets",
            preds.len()
        ));
    }
    for p in preds {
        match p["value"].as_f64() {
            Some(x) if x.is_finite() => {}
            _ => {
                return Err(format!(
                    "non-finite prediction for net {}",
                    crate::text(&p["net"])
                ))
            }
        }
    }
    Ok(())
}

/// How served predictions must match the in-process reference.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    Bitwise,
    Relative(f64),
}

pub fn tolerance(precision: Precision) -> Tolerance {
    match precision {
        Precision::F32 => Tolerance::Bitwise,
        _ => Tolerance::Relative(INT8_REL_TOL),
    }
}

/// Compares a served response with `reference` (per net id, `None` on
/// rails) for the circuit the server parsed from `netlist`.
pub fn compare_with_reference(
    response: &Value,
    net_names: &[String],
    reference: &[Option<f64>],
    tol: Tolerance,
) -> Result<(), String> {
    let served = response["result"]["predictions"]
        .as_array()
        .ok_or("response without predictions")?;
    let expected: Vec<(&String, f64)> = net_names
        .iter()
        .zip(reference)
        .filter_map(|(n, v)| v.map(|v| (n, v)))
        .collect();
    if served.len() != expected.len() {
        return Err(format!(
            "{} served values, {} in reference",
            served.len(),
            expected.len()
        ));
    }
    for (p, (name, want)) in served.iter().zip(expected) {
        let got = p["value"].as_f64().ok_or("prediction without value")?;
        if p["net"].as_str() != Some(name.as_str()) {
            return Err(format!("net order differs at {name}"));
        }
        let equal = match tol {
            Tolerance::Bitwise => got.to_bits() == want.to_bits(),
            Tolerance::Relative(r) => (got - want).abs() <= r * got.abs().max(want.abs()),
        };
        if !equal {
            return Err(format!("net {name}: served {got:e}, reference {want:e}"));
        }
    }
    Ok(())
}

/// In-process predictions of the served model for one request body.
pub fn reference(
    registry: &ModelRegistry,
    key: &str,
    body: &str,
) -> Result<(Vec<String>, Vec<Option<f64>>), String> {
    let request: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let netlist = request["netlist"].as_str().ok_or("body without netlist")?;
    let circuit = parse_spice(netlist)
        .map_err(|e| e.to_string())?
        .flatten()
        .map_err(|e| e.to_string())?;
    let (_, model) = registry.current().resolve(Some(key))?;
    let preds = match &model {
        ModelRef::Single(m) => m.predict_circuit(&circuit),
        ModelRef::Ensemble(e) => e.predict_circuit(&circuit),
    };
    let names = circuit.nets().iter().map(|n| n.name.clone()).collect();
    Ok((names, preds))
}

/// What the client threads record.
#[derive(Default)]
pub struct PhaseLog {
    pub counts: Counts,
    pub latencies_ms: Vec<f64>,
    /// Closed loops: when the loop started, then when each successful
    /// reply arrived.
    pub completions: Vec<Instant>,
    pub lags_ms: Vec<f64>,
    /// Response bodies kept for the reference comparison, by pool index.
    kept: BTreeMap<usize, String>,
    pub errors: Vec<String>,
    /// Traced loops only: the server's `debug` stage breakdown and one
    /// client span per request.
    pub queue_wait_us: Vec<f64>,
    pub window_wait_us: Vec<f64>,
    pub spans: Vec<Span>,
}

impl PhaseLog {
    fn merge(&mut self, other: PhaseLog) {
        self.counts.add(&other.counts);
        self.latencies_ms.extend(other.latencies_ms);
        self.completions.extend(other.completions);
        self.lags_ms.extend(other.lags_ms);
        self.kept.extend(other.kept);
        self.errors.extend(other.errors);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.window_wait_us.extend(other.window_wait_us);
        self.spans.extend(other.spans);
    }
}

/// Which pool entry the `k`-th request of a phase sends.
fn pick(spec: &Spec, seed: u64, phase: u64, k: usize, pool: usize) -> usize {
    match spec.working_set {
        Some(_) => (mix(seed ^ mix(phase << 32 | k as u64)) % pool as u64) as usize,
        None => k,
    }
}

/// Whether pool entry `i` is compared with the in-process reference.
fn sampled(seed: u64, phase: u64, i: usize, every: usize) -> bool {
    mix(seed ^ 0x5eed ^ mix(phase << 40 | i as u64)).is_multiple_of(every as u64)
}

/// What one phase sends, and how its replies are checked.
#[derive(Clone, Copy)]
pub struct PhaseCtx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub phase: u64,
    pub pool: &'a [Request],
    pub miss_bodies: &'a [Vec<String>],
    pub sample_every: usize,
    /// Ask for the `debug` breakdown and record a span per request.
    pub traced: bool,
}

impl PhaseCtx<'_> {
    /// Sends pool entry `i` on connection `c` and records the outcome.
    fn send(&self, conn: &mut Conn, c: usize, i: usize, log: &mut PhaseLog) -> Instant {
        let request = &self.pool[i];
        let sent = Instant::now();
        let reply = if self.traced {
            conn.post(
                "/predict",
                &request.body.replacen('{', "{\"debug\":true,", 1),
            )
        } else {
            conn.post("/predict", &request.body)
        };
        let done = Instant::now();
        tally(&mut log.counts, &reply);
        if let Ok(reply) = &reply {
            let hit = self.spec.working_set.is_some();
            if let Err(e) = check_reply(reply, request.signal_nets, Some(hit)) {
                log.errors.push(e);
            } else if self.traced {
                let v: Value = serde_json::from_str(&reply.body).unwrap_or(Value::Null);
                let stages = &v["debug"]["stages"];
                log.queue_wait_us.extend(stages["queue_wait_us"].as_f64());
                log.window_wait_us.extend(stages["window_wait_us"].as_f64());
                log.spans.push(Span {
                    name: "gateway.request",
                    request: i as u64,
                    start: sent,
                    end: done,
                    parent: None,
                    thread: c as u32 + 1,
                    allocs: None,
                });
            } else if hit && reply.status == 200 {
                let miss = &self.miss_bodies[c][i];
                if reply
                    .body
                    .replacen("\"cached\":true", "\"cached\":false", 1)
                    != *miss
                {
                    log.errors
                        .push(format!("hit response for input {i} differs from its miss"));
                }
            } else if !hit && sampled(self.seed, self.phase, i, self.sample_every) {
                log.kept.insert(i, reply.body.clone());
            }
        }
        done
    }
}

/// Saturated closed loop: each client sends its next request as soon as
/// the previous reply arrives, until `secs` pass or the pool runs out.
/// Requests are numbered from `first` on. Returns the log, the successful
/// requests per second and the number to continue from.
pub fn closed_loop(
    ctx: &PhaseCtx,
    conns: &mut [Conn],
    secs: f64,
    first: usize,
) -> (PhaseLog, f64, usize) {
    let next = AtomicUsize::new(first);
    let limit = if ctx.spec.working_set.is_some() {
        usize::MAX
    } else {
        ctx.pool.len()
    };
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(secs);
    let log = Mutex::new(PhaseLog::default());
    let last = Mutex::new(started);
    std::thread::scope(|scope| {
        for (c, conn) in conns.iter_mut().enumerate() {
            let (next, log, last) = (&next, &log, &last);
            scope.spawn(move || {
                let mut mine = PhaseLog::default();
                let mut done = started;
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= limit || Instant::now() >= end {
                        break;
                    }
                    let i = pick(ctx.spec, ctx.seed, ctx.phase, k, ctx.pool.len());
                    let sent = Instant::now();
                    let ok = mine.counts.ok;
                    done = ctx.send(conn, c, i, &mut mine);
                    mine.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
                    if mine.counts.ok > ok {
                        mine.completions.push(done);
                    }
                }
                let mut l = last.lock().expect("closed-loop clock");
                *l = (*l).max(done);
                log.lock().expect("closed-loop log").merge(mine);
            });
        }
    });
    let mut log = log.into_inner().expect("closed-loop log");
    log.completions.push(started);
    log.completions.sort();
    let elapsed = (*last.lock().expect("closed-loop clock") - started).as_secs_f64();
    let rps = log.counts.ok as f64 / elapsed.max(f64::MIN_POSITIVE);
    (log, rps, next.into_inner().min(limit))
}

/// Paced open loop over requests `range`: request `k` is due at
/// `(k - range.start) / rate`; client `k % CLIENTS` sends it when due, or
/// as soon as its previous reply arrives if that is later. Latency runs
/// from the due time, so a stall also charges the requests queued behind
/// it; the lag from due to send is reported.
fn paced_loop(ctx: &PhaseCtx, conns: &mut [Conn], range: std::ops::Range<usize>) -> PhaseLog {
    let rate = ctx.spec.paced_rps;
    let start = Instant::now() + Duration::from_millis(5);
    let log = Mutex::new(PhaseLog::default());
    let clients = conns.len();
    std::thread::scope(|scope| {
        for (c, conn) in conns.iter_mut().enumerate() {
            let (log, range) = (&log, range.clone());
            scope.spawn(move || {
                let mut mine = PhaseLog::default();
                for k in range.clone().filter(|k| k % clients == c) {
                    let due = start + Duration::from_secs_f64((k - range.start) as f64 / rate);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let i = pick(ctx.spec, ctx.seed, ctx.phase, k, ctx.pool.len());
                    let done = ctx.send(conn, c, i, &mut mine);
                    mine.lags_ms
                        .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                    mine.latencies_ms.push((done - due).as_secs_f64() * 1e3);
                }
                log.lock().expect("paced log").merge(mine);
            });
        }
    });
    log.into_inner().expect("paced log")
}

/// Runs one serving workload and fills in its end-to-end metrics (or,
/// with `--trace 1`, its per-layer metrics).
pub fn run(
    spec: &Spec,
    args: &Args,
    process_start: Instant,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let replay = if args.trace {
        crate::replay::inputs_needed(spec)
    } else {
        0
    };
    let mut setup_s = Vec::new();
    let mut current = None;
    for rep in 0..SETUP_REPS {
        let began = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let s = setup(spec, args, &out_dir.join(format!("models{rep}")), replay)?;
        setup_s.push(began.elapsed().as_secs_f64());
        if let Some(previous) = current.replace(s) {
            Setup::teardown(previous);
        }
        if args.trace {
            break; // the traced run reports no set-up time
        }
    }
    let mut setup = current.expect("at least one set-up");
    outcome.errors.append(&mut setup.errors);
    outcome
        .phases
        .push(("warmup".into(), setup.warmup_counts.clone()));
    if args.trace {
        let result = crate::replay::run_serving(spec, args, &mut setup, &mut outcome);
        setup.teardown();
        result?;
        return Ok(outcome);
    }

    // The phases (and the training probe) alternate in short rounds, so
    // each samples the whole run and a slow stretch of the host weighs on
    // them alike.
    let closed_secs = args.seconds * CLOSED_SHARE;
    let expected = (spec.pool_rps / 2.0 * closed_secs).max(1.0) as usize;
    let hit = spec.working_set.is_some();
    let paced_n = if hit {
        paced_count(spec, args)
    } else {
        setup.plan.paced.len()
    };
    let closed_ctx = PhaseCtx {
        spec,
        seed: args.seed,
        phase: 1,
        pool: &setup.plan.closed,
        miss_bodies: &setup.miss_bodies,
        sample_every: (expected / REFERENCE_SAMPLES).max(1),
        traced: false,
    };
    let paced_ctx = PhaseCtx {
        phase: 2,
        pool: if hit {
            &setup.plan.closed
        } else {
            &setup.plan.paced
        },
        sample_every: (paced_n / REFERENCE_SAMPLES).max(1),
        ..closed_ctx
    };
    let mut closed = PhaseLog::default();
    let mut paced = PhaseLog::default();
    let mut paced_rounds = Vec::new();
    let mut round_rps = Vec::new();
    let mut window_rps = Vec::new();
    let mut probe = crate::train::Stepper::new(
        crate::train::tasks(&setup.train),
        crate::train::paper_model(setup.fit.seed),
    );
    let mut next = 0;
    for r in 0..ROUNDS {
        let (log, rps, n) = closed_loop(
            &closed_ctx,
            &mut setup.conns,
            closed_secs / ROUNDS as f64,
            next,
        );
        next = n;
        if log.counts.attempted > 0 {
            round_rps.push(rps);
        }
        window_rps.extend(window_rates(&log.completions, spec.window));
        closed.merge(log);
        let range = paced_n * r / ROUNDS..paced_n * (r + 1) / ROUNDS;
        let log = paced_loop(&paced_ctx, &mut setup.conns, range);
        paced_rounds.push(log.latencies_ms.clone());
        paced.merge(log);
        probe.run_for(args.seconds * TRAIN_SHARE / ROUNDS as f64, false);
    }
    if probe.losses.is_empty() {
        probe.run_for(0.0, true); // every chip needs a timed step
    }
    if window_rps.is_empty() {
        setup.teardown();
        return Err(format!(
            "no closed-loop round reached {} successful replies",
            spec.window
        ));
    }

    // Correctness: per-response checks above, then the sampled reference.
    let key = model_key(spec);
    let tol = tolerance(spec.precision);
    let mut compared = 0;
    let mut compare = |pool: &[Request], i: usize, body: &str, errors: &mut Vec<String>| {
        compared += 1;
        let checked = reference(&setup.registry, key, &pool[i].body).and_then(|(names, preds)| {
            let v: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
            compare_with_reference(&v, &names, &preds, tol)
        });
        if let Err(e) = checked {
            errors.push(format!("reference mismatch on input {i}: {e}"));
        }
    };
    if spec.working_set.is_some() {
        for (i, body) in setup.miss_bodies[0].iter().enumerate() {
            if sampled(args.seed, 0, i, HIT_SAMPLE_EVERY) {
                compare(&setup.plan.closed, i, body, &mut outcome.errors);
            }
        }
    } else {
        for (i, body) in &closed.kept {
            compare(&setup.plan.closed, *i, body, &mut outcome.errors);
        }
        for (i, body) in &paced.kept {
            compare(&setup.plan.paced, *i, body, &mut outcome.errors);
        }
    }
    outcome.errors.extend(closed.errors.iter().cloned());
    outcome.errors.extend(paced.errors.iter().cloned());

    // Stalls of the shared host cluster in time, so latency comes from
    // the paced rounds with the lowest median: a slowdown of the program
    // itself shows in every round and so still in these.
    let mut by_median: Vec<(f64, Vec<f64>)> = paced_rounds
        .into_iter()
        .map(|mut v| (median(&mut v), v))
        .collect();
    by_median.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut latencies: Vec<f64> = by_median
        .into_iter()
        .take(LATENCY_ROUNDS)
        .flat_map(|(_, v)| v)
        .collect();
    outcome.metric("setup_s", median(&mut setup_s), "s");
    outcome.metric("rps", quantile(&mut window_rps.clone(), BEST_OF_Q), "1/s");
    outcome.metric("p50_ms", median(&mut latencies), "ms");
    outcome.metric("tail_ms", quantile(&mut latencies, spec.tail_q), "ms");
    outcome.metric("train_steps_per_s", probe.steps_per_s(), "1/s");
    outcome.metric("rss_mb", crate::peak_rss_mb(), "MB");
    outcome.note(
        "closed_latency_p50_ms",
        json!(median(&mut closed.latencies_ms)),
    );
    outcome.note("closed_round_rps", json!(round_rps));
    outcome.note("closed_windows", json!(window_rps.len() as u64));
    outcome.note(
        "closed_window_rps_q10_q50_q90_max",
        json!([0.1, 0.5, 0.9, 1.0].map(|q| quantile(&mut window_rps, q))),
    );
    outcome.note("latency_samples", json!(latencies.len() as u64));
    outcome.note(
        "paced_p50_all_rounds_ms",
        json!(median(&mut paced.latencies_ms)),
    );
    outcome.note("paced_lag_p50_ms", json!(median(&mut paced.lags_ms)));
    outcome.note("paced_lag_max_ms", json!(quantile(&mut paced.lags_ms, 1.0)));
    outcome.note("reference_compared", json!(compared as u64));
    outcome.note("setup_reps_s", json!(setup_s));
    outcome.phases.push(("closed".into(), closed.counts));
    outcome.phases.push(("paced".into(), paced.counts));
    outcome.phases.push(("train_probe".into(), probe.counts));
    setup.teardown();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph::{fit_norm, normalize_circuits, GnnKind, Target, TargetModel};
    use paragraph_serve::{LoadedModels, Service};

    /// `a`, `z` and `y`.
    const SIGNAL_NETS: usize = 3;
    const NETLIST: &str = "mp z a vdd vdd pch nf=2\nmn z a vss vss nch\nmp2 y z vdd vdd pch\nmn2 y z vss vss nch\n.end\n";

    /// A served response, its circuit's net names and the in-process
    /// reference for it, from a tiny model.
    fn served() -> (Value, Vec<String>, Vec<Option<f64>>) {
        let circuit = parse_spice(NETLIST).unwrap().flatten().unwrap();
        let mut train = vec![PreparedCircuit::new(
            "t",
            circuit,
            &paragraph_layout::LayoutConfig::default(),
        )];
        let norm = fit_norm(&train);
        normalize_circuits(&mut train, &norm);
        let mut fit = FitConfig::quick(GnnKind::Gcn);
        fit.epochs = 2;
        fit.embed_dim = 4;
        fit.layers = 1;
        let (model, _) = TargetModel::train(&train, Target::Cap, None, fit, &norm);
        let snapshot = LoadedModels::from_models([("cap".to_owned(), model)]).unwrap();
        let registry = Arc::new(ModelRegistry::from_snapshot(snapshot));
        let service = Service::new(registry.clone(), service_config());
        let body = inputs::request_body(0, "cap", NETLIST);
        let response: Value = serde_json::from_str(&service.handle_line(&body)).unwrap();
        let (names, preds) = reference(&registry, "cap", &body).unwrap();
        (response, names, preds)
    }

    #[test]
    fn gate_fails_when_the_reference_is_perturbed() {
        let (response, names, mut preds) = served();
        check_response(&response, SIGNAL_NETS, Some(false)).unwrap();
        compare_with_reference(&response, &names, &preds, Tolerance::Bitwise).unwrap();

        let i = preds.iter().position(Option::is_some).unwrap();
        let v = preds[i].unwrap();
        preds[i] = Some(f64::from_bits(v.to_bits() + 1));
        assert!(compare_with_reference(&response, &names, &preds, Tolerance::Bitwise).is_err());
        // One ulp is within the int8 tolerance; two percent is not.
        compare_with_reference(&response, &names, &preds, Tolerance::Relative(INT8_REL_TOL))
            .unwrap();
        preds[i] = Some(v * 1.02);
        assert!(compare_with_reference(
            &response,
            &names,
            &preds,
            Tolerance::Relative(INT8_REL_TOL)
        )
        .is_err());
        preds[i] = None;
        assert!(compare_with_reference(
            &response,
            &names,
            &preds,
            Tolerance::Relative(INT8_REL_TOL)
        )
        .is_err());
    }

    #[test]
    fn gate_checks_each_response() {
        let (mut response, _, _) = served();
        assert!(
            check_response(&response, SIGNAL_NETS + 1, None).is_err(),
            "one value per signal net"
        );
        assert!(
            check_response(&response, SIGNAL_NETS, Some(true)).is_err(),
            "cached flag"
        );
        response["result"]["predictions"][0]["value"] = Value::Null;
        assert!(
            check_response(&response, SIGNAL_NETS, None).is_err(),
            "non-finite value"
        );
        response["ok"] = json!(false);
        assert!(check_response(&response, SIGNAL_NETS, None).is_err());
    }
}
