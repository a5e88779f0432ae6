//! The in-process service: a fixed worker pool behind a bounded queue,
//! with per-request deadlines, panic isolation, caching, and metrics.
//!
//! In-process embedders call [`Service::call`]; the sharded gateway
//! ([`crate::Gateway`]) drives one service per shard through
//! [`Service::submit_line`] and [`Service::poll`]. Heavy operations
//! (`predict`, `stats`, `erc`) are executed on the worker pool;
//! control-plane operations (`health`, `metrics`, `reload`) are
//! answered inline so they stay responsive when the queue is full.
//!
//! Every request gets a process-unique ID (`req-<n>`), runs under a
//! `serve_request` span, and ends as one record
//! ([`paragraph_obs::RequestOutcome`]) carrying the per-stage latency
//! breakdown (parse → cache lookup → queue wait → graph build →
//! inference). The trace store decides whether to retain that record;
//! clients sending `"debug": true` get it attached to the response
//! under `debug`. The `result` payload itself is never perturbed by
//! instrumentation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paragraph_netlist::{erc_check, parse_spice, write_flat_spice, Circuit};
use paragraph_obs::Counter;
use serde_json::{json, Value};

use crate::cache::{fnv1a, PredictionCache};
use crate::drift::{baseline_from_snapshot, DriftConfig, DriftMonitor};
use crate::metrics::Metrics;
use crate::protocol::{error_response, ok_response, ErrorCode, Op, Request, ServeError};
use crate::registry::{ModelRef, ModelRegistry};

/// Key the workers use to smuggle per-stage timings back to [`Service::call`]
/// on the response envelope; popped before the envelope reaches the client.
const OBS_KEY: &str = "_obs";

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing queued requests (min 1).
    pub workers: usize,
    /// Bounded queue length; requests beyond it are rejected with
    /// `overloaded` (min 1).
    pub queue_capacity: usize,
    /// Prediction cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Deadline applied when a request does not set `deadline_ms`.
    pub default_deadline: Duration,
    /// Honour the `debug_panic` op (tests only).
    pub enable_debug_ops: bool,
    /// How many queued jobs a worker drains per wake-up (min 1). Predict
    /// jobs in the drained batch that resolve to the same model run as
    /// one forward pass over their circuits' block-diagonal graph union.
    pub max_batch: usize,
    /// Continuous micro-batching admission window. When non-zero, a
    /// worker that picked up a predict job with batching headroom keeps
    /// the queue receiver for up to this long, admitting further jobs
    /// into the same batch as they arrive (not just the ones already
    /// queued). The window is clamped per collected job so that queue
    /// wait plus window never spends more than half of any job's
    /// remaining deadline budget. Zero disables the window (drain-only
    /// batching, the pre-window behaviour). Defaults from
    /// `PARAGRAPH_BATCH_WINDOW_US` (microseconds, 0 = off).
    pub batch_window: Duration,
    /// Requests at/above this latency count as slow: counted in
    /// `paragraph_serve_slow_requests_total` and always retained by the
    /// trace store.
    pub slow_threshold: Duration,
    /// Drift-monitor tunables.
    pub drift: DriftConfig,
    /// Gateway shard this service serves, stamped onto every request's
    /// [`paragraph_obs::SpanContext`] and the retained traces built
    /// from it. `None` for unsharded embedders.
    pub shard: Option<u32>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            default_deadline: Duration::from_secs(30),
            enable_debug_ops: false,
            max_batch: 8,
            batch_window: batch_window_default(),
            slow_threshold: Duration::from_millis(500),
            drift: DriftConfig::default(),
            shard: None,
        }
    }
}

/// Admission-window length from `PARAGRAPH_BATCH_WINDOW_US`
/// (microseconds; unset, unparsable, or 0 = window disabled).
fn batch_window_default() -> Duration {
    std::env::var("PARAGRAPH_BATCH_WINDOW_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_micros)
        .unwrap_or(Duration::ZERO)
}

/// Process-global request-id counter. Ids must be unique across every
/// service in the process — the sharded gateway runs one service per
/// shard but exposes a single id space, and the trace store keys
/// retained traces on the id.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(0);

struct Job {
    request: Request,
    request_id: String,
    deadline: Instant,
    enqueued: Instant,
    reply: SyncSender<Value>,
    /// Span-routing context carried with the job so worker-side spans
    /// land in the request's trace; `None` when the store is off.
    ctx: Option<paragraph_obs::SpanContext>,
}

/// Everything [`Service::finalize`] needs once the worker's reply
/// arrives: the request identity plus the timestamps taken at
/// submission.
#[derive(Debug)]
struct CallCtx {
    id: Value,
    op: Op,
    debug: bool,
    parse_us: f64,
    request_id: String,
    started: Instant,
}

/// A data-plane request that has been queued but not yet answered.
/// Obtain one from [`Service::submit`] / [`Service::submit_line`];
/// resolve it with [`Service::poll`] (non-blocking) or
/// [`Service::wait`] (blocking). Dropping it abandons the request —
/// the worker's reply is discarded and no metrics are recorded.
#[derive(Debug)]
pub struct PendingCall {
    rx: Receiver<Value>,
    ctx: CallCtx,
}

/// Outcome of submitting a request without blocking.
#[derive(Debug)]
pub enum Submitted {
    /// Answered inline: control-plane ops, parse errors, and queue
    /// rejections (`overloaded`). Metrics are already recorded.
    Done(Value),
    /// Queued to the worker pool; resolve via [`Service::poll`] or
    /// [`Service::wait`].
    Pending(PendingCall),
}

/// The concurrent inference service.
pub struct Service {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    cache: Arc<PredictionCache>,
    drift: Arc<DriftMonitor>,
    config: ServiceConfig,
    jobs: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    slow_requests: Arc<Counter>,
    /// Invoked after a successful `reload` refreshed this service, so an
    /// embedder (the sharded gateway) can refresh sibling services that
    /// share the same registry.
    reload_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.workers.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the worker pool over `registry`.
    pub fn new(registry: Arc<ModelRegistry>, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let metrics = Arc::new(Metrics::new());
        let cache = Arc::new(PredictionCache::new(config.cache_capacity));
        let drift = Arc::new(DriftMonitor::new(metrics.registry(), config.drift.clone()));
        drift.set_baseline(
            metrics.registry(),
            baseline_from_snapshot(&registry.current()),
        );
        let slow_requests = metrics
            .registry()
            .counter("paragraph_serve_slow_requests_total", &[]);
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let registry = registry.clone();
                let cache = cache.clone();
                let metrics = metrics.clone();
                let drift = drift.clone();
                let debug_ops = config.enable_debug_ops;
                let max_batch = config.max_batch.max(1);
                let batch_window = config.batch_window;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            &rx,
                            &registry,
                            &cache,
                            &metrics,
                            &drift,
                            debug_ops,
                            max_batch,
                            batch_window,
                        )
                    })
                    .expect("spawn worker")
            })
            .collect();
        Self {
            registry,
            metrics,
            cache,
            drift,
            config,
            jobs: Some(tx),
            workers: handles,
            slow_requests,
            reload_hook: Mutex::new(None),
        }
    }

    /// The drift monitor (for health checks and tests).
    pub fn drift(&self) -> &Arc<DriftMonitor> {
        &self.drift
    }

    /// The registry backing this service.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Live metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The prediction cache.
    pub fn cache(&self) -> &Arc<PredictionCache> {
        &self.cache
    }

    /// Handles one raw protocol line, returning the response rendered as
    /// one compact JSON line (without trailing newline).
    pub fn handle_line(&self, line: &str) -> String {
        let response = match self.submit_line(line) {
            Submitted::Done(response) => response,
            Submitted::Pending(call) => self.wait(call),
        };
        serde_json::to_string(&response).expect("response serialises")
    }

    /// Executes one parsed request and returns the response envelope.
    pub fn call(&self, request: Request) -> Value {
        match self.submit_with_parse(request, 0.0) {
            Submitted::Done(response) => response,
            Submitted::Pending(call) => self.wait(call),
        }
    }

    /// Submits one raw protocol line without blocking on the worker
    /// pool. Parse failures and control-plane ops resolve to
    /// [`Submitted::Done`] immediately; data-plane ops come back as
    /// [`Submitted::Pending`] unless the queue rejected them.
    pub fn submit_line(&self, line: &str) -> Submitted {
        let parse_started = Instant::now();
        match Request::parse(line) {
            Ok(request) => {
                let parse_us = parse_started.elapsed().as_secs_f64() * 1e6;
                self.submit_with_parse(request, parse_us)
            }
            Err(err) => {
                // Salvage the id for the error envelope when the line was
                // at least a JSON object.
                let id = serde_json::from_str::<Value>(line)
                    .ok()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Value::Null);
                self.metrics.bad_line();
                Submitted::Done(error_response(&id, &err))
            }
        }
    }

    /// Submits one parsed request without blocking on the worker pool.
    pub fn submit(&self, request: Request) -> Submitted {
        self.submit_with_parse(request, 0.0)
    }

    fn submit_with_parse(&self, request: Request, parse_us: f64) -> Submitted {
        let started = Instant::now();
        let op = request.op;
        let id = request.id.clone();
        let ctx = CallCtx {
            id: id.clone(),
            op,
            debug: request.debug,
            parse_us,
            request_id: format!(
                "req-{}",
                NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed) + 1
            ),
            started,
        };
        // Open the request's span context before any span: everything
        // recorded on this thread (and, via the job, on the workers)
        // now assembles into one tree in the trace store.
        let span_ctx = paragraph_obs::store_enabled().then(|| {
            let span_ctx = paragraph_obs::SpanContext::request(&ctx.request_id, self.config.shard);
            paragraph_obs::trace_store().begin(&ctx.request_id, self.config.shard);
            span_ctx
        });
        let _ctx_guard = span_ctx.as_ref().map(paragraph_obs::SpanContext::enter);
        if parse_us > 0.0 {
            let parse_start = started
                .checked_sub(Duration::from_secs_f64(parse_us / 1e6))
                .unwrap_or(started);
            paragraph_obs::record_span_at("parse", parse_start, started, Vec::new());
        }
        // The serve_request span guard must drop (recording the span)
        // before `finalize` completes the trace, so inline-answered ops
        // keep it in their span tree; `Ok` is a resolved response,
        // `Err` a queued worker receiver.
        let outcome: Result<Value, mpsc::Receiver<Value>> = {
            let _span =
                paragraph_obs::span!("serve_request", request_id = ctx.request_id, op = op.name());
            match op {
                // Control plane: answered inline, never queued.
                Op::Health => Ok(ok_response(&id, self.health(), None)),
                Op::Metrics => Ok(ok_response(
                    &id,
                    json!({
                        "metrics": self.metrics.snapshot(&self.cache),
                        "prometheus": self.metrics.render(&self.cache),
                    }),
                    None,
                )),
                Op::Reload => Ok(match self.registry.reload() {
                    Ok(report) => {
                        self.refresh_after_reload();
                        if let Some(hook) = lock_hook(&self.reload_hook).as_ref() {
                            hook();
                        }
                        ok_response(
                            &id,
                            json!({"models": report.models, "ensemble": report.ensemble}),
                            None,
                        )
                    }
                    Err(e) => error_response(
                        &id,
                        &ServeError::new(ErrorCode::Internal, format!("reload failed: {e}")),
                    ),
                }),
                // Data plane: through the bounded queue.
                Op::Predict | Op::Stats | Op::Erc | Op::DebugPanic => {
                    match self.try_enqueue(request, &ctx.request_id, started, span_ctx.clone()) {
                        Ok(rx) => Err(rx),
                        Err(response) => Ok(response),
                    }
                }
            }
        };
        match outcome {
            Ok(response) => Submitted::Done(self.finalize(ctx, response)),
            Err(rx) => Submitted::Pending(PendingCall { rx, ctx }),
        }
    }

    /// Non-blocking check on a pending call: `Ok(response)` once the
    /// worker replied (metrics recorded, envelope finalised), `Err`
    /// handing the call back while it is still in flight.
    #[allow(clippy::missing_errors_doc)]
    pub fn poll(&self, call: PendingCall) -> Result<Value, PendingCall> {
        match call.rx.try_recv() {
            Ok(response) => Ok(self.finalize(call.ctx, response)),
            Err(mpsc::TryRecvError::Empty) => Err(call),
            Err(mpsc::TryRecvError::Disconnected) => {
                let response = error_response(
                    &call.ctx.id,
                    &ServeError::new(ErrorCode::Internal, "worker dropped the request"),
                );
                Ok(self.finalize(call.ctx, response))
            }
        }
    }

    /// Blocks until a pending call resolves.
    pub fn wait(&self, call: PendingCall) -> Value {
        match call.rx.recv() {
            Ok(response) => self.finalize(call.ctx, response),
            Err(_) => {
                let response = error_response(
                    &call.ctx.id,
                    &ServeError::new(ErrorCode::Internal, "worker dropped the request"),
                );
                self.finalize(call.ctx, response)
            }
        }
    }

    /// Invalidates reload-sensitive state: clears the prediction cache
    /// and re-derives the drift baseline from the registry's current
    /// snapshot. Runs automatically after this service's own `reload`;
    /// the sharded gateway also calls it on sibling shards (which share
    /// the registry but own their caches) via [`Service::set_reload_hook`].
    pub fn refresh_after_reload(&self) {
        self.cache.clear();
        self.drift.set_baseline(
            self.metrics.registry(),
            baseline_from_snapshot(&self.registry.current()),
        );
    }

    /// Registers a callback invoked after a successful `reload` op has
    /// refreshed this service. Replaces any previous hook.
    pub fn set_reload_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *lock_hook(&self.reload_hook) = Some(Box::new(hook));
    }

    /// Records metrics and runs the shared post-processing for one
    /// resolved request. Every response — inline, queued, or synthesised
    /// on a dead worker — funnels through here exactly once.
    fn finalize(&self, ctx: CallCtx, mut response: Value) -> Value {
        let latency = ctx.started.elapsed();
        let ok = response["ok"].as_bool() == Some(true);
        self.metrics.record(ctx.op, latency, ok);
        self.finish_request(
            &ctx.request_id,
            ctx.op,
            ctx.debug,
            ctx.parse_us,
            latency,
            ok,
            &mut response,
        );
        response
    }

    /// Post-processing common to every request: pops the workers'
    /// stage-timing payload off the envelope into the request's one
    /// record, counts it if slow, attaches the `debug` view of the
    /// record when the client asked for it, and hands the record to the
    /// trace store's retention decision. Never touches `result`.
    #[allow(clippy::too_many_arguments)]
    fn finish_request(
        &self,
        request_id: &str,
        op: Op,
        debug: bool,
        parse_us: f64,
        latency: Duration,
        ok: bool,
        response: &mut Value,
    ) {
        let worker_obs = match response {
            Value::Object(m) => m.remove(OBS_KEY),
            _ => None,
        };
        let slow = latency >= self.config.slow_threshold;
        if slow {
            self.slow_requests.inc();
        }
        let mut record = paragraph_obs::RequestOutcome {
            op: op.name().to_owned(),
            ok,
            shed: matches!(
                response["error"]["code"].as_str(),
                Some("overloaded" | "deadline_exceeded")
            ),
            slow,
            total_us: latency.as_secs_f64() * 1e6,
            stages: vec![("parse_us".to_owned(), parse_us)],
            ..Default::default()
        };
        // The debug view alone shows `member_max_v`, and shows `ood`
        // only for requests the drift monitor judged.
        let mut member_max_v = None;
        let mut ood = None;
        if let Some(Value::Object(mut o)) = worker_obs {
            if let Some(Value::Object(s)) = o.remove("stages") {
                record
                    .stages
                    .extend(s.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))));
            }
            record.model = o.remove("model").and_then(|v| v.as_str().map(String::from));
            record.cache_hit = o.remove("cache_hit").and_then(|v| v.as_bool());
            record.batched = o.remove("batched").and_then(|v| v.as_u64());
            member_max_v = o.remove("member_max_v").and_then(|v| v.as_f64());
            ood = o.remove("ood").and_then(|v| v.as_bool());
        }
        record.stages.push(("total_us".to_owned(), record.total_us));
        record.ood = ood.unwrap_or(false);
        if debug {
            let mut dbg = serde_json::Map::new();
            dbg.insert("request_id", json!(request_id));
            dbg.insert("span", json!("serve_request"));
            dbg.insert("slow", json!(slow));
            if let Some(m) = &record.model {
                dbg.insert("model", json!(m));
            }
            if let Some(c) = record.cache_hit {
                dbg.insert("cache_hit", json!(c));
            }
            if let Some(v) = member_max_v {
                dbg.insert("member_max_v", json!(v));
            }
            if let Some(b) = record.batched {
                dbg.insert("batched", json!(b));
            }
            if let Some(o) = ood {
                dbg.insert("ood", json!(o));
            }
            dbg.insert("stages", stages_json(&record.stages));
            response["debug"] = Value::Object(dbg);
        }
        // Tail retention: the request is over, its outcome known —
        // decide now whether its record and span tree are worth keeping.
        paragraph_obs::trace_store().complete(request_id, record);
    }

    /// Queues one data-plane request, returning the reply channel on
    /// success or the rejection envelope (`overloaded` / pool gone).
    fn try_enqueue(
        &self,
        request: Request,
        request_id: &str,
        accepted: Instant,
        span_ctx: Option<paragraph_obs::SpanContext>,
    ) -> Result<Receiver<Value>, Value> {
        let id = request.id.clone();
        let deadline = accepted
            + request
                .deadline_ms
                .map(Duration::from_millis)
                .unwrap_or(self.config.default_deadline);
        let (reply_tx, reply_rx) = mpsc::sync_channel::<Value>(1);
        let job = Job {
            request,
            request_id: request_id.to_owned(),
            deadline,
            enqueued: accepted,
            reply: reply_tx,
            ctx: span_ctx,
        };
        let sender = self.jobs.as_ref().expect("pool alive while service exists");
        match sender.try_send(job) {
            Ok(()) => {
                self.metrics.queue_entered();
                Ok(reply_rx)
            }
            Err(TrySendError::Full(_)) => Err(error_response(
                &id,
                &ServeError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "request queue full ({} queued); retry later",
                        self.config.queue_capacity
                    ),
                ),
            )),
            Err(TrySendError::Disconnected(_)) => Err(error_response(
                &id,
                &ServeError::new(ErrorCode::Internal, "worker pool is gone"),
            )),
        }
    }

    fn health(&self) -> Value {
        let snapshot = self.registry.current();
        let (degraded, reasons) = self.drift.status();
        let store_counters = paragraph_obs::trace_store().counters();
        let mut retained_by_reason = serde_json::Map::new();
        for (reason, n) in paragraph_obs::RetainReason::ALL
            .iter()
            .zip(store_counters.retained.iter())
        {
            retained_by_reason.insert(reason.name(), json!(*n));
        }
        let opt = |v: Option<f64>| v.map_or(Value::Null, |v| json!(v));
        let model_registry: Vec<Value> = snapshot
            .models
            .iter()
            .map(|(name, m)| {
                json!({
                    "name": name,
                    "target": m.target.name(),
                    "param_count": m.param_count(),
                    "max_value": opt(m.max_value),
                    "baseline_stats": m.baseline.is_some(),
                    "precision": m.precision_name(),
                })
            })
            .collect();
        let ensemble_ranges: Vec<Value> = snapshot
            .ensemble
            .as_ref()
            .map(|e| {
                e.members()
                    .iter()
                    .zip(&snapshot.ensemble_members)
                    .map(|(m, key)| {
                        json!({
                            "name": key,
                            "max_value": opt(m.max_value),
                            "label_min": opt(m.baseline.as_ref().and_then(|b| b.label_min)),
                            "label_max": opt(m.baseline.as_ref().and_then(|b| b.label_max)),
                            "baseline_stats": m.baseline.is_some(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        json!({
            "status": if degraded { "degraded" } else { "ok" },
            "degraded_reasons": reasons,
            "models": snapshot.keys(),
            "model_registry": model_registry,
            "ensemble_members": snapshot.ensemble_members.clone(),
            "ensemble_ranges": ensemble_ranges,
            "drift": {
                "active": self.drift.is_active(),
                "ood_requests_total": self.drift.ood_requests_total(),
                "ood_fraction": self.drift.ood_fraction(),
            },
            "trace_store": {
                "enabled": paragraph_obs::store_enabled(),
                // Wall-clock anchor of the shared span epoch:
                // unix_ns = epoch_unix_ns + ts_us * 1000 correlates
                // trace.json, the trace log, and /debug/traces
                // timestamps with external timelines.
                "epoch_unix_ns": paragraph_obs::epoch_unix_nanos(),
                "completed": store_counters.completed,
                "retained": Value::Object(retained_by_reason),
                "not_retained": store_counters.not_retained,
                "dropped_spans": store_counters.dropped_spans,
                "evicted": store_counters.evicted,
                "stored": store_counters.stored,
            },
            "workers": self.workers.len(),
            "queue_capacity": self.config.queue_capacity,
            "cache_capacity": self.config.cache_capacity,
            "uptime_ms": self.metrics.uptime().as_millis() as u64,
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Closing the channel lets every worker's `recv` fail and exit.
        self.jobs = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Poison-tolerant lock on the reload hook: a panicking hook must not
/// wedge every later reload.
fn lock_hook(
    hook: &Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
) -> std::sync::MutexGuard<'_, Option<Box<dyn Fn() + Send + Sync>>> {
    hook.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A stage breakdown as the JSON object the `debug` block, the trace
/// index and the trace log all render.
pub(crate) fn stages_json(stages: &[(String, f64)]) -> Value {
    let mut map = serde_json::Map::new();
    for (k, v) in stages {
        map.insert(k.clone(), json!(*v));
    }
    Value::Object(map)
}

/// Attaches the worker's stage-timing payload to the response envelope
/// under [`OBS_KEY`]; [`Service::call`] pops it before the envelope
/// leaves the service, so the wire payload is unchanged.
fn attach_obs(response: &mut Value, obs: Value) {
    if let Value::Object(m) = response {
        m.insert(OBS_KEY, obs);
    }
}

/// Latest instant an admission window may stay open for `job` without
/// risking its deadline: at most half of the budget remaining when the
/// window opened goes to collection, the rest stays reserved for
/// inference and response writing. A job already past its deadline
/// closes the window immediately.
fn latency_budget_close(job: &Job, opened: Instant) -> Instant {
    opened + job.deadline.saturating_duration_since(opened) / 2
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    rx: &Arc<Mutex<Receiver<Job>>>,
    registry: &Arc<ModelRegistry>,
    cache: &Arc<PredictionCache>,
    metrics: &Arc<Metrics>,
    drift: &Arc<DriftMonitor>,
    debug_ops: bool,
    max_batch: usize,
    batch_window: Duration,
) {
    loop {
        // Block for one job, then opportunistically drain whatever else
        // is already queued (up to max_batch) under the same lock, so
        // co-queued predictions can share a forward pass. Each job is
        // stamped with the instant it left the queue.
        let mut jobs: Vec<(Job, Instant)> = Vec::with_capacity(max_batch);
        {
            let guard = rx.lock().expect("queue lock poisoned");
            match guard.recv() {
                Ok(job) => jobs.push((job, Instant::now())),
                Err(_) => return, // service dropped
            }
            while jobs.len() < max_batch {
                match guard.try_recv() {
                    Ok(job) => jobs.push((job, Instant::now())),
                    Err(_) => break,
                }
            }
            // Continuous micro-batching: with a predict job in hand and
            // batching headroom, keep the receiver open for the
            // admission window so jobs arriving *now* join this forward
            // pass instead of waiting a full batch turn. Holding the
            // queue lock while waiting doubles as admit-while-running:
            // other workers block on the lock, so exactly one window
            // collects while earlier batches execute. The window is
            // re-clamped as each job lands so queue wait plus window
            // never eats more than half of anyone's deadline budget.
            if !batch_window.is_zero()
                && jobs.len() < max_batch
                && jobs.iter().any(|(j, _)| j.request.op == Op::Predict)
            {
                let opened = Instant::now();
                let mut close_by = opened + batch_window;
                for (job, _) in &jobs {
                    close_by = close_by.min(latency_budget_close(job, opened));
                }
                let mut admitted = 0_u64;
                while jobs.len() < max_batch {
                    let now = Instant::now();
                    if now >= close_by {
                        break;
                    }
                    match guard.recv_timeout(close_by - now) {
                        Ok(job) => {
                            close_by = close_by.min(latency_budget_close(&job, opened));
                            jobs.push((job, Instant::now()));
                            admitted += 1;
                        }
                        // Window elapsed, or the service was dropped —
                        // either way serve what was collected.
                        Err(_) => break,
                    }
                }
                if admitted > 0 {
                    metrics.window_admitted(admitted);
                }
            }
        }
        let collected = Instant::now();
        let mut predict_jobs = Vec::new();
        for (job, popped) in jobs {
            metrics.queue_left();
            let queue_wait_us = popped.saturating_duration_since(job.enqueued).as_secs_f64() * 1e6;
            let window_wait_us = collected.saturating_duration_since(popped).as_secs_f64() * 1e6;
            let id = job.request.id.clone();
            {
                // The wait stages were measured with plain instants;
                // synthesize their spans under the job's context so
                // the request's tree shows them.
                let _ctx = job.ctx.as_ref().map(paragraph_obs::SpanContext::enter);
                paragraph_obs::record_span_at("queue_wait", job.enqueued, popped, Vec::new());
                if window_wait_us > 0.0 {
                    paragraph_obs::record_span_at("window_wait", popped, collected, Vec::new());
                }
            }
            if Instant::now() > job.deadline {
                let mut response = error_response(
                    &id,
                    &ServeError::new(
                        ErrorCode::DeadlineExceeded,
                        "deadline passed before a worker picked the request up",
                    ),
                );
                attach_obs(
                    &mut response,
                    json!({"stages": {
                        "queue_wait_us": queue_wait_us,
                        "window_wait_us": window_wait_us,
                    }}),
                );
                let _ = job.reply.send(response);
                continue;
            }
            if job.request.op == Op::Predict {
                predict_jobs.push(QueuedPredict {
                    job,
                    queue_wait_us,
                    window_wait_us,
                });
                continue;
            }
            let exec_started = Instant::now();
            let outcome = {
                // Guard dropped before the reply is sent so every span
                // lands ahead of the submitter's retention decision.
                let _ctx = job.ctx.as_ref().map(paragraph_obs::SpanContext::enter);
                let _span = paragraph_obs::span!("execute", op = job.request.op.name());
                catch_unwind(AssertUnwindSafe(|| execute(&job.request, debug_ops)))
            };
            let exec_us = exec_started.elapsed().as_secs_f64() * 1e6;
            let mut response = match outcome {
                Ok(Ok(result)) => ok_response(&id, result, None),
                Ok(Err(err)) => error_response(&id, &err),
                Err(panic) => error_response(
                    &id,
                    &ServeError::new(
                        ErrorCode::Internal,
                        format!("worker panicked: {}", panic_message(&panic)),
                    ),
                ),
            };
            attach_obs(
                &mut response,
                json!({"stages": {
                    "queue_wait_us": queue_wait_us,
                    "window_wait_us": window_wait_us,
                    "exec_us": exec_us,
                }}),
            );
            // The caller may have given up (e.g. its connection died);
            // that must not kill the worker.
            let _ = job.reply.send(response);
        }
        if !predict_jobs.is_empty() {
            predict_many(predict_jobs, registry, cache, metrics, drift);
        }
    }
}

/// A predict job as it leaves the worker's collection phase, with the
/// time it spent queued and the time the admission window held it.
struct QueuedPredict {
    job: Job,
    queue_wait_us: f64,
    window_wait_us: f64,
}

/// One predict job that parsed and resolved but missed the cache.
struct PendingPredict {
    job: Job,
    circuit: Circuit,
    content_hash: u64,
    queue_wait_us: f64,
    window_wait_us: f64,
    lookup_us: f64,
    /// Drift monitor's verdict on this request's feature rows.
    ood: bool,
}

/// How a model group's forward pass was timed, for stage attribution.
enum GroupTiming {
    /// Single job: exact graph-build / inference split (and, for the
    /// ensemble, which member Algorithm 2 picked most often).
    Profiled {
        profile: paragraph::PredictProfile,
        member_max_v: Option<f64>,
    },
    /// Batched forward pass over `n` circuits: only the shared total.
    Batched { total_us: f64, n: usize },
}

/// Serves a drained batch of predict jobs: per-job parse / model
/// resolution / cache lookup, then one batched forward pass per distinct
/// model over the cache misses. Each job gets exactly the response the
/// single-request path would have produced; a panic inside one model
/// group fails only that group's jobs.
fn predict_many(
    jobs: Vec<QueuedPredict>,
    registry: &Arc<ModelRegistry>,
    cache: &Arc<PredictionCache>,
    metrics: &Arc<Metrics>,
    drift: &Arc<DriftMonitor>,
) {
    let snapshot = registry.current();
    let mut groups: std::collections::BTreeMap<String, (ModelRef, Vec<PendingPredict>)> =
        std::collections::BTreeMap::new();
    for QueuedPredict {
        job,
        queue_wait_us,
        window_wait_us,
    } in jobs
    {
        let id = job.request.id.clone();
        let ctx_guard = job.ctx.as_ref().map(paragraph_obs::SpanContext::enter);
        let lookup_started = Instant::now();
        let circuit = match required_netlist(&job.request) {
            Ok(c) => c,
            Err(err) => {
                let _ = job.reply.send(error_response(&id, &err));
                continue;
            }
        };
        // A size that overflows the log-scaled features never reaches
        // the drift windows, the cache or the forward pass.
        let rows = paragraph::raw_feature_rows(&circuit);
        if let Some(device) = paragraph::non_finite_device(&circuit, &rows) {
            let err = ServeError::new(
                ErrorCode::InvalidNetlist,
                format!(
                    "device '{}': parameters give a non-finite feature (size out of range)",
                    device.name
                ),
            );
            let _ = job.reply.send(error_response(&id, &err));
            continue;
        }
        // Every parsed circuit feeds the drift windows, cache hit or
        // not: the monitor watches traffic, not model invocations. The
        // per-request verdict rides along so the tail sampler can
        // retain OOD requests.
        let ood = drift.observe(&rows);
        let (key, model) = match snapshot.resolve(job.request.model.as_deref()) {
            Ok(resolved) => resolved,
            Err(m) => {
                let err = ServeError::new(ErrorCode::UnknownModel, m);
                let _ = job.reply.send(error_response(&id, &err));
                continue;
            }
        };
        let content_hash = fnv1a(&write_flat_spice(&circuit));
        if let Some(hit) = cache.get(&key, content_hash) {
            let lookup_done = Instant::now();
            let lookup_us = lookup_done.duration_since(lookup_started).as_secs_f64() * 1e6;
            paragraph_obs::record_span_at("cache_lookup", lookup_started, lookup_done, Vec::new());
            let mut response = ok_response(&id, (*hit).clone(), Some(true));
            attach_obs(
                &mut response,
                json!({
                    "stages": {
                        "queue_wait_us": queue_wait_us,
                        "window_wait_us": window_wait_us,
                        "cache_lookup_us": lookup_us,
                    },
                    "model": key,
                    "cache_hit": true,
                    "ood": ood,
                }),
            );
            drop(ctx_guard);
            let _ = job.reply.send(response);
            continue;
        }
        let lookup_done = Instant::now();
        let lookup_us = lookup_done.duration_since(lookup_started).as_secs_f64() * 1e6;
        paragraph_obs::record_span_at("cache_lookup", lookup_started, lookup_done, Vec::new());
        groups
            .entry(key)
            .or_insert_with(|| (model, Vec::new()))
            .1
            .push(PendingPredict {
                job,
                circuit,
                content_hash,
                queue_wait_us,
                window_wait_us,
                lookup_us,
                ood,
            });
    }
    for (key, (model, pending)) in groups {
        metrics.record_batch(pending.len());
        if pending.len() > 1 {
            paragraph_obs::global()
                .counter("paragraph_serve_predict_batched_jobs_total", &[])
                .add(pending.len() as u64);
        }
        let circuits: Vec<&Circuit> = pending.iter().map(|p| &p.circuit).collect();
        // One batch context covering every member: spans recorded under
        // it (batch assemble, forward pass) fan out to each member's
        // trace. Guards are scoped so all spans land before replies go
        // out and the submitters finalize their traces.
        let batch_ctx = if pending.iter().any(|p| p.job.ctx.is_some()) {
            let shard = pending
                .iter()
                .find_map(|p| p.job.ctx.as_ref().and_then(|c| c.shard()));
            Some(paragraph_obs::SpanContext::batch(
                pending.iter().map(|p| p.job.request_id.as_str()),
                shard,
            ))
        } else {
            None
        };
        let outcome = {
            let _batch_guard = batch_ctx.as_ref().map(paragraph_obs::SpanContext::enter);
            let _span = paragraph_obs::span!("inference", model = key, jobs = pending.len());
            catch_unwind(AssertUnwindSafe(|| {
                if circuits.len() == 1 {
                    // Lone job: the profiled path runs the identical
                    // build_graph + predict_graph chain (bit-identical
                    // output) while splitting the stage timings out.
                    match &model {
                        ModelRef::Single(m) => {
                            let (preds, profile) = m.predict_circuit_profiled(circuits[0]);
                            let timing = GroupTiming::Profiled {
                                profile,
                                member_max_v: None,
                            };
                            (vec![preds], timing)
                        }
                        ModelRef::Ensemble(e) => {
                            let (preds, profile, selected) =
                                e.predict_circuit_profiled(circuits[0]);
                            let member_max_v = selected
                                .iter()
                                .enumerate()
                                .max_by_key(|(_, &n)| n)
                                .filter(|(_, &n)| n > 0)
                                .and_then(|(i, _)| e.members()[i].max_value);
                            let timing = GroupTiming::Profiled {
                                profile,
                                member_max_v,
                            };
                            (vec![preds], timing)
                        }
                    }
                } else {
                    let batch_started = Instant::now();
                    let per_circuit = match &model {
                        ModelRef::Single(m) => m.predict_circuits(&circuits),
                        ModelRef::Ensemble(e) => e.predict_circuits(&circuits),
                    };
                    let timing = GroupTiming::Batched {
                        total_us: batch_started.elapsed().as_secs_f64() * 1e6,
                        n: circuits.len(),
                    };
                    (per_circuit, timing)
                }
            }))
        };
        match outcome {
            Ok((per_circuit, timing)) => {
                // Attribute this forward pass to its precision. Cache
                // hits never get here.
                let inference_us = match &timing {
                    GroupTiming::Profiled { profile, .. } => profile.inference_us,
                    GroupTiming::Batched { total_us, .. } => *total_us,
                };
                metrics.record_precision(
                    model.precision_name(),
                    Duration::from_secs_f64(inference_us / 1e6),
                );
                for (p, preds) in pending.into_iter().zip(per_circuit) {
                    if preds.iter().flatten().any(|v| !v.is_finite()) {
                        // Finite features can still drive a model to
                        // inf/NaN; that answer is never served or cached.
                        let err = ServeError::new(
                            ErrorCode::Internal,
                            format!("model '{key}' produced a non-finite prediction"),
                        );
                        let _ = p.job.reply.send(error_response(&p.job.request.id, &err));
                        continue;
                    }
                    let ctx_guard = p.job.ctx.as_ref().map(paragraph_obs::SpanContext::enter);
                    let response = {
                        let _span =
                            paragraph_obs::span!("predict_job", request_id = p.job.request_id);
                        let id = p.job.request.id.clone();
                        let result = render_prediction(&key, &model, &p.circuit, &preds);
                        cache.put(&key, p.content_hash, Arc::new(result.clone()));
                        let mut stages = json!({
                            "queue_wait_us": p.queue_wait_us,
                            "window_wait_us": p.window_wait_us,
                            "cache_lookup_us": p.lookup_us,
                        });
                        let mut obs = serde_json::Map::new();
                        match &timing {
                            GroupTiming::Profiled {
                                profile,
                                member_max_v,
                            } => {
                                stages["graph_build_us"] = json!(profile.graph_build_us);
                                stages["inference_us"] = json!(profile.inference_us);
                                if let Some(v) = member_max_v {
                                    obs.insert("member_max_v", json!(*v));
                                }
                            }
                            GroupTiming::Batched { total_us, n } => {
                                stages["inference_us"] = json!(*total_us);
                                obs.insert("batched", json!(*n as u64));
                            }
                        }
                        obs.insert("stages", stages);
                        obs.insert("model", json!(key.clone()));
                        obs.insert("cache_hit", json!(false));
                        obs.insert("ood", json!(p.ood));
                        let mut response = ok_response(&id, result, Some(false));
                        attach_obs(&mut response, Value::Object(obs));
                        response
                    };
                    drop(ctx_guard);
                    let _ = p.job.reply.send(response);
                }
            }
            Err(panic) => {
                let err = ServeError::new(
                    ErrorCode::Internal,
                    format!("worker panicked: {}", panic_message(&panic)),
                );
                for p in pending {
                    let _ = p.job.reply.send(error_response(&p.job.request.id, &err));
                }
            }
        }
    }
}

/// The predict response body for one circuit's predictions — shared by
/// the batched and single-request paths so they stay byte-identical.
fn render_prediction(
    key: &str,
    model: &ModelRef,
    circuit: &Circuit,
    preds: &[Option<f64>],
) -> Value {
    match model {
        ModelRef::Single(m) => {
            let predictions: Vec<Value> = if m.target.on_nets() {
                named_predictions(preds, circuit.nets().iter().map(|n| n.name.as_str()), "net")
            } else {
                named_predictions(
                    preds,
                    circuit.devices().iter().map(|d| d.name.as_str()),
                    "device",
                )
            };
            json!({
                "model": key,
                "target": m.target.name(),
                "predictions": predictions,
            })
        }
        ModelRef::Ensemble(e) => json!({
            "model": key,
            "target": "CAP",
            "members": e.members().len(),
            "predictions": named_predictions(
                preds,
                circuit.nets().iter().map(|n| n.name.as_str()),
                "net",
            ),
        }),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn execute(request: &Request, debug_ops: bool) -> Result<Value, ServeError> {
    match request.op {
        Op::Stats => stats(request),
        Op::Erc => erc(request),
        Op::DebugPanic if debug_ops => panic!("debug panic requested"),
        Op::DebugPanic => Err(ServeError::new(
            ErrorCode::BadRequest,
            "debug ops are disabled on this service",
        )),
        // Control-plane ops never reach the queue; predicts are served
        // in batches by `predict_many`.
        Op::Predict | Op::Health | Op::Metrics | Op::Reload => Err(ServeError::new(
            ErrorCode::Internal,
            "op routed to the wrong worker path",
        )),
    }
}

fn required_netlist(request: &Request) -> Result<Circuit, ServeError> {
    let text = request.netlist.as_deref().ok_or_else(|| {
        ServeError::new(
            ErrorCode::BadRequest,
            format!("op '{}' requires a 'netlist' field", request.op.name()),
        )
    })?;
    parse_spice(text)
        .map_err(|e| ServeError::new(ErrorCode::InvalidNetlist, format!("parse error: {e}")))?
        .flatten()
        .map_err(|e| ServeError::new(ErrorCode::InvalidNetlist, format!("flatten error: {e}")))
}

fn named_predictions<'a>(
    preds: &[Option<f64>],
    names: impl Iterator<Item = &'a str>,
    label: &str,
) -> Vec<Value> {
    names
        .zip(preds)
        .filter_map(|(name, p)| {
            p.map(|v| {
                let mut entry = serde_json::Map::new();
                entry.insert(label, Value::String(name.to_owned()));
                entry.insert("value", json!(v));
                Value::Object(entry)
            })
        })
        .collect()
}

fn stats(request: &Request) -> Result<Value, ServeError> {
    let circuit = required_netlist(request)?;
    let k = circuit.kind_counts();
    let cg = paragraph::build_graph(&circuit);
    Ok(json!({
        "circuit": circuit.name,
        "nets": circuit.num_nets(),
        "signal_nets": k.net,
        "devices": circuit.num_devices(),
        "kinds": {
            "tran": k.tran, "tran_th": k.tran_th, "res": k.res,
            "cap": k.cap, "bjt": k.bjt, "dio": k.dio,
        },
        "graph": {
            "nodes": cg.graph.num_nodes(),
            "edges": cg.graph.num_edges(),
            "edge_types": cg.graph.num_edge_types(),
        },
    }))
}

fn erc(request: &Request) -> Result<Value, ServeError> {
    let circuit = required_netlist(request)?;
    let findings = erc_check(&circuit);
    Ok(json!({
        "circuit": circuit.name,
        "clean": findings.is_empty(),
        "findings": findings.iter().map(|f| json!(f.describe(&circuit))).collect::<Vec<_>>(),
    }))
}
