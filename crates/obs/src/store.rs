//! Tail-sampled per-request trace store.
//!
//! Where `target/trace.json` answers *"where did this process spend its
//! time"* after the fact, the trace store answers *"show me the slow /
//! failed / out-of-distribution requests of the last few minutes"* on a
//! **live** gateway. Three pieces:
//!
//! * [`SpanContext`] — a cheap, cloneable tag (request ids + shard)
//!   that a thread [`enter`](SpanContext::enter)s while working on a
//!   request. Every span recorded while a context is entered — across
//!   the submitting thread, the worker pool, and a batched forward pass
//!   covering many requests at once — is routed to the per-request
//!   trace of **each** request id in the context, so one request's
//!   parse → queue → window wait → batch assemble → inference spans
//!   assemble into a single tree no matter which threads ran them.
//! * [`TraceStore`] — a bounded ring of *completed* request traces with
//!   **tail-based retention**: the keep/drop decision is made in
//!   [`complete`](TraceStore::complete), after the outcome is known.
//!   Slow (flagged by the caller *or* above the rolling p99), error,
//!   shed (503/504), and OOD-flagged requests are always retained;
//!   the rest are sampled 1-in-N by a deterministic hash of the request
//!   id ([`sampler_keeps`]). Retention is counted per reason, and spans
//!   and traces that overflow a bound are dropped and counted.
//! * The process-wide [`trace_store`], gated by `PARAGRAPH_TRACE_STORE`
//!   / [`set_store_enabled`] with the same one-relaxed-load disabled
//!   path and `trace`-feature compile-out as spans.
//!
//! The store holds structured [`TraceEvent`]s, not rendered JSON; the
//! serving layer renders the index and per-request Chrome-trace
//! fragments for its `/debug/traces` endpoints.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::quantile::RollingQuantile;
use crate::trace::{epoch, lock, TraceEvent};

/// Default bound on retained completed-request traces in the ring.
pub const DEFAULT_STORE_CAPACITY: usize = 256;

/// Default probabilistic sampling rate for unremarkable requests:
/// keep one in this many (`0` disables sampling entirely).
pub const DEFAULT_KEEP_ONE_IN: u64 = 16;

/// Bound on spans collected for one in-flight request; further spans
/// are dropped and counted.
pub const MAX_SPANS_PER_TRACE: usize = 512;

/// Bound on concurrently collected (not yet completed) requests.
/// Abandoned requests beyond it are evicted oldest-first with their
/// spans counted as dropped.
pub const MAX_ACTIVE_TRACES: usize = 1024;

/// Observations the rolling latency window must hold before the
/// `> rolling p99` slow test engages (a p99 over a handful of samples
/// would retain nearly everything at startup).
const P99_MIN_WINDOW: usize = 64;

/// Rolling latency window used for the p99 slow test.
const ROLLING_WINDOW: usize = 512;

/// Tri-state runtime toggle: 0 = uninitialised, 1 = off, 2 = on.
static STORE_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether the trace store is collecting and retaining request traces.
///
/// Initialised from the `PARAGRAPH_TRACE_STORE` environment variable on
/// first call (`1`/`true`/`on` — or a ring capacity > 0 — enable it);
/// afterwards a single relaxed atomic load. Override with
/// [`set_store_enabled`].
#[cfg(feature = "trace")]
#[inline]
pub fn store_enabled() -> bool {
    match STORE_STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s == 2,
    }
}

/// Always false: the `trace` feature is compiled out.
#[cfg(not(feature = "trace"))]
#[inline]
pub fn store_enabled() -> bool {
    false
}

#[cfg(feature = "trace")]
#[cold]
fn init_from_env() -> bool {
    let raw = std::env::var("PARAGRAPH_TRACE_STORE").unwrap_or_default();
    let v = raw.trim();
    let capacity = v.parse::<usize>().ok();
    let on = matches!(v, "1" | "true" | "on") || capacity.is_some_and(|n| n > 0);
    // A concurrent set_store_enabled may have raced us; only fill in if
    // still uninitialised so the explicit override wins.
    let _ = STORE_STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    if let Some(n) = capacity.filter(|&n| n > 1) {
        trace_store().set_capacity(n);
    }
    STORE_STATE.load(Ordering::Relaxed) == 2
}

/// Turns the trace store on or off, overriding `PARAGRAPH_TRACE_STORE`.
pub fn set_store_enabled(on: bool) {
    STORE_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

thread_local! {
    /// Stack of entered contexts; spans route to the innermost one.
    static CTX_STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// Whether spans on this thread should route to the trace store: the
/// store is enabled *and* a [`SpanContext`] is entered. Checked on the
/// span fast path, so the common disabled case is one relaxed load.
#[inline]
pub(crate) fn collecting() -> bool {
    store_enabled()
        && CTX_STACK
            .try_with(|stack| !stack.borrow().is_empty())
            .unwrap_or(false)
}

/// The request identity a thread is currently working on: one request
/// id for single-request stages, several for a batched forward pass
/// that serves many requests at once, plus the owning gateway shard.
///
/// Cloning is cheap (the id list is shared); [`enter`](Self::enter)
/// pushes the context onto a thread-local stack for the lifetime of the
/// returned guard, after which every recorded span — `span!` guards and
/// [`record_span_at`](crate::record_span_at) alike — is attached to the
/// in-flight trace of each listed request.
#[derive(Clone, Debug)]
pub struct SpanContext {
    ids: Arc<Vec<String>>,
    shard: Option<u32>,
}

impl SpanContext {
    /// A context covering one request.
    pub fn request(request_id: &str, shard: Option<u32>) -> Self {
        Self {
            ids: Arc::new(vec![request_id.to_owned()]),
            shard,
        }
    }

    /// A context covering every member of a batched execution; spans
    /// recorded under it (batch assemble, the fused forward pass) are
    /// attributed to **each** member request's trace.
    pub fn batch<I, S>(request_ids: I, shard: Option<u32>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            ids: Arc::new(request_ids.into_iter().map(Into::into).collect()),
            shard,
        }
    }

    /// The request ids this context covers.
    pub fn request_ids(&self) -> &[String] {
        &self.ids
    }

    /// The gateway shard that owns the request(s), if sharded.
    pub fn shard(&self) -> Option<u32> {
        self.shard
    }

    /// Enters the context on the current thread until the returned
    /// guard drops. Contexts nest; the innermost wins.
    pub fn enter(&self) -> ContextGuard {
        let _ = CTX_STACK.try_with(|stack| stack.borrow_mut().push(self.clone()));
        ContextGuard { _priv: () }
    }

    /// The innermost context entered on the current thread, if any.
    pub fn current() -> Option<SpanContext> {
        CTX_STACK
            .try_with(|stack| stack.borrow().last().cloned())
            .ok()
            .flatten()
    }
}

/// RAII guard from [`SpanContext::enter`]; leaving scope exits the
/// context.
#[derive(Debug)]
#[must_use = "the context is only entered while the guard lives"]
pub struct ContextGuard {
    _priv: (),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let _ = CTX_STACK.try_with(|stack| stack.borrow_mut().pop());
    }
}

/// Why a completed request's trace was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainReason {
    /// The caller flagged the request slow, or its latency exceeded
    /// the rolling p99.
    Slow,
    /// The request failed (any error envelope short of shedding).
    Error,
    /// The request was shed under load (503 overloaded / 504 deadline).
    Shed,
    /// The drift monitor flagged the inputs out-of-distribution.
    Ood,
    /// Unremarkable, kept by the deterministic 1-in-N sampler.
    Sampled,
}

impl RetainReason {
    /// Every reason, in counter/display order.
    pub const ALL: [RetainReason; 5] = [
        RetainReason::Slow,
        RetainReason::Error,
        RetainReason::Shed,
        RetainReason::Ood,
        RetainReason::Sampled,
    ];

    /// Stable lowercase name (used in JSON and counters).
    pub fn name(&self) -> &'static str {
        match self {
            RetainReason::Slow => "slow",
            RetainReason::Error => "error",
            RetainReason::Shed => "shed",
            RetainReason::Ood => "ood",
            RetainReason::Sampled => "sampled",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// Everything the retention decision needs about a finished request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Operation name (`predict`, `health`, ...).
    pub op: String,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Whether it was shed under load (maps to HTTP 503/504).
    pub shed: bool,
    /// Whether the serving layer's slow threshold fired (OR-ed with
    /// the store's rolling-p99 test).
    pub slow: bool,
    /// Whether the drift monitor flagged the inputs OOD.
    pub ood: bool,
    /// End-to-end latency in microseconds.
    pub total_us: f64,
    /// Per-stage latency breakdown (`parse_us`, `queue_wait_us`, ...).
    pub stages: Vec<(String, f64)>,
    /// The model key a predict resolved to.
    pub model: Option<String>,
    /// Whether a predict was answered from the prediction cache.
    pub cache_hit: Option<bool>,
    /// How many requests shared the forward pass, when more than one.
    pub batched: Option<u64>,
}

impl Default for RequestOutcome {
    fn default() -> Self {
        Self {
            op: String::new(),
            ok: true,
            shed: false,
            slow: false,
            ood: false,
            total_us: 0.0,
            stages: Vec::new(),
            model: None,
            cache_hit: None,
            batched: None,
        }
    }
}

/// One retained completed-request trace.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The request id (`req-<n>`).
    pub request_id: String,
    /// Owning gateway shard, if sharded.
    pub shard: Option<u32>,
    /// Operation name.
    pub op: String,
    /// Why the trace was kept.
    pub reason: RetainReason,
    /// Whether the request succeeded.
    pub ok: bool,
    /// End-to-end latency in microseconds.
    pub total_us: f64,
    /// Completion time, µs since the shared span/event epoch.
    pub completed_ts_us: f64,
    /// Per-stage latency breakdown.
    pub stages: Vec<(String, f64)>,
    /// The model key a predict resolved to.
    pub model: Option<String>,
    /// Whether a predict was answered from the prediction cache.
    pub cache_hit: Option<bool>,
    /// How many requests shared the forward pass, when more than one.
    pub batched: Option<u64>,
    /// The request's spans, ordered by start timestamp.
    pub spans: Vec<TraceEvent>,
    /// Spans dropped for this request (per-trace span cap).
    pub dropped_spans: u64,
    /// Monotone completion sequence number (eviction/order key).
    pub seq: u64,
}

impl RetainedTrace {
    /// The index-level view of this trace.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            request_id: self.request_id.clone(),
            shard: self.shard,
            op: self.op.clone(),
            reason: self.reason,
            ok: self.ok,
            total_us: self.total_us,
            completed_ts_us: self.completed_ts_us,
            stages: self.stages.clone(),
            model: self.model.clone(),
            cache_hit: self.cache_hit,
            batched: self.batched,
            span_count: self.spans.len(),
            seq: self.seq,
        }
    }
}

/// Index-level view of a retained trace (no spans).
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// The request id.
    pub request_id: String,
    /// Owning gateway shard, if sharded.
    pub shard: Option<u32>,
    /// Operation name.
    pub op: String,
    /// Why the trace was kept.
    pub reason: RetainReason,
    /// Whether the request succeeded.
    pub ok: bool,
    /// End-to-end latency in microseconds.
    pub total_us: f64,
    /// Completion time, µs since the shared span/event epoch.
    pub completed_ts_us: f64,
    /// Per-stage latency breakdown.
    pub stages: Vec<(String, f64)>,
    /// The model key a predict resolved to.
    pub model: Option<String>,
    /// Whether a predict was answered from the prediction cache.
    pub cache_hit: Option<bool>,
    /// How many requests shared the forward pass, when more than one.
    pub batched: Option<u64>,
    /// Number of spans in the retained tree.
    pub span_count: usize,
    /// Monotone completion sequence number.
    pub seq: u64,
}

/// Point-in-time counter snapshot; `completed == retained.sum() +
/// not_retained` always holds.
#[derive(Debug, Clone, Default)]
pub struct StoreCounters {
    /// Requests whose retention decision has been made.
    pub completed: u64,
    /// Retained per reason, in [`RetainReason::ALL`] order.
    pub retained: [u64; RetainReason::ALL.len()],
    /// Completed requests the tail sampler dropped.
    pub not_retained: u64,
    /// Spans dropped (per-trace cap and abandoned-request eviction).
    pub dropped_spans: u64,
    /// Retained traces evicted from the ring by overflow.
    pub evicted: u64,
    /// In-flight (not yet completed) requests being collected.
    pub active: usize,
    /// Retained traces currently in the ring.
    pub stored: usize,
}

impl StoreCounters {
    /// Total requests retained across every reason.
    pub fn retained_total(&self) -> u64 {
        self.retained.iter().sum()
    }
}

struct ActiveTrace {
    shard: Option<u32>,
    spans: Vec<TraceEvent>,
    dropped: u64,
}

struct StoreInner {
    active: HashMap<String, ActiveTrace>,
    /// Insertion order of `active` keys; stale keys (already completed)
    /// are skipped lazily when evicting.
    active_order: VecDeque<String>,
    ring: VecDeque<RetainedTrace>,
    rolling: RollingQuantile,
    next_seq: u64,
}

/// Bounded ring of completed request traces with tail-based retention.
///
/// Normally used through the process-wide [`trace_store`]; tests can
/// build private instances with [`TraceStore::new`] to exercise the
/// retention policy in isolation.
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    capacity: AtomicUsize,
    keep_one_in: AtomicU64,
    completed: AtomicU64,
    retained: [AtomicU64; RetainReason::ALL.len()],
    not_retained: AtomicU64,
    dropped_spans: AtomicU64,
    evicted: AtomicU64,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStore {
    /// A store with default capacity and sampling rate.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(StoreInner {
                active: HashMap::new(),
                active_order: VecDeque::new(),
                ring: VecDeque::new(),
                rolling: RollingQuantile::new(ROLLING_WINDOW),
                next_seq: 0,
            }),
            capacity: AtomicUsize::new(DEFAULT_STORE_CAPACITY),
            keep_one_in: AtomicU64::new(DEFAULT_KEEP_ONE_IN),
            completed: AtomicU64::new(0),
            retained: Default::default(),
            not_retained: AtomicU64::new(0),
            dropped_spans: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Sets the ring bound (min 1), evicting immediately if shrinking.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut inner = lock(&self.inner);
        while inner.ring.len() > capacity {
            evict_one(&mut inner.ring);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The ring bound.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Sets the probabilistic sampling rate for unremarkable requests:
    /// keep one in `n` (`0` disables sampling).
    pub fn set_keep_one_in(&self, n: u64) {
        self.keep_one_in.store(n, Ordering::Relaxed);
    }

    /// The sampling rate (keep one in N; `0` = never).
    pub fn keep_one_in(&self) -> u64 {
        self.keep_one_in.load(Ordering::Relaxed)
    }

    /// Starts collecting spans for a request. Idempotent per id; a
    /// no-op when the store is disabled.
    pub fn begin(&self, request_id: &str, shard: Option<u32>) {
        if !store_enabled() {
            return;
        }
        let mut inner = lock(&self.inner);
        if inner.active.contains_key(request_id) {
            return;
        }
        while inner.active.len() >= MAX_ACTIVE_TRACES {
            // Evict the oldest still-active entry (an abandoned request
            // that will never complete), counting its spans as dropped.
            let Some(key) = inner.active_order.pop_front() else {
                break;
            };
            if let Some(stale) = inner.active.remove(&key) {
                self.dropped_spans
                    .fetch_add(stale.spans.len() as u64 + stale.dropped, Ordering::Relaxed);
            }
        }
        inner.active_order.push_back(request_id.to_owned());
        inner.active.insert(
            request_id.to_owned(),
            ActiveTrace {
                shard,
                spans: Vec::new(),
                dropped: 0,
            },
        );
    }

    /// Attaches one recorded span to every in-flight request the
    /// context covers. Called from the span layer; spans for unknown
    /// (never-begun or already-completed) ids are ignored.
    pub fn record(&self, ctx: &SpanContext, event: &TraceEvent) {
        let mut inner = lock(&self.inner);
        for id in ctx.ids.iter() {
            if let Some(active) = inner.active.get_mut(id) {
                if active.spans.len() >= MAX_SPANS_PER_TRACE {
                    active.dropped += 1;
                    self.dropped_spans.fetch_add(1, Ordering::Relaxed);
                } else {
                    active.spans.push(event.clone());
                }
            }
        }
    }

    /// Completes a request and makes the tail retention decision.
    /// Returns the reason when the trace was kept, `None` when sampled
    /// out (or the store is disabled).
    ///
    /// Reason precedence: shed → error → slow → ood → sampled.
    pub fn complete(&self, request_id: &str, outcome: RequestOutcome) -> Option<RetainReason> {
        if !store_enabled() {
            return None;
        }
        let keep_one_in = self.keep_one_in.load(Ordering::Relaxed);
        let mut inner = lock(&self.inner);
        let active = inner.active.remove(request_id);
        let p99 = if inner.rolling.window_len() >= P99_MIN_WINDOW {
            inner.rolling.quantile(0.99)
        } else {
            f64::INFINITY
        };
        inner.rolling.observe(outcome.total_us);
        self.completed.fetch_add(1, Ordering::Relaxed);
        let reason = if outcome.shed {
            Some(RetainReason::Shed)
        } else if !outcome.ok {
            Some(RetainReason::Error)
        } else if outcome.slow || outcome.total_us > p99 {
            Some(RetainReason::Slow)
        } else if outcome.ood {
            Some(RetainReason::Ood)
        } else if sampler_keeps(request_id, keep_one_in) {
            Some(RetainReason::Sampled)
        } else {
            None
        };
        let Some(reason) = reason else {
            self.not_retained.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.retained[reason.index()].fetch_add(1, Ordering::Relaxed);
        let (shard, mut spans, dropped) = match active {
            Some(a) => (a.shard, a.spans, a.dropped),
            None => (None, Vec::new(), 0),
        };
        spans.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let retained = RetainedTrace {
            request_id: request_id.to_owned(),
            shard,
            op: outcome.op,
            reason,
            ok: outcome.ok,
            total_us: outcome.total_us,
            completed_ts_us: epoch().elapsed().as_secs_f64() * 1e6,
            stages: outcome.stages,
            model: outcome.model,
            cache_hit: outcome.cache_hit,
            batched: outcome.batched,
            spans,
            dropped_spans: dropped,
            seq,
        };
        let capacity = self.capacity.load(Ordering::Relaxed);
        while inner.ring.len() >= capacity {
            evict_one(&mut inner.ring);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        inner.ring.push_back(retained);
        Some(reason)
    }

    /// Index of retained traces, newest completion first, without
    /// spans.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        let inner = lock(&self.inner);
        inner
            .ring
            .iter()
            .rev()
            .map(RetainedTrace::summary)
            .collect()
    }

    /// The full retained trace for a request id, spans included.
    pub fn get(&self, request_id: &str) -> Option<RetainedTrace> {
        let inner = lock(&self.inner);
        inner
            .ring
            .iter()
            .find(|t| t.request_id == request_id)
            .cloned()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> StoreCounters {
        let (active, stored) = {
            let inner = lock(&self.inner);
            (inner.active.len(), inner.ring.len())
        };
        let mut retained = [0u64; RetainReason::ALL.len()];
        for (slot, counter) in retained.iter_mut().zip(self.retained.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        StoreCounters {
            completed: self.completed.load(Ordering::Relaxed),
            retained,
            not_retained: self.not_retained.load(Ordering::Relaxed),
            dropped_spans: self.dropped_spans.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            active,
            stored,
        }
    }

    /// Clears every trace and counter (test/bench support).
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.active.clear();
        inner.active_order.clear();
        inner.ring.clear();
        inner.rolling = RollingQuantile::new(ROLLING_WINDOW);
        inner.next_seq = 0;
        drop(inner);
        self.completed.store(0, Ordering::Relaxed);
        for counter in &self.retained {
            counter.store(0, Ordering::Relaxed);
        }
        self.not_retained.store(0, Ordering::Relaxed);
        self.dropped_spans.store(0, Ordering::Relaxed);
        self.evicted.store(0, Ordering::Relaxed);
    }
}

/// Ring-overflow policy: evict the oldest trace retained *only* by the
/// probabilistic sampler first; when every entry was force-retained
/// (slow/error/shed/ood), evict the oldest overall.
fn evict_one(ring: &mut VecDeque<RetainedTrace>) {
    if let Some(pos) = ring.iter().position(|t| t.reason == RetainReason::Sampled) {
        ring.remove(pos);
    } else {
        ring.pop_front();
    }
}

/// The pinned tail sampler: whether a request id is kept at a 1-in-`n`
/// rate. Deterministic — the same id always makes the same decision —
/// via an FNV-1a hash, so replays and multi-shard runs agree. `0`
/// never keeps.
pub fn sampler_keeps(request_id: &str, keep_one_in: u64) -> bool {
    match keep_one_in {
        0 => false,
        1 => true,
        n => fnv1a(request_id).is_multiple_of(n),
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The process-wide trace store behind the span layer and the gateway
/// `/debug/traces` surface.
pub fn trace_store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(TraceStore::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::test_flag_lock;

    fn outcome(op: &str, total_us: f64) -> RequestOutcome {
        RequestOutcome {
            op: op.to_owned(),
            total_us,
            ..RequestOutcome::default()
        }
    }

    /// A request the serving layer flagged slow.
    fn slow(total_us: f64) -> RequestOutcome {
        RequestOutcome {
            slow: true,
            ..outcome("predict", total_us)
        }
    }

    /// A private store with sampling off: nothing is retained unless a
    /// test opts in.
    fn quiet_store() -> TraceStore {
        let store = TraceStore::new();
        store.set_keep_one_in(0);
        store
    }

    #[test]
    fn context_stack_nests_and_restores() {
        let outer = SpanContext::request("req-1", Some(0));
        let inner = SpanContext::batch(["req-1", "req-2"], Some(0));
        assert!(SpanContext::current().is_none());
        {
            let _o = outer.enter();
            assert_eq!(SpanContext::current().unwrap().request_ids(), ["req-1"]);
            {
                let _i = inner.enter();
                let current = SpanContext::current().unwrap();
                assert_eq!(current.request_ids(), ["req-1", "req-2"]);
                assert_eq!(current.shard(), Some(0));
            }
            assert_eq!(SpanContext::current().unwrap().request_ids(), ["req-1"]);
        }
        assert!(SpanContext::current().is_none());
    }

    #[test]
    #[cfg(feature = "trace")]
    fn retention_reasons_and_counter_invariant() {
        let _guard = test_flag_lock();
        set_store_enabled(true);
        let store = quiet_store();
        let shed = RequestOutcome {
            ok: false,
            shed: true,
            ..outcome("predict", 10.0)
        };
        assert_eq!(store.complete("req-shed", shed), Some(RetainReason::Shed));
        let err = RequestOutcome {
            ok: false,
            ..outcome("predict", 10.0)
        };
        assert_eq!(store.complete("req-err", err), Some(RetainReason::Error));
        assert_eq!(
            store.complete("req-slow", slow(5000.0)),
            Some(RetainReason::Slow)
        );
        let ood = RequestOutcome {
            ood: true,
            ..outcome("predict", 10.0)
        };
        assert_eq!(store.complete("req-ood", ood), Some(RetainReason::Ood));
        assert_eq!(store.complete("req-fast", outcome("predict", 10.0)), None);
        store.set_keep_one_in(1);
        let kept = RequestOutcome {
            model: Some("cap_1f".into()),
            cache_hit: Some(false),
            batched: Some(3),
            ..outcome("predict", 10.0)
        };
        assert_eq!(
            store.complete("req-kept", kept),
            Some(RetainReason::Sampled)
        );
        let counters = store.counters();
        assert_eq!(counters.completed, 6);
        assert_eq!(counters.retained, [1, 1, 1, 1, 1]);
        assert_eq!(counters.not_retained, 1);
        assert_eq!(
            counters.completed,
            counters.retained_total() + counters.not_retained,
            "per-reason counters sum to total completed"
        );
        let summaries = store.summaries();
        assert_eq!(summaries.len(), 5);
        // The request record travels with the retained trace.
        let newest = &summaries[0];
        assert_eq!(newest.request_id, "req-kept");
        assert_eq!(
            (newest.model.as_deref(), newest.cache_hit, newest.batched),
            (Some("cap_1f"), Some(false), Some(3))
        );
        // Precedence: a shed request that is also slow and OOD counts
        // once, as shed.
        let mixed = RequestOutcome {
            ok: false,
            shed: true,
            ood: true,
            ..outcome("predict", 1e9)
        };
        assert_eq!(store.complete("req-mixed", mixed), Some(RetainReason::Shed));
        set_store_enabled(false);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn pinned_sampler_is_deterministic() {
        let _guard = test_flag_lock();
        assert!(sampler_keeps("req-1", 1) && !sampler_keeps("req-1", 0));
        let ids: Vec<String> = (0..256).map(|i| format!("req-{i}")).collect();
        let decide = |n: u64| -> Vec<bool> { ids.iter().map(|id| sampler_keeps(id, n)).collect() };
        // Same ids, same rate → byte-identical decisions, and roughly
        // 1-in-8 of a large id population is kept.
        assert_eq!(decide(8), decide(8));
        let kept = decide(8).iter().filter(|&&k| k).count();
        assert!((8..=64).contains(&kept), "~1 in 8 of 256 kept: {kept}");

        // The store makes the same keep/drop decisions on a replay.
        set_store_enabled(true);
        let store = quiet_store();
        store.set_keep_one_in(8);
        let first: Vec<Option<RetainReason>> = ids
            .iter()
            .map(|id| store.complete(id, outcome("predict", 1.0)))
            .collect();
        store.reset();
        store.set_keep_one_in(8);
        let second: Vec<Option<RetainReason>> = ids
            .iter()
            .map(|id| store.complete(id, outcome("predict", 1.0)))
            .collect();
        assert_eq!(first, second);
        set_store_enabled(false);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn ring_overflow_evicts_oldest_sampled_first() {
        let _guard = test_flag_lock();
        set_store_enabled(true);
        let store = quiet_store();
        store.set_capacity(3);
        assert_eq!(
            store.complete("req-slow-1", slow(200.0)),
            Some(RetainReason::Slow)
        );
        store.set_keep_one_in(1);
        assert_eq!(
            store.complete("req-sampled", outcome("predict", 1.0)),
            Some(RetainReason::Sampled)
        );
        store.set_keep_one_in(0);
        assert_eq!(
            store.complete("req-slow-2", slow(200.0)),
            Some(RetainReason::Slow)
        );
        // Overflow: the sampled entry goes first even though a slow one
        // is older.
        assert_eq!(
            store.complete("req-slow-3", slow(200.0)),
            Some(RetainReason::Slow)
        );
        let ids: Vec<String> = store
            .summaries()
            .iter()
            .map(|s| s.request_id.clone())
            .collect();
        assert_eq!(ids, ["req-slow-3", "req-slow-2", "req-slow-1"]);
        assert_eq!(store.counters().evicted, 1);
        // All force-retained: the oldest overall goes.
        assert_eq!(
            store.complete("req-slow-4", slow(200.0)),
            Some(RetainReason::Slow)
        );
        let ids: Vec<String> = store
            .summaries()
            .iter()
            .map(|s| s.request_id.clone())
            .collect();
        assert_eq!(ids, ["req-slow-4", "req-slow-3", "req-slow-2"]);
        set_store_enabled(false);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn rolling_p99_marks_tail_latencies_slow() {
        let _guard = test_flag_lock();
        set_store_enabled(true);
        let store = quiet_store();
        for i in 0..P99_MIN_WINDOW {
            assert_eq!(
                store.complete(&format!("req-{i}"), outcome("predict", 100.0)),
                None
            );
        }
        // Equal to the window's p99 is not "slow"; well above it is.
        assert_eq!(store.complete("req-flat", outcome("predict", 100.0)), None);
        assert_eq!(
            store.complete("req-tail", outcome("predict", 5000.0)),
            Some(RetainReason::Slow)
        );
        set_store_enabled(false);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn spans_route_to_each_request_in_context() {
        let _guard = test_flag_lock();
        crate::set_enabled(false);
        let _ = crate::take_events();
        set_store_enabled(true);
        let store = trace_store();
        store.reset();
        store.set_keep_one_in(0);
        store.begin("req-a", Some(1));
        store.begin("req-b", Some(1));
        {
            let ctx = SpanContext::request("req-a", Some(1));
            let _g = ctx.enter();
            let _span = crate::span!("parse", bytes = 42);
        }
        {
            // Worker thread: the context crosses threads with the job.
            let ctx = SpanContext::batch(["req-a", "req-b"], Some(1));
            std::thread::spawn(move || {
                let _g = ctx.enter();
                let _span = crate::span!("batch_inference", jobs = 2);
            })
            .join()
            .unwrap();
        }
        // Tracing stayed off: nothing landed in the global trace
        // buffers, only in the store.
        assert_eq!(crate::pending_events(), 0);
        assert_eq!(
            store.complete("req-a", slow(10.0)),
            Some(RetainReason::Slow)
        );
        assert_eq!(
            store.complete("req-b", slow(10.0)),
            Some(RetainReason::Slow)
        );
        let a = store.get("req-a").expect("req-a retained");
        let names: Vec<&str> = a.spans.iter().map(|e| e.name).collect();
        assert_eq!(names, ["parse", "batch_inference"]);
        assert_eq!(a.shard, Some(1));
        let b = store.get("req-b").expect("req-b retained");
        let names: Vec<&str> = b.spans.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["batch_inference"],
            "batch span fans out to every member"
        );
        store.reset();
        set_store_enabled(false);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn span_cap_drops_and_counts() {
        let _guard = test_flag_lock();
        set_store_enabled(true);
        let store = quiet_store();
        store.begin("req-big", None);
        let ctx = SpanContext::request("req-big", None);
        let event = TraceEvent {
            name: "spam",
            ts_us: 0.0,
            dur_us: 1.0,
            tid: 0,
            depth: 0,
            args: Vec::new(),
        };
        for _ in 0..MAX_SPANS_PER_TRACE + 5 {
            store.record(&ctx, &event);
        }
        store.complete("req-big", slow(1.0));
        let t = store.get("req-big").unwrap();
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(t.dropped_spans, 5);
        assert_eq!(store.counters().dropped_spans, 5);
        set_store_enabled(false);
    }

    #[test]
    fn disabled_store_decides_nothing() {
        let _guard = test_flag_lock();
        set_store_enabled(false);
        let store = TraceStore::new();
        assert_eq!(store.complete("req-x", outcome("predict", 1e9)), None);
        assert_eq!(store.counters().completed, 0);
    }
}
