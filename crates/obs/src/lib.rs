//! Std-only observability layer for the ParaGraph workspace.
//!
//! Five pieces, one crate, zero dependencies:
//!
//! * **Spans** — [`span!`] opens an RAII guard with monotonic timing;
//!   nested guards form a hierarchy. Guards are inert unless tracing is
//!   on (`PARAGRAPH_TRACE=1` or [`set_enabled`]); the disabled path is
//!   a single relaxed atomic load, and building this crate with
//!   `--no-default-features` compiles recording out entirely.
//! * **Trace buffers** — completed spans land in per-thread buffers
//!   that [`write_trace`] drains into a Chrome-trace-compatible JSON
//!   file (open it in `chrome://tracing` or <https://ui.perfetto.dev>).
//! * **Metrics** — [`Registry`] holds counters, gauges, and fixed-bucket
//!   histograms behind atomics, grouped into labelled families, and
//!   renders them as Prometheus exposition text or JSON. The
//!   process-wide [`global`] registry collects training/tensor/runtime
//!   metrics; `paragraph-serve` layers its per-service registry on top
//!   and exports both through one endpoint.
//! * **Trace store** — [`trace_store`] keeps a bounded ring of
//!   completed per-request span trees with **tail-based retention**
//!   (decide keep/drop after the outcome is known: slow, error, shed,
//!   and OOD requests always kept, the rest sampled 1-in-N). Worker
//!   threads tag their spans with a [`SpanContext`] so one request's
//!   spans assemble into one tree across threads and batched forward
//!   passes. Gated by `PARAGRAPH_TRACE_STORE` / [`set_store_enabled`];
//!   the gateway serves it live under `/debug/traces`.
//! * **Rolling quantiles** — [`RollingQuantile`] keeps a fixed-size
//!   window of recent observations and reports **exact** sorted
//!   quantiles over it (registered via [`Registry::rolling`], rendered
//!   as a Prometheus `summary`), answering "p99 over the last N
//!   requests" where a fixed-bucket histogram can only bound it.
//!
//! Metric naming convention (see `docs/observability.md`):
//! `paragraph_<layer>_<quantity>[_<unit>][_total]`, e.g.
//! `paragraph_runtime_jobs_total`, `paragraph_train_epoch_loss`,
//! `paragraph_tensor_matmul_us`.

#![warn(missing_docs)]

mod metrics;
mod quantile;
mod store;
mod trace;

pub use metrics::{escape_label_value, global, Counter, Gauge, Histogram, Labels, Registry};
pub use quantile::{RollingQuantile, RENDERED_QUANTILES};
pub use store::{
    sampler_keeps, set_store_enabled, store_enabled, trace_store, ContextGuard, RequestOutcome,
    RetainReason, RetainedTrace, SpanContext, StoreCounters, TraceStore, TraceSummary,
    DEFAULT_KEEP_ONE_IN, DEFAULT_STORE_CAPACITY, MAX_ACTIVE_TRACES, MAX_SPANS_PER_TRACE,
};
pub use trace::{
    append_trace_events, enabled, epoch_unix_nanos, pending_events, record_span_at,
    render_chrome_trace, set_enabled, take_events, write_trace, SpanGuard, TraceEvent,
};

/// Default trace-file location, relative to the working directory.
pub const DEFAULT_TRACE_PATH: &str = "target/trace.json";

/// Default location of the *streamed* trace written by long-running
/// services' periodic flusher (Chrome-trace array format, appendable),
/// kept separate from [`DEFAULT_TRACE_PATH`] so the exit-time flush
/// still produces a complete JSON object.
pub const DEFAULT_TRACE_STREAM_PATH: &str = "target/trace_stream.json";

/// Writes buffered trace events to [`DEFAULT_TRACE_PATH`] when tracing
/// is enabled; a no-op (returning `Ok(0)`) otherwise. Binaries call
/// this once at exit so `PARAGRAPH_TRACE=1 <binary>` always leaves a
/// `target/trace.json` behind.
pub fn flush_default_trace() -> std::io::Result<usize> {
    if !enabled() && pending_events() == 0 {
        return Ok(0);
    }
    write_trace(DEFAULT_TRACE_PATH)
}
