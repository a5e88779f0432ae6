//! The gateway's live ops surface: `/debug/traces`,
//! `/debug/traces/<req-id>`, and `/debug/dashboard`, plus the
//! [`TraceLog`] that persists the same retained records to a file.
//!
//! The trace endpoints read the process-wide
//! [`paragraph_obs::trace_store`] — one store shared by every shard,
//! each retained trace labelled with the shard that served it — so a
//! single GET sees the whole gateway. The dashboard aggregates the
//! per-shard service registries (rolling latency quantiles, queue
//! depths, batch-size histogram, drift z-scores, per-precision
//! latency) into one self-contained HTML page with no scripts and no
//! external assets: `curl | w3m` works as well as a browser.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

use paragraph_obs::{TraceStore, TraceSummary};
use serde_json::{json, Value};

use crate::metrics::PRECISION_NAMES;
use crate::service::{stages_json, Service};

/// How many retained traces the index and dashboard list (newest
/// first). The full ring stays addressable by request id.
const INDEX_LIMIT: usize = 50;

/// `GET /debug/traces`: store counters plus an index of retained
/// traces, newest first.
pub(crate) fn traces_index() -> Value {
    let store = paragraph_obs::trace_store();
    let counters = store.counters();
    let mut retained_by_reason = serde_json::Map::new();
    for (reason, n) in paragraph_obs::RetainReason::ALL
        .iter()
        .zip(counters.retained.iter())
    {
        retained_by_reason.insert(reason.name(), json!(*n));
    }
    let traces: Vec<Value> = store
        .summaries()
        .iter()
        .take(INDEX_LIMIT)
        .map(summary_json)
        .collect();
    json!({
        "enabled": paragraph_obs::store_enabled(),
        "epoch_unix_ns": paragraph_obs::epoch_unix_nanos(),
        "counters": {
            "completed": counters.completed,
            "retained": counters.retained_total(),
            "retained_by_reason": Value::Object(retained_by_reason),
            "not_retained": counters.not_retained,
            "dropped_spans": counters.dropped_spans,
            "evicted": counters.evicted,
            "active": counters.active as u64,
            "stored": counters.stored as u64,
        },
        "traces": traces,
    })
}

/// One retained request as the `/debug/traces` index and the trace log
/// both render it.
fn summary_json(s: &TraceSummary) -> Value {
    json!({
        "request_id": s.request_id.clone(),
        "shard": s.shard,
        "op": s.op.clone(),
        "reason": s.reason.name(),
        "ok": s.ok,
        "model": s.model.clone(),
        "cache_hit": s.cache_hit,
        "batched": s.batched,
        "total_us": s.total_us,
        "completed_ts_us": s.completed_ts_us,
        "stages": stages_json(&s.stages),
        "span_count": s.span_count as u64,
        "seq": s.seq,
    })
}

/// `GET /debug/traces/<req-id>`: the full span tree of one retained
/// trace as a Chrome-trace-compatible object (`traceEvents` +
/// `displayTimeUnit`, loadable in `chrome://tracing` / Perfetto) with
/// the request's index entry as extra top-level keys, which trace
/// viewers ignore. `None` when the id is unknown (expired from the ring
/// or never retained).
pub(crate) fn trace_detail(request_id: &str) -> Option<Value> {
    let trace = paragraph_obs::trace_store().get(request_id)?;
    let rendered = paragraph_obs::render_chrome_trace(&trace.spans);
    let mut doc =
        serde_json::from_str::<Value>(&rendered).expect("rendered chrome trace parses as JSON");
    if let (Value::Object(obj), Value::Object(summary)) = (&mut doc, summary_json(&trace.summary()))
    {
        for (k, v) in summary.iter() {
            obj.insert(k.clone(), v.clone());
        }
        obj.insert("epoch_unix_ns", json!(paragraph_obs::epoch_unix_nanos()));
        obj.insert("dropped_spans", json!(trace.dropped_spans));
    }
    Some(doc)
}

/// Appends the trace store's retained requests to a JSONL file: one
/// line per retained request, in completion order, each the same object
/// the `/debug/traces` index renders for it. A log's first write opens
/// with a header line carrying the shared `epoch_unix_ns`, so a new
/// file starts with one and a restarted server appending to an old file
/// marks where its timestamps' epoch changes. Requests the ring
/// evicted before a round could write them leave a gap in `seq`, which
/// is written as one `{"kind":"skipped","count":n}` line, so the log
/// never hides a loss.
#[derive(Debug)]
pub struct TraceLog {
    path: PathBuf,
    /// The lowest `seq` not yet written (or skipped).
    next_seq: u64,
    /// Whether the header line has been written.
    started: bool,
}

impl TraceLog {
    /// A log appending to `path`; nothing is written until
    /// [`flush`](Self::flush).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            next_seq: 0,
            started: false,
        }
    }

    /// One flush round: appends every trace `store` retains with a
    /// `seq` this log has not reached yet, oldest first. Returns the
    /// number of retained requests written.
    ///
    /// # Errors
    ///
    /// Creating or appending to the file failed; nothing counts as
    /// written, so the next round retries the same records.
    pub fn flush(&mut self, store: &TraceStore) -> io::Result<usize> {
        let mut fresh: Vec<TraceSummary> = store
            .summaries()
            .into_iter()
            .filter(|s| s.seq >= self.next_seq)
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        fresh.sort_by_key(|s| s.seq);
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut body = String::new();
        let mut line = |v: Value| {
            body.push_str(&serde_json::to_string(&v).expect("trace log line serialises"));
            body.push('\n');
        };
        if !self.started {
            line(json!({"kind": "header", "epoch_unix_ns": paragraph_obs::epoch_unix_nanos()}));
        }
        let mut next_seq = self.next_seq;
        for s in &fresh {
            if s.seq > next_seq {
                line(json!({"kind": "skipped", "count": s.seq - next_seq}));
            }
            line(summary_json(s));
            next_seq = s.seq + 1;
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?
            .write_all(body.as_bytes())?;
        self.next_seq = next_seq;
        self.started = true;
        Ok(fresh.len())
    }
}

/// `GET /debug/dashboard`: one self-contained HTML page over every
/// shard. Server-rendered from the same snapshots `/metrics.json`
/// serves, so the numbers agree with the machine-readable surface.
pub(crate) fn dashboard_html(services: &[Arc<Service>]) -> String {
    let snapshots: Vec<Value> = services
        .iter()
        .map(|s| s.metrics().snapshot(s.cache()))
        .collect();
    let mut page = String::with_capacity(16 * 1024);
    page.push_str(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>paragraph gateway</title><style>\
         body{font:14px/1.4 monospace;margin:1.5em;background:#fafafa;color:#222}\
         h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.6em;\
         border-bottom:1px solid #ccc;padding-bottom:.2em}\
         table{border-collapse:collapse;margin:.5em 0}\
         th,td{border:1px solid #ccc;padding:.2em .6em;text-align:right}\
         th{background:#eee}td.l,th.l{text-align:left}\
         .bar{background:#69c;display:inline-block;height:.8em}\
         .ok{color:#171}.bad{color:#b11}small{color:#666}\
         </style></head><body>\n",
    );
    let _ = writeln!(
        page,
        "<h1>paragraph gateway</h1>\
         <p><small>{} shard(s) &middot; epoch_unix_ns {} &middot; \
         store {}</small></p>",
        services.len(),
        paragraph_obs::epoch_unix_nanos(),
        if paragraph_obs::store_enabled() {
            "enabled"
        } else {
            "disabled"
        },
    );

    render_latency_section(&mut page, &snapshots);
    render_queue_section(&mut page, services, &snapshots);
    render_batch_section(&mut page, &snapshots);
    render_precision_section(&mut page, &snapshots);
    render_drift_section(&mut page, services);
    render_traces_section(&mut page);

    page.push_str("</body></html>\n");
    page
}

/// Rolling request-latency quantiles per op per shard; ops that served
/// no requests are skipped.
fn render_latency_section(page: &mut String, snapshots: &[Value]) {
    page.push_str(
        "<h2>request latency (rolling)</h2>\
         <table><tr><th class=\"l\">shard</th><th class=\"l\">op</th>\
         <th>requests</th><th>errors</th>\
         <th>p50 &micro;s</th><th>p95 &micro;s</th><th>p99 &micro;s</th></tr>\n",
    );
    for (i, snap) in snapshots.iter().enumerate() {
        let Some(endpoints) = snap["endpoints"].as_array() else {
            continue;
        };
        for e in endpoints {
            if e["requests"].as_u64().unwrap_or(0) == 0 {
                continue;
            }
            let _ = write!(
                page,
                "<tr><td class=\"l\">{i}</td><td class=\"l\">{}</td>\
                 <td>{}</td><td>{}</td>",
                escape(e["op"].as_str().unwrap_or("?")),
                e["requests"].as_u64().unwrap_or(0),
                e["errors"].as_u64().unwrap_or(0),
            );
            push_quantile_cells(page, &e["latency_rolling"]);
            page.push_str("</tr>\n");
        }
    }
    page.push_str("</table>\n");
}

/// Queue depth, uptime, and cache hit rate per shard.
fn render_queue_section(page: &mut String, services: &[Arc<Service>], snapshots: &[Value]) {
    page.push_str(
        "<h2>queues &amp; caches</h2>\
         <table><tr><th class=\"l\">shard</th><th>queue depth</th>\
         <th>bad lines</th><th>cache hits</th><th>cache misses</th>\
         <th>hit rate</th><th>uptime ms</th></tr>\n",
    );
    for (i, (service, snap)) in services.iter().zip(snapshots).enumerate() {
        let _ = writeln!(
            page,
            "<tr><td class=\"l\">{i}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{:.2}</td><td>{}</td></tr>",
            service.metrics().queue_depth(),
            snap["bad_lines"].as_u64().unwrap_or(0),
            snap["cache"]["hits"].as_u64().unwrap_or(0),
            snap["cache"]["misses"].as_u64().unwrap_or(0),
            snap["cache"]["hit_rate"].as_f64().unwrap_or(0.0),
            snap["uptime_ms"].as_u64().unwrap_or(0),
        );
    }
    page.push_str("</table>\n");
}

/// Batch-size histogram summed across shards, drawn as text bars.
fn render_batch_section(page: &mut String, snapshots: &[Value]) {
    let mut labels: Vec<String> = Vec::new();
    let mut totals: Vec<u64> = Vec::new();
    for snap in snapshots {
        let Some(buckets) = snap["batching"]["size_buckets"].as_array() else {
            continue;
        };
        for (b, bucket) in buckets.iter().enumerate() {
            if b >= labels.len() {
                let le = bucket["le"]
                    .as_u64()
                    .map_or_else(|| "inf".to_owned(), |v| v.to_string());
                labels.push(le);
                totals.push(0);
            }
            totals[b] += bucket["count"].as_u64().unwrap_or(0);
        }
    }
    let formed: u64 = snapshots
        .iter()
        .filter_map(|s| s["batching"]["batches_formed"].as_u64())
        .sum();
    let admitted: u64 = snapshots
        .iter()
        .filter_map(|s| s["batching"]["window_admitted_jobs"].as_u64())
        .sum();
    let _ = writeln!(
        page,
        "<h2>batch sizes</h2>\
         <p><small>{formed} batches formed &middot; {admitted} jobs \
         admitted by open windows</small></p>\
         <table><tr><th class=\"l\">size &le;</th><th>batches</th>\
         <th class=\"l\"></th></tr>",
    );
    let peak = totals.iter().copied().max().unwrap_or(0).max(1);
    for (le, &count) in labels.iter().zip(&totals) {
        let width = count * 200 / peak;
        let _ = writeln!(
            page,
            "<tr><td class=\"l\">{le}</td><td>{count}</td>\
             <td class=\"l\"><span class=\"bar\" style=\"width:{width}px\"></span></td></tr>",
        );
    }
    page.push_str("</table>\n");
}

/// Per-precision rolling latency per shard (f32/int8); precisions with
/// no traffic are skipped.
fn render_precision_section(page: &mut String, snapshots: &[Value]) {
    page.push_str(
        "<h2>precisions</h2>\
         <table><tr><th class=\"l\">shard</th><th class=\"l\">precision</th>\
         <th>requests</th>\
         <th>p50 &micro;s</th><th>p95 &micro;s</th><th>p99 &micro;s</th></tr>\n",
    );
    for (i, snap) in snapshots.iter().enumerate() {
        for name in PRECISION_NAMES {
            let p = &snap["precisions"][name];
            if p["requests"].as_u64().unwrap_or(0) == 0 {
                continue;
            }
            let _ = write!(
                page,
                "<tr><td class=\"l\">{i}</td><td class=\"l\">{name}</td><td>{}</td>",
                p["requests"].as_u64().unwrap_or(0),
            );
            push_quantile_cells(page, &p["latency_rolling"]);
            page.push_str("</tr>\n");
        }
    }
    page.push_str("</table>\n");
}

/// Drift monitor state per shard: OOD fraction and the highest
/// per-feature z-scores.
fn render_drift_section(page: &mut String, services: &[Arc<Service>]) {
    page.push_str(
        "<h2>drift</h2>\
         <table><tr><th class=\"l\">shard</th><th>active</th>\
         <th>ood total</th><th>ood fraction</th>\
         <th class=\"l\">top z-scores</th></tr>\n",
    );
    for (i, service) in services.iter().enumerate() {
        let drift = service.drift();
        let mut z = drift.z_scores();
        z.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = z
            .iter()
            .take(5)
            .filter(|(_, z)| z.is_finite() && *z > 0.0)
            .map(|(name, z)| format!("{} z={z:.2}", escape(name)))
            .collect();
        let _ = writeln!(
            page,
            "<tr><td class=\"l\">{i}</td><td>{}</td><td>{}</td>\
             <td>{:.3}</td><td class=\"l\">{}</td></tr>",
            drift.is_active(),
            drift.ood_requests_total(),
            drift.ood_fraction(),
            if top.is_empty() {
                "&mdash;".to_owned()
            } else {
                top.join(" &middot; ")
            },
        );
    }
    page.push_str("</table>\n");
}

/// Store counters and the most recently retained traces, each linked
/// to its `/debug/traces/<req-id>` span tree.
fn render_traces_section(page: &mut String) {
    let store = paragraph_obs::trace_store();
    let counters = store.counters();
    let by_reason: Vec<String> = paragraph_obs::RetainReason::ALL
        .iter()
        .zip(counters.retained.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(reason, n)| format!("{} {n}", reason.name()))
        .collect();
    let _ = writeln!(
        page,
        "<h2>retained traces</h2>\
         <p><small>{} completed &middot; {} retained ({}) &middot; \
         {} sampled out &middot; {} evicted &middot; {} spans dropped</small></p>",
        counters.completed,
        counters.retained_total(),
        if by_reason.is_empty() {
            "none".to_owned()
        } else {
            by_reason.join(", ")
        },
        counters.not_retained,
        counters.evicted,
        counters.dropped_spans,
    );
    page.push_str(
        "<table><tr><th class=\"l\">request</th><th class=\"l\">shard</th>\
         <th class=\"l\">op</th><th class=\"l\">reason</th><th class=\"l\">ok</th>\
         <th>total &micro;s</th><th>spans</th></tr>\n",
    );
    for s in store.summaries().into_iter().take(INDEX_LIMIT) {
        let shard = s.shard.map_or_else(|| "-".to_owned(), |v| v.to_string());
        let _ = writeln!(
            page,
            "<tr><td class=\"l\"><a href=\"/debug/traces/{id}\">{id}</a></td>\
             <td class=\"l\">{shard}</td><td class=\"l\">{}</td>\
             <td class=\"l\">{}</td>\
             <td class=\"l\"><span class=\"{}\">{}</span></td>\
             <td>{:.1}</td><td>{}</td></tr>",
            escape(&s.op),
            s.reason.name(),
            if s.ok { "ok" } else { "bad" },
            s.ok,
            s.total_us,
            s.span_count,
            id = escape(&s.request_id),
        );
    }
    page.push_str("</table>\n");
}

/// Writes the p50/p95/p99 cells from a `latency_rolling` array as
/// rendered by `Metrics::snapshot` (null until the window has data).
fn push_quantile_cells(page: &mut String, rolling: &Value) {
    for slot in 0..3 {
        match rolling[slot]["latency_us"].as_f64() {
            Some(v) => {
                let _ = write!(page, "<td>{v:.1}</td>");
            }
            None => page.push_str("<td>&mdash;</td>"),
        }
    }
}

/// Minimal HTML escaping for dynamic text (request ids, model keys,
/// feature names).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every retained request reaches the log exactly once, in `seq`
    /// order, and nothing else does; records the ring evicted between
    /// rounds surface as one `skipped` line with their count.
    #[test]
    fn trace_log_writes_each_retained_request_once() {
        let was_enabled = paragraph_obs::store_enabled();
        paragraph_obs::set_store_enabled(true);
        let store = TraceStore::new();
        store.set_keep_one_in(0); // only errors are retained
        let mut retained = Vec::new();
        let mut complete = |id: &str, ok: bool| {
            let outcome = paragraph_obs::RequestOutcome {
                op: "predict".into(),
                ok,
                ..Default::default()
            };
            if store.complete(id, outcome).is_some() {
                retained.push(id.to_owned());
            }
        };
        let path =
            std::env::temp_dir().join(format!("paragraph-trace-log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut log = TraceLog::new(&path);

        // Round 1: two errors retained, two ok requests sampled out.
        for (i, ok) in [true, false, true, false].into_iter().enumerate() {
            complete(&format!("req-{i}"), ok);
        }
        assert_eq!(log.flush(&store).unwrap(), 2);
        // Round 2: nothing new, nothing written.
        assert_eq!(log.flush(&store).unwrap(), 0);
        // Round 3: six more retained into a 3-slot ring; the oldest
        // three are evicted before the round writes them.
        store.set_capacity(3);
        for i in 4..10 {
            complete(&format!("req-{i}"), false);
        }
        assert_eq!(log.flush(&store).unwrap(), 3);
        // Round 4: one more.
        complete("req-10", false);
        assert_eq!(log.flush(&store).unwrap(), 1);
        let newest = serde_json::to_string(&summary_json(&store.summaries()[0])).unwrap();
        paragraph_obs::set_store_enabled(was_enabled);

        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<Value> = body
            .lines()
            .map(|l| serde_json::from_str(l).expect("log line parses"))
            .collect();
        assert_eq!(lines[0]["kind"].as_str(), Some("header"), "{body}");
        assert!(lines[0]["epoch_unix_ns"].as_u64().is_some(), "{body}");
        let rendered: Vec<String> = lines[1..]
            .iter()
            .map(|l| match l["kind"].as_str() {
                Some("skipped") => format!("skipped {}", l["count"].as_u64().unwrap()),
                _ => format!(
                    "{} seq {}",
                    l["request_id"].as_str().unwrap(),
                    l["seq"].as_u64().unwrap()
                ),
            })
            .collect();
        assert_eq!(
            rendered,
            [
                "req-1 seq 0",
                "req-3 seq 1",
                "skipped 3",
                "req-7 seq 5",
                "req-8 seq 6",
                "req-9 seq 7",
                "req-10 seq 8",
            ]
        );
        // Written plus skipped is exactly what the store retained.
        let written: Vec<&str> = lines[1..]
            .iter()
            .filter_map(|l| l["request_id"].as_str())
            .collect();
        assert!(written.iter().all(|id| retained.iter().any(|r| r == id)));
        assert_eq!(written.len() + 3, retained.len());
        // Each line is the object the `/debug/traces` index renders.
        assert_eq!(body.lines().last(), Some(newest.as_str()));
    }

    #[test]
    fn escape_neutralises_markup() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        assert_eq!(escape("req-12"), "req-12");
    }
}
