//! Spans recorded by the traced run around calls into each layer, kept
//! in memory and written as a Chrome trace (`chrome://tracing`,
//! Perfetto) when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};

use crate::stats::median;

/// One timed call. `parent` indexes the enclosing span in the same
/// [`Tracer`]; `request` is shared by every span of one replayed request.
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub thread: u32,
    pub allocs: Option<u64>,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as span `name`, counting the allocations it makes
    /// (anywhere in the process) while it runs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let allocs = crate::alloc::count();
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            request,
            start,
            end,
            parent,
            thread: 0,
            allocs: Some(crate::alloc::count() - allocs),
        });
        out
    }

    /// Opens a parent span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            request,
            start: now,
            end: now,
            parent: None,
            thread: 0,
            // The count at opening until `close` turns it into a delta.
            allocs: Some(crate::alloc::count()),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        let s = &mut self.spans[span];
        s.end = Instant::now();
        s.allocs = s.allocs.map(|at_open| crate::alloc::count() - at_open);
    }

    /// Median duration (µs) of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        let mut v: Vec<f64> = self.named(name).map(Span::micros).collect();
        median(&mut v)
    }

    /// Median allocation count of the spans called `name`.
    pub fn median_allocs(&self, name: &str) -> f64 {
        let mut v: Vec<f64> = self
            .named(name)
            .filter_map(|s| s.allocs.map(|a| a as f64))
            .collect();
        median(&mut v)
    }

    /// Duration (µs) of request `request`'s span called `name`.
    pub fn duration_us(&self, name: &str, request: u64) -> Option<f64> {
        self.named(name)
            .find(|s| s.request == request)
            .map(Span::micros)
    }

    /// Copies allocation counts from `counted`, a pass that recorded the
    /// same spans in the same order, onto the spans from index `from` on.
    pub fn adopt_allocs(&mut self, from: usize, counted: &Tracer) {
        for (s, c) in self.spans[from..].iter_mut().zip(&counted.spans) {
            debug_assert_eq!(s.name, c.name);
            s.allocs = c.allocs;
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median self time per span name: each span's duration minus the
    /// part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.micros();
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_us) {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(s.micros());
            entry.1.push((s.micros() - c).max(0.0));
        }
        by_name
            .into_iter()
            .map(|(name, (mut total, mut own))| {
                (name, (total.len(), median(&mut total), median(&mut own)))
            })
            .collect()
    }

    /// Writes every span as a Chrome-trace complete event.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = json!({ "span_id": id as u64, "request": s.request });
                if let Some(p) = s.parent {
                    args["parent"] = json!(p as u64);
                }
                if let Some(a) = s.allocs {
                    args["allocs"] = json!(a);
                }
                json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": s.thread,
                    "ts": (s.start - self.epoch).as_secs_f64() * 1e6,
                    "dur": s.micros(),
                    "args": args,
                })
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, crate::text(&json!({ "traceEvents": events })))
    }
}
