//! What a run hands back to `main`: the result line's fields plus the
//! per-phase request counts printed beside it.

use serde_json::{json, Value};

/// Requests of one phase, by outcome.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub attempted: u64,
    pub ok: u64,
    /// `503`: shed by a full queue.
    pub shed: u64,
    /// `504`: deadline exceeded.
    pub deadline: u64,
    /// Any other error status, error envelope or I/O failure.
    pub other: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.shed + self.deadline + self.other
    }

    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.other += other.other;
    }

    pub fn to_json(&self, phase: &str) -> Value {
        json!({
            "phase": phase,
            "attempted": self.attempted,
            "ok": self.ok,
            "failed_503": self.shed,
            "failed_504": self.deadline,
            "failed_other": self.other,
        })
    }
}

/// A finished run.
#[derive(Default)]
pub struct Outcome {
    /// Output errors found by the correctness gate (empty = correct).
    pub errors: Vec<String>,
    pub phases: Vec<(String, Counts)>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Run facts printed beside the result (rates, sample counts, bases).
    pub notes: serde_json::Map,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.insert(key, value);
    }

    pub fn totals(&self) -> Counts {
        let mut total = Counts::default();
        for (_, c) in &self.phases {
            total.add(c);
        }
        total
    }
}
