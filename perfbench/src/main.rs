//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_miss|serve_hit|serve_large> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`;
//! `--trace 0` measures the end-to-end metrics, `--trace 1` replays the
//! same inputs through each layer's public functions for the per-layer
//! metrics and writes a Chrome trace under `.bench_out/`. The last line
//! of standard output is the result object; the lines before it record
//! the host and configuration fingerprint and the per-phase request
//! counts. See `perfbench/README.md` for workloads and metrics.

mod alloc;
mod http;
mod inputs;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Value};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Client threads, one keep-alive connection each (the host's two cores).
pub const CLIENTS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub spec: &'static serve::Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <serve_miss|serve_hit|serve_large> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = match workload.as_str() {
        "serve_miss" => &serve::SERVE_MISS,
        "serve_hit" => &serve::SERVE_HIT,
        "serve_large" => &serve::SERVE_LARGE,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload,
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark pins every setting itself; a `PARAGRAPH_*` variable
/// (precision, executor, batch window, shards, threads, tracing, ...)
/// would silently change what is measured.
fn env_override() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| k.starts_with("PARAGRAPH_"))
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` when the run starts inside a
/// clone (`unknown` otherwise).
fn git_sha() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&Path::new(".git").join(reference))
        .or_else(|| {
            read(Path::new(".git/packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn text(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON values serialise")
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn fingerprint(args: &Args, settings: Value) -> Value {
    json!({
        "fingerprint": {
            "git_sha": git_sha(),
            "nproc": std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            "avx2": avx2(),
            "workload": args.workload.clone(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "settings": settings,
        }
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = env_override() {
        eprintln!("perfbench: refusing to run with {var} set; the benchmark pins its own settings");
        return ExitCode::from(2);
    }
    let out_dir =
        PathBuf::from(".bench_out").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let result = serve::run(args.spec, &args, started, &out_dir);
    // Artifacts are per run; only the trace file is kept.
    let _ = std::fs::remove_dir_all(&out_dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in outcome.errors.iter().take(20) {
        eprintln!("perfbench: incorrect output: {e}");
    }
    println!(
        "{}",
        text(&fingerprint(&args, serve::settings_json(args.spec)))
    );
    let phases: Vec<Value> = outcome.phases.iter().map(|(n, c)| c.to_json(n)).collect();
    println!(
        "{}",
        text(&json!({ "phases": phases, "notes": Value::Object(outcome.notes.clone()) }))
    );
    let totals = outcome.totals();
    let mut metrics = serde_json::Map::new();
    for (name, value, unit) in &outcome.metrics {
        metrics.insert(name.clone(), json!({ "value": *value, "unit": *unit }));
    }
    println!(
        "{}",
        text(&json!({
            "correct": outcome.errors.is_empty() && totals.failed() == 0,
            "attempted": totals.attempted.max(1),
            "failed": totals.failed(),
            "metrics": Value::Object(metrics),
        }))
    );
    ExitCode::SUCCESS
}
