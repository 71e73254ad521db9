//! The repository's benchmark: one command that runs a named workload
//! against the engine's public API, checks the answers, and reports the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). See `README.md` for the workloads, the metrics and what each
//! layer metric should move.

pub mod alloc;
pub mod campus;
pub mod checks;
pub mod closed;
pub mod corpus;
pub mod ops;
pub mod sharded;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use corpus::Corpus;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop single-subject reads; no ingest, no mutations.
    Serve,
    /// The serve stream plus an occupant change every few requests.
    Churn,
    /// Open-loop capture, requests and maintenance on a virtual clock.
    Campus,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Serve, Workload::Churn, Workload::Campus];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Churn => "churn",
            Workload::Campus => "campus",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Nominal measured seconds: the run's work is this many seconds of
    /// each workload's nominal rate (see `README.md`).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// `BENCHMARK.json`, read when the benchmark is built: the metric lists
/// live there and nowhere else.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The metrics a run reports, name and unit, in `BENCHMARK.json` order:
/// `per_layer` for a traced run, `end_to_end` otherwise.
pub fn metric_list(trace: bool) -> Vec<(String, String)> {
    let spec: serde_json::Value =
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    let key = if trace { "per_layer" } else { "end_to_end" };
    let serde_json::Value::Array(metrics) = &spec[key] else {
        panic!("BENCHMARK.json has no {key} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("metric names and units are strings");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (fail-closed internal denials, ingest
    /// rejections, settings errors, WAL append failures).
    pub failed: u64,
    /// Every metric the run measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly for a given seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Correctness-check failures (empty when every check passed).
    pub problems: Vec<String>,
    /// Span trace of the traced run, tab-separated.
    pub spans: Option<String>,
    /// The reported metrics: name, unit and value, in `BENCHMARK.json`
    /// order.
    pub reported: Vec<(String, String, f64)>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets a deterministic count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Picks the metrics this run reports out of everything it measured,
    /// in `BENCHMARK.json` order. A listed metric the run did not measure,
    /// or measured as no number, is a problem, not a value.
    fn select(&mut self, trace: bool) {
        for (name, unit) in metric_list(trace) {
            match self.metrics.get(name.as_str()) {
                Some(&value) if value.is_finite() => self.reported.push((name, unit, value)),
                Some(_) => self.problem(format!("metric {name} is not a finite number")),
                None => self.problem(format!("metric {name} was not measured")),
            }
        }
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.reported.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload.
pub fn run(opts: &Options) -> Report {
    let corpus = Corpus::new(opts.seed);
    let mut report = match opts.workload {
        Workload::Serve | Workload::Churn => closed::run(&corpus, opts),
        Workload::Campus => campus::run(&corpus, opts),
    };
    if let Some(mb) = peak_rss_mb() {
        report.set("peak_rss_mb", mb);
    }
    report.select(opts.trace);
    report
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
}
