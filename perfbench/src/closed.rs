//! The closed-loop workloads on one durable unsharded engine: `serve`
//! (single-subject reads, nothing else) and `churn` (the same reads with
//! an occupant change every few requests). One client: each operation
//! starts when the previous one returned.

use tippers::DataRequest;
use tippers_bench::Lcg;
use tippers_policy::Timestamp;

use crate::checks::{final_checks, Recovery, RECOVERY_REPEATS};
use crate::corpus::Corpus;
use crate::ops::{self, capture_probe_batches, gen_changes, probe_count, ChangeOp, Probes, Runner};
use crate::sharded::ShardShadow;
use crate::{Options, Report, Workload};

/// Requests per nominal second on `serve`.
pub const SERVE_REQUESTS_PER_SEC: f64 = 20_000.0;
/// Occupant changes per nominal second on `churn`.
pub const CHURN_CHANGES_PER_SEC: f64 = 400.0;
/// Requests between two changes on `churn`. A synthetic stress setting
/// (no field rate exists): it gives a run both the changes a p99 needs and
/// ten times as many requests (`README.md`, "Where the traffic settings
/// come from").
pub const CHURN_REQUESTS_PER_CHANGE: usize = 10;
/// Specification cross-checks spread over the main stream.
pub const CHECKS: usize = 200;
/// Operations before the recovery point.
pub const RECOVERY_AT: usize = 1000;
/// Requests the recovered engine must decide as the specification does.
pub const RECOVERY_SAMPLE: usize = 20;

/// One main-stream operation.
#[derive(Debug)]
pub enum Op {
    /// A service request at a virtual time.
    Request(DataRequest, Timestamp),
    /// An occupant change.
    Change(Box<ChangeOp>),
}

/// Generates the main stream: requests at random instants of the week,
/// and on `churn` a change after every [`CHURN_REQUESTS_PER_CHANGE`].
pub fn gen_ops(corpus: &Corpus, lcg: &mut Lcg, workload: Workload, seconds: f64) -> Vec<Op> {
    let request = |lcg: &mut Lcg| {
        let now = Corpus::week_time(lcg);
        Op::Request(corpus.request(lcg, now), now)
    };
    match workload {
        Workload::Churn => {
            let n = (seconds * CHURN_CHANGES_PER_SEC).ceil() as usize;
            let changes = gen_changes(
                corpus,
                lcg,
                n,
                corpus.policies.len() as u64,
                Corpus::week_time,
            );
            let mut ops = Vec::with_capacity(n * (CHURN_REQUESTS_PER_CHANGE + 1));
            for change in changes {
                for _ in 0..CHURN_REQUESTS_PER_CHANGE {
                    ops.push(request(lcg));
                }
                ops.push(Op::Change(Box::new(change)));
            }
            ops
        }
        _ => (0..(seconds * SERVE_REQUESTS_PER_SEC).ceil() as usize)
            .map(|_| request(lcg))
            .collect(),
    }
}

/// Runs `serve` or `churn`.
pub fn run(corpus: &Corpus, opts: &Options) -> Report {
    let churn = opts.workload == Workload::Churn;
    let config = ops::engine_config(false);
    // Every input is drawn before the set-up starts the clock.
    let mut lcg = Lcg(corpus.seed ^ 0x5E_4E);
    let stream = gen_ops(corpus, &mut lcg, opts.workload, opts.seconds);
    let sample = recovery_sample(corpus, &mut lcg);
    // Probes for the metrics the main stream does not exercise.
    let pref_probes = if churn {
        Vec::new()
    } else {
        gen_changes(
            corpus,
            &mut lcg,
            probe_count(),
            corpus.policies.len() as u64,
            Corpus::week_time,
        )
    };
    let input_digest = ops::digest(&&stream[..stream.len().min(1000)]);
    let mut probes = Probes::new(corpus, pref_probes, capture_probe_batches(corpus));

    let (engine, log, setup_s) = ops::setup(corpus, &config);
    let mut recovery = Recovery::new(config.clone());
    let mut d = Runner::new(corpus, engine, log, config, opts.trace);
    d.report.set("setup_s", setup_s);
    if opts.trace && !churn {
        d.shard = Some(ShardShadow::new(corpus));
    }
    d.begin_main();
    let check_every = (stream.len() / CHECKS).max(1);
    let recovery_at = RECOVERY_AT.min(stream.len() / 2);
    let repeat_every = ((stream.len() - recovery_at) / RECOVERY_REPEATS).max(1);
    for (i, op) in stream.iter().enumerate() {
        if i == recovery_at {
            recovery.take(
                &mut d.report,
                &mut d.oracle,
                corpus,
                &d.engine,
                &d.log,
                &sample,
            );
        } else if i > recovery_at && (i - recovery_at).is_multiple_of(repeat_every) {
            recovery.repeat(corpus);
        }
        probes.pace(i, stream.len(), corpus, &mut d.tally, &mut d.report);
        let check = i % check_every == check_every / 2;
        match op {
            Op::Request(req, now) => {
                d.request(i as u32, req, *now, None, check);
            }
            Op::Change(c) => d.change(i as u32, c, check),
        }
    }
    d.end_main();
    probes.finish(corpus, &mut d.tally, &mut d.report);
    recovery.finish(corpus, &mut d.report);
    final_checks(&mut d.report, corpus, &d.engine, &d.log);
    let mut report = d.finish();
    // A closed loop issues each operation as the previous one returns, so
    // it is never behind a schedule.
    report.set("harness.gen_late_p99_ms", 0.0);
    report.count("input_digest", input_digest);
    report
}

/// Requests the recovered engine must decide as the specification does.
pub fn recovery_sample(corpus: &Corpus, lcg: &mut Lcg) -> Vec<(DataRequest, Timestamp)> {
    (0..RECOVERY_SAMPLE)
        .map(|_| {
            let now = Corpus::week_time(lcg);
            (corpus.request(lcg, now), now)
        })
        .collect()
}
