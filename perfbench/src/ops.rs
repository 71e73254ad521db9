//! The operations every workload is built from, run against a durable
//! unsharded engine: requests, occupant changes, ingest batches and
//! maintenance. Each is timed, tallied, optionally traced (spans, shadow
//! replays, allocation counts) and optionally checked against the
//! executable specification.

use std::time::Instant;

use tippers::wal::{LogIo, MemLog};
use tippers::{
    CaptureFilter, DataRequest, DataResponse, DecisionBasis, EnforcementCore, EnforcementDecision,
    IngestConfig, QuotaConfig, Tippers, TippersConfig, ARCHIVE_PREFIX,
};
use tippers_bench::{gen_policies, Lcg};
use tippers_policy::{BuildingPolicy, DataAction, PolicyId, Timestamp, UserId, UserPreference};
use tippers_sensors::Observation;

use crate::alloc::{self, AllocCount};
use crate::checks::Oracle;
use crate::corpus::{self, Corpus, SETTING_KEY, SETTING_OPTIONS};
use crate::sharded::ShardShadow;
use crate::stats::{median, Samples};
use crate::trace::{Shadow, Tracer};
use crate::Report;

/// Rows per group-committed WAL record (the whole batch still shares one
/// sync). Small records keep recovery's JSON parsing off the quadratic
/// path the in-tree JSON parser takes on large documents.
pub const INGEST_RECORD_ROWS: usize = 16;
/// Occupant changes (and capture batches) the probes time on
/// workloads whose main stream has none: enough for a p99 with ten
/// samples beyond it.
pub const PROBES: usize = 4000;
/// Blocks the probes run in (see [`Probes`]).
pub const PROBE_BLOCKS: usize = 100;
/// Untimed probes of each kind opening a block.
pub const PROBE_WARMUP: usize = 3;
/// Corpus set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Operations per stretch of the traced run. Stretches alternate: in one,
/// every fourth operation is traced and a different fourth counts
/// allocations; the next runs with no tracing at all, as the baseline of
/// `harness.trace_overhead`.
pub const TRACE_STRETCH: u32 = 64;

/// Probes of each kind to generate: the timed ones plus every block's
/// warm-up.
pub fn probe_count() -> usize {
    PROBES + PROBE_BLOCKS * PROBE_WARMUP
}

/// The engine configuration: the batched capture pipeline with mailboxes
/// too large for the ladder to engage, and (on `campus`) disclosure
/// quotas, tight enough (a synthetic setting) that some requests exceed
/// them.
pub fn engine_config(quotas: bool) -> TippersConfig {
    TippersConfig {
        ingest: Some(IngestConfig {
            mailbox_capacity: 4096,
            batch_max: INGEST_RECORD_ROWS,
            ..IngestConfig::default()
        }),
        quota: quotas.then_some(QuotaConfig {
            budget: 3,
            window_secs: Some(3600),
        }),
        ..TippersConfig::default()
    }
}

/// Sets the corpus up [`SETUPS`] times, keeping the last engine. Returns
/// the engine, its log and the median set-up time in seconds.
pub fn setup(corpus: &Corpus, config: &TippersConfig) -> (Tippers, MemLog, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Drop the previous engine before building the next.
        drop(kept.take());
        let start = Instant::now();
        let engine = corpus::open_engine(corpus, config.clone());
        times.push(start.elapsed().as_secs_f64());
        kept = Some(engine);
    }
    let (engine, log) = kept.expect("at least one set-up");
    (engine, log, median(&times))
}

/// Outcome counts and timing samples of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Main-stream operations run.
    pub ops: u64,
    /// Operations attempted (each subject decision, change, batch, sweep
    /// or checkpoint is one).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Subject decisions.
    pub decisions: u64,
    /// Decisions that permitted the flow.
    pub permits: u64,
    /// Decisions denied because a disclosure budget was spent.
    pub quota_exceeded: u64,
    /// Per-request latency, untraced operations.
    pub decision: Samples,
    /// Engine time per request, operations neither traced nor counting
    /// allocations.
    pub busy: Samples,
    /// Traced run: engine time per request in the stretches left untraced.
    pub busy_clean: Samples,
    /// Traced run: engine time per request of the operations in the traced
    /// stretches that are themselves neither traced nor counting.
    pub busy_tracing: Samples,
    /// Decisions answered by the requests in `busy`.
    pub busy_decisions: u64,
    /// Change + notifications + probe, per occupant change.
    pub pref_effect: Samples,
    /// Due time to `ingest_batched` return, per batch.
    pub capture: Samples,
    /// Changes applied.
    pub changes: u64,
    /// Notifications drained after changes.
    pub notifications: u64,
    /// Observations offered to ingest.
    pub events: u64,
    /// Retention-sweep latencies.
    pub sweep: Samples,
    /// Rows retention sweeps deleted.
    pub sweep_rows: u64,
    /// Checkpoint latencies.
    pub checkpoint: Samples,
    /// Allocations inside the requests counted (see [`Runner::counted`]).
    pub alloc_request: AllocCount,
    /// Requests behind `alloc_request`.
    pub alloc_requests: u64,
    /// Allocations inside the changes counted.
    pub alloc_change: AllocCount,
    /// Changes behind `alloc_change`.
    pub alloc_changes: u64,
    /// Allocations inside the ingest batches counted.
    pub alloc_ingest: AllocCount,
    /// Observations in those batches.
    pub alloc_events: u64,
    /// Observations in traced batches.
    pub traced_events: u64,
    /// Specification cross-checks made.
    pub check_samples: u64,
    /// WAL bytes checkpoints compacted away (what the log held just
    /// before each checkpoint).
    pub wal_compacted: u64,
    /// Store-capable policies the storage grant decided over, in traced
    /// batches, and the subject-bearing observations they served.
    pub storage_candidates: u64,
    /// Subject-bearing observations behind `storage_candidates`.
    pub storage_subjects: u64,
}

impl Tally {
    /// Counts a response's subject decisions.
    pub fn response(&mut self, resp: &DataResponse) {
        for r in &resp.results {
            self.decisions += 1;
            self.permits += u64::from(r.decision.permits());
            self.quota_exceeded += u64::from(r.decision.basis == DecisionBasis::QuotaExceeded);
            self.outcome(!fails(&r.decision));
        }
    }

    /// Counts a probe's subject decisions as attempted operations only, so
    /// probes leave the decision counts to the main stream.
    pub fn probe_response(&mut self, resp: &DataResponse) {
        for r in &resp.results {
            self.outcome(!fails(&r.decision));
        }
    }

    /// Counts one non-decision operation.
    pub fn outcome(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Writes the end-to-end metrics, the allocation and harness metrics
    /// and the tally's deterministic counts into `report`.
    pub fn end_to_end(&self, report: &mut Report) {
        let t = self;
        let per = |part: f64, whole: u64| crate::stats::ratio(part, whole as f64);
        report.attempted = t.attempted;
        report.failed = t.failed;
        report.set("decision_p50_us", t.decision.p50() / 1e3);
        report.set("decision_p99_us", t.decision.p99() / 1e3);
        report.set(
            "decisions_per_s",
            per(t.busy_decisions as f64 * 1e9, t.busy.sum()),
        );
        report.set("pref_effect_p50_us", t.pref_effect.p50() / 1e3);
        report.set("pref_effect_p90_us", t.pref_effect.quantile(0.90) / 1e3);
        report.set(
            "preference_manager.effect_p99_us",
            t.pref_effect.p99() / 1e3,
        );
        report.set("capture_p50_ms", t.capture.p50() / 1e6);
        report.set("capture_p99_ms", t.capture.p99() / 1e6);
        report.set(
            "alloc.per_decision",
            per(t.alloc_request.allocations as f64, t.alloc_requests),
        );
        report.set(
            "alloc.bytes_per_decision",
            per(t.alloc_request.bytes as f64, t.alloc_requests),
        );
        report.set(
            "alloc.per_event",
            per(t.alloc_ingest.allocations as f64, t.alloc_events),
        );
        report.set(
            "alloc.per_pref_change",
            per(t.alloc_change.allocations as f64, t.alloc_changes),
        );
        report.set("harness.decisions", t.decisions as f64);
        report.set("harness.ops", t.ops as f64);
        report.set("harness.check_samples", t.check_samples as f64);
        for (name, value) in [
            ("ops", t.ops),
            ("decisions", t.decisions),
            ("permits", t.permits),
            ("quota_exceeded", t.quota_exceeded),
            ("changes", t.changes),
            ("notifications", t.notifications),
            ("events", t.events),
            ("alloc_request_allocations", t.alloc_request.allocations),
            ("alloc_request_bytes", t.alloc_request.bytes),
            ("alloc_change_allocations", t.alloc_change.allocations),
            ("alloc_ingest_allocations", t.alloc_ingest.allocations),
        ] {
            report.count(name, value);
        }
    }
}

/// True for the fail-closed denials that count as failures (policy and
/// quota denials are correct answers).
fn fails(decision: &EnforcementDecision) -> bool {
    matches!(
        decision.basis,
        DecisionBasis::InternalError | DecisionBasis::Overload | DecisionBasis::ShardUnavailable
    )
}

/// One occupant (or administrator) change.
#[derive(Debug, Clone)]
pub enum Change {
    /// The occupant submits a preference.
    Submit(UserPreference),
    /// The occupant picks an option of a catalog policy's setting.
    Setting {
        /// The catalog policy.
        policy: PolicyId,
        /// The option picked.
        option: usize,
    },
    /// A new policy is published.
    Publish(BuildingPolicy),
    /// A policy published earlier in the run is retracted.
    Retract(PolicyId),
}

/// A change, then the affected occupant's notification poll and a probe
/// request about them: the time until the change is enforced.
#[derive(Debug, Clone)]
pub struct ChangeOp {
    /// The occupant polled and probed.
    pub user: UserId,
    /// The change.
    pub change: Change,
    /// The probe request.
    pub probe: DataRequest,
    /// Virtual time of the change.
    pub now: Timestamp,
}

impl ChangeOp {
    /// True for occupant changes (the ones `pref_effect_*` times).
    pub fn occupant(&self) -> bool {
        matches!(self.change, Change::Submit(_) | Change::Setting { .. })
    }
}

/// Generates `n` changes: 60% preference submissions, 30% setting
/// choices, 5% policy publishes and 5% retractions of policies published
/// earlier in the stream (a synthetic mix; `README.md` gives its reasons).
/// `next_policy_id` is the id the engine will give the next published
/// policy.
pub fn gen_changes(
    corpus: &Corpus,
    lcg: &mut Lcg,
    n: usize,
    mut next_policy_id: u64,
    time: impl Fn(&mut Lcg) -> Timestamp,
) -> Vec<ChangeOp> {
    let settings = corpus.setting_policies();
    let pool = gen_policies(
        n / 10 + 1,
        &corpus.ontology,
        &corpus.dbh,
        &corpus.services,
        corpus.seed ^ lcg.next() as u64,
    );
    let mut pool = pool.into_iter();
    let mut published: std::collections::VecDeque<PolicyId> = Default::default();
    (0..n)
        .map(|_| {
            let user = UserId(lcg.below(corpus.occupants.len()) as u64);
            let now = time(lcg);
            let roll = lcg.below(100);
            let change = if roll < 60 {
                Change::Submit(corpus.preference_for(lcg, user))
            } else if roll < 90 {
                Change::Setting {
                    policy: settings[lcg.below(settings.len())],
                    option: lcg.below(SETTING_OPTIONS),
                }
            } else if roll < 95 || published.is_empty() {
                let policy = pool.next().expect("pool holds a tenth of the changes");
                published.push_back(PolicyId(next_policy_id));
                next_policy_id += 1;
                Change::Publish(policy)
            } else {
                Change::Retract(published.pop_front().expect("checked non-empty"))
            };
            ChangeOp {
                user,
                change,
                probe: corpus.request_for(lcg, user, now),
                now,
            }
        })
        .collect()
}

/// Applies a change to any engine, drains the occupant's notifications
/// and sends the probe. Returns whether the change succeeded, the
/// notifications drained, and the probe's response.
pub fn apply_change(
    engine: &mut impl EnforcementCore,
    op: &ChangeOp,
) -> (bool, usize, DataResponse) {
    let ok = match &op.change {
        Change::Submit(pref) => {
            engine.submit_preference(pref.clone(), op.now);
            true
        }
        Change::Setting { policy, option } => engine
            .apply_setting_choice(op.user, *policy, SETTING_KEY, *option)
            .is_ok(),
        Change::Publish(policy) => {
            engine.add_policy(policy.clone());
            true
        }
        Change::Retract(id) => engine.remove_policy(*id),
    };
    let notes = engine.take_notifications(op.user).len();
    let resp = engine.handle_request(&op.probe, op.now);
    (ok, notes, resp)
}

/// Observation batches for the capture probe: a short simulator trace of
/// the corpus's building, cut into `ingest_batched` calls.
pub fn capture_probe_batches(corpus: &Corpus) -> Vec<(Vec<Observation>, i64)> {
    let trace = corpus::sim_trace(
        corpus.seed,
        900,
        Timestamp::at(0, 8, 0),
        Timestamp::at(0, 16, 0),
    );
    let per_batch = (trace.len() / probe_count()).max(1);
    trace
        .chunks(per_batch)
        .take(probe_count())
        .map(|chunk| (chunk.to_vec(), chunk[0].timestamp.seconds() * 1000))
        .collect()
}

/// Timed probes for the end-to-end metrics a workload's main stream does
/// not exercise (`pref_effect_*` off `churn`, `capture_*` off `campus`).
/// They run on a second engine loaded with the same corpus, in
/// [`PROBE_BLOCKS`] blocks spread evenly over the main stream: the blocks
/// sample the whole run's machine conditions rather than a few seconds of
/// it, and the main engine's state and per-layer counters stay untouched.
/// The first [`PROBE_WARMUP`] probes of each kind in a block warm the
/// caches the main stream evicted and are not timed.
pub struct Probes {
    engine: Tippers,
    changes: Vec<ChangeOp>,
    captures: Vec<(Vec<Observation>, i64)>,
    blocks: usize,
    oracle: Oracle,
}

impl Probes {
    /// A probe engine with the given changes and capture batches to run:
    /// empty, or [`probe_count`] of each.
    pub fn new(
        corpus: &Corpus,
        changes: Vec<ChangeOp>,
        captures: Vec<(Vec<Observation>, i64)>,
    ) -> Probes {
        let (engine, _log) = corpus::open_engine(corpus, engine_config(false));
        Probes {
            engine,
            changes,
            captures,
            blocks: 0,
            oracle: Oracle::default(),
        }
    }

    /// Runs the blocks whose turn has come once `done` of `main_ops`
    /// main-stream operations are done (block `k` runs in the middle of the
    /// `k`-th of [`PROBE_BLOCKS`] equal parts of the stream).
    pub fn pace(
        &mut self,
        done: usize,
        main_ops: usize,
        corpus: &Corpus,
        tally: &mut Tally,
        report: &mut Report,
    ) {
        while self.blocks < PROBE_BLOCKS
            && (2 * self.blocks + 1) * main_ops <= 2 * done * PROBE_BLOCKS
        {
            self.block(corpus, tally, report);
        }
    }

    /// Runs whatever blocks remain.
    pub fn finish(&mut self, corpus: &Corpus, tally: &mut Tally, report: &mut Report) {
        while self.blocks < PROBE_BLOCKS {
            self.block(corpus, tally, report);
        }
    }

    fn block(&mut self, corpus: &Corpus, tally: &mut Tally, report: &mut Report) {
        let k = self.blocks;
        self.blocks += 1;
        let per = self.changes.len() / PROBE_BLOCKS;
        for (j, c) in self.changes[k * per..(k + 1) * per].iter().enumerate() {
            let start = Instant::now();
            let (ok, _notes, resp) = apply_change(&mut self.engine, c);
            let ns = start.elapsed().as_nanos() as u64;
            tally.outcome(ok);
            tally.probe_response(&resp);
            if j >= PROBE_WARMUP && c.occupant() {
                tally.pref_effect.push(ns);
            }
            if j % 50 == PROBE_WARMUP {
                // Each check follows a change, so the oracle rebuilds.
                let version = (k * per + j) as u64;
                self.oracle.check(
                    report,
                    corpus,
                    &self.engine,
                    version,
                    &c.probe,
                    c.now,
                    &resp,
                );
            }
        }
        let per = self.captures.len() / PROBE_BLOCKS;
        for (j, (batch, now_ms)) in self.captures[k * per..(k + 1) * per].iter().enumerate() {
            let start = Instant::now();
            let got = self.engine.ingest_batched(batch, *now_ms);
            let ns = start.elapsed().as_nanos() as u64;
            if j >= PROBE_WARMUP {
                tally.capture.push(ns);
            }
            tally.outcome(got.rejected.is_empty() && got.unadmitted == 0 && got.synced);
        }
    }
}

/// Bytes in the log's WAL segments (audit archives excluded).
pub fn wal_bytes(log: &MemLog) -> u64 {
    let names = log.list().unwrap_or_default();
    names
        .iter()
        .filter(|n| !n.starts_with(ARCHIVE_PREFIX) && !n.ends_with(".tmp"))
        .map(|n| log.durable_len(n).unwrap_or(0))
        .sum()
}

/// Runs `f` counting allocations when `traced`.
fn maybe_counted<R>(traced: bool, f: impl FnOnce() -> R) -> (R, AllocCount) {
    if traced {
        alloc::counted(f)
    } else {
        (f(), AllocCount::default())
    }
}

/// A durable unsharded engine under test, with everything a run records
/// about it.
pub struct Runner<'a> {
    /// The shared corpus.
    pub corpus: &'a Corpus,
    /// The engine.
    pub engine: Tippers,
    /// A handle on the engine's log (clones share state).
    pub log: MemLog,
    /// The configuration the engine was opened with.
    pub config: TippersConfig,
    /// Counts and samples.
    pub tally: Tally,
    /// Spans (traced run).
    pub tracer: Tracer,
    /// Shadow state (traced run).
    pub shadow: Option<Shadow>,
    /// The specification the sampled decisions are checked against.
    pub oracle: Oracle,
    /// Metrics, counts and problems.
    pub report: Report,
    /// Corpus changes so far (the oracle rebuilds when it moves).
    version: u64,
    trace: bool,
    /// WAL record and sync counters when the main stream began.
    wal_start: (u64, u64),
    /// WAL bytes when the main stream began.
    wal_bytes_start: u64,
    /// The shard-layer replay (traced `serve` runs).
    pub shard: Option<ShardShadow>,
}

impl<'a> Runner<'a> {
    /// Wraps a freshly set-up engine.
    pub fn new(
        corpus: &'a Corpus,
        engine: Tippers,
        log: MemLog,
        config: TippersConfig,
        trace: bool,
    ) -> Runner<'a> {
        let shadow = trace.then(|| Shadow::new(&engine));
        Runner {
            corpus,
            engine,
            log,
            config,
            tally: Tally::default(),
            tracer: Tracer::default(),
            shadow,
            oracle: Oracle::default(),
            report: Report::default(),
            version: 0,
            trace,
            wal_start: (0, 0),
            wal_bytes_start: 0,
            shard: None,
        }
    }

    /// Whether operation `op` lies in a traced stretch (see
    /// [`TRACE_STRETCH`]).
    fn tracing(&self, op: u32) -> bool {
        self.trace && (op / TRACE_STRETCH).is_multiple_of(2)
    }

    /// Whether operation `op` is traced (spans and shadow replays): every
    /// fourth operation of a traced stretch.
    pub fn traced(&self, op: u32) -> bool {
        self.tracing(op) && op.is_multiple_of(4)
    }

    /// Whether operation `op` counts allocations: a different fourth of a
    /// traced stretch, so counting never inflates a traced span.
    pub fn counted(&self, op: u32) -> bool {
        self.tracing(op) && op % 4 == 2
    }

    fn wal_failed(&self, before: u64) -> bool {
        self.engine.wal_append_failures() > before
    }

    /// One service request. `due` is when it was due (open loop); its
    /// latency runs from then, or from the call in a closed loop. `check`
    /// cross-checks the answer against the specification. Every operation
    /// returns when the engine call ended, so an open loop can discount the
    /// bench's own work after it.
    pub fn request(
        &mut self,
        op: u32,
        req: &DataRequest,
        now: Timestamp,
        due: Option<Instant>,
        check: bool,
    ) -> Instant {
        let (traced, counted) = (self.traced(op), self.counted(op));
        let failures = self.engine.wal_append_failures();
        let start = Instant::now();
        let (resp, allocs) = maybe_counted(counted, || self.engine.handle_request(req, now));
        let end = Instant::now();
        self.tally.ops += 1;
        self.tally.response(&resp);
        if self.wal_failed(failures) {
            self.tally.outcome(false);
        }
        let busy = (end - start).as_nanos() as u64;
        let latency = (end - due.unwrap_or(start)).as_nanos() as u64;
        if !traced && !counted {
            self.tally.decision.push(latency);
            self.tally.busy.push(busy);
            self.tally.busy_decisions += resp.results.len() as u64;
            if self.trace {
                if self.tracing(op) {
                    self.tally.busy_tracing.push(busy);
                } else {
                    self.tally.busy_clean.push(busy);
                }
            }
        }
        if counted {
            self.tally.alloc_request = self.tally.alloc_request.plus(allocs);
            self.tally.alloc_requests += 1;
        }
        self.tracer
            .begin_op(op, "tippers.handle_request", start, end, traced);
        self.replay_request(req, now, &resp);
        if let Some(shard) = self.shard.as_mut().filter(|_| traced) {
            shard.replay(&mut self.tracer, req, now, busy, &resp);
        }
        if check {
            self.check(req, now, &resp);
        }
        end
    }

    fn replay_request(&mut self, req: &DataRequest, now: Timestamp, resp: &DataResponse) {
        if !self.tracer.active() {
            return;
        }
        let shadow = self.shadow.as_mut().expect("traced runs keep shadow state");
        for r in &resp.results {
            shadow.replay_request(
                &mut self.tracer,
                self.corpus,
                &self.engine,
                req,
                r.user,
                now,
                &r.decision,
            );
        }
    }

    /// Cross-checks a response against the specification.
    pub fn check(&mut self, req: &DataRequest, now: Timestamp, resp: &DataResponse) {
        self.tally.check_samples += 1;
        let version = self.version;
        self.oracle.check(
            &mut self.report,
            self.corpus,
            &self.engine,
            version,
            req,
            now,
            resp,
        );
    }

    /// One occupant change (see [`apply_change`]).
    pub fn change(&mut self, op: u32, c: &ChangeOp, check: bool) {
        let (traced, counted) = (self.traced(op), self.counted(op));
        let failures = self.engine.wal_append_failures();
        let start = Instant::now();
        let ((ok, notes, resp), allocs) =
            maybe_counted(counted, || apply_change(&mut self.engine, c));
        let end = Instant::now();
        self.tally.ops += 1;
        self.tally.changes += 1;
        self.version += 1;
        self.tally.outcome(ok && !self.wal_failed(failures));
        self.tally.response(&resp);
        self.tally.notifications += notes as u64;
        if c.occupant() {
            self.tally.pref_effect.push((end - start).as_nanos() as u64);
        }
        if counted {
            self.tally.alloc_change = self.tally.alloc_change.plus(allocs);
            self.tally.alloc_changes += 1;
        }
        self.tracer
            .begin_op(op, "tippers.change", start, end, traced);
        if let Some(shadow) = self.shadow.as_mut() {
            // The mirror follows every change; the replays are timed, and
            // the shadow enforcer rebuilt, on traced ones only.
            match &c.change {
                Change::Submit(pref) => {
                    shadow.replay_submit(
                        &mut self.tracer,
                        self.corpus,
                        self.engine.policies(),
                        pref,
                    );
                }
                Change::Setting { policy, option } => {
                    if let Some(p) = self.engine.policy(*policy) {
                        shadow.replay_setting(&mut self.tracer, p, c.user, *option);
                    }
                }
                Change::Publish(_) | Change::Retract(_) => {}
            }
            shadow.invalidate();
            if traced {
                shadow.ensure_enforcer(&mut self.tracer, &self.engine, true);
            }
        }
        self.replay_request(&c.probe, c.now, &resp);
        if check {
            self.check(&c.probe, c.now, &resp);
        }
    }

    /// One `ingest_batched` call.
    pub fn ingest(
        &mut self,
        op: u32,
        batch: &[Observation],
        now_ms: i64,
        due: Option<Instant>,
    ) -> Instant {
        let traced = self.traced(op);
        let failures = self.engine.wal_append_failures();
        let store_faults = self.engine.store_write_failures();
        let start = Instant::now();
        let counted = self.counted(op);
        let (report, allocs) = maybe_counted(counted, || self.engine.ingest_batched(batch, now_ms));
        let end = Instant::now();
        self.tally.ops += 1;
        self.tally.events += batch.len() as u64;
        let ok = report.rejected.is_empty()
            && report.unadmitted == 0
            && report.synced
            && self.engine.store_write_failures() == store_faults
            && !self.wal_failed(failures);
        self.tally.outcome(ok);
        let latency = (end - due.unwrap_or(start)).as_nanos() as u64;
        self.tally.capture.push(latency);
        if counted {
            self.tally.alloc_ingest = self.tally.alloc_ingest.plus(allocs);
            self.tally.alloc_events += batch.len() as u64;
        }
        self.tracer
            .begin_op(op, "tippers.ingest_batched", start, end, traced);
        if traced {
            self.tally.traced_events += batch.len() as u64;
            self.replay_ingest(batch);
        }
        end
    }

    /// Replays an ingest batch: the capture filter derivation and the
    /// storage grant's per-policy decisions for subject-bearing
    /// observations the filter lets through.
    fn replay_ingest(&mut self, batch: &[Observation]) {
        let corpus = self.corpus;
        let engine = &self.engine;
        let filter = self.tracer.time("ingest.filter_derive", || {
            CaptureFilter::derive(
                &corpus.ontology,
                engine.policies(),
                engine.preferences(),
                &corpus.macs,
            )
        });
        let shadow = self.shadow.as_mut().expect("traced runs keep shadow state");
        shadow.ensure_enforcer(&mut self.tracer, engine, false);
        let (mut candidates, mut subjects) = (0u64, 0u64);
        self.tracer.time("enforce.storage_grant", || {
            for obs in batch.iter().filter(|o| !filter.suppresses(o)) {
                let Some(user) = obs.subject else { continue };
                subjects += 1;
                let category = obs.payload.category(&corpus.ontology);
                for policy in engine.policies().iter().filter(|p| {
                    p.actions.contains(DataAction::Store)
                        && corpus.dbh.model.contains(p.space, obs.space)
                        && corpus.ontology.data.is_a(category, p.data)
                }) {
                    candidates += 1;
                    let flow = tippers::RequestFlow {
                        subject: user,
                        subject_group: engine.group_of(user),
                        data: category,
                        purpose: policy.purpose,
                        service: policy.service.clone(),
                        action: DataAction::Store,
                        time: obs.timestamp,
                        subject_space: Some(obs.space),
                        requester_space: None,
                        room_occupied: engine.room_occupied(obs.space, obs.timestamp),
                    };
                    std::hint::black_box(shadow.decide(corpus, &flow));
                }
            }
        });
        self.tally.storage_candidates += candidates;
        self.tally.storage_subjects += subjects;
    }

    /// One retention sweep.
    pub fn sweep(&mut self, op: u32, now: Timestamp) -> Instant {
        let traced = self.traced(op);
        let failures = self.engine.wal_append_failures();
        let start = Instant::now();
        let rows = self.engine.sweep(now);
        let end = Instant::now();
        self.tally.ops += 1;
        self.tally.sweep_rows += rows as u64;
        self.tally.outcome(!self.wal_failed(failures));
        self.tally.sweep.push((end - start).as_nanos() as u64);
        self.tracer
            .begin_op(op, "tippers.sweep", start, end, traced);
        end
    }

    /// One checkpoint.
    pub fn checkpoint(&mut self, op: u32) -> Instant {
        let traced = self.traced(op);
        self.tally.wal_compacted += wal_bytes(&self.log);
        let start = Instant::now();
        let ok = self.engine.checkpoint().is_ok();
        let end = Instant::now();
        self.tally.ops += 1;
        self.tally.outcome(ok);
        self.tally.checkpoint.push((end - start).as_nanos() as u64);
        self.tracer
            .begin_op(op, "tippers.checkpoint", start, end, traced);
        end
    }
}

/// FNV-1a over a value's debug form: a digest showing which inputs a seed
/// produced.
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

impl Runner<'_> {
    /// Marks the start of the main stream: the per-layer counters count
    /// from here.
    pub fn begin_main(&mut self) {
        self.wal_start = (
            self.engine.wal_appended_records(),
            self.engine.wal_sync_count(),
        );
        self.wal_bytes_start = wal_bytes(&self.log);
    }

    /// Marks the end of the main stream: records the per-layer counters
    /// and the store shape it left.
    pub fn end_main(&mut self) {
        let t = &self.tally;
        let per = |part: f64, whole: u64| crate::stats::ratio(part, whole as f64);
        let report = &mut self.report;
        let engine = &self.engine;
        let wal_records = engine.wal_appended_records() - self.wal_start.0;
        let wal_syncs = engine.wal_sync_count() - self.wal_start.1;
        report.set("wal.records_per_kop", per(wal_records as f64 * 1e3, t.ops));
        report.set("wal.syncs_per_kop", per(wal_syncs as f64 * 1e3, t.ops));
        // Bytes written: growth over the stream plus what each checkpoint
        // compacted away (the checkpoint segment itself is in the growth).
        let written = wal_bytes(&self.log) + t.wal_compacted - self.wal_bytes_start;
        report.set("wal.bytes_per_op", per(written as f64, t.ops));
        let ingest = engine.ingest_stats().unwrap_or_default();
        report.set(
            "wal.rows_per_commit",
            per(ingest.stored as f64, ingest.group_commits),
        );
        let offered = ingest.admitted + ingest.rejected;
        report.set("ingest.stored_share", per(ingest.stored as f64, offered));
        report.set(
            "ingest.coarsened_share",
            per(ingest.coarsened as f64, offered),
        );
        report.set(
            "ingest.suppressed_share",
            per(ingest.suppressed as f64, offered),
        );
        report.set(
            "ingest.unauthorized_share",
            per(ingest.unauthorized as f64, offered),
        );
        report.set(
            "ingest.rejected_share",
            per(ingest.rejected as f64, offered),
        );
        report.set("ingest.group_commits", ingest.group_commits as f64);
        report.set(
            "ingest.store_policies_per_obs",
            per(t.storage_candidates as f64, t.storage_subjects),
        );
        report.set("tippers.sweep_us_p50", t.sweep.p50() / 1e3);
        report.set("tippers.sweep_rows", t.sweep_rows as f64);
        report.set("tippers.checkpoint_us_p50", t.checkpoint.p50() / 1e3);
        report.set(
            "tippers.quota_exceeded_share",
            per(t.quota_exceeded as f64, t.decisions),
        );
        report.set(
            "preference_manager.notifications_per_change",
            per(t.notifications as f64, t.changes),
        );

        let store = engine.store();
        let mut per_subject: std::collections::HashMap<UserId, u64> = Default::default();
        for row in store.iter() {
            if let Some(u) = row.observation.subject {
                *per_subject.entry(u).or_default() += 1;
            }
        }
        let mut rows = Samples::default();
        for &n in per_subject.values() {
            rows.push(n);
        }
        report.set("store.rows", store.len() as f64);
        report.set("store.rows_per_subject_p50", rows.p50());
        report.set("store.rows_per_subject_max", rows.quantile(1.0));
        for (name, value) in [
            ("main_ops", t.ops),
            ("main_decisions", t.decisions),
            ("main_permits", t.permits),
            ("wal_records", wal_records),
            ("wal_syncs", wal_syncs),
            ("stored_rows", store.len() as u64),
            ("ingest_stored", ingest.stored),
            ("sweep_rows", t.sweep_rows),
        ] {
            report.count(name, value);
        }
    }

    /// Turns everything recorded into the run's report: the end-to-end
    /// metrics and the span-derived per-layer metrics.
    pub fn finish(self) -> Report {
        let Runner {
            engine,
            tally: t,
            tracer,
            shadow,
            shard,
            mut report,
            trace,
            ..
        } = self;
        match shard {
            Some(shard) => shard.finish(&mut report),
            None => {
                // No shard runtime ran.
                for name in ["shard.route_ns", "shard.hop_us", "shard.faults"] {
                    report.set(name, 0.0);
                }
            }
        }
        if trace {
            report.set(
                "harness.trace_overhead",
                crate::stats::ratio(t.busy_tracing.p50(), t.busy_clean.p50()) - 1.0,
            );
        }
        let us = |ns: f64| ns / 1e3;
        let per = |part: f64, whole: u64| crate::stats::ratio(part, whole as f64);
        t.end_to_end(&mut report);

        let self_ns = tracer.self_times();
        let module_ns = |module: &str| -> f64 {
            self_ns
                .iter()
                .filter(|(name, _)| name.split('.').next() == Some(module))
                .map(|(_, ns)| *ns as f64)
                .sum()
        };
        let ops_traced = tracer.ops() as u64;
        let total_ns = |names: &[&str]| -> f64 {
            names.iter().map(|n| tracer.durations(n).sum() as f64).sum()
        };
        let root_ns = total_ns(&[
            "tippers.handle_request",
            "tippers.change",
            "tippers.ingest_batched",
            "tippers.sweep",
            "tippers.checkpoint",
        ]);
        let enforce_ns = total_ns(&["enforce.decide", "enforce.storage_grant", "enforce.build"]);
        report.set(
            "enforce.decide_us_p50",
            us(tracer.durations("enforce.decide").p50()),
        );
        report.set(
            "enforce.decide_share",
            crate::stats::ratio(enforce_ns, root_ns),
        );
        report.set(
            "enforce.build_us_p50",
            us(tracer.durations("enforce.build").p50()),
        );
        report.set(
            "enforce.us_per_op",
            us(per(module_ns("enforce"), ops_traced)),
        );
        report.set(
            "audit.record_us_p50",
            us(tracer.durations("audit.record").p50()),
        );
        report.set(
            "audit.encode_us_p50",
            us(tracer.durations("audit.encode").p50()),
        );
        report.set(
            "audit.append_us_p50",
            us(tracer.durations("audit.append").p50()),
        );
        report.set("audit.us_per_op", us(per(module_ns("audit"), ops_traced)));
        if let Some(s) = &shadow {
            report.set(
                "audit.payload_bytes",
                per(s.payload_bytes as f64, s.payloads),
            );
            if s.disagreements != 0 {
                report.problem(format!(
                    "{} shadow decisions disagree with the engine",
                    s.disagreements
                ));
            }
            if s.prefs.all() != engine.preferences() {
                report.problem("the preference mirror drifted from the engine".into());
            }
        }
        report.set(
            "store.latest_for_us_p50",
            us(tracer.durations("store.latest_for").p50()),
        );
        report.set(
            "store.query_subject_us_p50",
            us(tracer.durations("store.query_subject").p50()),
        );
        report.set("store.us_per_op", us(per(module_ns("store"), ops_traced)));
        report.set(
            "ingest.filter_derive_us",
            us(tracer.durations("ingest.filter_derive").p50()),
        );
        report.set(
            "ingest.event_us",
            us(per(
                tracer.durations("tippers.ingest_batched").sum() as f64,
                t.traced_events,
            )),
        );
        report.set("tippers.op_us_mean", us(per(root_ns, ops_traced)));
        report.set(
            "tippers.unattributed_us",
            us(per(module_ns("tippers"), ops_traced)),
        );
        report.set(
            "preference_manager.submit_us_p50",
            us(tracer.durations("preference_manager.submit").p50()),
        );
        if tracer.ops() > 0 {
            report.spans = Some(tracer.to_tsv());
        }
        report
    }
}
