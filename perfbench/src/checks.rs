//! Correctness checks, all run outside timed regions. Any failure makes
//! the run report `"correct": false` and exit non-zero.

use std::time::Instant;

use tippers::wal::MemLog;
use tippers::{
    CaptureFilter, DataRequest, DataResponse, DecisionBasis, EnforcementDecision, Enforcer,
    NaiveEnforcer, RecoveryReport, Tippers, TippersConfig, WalError, ARCHIVE_PREFIX,
};
use tippers_policy::{ResolutionStrategy, Timestamp};

use crate::corpus::Corpus;
use crate::stats::median;
use crate::Report;

/// How many times recovery is timed at the recovery point.
pub const RECOVERY_REPEATS: usize = 5;

/// The executable specification (`NaiveEnforcer`) over the live corpus,
/// rebuilt whenever the corpus changed.
#[derive(Default)]
pub struct Oracle {
    naive: Option<(u64, NaiveEnforcer)>,
}

impl Oracle {
    /// The specification's decision for one subject of a request.
    /// `engine` supplies the live corpus and the store placing the
    /// subject; `version` counts corpus changes so far.
    pub fn expect(
        &mut self,
        corpus: &Corpus,
        engine: &Tippers,
        version: u64,
        req: &DataRequest,
        user: tippers_policy::UserId,
        now: Timestamp,
    ) -> EnforcementDecision {
        if self.naive.as_ref().is_none_or(|(v, _)| *v != version) {
            let naive = NaiveEnforcer::new(
                engine.policies().to_vec(),
                engine.preferences().to_vec(),
                ResolutionStrategy::PolicyPrevails,
            );
            self.naive = Some((version, naive));
        }
        let (_, naive) = self.naive.as_ref().expect("built above");
        let flow = corpus.share_flow(engine, req, user, now);
        naive.decide(&flow, &corpus.ontology, &corpus.dbh.model)
    }

    /// Re-decides every subject of `resp` with the specification and
    /// records any disagreement in effect or basis. A quota denial must
    /// replace a permit.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &mut self,
        report: &mut Report,
        corpus: &Corpus,
        engine: &Tippers,
        version: u64,
        req: &DataRequest,
        now: Timestamp,
        resp: &DataResponse,
    ) {
        for r in &resp.results {
            let want = self.expect(corpus, engine, version, req, r.user, now);
            if !agrees(&r.decision, &want) {
                report.problem(format!(
                    "decision for {:?} at {now:?} on {:?}: engine {:?}/{:?}, specification {:?}/{:?}",
                    r.user, req.data, r.decision.effect, r.decision.basis, want.effect, want.basis
                ));
            }
        }
    }
}

/// True when an engine decision matches the specification's: the same
/// effect and basis, or a quota denial of what the specification permits.
pub fn agrees(got: &EnforcementDecision, want: &EnforcementDecision) -> bool {
    if got.basis == DecisionBasis::QuotaExceeded {
        return want.permits();
    }
    got.effect == want.effect && got.basis == want.basis
}

/// The recovery measurement. At the recovery point the audit chain and
/// its archive are verified and the engine's log is copied; the copy is
/// then reopened [`RECOVERY_REPEATS`] times at points spread over the rest
/// of the run (`recovery_s` is the median, so one burst of host noise
/// moves one of them). The first reopen is checked: the recovered engine
/// holds the same policies, preferences and store rows as the live one
/// and decides the sample requests as the specification does.
pub struct Recovery {
    config: TippersConfig,
    log: Option<MemLog>,
    times: Vec<f64>,
    replayed: u64,
}

impl Recovery {
    /// A measurement that reopens logs under `config`.
    pub fn new(config: TippersConfig) -> Recovery {
        Recovery {
            config,
            log: None,
            times: Vec::with_capacity(RECOVERY_REPEATS),
            replayed: 0,
        }
    }

    /// True once the recovery point passed and reopens remain.
    pub fn pending(&self) -> bool {
        self.log.is_some() && self.times.len() < RECOVERY_REPEATS
    }

    fn reopen(&mut self, corpus: &Corpus) -> Result<(Tippers, RecoveryReport), WalError> {
        let copy = self.log.as_ref().expect("recovery point taken").deep_copy();
        let start = Instant::now();
        let opened = Tippers::open_with(
            Box::new(copy),
            corpus.ontology.clone(),
            corpus.dbh.model.clone(),
            self.config.clone(),
        );
        self.times.push(start.elapsed().as_secs_f64());
        opened
    }

    /// One more timed reopen, if any remain.
    pub fn repeat(&mut self, corpus: &Corpus) {
        if self.pending() {
            let _ = self.reopen(corpus);
        }
    }

    /// The recovery point: checks, the log copy and the first reopen.
    #[allow(clippy::too_many_arguments)]
    pub fn take(
        &mut self,
        report: &mut Report,
        oracle: &mut Oracle,
        corpus: &Corpus,
        engine: &Tippers,
        log: &MemLog,
        sample: &[(DataRequest, Timestamp)],
    ) {
        let start = Instant::now();
        match engine.verify_audit_archive() {
            Ok(records) => {
                let us = start.elapsed().as_secs_f64() * 1e6;
                report.set("audit.verify_us_per_record", us / records.max(1) as f64);
            }
            Err(fault) => report.problem(format!("audit archive: {fault}")),
        }
        if let Err(fault) = engine.verify_audit_chain() {
            report.problem(format!("audit chain: {fault}"));
        }
        self.log = Some(log.deep_copy());
        let (mut rec, rr) = match self.reopen(corpus) {
            Ok(opened) => opened,
            Err(e) => {
                report.problem(format!("recovery failed: {e}"));
                return;
            }
        };
        self.replayed = rr.records_replayed;
        if rr.truncated_tails != 0 {
            report.problem(format!("recovery truncated a clean log: {rr:?}"));
        }
        if rec.policies() != engine.policies() {
            report.problem("recovered policies differ from the live engine's".into());
        }
        if rec.preferences() != engine.preferences() {
            report.problem("recovered preferences differ from the live engine's".into());
        }
        if !rec.store().iter().eq(engine.store().iter()) {
            report.problem(format!(
                "recovered store ({} rows) differs from the live engine's ({} rows)",
                rec.store().len(),
                engine.store().len()
            ));
        }
        // Occupant registration is administrative state, re-applied on start.
        rec.register_occupants(&corpus.occupants);
        for (req, now) in sample {
            let resp = rec.handle_request(req, *now);
            for r in &resp.results {
                let want = oracle.expect(corpus, engine, u64::MAX, req, r.user, *now);
                if !agrees(&r.decision, &want) {
                    report.problem(format!(
                        "recovered engine decided {:?}/{:?} for {:?}, specification {:?}/{:?}",
                        r.decision.effect, r.decision.basis, r.user, want.effect, want.basis
                    ));
                }
            }
        }
    }

    /// Finishes the remaining reopens and reports `recovery_s` and the
    /// replay rate.
    pub fn finish(mut self, corpus: &Corpus, report: &mut Report) {
        while self.pending() {
            self.repeat(corpus);
        }
        let recovery_s = median(&self.times);
        report.set("recovery_s", recovery_s);
        report.set(
            "wal.replay_records_per_s",
            self.replayed as f64 / recovery_s,
        );
    }
}

/// End-of-run checks on an unsharded engine: the open audit chain
/// verifies, every sealed segment reached the archive, no WAL append or
/// archive write failed, and no stored row carries a MAC the capture
/// filter suppresses.
pub fn final_checks(report: &mut Report, corpus: &Corpus, engine: &Tippers, log: &MemLog) {
    if let Err(fault) = engine.verify_audit_chain() {
        report.problem(format!("audit chain at end of run: {fault}"));
    }
    let archived = log
        .file_names()
        .iter()
        .filter(|n| n.starts_with(ARCHIVE_PREFIX))
        .count() as u64;
    if archived != engine.audit_chain().sealed_segments() || engine.audit_archive_failures() != 0 {
        report.problem(format!(
            "{archived} archived audit segments for {} sealed ({} archive failures)",
            engine.audit_chain().sealed_segments(),
            engine.audit_archive_failures()
        ));
    }
    if engine.wal_append_failures() != 0 {
        report.problem(format!(
            "{} WAL appends failed",
            engine.wal_append_failures()
        ));
    }
    let filter = CaptureFilter::derive(
        &corpus.ontology,
        engine.policies(),
        engine.preferences(),
        &corpus.macs,
    );
    let leaked = engine
        .store()
        .iter()
        .filter(|row| filter.suppresses(&row.observation))
        .count();
    if leaked != 0 {
        report.problem(format!(
            "{leaked} stored rows carry a capture-suppressed MAC"
        ));
    }
}
