//! Spans for the traced run, and the bench-owned shadow state the traced
//! run replays each operation's inputs through.
//!
//! Nothing inside the engine is instrumented. After the engine answers an
//! operation, the benchmark replays the same inputs through each layer's
//! public function on state the benchmark owns (an `IndexedEnforcer`
//! built from the live corpus, an `AuditLog`, an `AuditChain`, a
//! `PreferenceManager` mirror) or on read-only borrows of the engine (its
//! store), and records one span per call. Shadow spans are children of the
//! operation's span but run after it, so a parent's self time is its
//! duration minus its children's durations: the part of the operation no
//! shadowed layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tippers::{
    AuditChain, AuditLog, ChainEvent, DataRequest, Enforcer, IndexedEnforcer, PreferenceManager,
    Tippers, SEGMENT_RECORDS,
};
use tippers_policy::{conflict, BuildingPolicy, ResolutionStrategy, Timestamp, UserId};

use crate::corpus::Corpus;
use crate::stats::Samples;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u32,
    /// Span id (its index in the trace).
    pub id: u32,
    /// The span that caused it.
    pub parent: Option<u32>,
    /// `<module>.<function>`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store, written once when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Whether the current operation is traced (spans are kept only then).
    active: bool,
    op: u32,
    parent: Option<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            active: false,
            op: 0,
            parent: None,
        }
    }
}

impl Tracer {
    /// Records an operation span measured by the caller and makes it the
    /// parent of the shadow spans that follow, when `active`.
    pub fn begin_op(
        &mut self,
        op: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        active: bool,
    ) {
        self.active = active;
        self.op = op;
        self.parent = None;
        if active {
            self.parent = Some(self.push(None, name, start, end));
        }
    }

    /// True while the current operation is traced.
    pub fn active(&self) -> bool {
        self.active
    }

    fn push(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Runs `f`, recording it as a child of the current operation when the
    /// operation is traced.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.active {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(self.parent, name, start, end);
        out
    }

    /// Runs `f` and records it as a span of its own, beside the operation
    /// spans, returning its result and duration in nanoseconds.
    pub fn root<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(None, name, start, end);
        (out, (end - start).as_nanos() as u64)
    }

    /// Durations of every span with this name.
    pub fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(span.ns());
        }
        s
    }

    /// Self time per span name, nanoseconds: each span's duration minus
    /// its children's durations, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, i64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p as usize] += span.ns();
            }
        }
        let mut out = BTreeMap::new();
        for span in &self.spans {
            *out.entry(span.name).or_insert(0) +=
                span.ns() as i64 - children[span.id as usize] as i64;
        }
        out
    }

    /// Number of operation spans (the engine calls traced).
    pub fn ops(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name.starts_with("tippers."))
            .count()
    }

    /// The spans as tab-separated lines: op, id, parent (-1 for none),
    /// name, start_ns, end_ns.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("op\tid\tparent\tname\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let parent = s.parent.map_or(-1, i64::from);
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Bench-owned copies of layer state the shadow calls run against.
pub struct Shadow {
    enforcer: Option<IndexedEnforcer>,
    audit: AuditLog,
    chain: AuditChain,
    /// Mirror of the engine's preference manager (kept in step with every
    /// preference change the benchmark makes).
    pub prefs: PreferenceManager,
    /// Total bytes of encoded chain payloads, and how many.
    pub payload_bytes: u64,
    /// Chain payloads encoded.
    pub payloads: u64,
    /// Decisions where the shadow enforcer disagreed with the engine.
    pub disagreements: u64,
}

/// How many shadow audit entries to keep before starting a fresh log, so
/// the traced run does not double the audit's memory.
const SHADOW_AUDIT_CAP: usize = 8192;

impl Shadow {
    /// Shadow state mirroring the engine as it stands.
    pub fn new(engine: &Tippers) -> Shadow {
        let snapshot_next = engine.snapshot().next_preference_id;
        Shadow {
            enforcer: None,
            audit: AuditLog::new(),
            chain: AuditChain::new(),
            prefs: PreferenceManager::from_parts(engine.preferences().to_vec(), snapshot_next),
            payload_bytes: 0,
            payloads: 0,
            disagreements: 0,
        }
    }

    /// Marks the shadow enforcer stale (the corpus changed).
    pub fn invalidate(&mut self) {
        self.enforcer = None;
    }

    /// Rebuilds the shadow enforcer from the engine's live corpus if stale,
    /// recording the build when `span` is set.
    pub fn ensure_enforcer(&mut self, tr: &mut Tracer, engine: &Tippers, span: bool) {
        if self.enforcer.is_some() {
            return;
        }
        let build = || {
            IndexedEnforcer::new(
                engine.policies().to_vec(),
                engine.preferences().to_vec(),
                ResolutionStrategy::PolicyPrevails,
                engine.ontology(),
            )
        };
        self.enforcer = Some(if span {
            tr.time("enforce.build", build)
        } else {
            build()
        });
    }

    /// Replays one answered request subject through the request path's
    /// layers: the store lookup placing the subject, the enforcer's
    /// decision, the audit record, its chain encoding and append, segment
    /// sealing, and (for a permit) the store query releasing rows.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_request(
        &mut self,
        tr: &mut Tracer,
        corpus: &Corpus,
        engine: &Tippers,
        request: &DataRequest,
        user: UserId,
        now: Timestamp,
        engine_decision: &tippers::EnforcementDecision,
    ) {
        self.ensure_enforcer(tr, engine, false);
        let flow = tr.time("store.latest_for", || {
            corpus.share_flow(engine, request, user, now)
        });
        let enforcer = self.enforcer.as_ref().expect("built above");
        let decision = tr.time("enforce.decide", || {
            enforcer.decide(&flow, &corpus.ontology, &corpus.dbh.model)
        });
        // Quota and shard denials are made outside the enforcer.
        let outside = matches!(
            engine_decision.basis,
            tippers::DecisionBasis::QuotaExceeded | tippers::DecisionBasis::ShardUnavailable
        );
        if !outside && decision != *engine_decision {
            self.disagreements += 1;
        }
        if self.audit.entries().len() >= SHADOW_AUDIT_CAP {
            self.audit = AuditLog::new();
        }
        let entry = tr.time("audit.record", || {
            self.audit
                .record(
                    now,
                    user,
                    Some(request.service.clone()),
                    request.data,
                    request.purpose,
                    engine_decision,
                )
                .clone()
        });
        let payload = tr.time("audit.encode", || {
            serde_json::to_string(&ChainEvent::Decision { entry }).expect("chain events encode")
        });
        self.payload_bytes += payload.len() as u64;
        self.payloads += 1;
        tr.time("audit.append", || {
            self.chain.append(payload);
        });
        tr.time("audit.archive", || {
            for segment in self.chain.seal(SEGMENT_RECORDS) {
                std::hint::black_box(serde_json::to_string(&segment).expect("segments encode"));
            }
        });
        if engine_decision.permits() {
            tr.time("store.query_subject", || {
                release_rows(corpus, engine, request, user);
            });
        }
    }

    /// Replays a preference submission: the manager's insert plus the
    /// conflict classification against every policy that intake runs.
    /// Untraced, only the insert runs, to keep the mirror in step.
    pub fn replay_submit(
        &mut self,
        tr: &mut Tracer,
        corpus: &Corpus,
        policies: &[BuildingPolicy],
        pref: &tippers_policy::UserPreference,
    ) {
        if !tr.active() {
            self.prefs.add(pref.clone());
            return;
        }
        tr.time("preference_manager.submit", || {
            let mut stored = pref.clone();
            stored.id = self.prefs.add(pref.clone());
            let conflicts = policies
                .iter()
                .filter_map(|p| {
                    conflict::classify(
                        p,
                        &stored,
                        &corpus.ontology,
                        &corpus.dbh.model,
                        ResolutionStrategy::PolicyPrevails,
                    )
                })
                .count();
            std::hint::black_box(conflicts);
        });
    }

    /// Replays a setting choice through the manager mirror.
    pub fn replay_setting(
        &mut self,
        tr: &mut Tracer,
        policy: &BuildingPolicy,
        user: UserId,
        option: usize,
    ) {
        tr.time("preference_manager.submit", || {
            let _ =
                self.prefs
                    .apply_setting_choice(user, policy, crate::corpus::SETTING_KEY, option);
        });
    }

    /// Decides a storage flow on the shadow enforcer (the storage grant's
    /// per-policy decision).
    pub fn decide(&self, corpus: &Corpus, flow: &tippers::RequestFlow) -> bool {
        self.enforcer
            .as_ref()
            .expect("shadow enforcer built before storage replay")
            .decide(flow, &corpus.ontology, &corpus.dbh.model)
            .permits()
    }
}

/// The store queries `Tippers::handle_request` makes to release a
/// permitted subject's rows.
fn release_rows(corpus: &Corpus, engine: &Tippers, request: &DataRequest, user: UserId) -> usize {
    let ont = &corpus.ontology;
    let c = ont.concepts();
    let location =
        ont.data.is_a(request.data, c.location) || ont.data.compatible(request.data, c.location);
    let store = engine.store();
    if location {
        [c.wifi_association, c.bluetooth_sighting, c.location]
            .iter()
            .map(|&cat| {
                store
                    .query_subject(ont, user, cat, request.from, request.to)
                    .len()
            })
            .sum()
    } else {
        store
            .query_subject(ont, user, request.data, request.from, request.to)
            .len()
    }
}
