//! Diagnostics: stable lint codes, severities, and JSON-pointer locations.
//!
//! Every finding the analyzer emits is a [`Diagnostic`] carrying a stable
//! [`LintCode`] (`TA001`–`TA011`), a [`Severity`] reused from the wire-format
//! validator, a JSON-pointer-style path identifying *where* in the corpus the
//! problem lives, and free-form evidence strings (rule chains, counterpart
//! ids) that make the finding actionable.

use std::fmt;

use serde::{de, Deserialize, Serialize, Value};

pub use tippers_policy::validate::Severity;

/// Stable identifier of one analyzer finding kind.
///
/// Codes are append-only: once published, a code never changes meaning, so
/// suppressions (`"lint-allow": ["TA004"]`) stay valid across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `TA001` — dangling reference: a policy, preference or document names
    /// a space, data category, sensor class or service that does not exist.
    DanglingReference,
    /// `TA002` — unsatisfiable condition: a guard that can never hold, such
    /// as a time window over an empty weekday set.
    UnsatisfiableCondition,
    /// `TA003` — dead preference: fully subsumed by a stricter preference of
    /// the same user, or by a mandatory policy.
    DeadPreference,
    /// `TA004` — retention contradiction: a policy retains data longer than
    /// a stricter policy covering an enclosing scope allows.
    RetentionContradiction,
    /// `TA005` — inference leak: collected data transitively reveals a
    /// category the document's disclosures never mention.
    InferenceLeak,
    /// `TA006` — conflict pre-flight: a policy/preference conflict that will
    /// surface at runtime.
    ConflictPreflight,
    /// `TA007` — wire-format issue found by structural validation.
    WireFormat,
    /// `TA008` — missing priority mapping: a policy names a service whose
    /// admission class (emergency/interactive/batch) is never declared, so
    /// overload shedding falls back to requester-declared priorities.
    MissingPriorityMapping,
    /// `TA009` — replication misconfiguration: a replica set smaller than
    /// the declared commit quorum (every commit stalls), a quorum that is
    /// not a majority (two disjoint quorums could acknowledge divergent
    /// histories), or a bounded-staleness read window with no replica set
    /// to serve it.
    ReplicationMisconfigured,
    /// `TA010` — accountability gap: a policy that stores data but declares
    /// no (or a zero) retention, so the enforced-retention sweeper can
    /// never certify its deletion; or a sharing purpose with no disclosure
    /// quota configured, so nothing bounds how often it can be queried.
    AccountabilityGap,
    /// `TA011` — capture-enforcement gap: the declared ingest pipeline has
    /// no (or a zero) mailbox bound, so a sensor firehose buffers without
    /// limit instead of backpressuring the links; or a policy authorizes
    /// collection/storage in a space no capture zone covers, so its
    /// observations reach the store without passing the capture-time
    /// filter.
    CaptureGap,
    /// `TA012` — cross-document shadowing: a policy whose effective decision
    /// is identical under every reachable context because another policy
    /// dominates it (broader space/data/purpose/subjects, same-or-stronger
    /// modality, identical retention), or an advertised resource that is an
    /// exact duplicate of one advertised earlier. Removing the shadowed
    /// document changes nothing, so it is dead weight that still has to be
    /// kept consistent.
    CrossDocumentShadow,
    /// `TA013` — undeclared purpose flow: a collected data category
    /// transitively reaches (via taxonomy subsumption and the ontology's
    /// inference rules) a policy that shares data under a purpose no
    /// advertised document ever declares to occupants. The diagnostic
    /// carries a witness path: the collecting source, the rule chain, and
    /// the sharing sink.
    UndeclaredPurposeFlow,
    /// `TA014` — uncompilable construct: something no finite decision
    /// table can hold — an unbounded runtime-context guard
    /// (`requester_nearby` ranges over continuous positions, so it is
    /// evaluated, interpreted, on every request it matches), or a cycle
    /// in the ontology's inference rules (they cannot be stratified).
    Uncompilable,
    /// `TA015` — unused suppression: a `"lint-allow"` entry (per-document)
    /// or corpus/CLI `--allow` code that suppressed nothing in this run.
    /// Stale suppressions silently mask future regressions, mirroring
    /// rustc's `unused_allow`.
    UnusedAllow,
    /// `TA016` — shard-topology misconfiguration: a sharded deployment
    /// declaring zero shards (routing is undefined and the runtime
    /// refuses to start), a zone pinned to a shard index outside the
    /// declared range, a zone claimed by two different shards (split
    /// ownership makes replay and fail-closed accounting ambiguous), or
    /// a capture zone the declared topology maps to no shard — its
    /// subjectless observations would have no owner to enforce them.
    ShardTopology,
}

impl LintCode {
    /// All codes, in numeric order.
    pub const ALL: [LintCode; 16] = [
        LintCode::DanglingReference,
        LintCode::UnsatisfiableCondition,
        LintCode::DeadPreference,
        LintCode::RetentionContradiction,
        LintCode::InferenceLeak,
        LintCode::ConflictPreflight,
        LintCode::WireFormat,
        LintCode::MissingPriorityMapping,
        LintCode::ReplicationMisconfigured,
        LintCode::AccountabilityGap,
        LintCode::CaptureGap,
        LintCode::CrossDocumentShadow,
        LintCode::UndeclaredPurposeFlow,
        LintCode::Uncompilable,
        LintCode::UnusedAllow,
        LintCode::ShardTopology,
    ];

    /// The stable textual code.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::DanglingReference => "TA001",
            LintCode::UnsatisfiableCondition => "TA002",
            LintCode::DeadPreference => "TA003",
            LintCode::RetentionContradiction => "TA004",
            LintCode::InferenceLeak => "TA005",
            LintCode::ConflictPreflight => "TA006",
            LintCode::WireFormat => "TA007",
            LintCode::MissingPriorityMapping => "TA008",
            LintCode::ReplicationMisconfigured => "TA009",
            LintCode::AccountabilityGap => "TA010",
            LintCode::CaptureGap => "TA011",
            LintCode::CrossDocumentShadow => "TA012",
            LintCode::UndeclaredPurposeFlow => "TA013",
            LintCode::Uncompilable => "TA014",
            LintCode::UnusedAllow => "TA015",
            LintCode::ShardTopology => "TA016",
        }
    }

    /// Short human-readable name of the pass behind the code.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::DanglingReference => "dangling-reference",
            LintCode::UnsatisfiableCondition => "unsatisfiable-condition",
            LintCode::DeadPreference => "dead-preference",
            LintCode::RetentionContradiction => "retention-contradiction",
            LintCode::InferenceLeak => "inference-leak",
            LintCode::ConflictPreflight => "conflict-preflight",
            LintCode::WireFormat => "wire-format",
            LintCode::MissingPriorityMapping => "priority-mapping",
            LintCode::ReplicationMisconfigured => "replication",
            LintCode::AccountabilityGap => "accountability",
            LintCode::CaptureGap => "capture",
            LintCode::CrossDocumentShadow => "cross-document-shadow",
            LintCode::UndeclaredPurposeFlow => "purpose-flow",
            LintCode::Uncompilable => "compilability",
            LintCode::UnusedAllow => "unused-allow",
            LintCode::ShardTopology => "shard-topology",
        }
    }

    /// Parses a textual code (`"TA003"`).
    pub fn parse(text: &str) -> Option<LintCode> {
        LintCode::ALL.into_iter().find(|c| c.as_str() == text)
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for LintCode {
    fn serialize_value(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for LintCode {
    fn deserialize_value(v: Value) -> Result<Self, de::Error> {
        let text = String::deserialize_value(v)?;
        LintCode::parse(&text).ok_or_else(|| de::Error::custom(format!("unknown lint code {text}")))
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Which pass fired.
    pub code: LintCode,
    /// How bad it is.
    pub severity: Severity,
    /// JSON-pointer-style location; policies and preferences are addressed
    /// by their stable ids (`/policies/7/retention`), documents by their
    /// position in the corpus (`/documents/0/resources/1/observations`).
    pub path: String,
    /// What is wrong.
    pub message: String,
    /// Supporting facts: inference-rule chains, counterpart policy ids, …
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub evidence: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with no evidence attached.
    pub fn new(
        code: LintCode,
        severity: Severity,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            path: path.into(),
            message: message.into(),
            evidence: Vec::new(),
        }
    }

    /// Attaches evidence strings.
    #[must_use]
    pub fn with_evidence(mut self, evidence: Vec<String>) -> Diagnostic {
        self.evidence = evidence;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}] {}: {}", self.code, self.path, self.message)
    }
}

/// The canonical ordering key: (path, code, severity, message, evidence).
/// Borrowing lets callers sort `&Diagnostic` slices without moving the
/// fat owned structs around.
pub(crate) fn sort_key(d: &Diagnostic) -> (&str, LintCode, Severity, &str, &[String]) {
    (&d.path, d.code, d.severity, &d.message, &d.evidence)
}

/// Sorts diagnostics into the canonical order (path, code, severity,
/// message, evidence) and removes exact duplicates. Every reporter and
/// every test relies on this order, which is independent of the order in
/// which passes ran or corpus items were supplied.
pub fn canonicalize(diagnostics: &mut Vec<Diagnostic>) {
    diagnostics.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    diagnostics.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_text() {
        for code in LintCode::ALL {
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(LintCode::parse("TA999"), None);
        assert_eq!(LintCode::DeadPreference.to_string(), "TA003");
    }

    #[test]
    fn codes_serialize_as_strings() {
        let json = serde_json::to_string(&LintCode::InferenceLeak).unwrap();
        assert_eq!(json, "\"TA005\"");
        let back: LintCode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, LintCode::InferenceLeak);
        assert!(serde_json::from_str::<LintCode>("\"TA042\"").is_err());
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let d = |path: &str, code| Diagnostic::new(code, Severity::Warning, path, "m");
        let mut all = vec![
            d("/b", LintCode::WireFormat),
            d("/a", LintCode::DeadPreference),
            d("/a", LintCode::DanglingReference),
            d("/a", LintCode::DeadPreference),
        ];
        canonicalize(&mut all);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].path, "/a");
        assert_eq!(all[0].code, LintCode::DanglingReference);
        assert_eq!(all[2].path, "/b");
    }

    #[test]
    fn diagnostics_display_nicely() {
        let diag = Diagnostic::new(
            LintCode::RetentionContradiction,
            Severity::Error,
            "/policies/2/retention",
            "too long",
        );
        assert_eq!(
            diag.to_string(),
            "error[TA004] /policies/2/retention: too long"
        );
    }
}
