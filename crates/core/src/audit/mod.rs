//! Decision audit records and user notifications.
//!
//! The engine's decision record is the tamper-evident [`chain::AuditChain`]:
//! every enforcement decision is journaled there as a
//! [`ChainEvent::Decision`] and read back through
//! [`crate::Tippers::decisions`]. The [`AuditLog`] holds what IoTAs pull
//! per user (conflict notices, mandatory overrides) — which also serve as
//! the labeled data the IoTA's preference learner consumes (§V.B: "the
//! assistant requires labeled data over a period of time") — and the
//! deletion certificates; its entry list serves in-memory audits outside
//! the engine (the shard router's fail-closed denials).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use tippers_ontology::ConceptId;
use tippers_policy::{Effect, ServiceId, Timestamp, UserId};

use crate::enforce::{DecisionBasis, EnforcementDecision};

pub mod chain;
pub(crate) mod hash;

/// Proof that one retention sweep deleted what it claimed to delete.
///
/// Emitted when a sweep commits (and re-emitted identically by replicas
/// and crash recovery replaying the same `SweepCommit` record); the
/// `digest` is a SHA-256 over the sweep id, sweep time, and the canonical
/// JSON of every deleted row, so auditors holding the deleted rows can
/// re-derive it and auditors without them can still match certificates
/// across nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeletionCertificate {
    /// The sweep this certificate proves.
    pub sweep: u64,
    /// Virtual time the sweep ran at.
    pub time: Timestamp,
    /// Number of rows deleted.
    pub rows: u64,
    /// SHA-256 (hex) over the sweep id, time, and deleted-row JSON.
    pub digest: String,
}

/// An event journaled onto the tamper-evident [`chain::AuditChain`]: the
/// chain's record payloads are the canonical JSON of these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChainEvent {
    /// An enforcement decision was audited.
    Decision {
        /// The audited entry.
        entry: AuditEntry,
    },
    /// A retention sweep committed and certified its deletions.
    Deletion {
        /// The certificate, exactly as recorded in the [`AuditLog`].
        certificate: DeletionCertificate,
    },
}

/// One audited enforcement decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// When the decision was made.
    pub time: Timestamp,
    /// The data subject.
    pub subject: UserId,
    /// The requesting service, if any.
    pub service: Option<ServiceId>,
    /// Data category of the flow.
    pub data: ConceptId,
    /// Purpose of the flow.
    pub purpose: ConceptId,
    /// Resulting effect.
    pub effect: Effect,
    /// Why.
    pub basis: DecisionBasis,
}

impl AuditEntry {
    /// The entry auditing `decision` on one subject's flow.
    pub(crate) fn of(
        time: Timestamp,
        subject: UserId,
        service: Option<ServiceId>,
        data: ConceptId,
        purpose: ConceptId,
        decision: &EnforcementDecision,
    ) -> AuditEntry {
        AuditEntry {
            time,
            subject,
            service,
            data,
            purpose,
            effect: decision.effect,
            basis: decision.basis.clone(),
        }
    }
}

/// A message for one user's IoTA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserNotification {
    /// The addressee.
    pub user: UserId,
    /// When it was generated.
    pub time: Timestamp,
    /// The message.
    pub text: String,
}

/// Pending user notifications, deletion certificates, and (outside the
/// engine) in-memory decision entries.
///
/// # Examples
///
/// ```
/// use tippers::AuditLog;
/// use tippers_policy::{Timestamp, UserId};
///
/// let mut log = AuditLog::new();
/// log.notify(UserId(1), Timestamp::at(0, 9, 0), "hello".to_owned());
/// let mine = log.take_notifications(UserId(1));
/// assert_eq!(mine.len(), 1);
/// assert_eq!(log.pending_notifications(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AuditLog {
    /// Never populated by the engine, whose decisions live only on the
    /// audit chain, so engine snapshots carry no entries.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    entries: Vec<AuditEntry>,
    /// Pending notifications per addressee, oldest first; a `BTreeMap`
    /// so snapshots serialize deterministically.
    notifications: BTreeMap<UserId, Vec<UserNotification>>,
    /// Deletion certificates, oldest first. `default` so snapshots taken
    /// before the retention sweeper existed still deserialize.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    certificates: Vec<DeletionCertificate>,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Records a decision; emits an override notification when a mandatory
    /// policy trumped the subject's preference. Returns the recorded entry
    /// so callers can journal it onto the tamper-evident chain.
    pub fn record(
        &mut self,
        time: Timestamp,
        subject: UserId,
        service: Option<ServiceId>,
        data: ConceptId,
        purpose: ConceptId,
        decision: &EnforcementDecision,
    ) -> &AuditEntry {
        self.notify_override(subject, time, decision);
        self.entries.push(AuditEntry::of(
            time, subject, service, data, purpose, decision,
        ));
        self.entries.last().expect("just pushed")
    }

    /// Queues the notice owed to `subject` when a mandatory policy
    /// trumped their preference in `decision` (nothing otherwise).
    pub(crate) fn notify_override(
        &mut self,
        subject: UserId,
        time: Timestamp,
        decision: &EnforcementDecision,
    ) {
        if let Some(pref) = decision.overridden_preference {
            self.notify(
                subject,
                time,
                format!(
                    "A mandatory building policy overrode your preference {pref} for this request."
                ),
            );
        }
    }

    /// Records a deletion certificate.
    pub fn certify(&mut self, certificate: DeletionCertificate) {
        self.certificates.push(certificate);
    }

    /// All deletion certificates, oldest first.
    pub fn certificates(&self) -> &[DeletionCertificate] {
        &self.certificates
    }

    /// Queues a notification.
    pub fn notify(&mut self, user: UserId, time: Timestamp, text: String) {
        self.notifications
            .entry(user)
            .or_default()
            .push(UserNotification { user, time, text });
    }

    /// Queues several notifications for one user with a single lookup of
    /// the user's queue (none when `texts` is empty).
    pub(crate) fn notify_each(
        &mut self,
        user: UserId,
        time: Timestamp,
        texts: impl IntoIterator<Item = String>,
    ) {
        let mut texts = texts.into_iter().peekable();
        if texts.peek().is_some() {
            self.notifications
                .entry(user)
                .or_default()
                .extend(texts.map(|text| UserNotification { user, time, text }));
        }
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Drains the pending notifications for one user (the IoTA poll).
    pub fn take_notifications(&mut self, user: UserId) -> Vec<UserNotification> {
        self.notifications.remove(&user).unwrap_or_default()
    }

    /// Number of pending notifications (all users).
    pub fn pending_notifications(&self) -> usize {
        self.notifications.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_ontology::Ontology;
    use tippers_policy::PreferenceId;

    #[test]
    fn record_and_filter() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mut log = AuditLog::new();
        let d = EnforcementDecision {
            effect: Effect::Deny,
            basis: DecisionBasis::NoAuthorizingPolicy,
            overridden_preference: None,
        };
        log.record(
            Timestamp::at(0, 9, 0),
            UserId(1),
            None,
            c.location,
            c.marketing,
            &d,
        );
        log.record(
            Timestamp::at(0, 9, 1),
            UserId(2),
            None,
            c.location,
            c.marketing,
            &d,
        );
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.entries()[0].subject, UserId(1));
        assert_eq!(log.entries()[1].subject, UserId(2));
    }

    #[test]
    fn override_generates_notification() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mut log = AuditLog::new();
        let d = EnforcementDecision {
            effect: Effect::Allow,
            basis: DecisionBasis::MandatoryPolicy(tippers_policy::PolicyId(2)),
            overridden_preference: Some(PreferenceId(2)),
        };
        log.record(
            Timestamp::at(0, 9, 0),
            UserId(1),
            None,
            c.location,
            c.emergency_response,
            &d,
        );
        let notes = log.take_notifications(UserId(1));
        assert_eq!(notes.len(), 1);
        assert!(notes[0].text.contains("overrode"));
        // Drained.
        assert!(log.take_notifications(UserId(1)).is_empty());
    }

    #[test]
    fn overload_entries_survive_a_serde_round_trip() {
        let ont = Ontology::standard();
        let c = ont.concepts();
        let mut log = AuditLog::new();
        log.record(
            Timestamp::at(0, 9, 0),
            UserId(1),
            Some(ServiceId::new("svc-storm")),
            c.location,
            c.comfort,
            &EnforcementDecision::shed_overload(),
        );
        let json = serde_json::to_string(&log).unwrap();
        let back: AuditLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
        let entry = &back.entries()[0];
        assert_eq!(entry.basis, DecisionBasis::Overload);
        // Fail closed: a shed is a denial, never a release.
        assert_eq!(entry.effect, Effect::Deny);
    }

    #[test]
    fn take_notifications_is_per_user() {
        let mut log = AuditLog::new();
        for (user, text) in [
            (1, "a1"),
            (2, "b1"),
            (1, "a2"),
            (3, "c1"),
            (2, "b2"),
            (1, "a3"),
        ] {
            log.notify(UserId(user), Timestamp::at(0, 0, 0), text.into());
        }
        assert_eq!(log.pending_notifications(), 6);
        let texts = |notes: Vec<UserNotification>| -> Vec<String> {
            notes.into_iter().map(|n| n.text).collect()
        };
        assert_eq!(texts(log.take_notifications(UserId(1))), ["a1", "a2", "a3"]);
        assert_eq!(log.pending_notifications(), 3);
        assert_eq!(texts(log.take_notifications(UserId(2))), ["b1", "b2"]);
        assert!(log.take_notifications(UserId(2)).is_empty());
        assert_eq!(texts(log.take_notifications(UserId(3))), ["c1"]);
        // A drain leaves no empty queue behind.
        assert_eq!(log, AuditLog::new());
    }
}
