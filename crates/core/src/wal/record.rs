//! The logical record set of the BMS's write-ahead log.
//!
//! Mutations are logged *after* they are applied in memory, one record
//! per public mutation. Most records are logical (replay re-runs the
//! same deterministic code path); ingest is physical — the record holds
//! the rows that actually survived enforcement, so replay is a pure
//! data load and does not depend on fault-plan or sensor state that the
//! original run consumed.
//!
//! Every settings record names the unit it created or changed, so a log
//! reader never has to shadow the id allocators. The id-less preference
//! records of earlier builds do not decode; recovery truncates at them
//! like any foreign payload.

use serde::{Deserialize, Serialize};
use tippers_ontology::ConceptId;
use tippers_policy::{
    BuildingPolicy, PolicyId, PreferenceId, ServiceId, Timestamp, UserId, UserPreference,
};

use crate::snapshot::Snapshot;
use crate::store::StoredRow;

/// One durable mutation of the BMS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum WalRecord {
    /// A full-state anchor: everything before it in the log is
    /// superseded, so compaction may drop older segments.
    Checkpoint {
        /// The durable state (store, preferences, audit) at the anchor.
        snapshot: Snapshot,
        /// The policies in force at the anchor (policies ride in the log,
        /// unlike the operator-supplied ontology and spatial model, so a
        /// recovered BMS enforces exactly what the crashed one did).
        policies: Vec<BuildingPolicy>,
        /// The policy-id allocator's next value.
        next_policy_id: u64,
    },
    /// `Tippers::add_policy`.
    AddPolicy {
        /// The policy with its assigned id (replay re-runs the allocator,
        /// which deterministically arrives at the same id).
        policy: BuildingPolicy,
    },
    /// `Tippers::remove_policy` (logged only when something was removed).
    RemovePolicy {
        /// The removed policy's id.
        policy: PolicyId,
    },
    /// `Tippers::submit_preference` and
    /// `Tippers::submit_preference_assigned`: a preference with its id,
    /// whether this engine's allocator or the shard router chose it.
    /// Replay preserves the id verbatim, so a rebuilt shard re-derives
    /// exactly the ids the router handed out — the property that keeps
    /// sharded decisions byte-identical to the unsharded engine's.
    SubmitPreferenceAssigned {
        /// The preference, id included (kept on replay).
        preference: UserPreference,
        /// Submission time (drives conflict notifications).
        now: Timestamp,
    },
    /// `Tippers::apply_setting_choice` and
    /// `Tippers::apply_setting_choice_assigned` (logged only on success):
    /// a setting choice with the id of its derived preference, preserved
    /// across replay like [`WalRecord::SubmitPreferenceAssigned`].
    SettingChoiceAssigned {
        /// The choosing user.
        user: UserId,
        /// The policy whose setting was chosen.
        policy: PolicyId,
        /// The setting key within that policy.
        setting_key: String,
        /// The chosen option index.
        option_index: usize,
        /// The id of the derived preference.
        id: PreferenceId,
    },
    /// `Tippers::apply_retroactively` (logged only when rows were purged).
    Retroactive {
        /// The triggering preference.
        preference: PreferenceId,
    },
    /// `Tippers::ingest` — the rows that passed storage-time enforcement
    /// (dropped observations are not logged; an injected store-write loss
    /// during the original run therefore stays lost after replay, exactly
    /// matching the pre-crash state).
    Ingest {
        /// The stored rows, in insertion order.
        rows: Vec<StoredRow>,
    },
    /// `Tippers::gc` (logged only when rows were deleted). The legacy
    /// single-record logical sweep, kept for replaying pre-sweeper logs;
    /// the provable path is `SweepBegin`/`SweepDelete`/`SweepCommit`.
    Gc {
        /// The sweep time.
        now: Timestamp,
    },
    /// A retention sweep opened (`Tippers::sweep`). A begin without a
    /// matching commit marks a sweep that crashed mid-flight; recovery
    /// finishes it exactly once.
    SweepBegin {
        /// Sweep identifier, unique within one log history.
        id: u64,
        /// Virtual time the sweep runs at.
        now: Timestamp,
    },
    /// The rows a retention sweep physically deleted. Physical like
    /// `Ingest`: replay removes exactly these rows, so replicas and
    /// recovery converge byte-for-byte with the sweeping primary.
    SweepDelete {
        /// The owning sweep.
        id: u64,
        /// The deleted rows, in store order.
        rows: Vec<StoredRow>,
    },
    /// A retention sweep committed: the deletions are final and certified.
    /// Replaying it re-issues the identical deletion certificate.
    SweepCommit {
        /// The owning sweep.
        id: u64,
        /// Virtual time the sweep ran at.
        now: Timestamp,
        /// Number of rows the sweep deleted.
        rows: u64,
        /// SHA-256 (hex) over the sweep id, time, and deleted-row JSON.
        digest: String,
    },
    /// One disclosure-quota charge: a permitted release consumed one unit
    /// of the (user, service, purpose) budget. Logged *before* the rows
    /// leave the building — a charge that cannot be made durable rolls
    /// back and the request is denied, so counters never regress below
    /// what was actually disclosed.
    QuotaCharge {
        /// The data subject whose budget is charged.
        user: UserId,
        /// The requesting service.
        service: ServiceId,
        /// The declared purpose.
        purpose: ConceptId,
        /// Charge time (drives budget-window rollover).
        now: Timestamp,
    },
    /// An epoch fence (replicated enforcement): a replica durably records
    /// the new epoch *before* promoting itself to primary, and every node
    /// rejects replication frames stamped with an older epoch afterwards —
    /// a deposed primary is fenced on its next append rather than being
    /// allowed to acknowledge split-brain writes.
    NewEpoch {
        /// The fencing epoch, monotonically increasing across failovers.
        epoch: u64,
    },
    /// A durable, replicated user notification — e.g. the anti-entropy
    /// reconciler superseding one side of a divergent setting update.
    /// Replaying it re-queues the notification on every node, so the
    /// user's IoTA is re-notified no matter which node it polls.
    Notice {
        /// The notified user.
        user: UserId,
        /// Notification time.
        now: Timestamp,
        /// Human-readable notice text.
        text: String,
    },
}

impl WalRecord {
    /// Serializes the record to its log payload bytes.
    pub fn to_payload(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("record serialization is infallible")
            .into_bytes()
    }

    /// Decodes a record from log payload bytes.
    ///
    /// Returns `None` when the payload is not a record this build knows —
    /// recovery treats that exactly like a checksum failure (truncate,
    /// count, never guess).
    pub fn from_payload(payload: &[u8]) -> Option<WalRecord> {
        let text = std::str::from_utf8(payload).ok()?;
        serde_json::from_str(text).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let records = [
            WalRecord::RemovePolicy {
                policy: PolicyId(7),
            },
            WalRecord::Gc {
                now: Timestamp(1234),
            },
            WalRecord::SettingChoiceAssigned {
                user: UserId(3),
                policy: PolicyId(1),
                setting_key: "location-sensing".into(),
                option_index: 1,
                id: PreferenceId(41),
            },
            WalRecord::Ingest { rows: Vec::new() },
            WalRecord::NewEpoch { epoch: 3 },
            WalRecord::Notice {
                user: UserId(5),
                now: Timestamp(99),
                text: "setting superseded during failover".into(),
            },
            WalRecord::SweepBegin {
                id: 4,
                now: Timestamp(5000),
            },
            WalRecord::SweepDelete {
                id: 4,
                rows: Vec::new(),
            },
            WalRecord::SweepCommit {
                id: 4,
                now: Timestamp(5000),
                rows: 12,
                digest: "ab".repeat(32),
            },
            WalRecord::QuotaCharge {
                user: UserId(9),
                service: ServiceId::new("concierge"),
                purpose: tippers_ontology::Ontology::standard().concepts().navigation,
                now: Timestamp(77),
            },
        ];
        for record in records {
            let back = WalRecord::from_payload(&record.to_payload()).expect("round trip");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn foreign_payloads_are_rejected_not_panicked() {
        assert!(WalRecord::from_payload(b"{\"Unknown\":{}}").is_none());
        assert!(WalRecord::from_payload(b"\xFF\xFE not utf8").is_none());
        assert!(WalRecord::from_payload(b"42").is_none());
    }

    #[test]
    fn id_carrying_records_retagged_to_legacy_names_are_rejected() {
        let preference = WalRecord::SubmitPreferenceAssigned {
            preference: UserPreference::new(
                PreferenceId(4),
                UserId(2),
                Default::default(),
                tippers_policy::Effect::Deny,
            ),
            now: Timestamp(10),
        };
        let choice = WalRecord::SettingChoiceAssigned {
            user: UserId(3),
            policy: PolicyId(1),
            setting_key: "location-sensing".into(),
            option_index: 1,
            id: PreferenceId(41),
        };
        for (record, tag, legacy) in [
            (preference, "SubmitPreferenceAssigned", "SubmitPreference"),
            (choice, "SettingChoiceAssigned", "SettingChoice"),
        ] {
            let payload = String::from_utf8(record.to_payload()).unwrap();
            assert!(payload.starts_with(&format!("{{\"{tag}\":")), "{payload}");
            let retagged = payload.replacen(tag, legacy, 1);
            assert!(
                WalRecord::from_payload(retagged.as_bytes()).is_none(),
                "legacy tag `{legacy}` must not decode"
            );
        }
    }
}
