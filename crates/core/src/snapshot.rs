//! Versioned snapshot and recovery of the BMS's durable state.
//!
//! The paper's BMS holds state that must survive a crash: the observation
//! store (captured data the building is accountable for), the users'
//! preferences (their privacy choices — losing these silently re-opens
//! flows they opted out of), the notifications still owed to their IoTAs,
//! the deletion certificates, and the disclosure-quota counters. A
//! [`Snapshot`] captures them; [`Tippers::from_snapshot`] rebuilds a BMS
//! from one at construction time.
//!
//! Audited decisions are not in a snapshot: the tamper-evident audit
//! chain is their one record, and a checkpoint seals its open run into
//! the archive before writing the snapshot. Version 2 is the first
//! format without decision entries; version 1 snapshots are refused.
//!
//! Policies are deliberately *not* snapshotted: they are administrative
//! configuration the building operator re-applies on startup (step 1 of
//! Figure 1), exactly like the ontology and spatial model.
//!
//! [`Tippers::from_snapshot`]: crate::Tippers::from_snapshot

use std::fmt;

use serde::{Deserialize, Serialize};
use tippers_policy::UserPreference;

use crate::audit::AuditLog;
use crate::quota::QuotaLedger;
use crate::store::Store;

/// The snapshot format version this build writes and accepts.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The BMS's durable state, serializable for crash recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version; recovery refuses snapshots from a different format.
    pub version: u32,
    /// The observation store, including per-row retention tags.
    pub store: Store,
    /// All stored user preferences.
    pub preferences: Vec<UserPreference>,
    /// The preference-id allocator's next value (so recovered BMSs never
    /// reissue an id already referenced by audit records).
    pub next_preference_id: u64,
    /// Undelivered user notifications and deletion certificates; never
    /// decision entries (restore refuses a snapshot carrying any).
    pub audit: AuditLog,
    /// Disclosure-quota counters (`default` so snapshots written before
    /// quotas existed still recover — to empty budgets, which is the
    /// correct reading of a log that never charged any).
    #[serde(default)]
    pub quotas: QuotaLedger,
}

impl Snapshot {
    /// Serializes the snapshot to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from JSON and checks its version.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on parse failure,
    /// [`SnapshotError::UnsupportedVersion`] on a version mismatch.
    pub fn from_json(json: &str) -> Result<Snapshot, SnapshotError> {
        let snapshot: Snapshot =
            serde_json::from_str(json).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        snapshot.check_version()?;
        Ok(snapshot)
    }

    /// Verifies the snapshot was written by a compatible build.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] when it was not.
    pub fn check_version(&self) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: self.version,
                supported: SNAPSHOT_VERSION,
            });
        }
        Ok(())
    }
}

/// Why a snapshot could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// The version found in the snapshot.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The snapshot bytes did not parse.
    Corrupt(String),
    /// The snapshot's internal invariants do not hold (e.g. a preference id
    /// at or above the allocator's next value).
    Inconsistent(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot version {found} is not supported (this build reads {supported})"
            ),
            SnapshotError::Corrupt(detail) => write!(f, "snapshot is corrupt: {detail}"),
            SnapshotError::Inconsistent(detail) => {
                write!(f, "snapshot is inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_mismatch_is_refused() {
        let snapshot = Snapshot {
            version: SNAPSHOT_VERSION + 1,
            store: Store::new(),
            preferences: Vec::new(),
            next_preference_id: 0,
            audit: AuditLog::new(),
            quotas: QuotaLedger::new(),
        };
        let err = Snapshot::from_json(&snapshot.to_json()).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion { found, supported }
                if found == SNAPSHOT_VERSION + 1 && supported == SNAPSHOT_VERSION
        ));
    }

    #[test]
    fn garbage_is_corrupt() {
        assert!(matches!(
            Snapshot::from_json("not json at all {"),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snapshot = Snapshot {
            version: SNAPSHOT_VERSION,
            store: Store::new(),
            preferences: Vec::new(),
            next_preference_id: 7,
            audit: AuditLog::new(),
            quotas: QuotaLedger::new(),
        };
        let back = Snapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back, snapshot);
    }
}
