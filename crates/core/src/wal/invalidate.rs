//! WAL → analyzer invalidation bridge.
//!
//! An incremental linter (`tippers-lint --cache … --changed …`) wants to
//! know, for each record appended to the log, which *settings-level*
//! unit it mutated — so it can re-solve only the dirty region instead of
//! re-analyzing the whole deployment. Every settings record names the
//! unit it touched (`AddPolicy` carries its policy with the id already
//! assigned; preference records carry the preference id), so
//! [`SettingsMutation::of`] is a pure per-record function: a reader may
//! start anywhere in the log and needs no allocator state.

use tippers_policy::{PolicyId, PreferenceId};

use super::WalRecord;

/// One settings-level mutation implied by a WAL record, in core
/// vocabulary (the linter maps these onto its own unit ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SettingsMutation {
    /// A full-state anchor: everything before it is superseded, so any
    /// cached analysis must be rebuilt from scratch.
    Everything,
    /// One building policy was created, removed, or had a setting chosen.
    Policy(PolicyId),
    /// One user preference was submitted or applied retroactively.
    Preference(PreferenceId),
}

impl SettingsMutation {
    /// The settings-level unit a record mutated. Data-plane records
    /// (ingest, sweeps, quota charges, epoch fences, notices) mutate no
    /// settings and return `None`.
    pub fn of(record: &WalRecord) -> Option<SettingsMutation> {
        match record {
            WalRecord::Checkpoint { .. } => Some(SettingsMutation::Everything),
            WalRecord::AddPolicy { policy } => Some(SettingsMutation::Policy(policy.id)),
            WalRecord::RemovePolicy { policy }
            | WalRecord::SettingChoiceAssigned { policy, .. } => {
                Some(SettingsMutation::Policy(*policy))
            }
            WalRecord::SubmitPreferenceAssigned { preference, .. } => {
                Some(SettingsMutation::Preference(preference.id))
            }
            WalRecord::Retroactive { preference } => {
                Some(SettingsMutation::Preference(*preference))
            }
            WalRecord::Ingest { .. }
            | WalRecord::Gc { .. }
            | WalRecord::SweepBegin { .. }
            | WalRecord::SweepDelete { .. }
            | WalRecord::SweepCommit { .. }
            | WalRecord::QuotaCharge { .. }
            | WalRecord::NewEpoch { .. }
            | WalRecord::Notice { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use tippers_policy::{
        BuildingPolicy, Effect, PreferenceScope, Timestamp, UserId, UserPreference,
    };

    use super::*;

    fn policy(id: u64) -> BuildingPolicy {
        let spatial = tippers_spatial::fixtures::dbh();
        let c = tippers_ontology::Ontology::standard().concepts().clone();
        BuildingPolicy::new(PolicyId(id), "p", spatial.building, c.occupancy, c.comfort)
    }

    #[test]
    fn added_units_are_named_by_the_record() {
        assert_eq!(
            SettingsMutation::of(&WalRecord::AddPolicy { policy: policy(7) }),
            Some(SettingsMutation::Policy(PolicyId(7)))
        );
        let got = SettingsMutation::of(&WalRecord::SubmitPreferenceAssigned {
            preference: UserPreference::new(
                PreferenceId(42),
                UserId(7),
                PreferenceScope::default(),
                Effect::Deny,
            ),
            now: Timestamp(0),
        });
        assert_eq!(got, Some(SettingsMutation::Preference(PreferenceId(42))));
    }

    #[test]
    fn data_plane_records_dirty_nothing() {
        assert_eq!(
            SettingsMutation::of(&WalRecord::Gc { now: Timestamp(5) }),
            None
        );
        assert_eq!(
            SettingsMutation::of(&WalRecord::NewEpoch { epoch: 3 }),
            None
        );
        assert_eq!(
            SettingsMutation::of(&WalRecord::Notice {
                user: UserId(1),
                now: Timestamp(9),
                text: "hi".into(),
            }),
            None
        );
    }

    #[test]
    fn removals_and_choices_name_the_logged_unit() {
        assert_eq!(
            SettingsMutation::of(&WalRecord::RemovePolicy {
                policy: PolicyId(4)
            }),
            Some(SettingsMutation::Policy(PolicyId(4)))
        );
        assert_eq!(
            SettingsMutation::of(&WalRecord::SettingChoiceAssigned {
                user: UserId(2),
                policy: PolicyId(6),
                setting_key: "share".into(),
                option_index: 1,
                id: PreferenceId(3),
            }),
            Some(SettingsMutation::Policy(PolicyId(6)))
        );
        assert_eq!(
            SettingsMutation::of(&WalRecord::Retroactive {
                preference: PreferenceId(2)
            }),
            Some(SettingsMutation::Preference(PreferenceId(2)))
        );
    }
}
