//! Settings anti-entropy: merging divergent setting updates after a
//! partition heals.
//!
//! During a partition both sides of the cluster may accept
//! [`WalRecord::SettingChoiceAssigned`] writes for the same (user,
//! policy, setting) key. The preference id a record carries is local to
//! its branch and plays no part in the merge: a winning branch choice is
//! re-applied on the primary, which allocates a fresh id. On
//! heal the branches are merged by **(epoch, per-subject version)
//! last-writer-wins with a privacy-max tiebreak**: the choice made under
//! the higher epoch wins; within one epoch the later per-subject version
//! wins; on an exact tie the *more restrictive* option wins (privacy
//! first), and the superseded side's user receives a durable
//! [`WalRecord::Notice`] so their IoTA re-notifies them.

use std::collections::BTreeMap;

use tippers_policy::{PolicyId, UserId};

use super::link::Frame;
use crate::wal::WalRecord;

/// The merge key: one subject's choice for one setting of one policy.
pub type ChoiceKey = (UserId, PolicyId, String);

/// A setting choice positioned for merge: where it was made (epoch) and
/// how many choices the same user had made before it (version).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedChoice {
    /// Epoch of the frame that carried the choice.
    pub epoch: u64,
    /// 1-based count of setting-choice records by this user up to and
    /// including this one, over the branch's full history — a per-subject
    /// logical clock that survives replay.
    pub version: u64,
    /// The choosing user.
    pub user: UserId,
    /// The policy whose setting was chosen.
    pub policy: PolicyId,
    /// The setting key within that policy.
    pub setting_key: String,
    /// The chosen option index.
    pub option_index: usize,
}

impl VersionedChoice {
    /// The merge key this choice competes under.
    pub fn key(&self) -> ChoiceKey {
        (self.user, self.policy, self.setting_key.clone())
    }
}

/// Extracts the last setting choice per merge key from the suffix of
/// `history` starting at frame index `from`, versioned against the
/// branch's *full* history (earlier choices advance the per-user clock
/// even though they predate the divergence point).
pub fn divergent_choices(history: &[Frame], from: usize) -> Vec<VersionedChoice> {
    let mut per_user: BTreeMap<UserId, u64> = BTreeMap::new();
    let mut last: BTreeMap<ChoiceKey, VersionedChoice> = BTreeMap::new();
    for (index, frame) in history.iter().enumerate() {
        let WalRecord::SettingChoiceAssigned {
            user,
            policy,
            setting_key,
            option_index,
            ..
        } = &frame.record
        else {
            continue;
        };
        let version = per_user.entry(*user).or_insert(0);
        *version += 1;
        if index < from {
            continue;
        }
        let choice = VersionedChoice {
            epoch: frame.epoch,
            version: *version,
            user: *user,
            policy: *policy,
            setting_key: setting_key.clone(),
            option_index: *option_index,
        };
        last.insert(choice.key(), choice);
    }
    last.into_values().collect()
}

/// Which side of a divergent setting update survives the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeWinner {
    /// The primary branch's choice stands; the other branch's user is
    /// notified their update was superseded.
    Primary,
    /// The other branch's choice is re-applied on the primary; any
    /// conflicting primary-side user is notified.
    Branch,
}

/// Resolves one contested key by (epoch, version) last-writer-wins; an
/// exact tie falls to `restrictiveness` (higher = more privacy-
/// preserving) so the merge never silently weakens a subject's privacy,
/// and a full tie keeps the primary's choice (deterministic on every
/// node).
pub fn resolve(
    primary: &VersionedChoice,
    branch: &VersionedChoice,
    restrictiveness: impl Fn(&VersionedChoice) -> u8,
) -> MergeWinner {
    match (primary.epoch, primary.version).cmp(&(branch.epoch, branch.version)) {
        std::cmp::Ordering::Less => MergeWinner::Branch,
        std::cmp::Ordering::Greater => MergeWinner::Primary,
        std::cmp::Ordering::Equal => {
            if restrictiveness(primary) < restrictiveness(branch) {
                MergeWinner::Branch
            } else {
                MergeWinner::Primary
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_policy::{PreferenceId, Timestamp};

    fn choice_frame(epoch: u64, index: u64, user: u64, key: &str, option: usize) -> Frame {
        Frame {
            epoch,
            prev_epoch: epoch,
            index,
            record: WalRecord::SettingChoiceAssigned {
                user: UserId(user),
                policy: PolicyId(1),
                setting_key: key.into(),
                option_index: option,
                id: PreferenceId(index),
            },
        }
    }

    fn noise_frame(epoch: u64, index: u64) -> Frame {
        Frame {
            epoch,
            prev_epoch: epoch,
            index,
            record: WalRecord::Gc {
                now: Timestamp(index as i64),
            },
        }
    }

    #[test]
    fn versions_count_over_full_history_but_only_suffix_is_reported() {
        let history = vec![
            choice_frame(1, 0, 3, "location-sensing", 0),
            noise_frame(1, 1),
            choice_frame(1, 2, 3, "location-sensing", 1),
            choice_frame(1, 3, 4, "location-sensing", 2),
        ];
        let divergent = divergent_choices(&history, 2);
        assert_eq!(divergent.len(), 2);
        let u3 = divergent.iter().find(|c| c.user == UserId(3)).unwrap();
        assert_eq!(
            u3.version, 2,
            "pre-divergence choice advances the per-user clock"
        );
        let u4 = divergent.iter().find(|c| c.user == UserId(4)).unwrap();
        assert_eq!(u4.version, 1);
    }

    #[test]
    fn later_epoch_wins_regardless_of_version() {
        let history_a = vec![choice_frame(2, 0, 3, "k", 0)];
        let history_b = vec![
            choice_frame(1, 0, 3, "k", 1),
            choice_frame(1, 1, 3, "k", 1),
            choice_frame(1, 2, 3, "k", 1),
        ];
        let a = &divergent_choices(&history_a, 0)[0];
        let b = &divergent_choices(&history_b, 0)[0];
        assert_eq!(resolve(a, b, |_| 0), MergeWinner::Primary);
        assert_eq!(resolve(b, a, |_| 0), MergeWinner::Branch);
    }

    #[test]
    fn exact_tie_falls_to_the_more_restrictive_option() {
        let lenient = &divergent_choices(&[choice_frame(1, 0, 3, "k", 0)], 0)[0];
        let strict = &divergent_choices(&[choice_frame(1, 0, 3, "k", 2)], 0)[0];
        let restrictiveness = |c: &VersionedChoice| c.option_index as u8;
        assert_eq!(
            resolve(lenient, strict, restrictiveness),
            MergeWinner::Branch,
            "privacy-max: the stricter branch choice supersedes the primary"
        );
        assert_eq!(
            resolve(strict, lenient, restrictiveness),
            MergeWinner::Primary
        );
        assert_eq!(
            resolve(lenient, lenient, restrictiveness),
            MergeWinner::Primary,
            "a full tie deterministically keeps the primary"
        );
    }
}
