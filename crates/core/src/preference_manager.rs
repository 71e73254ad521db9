//! The User Preference Manager (Figure 1): receives privacy settings from
//! IoT Assistants (step 8) and stores each user's preferences.

use std::fmt;

use tippers_policy::{
    BuildingPolicy, Effect, PreferenceId, PreferenceScope, UserId, UserPreference,
};

/// Errors from settings submission.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SettingsError {
    /// The policy has no setting with that key.
    UnknownSetting {
        /// The missing key.
        key: String,
    },
    /// The option index is out of range.
    InvalidOption {
        /// The offending index.
        index: usize,
        /// How many options exist.
        available: usize,
    },
    /// The enforcement shard owning this user is quarantined and
    /// rebuilding; the choice was not applied. Retry once the shard
    /// recovers — the sharded runtime fails closed rather than applying
    /// a choice it cannot make durable in the owner's WAL partition.
    ShardUnavailable,
}

impl fmt::Display for SettingsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SettingsError::UnknownSetting { key } => write!(f, "unknown setting `{key}`"),
            SettingsError::InvalidOption { index, available } => {
                write!(f, "option {index} out of range (policy offers {available})")
            }
            SettingsError::ShardUnavailable => {
                write!(
                    f,
                    "owning enforcement shard is quarantined; retry after recovery"
                )
            }
        }
    }
}

impl std::error::Error for SettingsError {}

/// Stores user preferences and converts setting choices into them.
#[derive(Debug, Clone, Default)]
pub struct PreferenceManager {
    preferences: Vec<UserPreference>,
    next_id: u64,
}

impl PreferenceManager {
    /// An empty manager.
    pub fn new() -> PreferenceManager {
        PreferenceManager::default()
    }

    /// Adds a preference, assigning a fresh id. Returns the id.
    pub fn add(&mut self, mut pref: UserPreference) -> PreferenceId {
        pref.id = PreferenceId(self.next_id);
        self.insert_assigned(pref)
    }

    /// Inserts a preference keeping its caller-assigned id, advancing the
    /// allocator past it. The sharded runtime routes every preference
    /// through a single router-side allocator so that ids match the
    /// unsharded engine byte-for-byte even though each shard stores only
    /// its own users' preferences.
    pub fn insert_assigned(&mut self, pref: UserPreference) -> PreferenceId {
        let id = pref.id;
        self.next_id = self.next_id.max(id.0 + 1);
        self.preferences.push(pref);
        id
    }

    /// Removes a preference. Returns whether it existed.
    pub fn remove(&mut self, id: PreferenceId) -> bool {
        let before = self.preferences.len();
        self.preferences.retain(|p| p.id != id);
        self.preferences.len() != before
    }

    /// All preferences.
    pub fn all(&self) -> &[UserPreference] {
        &self.preferences
    }

    /// One user's preferences.
    pub fn for_user(&self, user: UserId) -> Vec<&UserPreference> {
        self.preferences.iter().filter(|p| p.user == user).collect()
    }

    /// Number of stored preferences.
    pub fn len(&self) -> usize {
        self.preferences.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.preferences.is_empty()
    }

    /// The manager's durable state: the preferences and the id allocator's
    /// next value (for [`crate::Snapshot`]).
    pub fn snapshot_parts(&self) -> (Vec<UserPreference>, u64) {
        (self.preferences.clone(), self.next_id)
    }

    /// The id allocator's next value (without cloning the preferences).
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Rebuilds a manager from snapshotted parts.
    ///
    /// # Panics
    ///
    /// Panics if any preference id is at or above `next_id` — such a state
    /// would reissue ids already referenced elsewhere. Callers recovering
    /// untrusted snapshots validate first (see `Tippers::from_snapshot`).
    pub fn from_parts(preferences: Vec<UserPreference>, next_id: u64) -> PreferenceManager {
        assert!(
            preferences.iter().all(|p| p.id.0 < next_id),
            "preference id allocator must be ahead of every stored id"
        );
        PreferenceManager {
            preferences,
            next_id,
        }
    }

    /// Converts an IoTA setting choice (Figure 4: pick an option of a
    /// policy's setting) into a stored preference scoped to that policy's
    /// data, purpose and service.
    ///
    /// Choosing a different option of the same setting later replaces the
    /// earlier choice (the manager removes the previous setting-derived
    /// preference for the same user/policy/setting).
    ///
    /// # Errors
    ///
    /// [`SettingsError::UnknownSetting`] / [`SettingsError::InvalidOption`].
    pub fn apply_setting_choice(
        &mut self,
        user: UserId,
        policy: &BuildingPolicy,
        setting_key: &str,
        option_index: usize,
    ) -> Result<(PreferenceId, Effect), SettingsError> {
        let id = PreferenceId(self.next_id);
        let pref =
            self.apply_setting_choice_assigned(user, policy, setting_key, option_index, id)?;
        Ok((pref.id, pref.effect))
    }

    /// [`PreferenceManager::apply_setting_choice`], but keeping a
    /// caller-assigned id for the derived preference (see
    /// [`PreferenceManager::insert_assigned`]). Returns the stored
    /// preference.
    ///
    /// # Errors
    ///
    /// [`SettingsError::UnknownSetting`] / [`SettingsError::InvalidOption`].
    pub fn apply_setting_choice_assigned(
        &mut self,
        user: UserId,
        policy: &BuildingPolicy,
        setting_key: &str,
        option_index: usize,
        id: PreferenceId,
    ) -> Result<&UserPreference, SettingsError> {
        let mut pref = self.prepare_setting_choice(user, policy, setting_key, option_index)?;
        pref.id = id;
        self.insert_assigned(pref);
        Ok(self.preferences.last().expect("just stored"))
    }

    /// Validates a setting choice, drops the superseded earlier choice for
    /// the same user/policy/setting, and builds (but does not store) the
    /// derived preference. No mutation happens on a validation error.
    fn prepare_setting_choice(
        &mut self,
        user: UserId,
        policy: &BuildingPolicy,
        setting_key: &str,
        option_index: usize,
    ) -> Result<UserPreference, SettingsError> {
        let setting = policy
            .settings
            .iter()
            .find(|s| s.key == setting_key)
            .ok_or_else(|| SettingsError::UnknownSetting {
                key: setting_key.to_owned(),
            })?;
        let option = setting
            .options
            .get(option_index)
            .ok_or(SettingsError::InvalidOption {
                index: option_index,
                available: setting.options.len(),
            })?;
        let marker = setting_marker(policy, setting_key);
        self.preferences
            .retain(|p| !(p.user == user && p.note == marker));
        let pref = UserPreference::new(
            PreferenceId(0),
            user,
            // A setting choice governs the policy's whole practice — every
            // flow under its purpose/service/space, whatever the concrete
            // data category (a WiFi-log policy's "No location sensing"
            // option must also cover the location flows *derived* from
            // the log).
            PreferenceScope {
                data: None,
                purpose: Some(policy.purpose),
                service: policy.service.clone(),
                space: Some(policy.space),
                condition: Default::default(),
            },
            option.effect,
        )
        // Setting-derived preferences act as explicit per-policy choices,
        // above blanket preferences.
        .with_priority(5)
        .with_note(marker);
        Ok(pref)
    }
}

fn setting_marker(policy: &BuildingPolicy, setting_key: &str) -> String {
    format!("setting:{}:{}", policy.id, setting_key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tippers_ontology::Ontology;
    use tippers_policy::{catalog, PolicyId};
    use tippers_spatial::fixtures::dbh;

    fn policy_with_setting() -> BuildingPolicy {
        let ont = Ontology::standard();
        let d = dbh();
        catalog::policy2_emergency_location(PolicyId(2), d.building, &ont)
            .with_setting(BuildingPolicy::location_setting())
    }

    #[test]
    fn add_and_query() {
        let ont = Ontology::standard();
        let mut pm = PreferenceManager::new();
        let id = pm.add(catalog::preference2_no_location(
            PreferenceId(99),
            UserId(1),
            &ont,
        ));
        assert_eq!(id, PreferenceId(0));
        assert_eq!(pm.for_user(UserId(1)).len(), 1);
        assert!(pm.for_user(UserId(2)).is_empty());
        assert!(pm.remove(id));
        assert!(pm.is_empty());
    }

    #[test]
    fn setting_choice_creates_scoped_preference() {
        let policy = policy_with_setting();
        let mut pm = PreferenceManager::new();
        let (_, effect) = pm
            .apply_setting_choice(UserId(1), &policy, "location-sensing", 2)
            .unwrap();
        assert_eq!(effect, Effect::Deny);
        let prefs = pm.for_user(UserId(1));
        assert_eq!(prefs.len(), 1);
        assert_eq!(prefs[0].scope.data, None);
        assert_eq!(prefs[0].scope.purpose, Some(policy.purpose));
        assert_eq!(prefs[0].scope.space, Some(policy.space));
        assert_eq!(prefs[0].effect, Effect::Deny);
    }

    #[test]
    fn re_choosing_replaces_previous() {
        let policy = policy_with_setting();
        let mut pm = PreferenceManager::new();
        pm.apply_setting_choice(UserId(1), &policy, "location-sensing", 2)
            .unwrap();
        pm.apply_setting_choice(UserId(1), &policy, "location-sensing", 0)
            .unwrap();
        let prefs = pm.for_user(UserId(1));
        assert_eq!(prefs.len(), 1);
        assert_eq!(prefs[0].effect, Effect::Allow);
        // Different users do not clobber each other.
        pm.apply_setting_choice(UserId(2), &policy, "location-sensing", 2)
            .unwrap();
        assert_eq!(pm.len(), 2);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let policy = policy_with_setting();
        let mut pm = PreferenceManager::new();
        assert!(matches!(
            pm.apply_setting_choice(UserId(1), &policy, "nope", 0),
            Err(SettingsError::UnknownSetting { .. })
        ));
        assert!(matches!(
            pm.apply_setting_choice(UserId(1), &policy, "location-sensing", 9),
            Err(SettingsError::InvalidOption { available: 3, .. })
        ));
        assert!(pm.is_empty());
    }
}
