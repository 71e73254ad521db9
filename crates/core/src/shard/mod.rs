//! Sharded, crash-isolated enforcement (§15 of the design).
//!
//! Partitions enforcement state by (zone, user-id hash) across shards,
//! each a full [`Tippers`] engine behind a panic/stall isolation
//! boundary on its own worker thread. The [`EnforcementCore`] trait is
//! the common surface: callers write to it once and run unsharded
//! (single [`Tippers`]) or sharded ([`ShardedTippers`]) without code
//! changes — and the `shard_differential` suite holds the two
//! byte-identical on every decision.
//!
//! * `route`: jump-consistent-hash routing — deterministic, total,
//!   minimal movement under shard-count changes — plus operator zone
//!   pins (validated by analyzer lint TA016, honored at runtime).
//! * `fence`: writer-epoch fencing of shard WAL partitions, so an
//!   abandoned slow worker can never write concurrently with the
//!   engine rebuilt to replace it.
//! * `supervisor`: the quarantine / backoff / rebuild state machine
//!   and its observability counters.
//! * `runtime`: the [`ShardedTippers`] router and worker pool.

mod fence;
mod route;
mod runtime;
mod supervisor;

pub use route::{jump_hash, ShardRouter};
pub use runtime::{ShardSpec, ShardedTippers};
pub use supervisor::{ShardHealth, ShardStats};

use tippers_policy::{BuildingPolicy, PolicyId, PreferenceId, Timestamp, UserId, UserPreference};
use tippers_resilience::HealthStatus;
use tippers_sensors::{Observation, Occupant};

use crate::audit::UserNotification;
use crate::preference_manager::SettingsError;
use crate::request::{DataRequest, DataResponse};
use crate::tippers::Tippers;

// The hot decision-path types cross thread boundaries in the sharded
// runtime: worker threads own full engines, and jobs/results (carrying
// snapshots, indexes, decisions) ship over channels. These compile-time
// bounds are load-bearing — a non-Send field anywhere in the engine
// breaks the build here, not at a confusing `thread::spawn` call site.
const _: () = {
    const fn send_and_sync<T: Send + Sync>() {}
    const fn send<T: Send>() {}
    send_and_sync::<crate::Snapshot>();
    send_and_sync::<crate::IndexedEnforcer>();
    send_and_sync::<crate::NaiveEnforcer>();
    send_and_sync::<tippers_policy::ConflictIndex>();
    send_and_sync::<crate::PolicyManager>();
    send_and_sync::<crate::PreferenceManager>();
    send::<Tippers>();
    send::<ShardedTippers>();
};

/// The enforcement surface shared by the single-engine and sharded
/// runtimes.
///
/// Everything a building deployment drives — policy lifecycle,
/// preference intake, occupant registration, sensor ingest, request
/// enforcement, notification delivery, retention sweeps, health — with
/// identical semantics on both implementations (modulo the documented
/// fail-closed degradation a sharded runtime adds while a shard is
/// quarantined).
pub trait EnforcementCore {
    /// Adds a policy; returns its assigned id.
    fn add_policy(&mut self, policy: BuildingPolicy) -> PolicyId;

    /// Removes a policy; true when it existed.
    fn remove_policy(&mut self, id: PolicyId) -> bool;

    /// Stores a user preference; returns its assigned id.
    fn submit_preference(&mut self, pref: UserPreference, now: Timestamp) -> PreferenceId;

    /// Applies an IoTA policy-setting choice, deriving a preference.
    ///
    /// # Errors
    ///
    /// [`SettingsError`] when the policy, setting, or option is unknown —
    /// or, sharded, when the owning shard is quarantined (fail-closed,
    /// nothing applied).
    fn apply_setting_choice(
        &mut self,
        user: UserId,
        policy: PolicyId,
        setting_key: &str,
        option_index: usize,
    ) -> Result<PreferenceId, SettingsError>;

    /// Registers building occupants (group membership, device MACs).
    fn register_occupants(&mut self, occupants: &[Occupant]);

    /// Ingests sensor observations; returns `(stored, dropped)`.
    fn ingest(&mut self, observations: &[Observation]) -> (usize, usize);

    /// Enforces one service data request.
    fn handle_request(&mut self, request: &DataRequest, now: Timestamp) -> DataResponse;

    /// Drains a user's pending notifications.
    fn take_notifications(&mut self, user: UserId) -> Vec<UserNotification>;

    /// Runs a retention sweep; returns rows deleted.
    fn sweep(&mut self, now: Timestamp) -> usize;

    /// Current runtime health.
    fn health(&self) -> HealthStatus;
}

impl EnforcementCore for Tippers {
    fn add_policy(&mut self, policy: BuildingPolicy) -> PolicyId {
        Tippers::add_policy(self, policy)
    }

    fn remove_policy(&mut self, id: PolicyId) -> bool {
        Tippers::remove_policy(self, id)
    }

    fn submit_preference(&mut self, pref: UserPreference, now: Timestamp) -> PreferenceId {
        Tippers::submit_preference(self, pref, now)
    }

    fn apply_setting_choice(
        &mut self,
        user: UserId,
        policy: PolicyId,
        setting_key: &str,
        option_index: usize,
    ) -> Result<PreferenceId, SettingsError> {
        Tippers::apply_setting_choice(self, user, policy, setting_key, option_index)
    }

    fn register_occupants(&mut self, occupants: &[Occupant]) {
        Tippers::register_occupants(self, occupants);
    }

    fn ingest(&mut self, observations: &[Observation]) -> (usize, usize) {
        Tippers::ingest(self, observations)
    }

    fn handle_request(&mut self, request: &DataRequest, now: Timestamp) -> DataResponse {
        Tippers::handle_request(self, request, now)
    }

    fn take_notifications(&mut self, user: UserId) -> Vec<UserNotification> {
        Tippers::take_notifications(self, user)
    }

    fn sweep(&mut self, now: Timestamp) -> usize {
        Tippers::sweep(self, now)
    }

    fn health(&self) -> HealthStatus {
        Tippers::health(self)
    }
}

impl EnforcementCore for ShardedTippers {
    fn add_policy(&mut self, policy: BuildingPolicy) -> PolicyId {
        ShardedTippers::add_policy(self, policy)
    }

    fn remove_policy(&mut self, id: PolicyId) -> bool {
        ShardedTippers::remove_policy(self, id)
    }

    fn submit_preference(&mut self, pref: UserPreference, now: Timestamp) -> PreferenceId {
        ShardedTippers::submit_preference(self, pref, now)
    }

    fn apply_setting_choice(
        &mut self,
        user: UserId,
        policy: PolicyId,
        setting_key: &str,
        option_index: usize,
    ) -> Result<PreferenceId, SettingsError> {
        ShardedTippers::apply_setting_choice(self, user, policy, setting_key, option_index)
    }

    fn register_occupants(&mut self, occupants: &[Occupant]) {
        ShardedTippers::register_occupants(self, occupants);
    }

    fn ingest(&mut self, observations: &[Observation]) -> (usize, usize) {
        ShardedTippers::ingest(self, observations)
    }

    fn handle_request(&mut self, request: &DataRequest, now: Timestamp) -> DataResponse {
        ShardedTippers::handle_request(self, request, now)
    }

    fn take_notifications(&mut self, user: UserId) -> Vec<UserNotification> {
        ShardedTippers::take_notifications(self, user)
    }

    fn sweep(&mut self, now: Timestamp) -> usize {
        ShardedTippers::sweep(self, now)
    }

    fn health(&self) -> HealthStatus {
        ShardedTippers::health(self)
    }
}
