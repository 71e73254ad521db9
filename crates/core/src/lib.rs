//! TIPPERS — the privacy-aware building management system.
//!
//! The third component of the paper's framework: the BMS that "captures raw
//! data from the different sensors in the building, processes higher-level
//! semantic information from such data, and empowers development of
//! different building services … \[and] is also capable of capturing and
//! enforcing privacy preferences expressed by the building's inhabitants"
//! (§II.B).
//!
//! The crate mirrors Figure 1's boxes:
//!
//! * [`PolicyManager`] — the building admin's policies (step 1), published
//!   through IRRs (step 4).
//! * [`SensorManager`] — live occupancy state, HVAC actuation (Policy 1),
//!   capture-time suppression pushed to devices.
//! * [`Store`] — the observation DB (step 3), with retention enforcement.
//! * [`PreferenceManager`] — user preferences received from IoTAs (step 8).
//! * Request Manager — [`Tippers::handle_request`] (steps 9–10), deciding
//!   each flow through an [`Enforcer`].
//! * [`AuditChain`] — the tamper-evident decision record, read back through
//!   [`Tippers::decisions`]; [`AuditLog`] — user notifications and deletion
//!   certificates.
//!
//! The enforcement engine comes in two interchangeable implementations
//! ([`NaiveEnforcer`] and [`IndexedEnforcer`]) to quantify §V.C's claim
//! that naive enforcement is prohibitively expensive at scale.
//!
//! # Examples
//!
//! ```
//! use tippers::{Tippers, TippersConfig};
//! use tippers_ontology::Ontology;
//! use tippers_policy::{catalog, PolicyId, Timestamp};
//! use tippers_spatial::fixtures::dbh;
//!
//! let ontology = Ontology::standard();
//! let building = dbh();
//! let mut bms = Tippers::new(ontology, building.model.clone(), TippersConfig::default());
//! let policy = catalog::policy2_emergency_location(
//!     PolicyId(0),
//!     building.building,
//!     bms.ontology(),
//! );
//! let id = bms.add_policy(policy);
//! assert!(bms.policy(id).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod audit;
mod enforce;
pub mod ingest;
mod policy_manager;
mod preference_manager;
mod quota;
pub mod replication;
mod request;
mod sensor_manager;
pub mod shard;
mod snapshot;
mod store;
mod tippers;
pub mod wal;

pub use aggregate::{AggregateBucket, AggregateRequest, AggregateResponse};
pub use audit::chain::{
    verify_segment, AuditChain, ChainFault, ChainedRecord, SealedSegment, ARCHIVE_PREFIX,
    SEGMENT_RECORDS,
};
pub use audit::{AuditEntry, AuditLog, ChainEvent, DeletionCertificate, UserNotification};
pub use enforce::{
    policy_applies, DecisionBasis, EnforcementDecision, Enforcer, IndexedEnforcer, NaiveEnforcer,
    RequestFlow,
};
pub use ingest::{
    CaptureDrop, CaptureDropReason, CaptureFilter, IngestConfig, IngestPipeline, IngestReport,
    IngestStats, LadderRung,
};
pub use policy_manager::PolicyManager;
pub use preference_manager::{PreferenceManager, SettingsError};
pub use quota::{QuotaConfig, QuotaCounter, QuotaLedger};
pub use request::{
    DataRequest, DataResponse, ReleasedRecord, ReleasedValue, SubjectResult, SubjectSelector,
};
pub use sensor_manager::{HvacCommand, SensorManager};
pub use shard::{
    jump_hash, EnforcementCore, ShardHealth, ShardRouter, ShardSpec, ShardStats, ShardedTippers,
};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use store::{Store, StoredRow};
pub use tippers::{Tippers, TippersConfig};
pub use wal::{
    GroupCommitReport, RecoveryReport, SettingsMutation, WalConfig, WalError, WalRecord,
};

// Resilience vocabulary used in this crate's public API (health reporting,
// fault-plan configuration, admission control), re-exported for downstream
// convenience.
pub use tippers_resilience::{
    AdmissionConfig, AdmissionStats, AimdConfig, BrownoutConfig, BrownoutLevel, FaultPlan,
    FaultPoint, HealthStatus, Nemesis, NemesisAction, Priority, ShedReason, StormAction,
    TokenBucketConfig, VirtualClock, MILLIS_PER_SEC,
};
