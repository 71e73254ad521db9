//! Privacy-aware smart buildings: capturing, communicating, and enforcing
//! privacy policies and preferences.
//!
//! This is the umbrella crate of the workspace — a Rust implementation of
//! the framework from Pappachan et al., *"Towards Privacy-Aware Smart
//! Buildings"* (ICDCS 2017): IoT Resource Registries broadcast
//! machine-readable data-practice policies, IoT Assistants discover them
//! and configure privacy settings for their users, and a TIPPERS-style
//! building management system enforces policies and preferences when
//! collecting and sharing occupant data.
//!
//! Each subsystem lives in its own crate, re-exported here as a module:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`spatial`] | `tippers-spatial` | hierarchical spatial model, granularity lattice |
//! | [`ontology`] | `tippers-ontology` | sensor/data/purpose taxonomies, inference rules |
//! | [`policy`] | `tippers-policy` | the policy & preference language (Figures 2–4), conflicts |
//! | [`sensors`] | `tippers-sensors` | building simulator, occupants, the §II.A attack |
//! | [`irr`] | `tippers-irr` | registries, discovery network, MUD auto-registration |
//! | [`bms`] | `tippers` | the BMS: storage, enforcement, managers, audit |
//! | [`iota`] | `tippers-iota` | assistants: notification, learning, configuration |
//! | [`services`] | `tippers-services` | Concierge, Smart Meeting, delivery, emergency |
//!
//! # Quickstart
//!
//! Run the end-to-end Figure 1 walkthrough:
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! or in code:
//!
//! ```
//! use privacy_aware_buildings::prelude::*;
//!
//! let ontology = Ontology::standard();
//! let building = dbh();
//! let mut bms = Tippers::new(ontology, building.model.clone(), TippersConfig::default());
//! let id = bms.add_policy(catalog::policy2_emergency_location(
//!     PolicyId(0),
//!     building.building,
//!     bms.ontology(),
//! ));
//! assert!(bms.policy(id).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tippers as bms;
pub use tippers_iota as iota;
pub use tippers_irr as irr;
pub use tippers_ontology as ontology;
pub use tippers_policy as policy;
pub use tippers_sensors as sensors;
pub use tippers_services as services;
pub use tippers_spatial as spatial;

/// The most commonly used items, for a one-line import.
pub mod prelude {
    pub use tippers::{
        DataRequest, ShardSpec, ShardedTippers, SubjectSelector, Tippers, TippersConfig,
    };
    pub use tippers_iota::{Iota, SensitivityProfile};
    pub use tippers_irr::{DiscoveryBus, NetworkConfig};
    pub use tippers_ontology::Ontology;
    pub use tippers_policy::{
        catalog, Effect, PolicyId, PreferenceId, ResolutionStrategy, ServiceId, Timestamp,
        UserGroup, UserId,
    };
    pub use tippers_sensors::{BuildingSimulator, Population, SimulatorConfig};
    pub use tippers_services::{
        register_service, BuildingService, Concierge, EmergencyResponse, FoodDelivery, SmartMeeting,
    };
    pub use tippers_spatial::fixtures::dbh;
    pub use tippers_spatial::{Granularity, RoomUse, SpatialModel};
}
