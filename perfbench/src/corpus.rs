//! The shared corpus every workload runs against, and the seeded traffic
//! generators.
//!
//! The corpus is E8's third scale (1,000 users, 10 services, 500 generated
//! policies, 5 preferences per user), so the numbers stay continuous with
//! EXPERIMENTS.md, plus the paper's four catalog policies carrying the
//! Figure 4 location setting, so setting choices have options to pick.

use std::collections::HashMap;

use tippers::wal::MemLog;
use tippers::{
    DataRequest, EnforcementCore, Priority, RequestFlow, SubjectSelector, Tippers, TippersConfig,
};
use tippers_bench::{gen_policies, gen_preferences, policy_categories, policy_purposes, Lcg};
use tippers_ontology::{ConceptId, Ontology};
use tippers_policy::{
    catalog, BuildingPolicy, DataAction, Effect, IsoDuration, PolicyId, PreferenceId,
    PreferenceScope, ServiceId, Timestamp, UserId, UserPreference,
};
use tippers_sensors::{
    BuildingSimulator, MacAddress, Observation, Occupant, Population, SimulatorConfig,
};
use tippers_spatial::fixtures::Dbh;
use tippers_spatial::{Granularity, SpaceId};

/// Building occupants: the simulator's default group mix, doubled.
pub const POPULATION: Population = Population {
    staff: 120,
    faculty: 160,
    grads: 440,
    undergrads: 240,
    visitors: 40,
};
/// Services requesting data.
pub const SERVICES: usize = 10;
/// Generated building policies (the catalog's four come on top).
pub const GENERATED_POLICIES: usize = 500;
/// Generated preferences per occupant.
pub const PREFS_PER_OCCUPANT: usize = 5;
/// The setting every catalog policy advertises (Figure 4).
pub const SETTING_KEY: &str = "location-sensing";
/// Options of [`SETTING_KEY`]: fine, coarse, none.
pub const SETTING_OPTIONS: usize = 3;
/// When the corpus is loaded (virtual time).
pub const LOAD_TIME: Timestamp = Timestamp(7 * 3600);
/// The seed the corpus is drawn with (E8's). The corpus is the building's
/// configuration, the same for every run; the workload seed varies only
/// the traffic, so seed-to-seed spreads measure the program and the
/// machine rather than different buildings.
pub const CORPUS_SEED: u64 = 1;

/// The simulator configuration the corpus (and the campus trace) uses.
pub fn simulator_config(seed: u64, tick_secs: i64) -> SimulatorConfig {
    SimulatorConfig {
        seed,
        population: POPULATION,
        tick_secs,
        ..SimulatorConfig::default()
    }
}

/// A simulator trace of the corpus's building from `from` to `to`, drawn
/// from `seed`. The simulator emits each tick device type by device type;
/// here each tick's observations are shuffled (seeded), as they would
/// arrive interleaved from many devices, so a batch cut from a tick is a
/// mix rather than one device type.
pub fn sim_trace(seed: u64, tick_secs: i64, from: Timestamp, to: Timestamp) -> Vec<Observation> {
    let ontology = Ontology::standard();
    let mut sim = BuildingSimulator::new(simulator_config(seed, tick_secs), &ontology);
    sim.set_clock(from);
    let mut trace = sim.run_until(to).observations;
    let mut lcg = Lcg(seed ^ 0x7_1CE);
    for tick in trace.chunk_by_mut(|a, b| a.timestamp == b.timestamp) {
        for i in (1..tick.len()).rev() {
            tick.swap(i, lcg.below(i + 1));
        }
    }
    trace
}

/// The shared corpus.
pub struct Corpus {
    /// The workload seed the traffic is drawn from.
    pub seed: u64,
    /// The standard ontology.
    pub ontology: Ontology,
    /// The DBH building.
    pub dbh: Dbh,
    /// The occupants (user ids `0..1000`, all five groups).
    pub occupants: Vec<Occupant>,
    /// Occupant MACs, as the engine's directory holds them.
    pub macs: HashMap<UserId, MacAddress>,
    /// Requesting services.
    pub services: Vec<ServiceId>,
    /// Policies in load order: generated first, then the catalog four.
    pub policies: Vec<BuildingPolicy>,
    /// Preferences in submission order.
    pub preferences: Vec<UserPreference>,
    /// Data categories requests draw from.
    pub categories: Vec<ConceptId>,
    /// Purposes requests draw from.
    pub purposes: Vec<ConceptId>,
}

impl Corpus {
    /// The corpus, carrying `seed` for the traffic generators.
    pub fn new(seed: u64) -> Corpus {
        let ontology = Ontology::standard();
        let sim = BuildingSimulator::new(simulator_config(CORPUS_SEED, 300), &ontology);
        let dbh = sim.dbh().clone();
        let occupants = sim.occupants().to_vec();
        let services = tippers_bench::service_pool(SERVICES);
        let mut policies =
            gen_policies(GENERATED_POLICIES, &ontology, &dbh, &services, CORPUS_SEED);
        // A third of the store-capable policies carry a 1-4 h retention,
        // so retention sweeps have rows to delete.
        for (i, p) in policies
            .iter_mut()
            .filter(|p| p.actions.contains(DataAction::Store))
            .enumerate()
        {
            if i % 3 == 0 {
                p.retention = Some(IsoDuration::hours(1 + (i / 3 % 4) as u32));
            }
        }
        let setting = BuildingPolicy::location_setting;
        policies.extend([
            catalog::policy1_thermostat(PolicyId(0), dbh.building, &ontology)
                .with_setting(setting()),
            catalog::policy2_emergency_location(PolicyId(0), dbh.building, &ontology)
                .with_setting(setting()),
            catalog::policy3_meeting_room_access(
                PolicyId(0),
                dbh.building,
                dbh.meeting_rooms.clone(),
                &ontology,
            )
            .with_setting(setting()),
            catalog::policy4_event_proximity(PolicyId(0), dbh.meeting_rooms.clone(), &ontology)
                .with_setting(setting()),
        ]);
        let preferences = gen_preferences(
            occupants.len(),
            PREFS_PER_OCCUPANT,
            &ontology,
            &dbh,
            &services,
            CORPUS_SEED,
        );
        Corpus {
            seed,
            macs: occupants.iter().map(|o| (o.user, o.mac)).collect(),
            categories: policy_categories(&ontology),
            purposes: policy_purposes(&ontology),
            ontology,
            dbh,
            occupants,
            services,
            policies,
            preferences,
        }
    }

    /// Ids the engine assigns to the catalog policies (loaded last, ids
    /// allocated in load order from 0).
    pub fn setting_policies(&self) -> Vec<PolicyId> {
        let n = self.policies.len() as u64;
        (n - 4..n).map(PolicyId).collect()
    }

    /// A single-subject service request at `now`: a random service,
    /// purpose and category, a third of them `location_room`.
    pub fn request(&self, lcg: &mut Lcg, now: Timestamp) -> DataRequest {
        let user = UserId(lcg.below(self.occupants.len()) as u64);
        self.request_for(lcg, user, now)
    }

    /// [`Corpus::request`] about a given subject.
    pub fn request_for(&self, lcg: &mut Lcg, user: UserId, now: Timestamp) -> DataRequest {
        let data = if lcg.below(3) == 0 {
            self.ontology.concepts().location_room
        } else {
            self.categories[lcg.below(self.categories.len())]
        };
        DataRequest {
            service: self.services[lcg.below(self.services.len())].clone(),
            purpose: self.purposes[lcg.below(self.purposes.len())],
            data,
            subjects: SubjectSelector::One(user),
            from: Timestamp(now.seconds() - 3600),
            to: Timestamp(now.seconds() + 1),
            requester_space: None,
            priority: Priority::Interactive,
            deadline: None,
        }
    }

    /// A random instant of the simulated week (minute resolution), so
    /// requests exercise business-hours and after-hours conditions.
    pub fn week_time(lcg: &mut Lcg) -> Timestamp {
        Timestamp::at(
            lcg.below(7) as i64,
            lcg.below(24) as u32,
            lcg.below(60) as u32,
        )
    }

    /// A fresh preference of the generator's shape for `user`.
    pub fn preference_for(&self, lcg: &mut Lcg, user: UserId) -> UserPreference {
        let effect = match lcg.below(10) {
            0..=3 => Effect::Deny,
            4..=5 => Effect::Degrade(Granularity::ALL[1 + lcg.below(4)]),
            6 => Effect::Noise { sigma: 5.0 },
            _ => Effect::Allow,
        };
        let scope = PreferenceScope {
            data: if lcg.below(3) == 0 {
                Some(self.ontology.concepts().location)
            } else {
                Some(self.categories[lcg.below(self.categories.len())])
            },
            purpose: None,
            service: (lcg.below(3) == 0)
                .then(|| self.services[lcg.below(self.services.len())].clone()),
            space: (lcg.below(2) == 0).then(|| self.dbh.offices[lcg.below(self.dbh.offices.len())]),
            condition: Default::default(),
        };
        UserPreference::new(PreferenceId(0), user, scope, effect).with_priority(lcg.below(3) as u8)
    }

    /// The flow `Tippers::handle_request` decides for one subject of a
    /// request, given where the store places the subject.
    pub fn share_flow(
        &self,
        engine: &Tippers,
        request: &DataRequest,
        user: UserId,
        now: Timestamp,
    ) -> RequestFlow {
        RequestFlow {
            subject: user,
            subject_group: engine.group_of(user),
            data: request.data,
            purpose: request.purpose,
            service: Some(request.service.clone()),
            action: DataAction::Share,
            time: now,
            subject_space: current_space_of(engine, &self.ontology, user, now),
            requester_space: request.requester_space,
            room_occupied: None,
        }
    }
}

/// Where the engine believes a subject is: its latest network row in the
/// store, if under an hour old (the engine's own rule).
pub fn current_space_of(
    engine: &Tippers,
    ontology: &Ontology,
    user: UserId,
    now: Timestamp,
) -> Option<SpaceId> {
    let row = engine
        .store()
        .latest_for(ontology, user, ontology.concepts().data, now)?;
    (now - row.observation.timestamp <= 3600).then_some(row.observation.space)
}

/// Registers the corpus with an engine and returns the policy ids it
/// assigned: occupants, then policies, then preferences.
pub fn load_corpus(engine: &mut impl EnforcementCore, corpus: &Corpus) -> Vec<PolicyId> {
    engine.register_occupants(&corpus.occupants);
    let ids = corpus
        .policies
        .iter()
        .map(|p| engine.add_policy(p.clone()))
        .collect();
    for pref in &corpus.preferences {
        engine.submit_preference(pref.clone(), LOAD_TIME);
    }
    // An empty ingest builds the enforcement engine without recording
    // anything.
    engine.ingest(&[]);
    ids
}

/// A durable engine over an in-memory log with the corpus loaded, plus a
/// handle on its log for recovery and byte accounting.
pub fn open_engine(corpus: &Corpus, config: TippersConfig) -> (Tippers, MemLog) {
    let log = MemLog::new();
    let (mut engine, _report) = Tippers::open_with(
        Box::new(log.clone()),
        corpus.ontology.clone(),
        corpus.dbh.model.clone(),
        config,
    )
    .expect("an empty in-memory log opens");
    let ids = load_corpus(&mut engine, corpus);
    assert_eq!(
        ids.last().copied(),
        corpus.setting_policies().last().copied()
    );
    (engine, log)
}
