//! Deterministic cost budgets on the request, settings-change and capture
//! paths. Wall time on a shared CI machine is too noisy to gate on;
//! allocation counts are not, so a change that makes one of these paths
//! allocate more fails here.
//!
//! Allocations are counted per thread by the counting global allocator in
//! `common`, so other tests running in parallel cannot disturb the count.

use tippers::wal::MemLog;
use tippers::{
    DataRequest, IngestConfig, SubjectSelector, Tippers, TippersConfig, SEGMENT_RECORDS,
};
use tippers_ontology::Ontology;
use tippers_policy::{
    catalog, ActionSet, BuildingPolicy, DataAction, Effect, IsoDuration, Modality, PolicyId,
    PreferenceId, PreferenceScope, Timestamp, UserId, UserPreference,
};
use tippers_sensors::{BuildingSimulator, Observation, Population, SimulatorConfig};
use tippers_spatial::fixtures::{dbh, Dbh};
use tippers_spatial::Granularity;

mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// Allocations per permitted single-subject `handle_request` on a durable
/// engine: the decision, its audit-chain record, and its share of sealing
/// and archiving a segment every [`SEGMENT_RECORDS`] requests.
const ALLOCATIONS_PER_PERMITTED_REQUEST: u64 = 9;

/// Allocations per occupant change on a corpus-loaded durable engine: a
/// preference submission (conflict notices, the WAL record, the enforcer
/// patch), draining the occupant's notifications, and one probe request.
/// A change that rebuilt the enforcer would cost allocations in
/// proportion to the corpus.
const ALLOCATIONS_PER_OCCUPANT_CHANGE: u64 = 32;

/// Allocations per observation through `ingest_batched` on a
/// corpus-loaded durable engine, averaged over whole batches: the capture
/// filter is derived once, not per batch, and the storage grant reads the
/// policies in place.
const ALLOCATIONS_PER_CAPTURED_EVENT: u64 = 1;

/// Allocations per `checkpoint()` on the corpus-loaded durable engine:
/// cloning the durable state into a snapshot, writing it as one JSON
/// record, and framing and publishing that record.
const ALLOCATIONS_PER_CHECKPOINT: u64 = 30_690;

#[test]
fn a_permitted_request_stays_within_its_allocation_budget() {
    let ontology = Ontology::standard();
    let building = dbh();
    let c = ontology.concepts().clone();
    let (mut bms, _) = Tippers::open_with(
        Box::new(MemLog::new()),
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    )
    .expect("a fresh log opens");
    bms.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    let request = DataRequest {
        service: catalog::services::emergency(),
        purpose: c.emergency_response,
        data: c.wifi_association,
        subjects: SubjectSelector::One(UserId(1)),
        from: Timestamp::at(0, 8, 0),
        to: Timestamp::at(0, 12, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    };
    let now = Timestamp::at(0, 12, 0);
    // Warm-up: builds the enforcer and the ontology's memoized closures,
    // and ends on a segment boundary so the measured run seals exactly
    // `ROUNDS` segments.
    for _ in 0..SEGMENT_RECORDS {
        let response = bms.handle_request(&request, now);
        assert!(
            response.results[0].decision.permits(),
            "the flow is permitted"
        );
    }
    assert!(bms.audit_chain().open_records().is_empty());

    const ROUNDS: u64 = 2;
    let requests = ROUNDS * SEGMENT_RECORDS as u64;
    let ((), allocations) = common::counted(|| {
        for _ in 0..requests {
            bms.handle_request(&request, now);
        }
    });
    assert_eq!(bms.audit_chain().sealed_segments(), 1 + ROUNDS);
    assert_eq!(bms.audit_archive_failures(), 0);

    let per_request = allocations.div_ceil(requests);
    eprintln!("{allocations} allocations over {requests} requests ({per_request} per request)");
    assert!(
        per_request <= ALLOCATIONS_PER_PERMITTED_REQUEST,
        "a permitted request allocates {per_request} times, budget \
         {ALLOCATIONS_PER_PERMITTED_REQUEST}"
    );
}

/// A small deterministic generator (the workload crates are not
/// dependencies of this one).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

const CORPUS_POLICIES: usize = 200;
const CORPUS_USERS: u64 = 200;
const PREFERENCES_PER_USER: usize = 10;

/// `CORPUS_POLICIES` generated policies over the building plus a
/// store-everything baseline, and `PREFERENCES_PER_USER` preferences for
/// each of `CORPUS_USERS` users: the shape, at a smaller scale, of the
/// benchmark's corpus.
fn corpus(ontology: &Ontology, building: &Dbh) -> (Vec<BuildingPolicy>, Vec<UserPreference>) {
    let c = ontology.concepts();
    let datas = [
        c.wifi_association,
        c.bluetooth_sighting,
        c.location,
        c.location_room,
        c.occupancy,
        c.image,
        c.power_consumption,
        c.ambient_temperature,
        c.person_identity,
    ];
    let purposes = [
        c.emergency_response,
        c.navigation,
        c.analytics,
        c.comfort,
        c.logging,
    ];
    let spaces: Vec<_> = std::iter::once(building.building)
        .chain(building.floors.iter().copied())
        .chain(building.offices.iter().copied())
        .collect();
    let mut lcg = Lcg(0xC0_57);
    let mut policies = vec![BuildingPolicy::new(
        PolicyId(0),
        "Building telemetry baseline",
        building.building,
        c.data,
        c.logging,
    )
    .with_actions(ActionSet::of(&[DataAction::Collect, DataAction::Store]))
    .with_retention(IsoDuration::hours(2))];
    policies.extend((0..CORPUS_POLICIES).map(|i| {
        BuildingPolicy::new(
            PolicyId(0),
            format!("generated-{i}"),
            spaces[lcg.below(spaces.len())],
            datas[lcg.below(datas.len())],
            purposes[lcg.below(purposes.len())],
        )
        .with_modality([Modality::Required, Modality::OptOut, Modality::OptIn][lcg.below(3)])
        .with_actions(if lcg.below(2) == 0 {
            ActionSet::ALL
        } else {
            ActionSet::of(&[DataAction::Share])
        })
    }));
    let preferences = (0..CORPUS_USERS)
        .flat_map(|user| (0..PREFERENCES_PER_USER).map(move |_| user))
        .map(|user| {
            let effect = [
                Effect::Allow,
                Effect::Deny,
                Effect::Degrade(Granularity::Floor),
            ][lcg.below(3)];
            let scope = PreferenceScope {
                data: Some(datas[lcg.below(datas.len())]),
                ..Default::default()
            };
            UserPreference::new(PreferenceId(0), UserId(user), scope, effect)
        })
        .collect();
    (policies, preferences)
}

/// A durable engine over a fresh in-memory log with the corpus loaded.
fn loaded_engine(ontology: &Ontology, building: &Dbh, config: TippersConfig) -> Tippers {
    let (mut bms, _) = Tippers::open_with(
        Box::new(MemLog::new()),
        ontology.clone(),
        building.model.clone(),
        config,
    )
    .expect("a fresh log opens");
    let (policies, preferences) = corpus(ontology, building);
    for p in policies {
        bms.add_policy(p);
    }
    for p in preferences {
        bms.submit_preference(p, Timestamp::at(0, 7, 0));
    }
    bms
}

#[test]
fn an_occupant_change_stays_within_its_allocation_budget() {
    let ontology = Ontology::standard();
    let building = dbh();
    let c = ontology.concepts().clone();
    let mut bms = loaded_engine(&ontology, &building, TippersConfig::default());
    let probe = |user| DataRequest {
        service: catalog::services::concierge(),
        purpose: c.navigation,
        data: c.location_room,
        subjects: SubjectSelector::One(user),
        from: Timestamp::at(0, 8, 0),
        to: Timestamp::at(0, 12, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    };
    let now = Timestamp::at(0, 12, 0);
    let mut lcg = Lcg(0xC4_A6);
    let mut change = |bms: &mut Tippers| {
        let user = UserId(lcg.below(CORPUS_USERS as usize) as u64);
        let pref = UserPreference::new(
            PreferenceId(0),
            user,
            PreferenceScope {
                data: Some(c.location),
                ..Default::default()
            },
            [Effect::Allow, Effect::Deny][lcg.below(2)],
        );
        bms.submit_preference(pref, now);
        bms.take_notifications(user);
        bms.handle_request(&probe(user), now);
    };
    // Warm-up: builds the enforcer and ends on a segment boundary, so the
    // measured run seals exactly `ROUNDS` audit segments.
    let open = bms.audit_chain().open_records().len();
    for _ in 0..(SEGMENT_RECORDS - open % SEGMENT_RECORDS) {
        change(&mut bms);
    }
    assert!(bms.audit_chain().open_records().is_empty());
    assert_eq!(bms.enforcer_builds(), 1);

    const ROUNDS: u64 = 2;
    let changes = ROUNDS * SEGMENT_RECORDS as u64;
    let ((), allocations) = common::counted(|| {
        for _ in 0..changes {
            change(&mut bms);
        }
    });
    assert_eq!(bms.enforcer_builds(), 1, "changes patch, never rebuild");
    assert_eq!(bms.wal_append_failures(), 0);

    let per_change = allocations.div_ceil(changes);
    eprintln!("{allocations} allocations over {changes} changes ({per_change} per change)");
    assert!(
        per_change <= ALLOCATIONS_PER_OCCUPANT_CHANGE,
        "an occupant change allocates {per_change} times, budget \
         {ALLOCATIONS_PER_OCCUPANT_CHANGE}"
    );
}

#[test]
fn a_captured_event_stays_within_its_allocation_budget() {
    let ontology = Ontology::standard();
    let mut sim = BuildingSimulator::new(
        SimulatorConfig {
            seed: 11,
            population: Population {
                staff: 40,
                faculty: 40,
                grads: 60,
                undergrads: 60,
                visitors: 0,
            },
            tick_secs: 300,
            ..SimulatorConfig::default()
        },
        &ontology,
    );
    let building = sim.dbh().clone();
    let config = TippersConfig {
        ingest: Some(IngestConfig {
            mailbox_capacity: 1 << 16,
            ..IngestConfig::default()
        }),
        ..TippersConfig::default()
    };
    let mut bms = loaded_engine(&ontology, &building, config);
    bms.register_occupants(sim.occupants());
    sim.set_clock(Timestamp::at(0, 9, 0));
    let trace = sim.run_until(Timestamp::at(0, 11, 0)).observations;
    let batches: Vec<&[Observation]> = trace.chunks(64).collect();
    let (warm_up, measured) = batches.split_at(batches.len() / 4);
    for (i, batch) in warm_up.iter().enumerate() {
        bms.ingest_batched(batch, i as i64);
    }
    let events: usize = measured.iter().map(|b| b.len()).sum();
    let (stored, allocations) = common::counted(|| {
        measured
            .iter()
            .enumerate()
            .map(|(i, batch)| bms.ingest_batched(batch, i as i64).stored)
            .sum::<usize>()
    });
    assert!(stored > 0, "the corpus authorizes storing some captures");
    assert_eq!(bms.enforcer_builds(), 1);

    let per_event = allocations.div_ceil(events as u64);
    eprintln!(
        "{allocations} allocations over {events} events ({per_event} per event, {stored} stored)"
    );
    assert!(
        per_event <= ALLOCATIONS_PER_CAPTURED_EVENT,
        "a captured event allocates {per_event} times, budget \
         {ALLOCATIONS_PER_CAPTURED_EVENT}"
    );
}

#[test]
fn a_checkpoint_stays_within_its_allocation_budget() {
    let ontology = Ontology::standard();
    let building = dbh();
    let mut bms = loaded_engine(&ontology, &building, TippersConfig::default());
    let (result, allocations) = common::counted(|| bms.checkpoint());
    result.expect("the checkpoint lands");
    eprintln!("{allocations} allocations per checkpoint");
    assert!(
        allocations <= ALLOCATIONS_PER_CHECKPOINT,
        "a checkpoint allocates {allocations} times, budget {ALLOCATIONS_PER_CHECKPOINT}"
    );
}
