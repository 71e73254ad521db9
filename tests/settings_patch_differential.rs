//! Differential test for settings changes patching the enforcement index
//! and the capture filter in place.
//!
//! A durable engine over an in-memory log takes a seeded random stream of
//! policy publishes and retractions, preference submissions, superseding
//! setting choices and occupant MAC registrations. After every mutation a
//! second engine recovers from a deep copy of the live log — replay
//! leaves its index unbuilt, so its first read builds one from scratch —
//! and both answer the same requests and ingest the same capture batch.
//! Responses, batch reports, capture drops and stores must match: the
//! patched index and the cached capture filter decide exactly as freshly
//! built ones.
//!
//! The other tests pin the build counter: settings changes never rebuild,
//! a checkpoint reopen builds once, and a failed patch fails closed until
//! one rebuild.
//!
//! Seeded via `TIPPERS_FAULT_SEED` (CI runs 7, 42 and 4711).

use std::collections::HashMap;

use privacy_aware_buildings::prelude::*;
use tippers::wal::MemLog;
use tippers::{
    CaptureDrop, CaptureDropReason, DataResponse, DecisionBasis, FaultPlan, FaultPoint,
    HealthStatus, IngestConfig, IngestReport, SensorManager, StoredRow,
};
use tippers_bench::{gen_policies, gen_preferences, service_pool, Lcg};
use tippers_policy::{
    ActionSet, BuildingPolicy, DataAction, IsoDuration, Modality, UserPreference,
};
use tippers_sensors::{MacAddress, Observation, Occupant};
use tippers_spatial::fixtures::Dbh;

fn fault_seed() -> u64 {
    std::env::var("TIPPERS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

const BATCH_LEN: usize = 24;
const STEPS: usize = 100;

struct Fixture {
    ontology: Ontology,
    building: Dbh,
    occupants: Vec<Occupant>,
    /// Loaded before any read.
    policies: Vec<BuildingPolicy>,
    preferences: Vec<UserPreference>,
    /// Policies the change stream publishes.
    pool: Vec<BuildingPolicy>,
    /// Candidate preferences the change stream submits.
    pref_pool: Vec<UserPreference>,
    batches: Vec<Vec<Observation>>,
}

/// Storage authorizers and preferences whose conditions are pure time
/// windows, so an engine that recovers from the log (and has observed no
/// sensors) decides every capture exactly as the live one does.
fn fixture() -> Fixture {
    let seed = fault_seed();
    let ontology = Ontology::standard();
    let mut sim = BuildingSimulator::new(
        SimulatorConfig {
            seed,
            population: Population {
                staff: 2,
                faculty: 2,
                grads: 3,
                undergrads: 3,
                visitors: 0,
            },
            tick_secs: 300,
            ..SimulatorConfig::default()
        },
        &ontology,
    );
    let building = sim.dbh().clone();
    let occupants = sim.occupants().to_vec();
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 17, 0)).observations;
    let batches: Vec<Vec<Observation>> = trace
        .chunks(BATCH_LEN)
        .map(<[Observation]>::to_vec)
        .collect();
    assert!(batches.len() > STEPS, "trace too small: {}", trace.len());

    let c = ontology.concepts().clone();
    let services = service_pool(3);
    let with_setting = |p: BuildingPolicy| p.with_setting(BuildingPolicy::location_setting());
    let mut policies = vec![
        BuildingPolicy::new(
            PolicyId(0),
            "Building telemetry baseline",
            building.building,
            c.data,
            c.logging,
        )
        .with_actions(ActionSet::of(&[DataAction::Collect, DataAction::Store]))
        .with_retention(IsoDuration::hours(2))
        .with_modality(Modality::OptOut),
        with_setting(catalog::policy2_emergency_location(
            PolicyId(0),
            building.building,
            &ontology,
        )),
    ];
    policies.extend(
        gen_policies(16, &ontology, &building, &services, seed ^ 0xB0)
            .into_iter()
            .map(with_setting),
    );
    let pool = gen_policies(STEPS, &ontology, &building, &services, seed ^ 0xB1)
        .into_iter()
        .map(with_setting)
        .collect();
    let preferences = gen_preferences(
        occupants.len(),
        3,
        &ontology,
        &building,
        &services,
        seed ^ 0x9E0,
    );
    let pref_pool = gen_preferences(
        occupants.len(),
        STEPS / occupants.len() + 1,
        &ontology,
        &building,
        &services,
        seed ^ 0x9E1,
    );
    Fixture {
        ontology,
        building,
        occupants,
        policies,
        preferences,
        pool,
        pref_pool,
        batches,
    }
}

fn config(plan: FaultPlan) -> TippersConfig {
    TippersConfig {
        ingest: Some(IngestConfig {
            // Headroom: this harness compares decisions, not the ladder.
            mailbox_capacity: 1 << 16,
            batch_max: 4,
            ..IngestConfig::default()
        }),
        fault_plan: plan,
        ..TippersConfig::default()
    }
}

fn open(log: &MemLog, fx: &Fixture, directory: &[Occupant], plan: FaultPlan) -> Tippers {
    let (mut bms, _) = Tippers::open_with(
        Box::new(log.clone()),
        fx.ontology.clone(),
        fx.building.model.clone(),
        config(plan),
    )
    .expect("the log opens");
    // The log does not record the occupant directory.
    bms.register_occupants(directory);
    bms
}

/// A durable engine with the fixture's policies and preferences loaded,
/// before any read.
fn loaded(fx: &Fixture, plan: FaultPlan) -> (Tippers, MemLog) {
    let log = MemLog::new();
    let mut bms = open(&log, fx, &fx.occupants, plan);
    for p in &fx.policies {
        bms.add_policy(p.clone());
    }
    for p in &fx.preferences {
        bms.submit_preference(p.clone(), Timestamp::at(0, 7, 0));
    }
    (bms, log)
}

/// The probe requests: every occupant, location-bearing and occupancy
/// data (no noised scalars, whose draws depend on the engine's history).
fn requests(fx: &Fixture, at: Timestamp) -> Vec<DataRequest> {
    let c = fx.ontology.concepts();
    let shapes = [
        (
            catalog::services::emergency(),
            c.emergency_response,
            c.wifi_association,
        ),
        (catalog::services::concierge(), c.navigation, c.location),
        (ServiceId::new("svc-1"), c.analytics, c.occupancy),
    ];
    shapes
        .into_iter()
        .map(|(service, purpose, data)| DataRequest {
            service,
            purpose,
            data,
            subjects: SubjectSelector::All,
            from: Timestamp::at(0, 8, 0),
            to: at,
            requester_space: None,
            priority: Default::default(),
            deadline: None,
        })
        .collect()
}

/// What one engine made of a batch and the probe requests after it.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: IngestReport,
    drops: Vec<CaptureDrop>,
    responses: Vec<DataResponse>,
    store: Vec<StoredRow>,
}

fn observe(bms: &mut Tippers, fx: &Fixture, batch: &[Observation], at: Timestamp) -> Outcome {
    let drops_before = bms.capture_drops().len();
    let report = bms.ingest_batched(batch, at.seconds() * 1000);
    let drops = bms.capture_drops()[drops_before..].to_vec();
    let responses = requests(fx, at)
        .iter()
        .map(|r| bms.handle_request(r, at))
        .collect();
    Outcome {
        report,
        drops,
        responses,
        store: bms.store().iter().cloned().collect(),
    }
}

#[test]
fn patched_engine_decides_like_one_recovered_from_its_log() {
    let fx = fixture();
    let (mut live, log) = loaded(&fx, FaultPlan::disarmed());
    let mut directory = fx.occupants.clone();
    let mut pool = fx.pool.iter();
    let mut pref_pool = fx.pref_pool.iter();
    let mut lcg = Lcg(fault_seed() ^ 0x5E77);
    let mut published = Vec::new();
    let mut kinds = [0usize; 5];
    for (step, batch) in fx.batches.iter().take(STEPS).enumerate() {
        let at = batch.last().expect("non-empty batch").timestamp;
        let user = directory[lcg.below(directory.len())].user;
        let kind = lcg.below(5);
        kinds[kind] += 1;
        match kind {
            0 => {
                let policy = pool.next().expect("one pooled policy per step");
                published.push(live.add_policy(policy.clone()));
            }
            1 => {
                // A live publish, a long-standing policy, or an id that was
                // never issued or is already gone.
                let id = match lcg.below(3) {
                    0 if !published.is_empty() => published.remove(lcg.below(published.len())),
                    _ => PolicyId(lcg.below(fx.policies.len() + STEPS) as u64),
                };
                live.remove_policy(id);
            }
            2 => {
                let mut pref = pref_pool.next().expect("enough pooled preferences").clone();
                pref.user = user;
                live.submit_preference(pref, at);
            }
            3 => {
                let with_setting: Vec<PolicyId> = live
                    .policies()
                    .iter()
                    .filter(|p| !p.settings.is_empty())
                    .map(|p| p.id)
                    .collect();
                // A few policies and occupants, so that choices supersede
                // earlier ones.
                if !with_setting.is_empty() {
                    let user = directory[lcg.below(3)].user;
                    let policy = with_setting[lcg.below(with_setting.len().min(3))];
                    live.apply_setting_choice(user, policy, "location-sensing", lcg.below(3))
                        .expect("a live policy's advertised setting");
                }
            }
            _ => {
                // Re-register an occupant under a fresh MAC, or back under
                // the one its device actually uses.
                let i = lcg.below(directory.len());
                directory[i].mac = if directory[i].mac == fx.occupants[i].mac {
                    MacAddress::for_user(1_000 + step as u64)
                } else {
                    fx.occupants[i].mac
                };
                live.register_occupants(&directory[i..=i]);
            }
        }
        if step % 20 == 19 {
            live.checkpoint().expect("checkpoint lands");
        }
        let mut recovered = open(&log.deep_copy(), &fx, &directory, FaultPlan::disarmed());
        let want = observe(&mut recovered, &fx, batch, at);
        let got = observe(&mut live, &fx, batch, at);
        assert_eq!(got, want, "step {step} (change kind {kind})");
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "every change kind ran: {kinds:?}"
    );
    assert_eq!(live.enforcer_builds(), 1, "settings changes never rebuild");
    assert_eq!(live.health(), HealthStatus::Healthy);
}

#[test]
fn a_deny_submitted_between_batches_suppresses_the_next_batch() {
    let fx = fixture();
    let (mut bms, _log) = loaded(&fx, FaultPlan::disarmed());
    let macs: HashMap<UserId, MacAddress> = fx.occupants.iter().map(|o| (o.user, o.mac)).collect();
    let already = SensorManager::capture_suppression(&fx.ontology, bms.preferences(), &macs);
    let filtered = |bms: &Tippers, user: UserId| {
        bms.capture_drops()
            .iter()
            .filter(|d| d.reason == CaptureDropReason::CaptureFilter && d.subject == Some(user))
            .count()
    };
    let stored = |bms: &Tippers, mac: MacAddress| {
        bms.store()
            .iter()
            .filter(|r| r.observation.payload.mac() == Some(mac))
            .count()
    };
    // An occupant no loaded preference suppresses, and three batches that
    // each see the occupant's device.
    let (batches, user) = fx
        .occupants
        .iter()
        .filter(|o| !already.contains(&o.mac))
        .find_map(|o| {
            let seen: Vec<&Vec<Observation>> = fx
                .batches
                .iter()
                .filter(|batch| batch.iter().any(|p| p.payload.mac() == Some(o.mac)))
                .take(3)
                .collect();
            (seen.len() == 3).then_some((seen, o.user))
        })
        .expect("an unsuppressed device is seen in three batches");
    let mac = macs[&user];

    bms.ingest_batched(batches[0], 0);
    assert_eq!(filtered(&bms, user), 0);
    let stored_before = stored(&bms, mac);
    bms.submit_preference(
        catalog::preference2_no_location(PreferenceId(0), user, &fx.ontology),
        Timestamp::at(0, 8, 0),
    );
    bms.ingest_batched(batches[1], 1);
    let dropped = filtered(&bms, user);
    assert!(
        dropped > 0,
        "the second batch drops the occupant's MAC at capture"
    );
    assert_eq!(
        stored(&bms, mac),
        stored_before,
        "no row with the suppressed MAC is stored after the deny"
    );
    // Re-registered under another device, the occupant's deny no longer
    // names the MAC the third batch still sees.
    let mut moved = fx.occupants.iter().find(|o| o.user == user).cloned();
    if let Some(o) = moved.as_mut() {
        o.mac = MacAddress::for_user(9_999);
    }
    bms.register_occupants(moved.as_slice());
    bms.ingest_batched(batches[2], 2);
    assert_eq!(
        filtered(&bms, user),
        dropped,
        "the capture filter follows the occupant directory"
    );
    assert_eq!(bms.enforcer_builds(), 1);
}

/// 200 changes and requests, alternating, drawn from the fixture's pools.
fn churn(bms: &mut Tippers, fx: &Fixture, seed: u64) {
    let mut lcg = Lcg(seed);
    let at = Timestamp::at(0, 12, 0);
    let probes = requests(fx, at);
    for i in 0..100 {
        let user = fx.occupants[lcg.below(fx.occupants.len())].user;
        match lcg.below(4) {
            0 => {
                bms.add_policy(fx.pool[i % fx.pool.len()].clone());
            }
            1 => {
                let id = bms.policies()[lcg.below(bms.policies().len())].id;
                bms.remove_policy(id);
            }
            2 => {
                let mut pref = fx.pref_pool[i % fx.pref_pool.len()].clone();
                pref.user = user;
                bms.submit_preference(pref, at);
            }
            _ => {
                let id = bms
                    .policies()
                    .iter()
                    .find(|p| !p.settings.is_empty())
                    .map(|p| p.id);
                if let Some(id) = id {
                    bms.apply_setting_choice(user, id, "location-sensing", lcg.below(3))
                        .expect("advertised setting");
                }
            }
        }
        bms.take_notifications(user);
        bms.handle_request(&probes[lcg.below(probes.len())], at);
    }
}

#[test]
fn settings_changes_never_rebuild_and_a_reopen_builds_once() {
    let fx = fixture();
    let (mut bms, log) = loaded(&fx, FaultPlan::disarmed());
    assert_eq!(bms.enforcer_builds(), 0, "loading builds nothing");
    churn(&mut bms, &fx, fault_seed());
    assert_eq!(bms.enforcer_builds(), 1, "one build across 200 operations");

    bms.checkpoint().expect("checkpoint lands");
    churn(&mut bms, &fx, fault_seed() ^ 1);
    let mut reopened = open(&log.deep_copy(), &fx, &fx.occupants, FaultPlan::disarmed());
    assert_eq!(reopened.enforcer_builds(), 0, "replay builds nothing");
    churn(&mut reopened, &fx, fault_seed() ^ 2);
    assert_eq!(reopened.enforcer_builds(), 1, "a reopen builds once");
    assert_eq!(bms.enforcer_builds(), 1);
}

#[test]
fn a_failed_patch_fails_closed_until_one_rebuild() {
    let fx = fixture();
    let plan = FaultPlan::seeded(fault_seed());
    let (mut bms, _log) = loaded(&fx, plan.clone());
    let (mut twin, _twin_log) = loaded(&fx, FaultPlan::disarmed());
    let at = Timestamp::at(0, 12, 0);
    let probe = &requests(&fx, at)[1];
    bms.handle_request(probe, at);
    twin.handle_request(probe, at);
    assert_eq!(bms.enforcer_builds(), 1);

    // The patch fails and so does the rebuild at the next read.
    plan.arm_limited(FaultPoint::EnforcerBuild, 1.0, 2);
    let deny =
        catalog::preference2_no_location(PreferenceId(0), fx.occupants[0].user, &fx.ontology);
    bms.submit_preference(deny.clone(), at);
    twin.submit_preference(deny, at);
    assert_eq!(bms.health(), HealthStatus::Degraded);
    let during = bms.handle_request(probe, at);
    assert!(during.degraded);
    assert!(!during.results.is_empty());
    assert!(
        during
            .results
            .iter()
            .all(|r| r.decision.basis == DecisionBasis::InternalError && r.records.is_empty()),
        "every subject is denied as an internal error while the index is down"
    );
    assert_eq!(bms.enforcer_builds(), 1);

    // The next read rebuilds once and decides as the fault-free twin.
    let after = bms.handle_request(probe, at);
    assert_eq!(plan.injected(FaultPoint::EnforcerBuild), 2);
    assert_eq!(bms.enforcer_builds(), 2);
    assert_eq!(bms.health(), HealthStatus::Healthy);
    assert_eq!(after, twin.handle_request(probe, at));
    assert_eq!(twin.enforcer_builds(), 1);
}
