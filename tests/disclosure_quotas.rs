//! Purpose-scoped disclosure quotas on the release path.
//!
//! A per-(user, service, purpose) budget bounds how often a service can
//! query a subject under one purpose. The invariants:
//!
//! * **Fail-closed** — an exhausted budget turns a permit into a
//!   [`DecisionBasis::QuotaExceeded`] denial that is itself audited; a
//!   charge whose durable record is dropped is rolled back and denied the
//!   same way (never disclose against an uncharged budget).
//! * **Windowed** — budgets refill when the virtual-time window rolls.
//! * **Durable** — counters ride in the WAL ([`QuotaCharge`] records) and
//!   in snapshots, so a crash, a checkpoint, or an epoch-fenced failover
//!   can never reset a budget.
//! * **Single-writer** — only the primary charges; followers serve reads
//!   check-only and converge through shipped records.

use privacy_aware_buildings::prelude::*;
use tippers::replication::{Cluster, ReplicationConfig, WriteOutcome};
use tippers::wal::MemLog;
use tippers::{
    DataResponse, DecisionBasis, FaultPlan, FaultPoint, QuotaConfig, VirtualClock, MILLIS_PER_SEC,
};
use tippers_policy::{ActionSet, BuildingPolicy, PolicyId};
use tippers_sensors::{DeviceId, Observation, ObservationPayload};

fn fault_seed() -> u64 {
    std::env::var("TIPPERS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

const BUDGET: u32 = 3;

/// A durable BMS holding one user's power readings under a storing,
/// sharing policy, with a 3-per-hour disclosure budget.
fn durable_bms(plan: FaultPlan) -> (MemLog, Tippers, UserId) {
    let ontology = Ontology::standard();
    let building = dbh();
    let log = MemLog::new();
    let (mut bms, _) = Tippers::open_with(
        Box::new(log.clone()),
        ontology.clone(),
        building.model.clone(),
        TippersConfig {
            quota: Some(QuotaConfig {
                budget: BUDGET,
                window_secs: Some(3_600),
            }),
            fault_plan: plan,
            ..TippersConfig::default()
        },
    )
    .expect("open");
    let c = ontology.concepts().clone();
    let user = UserId(1);
    bms.add_policy(
        BuildingPolicy::new(
            PolicyId(0),
            "Energy metering",
            building.building,
            c.power_consumption,
            c.energy_management,
        )
        .with_actions(ActionSet::ALL),
    );
    let observations: Vec<Observation> = (9..17)
        .map(|hour| Observation {
            device: DeviceId(0),
            timestamp: Timestamp::at(0, hour, 0),
            space: building.offices[0],
            payload: ObservationPayload::PowerReading { watts: 100.0 },
            subject: Some(user),
        })
        .collect();
    assert_eq!(bms.ingest(&observations).0, 8);
    (log, bms, user)
}

fn request(user: UserId, ontology: &Ontology) -> DataRequest {
    let c = ontology.concepts();
    DataRequest {
        service: ServiceId::new("analytics"),
        purpose: c.energy_management,
        data: c.power_consumption,
        subjects: SubjectSelector::One(user),
        from: Timestamp(0),
        to: Timestamp::at(1, 0, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    }
}

fn basis(response: &DataResponse) -> (bool, DecisionBasis) {
    let result = &response.results[0];
    (result.decision.permits(), result.decision.basis.clone())
}

#[test]
fn exhausted_budget_denies_fail_closed_and_is_audited() {
    let (_log, mut bms, user) = durable_bms(FaultPlan::disarmed());
    let ontology = bms.ontology().clone();
    let req = request(user, &ontology);
    let now = Timestamp::at(0, 18, 0);

    for i in 0..BUDGET {
        let (permitted, b) = basis(&bms.handle_request(&req, now));
        assert!(permitted, "release {i} within budget");
        assert_ne!(b, DecisionBasis::QuotaExceeded);
        assert_eq!(bms.quota_used(user, &req.service, req.purpose, now), i + 1);
    }

    // The budget is spent: the same request now denies, fail-closed.
    let (permitted, b) = basis(&bms.handle_request(&req, now));
    assert!(!permitted);
    assert_eq!(b, DecisionBasis::QuotaExceeded);
    assert_eq!(
        bms.quota_used(user, &req.service, req.purpose, now),
        BUDGET,
        "a denied request must not consume budget"
    );

    // The denial is audited like any other decision — and journaled on
    // the tamper-evident chain with it.
    let decisions = bms.decisions().expect("the decision record verifies");
    let last = decisions.last().expect("audited");
    assert_eq!(last.subject, user);
    assert_eq!(last.basis, DecisionBasis::QuotaExceeded);
    bms.verify_audit_chain().expect("chain verifies");

    // The budget is scoped to the purpose: the same service querying the
    // same data under a different (permitted) purpose is not affected.
    let mut other = req.clone();
    other.purpose = ontology.concepts().logging;
    let (_, b) = basis(&bms.handle_request(&other, now));
    assert_ne!(b, DecisionBasis::QuotaExceeded, "purpose scoping leaked");
}

#[test]
fn budgets_refill_when_the_window_rolls() {
    let (_log, mut bms, user) = durable_bms(FaultPlan::disarmed());
    let ontology = bms.ontology().clone();
    let req = request(user, &ontology);
    let now = Timestamp::at(0, 18, 0);

    for _ in 0..BUDGET {
        assert!(basis(&bms.handle_request(&req, now)).0);
    }
    assert_eq!(
        basis(&bms.handle_request(&req, now)).1,
        DecisionBasis::QuotaExceeded
    );

    // One window later the budget refills.
    let later = Timestamp(now.0 + 3_600);
    let (permitted, b) = basis(&bms.handle_request(&req, later));
    assert!(permitted, "budget must refill in the next window: {b:?}");
    assert_eq!(bms.quota_used(user, &req.service, req.purpose, later), 1);
}

#[test]
fn dropped_charge_records_deny_rather_than_disclose() {
    let plan = FaultPlan::seeded(fault_seed());
    let (_log, mut bms, user) = durable_bms(plan.clone());
    let ontology = bms.ontology().clone();
    let req = request(user, &ontology);
    let now = Timestamp::at(0, 18, 0);

    plan.arm_limited(FaultPoint::QuotaCounterDrop, 1.0, 1);
    let (permitted, b) = basis(&bms.handle_request(&req, now));
    assert!(!permitted, "an unchargeable release must deny");
    assert_eq!(b, DecisionBasis::QuotaExceeded);
    assert_eq!(bms.quota_charge_drops(), 1);
    assert_eq!(
        bms.quota_used(user, &req.service, req.purpose, now),
        0,
        "the dropped charge was rolled back"
    );

    // With durable charging restored, the budget serves normally.
    let (permitted, _) = basis(&bms.handle_request(&req, now));
    assert!(permitted);
    assert_eq!(bms.quota_used(user, &req.service, req.purpose, now), 1);
}

#[test]
fn counters_survive_crash_recovery_and_checkpoint() {
    let (log, mut bms, user) = durable_bms(FaultPlan::disarmed());
    let ontology = bms.ontology().clone();
    let req = request(user, &ontology);
    let now = Timestamp::at(0, 18, 0);

    for _ in 0..BUDGET {
        assert!(basis(&bms.handle_request(&req, now)).0);
    }
    assert_eq!(bms.wal_append_failures(), 0);
    drop(bms);
    log.crash();

    // Crash + replay: the QuotaCharge records rebuild the ledger; the
    // budget stays spent.
    let reopen = |log: &MemLog| -> Tippers {
        let building = dbh();
        let (bms, _) = Tippers::open_with(
            Box::new(log.clone()),
            Ontology::standard(),
            building.model.clone(),
            TippersConfig {
                quota: Some(QuotaConfig {
                    budget: BUDGET,
                    window_secs: Some(3_600),
                }),
                ..TippersConfig::default()
            },
        )
        .expect("recover");
        bms
    };
    let mut recovered = reopen(&log);
    assert_eq!(
        recovered.quota_used(user, &req.service, req.purpose, now),
        BUDGET,
        "crash reset a disclosure budget"
    );
    assert_eq!(
        basis(&recovered.handle_request(&req, now)).1,
        DecisionBasis::QuotaExceeded
    );

    // Checkpoint compacts the log into a snapshot; the ledger rides in it.
    recovered.checkpoint().expect("checkpoint");
    drop(recovered);
    log.crash();
    let mut again = reopen(&log);
    assert_eq!(
        again.quota_used(user, &req.service, req.purpose, now),
        BUDGET,
        "checkpoint reset a disclosure budget"
    );
    assert_eq!(
        basis(&again.handle_request(&req, now)).1,
        DecisionBasis::QuotaExceeded
    );
}

/// Replicated enforcement: the primary charges and ships, followers serve
/// check-only, and an epoch-fenced failover inherits the spent budget.
#[test]
fn failover_does_not_reset_budgets() {
    let ontology = Ontology::standard();
    let mut sim = BuildingSimulator::new(
        SimulatorConfig {
            seed: 7,
            population: Population {
                staff: 1,
                faculty: 1,
                grads: 2,
                undergrads: 2,
                visitors: 0,
            },
            tick_secs: 600,
            ..SimulatorConfig::default()
        },
        &ontology,
    );
    let building = sim.dbh().clone();
    let occupants = sim.occupants().to_vec();
    let user = occupants[0].user;
    let plan = FaultPlan::seeded(fault_seed());
    let clock = VirtualClock::at_ms(Timestamp::at(0, 9, 0).0 * MILLIS_PER_SEC);
    let config = TippersConfig {
        quota: Some(QuotaConfig {
            budget: 2,
            window_secs: None,
        }),
        ..TippersConfig::default()
    };
    let mut cluster = Cluster::new(
        ReplicationConfig::default(),
        plan.clone(),
        clock.clone(),
        ontology.clone(),
        building.model.clone(),
        config,
        occupants.clone(),
    )
    .expect("cluster boot");
    let p2 = catalog::policy2_emergency_location(PolicyId(0), building.building, &ontology);
    let outcome = cluster
        .write_to(0, |bms| {
            bms.add_policy(p2);
        })
        .expect("seed policy");
    assert!(matches!(outcome, WriteOutcome::Committed { .. }));
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 8, 30));
    cluster
        .write_to(0, |bms| {
            bms.ingest(&trace.observations);
        })
        .expect("seed observations");

    let c = ontology.concepts().clone();
    let req = DataRequest {
        service: catalog::services::emergency(),
        purpose: c.emergency_response,
        data: c.wifi_association,
        subjects: SubjectSelector::One(user),
        from: Timestamp::at(0, 8, 0),
        to: Timestamp::at(0, 9, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    };
    let now = Timestamp(clock.now_ms() / MILLIS_PER_SEC);

    // Two primary reads spend the budget; the charges ship to followers.
    for i in 0..2 {
        let response = cluster.read_from(0, &req, now).expect("primary serves");
        let (permitted, b) = basis(&response);
        assert!(permitted, "primary read {i}: {b:?}");
    }
    cluster.tick().expect("ship");
    assert_eq!(
        cluster
            .node_bms(0)
            .quota_used(user, &req.service, req.purpose, now),
        2
    );

    // A follower's read is check-only: it sees the spent budget (denies)
    // without charging anything itself.
    let follower = (0..3).find(|&i| i != cluster.primary()).unwrap();
    let before = cluster
        .node_bms(follower)
        .quota_used(user, &req.service, req.purpose, now);
    assert_eq!(before, 2, "shipped charges reached the follower");
    let response = cluster
        .read_from(follower, &req, now)
        .expect("follower alive");
    if !response.degraded {
        let (permitted, b) = basis(&response);
        assert!(!permitted, "follower must honor the spent budget");
        assert_eq!(b, DecisionBasis::QuotaExceeded);
    }
    assert_eq!(
        cluster
            .node_bms(follower)
            .quota_used(user, &req.service, req.purpose, now),
        before,
        "a follower read must never charge"
    );

    // The primary itself now denies too.
    let (permitted, b) = basis(&cluster.read_from(0, &req, now).expect("primary"));
    assert!(!permitted);
    assert_eq!(b, DecisionBasis::QuotaExceeded);

    // Epoch-fenced failover: the old primary dies; the new primary's
    // ledger came from shipped records — the budget stays spent.
    let old_epoch = cluster.epoch();
    cluster.crash(0);
    let candidate = cluster.best_candidate().expect("survivors are a quorum");
    let new_epoch = cluster.promote(candidate).expect("promote");
    assert!(new_epoch > old_epoch, "failover is epoch-fenced");
    let response = cluster
        .read_from(candidate, &req, now)
        .expect("new primary serves");
    let (permitted, b) = basis(&response);
    assert!(!permitted, "failover reset a disclosure budget");
    assert_eq!(b, DecisionBasis::QuotaExceeded);
    assert_eq!(
        cluster
            .node_bms(candidate)
            .quota_used(user, &req.service, req.purpose, now),
        2,
        "quota counters regressed across failover"
    );
}
