//! Overload storm harness: seeded, bursty open-loop load against the
//! admission-controlled enforcement point, plus slow-consumer and
//! packet-loss legs on the discovery plane.
//!
//! The invariants under a 4× overload storm:
//!
//! * **Emergency is never shed** — life-safety traffic bypasses every
//!   limiter.
//! * **Every shed fails closed** — a typed `DecisionBasis::Overload`
//!   denial, audited, zero records released, response flagged degraded.
//!   Overload never masquerades as a policy decision and never releases
//!   data.
//! * **Goodput holds** — admitted throughput stays within 70% of the
//!   configured admission capacity even when offered 4× that.
//! * **Queues stay bounded** — the IRR fetch mailbox never exceeds its
//!   configured capacity; excess load is pushed back, not buffered.
//!
//! Seeded via `TIPPERS_FAULT_SEED` (CI runs 7, 42 and 4711).

use privacy_aware_buildings::prelude::*;
use tippers::wal::MemLog;
use tippers::{
    AdmissionConfig, AimdConfig, BrownoutLevel, DecisionBasis, Priority, TokenBucketConfig,
};
use tippers::{
    CaptureDropReason, CaptureFilter, FaultPlan, FaultPoint, IngestConfig, Nemesis, StoredRow,
    VirtualClock,
};
use tippers_bench::{gen_policies, gen_storm, service_pool, Lcg, StormConfig};
use tippers_irr::NetError;
use tippers_policy::{PreferenceScope, UserPreference};
use tippers_sensors::{
    DeviceId, LinkConfig, Observation, ObservationPayload, Occupant, SensorLink,
};

fn fault_seed() -> u64 {
    std::env::var("TIPPERS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

const USERS: usize = 10;
const STORM_DURATION_SECS: i64 = 120;

/// Admission sized so the default storm offers roughly 4× its capacity:
/// the storm's mean arrival rate is ~21/s against a 5/s refill.
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        bucket: TokenBucketConfig {
            capacity: 32.0,
            refill_per_sec: 5.0,
        },
        aimd: AimdConfig::default(),
        batch_reserve: 0.25,
        service_time_ms: 5.0,
    }
}

fn storm_bms(admission: Option<AdmissionConfig>) -> Tippers {
    let ontology = Ontology::standard();
    let building = dbh();
    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig {
            admission,
            // The retention sweeper rides the storm: the virtual-time
            // schedule fires from the request path even under overload.
            sweep_every_secs: Some(60),
            ..TippersConfig::default()
        },
    );
    let occupants: Vec<Occupant> = (0..USERS as u64)
        .map(|u| Occupant::new(UserId(u), format!("user-{u}"), UserGroup::GradStudent))
        .collect();
    bms.register_occupants(&occupants);
    bms.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.building,
        bms.ontology(),
    ));
    for p in gen_policies(12, &ontology, &building, &service_pool(3), 11) {
        bms.add_policy(p);
    }
    // Short-retention rows already expired when the storm starts at 9:00:
    // the first scheduled sweep must reap and certify them mid-storm.
    let c = ontology.concepts().clone();
    bms.add_policy(
        tippers_policy::BuildingPolicy::new(
            PolicyId(0),
            "Storm metering",
            building.building,
            c.power_consumption,
            c.energy_management,
        )
        .with_actions(tippers_policy::ActionSet::ALL)
        .with_retention("PT1H".parse().unwrap()),
    );
    let expired: Vec<tippers_sensors::Observation> = (0..USERS as u64)
        .map(|u| tippers_sensors::Observation {
            device: tippers_sensors::DeviceId(u as u32),
            timestamp: Timestamp::at(0, 6, 0),
            space: building.offices[0],
            payload: tippers_sensors::ObservationPayload::PowerReading { watts: 100.0 },
            subject: Some(UserId(u)),
        })
        .collect();
    assert_eq!(bms.ingest(&expired).0, USERS);
    bms
}

#[test]
fn storm_sheds_fail_closed_and_emergency_survives() {
    let seed = fault_seed();
    let ontology = Ontology::standard();
    let start = Timestamp::at(0, 9, 0);
    let storm = gen_storm(
        StormConfig {
            seed,
            duration_secs: STORM_DURATION_SECS,
            ..StormConfig::default()
        },
        &ontology,
        USERS,
        start,
    );
    let offered = storm.len();
    let config = admission();
    let capacity =
        config.bucket.capacity + config.bucket.refill_per_sec * STORM_DURATION_SECS as f64;
    assert!(
        offered as f64 >= 3.5 * capacity,
        "storm must offer ~4x admission capacity: offered {offered}, capacity {capacity}"
    );

    let mut bms = storm_bms(Some(config));
    let mut goodput = 0usize;
    let mut sheds = 0usize;
    let mut max_level = BrownoutLevel::Normal;
    for arrival in &storm {
        let response = bms.handle_request(&arrival.request, arrival.at);
        assert!(
            !response.results.is_empty(),
            "every request is answered, even when shed"
        );
        let shed = response
            .results
            .iter()
            .any(|r| r.decision.basis == DecisionBasis::Overload);
        if shed {
            sheds += 1;
            assert_ne!(
                arrival.request.priority,
                Priority::Emergency,
                "Emergency must never be shed (seed {seed})"
            );
            assert!(response.degraded, "shed responses are flagged degraded");
            for r in &response.results {
                assert_eq!(r.decision.basis, DecisionBasis::Overload);
                assert_eq!(r.decision.effect, Effect::Deny, "sheds fail closed");
                assert!(r.records.is_empty(), "sheds never release data");
            }
        } else {
            goodput += 1;
        }
        max_level = max_level.max(bms.brownout_level());
    }

    let stats = bms.admission_stats().expect("admission is configured");
    assert_eq!(
        stats.shed_for(Priority::Emergency),
        0,
        "zero Emergency sheds (seed {seed})"
    );
    assert!(sheds > 0, "a 4x storm must shed something");
    assert_eq!(goodput + sheds, offered);
    assert!(
        goodput as f64 >= 0.7 * capacity,
        "goodput {goodput} under 4x overload must hold >= 70% of capacity {capacity} (seed {seed})"
    );
    // Priority shedding: Batch is shed at least as aggressively as
    // Interactive (the batch reserve refuses Batch while Interactive
    // still gets tokens).
    let shed_rate = |p: Priority| {
        let total = stats.admitted_for(p) + stats.shed_for(p);
        stats.shed_for(p) as f64 / total.max(1) as f64
    };
    assert!(
        shed_rate(Priority::Batch) >= shed_rate(Priority::Interactive),
        "Batch must shed first (seed {seed})"
    );
    // The brownout ladder engaged and its escalations were audited as
    // health degradation, not hidden.
    assert!(
        max_level > BrownoutLevel::Normal,
        "a 4x storm must engage the brownout ladder (seed {seed})"
    );
    // Every shed produced a typed Overload audit record.
    let audited_sheds = bms
        .decisions()
        .expect("the decision record verifies")
        .iter()
        .filter(|e| e.basis == DecisionBasis::Overload)
        .count();
    assert_eq!(audited_sheds, sheds, "every shed is audited (seed {seed})");
    // The scheduled retention sweeper kept running under overload: the
    // expired pre-storm rows were reaped and certified mid-storm, and the
    // tamper-evident journal stayed intact.
    assert!(
        bms.deletion_certificates()
            .iter()
            .map(|cert| cert.rows)
            .sum::<u64>()
            >= USERS as u64,
        "the storm must not starve the sweep schedule (seed {seed})"
    );
    assert!(!bms.sweep_in_progress());
    bms.verify_audit_chain()
        .expect("chain stays verifiable under overload");
}

#[test]
fn expired_deadlines_are_dropped_fail_closed() {
    let mut bms = storm_bms(Some(admission()));
    let ontology = Ontology::standard();
    let c = ontology.concepts();
    let now = Timestamp::at(0, 9, 0);
    let request = DataRequest {
        service: ServiceId::new("svc-late"),
        purpose: c.comfort,
        data: c.location_room,
        subjects: SubjectSelector::One(UserId(1)),
        from: Timestamp(now.seconds() - 3600),
        to: Timestamp(now.seconds() + 1),
        requester_space: None,
        priority: Priority::Interactive,
        deadline: Some(Timestamp(now.seconds() - 1)),
    };
    let response = bms.handle_request(&request, now);
    assert!(response.degraded);
    assert_eq!(response.results.len(), 1);
    assert_eq!(response.results[0].decision.basis, DecisionBasis::Overload);
    assert_eq!(response.results[0].decision.effect, Effect::Deny);
    assert!(response.results[0].records.is_empty());
    let stats = bms.admission_stats().unwrap();
    assert_eq!(stats.shed_for(Priority::Interactive), 1);
}

#[test]
fn without_admission_nothing_is_shed() {
    let seed = fault_seed();
    let ontology = Ontology::standard();
    let start = Timestamp::at(0, 9, 0);
    let storm = gen_storm(
        StormConfig {
            seed,
            duration_secs: 30,
            ..StormConfig::default()
        },
        &ontology,
        USERS,
        start,
    );
    let mut bms = storm_bms(None);
    for arrival in &storm {
        let response = bms.handle_request(&arrival.request, arrival.at);
        assert!(response
            .results
            .iter()
            .all(|r| r.decision.basis != DecisionBasis::Overload));
    }
    assert!(bms.admission_stats().is_none());
    assert_eq!(bms.brownout_level(), BrownoutLevel::Normal);
}

/// Slow-consumer leg: a registry that drains fetches slowly pushes back
/// instead of queueing without bound, and the queue depth never exceeds
/// the configured capacity.
#[test]
fn slow_consumer_registry_keeps_queue_bounded() {
    let seed = fault_seed();
    let building = dbh();
    let mut bus = DiscoveryBus::new(NetworkConfig {
        seed,
        fetch_queue_capacity: 8,
        fetch_service_ms: 500.0,
        ..NetworkConfig::default()
    });
    let irr = bus.add_registry("DBH IRR", building.building);
    bus.registry_mut(irr)
        .unwrap()
        .publish(
            tippers_policy::figures::fig2_document(),
            building.building,
            Timestamp::at(0, 8, 0),
            86_400,
        )
        .unwrap();
    let t0 = Timestamp::at(0, 9, 0);
    let mut rejected = 0usize;
    let mut served = 0usize;
    // A same-instant burst of 50 fetches against a consumer that drains
    // two per second.
    for _ in 0..50 {
        match bus.fetch_near(irr, &building.model, building.offices[0], t0) {
            Ok(_) => served += 1,
            Err(NetError::Backpressure(_)) => rejected += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
        let depth = bus.fetch_queue_depth(irr, t0).unwrap();
        assert!(depth <= 8, "queue depth {depth} exceeded its bound");
    }
    assert_eq!(served, 8, "only the mailbox capacity is accepted at once");
    assert_eq!(rejected, 42, "the rest is pushed back, not buffered");
    assert_eq!(bus.stats().rejected, 42);
    // Virtual time drains the queue: the same client succeeds later.
    let later = t0 + 30;
    assert!(bus
        .fetch_near(irr, &building.model, building.offices[0], later)
        .is_ok());
}

/// Slow-consumer IoTA leg: an assistant polling a backpressured registry
/// falls back to its cached advertisements instead of failing its user.
#[test]
fn backpressured_iota_serves_cached_advertisements() {
    let seed = fault_seed();
    let ontology = Ontology::standard();
    let building = dbh();
    let mut bus = DiscoveryBus::new(NetworkConfig {
        seed,
        fetch_queue_capacity: 2,
        fetch_service_ms: 2_000.0,
        ..NetworkConfig::default()
    });
    let irr = bus.add_registry("DBH IRR", building.building);
    bus.registry_mut(irr)
        .unwrap()
        .publish(
            tippers_policy::figures::fig2_document(),
            building.building,
            Timestamp::at(0, 8, 0),
            86_400,
        )
        .unwrap();
    let mut iota = Iota::new(
        UserId(1),
        UserGroup::GradStudent,
        SensitivityProfile::pragmatist(&ontology),
    );
    let t0 = Timestamp::at(0, 9, 0);
    // First poll fills the cache (the queue has room).
    let fresh = iota.poll(&bus, &building.model, building.offices[0], t0);
    assert!(!fresh.is_empty(), "first poll fetches fresh ads");
    // Saturate the registry's mailbox with a burst of direct fetches.
    while bus
        .fetch_near(irr, &building.model, building.offices[0], t0)
        .is_ok()
    {}
    // The IoTA's own fetch is now pushed back; its retries stay at the
    // same virtual instant, so it must serve from cache instead.
    let under_pressure = iota.poll(&bus, &building.model, building.offices[0], t0 + 1);
    assert_eq!(
        under_pressure.len(),
        fresh.len(),
        "backpressured poll serves cached advertisements"
    );
    assert!(iota.poll_stats().cache_fallbacks > 0);
}

/// Packet-loss leg: the storm's discovery plane loses 30% of fetches on
/// top of a bounded mailbox; polls across advancing time still make
/// progress and the queue bound still holds.
#[test]
fn lossy_bounded_discovery_still_makes_progress() {
    let seed = fault_seed();
    let ontology = Ontology::standard();
    let building = dbh();
    let plan = FaultPlan::seeded(seed).with_fault(FaultPoint::RegistryFetch, 0.3);
    let mut bus = DiscoveryBus::with_fault_plan(
        NetworkConfig {
            seed,
            fetch_queue_capacity: 16,
            fetch_service_ms: 100.0,
            ..NetworkConfig::default()
        },
        plan,
    );
    let irr = bus.add_registry("DBH IRR", building.building);
    bus.registry_mut(irr)
        .unwrap()
        .publish(
            tippers_policy::figures::fig2_document(),
            building.building,
            Timestamp::at(0, 8, 0),
            86_400,
        )
        .unwrap();
    let mut iota = Iota::new(
        UserId(1),
        UserGroup::GradStudent,
        SensitivityProfile::pragmatist(&ontology),
    );
    let t0 = Timestamp::at(0, 9, 0);
    let mut rounds_with_ads = 0usize;
    for i in 0..40i64 {
        let now = t0 + i * 5;
        if !iota
            .poll(&bus, &building.model, building.offices[0], now)
            .is_empty()
        {
            rounds_with_ads += 1;
        }
        let depth = bus.fetch_queue_depth(irr, now).unwrap();
        assert!(depth <= 16, "queue depth {depth} exceeded its bound");
    }
    assert!(
        rounds_with_ads >= 30,
        "lossy + bounded discovery still served {rounds_with_ads}/40 rounds (seed {seed})"
    );
}

/// Sensor-firehose leg: an observation storm offered at 4× the capture
/// pipeline's mailbox capacity, through a bounded sensor link with capped
/// retry, while the capture nemesis interleaves torn group commits, link
/// drops and fsync stalls. The invariants mirror the request-path storm:
///
/// * **Queues stay bounded** — the link and every per-zone mailbox hold
///   their configured caps; overload becomes audited drops, not memory.
/// * **Zero raw stores** — no stored row violates the capture filter,
///   and identity-bearing rows never land outside the Emergency subtree
///   while the ladder is engaged.
/// * **Emergency zones are never degraded** — no ladder suppression
///   inside the Required emergency policy's subtree, and its rows keep
///   full fidelity.
/// * **Goodput holds** — ≥ 70% of admitted observations are durably
///   stored despite the ladder and the nemesis.
#[test]
fn sensor_firehose_degrades_on_the_ladder_and_stores_no_raw_rows() {
    const MAILBOX: usize = 32;
    const ROUNDS: usize = 40;
    const OVERLOAD: usize = 4;
    let seed = fault_seed();
    let ontology = Ontology::standard();
    let building = dbh();
    let c = ontology.concepts().clone();
    let plan = FaultPlan::seeded(seed);
    let mut nemesis = Nemesis::new(seed, 1, plan.clone(), VirtualClock::new());

    let log = MemLog::new();
    let (mut bms, _) = Tippers::open_with(
        Box::new(log.clone()),
        ontology.clone(),
        building.model.clone(),
        TippersConfig {
            ingest: Some(IngestConfig {
                mailbox_capacity: MAILBOX,
                batch_max: 16,
                ..IngestConfig::default()
            }),
            fault_plan: plan.clone(),
            ..TippersConfig::default()
        },
    )
    .expect("open");
    let occupants: Vec<Occupant> = (0..USERS as u64)
        .map(|u| Occupant::new(UserId(u), format!("user-{u}"), UserGroup::GradStudent))
        .collect();
    bms.register_occupants(&occupants);
    // Everything is storable (the ladder, not authorization, is under
    // test); the Required emergency policy covers only floor 0, so its
    // subtree is essential and the rest of the building degrades.
    bms.add_policy(
        tippers_policy::BuildingPolicy::new(
            PolicyId(0),
            "Firehose telemetry baseline",
            building.building,
            c.data,
            c.logging,
        )
        .with_actions(tippers_policy::ActionSet::of(&[
            tippers_policy::DataAction::Collect,
            tippers_policy::DataAction::Store,
        ]))
        .with_retention("PT4H".parse().unwrap())
        .with_modality(tippers_policy::Modality::OptOut),
    );
    bms.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.floors[0],
        &ontology,
    ));
    // Occupant 0 opts out of location capture: their MAC must never be
    // stored, raw stream or not.
    bms.submit_preference(
        UserPreference::new(
            PreferenceId(7_000),
            occupants[0].user,
            PreferenceScope {
                data: Some(c.location),
                ..PreferenceScope::default()
            },
            Effect::Deny,
        ),
        Timestamp::at(0, 8, 0),
    );
    let macs: std::collections::HashMap<UserId, tippers_sensors::MacAddress> =
        occupants.iter().map(|o| (o.user, o.mac)).collect();
    let filter = CaptureFilter::derive(&ontology, bms.policies(), bms.preferences(), &macs);
    assert_eq!(filter.suppressed_macs(), [occupants[0].mac]);

    // One essential zone (floor 0) and three that must degrade.
    let essential_zone = building.offices[0];
    assert!(filter.essential_zone(&building.model, essential_zone));
    let degraded_zones: Vec<_> = building
        .offices
        .iter()
        .copied()
        .filter(|&z| !filter.essential_zone(&building.model, z))
        .take(3)
        .collect();
    assert_eq!(degraded_zones.len(), 3);
    let zones: Vec<_> = std::iter::once(essential_zone)
        .chain(degraded_zones.iter().copied())
        .collect();

    // ~20% of the stream carries identity (camera frames, WiFi MACs —
    // including the suppressed one); the rest is essential telemetry.
    let mut lcg = Lcg(seed ^ 0xF1DE);
    let mut link = SensorLink::with_fault_plan(
        LinkConfig {
            capacity: zones.len() * MAILBOX * OVERLOAD * 2,
            max_attempts: 3,
        },
        plan.clone(),
    );
    let mut offered: Vec<Observation> = Vec::new();
    let mut pipeline_offered = 0u64;
    for round in 0..ROUNDS {
        if round % 4 == 0 {
            let _ = nemesis.storm_step();
        }
        let t0 = Timestamp::at(0, 9, 0) + (round as i64) * 10;
        let mut burst = Vec::new();
        for &zone in &zones {
            for i in 0..MAILBOX * OVERLOAD {
                let t = t0 + i as i64 % 10;
                let who = &occupants[1 + lcg.below(occupants.len() - 1)];
                let payload = match lcg.below(10) {
                    0 => ObservationPayload::CameraFrame {
                        occupant_count: 1 + lcg.below(4) as u32,
                        identified: vec![who.user],
                    },
                    1 => ObservationPayload::WifiAssociation {
                        mac: if lcg.below(4) == 0 {
                            occupants[0].mac
                        } else {
                            who.mac
                        },
                        ap: DeviceId(40),
                    },
                    2..=5 => ObservationPayload::Temperature {
                        celsius: 20.0 + lcg.unit(),
                    },
                    _ => ObservationPayload::Motion {
                        detected: lcg.below(2) == 0,
                    },
                };
                burst.push(Observation {
                    device: DeviceId(41),
                    timestamp: t,
                    space: zone,
                    payload,
                    subject: None,
                });
            }
        }
        offered.extend(burst.iter().cloned());
        link.offer(burst);
        link.pump(|sent| {
            pipeline_offered += sent.len() as u64;
            bms.ingest_batched(&sent, round as i64).rejected
        });
        // Bounded everywhere, every round.
        let pipeline = bms.ingest_pipeline().unwrap();
        assert_eq!(pipeline.max_depth(), 0, "mailboxes drain within the call");
        for (_, mb) in pipeline.mailbox_stats() {
            assert!(mb.high_watermark <= MAILBOX, "mailbox bound violated");
        }
        assert!(link.depth() <= link.config().capacity);
    }
    nemesis.quiesce();

    let stats = bms.ingest_stats().unwrap();
    // The storm really offered ~4× what the bounded pipeline admitted.
    assert!(
        pipeline_offered >= 3 * stats.admitted,
        "storm must overload the pipeline: offered {pipeline_offered}, admitted {} (seed {seed})",
        stats.admitted
    );
    assert!(
        stats.admitted as usize >= ROUNDS * zones.len() * MAILBOX / 2,
        "the pipeline must keep admitting under the nemesis: {} (seed {seed})",
        stats.admitted
    );
    // The ladder engaged: suppress-rung observations and audited
    // degradation drops exist.
    assert!(
        stats.rung_observations[2] > 0,
        "a 4x firehose must reach the suppress rung (seed {seed})"
    );
    assert!(stats.suppressed > 0);

    // Zero raw stores: nothing the capture filter suppresses was stored,
    // and identity-bearing rows only ever landed in the essential subtree
    // (every degraded zone ran at the suppress rung throughout).
    let rows: Vec<StoredRow> = bms.store().iter().cloned().collect();
    assert!(!rows.is_empty());
    for row in &rows {
        if let Some(mac) = row.observation.payload.mac() {
            assert_ne!(mac, occupants[0].mac, "capture-suppressed MAC stored");
        }
        let identity_bearing = matches!(
            row.observation.payload,
            ObservationPayload::WifiAssociation { .. } | ObservationPayload::BadgeSwipe { .. }
        ) || matches!(
            &row.observation.payload,
            ObservationPayload::CameraFrame { identified, .. } if !identified.is_empty()
        );
        if identity_bearing {
            assert!(
                filter.essential_zone(&building.model, row.observation.space),
                "identity row stored outside the Emergency subtree under \
                 overload: {row:?} (seed {seed})"
            );
        }
    }

    // Emergency zones are never degraded: no ladder drop inside the
    // subtree, and its identity rows kept full fidelity (camera
    // identifications intact — nothing was coarsened away).
    let drops = bms.capture_drops();
    assert!(
        drops
            .iter()
            .filter(|d| d.reason == CaptureDropReason::Degraded)
            .all(|d| !filter.essential_zone(&building.model, d.zone)),
        "ladder suppression inside the Emergency subtree (seed {seed})"
    );
    let essential_cameras = rows
        .iter()
        .filter(|r| r.observation.space == essential_zone)
        .filter(|r| {
            matches!(
                &r.observation.payload,
                ObservationPayload::CameraFrame { identified, .. } if !identified.is_empty()
            )
        })
        .count();
    assert!(
        essential_cameras > 0,
        "the essential zone must keep storing full-fidelity identity (seed {seed})"
    );

    // Goodput: ≥ 70% of what the bounded pipeline admitted was durably
    // stored, despite suppress-rung shedding and the nemesis.
    assert!(
        stats.stored * 10 >= stats.admitted * 7,
        "goodput {}/{} fell under 70% (seed {seed})",
        stats.stored,
        stats.admitted
    );
    // Every admitted observation reached an audited terminal outcome.
    assert_eq!(
        stats.admitted,
        stats.stored
            + stats.suppressed
            + stats.unauthorized
            + stats.unadmitted
            + drops
                .iter()
                .filter(|d| d.reason == CaptureDropReason::CaptureFilter)
                .count() as u64,
        "capture accounting must balance (seed {seed})"
    );
    // And the link never buffered without bound.
    let link_stats = link.stats();
    assert!(link_stats.high_watermark <= link.config().capacity);
    assert_eq!(link_stats.offered as usize, offered.len());

    // A crash after the storm recovers a clean record-boundary prefix of
    // the runtime store — torn group commits truncate, stalled ones left
    // no trace.
    log.crash();
    let (recovered, _) = Tippers::open_with(
        Box::new(log.clone()),
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    )
    .expect("recovery");
    let recovered_rows: Vec<StoredRow> = recovered.store().iter().cloned().collect();
    assert!(
        recovered_rows.len() <= rows.len() && recovered_rows == rows[..recovered_rows.len()],
        "recovery must land on a prefix of the runtime store (seed {seed})"
    );
}
