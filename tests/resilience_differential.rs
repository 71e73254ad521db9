//! Differential fail-closed test: a faulty BMS run must never release data
//! a healthy run would not have released.
//!
//! Two identical BMS instances process the same occupants, observations,
//! preferences, and request grid. One runs with a disarmed fault plan; the
//! other with injected enforcement-engine build failures and store-write
//! losses. The faulty run's permits must be a subset of the healthy run's,
//! and every *extra* denial must carry an explicit internal-error audit
//! record inside a degraded-mode response — fail-closed, never fail-open,
//! and never silently.

use std::collections::HashSet;

use privacy_aware_buildings::prelude::*;
use tippers::{AggregateRequest, DataResponse, DecisionBasis, FaultPlan, FaultPoint, HealthStatus};

fn fault_seed() -> u64 {
    std::env::var("TIPPERS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// One permit/deny outcome at a labeled grid point.
#[derive(Debug, Clone)]
struct GridOutcome {
    wave: &'static str,
    request: &'static str,
    user: UserId,
    permitted: bool,
    basis: DecisionBasis,
    response_degraded: bool,
}

fn simulator(ontology: &Ontology) -> BuildingSimulator {
    BuildingSimulator::new(
        SimulatorConfig {
            seed: 7,
            population: Population {
                staff: 2,
                faculty: 2,
                grads: 3,
                undergrads: 3,
                visitors: 0,
            },
            tick_secs: 600,
            ..SimulatorConfig::default()
        },
        ontology,
    )
}

/// Builds a BMS over `plan`, runs the shared scenario, and returns every
/// grid outcome plus the BMS for audit inspection.
fn run_scenario(plan: FaultPlan) -> (Vec<GridOutcome>, Tippers) {
    let ontology = Ontology::standard();
    let c = ontology.concepts().clone();
    let mut sim = simulator(&ontology);
    let building = sim.dbh().clone();
    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig {
            fault_plan: plan,
            ..TippersConfig::default()
        },
    );
    bms.register_occupants(sim.occupants());
    bms.add_policy(catalog::policy1_thermostat(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    bms.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    let users: Vec<UserId> = sim.occupants().iter().map(|o| o.user).collect();
    // The first two occupants opt out of location sharing.
    for &user in users.iter().take(2) {
        bms.submit_preference(
            catalog::preference2_no_location(PreferenceId(0), user, &ontology),
            Timestamp::at(0, 7, 0),
        );
    }
    // A morning of sensor data.
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 10, 0));
    bms.ingest(&trace.observations);

    // The request grid: two request shapes, everyone, two waves — the
    // first while any injected enforcer-build outage is still active, the
    // second after recovery.
    let mut out = Vec::new();
    for (wave, at) in [
        ("outage", Timestamp::at(0, 10, 30)),
        ("recovered", Timestamp::at(0, 11, 0)),
    ] {
        for &user in &users {
            let requests = [
                (
                    "emergency-locate",
                    DataRequest {
                        service: catalog::services::emergency(),
                        purpose: c.emergency_response,
                        data: c.wifi_association,
                        subjects: SubjectSelector::One(user),
                        from: Timestamp::at(0, 8, 0),
                        to: at,
                        requester_space: None,
                        priority: Default::default(),
                        deadline: None,
                    },
                ),
                (
                    "concierge-navigation",
                    DataRequest {
                        service: catalog::services::concierge(),
                        purpose: c.navigation,
                        data: c.location,
                        subjects: SubjectSelector::One(user),
                        from: Timestamp::at(0, 8, 0),
                        to: at,
                        requester_space: None,
                        priority: Default::default(),
                        deadline: None,
                    },
                ),
            ];
            for (label, request) in requests {
                let response: DataResponse = bms.handle_request(&request, at);
                let result = &response.results[0];
                out.push(GridOutcome {
                    wave,
                    request: label,
                    user,
                    permitted: result.decision.permits(),
                    basis: result.decision.basis.clone(),
                    response_degraded: response.degraded,
                });
            }
        }
    }
    (out, bms)
}

#[test]
fn faulty_run_permits_are_a_subset_of_healthy_permits() {
    let (healthy, healthy_bms) = run_scenario(FaultPlan::disarmed());
    assert_eq!(healthy_bms.health(), HealthStatus::Healthy);
    assert_eq!(healthy_bms.degraded_events(), 0);

    // Inject: the enforcement engine fails every (re)build attempt through
    // the ingest (1 consultation) and the whole first request wave
    // (10 users x 2 requests), then heals; and half of all store writes
    // are lost for the whole run.
    let plan = FaultPlan::seeded(fault_seed());
    plan.arm_limited(FaultPoint::EnforcerBuild, 1.0, 21);
    plan.arm(FaultPoint::StoreWrite, 0.5);
    let (faulty, faulty_bms) = run_scenario(plan.clone());

    assert_eq!(healthy.len(), faulty.len(), "identical grids");
    let healthy_permits: HashSet<(&str, &str, UserId)> = healthy
        .iter()
        .filter(|o| o.permitted)
        .map(|o| (o.wave, o.request, o.user))
        .collect();

    let faulty_decisions = faulty_bms.decisions().expect("decision record");
    let mut extra_denials = 0usize;
    for (h, f) in healthy.iter().zip(&faulty) {
        assert_eq!((h.wave, h.request, h.user), (f.wave, f.request, f.user));
        // THE invariant: injected faults may only remove permits, never
        // add them.
        if f.permitted {
            assert!(
                healthy_permits.contains(&(f.wave, f.request, f.user)),
                "fail-open: faulty run released {:?}/{:?} for {:?} which the \
                 healthy run denied",
                f.wave,
                f.request,
                f.user,
            );
        } else if h.permitted {
            // Every extra denial is explicit: internal-error basis, inside
            // a response flagged as degraded.
            extra_denials += 1;
            assert_eq!(
                f.basis,
                DecisionBasis::InternalError,
                "extra denial must be audited as an internal error, not \
                 disguised as a policy decision"
            );
            assert!(
                f.response_degraded,
                "a fail-closed denial must ride in a degraded response"
            );
            assert!(
                faulty_decisions
                    .iter()
                    .any(|e| e.subject == f.user && e.basis == DecisionBasis::InternalError),
                "extra denial for {:?} has no InternalError audit record",
                f.user
            );
        }
    }
    assert!(
        extra_denials > 0,
        "the injected outage should actually have denied something"
    );
    // Both injected fault classes actually fired and were observed.
    assert_eq!(plan.injected(FaultPoint::EnforcerBuild), 21);
    assert!(faulty_bms.store_write_failures() > 0);
    assert_eq!(faulty_bms.degraded_events(), 1, "one degraded episode");
    // After the outage the BMS recovered.
    assert_eq!(faulty_bms.health(), HealthStatus::Healthy);
    // Recovered-wave outcomes are decision-identical to the healthy run.
    for (h, f) in healthy.iter().zip(&faulty) {
        if f.wave == "recovered" {
            assert_eq!(h.permitted, f.permitted, "recovery restores decisions");
        }
    }
}

/// Admission control is load shedding, not a policy change: under ANY
/// admission configuration, the permits granted are a subset of what an
/// unlimited-capacity run grants over the same storm, every lost permit
/// is an explicit `Overload` denial in a degraded response, and Emergency
/// decisions are identical in both runs.
#[test]
fn admission_permits_are_a_subset_of_unlimited_permits() {
    use tippers::{AdmissionConfig, AimdConfig, Priority, TokenBucketConfig};
    use tippers_bench::{gen_storm, StormConfig};

    let ontology = Ontology::standard();
    let build = |admission: Option<AdmissionConfig>| {
        let sim = simulator(&ontology);
        let building = sim.dbh().clone();
        let mut bms = Tippers::new(
            ontology.clone(),
            building.model.clone(),
            TippersConfig {
                admission,
                ..TippersConfig::default()
            },
        );
        bms.register_occupants(sim.occupants());
        bms.add_policy(catalog::policy1_thermostat(
            PolicyId(0),
            building.building,
            &ontology,
        ));
        bms.add_policy(catalog::policy2_emergency_location(
            PolicyId(0),
            building.building,
            &ontology,
        ));
        let users: Vec<UserId> = sim.occupants().iter().map(|o| o.user).collect();
        for &user in users.iter().take(2) {
            bms.submit_preference(
                catalog::preference2_no_location(PreferenceId(0), user, &ontology),
                Timestamp::at(0, 7, 0),
            );
        }
        bms
    };
    let storm = gen_storm(
        StormConfig {
            seed: fault_seed(),
            duration_secs: 60,
            ..StormConfig::default()
        },
        &ontology,
        10,
        Timestamp::at(0, 9, 0),
    );

    let replay = |bms: &mut Tippers| -> Vec<(bool, DecisionBasis, bool)> {
        storm
            .iter()
            .map(|arrival| {
                let response = bms.handle_request(&arrival.request, arrival.at);
                let r = &response.results[0];
                (
                    r.decision.permits(),
                    r.decision.basis.clone(),
                    response.degraded,
                )
            })
            .collect()
    };
    let mut unlimited_bms = build(None);
    let unlimited = replay(&mut unlimited_bms);

    let configurations = [
        AdmissionConfig::default(),
        // Starved: one-token burst, trickle refill.
        AdmissionConfig {
            bucket: TokenBucketConfig {
                capacity: 1.0,
                refill_per_sec: 0.5,
            },
            ..AdmissionConfig::default()
        },
        // Batch-hostile: most of the bucket is reserved away from Batch.
        AdmissionConfig {
            bucket: TokenBucketConfig {
                capacity: 16.0,
                refill_per_sec: 4.0,
            },
            batch_reserve: 0.9,
            ..AdmissionConfig::default()
        },
        // Tight concurrency ceiling.
        AdmissionConfig {
            aimd: AimdConfig {
                min_limit: 1,
                max_limit: 1,
                initial_limit: 1,
                ..AimdConfig::default()
            },
            ..AdmissionConfig::default()
        },
    ];
    for (ci, config) in configurations.into_iter().enumerate() {
        let mut bms = build(Some(config));
        let limited = replay(&mut bms);
        assert_eq!(limited.len(), unlimited.len());
        for (i, (limited_out, unlimited_out)) in limited.iter().zip(&unlimited).enumerate() {
            let (l_permit, l_basis, l_degraded) = limited_out;
            let (u_permit, _, _) = unlimited_out;
            // THE invariant: admission may only remove permits.
            if *l_permit {
                assert!(
                    u_permit,
                    "config {ci}: admission run released arrival {i} which the \
                     unlimited run denied (fail-open)"
                );
            } else if *u_permit {
                assert_eq!(
                    *l_basis,
                    DecisionBasis::Overload,
                    "config {ci}: lost permit {i} must be an explicit Overload shed"
                );
                assert!(
                    l_degraded,
                    "config {ci}: a shed must ride in a degraded response"
                );
            }
            // Emergency is never shed: decisions match the unlimited run.
            if storm[i].request.priority == Priority::Emergency {
                assert_eq!(
                    l_permit, u_permit,
                    "config {ci}: Emergency arrival {i} diverged from the \
                     unlimited run"
                );
            }
        }
        let stats = bms.admission_stats().expect("admission configured");
        assert_eq!(stats.shed_for(Priority::Emergency), 0);
    }
}

/// Failover is decision-transparent: a replica promoted after the primary
/// crashes serves, over the replayed shared prefix, *byte-identical*
/// audited decisions to the ones the old primary served — same subjects,
/// same effects, same bases, bit for bit through the serialized audit.
#[test]
fn promoted_replica_serves_byte_identical_decisions_after_failover() {
    use privacy_aware_buildings::policy::BuildingPolicy;
    use tippers::replication::{Cluster, ReplicationConfig, WriteOutcome};
    use tippers::{VirtualClock, MILLIS_PER_SEC};

    let ontology = Ontology::standard();
    let c = ontology.concepts().clone();
    let mut sim = simulator(&ontology);
    let building = sim.dbh().clone();
    let occupants = sim.occupants().to_vec();
    let users: Vec<UserId> = occupants.iter().map(|o| o.user).collect();
    let clock = VirtualClock::at_ms(Timestamp::at(0, 8, 0).0 * MILLIS_PER_SEC);
    let mut cluster = Cluster::new(
        ReplicationConfig::default(),
        FaultPlan::disarmed(),
        clock.clone(),
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
        occupants,
    )
    .expect("cluster boot");

    // Commit the shared scenario: catalog policies (thermostat carrying
    // the Figure-4 location setting), two opt-outs, a morning of sensor
    // data, and one explicit setting choice.
    let p1 = catalog::policy1_thermostat(PolicyId(0), building.building, &ontology)
        .with_setting(BuildingPolicy::location_setting());
    let p2 = catalog::policy2_emergency_location(PolicyId(0), building.building, &ontology);
    let mut pid = PolicyId(0);
    let outcome = cluster
        .write_to(0, |bms| {
            pid = bms.add_policy(p1);
            bms.add_policy(p2);
        })
        .expect("seed policies");
    assert!(matches!(outcome, WriteOutcome::Committed { .. }));
    for &user in users.iter().take(2) {
        let ont = ontology.clone();
        cluster
            .write_to(0, move |bms| {
                bms.submit_preference(
                    catalog::preference2_no_location(PreferenceId(0), user, &ont),
                    Timestamp::at(0, 7, 0),
                );
            })
            .expect("seed preference");
    }
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 10, 0));
    cluster
        .write_to(0, |bms| {
            bms.ingest(&trace.observations);
        })
        .expect("seed observations");
    let u = users[2];
    let outcome = cluster
        .write_to(0, move |bms| {
            let _ = bms.apply_setting_choice(u, pid, "location-sensing", 1);
        })
        .expect("setting choice");
    assert!(matches!(outcome, WriteOutcome::Committed { .. }));

    // The old primary serves the full request grid; its decision record
    // is the reference transcript.
    let at = Timestamp::at(0, 10, 30);
    let mut requests = Vec::new();
    for &user in &users {
        requests.push(DataRequest {
            service: catalog::services::emergency(),
            purpose: c.emergency_response,
            data: c.wifi_association,
            subjects: SubjectSelector::One(user),
            from: Timestamp::at(0, 8, 0),
            to: at,
            requester_space: None,
            priority: Default::default(),
            deadline: None,
        });
        requests.push(DataRequest {
            service: catalog::services::concierge(),
            purpose: c.navigation,
            data: c.location,
            subjects: SubjectSelector::One(user),
            from: Timestamp::at(0, 8, 0),
            to: at,
            requester_space: None,
            priority: Default::default(),
            deadline: None,
        });
    }
    for request in &requests {
        cluster.read_from(0, request, at).expect("primary serves");
    }
    let served = cluster
        .node_bms(0)
        .decisions()
        .expect("primary's decision record");
    let reference = serde_json::to_string(&served)
        .expect("serialize reference audit")
        .into_bytes();
    let prefix = cluster.frames(0).to_vec();

    // Crash the primary; promote the best replica; it must hold the full
    // committed prefix (every seeding write committed, so nothing above
    // relied on the dead node).
    cluster.crash(0);
    let candidate = cluster.best_candidate().expect("quorum alive");
    assert_ne!(candidate, 0);
    cluster.promote(candidate).expect("failover");
    assert_eq!(
        &cluster.frames(candidate)[..prefix.len()],
        &prefix[..],
        "promoted replica must hold the old primary's durable prefix"
    );

    // The promoted replica answers the same grid. Byte-identical audit:
    // replicas replay records through the same deterministic path, so
    // enforcement sees exactly the state the old primary saw.
    for request in &requests {
        cluster
            .read_from(candidate, request, at)
            .expect("new primary serves");
    }
    let served = cluster
        .node_bms(candidate)
        .decisions()
        .expect("promoted replica's decision record");
    let replayed = serde_json::to_string(&served)
        .expect("serialize replayed audit")
        .into_bytes();
    assert_eq!(
        reference, replayed,
        "failover changed an audited decision on the shared prefix"
    );
}

/// Aggregates fail closed too: during the outage every subject is excluded
/// (k-anonymity then suppresses the buckets) and the response says so.
#[test]
fn degraded_aggregates_exclude_everyone_and_say_so() {
    let ontology = Ontology::standard();
    let c = ontology.concepts().clone();
    let plan = FaultPlan::seeded(fault_seed());
    let mut sim = simulator(&ontology);
    let building = sim.dbh().clone();
    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig {
            fault_plan: plan.clone(),
            k_anonymity: 2,
            ..TippersConfig::default()
        },
    );
    bms.register_occupants(sim.occupants());
    bms.add_policy(catalog::policy1_thermostat(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    bms.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    // Authorize sharing occupancy for analytics, so that in a *healthy*
    // run subjects are not excluded from aggregates.
    bms.add_policy(
        tippers_policy::BuildingPolicy::new(
            PolicyId(0),
            "Occupancy analytics",
            building.building,
            c.occupancy,
            c.analytics,
        )
        .with_actions(tippers_policy::ActionSet::of(&[
            tippers_policy::DataAction::Share,
        ])),
    );
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 10, 0));
    let (stored, _) = bms.ingest(&trace.observations); // healthy ingest
    assert!(stored > 0);
    // A routine preference submission patches the engine built by the
    // ingest. The injected fault breaks that patch, which drops the
    // engine, and then the rebuild at the next query; the query after
    // that rebuilds cleanly.
    plan.arm_limited(FaultPoint::EnforcerBuild, 1.0, 2);
    bms.submit_preference(
        catalog::preference2_no_location(PreferenceId(0), sim.occupants()[0].user, &ontology),
        Timestamp::at(0, 10, 5),
    );
    let request = AggregateRequest {
        service: catalog::services::smart_meeting(),
        purpose: c.analytics,
        space: building.building,
        from: Timestamp::at(0, 8, 0),
        to: Timestamp::at(0, 10, 0),
        bucket_secs: 1800,
    };
    // During the outage: degraded, everyone excluded, nothing released.
    let during = bms.handle_aggregate(&request, Timestamp::at(0, 10, 15));
    assert!(during.degraded);
    assert!(during.excluded_subjects > 0);
    assert!(
        during.buckets.iter().all(|b| b.count.is_none()),
        "no aggregate may be released while failing closed"
    );
    // After recovery the same request succeeds and is not degraded.
    let after = bms.handle_aggregate(&request, Timestamp::at(0, 10, 45));
    assert!(!after.degraded);
    assert!(
        after.excluded_subjects < during.excluded_subjects
            || after.buckets.iter().any(|b| b.count.is_some())
    );
}
