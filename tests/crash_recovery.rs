//! Kill-and-restore: a BMS is snapshotted, destroyed, and rebuilt from the
//! serialized snapshot. Stored observations, submitted preferences, and the
//! audit trail all survive; enforcement decisions after recovery are
//! identical to before the crash.

use privacy_aware_buildings::prelude::*;
use tippers::wal::{MemLog, Wal};
use tippers::{Snapshot, SnapshotError, WalConfig, WalError, WalRecord};
use tippers_policy::{ActionSet, BuildingPolicy, DataAction, PreferenceScope, UserPreference};

fn occupancy_analytics_policy(
    building: tippers_spatial::SpaceId,
    ontology: &Ontology,
) -> BuildingPolicy {
    let c = ontology.concepts();
    BuildingPolicy::new(
        PolicyId(0),
        "Occupancy analytics",
        building,
        c.occupancy,
        c.analytics,
    )
    .with_actions(ActionSet::of(&[DataAction::Share]))
}

fn deny_occupancy(user: UserId, ontology: &Ontology) -> UserPreference {
    let c = ontology.concepts();
    UserPreference::new(
        PreferenceId(0),
        user,
        PreferenceScope {
            data: Some(c.occupancy),
            ..Default::default()
        },
        Effect::Deny,
    )
}

#[test]
fn preferences_and_store_survive_a_crash() {
    let ontology = Ontology::standard();
    let c = ontology.concepts().clone();
    let mut sim = BuildingSimulator::new(
        SimulatorConfig {
            seed: 11,
            population: Population {
                staff: 2,
                faculty: 2,
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
    let opted_out = occupants[0].user;
    let other = occupants[1].user;

    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    bms.register_occupants(&occupants);
    bms.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    bms.add_policy(occupancy_analytics_policy(building.building, &ontology));
    bms.submit_preference(deny_occupancy(opted_out, &ontology), Timestamp::at(0, 7, 0));
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 10, 0));
    let (stored, _) = bms.ingest(&trace.observations);
    assert!(stored > 0);

    let request_for = |user: UserId| DataRequest {
        service: catalog::services::smart_meeting(),
        purpose: c.analytics,
        data: c.occupancy,
        subjects: SubjectSelector::One(user),
        from: Timestamp::at(0, 8, 0),
        to: Timestamp::at(0, 10, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    };
    let now = Timestamp::at(0, 10, 30);
    let before_denied = bms.handle_request(&request_for(opted_out), now);
    let before_allowed = bms.handle_request(&request_for(other), now);
    assert_eq!(
        before_denied.results[0].decision.effect,
        Effect::Deny,
        "the opted-out user is denied before the crash"
    );
    assert_eq!(before_allowed.results[0].decision.effect, Effect::Allow);

    // --- crash: serialize the durable state, destroy the BMS ---------------
    let rows_before = bms.store().len();
    let json = bms.snapshot().to_json();
    drop(bms);

    // --- restore: parse the snapshot, re-apply admin configuration ---------
    let snapshot = Snapshot::from_json(&json).expect("snapshot parses");
    let mut restored = Tippers::from_snapshot(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
        snapshot,
    )
    .expect("snapshot restores");
    restored.register_occupants(&occupants);
    restored.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    restored.add_policy(occupancy_analytics_policy(building.building, &ontology));

    // Durable state survived byte-for-byte.
    assert_eq!(restored.store().len(), rows_before);
    assert!(
        !json.contains("\"entries\""),
        "a snapshot carries no decision entries: the audit chain is their record"
    );
    assert!(restored
        .preferences()
        .iter()
        .any(|p| p.user == opted_out && p.effect == Effect::Deny));

    // Decisions after recovery are identical to before the crash.
    let after_denied = restored.handle_request(&request_for(opted_out), now);
    let after_allowed = restored.handle_request(&request_for(other), now);
    assert_eq!(
        after_denied.results[0].decision, before_denied.results[0].decision,
        "the preference still denies after restore"
    );
    assert_eq!(
        after_allowed.results[0].decision,
        before_allowed.results[0].decision
    );
    assert_eq!(
        after_allowed.results[0].records, before_allowed.results[0].records,
        "released records are identical after restore"
    );

    // New preferences keep getting fresh ids (the allocator survived too).
    let new_id = restored.submit_preference(deny_occupancy(other, &ontology), now);
    assert!(
        restored
            .preferences()
            .iter()
            .filter(|p| p.id == new_id)
            .count()
            == 1,
        "restored id allocator must not reuse ids"
    );
}

/// A snapshot from a future format version is refused, not misread.
#[test]
fn foreign_snapshot_versions_are_refused() {
    let ontology = Ontology::standard();
    let building = dbh();
    let bms = Tippers::new(ontology, building.model.clone(), TippersConfig::default());
    let mut snapshot = bms.snapshot();
    snapshot.version += 1;
    let err = Snapshot::from_json(&snapshot.to_json()).unwrap_err();
    assert!(matches!(err, SnapshotError::UnsupportedVersion { .. }));
}

/// `Tippers::from_snapshot` surfaces a future version as a typed error —
/// it never constructs a BMS around state it cannot interpret.
#[test]
fn from_snapshot_refuses_future_versions() {
    let ontology = Ontology::standard();
    let building = dbh();
    let bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    let mut snapshot = bms.snapshot();
    snapshot.version += 3;
    let err = Tippers::from_snapshot(
        ontology,
        building.model.clone(),
        TippersConfig::default(),
        snapshot,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        SnapshotError::UnsupportedVersion { found, supported }
            if found == supported + 3
    ));
}

/// A snapshot whose id allocator trails its own preferences would reissue
/// ids already referenced by audit records; recovery refuses it.
#[test]
fn from_snapshot_refuses_inconsistent_id_allocator() {
    let ontology = Ontology::standard();
    let building = dbh();
    let c = ontology.concepts().clone();
    let bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    let mut snapshot = bms.snapshot();
    snapshot.preferences.push(UserPreference::new(
        PreferenceId(9),
        UserId(1),
        PreferenceScope {
            data: Some(c.occupancy),
            ..Default::default()
        },
        Effect::Deny,
    ));
    snapshot.next_preference_id = 4; // trails preference 9
    let err = Tippers::from_snapshot(
        ontology,
        building.model.clone(),
        TippersConfig::default(),
        snapshot,
    )
    .unwrap_err();
    assert!(matches!(err, SnapshotError::Inconsistent(_)));
}

/// Every malformed-JSON shape decodes to a typed `Corrupt` error — no
/// panic, no unwrap, no partially-constructed snapshot.
#[test]
fn malformed_snapshot_json_is_a_typed_error() {
    let ontology = Ontology::standard();
    let building = dbh();
    let bms = Tippers::new(ontology, building.model.clone(), TippersConfig::default());
    let valid = bms.snapshot().to_json();

    let truncated = &valid[..valid.len() / 2];
    let type_confused = valid.replacen(
        &format!("\"version\":{}", tippers::SNAPSHOT_VERSION),
        "\"version\":\"one\"",
        1,
    );
    assert_ne!(type_confused, valid, "replacement must have matched");
    for malformed in [
        truncated,
        type_confused.as_str(),
        "",
        "{}",
        "null",
        "[1,2,3]",
    ] {
        match Snapshot::from_json(malformed) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("expected Corrupt for {malformed:?}, got {other:?}"),
        }
    }
}

/// Shed (overload) decisions are durable like any other decision: their
/// `Overload` audit entries ride the WAL checkpoint across a crash, and a
/// recovered BMS under the same admission configuration sheds the same
/// request sequence identically.
#[test]
fn shed_decisions_survive_wal_replay_identically() {
    use tippers::{AdmissionConfig, DecisionBasis, Priority, TokenBucketConfig};

    let ontology = Ontology::standard();
    let building = dbh();
    let c = ontology.concepts().clone();
    // One-token bucket with a glacial refill: the second same-instant
    // request is always shed.
    let config = || TippersConfig {
        admission: Some(AdmissionConfig {
            bucket: TokenBucketConfig {
                capacity: 1.0,
                refill_per_sec: 0.001,
            },
            ..AdmissionConfig::default()
        }),
        ..TippersConfig::default()
    };
    let request = DataRequest {
        service: catalog::services::smart_meeting(),
        purpose: c.analytics,
        data: c.occupancy,
        subjects: SubjectSelector::One(UserId(1)),
        from: Timestamp::at(0, 8, 0),
        to: Timestamp::at(0, 10, 0),
        requester_space: None,
        priority: Priority::Interactive,
        deadline: None,
    };
    let now = Timestamp::at(0, 10, 30);
    let run = |bms: &mut Tippers| {
        let admitted = bms.handle_request(&request, now);
        let shed = bms.handle_request(&request, now);
        (admitted, shed)
    };

    let log = MemLog::new();
    let (mut bms, _) = Tippers::open_with(
        Box::new(log.clone()),
        ontology.clone(),
        building.model.clone(),
        config(),
    )
    .expect("fresh log opens");
    bms.add_policy(occupancy_analytics_policy(building.building, &ontology));
    let (before_admitted, before_shed) = run(&mut bms);
    assert_ne!(
        before_admitted.results[0].decision.basis,
        DecisionBasis::Overload
    );
    assert_eq!(
        before_shed.results[0].decision.basis,
        DecisionBasis::Overload,
        "the second same-instant request is shed"
    );
    let audit_before = bms.decisions().expect("the decision record verifies");
    assert!(
        audit_before
            .iter()
            .any(|e| e.basis == DecisionBasis::Overload),
        "the shed is audited under its own basis"
    );
    bms.checkpoint().expect("checkpoint");
    drop(bms);

    // --- crash + replay ----------------------------------------------------
    let (mut restored, _) = Tippers::open_with(
        Box::new(log),
        ontology.clone(),
        building.model.clone(),
        config(),
    )
    .expect("log replays");
    restored.add_policy(occupancy_analytics_policy(building.building, &ontology));
    assert_eq!(
        restored.decisions().expect("the archived record verifies"),
        audit_before,
        "Overload audit entries survive WAL replay byte-for-byte"
    );
    // The recovered BMS (fresh admission state, same configuration)
    // sheds the same sequence identically.
    let (after_admitted, after_shed) = run(&mut restored);
    assert_eq!(
        after_admitted.results[0].decision,
        before_admitted.results[0].decision
    );
    assert_eq!(
        after_shed.results[0].decision, before_shed.results[0].decision,
        "shed decisions replay identically after recovery"
    );
}

/// A checkpoint record claiming a policy id at or above its own allocator
/// is internally inconsistent; WAL replay refuses it with a typed error
/// rather than recovering a BMS that could reissue live policy ids.
#[test]
fn checkpoint_with_inconsistent_policy_ids_fails_replay() {
    let ontology = Ontology::standard();
    let building = dbh();
    let c = ontology.concepts().clone();

    let bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    let rogue = BuildingPolicy::new(
        PolicyId(7),
        "rogue",
        building.building,
        c.occupancy,
        c.analytics,
    );
    let record = WalRecord::Checkpoint {
        snapshot: bms.snapshot(),
        policies: vec![rogue],
        next_policy_id: 2, // trails policy 7
    };
    let log = MemLog::new();
    let (mut wal, _, _) =
        Wal::open(Box::new(log.clone()), WalConfig::default()).expect("fresh log opens");
    wal.append(&record).expect("append");

    let err = Tippers::open_with(
        Box::new(log),
        ontology,
        building.model.clone(),
        TippersConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        WalError::Snapshot(SnapshotError::Inconsistent(_))
    ));
}

/// Decision entries live only on the audit chain: a snapshot that carries
/// any (written by a foreign tool, or hand-edited) is refused as
/// inconsistent, both directly and inside a WAL checkpoint record, rather
/// than restored as a second decision record.
#[test]
fn a_snapshot_carrying_decision_entries_is_refused() {
    let ontology = Ontology::standard();
    let building = dbh();
    let c = ontology.concepts().clone();
    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    let response = bms.handle_request(
        &DataRequest {
            service: catalog::services::smart_meeting(),
            purpose: c.analytics,
            data: c.occupancy,
            subjects: SubjectSelector::One(UserId(1)),
            from: Timestamp::at(0, 8, 0),
            to: Timestamp::at(0, 10, 0),
            requester_space: None,
            priority: Default::default(),
            deadline: None,
        },
        Timestamp::at(0, 10, 0),
    );
    let mut snapshot = bms.snapshot();
    snapshot.audit.record(
        Timestamp::at(0, 10, 0),
        UserId(1),
        None,
        c.occupancy,
        c.analytics,
        &response.results[0].decision,
    );
    let json = snapshot.to_json();
    assert!(json.contains("\"entries\":["), "the entry is serialized");
    let parsed = Snapshot::from_json(&json).expect("a well-formed v2 snapshot");
    let err = Tippers::from_snapshot(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
        parsed.clone(),
    )
    .unwrap_err();
    assert!(matches!(&err, SnapshotError::Inconsistent(why) if why.contains("audit chain")));

    let log = MemLog::new();
    let (mut wal, _, _) =
        Wal::open(Box::new(log.clone()), WalConfig::default()).expect("fresh log opens");
    wal.append(&WalRecord::Checkpoint {
        snapshot: parsed,
        policies: Vec::new(),
        next_policy_id: 1,
    })
    .expect("append");
    let err = Tippers::open_with(
        Box::new(log),
        ontology,
        building.model.clone(),
        TippersConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(
        &err,
        WalError::Snapshot(SnapshotError::Inconsistent(why)) if why.contains("audit chain")
    ));
}

/// Every settings record a durable engine writes names the unit its API
/// call returned, whether this engine's allocator or the caller chose the
/// id — so log readers (replay, replication, incremental relint) never
/// shadow an allocator.
#[test]
fn settings_records_name_the_units_their_calls_returned() {
    let ontology = Ontology::standard();
    let building = dbh();
    let log = MemLog::new();
    let (mut bms, _) = Tippers::open_with(
        Box::new(log.clone()),
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    )
    .expect("fresh log opens");

    let first = bms.add_policy(occupancy_analytics_policy(building.building, &ontology));
    let second = bms.add_policy(
        catalog::policy1_thermostat(PolicyId(99), building.building, &ontology)
            .with_setting(BuildingPolicy::location_setting()),
    );
    let submitted = bms.submit_preference(deny_occupancy(UserId(1), &ontology), Timestamp(10));
    let chosen = bms
        .apply_setting_choice(UserId(2), second, "location-sensing", 2)
        .expect("setting exists");
    let assigned = bms.submit_preference_assigned(
        UserPreference {
            id: PreferenceId(40),
            ..deny_occupancy(UserId(3), &ontology)
        },
        Timestamp(20),
    );
    assert_eq!(
        (first, second, submitted, chosen, assigned),
        (
            PolicyId(0),
            PolicyId(1),
            PreferenceId(0),
            PreferenceId(1),
            PreferenceId(40)
        )
    );
    drop(bms);

    let (_, records, _) = Wal::open(Box::new(log), WalConfig::default()).expect("log reopens");
    let named: Vec<String> = records
        .iter()
        .map(|record| match record {
            WalRecord::AddPolicy { policy } => format!("policy {}", policy.id.0),
            WalRecord::SubmitPreferenceAssigned { preference, .. } => {
                format!("preference {}", preference.id.0)
            }
            WalRecord::SettingChoiceAssigned { policy, id, .. } => {
                format!("choice {} under policy {}", id.0, policy.0)
            }
            other => panic!("unexpected record {other:?}"),
        })
        .collect();
    assert_eq!(
        named,
        [
            "policy 0",
            "policy 1",
            "preference 0",
            "choice 1 under policy 1",
            "preference 40",
        ]
    );
}
