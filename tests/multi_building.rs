//! Multi-building campus: two buildings with separate BMS instances and
//! IRRs on one discovery bus; an IoTA roams between them, and the facade's
//! decisions match the naive enforcer, the executable specification.

use privacy_aware_buildings::prelude::*;
use tippers::{Enforcer, NaiveEnforcer, RequestFlow};
use tippers_policy::{BuildingPolicy, DataAction, PolicyId, PreferenceId, Timestamp};
use tippers_spatial::{SpaceKind, SpatialModel};

/// One campus model holding two buildings, plus each building's offices.
fn campus() -> (
    SpatialModel,
    Vec<tippers_spatial::SpaceId>,
    Vec<tippers_spatial::SpaceId>,
) {
    let mut model = SpatialModel::new("uci");
    let mut buildings = Vec::new();
    let mut offices = Vec::new();
    for name in ["DBH", "ICS"] {
        let b = model.add_space(name, SpaceKind::Building, model.root());
        let f = model.add_space(format!("{name}-1"), SpaceKind::Floor, b);
        let o = model.add_space(
            format!("{name}-101"),
            SpaceKind::room(tippers_spatial::RoomUse::Office),
            f,
        );
        buildings.push(b);
        offices.push(o);
    }
    (model, buildings, offices)
}

#[test]
fn roaming_iota_sees_each_buildings_policies() {
    let ontology = Ontology::standard();
    let (model, buildings, offices) = campus();

    // Each building runs its own BMS with different policies and its own
    // IRR on the shared discovery bus.
    let mut bus = DiscoveryBus::new(NetworkConfig::default());
    let now = Timestamp::at(0, 8, 0);
    let mut registries = Vec::new();
    for (i, &building) in buildings.iter().enumerate() {
        let mut bms = Tippers::new(ontology.clone(), model.clone(), TippersConfig::default());
        let mut policy = catalog::policy2_emergency_location(PolicyId(0), building, &ontology);
        policy.name = format!("Location tracking in building {i}");
        bms.add_policy(policy);
        let irr = bus.add_registry(format!("irr-{i}"), building);
        bms.publish_policies(&mut bus, irr, now).unwrap();
        registries.push(irr);
    }

    let mut iota = Iota::new(
        UserId(1),
        UserGroup::Faculty,
        SensitivityProfile::fundamentalist(&ontology),
    );
    // In DBH the IoTA sees only DBH's policy...
    let ads0 = iota.poll(&bus, &model, offices[0], now);
    assert_eq!(ads0.len(), 1);
    assert!(ads0[0].1.document.resources[0]
        .info
        .name
        .contains("building 0"));
    let n0 = iota.review(&ads0, &ontology, now);
    assert_eq!(n0.len(), 1);
    // ...walking to ICS it discovers that building's registry and gets a
    // *new* notification (different advertisement).
    let ads1 = iota.poll(&bus, &model, offices[1], now + 600);
    assert_eq!(ads1.len(), 1);
    assert!(ads1[0].1.document.resources[0]
        .info
        .name
        .contains("building 1"));
    let n1 = iota.review(&ads1, &ontology, now + 600);
    assert_eq!(n1.len(), 1);
    // Returning to DBH is quiet: the advertisement was already seen.
    let again = iota.poll(&bus, &model, offices[0], now + 1200);
    assert!(iota.review(&again, &ontology, now + 1200).is_empty());
}

/// Every facade decision equals [`NaiveEnforcer::decide`] over the
/// facade's own policies and preferences — D1's equivalence, checked at
/// the whole-system level rather than the unit level.
#[test]
fn facade_decisions_match_the_naive_enforcer() {
    let ontology = Ontology::standard();
    let building = dbh();
    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    bms.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    bms.add_policy(
        BuildingPolicy::new(
            PolicyId(0),
            "Concierge location",
            building.building,
            ontology.concepts().location_room,
            ontology.concepts().navigation,
        )
        .with_actions(tippers_policy::ActionSet::ALL)
        .with_service(catalog::services::concierge()),
    );
    for user in 0..6u64 {
        if user % 2 == 0 {
            bms.submit_preference(
                catalog::preference2_no_location(PreferenceId(0), UserId(user), &ontology),
                Timestamp::at(0, 8, 0),
            );
        }
        if user % 3 == 0 {
            bms.submit_preference(
                catalog::preference3_concierge_location(PreferenceId(0), UserId(user), &ontology),
                Timestamp::at(0, 8, 0),
            );
        }
    }
    let spec = NaiveEnforcer::new(
        bms.policies().to_vec(),
        bms.preferences().to_vec(),
        TippersConfig::default().strategy,
    );
    let c = ontology.concepts();
    let now = Timestamp::at(0, 12, 0);
    let (mut permits, mut total) = (0, 0);
    for user in 0..6u64 {
        for (purpose, service) in [
            (c.navigation, catalog::services::concierge()),
            (c.delivery, catalog::services::food_delivery()),
            (c.emergency_response, catalog::services::emergency()),
        ] {
            let request = tippers::DataRequest {
                service: service.clone(),
                purpose,
                data: c.location_room,
                subjects: tippers::SubjectSelector::One(UserId(user)),
                from: Timestamp::at(0, 0, 0),
                to: Timestamp::at(1, 0, 0),
                requester_space: None,
                priority: Default::default(),
                deadline: None,
            };
            let response = bms.handle_request(&request, now);
            // The request path's flow for an unlocated subject.
            let flow = RequestFlow {
                subject: UserId(user),
                subject_group: bms.group_of(UserId(user)),
                data: c.location_room,
                purpose,
                service: Some(service),
                action: DataAction::Share,
                time: now,
                subject_space: None,
                requester_space: None,
                room_occupied: None,
            };
            let expected = spec.decide(&flow, &ontology, &building.model);
            assert_eq!(response.results[0].decision, expected, "user {user}");
            permits += usize::from(expected.permits());
            total += 1;
        }
    }
    assert!(
        0 < permits && permits < total,
        "both permits and denials are compared"
    );
}
