//! Experiment E1: the complete ten-step interaction of the paper's
//! Figure 1, with a user named Mary.
//!
//! (1) the admin defines policies; (2) sensors capture data about
//! inhabitants; (3) it is stored; (4) policies are published through an
//! IRR; (5) Mary's IoTA discovers the registry and fetches the policies;
//! (6) it notifies her about the relevant ones; (7) it consults her
//! preference model; (8) it configures her privacy settings with TIPPERS;
//! (9) a service asks TIPPERS for Mary's location; (10) the request is
//! processed per her settings.

use privacy_aware_buildings::prelude::*;
use tippers_policy::BuildingPolicy;

#[test]
fn figure1_ten_step_walkthrough() {
    let ontology = Ontology::standard();

    // The building and its sensors (simulated DBH).
    let sim_config = SimulatorConfig {
        seed: 42,
        population: Population {
            staff: 5,
            faculty: 5,
            grads: 8,
            undergrads: 8,
            visitors: 1,
        },
        tick_secs: 600,
        deployment: tippers_sensors::DeploymentConfig {
            cameras: 6,
            wifi_aps: 240,
            beacons: 40,
            power_meters: 20,
            motion_everywhere: true,
            hvac_per_floor: true,
            badge_readers: true,
        },
        identify_probability: 0.3,
    };
    let mut sim = BuildingSimulator::new(sim_config, &ontology);
    let building = sim.dbh().clone();

    // Step 1 — the building admin defines policies in TIPPERS.
    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    bms.register_occupants(sim.occupants());
    bms.add_policy(catalog::policy1_thermostat(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    bms.add_policy(
        catalog::policy2_emergency_location(PolicyId(0), building.building, &ontology)
            .with_setting(BuildingPolicy::location_setting()),
    );
    register_service(&mut bms, &Concierge::new());

    // Steps 2–3 — sensors are actuated, data about inhabitants is
    // captured and stored.
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 11, 0));
    let (stored, dropped) = bms.ingest(&trace.observations);
    assert!(stored > 0, "authorized observations must be stored");
    assert!(
        dropped > 0,
        "practices no policy authorizes (e.g. badge swipes with no \
         access-control policy) must be dropped"
    );

    // Step 4 — policies are made publicly available through an IRR.
    let mut bus = DiscoveryBus::new(NetworkConfig::default());
    let irr = bus.add_registry("DBH IRR", building.building);
    let published = bms
        .publish_policies(&mut bus, irr, Timestamp::at(0, 8, 0))
        .expect("publishing succeeds");
    assert_eq!(published, 3);

    // Mary walks in carrying her smartphone with an IoTA installed. Pick a
    // grad student who is in the building at 11:00.
    let now = Timestamp::at(0, 11, 0);
    let mary = sim
        .occupants()
        .iter()
        .find(|o| o.group == UserGroup::GradStudent)
        .map(|o| o.user)
        .expect("a grad student exists");
    let mary_space = building.offices[0];

    // Steps 5–7 — the IoTA discovers registries near Mary, fetches the
    // machine-readable policies, and notifies her of the relevant ones
    // based on her (privacy-fundamentalist) preference model.
    let mut iota = Iota::new(
        mary,
        UserGroup::GradStudent,
        SensitivityProfile::fundamentalist(&ontology),
    );
    let ads = iota.poll(&bus, &building.model, mary_space, now);
    assert!(!ads.is_empty(), "step 5: the IoTA must discover the IRR");
    let notifications = iota.review(&ads, &ontology, now);
    assert!(
        !notifications.is_empty(),
        "step 6: a location-sensitive user must be notified about \
         WiFi-based location tracking"
    );

    // Step 8 — the IoTA configures Mary's available privacy settings.
    let created = iota.configure(&mut bms).expect("settings apply");
    assert!(!created.is_empty());
    // A fundamentalist opts out of location sensing entirely.
    assert!(bms
        .preferences()
        .iter()
        .any(|p| p.user == mary && p.effect == Effect::Deny));

    // Steps 9–10 — a service requests Mary's location; the request is
    // processed according to her settings: the Concierge is refused...
    let concierge = Concierge::new();
    let err = concierge
        .nearest(&mut bms, mary, RoomUse::Kitchen, now)
        .unwrap_err();
    assert_eq!(err, tippers_services::ConciergeError::LocationUnavailable);

    // ...while the mandatory emergency policy still locates her, and her
    // IoTA is told about the conflict/override (§III.B).
    let emergency = EmergencyResponse::new();
    let roster = emergency.muster(&mut bms, None, now);
    let mary_located = roster.located.iter().any(|(u, _)| *u == mary);
    let mary_unaccounted = roster.unaccounted.contains(&mary);
    assert!(
        mary_located || mary_unaccounted,
        "mary appears in the muster either way"
    );
    let notes = bms.take_notifications(mary);
    assert!(
        !notes.is_empty(),
        "step 8/10: conflict with the mandatory policy must be notified"
    );
}

/// The audit log reflects every step-9/10 decision.
#[test]
fn decisions_are_audited() {
    let ontology = Ontology::standard();
    let building = dbh();
    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    register_service(&mut bms, &Concierge::new());
    let user = UserId(1);
    let c = ontology.concepts();
    let request = tippers::DataRequest {
        service: catalog::services::concierge(),
        purpose: c.navigation,
        data: c.location_room,
        subjects: tippers::SubjectSelector::One(user),
        from: Timestamp::at(0, 0, 0),
        to: Timestamp::at(0, 23, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    };
    let _ = bms.handle_request(&request, Timestamp::at(0, 12, 0));
    let decisions = bms.decisions().expect("the decision record verifies");
    assert_eq!(decisions.iter().filter(|e| e.subject == user).count(), 1);
}
