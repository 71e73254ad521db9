//! Policy/preference conflict audit: load the paper's Figures 2–4, express
//! all eight worked examples, run the reasoner, and print the audit trail
//! (§III.B and §V.A).
//!
//! ```bash
//! cargo run --example conflict_audit
//! ```

use privacy_aware_buildings::prelude::*;
use tippers_policy::{
    conflict, figures, validate_document, BuildingPolicy, PolicyCodec, PreferenceId,
};

fn main() {
    let ontology = Ontology::standard();
    let building = dbh();

    // Parse and validate the paper's own JSON listings.
    println!("== the paper's figures, parsed ==");
    let fig2 = figures::fig2_document();
    println!(
        "figure 2: `{}`, retention {}",
        fig2.resources[0].info.name,
        fig2.resources[0].retention.unwrap().duration
    );
    for issue in validate_document(&fig2) {
        println!("  validator: {issue}");
    }
    let fig3 = figures::fig3_document();
    println!(
        "figure 3: service `{}` with {} observation(s)",
        fig3.purpose.service_id.as_deref().unwrap_or("?"),
        fig3.observations.len()
    );
    let fig4 = figures::fig4_document();
    println!(
        "figure 4: {} location-sensing option(s)",
        fig4.settings[0].select.len()
    );

    // Import Figure 2 into a normalized policy and set up the catalog.
    let codec = PolicyCodec::new(&ontology, &building.model);
    let imported = codec.from_document(&fig2, 100).expect("imports");
    println!(
        "\nfigure 2 imports as: required={} data={} purpose={}",
        imported[0].is_required(),
        ontology.data.key_of(imported[0].data),
        ontology.purposes.key_of(imported[0].purpose),
    );

    let policies: Vec<BuildingPolicy> = vec![
        catalog::policy1_thermostat(PolicyId(1), building.building, &ontology),
        catalog::policy2_emergency_location(PolicyId(2), building.building, &ontology),
        catalog::policy3_meeting_room_access(
            PolicyId(3),
            building.building,
            building.meeting_rooms.clone(),
            &ontology,
        ),
        catalog::policy4_event_proximity(PolicyId(4), vec![building.lobby], &ontology),
    ];
    let mary = UserId(1);
    let preferences = vec![
        catalog::preference1_afterhours_occupancy(
            PreferenceId(1),
            mary,
            building.offices[0],
            &ontology,
        ),
        catalog::preference2_no_location(PreferenceId(2), mary, &ontology),
        catalog::preference3_concierge_location(PreferenceId(3), mary, &ontology),
        catalog::preference4_smart_meeting(PreferenceId(4), mary, &ontology),
    ];

    println!("\n== conflict analysis (policies 1-4 x preferences 1-4) ==");
    for strategy in [
        ResolutionStrategy::PolicyPrevails,
        ResolutionStrategy::PreferencePrevails,
        ResolutionStrategy::Strictest,
    ] {
        let found = conflict::detect_conflicts_naive(
            &policies,
            &preferences,
            &ontology,
            &building.model,
            strategy,
        );
        println!("strategy {strategy:?}: {} conflict(s)", found.len());
        for c in &found {
            println!(
                "  {} vs {} ({:?}) -> enforce {:?}",
                c.policy, c.preference, c.kind, c.resolved_effect
            );
            println!("    notice: {}", c.notice);
        }
    }

    // Live enforcement trail under the default strategy.
    println!("\n== live audit trail ==");
    let mut bms = Tippers::new(
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    );
    for p in policies {
        bms.add_policy(p);
    }
    register_service(&mut bms, &Concierge::new());
    for p in preferences {
        bms.submit_preference(p, Timestamp::at(0, 9, 0));
    }
    let c = ontology.concepts();
    let _ = bms.locate(
        catalog::services::concierge(),
        c.navigation,
        mary,
        Timestamp::at(0, 12, 0),
    );
    let _ = bms.locate(
        catalog::services::emergency(),
        c.emergency_response,
        mary,
        Timestamp::at(0, 12, 0),
    );
    for e in bms.decisions().expect("the decision record verifies") {
        println!(
            "  {} {} {} -> {:?} ({:?})",
            e.time,
            e.service
                .as_ref()
                .map_or("<internal>", tippers_policy::ServiceId::as_str),
            ontology.data.key_of(e.data),
            e.effect,
            e.basis
        );
    }
    for n in bms.take_notifications(mary) {
        println!("  notification to Mary: {}", n.text);
    }
}
