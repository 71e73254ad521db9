//! Pins the allocation-free decision path: once an `IndexedEnforcer` and
//! the ontology's memoized closures are warm, `decide` makes no heap
//! allocation, whichever way the decision goes.
//!
//! Allocations are counted per thread by the counting global allocator in
//! `common`, so other tests running in parallel cannot disturb the count.

use tippers::{DecisionBasis, Enforcer, IndexedEnforcer, RequestFlow};
use tippers_ontology::Ontology;
use tippers_policy::{
    catalog, ActionSet, BuildingPolicy, Effect, PolicyId, PreferenceId, ResolutionStrategy,
    Timestamp, UserGroup, UserId,
};
use tippers_spatial::fixtures::dbh;

mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

#[test]
fn warmed_indexed_decide_allocates_nothing() {
    let ontology = Ontology::standard();
    let dbh = dbh();
    let c = ontology.concepts();
    let concierge = catalog::services::concierge();
    let policies = vec![
        catalog::policy1_thermostat(PolicyId(1), dbh.building, &ontology),
        catalog::policy2_emergency_location(PolicyId(2), dbh.building, &ontology),
        catalog::policy3_meeting_room_access(
            PolicyId(3),
            dbh.building,
            dbh.meeting_rooms.clone(),
            &ontology,
        ),
        catalog::policy4_event_proximity(PolicyId(4), vec![dbh.lobby], &ontology),
        BuildingPolicy::new(
            PolicyId(5),
            "Concierge location",
            dbh.building,
            c.location_fine,
            c.navigation,
        )
        .with_actions(ActionSet::ALL)
        .with_service(concierge.clone()),
    ];
    // User 2 denies all location data; user 1 has said nothing.
    let prefs = vec![catalog::preference2_no_location(
        PreferenceId(2),
        UserId(2),
        &ontology,
    )];
    let enforcer = IndexedEnforcer::new(
        policies,
        prefs,
        ResolutionStrategy::PolicyPrevails,
        &ontology,
    );
    let flow = |user: u64, purpose| {
        RequestFlow::share(
            UserId(user),
            UserGroup::GradStudent,
            c.location_fine,
            purpose,
            Some(concierge.clone()),
            Timestamp::at(0, 12, 0),
        )
        .at_space(dbh.offices[0])
    };
    let cases = [
        (
            "policy-default permit",
            flow(1, c.navigation),
            Effect::Allow,
            DecisionBasis::PolicyDefault(PolicyId(5)),
        ),
        (
            "preference-decided deny",
            flow(2, c.navigation),
            Effect::Deny,
            DecisionBasis::Preference(PreferenceId(2)),
        ),
        (
            "no authorizing policy",
            flow(1, c.marketing),
            Effect::Deny,
            DecisionBasis::NoAuthorizingPolicy,
        ),
    ];
    // Warm-up: the first decision builds the ontology's memoized closures.
    for (_, f, _, _) in &cases {
        enforcer.decide(f, &ontology, &dbh.model);
    }
    for (name, f, effect, basis) in &cases {
        let (decision, allocations) = common::counted(|| enforcer.decide(f, &ontology, &dbh.model));
        assert_eq!(&decision.effect, effect, "{name}");
        assert_eq!(&decision.basis, basis, "{name}");
        assert_eq!(
            allocations, 0,
            "{name}: decide allocated {allocations} times"
        );
    }
}
