//! Deterministic cost budgets on the request path. Wall time on a shared
//! CI machine is too noisy to gate on; allocation counts are not, so a
//! change that makes a decision allocate more fails here.
//!
//! Allocations are counted per thread by the counting global allocator in
//! `common`, so other tests running in parallel cannot disturb the count.

use tippers::wal::MemLog;
use tippers::{DataRequest, SubjectSelector, Tippers, TippersConfig, SEGMENT_RECORDS};
use tippers_ontology::Ontology;
use tippers_policy::{catalog, PolicyId, Timestamp, UserId};
use tippers_spatial::fixtures::dbh;

mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// Allocations per permitted single-subject `handle_request` on a durable
/// engine: the decision, its audit-chain record, and its share of sealing
/// and archiving a segment every [`SEGMENT_RECORDS`] requests.
const ALLOCATIONS_PER_PERMITTED_REQUEST: u64 = 60;

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
