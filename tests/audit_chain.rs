//! The tamper-evident audit chain, end to end.
//!
//! Three layers of assurance:
//!
//! * **Differential** — on the paper's corpus (catalog policies over the
//!   DBH population), the decision record read back from the chain is
//!   exactly the sequence of decisions the requests were answered with,
//!   and its `Deletion` payloads reconstruct the certificate ledger.
//! * **Durability** — a checkpoint seals the chain's open run, so the
//!   whole decision history survives a crash, and a corrupted or missing
//!   tail segment is reported rather than silently dropped.
//! * **Single-tamper rejection** — exhaustively and property-based: a
//!   sealed segment subjected to any single-record mutation, drop, or
//!   swap fails verification.
//! * **Archive corruption** — bit flips injected by the faulty storage
//!   backend ([`FaultPoint::AuditBitFlip`]), direct byte corruption of
//!   archived segments, truncation and segment loss are all detected by
//!   verification-on-read, at every offset tried (100% of injections).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use privacy_aware_buildings::prelude::*;
use proptest::prelude::*;
use tippers::wal::{FaultyLog, LogIo, MemLog, WalError};
use tippers::{
    verify_segment, AuditChain, ChainEvent, ChainFault, DataRequest, FaultPlan, FaultPoint,
    SealedSegment, ARCHIVE_PREFIX, SEGMENT_RECORDS,
};
use tippers_policy::PolicyId;
use tippers_sensors::Occupant;

fn fault_seed() -> u64 {
    std::env::var("TIPPERS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A BMS over the paper's corpus: the DBH population, the catalog's
/// thermostat and emergency policies, and a morning of sensor data.
fn paper_bms(config: TippersConfig) -> (Tippers, Vec<Occupant>, Ontology) {
    let ontology = Ontology::standard();
    let mut sim = BuildingSimulator::new(
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
        &ontology,
    );
    let building = sim.dbh().clone();
    let occupants = sim.occupants().to_vec();
    let mut bms = Tippers::new(ontology.clone(), building.model.clone(), config);
    bms.register_occupants(&occupants);
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
    sim.set_clock(Timestamp::at(0, 8, 0));
    let trace = sim.run_until(Timestamp::at(0, 9, 0));
    bms.ingest(&trace.observations);
    (bms, occupants, ontology)
}

fn grid_requests(ontology: &Ontology, occupants: &[Occupant]) -> Vec<DataRequest> {
    let c = ontology.concepts().clone();
    let mut requests = Vec::new();
    for occupant in occupants {
        for (service, purpose, data) in [
            (
                catalog::services::emergency(),
                c.emergency_response,
                c.wifi_association,
            ),
            (catalog::services::concierge(), c.navigation, c.location),
        ] {
            requests.push(DataRequest {
                service,
                purpose,
                data,
                subjects: SubjectSelector::One(occupant.user),
                from: Timestamp::at(0, 8, 0),
                to: Timestamp::at(0, 12, 0),
                requester_space: None,
                priority: Default::default(),
                deadline: None,
            });
        }
    }
    requests
}

#[test]
fn chain_replay_reconstructs_the_legacy_audit_exactly() {
    let (mut bms, occupants, ontology) = paper_bms(TippersConfig::default());
    let now = Timestamp::at(0, 12, 0);
    let mut answered = Vec::new();
    for request in grid_requests(&ontology, &occupants) {
        for result in bms.handle_request(&request, now).results {
            answered.push((result.user, result.decision.effect, result.decision.basis));
        }
    }
    // A retention pass journals Deletion events between the decisions.
    bms.sweep(Timestamp::at(400, 0, 0));

    assert!(
        answered.len() >= 2 * occupants.len(),
        "the grid must answer a decision per (occupant, service)"
    );
    bms.verify_audit_chain().expect("untampered chain verifies");

    // The decision record is exactly what the requests were answered with.
    let recorded: Vec<_> = bms
        .decisions()
        .expect("the decision record verifies")
        .into_iter()
        .map(|e| (e.subject, e.effect, e.basis))
        .collect();
    assert_eq!(
        recorded, answered,
        "the chain's decision record diverged from the answered decisions"
    );

    // Replay: parse every chained payload back into the event it journals.
    let mut deletions = Vec::new();
    for record in bms.audit_chain().open_records() {
        match serde_json::from_str::<ChainEvent>(&record.payload).expect("payloads are canonical") {
            ChainEvent::Decision { .. } => {}
            ChainEvent::Deletion { certificate } => deletions.push(certificate),
        }
    }
    assert_eq!(
        deletions.as_slice(),
        bms.deletion_certificates(),
        "chain replay diverged from the certificate ledger"
    );
}

/// The deletion digest is a byte-level format: auditors re-derive it from
/// the deleted rows, and replicas match certificates across nodes. These
/// digests were computed by the build that hashed one joined buffer; the
/// streaming hasher must reproduce them exactly.
#[test]
fn deletion_certificates_keep_their_digests() {
    let (mut bms, _, _) = paper_bms(TippersConfig::default());
    assert_eq!(bms.sweep(Timestamp::at(400, 0, 0)), 50);
    let certificates: Vec<_> = bms
        .deletion_certificates()
        .iter()
        .map(|c| (c.sweep, c.time, c.rows, c.digest.as_str()))
        .collect();
    assert_eq!(
        certificates,
        [(
            1,
            Timestamp::at(400, 0, 0),
            50,
            "78abab31443f05feccbc746c0aac6a2b74abafd3192badf7b2ed23d6c1c2fb70"
        )]
    );
}

/// Builds a sealed segment over `payloads` (padded to at least two
/// records so drops and swaps are always possible).
fn sealed(payloads: &[String]) -> SealedSegment {
    let mut chain = AuditChain::new();
    for p in payloads {
        chain.append(p.clone());
    }
    let mut segments = chain.seal(payloads.len());
    assert_eq!(segments.len(), 1);
    segments.pop().unwrap()
}

#[test]
fn sealed_segment_rejects_every_single_record_mutation_drop_and_swap() {
    let payloads: Vec<String> = (0..12)
        .map(|i| format!("{{\"event\":\"e{i}\",\"n\":{i}}}"))
        .collect();
    let clean = sealed(&payloads);
    assert_eq!(verify_segment(&clean).expect("clean segment verifies"), 12);

    let mut rejected = 0usize;
    for i in 0..clean.records.len() {
        // Payload mutation (a single flipped character).
        let mut s = clean.clone();
        let mut bytes = s.records[i].payload.clone().into_bytes();
        bytes[0] ^= 0x01;
        s.records[i].payload = String::from_utf8_lossy(&bytes).into_owned();
        assert!(verify_segment(&s).is_err(), "payload mutation at {i}");
        rejected += 1;

        // MAC mutation.
        let mut s = clean.clone();
        s.records[i].mac = format!("{i:0>64}");
        assert!(verify_segment(&s).is_err(), "mac mutation at {i}");
        rejected += 1;

        // Sequence-number bump.
        let mut s = clean.clone();
        s.records[i].seq += 1;
        assert!(verify_segment(&s).is_err(), "seq bump at {i}");
        rejected += 1;

        // Drop.
        let mut s = clean.clone();
        s.records.remove(i);
        assert!(verify_segment(&s).is_err(), "drop at {i}");
        rejected += 1;

        // Swap with the next record.
        if i + 1 < clean.records.len() {
            let mut s = clean.clone();
            s.records.swap(i, i + 1);
            assert!(verify_segment(&s).is_err(), "swap at {i}");
            rejected += 1;
        }
    }
    // Root and link tampering.
    let mut s = clean.clone();
    s.root = format!("{:0>64}", 7);
    assert!(verify_segment(&s).is_err(), "root tamper");
    let mut s = clean.clone();
    s.prev_link = format!("{:0>64}", 9);
    assert!(verify_segment(&s).is_err(), "prev-link tamper");
    rejected += 2;
    assert_eq!(rejected, 12 * 4 + 11 + 2, "every tamper was exercised");
}

proptest! {
    /// Property form of the same claim: for ANY payload set and ANY
    /// single-record tamper (mutation, drop, or swap), verification fails.
    #[test]
    fn any_single_record_tamper_is_rejected(
        payloads in proptest::collection::vec("[ -~]{0,40}", 2..24),
        index in 0usize..24,
        kind in 0u8..4,
        flip in 0usize..64,
    ) {
        let clean = sealed(&payloads);
        prop_assert!(verify_segment(&clean).is_ok());
        let i = index % payloads.len();
        let mut s = clean.clone();
        match kind {
            0 => {
                // Mutate one payload character (append when empty, so the
                // record always differs from what was MAC'd).
                let mut bytes = s.records[i].payload.clone().into_bytes();
                if bytes.is_empty() {
                    bytes.push(b'!');
                } else {
                    let at = flip % bytes.len();
                    bytes[at] = if bytes[at] == b'!' { b'"' } else { b'!' };
                }
                s.records[i].payload = String::from_utf8(bytes).unwrap();
            }
            1 => {
                s.records.remove(i);
            }
            2 => {
                let j = (i + 1) % s.records.len();
                s.records.swap(i, j);
            }
            _ => {
                let mut mac = s.records[i].mac.clone().into_bytes();
                let at = flip % mac.len();
                mac[at] = if mac[at] == b'0' { b'1' } else { b'0' };
                s.records[i].mac = String::from_utf8(mac).unwrap();
            }
        }
        prop_assert!(
            verify_segment(&s).is_err(),
            "tamper kind {} at record {} went undetected", kind, i
        );
    }
}

/// Drives enough audited decisions through a durable BMS to seal and
/// archive `segments` chain segments.
fn durable_bms_with_archive(log: Box<dyn tippers::wal::LogIo>, segments: u64) -> Tippers {
    let ontology = Ontology::standard();
    let building = dbh();
    let (mut bms, _) = Tippers::open_with(
        log,
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    )
    .expect("open");
    let c = ontology.concepts().clone();
    let request = |user: u64| DataRequest {
        service: ServiceId::new("auditor"),
        purpose: c.logging,
        data: c.wifi_association,
        subjects: SubjectSelector::One(UserId(user)),
        from: Timestamp(0),
        to: Timestamp::at(0, 12, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    };
    let mut user = 0u64;
    while bms.audit_chain().sealed_segments() < segments {
        user += 1;
        bms.handle_request(&request(user), Timestamp::at(0, 10, 0));
    }
    assert_eq!(bms.audit_archive_failures(), 0);
    bms
}

#[test]
fn storage_injected_bit_flips_are_detected_at_every_offset() {
    // An archived segment is a few KiB of JSON; the offsets cover the
    // name prefix, early structure, and (modulo length) arbitrary interior
    // bytes. Every single injection must be caught.
    let offsets: Vec<i64> = (0..32).map(|i| i * 211 + 1).collect();
    let mut detected = 0usize;
    for &offset in &offsets {
        let plan = FaultPlan::seeded(fault_seed());
        plan.arm_with_param(FaultPoint::AuditBitFlip, 1.0, offset);
        let log = MemLog::new();
        let bms = durable_bms_with_archive(Box::new(FaultyLog::new(log.clone(), plan.clone())), 1);
        assert!(
            plan.injected(FaultPoint::AuditBitFlip) >= 1,
            "offset {offset}: the fault never fired"
        );
        assert!(
            bms.verify_audit_archive().is_err(),
            "offset {offset}: a flipped archive bit went undetected"
        );
        detected += 1;
    }
    assert_eq!(detected, offsets.len(), "100% of injections detected");
}

#[test]
fn archived_segment_byte_corruption_truncation_and_loss_are_detected() {
    let log = MemLog::new();
    let bms = durable_bms_with_archive(Box::new(log.clone()), 2);
    let checked = bms.verify_audit_archive().expect("clean archive verifies");
    assert_eq!(checked, 2 * SEGMENT_RECORDS as u64);

    let names: Vec<String> = {
        let mut n: Vec<String> = log
            .file_names()
            .into_iter()
            .filter(|n| n.starts_with(ARCHIVE_PREFIX))
            .collect();
        n.sort();
        n
    };
    assert_eq!(names.len(), 2);

    // Bit rot: flip one bit at a stride of positions across each archived
    // segment. Flips inside JSON structure make the segment unparseable
    // (Corrupt); flips inside record content fail a MAC, link, or root.
    let mut flips = 0usize;
    for name in &names {
        let clean = log.file_bytes(name).expect("archived segment");
        for pos in (0..clean.len()).step_by(97) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            log.set_file(name, bytes);
            assert!(
                bms.verify_audit_archive().is_err(),
                "flip at byte {pos} of {name} went undetected"
            );
            log.set_file(name, clean.clone());
            flips += 1;
        }
    }
    assert!(flips >= 100, "flip coverage: {flips}");
    bms.verify_audit_archive()
        .expect("restored archive verifies");

    // Truncation of a segment file: unparseable, hence Corrupt.
    let clean = log.file_bytes(&names[1]).unwrap();
    log.set_file(&names[1], clean[..clean.len() / 2].to_vec());
    assert!(matches!(
        bms.verify_audit_archive(),
        Err(ChainFault::Corrupt { .. })
    ));
    log.set_file(&names[1], clean.clone());

    // Losing the newest segment breaks continuity with the live chain.
    log.set_file(&names[1], b"{}".to_vec());
    assert!(bms.verify_audit_archive().is_err(), "tail loss undetected");
    log.set_file(&names[1], clean.clone());

    // Replacing the older segment with a copy of the newer one breaks
    // lineage from genesis (reorder/splice).
    let seg0 = log.file_bytes(&names[0]).unwrap();
    log.set_file(&names[0], clean.clone());
    assert!(bms.verify_audit_archive().is_err(), "splice undetected");
    log.set_file(&names[0], seg0);
    bms.verify_audit_archive().expect("archive intact again");
}

/// Archived segments survive a crash and recovery resumes the lineage:
/// the recovered node's fresh records still verify against the old
/// archive, and new seals extend it.
#[test]
fn recovery_resumes_the_chain_after_the_last_sealed_segment() {
    let log = MemLog::new();
    let bms = durable_bms_with_archive(Box::new(log.clone()), 1);
    let head_seq = bms.audit_chain().next_seq();
    assert!(head_seq >= SEGMENT_RECORDS as u64);
    drop(bms);
    log.crash();

    let ontology = Ontology::standard();
    let building = dbh();
    let (mut recovered, _) = Tippers::open_with(
        Box::new(log.clone()),
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    )
    .expect("recover");
    // The chain resumes exactly after the archived segment: sequence
    // numbers continue from the seal point (unsealed pre-crash records
    // are gone by design — what was never archived was never attested).
    assert_eq!(recovered.audit_chain().next_seq(), SEGMENT_RECORDS as u64);
    recovered
        .verify_audit_archive()
        .expect("resumed lineage verifies");

    // New audited decisions keep extending the same lineage.
    let c = ontology.concepts().clone();
    let request = DataRequest {
        service: ServiceId::new("auditor"),
        purpose: c.logging,
        data: c.wifi_association,
        subjects: SubjectSelector::One(UserId(1)),
        from: Timestamp(0),
        to: Timestamp::at(0, 12, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    };
    for _ in 0..(SEGMENT_RECORDS + 4) {
        recovered.handle_request(&request, Timestamp::at(0, 11, 0));
    }
    assert!(recovered.audit_chain().sealed_segments() >= 1);
    recovered
        .verify_audit_archive()
        .expect("extended lineage verifies");
}

/// A log backend whose archive writes tear while `failing` is set: half
/// the bytes land, then the write fails (log segments are unaffected).
#[derive(Debug)]
struct FailingArchive {
    inner: MemLog,
    failing: Arc<AtomicBool>,
}

impl LogIo for FailingArchive {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if name.starts_with(ARCHIVE_PREFIX) && self.failing.load(Ordering::SeqCst) {
            self.inner.append(name, &bytes[..bytes.len() / 2])?;
            return Err(io::Error::other("archive write torn"));
        }
        self.inner.append(name, bytes)
    }
    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.inner.sync(name)
    }
    fn durable_len(&self, name: &str) -> io::Result<u64> {
        self.inner.durable_len(name)
    }
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
}

/// Opens a durable BMS over `log` and has it answer `n` audited
/// single-subject requests (one per user).
fn durable_bms_with_decisions(log: Box<dyn LogIo>, n: u64) -> Tippers {
    let ontology = Ontology::standard();
    let building = dbh();
    let (mut bms, _) = Tippers::open_with(
        log,
        ontology.clone(),
        building.model,
        TippersConfig::default(),
    )
    .expect("open");
    let c = ontology.concepts().clone();
    for user in 1..=n {
        bms.handle_request(
            &DataRequest {
                service: ServiceId::new("auditor"),
                purpose: c.logging,
                data: c.wifi_association,
                subjects: SubjectSelector::One(UserId(user)),
                from: Timestamp(0),
                to: Timestamp::at(0, 12, 0),
                requester_space: None,
                priority: Default::default(),
                deadline: None,
            },
            Timestamp::at(0, 10, 0),
        );
    }
    bms
}

fn archive_names(log: &MemLog) -> Vec<String> {
    let mut names: Vec<String> = log
        .file_names()
        .into_iter()
        .filter(|n| n.starts_with(ARCHIVE_PREFIX))
        .collect();
    names.sort();
    names
}

/// A checkpoint seals the open run (a short tail segment), so the whole
/// decision history survives a crash byte for byte; corrupting that tail
/// segment afterwards is reported, not silently dropped.
#[test]
fn a_checkpoint_makes_the_whole_decision_history_durable() {
    const DECISIONS: u64 = 100;
    assert_ne!(DECISIONS % SEGMENT_RECORDS as u64, 0, "leaves a short tail");
    let log = MemLog::new();
    let mut bms = durable_bms_with_decisions(Box::new(log.clone()), DECISIONS);
    let before = bms.decisions().expect("the live record verifies");
    assert_eq!(before.len() as u64, DECISIONS);
    bms.checkpoint().expect("checkpoint");
    assert!(
        bms.audit_chain().open_records().is_empty(),
        "open run sealed"
    );
    let names = archive_names(&log);
    assert_eq!(names.len() as u64, bms.audit_chain().sealed_segments());
    assert_eq!(names.len(), 2, "one full segment and one short tail");
    assert_eq!(bms.audit_archive_failures(), 0);
    drop(bms);
    log.crash();

    let (recovered, _) = Tippers::open_with(
        Box::new(log.clone()),
        Ontology::standard(),
        dbh().model,
        TippersConfig::default(),
    )
    .expect("recover");
    let after = recovered.decisions().expect("the archived record verifies");
    assert_eq!(
        serde_json::to_string(&after).unwrap(),
        serde_json::to_string(&before).unwrap(),
        "the decision history survives the crash byte for byte"
    );
    assert_eq!(
        recovered.verify_audit_archive().expect("archive verifies"),
        DECISIONS
    );

    // Flip one byte in the short tail segment.
    let tail = names.last().expect("tail segment");
    let clean = log.file_bytes(tail).expect("archived tail");
    let mut flipped = clean.clone();
    flipped[clean.len() / 2] ^= 0x01;
    log.set_file(tail, flipped);
    assert!(
        recovered.decisions().is_err(),
        "decisions() read a flipped tail"
    );
    assert!(
        recovered.verify_audit_archive().is_err(),
        "verification missed a flipped tail"
    );
    log.set_file(tail, clean);
    assert_eq!(recovered.decisions().expect("restored tail"), after);
}

/// A checkpoint whose tail-segment archive write fails (here torn: half
/// the bytes land) is counted and refused, so no snapshot drops the
/// tail's decisions. The live engine still reads its whole history, the
/// archive reports the gap, and once the backend heals the retried write
/// makes the history durable: a reopened engine reads all of it.
#[test]
fn a_failed_checkpoint_archive_write_is_retried_before_the_checkpoint_lands() {
    const DECISIONS: u64 = 100;
    let log = MemLog::new();
    let failing = Arc::new(AtomicBool::new(false));
    let backend = FailingArchive {
        inner: log.clone(),
        failing: Arc::clone(&failing),
    };
    let mut bms = durable_bms_with_decisions(Box::new(backend), DECISIONS);
    let before = bms.decisions().expect("the live record verifies");
    assert_eq!(archive_names(&log).len(), 1, "the full segment archived");

    failing.store(true, Ordering::SeqCst);
    assert!(matches!(bms.checkpoint(), Err(WalError::Checkpoint(_))));
    assert_eq!(bms.audit_archive_failures(), 1);
    assert_eq!(archive_names(&log).len(), 2, "a torn tail landed");
    assert!(matches!(
        bms.verify_audit_archive(),
        Err(ChainFault::Corrupt { .. })
    ));
    assert_eq!(
        bms.decisions()
            .expect("the unarchived tail is read from memory"),
        before
    );

    failing.store(false, Ordering::SeqCst);
    bms.checkpoint().expect("the retried tail archives");
    assert_eq!(bms.audit_archive_failures(), 1);
    assert_eq!(
        bms.verify_audit_archive().expect("archive whole"),
        DECISIONS
    );
    drop(bms);
    log.crash();

    let (recovered, _) = Tippers::open_with(
        Box::new(log.clone()),
        Ontology::standard(),
        dbh().model,
        TippersConfig::default(),
    )
    .expect("recover");
    assert_eq!(
        serde_json::to_string(&recovered.decisions().expect("archived record verifies")).unwrap(),
        serde_json::to_string(&before).unwrap(),
        "no decision lost to the failed write"
    );
}
