//! The on-disk format, pinned by a log an earlier build wrote.
//!
//! `tests/fixtures/format_golden/` is an `FsLog` directory written by
//! [`write_scenario`] (run `cargo test --test format_golden -- --ignored
//! --nocapture` to write a fresh one): catalog policies and preferences,
//! a checkpoint over a store holding several occupants' rows, a tail of
//! settings and `Ingest` records, and two archived audit segments. The
//! checked-in copy was written before the direct JSON writer and the
//! slice-by-8 checksum existed, so this test fails if either ever
//! changes a byte: every WAL frame and archived segment is re-encoded
//! from its decoded value and compared with the fixture byte for byte,
//! and the log must still open, replay and verify.

use std::fs;
use std::path::{Path, PathBuf};

use privacy_aware_buildings::prelude::*;
use serde_json::{Map, Value};
use tippers::wal::record_boundaries;
use tippers::{ChainEvent, SealedSegment, WalRecord, ARCHIVE_PREFIX, SEGMENT_RECORDS};
use tippers_policy::{ActionSet, BuildingPolicy, DataAction, PreferenceScope, UserPreference};
use tippers_sensors::Occupant;

const FIXTURE: &str = "tests/fixtures/format_golden";

/// Decisions made before the checkpoint: one full sealed segment plus the
/// short one the checkpoint seals. The tail's decisions were still in the
/// chain's open run when the writer stopped, so a reopen does not see
/// them.
const ARCHIVED_DECISIONS: usize = SEGMENT_RECORDS + 6;

fn simulator(ontology: &Ontology) -> BuildingSimulator {
    BuildingSimulator::new(
        SimulatorConfig {
            seed: 5,
            population: Population {
                staff: 2,
                faculty: 1,
                grads: 1,
                undergrads: 0,
                visitors: 0,
            },
            tick_secs: 900,
            ..SimulatorConfig::default()
        },
        ontology,
    )
}

fn occupants() -> Vec<Occupant> {
    simulator(&Ontology::standard()).occupants().to_vec()
}

fn location_request(user: UserId, ontology: &Ontology) -> DataRequest {
    let c = ontology.concepts();
    DataRequest {
        service: catalog::services::emergency(),
        purpose: c.emergency_response,
        data: c.wifi_association,
        subjects: SubjectSelector::One(user),
        from: Timestamp::at(0, 8, 0),
        to: Timestamp::at(0, 12, 0),
        requester_space: None,
        priority: Default::default(),
        deadline: None,
    }
}

/// Drives a durable engine at `dir` through the fixture's history and
/// drops it without a further checkpoint, as a crash would.
fn write_scenario(dir: &Path) {
    let ontology = Ontology::standard();
    let c = ontology.concepts().clone();
    let mut sim = simulator(&ontology);
    let building = sim.dbh().clone();
    let people = sim.occupants().to_vec();
    let (mut bms, _) = Tippers::open(
        dir,
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    )
    .expect("a fresh directory opens");
    bms.register_occupants(&people);
    bms.add_policy(catalog::policy2_emergency_location(
        PolicyId(0),
        building.building,
        &ontology,
    ));
    let thermostat = bms.add_policy(
        catalog::policy1_thermostat(PolicyId(0), building.building, &ontology)
            .with_setting(BuildingPolicy::location_setting()),
    );
    bms.submit_preference(
        UserPreference::new(
            PreferenceId(0),
            people[0].user,
            PreferenceScope {
                data: Some(c.occupancy),
                ..Default::default()
            },
            Effect::Deny,
        ),
        Timestamp::at(0, 7, 0),
    );
    sim.set_clock(Timestamp::at(0, 8, 0));
    let (stored, _) = bms.ingest(&sim.run_until(Timestamp::at(0, 9, 0)).observations);
    assert!(stored > 0, "the emergency policy stores WiFi sightings");

    let now = Timestamp::at(0, 12, 0);
    for i in 0..ARCHIVED_DECISIONS {
        let user = people[i % people.len()].user;
        bms.handle_request(&location_request(user, &ontology), now);
    }
    bms.checkpoint().expect("the checkpoint lands");

    bms.add_policy(
        BuildingPolicy::new(
            PolicyId(0),
            "Occupancy analytics",
            building.building,
            c.occupancy,
            c.analytics,
        )
        .with_actions(ActionSet::of(&[DataAction::Share])),
    );
    bms.submit_preference(
        UserPreference::new(
            PreferenceId(0),
            people[1].user,
            PreferenceScope {
                data: Some(c.location),
                purpose: Some(c.analytics),
                ..Default::default()
            },
            Effect::Deny,
        ),
        Timestamp::at(0, 12, 5),
    );
    bms.apply_setting_choice(people[2].user, thermostat, "location-sensing", 1)
        .expect("the thermostat policy advertises the setting");
    bms.ingest(&sim.run_until(Timestamp::at(0, 9, 30)).observations);
    bms.handle_request(&location_request(people[3].user, &ontology), now);
    assert_eq!(bms.wal_append_failures(), 0);
}

/// A scratch directory unique to this process and `tag`.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tippers-format-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn sorted_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("fixture directory")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, fs::read(entry.path()).expect("fixture file"))
        })
        .collect();
    files.sort();
    files
}

/// `json` with the object at `path` re-ordered by key, the rest intact.
///
/// The store's subject index is a `HashMap`, so its members appear in the
/// order of that map's per-process hash seed: neither the writing build
/// nor any other re-encodes them in the same order twice.
fn sort_object_at(value: Value, path: &[&str]) -> Value {
    let Value::Object(map) = value else {
        return value;
    };
    match path {
        [] => {
            let mut entries: Vec<(String, Value)> = map.into_iter().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(entries.into_iter().collect())
        }
        [key, rest @ ..] => Value::Object(
            map.into_iter()
                .map(|(k, v)| {
                    let v = if k == *key {
                        sort_object_at(v, rest)
                    } else {
                        v
                    };
                    (k, v)
                })
                .collect::<Map>(),
        ),
    }
}

/// A WAL payload with the store's subject index put in key order.
fn canonical_payload(payload: &[u8]) -> String {
    let text = std::str::from_utf8(payload).expect("payloads are UTF-8");
    let tree: Value = serde_json::from_str(text).expect("payloads are JSON");
    let path = ["Checkpoint", "snapshot", "store", "by_subject"];
    sort_object_at(tree, &path).to_string()
}

/// Asserts that every frame of a WAL segment decodes and re-encodes to
/// its own bytes, header included. Returns the records.
fn reencode_segment(name: &str, bytes: &[u8]) -> Vec<WalRecord> {
    let mut records = Vec::new();
    let mut start = 0;
    for end in record_boundaries(bytes) {
        let header = &bytes[start..start + 8];
        let payload = &bytes[start + 8..end];
        let record = WalRecord::from_payload(payload)
            .unwrap_or_else(|| panic!("{name}: undecodable record at byte {start}"));
        let reencoded = record.to_payload();
        if matches!(record, WalRecord::Checkpoint { .. }) {
            assert_eq!(reencoded.len(), payload.len(), "{name}: checkpoint length");
            assert_eq!(
                canonical_payload(&reencoded),
                canonical_payload(payload),
                "{name}: checkpoint bytes"
            );
        } else {
            assert_eq!(
                String::from_utf8_lossy(&reencoded),
                String::from_utf8_lossy(payload),
                "{name}: record at byte {start}"
            );
        }
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&tippers::wal::crc32(payload).to_le_bytes());
        assert_eq!(frame, header, "{name}: frame header at byte {start}");
        records.push(record);
        start = end;
    }
    assert_eq!(start, bytes.len(), "{name}: trailing bytes");
    records
}

/// Asserts that an archived segment and every chain payload in it
/// re-encode to their own bytes. Returns the segment.
fn reencode_archive(name: &str, bytes: &[u8]) -> SealedSegment {
    let text = std::str::from_utf8(bytes).expect("archives are UTF-8");
    let segment: SealedSegment = serde_json::from_str(text).expect("archives parse");
    assert_eq!(serde_json::to_string(&segment).unwrap(), text, "{name}");
    for record in &segment.records {
        let event: ChainEvent = serde_json::from_str(&record.payload).expect("events parse");
        assert_eq!(
            serde_json::to_string(&event).unwrap(),
            record.payload,
            "{name}: record {}",
            record.seq
        );
    }
    segment
}

#[test]
fn an_earlier_builds_log_reencodes_byte_for_byte() {
    let files = sorted_files(Path::new(FIXTURE));
    let mut kinds = Vec::new();
    let mut archived = 0;
    for (name, bytes) in &files {
        if name.starts_with("wal-") {
            for record in reencode_segment(name, bytes) {
                kinds.push(match record {
                    WalRecord::Checkpoint { .. } => "checkpoint",
                    WalRecord::Ingest { .. } => "ingest",
                    _ => "settings",
                });
            }
        } else if name.starts_with(ARCHIVE_PREFIX) {
            archived += reencode_archive(name, bytes).records.len();
        } else {
            panic!("unexpected fixture file {name}");
        }
    }
    assert_eq!(
        kinds,
        ["checkpoint", "settings", "settings", "settings", "ingest"],
        "the fixture holds a checkpoint, settings and an ingest tail"
    );
    assert_eq!(archived, ARCHIVED_DECISIONS);
    assert_eq!(
        files
            .iter()
            .filter(|(n, _)| n.starts_with(ARCHIVE_PREFIX))
            .count(),
        2
    );
}

#[test]
fn an_earlier_builds_log_opens_verifies_and_replays() {
    let dir = scratch_dir("open");
    for (name, bytes) in sorted_files(Path::new(FIXTURE)) {
        fs::write(dir.join(name), bytes).expect("copy fixture");
    }
    let ontology = Ontology::standard();
    let building = dbh();
    let (mut bms, report) = Tippers::open(
        &dir,
        ontology.clone(),
        building.model.clone(),
        TippersConfig::default(),
    )
    .expect("the fixture opens");
    assert_eq!(report.truncated_tails, 0, "{report:?}");
    assert_eq!(report.records_replayed, 5);
    assert_eq!(bms.verify_audit_archive(), Ok(ARCHIVED_DECISIONS as u64));

    let decisions = bms.decisions().expect("the archive verifies");
    let people = occupants();
    assert_eq!(decisions.len(), ARCHIVED_DECISIONS);
    for (i, entry) in decisions.iter().enumerate() {
        assert_eq!(entry.subject, people[i % people.len()].user, "decision {i}");
        assert_eq!(entry.time, Timestamp::at(0, 12, 0));
        assert_eq!(entry.effect, Effect::Allow, "decision {i}");
    }

    assert_eq!(bms.policies().len(), 3);
    assert_eq!(bms.preferences().len(), 3);
    assert!(!bms.store().is_empty());
    // The recovered engine enforces the replayed settings.
    bms.register_occupants(&people);
    let response = bms.handle_request(
        &location_request(people[0].user, &ontology),
        Timestamp::at(0, 12, 0),
    );
    assert!(response.results[0].decision.permits());
    drop(bms);
    fs::remove_dir_all(&dir).expect("remove scratch copy");
}

/// Writes a fresh fixture and prints where; copy its files over
/// `tests/fixtures/format_golden/` only for a deliberate format change.
#[test]
#[ignore = "writes a fixture; run by hand"]
fn write_fixture() {
    let dir = scratch_dir("write");
    write_scenario(&dir);
    println!("fixture written to {}", dir.display());
}
