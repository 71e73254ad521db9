//! `campus`: an open loop on a virtual clock. Three streams arrive on a
//! fixed schedule whatever the engine's speed: capture batches cut from a
//! simulator trace, service requests (a few of them Emergency floor
//! sweeps), and retention sweeps and checkpoints on a virtual cadence.
//! Every latency runs from the operation's due time, so a stall shows in
//! the operations queued behind it.

use std::time::{Duration, Instant};

use tippers::{DataRequest, Priority, SubjectSelector};
use tippers_bench::Lcg;
use tippers_policy::{catalog, Timestamp};
use tippers_sensors::Observation;

use crate::checks::{final_checks, Recovery, RECOVERY_REPEATS};
use crate::corpus::{self, Corpus};
use crate::ops::{self, gen_changes, probe_count, Probes, Runner};
use crate::stats::Samples;
use crate::{Options, Report};

/// Virtual seconds per wall second: ten nominal seconds cover 6 h 40 min
/// of virtual time, several 1-4 h retention windows.
pub const VIRTUAL_PER_WALL: f64 = 2400.0;
/// Simulator sampling tick, virtual seconds.
pub const TICK_SECS: i64 = 3600;
/// Offered service requests per wall second (Poisson arrivals): about a
/// fifth of the engine's measured capacity.
pub const REQUESTS_PER_SEC: f64 = 500.0;
/// One request in this many is an Emergency sweep of a whole floor
/// (synthetic: ~50 per run, several between two checkpoints).
pub const FLOOR_SWEEP_EVERY: usize = 100;
/// Retention-sweep period, virtual seconds.
pub const SWEEP_EVERY: i64 = 900;
/// Observations per `ingest_batched` call (synthetic: the largest batch
/// that still gives a run the 1,000 batches a p99 needs).
pub const INGEST_BATCH: usize = 6;
/// Checkpoint period, virtual seconds.
pub const CHECKPOINT_EVERY: i64 = 3600;
/// The recovery point, virtual seconds into the run: before the first
/// checkpoint, whose snapshot the JSON parser cannot read back within a
/// run's time limit (see `README.md`).
pub const RECOVERY_AFTER: i64 = CHECKPOINT_EVERY - 300;
/// Specification cross-checks spread over the requests.
pub const CHECKS: usize = 200;
/// Requests the recovered engine must decide as the specification does.
pub const RECOVERY_SAMPLE: usize = 20;

/// When the virtual day starts.
fn start() -> Timestamp {
    Timestamp::at(0, 6, 0)
}

/// What an event does.
#[derive(Debug)]
enum Kind {
    /// Index into the capture batches.
    Ingest(usize),
    /// A service request.
    Request(DataRequest),
    Sweep,
    Checkpoint,
}

/// One scheduled operation, due `offset` virtual seconds into the run.
#[derive(Debug)]
struct Event {
    offset: f64,
    kind: Kind,
}

impl Event {
    fn now(&self) -> Timestamp {
        start() + self.offset as i64
    }
}

/// Draws the schedule: capture batches spread evenly over their tick,
/// Poisson request arrivals, and the maintenance cadence.
fn schedule(corpus: &Corpus, lcg: &mut Lcg, seconds: f64) -> (Vec<Event>, Vec<Vec<Observation>>) {
    let span = seconds * VIRTUAL_PER_WALL;
    let trace = corpus::sim_trace(corpus.seed, TICK_SECS, start(), start() + span as i64);
    let mut events = Vec::new();
    let mut batches = Vec::new();
    let mut tick_start = 0;
    while tick_start < trace.len() {
        let t = trace[tick_start].timestamp;
        let tick_end = tick_start
            + trace[tick_start..]
                .iter()
                .take_while(|o| o.timestamp == t)
                .count();
        let tick: Vec<&[Observation]> = trace[tick_start..tick_end].chunks(INGEST_BATCH).collect();
        let spacing = TICK_SECS as f64 / tick.len() as f64;
        for (j, chunk) in tick.into_iter().enumerate() {
            events.push(Event {
                offset: (t - start()) as f64 + j as f64 * spacing,
                kind: Kind::Ingest(batches.len()),
            });
            batches.push(chunk.to_vec());
        }
        tick_start = tick_end;
    }
    // Poisson arrivals: independent users.
    let c = corpus.ontology.concepts();
    let mean_gap = VIRTUAL_PER_WALL / REQUESTS_PER_SEC;
    let mut offset = 0.0;
    for i in 0.. {
        offset += -(1.0 - lcg.unit()).ln() * mean_gap;
        if offset >= span {
            break;
        }
        let now = start() + offset as i64;
        let request = if i % FLOOR_SWEEP_EVERY == FLOOR_SWEEP_EVERY / 2 {
            DataRequest {
                service: catalog::services::emergency(),
                purpose: c.emergency_response,
                data: c.location_room,
                subjects: SubjectSelector::InSpace(
                    corpus.dbh.floors[lcg.below(corpus.dbh.floors.len())],
                ),
                from: Timestamp(now.seconds() - 3600),
                to: Timestamp(now.seconds() + 1),
                requester_space: None,
                priority: Priority::Emergency,
                deadline: None,
            }
        } else {
            corpus.request(lcg, now)
        };
        events.push(Event {
            offset,
            kind: Kind::Request(request),
        });
    }
    for k in 1..=(span as i64 / SWEEP_EVERY) {
        events.push(Event {
            offset: (k * SWEEP_EVERY) as f64,
            kind: Kind::Sweep,
        });
    }
    for k in 1..=(span as i64 / CHECKPOINT_EVERY) {
        events.push(Event {
            offset: (k * CHECKPOINT_EVERY) as f64,
            kind: Kind::Checkpoint,
        });
    }
    events.sort_by(|a, b| a.offset.total_cmp(&b.offset));
    (events, batches)
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(1500) {
            std::thread::sleep(left - Duration::from_micros(1000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs `campus`.
pub fn run(corpus: &Corpus, opts: &Options) -> Report {
    let config = ops::engine_config(true);
    let mut lcg = Lcg(corpus.seed ^ 0xCA_4E);
    let (events, batches) = schedule(corpus, &mut lcg, opts.seconds);
    let sample: Vec<(DataRequest, Timestamp)> = (0..RECOVERY_SAMPLE)
        .map(|i| {
            let now = start() + RECOVERY_AFTER + i as i64;
            (corpus.request(&mut lcg, now), now)
        })
        .collect();
    let pref_probes = gen_changes(
        corpus,
        &mut lcg,
        probe_count(),
        corpus.policies.len() as u64,
        Corpus::week_time,
    );
    let input_digest = ops::digest(&&events[..events.len().min(1000)]);
    let mut probes = Probes::new(corpus, pref_probes, Vec::new());

    let (engine, log, setup_s) = ops::setup(corpus, &config);
    let mut recovery = Recovery::new(config.clone());
    let mut d = Runner::new(corpus, engine, log, config, opts.trace);
    d.report.set("setup_s", setup_s);
    d.begin_main();
    let requests = events
        .iter()
        .filter(|e| matches!(e.kind, Kind::Request(_)))
        .count();
    let check_every = (requests / CHECKS).max(1);
    let recovery_at = events
        .iter()
        .position(|e| e.offset >= RECOVERY_AFTER as f64)
        .unwrap_or(events.len() / 2);
    let repeat_every = ((events.len() - recovery_at) / RECOVERY_REPEATS).max(1);
    let mut late = Samples::with_capacity(events.len());
    let mut busy = Duration::ZERO;
    let mut paused = Duration::ZERO;
    let t0 = Instant::now();
    let mut request_no = 0usize;
    for (i, ev) in events.iter().enumerate() {
        // The benchmark's own work between operations (recovery, probes,
        // shadow replays, checks) shifts the schedule rather than delaying
        // it.
        let own = Instant::now();
        if i == recovery_at {
            recovery.take(
                &mut d.report,
                &mut d.oracle,
                corpus,
                &d.engine,
                &d.log,
                &sample,
            );
        } else if i > recovery_at && (i - recovery_at).is_multiple_of(repeat_every) {
            recovery.repeat(corpus);
        }
        probes.pace(i, events.len(), corpus, &mut d.tally, &mut d.report);
        paused += own.elapsed();
        let due = t0 + paused + Duration::from_secs_f64(ev.offset / VIRTUAL_PER_WALL);
        wait_until(due);
        let issued = Instant::now();
        late.push((issued - due).as_nanos() as u64);
        let op = i as u32;
        let end = match &ev.kind {
            Kind::Ingest(b) => d.ingest(op, &batches[*b], ev.now().seconds() * 1000, Some(due)),
            Kind::Request(req) => {
                request_no += 1;
                let check = request_no % check_every == check_every / 2;
                d.request(op, req, ev.now(), Some(due), check)
            }
            Kind::Sweep => d.sweep(op, ev.now()),
            Kind::Checkpoint => d.checkpoint(op),
        };
        busy += end - issued;
        paused += end.elapsed();
    }
    let wall = t0.elapsed() - paused;
    eprintln!(
        "campus: {} events over {:.2}s of schedule, engine busy {:.1}%",
        events.len(),
        wall.as_secs_f64(),
        100.0 * busy.as_secs_f64() / wall.as_secs_f64()
    );
    d.end_main();
    probes.finish(corpus, &mut d.tally, &mut d.report);
    recovery.finish(corpus, &mut d.report);
    final_checks(&mut d.report, corpus, &d.engine, &d.log);
    let mut report = d.finish();
    report.set("harness.gen_late_p99_ms", late.p99() / 1e6);
    report.count("input_digest", input_digest);
    report
}
