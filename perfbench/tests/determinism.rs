//! Determinism self-test: a seed fixes every count the benchmark reports
//! (decisions, permits, WAL records and syncs, stored rows, sweep
//! deletions, allocations), and a different seed draws different inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! One test function on purpose: the allocation counters are process-wide,
//! so runs must not overlap.

use perfbench::{run, Options, Workload};

fn options(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        // Campus needs more than an hour of virtual time for retention to
        // delete rows; the closed loops need only a short stream.
        seconds: if workload == Workload::Campus {
            2.0
        } else {
            0.1
        },
        trace: true,
    }
}

#[test]
fn counts_repeat_for_a_seed_and_inputs_follow_the_seed() {
    for workload in Workload::ALL {
        let first = run(&options(workload, 7));
        let second = run(&options(workload, 7));
        let name = workload.name();
        assert!(first.problems.is_empty(), "{name}: {:?}", first.problems);
        assert!(second.problems.is_empty(), "{name}: {:?}", second.problems);
        assert_eq!(
            first.counts, second.counts,
            "{name}: counts differ between runs of one seed"
        );
        assert_eq!(first.failed, 0, "{name}: failed operations");
        for key in ["main_decisions", "main_permits", "input_digest"] {
            assert!(first.counts.contains_key(key), "{name}: no {key} count");
        }
        for key in [
            "wal_records",
            "wal_syncs",
            "stored_rows",
            "sweep_rows",
            "alloc_request_allocations",
        ] {
            assert!(first.counts.contains_key(key), "{name}: no {key} count");
        }
        let other = run(&options(workload, 8));
        assert_ne!(
            first.counts["input_digest"], other.counts["input_digest"],
            "{name}: another seed drew the same inputs"
        );
    }
}
