//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name and unit, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when a correctness check fails.

use std::process::ExitCode;

use perfbench::{run, Options, Workload};

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for (name, unit, value) in &report.reported {
        println!("{name:<44} {value:>14.4} {unit}");
    }
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<44} {share:>14.4} share ({} of {} attempted)",
        "failed_share", report.failed, report.attempted
    );
    if let Some(spans) = &report.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.tsv", opts.workload.name(), opts.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report.json());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
