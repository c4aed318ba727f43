//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <flow|serve_timing|serve_functional> --seed N \
//!           --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root (the `flow` workload reads `specs/`).
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that peels the stack layer by layer and writes
//! its spans under `.bench_out/`. Every metric is printed by name with
//! its unit, and the last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any output that
//! differs from its oracle makes the run exit nonzero.

mod design;
mod flow;
mod load;
mod peel;
mod phases;
mod report;
mod schedule;
mod serve;
mod sinks;
mod stats;

use report::{
    cpu_ticks, fingerprint, fix_mmap_threshold, steal_pct, Report, END_TO_END_MEANING, METRIC_MAP,
};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// A run that has not finished by then is reported as hung and the
/// process exits, so a stuck layer cannot stall whoever runs the
/// benchmark.
const HANG_LIMIT: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    fix_mmap_threshold();
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(HANG_LIMIT);
        eprintln!("perfbench: no result after {HANG_LIMIT:?}; giving up");
        std::process::exit(3);
    });
    let mut report = Report::new(args.trace);
    let ticks = cpu_ticks();
    let outcome = match args.workload.as_str() {
        "flow" => flow::run(args.seed, args.seconds, args.trace, &mut report),
        "serve_timing" => serve::run(
            &serve::SERVE_TIMING,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "serve_functional" => serve::run(
            &serve::SERVE_FUNCTIONAL,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if let (Some(before), Some(after)) = (ticks, cpu_ticks()) {
        let steal = steal_pct(before, after);
        if args.trace {
            report.set("bench.steal_pct", steal);
        }
        report.note(format!(
            "host: hypervisor steal took {steal:.1}% of CPU time during the run; \
             timings from runs with more steal are not comparable"
        ));
    }
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    for (metric, meaning) in END_TO_END_MEANING {
        println!("meaning: {metric}: {meaning}");
    }
    for (metric, moves) in METRIC_MAP {
        println!("map: {metric} -> {moves}");
    }
    if let Err(e) = report.print(&fingerprint()) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
