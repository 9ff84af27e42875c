//! The repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <pl0_verdict|python_forest|scaling|serve_mixed>
//!           --seed <n> --seconds <n> --trace <0|1> [--corrupt-reference]
//! ```
//!
//! Each run is one single-client process doing a fixed number of
//! operations (a function of `--seconds` alone), checking every output
//! against an independent reference, and printing one JSON result line
//! last. `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same seeded inputs layer by layer and prints the per-layer metrics.
//! `--corrupt-reference` falsifies one reference answer, to show that the
//! checker catches it (the run then fails).

mod clock;
mod engine;
mod inputs;
mod reference;
mod stats;
mod traced;
mod workloads;

use engine::{Checker, Metrics};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["pl0_verdict", "python_forest", "scaling", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10, trace: false, corrupt: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--corrupt-reference" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = workloads::plan(&args.workload, args.seconds);
    let mut check = Checker::new(args.corrupt);
    let m: Metrics = if args.trace {
        traced::run(&args.workload, args.seed, &plan, &mut check)
    } else {
        workloads::run(&args.workload, args.seed, &plan, &mut check, &mut traced::Trace::off())
            .report()
    };

    println!(
        "workload {} seed {} seconds {} trace {} (main operations {}, edits {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.main,
        plan.edits
    );
    for line in &m.notes {
        println!("  {line}");
    }
    for (name, value, unit) in &m.values {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let failed_frac = check.failed as f64 / check.attempted.max(1) as f64;
    println!("  failed_frac {failed_frac} ({} of {} attempted)", check.failed, check.attempted);
    for f in &check.first_failures {
        println!("  FAILED {f}");
    }
    let correct = check.failed == 0 && check.attempted > 0;
    let metrics: Vec<String> = m
        .values
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.attempted.max(1),
        check.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
