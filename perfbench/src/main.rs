//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <table1-atpg|lbist-timed|daemon-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up (timed
//! separately as `setup_s`), measures for the given seconds and checks
//! every output. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Standard error carries a readable account of the run. Any wrong or
//! failed output makes the exit code non-zero.

mod alloc;
mod batch;
mod daemon;
mod layers;
mod report;
mod stats;

use report::{END_TO_END, PER_LAYER};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <table1-atpg|lbist-timed|daemon-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "table1-atpg" => batch::run(
            batch::Batch::Table1Atpg,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "lbist-timed" => batch::run(
            batch::Batch::LbistTimed,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "daemon-mix" => daemon::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let catalog = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let line = outcome.result_line(catalog);
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for &(name, unit) in catalog {
        if let Some(&(_, v)) = outcome.metrics.iter().find(|(n, _)| *n == name) {
            eprintln!("{name:<32} {v:>16.6} {unit}");
        }
    }
    println!("{line}");
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
