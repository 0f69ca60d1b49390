//! `servebench`: the end-to-end serving benchmark.
//!
//! ```text
//! servebench --workload hot_k10 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Starts the workload's server in a process of its own, drives it over
//! loopback TCP, checks every sampled answer against an identically built
//! in-process server, and prints the report; the last line is the JSON
//! result. `--trace 0` gives the end-to-end metrics, `--trace 1` the
//! per-layer ones. See README.md.

mod host;
mod loadgen;
mod replay;
mod runner;
mod stats;
mod verify;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false, serve: false };
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--serve" {
            args.serve = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {key}"))?;
        match key {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds expects a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 || args.seconds.is_infinite() {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown option {key}")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(w) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("servebench: --workload must be one of {}", names.join(", "));
        return ExitCode::FAILURE;
    };
    if args.serve {
        return match host::run(w, args.trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = runner::Options { seed: args.seed, seconds: args.seconds, trace: args.trace };
    match runner::run(w, &opts) {
        Ok(outcome) => {
            println!(
                "{}",
                outcome.metrics.result_line(outcome.correct, outcome.attempted, outcome.failed)
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
