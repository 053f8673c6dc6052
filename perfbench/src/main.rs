//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <offline_ipums|ingest_cluster|ingest_query>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, measures for about
//! `--seconds`, checks its own outputs, prints a provenance line and a
//! sample-count line, and ends with one JSON object on stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` runs with
//! the `felip_obs` recorder off and reports the end-to-end metrics;
//! `--trace 1` turns it on and reports the per-layer metrics. A failed
//! check prints `"correct": false` with no metrics and exits with 1.
//! See `perfbench/README.md` for what each workload is for.

mod cluster;
mod common;
mod offline;
mod query;
#[cfg(test)]
mod schema_tests;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use common::{Args, Outcome};

const USAGE: &str = "usage: perfbench --workload <offline_ipums|ingest_cluster|ingest_query> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parses the four required flags; any other argument is an error.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        budget: Duration::from_secs(seconds),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A workload: runs, checks its outputs, returns its measurements.
type Runner = fn(&Args) -> Result<Outcome, String>;

/// The runner of the workload called `name`.
fn workload(name: &str) -> Option<Runner> {
    match name {
        "offline_ipums" => Some(offline::run),
        "ingest_cluster" => Some(cluster::run),
        "ingest_query" => Some(query::run),
        _ => None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        felip_obs::enable();
    }
    let Some(run) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let result = run(&args);
    println!("{}", common::provenance(&args));
    match result {
        Ok(outcome) => {
            println!("{}", outcome.samples_line());
            match outcome.result_line(args.trace) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        Err(e) => fail(&e),
    }
}

/// Reports a failed check: no numbers, exit code 1.
fn fail(reason: &str) -> ExitCode {
    eprintln!("perfbench: check failed: {reason}");
    println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
    ExitCode::from(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_four_flags() {
        let a = parse_args(&argv(
            "--workload ingest_query --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "ingest_query");
        assert_eq!(a.seed, 7);
        assert_eq!(a.budget, Duration::from_secs(3));
        assert!(a.trace);
    }

    #[test]
    fn rejects_missing_and_unknown_flags() {
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }
}
