//! End-to-end benchmark of the datapath-merge flows and the dp-serve
//! service.
//!
//! ```text
//! dp-e2e-bench --workload <paper-kernels|scale|serve-mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one thread. The workload's inputs are generated from the
//! seed, every operation goes through the program's public API, and every
//! output is checked against an independent reference evaluator. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured with telemetry off; with
//! `--trace 1` they are the per-layer set, measured from spans.
//!
//! `--fill-store DIR` (serve-mix only) is the warm-up half of a serve-mix
//! run: it fills the store at `DIR` with the seed's warm-up stream and
//! prints one response line per request. A serve-mix run starts itself
//! in this mode as a child process, so the warm-up's memory stays out of
//! the measured process's peak RSS.

mod compile;
mod inputs;
mod refeval;
mod report;
mod serve_mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use datapath_merge::obs::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The three workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-kernels", "scale", "serve-mix"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Only fill a serve-mix warm store at this directory.
    pub fill_store: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut fill_store = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--fill-store" => fill_store = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    if fill_store.is_some() && workload != "serve-mix" {
        return Err("--fill-store is for the serve-mix workload".into());
    }
    Ok(Args { workload, seed, seconds: Duration::from_secs(seconds), trace, fill_store })
}

fn main() -> ExitCode {
    obs::install();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dp-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.fill_store {
        return match serve_mix::fill(args.seed, dir) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dp-e2e-bench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match args.workload.as_str() {
        "serve-mix" => serve_mix::run(&args),
        _ => compile::run(&args),
    };
    match outcome {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dp-e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn command_line_is_validated() {
        let a = args("--workload scale --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds.as_secs(), a.trace),
            ("scale", 7, 3, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload scale --trace 2").is_err());
        assert!(args("--workload scale --seconds 0").is_err());
        assert!(args("--workload scale --bogus 1").is_err());
        assert!(args("--workload scale --fill-store d").is_err());
        let f = args("--workload serve-mix --seed 3 --fill-store d").unwrap();
        assert_eq!(f.fill_store, Some(PathBuf::from("d")));
    }
}
