//! `flac-bench` — one driver for the five scale benchmarks.
//!
//! ```text
//! flac-bench <cache|serve|store|sync|topo> [--quick] [--out PATH] [--gate]
//! flac-bench <cache|serve|store|sync|topo> --check PATH
//! ```
//!
//! * `--quick`      — the small CI smoke sizing run by `scripts/verify.sh`
//! * `--out PATH`   — where to write the JSON report (default
//!   `BENCH_<name>.json`, the committed full run)
//! * `--gate`       — re-read the report just written, parse it and
//!   exit 1 if it violates the scenario's smoke invariants
//! * `--check PATH` — run no benchmark; parse a *committed* report and
//!   exit 1 unless it meets the committed-only targets (a full run, full
//!   coverage, the strict floors) plus every gate invariant
//!
//! Exit codes: 0 on success, 1 on a gate or check failure (or a failed
//! simulation), 2 on a usage or I/O error.

use crate::{cache_scale, serve_scale, store_scale, sync_scale, topo_scale};
use std::fs;

/// One benchmark the driver can run, gate and check. `gate` and
/// `check` return `Err` for a report that does not parse (including a
/// missing field).
pub trait Scenario: Sync {
    /// Run the benchmark, printing progress, and return the report;
    /// `Err` for a simulation that failed outright.
    fn run(&self, quick: bool) -> Result<String, String>;

    /// Parse `report` and return the smoke invariants it violates.
    fn gate(&self, report: &str) -> Result<Vec<String>, String>;

    /// Parse `report` and return the committed-only targets and the
    /// [`Scenario::gate`] invariants it violates.
    fn check(&self, report: &str) -> Result<Vec<String>, String>;
}

/// A scenario built from its module's typed entry points.
struct Typed<R> {
    run: fn(bool) -> Result<String, String>,
    parse: fn(&str) -> Result<R, String>,
    gate: fn(&R) -> Vec<String>,
    check: fn(&R) -> Vec<String>,
}

impl<R> Scenario for Typed<R> {
    fn run(&self, quick: bool) -> Result<String, String> {
        (self.run)(quick)
    }
    fn gate(&self, report: &str) -> Result<Vec<String>, String> {
        Ok((self.gate)(&(self.parse)(report)?))
    }
    fn check(&self, report: &str) -> Result<Vec<String>, String> {
        Ok((self.check)(&(self.parse)(report)?))
    }
}

/// Every scenario, by command-line name.
pub static SCENARIOS: &[(&str, &dyn Scenario)] = &[
    (
        "cache",
        &Typed {
            run: |quick| Ok(cache_scale::run(quick)),
            parse: cache_scale::parse_report,
            gate: cache_scale::gate,
            check: cache_scale::check,
        },
    ),
    (
        "serve",
        &Typed {
            run: serve_scale::run,
            parse: serve_scale::parse_report,
            gate: serve_scale::gate,
            check: serve_scale::check,
        },
    ),
    (
        "store",
        &Typed {
            run: |quick| Ok(store_scale::run(quick)),
            parse: store_scale::parse_report,
            gate: store_scale::gate,
            check: store_scale::check,
        },
    ),
    (
        "sync",
        &Typed {
            run: |quick| Ok(sync_scale::run(quick)),
            parse: sync_scale::parse_report,
            gate: sync_scale::gate,
            check: sync_scale::check,
        },
    ),
    (
        "topo",
        &Typed {
            run: |quick| Ok(topo_scale::run(quick)),
            parse: topo_scale::parse_report,
            gate: topo_scale::gate,
            check: topo_scale::check,
        },
    ),
];

const USAGE: &str = "usage: flac-bench <cache|serve|store|sync|topo> \
                     [--quick] [--out PATH] [--gate] | --check PATH";

/// The scenario called `name`.
pub fn scenario(name: &str) -> Option<&'static dyn Scenario> {
    SCENARIOS.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
}

/// A parsed command line.
#[derive(Debug)]
pub(crate) struct Args {
    /// Scenario name.
    name: String,
    /// Smoke sizing.
    quick: bool,
    /// Report path to write.
    out: String,
    /// Gate the written report.
    gate: bool,
    /// Check this committed report instead of running.
    check: Option<String>,
}

/// Parse the command line (without the program name).
///
/// # Errors
///
/// An unknown scenario or flag, or a flag missing its value.
pub(crate) fn parse_args(args: &[String]) -> Result<Args, String> {
    let (name, flags) = args.split_first().ok_or("missing scenario name")?;
    if scenario(name).is_none() {
        return Err(format!("unknown scenario {name:?}"));
    }
    let mut parsed = Args {
        name: name.clone(),
        quick: false,
        out: format!("BENCH_{name}.json"),
        gate: false,
        check: None,
    };
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--quick" => parsed.quick = true,
            "--gate" => parsed.gate = true,
            "--out" | "--check" => {
                let value = flags
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                if flag == "--out" {
                    parsed.out = value.clone();
                } else {
                    parsed.check = Some(value.clone());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Run the command line `args` (without the program name) and return
/// the process exit code.
pub fn main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flac-bench: {e}\n{USAGE}");
            return 2;
        }
    };
    let scenario = scenario(&args.name).expect("parse_args checked the name");
    let tag = format!("flac-bench {}", args.name);
    if let Some(path) = &args.check {
        return match fs::read_to_string(path) {
            Ok(text) => verdict(&tag, "check", scenario.check(&text)),
            Err(e) => {
                eprintln!("{tag}: reading {path}: {e}");
                2
            }
        };
    }
    println!("{tag}: {} mode", if args.quick { "quick" } else { "full" });
    let report = match scenario.run(args.quick) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{tag}: {e}");
            return 1;
        }
    };
    if let Err(e) = fs::write(&args.out, report) {
        eprintln!("{tag}: writing {}: {e}", args.out);
        return 2;
    }
    println!("{tag}: wrote {}", args.out);
    if !args.gate {
        return 0;
    }
    // Re-read what actually landed on disk so the gate catches
    // truncated or clobbered reports, not just in-memory state; an
    // unreadable report fails the gate.
    match fs::read_to_string(&args.out) {
        Ok(text) => verdict(&tag, "gate", scenario.gate(&text)),
        Err(e) => {
            eprintln!("{tag}: re-reading {}: {e}", args.out);
            1
        }
    }
}

/// Print a gate or check outcome; exit code 1 on any failure.
fn verdict(tag: &str, what: &str, failures: Result<Vec<String>, String>) -> i32 {
    let failures = failures.unwrap_or_else(|e| vec![e]);
    for f in &failures {
        eprintln!("{tag}: {} FAILURE: {f}", what.to_uppercase());
    }
    if failures.is_empty() {
        println!("{tag}: {what} OK");
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn out_defaults_to_the_scenario_report() {
        for (name, _) in SCENARIOS {
            let args = parse(&[name]).unwrap();
            assert_eq!(args.out, format!("BENCH_{name}.json"));
            assert!(!args.quick && !args.gate && args.check.is_none());
        }
        let args = parse(&["serve", "--quick", "--out", "x.json", "--gate"]).unwrap();
        assert_eq!(
            (args.quick, args.gate, args.out.as_str()),
            (true, true, "x.json")
        );
        let args = parse(&["topo", "--check", "BENCH_topo.json"]).unwrap();
        assert_eq!(args.check.as_deref(), Some("BENCH_topo.json"));
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for (args, expect) in [
            (&[][..], "missing scenario"),
            (&["loadgen"][..], "unknown scenario"),
            (&["cache", "--threads-max", "4"][..], "unknown argument"),
            (&["serve", "--seed", "1"][..], "unknown argument"),
            (&["store", "--out"][..], "--out needs a value"),
            (&["sync", "--check"][..], "--check needs a value"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(expect), "{args:?}: {err}");
        }
        assert_eq!(main(&["nope".to_string()]), 2);
    }
}
