//! Replay a failing supervised run from its `REPLAY_*.json` bundle.
//!
//! ```text
//! cargo run -p macross-bench --bin replay_fault -- REPLAY_FMRadio_7.json
//! ```
//!
//! Exit status: 0 when every bundle reproduced its recorded failures and
//! sink lengths exactly, 1 on divergence or error, 2 on usage errors.

use macross_bench::replay::run_bundle;
use macross_runtime::ReplayBundle;
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: replay_fault <REPLAY_*.json>...");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for path in &args {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                ok = false;
                continue;
            }
        };
        let bundle = match ReplayBundle::from_str(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: malformed bundle: {e}");
                ok = false;
                continue;
            }
        };
        println!(
            "{path}: {} ({}, {} on {} cores, seed {})",
            bundle.benchmark,
            bundle.exec_mode,
            if bundle.simdized {
                "simdized"
            } else {
                "scalar"
            },
            bundle.assignment.iter().max().map(|&c| c + 1).unwrap_or(1),
            bundle.plan.seed,
        );
        match run_bundle(&bundle) {
            Ok(outcome) => {
                for f in &outcome.run.report.failures {
                    println!("  observed: {f}");
                }
                for (sink, len) in &outcome.observed.sinks {
                    println!("  sink {sink} committed {len} value(s)");
                }
                if outcome.reproduced {
                    println!(
                        "  REPRODUCED: {} failure(s) and every sink length match the bundle",
                        outcome.observed.failures.len()
                    );
                } else {
                    println!("  DIVERGED: expected {:?}", bundle.expect);
                    println!("            observed {:?}", outcome.observed);
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("{path}: replay failed: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
