//! `suite_e2e`: one wall-clock ledger for the 16-program suite.
//!
//! ```text
//! suite_e2e [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--quick] [--record <file>]
//! suite_e2e trace --workload <name> --seed <n>      (= run --trace 1)
//! suite_e2e all   --seed <n> [--quick] [--record <file>]
//! suite_e2e check --seed <n> [--quick]
//! suite_e2e selftest
//! ```
//!
//! See `benchmark/README.md` for what every workload and metric means.

mod check;
mod host;
mod ledger;
mod names;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use run::{Outcome, RunConfig, DEFAULT_SECONDS, QUICK_SECONDS};
use std::io::Write;
use workloads::Workload;

/// Parsed command line.
pub struct Args {
    pub command: String,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub record: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        record: None,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--record" => args.record = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.command == "trace" {
        args.command = "run".into();
        args.trace = true;
    }
    Ok(args)
}

impl Args {
    fn config(&self) -> Result<RunConfig, String> {
        let name = self.workload.as_deref().ok_or("--workload is required")?;
        let workload = Workload::from_name(name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name} (known: {})", known.join(", "))
        })?;
        Ok(RunConfig {
            workload,
            seed: self.seed,
            seconds: self.seconds.unwrap_or(if self.quick {
                QUICK_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            trace: self.trace,
            quick: self.quick,
            corrupt_reference: false,
        })
    }
}

/// Run one configuration in this process.
pub fn run_one(cfg: &RunConfig) -> Result<Outcome, String> {
    if cfg.trace {
        ledger::run_traced(cfg)
    } else {
        run::run_untraced(cfg)
    }
}

fn append_record(path: &str, outcome: &Outcome) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{}", outcome.record_json().to_string_compact()).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    host::refuse_macross_env()?;
    match args.command.as_str() {
        "run" => {
            let outcome = run_one(&args.config()?)?;
            if let Some(path) = &args.record {
                append_record(path, &outcome)?;
            }
            outcome.print();
            Ok(outcome.exit_code())
        }
        "all" => check::all(&args),
        "check" => check::check(&args),
        "selftest" => check::selftest(),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("suite_e2e: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_telemetry::json::{self, Json};

    fn listed(doc: &Json, key: &str, field: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (text("name"), text(field))
            })
            .collect()
    }

    /// `BENCHMARK.json` and the tables in `names.rs` / `workloads.rs` /
    /// `run.rs` say the same thing, in the same order.
    #[test]
    fn benchmark_json_matches_the_source_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let names = |list: Vec<(String, String)>| list.into_iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(
            names(listed(&doc, "workloads", "why")),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(
            listed(&doc, "end_to_end", "unit"),
            names::end_to_end()
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect::<Vec<_>>()
        );
        let per_layer: Vec<(String, String)> = names::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer", "unit"), per_layer);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1)
        );
    }

    #[test]
    fn driver_arguments_parse() {
        let argv: Vec<String> = "--workload compile_cold --seed 9 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let cfg = parse_args(&argv).unwrap().config().unwrap();
        assert_eq!(cfg.workload, Workload::CompileCold);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 3.0, true));
        let argv: Vec<String> = ["trace", "--workload", "nope"].map(str::to_string).to_vec();
        let args = parse_args(&argv).unwrap();
        assert!(args.trace && args.command == "run");
        assert!(args.config().unwrap_err().contains("unknown workload nope"));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }
}
