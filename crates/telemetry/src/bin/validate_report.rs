//! Validate `SERVICE_*.json` files against the `macross-service-v2`
//! schema.
//!
//! Usage: `validate_report [--errors-only] <file.json>...` — prints one
//! line per violation (with the offending key path) and per warning, and
//! exits non-zero if any file fails to parse, is not a service report,
//! violates the schema, or triggers a warning. `--errors-only` downgrades
//! warnings to informative output. CI runs this on the reports a soak or
//! dynamic-rate run emitted.

use macross_telemetry::json;
use macross_telemetry::service;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut errors_only = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--errors-only" => errors_only = true,
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprintln!("usage: validate_report [--errors-only] <SERVICE_*.json>...");
        return ExitCode::from(2);
    }
    let mut bad_files = 0usize;
    for path in &paths {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("read failed: {e}"))
            .and_then(|s| json::parse(&s))
            .and_then(|doc| {
                if service::is_service_report(&doc) {
                    Ok(doc)
                } else {
                    Err(format!(
                        "not a service report (expected \"schema\": {:?})",
                        service::SERVICE_SCHEMA
                    ))
                }
            });
        let doc = match doc {
            Ok(doc) => doc,
            Err(e) => {
                println!("{path}: INVALID — {e}");
                bad_files += 1;
                continue;
            }
        };
        let (violations, warnings) = (service::check(&doc), service::warnings(&doc));
        for v in &violations {
            println!("{path}: error: {v}");
        }
        for w in &warnings {
            println!("{path}: warning: {w}");
        }
        if !violations.is_empty() || (!errors_only && !warnings.is_empty()) {
            println!(
                "{path}: INVALID — {} violation(s), {} warning(s)",
                violations.len(),
                warnings.len()
            );
            bad_files += 1;
        } else {
            println!("{path}: OK");
        }
    }
    if bad_files > 0 {
        eprintln!("{bad_files} of {} report(s) invalid", paths.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
