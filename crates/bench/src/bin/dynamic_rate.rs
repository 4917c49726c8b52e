//! Dynamic-rate experiment: drive every dynamic benchmark through the
//! multi-tenant service with its scripted parameter traces, verify each
//! run bit-for-bit against the scratch-recompilation oracle, and check
//! the schedule-cache contract — every `set_param` is one
//! reconfiguration, repeat valuations hit, and (at these sizes, with
//! zero evictions) misses equal distinct valuations.
//!
//! Usage: `dynamic_rate [--workers W]` (default 2 workers), on the
//! bytecode engine. Any violated invariant exits non-zero. With
//! `MACROSS_BENCH_DIR` set, writes `SERVICE_dynamic_bytecode.json` there
//! for `validate_report`.

use macross::SimdizeOptions;
use macross_bench::{bench_dir, render_table};
use macross_benchsuite::dynamic::dynamic;
use macross_pdf::oracle_replay;
use macross_runtime::FaultPlan;
use macross_service::{mode_label, ServiceConfig, StreamService};
use macross_streamir::types::Value;
use macross_vm::{ExecMode, Machine};
use std::sync::Arc;

const MODE: ExecMode = ExecMode::Bytecode;

/// The `--workers` value.
fn parse_args() -> usize {
    let mut workers = 2;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--workers" => workers = value("--workers").parse().expect("--workers"),
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    workers
}

fn fail(msg: &str) -> ! {
    eprintln!("DYNAMIC-RATE VIOLATION: {msg}");
    std::process::exit(1);
}

fn rows_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.bits_eq(*q)))
}

fn main() {
    let workers = parse_args();
    let machine = Machine::core_i7();
    let opts = SimdizeOptions::all();
    let report_name = format!("dynamic_{}", mode_label(MODE));
    println!(
        "== dynamic-rate: {} benchmarks, {} workers, {} engine ==",
        dynamic().len(),
        workers,
        mode_label(MODE)
    );
    let service = StreamService::new(
        machine.clone(),
        ServiceConfig {
            workers,
            mode: MODE,
            ..ServiceConfig::default()
        },
    );

    let mut expected_reconfigs = 0u64;
    let mut sessions = 0u64;
    let mut table = Vec::new();
    for b in dynamic() {
        let template = Arc::new((b.template)());
        // Prove the template swappable before trusting any swap below.
        let sweep = template
            .validate_swappable(&machine, &opts, MODE)
            .unwrap_or_else(|e| fail(&format!("{}: not swappable: {e}", b.name)));
        for trace in (b.traces)() {
            let want = oracle_replay(&template, &(b.init)(), &trace, &machine, &opts, MODE)
                .unwrap_or_else(|e| fail(&format!("{}/{}: oracle: {e}", b.name, trace.name)));
            let id = service
                .submit_dynamic(b.name, &template, &(b.init)(), FaultPlan::none())
                .unwrap_or_else(|e| fail(&format!("{}/{}: submit: {e}", b.name, trace.name)));
            for step in &trace.steps {
                for (name, value) in &step.sets {
                    service.set_param(id, name, *value).unwrap_or_else(|e| {
                        fail(&format!("{}/{}: set_param: {e}", b.name, trace.name))
                    });
                }
                service
                    .feed(id, step.iters)
                    .unwrap_or_else(|e| fail(&format!("{}/{}: feed: {e}", b.name, trace.name)));
            }
            let closed = service
                .close(id)
                .unwrap_or_else(|e| fail(&format!("{}/{}: close: {e}", b.name, trace.name)));
            if closed.faulted {
                fail(&format!(
                    "{}/{} faulted: {:?}",
                    b.name, trace.name, closed.failures
                ));
            }
            if closed.iters_done != trace.total_iters() {
                fail(&format!(
                    "{}/{}: {} of {} iterations ran",
                    b.name,
                    trace.name,
                    closed.iters_done,
                    trace.total_iters()
                ));
            }
            if !rows_equal(&closed.outputs, &want) {
                fail(&format!(
                    "{}/{}: service output differs from scratch oracle",
                    b.name, trace.name
                ));
            }
            expected_reconfigs += 1 + trace.reconfigurations();
            sessions += 1;
            table.push(vec![
                b.name.to_string(),
                trace.name.clone(),
                format!("{}", trace.total_iters()),
                format!("{}", trace.reconfigurations()),
                format!("{}", sweep.configurations),
                "ok".into(),
            ]);
        }
    }

    let report = service.shutdown(&report_name);
    let s = report.scache;
    if s.reconfigurations != expected_reconfigs {
        fail(&format!(
            "expected {expected_reconfigs} configuration installs, cache saw {}",
            s.reconfigurations
        ));
    }
    if s.hits + s.misses != s.reconfigurations {
        fail("schedule-cache arithmetic broken: hits + misses != reconfigurations");
    }
    if s.evictions == 0 && s.misses != s.distinct_valuations {
        fail(&format!(
            "compile-once-per-valuation broken: {} misses for {} distinct valuations",
            s.misses, s.distinct_valuations
        ));
    }
    if s.hits == 0 {
        fail("the traces revisit valuations; the schedule cache never hit");
    }
    if report.admission.admitted != sessions {
        fail(&format!(
            "{} sessions admitted, expected {sessions}",
            report.admission.admitted
        ));
    }
    if let Err(e) = macross_telemetry::service::validate_str(&report.json_string()) {
        fail(&format!("emitted report violates macross-service-v2: {e}"));
    }

    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "trace",
                "iters",
                "swaps",
                "configs",
                "vs oracle"
            ],
            &table,
        )
    );
    println!(
        "{}",
        render_table(
            &["metric", "value"],
            &[
                vec!["reconfigurations".into(), s.reconfigurations.to_string()],
                vec![
                    "distinct valuations".into(),
                    s.distinct_valuations.to_string()
                ],
                vec!["schedule-cache hits".into(), s.hits.to_string()],
                vec!["schedule-cache misses".into(), s.misses.to_string()],
                vec![
                    "compile-cache compilations".into(),
                    report.cache.compilations.to_string()
                ],
            ],
        )
    );
    if let Some(dir) = bench_dir() {
        match report.write_to_dir(&dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => fail(&format!("failed to write {}: {e}", report.file_name())),
        }
    }
    println!("dynamic-rate experiment passed");
}
