//! Multi-tenant service soak: oversubscribe a `StreamService` with mixed
//! benchmark sessions and check the subsystem's contract end to end —
//! typed `Overloaded` rejections past the session cap, compile-once
//! behaviour (compilations == distinct graph shapes, not sessions),
//! per-tenant output counts, a graceful shutdown that drains everything
//! admitted, and a report with a row per tenant whose counters pass
//! `ServiceReport::violations`.
//!
//! Usage: `service_soak [--sessions N] [--cap M] [--workers W]
//! [--iters I] [--mode bytecode|treewalk]`
//! (defaults: 72 sessions over a cap of 64, 4 workers, 4 iterations,
//! bytecode). Any violated invariant exits non-zero, before any report is
//! written. With `MACROSS_BENCH_DIR` set, writes the checked report as
//! `SERVICE_soak_<mode>.json` there.

use macross_bench::{bench_dir, render_table};
use macross_runtime::FaultPlan;
use macross_service::{ServiceConfig, StreamService, TenantState};
use macross_vm::{ExecMode, Machine};

struct Args {
    sessions: usize,
    cap: usize,
    workers: usize,
    iters: u64,
    mode: ExecMode,
}

fn parse_args() -> Args {
    let mut args = Args {
        sessions: 72,
        cap: 64,
        workers: 4,
        iters: 4,
        mode: ExecMode::Bytecode,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--sessions" => args.sessions = value("--sessions").parse().expect("--sessions"),
            "--cap" => args.cap = value("--cap").parse().expect("--cap"),
            "--workers" => args.workers = value("--workers").parse().expect("--workers"),
            "--iters" => args.iters = value("--iters").parse().expect("--iters"),
            "--mode" => {
                let label = value("--mode");
                args.mode = ExecMode::from_label(&label).unwrap_or_else(|| {
                    eprintln!("unknown mode '{label}' (bytecode|treewalk)");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    args
}

fn fail(msg: &str) -> ! {
    eprintln!("SOAK VIOLATION: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let machine = Machine::core_i7();
    let report_name = format!("soak_{}", args.mode.label());
    println!(
        "== service soak: {} sessions, cap {}, {} workers, {} iters, {} engine ==",
        args.sessions,
        args.cap,
        args.workers,
        args.iters,
        args.mode.label()
    );
    let service = StreamService::new(
        machine,
        ServiceConfig {
            workers: args.workers,
            session_cap: args.cap,
            mode: args.mode,
            ..ServiceConfig::default()
        },
    );
    let suite = macross_benchsuite::all();

    // Oversubscribed admission: every submission past the cap must come
    // back as the typed Overloaded error, never a panic or a hang.
    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..args.sessions {
        let bench = &suite[i % suite.len()];
        let graph = (bench.build)();
        match service.submit(bench.name, &graph, FaultPlan::none()) {
            Ok(id) => admitted.push((id, bench.name, bench.iters.min(args.iters))),
            Err(e) if e.is_overloaded() => rejected += 1,
            Err(e) => fail(&format!("submission {i} failed non-overloaded: {e}")),
        }
    }
    let expect_rejected = args.sessions.saturating_sub(args.cap);
    if rejected != expect_rejected {
        fail(&format!(
            "expected {expect_rejected} Overloaded rejections, saw {rejected}"
        ));
    }
    println!(
        "admitted {} sessions, rejected {rejected} (typed Overloaded)",
        admitted.len()
    );

    // Feed everyone, then close the first half explicitly; the second
    // half stays live so shutdown must drain it.
    for (id, name, iters) in &admitted {
        service
            .feed(*id, *iters)
            .unwrap_or_else(|e| fail(&format!("feed {name}#{id}: {e}")));
    }
    let half = admitted.len() / 2;
    for (id, name, iters) in &admitted[..half] {
        let closed = service
            .close(*id)
            .unwrap_or_else(|e| fail(&format!("close {name}#{id}: {e}")));
        if closed.faulted {
            fail(&format!("{name}#{id} faulted: {:?}", closed.failures));
        }
        if closed.iters_done != *iters {
            fail(&format!(
                "{name}#{id}: {} of {iters} iterations ran",
                closed.iters_done
            ));
        }
        if closed.outputs.iter().map(Vec::len).sum::<usize>() == 0 {
            fail(&format!("{name}#{id} produced no output"));
        }
    }

    let report = service.shutdown(&report_name);
    // The counters' own rules, compile-once among them: with nothing
    // evicted, one compilation per distinct structural hash.
    let violations = report.violations();
    if !violations.is_empty() {
        fail(&format!("report: {}", violations.join("; ")));
    }
    if report.tenants.is_empty() {
        fail("the report carries no tenant rows");
    }

    // The benchmark mix has at most 14 shapes no matter how many
    // sessions, and the cache saw exactly the tenants' hashes.
    let distinct: std::collections::HashSet<_> =
        report.tenants.iter().map(|t| t.graph_hash).collect();
    let cache = report.last.cache;
    if cache.distinct_graphs != distinct.len() as u64 {
        fail(&format!(
            "cache saw {} distinct hashes but tenants carry {}",
            cache.distinct_graphs,
            distinct.len()
        ));
    }
    for row in &report.tenants {
        if row.faults > 0 || row.state == TenantState::Faulted {
            fail(&format!("tenant {}#{} faulted", row.benchmark, row.session));
        }
        if row.iters_done != row.iters_requested {
            fail(&format!(
                "tenant {}#{}: {}/{} iterations drained",
                row.benchmark, row.session, row.iters_done, row.iters_requested
            ));
        }
    }

    let admission = report.last.admission;
    println!(
        "{}",
        render_table(
            &["metric", "value"],
            &[
                vec!["distinct graphs".into(), cache.distinct_graphs.to_string()],
                vec!["compilations".into(), cache.compilations.to_string()],
                vec![
                    "cache hit rate".into(),
                    format!("{:.1}%", cache.hit_rate() * 100.0)
                ],
                vec!["admitted".into(), admission.admitted.to_string()],
                vec![
                    "rejected (Overloaded)".into(),
                    admission.rejected_sessions.to_string(),
                ],
                vec![
                    "drained on shutdown".into(),
                    admission.drained_on_shutdown.to_string(),
                ],
                vec![
                    "backpressure stalls".into(),
                    admission.backpressure_stalls.to_string(),
                ],
                vec!["steals".into(), admission.steals.to_string()],
            ],
        )
    );
    if let Some(dir) = bench_dir() {
        match report.write_to_dir(&dir) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => fail(&format!("failed to write {}: {e}", report.file_name())),
        }
    }
    println!("service soak passed");
}
