//! The first worker core runs on the thread that called the runtime. A
//! failure on that core — a panic, a VM error, a watchdog escalation —
//! must leave the calling thread fit for the next run: each faulty run
//! reports its exact `StageFailure` and committed prefix, and the clean
//! run after it, on the same thread, is bit-exact. So is a run made from
//! inside the caller's own `std::thread::scope`.
//!
//! Requires `--features fault-inject` (planned faults are inert without).
#![cfg(feature = "fault-inject")]

use macross_runtime::{
    iteration_block, run_supervised_placed, run_threaded_placed, FaultKind, FaultPlan, Placement,
    SupervisedRun, SupervisorOptions,
};
use macross_sdf::Schedule;
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::Graph;
use macross_streamir::types::{ScalarTy, Ty, Value};
use macross_telemetry::TraceSession;
use macross_vm::{run_scheduled, Machine};
use std::time::Duration;

/// src -> victim -> mid -> sink.
fn chain() -> (Graph, Schedule) {
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        b.push(v(n));
        b.set(n, v(n) * 5i32 + 3i32);
    });
    let stage = |name: &str, k: i32| {
        let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
        fb.work(move |b| {
            b.push(pop() * k + 1i32);
        });
        fb.build_spec()
    };
    let graph = StreamSpec::pipeline(vec![
        src.build_spec(),
        stage("victim", 3),
        stage("mid", 7),
        StreamSpec::Sink,
    ])
    .build()
    .unwrap();
    let schedule = Schedule::compute(&graph).unwrap();
    (graph, schedule)
}

fn bits_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(*y))
}

/// A clean run on this thread, bit-exact against the executor: src,
/// victim and sink on core 0 (the calling thread), mid on core 1, so the
/// calling thread hosts both ends of a round trip.
fn clean_run(ctx: &str) {
    let (graph, schedule) = chain();
    let machine = Machine::core_i7();
    let iters = 4 * iteration_block();
    let seq = run_scheduled(&graph, &schedule, &machine, iters).unwrap();
    let ping_pong = Placement::whole_stage(vec![0, 0, 1, 0]);
    let thr = run_threaded_placed(&graph, &schedule, &machine, &ping_pong, iters)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert!(
        bits_eq(&seq.output, &thr.output),
        "{ctx}: clean run diverged"
    );
}

#[test]
fn faults_on_the_calling_threads_core_leave_it_fit_for_the_next_run() {
    let (graph, schedule) = chain();
    // The source on core 1, the rest on core 0 (the calling thread): the
    // victim's path to the sink stays on its core, so the drain delivers
    // exactly its committed firings whatever the other thread is doing.
    let placement = Placement::whole_stage(vec![1, 0, 0, 0]);
    let machine = Machine::core_i7();
    let iters = 4 * iteration_block();
    let seq = run_scheduled(&graph, &schedule, &machine, iters).unwrap();
    // In the middle of the victim's third block.
    let firing = 2 * iteration_block() + 5;
    let faulty = |kind: FaultKind, watchdog: Option<Duration>| -> SupervisedRun {
        let opts = SupervisorOptions {
            watchdog,
            ..SupervisorOptions::with_plan(FaultPlan::single(1, firing, kind))
        };
        let session = TraceSession::disabled();
        run_supervised_placed(
            &graph, &schedule, &machine, &placement, iters, &opts, &session,
        )
        .unwrap()
    };
    let cases = [
        (FaultKind::Panic, None, "panic"),
        (FaultKind::PoisonTape, None, "vm"),
        (
            FaultKind::StallFiring {
                nanos: 30_000_000_000,
            },
            Some(Duration::from_millis(300)),
            "watchdog",
        ),
    ];
    for (kind, watchdog, cause) in cases {
        let run = faulty(kind, watchdog);
        let [f] = run.report.failures.as_slice() else {
            panic!(
                "{cause}: expected one failure, got {:?}",
                run.report.failures
            )
        };
        assert!(!run.completed, "{cause}");
        assert_eq!(
            (f.stage, f.core, f.firing, f.cause.label()),
            (1, 0, firing, cause)
        );
        // Everything downstream drains: the sink holds exactly the
        // victim's committed firings.
        assert_eq!(run.report.stages[1].firings, firing, "{cause}");
        assert!(
            bits_eq(&run.output, &seq.output[..firing as usize]),
            "{cause}: committed prefix"
        );
        clean_run(&format!("after {cause}"));
    }
}

#[test]
fn a_run_inside_the_callers_own_scope_is_bit_exact() {
    std::thread::scope(|s| {
        let beside = s.spawn(|| clean_run("scoped thread"));
        clean_run("scope owner");
        beside.join().unwrap();
    });
}
