//! A live trace changes how firings are grouped — the executor fires a
//! node one firing at a time, a session asks its runner for shares of
//! one, a worker fires every share alone — and nothing else. For the 16
//! macro-SIMDized suite programs, each engine run under a live
//! `TraceSession` must leave sink outputs, firing counts and modelled
//! counters bit-equal to the same run untraced, and record one firing
//! span per firing; every 2-core trace exports as a Chrome trace that
//! parses back.

use macross::driver::{macro_simdize, SimdizeOptions};
use macross_multicore::{plan_placement, CommModel};
use macross_runtime::{
    iteration_block, run_supervised_placed, FaultPlan, Placement, SessionEngine, SessionStatus,
    SupervisedRun, SupervisorOptions,
};
use macross_sdf::Schedule;
use macross_streamir::graph::Graph;
use macross_streamir::types::Value;
use macross_telemetry::{chrome, json, Event, EventKind, TraceSession};
use macross_vm::{CompiledPrograms, ExecMode, Executor, Machine};
use std::sync::Arc;

/// Events per trace track: more than any program's run records here.
const RING: usize = 1 << 16;

fn assert_bits_eq(ctx: &str, want: &[Value], got: &[Value]) {
    assert_eq!(want.len(), got.len(), "{ctx}: output length");
    assert!(!want.is_empty(), "{ctx}: produced no output");
    let same = want.iter().zip(got).all(|(a, b)| a.bits_eq(*b));
    assert!(same, "{ctx}: output bits");
}

/// Drain `session`: it recorded something, dropped nothing, and holds
/// exactly `firings` firing spans.
fn drain_spans(ctx: &str, session: &TraceSession, firings: u64) -> Vec<(u32, Event)> {
    let events = session.drain();
    assert!(!events.is_empty(), "{ctx}: the trace recorded nothing");
    assert_eq!(session.dropped(), 0, "{ctx}: events dropped");
    let count = |kind| events.iter().filter(|(_, e)| e.kind == kind).count() as u64;
    assert_eq!(count(EventKind::FiringStart), firings, "{ctx}: span starts");
    assert_eq!(count(EventKind::FiringEnd), firings, "{ctx}: span ends");
    events
}

fn executor(g: &Graph, s: &Schedule, m: &Machine, iters: u64, name: &str) -> Vec<u64> {
    let programs = CompiledPrograms::compile(g, m, ExecMode::default());
    let run = |trace: Option<&TraceSession>| {
        let mut ex = Executor::with_programs(g, s, m, &programs);
        if let Some(session) = trace {
            ex.set_trace(session.worker(0));
        }
        ex.run(iters).unwrap();
        (ex.output_flat(), ex.counters(), ex.node_cycles())
    };
    let plain = run(None);
    let session = TraceSession::new(RING);
    let traced = run(Some(&session));
    let ctx = format!("{name}, executor");
    assert_bits_eq(&ctx, &plain.0, &traced.0);
    assert_eq!(
        (plain.1, &plain.2),
        (traced.1, &traced.2),
        "{ctx}: counters"
    );
    let firings = (0..g.node_count())
        .map(|i| s.init_reps[i] + iters * s.reps[i])
        .sum();
    drain_spans(&ctx, &session, firings);
    plain.2
}

fn session(g: &Graph, s: &Schedule, m: &Machine, iters: u64, name: &str) {
    let programs = CompiledPrograms::compile(g, m, ExecMode::default());
    let (g, s, m) = (
        Arc::new(g.clone()),
        Arc::new(s.clone()),
        Arc::new(m.clone()),
    );
    let run = |trace: Option<&TraceSession>| {
        let mut engine = SessionEngine::new(
            g.clone(),
            s.clone(),
            m.clone(),
            &programs,
            FaultPlan::none(),
            0,
        );
        if let Some(session) = trace {
            engine.set_host(0, session.worker(0));
        }
        assert_eq!(engine.run_init(), SessionStatus::Running, "{name}");
        assert_eq!(engine.run_steady(iters), SessionStatus::Running, "{name}");
        let mut rows = vec![Vec::new(); engine.sink_ids().len()];
        engine.drain_outputs_into(&mut rows);
        (rows.concat(), engine.counters(), engine.firings())
    };
    let plain = run(None);
    let session = TraceSession::new(RING);
    let traced = run(Some(&session));
    let ctx = format!("{name}, session");
    assert_bits_eq(&ctx, &plain.0, &traced.0);
    assert_eq!((plain.1, plain.2), (traced.1, traced.2), "{ctx}: counters");
    drain_spans(&ctx, &session, plain.2);
}

/// `placement` run untraced and traced; returns the trace's events.
fn threaded(
    g: &Graph,
    s: &Schedule,
    m: &Machine,
    placement: &Placement,
    iters: u64,
    ctx: &str,
) -> Vec<(u32, Event)> {
    let opts = SupervisorOptions::default();
    let run = |session: &TraceSession| -> SupervisedRun {
        let run = run_supervised_placed(g, s, m, placement, iters, &opts, session).unwrap();
        assert!(run.completed, "{ctx}: {:?}", run.report.failures);
        run
    };
    let plain = run(&TraceSession::disabled());
    let session = TraceSession::new(RING);
    let traced = run(&session);
    assert_bits_eq(ctx, &plain.output, &traced.output);
    let firings =
        |r: &SupervisedRun| -> Vec<u64> { r.report.stages.iter().map(|s| s.firings).collect() };
    assert_eq!(firings(&plain), firings(&traced), "{ctx}: stage firings");
    assert_eq!(
        plain.report.core_modelled, traced.report.core_modelled,
        "{ctx}: modelled counters"
    );
    drain_spans(ctx, &session, firings(&plain).iter().sum())
}

#[test]
fn a_traced_run_equals_an_untraced_one_on_every_engine() {
    let machine = Machine::core_i7();
    // One share of every node and part of a second.
    let iters = iteration_block() + 2;
    for b in macross_benchsuite::all() {
        let simd = macro_simdize(&(b.build)(), &machine, &SimdizeOptions::all()).unwrap();
        let (g, s) = (&simd.graph, &simd.schedule);
        let node_cycles = executor(g, s, &machine, iters, b.name);
        session(g, s, &machine, iters, b.name);
        let one_core = Placement::whole_stage(vec![0; g.node_count()]);
        threaded(
            g,
            s,
            &machine,
            &one_core,
            iters,
            &format!("{}, 1 core", b.name),
        );
        let plan = plan_placement(g, s, &node_cycles, 2, &CommModel::default());
        let ctx = format!("{}, 2 cores", b.name);
        let events = threaded(g, s, &machine, &plan.placement, iters, &ctx);
        // The trace exports as a Chrome document that parses back with
        // only complete (`X`) and instant (`i`) events in it.
        let names: Vec<String> = g.node_ids().map(|id| g.node(id).name()).collect();
        let doc = chrome::chrome_trace(&events, &names).to_string_compact();
        let doc = json::parse(&doc).unwrap();
        let exported = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert!(!exported.is_empty(), "{ctx}: empty Chrome trace");
        for e in exported {
            let ph = e.get("ph").and_then(|p| p.as_str());
            assert!(matches!(ph, Some("X" | "i")), "{ctx}: event phase {ph:?}");
        }
    }
}
