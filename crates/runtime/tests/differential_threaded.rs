//! Differential suite: for every benchsuite graph, the threaded runtime
//! (1, 2, and 4 workers) must produce bit-identical output to the
//! single-threaded `run_scheduled` interpreter — for the scalar graph and
//! for the macro-SIMDized graph — and the three engines built on the one
//! firing path (`Executor`, a one-core threaded run, `SessionEngine`) must
//! agree on modelled cycle counters too.
//!
//! LPT partitions place the cut edges where the naive multi-core
//! scheduler would; an extra round-robin placement per benchmark cuts
//! *every* edge, stressing the ring path on edges LPT happens to keep
//! local (including reordered tapes split across cores).

use macross::driver::{macro_simdize, SimdizeOptions};
use macross_multicore::{plan_placement, CommModel, Partition};
use macross_runtime::{
    run_supervised_placed, run_threaded_placed, FaultPlan, FissionSpec, Placement, SessionEngine,
    SessionStatus, SupervisedRun, SupervisorOptions,
};
use macross_sdf::Schedule;
use macross_streamir::graph::{Graph, NodeId};
use macross_streamir::types::Value;
use macross_telemetry::TraceSession;
use macross_vm::{run_scheduled, CompiledPrograms, ExecMode, Executor, Machine};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn assert_bits_eq(ctx: &str, seq: &[Value], thr: &[Value]) {
    assert_eq!(seq.len(), thr.len(), "{ctx}: output length mismatch");
    assert!(!seq.is_empty(), "{ctx}: produced no output");
    for (i, (a, b)) in seq.iter().zip(thr).enumerate() {
        assert!(
            a.bits_eq(*b),
            "{ctx}: output {i}: sequential {a:?} vs threaded {b:?}"
        );
    }
}

/// Compare threaded against sequential for one (graph, schedule) pair
/// under LPT partitions at each worker count plus a round-robin placement
/// that cuts every edge.
fn check_graph(name: &str, graph: &Graph, schedule: &Schedule, machine: &Machine, iters: u64) {
    let seq = run_scheduled(graph, schedule, machine, iters).expect("sequential run failed");
    for &cores in &WORKER_COUNTS {
        eprintln!("[diff] {name} x{cores}");
        let part = Partition::lpt(graph, schedule, &seq.node_cycles, cores);
        let placement = Placement::whole_stage(part.assignment.clone());
        let thr = run_threaded_placed(graph, schedule, machine, &placement, iters)
            .unwrap_or_else(|e| panic!("{name} x{cores}: threaded run failed: {e}"));
        assert_bits_eq(&format!("{name} x{cores} (lpt)"), &seq.output, &thr.output);
        assert_eq!(
            thr.report.cut_edges,
            part.cut_edges.len(),
            "{name} x{cores}: cut edge count"
        );
        // Every steady firing happened exactly iters * reps times (plus init).
        for (i, stage) in thr.report.stages.iter().enumerate() {
            let expected = schedule.init_reps[i] + iters * schedule.reps[i];
            assert_eq!(
                stage.firings, expected,
                "{name} x{cores}: firings of stage {i}"
            );
        }
    }
    eprintln!("[diff] {name} round-robin");
    let rr = Placement::whole_stage((0..graph.node_count() as u32).map(|i| i % 4).collect());
    let thr = run_threaded_placed(graph, schedule, machine, &rr, iters)
        .unwrap_or_else(|e| panic!("{name} round-robin: threaded run failed: {e}"));
    assert_bits_eq(&format!("{name} (round-robin)"), &seq.output, &thr.output);
}

fn bench_iters(iters: u64) -> u64 {
    iters.min(6)
}

/// The three engines over the one firing path must agree on sink bits
/// *and* on modelled cycles taken over the same phases: a one-core
/// threaded run reports the steady phase (like `run_scheduled`), a
/// `SessionEngine` never resets after init (like `Executor::run` without
/// `reset_counters`).
fn check_engines(name: &str, graph: &Graph, schedule: &Schedule, machine: &Machine, iters: u64) {
    let steady = run_scheduled(graph, schedule, machine, iters).expect("sequential run failed");
    let one_core = Placement::whole_stage(vec![0; graph.node_count()]);
    let thr = run_threaded_placed(graph, schedule, machine, &one_core, iters)
        .unwrap_or_else(|e| panic!("{name}: one-core threaded run failed: {e}"));
    assert_bits_eq(&format!("{name} (one core)"), &steady.output, &thr.output);
    assert_eq!(
        thr.report.core_modelled,
        vec![steady.counters],
        "{name}: one-core threaded counters diverge from the executor"
    );

    let mut whole = Executor::new(graph, schedule, machine);
    whole.run(iters).expect("sequential run failed");
    let programs = CompiledPrograms::compile(graph, machine, ExecMode::default());
    let mut session = SessionEngine::new(
        Arc::new(graph.clone()),
        Arc::new(schedule.clone()),
        Arc::new(machine.clone()),
        &programs,
        FaultPlan::none(),
        0,
    );
    assert_eq!(session.run_init(), SessionStatus::Running, "{name}");
    assert_eq!(session.run_steady(iters), SessionStatus::Running, "{name}");
    let session_out: Vec<Value> = session.take_outputs().into_iter().flatten().collect();
    assert_bits_eq(&format!("{name} (session)"), &steady.output, &session_out);
    assert_eq!(
        session.counters(),
        whole.counters(),
        "{name}: session counters diverge from the executor"
    );
}

#[test]
fn session_and_one_core_threaded_match_executor_bits_and_counters() {
    let machine = Machine::core_i7();
    for b in macross_benchsuite::all() {
        let iters = bench_iters(b.iters);
        let graph = (b.build)();
        let schedule = Schedule::compute(&graph).expect("benchsuite graph must schedule");
        check_engines(b.name, &graph, &schedule, &machine, iters);
        let simd = macro_simdize(&graph, &machine, &SimdizeOptions::all())
            .unwrap_or_else(|e| panic!("{}: simdize failed: {e}", b.name));
        check_engines(
            &format!("{}-simd", b.name),
            &simd.graph,
            &simd.schedule,
            &machine,
            iters,
        );
    }
}

#[test]
fn scalar_graphs_threaded_matches_sequential() {
    let machine = Machine::core_i7();
    for b in macross_benchsuite::all() {
        let graph = (b.build)();
        let schedule = Schedule::compute(&graph).expect("benchsuite graph must schedule");
        check_graph(b.name, &graph, &schedule, &machine, bench_iters(b.iters));
    }
}

#[test]
fn simdized_graphs_threaded_matches_sequential() {
    // The SAGU machine maximizes VectorReorder tape decisions, so cut
    // edges with producer- and consumer-side reorder halves get exercised.
    let machine = Machine::core_i7_with_sagu();
    for b in macross_benchsuite::all() {
        let graph = (b.build)();
        let simd = macro_simdize(&graph, &machine, &SimdizeOptions::all())
            .unwrap_or_else(|e| panic!("{}: simdize failed: {e}", b.name));
        let name = format!("{}-simd", b.name);
        check_graph(
            &name,
            &simd.graph,
            &simd.schedule,
            &machine,
            bench_iters(b.iters),
        );
    }
}

#[test]
fn simdized_no_sagu_variant_also_matches() {
    // Software-reordered tapes (AddrGen::Software) take a different cost
    // path; run a few benchmarks on the plain machine too.
    let machine = Machine::core_i7();
    for name in ["FMRadio", "DCT", "MatrixMult"] {
        let b = macross_benchsuite::by_name(name).expect("known benchmark");
        let graph = (b.build)();
        let simd = macro_simdize(&graph, &machine, &SimdizeOptions::all())
            .unwrap_or_else(|e| panic!("{name}: simdize failed: {e}"));
        check_graph(
            &format!("{name}-simd-sw"),
            &simd.graph,
            &simd.schedule,
            &machine,
            bench_iters(b.iters),
        );
    }
}

/// A ten-stage chain whose rates differ stage to stage (so steady
/// repetition counts do) and whose FIR peeks ahead (so init tokens stay
/// resident on an edge).
fn mixed_rate_chain() -> Graph {
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};

    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        b.push(v(n));
        b.set(n, v(n) * 5i32 + 3i32);
    });
    let mut fork = FilterBuilder::new("fork", 1, 1, 2, ScalarTy::I32);
    let t = fork.local("t", Ty::Scalar(ScalarTy::I32));
    fork.work(|b| {
        b.set(t, pop());
        b.push(v(t));
        b.push(v(t) + 1i32);
    });
    let mut fir = FilterBuilder::new("fir", 3, 1, 1, ScalarTy::I32);
    let used = fir.local("used", Ty::Scalar(ScalarTy::I32));
    fir.work(|b| {
        b.push(peek(0i32) + peek(1i32) * 2i32 + peek(2i32) * 3i32);
        b.set(used, pop());
    });
    let mut fold = FilterBuilder::new("fold", 2, 2, 1, ScalarTy::I32);
    fold.work(|b| {
        b.push(pop() - pop());
    });
    let pass = |name: &str| {
        let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
        fb.work(|b| {
            b.push(pop() + 1i32);
        });
        fb.build_spec()
    };
    StreamSpec::pipeline(vec![
        src.build_spec(),
        pass("p1"),
        fork.build_spec(),
        pass("p2"),
        fir.build_spec(),
        pass("p3"),
        fold.build_spec(),
        pass("p4"),
        pass("p5"),
        StreamSpec::Sink,
    ])
    .build()
    .unwrap()
}

/// Stage `i` of the chain on core `i % workers`: with two workers every
/// edge leaves its core and the next one comes back (0 -> 1 -> 0 ...),
/// the dependency shape whose hand-off the iteration blocks amortize.
fn cyclic_placement(graph: &Graph, workers: usize) -> Placement {
    Placement::whole_stage(
        (0..graph.node_count())
            .map(|i| (i % workers) as u32)
            .collect(),
    )
}

#[test]
fn cyclic_core_assignment_matches_sequential_around_block_boundaries() {
    let graph = mixed_rate_chain();
    let schedule = Schedule::compute(&graph).unwrap();
    let machine = Machine::core_i7();
    let block = macross_runtime::iteration_block();
    for iters in [1, block - 1, block, block + 1, 3 * block + 5] {
        let seq = run_scheduled(&graph, &schedule, &machine, iters).unwrap();
        for workers in WORKER_COUNTS {
            let ctx = format!("chain x{workers}, {iters} iterations");
            let placement = cyclic_placement(&graph, workers);
            let thr = run_threaded_placed(&graph, &schedule, &machine, &placement, iters)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_bits_eq(&ctx, &seq.output, &thr.output);
            assert_eq!(thr.report.block, block, "{ctx}");
            // The cores' modelled cycles partition the sequential run's,
            // class by class.
            let mut total = macross_vm::CycleCounters::default();
            thr.report
                .core_modelled
                .iter()
                .for_each(|c| total.absorb(c));
            assert_eq!(total, seq.counters, "{ctx}: modelled cycles");
        }
    }
}

#[test]
fn oversubscribed_workers_finish_inside_a_wall_clock_bound() {
    // Eight workers in a dependency cycle on however few cores the host
    // has (two on the development sandbox): every waiting worker must
    // give its core to the peer it waits for. With a wait that only
    // spins, a hand-over takes a scheduler time slice and this run 13 s
    // on two cores; as shipped it takes 0.1 s.
    let graph = mixed_rate_chain();
    let schedule = Schedule::compute(&graph).unwrap();
    let machine = Machine::core_i7();
    let iters = 4000;
    let seq = run_scheduled(&graph, &schedule, &machine, iters).unwrap();
    let t0 = std::time::Instant::now();
    let thr = run_threaded_placed(
        &graph,
        &schedule,
        &machine,
        &cyclic_placement(&graph, 8),
        iters,
    )
    .unwrap();
    let took = t0.elapsed();
    assert_bits_eq("chain x8", &seq.output, &thr.output);
    assert!(
        took < std::time::Duration::from_secs(5),
        "8 workers on {:?} cores took {took:?}",
        std::thread::available_parallelism()
    );
}

/// A clean supervised run in `mode`; with `one_at_a_time`, under a
/// watchdog that never fires — a timeout is per firing, so every firing
/// then takes an envelope of its own, as all of them did before shares.
fn supervised(
    ctx: &str,
    graph: &Graph,
    schedule: &Schedule,
    placement: &Placement,
    iters: u64,
    mode: ExecMode,
    one_at_a_time: bool,
) -> SupervisedRun {
    let opts = SupervisorOptions {
        mode,
        watchdog: one_at_a_time.then(|| std::time::Duration::from_secs(3600)),
        ..SupervisorOptions::default()
    };
    let session = TraceSession::disabled();
    let machine = Machine::core_i7();
    let run = run_supervised_placed(graph, schedule, &machine, placement, iters, &opts, &session)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert!(run.completed, "{ctx}: {:?}", run.report.failures);
    run
}

/// `(all firings, firings inside a share envelope)` of a run.
fn firings_and_batched(run: &SupervisedRun) -> (u64, u64) {
    let stages = &run.report.stages;
    (
        stages.iter().map(|s| s.firings).sum(),
        stages.iter().map(|s| s.batched_firings).sum(),
    )
}

/// Firing a node's share of a block through one envelope must be
/// invisible in everything but wall-clock: against the same run with one
/// envelope per firing, the same sink bits, modelled cycles, per-stage
/// firings and ring traffic — on every suite program, scalar and
/// SIMDized, under the planner's placement (fission included) and under
/// one that cuts every edge, in both engines, across a block boundary.
/// And every firing of a clean run with default options is in a share.
#[test]
fn shares_match_one_envelope_per_firing_on_every_benchmark() {
    let machine = Machine::core_i7();
    let iters = macross_runtime::iteration_block() + 3;
    for b in macross_benchsuite::all() {
        let graph = (b.build)();
        let simd = macro_simdize(&graph, &machine, &SimdizeOptions::all())
            .unwrap_or_else(|e| panic!("{}: simdize failed: {e}", b.name));
        let scalar = Schedule::compute(&graph).expect("benchsuite graph must schedule");
        for (cfg, graph, schedule) in [
            ("scalar", &graph, &scalar),
            ("simdized", &simd.graph, &simd.schedule),
        ] {
            let profile = run_scheduled(graph, schedule, &machine, 2).unwrap();
            let planned = plan_placement(
                graph,
                schedule,
                &profile.node_cycles,
                2,
                &CommModel::default(),
            )
            .placement;
            let every_edge_cut =
                Placement::whole_stage((0..graph.node_count() as u32).map(|i| i % 4).collect());
            for (how, placement) in [("planned", &planned), ("round-robin", &every_edge_cut)] {
                for mode in [ExecMode::Bytecode, ExecMode::TreeWalk] {
                    let ctx = format!("{}/{cfg}/{how}/{mode:?}", b.name);
                    let shares = supervised(&ctx, graph, schedule, placement, iters, mode, false);
                    let singles = supervised(&ctx, graph, schedule, placement, iters, mode, true);
                    assert_bits_eq(&ctx, &singles.output, &shares.output);
                    let cycles = |run: &SupervisedRun| {
                        let mut total = macross_vm::CycleCounters::default();
                        run.report
                            .core_modelled
                            .iter()
                            .for_each(|c| total.absorb(c));
                        total
                    };
                    assert_eq!(cycles(&shares), cycles(&singles), "{ctx}: modelled cycles");
                    let traffic = |run: &SupervisedRun| -> Vec<(u64, u64, u64)> {
                        let stages = run.report.stages.iter();
                        stages.map(|s| (s.firings, s.ring_in, s.ring_out)).collect()
                    };
                    assert_eq!(traffic(&shares), traffic(&singles), "{ctx}: stage counters");
                    let (all, batched) = firings_and_batched(&shares);
                    assert!(
                        batched as f64 >= 0.98 * all as f64,
                        "{ctx}: {batched} of {all} firings in shares"
                    );
                    assert_eq!(firings_and_batched(&singles).1, 0, "{ctx}");
                }
            }
        }
    }
}

/// The init schedule goes through the share path too — the FIR's peek
/// slack is primed across a cut edge here, every edge being cut — and so
/// do a fissioned stage's replicas, the deal producer that feeds them and
/// the merge consumer behind their two rings: stage by stage, every
/// firing of these runs is inside a share.
#[test]
fn init_firings_replicas_and_their_neighbours_fire_in_shares() {
    let machine = Machine::core_i7();
    let iters = 2 * macross_runtime::iteration_block() + 1;
    let all_in_shares = |ctx: &str, graph: &Graph, placement: &Placement| {
        let schedule = Schedule::compute(graph).unwrap();
        let seq = run_scheduled(graph, &schedule, &machine, iters).unwrap();
        let mode = ExecMode::default();
        let run = supervised(ctx, graph, &schedule, placement, iters, mode, false);
        assert_bits_eq(ctx, &seq.output, &run.output);
        for (i, stage) in run.report.stages.iter().enumerate() {
            let scheduled = schedule.init_reps[i] + iters * schedule.reps[i];
            assert_eq!(stage.firings, scheduled, "{ctx}: stage {i}");
            assert_eq!(stage.batched_firings, scheduled, "{ctx}: stage {i}");
        }
        schedule
    };
    let chain = mixed_rate_chain();
    let schedule = all_in_shares("chain", &chain, &cyclic_placement(&chain, 2));
    assert!(
        schedule.init_reps.iter().any(|&r| r > 0),
        "the chain must have an init schedule"
    );

    // src (4 tokens a firing) -> doubler on cores 1 and 2 -> sink.
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};
    let mut src = FilterBuilder::new("src", 0, 0, 4, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        for _ in 0..4 {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        }
    });
    let mut dbl = FilterBuilder::new("dbl", 1, 1, 1, ScalarTy::I32);
    dbl.work(|b| {
        b.push(pop() * 2i32);
    });
    let fissionable =
        StreamSpec::pipeline(vec![src.build_spec(), dbl.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
    let placement = Placement {
        assignment: vec![0, 1, 0],
        fission: vec![FissionSpec {
            node: NodeId(1),
            replicas: vec![1, 2],
        }],
    };
    all_in_shares("fission", &fissionable, &placement);
}
