//! What a failure leaves behind, checked two ways.
//!
//! - `committed_outcome` against a brute-force walk that fires the
//!   schedule firing by firing and counts clean tokens per edge: on the 16
//!   suite programs, scalar and SIMDized, a split-join, two reorder chains
//!   and the fissioned placement of every graph with a fissionable stage,
//!   for a
//!   failure at the first, a middle and the last firing of an iteration
//!   of every node and an `init` function failure.
//! - Every engine against it on `src → split_dup → {f → sink_a, g →
//!   sink_b}`, where the sink beside a failed branch used to get however
//!   much a worker's drain happened to reach. CI runs the two-sink test
//!   in a loop in release.

use macross::driver::{macro_simdize, SimdizeOptions};
use macross_runtime::{
    committed_outcome, run_supervised_placed, FailureCause, FaultKind, FaultPlan, FaultSpec,
    FissionSpec, Placement, SessionEngine, StageFailure, SupervisedRun, SupervisorOptions,
};
use macross_sdf::Schedule;
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::{AddrGen, Graph, Node, NodeId, Reorder, ReorderSide, SplitKind};
use macross_streamir::types::{ScalarTy, Ty, Value};
use macross_telemetry::TraceSession;
use macross_vm::{CompiledPrograms, ExecMode, Machine};
use std::sync::Arc;

/// A failure of `stage` at `firing` (in its `init` function if `init_fn`).
fn failure(stage: usize, firing: u64, init_fn: bool) -> StageFailure {
    StageFailure {
        stage,
        name: String::new(),
        core: 0,
        firing,
        init_fn,
        mode: ExecMode::default(),
        cause: FailureCause::Panic(String::new()),
    }
}

/// Fire `graph`'s schedule firing by firing — the init phase, then the
/// steady iterations up to the earliest failure's — with every failed
/// stage stopped at its failed firing, and return how many firings of
/// each node completed. A node fires while each in-edge holds every token
/// its next firing reads: `pop` per earlier firing, then `max(pop, peek)`,
/// up to the end of a consumer-side reorder block, out of the tokens its
/// producer committed (whole producer-side reorder blocks). A fissioned
/// node's global firings are dealt to `k` replicas: a failed replica stops,
/// the others go on, and its consumers see the completed firings' output
/// up to the first gap; its count is that gap.
fn walk(
    graph: &Graph,
    schedule: &Schedule,
    failures: &[StageFailure],
    fission: Option<(usize, u64)>,
) -> Vec<u64> {
    let n = graph.node_count();
    let edges: Vec<_> = graph.edges().map(|(_, e)| e.clone()).collect();
    let block = |e: usize, side| {
        let r = edges[e].reorder.filter(|r| r.side == side);
        r.map_or(1, |r| r.block() as u64)
    };
    let ins: Vec<Vec<usize>> = (graph.node_ids())
        .map(|id| graph.in_edges(id).iter().map(|e| e.0 as usize).collect())
        .collect();
    let iteration = |f: &StageFailure| match f.firing.checked_sub(schedule.init_reps[f.stage]) {
        Some(steady) if !f.init_fn => (steady / schedule.reps[f.stage]) as i64,
        _ => -1,
    };
    let last = failures.iter().map(iteration).min().unwrap_or(-1);
    let mut pushed = vec![0u64; edges.len()];
    let mut fired = vec![0u64; n];
    let mut done: Vec<bool> = Vec::new();
    // Replicas (or whole nodes, as replica 0 of 1) stopped by a failure.
    let mut dead: Vec<Vec<bool>> = (0..n).map(|_| vec![false; 1]).collect();
    if let Some((node, k)) = fission {
        dead[node] = vec![false; k as usize];
    }
    for f in failures.iter().filter(|f| f.init_fn) {
        dead[f.stage].iter_mut().for_each(|d| *d = true);
    }
    let feeds = |pushed: &[u64], node: usize, j: u64| {
        ins[node].iter().all(|&e| {
            let (dst, port) = (graph.node(edges[e].dst), edges[e].dst_port);
            let (pop, peek) = (dst.pop_rate(port) as u64, dst.peek_rate(port) as u64);
            let committed = pushed[e] / block(e, ReorderSide::Producer);
            let committed = committed * block(e, ReorderSide::Producer);
            let reach = (j * pop + pop.max(peek)).next_multiple_of(block(e, ReorderSide::Consumer));
            reach <= committed
        })
    };
    for it in -1..=last {
        for &id in &schedule.order {
            let node = id.0 as usize;
            let (count, base) = match it {
                -1 => (schedule.init_reps[node], 0),
                it => {
                    let base = schedule.init_reps[node] + it as u64 * schedule.reps[node];
                    (schedule.reps[node], base)
                }
            };
            let k = dead[node].len() as u64;
            for g in base..base + count {
                // A whole node's next firing is the count it completed.
                let (replica, j) = if k == 1 {
                    (0, fired[node])
                } else {
                    ((g % k) as usize, g)
                };
                if dead[node][replica] {
                    if k == 1 {
                        break;
                    }
                    continue;
                }
                if failures
                    .iter()
                    .any(|f| (f.stage, f.firing) == (node, j) && !f.init_fn)
                {
                    dead[node][replica] = true;
                    continue;
                }
                // Fission edges carry no peek past a firing's own block, so
                // an unfed global firing means no later one is fed either.
                if !feeds(&pushed, node, j) {
                    break;
                }
                if k == 1 {
                    fired[node] += 1;
                } else {
                    done.resize(done.len().max(g as usize + 1), false);
                    done[g as usize] = true;
                    fired[node] = done.iter().position(|d| !d).unwrap_or(done.len()) as u64;
                }
                for e in graph.out_edges(id) {
                    let push = graph.node(id).push_rate(edges[e.0 as usize].src_port) as u64;
                    pushed[e.0 as usize] = fired[node] * push;
                }
            }
        }
    }
    fired
}

/// src (3 tokens a firing) -> split_rr(2, 2) -> {f, g} -> join_rr(2, 2)
/// -> sink: steady repetitions 4, 3, 6, 6, 3 and 12.
fn split_join() -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 3, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        for _ in 0..3 {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        }
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
        StreamSpec::SplitJoin {
            split: SplitKind::RoundRobin(vec![2, 2]),
            branches: vec![pass("f"), pass("g")],
            join: vec![2, 2],
        },
        StreamSpec::Sink,
    ])
    .build()
    .unwrap()
}

/// The first stage of `graph` that may be split across two replicas.
fn fissionable(graph: &Graph, schedule: &Schedule) -> Option<usize> {
    graph.node_ids().map(|id| id.0 as usize).find(|&node| {
        let placement = Placement {
            assignment: vec![0; graph.node_count()],
            fission: vec![FissionSpec {
                node: NodeId(node as u32),
                replicas: vec![0, 1],
            }],
        };
        placement.validate(graph, schedule).is_ok()
    })
}

/// Every failure point the oracle is checked at: each node's first, a
/// middle and last firing of its init phase (if any) and of steady
/// iteration 1, and each filter's `init` function.
fn failure_points(graph: &Graph, schedule: &Schedule) -> Vec<StageFailure> {
    let mut points = Vec::new();
    for (id, node) in graph.nodes() {
        let s = id.0 as usize;
        let (init, reps) = (schedule.init_reps[s], schedule.reps[s]);
        for (base, count) in [(0, init), (init + reps, reps)] {
            if count > 0 {
                for j in [0, count / 2, count - 1] {
                    points.push(failure(s, base + j, false));
                }
            }
        }
        if matches!(node, Node::Filter(_)) {
            points.push(failure(s, 0, true));
        }
    }
    points
}

/// src (8 a firing) -> p (3 a firing) -> c (`rate` a firing) -> sink,
/// the p-c edge reordered in blocks of 8 on `side`: an iteration moves
/// whole blocks, a failed `p` a torn one, of which nothing counts.
fn reorder_chain(side: ReorderSide, rate: usize) -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 8, ScalarTy::I32);
    src.work(|b| {
        for _ in 0..8 {
            b.push(1i32);
        }
    });
    let mut p = FilterBuilder::new("p", 1, 1, 3, ScalarTy::I32);
    let x = p.local("x", Ty::Scalar(ScalarTy::I32));
    p.work(move |b| {
        b.set(x, pop());
        for _ in 0..3 {
            b.push(v(x));
        }
    });
    let mut c = FilterBuilder::new("c", rate, rate, 1, ScalarTy::I32);
    c.work(|b| {
        b.push(pop());
    });
    let stages = vec![
        src.build_spec(),
        p.build_spec(),
        c.build_spec(),
        StreamSpec::Sink,
    ];
    let mut g = StreamSpec::pipeline(stages).build().unwrap();
    let e = g.single_out_edge(NodeId(1)).unwrap();
    g.edge_mut(e).reorder = Some(Reorder {
        rate: 2,
        sw: 4,
        side,
        addr_gen: AddrGen::Sagu,
    });
    g
}

#[test]
fn committed_outcome_matches_a_brute_force_walk() {
    let machine = Machine::core_i7();
    let mut graphs = vec![
        ("split_join".to_string(), split_join()),
        (
            "consumer-side reorder".to_string(),
            reorder_chain(ReorderSide::Consumer, 1),
        ),
        (
            "producer-side reorder".to_string(),
            reorder_chain(ReorderSide::Producer, 2),
        ),
    ];
    for bench in macross_benchsuite::all() {
        let scalar = (bench.build)();
        let simd = macro_simdize(&scalar, &machine, &SimdizeOptions::all()).unwrap();
        graphs.push((format!("{} scalar", bench.name), scalar));
        graphs.push((format!("{} simd", bench.name), simd.graph));
    }
    let (mut fissioned, mut cases) = (0, 0);
    for (name, graph) in &graphs {
        let schedule = Schedule::compute(graph).unwrap();
        let split = fissionable(graph, &schedule).map(|node| (node, 2));
        fissioned += usize::from(split.is_some());
        let points = failure_points(graph, &schedule);
        for fission in std::iter::once(None).chain(split.map(Some)) {
            for f in &points {
                cases += 1;
                let ctx = format!("{name}, {fission:?}: stage {} firing {}", f.stage, f.firing);
                let want = walk(graph, &schedule, std::slice::from_ref(f), fission);
                let got = committed_outcome(graph, &schedule, std::slice::from_ref(f));
                assert_eq!(got, want, "{ctx} (init function: {})", f.init_fn);
            }
        }
        // Two failures at once: the walk stops both stages and ends at the
        // earlier iteration; the outcome is the elementwise minimum.
        for pair in points.windows(2).step_by(7) {
            let want = walk(graph, &schedule, pair, None);
            assert_eq!(
                committed_outcome(graph, &schedule, pair),
                want,
                "{name}: {pair:?}"
            );
        }
    }
    assert!(
        fissioned >= 3,
        "only {fissioned} graphs have a fissionable stage"
    );
    assert!(cases > 2000, "only {cases} failure points");
}

/// src (3 a firing) -> split_dup -> {f -> sink_a, g -> sink_b}, wired by
/// hand: a split-join always joins.
fn two_sinks() -> (Graph, Schedule) {
    let mut src = FilterBuilder::new("src", 0, 0, 3, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        for _ in 0..3 {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        }
    });
    let scale = |name: &str, k: i32| {
        let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
        fb.work(move |b| {
            b.push(pop() * k);
        });
        Node::Filter(fb.build())
    };
    let mut g = Graph::new();
    let src = g.add_node(Node::Filter(src.build()));
    let split = g.add_node(Node::Splitter(SplitKind::Duplicate));
    let (f, gg) = (g.add_node(scale("f", 3)), g.add_node(scale("g", 5)));
    let (sink_a, sink_b) = (g.add_node(Node::Sink), g.add_node(Node::Sink));
    g.connect(src, 0, split, 0, ScalarTy::I32);
    g.connect(split, 0, f, 0, ScalarTy::I32);
    g.connect(split, 1, gg, 0, ScalarTy::I32);
    g.connect(f, 0, sink_a, 0, ScalarTy::I32);
    g.connect(gg, 0, sink_b, 0, ScalarTy::I32);
    g.validate().unwrap();
    let schedule = Schedule::compute(&g).unwrap();
    assert_eq!(schedule.reps, vec![1, 3, 3, 3, 3, 3]);
    (g, schedule)
}

const ITERS: u64 = 40;
const SINK_A: usize = 4;
const SINK_B: usize = 5;

fn threaded(
    graph: &Graph,
    schedule: &Schedule,
    assignment: &[u32],
    plan: FaultPlan,
) -> SupervisedRun {
    let opts = SupervisorOptions::with_plan(plan);
    let placement = Placement::whole_stage(assignment.to_vec());
    let session = TraceSession::disabled();
    let machine = Machine::core_i7();
    run_supervised_placed(
        graph, schedule, &machine, &placement, ITERS, &opts, &session,
    )
    .unwrap()
}

/// Each sink's rows, indexed by node id, of a session run of `plan`, and
/// its failures.
fn session(
    graph: &Graph,
    schedule: &Schedule,
    plan: FaultPlan,
) -> (Vec<Vec<Value>>, Vec<StageFailure>) {
    let machine = Arc::new(Machine::core_i7());
    let programs = CompiledPrograms::compile(graph, &machine, ExecMode::default());
    let (g, s) = (Arc::new(graph.clone()), Arc::new(schedule.clone()));
    let mut engine = SessionEngine::new(g, s, machine, &programs, plan, 0);
    engine.run_steady(ITERS);
    let mut rows = vec![Vec::new(); engine.sink_ids().len()];
    engine.drain_outputs_into(&mut rows);
    let mut outputs = vec![Vec::new(); graph.node_count()];
    for (id, row) in engine.sink_ids().iter().zip(rows) {
        outputs[id.0 as usize] = row;
    }
    (outputs, engine.failures().to_vec())
}

/// The clean outputs cut to the committed outcome of `failures`.
fn committed(graph: &Graph, schedule: &Schedule, failures: &[StageFailure]) -> Vec<Vec<Value>> {
    let clean = threaded(graph, schedule, &[0; 6], FaultPlan::none());
    let bounds = committed_outcome(graph, schedule, failures);
    let cut = clean.outputs.into_iter().zip(bounds);
    cut.map(|(row, b)| row[..row.len().min(b as usize)].to_vec())
        .collect()
}

fn assert_rows(ctx: &str, got: &[Vec<Value>], want: &[Vec<Value>]) {
    for (node, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{ctx}: node {node} length");
        let same = g.iter().zip(w).all(|(a, b)| a.bits_eq(*b));
        assert!(same, "{ctx}: node {node} bits");
    }
}

/// A planned panic in `f` stops `sink_a` at `f`'s committed firings and
/// lets `sink_b` finish the failure's iteration — on the session engine,
/// on one core and with `g` and `sink_b` on the other core, where the
/// drain used to hand `sink_b` whatever it reached before two idle passes.
#[test]
fn the_sink_beside_a_failed_branch_gets_exactly_its_bound() {
    let (graph, schedule) = two_sinks();
    // The middle firing of iteration 20: iterations 0-20 are committed
    // for sink_b, and f's 61 completed firings for sink_a.
    let firing = 3 * 20 + 1;
    let plan = FaultPlan::single(2, firing, FaultKind::Panic);
    let want = committed(&graph, &schedule, &[failure(2, firing, false)]);
    assert_eq!((want[SINK_A].len(), want[SINK_B].len()), (61, 63));
    assert_rows(
        "session",
        &session(&graph, &schedule, plan.clone()).0,
        &want,
    );
    assert_rows(
        "one core",
        &threaded(&graph, &schedule, &[0; 6], plan.clone()).outputs,
        &want,
    );
    let rounds = if cfg!(debug_assertions) { 5 } else { 50 };
    for round in 0..rounds {
        let run = threaded(&graph, &schedule, &[0, 0, 0, 1, 0, 1], plan.clone());
        let f = run.report.root_failure().unwrap();
        assert_eq!(
            (f.stage, f.firing, run.report.failures.len()),
            (2, firing, 1)
        );
        assert_rows(&format!("two cores, round {round}"), &run.outputs, &want);
    }
}

/// Two planned faults on two cores, `f`'s on core 0 and `g`'s on core 1:
/// whichever core raises first, every engine leaves the same outputs and
/// reports the failures in schedule order. A fault in the same iteration
/// fails too; one in a later iteration is past the committed outcome of
/// the first — core 1 may run ahead to it before it sees the interrupt,
/// but the committed run never reaches it, and it is not reported.
#[test]
fn two_faults_on_two_cores_leave_one_outcome() {
    let (graph, schedule) = two_sinks();
    let fa = 3 * 20 + 1;
    for (fb, lengths) in [(3 * 20 + 2, (61, 62)), (3 * 30, (61, 63))] {
        let plan = FaultPlan::single(3, fb, FaultKind::PoisonTape).with(FaultSpec {
            stage: 2,
            firing: fa,
            kind: FaultKind::Panic,
        });
        let both = [failure(2, fa, false), failure(3, fb, false)];
        let want = committed(&graph, &schedule, &both);
        assert_eq!((want[SINK_A].len(), want[SINK_B].len()), lengths);
        let order = |failures: &[StageFailure]| {
            let order = failures.iter().map(|f| (f.stage, f.firing));
            order
                .filter(|&(_, firing)| firing < 3 * 21)
                .collect::<Vec<_>>()
        };
        let expect = order(&both);
        let (rows, failures) = session(&graph, &schedule, plan.clone());
        assert_eq!(order(&failures), expect, "session, {fb}");
        assert_rows(&format!("session, {fb}"), &rows, &want);
        let rounds = if cfg!(debug_assertions) { 5 } else { 50 };
        for round in 0..rounds {
            for assignment in [[0; 6], [0, 0, 0, 1, 0, 1]] {
                let ctx = format!("{assignment:?}, {fb}, round {round}");
                let run = threaded(&graph, &schedule, &assignment, plan.clone());
                assert_eq!(order(&run.report.failures), expect, "{ctx}");
                assert_eq!(run.report.failures.len(), expect.len(), "{ctx}");
                assert_rows(&ctx, &run.outputs, &want);
            }
        }
    }
}
