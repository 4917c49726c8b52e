//! Supervision tests whose faults are mostly *guest-induced* (a filter
//! that panics its own firing via an out-of-range dynamic peek, a filter
//! whose firing is deliberately slow): the supervised runtime's failure
//! handling — typed `StageFailure`s, the drain to each node's bound,
//! watchdog escalation, partial output exactly equal to the committed
//! outcome — on graphs written to fail.
//!
//! The injected-fault differential suite (every benchmark x worker count
//! x fault class) lives in `tests/fault_differential.rs`.

use macross_repro::runtime as rt;
use macross_repro::runtime::{
    committed_outcome, run_supervised_placed, run_threaded_placed, FailureCause, FissionSpec,
    Placement, RuntimeError, StageFailure, SupervisorOptions,
};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::builder::StreamSpec;
use macross_repro::streamir::edsl::*;
use macross_repro::streamir::graph::{Graph, NodeId, SplitKind};
use macross_repro::streamir::types::{ScalarTy, Ty, Value};
use macross_repro::telemetry::TraceSession;
use macross_repro::vm::{Executor, Machine};
use std::time::{Duration, Instant};

/// i32 counter source: 0, 1, 2, ...
fn source() -> StreamSpec {
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        b.push(v(n));
        b.set(n, v(n) + 1i32);
    });
    src.build_spec()
}

/// Pass-through that adds 1.
fn pass(name: &str) -> StreamSpec {
    let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
    fb.work(|b| {
        b.push(pop() + 1i32);
    });
    fb.build_spec()
}

/// Pass-through that blows up its own firing number `fail_at` with an
/// out-of-range dynamic peek (the tape panics, the VM catches it at the
/// firing boundary, the supervisor types it).
fn bomb(name: &str, fail_at: i32) -> StreamSpec {
    let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
    let n = fb.state("n", Ty::Scalar(ScalarTy::I32));
    let junk = fb.local("junk", Ty::Scalar(ScalarTy::I32));
    fb.work(move |b| {
        b.if_(eq(v(n), fail_at), |b| {
            b.set(junk, peek(1_000_000i32));
        });
        b.set(n, v(n) + 1i32);
        b.push(pop() + 1i32);
    });
    fb.build_spec()
}

/// Pass-through whose every firing burns a long interpreter loop. How
/// long depends on the build and on how fast the interpreter has become,
/// so a test that needs it to outlast a watchdog times a firing first.
fn sloth(name: &str) -> StreamSpec {
    let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
    let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
    let acc = fb.local("acc", Ty::Scalar(ScalarTy::I32));
    fb.work(|b| {
        b.set(acc, 0i32);
        b.for_(i, 2_000_000i32, |b| {
            b.set(acc, v(acc) + 1i32);
        });
        b.push(pop() + min(v(acc), 0i32));
    });
    fb.build_spec()
}

fn node_id(g: &Graph, name: &str) -> usize {
    g.nodes()
        .find(|(_, n)| n.name() == name)
        .map(|(id, _)| id.0 as usize)
        .unwrap_or_else(|| panic!("no node named {name}"))
}

fn supervised(
    g: &Graph,
    assignment: &[u32],
    iters: u64,
    opts: &SupervisorOptions,
) -> rt::SupervisedRun {
    supervised_placed(g, &Placement::whole_stage(assignment.to_vec()), iters, opts)
}

fn supervised_placed(
    g: &Graph,
    placement: &Placement,
    iters: u64,
    opts: &SupervisorOptions,
) -> rt::SupervisedRun {
    let sched = Schedule::compute(g).unwrap();
    let session = TraceSession::disabled();
    run_supervised_placed(
        g,
        &sched,
        &Machine::core_i7(),
        placement,
        iters,
        opts,
        &session,
    )
    .unwrap()
}

/// Options under which every firing takes an envelope of its own, as all
/// of them did before workers fired shares: a watchdog's timeout is per
/// firing. This one never fires.
fn one_at_a_time() -> SupervisorOptions {
    SupervisorOptions::default().watchdog_after(Duration::from_secs(3600))
}

#[test]
fn guest_panic_becomes_typed_stage_failure_with_partial_output() {
    let g = StreamSpec::pipeline(vec![source(), bomb("bomb", 3), StreamSpec::Sink])
        .build()
        .unwrap();
    let bomb_id = node_id(&g, "bomb");
    let opts = SupervisorOptions::default();
    // Clean reference: same graph without the bomb triggering (fail_at
    // beyond the firing count).
    let clean_g = StreamSpec::pipeline(vec![source(), bomb("bomb", 1 << 20), StreamSpec::Sink])
        .build()
        .unwrap();
    let clean = supervised(&clean_g, &[0, 1, 1], 8, &opts);
    assert!(clean.completed && clean.report.failures.is_empty());
    assert_eq!(clean.output.len(), 8);

    let run = supervised(&g, &[0, 1, 1], 8, &opts);
    assert!(!run.completed);
    let f = run.report.root_failure().expect("failure must be recorded");
    assert_eq!(f.stage, bomb_id);
    assert_eq!(f.firing, 3, "0-based firing index of the blown firing");
    assert_eq!(f.core, 1);
    assert_eq!(f.cause.label(), "vm");
    match &f.cause {
        FailureCause::Vm(e) => {
            let msg = e.to_string();
            assert!(msg.contains("panicked"), "panic must be typed: {msg}");
        }
        other => panic!("expected a VM cause, got {other:?}"),
    }
    // Committed output is exactly the clean run's to the sink's bound: the
    // bomb completed firings 0..3, so the sink consumed exactly 3 tokens.
    assert_eq!(run.output, clean.output[..3].to_vec());
    // The report still carries the usual counters.
    assert_eq!(run.report.stages[bomb_id].firings, 3);
}

#[test]
fn legacy_entry_point_maps_failure_to_vm_error() {
    let g = StreamSpec::pipeline(vec![source(), bomb("bomb", 2), StreamSpec::Sink])
        .build()
        .unwrap();
    let sched = Schedule::compute(&g).unwrap();
    let placement = Placement::whole_stage(vec![0, 1, 1]);
    let err = run_threaded_placed(&g, &sched, &Machine::core_i7(), &placement, 8).unwrap_err();
    match err {
        RuntimeError::Vm(e) => assert!(e.to_string().contains("panicked"), "{e}"),
        other => panic!("expected RuntimeError::Vm, got {other}"),
    }
}

#[test]
fn drain_with_buffered_rings_terminates_and_keeps_prefix() {
    // src runs ahead on its own core, so the src->pass ring holds
    // un-consumed tokens when the downstream bomb blows; the drain must
    // terminate anyway (no hang, nothing waits for tokens past a bound)
    // and deliver exactly the committed sink outcome.
    let chain = |fuse: i32| {
        let stages = vec![source(), pass("pass"), bomb("bomb", fuse), StreamSpec::Sink];
        StreamSpec::pipeline(stages).build().unwrap()
    };
    let g = chain(2);
    let opts = SupervisorOptions::default();
    let clean = supervised(&chain(1 << 20), &[0, 1, 1, 1], 64, &opts);
    let t0 = std::time::Instant::now();
    let run = supervised(&g, &[0, 1, 1, 1], 64, &opts);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "drain must terminate promptly"
    );
    assert!(!run.completed);
    assert_eq!(
        run.report.root_failure().unwrap().stage,
        node_id(&g, "bomb")
    );
    // src produced ahead of the failure point into the ring.
    assert!(run.report.stages[node_id(&g, "src")].firings > 2);
    // Sink saw exactly the two firings the bomb completed: src 0,1 + 2.
    assert_eq!(run.output, clean.output[..2].to_vec());
    assert_eq!(run.report.cut_edges, 1);
}

/// src -> tear -> [write-reordered, block 8] -> vec -> sink, where
/// `tear` moves 3 tokens per firing and blows firing `fail_at` after
/// pushing two of them, and `vec` moves whole blocks with vector
/// accesses (what the SIMDizer puts behind such an edge).
fn torn_block_graph(fail_at: i32) -> Graph {
    use macross_repro::streamir::graph::{AddrGen, Reorder, ReorderSide};
    let mut tear = FilterBuilder::new("tear", 3, 3, 3, ScalarTy::I32);
    let n = tear.state("n", Ty::Scalar(ScalarTy::I32));
    let junk = tear.local("junk", Ty::Scalar(ScalarTy::I32));
    tear.work(move |b| {
        b.push(pop());
        b.push(pop());
        b.if_(eq(v(n), fail_at), |b| {
            b.set(junk, peek(1_000_000i32));
        });
        b.set(n, v(n) + 1i32);
        b.push(pop());
    });
    let mut vec = macross_repro::streamir::Filter::new("vec", 8, 8, 8);
    vec.work = vec![
        macross_repro::streamir::Stmt::VPush {
            value: macross_repro::streamir::Expr::VPop { width: 4 },
            width: 4,
        };
        2
    ];
    let mut g = StreamSpec::pipeline(vec![
        source(),
        tear.build_spec(),
        StreamSpec::filter(vec, ScalarTy::I32),
        StreamSpec::Sink,
    ])
    .build()
    .unwrap();
    let e = g
        .single_out_edge(NodeId(node_id(&g, "tear") as u32))
        .unwrap();
    g.edge_mut(e).reorder = Some(Reorder {
        rate: 2,
        sw: 4,
        side: ReorderSide::Producer,
        addr_gen: AddrGen::Sagu,
    });
    g
}

#[test]
fn torn_write_into_a_reorder_block_is_rolled_back_not_delivered() {
    // tear's firing 5 pushes tokens 15 and 16 and then blows: token 15
    // completes (and commits) the second block of 8 in mid-firing. The
    // five completed firings account for 15 tokens, i.e. one whole block:
    // the sink must see exactly those 8 — not 16, which would launder the
    // failed firing's writes, and not 0, which would drop committed ones.
    // `tear` feeds `vec` on its own core in the first placement and
    // through a ring in the second.
    let clean = supervised(
        &torn_block_graph(1 << 20),
        &[0, 1, 1, 1],
        2,
        &Default::default(),
    );
    assert!(clean.completed);
    assert_eq!(clean.output.len(), 48);
    for assignment in [[0, 1, 1, 1], [0, 1, 0, 0]] {
        let g = torn_block_graph(5);
        let run = supervised(&g, &assignment, 2, &SupervisorOptions::default());
        assert!(!run.completed);
        let f = run.report.root_failure().unwrap();
        assert_eq!((f.stage, f.firing), (node_id(&g, "tear"), 5));
        assert_eq!(run.report.stages[f.stage].firings, 5);
        assert_eq!(run.output, clean.output[..8].to_vec(), "{assignment:?}");
    }
}

#[test]
fn watchdog_escalates_deliberately_stalled_stage() {
    let g = StreamSpec::pipeline(vec![source(), sloth("sloth"), StreamSpec::Sink])
        .build()
        .unwrap();
    let sloth_id = node_id(&g, "sloth");
    // A quarter of what one `sloth` firing takes in this build (one
    // sequential steady iteration, which the firing dominates): the stall
    // outlasts the timeout however fast the interpreter runs the loop.
    let sched = Schedule::compute(&g).unwrap();
    let machine = Machine::core_i7();
    let mut ex = Executor::new(&g, &sched, &machine);
    ex.run_init().unwrap();
    let t0 = Instant::now();
    ex.run_steady(1).unwrap();
    let timeout = (t0.elapsed() / 4).max(Duration::from_millis(1));
    let opts = SupervisorOptions::default().watchdog_after(timeout);
    let run = supervised(&g, &[0, 1, 1], 4, &opts);
    assert!(!run.completed);
    let f = run.report.root_failure().unwrap();
    assert_eq!(f.stage, sloth_id);
    assert_eq!(f.cause.label(), "watchdog");
    match f.cause {
        FailureCause::Watchdog { waited_nanos } => {
            assert!(
                waited_nanos >= timeout.as_nanos() as u64,
                "escalation must report at least the timeout, got {waited_nanos}"
            );
        }
        ref other => panic!("expected a watchdog cause, got {other:?}"),
    }
    // The condemned firing's output was quarantined, not committed.
    assert!(run.output.is_empty());
}

#[test]
fn second_failure_during_drain_is_recorded_once_and_terminates() {
    // Two bombs on different cores, same early fuse: whichever fails
    // first switches the run to draining, and the second bomb then blows
    // *during the drain* — the drain must record it, mark the stage dead,
    // and still terminate (double-drain idempotence).
    let two_bombs = |fuse: i32| {
        let branch = |name: &str| StreamSpec::pipeline(vec![bomb(name, fuse)]);
        StreamSpec::pipeline(vec![
            source(),
            StreamSpec::SplitJoin {
                split: SplitKind::Duplicate,
                branches: vec![branch("bombA"), branch("bombB")],
                join: vec![1, 1],
            },
            StreamSpec::Sink,
        ])
        .build()
        .unwrap()
    };
    let g = two_bombs(3);
    let a = node_id(&g, "bombA");
    let b = node_id(&g, "bombB");
    // src+splitter on core 0, each bomb alone on its own core, join+sink
    // on core 3.
    let mut assignment = vec![0u32; g.node_count()];
    assignment[a] = 1;
    assignment[b] = 2;
    for (id, n) in g.nodes() {
        if matches!(
            n,
            macross_repro::streamir::graph::Node::Joiner(_)
                | macross_repro::streamir::graph::Node::Sink
        ) {
            assignment[id.0 as usize] = 3;
        }
    }
    let run = supervised(&g, &assignment, 16, &SupervisorOptions::default());
    assert!(!run.completed);
    // Failures come in schedule order, whichever core raised first.
    let failed: Vec<usize> = run.report.failures.iter().map(|f| f.stage).collect();
    assert_eq!(failed, vec![a.min(b), a.max(b)], "each bomb fails once");
    for f in &run.report.failures {
        assert_eq!(f.firing, 3);
        assert_eq!(f.cause.label(), "vm");
    }
    // The joiner needs both branches per output pair; with both blown at
    // firing 3 the sink gets exactly 3 pairs' worth of tokens.
    let clean = supervised(&two_bombs(1 << 20), &assignment, 16, &Default::default());
    assert_eq!(run.output, clean.output[..6].to_vec());
}

#[test]
fn supervised_clean_run_matches_legacy_entry_point() {
    let g = StreamSpec::pipeline(vec![source(), pass("p1"), pass("p2"), StreamSpec::Sink])
        .build()
        .unwrap();
    let sched = Schedule::compute(&g).unwrap();
    let m = Machine::core_i7();
    let placement = Placement::whole_stage(vec![0, 0, 1, 1]);
    let legacy = run_threaded_placed(&g, &sched, &m, &placement, 12).unwrap();
    let sup = supervised(&g, &[0, 0, 1, 1], 12, &SupervisorOptions::default());
    assert!(sup.completed);
    assert!(sup.report.failures.is_empty());
    assert_eq!(sup.output, legacy.output);
    let _ = NodeId(0);
}

/// Stateless pass-through (so it may be fissioned) that blows the firing
/// that pops the value `fail_on`.
fn stateless_bomb(name: &str, fail_on: i32) -> StreamSpec {
    let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
    let t = fb.local("t", Ty::Scalar(ScalarTy::I32));
    let junk = fb.local("junk", Ty::Scalar(ScalarTy::I32));
    fb.work(move |b| {
        b.set(t, pop());
        b.if_(eq(v(t), fail_on), |b| {
            b.set(junk, peek(1_000_000i32));
        });
        b.push(v(t) + 1i32);
    });
    fb.build_spec()
}

/// The failure coordinates of a run that must have failed exactly once.
fn only_failure(run: &rt::SupervisedRun) -> (usize, u64, &'static str) {
    assert!(!run.completed);
    let [f] = run.report.failures.as_slice() else {
        panic!("expected one failure, got {:?}", run.report.failures)
    };
    (f.stage, f.firing, f.cause.label())
}

#[test]
fn guest_fault_inside_a_share_fails_like_a_fault_in_a_single_firing() {
    // 40 iterations are shares of 16, 16 and 8 firings for each stage:
    // the bomb goes off in the first firing of the run, in the middle of
    // the second share, and in that share's last firing.
    let iters = 40;
    let block = rt::iteration_block() as i32;
    let pipeline = |stages: Vec<StreamSpec>| StreamSpec::pipeline(stages).build().unwrap();
    for j in [0, block + 4, 2 * block - 1] {
        // A plain filter, its sink beside it: exactly its `j` completed
        // firings reach the sink.
        let clean = pipeline(vec![source(), bomb("bomb", 1 << 20), StreamSpec::Sink]);
        let clean = supervised(&clean, &[0, 1, 1], iters, &SupervisorOptions::default());
        let g = pipeline(vec![source(), bomb("bomb", j), StreamSpec::Sink]);
        for opts in [SupervisorOptions::default(), one_at_a_time()] {
            let run = supervised(&g, &[0, 1, 1], iters, &opts);
            assert_eq!(only_failure(&run), (1, j as u64, "vm"), "plain, {j}");
            assert_eq!(
                run.output,
                clean.output[..j as usize].to_vec(),
                "plain, {j}"
            );
            assert_eq!(run.report.stages[1].firings, j as u64, "plain, {j}");
            assert_eq!(run.report.stages[2].firings, j as u64, "plain, {j}");
        }

        // A replica of a fissioned stage (the source's value is the
        // stage's global firing index): the other replica fires the
        // firings before `j` it owns, so the sink holds exactly those.
        let g = pipeline(vec![source(), stateless_bomb("bomb", j), StreamSpec::Sink]);
        let split = |nodes: u32, node: u32| Placement {
            assignment: (0..nodes).map(|i| u32::from(i == node)).collect(),
            fission: vec![FissionSpec {
                node: NodeId(node),
                replicas: vec![1, 2],
            }],
        };
        for opts in [SupervisorOptions::default(), one_at_a_time()] {
            let run = supervised_placed(&g, &split(3, 1), iters, &opts);
            assert_eq!(only_failure(&run), (1, j as u64, "vm"), "replica, {j}");
            assert_eq!(run.output, clean.output[..j as usize].to_vec());
        }

        // The producer that deals to the replicas of the stage after it.
        let stages = vec![source(), bomb("bomb", j), pass("dealt"), StreamSpec::Sink];
        let g = pipeline(stages);
        let stages = vec![source(), pass("bomb"), pass("dealt"), StreamSpec::Sink];
        let clean = supervised_placed(&pipeline(stages), &split(4, 2), iters, &Default::default());
        assert!(clean.completed);
        for opts in [SupervisorOptions::default(), one_at_a_time()] {
            let run = supervised_placed(&g, &split(4, 2), iters, &opts);
            assert_eq!(only_failure(&run), (1, j as u64, "vm"), "dealer, {j}");
            assert_eq!(run.report.stages[1].firings, j as u64, "dealer, {j}");
            assert_eq!(run.output, clean.output[..j as usize].to_vec());
        }
    }
}

/// Pass-through whose `init` writes one past the end of its 4-element
/// state array.
fn init_bomb(name: &str) -> StreamSpec {
    let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
    let table = fb.state("table", Ty::Array(ScalarTy::I32, 4));
    let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
    fb.init(move |b| {
        b.for_(i, 5i32, |b| {
            b.set_idx(table, v(i), v(i));
        });
    });
    fb.work(|b| {
        b.push(pop() + 1i32);
    });
    fb.build_spec()
}

#[test]
fn faulting_init_is_a_vm_panic_at_firing_zero_on_every_engine() {
    use macross_repro::runtime::{FaultPlan, SessionEngine};
    use macross_repro::vm::{CompiledPrograms, ExecMode, VmError};
    use std::sync::Arc;

    let g = StreamSpec::pipeline(vec![source(), init_bomb("init_bomb"), StreamSpec::Sink])
        .build()
        .unwrap();
    let bomb_id = node_id(&g, "init_bomb");
    let sched = Schedule::compute(&g).unwrap();
    let machine = Machine::core_i7();
    let is_init_panic =
        |e: &VmError| matches!(e, VmError::Panicked { filter, .. } if filter == "init_bomb");
    for mode in [ExecMode::Bytecode, ExecMode::TreeWalk] {
        let err = Executor::with_mode(&g, &sched, &machine, mode)
            .run(4)
            .unwrap_err();
        assert!(is_init_panic(&err), "Executor, {mode:?}: {err:?}");

        let programs = CompiledPrograms::compile(&g, &machine, mode);
        let mut session = SessionEngine::new(
            Arc::new(g.clone()),
            Arc::new(sched.clone()),
            Arc::new(machine.clone()),
            &programs,
            FaultPlan::none(),
            0,
        );
        session.run_init();
        let [f] = session.failures() else {
            panic!("SessionEngine, {mode:?}: {:?}", session.failures())
        };
        assert_eq!((f.stage, f.firing), (bomb_id, 0), "SessionEngine, {mode:?}");
        assert!(
            matches!(&f.cause, FailureCause::Vm(e) if is_init_panic(e)),
            "SessionEngine, {mode:?}: {:?}",
            f.cause
        );

        let opts = SupervisorOptions {
            mode,
            ..SupervisorOptions::default()
        };
        for assignment in [[0, 0, 0], [0, 1, 1]] {
            let run = supervised(&g, &assignment, 4, &opts);
            assert!(!run.completed);
            let f = run.report.root_failure().expect("failure must be recorded");
            assert_eq!(
                (f.stage, f.firing),
                (bomb_id, 0),
                "threaded {assignment:?}, {mode:?}"
            );
            assert!(
                matches!(&f.cause, FailureCause::Vm(e) if is_init_panic(e)),
                "threaded {assignment:?}, {mode:?}: {:?}",
                f.cause
            );
        }
    }
}

#[test]
fn failed_share_of_sink_firings_leaves_no_value_twice() {
    // `liar` declares eight tokens a firing and delivers four from its
    // second firing on, behind an edge the sink reads through a
    // column-major remap (block 8). The sink's share of the two
    // iterations is 16 firings in one envelope: it captures the first
    // block and one value of the second, then reads past what was
    // written. The share is undone — the nine captured values with it —
    // and replayed firing by firing, which captures them once.
    use macross_repro::streamir::graph::{AddrGen, Reorder, ReorderSide};
    let mut liar = FilterBuilder::new("liar", 8, 8, 8, ScalarTy::I32);
    let n = liar.state("n", Ty::Scalar(ScalarTy::I32));
    let i = liar.local("i", Ty::Scalar(ScalarTy::I32));
    let unsent = liar.local("unsent", Ty::Scalar(ScalarTy::I32));
    liar.work(move |b| {
        b.for_(i, 4i32, |b| {
            b.push(pop());
        });
        b.for_(i, 4i32, |b| {
            b.set(unsent, pop());
            b.if_(eq(v(n), 0i32), |b| {
                b.push(v(unsent));
            });
        });
        b.set(n, v(n) + 1i32);
    });
    let mut g = StreamSpec::pipeline(vec![source(), liar.build_spec(), StreamSpec::Sink])
        .build()
        .unwrap();
    let liar_id = NodeId(node_id(&g, "liar") as u32);
    let e = g.single_out_edge(liar_id).unwrap();
    g.edge_mut(e).reorder = Some(Reorder {
        rate: 2,
        sw: 4,
        side: ReorderSide::Consumer,
        addr_gen: AddrGen::Sagu,
    });
    let sink = g.node_count() - 1;
    for opts in [SupervisorOptions::default(), one_at_a_time()] {
        let run = supervised(&g, &[0, 0, 0], 2, &opts);
        assert_eq!(only_failure(&run), (sink, 9, "panic"));
        assert_eq!(run.report.stages[sink].firings, 9);
        let captured = [0, 4, 1, 5, 2, 6, 3, 7, 8].map(Value::I32);
        assert_eq!(run.output, captured.to_vec());
    }
}

/// src (3 tokens a firing) -> split_rr(2, 2) -> {f, g} -> join_rr(2, 2)
/// -> sink: steady repetitions 4, 3, 6, 6, 3 and 12, so a session's
/// block of any node has an inside. `f` blows its own firing `fail_at`.
fn split_join(fail_at: i32) -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 3, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        for _ in 0..3 {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        }
    });
    StreamSpec::pipeline(vec![
        src.build_spec(),
        StreamSpec::SplitJoin {
            split: SplitKind::RoundRobin(vec![2, 2]),
            branches: vec![bomb("f", fail_at), pass("g")],
            join: vec![2, 2],
        },
        StreamSpec::Sink,
    ])
    .build()
    .unwrap()
}

/// A failure of `stage` at `firing`, as the committed outcome reads it.
fn failure_at(stage: usize, firing: u64) -> StageFailure {
    StageFailure {
        stage,
        name: String::new(),
        core: 0,
        firing,
        init_fn: false,
        mode: Default::default(),
        cause: FailureCause::Panic(String::new()),
    }
}

#[test]
fn a_failure_has_one_identity_on_every_engine() {
    use macross_repro::runtime::{FaultKind, FaultPlan, SessionEngine};
    use macross_repro::vm::{CompiledPrograms, ExecMode};
    use std::sync::Arc;

    let iters = 40;
    let machine = Machine::core_i7();
    let clean = split_join(1 << 20);
    let sched = Schedule::compute(&clean).unwrap();
    let sink = node_id(&clean, "sink");
    // The committed outcome is rate arithmetic: a panic at the last
    // firing of src's iteration 31 commits 127 of its firings, 95 of the
    // splitter's and joiner's, and 380 sink values; one at split_rr's (or
    // join_rr's) firing 73, in iteration 24, commits 292.
    let committed = |stage: &str, firing| {
        let f = failure_at(node_id(&clean, stage), firing);
        committed_outcome(&clean, &sched, &[f])[sink]
    };
    assert_eq!(committed("src", 127), 380);
    assert_eq!(committed("split_rr", 73), 292);
    assert_eq!(committed("join_rr", 73), 292);
    let clean = macross_repro::vm::run_scheduled(&clean, &sched, &machine, iters).unwrap();
    // `(stage, firing, cause label, name)` of a run's only failure; its
    // output must be exactly the clean run's cut to the sink's bound.
    let identity = |ctx: &str, failures: &[rt::StageFailure], output: &[Value]| {
        let [f] = failures else {
            panic!("{ctx}: expected one failure, got {failures:?}")
        };
        let bound = committed_outcome(&split_join(1 << 20), &sched, failures)[sink] as usize;
        assert_eq!(output.len(), bound, "{ctx}: sink values");
        let exact = output.iter().zip(&clean.output).all(|(a, b)| a.bits_eq(*b));
        assert!(exact, "{ctx}: output is not the clean run's to its bound");
        (f.stage, f.firing, f.cause.label(), f.name.clone())
    };
    let on_every_engine = |ctx: &str, g: &Graph, plan: FaultPlan| {
        let programs = CompiledPrograms::compile(g, &machine, ExecMode::default());
        let (graph, schedule) = (Arc::new(g.clone()), Arc::new(sched.clone()));
        let machine = Arc::new(machine.clone());
        let session = |swap_at: Option<u64>| {
            let (g, s, m) = (graph.clone(), schedule.clone(), machine.clone());
            let mut session = SessionEngine::new(g, s, m, &programs, plan.clone(), 0);
            // A dynamic tenant swaps configurations in place at an
            // iteration boundary; here, to its own, before the fault.
            if let Some(at) = swap_at {
                session.run_steady(at);
                let (g, s) = (graph.clone(), schedule.clone());
                session.reconfigure(g, s, &programs).unwrap();
            }
            session.run_steady(iters - swap_at.unwrap_or(0));
            let mut rows = vec![Vec::new(); session.sink_ids().len()];
            session.drain_outputs_into(&mut rows);
            identity(
                &format!("{ctx}, {swap_at:?}"),
                session.failures(),
                &rows.concat(),
            )
        };
        let want = session(None);
        assert_eq!(session(Some(8)), want, "{ctx}, swapped");
        for assignment in [[0; 6], [0, 0, 1, 0, 1, 1]] {
            let opts = SupervisorOptions::with_plan(plan.clone());
            let run = supervised(g, &assignment, iters, &opts);
            let ctx = format!("{ctx}, {assignment:?}");
            let got = identity(&ctx, &run.report.failures, &run.output);
            assert_eq!(got, want, "{ctx}");
            // Per-stage counts are the outcome's too, not how far a
            // worker got before it saw the failure.
            let bounds = committed_outcome(g, &sched, &run.report.failures);
            let firings: Vec<u64> = run.report.stages.iter().map(|s| s.firings).collect();
            assert_eq!(firings, bounds, "{ctx}: stage firings");
            for s in &run.report.stages {
                assert!(s.batched_firings <= s.firings, "{ctx}: {}", s.name);
            }
        }
        want
    };

    // The first firing of a worker's second share, one in the middle of
    // it and its last (a share is 16 iterations) — each also the first,
    // a middle or the last firing of a session's block (one iteration).
    let block = rt::iteration_block();
    let places = |reps: u64| {
        [
            block * reps,
            block * reps + block / 2 * reps + 1,
            2 * block * reps - 1,
        ]
    };
    let g = split_join(1 << 20);
    for (id, node) in g.nodes() {
        let stage = id.0 as usize;
        for (kind, label) in [(FaultKind::Panic, "panic"), (FaultKind::PoisonTape, "vm")] {
            for firing in places(sched.reps[stage]) {
                let ctx = format!("{kind:?} at {} firing {firing}", node.name());
                let plan = FaultPlan::single(stage, firing, kind);
                let want = (stage, firing, label, node.name());
                assert_eq!(on_every_engine(&ctx, &g, plan), want, "{ctx}");
            }
        }
    }
    let f = node_id(&g, "f");
    for firing in places(sched.reps[f]) {
        let ctx = format!("guest fault at f firing {firing}");
        let bombed = split_join(firing as i32);
        let want = (f, firing, "vm", "f".to_string());
        assert_eq!(
            on_every_engine(&ctx, &bombed, FaultPlan::none()),
            want,
            "{ctx}"
        );
    }
}
