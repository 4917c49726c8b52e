//! Fault differential suite (requires `--features fault-inject`).
//!
//! For every benchmark in the suite, across {1, 2, 4} workers, inject
//! each fault class at a deterministic mid-run `(stage, firing)` address
//! and pin the supervision contract:
//!
//! - **fatal** classes (panic, poisoned tape, stalled firing under a
//!   watchdog) end in a clean typed [`StageFailure`] — no hang, no
//!   process abort, and the partial sink output is a prefix of the clean
//!   run's (nothing already committed is lost or corrupted);
//! - **robustness** classes (delayed ring flush, swallowed unparks) are
//!   absorbed: the run completes bit-identically to the clean run;
//! - failures are deterministic: the same plan reproduces the identical
//!   failure signature, both directly and via a serialized
//!   [`ReplayBundle`] round-trip.
//!
//! The engine under test is the build default (`ExecMode::default()`), so
//! the nightly matrix covers both engines by toggling `vm-treewalk`.
#![cfg(feature = "fault-inject")]

use macross_bench::replay::{failure_signature, make_bundle, run_bundle};
use macross_repro::benchsuite;
use macross_repro::runtime::{
    run_supervised_placed, FaultKind, FaultPlan, FissionSpec, Placement, SupervisedRun,
    SupervisorOptions, FAULTS_COMPILED,
};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::graph::{Graph, Node};
use macross_repro::telemetry::TraceSession;
use macross_repro::vm::{ExecMode, Machine};
use std::time::{Duration, Instant};

const CORE_COUNTS: [usize; 3] = [1, 2, 4];
const WATCHDOG: Duration = Duration::from_millis(25);
/// Generous bound that still catches a wedged drain or a leaked blocking
/// wait long before CI does.
const NO_HANG: Duration = Duration::from_secs(30);

struct Target {
    graph: Graph,
    schedule: Schedule,
    assignment: Vec<u32>,
    iters: u64,
    clean: SupervisedRun,
    /// Filter stage chosen for injection and its mid-run firing index.
    stage: usize,
    firing: u64,
}

fn run_once(
    graph: &Graph,
    schedule: &Schedule,
    assignment: &[u32],
    iters: u64,
    plan: FaultPlan,
    watchdog: Option<Duration>,
) -> SupervisedRun {
    let opts = SupervisorOptions {
        mode: ExecMode::default(),
        watchdog,
        stage_timeouts: Vec::new(),
        plan,
    };
    let t0 = Instant::now();
    let out = run_supervised_placed(
        graph,
        schedule,
        &Machine::core_i7(),
        &Placement::whole_stage(assignment.to_vec()),
        iters,
        &opts,
        &TraceSession::disabled(),
    )
    .unwrap();
    assert!(
        t0.elapsed() < NO_HANG,
        "run exceeded the no-hang bound ({NO_HANG:?})"
    );
    out
}

fn run(t: &Target, plan: FaultPlan, watchdog: Option<Duration>) -> SupervisedRun {
    run_once(
        &t.graph,
        &t.schedule,
        &t.assignment,
        t.iters,
        plan,
        watchdog,
    )
}

/// Build the injection target for one (benchmark, cores) cell: simdize +
/// place exactly like the driver, run clean once, and pick the first
/// filter stage with at least two firings as the victim.
fn target(bench: &benchsuite::Benchmark, cores: usize) -> Target {
    let machine = Machine::core_i7();
    let graph = (bench.build)();
    let (graph, schedule, assignment) =
        macross_bench::replay::campaign_placement(&graph, &machine, cores).unwrap();
    let iters = bench.iters.min(6);
    let clean = run_once(
        &graph,
        &schedule,
        &assignment,
        iters,
        FaultPlan::none(),
        None,
    );
    assert!(
        clean.completed,
        "{}@{cores}: clean run must complete",
        bench.name
    );
    let (stage, firings) = graph
        .nodes()
        .filter(|(_, n)| matches!(n, Node::Filter(_)))
        .map(|(id, _)| (id.0 as usize, clean.report.stages[id.0 as usize].firings))
        .find(|&(_, firings)| firings >= 2)
        .unwrap_or_else(|| panic!("{}@{cores}: no filter fired twice", bench.name));
    Target {
        graph,
        schedule,
        assignment,
        iters,
        clean,
        stage,
        firing: firings / 2,
    }
}

/// Each sink's partial stream must be a prefix of the clean run's.
fn assert_prefix(bench: &str, cores: usize, clean: &SupervisedRun, failed: &SupervisedRun) {
    for (sink, vals) in failed.outputs.iter().enumerate() {
        let reference = &clean.outputs[sink];
        assert!(
            vals.len() <= reference.len(),
            "{bench}@{cores}: sink {sink} produced beyond the clean run"
        );
        for (i, (got, want)) in vals.iter().zip(reference.iter()).enumerate() {
            assert!(
                got.bits_eq(*want),
                "{bench}@{cores}: sink {sink} diverged at {i}: {got:?} vs {want:?}"
            );
        }
    }
}

// The whole file is gated on the feature, so injection must be compiled.
const _: () = assert!(FAULTS_COMPILED);

/// Fault injection through the fission deal/merge path: split a legal
/// stage across two cores, then pin the same supervision contract on the
/// *fissioned* stage — a panicking replica fails typed with the sink
/// prefix intact and a deterministic signature, and a swallowed unpark on
/// a replica ring is absorbed bit-identically. Covers the failure paths
/// the whole-stage matrix above can never reach.
#[test]
fn injected_faults_under_fission_fail_clean() {
    let machine = Machine::core_i7();
    let mut covered = 0usize;
    for bench in benchsuite::all() {
        let graph = (bench.build)();
        let (graph, schedule, _) =
            macross_bench::replay::campaign_placement(&graph, &machine, 1).unwrap();
        // First stage the legality check accepts, split across two cores.
        let Some(placement) = graph.node_ids().find_map(|node| {
            let p = Placement {
                assignment: vec![0; graph.node_count()],
                fission: vec![FissionSpec {
                    node,
                    replicas: vec![0, 1],
                }],
            };
            p.validate(&graph, &schedule).is_ok().then_some(p)
        }) else {
            continue;
        };
        covered += 1;
        let victim = placement.fission[0].node.0 as usize;
        let label = format!("{} fission stage {victim}", bench.name);
        let iters = bench.iters.min(6);
        let run_placed = |plan: FaultPlan| -> SupervisedRun {
            let opts = SupervisorOptions {
                mode: ExecMode::default(),
                watchdog: None,
                stage_timeouts: Vec::new(),
                plan,
            };
            let t0 = Instant::now();
            let out = run_supervised_placed(
                &graph,
                &schedule,
                &machine,
                &placement,
                iters,
                &opts,
                &TraceSession::disabled(),
            )
            .unwrap();
            assert!(
                t0.elapsed() < NO_HANG,
                "{label}: run exceeded the no-hang bound ({NO_HANG:?})"
            );
            out
        };
        let clean = run_placed(FaultPlan::none());
        assert!(clean.completed, "{label}: clean run must complete");
        let firings = clean.report.stages[victim].firings;
        assert!(firings >= 2, "{label}: victim fired only {firings} times");
        let firing = firings / 2;

        // Fatal: a replica panic mid-rotation fails typed, prefix intact.
        let plan = FaultPlan::single(victim, firing, FaultKind::Panic);
        let failed = run_placed(plan.clone());
        assert!(!failed.completed, "{label}: panic must fail the run");
        let f = failed
            .report
            .root_failure()
            .unwrap_or_else(|| panic!("{label}: panic recorded no failure"));
        assert_eq!((f.stage, f.firing), (victim, firing), "{label}");
        assert_eq!(f.cause.label(), "panic", "{label}: {f}");
        assert_prefix(bench.name, 2, &clean, &failed);
        let again = run_placed(plan);
        assert_eq!(
            failure_signature(&failed.report.failures),
            failure_signature(&again.report.failures),
            "{label}: failure signature must be deterministic"
        );

        // Robustness: a swallowed unpark on the replica rings is absorbed.
        let out = run_placed(FaultPlan::single(
            victim,
            firing,
            FaultKind::DropUnpark { count: 2 },
        ));
        assert!(out.completed, "{label}: dropped unpark must be absorbed");
        assert!(out.report.failures.is_empty(), "{label}");
        assert_eq!(out.output.len(), clean.output.len(), "{label}: throughput");
        for (i, (a, b)) in out.output.iter().zip(&clean.output).enumerate() {
            assert!(
                a.bits_eq(*b),
                "{label}: output {i} diverged: {a:?} vs {b:?}"
            );
        }
    }
    assert!(
        covered >= 3,
        "fission legality rejected nearly every benchmark ({covered} covered)"
    );
}

#[test]
fn injected_faults_fail_clean_and_replay_identically() {
    let machine = Machine::core_i7();
    for bench in benchsuite::all() {
        for &cores in &CORE_COUNTS {
            let t = target(&bench, cores);
            let label = format!("{}@{cores}", bench.name);

            // --- Fatal classes: typed failure, no hang, prefix intact.
            let fatal = [
                (FaultKind::Panic, "panic", None),
                (FaultKind::PoisonTape, "vm", None),
                (
                    FaultKind::StallFiring {
                        nanos: 4 * WATCHDOG.as_nanos() as u64,
                    },
                    "watchdog",
                    Some(WATCHDOG),
                ),
            ];
            for (kind, want_cause, watchdog) in fatal {
                let plan = FaultPlan::single(t.stage, t.firing, kind);
                let failed = run(&t, plan.clone(), watchdog);
                assert!(!failed.completed, "{label}: {kind:?} must fail the run");
                let f = failed
                    .report
                    .root_failure()
                    .unwrap_or_else(|| panic!("{label}: {kind:?} recorded no failure"));
                assert_eq!((f.stage, f.firing), (t.stage, t.firing), "{label} {kind:?}");
                assert_eq!(f.cause.label(), want_cause, "{label} {kind:?}: {f}");
                assert_prefix(bench.name, cores, &t.clean, &failed);

                // Determinism: an identical run observes the identical
                // failure signature.
                let again = run(&t, plan.clone(), watchdog);
                assert_eq!(
                    failure_signature(&failed.report.failures),
                    failure_signature(&again.report.failures),
                    "{label}: {kind:?} failure signature must be deterministic"
                );
            }

            // --- Robustness classes: absorbed, bit-identical completion.
            for kind in [
                FaultKind::DelayPush { nanos: 2_000_000 },
                FaultKind::DropUnpark { count: 2 },
            ] {
                let plan = FaultPlan::single(t.stage, t.firing, kind);
                let out = run(&t, plan, None);
                assert!(out.completed, "{label}: {kind:?} must be absorbed");
                assert!(out.report.failures.is_empty(), "{label}: {kind:?}");
                assert_eq!(
                    out.output.len(),
                    t.clean.output.len(),
                    "{label}: {kind:?} throughput"
                );
                for (i, (a, b)) in out.output.iter().zip(&t.clean.output).enumerate() {
                    assert!(
                        a.bits_eq(*b),
                        "{label}: {kind:?} output {i} diverged: {a:?} vs {b:?}"
                    );
                }
            }

            // --- Replay bundle round-trip reproduces the panic case. The
            // seed is pure provenance; carrying the core count in it keeps
            // the three per-benchmark bundle file names distinct.
            let mut plan = FaultPlan::single(t.stage, t.firing, FaultKind::Panic);
            plan.seed = cores as u64;
            let failed = run(&t, plan.clone(), None);
            let bundle = make_bundle(
                bench.name,
                true,
                &machine,
                ExecMode::default(),
                &t.assignment,
                t.iters,
                None,
                plan,
                &failed.report.failures,
            );
            let parsed: macross_repro::runtime::ReplayBundle = bundle
                .json_string()
                .parse()
                .unwrap_or_else(|e: String| panic!("{label}: bundle did not round-trip: {e}"));
            assert_eq!(parsed, bundle);
            let outcome = run_bundle(&parsed)
                .unwrap_or_else(|e| panic!("{label}: replay refused the bundle: {e}"));
            assert!(
                outcome.reproduced,
                "{label}: replay diverged: expected {:?}, observed {:?}",
                bundle.expect, outcome.observed
            );
            // The nightly fault-matrix job sets MACROSS_REPLAY_DIR to
            // collect the verified bundles as CI artifacts and feed them
            // through the replay_fault binary.
            if let Some(dir) = std::env::var_os("MACROSS_REPLAY_DIR") {
                bundle
                    .write_to_dir(std::path::Path::new(&dir))
                    .unwrap_or_else(|e| panic!("{label}: bundle dump failed: {e}"));
            }
        }
    }
}

/// A faulted *region-vectorized* stage drains to a clean prefix. The
/// region transform turns per-channel scalar state into register-file
/// panels carried across firings, so a mid-run fault inside the
/// vectorized work function is the worst case for the drain contract:
/// the supervisor must record a typed failure at exactly the injected
/// `(stage, firing)` address, keep every token already committed to the
/// sink bit-identical to the clean run, and never emit past it — on a
/// single core and with the region stage isolated on its own core.
#[test]
fn faulted_region_stage_drains_to_clean_prefix() {
    use macross_repro::benchsuite::region::{region_acc_norm, region_iir_bank};
    use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};

    for (build, needle) in [
        (region_iir_bank as fn() -> Graph, "iir_bank_r"),
        (region_acc_norm as fn() -> Graph, "acc_norm_r"),
    ] {
        let simd = macro_simdize(&build(), &Machine::core_i7(), &SimdizeOptions::all()).unwrap();
        let (graph, schedule) = (simd.graph, simd.schedule);
        let victim = graph
            .nodes()
            .find(|(_, n)| n.name().contains(needle))
            .map(|(id, _)| id.0 as usize)
            .unwrap_or_else(|| panic!("region transform did not produce a *{needle}* stage"));
        for cores in [1u32, 2] {
            // Two-core split: the region stage and everything downstream
            // on core 1, so the faulted drain crosses a live ring.
            let assignment: Vec<u32> = (0..graph.node_count())
                .map(|i| u32::from(cores > 1 && i >= victim))
                .collect();
            let label = format!("{needle}@{cores}");
            let iters = 6;
            let clean = run_once(
                &graph,
                &schedule,
                &assignment,
                iters,
                FaultPlan::none(),
                None,
            );
            assert!(clean.completed, "{label}: clean run must complete");
            let firings = clean.report.stages[victim].firings;
            assert!(firings >= 2, "{label}: region stage fired only {firings}");
            let firing = firings / 2;

            for (kind, want_cause) in [(FaultKind::Panic, "panic"), (FaultKind::PoisonTape, "vm")] {
                let plan = FaultPlan::single(victim, firing, kind);
                let failed = run_once(&graph, &schedule, &assignment, iters, plan.clone(), None);
                assert!(!failed.completed, "{label}: {kind:?} must fail the run");
                let f = failed
                    .report
                    .root_failure()
                    .unwrap_or_else(|| panic!("{label}: {kind:?} recorded no failure"));
                assert_eq!((f.stage, f.firing), (victim, firing), "{label} {kind:?}");
                assert_eq!(f.cause.label(), want_cause, "{label} {kind:?}: {f}");
                assert_prefix(needle, cores as usize, &clean, &failed);
                // The region stage committed exactly the pre-fault firings.
                assert_eq!(
                    failed.report.stages[victim].firings, firing,
                    "{label} {kind:?}: firings past the fault were committed"
                );
                let again = run_once(&graph, &schedule, &assignment, iters, plan, None);
                assert_eq!(
                    failure_signature(&failed.report.failures),
                    failure_signature(&again.report.failures),
                    "{label}: {kind:?} failure signature must be deterministic"
                );
            }
        }
    }
}

/// A panic in the middle of an iteration block, on a stage whose out-edge
/// is write-reordered: the workers run node-major over a block, so when
/// the stage fails nothing downstream has consumed this block's share of
/// its output yet. The drain must still deliver every completed firing's
/// tokens — the failed firing's write mark is rolled back, the tape is
/// not quarantined — and nothing more: the sink's stream is exactly as
/// long as the completed firings make it.
#[test]
fn panic_mid_block_on_a_write_reordered_edge_keeps_completed_firings() {
    use macross_repro::runtime::iteration_block;
    use macross_repro::streamir::builder::StreamSpec;
    use macross_repro::streamir::edsl::*;
    use macross_repro::streamir::graph::{AddrGen, NodeId, Reorder, ReorderSide};
    use macross_repro::streamir::types::{ScalarTy, Ty};
    use macross_repro::streamir::{Expr, Filter, Stmt};

    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        b.push(v(n));
        b.set(n, v(n) + 1i32);
    });
    // Scalar producer, 3 tokens per firing, into blocks of 8 that a
    // vector consumer pops whole: 8 producer firings per iteration.
    let mut triple = FilterBuilder::new("triple", 3, 3, 3, ScalarTy::I32);
    triple.work(|b| {
        for _ in 0..3 {
            b.push(pop() + 1i32);
        }
    });
    let mut vec = Filter::new("vec", 8, 8, 8);
    vec.work = vec![
        Stmt::VPush {
            value: Expr::VPop { width: 4 },
            width: 4,
        };
        2
    ];
    let mut graph = StreamSpec::pipeline(vec![
        src.build_spec(),
        triple.build_spec(),
        StreamSpec::filter(vec, ScalarTy::I32),
        StreamSpec::Sink,
    ])
    .build()
    .unwrap();
    let victim = 1usize;
    let e = graph.single_out_edge(NodeId(victim as u32)).unwrap();
    graph.edge_mut(e).reorder = Some(Reorder {
        rate: 2,
        sw: 4,
        side: ReorderSide::Producer,
        addr_gen: AddrGen::Sagu,
    });
    let schedule = Schedule::compute(&graph).unwrap();
    assert_eq!(schedule.reps[victim], 8);

    let block = iteration_block();
    let iters = 3 * block;
    // 40 firings into the second block; 3 tokens each, so the completed
    // firings end on a reorder-block boundary and every token of theirs
    // can reach the sink.
    let firing = 8 * block + 40;
    for assignment in [[0u32, 0, 0, 0], [0, 1, 1, 1], [0, 1, 0, 1]] {
        let label = format!("{assignment:?}");
        let clean = run_once(
            &graph,
            &schedule,
            &assignment,
            iters,
            FaultPlan::none(),
            None,
        );
        assert!(clean.completed, "{label}");
        let plan = FaultPlan::single(victim, firing, FaultKind::Panic);
        let failed = run_once(&graph, &schedule, &assignment, iters, plan, None);
        assert!(!failed.completed, "{label}");
        let f = failed.report.root_failure().unwrap();
        assert_eq!((f.stage, f.firing), (victim, firing), "{label}");
        assert_eq!(failed.report.stages[victim].firings, firing, "{label}");
        assert_prefix("reordered chain", 2, &clean, &failed);
        assert_eq!(failed.output.len() as u64, 3 * firing, "{label}");
    }
}

/// A planned fault cuts the share it falls in at its firing: the firings
/// before it go through one envelope, the addressed one through one of
/// its own, the rest of the share through one again — whether it is the
/// share's first firing, one in the middle or its last, for a whole stage
/// and for a replica (whose share is every second global firing). Counted
/// where it shows: every firing but the addressed one is a batched one.
#[test]
fn planned_fault_fires_alone_and_the_rest_of_its_share_in_envelopes() {
    use macross_repro::runtime::iteration_block;
    use macross_repro::streamir::builder::StreamSpec;
    use macross_repro::streamir::edsl::*;
    use macross_repro::streamir::graph::NodeId;
    use macross_repro::streamir::types::{ScalarTy, Ty};

    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(|b| {
        b.push(v(n));
        b.set(n, v(n) + 1i32);
    });
    let mut victim = FilterBuilder::new("victim", 1, 1, 1, ScalarTy::I32);
    victim.work(|b| {
        b.push(pop() + 1i32);
    });
    let graph = StreamSpec::pipeline(vec![
        src.build_spec(),
        victim.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .unwrap();
    let schedule = Schedule::compute(&graph).unwrap();
    let block = iteration_block();
    let iters = 2 * block + block / 2;
    let whole = Placement::whole_stage(vec![0, 1, 1]);
    let replicas = Placement {
        assignment: vec![0, 1, 0],
        fission: vec![FissionSpec {
            node: NodeId(1),
            replicas: vec![1, 2],
        }],
    };
    let run = |placement: &Placement, plan: FaultPlan| {
        let opts = SupervisorOptions::with_plan(plan);
        let session = TraceSession::disabled();
        let machine = Machine::core_i7();
        run_supervised_placed(
            &graph, &schedule, &machine, placement, iters, &opts, &session,
        )
        .unwrap()
    };
    let kinds = [
        FaultKind::Panic,
        FaultKind::PoisonTape,
        FaultKind::StallFiring { nanos: 50_000 },
        FaultKind::DelayPush { nanos: 50_000 },
        FaultKind::DropUnpark { count: 1 },
    ];
    for (how, placement) in [("whole", &whole), ("replicas", &replicas)] {
        let clean = run(placement, FaultPlan::none());
        assert!(clean.completed, "{how}");
        assert_eq!(clean.report.stages[1].batched_firings, iters, "{how}");
        for kind in kinds {
            for firing in [block, block + block / 2, 2 * block - 1] {
                let label = format!("{how}: {kind:?} at {firing}");
                let out = run(placement, FaultPlan::single(1, firing, kind));
                let victim = &out.report.stages[1];
                if matches!(kind, FaultKind::Panic | FaultKind::PoisonTape) {
                    let f = out.report.root_failure().expect(&label);
                    assert_eq!((f.stage, f.firing), (1, firing), "{label}");
                    assert_prefix(&label, 2, &clean, &out);
                    if how == "whole" {
                        // A replica's sibling does not stop at `firing`.
                        assert_eq!(victim.firings, firing, "{label}");
                    }
                } else {
                    assert!(out.completed, "{label}: {:?}", out.report.failures);
                    assert_eq!(out.output, clean.output, "{label}");
                    assert_eq!(victim.firings, iters, "{label}");
                }
                assert_eq!(
                    victim.batched_firings,
                    victim.firings - u64::from(out.completed)
                );
            }
        }
    }
}
