//! Cross-crate differential tests: every benchmark, under every
//! SIMDization configuration and both auto-vectorizer presets, must
//! preserve program output (bit-exactly, except for the ICC preset's
//! documented FP-reduction reassociation).

use macross_repro::autovec::{autovectorize_graph, AutovecConfig};
use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::graph::Graph;
use macross_repro::vm::{run_scheduled, Machine, RunResult};

fn source_of(g: &Graph) -> macross_repro::streamir::NodeId {
    g.node_ids()
        .find(|&id| g.in_edges(id).is_empty())
        .expect("graph has a source")
}

fn run_aligned(
    g1: &Graph,
    s1: &Schedule,
    g2: &Graph,
    s2: &Schedule,
    m: &Machine,
    iters: u64,
) -> (RunResult, RunResult) {
    let (src1, src2) = (source_of(g1), source_of(g2));
    let (r1, r2) = (s1.reps[src1.0 as usize], s2.reps[src2.0 as usize]);
    let l = macross_repro::sdf::lcm(r1, r2);
    let mut s1 = s1.clone();
    let mut s2 = s2.clone();
    s1.scale(l / r1);
    s2.scale(l / r2);
    (
        run_scheduled(g1, &s1, m, iters).unwrap(),
        run_scheduled(g2, &s2, m, iters).unwrap(),
    )
}

fn assert_exact(name: &str, cfg: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(
        a.output.len(),
        b.output.len(),
        "{name}/{cfg}: throughput mismatch"
    );
    assert!(!a.output.is_empty(), "{name}/{cfg}: empty output");
    for (i, (x, y)) in a.output.iter().zip(&b.output).enumerate() {
        assert!(
            x.bits_eq(*y),
            "{name}/{cfg}: output {i} differs: {x:?} vs {y:?}"
        );
    }
}

fn check_options(machine: &Machine, opts: &SimdizeOptions, cfg: &str) {
    for b in benchsuite::all() {
        let g = (b.build)();
        let sched = Schedule::compute(&g).unwrap();
        let simd =
            macro_simdize(&g, machine, opts).unwrap_or_else(|e| panic!("{}/{cfg}: {e}", b.name));
        let (a, c) = run_aligned(&g, &sched, &simd.graph, &simd.schedule, machine, 2);
        assert_exact(b.name, cfg, &a, &c);
    }
}

#[test]
fn all_benchmarks_all_transforms() {
    check_options(&Machine::core_i7(), &SimdizeOptions::all(), "all");
}

#[test]
fn all_benchmarks_single_only() {
    check_options(
        &Machine::core_i7(),
        &SimdizeOptions::single_only(),
        "single_only",
    );
}

#[test]
fn all_benchmarks_no_reorder() {
    check_options(
        &Machine::core_i7(),
        &SimdizeOptions::no_reorder(),
        "no_reorder",
    );
}

#[test]
fn all_benchmarks_vertical_only() {
    let opts = SimdizeOptions {
        horizontal: false,
        ..SimdizeOptions::all()
    };
    check_options(&Machine::core_i7(), &opts, "vertical_only");
}

#[test]
fn all_benchmarks_horizontal_only() {
    let opts = SimdizeOptions {
        single: false,
        vertical: false,
        permute_opt: false,
        reorder_opt: false,
        ..SimdizeOptions::all()
    };
    check_options(&Machine::core_i7(), &opts, "horizontal_only");
}

#[test]
fn all_benchmarks_with_sagu_machine() {
    check_options(
        &Machine::core_i7_with_sagu(),
        &SimdizeOptions::all(),
        "sagu",
    );
}

#[test]
fn all_benchmarks_wide_simd() {
    for sw in [2usize, 8] {
        check_options(
            &Machine::wide(sw),
            &SimdizeOptions::all(),
            &format!("wide{sw}"),
        );
    }
}

#[test]
fn all_benchmarks_neon_like() {
    // The Neon-like target lacks vector transcendentals; actors using them
    // must be skipped, and the result still correct.
    check_options(&Machine::neon_like(), &SimdizeOptions::all(), "neon");
}

#[test]
fn gcc_autovec_is_bit_exact() {
    let machine = Machine::core_i7();
    for b in benchsuite::all() {
        let g = (b.build)();
        let sched = Schedule::compute(&g).unwrap();
        let a = run_scheduled(&g, &sched, &machine, 2).unwrap();
        let mut vg = g.clone();
        autovectorize_graph(&mut vg, &AutovecConfig::gcc_like(4));
        let c = run_scheduled(&vg, &sched, &machine, 2).unwrap();
        assert_exact(b.name, "gcc_autovec", &a, &c);
    }
}

#[test]
fn icc_autovec_is_approximately_exact() {
    // ICC's default fast-FP model reassociates reductions; outputs may
    // differ in low-order bits but must stay numerically close.
    let machine = Machine::core_i7();
    for b in benchsuite::all() {
        let g = (b.build)();
        let sched = Schedule::compute(&g).unwrap();
        let a = run_scheduled(&g, &sched, &machine, 2).unwrap();
        let mut vg = g.clone();
        autovectorize_graph(&mut vg, &AutovecConfig::icc_like(4));
        let c = run_scheduled(&vg, &sched, &machine, 2).unwrap();
        assert_eq!(a.output.len(), c.output.len(), "{}", b.name);
        for (i, (x, y)) in a.output.iter().zip(&c.output).enumerate() {
            let (x, y) = (x.as_f64(), y.as_f64());
            let tol = 1e-3 * x.abs().max(1.0);
            assert!((x - y).abs() <= tol, "{}: output {i}: {x} vs {y}", b.name);
        }
    }
}

#[test]
fn macro_simd_then_autovec_is_bit_exact_with_gcc() {
    // The Figure-10 "Macro SIMD + Autovectorize" configuration.
    let machine = Machine::core_i7();
    for b in benchsuite::all() {
        let g = (b.build)();
        let sched = Schedule::compute(&g).unwrap();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
        let mut both = simd.graph.clone();
        autovectorize_graph(&mut both, &AutovecConfig::gcc_like(4));
        let (a, c) = run_aligned(&g, &sched, &both, &simd.schedule, &machine, 2);
        assert_exact(b.name, "macro+gcc", &a, &c);
    }
}

// ---------------------------------------------------------------------------
// Bytecode engine vs. tree-walking oracle. `ExecMode` selects the engine
// per run, so one binary pits both against each other regardless of which
// one the `vm-treewalk` feature made the default.

mod engine_differential {
    use super::*;
    use macross_repro::runtime::{
        run_supervised_placed, FissionSpec, Placement, RuntimeError, SupervisorOptions, ThreadedRun,
    };
    use macross_repro::telemetry::TraceSession;
    use macross_repro::vm::{run_scheduled_mode, ExecMode};

    /// `run_threaded_placed` with an explicit engine on every worker.
    fn run_placed_mode(
        g: &Graph,
        sched: &Schedule,
        m: &Machine,
        placement: &Placement,
        iters: u64,
        mode: ExecMode,
    ) -> Result<ThreadedRun, RuntimeError> {
        let opts = SupervisorOptions {
            mode,
            ..SupervisorOptions::default()
        };
        run_supervised_placed(
            g,
            sched,
            m,
            placement,
            iters,
            &opts,
            &TraceSession::disabled(),
        )?
        .into_result()
    }

    /// Run one graph under all three engines — tree walk, plain bytecode
    /// dispatch, and bytecode with superblock kernel fusion — and demand
    /// bit-identical outputs AND identical cycle counters.
    fn assert_engines_agree(name: &str, cfg: &str, g: &Graph, sched: &Schedule, m: &Machine) {
        let tw = run_scheduled_mode(g, sched, m, 2, ExecMode::TreeWalk)
            .unwrap_or_else(|e| panic!("{name}/{cfg}/treewalk: {e}"));
        for (mode, leg) in [
            (ExecMode::Bytecode, "bytecode"),
            (ExecMode::BytecodeNoFuse, "bytecode-nofuse"),
        ] {
            let bc = run_scheduled_mode(g, sched, m, 2, mode)
                .unwrap_or_else(|e| panic!("{name}/{cfg}/{leg}: {e}"));
            assert_exact(name, &format!("{cfg}/{leg}"), &tw, &bc);
            assert_eq!(
                tw.counters, bc.counters,
                "{name}/{cfg}/{leg}: cycle counters diverge between engines"
            );
            assert_eq!(
                tw.node_cycles, bc.node_cycles,
                "{name}/{cfg}/{leg}: per-node cycles diverge between engines"
            );
        }
    }

    #[test]
    fn all_benchmarks_scalar_engines_agree() {
        let m = Machine::core_i7();
        for b in benchsuite::all() {
            let g = (b.build)();
            let sched = Schedule::compute(&g).unwrap();
            assert_engines_agree(b.name, "scalar", &g, &sched, &m);
        }
    }

    #[test]
    fn all_benchmarks_simdized_engines_agree() {
        let m = Machine::core_i7();
        for b in benchsuite::all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert_engines_agree(b.name, "simdized", &simd.graph, &simd.schedule, &m);
        }
    }

    /// The threaded runtime under both engines, at 1, 2, and 4 workers:
    /// outputs bit-identical to each other and to the sequential run, and
    /// the per-core modelled counters identical across engines.
    #[test]
    fn all_benchmarks_threaded_engines_agree() {
        let m = Machine::core_i7();
        for b in benchsuite::all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let seq = run_scheduled_mode(&simd.graph, &simd.schedule, &m, 2, ExecMode::TreeWalk)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            for cores in [1u32, 2, 4] {
                // Round-robin placement: deterministic and exercises cut
                // edges without depending on the LPT heuristic.
                let placement = Placement::whole_stage(
                    (0..simd.graph.node_count())
                        .map(|i| i as u32 % cores)
                        .collect(),
                );
                let mut runs = Vec::new();
                for mode in [
                    ExecMode::TreeWalk,
                    ExecMode::Bytecode,
                    ExecMode::BytecodeNoFuse,
                ] {
                    let thr = run_placed_mode(&simd.graph, &simd.schedule, &m, &placement, 2, mode)
                        .unwrap_or_else(|e| panic!("{}@{cores}/{mode:?}: {e}", b.name));
                    assert_eq!(
                        thr.output.len(),
                        seq.output.len(),
                        "{}@{cores}/{mode:?}: throughput mismatch",
                        b.name
                    );
                    for (i, (x, y)) in seq.output.iter().zip(&thr.output).enumerate() {
                        assert!(
                            x.bits_eq(*y),
                            "{}@{cores}/{mode:?}: output {i} differs: {x:?} vs {y:?}",
                            b.name
                        );
                    }
                    runs.push(thr);
                }
                let tw = &runs[0];
                for bc in &runs[1..] {
                    assert_eq!(
                        tw.report.core_modelled, bc.report.core_modelled,
                        "{}@{cores}: per-core modelled counters diverge between engines",
                        b.name
                    );
                }
            }
        }
    }

    /// Cost-model-planned placements (fusion, fission, collapse) under
    /// all three engines, across three communication regimes and two
    /// worker budgets: every plan's output must be bit-identical to the
    /// sequential tree-walk oracle. The cheap regime pushes the planner
    /// toward aggressive cuts and fission; the chatty regime toward
    /// fusion and collapse — both must preserve the stream exactly.
    #[test]
    fn all_benchmarks_planned_placements_agree() {
        use macross_repro::multicore::{plan_placement, CommModel};
        let m = Machine::core_i7();
        let comms = [
            CommModel {
                cycles_per_element: 1,
                sync_per_edge: 8,
            },
            CommModel::default(),
            CommModel {
                cycles_per_element: 32,
                sync_per_edge: 4096,
            },
        ];
        let mut parallel_plans = 0usize;
        let mut fissioned_plans = 0usize;
        for b in benchsuite::all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let seq = run_scheduled_mode(&simd.graph, &simd.schedule, &m, 2, ExecMode::TreeWalk)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            for comm in &comms {
                for workers in [2usize, 4] {
                    let plan = plan_placement(
                        &simd.graph,
                        &simd.schedule,
                        &seq.node_cycles,
                        workers,
                        comm,
                    );
                    if plan.cores_used > 1 {
                        parallel_plans += 1;
                    }
                    if plan.fissioned > 0 {
                        fissioned_plans += 1;
                    }
                    for mode in [
                        ExecMode::TreeWalk,
                        ExecMode::Bytecode,
                        ExecMode::BytecodeNoFuse,
                    ] {
                        let ctx = format!(
                            "{}@{workers} comm {}/{} {mode:?}",
                            b.name, comm.cycles_per_element, comm.sync_per_edge
                        );
                        let thr = run_placed_mode(
                            &simd.graph,
                            &simd.schedule,
                            &m,
                            &plan.placement,
                            2,
                            mode,
                        )
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_eq!(
                            thr.report.cut_edges, plan.cut_edges,
                            "{ctx}: runtime cut edges disagree with the plan"
                        );
                        assert_eq!(
                            thr.output.len(),
                            seq.output.len(),
                            "{ctx}: throughput mismatch"
                        );
                        for (i, (x, y)) in seq.output.iter().zip(&thr.output).enumerate() {
                            assert!(x.bits_eq(*y), "{ctx}: output {i} differs: {x:?} vs {y:?}");
                        }
                    }
                }
            }
        }
        // If every plan collapsed the parallel legs above were vacuous.
        assert!(parallel_plans > 0, "no plan ever chose more than one core");
        assert!(fissioned_plans > 0, "no plan ever fissioned a stage");
    }

    /// Explicit-fission sweep: for every stage of every benchmark that
    /// passes the fission legality check, split it across two cores (the
    /// rest of the graph on core 0) and demand output bit-identical to
    /// the sequential oracle. This covers the deal/merge rotation on
    /// stages the cost-model planner would never pick.
    #[test]
    fn all_benchmarks_explicit_fission_agrees() {
        let m = Machine::core_i7();
        let mut fissioned = 0usize;
        for b in benchsuite::all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let seq = run_scheduled_mode(&simd.graph, &simd.schedule, &m, 2, ExecMode::TreeWalk)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            // Cap legal candidates per benchmark to bound test time; the
            // suite-wide floor below keeps the sweep honest.
            let mut budget = 4usize;
            for node in simd.graph.node_ids() {
                if budget == 0 {
                    break;
                }
                let placement = Placement {
                    assignment: vec![0; simd.graph.node_count()],
                    fission: vec![FissionSpec {
                        node,
                        replicas: vec![0, 1],
                    }],
                };
                if placement.validate(&simd.graph, &simd.schedule).is_err() {
                    continue;
                }
                budget -= 1;
                fissioned += 1;
                for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
                    let ctx = format!("{} fission node {} {mode:?}", b.name, node.0);
                    let thr = run_placed_mode(&simd.graph, &simd.schedule, &m, &placement, 2, mode)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(
                        thr.output.len(),
                        seq.output.len(),
                        "{ctx}: throughput mismatch"
                    );
                    for (i, (x, y)) in seq.output.iter().zip(&thr.output).enumerate() {
                        assert!(x.bits_eq(*y), "{ctx}: output {i} differs: {x:?} vs {y:?}");
                    }
                }
            }
        }
        assert!(
            fissioned >= 3,
            "fission legality rejected nearly every stage in the suite ({fissioned} legal)"
        );
    }

    /// Guest-program failures surface identically through both engines.
    #[test]
    fn engine_errors_match() {
        use macross_repro::streamir::builder::StreamSpec;
        use macross_repro::streamir::edsl::*;
        use macross_repro::streamir::filter::Filter;
        use macross_repro::streamir::types::{ScalarTy, Ty};
        // A filter that underflows its internal channel on first firing.
        let mut bad = Filter::new("bad", 1, 1, 1);
        let ch = bad.add_chan("ch", Ty::Scalar(ScalarTy::I32));
        bad.work = {
            let mut b = B::new();
            b.push(pop() + lpop(ch));
            b.build()
        };
        let g = StreamSpec::pipeline(vec![
            {
                let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
                src.work(|b| {
                    b.push(c(1i32));
                });
                src.build_spec()
            },
            StreamSpec::Filter {
                filter: bad,
                out_elem: ScalarTy::I32,
            },
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let sched = Schedule::compute(&g).unwrap();
        let m = Machine::core_i7();
        let tw = run_scheduled_mode(&g, &sched, &m, 1, ExecMode::TreeWalk).unwrap_err();
        let bc = run_scheduled_mode(&g, &sched, &m, 1, ExecMode::Bytecode).unwrap_err();
        assert_eq!(tw.to_string(), bc.to_string());
    }
}

#[test]
fn simdization_is_idempotent_protection() {
    // Running the driver on an already-SIMDized graph must not vectorize
    // anything twice (vectorized actors are detected and skipped).
    let machine = Machine::core_i7();
    let b = benchsuite::by_name("DCT").unwrap();
    let g = (b.build)();
    let once = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
    let twice = macro_simdize(&once.graph, &machine, &SimdizeOptions::all()).unwrap();
    assert!(
        twice.report.single_actors.is_empty(),
        "{:?}",
        twice.report.single_actors
    );
    assert!(twice.report.vertical_chains.is_empty());
    assert!(twice.report.horizontal_groups.is_empty());
}
