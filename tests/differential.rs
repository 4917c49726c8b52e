//! Cross-crate differential tests: every benchmark, under every
//! SIMDization configuration and both auto-vectorizer presets, must
//! preserve program output (bit-exactly, except for the ICC preset's
//! documented FP-reduction reassociation) — on the bytecode engine and on
//! the tree-walk oracle alike.

use macross_repro::autovec::{autovectorize_graph, AutovecConfig};
use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::graph::Graph;
use macross_repro::vm::{run_scheduled, run_scheduled_mode, ExecMode, Machine, RunResult};

/// The engines every comparison below runs on.
const MODES: [ExecMode; 2] = [ExecMode::Bytecode, ExecMode::TreeWalk];

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
    mode: ExecMode,
) -> (RunResult, RunResult) {
    let (src1, src2) = (source_of(g1), source_of(g2));
    let (r1, r2) = (s1.reps[src1.0 as usize], s2.reps[src2.0 as usize]);
    let l = macross_repro::sdf::lcm(r1, r2);
    let mut s1 = s1.clone();
    let mut s2 = s2.clone();
    s1.scale(l / r1);
    s2.scale(l / r2);
    (
        run_scheduled_mode(g1, &s1, m, iters, mode).unwrap(),
        run_scheduled_mode(g2, &s2, m, iters, mode).unwrap(),
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
        for mode in MODES {
            let (a, c) = run_aligned(&g, &sched, &simd.graph, &simd.schedule, machine, 2, mode);
            assert_exact(b.name, &format!("{cfg}/{mode:?}"), &a, &c);
        }
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
        let mut vg = g.clone();
        autovectorize_graph(&mut vg, &AutovecConfig::gcc_like(4));
        for mode in MODES {
            let a = run_scheduled_mode(&g, &sched, &machine, 2, mode).unwrap();
            let c = run_scheduled_mode(&vg, &sched, &machine, 2, mode).unwrap();
            assert_exact(b.name, &format!("gcc_autovec/{mode:?}"), &a, &c);
        }
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
        let mut vg = g.clone();
        autovectorize_graph(&mut vg, &AutovecConfig::icc_like(4));
        for mode in MODES {
            let a = run_scheduled_mode(&g, &sched, &machine, 2, mode).unwrap();
            let c = run_scheduled_mode(&vg, &sched, &machine, 2, mode).unwrap();
            assert_eq!(a.output.len(), c.output.len(), "{}/{mode:?}", b.name);
            for (i, (x, y)) in a.output.iter().zip(&c.output).enumerate() {
                let (x, y) = (x.as_f64(), y.as_f64());
                let tol = 1e-3 * x.abs().max(1.0);
                assert!(
                    (x - y).abs() <= tol,
                    "{}/{mode:?}: output {i}: {x} vs {y}",
                    b.name
                );
            }
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
        for mode in MODES {
            let (a, c) = run_aligned(&g, &sched, &both, &simd.schedule, &machine, 2, mode);
            assert_exact(b.name, &format!("macro+gcc/{mode:?}"), &a, &c);
        }
    }
}

// ---------------------------------------------------------------------------
// Bytecode engine vs. tree-walking oracle. `ExecMode` selects the engine
// per run, so one binary pits both against each other.

mod engine_differential {
    use super::*;
    use macross_repro::runtime::{
        run_supervised_placed, FissionSpec, Placement, RuntimeError, SupervisedRun,
        SupervisorOptions,
    };

    /// `run_threaded_placed` with an explicit engine on every worker.
    fn run_placed_mode(
        g: &Graph,
        sched: &Schedule,
        m: &Machine,
        placement: &Placement,
        iters: u64,
        mode: ExecMode,
    ) -> Result<SupervisedRun, RuntimeError> {
        let opts = SupervisorOptions {
            mode,
            ..SupervisorOptions::default()
        };
        run_supervised_placed(g, sched, m, placement, iters, &opts)?.into_result()
    }

    /// Run one graph under both engines — tree walk and bytecode — and
    /// demand bit-identical outputs AND identical cycle counters.
    fn assert_engines_agree(name: &str, cfg: &str, g: &Graph, sched: &Schedule, m: &Machine) {
        let tw = run_scheduled_mode(g, sched, m, 2, ExecMode::TreeWalk)
            .unwrap_or_else(|e| panic!("{name}/{cfg}/treewalk: {e}"));
        let bc = run_scheduled_mode(g, sched, m, 2, ExecMode::Bytecode)
            .unwrap_or_else(|e| panic!("{name}/{cfg}/bytecode: {e}"));
        assert_exact(name, &format!("{cfg}/bytecode"), &tw, &bc);
        assert_eq!(
            tw.counters, bc.counters,
            "{name}/{cfg}/bytecode: cycle counters diverge between engines"
        );
        assert_eq!(
            tw.node_cycles, bc.node_cycles,
            "{name}/{cfg}/bytecode: per-node cycles diverge between engines"
        );
    }

    #[test]
    fn all_benchmarks_scalar_engines_agree() {
        use macross_repro::streamir::builder::StreamSpec;
        use macross_repro::streamir::edsl::*;
        use macross_repro::streamir::types::{ScalarTy, Ty};
        let m = Machine::core_i7();
        for b in benchsuite::all() {
            let g = (b.build)();
            let sched = Schedule::compute(&g).unwrap();
            assert_engines_agree(b.name, "scalar", &g, &sched, &m);
        }
        // One shape no suite program has: a 48-trip hash-mixing loop over
        // an i32 accumulator whose multiply wraps and whose arithmetic
        // shift sees negative values.
        let mut fb = FilterBuilder::new("mix32", 1, 1, 1, ScalarTy::I32);
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::I32));
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(move |b| {
            b.set(acc, pop());
            b.for_(i, 48i32, |b| {
                b.set(acc, (v(acc) * 1103515245i32 + 12345i32) ^ (v(acc) >> 7i32));
                b.set(acc, v(acc) & 0x7fffffffi32);
            });
            b.push(v(acc));
        });
        let g = StreamSpec::pipeline(vec![
            benchsuite::util::source_i32("src", 1, 0xffff),
            fb.build_spec(),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let sched = Schedule::compute(&g).unwrap();
        assert_engines_agree("mix32", "scalar", &g, &sched, &m);
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
                for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
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
    /// both engines, across three communication regimes and two
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
        let mut collapsed_plans = 0usize;
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
                    // The planner never commits to a placement it models
                    // slower than sequential.
                    assert!(
                        plan.modelled_speedup() >= 1.0,
                        "{}@{workers}: modelled speedup {} below 1",
                        b.name,
                        plan.modelled_speedup()
                    );
                    if plan.cores_used > 1 {
                        parallel_plans += 1;
                    } else {
                        collapsed_plans += 1;
                    }
                    if plan.fissioned > 0 {
                        fissioned_plans += 1;
                    }
                    for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
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
                        if plan.cores_used == 1 {
                            assert_eq!(
                                thr.report.ring_traffic(),
                                0,
                                "{ctx}: a one-core plan moved tokens through rings"
                            );
                        }
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
        // If every plan collapsed the parallel legs above were vacuous, and
        // if none did the one-core check was.
        assert!(parallel_plans > 0, "no plan ever chose more than one core");
        assert!(collapsed_plans > 0, "no plan ever collapsed to one core");
        assert!(fissioned_plans > 0, "no plan ever fissioned a stage");
    }

    /// The planner's exact verdict on two scalar programs under the
    /// default comm model (3 cycles per element, 40 per cut edge), from
    /// node cycles of a 2-iteration sequential profile, and what the
    /// runtime moves through rings running it for 50 iterations. Every
    /// number is a pure function of the graph, so a change to the planner,
    /// the comm model or what crosses a ring must update this table on
    /// purpose.
    #[test]
    fn planned_counters_match_their_pinned_values() {
        use macross_repro::multicore::{plan_placement, CommModel};
        use macross_repro::runtime::run_threaded_placed;
        // (program, worker budget, cores used, cut edges, fused groups,
        //  fission replicas, modelled makespan, ring traffic)
        type Pin = (&'static str, usize, usize, usize, usize, usize, u64, u64);
        const PINNED: [Pin; 4] = [
            ("FilterBank", 2, 2, 8, 2, 0, 21856, 832),
            ("FilterBank", 4, 4, 16, 9, 0, 11916, 5388),
            ("DCT", 2, 2, 2, 2, 0, 2482, 800),
            ("DCT", 4, 4, 4, 0, 0, 2074, 1600),
        ];
        let m = Machine::core_i7();
        for (name, workers, cores, cut, fused, fissioned, makespan, traffic) in PINNED {
            let at = format!("{name}@{workers}");
            let g = (benchsuite::by_name(name).unwrap().build)();
            let sched = Schedule::compute(&g).unwrap();
            let profile = run_scheduled(&g, &sched, &m, 2).unwrap();
            let plan = plan_placement(
                &g,
                &sched,
                &profile.node_cycles,
                workers,
                &CommModel::default(),
            );
            assert_eq!(
                (
                    plan.cores_used,
                    plan.cut_edges,
                    plan.fused_groups,
                    plan.fissioned,
                    plan.modelled_makespan
                ),
                (cores, cut, fused, fissioned, makespan),
                "{at}: plan (cores, cut edges, fused, fissioned, makespan) drifted"
            );
            let seq = run_scheduled(&g, &sched, &m, 50).unwrap();
            let thr = run_threaded_placed(&g, &sched, &m, &plan.placement, 50)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(thr.report.ring_traffic(), traffic, "{at}: ring traffic");
            assert_eq!(thr.report.cut_edges, plan.cut_edges, "{at}: cut edges");
            assert_eq!(thr.output.len(), seq.output.len(), "{at}: throughput");
            for (i, (x, y)) in seq.output.iter().zip(&thr.output).enumerate() {
                assert!(x.bits_eq(*y), "{at}: output {i} differs: {x:?} vs {y:?}");
            }
        }
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

    /// Every loop and charge shape the suite does not have — it has no
    /// trip count that is unknown at compile time — in one filter, with
    /// the counts popped from the tape running through negative, zero and
    /// positive values over the firings. Sink bits, `CycleCounters` and
    /// per-node cycles must agree across both engines.
    #[test]
    fn runtime_trip_loops_and_branch_charges_agree() {
        use macross_repro::streamir::builder::StreamSpec;
        use macross_repro::streamir::edsl::*;
        use macross_repro::streamir::types::{ScalarTy, Ty};
        use macross_repro::vm::bytecode::Op;
        use macross_repro::vm::compile_filter;

        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            // 0, -2, 5, 3, 1, -1, -3, 4, 2, 0, ...
            b.push((v(n) * 7i32 + 3i32) % 9i32 - 3i32);
            b.set(n, v(n) + 1i32);
        });

        let mut fb = FilterBuilder::new("edges", 2, 2, 18, ScalarTy::I32);
        let [i, j, a, q, acc] =
            ["i", "j", "a", "q", "acc"].map(|name| fb.local(name, Ty::Scalar(ScalarTy::I32)));
        let f = fb.local("f", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            // A count popped in place; the loop variable read after the
            // loop, and left alone when the loop does not run.
            b.set(i, 77i32);
            b.for_(i, pop(), |b| {
                b.set(acc, v(acc) + v(i) * 3i32 + 1i32);
            });
            b.push(v(acc)).push(v(i));
            // The body reassigns the variable the count was read from.
            b.set(a, pop()).set(q, v(a)).set(acc, 0i32);
            b.for_(j, v(q), |b| {
                b.set(q, v(q) - 5i32).set(acc, v(acc) + v(q));
            });
            b.push(v(acc)).push(v(q)).push(v(j));
            // The body writes the loop variable.
            b.set(acc, 0i32);
            b.for_(i, v(a) + 4i32, |b| {
                b.set(acc, v(acc) + v(i));
                b.set(i, v(i) + 10i32);
                b.set(acc, v(acc) * 2i32 + v(i));
            });
            b.push(v(acc)).push(v(i));
            // Triangular nests: a runtime inner count under a literal
            // outer one (too many trips to unroll), and under a runtime one.
            b.set(acc, 0i32);
            b.for_(i, 60i32, |b| {
                b.for_(j, v(i), |b| {
                    b.set(acc, v(acc) + v(j) * v(i) + v(a));
                });
            });
            b.push(v(acc));
            b.for_(i, v(a) + 1i32, |b| {
                b.for_(j, v(i), |b| {
                    b.set(acc, v(acc) ^ (v(j) + v(i)));
                });
            });
            b.push(v(acc)).push(v(j));
            // If / else with different charges, inside a loop, inside an
            // If whose other branch is charged differently again.
            b.if_else(
                gt(v(a), 0i32),
                |b| {
                    b.for_(i, v(a) + 2i32, |b| {
                        b.if_else(
                            v(i) & 1i32,
                            |b| {
                                b.set(acc, v(acc) * 3i32);
                            },
                            |b| {
                                b.set(acc, v(acc) / 7i32 + v(i)).set(acc, v(acc) - 1i32);
                            },
                        );
                    });
                },
                |b| {
                    b.set(acc, v(acc) + 100i32);
                },
            );
            b.push(v(acc));
            // Float counts: a variable, an expression, a literal.
            b.set(f, cast(ScalarTy::F32, v(a)) * 1.5f32).set(acc, 0i32);
            b.for_(i, v(f), |b| {
                b.set(acc, v(acc) + 2i32);
            });
            b.for_(j, cast(ScalarTy::F32, v(a)) + 0.75f32, |b| {
                b.set(acc, v(acc) + 16i32);
            });
            b.for_(j, 2.5f32, |b| {
                b.set(acc, v(acc) + 256i32);
            });
            b.push(v(acc)).push(v(i)).push(v(j));
            // Literal counts of zero, below zero, and of the other width.
            b.set(i, -5i32);
            b.for_(i, 0i32, |b| {
                b.set(acc, v(acc) + 1000i32);
            });
            b.for_(j, -3i32, |b| {
                b.set(acc, v(acc) + 2000i32);
            });
            b.push(v(acc)).push(v(i));
            b.for_(i, 300i64, |b| {
                b.set(acc, v(acc) + 4000i32);
            });
            b.push(v(acc)).push(v(i));
        });
        let edges = fb.build();

        // None of this is worth anything if the filter quietly fell back
        // to the tree-walker, or never reached the ops under test.
        let m = Machine::core_i7();
        let plan = compile_filter(&edges, Some(ScalarTy::I32), Some(ScalarTy::I32), &m)
            .expect("the edge filter compiles");
        let count = |f: fn(&Op) -> bool| plan.work.iter().filter(|op| f(op)).count();
        // Literal counts of zero and below compile to nothing.
        assert_eq!(count(|op| matches!(op, Op::LoopEnter { .. })), 12);
        assert_eq!(count(|op| matches!(op, Op::LoopNext { .. })), 12);
        // Literal integer counts above the unroll budget (60, 300i64)
        // fold their charges; the other ten loops charge by their run-time
        // trip count.
        assert_eq!(count(|op| matches!(op, Op::ChargeTimes { .. })), 10);
        // Four `If` branches and the end of the body.
        assert_eq!(count(|op| matches!(op, Op::Charge(_))), 5);

        let g = StreamSpec::pipeline(vec![
            src.build_spec(),
            StreamSpec::filter(edges, ScalarTy::I32),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let mut sched = Schedule::compute(&g).unwrap();
        sched.scale(12); // 24 firings: every count from -3 to 5 comes up
        assert_engines_agree("edges", "loops+charges", &g, &sched, &m);
        let run = run_scheduled_mode(&g, &sched, &m, 2, ExecMode::Bytecode).unwrap();
        assert_eq!(run.output.len(), 24 * 18);
    }

    /// What the firing compiler promises about the code it emits, checked
    /// on every filter of the suite, scalar and SIMDized: loops are one
    /// entry and one latch, nothing is charged per iteration, and the
    /// constant pool is a zone no op writes and no firing zeroes.
    #[test]
    fn all_benchmarks_compile_to_rotated_loops_region_charges_and_a_read_only_pool() {
        use macross_repro::streamir::graph::Node;
        use macross_repro::vm::bytecode::{CompiledFilter, Op};
        use macross_repro::vm::CompiledPrograms;

        /// Every register window `op` writes, as `(is_float, base, len)`,
        /// read off its `Debug` form so that no variant can be forgotten.
        fn writes(op: &Op) -> Vec<(bool, u32, u32)> {
            let text = format!("{op:?}");
            let field = |name: &str| -> Option<u32> {
                let at = text.find(&format!(" {name}: "))? + name.len() + 3;
                let digits = text[at..].split(|c: char| !c.is_ascii_digit()).next()?;
                digits.parse().ok()
            };
            let name = text.split([' ', '(']).next().unwrap();
            // Float compares and logical nots yield integer lanes.
            let float =
                name.ends_with('F') && !matches!(name, "CmpF" | "VCmpF" | "LogNotF" | "VLogNotF");
            let w = field("w").unwrap_or(1);
            let mut out = Vec::new();
            if let Some(dst) = field("dst") {
                out.push((float, dst, w));
            }
            if name.starts_with("Store") || name.starts_with("LaneStore") {
                let whole = field("len").unwrap() * if name.contains("VElem") { w } else { 1 };
                out.push((float, field("base").unwrap(), whole));
            }
            if let Op::LoopEnter { counter, var, .. } | Op::LoopNext { counter, var, .. } = op {
                out.extend([(false, *counter, 1), (false, *var, 1)]);
            }
            out
        }

        fn check(at: &str, plan: &CompiledFilter, code: &[Op]) {
            let pool = |float: bool| {
                if float {
                    (plan.pool_f.0, plan.pool_f.1.len() as u32)
                } else {
                    (plan.pool_i.0, plan.pool_i.1.len() as u32)
                }
            };
            let in_pool = |float: bool, base: u32, len: u32| {
                let (p, n) = pool(float);
                base < p + n && p < base + len
            };
            for (float, zeros) in [(false, &plan.zero_i), (true, &plan.zero_f)] {
                for &(base, len) in zeros {
                    assert!(!in_pool(float, base, len), "{at}: the pool is zeroed");
                }
            }
            let mut open: Vec<usize> = Vec::new();
            for (k, op) in code.iter().enumerate() {
                for (float, base, len) in writes(op) {
                    assert!(
                        !in_pool(float, base, len),
                        "{at}: op {k} {op:?} writes a pool register"
                    );
                }
                match *op {
                    Op::LoopEnter { .. } => open.push(k),
                    Op::LoopNext {
                        counter,
                        limit,
                        var,
                        body,
                    } => {
                        let enter = open
                            .pop()
                            .unwrap_or_else(|| panic!("{at}: stray latch {k}"));
                        let Op::LoopEnter {
                            counter: c,
                            limit: l,
                            var: v,
                            exit,
                        } = code[enter]
                        else {
                            unreachable!()
                        };
                        assert_eq!((c, l, v), (counter, limit, var), "{at}: loop {enter}..{k}");
                        assert_eq!(body as usize, enter + 1, "{at}: loop {enter}..{k}");
                        // Walk the body's unconditional path: an `If`
                        // jumps to its else label, whose predecessor jumps
                        // to the end of the whole statement.
                        let mut pc = enter + 1;
                        while pc < k {
                            match code[pc] {
                                Op::JumpIfZI { target, .. } | Op::JumpIfZF { target, .. } => {
                                    let Op::Jump { target: end } = code[target as usize - 1] else {
                                        panic!("{at}: malformed If at {pc}");
                                    };
                                    pc = end as usize;
                                }
                                Op::Charge(_) => panic!("{at}: per-iteration Charge at {pc}"),
                                _ => pc += 1,
                            }
                        }
                        // A literal trip count is a pool register and is
                        // charged at compile time; anything else by one
                        // `ChargeTimes` right behind the latch.
                        let by_trips = matches!(code.get(k + 1),
                            Some(Op::ChargeTimes { n, .. }) if *n == limit);
                        assert_eq!(
                            by_trips,
                            !in_pool(false, limit, 1),
                            "{at}: loop {enter}..{k}"
                        );
                        assert_eq!(exit as usize, k + 1 + by_trips as usize, "{at}");
                    }
                    _ => {}
                }
            }
            assert!(open.is_empty(), "{at}: loop without a latch");
            let branches = code
                .iter()
                .any(|op| matches!(op, Op::JumpIfZI { .. } | Op::JumpIfZF { .. }));
            let charges = code.iter().filter(|op| matches!(op, Op::Charge(_))).count();
            assert!(branches || charges <= 1, "{at}: {charges} charges, no If");
        }

        use macross_repro::streamir::expr::BinOp;
        let (dst, a, b, w) = (9, 2, 3, 4);
        let op = BinOp::Lt;
        assert_eq!(writes(&Op::VCmpF { op, dst, a, b, w }), [(false, 9, 4)]);
        assert_eq!(writes(&Op::MovF { dst, src: a }), [(true, 9, 1)]);
        let (base, len, idx, src) = (8, 5, 1, 40);
        let store = Op::StoreVElemF {
            base,
            len,
            idx,
            src,
            w,
        };
        assert_eq!(writes(&store), [(true, 8, 20)]);
        assert!(writes(&Op::Charge(3)).is_empty());

        let m = Machine::core_i7();
        let (mut filters, mut loops) = (0usize, 0usize);
        for b in benchsuite::all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            for (cfg, g) in [("scalar", &g), ("simdized", &simd.graph)] {
                let programs = CompiledPrograms::compile(g, &m, ExecMode::Bytecode);
                for (id, node) in g.nodes() {
                    let Node::Filter(f) = node else { continue };
                    let at = format!("{}/{cfg}/{}", b.name, f.name);
                    let plan = programs
                        .plan(id)
                        .unwrap_or_else(|| panic!("{at}: tree-walks"));
                    check(&at, plan, &plan.init);
                    check(&at, plan, &plan.work);
                    filters += 1;
                    loops += (plan.init.iter().chain(&plan.work))
                        .filter(|op| matches!(op, Op::LoopNext { .. }))
                        .count();
                }
            }
        }
        // `work` unrolls the loops whose known trip count fits the compiler's
        // budget; those above it, and every loop of `init`, stay rotated.
        assert!(
            filters > 200 && loops > 120,
            "{filters} filters, {loops} loops"
        );
    }

    /// `Executor::run_*` fires a node's repetitions as one block
    /// (`firing::fire_block`); walking the same schedule one
    /// `Executor::fire` at a time — what a caller that walks the schedule
    /// itself does — must give the same sink bits, counters and per-node
    /// cycles, on every suite program, scalar and SIMDized, in both
    /// engines.
    #[test]
    fn block_firing_matches_single_firings_on_every_benchmark() {
        use macross_repro::vm::Executor;
        let m = Machine::core_i7();
        for b in benchsuite::all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let scalar = (g, Schedule::compute(&(b.build)()).unwrap());
            for (cfg, (g, sched)) in [
                ("scalar", scalar),
                ("simdized", (simd.graph, simd.schedule)),
            ] {
                // Every repetition count at least 2, so every node fires
                // in blocks.
                let mut sched = sched;
                sched.scale(2);
                for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
                    let at = format!("{}/{cfg}/{mode:?}", b.name);
                    let mut blocks = Executor::with_mode(&g, &sched, &m, mode);
                    blocks.run_init().unwrap();
                    blocks.reset_counters();
                    blocks.run_steady(2).unwrap();

                    let mut singles = Executor::with_mode(&g, &sched, &m, mode);
                    // Filter `init` functions only: no iteration.
                    singles.run_steady(0).unwrap();
                    let walk = |ex: &mut Executor, reps: &[u64]| {
                        for &id in &sched.order {
                            for _ in 0..reps[id.0 as usize] {
                                ex.fire(id).unwrap_or_else(|e| panic!("{at}: {e}"));
                            }
                        }
                    };
                    walk(&mut singles, &sched.init_reps);
                    singles.reset_counters();
                    walk(&mut singles, &sched.reps);
                    walk(&mut singles, &sched.reps);

                    let (a, c) = (blocks.output_flat(), singles.output_flat());
                    assert!(!a.is_empty() && a.len() == c.len(), "{at}: output length");
                    assert!(
                        a.iter().zip(&c).all(|(x, y)| x.bits_eq(*y)),
                        "{at}: sink bits"
                    );
                    assert_eq!(blocks.counters(), singles.counters(), "{at}: counters");
                    assert_eq!(
                        blocks.node_cycles(),
                        singles.node_cycles(),
                        "{at}: node cycles"
                    );
                }
            }
        }
    }

    /// A guest fault at firing `j` of a block of `k` leaves what `k` single
    /// firings stopped at the first error leave: the same error, both
    /// tapes poisoned, the `j` firings before it committed — tokens, tape
    /// statistics, filter state and modelled cycles — nothing of the failed
    /// one delivered downstream, and `j` reported as completed.
    #[test]
    fn a_fault_inside_a_block_stops_where_single_firings_stop() {
        use macross_repro::streamir::builder::StreamSpec;
        use macross_repro::streamir::edsl::*;
        use macross_repro::streamir::graph::Node;
        use macross_repro::streamir::types::{ScalarTy, Ty, Value};
        use macross_repro::vm::firing::{fire_block, fire_node, graph_tapes, FirePlan};
        use macross_repro::vm::{CompiledPrograms, CycleCounters, VmError};
        const K: u64 = 8;
        const J: i32 = 5;
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        // Blows its own firing number J with an out-of-range peek, after
        // it has counted the firing and before it pushes.
        let mut bomb = FilterBuilder::new("bomb", 1, 1, 1, ScalarTy::I32);
        let fired = bomb.state("fired", Ty::Scalar(ScalarTy::I32));
        let junk = bomb.local("junk", Ty::Scalar(ScalarTy::I32));
        bomb.work(move |b| {
            b.set(fired, v(fired) + 1i32);
            b.if_(eq(v(fired), J + 1), |b| {
                b.set(junk, peek(1_000_000i32));
            });
            b.push(pop() + 100i32);
        });
        let g = StreamSpec::pipeline(vec![src.build_spec(), bomb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let m = Machine::core_i7();
        let ids: Vec<_> = g.node_ids().collect();
        let (src_id, bomb_id) = (ids[0], ids[1]);
        let Node::Filter(bomb_filter) = g.node(bomb_id) else {
            panic!("node 1 is the bomb")
        };
        let plans = FirePlan::for_graph(&g, &m);
        for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
            let programs = CompiledPrograms::compile(&g, &m, mode);
            let run = |as_block: bool| {
                let mut tapes = graph_tapes(&g);
                let mut states: Vec<_> =
                    g.nodes().map(|(id, n)| programs.state_for(id, n)).collect();
                let (mut counters, mut sunk) = (CycleCounters::default(), Vec::new());
                let mut completed = 0;
                let mut fire = |id: macross_repro::streamir::NodeId, k: u64, as_block: bool| {
                    let i = id.0 as usize;
                    let (plan, node, state) = (&plans[i], g.node(id), &mut states[i]);
                    if as_block {
                        fire_block(
                            plan,
                            node,
                            state,
                            &mut tapes,
                            &m,
                            &mut counters,
                            k,
                            &mut sunk,
                            &mut completed,
                        )
                    } else {
                        completed = 0;
                        (0..k).try_for_each(|_| {
                            fire_node(plan, node, state, &mut tapes, &m, &mut counters, &mut sunk)
                                .map(|()| completed += 1)
                        })
                    }
                };
                fire(src_id, K, true).unwrap();
                let err = fire(bomb_id, K, as_block).unwrap_err();
                assert_eq!(completed, J as u64, "{mode:?}, block {as_block}");
                let tapes: Vec<_> = tapes
                    .iter()
                    .map(|t| (t.is_poisoned(), t.stats(), t.export_resident()))
                    .collect();
                let state = states[bomb_id.0 as usize].export_state_vars(bomb_filter);
                (err, tapes, (state, counters))
            };
            let (block, singles) = (run(true), run(false));
            assert_eq!(block, singles, "{mode:?}");
            let (err, tapes, (state, _)) = block;
            assert!(
                matches!(&err, VmError::Panicked { filter, .. } if filter == "bomb"),
                "{mode:?}: {err}"
            );
            // J firings popped and pushed; the failed one counted itself
            // and touched neither tape.
            let fed: Vec<Value> = (J..K as i32).map(Value::I32).collect();
            let out: Vec<Value> = (0..J).map(|x| Value::I32(x + 100)).collect();
            assert_eq!(tapes[0], (true, (K, J as u64), Some(fed)), "{mode:?}");
            assert_eq!(tapes[1], (true, (J as u64, 0), Some(out)), "{mode:?}");
            assert_eq!(state, vec![Value::I32(J + 1)], "{mode:?}");
        }
    }

    /// A tape stores untyped register images, so a value of another type
    /// than the edge's is refused where it is pushed — a guest fault of
    /// the producer, not a panic in whoever pops it later. (The firing
    /// compiler declines a body whose push type is not the edge's, so the
    /// liar tree-walks under either mode.)
    #[test]
    fn wrong_typed_push_is_the_producers_fault_in_both_engines() {
        use macross_repro::streamir::edsl::*;
        use macross_repro::streamir::graph::Node;
        use macross_repro::streamir::types::ScalarTy;
        use macross_repro::vm::VmError;
        let mut liar = FilterBuilder::new("liar", 0, 0, 1, ScalarTy::I32);
        liar.work(|b| {
            b.push(c(7i32));
        });
        let mut halve = FilterBuilder::new("halve", 1, 1, 1, ScalarTy::F32);
        halve.work(|b| {
            b.push(pop() * 0.5f32);
        });
        let mut g = Graph::new();
        let (l, h) = (
            g.add_node(Node::filter(liar.build())),
            g.add_node(Node::filter(halve.build())),
        );
        let k = g.add_node(Node::Sink);
        g.connect(l, 0, h, 0, ScalarTy::F32);
        g.connect(h, 0, k, 0, ScalarTy::F32);
        let sched = Schedule::compute(&g).unwrap();
        let m = Machine::core_i7();
        for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
            match run_scheduled_mode(&g, &sched, &m, 1, mode).unwrap_err() {
                VmError::Panicked { filter, message } => {
                    assert_eq!(filter, "liar", "{mode:?}");
                    assert!(message.contains("tape of f32"), "{mode:?}: {message}");
                }
                other => panic!("{mode:?}: expected the liar to fault, got {other}"),
            }
        }
    }

    /// What DESIGN §10 says of signalling NaNs: an `f32` tape slot holds
    /// the token widened to `f64` bits, and widening quiets — in both
    /// engines alike, with sign and payload kept. An `f64` slot is the
    /// token's own bits.
    #[test]
    fn a_tape_quiets_an_f32_signalling_nan_and_keeps_an_f64_one_in_both_engines() {
        use macross_repro::streamir::edsl::*;
        use macross_repro::streamir::graph::Node;
        use macross_repro::streamir::types::Value;
        let snan32 = f32::from_bits(0xffa0_1234);
        let snan64 = f64::from_bits(0x7ff4_0000_dead_beef);
        let cases = [
            (Value::F32(snan32), Value::F32(f32::from_bits(0xffe0_1234))),
            (Value::F64(snan64), Value::F64(snan64)),
        ];
        for (token, want) in cases {
            let mut src = FilterBuilder::new("src", 0, 0, 1, token.ty());
            src.work(|b| {
                b.push(c(token));
            });
            let mut copy = FilterBuilder::new("copy", 1, 1, 1, token.ty());
            copy.work(|b| {
                b.push(pop());
            });
            let mut g = Graph::new();
            let s = g.add_node(Node::filter(src.build()));
            let f = g.add_node(Node::filter(copy.build()));
            let k = g.add_node(Node::Sink);
            g.connect(s, 0, f, 0, token.ty());
            g.connect(f, 0, k, 0, token.ty());
            let sched = Schedule::compute(&g).unwrap();
            for mode in [ExecMode::TreeWalk, ExecMode::Bytecode] {
                let out = run_scheduled_mode(&g, &sched, &Machine::core_i7(), 1, mode).unwrap();
                assert!(out.output[0].bits_eq(want), "{mode:?}: {:?}", out.output);
            }
        }
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
