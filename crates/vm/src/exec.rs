//! Whole-program execution: fires nodes per the SDF schedule, manages
//! tapes and persistent actor state, runs splitters/joiners/sinks natively,
//! and accounts cycles per node.
//!
//! The per-node firing logic itself lives in [`crate::firing`] so the
//! threaded runtime can reuse it against thread-local tapes.

use crate::error::VmError;
use crate::firing::{self, FilterState, FirePlan};
use crate::machine::{CycleCounters, Machine};
use crate::programs::CompiledPrograms;
use crate::tape::Tape;
use macross_sdf::Schedule;
use macross_streamir::graph::{Graph, Node, NodeId};
use macross_streamir::types::Value;

/// Which engine executes filter work functions, chosen per run. The
/// default is [`ExecMode::Bytecode`]; the differential tests run both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Compiled register bytecode, with per-filter fallback to the
    /// tree-walker for bodies the compiler cannot lower exactly.
    #[default]
    Bytecode,
    /// The original tree-walking interpreter (the differential oracle).
    TreeWalk,
}

impl ExecMode {
    /// Stable name of the engine, as service reports and replay bundles
    /// record it.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Bytecode => "bytecode",
            ExecMode::TreeWalk => "treewalk",
        }
    }

    /// The engine a [`ExecMode::label`] names. `bytecode-nofuse`, the
    /// bytecode engine with superblock kernel fusion turned off, names
    /// what `bytecode` now always is, so bundles recorded under it still
    /// replay (bit-exactly: every engine matches the tree-walk oracle).
    pub fn from_label(label: &str) -> Option<ExecMode> {
        match label {
            "bytecode" | "bytecode-nofuse" => Some(ExecMode::Bytecode),
            "treewalk" => Some(ExecMode::TreeWalk),
            _ => None,
        }
    }
}

/// Executes a scheduled stream graph on a modelled machine.
pub struct Executor<'a> {
    graph: &'a Graph,
    schedule: &'a Schedule,
    machine: &'a Machine,
    tapes: Vec<Tape>,
    /// Cached adjacency and address costs per node (see [`FirePlan`]).
    plans: Vec<FirePlan>,
    /// Persistent state per node (non-empty for filters only).
    states: Vec<FilterState>,
    /// Cycles charged by each node's firings; the aggregate and the
    /// per-node totals are derived from it on read, so a firing pays for
    /// no bookkeeping beyond its own charges.
    node_counters: Vec<CycleCounters>,
    outputs: Vec<Vec<Value>>,
    inits_done: bool,
}

impl<'a> Executor<'a> {
    /// Set up tapes and state with the default [`ExecMode`]. Filter `init`
    /// functions run lazily before the first [`Executor::run_init`] /
    /// [`Executor::run_steady`] call.
    pub fn new(graph: &'a Graph, schedule: &'a Schedule, machine: &'a Machine) -> Executor<'a> {
        Executor::with_mode(graph, schedule, machine, ExecMode::default())
    }

    /// [`Executor::new`] with an explicit engine choice.
    pub fn with_mode(
        graph: &'a Graph,
        schedule: &'a Schedule,
        machine: &'a Machine,
        mode: ExecMode,
    ) -> Executor<'a> {
        let programs = CompiledPrograms::compile(graph, machine, mode);
        Executor::with_programs(graph, schedule, machine, &programs)
    }

    /// Build an executor from pre-compiled shared plans instead of
    /// compiling per construction — the multi-session path: one
    /// [`CompiledPrograms`] feeds any number of executors, each with its
    /// own tapes and mutable state but zero compile work.
    ///
    /// # Panics
    /// Panics if `programs` does not cover every node of `graph` (it was
    /// compiled for a different graph).
    pub fn with_programs(
        graph: &'a Graph,
        schedule: &'a Schedule,
        machine: &'a Machine,
        programs: &CompiledPrograms,
    ) -> Executor<'a> {
        assert_eq!(
            programs.node_count(),
            graph.node_count(),
            "compiled programs were built for a different graph"
        );
        let states = graph
            .nodes()
            .map(|(id, node)| programs.state_for(id, node))
            .collect();
        let outputs = vec![Vec::new(); graph.node_count()];
        Executor {
            graph,
            schedule,
            machine,
            tapes: firing::graph_tapes(graph),
            plans: FirePlan::for_graph(graph, machine),
            states,
            node_counters: vec![CycleCounters::default(); graph.node_count()],
            outputs,
            inits_done: false,
        }
    }

    fn run_init_functions(&mut self) -> Result<(), VmError> {
        if self.inits_done {
            return Ok(());
        }
        self.inits_done = true;
        for (id, node) in self.graph.nodes() {
            if let Node::Filter(f) = node {
                self.states[id.0 as usize].run_init_fn(f, self.machine)?;
            }
        }
        Ok(())
    }

    /// Run the initialization schedule (primes peeking filters).
    ///
    /// # Errors
    /// Propagates interpreter failures.
    pub fn run_init(&mut self) -> Result<(), VmError> {
        self.run_init_functions()?;
        let order = self.schedule.order.clone();
        for id in order {
            self.fire_reps(id, self.schedule.init_reps[id.0 as usize])?;
        }
        Ok(())
    }

    /// Run `iters` steady-state iterations.
    ///
    /// # Errors
    /// Propagates interpreter failures.
    pub fn run_steady(&mut self, iters: u64) -> Result<(), VmError> {
        self.run_init_functions()?;
        let order = self.schedule.order.clone();
        for _ in 0..iters {
            for &id in &order {
                self.fire_reps(id, self.schedule.reps[id.0 as usize])?;
            }
        }
        Ok(())
    }

    /// Convenience: init schedule followed by `iters` steady iterations.
    ///
    /// # Errors
    /// Propagates interpreter failures.
    pub fn run(&mut self, iters: u64) -> Result<(), VmError> {
        self.run_init()?;
        self.run_steady(iters)
    }

    /// Zero the cycle counters (e.g. after warm-up or the init schedule).
    pub fn reset_counters(&mut self) {
        self.node_counters.fill(CycleCounters::default());
    }

    /// Aggregate counters.
    pub fn counters(&self) -> CycleCounters {
        let mut sum = CycleCounters::default();
        self.node_counters.iter().for_each(|c| sum.absorb(c));
        sum
    }

    /// Total modelled cycles.
    pub fn total_cycles(&self) -> u64 {
        self.counters().total()
    }

    /// Cycles attributed to each node.
    pub fn node_cycles(&self) -> Vec<u64> {
        self.node_counters
            .iter()
            .map(CycleCounters::total)
            .collect()
    }

    /// Values captured by each sink node (indexed by node id).
    pub fn outputs(&self) -> &[Vec<Value>] {
        &self.outputs
    }

    /// All sink outputs concatenated in node order (for differential
    /// comparisons).
    pub fn output_flat(&self) -> Vec<Value> {
        self.outputs.concat()
    }

    /// A node's `k` repetitions: one [`firing::fire_block`].
    fn fire_reps(&mut self, id: NodeId, k: u64) -> Result<(), VmError> {
        let i = id.0 as usize;
        firing::fire_block(
            &self.plans[i],
            self.graph.node(id),
            &mut self.states[i],
            &mut self.tapes,
            self.machine,
            &mut self.node_counters[i],
            k,
            &mut self.outputs[i],
            &mut 0,
        )
    }

    /// Fire one node once.
    ///
    /// # Errors
    /// Propagates interpreter failures (filters only; the native nodes
    /// cannot fail).
    pub fn fire(&mut self, id: NodeId) -> Result<(), VmError> {
        let i = id.0 as usize;
        firing::fire_node(
            &self.plans[i],
            self.graph.node(id),
            &mut self.states[i],
            &mut self.tapes,
            self.machine,
            &mut self.node_counters[i],
            &mut self.outputs[i],
        )
    }
}

/// Result of a convenience whole-program run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Concatenated sink outputs.
    pub output: Vec<Value>,
    /// Aggregate cycle counters for the measured steady iterations.
    pub counters: CycleCounters,
    /// Per-node cycles.
    pub node_cycles: Vec<u64>,
}

impl RunResult {
    /// Total modelled cycles.
    pub fn total_cycles(&self) -> u64 {
        self.counters.total()
    }
}

/// Schedule and execute a graph for `iters` steady-state iterations on
/// `machine`, excluding initialization from the cycle counts.
///
/// # Errors
/// Propagates scheduling failures and interpreter failures.
pub fn run_program(graph: &Graph, machine: &Machine, iters: u64) -> Result<RunResult, VmError> {
    let schedule = Schedule::compute(graph)?;
    run_scheduled(graph, &schedule, machine, iters)
}

/// Execute a graph with a pre-computed (possibly SIMD-adjusted) schedule.
///
/// # Errors
/// Propagates interpreter failures.
pub fn run_scheduled(
    graph: &Graph,
    schedule: &Schedule,
    machine: &Machine,
    iters: u64,
) -> Result<RunResult, VmError> {
    run_scheduled_mode(graph, schedule, machine, iters, ExecMode::default())
}

/// [`run_scheduled`] with an explicit engine choice (differential runs
/// pit [`ExecMode::Bytecode`] against [`ExecMode::TreeWalk`]).
///
/// # Errors
/// Propagates interpreter failures.
pub fn run_scheduled_mode(
    graph: &Graph,
    schedule: &Schedule,
    machine: &Machine,
    iters: u64,
    mode: ExecMode,
) -> Result<RunResult, VmError> {
    let mut ex = Executor::with_mode(graph, schedule, machine, mode);
    ex.run_init()?;
    ex.reset_counters();
    ex.run_steady(iters)?;
    Ok(RunResult {
        output: ex.output_flat(),
        counters: ex.counters(),
        node_cycles: ex.node_cycles(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};

    /// Every fixed-value test below holds on both engines.
    const MODES: [ExecMode; 2] = [ExecMode::Bytecode, ExecMode::TreeWalk];

    fn run_on(g: &Graph, iters: u64, mode: ExecMode) -> RunResult {
        let sched = Schedule::compute(g).unwrap();
        run_scheduled_mode(g, &sched, &Machine::core_i7(), iters, mode).unwrap()
    }

    fn counting_source(name: &str, push: usize) -> StreamSpec {
        let mut fb = FilterBuilder::new(name, 0, 0, push, ScalarTy::I32);
        let n = fb.state("n", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            for _ in 0..push {
                b.push(v(n));
                b.set(n, v(n) + 1i32);
            }
        });
        fb.build_spec()
    }

    #[test]
    fn end_to_end_identity_pipeline() {
        let mut scale = FilterBuilder::new("scale", 1, 1, 1, ScalarTy::I32);
        scale.work(|b| {
            b.push(pop() * 3i32);
        });
        // Clamps to [3, 12] through an if/else nested in an else branch.
        let mut clamp = FilterBuilder::new("clamp", 1, 1, 1, ScalarTy::I32);
        let x = clamp.local("x", Ty::Scalar(ScalarTy::I32));
        clamp.work(|b| {
            b.set(x, pop());
            b.if_else(
                lt(v(x), 3i32),
                |b| {
                    b.push(3i32);
                },
                |b| {
                    b.if_else(
                        gt(v(x), 12i32),
                        |b| {
                            b.push(12i32);
                        },
                        |b| {
                            b.push(v(x));
                        },
                    );
                },
            );
        });
        let scaled: fn(i32) -> i32 = |x| x * 3;
        for (filter, want_of) in [
            (scale.build_spec(), scaled),
            (clamp.build_spec(), |x| x.clamp(3, 12)),
        ] {
            let g = StreamSpec::pipeline(vec![counting_source("src", 2), filter, StreamSpec::Sink])
                .build()
                .unwrap();
            for mode in MODES {
                let res = run_on(&g, 8, mode);
                // 8 iterations x src rep 1 x push 2 = 16 outputs.
                let want: Vec<Value> = (0..16).map(|x| Value::I32(want_of(x))).collect();
                assert_eq!(res.output, want, "{mode:?}");
                assert!(res.total_cycles() > 0, "{mode:?}");
            }
        }
    }

    #[test]
    fn split_join_round_robin_order_preserved() {
        let mk_add = |name: &str, add: i32| {
            let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
            fb.work(move |b| {
                b.push(pop() + add);
            });
            fb.build_spec()
        };
        let four = StreamSpec::split_join_uniform(
            1,
            1,
            vec![
                mk_add("a", 1000),
                mk_add("b", 2000),
                mk_add("c", 3000),
                mk_add("d", 4000),
            ],
        );
        // A pipeline nested in a branch, and weights of 2 on both sides.
        let nested = StreamSpec::split_join_uniform(
            2,
            2,
            vec![
                StreamSpec::pipeline(vec![mk_add("p0", 100), mk_add("p1", 1000)]),
                mk_add("q", 5000),
            ],
        );
        for (split_join, want) in [
            (four, [1000, 2001, 3002, 4003]),
            (nested, [1100, 1101, 5002, 5003]),
        ] {
            let g = StreamSpec::pipeline(vec![
                counting_source("src", 4),
                split_join,
                StreamSpec::Sink,
            ])
            .build()
            .unwrap();
            for mode in MODES {
                assert_eq!(run_on(&g, 1, mode).output, want.map(Value::I32), "{mode:?}");
            }
        }
    }

    #[test]
    fn duplicate_splitter_copies() {
        let id_f = |name: &str| {
            let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
            fb.work(|b| {
                b.push(pop());
            });
            fb.build_spec()
        };
        let g = StreamSpec::pipeline(vec![
            counting_source("src", 1),
            StreamSpec::split_join_duplicate(1, vec![id_f("l"), id_f("r")]),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        for mode in MODES {
            assert_eq!(
                run_on(&g, 2, mode).output,
                vec![Value::I32(0), Value::I32(0), Value::I32(1), Value::I32(1)],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn peeking_filter_sliding_window() {
        // Moving sum of a 3-window over the counting stream.
        let mut fir = FilterBuilder::new("fir", 3, 1, 1, ScalarTy::I32);
        fir.work(|b| {
            b.push(peek(0i32) + peek(1i32) + peek(2i32));
            b.stmt(macross_streamir::stmt::Stmt::AdvanceRead(1));
        });
        let g = StreamSpec::pipeline(vec![
            counting_source("src", 1),
            fir.build_spec(),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        for mode in MODES {
            // Windows start at 0: 0+1+2, 1+2+3, ...
            assert_eq!(
                run_on(&g, 4, mode).output,
                vec![Value::I32(3), Value::I32(6), Value::I32(9), Value::I32(12)],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn stateful_accumulator_persists() {
        let mut acc = FilterBuilder::new("acc", 1, 1, 1, ScalarTy::I32);
        let s = acc.state("sum", Ty::Scalar(ScalarTy::I32));
        acc.work(|b| {
            b.set(s, v(s) + pop());
            b.push(v(s));
        });
        let g = StreamSpec::pipeline(vec![
            counting_source("src", 1),
            acc.build_spec(),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        for mode in MODES {
            assert_eq!(
                run_on(&g, 4, mode).output,
                vec![Value::I32(0), Value::I32(1), Value::I32(3), Value::I32(6)],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn init_function_fills_state() {
        let mut lut = FilterBuilder::new("lut", 1, 1, 1, ScalarTy::I32);
        let table = lut.state("table", Ty::Array(ScalarTy::I32, 4));
        let i = lut.local("i", Ty::Scalar(ScalarTy::I32));
        let x = lut.local("x", Ty::Scalar(ScalarTy::I32));
        lut.init(|b| {
            b.for_(i, 4i32, |b| {
                b.set_idx(table, v(i), v(i) * 100i32);
            });
        });
        lut.work(|b| {
            b.set(x, pop() & 3i32);
            // Builds an EDSL AST; the `* 0` term exists to exercise the
            // interpreter, not host arithmetic.
            #[allow(clippy::erasing_op)]
            b.push(idx(table, v(x)) * 0i32 + idx(table, 2i32));
        });
        let g = StreamSpec::pipeline(vec![
            counting_source("src", 1),
            lut.build_spec(),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        for mode in MODES {
            assert_eq!(
                run_on(&g, 1, mode).output,
                vec![Value::I32(200)],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn labels_roundtrip() {
        for mode in MODES {
            assert_eq!(ExecMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(
            ExecMode::from_label("bytecode-nofuse"),
            Some(ExecMode::Bytecode)
        );
        assert!(ExecMode::from_label("abacus").is_none());
    }

    #[test]
    fn node_cycles_sum_to_total() {
        let mut f = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
        f.work(|b| {
            b.push(pop() + 1i32);
        });
        let g = StreamSpec::pipeline(vec![
            counting_source("src", 1),
            f.build_spec(),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        for mode in MODES {
            let res = run_on(&g, 5, mode);
            assert_eq!(
                res.node_cycles.iter().sum::<u64>(),
                res.total_cycles(),
                "{mode:?}"
            );
        }
    }
}

#[cfg(test)]
mod reorder_cost_tests {
    use super::*;
    use macross_sdf::Schedule;
    use macross_streamir::edsl::*;
    use macross_streamir::expr::Expr;
    use macross_streamir::graph::{AddrGen, Reorder, ReorderSide};
    use macross_streamir::stmt::Stmt;
    use macross_streamir::types::{ScalarTy, Ty};

    /// A joiner writing into a write-reordered tape (vectorized consumer)
    /// must pay the address-generation overhead — SAGU free, software 6
    /// cycles per access.
    #[test]
    fn joiner_pays_reorder_addr_cost() {
        let build = |addr_gen: AddrGen| {
            let mut g = Graph::new();
            let mut s1 = macross_streamir::Filter::new("s1", 0, 0, 2);
            s1.work = {
                let mut b = B::new();
                b.push(1i32).push(2i32);
                b.build()
            };
            let mut s2 = s1.clone();
            s2.name = "s2".into();
            let a = g.add_node(Node::filter(s1));
            let c = g.add_node(Node::filter(s2));
            let j = g.add_node(Node::Joiner(vec![2, 2]));
            // Vectorized consumer doing vector pops of width 4, rate 1.
            let mut vf = macross_streamir::Filter::new("v", 4, 4, 4);
            let tv = vf.add_var(
                "t",
                Ty::Vector(ScalarTy::I32, 4),
                macross_streamir::VarKind::Local,
            );
            vf.work = vec![
                Stmt::Assign(macross_streamir::LValue::Var(tv), Expr::VPop { width: 4 }),
                Stmt::VPush {
                    value: Expr::Var(tv),
                    width: 4,
                },
            ];
            let vnode = g.add_node(Node::filter(vf));
            let k = g.add_node(Node::Sink);
            g.connect(a, 0, j, 0, ScalarTy::I32);
            g.connect(c, 0, j, 1, ScalarTy::I32);
            let e = g.connect(j, 0, vnode, 0, ScalarTy::I32);
            g.edge_mut(e).reorder = Some(Reorder {
                rate: 1,
                sw: 4,
                side: ReorderSide::Producer,
                addr_gen,
            });
            g.connect(vnode, 0, k, 0, ScalarTy::I32);
            g
        };
        let machine = Machine::core_i7_with_sagu();
        let g_sagu = build(AddrGen::Sagu);
        let g_soft = build(AddrGen::Software);
        let sched = Schedule::compute(&g_sagu).unwrap();
        for mode in [ExecMode::Bytecode, ExecMode::TreeWalk] {
            let r_sagu = run_scheduled_mode(&g_sagu, &sched, &machine, 2, mode).unwrap();
            let r_soft = run_scheduled_mode(&g_soft, &sched, &machine, 2, mode).unwrap();
            assert_eq!(
                r_sagu.output, r_soft.output,
                "{mode:?}: functionally identical"
            );
            // 4 joiner pushes per iteration x 2 iterations x 6 cycles.
            assert_eq!(
                r_soft.counters.addr_overhead - r_sagu.counters.addr_overhead,
                4 * 2 * machine.cost.addr_software_reorder,
                "{mode:?}"
            );
        }
    }
}
