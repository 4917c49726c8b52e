//! Randomized property tests over the core invariants:
//!
//! - random stateless actors survive single-actor SIMDization (all tape
//!   modes) with bit-identical output, on both engines;
//! - random *structured* actors — nested loops with literal, variable and
//!   popped trip counts, branches, scalar and vector assignments — produce
//!   the same sink bits and cycle counters on both engines;
//! - random *vector* actors — permutations, float and integer compares,
//!   casts through every width, intrinsics, `i64` multiplies — and random
//!   assignments the constant pool and destination forwarding must get
//!   right do too;
//! - the repetition-vector solver balances arbitrary pipelines and
//!   split-joins, minimally;
//! - tapes behave like a FIFO oracle under arbitrary operation sequences,
//!   for every element type and through both the `Value` and the image
//!   view;
//! - the SAGU model, the Figure-8 software model, and the pure mapping
//!   agree for arbitrary configurations;
//! - permutation-network plans invert strided layouts for every legal
//!   size.
//!
//! Cases are generated with a seeded xorshift PRNG (the container has no
//! network access to fetch `proptest`/`rand`), so every run explores the
//! same deterministic case set and failures are trivially reproducible
//! from the printed seed.

use macross_repro::macross::permnet::{gather_plan, scatter_plan};
use macross_repro::macross::single::{simdize_single_actor, SingleActorConfig, TapeMode};
use macross_repro::sagu::{column_major_index, Sagu, SoftwareAddrGen};
use macross_repro::sdf::{is_balanced, repetition_vector, Schedule};
use macross_repro::streamir::builder::StreamSpec;
use macross_repro::streamir::edsl::*;
use macross_repro::streamir::expr::{BinOp, Expr, LValue, VarId};
use macross_repro::streamir::filter::{Filter, VarKind};
use macross_repro::streamir::graph::{Graph, Node};
use macross_repro::streamir::stmt::Stmt;
use macross_repro::streamir::types::{ScalarTy, Ty, Value};
use macross_repro::vm::tape::raw_of;
use macross_repro::vm::{run_scheduled_mode, ExecMode, Machine, Tape};

/// The engines every scalar-vs-SIMDized comparison runs on.
const MODES: [ExecMode; 2] = [ExecMode::Bytecode, ExecMode::TreeWalk];

// ---------------------------------------------------------------------
// Deterministic PRNG (xorshift64*).
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo) as u64) as i32
    }
}

// ---------------------------------------------------------------------
// Random stateless actors -> single-actor SIMDization differential.
// ---------------------------------------------------------------------

/// A compact description of a random straight-line integer actor.
#[derive(Debug, Clone)]
struct ActorSpec {
    pop: usize,
    /// One expression tree per push.
    pushes: Vec<ExprSpec>,
}

#[derive(Debug, Clone)]
enum ExprSpec {
    /// Reference to input temp `i % pop`.
    Temp(usize),
    Const(i32),
    Bin(u8, Box<ExprSpec>, Box<ExprSpec>),
}

fn gen_expr(rng: &mut Rng, depth: usize) -> ExprSpec {
    // Shrinking branch probability with depth keeps trees small.
    if depth < 3 && rng.range(0, 4) < 2 {
        let op = rng.range(0, 6) as u8;
        ExprSpec::Bin(
            op,
            Box::new(gen_expr(rng, depth + 1)),
            Box::new(gen_expr(rng, depth + 1)),
        )
    } else if rng.range(0, 2) == 0 {
        ExprSpec::Temp(rng.range(0, 8))
    } else {
        ExprSpec::Const(rng.range_i32(-50, 50))
    }
}

fn gen_actor(rng: &mut Rng) -> ActorSpec {
    let pop = rng.range(1, 5);
    let n_push = rng.range(1, 5);
    let pushes = (0..n_push).map(|_| gen_expr(rng, 0)).collect();
    ActorSpec { pop, pushes }
}

fn build_expr(spec: &ExprSpec, temps: &[VarId]) -> Expr {
    match spec {
        ExprSpec::Temp(i) => Expr::Var(temps[i % temps.len()]),
        ExprSpec::Const(c) => Expr::Const(Value::I32(*c)),
        ExprSpec::Bin(op, a, b) => {
            let op = match op % 6 {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Xor,
                4 => BinOp::And,
                _ => BinOp::Or,
            };
            Expr::bin(op, build_expr(a, temps), build_expr(b, temps))
        }
    }
}

fn build_actor(spec: &ActorSpec) -> Filter {
    let mut f = Filter::new("rand_actor", spec.pop, spec.pop, spec.pushes.len());
    let temps: Vec<VarId> = (0..spec.pop)
        .map(|i| f.add_var(format!("t{i}"), Ty::Scalar(ScalarTy::I32), VarKind::Local))
        .collect();
    let mut b = B::new();
    for &t in &temps {
        b.stmt(macross_repro::streamir::Stmt::Assign(
            macross_repro::streamir::LValue::Var(t),
            Expr::Pop,
        ));
    }
    for p in &spec.pushes {
        b.push(E(build_expr(p, &temps)));
    }
    f.work = b.build();
    f
}

fn i32_source() -> StreamSpec {
    let mut fb = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = fb.state("n", Ty::Scalar(ScalarTy::I32));
    fb.work(|b| {
        b.push(v(n));
        b.set(n, v(n) * 75i32 + 74i32);
    });
    fb.build_spec()
}

fn differential(actor: Filter, cfg: SingleActorConfig) {
    let build = |mid: Filter| {
        StreamSpec::pipeline(vec![
            i32_source(),
            StreamSpec::filter(mid, ScalarTy::I32),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap()
    };
    let scalar_graph = build(actor.clone());
    let vf = simdize_single_actor(&actor, &cfg).unwrap();
    let mut vec_graph = build(vf);
    let mut ssched = Schedule::compute(&scalar_graph).unwrap();
    ssched.scale(cfg.sw as u64);
    let mut vsched = ssched.clone();
    vsched.reps[1] /= cfg.sw as u64;
    let actor_id = macross_repro::streamir::NodeId(1);
    if cfg.input == TapeMode::VectorReorder {
        let e = vec_graph.single_in_edge(actor_id).unwrap();
        vec_graph.edge_mut(e).reorder = Some(macross_repro::streamir::Reorder {
            rate: actor.pop,
            sw: cfg.sw,
            side: macross_repro::streamir::ReorderSide::Producer,
            addr_gen: macross_repro::streamir::AddrGen::Sagu,
        });
    }
    if cfg.output == TapeMode::VectorReorder {
        let e = vec_graph.single_out_edge(actor_id).unwrap();
        vec_graph.edge_mut(e).reorder = Some(macross_repro::streamir::Reorder {
            rate: actor.push,
            sw: cfg.sw,
            side: macross_repro::streamir::ReorderSide::Consumer,
            addr_gen: macross_repro::streamir::AddrGen::Sagu,
        });
    }
    let machine = Machine::core_i7_with_sagu();
    for mode in MODES {
        let a = run_scheduled_mode(&scalar_graph, &ssched, &machine, 3, mode).unwrap();
        let b = run_scheduled_mode(&vec_graph, &vsched, &machine, 3, mode).unwrap();
        assert_eq!(a.output, b.output, "{mode:?}");
    }
}

#[test]
fn random_actor_strided() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed);
        let actor = build_actor(&gen_actor(&mut rng));
        let cfg = SingleActorConfig::strided(4, ScalarTy::I32, ScalarTy::I32);
        differential(actor, cfg);
    }
}

#[test]
fn random_actor_vector_reorder() {
    for seed in 100..148u64 {
        let mut rng = Rng::new(seed);
        let actor = build_actor(&gen_actor(&mut rng));
        let cfg = SingleActorConfig {
            sw: 4,
            input: TapeMode::VectorReorder,
            output: TapeMode::VectorReorder,
            in_elem: ScalarTy::I32,
            out_elem: ScalarTy::I32,
        };
        differential(actor, cfg);
    }
}

#[test]
fn random_actor_permute_when_legal() {
    for seed in 200..248u64 {
        let mut rng = Rng::new(seed);
        let actor = build_actor(&gen_actor(&mut rng));
        let input = if actor.pop.is_power_of_two() {
            TapeMode::Permute
        } else {
            TapeMode::Strided
        };
        let output = if actor.push == 1 || actor.push.is_multiple_of(2) {
            TapeMode::Permute
        } else {
            TapeMode::Strided
        };
        let cfg = SingleActorConfig {
            sw: 4,
            input,
            output,
            in_elem: ScalarTy::I32,
            out_elem: ScalarTy::I32,
        };
        differential(actor, cfg);
    }
}

#[test]
fn random_actor_width_8() {
    for seed in 300..348u64 {
        let mut rng = Rng::new(seed);
        let actor = build_actor(&gen_actor(&mut rng));
        let cfg = SingleActorConfig::strided(8, ScalarTy::I32, ScalarTy::I32);
        differential(actor, cfg);
    }
}

// ---------------------------------------------------------------------
// Random structured actors -> three-engine differential.
// ---------------------------------------------------------------------

/// Generator state for one random structured actor over `i32` scalars
/// `xs`, 4-lane `i32` vectors `us`, `i32` arrays of [`ARRAY_LEN`] and
/// 4-lane vector-arrays of [`PANEL_ROWS`] rows (a `Local` and a `State`
/// of each), and one loop variable per nesting depth.
struct StmtGen {
    rng: Rng,
    xs: Vec<VarId>,
    us: Vec<VarId>,
    arrays: Vec<VarId>,
    panels: Vec<VarId>,
    loop_vars: Vec<VarId>,
    /// Pops not yet spent. A pop may only sit where every firing executes
    /// it exactly once: outside every loop and branch.
    pops_left: usize,
    /// Trip counts of the loops drawn near the compiler's unroll budget.
    near_budget: Vec<i32>,
}

const ARRAY_LEN: usize = 8;
const PANEL_ROWS: usize = 4;

/// Trip counts from here to one past the firing compiler's unroll budget
/// (256 ops) go to top-level loops, so a loop of one-op copies lands on
/// either side of it.
const NEAR_BUDGET: (i32, i32) = (200, 258);

impl StmtGen {
    fn x(&mut self) -> VarId {
        self.xs[self.rng.range(0, self.xs.len())]
    }

    fn u(&mut self) -> VarId {
        self.us[self.rng.range(0, self.us.len())]
    }

    fn array(&mut self) -> VarId {
        self.arrays[self.rng.range(0, self.arrays.len())]
    }

    fn panel(&mut self) -> VarId {
        self.panels[self.rng.range(0, self.panels.len())]
    }

    /// An expression over the enclosing loop variables (a scalar one
    /// outside every loop) masked into `0..len`.
    fn subscript(&mut self, loops: usize, len: usize) -> Expr {
        let e = if loops == 0 {
            self.scalar(1, 0)
        } else {
            let l = Expr::Var(self.loop_vars[self.rng.range(0, loops)]);
            match self.rng.range(0, 3) {
                0 => l,
                1 => Expr::bin(
                    BinOp::Add,
                    Expr::bin(
                        BinOp::Mul,
                        l,
                        Expr::Const(Value::I32(self.rng.range_i32(1, 4))),
                    ),
                    Expr::Const(Value::I32(self.rng.range_i32(-2, 3))),
                ),
                _ => Expr::bin(
                    BinOp::Add,
                    l,
                    Expr::Var(self.loop_vars[self.rng.range(0, loops)]),
                ),
            }
        };
        Expr::bin(BinOp::And, e, Expr::Const(Value::I32(len as i32 - 1)))
    }

    /// A scalar `i32` expression over variables, enclosing loop variables,
    /// lanes, array elements and literals (repeated ones, so the pool
    /// shares them).
    fn scalar(&mut self, depth: usize, loops: usize) -> Expr {
        if depth < 2 && self.rng.range(0, 3) > 0 {
            let op = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Xor,
                BinOp::And,
                BinOp::Div,
                BinOp::Lt,
                BinOp::Ne,
            ][self.rng.range(0, 8)];
            return Expr::bin(
                op,
                self.scalar(depth + 1, loops),
                self.scalar(depth + 1, loops),
            );
        }
        match self.rng.range(0, 5) {
            0 if loops > 0 => Expr::Var(self.loop_vars[self.rng.range(0, loops)]),
            1 => Expr::Lane(Box::new(Expr::Var(self.u())), self.rng.range(0, 4)),
            2 => Expr::Const(Value::I32(self.rng.range_i32(-3, 6))),
            3 if depth > 0 => {
                let a = self.array();
                Expr::Index(a, Box::new(self.subscript(loops, ARRAY_LEN)))
            }
            _ => Expr::Var(self.x()),
        }
    }

    fn vector(&mut self, loops: usize) -> Expr {
        match self.rng.range(0, 5) {
            0 => Expr::Splat(Box::new(self.scalar(1, loops)), 4),
            1 => Expr::Splat(
                Box::new(Expr::Const(Value::I32(self.rng.range_i32(-2, 3)))),
                4,
            ),
            2 => Expr::PermuteEven(Box::new(Expr::Var(self.u())), Box::new(Expr::Var(self.u()))),
            3 => {
                let p = self.panel();
                Expr::Index(p, Box::new(self.subscript(loops, PANEL_ROWS)))
            }
            _ => Expr::bin(
                [BinOp::Add, BinOp::Mul, BinOp::Xor, BinOp::Gt][self.rng.range(0, 4)],
                Expr::Var(self.u()),
                Expr::Var(self.u()),
            ),
        }
    }

    /// A trip count in `-2..=5` — a literal, a bare variable clamped just
    /// before (the body may reassign it), an expression, or a pop — or,
    /// for a top-level loop, a literal near the unroll budget.
    fn count(&mut self, out: &mut Vec<Stmt>, loops: usize, nest: usize) -> Expr {
        let clamped = |e: Expr| {
            Expr::bin(
                BinOp::Sub,
                Expr::bin(BinOp::And, e, Expr::Const(Value::I32(7))),
                Expr::Const(Value::I32(2)),
            )
        };
        match self.rng.range(0, 6) {
            0 if nest == 0 => {
                let n = self.rng.range_i32(NEAR_BUDGET.0, NEAR_BUDGET.1);
                self.near_budget.push(n);
                Expr::Const(Value::I32(n))
            }
            0 | 1 => Expr::Const(Value::I32(self.rng.range_i32(-1, 5))),
            2 => {
                let x = self.x();
                out.push(Stmt::Assign(LValue::Var(x), clamped(Expr::Var(x))));
                Expr::Var(x)
            }
            3 if loops == 0 && self.pops_left > 0 => {
                self.pops_left -= 1;
                Expr::Pop // the source stays inside -3..=5
            }
            _ => clamped(self.scalar(1, loops)),
        }
    }

    fn block(&mut self, loops: usize, nest: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..self.rng.range(1, 5) {
            match self.rng.range(0, 12) {
                0 | 1 if nest < 3 && loops < self.loop_vars.len() => {
                    let near = self.near_budget.len();
                    let count = self.count(&mut out, loops, nest);
                    // A loop near the budget gets a short body: one more
                    // nesting level at most.
                    let inner = if self.near_budget.len() > near {
                        2
                    } else {
                        nest + 1
                    };
                    out.push(Stmt::For {
                        var: self.loop_vars[loops],
                        count,
                        body: self.block(loops + 1, inner),
                    });
                }
                2 | 3 if nest < 3 => {
                    // On a loop variable, where there is one: a branch a
                    // copy of an unrolled loop knows.
                    let cond = if loops > 0 && self.rng.range(0, 2) == 0 {
                        let l = Expr::Var(self.loop_vars[self.rng.range(0, loops)]);
                        let k = Expr::Const(Value::I32(self.rng.range_i32(0, 4)));
                        Expr::bin(
                            [BinOp::Lt, BinOp::Eq, BinOp::And][self.rng.range(0, 3)],
                            l,
                            k,
                        )
                    } else {
                        self.scalar(1, loops)
                    };
                    let then_branch = self.block(loops, nest + 1);
                    let else_branch = if self.rng.range(0, 3) == 0 {
                        Vec::new()
                    } else {
                        self.block(loops, nest + 1)
                    };
                    out.push(Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                    });
                }
                4 => out.push(Stmt::Assign(LValue::Var(self.u()), self.vector(loops))),
                5 => out.push(Stmt::Assign(
                    LValue::LaneVar(self.u(), self.rng.range(0, 4)),
                    self.scalar(0, loops),
                )),
                6 => {
                    let a = self.array();
                    let value = self.scalar(0, loops);
                    let at = self.subscript(loops, ARRAY_LEN);
                    out.push(Stmt::Assign(LValue::Index(a, at), value));
                }
                7 => {
                    let p = self.panel();
                    let at = self.subscript(loops, PANEL_ROWS);
                    out.push(if self.rng.range(0, 2) == 0 {
                        Stmt::Assign(LValue::Index(p, at), self.vector(loops))
                    } else {
                        let lane = self.rng.range(0, 4);
                        Stmt::Assign(LValue::LaneIndex(p, at, lane), self.scalar(0, loops))
                    });
                }
                // The innermost loop's variable, reassigned in its body.
                8 if loops > 0 => out.push(Stmt::Assign(
                    LValue::Var(self.loop_vars[loops - 1]),
                    self.scalar(1, loops),
                )),
                _ => out.push(Stmt::Assign(LValue::Var(self.x()), self.scalar(0, loops))),
            }
        }
        out
    }
}

const STRUCTURED_POPS: usize = 5;
/// Every scalar, loop variable, vector lane and array element, pushed.
const STRUCTURED_PUSH: usize = 4 + 3 + 2 * 4 + 2 * ARRAY_LEN + 2 * 4 * PANEL_ROWS;

fn gen_structured_actor(seed: u64) -> (Filter, Vec<i32>) {
    let mut f = Filter::new(
        "structured",
        STRUCTURED_POPS,
        STRUCTURED_POPS,
        STRUCTURED_PUSH,
    );
    let mut var = |name: String, ty, kind| f.add_var(name, ty, kind);
    let kinds = [VarKind::Local, VarKind::State];
    let mut g = StmtGen {
        rng: Rng::new(0x57A7 ^ (seed << 5)),
        xs: (0..4)
            .map(|k| var(format!("x{k}"), Ty::Scalar(ScalarTy::I32), VarKind::Local))
            .collect(),
        us: (0..2)
            .map(|k| {
                var(
                    format!("u{k}"),
                    Ty::Vector(ScalarTy::I32, 4),
                    VarKind::Local,
                )
            })
            .collect(),
        arrays: kinds
            .map(|kind| {
                var(
                    format!("a{kind:?}"),
                    Ty::Array(ScalarTy::I32, ARRAY_LEN),
                    kind,
                )
            })
            .to_vec(),
        panels: kinds
            .map(|kind| {
                let ty = Ty::VectorArray(ScalarTy::I32, 4, PANEL_ROWS);
                var(format!("p{kind:?}"), ty, kind)
            })
            .to_vec(),
        loop_vars: (0..3)
            .map(|k| var(format!("l{k}"), Ty::Scalar(ScalarTy::I32), VarKind::Local))
            .collect(),
        pops_left: STRUCTURED_POPS,
        near_budget: Vec::new(),
    };
    let mut work = Vec::new();
    for k in 0..2 {
        g.pops_left -= 1;
        work.push(Stmt::Assign(LValue::Var(g.xs[k]), Expr::Pop));
    }
    work.extend(g.block(0, 0));
    work.extend(g.block(0, 0));
    // Spend what is left of the pop rate, then push every variable.
    for _ in 0..g.pops_left {
        let x = g.x();
        work.push(Stmt::Assign(
            LValue::Var(x),
            Expr::bin(BinOp::Add, Expr::Var(x), Expr::Pop),
        ));
    }
    for &x in g.xs.iter().chain(&g.loop_vars) {
        work.push(Stmt::Push(Expr::Var(x)));
    }
    let lanes = |e: Expr| (0..4).map(move |lane| Expr::Lane(Box::new(e.clone()), lane));
    for &u in &g.us {
        work.extend(lanes(Expr::Var(u)).map(Stmt::Push));
    }
    for &a in &g.arrays {
        for k in 0..ARRAY_LEN {
            let at = Box::new(Expr::Const(Value::I32(k as i32)));
            work.push(Stmt::Push(Expr::Index(a, at)));
        }
    }
    for &p in &g.panels {
        for k in 0..PANEL_ROWS {
            let at = Box::new(Expr::Const(Value::I32(k as i32)));
            work.extend(lanes(Expr::Index(p, at)).map(Stmt::Push));
        }
    }
    f.work = work;
    (f, g.near_budget)
}

/// The loop and charge paths no suite program reaches — `ChargeTimes` for
/// trip counts only known at run time and in-place charges under `If`,
/// nested every which way — and what the compiler folds: loops unrolled
/// on both sides of its budget, branches on their variables, array
/// elements through subscripts it knows. Against the tree-walking oracle:
/// sink bits, cycle counters and per-node cycles.
#[test]
fn random_structured_actors_agree_across_engines() {
    use macross_repro::vm::bytecode::Op;
    use macross_repro::vm::compile_filter;
    let machine = Machine::core_i7();
    let (mut by_trips, mut in_branch) = (0usize, 0usize);
    let (mut unrolled_copies, mut rotated_near_budget) = (0i64, 0usize);
    for seed in 0..64u64 {
        let (actor, near_budget) = gen_structured_actor(seed);
        let i32_edge = Some(ScalarTy::I32);
        let plan = compile_filter(&actor, i32_edge, i32_edge, &machine)
            .unwrap_or_else(|| panic!("seed {seed}: fell back to the tree-walker"));
        let count = |f: fn(&Op) -> bool| plan.work.iter().filter(|op| f(op)).count();
        by_trips += count(|op| matches!(op, Op::ChargeTimes { .. }));
        in_branch += count(|op| matches!(op, Op::Charge(_))) - 1;
        // A top-level loop near the budget compiles once: rotated, with
        // its count in the pool, or as that many copies.
        let (pool, pooled) = (plan.pool_i.0, &plan.pool_i.1);
        let rotated: Vec<i64> = (plan.work.iter())
            .filter_map(|op| match *op {
                Op::LoopEnter { limit, .. } => {
                    pooled.get(limit.checked_sub(pool)? as usize).copied()
                }
                _ => None,
            })
            .filter(|&n| (NEAR_BUDGET.0..NEAR_BUDGET.1).contains(&(n as i32)))
            .collect();
        rotated_near_budget += rotated.len();
        unrolled_copies +=
            near_budget.iter().map(|&n| i64::from(n)).sum::<i64>() - rotated.iter().sum::<i64>();

        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push((v(n) * 7i32 + 3i32) % 9i32 - 3i32);
            b.set(n, v(n) + 1i32);
        });
        let g = StreamSpec::pipeline(vec![
            src.build_spec(),
            StreamSpec::filter(actor, ScalarTy::I32),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let mut sched = Schedule::compute(&g).unwrap();
        sched.scale(5);
        let tw = run_scheduled_mode(&g, &sched, &machine, 2, ExecMode::TreeWalk).unwrap();
        assert_eq!(tw.output.len(), 10 * STRUCTURED_PUSH, "seed {seed}");
        let bc = run_scheduled_mode(&g, &sched, &machine, 2, ExecMode::Bytecode).unwrap();
        assert_eq!(tw.output, bc.output, "seed {seed}");
        assert_eq!(tw.counters, bc.counters, "seed {seed}");
        assert_eq!(tw.node_cycles, bc.node_cycles, "seed {seed}");
    }
    assert!(
        by_trips > 50 && in_branch > 50,
        "{by_trips} ChargeTimes, {in_branch} in-branch charges"
    );
    assert!(
        unrolled_copies > 500 && rotated_near_budget > 2,
        "{unrolled_copies} unrolled copies, {rotated_near_budget} rotated loops near the budget"
    );
}

// ---------------------------------------------------------------------
// Random loop nests -> summarizing walks against unrolling walks.
// ---------------------------------------------------------------------

/// Generator of random loop nests over `i32` scalars `xs`: the shapes a
/// summarizing static walk must tell apart (DESIGN.md §18) — temporaries,
/// accumulators of tape reads, steps by a literal or by a variable,
/// variables the walk does not know, inner loops with invariant, varying
/// or triangular trip counts, branches, and peeks at offsets read from
/// the body's variables.
struct LoopGen {
    rng: Rng,
    xs: Vec<VarId>,
    loop_vars: Vec<VarId>,
}

impl LoopGen {
    fn x(&mut self) -> Expr {
        Expr::Var(self.xs[self.rng.range(0, self.xs.len())])
    }

    fn operand(&mut self, loops: usize) -> Expr {
        match self.rng.range(0, 4) {
            0 if loops > 0 => Expr::Var(self.loop_vars[self.rng.range(0, loops)]),
            1 => Expr::Const(Value::I32(self.rng.range_i32(-2, 5))),
            _ => self.x(),
        }
    }

    fn value(&mut self, loops: usize) -> Expr {
        match self.rng.range(0, 6) {
            0 => Expr::Pop,
            1 => self.operand(loops),
            _ => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Rem][self.rng.range(0, 4)];
                Expr::bin(op, self.operand(loops), self.operand(loops))
            }
        }
    }

    /// `e & 3`: a tape offset or a trip count in `0..=3`, whatever `e` is.
    fn small(e: Expr) -> Expr {
        Expr::bin(BinOp::And, e, Expr::Const(Value::I32(3)))
    }

    fn block(&mut self, loops: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..self.rng.range(1, 5) {
            let x = self.xs[self.rng.range(0, self.xs.len())];
            let step = |e| Stmt::Assign(LValue::Var(x), Expr::bin(BinOp::Add, Expr::Var(x), e));
            out.push(match self.rng.range(0, 10) {
                0 => step(Expr::Const(Value::I32(self.rng.range_i32(1, 4)))),
                1 => step(self.x()),
                2 if loops < self.loop_vars.len() => {
                    let count = match self.rng.range(0, 3) {
                        0 => Expr::Const(Value::I32(self.rng.range_i32(1, 5))),
                        1 => Self::small(self.operand(loops)),
                        _ => Expr::bin(
                            BinOp::Add,
                            Self::small(self.x()),
                            Expr::Const(Value::I32(1)),
                        ),
                    };
                    Stmt::For {
                        var: self.loop_vars[loops],
                        count,
                        body: self.block(loops + 1),
                    }
                }
                3 => Stmt::Assign(
                    LValue::Var(x),
                    Expr::Peek(Box::new(Self::small(self.operand(loops)))),
                ),
                4 => Stmt::If {
                    cond: Self::small(self.x()),
                    then_branch: vec![Stmt::Push(self.x())],
                    else_branch: vec![Stmt::Push(Expr::Pop)],
                },
                5 => Stmt::Push(self.value(loops)),
                _ => Stmt::Assign(LValue::Var(x), self.value(loops)),
            });
        }
        out
    }
}

/// Every random loop nest measures and costs what its unrolling does —
/// rates, errors, firing cycles and the constants left behind (a loop
/// after the nest reads one as its trip count) — with the walks' own
/// debug cross-checks on in a debug build; and the summarizing walks
/// summarize every loop of a good share of them.
#[test]
fn random_loop_nests_walk_as_they_unroll() {
    use macross_repro::macross::cost::{
        static_firing_cost, static_firing_cost_unrolled, static_firing_cost_unrolls, AddrCosts,
    };
    use macross_repro::streamir::analysis::{
        measure_rates, measure_rates_unrolled, measure_rates_unrolls,
    };
    let machine = Machine::core_i7();
    let (mut compared, mut summarized) = (0, 0);
    for seed in 0..400u64 {
        let mut f = Filter::new("loops", 64, 1, 1);
        let mut var = |name: String| f.add_var(name, Ty::Scalar(ScalarTy::I32), VarKind::Local);
        let mut g = LoopGen {
            rng: Rng::new(0x100B ^ (seed << 7)),
            xs: (0..4).map(|k| var(format!("x{k}"))).collect(),
            loop_vars: (0..3).map(|k| var(format!("l{k}"))).collect(),
        };
        let mut work = Vec::new();
        // Known starting values for some variables, none for the rest.
        for k in 0..g.rng.range(0, 5) {
            let start = Expr::Const(Value::I32(g.rng.range_i32(-1, 4)));
            work.push(Stmt::Assign(LValue::Var(g.xs[k]), start));
        }
        work.push(Stmt::For {
            var: g.loop_vars[0],
            count: Expr::Const(Value::I32(g.rng.range_i32(2, 7))),
            body: g.block(1),
        });
        let tail = g.loop_vars[0];
        let count = Expr::bin(
            BinOp::Add,
            LoopGen::small(g.x()),
            Expr::Const(Value::I32(2)),
        );
        work.push(Stmt::For {
            var: tail,
            count,
            body: vec![Stmt::Push(Expr::Var(tail))],
        });
        f.work = work;

        let rates = measure_rates(&f.work);
        assert_eq!(rates, measure_rates_unrolled(&f.work), "seed {seed}: rates");
        if rates.is_err() {
            continue;
        }
        let cost = static_firing_cost(&f, &machine, AddrCosts::default());
        let reference = static_firing_cost_unrolled(&f, &machine, AddrCosts::default());
        assert_eq!(cost, reference, "seed {seed}: firing cost");
        compared += 1;
        let all = measure_rates_unrolls(&f.work).is_ok_and(|u| u.is_empty())
            && static_firing_cost_unrolls(&f, &machine).is_empty();
        summarized += usize::from(all);
    }
    assert!(
        compared >= 100 && summarized * 4 >= compared,
        "{compared} nests compared, {summarized} with every loop summarized"
    );
}

// ---------------------------------------------------------------------
// Random vector actors and pool/forwarding actors -> two-engine
// differential.
// ---------------------------------------------------------------------

/// A random vector filter: pops two `w`-lane f32 vectors, applies a random
/// sequence of vector ops across f32/f64/i32/i64 locals — permutations,
/// compares (whose 0/1 lanes come back through a cast), `CastFF` round
/// trips, `sqrt`/`abs`/`floor`, binary arithmetic, dword and qword integer
/// detours with `i64` multiplies — and pushes one vector back.
fn vector_graph(rng: &mut Rng, w: usize) -> Graph {
    use macross_repro::streamir::expr::Intrinsic;
    let mut fb = FilterBuilder::new("rnd", 2 * w, 2 * w, w, ScalarTy::F32);
    let mut vars = |name: &str, n: usize, ty: Ty| -> Vec<VarId> {
        (0..n).map(|i| fb.local(format!("{name}{i}"), ty)).collect()
    };
    let f = vars("f", 4, Ty::Vector(ScalarTy::F32, w));
    let d = vars("d", 1, Ty::Vector(ScalarTy::F64, w))[0];
    let n = vars("n", 2, Ty::Vector(ScalarTy::I32, w));
    let q = vars("q", 2, Ty::Vector(ScalarTy::I64, w));
    let steps = 10 + rng.range(0, 16);
    let plan: Vec<(usize, usize, usize, usize)> = (0..steps)
        .map(|_| {
            let mut pick = |k| rng.range(0, k);
            (pick(8), pick(4), pick(4), pick(4))
        })
        .collect();
    let out = f[rng.range(0, 4)];
    fb.work(move |b| {
        let var = |id: VarId| Box::new(Expr::Var(id));
        let mut set = |id: VarId, e: Expr| {
            b.stmt(Stmt::Assign(LValue::Var(id), e));
        };
        let cmp = [
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ];
        set(f[0], Expr::VPop { width: w });
        set(f[1], Expr::VPop { width: w });
        // Center the inputs so negatives reach abs/floor/compares.
        let centre = Expr::Splat(Box::new(Expr::Const(Value::F32(7.25))), w);
        set(f[1], Expr::bin(BinOp::Sub, Expr::Var(f[1]), centre));
        set(f[2], Expr::Var(f[0]));
        set(f[3], Expr::Var(f[1]));
        for &(kind, t, x, y) in &plan {
            let (ft, fx, fy) = (f[t], f[x], f[y]);
            match kind {
                0 => set(
                    ft,
                    Expr::Binary(
                        [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][x % 4],
                        var(fx),
                        var(fy),
                    ),
                ),
                // The paper's extract_even/odd.
                1 => set(
                    ft,
                    if y % 2 == 0 {
                        Expr::PermuteEven(var(fx), var(fy))
                    } else {
                        Expr::PermuteOdd(var(fx), var(fy))
                    },
                ),
                // sqrt over abs: the intrinsic without NaNs.
                2 => set(
                    ft,
                    Expr::Call(
                        Intrinsic::Sqrt,
                        vec![Expr::Call(Intrinsic::Abs, vec![Expr::Var(fx)])],
                    ),
                ),
                3 => set(
                    ft,
                    Expr::Call(
                        [Intrinsic::Floor, Intrinsic::Abs][y % 2],
                        vec![Expr::Var(fx)],
                    ),
                ),
                4 => {
                    set(n[0], Expr::Binary(cmp[x % 6], var(fx), var(fy)));
                    set(ft, Expr::Cast(ScalarTy::F32, var(n[0])));
                }
                // f32 -> f64 -> f32.
                5 => {
                    set(d, Expr::Cast(ScalarTy::F64, var(fx)));
                    set(ft, Expr::Cast(ScalarTy::F32, var(d)));
                }
                // Integer detour: f32 -> i32, bitwise, arithmetic or a
                // compare, back.
                6 => {
                    set(n[0], Expr::Cast(ScalarTy::I32, var(fx)));
                    set(n[1], Expr::Cast(ScalarTy::I32, var(fy)));
                    let op = [
                        BinOp::And,
                        BinOp::Or,
                        BinOp::Xor,
                        BinOp::Add,
                        BinOp::Mul,
                        BinOp::Lt,
                        BinOp::Ge,
                        BinOp::Eq,
                    ][y % 8];
                    set(n[0], Expr::Binary(op, var(n[0]), var(n[1])));
                    set(ft, Expr::Cast(ScalarTy::F32, var(n[0])));
                }
                // 64-bit detour: qword multiply and compare, folded back
                // through the saturating cast.
                _ => {
                    set(q[0], Expr::Cast(ScalarTy::I64, var(fx)));
                    set(q[1], Expr::Cast(ScalarTy::I64, var(fy)));
                    let op = [BinOp::Mul, BinOp::Mul, BinOp::Add, BinOp::Xor][x % 4];
                    set(q[0], Expr::Binary(op, var(q[0]), var(q[1])));
                    set(n[0], Expr::Binary(cmp[y % 6], var(q[0]), var(q[1])));
                    set(ft, Expr::Cast(ScalarTy::F32, var(n[0])));
                }
            }
        }
        b.stmt(Stmt::VPush {
            value: Expr::Var(out),
            width: w,
        });
    });
    StreamSpec::pipeline(vec![
        macross_repro::benchsuite::util::source_f32("src", 2 * w, 4096, 0.375),
        fb.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("vector graph")
}

/// Quiet NaNs with different payloads: distinct pool entries, never fed to
/// arithmetic (which operand's payload an op keeps is unspecified).
const NAN_BITS: [u32; 2] = [0x7fc0_0001, 0x7fc0_0002];

/// A random filter of assignments the firing compiler forwards, or has to
/// refuse to forward, over literals the constant pool shares, or has to
/// keep apart; of adds of products it fuses, of values it writes
/// straight into the element they are stored to, and of even/odd permute
/// pairs it runs as one op. One of every shape first, then a random mix.
fn forwarding_graph(rng: &mut Rng, w: usize) -> Graph {
    let mut fb = FilterBuilder::new("fwd", 2 * w, 2 * w, 7 * w + 14, ScalarTy::F32);
    let mut vars = |name: &str, n: usize, ty: Ty| -> Vec<VarId> {
        (0..n).map(|i| fb.local(format!("{name}{i}"), ty)).collect()
    };
    let vf = vars("vf", 3, Ty::Vector(ScalarTy::F32, w));
    let vi = vars("vi", 2, Ty::Vector(ScalarTy::I32, w));
    let vd = vars("vd", 1, Ty::Vector(ScalarTy::F64, w))[0];
    let halves = vars("half", 2, Ty::Vector(ScalarTy::F32, w)); // permute pairs
    let sf = vars("sf", 2, Ty::Scalar(ScalarTy::F32));
    let si = vars("si", 2, Ty::Scalar(ScalarTy::I32));
    let sd = vars("sd", 1, Ty::Scalar(ScalarTy::F64))[0];
    let sq = vars("sq", 1, Ty::Scalar(ScalarTy::I64))[0];
    let panels = vars("panels", 1, Ty::VectorArray(ScalarTy::F32, w, 2))[0];
    let arr = vars("arr", 1, Ty::Array(ScalarTy::F32, 4))[0];
    let ai = vars("ai", 1, Ty::Array(ScalarTy::I32, 4))[0];
    let odd = vars("odd", 4, Ty::Scalar(ScalarTy::F32)); // NaNs and zeros
    let steps = 12 + rng.range(0, 12);
    let plan: Vec<(usize, usize, usize, usize)> = (0..13 + steps)
        .map(|k| {
            let kind = if k < 13 { k } else { rng.range(0, 13) };
            (kind, rng.range(0, 3), rng.range(0, 3), rng.range(0, 3))
        })
        .collect();
    fb.work(move |b| {
        let var = |id: VarId| Box::new(Expr::Var(id));
        let lit = |x: f32| Expr::Const(Value::F32(x));
        let int = |x: i32| Expr::Const(Value::I32(x));
        let splat = |e: Expr| Expr::Splat(Box::new(e), w);
        let lane = |e: Expr, k: usize| Expr::Lane(Box::new(e), k % w);
        let cast = |t: ScalarTy, e: Expr| Expr::Cast(t, Box::new(e));
        // The body in order: `set` appends an assignment, shape 12 an `If`.
        let stmts = std::cell::RefCell::new(Vec::new());
        let set = |lv: LValue, e: Expr| stmts.borrow_mut().push(Stmt::Assign(lv, e));
        let small = [0.5f32, -1.25, 1.5];
        set(LValue::Var(vf[0]), Expr::VPop { width: w });
        set(LValue::Var(vf[1]), Expr::VPop { width: w });
        set(
            LValue::Var(vf[1]),
            Expr::bin(BinOp::Sub, Expr::Var(vf[1]), splat(lit(7.25))),
        );
        set(LValue::Var(vf[2]), Expr::Var(vf[0]));
        set(LValue::Var(sf[0]), lane(Expr::Var(vf[0]), 1));
        set(LValue::Var(sf[1]), lane(Expr::Var(vf[1]), 2));
        for &(kind, t, x, y) in &plan {
            let (vt, vx, vy) = (vf[t], vf[x], vf[y]);
            let (s2, i2) = (t % 2, x % 2);
            match kind {
                // `v = v op u`, `v = u op v`, `v = u op splat(literal)`.
                0 => set(
                    LValue::Var(vt),
                    match y {
                        0 => Expr::bin(BinOp::Add, Expr::Var(vt), Expr::Var(vx)),
                        1 => Expr::bin(BinOp::Sub, Expr::Var(vx), Expr::Var(vt)),
                        _ => Expr::bin(BinOp::Mul, Expr::Var(vx), splat(lit(small[x]))),
                    },
                ),
                // A permute reading its own destination must not alias.
                1 => set(
                    LValue::Var(vt),
                    if y % 2 == 0 {
                        Expr::PermuteEven(var(vt), var(vx))
                    } else {
                        Expr::PermuteOdd(var(vx), var(vt))
                    },
                ),
                // A broadcast whose source sits inside its destination.
                2 => set(LValue::Var(vt), splat(lane(Expr::Var(vt), x + y))),
                // Lane 0 of a vector temporary shares its base register
                // with the vector: the vector op must not land in a scalar.
                3 => set(
                    LValue::Var(sf[s2]),
                    lane(
                        Expr::bin(BinOp::Add, Expr::Var(vx), Expr::Var(vy)),
                        y * (x + 1),
                    ),
                ),
                // Vector results that live in the other register file.
                4 => {
                    set(
                        LValue::Var(vi[i2]),
                        Expr::bin(
                            [BinOp::Lt, BinOp::Ge, BinOp::Ne][y],
                            Expr::Var(vx),
                            Expr::Var(vy),
                        ),
                    );
                    set(LValue::Var(vt), cast(ScalarTy::F32, Expr::Var(vi[i2])));
                    set(LValue::Var(vi[1 - i2]), cast(ScalarTy::I32, Expr::Var(vx)));
                    set(LValue::Var(vd), cast(ScalarTy::F64, Expr::Var(vy)));
                    set(LValue::Var(vy), cast(ScalarTy::F32, Expr::Var(vd)));
                }
                // Scalar ones.
                5 => {
                    set(
                        LValue::Var(si[i2]),
                        Expr::bin(BinOp::Lt, Expr::Var(sf[0]), Expr::Var(sf[1])),
                    );
                    set(LValue::Var(sf[s2]), cast(ScalarTy::F32, Expr::Var(si[i2])));
                    set(
                        LValue::Var(si[1 - i2]),
                        cast(ScalarTy::I32, Expr::Var(sf[1 - s2])),
                    );
                }
                // `a.lane = expr`, both files.
                6 => {
                    set(
                        LValue::LaneVar(vt, (x + y) % w),
                        Expr::bin(BinOp::Mul, Expr::Var(sf[s2]), lit(small[y])),
                    );
                    set(
                        LValue::LaneVar(vi[i2], (t + y) % w),
                        Expr::bin(BinOp::Add, Expr::Var(si[i2]), int(7)),
                    );
                }
                // Pool sources keep their move: `x = 5`.
                7 => {
                    set(LValue::Var(si[i2]), int(5));
                    set(LValue::Var(sf[s2]), lit(2.5));
                    set(LValue::Var(vt), splat(lit(small[y])));
                    set(
                        LValue::Var(vi[1 - i2]),
                        Expr::ConstVec((0..w).map(|k| Value::I32(k as i32 - 2)).collect()),
                    );
                }
                // One literal, two widths: `7` and `0.625` are each one
                // pool register whatever the type they are used at.
                8 => {
                    set(
                        LValue::Var(si[i2]),
                        Expr::bin(BinOp::Add, Expr::Var(si[i2]), int(7)),
                    );
                    set(
                        LValue::Var(sq),
                        Expr::bin(
                            BinOp::Add,
                            Expr::bin(BinOp::Xor, Expr::Var(sq), Expr::Const(Value::I64(7))),
                            cast(ScalarTy::I64, Expr::Var(si[i2])),
                        ),
                    );
                    set(
                        LValue::Var(sf[s2]),
                        Expr::bin(BinOp::Mul, Expr::Var(sf[s2]), lit(0.625)),
                    );
                    set(
                        LValue::Var(sd),
                        Expr::bin(
                            BinOp::Add,
                            Expr::bin(BinOp::Mul, Expr::Var(sd), Expr::Const(Value::F64(0.625))),
                            cast(ScalarTy::F64, Expr::Var(sf[s2])),
                        ),
                    );
                }
                // Adds of products: `acc + x*y`, `x*y + acc`, `x*y + z*w`
                // and `(a*b + c)*d + e`, vector and scalar, F32 and F64.
                10 => {
                    let mul = |a, b| Expr::bin(BinOp::Mul, a, b);
                    let add = |a, b| Expr::bin(BinOp::Add, a, b);
                    let wide = |e| cast(ScalarTy::F64, e);
                    set(
                        LValue::Var(vt),
                        add(Expr::Var(vt), mul(Expr::Var(vx), Expr::Var(vy))),
                    );
                    set(
                        LValue::Var(sf[s2]),
                        add(mul(Expr::Var(sf[0]), Expr::Var(sf[1])), Expr::Var(sf[s2])),
                    );
                    set(
                        LValue::Var(vd),
                        add(
                            mul(wide(Expr::Var(vx)), Expr::Var(vd)),
                            mul(Expr::Var(vd), wide(Expr::Var(vy))),
                        ),
                    );
                    set(
                        LValue::Var(sd),
                        add(
                            mul(
                                add(mul(Expr::Var(sd), wide(lit(small[x]))), Expr::Var(sd)),
                                wide(Expr::Var(sf[s2])),
                            ),
                            Expr::Const(Value::F64(-0.75)),
                        ),
                    );
                    set(
                        LValue::Var(vx),
                        add(
                            mul(
                                add(mul(Expr::Var(vt), Expr::Var(vy)), Expr::Var(vx)),
                                splat(lit(small[t])),
                            ),
                            Expr::Var(vt),
                        ),
                    );
                }
                // `x = e; a[k] = x`: the value goes straight into the
                // element, whole or one lane — except where the subscript
                // reads `x`, whose value (possibly known) it changes.
                11 => {
                    let k = int((y % 2) as i32);
                    set(
                        LValue::Var(vt),
                        Expr::bin(BinOp::Sub, Expr::Var(vx), Expr::Var(vy)),
                    );
                    set(LValue::Index(panels, k.clone()), Expr::Var(vt));
                    set(
                        LValue::Var(sf[s2]),
                        Expr::bin(BinOp::Mul, lane(Expr::Var(vx), t), Expr::Var(sf[1 - s2])),
                    );
                    set(
                        LValue::LaneIndex(panels, int(1 - (y % 2) as i32), (t + x) % w),
                        Expr::Var(sf[s2]),
                    );
                    set(
                        LValue::Var(sf[1 - s2]),
                        Expr::bin(BinOp::Add, Expr::Var(sf[s2]), lane(Expr::Var(vy), x)),
                    );
                    set(
                        LValue::Index(arr, int((x + y) as i32 % 4)),
                        Expr::Var(sf[1 - s2]),
                    );
                    set(LValue::Var(si[i2]), cast(ScalarTy::I32, Expr::Var(sf[s2])));
                    let cell = Expr::bin(BinOp::And, Expr::Var(si[i2]), int(3));
                    set(LValue::Index(ai, cell), Expr::Var(si[i2]));
                    set(LValue::Var(vy), Expr::Index(panels, Box::new(k)));
                }
                // Even/odd pairs of the same two vectors, one op each: into
                // two other vectors; with the odd half into one of its
                // sources (by way of a temporary); and with the even half
                // ending an `If` branch, so that the odd one starts at the
                // join.
                12 => {
                    let even_of = |a: VarId, b: VarId| Expr::PermuteEven(var(a), var(b));
                    let odd_of = |a: VarId, b: VarId| Expr::PermuteOdd(var(a), var(b));
                    let [he, ho] = [halves[0], halves[1]];
                    set(LValue::Var(he), even_of(vx, vy));
                    set(LValue::Var(ho), odd_of(vx, vy));
                    set(LValue::Var(he), even_of(vy, vt));
                    set(LValue::Var(vt), odd_of(vy, vt));
                    stmts.borrow_mut().push(Stmt::If {
                        cond: Expr::bin(BinOp::Lt, lane(Expr::Var(vx), t), lit(0.0)),
                        then_branch: vec![Stmt::Assign(
                            LValue::Var(vy),
                            Expr::bin(BinOp::Mul, Expr::Var(vy), splat(lit(small[t]))),
                        )],
                        else_branch: vec![Stmt::Assign(LValue::Var(he), even_of(vx, vy))],
                    });
                    set(LValue::Var(ho), odd_of(vx, vy));
                }
                // Windows found through a run-time index.
                _ => {
                    let row = Expr::bin(BinOp::And, Expr::Var(si[i2]), int(1));
                    let cell = Expr::bin(BinOp::And, Expr::Var(si[1 - i2]), int(3));
                    set(LValue::Index(panels, row.clone()), Expr::Var(vx));
                    set(LValue::Var(vt), Expr::Index(panels, Box::new(row)));
                    set(LValue::Index(arr, cell.clone()), Expr::Var(sf[s2]));
                    set(LValue::Var(sf[1 - s2]), Expr::Index(arr, Box::new(cell)));
                }
            }
        }
        // Literals only bit patterns tell apart.
        set(LValue::Var(odd[0]), lit(f32::from_bits(NAN_BITS[0])));
        set(LValue::Var(odd[1]), lit(f32::from_bits(NAN_BITS[1])));
        set(LValue::Var(odd[2]), lit(0.0));
        set(LValue::Var(odd[3]), lit(-0.0));
        for s in stmts.take() {
            b.stmt(s);
        }
        for value in [
            Expr::Var(vf[0]),
            Expr::Var(vf[1]),
            Expr::Var(vf[2]),
            cast(ScalarTy::F32, Expr::Var(vi[0])),
            cast(ScalarTy::F32, Expr::Var(vd)),
            Expr::Var(halves[0]),
            Expr::Var(halves[1]),
        ] {
            b.stmt(Stmt::VPush { value, width: w });
        }
        for value in [
            Expr::Var(sf[0]),
            Expr::Var(sf[1]),
            cast(ScalarTy::F32, Expr::Var(sd)),
            cast(ScalarTy::F32, Expr::Var(si[0])),
            cast(ScalarTy::F32, Expr::Var(si[1])),
            cast(ScalarTy::F32, Expr::Var(sq)),
            cast(ScalarTy::F32, Expr::Index(ai, Box::new(int(0)))),
            cast(ScalarTy::F32, Expr::Index(ai, Box::new(int(1)))),
            cast(ScalarTy::F32, Expr::Index(ai, Box::new(int(2)))),
            cast(ScalarTy::F32, Expr::Index(ai, Box::new(int(3)))),
            Expr::Var(odd[0]),
            Expr::Var(odd[1]),
            Expr::bin(BinOp::Div, lit(1.0), Expr::Var(odd[2])),
            Expr::bin(BinOp::Div, lit(1.0), Expr::Var(odd[3])),
        ] {
            b.stmt(Stmt::Push(value));
        }
    });
    StreamSpec::pipeline(vec![
        macross_repro::benchsuite::util::source_f32("src", 2 * w, 4096, 0.375),
        fb.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("forwarding graph")
}

/// The compiled plan of the filter named `name`; a fallback to the
/// tree-walker would make the differential compare the oracle to itself.
fn plan_of(
    g: &Graph,
    name: &str,
    machine: &Machine,
    at: &str,
) -> macross_repro::vm::CompiledFilter {
    let (id, fl) = g
        .nodes()
        .find_map(|(id, n)| match n {
            Node::Filter(fl) if fl.name == name => Some((id, fl)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{at}: no filter {name}"));
    let in_e = g.single_in_edge(id).map(|e| g.edge(e).elem);
    let out_e = g.single_out_edge(id).map(|e| g.edge(e).elem);
    macross_repro::vm::compile_filter(fl, in_e, out_e, machine)
        .unwrap_or_else(|| panic!("{at}: {name} fell back to the tree-walker"))
}

/// What the pool and forwarding did to `fwd`, so the differential is known
/// to have met them: shared and separated literals, ops that write a
/// variable window directly, permutes and splats that were kept off
/// theirs, multiply-adds that read their destination only in place,
/// values computed straight into an element, and permute pairs whose two
/// destinations are clear of both sources.
fn assert_pool_and_forwarding_engaged(g: &Graph, machine: &Machine, at: &str) {
    use macross_repro::vm::bytecode::Op;
    let plan = plan_of(g, "fwd", machine, at);
    let fwd = g
        .nodes()
        .find_map(|(_, n)| match n {
            Node::Filter(fl) if fl.name == "fwd" => Some(fl),
            _ => None,
        })
        .expect("fwd");
    let window = |name: &str| {
        let k = fwd.vars.iter().position(|d| d.name == name).expect(name);
        let (base, len, _) = plan.var_windows[k];
        base..base + len
    };
    let (panels, arr) = (window("panels0"), window("arr0"));
    let in_element = |dst: u32| panels.contains(&dst) || arr.contains(&dst);
    let ints = |x: i64| plan.pool_i.1.iter().filter(|&&v| v == x).count();
    let floats = |x: f64| {
        let bits = x.to_bits();
        plan.pool_f.1.iter().filter(|v| v.to_bits() == bits).count()
    };
    assert_eq!(ints(7), 1, "{at}: I32 and I64 `7` share a register");
    assert_eq!(
        floats(0.625),
        1,
        "{at}: F32 and F64 `0.625` share a register"
    );
    assert_eq!((floats(0.0), floats(-0.0)), (1, 1), "{at}: signed zeros");
    for bits in NAN_BITS {
        assert_eq!(
            floats(f32::from_bits(bits) as f64),
            1,
            "{at}: NaN {bits:#x}"
        );
    }
    let var_zone = plan.pool_f.0;
    let (mut forwarded, mut fused, mut in_place, mut pairs) = (0, 0, 0, 0);
    for op in &plan.work {
        match *op {
            Op::VBinF { dst, .. }
            | Op::VCastIF { dst, .. }
            | Op::LoadVElemF { dst, .. }
            | Op::MulAddF { dst, .. } => {
                forwarded += (dst < var_zone) as usize;
            }
            _ => {}
        }
        match *op {
            Op::MulAddF {
                dst, acc, a, b, w, ..
            } => {
                fused += 1;
                let clear = |s: u32| s == dst || s + w <= dst || dst + w <= s;
                assert!(
                    clear(acc) && clear(a) && clear(b),
                    "{at}: {op:?} reads its destination at a shift"
                );
                in_place += in_element(dst) as usize;
            }
            Op::VBinF { dst, .. } | Op::BinF { dst, .. } => {
                in_place += in_element(dst) as usize;
            }
            Op::PermF { dst, a, b, w, .. } => {
                let apart = |s: u32| s + w <= dst || dst + w <= s;
                assert!(apart(a) && apart(b), "{at}: {op:?} reads its destination");
            }
            Op::PermPairF { even, odd, a, b, w } => {
                pairs += 1;
                let apart = |d: u32, s: u32| s + w <= d || d + w <= s;
                assert!(
                    [even, odd].iter().all(|&d| apart(d, a) && apart(d, b)),
                    "{at}: {op:?} reads a destination"
                );
            }
            Op::SplatF { dst, a, w } => {
                assert!(
                    a < dst || dst + w <= a,
                    "{at}: {op:?} reads its destination"
                );
            }
            _ => {}
        }
    }
    assert!(
        forwarded >= 3,
        "{at}: only {forwarded} forwarded vector ops"
    );
    assert!(fused >= 4, "{at}: only {fused} multiply-adds");
    assert!(pairs >= 2, "{at}: only {pairs} permute pairs");
    assert!(
        in_place >= 3,
        "{at}: only {in_place} values computed into their element"
    );
}

/// Random vector actors, then random pool-and-forwarding actors, against
/// the tree-walking oracle: sink bits and cycle counters.
#[test]
fn random_vector_and_forwarding_actors_agree_across_engines() {
    let machine = Machine::core_i7();
    for seed in 0..48u64 {
        let mut rng = Rng::new(0xF0A2 ^ (seed << 7));
        let w = [4, 8][rng.range(0, 2)];
        let at = format!("seed {seed} w={w}");
        // Seeds 24.. go to the pool-and-forwarding generator.
        let g = if seed < 24 {
            let g = vector_graph(&mut rng, w);
            plan_of(&g, "rnd", &machine, &at);
            g
        } else {
            let g = forwarding_graph(&mut rng, w);
            assert_pool_and_forwarding_engaged(&g, &machine, &at);
            g
        };
        let sched = Schedule::compute(&g).expect("schedule");
        let tw = run_scheduled_mode(&g, &sched, &machine, 12, ExecMode::TreeWalk).expect("tw");
        let bc = run_scheduled_mode(&g, &sched, &machine, 12, ExecMode::Bytecode).expect("bc");
        assert_bits(&bc.output, &tw.output, &at);
        assert_eq!(tw.counters, bc.counters, "{at}: counters");
    }
}

// ---------------------------------------------------------------------
// Repetition vector properties.
// ---------------------------------------------------------------------

/// Random pipelines: the solver's vector balances every edge and is
/// minimal (componentwise gcd 1).
#[test]
fn repetition_vector_balances_pipelines() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(0x5EED ^ seed);
        let n = rng.range(1, 6);
        let rates: Vec<(usize, usize)> =
            (0..n).map(|_| (rng.range(1, 6), rng.range(1, 6))).collect();
        let mut g = Graph::new();
        let first_push = rates[0].0;
        let src = g.add_node(Node::filter(Filter::new("src", 0, 0, first_push)));
        let mut prev = src;
        for (i, &(pop, push)) in rates.iter().enumerate() {
            let f = g.add_node(Node::filter(Filter::new(format!("f{i}"), pop, pop, push)));
            g.connect(prev, 0, f, 0, ScalarTy::I32);
            prev = f;
        }
        let sink = g.add_node(Node::Sink);
        g.connect(prev, 0, sink, 0, ScalarTy::I32);
        let reps = repetition_vector(&g).unwrap();
        assert!(is_balanced(&g, &reps), "seed {seed}: unbalanced {reps:?}");
        let gcd_all = reps.iter().copied().fold(0u64, macross_repro::sdf::gcd);
        assert_eq!(gcd_all, 1, "seed {seed}: non-minimal {reps:?}");
        assert!(reps.iter().all(|&r| r > 0), "seed {seed}");
    }
}

/// Uniform split-joins have equal branch repetitions (exhaustive over the
/// original generator's domain).
#[test]
fn split_join_reps_uniform() {
    for branches in 2usize..6 {
        for w in 1usize..4 {
            let mut g = Graph::new();
            let src = g.add_node(Node::filter(Filter::new("src", 0, 0, branches * w)));
            let sp = g.add_node(Node::Splitter(
                macross_repro::streamir::SplitKind::RoundRobin(vec![w; branches]),
            ));
            let j = g.add_node(Node::Joiner(vec![w; branches]));
            let sink = g.add_node(Node::Sink);
            g.connect(src, 0, sp, 0, ScalarTy::I32);
            let mut ids = Vec::new();
            for i in 0..branches {
                let f = g.add_node(Node::filter(Filter::new(format!("b{i}"), w, w, w)));
                g.connect(sp, i, f, 0, ScalarTy::I32);
                g.connect(f, 0, j, i, ScalarTy::I32);
                ids.push(f);
            }
            g.connect(j, 0, sink, 0, ScalarTy::I32);
            let reps = repetition_vector(&g).unwrap();
            let r0 = reps[ids[0].0 as usize];
            assert!(ids.iter().all(|id| reps[id.0 as usize] == r0));
        }
    }
}

// ---------------------------------------------------------------------
// Tape vs. FIFO oracle.
//
// A tape stores register images, not `Value`s, so every oracle below runs
// over all four element types, on token streams salted with the values
// that tell an image from a `Value`, and reads the tape through both of
// its views: the typed one must return the pushed value bit for bit, the
// raw one exactly `raw_of` of it.
// ---------------------------------------------------------------------

const ELEMS: [ScalarTy; 4] = [ScalarTy::I32, ScalarTy::I64, ScalarTy::F32, ScalarTy::F64];

/// Every element type with each of `seeds` case seeds.
fn typed_seeds(seeds: u64) -> impl Iterator<Item = (ScalarTy, u64)> {
    ELEMS
        .into_iter()
        .flat_map(move |ty| (0..seeds).map(move |s| (ty, s)))
}

/// Token `n` of a test stream of `ty` elements. Tokens differ from their
/// neighbours, so a misplaced one shows; every fourth is an edge value:
/// integers whose image is all sign bits or needs all 64, `-0.0`,
/// subnormals, quiet NaNs with payloads and both signs, the largest
/// finite `f32` (the `f32` ones exercise the widening to `f64` bits).
fn token(ty: ScalarTy, n: i32) -> Value {
    let edge = (n.rem_euclid(4) == 3).then_some(n.div_euclid(4).unsigned_abs() as usize);
    match (ty, edge) {
        (ScalarTy::I32, Some(e)) => Value::I32([i32::MIN, -1, i32::MAX, 0][e % 4]),
        (ScalarTy::I32, None) => Value::I32(n),
        (ScalarTy::I64, Some(e)) => {
            Value::I64([i64::MIN, -1, i64::MAX, i32::MIN as i64 - 1, 1 << 32][e % 5])
        }
        (ScalarTy::I64, None) => Value::I64(n as i64 * 0x1_0000_0001),
        (ScalarTy::F32, Some(e)) => Value::F32(
            [
                -0.0,
                f32::MAX,
                f32::from_bits(1),
                -f32::MIN_POSITIVE / 2.0,
                f32::from_bits(0x7fc1_2345),
                f32::from_bits(0xffc0_0001),
                f32::NEG_INFINITY,
            ][e % 7],
        ),
        (ScalarTy::F32, None) => Value::F32(n as f32 * 0.5),
        (ScalarTy::F64, Some(e)) => Value::F64(
            [
                -0.0,
                f64::MAX,
                f64::from_bits(1),
                -f64::MIN_POSITIVE / 2.0,
                f64::from_bits(0x7ff8_dead_beef_0001),
                f64::from_bits(0xfff8_0000_0000_0001),
                f32::MAX as f64 * 2.0,
            ][e % 7],
        ),
        (ScalarTy::F64, None) => Value::F64(n as f64 * 0.25),
    }
}

fn raws(vals: &[Value]) -> Vec<u64> {
    vals.iter().map(|&v| raw_of(v)).collect()
}

/// `got` is `want`, bit for bit (NaN payloads and zero signs included).
fn assert_bits(got: &[Value], want: &[Value], what: &str) {
    let same = got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.bits_eq(*b));
    assert!(same, "{what}: {got:?} != {want:?}");
}

#[test]
fn tape_matches_fifo_oracle() {
    for (ty, seed) in typed_seeds(128) {
        let what = format!("{ty} seed {seed}");
        let mut rng = Rng::new(0x7A9E ^ (seed << 8));
        let mut tape = Tape::new(ty);
        let mut oracle: std::collections::VecDeque<Value> = Default::default();
        let n_ops = rng.range(0, 60);
        for _ in 0..n_ops {
            match rng.range(0, 5) {
                0 => {
                    let x = token(ty, rng.range_i32(-100, 100));
                    // Either view writes the same slot.
                    if rng.range(0, 2) == 0 {
                        tape.push(x);
                    } else {
                        tape.push_raw(raw_of(x));
                    }
                    oracle.push_back(x);
                }
                1 => {
                    if let Some(x) = oracle.pop_front() {
                        if rng.range(0, 2) == 0 {
                            assert_bits(&[tape.pop()], &[x], &what);
                        } else {
                            assert_eq!(tape.pop_raw(), raw_of(x), "{what}");
                        }
                    }
                }
                2 => {
                    let k = rng.range(0, 4);
                    if k < oracle.len() {
                        assert_bits(&[tape.peek(k)], &[oracle[k]], &what);
                        assert_eq!(tape.peek_raw(k), raw_of(oracle[k]), "{what}");
                    }
                }
                3 => {
                    let vs: Vec<Value> = (0..rng.range(1, 5))
                        .map(|_| token(ty, rng.range_i32(-100, 100)))
                        .collect();
                    tape.vpush(&vs);
                    oracle.extend(vs);
                }
                _ => {
                    let w = rng.range(1, 5);
                    if w <= oracle.len() {
                        let want: Vec<Value> = oracle.drain(..w).collect();
                        assert_bits(&tape.vpop(w), &want, &what);
                    }
                }
            }
            assert_eq!(tape.len(), oracle.len(), "{what}");
        }
    }
}

// ---------------------------------------------------------------------
// Flat-ring tape vs. naive models: wraparound, slice fast paths, rpush
// staging, and both column-major reorder modes.
// ---------------------------------------------------------------------

/// Long interleaved operation sequences against a `VecDeque` oracle. The
/// bounded live size under sustained traffic forces the absolute pointers
/// to wrap the ring mask many times, and every vector read is checked
/// through both the `Vec` path and the two-slice fast path.
#[test]
fn tape_ring_matches_oracle_under_wraparound() {
    for (ty, seed) in typed_seeds(64) {
        let what = format!("{ty} seed {seed}");
        let mut rng = Rng::new(0x7A9F ^ (seed << 9));
        let mut tape = Tape::new(ty);
        let mut oracle: std::collections::VecDeque<Value> = Default::default();
        let mut next = 0i32;
        for _ in 0..400 {
            match rng.range(0, 7) {
                0 => {
                    tape.push(token(ty, next));
                    oracle.push_back(token(ty, next));
                    next += 1;
                }
                1 => {
                    // Staged burst: rpush lanes in reverse order, then
                    // commit the whole strip with advance_write.
                    let k = rng.range(1, 6);
                    for i in (0..k).rev() {
                        tape.rpush(token(ty, next + i as i32), i);
                    }
                    tape.advance_write(k);
                    for i in 0..k {
                        oracle.push_back(token(ty, next + i as i32));
                    }
                    next += k as i32;
                }
                2 => {
                    let w = rng.range(1, 9);
                    let images: Vec<u64> =
                        (0..w).map(|i| raw_of(token(ty, next + i as i32))).collect();
                    // The two image pushes are interchangeable.
                    if rng.range(0, 2) == 0 {
                        tape.vpush_many(w, |lane| images[lane]);
                    } else {
                        tape.push_slice(&images);
                    }
                    for i in 0..w {
                        oracle.push_back(token(ty, next + i as i32));
                    }
                    next += w as i32;
                }
                3 => {
                    if let Some(x) = oracle.pop_front() {
                        assert_bits(&[tape.pop()], &[x], &what);
                    }
                }
                4 => {
                    let w = rng.range(1, 9);
                    if w <= oracle.len() {
                        // vpop must equal vpeek(0, w) taken just before.
                        let peeked = tape.vpeek(0, w);
                        let (a, b) = tape.vpop_slices(w);
                        let flat = [a, b].concat();
                        let want: Vec<Value> = oracle.drain(..w).collect();
                        assert_eq!(flat, raws(&want), "{what}");
                        assert_bits(&peeked, &want, &what);
                    }
                }
                5 => {
                    let w = rng.range(1, 6);
                    let off = rng.range(0, 6);
                    if off + w <= oracle.len() {
                        let (a, b) = tape.vpeek_slices(off, w);
                        let flat = [a, b].concat();
                        let want: Vec<Value> = (0..w).map(|i| oracle[off + i]).collect();
                        assert_eq!(flat, raws(&want), "{what}");
                        assert_bits(&tape.vpeek(off, w), &want, &what);
                    }
                }
                _ => {
                    let n = rng.range(0, 4).min(oracle.len());
                    tape.advance_read(n);
                    oracle.drain(..n);
                }
            }
            assert_eq!(tape.len(), oracle.len(), "{what}");
            assert_eq!(tape.is_empty(), oracle.is_empty(), "{what}");
        }
    }
}

/// Batched-width slice reads across the wraparound seam: a block of
/// firings moves `k x w` tokens per `push_slice`/`vpop_slices` call
/// (up to 8 firings x vector width), far wider than the scalar traffic
/// above, so spans regularly straddle the ring boundary. Checks the
/// two-slice decomposition covers exactly `w` (the fast path's debug
/// assertion), splits only at the physical seam, and preserves content;
/// `pop_spans` must hand out the same spans.
#[test]
fn tape_slices_cover_batched_widths_across_seam() {
    for (ty, seed) in typed_seeds(64) {
        let what = format!("{ty} seed {seed}");
        let mut rng = Rng::new(0xBA7C ^ (seed << 7));
        let mut tape = Tape::new(ty);
        let mut oracle: std::collections::VecDeque<u64> = Default::default();
        let mut next = 0i32;
        let mut wrapped_reads = 0usize;
        for _ in 0..300 {
            // Batched production: k firings x w lanes in one call.
            let k = rng.range(1, 9);
            let w = rng.range(1, 9);
            let images: Vec<u64> = (0..k * w)
                .map(|i| raw_of(token(ty, next + i as i32)))
                .collect();
            if rng.range(0, 2) == 0 {
                tape.vpush_many(k * w, |lane| images[lane]);
            } else {
                tape.push_slice(&images);
            }
            oracle.extend(&images);
            next += (k * w) as i32;
            // Batched consumption of a possibly different batch shape.
            let width = rng.range(1, 33).min(oracle.len());
            if width == 0 {
                continue;
            }
            let want: Vec<u64> = oracle.drain(..width).collect();
            if rng.range(0, 2) == 0 {
                let (a, b) = tape.vpop_slices(width);
                assert_eq!(a.len() + b.len(), width, "{what}");
                wrapped_reads += usize::from(!b.is_empty());
                assert_eq!([a, b].concat(), want, "{what}");
            } else {
                let mut spans = Vec::new();
                tape.pop_spans(width, |span| spans.push(span.to_vec()));
                assert!(spans.len() <= 2, "{what}");
                wrapped_reads += usize::from(spans.len() == 2);
                assert_eq!(spans.concat(), want, "{what}");
            }
            assert_eq!(tape.len(), oracle.len(), "{what}");
        }
        // The sustained traffic must actually have exercised the seam.
        assert!(wrapped_reads > 0, "{what}: no read crossed the seam");
    }
}

/// Read reorder (vectorized producer, scalar consumer): physical rows are
/// remapped so the consumer observes logical order. The naive model is
/// computed with the independent closed form — logical element `l` of a
/// block sits at physical slot `(l % rate) * sw + l / rate` — not with the
/// tape's own `column_major_index`.
#[test]
fn tape_read_reorder_matches_naive_model() {
    for (ty, seed) in typed_seeds(64) {
        let mut rng = Rng::new(0x0DDB ^ (seed << 7));
        let rate = rng.range(1, 6);
        let sw = 1usize << rng.range(1, 4);
        let what = format!("{ty} seed {seed} rate {rate} sw {sw}");
        let block = rate * sw;
        let blocks = rng.range(1, 5);
        let mut tape = Tape::new(ty);
        tape.set_read_reorder(rate, sw);
        // Producer writes `blocks` blocks of physical rows; the naive
        // logical stream is reconstructed independently.
        let mut logical = vec![ty.zero(); blocks * block];
        let mut phys_next = 0i32;
        for b in 0..blocks {
            for p in 0..block {
                // Physical slot p = (l % rate) * sw + l / rate, inverted:
                let (i, j) = (p / sw, p % sw);
                let l = j * rate + i;
                logical[b * block + l] = token(ty, phys_next);
                tape.push(token(ty, phys_next));
                phys_next += 1;
            }
        }
        // Consume with a random mix of peeks, pops, spans and advances.
        let mut pos = 0usize;
        while pos < logical.len() {
            match rng.range(0, 4) {
                0 => {
                    assert_bits(&[tape.pop()], &[logical[pos]], &format!("{what} pos {pos}"));
                    pos += 1;
                }
                1 => {
                    let off = rng.range(0, (logical.len() - pos).min(2 * block));
                    let want = logical[pos + off];
                    assert_bits(
                        &[tape.peek(off)],
                        &[want],
                        &format!("{what} peek {pos}+{off}"),
                    );
                    assert_eq!(tape.peek_raw(off), raw_of(want), "{what} peek {pos}+{off}");
                }
                2 => {
                    // A span pop goes through the remapping token by token.
                    let n = rng.range(0, (logical.len() - pos).min(block) + 1);
                    let mut got = Vec::new();
                    tape.pop_spans(n, |span| got.extend_from_slice(span));
                    assert_eq!(got, raws(&logical[pos..pos + n]), "{what} span at {pos}");
                    pos += n;
                }
                _ => {
                    let n = rng.range(0, (logical.len() - pos).min(block) + 1);
                    tape.advance_read(n);
                    pos += n;
                }
            }
        }
        assert!(tape.is_empty(), "{what}");
    }
}

/// Write reorder (scalar producer, vectorized consumer): logical pushes
/// are staged column-major and committed whole blocks at a time, so the
/// consumer's vector pops see lane-major rows. Also pins the visibility
/// rule: a partial block contributes nothing to `len()`.
#[test]
fn tape_write_reorder_matches_naive_model() {
    for (ty, seed) in typed_seeds(64) {
        let mut rng = Rng::new(0xBEEF ^ (seed << 6));
        let rate = rng.range(1, 6);
        let sw = 1usize << rng.range(1, 4);
        let what = format!("{ty} seed {seed} rate {rate} sw {sw}");
        let block = rate * sw;
        let blocks = rng.range(1, 5);
        let mut tape = Tape::new(ty);
        tape.set_write_reorder(rate, sw);
        let mut l = 0;
        while l < blocks * block {
            assert_eq!(
                tape.len(),
                (l / block) * block,
                "{what}: partial block visible"
            );
            // One token through either view, or a span (which a
            // write-reordered tape stages token by token).
            let n = rng.range(1, 4).min(blocks * block - l);
            match rng.range(0, 3) {
                0 => tape.push(token(ty, l as i32)),
                1 => tape.push_raw(raw_of(token(ty, l as i32))),
                _ => {
                    let images: Vec<u64> =
                        (l..l + n).map(|i| raw_of(token(ty, i as i32))).collect();
                    tape.push_slice(&images);
                    l += n - 1;
                }
            }
            l += 1;
        }
        assert_eq!(tape.len(), blocks * block);
        // Physical slot p of block b holds logical b*block + (p%sw)*rate + p/sw.
        for b in 0..blocks {
            for i in 0..rate {
                let want: Vec<Value> = (0..sw)
                    .map(|j| token(ty, (b * block + j * rate + i) as i32))
                    .collect();
                assert_bits(&tape.vpop(sw), &want, &format!("{what} row {i}"));
            }
        }
        assert!(tape.is_empty(), "{what}");
    }
}

/// `mark`/`rollback` on image storage, for every element type: pushes
/// that outgrow the ring (so the marked tokens were re-ringed into a new
/// allocation) and pushes that complete and overwrite a write-reordered
/// staging block are undone to exactly the tokens held at the mark.
#[test]
fn tape_rollback_restores_images_across_growth_and_reordered_blocks() {
    for ty in ELEMS {
        // Plain tape: 6 tokens, 2 popped, then 100 torn pushes grow the
        // 8-slot ring twice over.
        let mut tape = Tape::new(ty);
        (0..6).for_each(|n| tape.push(token(ty, n)));
        tape.advance_read(2);
        let mark = tape.mark();
        (0..100).for_each(|n| tape.push_raw(raw_of(token(ty, 1000 + n))));
        tape.rollback(&mark);
        assert_eq!((tape.len(), tape.stats()), (4, (6, 2)), "{ty}");
        tape.push(token(ty, 6));
        let want: Vec<Value> = (2..7).map(|n| token(ty, n)).collect();
        assert_bits(&tape.vpop(5), &want, &format!("{ty} plain"));

        // Write-reordered tape (block 8): the torn pushes complete the
        // block holding three staged tokens, commit two more (regrowing
        // the ring) and leave a partial one behind.
        for (before, torn, total) in [(3, 2, 16), (3, 8, 16), (11, 24, 24), (5, 21, 32)] {
            let mut want = Tape::new(ty);
            want.set_write_reorder(2, 4);
            (0..total).for_each(|n| want.push(token(ty, n)));
            let mut tape = Tape::new(ty);
            tape.set_write_reorder(2, 4);
            (0..before).for_each(|n| tape.push(token(ty, n)));
            let mark = tape.mark();
            (0..torn).for_each(|n| tape.push(token(ty, 1000 + n)));
            tape.rollback(&mark);
            assert_eq!(tape.len(), (before as usize / 8) * 8, "{ty}");
            (before..total).for_each(|n| tape.push(token(ty, n)));
            assert_eq!(tape.stats(), want.stats(), "{ty}");
            let (a, b) = tape.vpop_slices(total as usize);
            let (c, d) = want.vpop_slices(total as usize);
            assert_eq!(
                [a, b].concat(),
                [c, d].concat(),
                "{ty} {before}+{torn}/{total}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// SAGU / permutation-network agreement.
// ---------------------------------------------------------------------

#[test]
fn sagu_models_agree() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(0x5A61 ^ (seed << 4));
        let rate = rng.range(1, 200) as u16;
        let sw = 1u16 << rng.range(1, 5);
        let steps = rng.range(1, 400);
        let mut hw = Sagu::new(rate, sw);
        let mut sw_model = SoftwareAddrGen::new(rate as u64, sw as u64);
        for k in 0..steps {
            let a = hw.next_address();
            let b = sw_model.next_address();
            let c = column_major_index(k, rate as usize, sw as usize) as u64;
            assert_eq!(a, b, "rate {rate} sw {sw} step {k}");
            assert_eq!(a, c, "rate {rate} sw {sw} step {k}");
        }
    }
}

#[test]
fn gather_plan_is_stride_permutation() {
    for logp in 0u32..5 {
        for logw in 1u32..5 {
            let p = 1usize << logp;
            let sw = 1usize << logw;
            let elems: Vec<i32> = (0..(p * sw) as i32).collect();
            let loads: Vec<Vec<i32>> = elems.chunks(sw).map(|c| c.to_vec()).collect();
            let got = gather_plan(p, sw).apply(&loads);
            for (j, vec) in got.iter().enumerate() {
                for (l, &x) in vec.iter().enumerate() {
                    assert_eq!(x as usize, l * p + j);
                }
            }
        }
    }
}

#[test]
fn scatter_plan_inverts_lane_major() {
    for q2 in 1usize..9 {
        for logw in 1u32..4 {
            let q = q2 * 2;
            let sw = 1usize << logw;
            let vecs: Vec<Vec<i32>> = (0..q)
                .map(|j| (0..sw).map(|l| (l * q + j) as i32).collect())
                .collect();
            let got = scatter_plan(q, sw).apply(&vecs);
            let flat: Vec<i32> = got.into_iter().flatten().collect();
            for (pos, &x) in flat.iter().enumerate() {
                assert_eq!(x as usize, pos);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Random pipelines through the FULL macro-SIMDization driver.
// ---------------------------------------------------------------------

/// The driver's tape-mode search against the exhaustive grid it replaced:
/// a debug build compares every searched actor's pair costs and lowered
/// winner inside `macro_simdize` (a mismatch panics there); this checks it
/// ran for each of them, and that only installed actors were lowered.
fn assert_search_matched_grid(report: &macross_repro::macross::SimdizeReport, at: &str) {
    let stats = report.search;
    if cfg!(debug_assertions) {
        assert_eq!(stats.oracle_checked, report.searched().count(), "{at}");
    }
    assert_eq!(stats.lowerings, report.single_actors.len(), "{at}");
}

/// Random pipeline: 1..4 random actors chained between a source and sink,
/// run through `macro_simdize` with all transforms enabled — vertical
/// fusion, Equation-1 scaling, cost-model tape modes, the lot — and
/// checked bit-exact at matched throughput.
#[test]
fn random_pipeline_full_driver() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(0xF0D ^ (seed << 6));
        let n_actors = rng.range(1, 4);
        let specs: Vec<ActorSpec> = (0..n_actors).map(|_| gen_actor(&mut rng)).collect();

        use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};

        let mut stages = vec![i32_source()];
        for (i, spec) in specs.iter().enumerate() {
            let mut f = build_actor(spec);
            f.name = format!("actor{i}");
            stages.push(StreamSpec::filter(f, ScalarTy::I32));
        }
        stages.push(StreamSpec::Sink);
        let g = StreamSpec::pipeline(stages).build().unwrap();

        for machine in [Machine::core_i7(), Machine::core_i7_with_sagu()] {
            let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
            assert_search_matched_grid(&simd.report, &format!("seed {seed}"));
            let mut ssched = Schedule::compute(&g).unwrap();
            let src = g.node_ids().find(|&id| g.in_edges(id).is_empty()).unwrap();
            let l = macross_repro::sdf::lcm(ssched.rep(src), simd.schedule.reps[src.0 as usize]);
            let m1 = l / ssched.rep(src);
            ssched.scale(m1);
            let mut vsched = simd.schedule.clone();
            vsched.scale(l / vsched.reps[src.0 as usize]);
            for mode in MODES {
                let a = run_scheduled_mode(&g, &ssched, &machine, 2, mode).unwrap();
                let b = run_scheduled_mode(&simd.graph, &vsched, &machine, 2, mode).unwrap();
                assert_eq!(&a.output, &b.output, "seed {seed}, {mode:?}");
            }
        }
    }
}

/// Random isomorphic split-joins through the full driver (horizontal).
#[test]
fn random_splitjoin_full_driver() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0x5B11 ^ (seed << 5));
        let spec = gen_actor(&mut rng);
        let consts: Vec<i32> = (0..4).map(|_| rng.range_i32(-20, 20)).collect();

        use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};

        // Four branches: same structure, one differing constant appended.
        let branches: Vec<StreamSpec> = consts
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let mut f = build_actor(&spec);
                f.name = format!("iso{i}");
                // Append a branch-specific constant to the last push.
                if let Some(macross_repro::streamir::Stmt::Push(e)) = f.work.pop() {
                    f.work.push(macross_repro::streamir::Stmt::Push(Expr::bin(
                        BinOp::Xor,
                        e,
                        Expr::Const(Value::I32(k)),
                    )));
                }
                StreamSpec::filter(f, ScalarTy::I32)
            })
            .collect();

        let actor = build_actor(&spec);
        let n = actor.pop.max(1);
        let mut src = FilterBuilder::new("src", 0, 0, 4 * n, ScalarTy::I32);
        let s = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            for _ in 0..4 * n {
                b.push(v(s));
                b.set(s, v(s) * 75i32 + 74i32);
            }
        });
        let g = StreamSpec::pipeline(vec![
            src.build_spec(),
            StreamSpec::SplitJoin {
                split: macross_repro::streamir::SplitKind::RoundRobin(vec![actor.pop; 4]),
                branches,
                join: vec![actor.push.max(1); 4],
            },
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();

        let machine = Machine::core_i7();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
        assert_search_matched_grid(&simd.report, &format!("seed {seed}"));
        let mut ssched = Schedule::compute(&g).unwrap();
        let src_id = g.node_ids().find(|&id| g.in_edges(id).is_empty()).unwrap();
        let l = macross_repro::sdf::lcm(ssched.rep(src_id), simd.schedule.reps[src_id.0 as usize]);
        let m1 = l / ssched.rep(src_id);
        ssched.scale(m1);
        let mut vsched = simd.schedule.clone();
        vsched.scale(l / vsched.reps[src_id.0 as usize]);
        for mode in MODES {
            let a = run_scheduled_mode(&g, &ssched, &machine, 2, mode).unwrap();
            let b = run_scheduled_mode(&simd.graph, &vsched, &machine, 2, mode).unwrap();
            assert_eq!(&a.output, &b.output, "seed {seed}, {mode:?}");
        }
        // Four identical-shape branches must merge horizontally.
        assert!(!simd.report.horizontal_groups.is_empty(), "seed {seed}");
    }
}
