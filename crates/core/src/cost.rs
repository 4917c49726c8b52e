//! The target-specific static cost model (Section 3.5): estimates the
//! per-firing cycle cost of a work function by abstract interpretation,
//! mirroring the VM's cost accounting without executing data.
//!
//! The SIMDization driver uses it to (a) decide whether vectorizing an
//! actor is profitable at all and (b) pick the cheapest tape-access mode
//! (strided scalar vs. permutation-based vs. SAGU/vector-reordered).

use crate::driver::{candidate_modes, SimdizeOptions};
use crate::permnet::{gather_plan, scatter_plan};
use crate::single::{stage_actor, Staged, TapeMode};
use macross_streamir::analysis::{uniform_loop_body, ConstEnv, LoopScratch};
use macross_streamir::expr::{BinOp, Expr, LValue, VarId};
use macross_streamir::filter::Filter;
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{ScalarTy, Value};
use macross_vm::{ChargeEntry, Machine};

pub use macross_vm::AddrCosts;

/// The candidate tape modes of a staged-body walk: the body is still in
/// scalar form, and every statement is charged what its lowering costs —
/// a tape-read site once per input mode, a push site once per output mode.
struct StagedModes<'a> {
    sw: u64,
    inputs: &'a [TapeMode],
    outputs: &'a [TapeMode],
}

struct CostWalker<'a> {
    filter: &'a Filter,
    machine: &'a Machine,
    env: ConstEnv,
    addr: AddrCosts,
    /// Cycles every (input, output) mode pair pays.
    cycles: u64,
    /// Cycles on top of `cycles` per mode pair, input-major; empty for a
    /// plain (already lowered, or scalar) body.
    pair_extra: Vec<u64>,
    staged: Option<StagedModes<'a>>,
    /// Summarize uniform loops ([`uniform_loop_body`]); off for the
    /// unrolling reference walk.
    summarize: bool,
    /// Scratch for [`uniform_loop_body`].
    uniform: LoopScratch,
    /// `pair_extra` at the start of each summarized loop the walk is
    /// inside, outermost first ([`CostWalker::summarized_loop`]).
    loop_extra: Vec<u64>,
    /// Every loop the walk unrolls, when asked for them.
    unrolled: Option<Vec<&'a Stmt>>,
}

/// Estimate the cycle cost of one firing of `filter` on `machine`.
///
/// Loops with constant (or loop-var-computable) trip counts are walked
/// abstractly; unknown-trip-count loops make the estimate panic — the
/// vectorizability analysis guarantees the SIMDizer never sees one. What
/// a statement costs depends on its shape, never on a value, so a loop
/// whose body is uniform across iterations ([`uniform_loop_body`]) is
/// walked once and its cycles multiplied by the trip count; every other
/// loop is unrolled.
pub fn static_firing_cost(filter: &Filter, machine: &Machine, addr: AddrCosts) -> u64 {
    firing_cost(filter, machine, addr, true)
}

/// [`static_firing_cost`] with every loop unrolled: the reference the
/// summarizing walk is checked against.
#[doc(hidden)]
pub fn static_firing_cost_unrolled(filter: &Filter, machine: &Machine, addr: AddrCosts) -> u64 {
    firing_cost(filter, machine, addr, false)
}

fn firing_cost(filter: &Filter, machine: &Machine, addr: AddrCosts, summarize: bool) -> u64 {
    let mut w = CostWalker::new(filter, machine, addr, None, summarize);
    w.block(&filter.work);
    w.cycles
}

/// The loops of two iterations or more [`static_firing_cost`] unrolls in
/// `filter`'s work body, in walk order, each as often as the walk reaches
/// it.
#[doc(hidden)]
pub fn static_firing_cost_unrolls<'a>(filter: &'a Filter, machine: &'a Machine) -> Vec<&'a Stmt> {
    let mut w = CostWalker::new(filter, machine, AddrCosts::default(), None, true);
    w.unrolled = Some(Vec::new());
    w.block(&filter.work);
    w.unrolled.unwrap_or_default()
}

/// Cost one firing of `staged` lowered under every `(input, output)` pair
/// of the given candidate modes, in **one** walk of its mode-independent
/// body. Returns the totals input-major; each equals
/// `static_firing_cost(&staged.lower(input, output, false)?, machine,
/// AddrCosts::default())`.
///
/// One cycle total is carried per pair: a statement whose lowering does
/// not depend on the tape modes adds to all of them, a tape-read site adds
/// per input mode, a push site per output mode, and an `If` the model
/// cannot resolve takes the element-wise maximum of its two sides. The
/// constant environment that resolves trip counts and branches holds only
/// uniform (scalar) variables, which lower identically under every mode,
/// so one environment serves all pairs.
pub(crate) fn staged_pair_costs(
    staged: &Staged,
    inputs: &[TapeMode],
    outputs: &[TapeMode],
    machine: &Machine,
) -> Vec<u64> {
    pair_costs(staged, inputs, outputs, machine, true)
}

/// The candidate tape-mode pairs the driver's search prices for `f`
/// (with every tape option on and scalar neighbours on both sides),
/// costed by [`staged_pair_costs`] and by its unrolling reference walk,
/// both input-major.
#[doc(hidden)]
pub fn staged_pair_costs_and_reference(
    f: &Filter,
    machine: &Machine,
    in_elem: ScalarTy,
    out_elem: ScalarTy,
) -> (Vec<u64>, Vec<u64>) {
    let staged = stage_actor(f, machine.simd_width, in_elem, out_elem);
    let (inputs, outputs) = candidate_modes(f, &staged, &SimdizeOptions::all(), machine, |_| true);
    (
        pair_costs(&staged, &inputs, &outputs, machine, true),
        pair_costs(&staged, &inputs, &outputs, machine, false),
    )
}

/// The loops of two iterations or more the staged pair costing of
/// [`staged_pair_costs_and_reference`] unrolls in `f`'s staged body, in
/// walk order, each as often as the walk reaches it.
#[doc(hidden)]
pub fn staged_pair_costs_unrolls(
    f: &Filter,
    machine: &Machine,
    in_elem: ScalarTy,
    out_elem: ScalarTy,
) -> Vec<Stmt> {
    let staged = stage_actor(f, machine.simd_width, in_elem, out_elem);
    let (inputs, outputs) = candidate_modes(f, &staged, &SimdizeOptions::all(), machine, |_| true);
    let mut w = CostWalker::staged(&staged, &inputs, &outputs, machine, true);
    w.unrolled = Some(Vec::new());
    w.block(&staged.filter.work);
    w.unrolled.into_iter().flatten().cloned().collect()
}

fn pair_costs(
    staged: &Staged,
    inputs: &[TapeMode],
    outputs: &[TapeMode],
    machine: &Machine,
    summarize: bool,
) -> Vec<u64> {
    let (p, q) = (staged.pop as u64, staged.push as u64);
    let mut w = CostWalker::staged(staged, inputs, outputs, machine, summarize);
    w.block(&staged.filter.work);
    // What `lower` emits around the body: a vector load and store per
    // token group and the network's permutes, or a pointer adjustment.
    let cy = |e: ChargeEntry| e.cycles(AddrCosts::default());
    let (copy, permute) = (
        cy(machine.load(true) + machine.store(true)),
        cy(machine.permute()),
    );
    let adjust = cy(machine.stmt_charge(&Stmt::AdvanceRead(0)));
    w.charge_inputs(|m| match m {
        // Gather preamble: p vector pops, the network, p stores into the
        // permuted array.
        TapeMode::Permute if p > 0 => {
            p * copy + gather_plan(staged.pop, staged.sw).op_count() as u64 * permute
        }
        // advance_read((SW - 1) * p)
        TapeMode::Strided if p > 0 => adjust,
        _ => 0,
    });
    w.charge_outputs(|m| match m {
        // Scatter postamble: q loads from the permuted array, the network,
        // q vector pushes.
        TapeMode::Permute if q > 0 => {
            q * copy + scatter_plan(staged.push, staged.sw).op_count() as u64 * permute
        }
        // advance_write((SW - 1) * q)
        TapeMode::Strided if q > 0 => adjust,
        _ => 0,
    });
    w.pair_extra.iter().map(|x| w.cycles + x).collect()
}

impl<'a> CostWalker<'a> {
    fn new(
        filter: &'a Filter,
        machine: &'a Machine,
        addr: AddrCosts,
        staged: Option<StagedModes<'a>>,
        summarize: bool,
    ) -> CostWalker<'a> {
        let pairs = staged
            .as_ref()
            .map_or(0, |m| m.inputs.len() * m.outputs.len());
        CostWalker {
            filter,
            machine,
            env: ConstEnv::with_vars(filter.vars.len()),
            addr,
            cycles: machine.firing().cycles(addr),
            pair_extra: vec![0; pairs],
            staged,
            summarize,
            uniform: LoopScratch::default(),
            loop_extra: Vec::new(),
            unrolled: None,
        }
    }

    /// A walker of `staged`'s body that costs it under every pair of the
    /// candidate modes.
    fn staged(
        staged: &'a Staged,
        inputs: &'a [TapeMode],
        outputs: &'a [TapeMode],
        machine: &'a Machine,
        summarize: bool,
    ) -> CostWalker<'a> {
        let modes = StagedModes {
            sw: staged.sw as u64,
            inputs,
            outputs,
        };
        let addr = AddrCosts::default();
        CostWalker::new(&staged.filter, machine, addr, Some(modes), summarize)
    }

    /// Charge one shape's price.
    fn charge(&mut self, price: ChargeEntry) {
        self.cycles += price.cycles(self.addr);
    }

    fn is_vec_var(&self, v: VarId) -> bool {
        self.filter.var(v).ty.is_vector()
    }

    fn block(&mut self, stmts: &'a [Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    /// Add `cost(mode)` to every pair whose input mode is `mode`.
    fn charge_inputs(&mut self, cost: impl Fn(TapeMode) -> u64) {
        let m = self.staged.as_ref().expect("staged walk");
        let n_out = m.outputs.len();
        for (row, &mode) in self.pair_extra.chunks_mut(n_out).zip(m.inputs) {
            let c = cost(mode);
            row.iter_mut().for_each(|x| *x += c);
        }
    }

    /// Add `cost(mode)` to every pair whose output mode is `mode`.
    fn charge_outputs(&mut self, cost: impl Fn(TapeMode) -> u64) {
        let m = self.staged.as_ref().expect("staged walk");
        let n_out = m.outputs.len();
        for row in self.pair_extra.chunks_mut(n_out) {
            for (x, &mode) in row.iter_mut().zip(m.outputs) {
                *x += cost(mode);
            }
        }
    }

    /// Cycles `e` costs, without charging them.
    fn expr_cycles(&mut self, e: &Expr) -> u64 {
        let before = self.cycles;
        self.expr(e);
        std::mem::replace(&mut self.cycles, before) - before
    }

    /// Charge a tape-access site of a staged body with what
    /// `Staged::lower` turns it into under each candidate mode, priced
    /// statement by statement. Returns false for every other statement.
    fn staged_site(&mut self, s: &Stmt) -> bool {
        let Some(sw) = self.staged.as_ref().map(|m| m.sw) else {
            return false;
        };
        let (m, addr) = (self.machine, self.addr);
        let cy = |e: ChargeEntry| e.cycles(addr);
        // The counter step `cnt = cnt + 1` of the permuted array.
        let step = || cy(m.arith(Some(BinOp::Add), false));
        match s {
            Stmt::Assign(LValue::Var(_), Expr::Pop) => {
                // SW lane inserts fed by SW - 1 strided peeks and a pop.
                let strided = sw * cy(m.tape_pop() + m.lane_insert());
                let vload = cy(m.load(true));
                self.charge_inputs(|mode| match mode {
                    TapeMode::Strided => strided,
                    // v = perm[cnt]; cnt = cnt + 1
                    TapeMode::Permute => vload + step(),
                    TapeMode::VectorReorder | TapeMode::Vector => vload,
                })
            }
            Stmt::Assign(LValue::Var(_), Expr::Peek(off)) => {
                let off = self.expr_cycles(off);
                // SW lane inserts fed by peek(off + l * p), lane 0
                // without the add.
                let strided = sw * (off + cy(m.tape_pop() + m.lane_insert())) + (sw - 1) * step();
                self.charge_inputs(|mode| match mode {
                    TapeMode::Strided => strided,
                    other => panic!("peek unsupported in {other:?} mode"),
                });
            }
            // v = lvpop(ch)
            Stmt::Assign(LValue::Var(_), Expr::LPop(_)) => self.charge(m.load(true)),
            Stmt::Push(e) => {
                let Expr::Var(var) = e else {
                    panic!("push operand not normalized: {e}")
                };
                let vec = self.is_vec_var(*var);
                let splat = if vec { 0 } else { cy(m.splat()) };
                let lane = if vec { cy(m.lane_extract()) } else { 0 };
                // SW - 1 rpushes and a push, each of one extracted lane.
                let rpush = Stmt::RPush {
                    value: Expr::Var(*var),
                    offset: Expr::Var(*var),
                };
                let strided = (sw - 1) * cy(m.stmt_charge(&rpush)) + cy(m.tape_push()) + sw * lane;
                let vstore = cy(m.store(true));
                self.charge_outputs(|mode| match mode {
                    TapeMode::Strided => strided,
                    // perm[cnt] = v; cnt = cnt + 1
                    TapeMode::Permute => vstore + step() + splat,
                    TapeMode::VectorReorder | TapeMode::Vector => vstore + splat,
                });
            }
            // lvpush(ch, v)
            Stmt::LPush(_, e) => {
                if !self.expr(e) {
                    self.charge(m.splat());
                }
                self.charge(m.store(true));
            }
            _ => return false,
        }
        true
    }

    fn stmt(&mut self, s: &'a Stmt) {
        if self.staged_site(s) {
            return;
        }
        let staged = self.staged.is_some();
        self.charge(self.machine.stmt_charge(s));
        match s {
            Stmt::Assign(lv, e) => {
                let vec = self.expr(e);
                let vec_target = self.is_vec_var(lv.var());
                // A staged vector target's right-hand side lowers to a
                // splat or a vector expression: never a known constant.
                let lowered_vec = staged && vec_target;
                if lowered_vec && !vec {
                    self.charge(self.machine.splat());
                }
                match lv {
                    LValue::Var(v) => {
                        let val = if lowered_vec { None } else { self.env.eval(e) };
                        self.env.set(*v, val);
                    }
                    LValue::Index(v, i) | LValue::VIndex(v, i, _) | LValue::LaneIndex(v, i, _) => {
                        self.expr(i);
                        self.env.set(*v, None);
                    }
                    LValue::LaneVar(v, _) => self.env.set(*v, None),
                }
                self.charge(self.machine.store_charge(lv, vec_target));
            }
            Stmt::Push(e)
            | Stmt::VPush { value: e, .. }
            | Stmt::LPush(_, e)
            | Stmt::LVPush(_, e, _) => {
                self.expr(e);
            }
            Stmt::RPush { value, offset } => {
                self.expr(value);
                self.expr(offset);
            }
            Stmt::For { var, count, body } => {
                self.expr(count);
                let n = self
                    .env
                    .eval(count)
                    .map(|v| v.as_i64())
                    .expect("static cost model requires constant trip counts");
                if n >= 2
                    && n <= i64::from(i32::MAX)
                    && self.summarize
                    && uniform_loop_body(*var, n, body, &self.env, &mut self.uniform)
                {
                    #[cfg(debug_assertions)]
                    let before = (self.cycles, self.pair_extra.clone(), self.env.clone());
                    self.summarized_loop(*var, n, body);
                    #[cfg(debug_assertions)]
                    {
                        let summarized = (self.cycles, self.pair_extra.clone(), self.env.clone());
                        (self.cycles, self.pair_extra, self.env) = before;
                        let unrolled = self.unrolled.take();
                        self.summarize = false;
                        self.unrolled_loop(*var, n, body);
                        (self.summarize, self.unrolled) = (true, unrolled);
                        assert!(
                            summarized.0 == self.cycles
                                && summarized.1 == self.pair_extra
                                && summarized.2.same(&self.env),
                            "{}: summarized loop over {var} disagrees with its unrolling",
                            self.filter.name
                        );
                    }
                } else {
                    if let (Some(unrolled), 2..) = (&mut self.unrolled, n) {
                        unrolled.push(s);
                    }
                    self.unrolled_loop(*var, n, body);
                }
                self.env.set(*var, None);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                match self.env.eval(cond) {
                    Some(v) if v.is_truthy() => self.block(then_branch),
                    Some(_) => self.block(else_branch),
                    None => {
                        // Unknown branch: cost the more expensive side,
                        // per mode pair.
                        let base = self.cycles;
                        let base_extra = self.pair_extra.clone();
                        let env = self.env.clone();
                        self.block(then_branch);
                        let then_cycles = self.cycles;
                        let then_extra = std::mem::replace(&mut self.pair_extra, base_extra);
                        self.cycles = base;
                        self.env = env.clone();
                        self.block(else_branch);
                        let else_cycles = self.cycles;
                        self.cycles = then_cycles.max(else_cycles);
                        for (x, t) in self.pair_extra.iter_mut().zip(then_extra) {
                            *x = (then_cycles + t).max(else_cycles + *x) - self.cycles;
                        }
                        self.env = env;
                    }
                }
            }
            Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => {}
        }
    }

    /// Cost an expression; returns whether it is vector-valued. In a
    /// staged body a scalar operand of a vector operation is charged the
    /// splat its lowering wraps it in.
    fn expr(&mut self, e: &Expr) -> bool {
        let staged = self.staged.is_some();
        let vec = match e {
            Expr::Const(_) | Expr::Pop | Expr::LPop(_) => false,
            Expr::ConstVec(_) | Expr::VPop { .. } | Expr::LVPop(..) => true,
            Expr::Var(v) => self.is_vec_var(*v),
            Expr::Index(v, i) => {
                self.expr(i);
                self.is_vec_var(*v)
            }
            Expr::VIndex(_, i, _) | Expr::VPeek { offset: i, .. } | Expr::Splat(i, _) => {
                self.expr(i);
                true
            }
            Expr::Peek(a) | Expr::Lane(a, _) => {
                self.expr(a);
                false
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.expr(a),
            Expr::Binary(_, a, b) => {
                let va = self.expr(a);
                let vb = self.expr(b);
                if staged && va != vb {
                    self.charge(self.machine.splat());
                }
                va || vb
            }
            Expr::Call(_, args) => {
                // Not `any()`: every argument must be walked so its
                // cycles are charged, even after a vector one is seen.
                let mut vec = false;
                let mut scalars = 0;
                for a in args {
                    let va = self.expr(a);
                    vec |= va;
                    scalars += u64::from(!va);
                }
                if staged && vec {
                    self.cycles += scalars * self.machine.splat().cycles(self.addr);
                }
                vec
            }
            Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
                self.expr(a);
                self.expr(b);
                true
            }
        };
        self.charge(self.machine.expr_charge(e, vec));
        vec
    }

    fn unrolled_loop(&mut self, var: VarId, n: i64, body: &'a [Stmt]) {
        for i in 0..n.max(0) {
            self.env.set(var, Some(Value::I32(i as i32)));
            self.charge(self.machine.loop_iter());
            self.block(body);
        }
    }

    /// Walk the last of `n` iterations of a uniform loop and charge its
    /// cycles `n` times: every iteration costs the same, and the last one
    /// leaves the constants the loop leaves. The loop variable and the
    /// inductions are set to what they hold when that iteration begins;
    /// the body computes everything else it reads.
    fn summarized_loop(&mut self, var: VarId, n: i64, body: &'a [Stmt]) {
        let cycles = self.cycles;
        let at = self.loop_extra.len();
        self.loop_extra.extend_from_slice(&self.pair_extra);
        self.env.set(var, Some(Value::I32((n - 1) as i32)));
        for d in &self.uniform.inductions {
            self.env.set(d.var, Some(d.at(n - 1)));
        }
        self.charge(self.machine.loop_iter());
        self.block(body);
        let more = (n - 1) as u64;
        self.cycles += more * (self.cycles - cycles);
        for (x, x0) in self.pair_extra.iter_mut().zip(&self.loop_extra[at..]) {
            *x += more * (*x - x0);
        }
        self.loop_extra.truncate(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};
    use macross_vm::{run_program, Machine};

    /// The static estimate must exactly match the VM's measured per-firing
    /// cost for a straight-line actor.
    #[test]
    fn matches_vm_for_straightline() {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1.0f32);
        });
        let mut f = FilterBuilder::new("f", 1, 1, 1, ScalarTy::F32);
        let t = f.local("t", Ty::Scalar(ScalarTy::F32));
        f.work(|b| {
            b.set(t, pop() * 2.0f32);
            b.push(sqrt(v(t)));
        });
        let filter = f.build();
        let machine = Machine::core_i7();
        let est = static_firing_cost(&filter, &machine, AddrCosts::default());

        let g = macross_streamir::builder::StreamSpec::pipeline(vec![
            src.build_spec(),
            macross_streamir::builder::StreamSpec::filter(filter, ScalarTy::F32),
            macross_streamir::builder::StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let res = run_program(&g, &machine, 1).unwrap();
        // node 1 is the filter (after src).
        assert_eq!(res.node_cycles[1], est);
    }

    #[test]
    fn loops_unrolled() {
        let mut f = FilterBuilder::new("l", 4, 4, 1, ScalarTy::F32);
        let i = f.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = f.local("acc", Ty::Scalar(ScalarTy::F32));
        f.work(|b| {
            b.for_(i, 4i32, |b| {
                b.set(acc, v(acc) + pop());
            });
            b.push(v(acc));
        });
        let filter = f.build();
        let machine = Machine::core_i7();
        let cost = static_firing_cost(&filter, &machine, AddrCosts::default());
        // firing(3) + loop setup alu(1)+count? count is const: no cost.
        // per iter: loop_iter(1) + load(2) + add(1) = 4 -> 16; push: store 2.
        assert_eq!(cost, 3 + 1 + 16 + 2);
    }

    /// Uniform loops are walked once and charged per iteration; loops
    /// that vary per iteration are unrolled. Both cost what the unrolled
    /// walk costs.
    #[test]
    fn summarized_loops_cost_what_unrolled_ones_do() {
        let machine = Machine::core_i7();
        let cost = |work: &dyn Fn(&mut B, VarId, VarId, VarId, VarId)| {
            let mut f = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
            let i = f.local("i", Ty::Scalar(ScalarTy::I32));
            let j = f.local("j", Ty::Scalar(ScalarTy::I32));
            let k = f.local("k", Ty::Scalar(ScalarTy::I32));
            let t = f.local("t", Ty::Scalar(ScalarTy::I32));
            f.work(|b| work(b, i, j, k, t));
            let f = f.build();
            let summarized = static_firing_cost(&f, &machine, AddrCosts::default());
            let unrolled = static_firing_cost_unrolled(&f, &machine, AddrCosts::default());
            assert_eq!(summarized, unrolled);
            summarized
        };
        // A stepped local picks the branch after the loop: k is 12, so
        // the mul side is taken. firing 3 + loop alu 1 + 4 x (iter 1 +
        // load 2 + add 1) + compare 1 + branch 1 + mul 3.
        let stepped = cost(&|b, i, _, k, t| {
            b.set(k, 0i32);
            b.for_(i, 4i32, |b| {
                b.set(t, pop());
                b.set(k, v(k) + 3i32);
            });
            b.if_else(
                eq(v(k), 12i32),
                |b| {
                    b.set(t, v(t) * v(t));
                },
                |b| {
                    b.set(t, v(t) + 1i32);
                },
            );
        });
        assert_eq!(stepped, 3 + 1 + 4 * 4 + 1 + 1 + 3);
        // A uniform body whose constant is read by a later trip count:
        // the walked iteration is the last, so k is 5 after the loop.
        cost(&|b, i, j, k, t| {
            b.for_(i, 6i32, |b| {
                b.set(t, pop() * 2i32);
                b.set(k, v(i) - 0i32);
            });
            b.for_(j, v(k), |b| {
                b.push(v(t) + v(j));
            });
        });
        // A triangular nest, and a branch on the loop variable.
        cost(&|b, i, j, _, t| {
            b.for_(i, 5i32, |b| {
                b.for_(j, v(i) + 1i32, |b| {
                    b.set(t, v(t) * v(j));
                });
                b.if_(eq(v(i), 0i32), |b| {
                    b.set(t, v(t) / 3i32);
                });
            });
        });
    }

    /// One body per loop shape the walk summarizes although the body
    /// assigns what it reads, and one per shape it must still unroll.
    /// Each costs what the unrolled walk costs; a loop after the one
    /// under test reads what it leaves behind as its trip count.
    #[test]
    fn loop_shapes_cost_what_unrolled_ones_do() {
        let machine = Machine::core_i7();
        // The cost of the body `work` builds from `i`, `j`, `k`, `t`, an
        // accumulator, an `f32` and an array, and whether the walk
        // summarized every loop in it.
        type Work<'a> = &'a dyn Fn(&mut B, [VarId; 4], VarId, VarId, VarId);
        let cost = |work: Work| {
            let mut f = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
            let ints = ["i", "j", "k", "t"].map(|n| f.local(n, Ty::Scalar(ScalarTy::I32)));
            let acc = f.local("acc", Ty::Scalar(ScalarTy::I32));
            let x = f.local("x", Ty::Scalar(ScalarTy::F32));
            let a = f.state("a", Ty::Array(ScalarTy::I32, 8));
            f.work(|b| work(b, ints, acc, x, a));
            let f = f.build();
            let summarized = static_firing_cost(&f, &machine, AddrCosts::default());
            let unrolled = static_firing_cost_unrolled(&f, &machine, AddrCosts::default());
            assert_eq!(summarized, unrolled);
            (
                summarized,
                static_firing_cost_unrolls(&f, &machine).is_empty(),
            )
        };
        // Pushes `n` elements, one loop iteration each.
        let tail = |b: &mut B, j: VarId, n: E| {
            b.for_(j, n, |b| {
                b.push(v(j));
            });
        };

        // Summarized. A temporary read after its assignment: `t` leaves
        // the loop as 11. firing 3 + loop 1 + 6 x (iter 1 + mul 3 + alu 1
        // + load 2) + loop 1 + 11 x (iter 1 + store 2).
        let temporary = cost(&|b, [i, j, k, t], _, _, _| {
            b.set(k, 0i32);
            b.for_(i, 6i32, |b| {
                b.set(k, v(i) * 2i32);
                b.set(t, v(k) + 1i32);
                b.set(j, pop());
            });
            tail(b, j, v(t));
        });
        assert_eq!(temporary, (3 + 1 + 6 * 7 + 1 + 11 * 3, true));
        // An accumulator of a pop divided by an array element.
        let accumulator = cost(&|b, [i, _, k, t], acc, _, a| {
            b.set(acc, 0i32);
            b.for_(i, 5i32, |b| {
                b.set(t, pop() / idx(a, v(i)));
                b.set(k, v(t) * 2i32);
                b.set(acc, v(acc) + v(k));
                b.push(v(acc));
            });
        });
        assert!(accumulator.1);
        // An `i32` induction read by a peek, left as 11.
        let induction = cost(&|b, [i, j, k, t], _, _, _| {
            b.set(k, 1i32);
            b.for_(i, 5i32, |b| {
                b.set(t, peek(v(k)));
                b.set(k, v(k) + 2i32);
                b.set(t, pop());
            });
            tail(b, j, v(k));
        });
        assert!(induction.1);
        // An inner loop with an invariant trip count and a counter stepped
        // inside it: 12 when the outer loop is done.
        let nested = cost(&|b, [i, j, k, t], acc, _, _| {
            b.set(k, 0i32);
            b.set(t, 3i32);
            b.for_(i, 4i32, |b| {
                b.set(acc, 0i32);
                b.for_(j, v(t), |b| {
                    b.set(acc, v(acc) + pop());
                    b.set(k, v(k) + 1i32);
                });
                b.push(v(acc));
            });
            tail(b, j, v(k));
        });
        assert!(nested.1);

        // Unrolled. A float step.
        let float = cost(&|b, [i, j, _, t], _, x, _| {
            b.set(x, 0.5f32);
            b.for_(i, 4i32, |b| {
                b.set(t, pop());
                b.set(x, v(x) + 1.5f32);
            });
            tail(b, j, cast(ScalarTy::I32, v(x)));
        });
        assert!(!float.1);
        // A step by a power.
        let doubled = cost(&|b, [i, j, k, t], _, _, _| {
            b.set(k, 1i32);
            b.for_(i, 4i32, |b| {
                b.set(t, pop());
                b.set(k, v(k) * 2i32);
            });
            tail(b, j, v(k));
        });
        assert!(!doubled.1);
        // Two assignments of a counter.
        let twice = cost(&|b, [i, j, k, t], _, _, _| {
            b.set(k, 0i32);
            b.for_(i, 4i32, |b| {
                b.set(k, v(k) + 1i32);
                b.set(t, pop());
                b.set(k, v(k) + 1i32);
            });
            tail(b, j, v(k));
        });
        assert!(!twice.1);
        // A tracked constant read before its assignment: `t` leaves as 7.
        let early = cost(&|b, [i, j, k, t], _, _, _| {
            b.set(k, 0i32);
            b.for_(i, 5i32, |b| {
                b.set(t, v(k) + 1i32);
                b.set(k, v(i) * 2i32);
                b.set(j, pop());
            });
            tail(b, j, v(t));
        });
        assert!(!early.1);
        // A triangular nest.
        let triangle = cost(&|b, [i, j, _, t], _, _, _| {
            b.for_(i, 5i32, |b| {
                b.for_(j, v(i), |b| {
                    b.set(t, pop());
                });
            });
        });
        assert!(!triangle.1);
        // An induction whose last value leaves `i32`.
        let wraps = cost(&|b, [i, j, k, t], _, _, _| {
            b.set(k, i32::MAX - 10);
            b.for_(i, 6i32, |b| {
                b.set(t, pop());
                b.set(k, v(k) + 3i32);
            });
            b.if_else(
                lt(v(k), 0i32),
                |b| tail(b, j, c(2i32)),
                |b| tail(b, j, c(3i32)),
            );
        });
        assert!(!wraps.1);
    }

    #[test]
    fn addr_costs_inflate_scalar_accesses() {
        let mut f = FilterBuilder::new("p", 1, 1, 1, ScalarTy::F32);
        f.work(|b| {
            b.push(pop());
        });
        let filter = f.build();
        let machine = Machine::core_i7();
        let base = static_firing_cost(&filter, &machine, AddrCosts::default());
        let reordered = static_firing_cost(
            &filter,
            &machine,
            AddrCosts {
                input: 6,
                output: 6,
            },
        );
        assert_eq!(reordered, base + 12);
    }

    /// Every total of the one-walk staged costing is what lowering that
    /// pair and walking the lowered body costs — on a fused actor
    /// (internal channels, loops, uniform and vector operands mixed) and
    /// on a peeking one.
    #[test]
    fn staged_pair_costs_equal_lowered_costs() {
        use crate::single::{stage_actor, TapeMode::*};
        use crate::vertical::fuse_chain;
        use macross_streamir::builder::StreamSpec;
        use macross_streamir::graph::NodeId;

        let stage_filter = |name: &str, k: f32| {
            let mut fb = FilterBuilder::new(name, 2, 2, 2, ScalarTy::F32);
            let a = fb.local("a", Ty::Scalar(ScalarTy::F32));
            let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
            let w = fb.state("w", Ty::Array(ScalarTy::F32, 2));
            fb.work(move |b| {
                b.for_(i, 2i32, |b| {
                    b.set(a, pop());
                    b.push(sqrt(v(a) * k) + idx(w, v(i)));
                });
            });
            fb.build_spec()
        };
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        src.work(|b| {
            b.push(1.0f32);
        });
        let g = StreamSpec::pipeline(vec![
            src.build_spec(),
            stage_filter("f", 2.0),
            stage_filter("g", 3.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let fused = fuse_chain(&g, &[NodeId(1), NodeId(2)], &[1, 1]).unwrap();

        let mut fir = FilterBuilder::new("fir", 4, 1, 1, ScalarTy::F32);
        let i = fir.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fir.local("acc", Ty::Scalar(ScalarTy::F32));
        let junk = fir.local("junk", Ty::Scalar(ScalarTy::F32));
        fir.work(|b| {
            b.set(acc, 0.0f32);
            b.for_(i, 4i32, |b| {
                b.set(acc, v(acc) + peek(v(i) + 0i32));
            });
            b.set(junk, pop());
            b.push(v(acc));
        });
        let fir = fir.build();

        let all = [Strided, Permute, VectorReorder];
        for machine in [Machine::core_i7(), Machine::wide(8), Machine::neon_like()] {
            for (f, inputs) in [(&fused, &all[..]), (&fir, &all[..1])] {
                let sw = machine.simd_width;
                let stage = || stage_actor(f, sw, ScalarTy::F32, ScalarTy::F32);
                let costs = staged_pair_costs(&stage(), inputs, &all, &machine);
                let mut lowered = Vec::new();
                for &input in inputs {
                    for &output in &all {
                        let vf = stage().lower(input, output, false).unwrap();
                        lowered.push(static_firing_cost(&vf, &machine, AddrCosts::default()));
                    }
                }
                assert_eq!(costs, lowered, "{} on {}", f.name, machine.name);
            }
        }
    }

    #[test]
    fn unknown_branch_costs_worst_case() {
        let mut f = FilterBuilder::new("br", 1, 1, 1, ScalarTy::I32);
        let x = f.local("x", Ty::Scalar(ScalarTy::I32));
        f.work(|b| {
            b.set(x, pop());
            b.if_else(
                v(x),
                |b| {
                    b.push(v(x) * v(x)); // mul: expensive
                },
                |b| {
                    b.push(v(x) + 1i32); // alu: cheap
                },
            );
        });
        let filter = f.build();
        let machine = Machine::core_i7();
        let cost = static_firing_cost(&filter, &machine, AddrCosts::default());
        // Must include the mul-side cost: firing 3 + load 2 + branch 1 + mul 3 + store 2.
        assert_eq!(cost, 3 + 2 + 1 + 3 + 2);
    }
}
