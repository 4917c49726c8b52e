//! The target-specific static cost model (Section 3.5): estimates the
//! per-firing cycle cost of a work function by abstract interpretation,
//! mirroring the VM's cost accounting without executing data.
//!
//! The SIMDization driver uses it to (a) decide whether vectorizing an
//! actor is profitable at all and (b) pick the cheapest tape-access mode
//! (strided scalar vs. permutation-based vs. SAGU/vector-reordered).

use crate::permnet::{gather_plan, scatter_plan};
use crate::single::{Staged, TapeMode};
use macross_streamir::expr::{BinOp, Expr, LValue, VarId};
use macross_streamir::filter::Filter;
use macross_streamir::stmt::Stmt;
use macross_streamir::types::Value;
use macross_vm::Machine;
use std::collections::HashMap;

/// Extra per-access address costs for reordered tapes, passed in by the
/// tape-mode cost comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrCosts {
    /// Added to every scalar input-tape access.
    pub input: u64,
    /// Added to every scalar output-tape access.
    pub output: u64,
}

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
    env: HashMap<VarId, Value>,
    addr: AddrCosts,
    /// Cycles every (input, output) mode pair pays.
    cycles: u64,
    /// Cycles on top of `cycles` per mode pair, input-major; empty for a
    /// plain (already lowered, or scalar) body.
    pair_extra: Vec<u64>,
    staged: Option<StagedModes<'a>>,
}

/// Estimate the cycle cost of one firing of `filter` on `machine`.
///
/// Loops with constant (or loop-var-computable) trip counts are unrolled
/// abstractly; unknown-trip-count loops make the estimate panic — the
/// vectorizability analysis guarantees the SIMDizer never sees one.
pub fn static_firing_cost(filter: &Filter, machine: &Machine, addr: AddrCosts) -> u64 {
    let mut w = CostWalker {
        filter,
        machine,
        env: HashMap::new(),
        addr,
        cycles: machine.cost.firing,
        pair_extra: Vec::new(),
        staged: None,
    };
    w.block(&filter.work);
    w.cycles
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
    let c = &machine.cost;
    let sw = staged.sw as u64;
    let (p, q) = (staged.pop as u64, staged.push as u64);
    let mut w = CostWalker {
        filter: &staged.filter,
        machine,
        env: HashMap::new(),
        addr: AddrCosts::default(),
        cycles: c.firing,
        pair_extra: vec![0; inputs.len() * outputs.len()],
        staged: Some(StagedModes {
            sw,
            inputs,
            outputs,
        }),
    };
    w.block(&staged.filter.work);
    // What `lower` emits around the body.
    w.charge_inputs(|m| match m {
        // Gather preamble: p vector pops, the network, p stores into the
        // permuted array.
        TapeMode::Permute if p > 0 => {
            let network = gather_plan(staged.pop, staged.sw).op_count() as u64;
            p * (c.vload + c.vstore) + network * c.permute
        }
        // advance_read((SW - 1) * p)
        TapeMode::Strided if p > 0 => c.alu,
        _ => 0,
    });
    w.charge_outputs(|m| match m {
        // Scatter postamble: q loads from the permuted array, the network,
        // q vector pushes.
        TapeMode::Permute if q > 0 => {
            let network = scatter_plan(staged.push, staged.sw).op_count() as u64;
            q * (c.vload + c.vstore) + network * c.permute
        }
        // advance_write((SW - 1) * q)
        TapeMode::Strided if q > 0 => c.alu,
        _ => 0,
    });
    w.pair_extra.iter().map(|x| w.cycles + x).collect()
}

impl<'a> CostWalker<'a> {
    fn is_vec_var(&self, v: VarId) -> bool {
        self.filter.var(v).ty.is_vector()
    }

    fn block(&mut self, stmts: &[Stmt]) {
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
    /// `Staged::lower` turns it into under each candidate mode. Returns
    /// false for every other statement.
    fn staged_site(&mut self, s: &Stmt) -> bool {
        let Some(sw) = self.staged.as_ref().map(|m| m.sw) else {
            return false;
        };
        let c = &self.machine.cost;
        let addr = self.addr;
        match s {
            Stmt::Assign(LValue::Var(_), Expr::Pop) => self.charge_inputs(|m| match m {
                // SW lane inserts fed by SW - 1 strided peeks and a pop.
                TapeMode::Strided => sw * (c.load + addr.input + c.lane_insert),
                // v = perm[cnt]; cnt = cnt + 1
                TapeMode::Permute => c.vload + c.alu,
                TapeMode::VectorReorder | TapeMode::Vector => c.vload,
            }),
            Stmt::Assign(LValue::Var(_), Expr::Peek(off)) => {
                let off = self.expr_cycles(off);
                self.charge_inputs(|m| match m {
                    // SW lane inserts fed by peek(off + l * p), lane 0
                    // without the add.
                    TapeMode::Strided => {
                        sw * (off + c.load + addr.input + c.lane_insert) + (sw - 1) * c.alu
                    }
                    other => panic!("peek unsupported in {other:?} mode"),
                });
            }
            // v = lvpop(ch)
            Stmt::Assign(LValue::Var(_), Expr::LPop(_)) => self.cycles += c.vload,
            Stmt::Push(e) => {
                let Expr::Var(var) = e else {
                    panic!("push operand not normalized: {e}")
                };
                let vec = self.is_vec_var(*var);
                let splat = if vec { 0 } else { c.splat };
                self.charge_outputs(|m| match m {
                    // SW - 1 rpushes and a push, each of one extracted lane.
                    TapeMode::Strided => {
                        let lane = if vec { c.lane_extract } else { 0 };
                        sw * (c.store + lane) + (sw - 1) * c.alu + addr.output
                    }
                    // perm[cnt] = v; cnt = cnt + 1
                    TapeMode::Permute => c.vstore + c.alu + splat,
                    TapeMode::VectorReorder | TapeMode::Vector => c.vstore + splat,
                });
            }
            // lvpush(ch, v)
            Stmt::LPush(_, e) => {
                if !self.expr(e) {
                    self.cycles += c.splat;
                }
                self.cycles += c.vstore;
            }
            _ => return false,
        }
        true
    }

    fn stmt(&mut self, s: &Stmt) {
        if self.staged_site(s) {
            return;
        }
        let staged = self.staged.is_some();
        let c = &self.machine.cost;
        match s {
            Stmt::Assign(lv, e) => {
                let vec = self.expr(e);
                // A staged vector target's right-hand side lowers to a
                // splat or a vector expression: never a known constant.
                let lowered_vec = staged && self.is_vec_var(lv.var());
                if lowered_vec && !vec {
                    self.cycles += c.splat;
                }
                match lv {
                    LValue::Var(v) => match self.const_eval(e) {
                        Some(val) if !lowered_vec => {
                            self.env.insert(*v, val);
                        }
                        _ => {
                            self.env.remove(v);
                        }
                    },
                    LValue::Index(v, i) => {
                        self.expr(i);
                        self.env.remove(v);
                        self.cycles += if self.is_vec_var(*v) {
                            c.vstore
                        } else {
                            c.store
                        };
                    }
                    LValue::VIndex(v, i, _) => {
                        self.expr(i);
                        self.env.remove(v);
                        self.cycles += c.vstore;
                    }
                    LValue::LaneVar(_, _) => self.cycles += c.lane_insert,
                    LValue::LaneIndex(v, i, _) => {
                        self.expr(i);
                        self.env.remove(v);
                        self.cycles += c.lane_insert;
                    }
                }
            }
            Stmt::Push(e) => {
                self.expr(e);
                self.cycles += c.store + self.addr.output;
            }
            Stmt::RPush { value, offset } => {
                self.expr(value);
                self.expr(offset);
                self.cycles += c.store + c.alu;
            }
            Stmt::VPush { value, .. } => {
                self.expr(value);
                self.cycles += c.vstore;
            }
            Stmt::LPush(_, e) => {
                self.expr(e);
                self.cycles += c.store;
            }
            Stmt::LVPush(_, e, _) => {
                self.expr(e);
                self.cycles += c.vstore;
            }
            Stmt::For { var, count, body } => {
                self.expr(count);
                self.cycles += c.alu;
                let n = self
                    .const_eval(count)
                    .map(|v| v.as_i64())
                    .expect("static cost model requires constant trip counts");
                for i in 0..n.max(0) {
                    self.env.insert(*var, Value::I32(i as i32));
                    self.cycles += c.loop_iter;
                    self.block(body);
                }
                self.env.remove(var);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                self.cycles += c.alu;
                match self.const_eval(cond) {
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
            Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => self.cycles += c.alu,
        }
    }

    /// Cost an expression; returns whether it is vector-valued. In a
    /// staged body a scalar operand of a vector operation is charged the
    /// splat its lowering wraps it in.
    fn expr(&mut self, e: &Expr) -> bool {
        let c = &self.machine.cost;
        let staged = self.staged.is_some();
        match e {
            Expr::Const(_) => false,
            Expr::ConstVec(_) => {
                self.cycles += c.vload;
                true
            }
            Expr::Var(v) => self.is_vec_var(*v),
            Expr::Index(v, i) => {
                self.expr(i);
                let vec = self.is_vec_var(*v);
                self.cycles += if vec { c.vload } else { c.load };
                vec
            }
            Expr::VIndex(_, i, _) => {
                self.expr(i);
                self.cycles += c.vload;
                true
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) => {
                let vec = self.expr(a);
                self.cycles += if vec { c.valu } else { c.alu };
                vec
            }
            Expr::Binary(op, a, b) => {
                let va = self.expr(a);
                let vb = self.expr(b);
                let vec = va || vb;
                if staged && va != vb {
                    self.cycles += c.splat;
                }
                self.cycles += match (op, vec) {
                    (BinOp::Mul, false) => c.mul,
                    (BinOp::Mul, true) => c.vmul,
                    (BinOp::Div | BinOp::Rem, false) => c.div,
                    (BinOp::Div | BinOp::Rem, true) => c.vdiv,
                    (_, false) => c.alu,
                    (_, true) => c.valu,
                };
                vec
            }
            Expr::Call(i, args) => {
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
                    self.cycles += scalars * c.splat;
                }
                self.cycles += if vec {
                    self.machine.vector_intrinsic_cost(*i)
                } else {
                    self.machine.scalar_intrinsic_cost(*i)
                };
                vec
            }
            Expr::Pop => {
                self.cycles += c.load + self.addr.input;
                false
            }
            Expr::Peek(off) => {
                self.expr(off);
                self.cycles += c.load + self.addr.input;
                false
            }
            Expr::VPop { .. } => {
                self.cycles += c.vload;
                true
            }
            Expr::VPeek { offset, .. } => {
                self.expr(offset);
                self.cycles += c.vload;
                true
            }
            Expr::LPop(_) => {
                self.cycles += c.load;
                false
            }
            Expr::LVPop(_, _) => {
                self.cycles += c.vload;
                true
            }
            Expr::Lane(a, _) => {
                self.expr(a);
                self.cycles += c.lane_extract;
                false
            }
            Expr::Splat(a, _) => {
                self.expr(a);
                self.cycles += c.splat;
                true
            }
            Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
                self.expr(a);
                self.expr(b);
                self.cycles += c.permute;
                true
            }
        }
    }

    fn const_eval(&self, e: &Expr) -> Option<Value> {
        match e {
            Expr::Const(v) => Some(*v),
            Expr::Var(v) => self.env.get(v).copied(),
            Expr::Unary(op, a) => Some(macross_streamir::expr::eval_unop(*op, self.const_eval(a)?)),
            Expr::Binary(op, a, b) => Some(macross_streamir::expr::eval_binop(
                *op,
                self.const_eval(a)?,
                self.const_eval(b)?,
            )),
            Expr::Cast(t, a) => Some(self.const_eval(a)?.cast(*t)),
            _ => None,
        }
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
