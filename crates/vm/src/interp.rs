//! The work-function interpreter: executes scalar *and* vectorized actor
//! bodies with per-operation cycle accounting.
//!
//! Malformed programs (shape mismatches, missing tapes, channel
//! underflows) surface as [`VmError`] values rather than panics, so an
//! embedding runtime — in particular a worker thread of
//! `macross-runtime` — can fail one run without poisoning the process.

use crate::error::{TapeSide, VmError};
use crate::machine::{AddrCosts, ChargeEntry, CycleCounters, Machine};
use crate::tape::Tape;
use macross_streamir::expr::{eval_binop, eval_intrinsic, eval_unop, Expr, LValue};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{Ty, Value};
use std::collections::VecDeque;

/// A runtime value: scalar or vector.
#[derive(Debug, Clone, PartialEq)]
pub enum RtVal {
    /// Scalar.
    S(Value),
    /// Vector of lane values.
    V(Vec<Value>),
}

impl RtVal {
    /// Unwrap a scalar.
    ///
    /// # Errors
    /// Returns [`VmError::Shape`] if the value is a vector.
    pub fn scalar(self) -> Result<Value, VmError> {
        match self {
            RtVal::S(v) => Ok(v),
            RtVal::V(_) => Err(VmError::Shape {
                expected: "scalar",
                got: "vector",
            }),
        }
    }

    /// Unwrap a vector.
    ///
    /// # Errors
    /// Returns [`VmError::Shape`] if the value is a scalar.
    pub fn vector(self) -> Result<Vec<Value>, VmError> {
        match self {
            RtVal::V(v) => Ok(v),
            RtVal::S(_) => Err(VmError::Shape {
                expected: "vector",
                got: "scalar",
            }),
        }
    }
}

/// Storage for one declared variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// Scalar variable.
    S(Value),
    /// Vector variable.
    V(Vec<Value>),
    /// Scalar array.
    A(Vec<Value>),
    /// Vector array.
    VA(Vec<Vec<Value>>),
}

impl Slot {
    /// Zero-initialized storage for a type.
    pub fn zero_of(ty: Ty) -> Slot {
        match ty {
            Ty::Scalar(t) => Slot::S(t.zero()),
            Ty::Vector(t, w) => Slot::V(vec![t.zero(); w]),
            Ty::Array(t, n) => Slot::A(vec![t.zero(); n]),
            Ty::VectorArray(t, w, n) => Slot::VA(vec![vec![t.zero(); w]; n]),
        }
    }
}

/// Everything one firing of a filter needs.
pub struct FiringCtx<'a> {
    /// The filter being fired.
    pub filter: &'a Filter,
    /// Variable storage (indexed by `VarId`), state slots pre-loaded.
    pub slots: &'a mut Vec<Slot>,
    /// Internal channel storage (indexed by `ChanId`), flattened to scalars.
    pub chans: &'a mut Vec<VecDeque<Value>>,
    /// Input tape, if the filter has one.
    pub input: Option<&'a mut Tape>,
    /// Output tape, if the filter has one.
    pub output: Option<&'a mut Tape>,
    /// Target machine (its price list).
    pub machine: &'a Machine,
    /// Cycle accumulator.
    pub counters: &'a mut CycleCounters,
    /// Extra address-generation cycles per scalar access on each tape
    /// (nonzero on a reordered side; SAGU vs. Figure-8 cost).
    pub addr: AddrCosts,
}

impl<'a> FiringCtx<'a> {
    /// Execute a statement block (a `work` or `init` body).
    ///
    /// # Errors
    /// Returns a [`VmError`] on shape mismatches, missing tapes, or
    /// internal-channel underflow.
    pub fn exec_block(&mut self, stmts: &[Stmt]) -> Result<(), VmError> {
        for s in stmts {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn type_err(&self, context: impl Into<String>) -> VmError {
        VmError::TypeMismatch {
            filter: self.filter.name.clone(),
            context: context.into(),
        }
    }

    fn want_scalar(&self, v: RtVal, context: &str) -> Result<Value, VmError> {
        match v {
            RtVal::S(x) => Ok(x),
            RtVal::V(_) => Err(self.type_err(format!("expected scalar in {context}, got vector"))),
        }
    }

    fn want_vector(&self, v: RtVal, context: &str) -> Result<Vec<Value>, VmError> {
        match v {
            RtVal::V(x) => Ok(x),
            RtVal::S(_) => Err(self.type_err(format!("expected vector in {context}, got scalar"))),
        }
    }

    fn input(&mut self) -> Result<&mut Tape, VmError> {
        let name = &self.filter.name;
        match self.input.as_deref_mut() {
            Some(t) => Ok(t),
            None => Err(VmError::MissingTape {
                filter: name.clone(),
                side: TapeSide::Input,
            }),
        }
    }

    fn output(&mut self) -> Result<&mut Tape, VmError> {
        let name = &self.filter.name;
        match self.output.as_deref_mut() {
            Some(t) => Ok(t),
            None => Err(VmError::MissingTape {
                filter: name.clone(),
                side: TapeSide::Output,
            }),
        }
    }

    /// Charge one node's price, as it executes.
    fn charge(&mut self, price: ChargeEntry) {
        price.apply(self.counters, self.addr);
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<(), VmError> {
        self.charge(self.machine.stmt_charge(s));
        match s {
            Stmt::Assign(lv, e) => {
                let val = self.eval(e)?;
                self.write_lvalue(lv, val)?;
            }
            Stmt::Push(e) => {
                let v = self.eval(e)?;
                let v = self.want_scalar(v, "push")?;
                self.output()?.push(v);
            }
            Stmt::RPush { value, offset } => {
                let v = self.eval(value)?;
                let v = self.want_scalar(v, "rpush value")?;
                let off = self.eval(offset)?;
                let off = self.want_scalar(off, "rpush offset")?.as_i64() as usize;
                self.output()?.rpush(v, off);
            }
            Stmt::VPush { value, width } => {
                let v = self.eval(value)?;
                let v = self.want_vector(v, "vpush")?;
                debug_assert_eq!(v.len(), *width, "vpush width mismatch");
                self.output()?.vpush(&v);
            }
            Stmt::LPush(c, e) => {
                let v = self.eval(e)?;
                let v = self.want_scalar(v, "lpush")?;
                self.chans[c.0 as usize].push_back(v);
            }
            Stmt::LVPush(c, e, width) => {
                let v = self.eval(e)?;
                let v = self.want_vector(v, "lvpush")?;
                debug_assert_eq!(v.len(), *width, "lvpush width mismatch");
                self.chans[c.0 as usize].extend(v);
            }
            Stmt::For { var, count, body } => {
                let n = self.eval(count)?;
                let n = self.want_scalar(n, "loop count")?.as_i64();
                for i in 0..n.max(0) {
                    self.charge(self.machine.loop_iter());
                    self.slots[var.0 as usize] = Slot::S(Value::I32(i as i32));
                    self.exec_block(body)?;
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond)?;
                let c = self.want_scalar(c, "branch condition")?;
                if c.is_truthy() {
                    self.exec_block(then_branch)?;
                } else {
                    self.exec_block(else_branch)?;
                }
            }
            Stmt::AdvanceRead(n) => self.input()?.advance_read(*n),
            Stmt::AdvanceWrite(n) => self.output()?.advance_write(*n),
        }
        Ok(())
    }

    fn write_lvalue(&mut self, lv: &LValue, val: RtVal) -> Result<(), VmError> {
        self.charge(self.machine.store_charge(lv, matches!(val, RtVal::V(_))));
        match lv {
            LValue::Var(v) => {
                // Register move: free in the cost model.
                match (&mut self.slots[v.0 as usize], val) {
                    (Slot::S(s), RtVal::S(x)) => *s = x,
                    (slot @ Slot::V(_), RtVal::V(x)) => *slot = Slot::V(x),
                    (slot, val) => {
                        let msg = format!("assigning {val:?} to {slot:?}");
                        return Err(self.type_err(msg));
                    }
                }
            }
            LValue::Index(v, i) => {
                let idx = self.eval(i)?;
                let idx = self.want_scalar(idx, "array index")?.as_i64() as usize;
                match (&mut self.slots[v.0 as usize], val) {
                    (Slot::A(arr), RtVal::S(x)) => {
                        arr[idx] = x;
                    }
                    (Slot::VA(arr), RtVal::V(x)) => {
                        arr[idx] = x;
                    }
                    (slot, val) => {
                        let msg = format!("assigning {val:?} to element of {slot:?}");
                        return Err(self.type_err(msg));
                    }
                }
            }
            LValue::VIndex(v, i, _) => {
                let idx = self.eval(i)?;
                let idx = self.want_scalar(idx, "vector-store index")?.as_i64() as usize;
                let vals = self.want_vector(val, "vector store")?;
                match &mut self.slots[v.0 as usize] {
                    Slot::A(arr) => arr[idx..idx + vals.len()].copy_from_slice(&vals),
                    slot => {
                        let msg = format!("vector store to non-scalar-array {slot:?}");
                        return Err(self.type_err(msg));
                    }
                }
            }
            LValue::LaneVar(v, lane) => {
                let x = self.want_scalar(val, "lane assignment")?;
                match &mut self.slots[v.0 as usize] {
                    Slot::V(lanes) => lanes[*lane] = x,
                    slot => {
                        let msg = format!("lane assignment to non-vector {slot:?}");
                        return Err(self.type_err(msg));
                    }
                }
            }
            LValue::LaneIndex(v, i, lane) => {
                let idx = self.eval(i)?;
                let idx = self.want_scalar(idx, "lane-store index")?.as_i64() as usize;
                let x = self.want_scalar(val, "lane assignment")?;
                match &mut self.slots[v.0 as usize] {
                    Slot::VA(arr) => arr[idx][*lane] = x,
                    slot => {
                        let msg = format!("lane assignment to non-vector-array {slot:?}");
                        return Err(self.type_err(msg));
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluate an expression.
    ///
    /// # Errors
    /// Returns a [`VmError`] on shape mismatches, missing tapes, or
    /// internal-channel underflow.
    pub fn eval(&mut self, e: &Expr) -> Result<RtVal, VmError> {
        let v = self.eval_node(e)?;
        self.charge(self.machine.expr_charge(e, matches!(v, RtVal::V(_))));
        Ok(v)
    }

    fn eval_node(&mut self, e: &Expr) -> Result<RtVal, VmError> {
        match e {
            Expr::Const(v) => Ok(RtVal::S(*v)),
            Expr::ConstVec(vs) => Ok(RtVal::V(vs.clone())),
            Expr::Var(v) => match &self.slots[v.0 as usize] {
                Slot::S(x) => Ok(RtVal::S(*x)),
                Slot::V(x) => Ok(RtVal::V(x.clone())),
                slot => {
                    let msg = format!("reading aggregate {slot:?} as a value");
                    Err(self.type_err(msg))
                }
            },
            Expr::Index(v, i) => {
                let idx = self.eval(i)?;
                let idx = self.want_scalar(idx, "array index")?.as_i64() as usize;
                match &self.slots[v.0 as usize] {
                    Slot::A(arr) => Ok(RtVal::S(arr[idx])),
                    Slot::VA(arr) => Ok(RtVal::V(arr[idx].clone())),
                    slot => {
                        let msg = format!("indexing non-array {slot:?}");
                        Err(self.type_err(msg))
                    }
                }
            }
            Expr::VIndex(v, i, w) => {
                let idx = self.eval(i)?;
                let idx = self.want_scalar(idx, "vector-load index")?.as_i64() as usize;
                match &self.slots[v.0 as usize] {
                    Slot::A(arr) => Ok(RtVal::V(arr[idx..idx + w].to_vec())),
                    slot => {
                        let msg = format!("vector-indexing non-scalar-array {slot:?}");
                        Err(self.type_err(msg))
                    }
                }
            }
            Expr::Unary(op, a) => match self.eval(a)? {
                RtVal::S(x) => Ok(RtVal::S(eval_unop(*op, x))),
                RtVal::V(xs) => Ok(RtVal::V(
                    xs.into_iter().map(|x| eval_unop(*op, x)).collect(),
                )),
            },
            Expr::Binary(op, a, b) => {
                let a = self.eval(a)?;
                let b = self.eval(b)?;
                match (a, b) {
                    (RtVal::S(x), RtVal::S(y)) => Ok(RtVal::S(eval_binop(*op, x, y))),
                    (RtVal::V(xs), RtVal::V(ys)) => {
                        if xs.len() != ys.len() {
                            let msg = format!("vector width mismatch in {op:?}");
                            return Err(self.type_err(msg));
                        }
                        Ok(RtVal::V(
                            xs.into_iter()
                                .zip(ys)
                                .map(|(x, y)| eval_binop(*op, x, y))
                                .collect(),
                        ))
                    }
                    _ => {
                        let msg =
                            format!("mixed scalar/vector operands in {op:?} (SIMDizer must splat)");
                        Err(self.type_err(msg))
                    }
                }
            }
            Expr::Call(i, args) => {
                let mut vals: Vec<RtVal> = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                if vals.iter().any(|v| matches!(v, RtVal::V(_))) {
                    let mut vecs: Vec<Vec<Value>> = Vec::with_capacity(vals.len());
                    for v in vals {
                        vecs.push(self.want_vector(v, i.name())?);
                    }
                    let w = vecs[0].len();
                    if !vecs.iter().all(|v| v.len() == w) {
                        let msg = format!("vector width mismatch in {}", i.name());
                        return Err(self.type_err(msg));
                    }
                    let lanes = (0..w)
                        .map(|l| {
                            let lane_args: Vec<Value> = vecs.iter().map(|v| v[l]).collect();
                            eval_intrinsic(*i, &lane_args)
                        })
                        .collect();
                    Ok(RtVal::V(lanes))
                } else {
                    let mut scalars: Vec<Value> = Vec::with_capacity(vals.len());
                    for v in vals {
                        scalars.push(self.want_scalar(v, i.name())?);
                    }
                    Ok(RtVal::S(eval_intrinsic(*i, &scalars)))
                }
            }
            Expr::Cast(t, a) => match self.eval(a)? {
                RtVal::S(x) => Ok(RtVal::S(x.cast(*t))),
                RtVal::V(xs) => Ok(RtVal::V(xs.into_iter().map(|x| x.cast(*t)).collect())),
            },
            Expr::Pop => Ok(RtVal::S(self.input()?.pop())),
            Expr::Peek(off) => {
                let o = self.eval(off)?;
                let o = self.want_scalar(o, "peek offset")?.as_i64() as usize;
                Ok(RtVal::S(self.input()?.peek(o)))
            }
            Expr::VPop { width } => Ok(RtVal::V(self.input()?.vpop(*width))),
            Expr::VPeek { offset, width } => {
                let o = self.eval(offset)?;
                let o = self.want_scalar(o, "vpeek offset")?.as_i64() as usize;
                let w = *width;
                Ok(RtVal::V(self.input()?.vpeek(o, w)))
            }
            Expr::LPop(c) => match self.chans[c.0 as usize].pop_front() {
                Some(v) => Ok(RtVal::S(v)),
                None => Err(VmError::ChannelUnderflow {
                    filter: self.filter.name.clone(),
                    chan: c.to_string(),
                }),
            },
            Expr::LVPop(c, w) => {
                let ch = &mut self.chans[c.0 as usize];
                if ch.len() < *w {
                    return Err(VmError::ChannelUnderflow {
                        filter: self.filter.name.clone(),
                        chan: format!("{c} (vector)"),
                    });
                }
                Ok(RtVal::V(ch.drain(..*w).collect()))
            }
            Expr::Lane(e, lane) => {
                let v = self.eval(e)?;
                let v = self.want_vector(v, "lane extract")?;
                Ok(RtVal::S(v[*lane]))
            }
            Expr::Splat(e, w) => {
                let x = self.eval(e)?;
                let x = self.want_scalar(x, "splat")?;
                Ok(RtVal::V(vec![x; *w]))
            }
            Expr::PermuteEven(a, b) => {
                let a = self.eval(a)?;
                let a = self.want_vector(a, "permute")?;
                let b = self.eval(b)?;
                let b = self.want_vector(b, "permute")?;
                self.extract_positions(&a, &b, 0)
            }
            Expr::PermuteOdd(a, b) => {
                let a = self.eval(a)?;
                let a = self.want_vector(a, "permute")?;
                let b = self.eval(b)?;
                let b = self.want_vector(b, "permute")?;
                self.extract_positions(&a, &b, 1)
            }
        }
    }

    /// `extract_even` (parity 0) / `extract_odd` (parity 1) of the
    /// concatenation of two equal-width vectors.
    fn extract_positions(&self, a: &[Value], b: &[Value], parity: usize) -> Result<RtVal, VmError> {
        if a.len() != b.len() {
            return Err(self.type_err("permute operands must have equal width"));
        }
        let concat = a.iter().chain(b.iter()).copied().collect::<Vec<_>>();
        Ok(RtVal::V(
            concat.into_iter().skip(parity).step_by(2).collect(),
        ))
    }
}

/// Build the initial slot vector for a filter (all zeros).
pub fn zero_slots(filter: &Filter) -> Vec<Slot> {
    filter.vars.iter().map(|v| Slot::zero_of(v.ty)).collect()
}

/// Reset all `Local` slots of a filter to zero (between firings), leaving
/// `State` slots untouched.
pub fn reset_locals(filter: &Filter, slots: &mut [Slot]) {
    for (i, decl) in filter.vars.iter().enumerate() {
        if decl.kind == VarKind::Local {
            slots[i] = Slot::zero_of(decl.ty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};

    fn fire_once(
        filter: &Filter,
        input: Option<&mut Tape>,
        output: Option<&mut Tape>,
    ) -> Result<CycleCounters, VmError> {
        let machine = Machine::core_i7();
        let mut counters = CycleCounters::default();
        let mut slots = zero_slots(filter);
        let mut chans = vec![VecDeque::new(); filter.chans.len()];
        let mut ctx = FiringCtx {
            filter,
            slots: &mut slots,
            chans: &mut chans,
            input,
            output,
            machine: &machine,
            counters: &mut counters,
            addr: AddrCosts::default(),
        };
        ctx.exec_block(&filter.work)?;
        Ok(counters)
    }

    #[test]
    fn scalar_pipeline_step() {
        let mut fb = FilterBuilder::new("scale", 1, 1, 1, ScalarTy::F32);
        fb.work(|b| {
            b.push(pop() * 2.0f32);
        });
        let f = fb.build();
        let mut inp = Tape::new(ScalarTy::F32);
        inp.push(Value::F32(3.0));
        let mut out = Tape::new(ScalarTy::F32);
        let counters = fire_once(&f, Some(&mut inp), Some(&mut out)).unwrap();
        assert_eq!(out.pop(), Value::F32(6.0));
        // load(2) + mul(3) + store(2)
        assert_eq!(counters.mem_scalar, 4);
        assert_eq!(counters.compute_scalar, 3);
    }

    #[test]
    fn vector_ops_execute_lanewise() {
        use macross_streamir::expr::Expr;
        use macross_streamir::stmt::Stmt;
        let mut fb = FilterBuilder::new("v", 4, 4, 4, ScalarTy::I32);
        let tv = fb.local("t_v", Ty::Vector(ScalarTy::I32, 4));
        fb.work(|b| {
            b.set(tv, E(Expr::VPop { width: 4 }));
            b.stmt(Stmt::VPush {
                value: Expr::bin(
                    macross_streamir::expr::BinOp::Add,
                    Expr::Var(tv),
                    Expr::ConstVec(vec![
                        Value::I32(10),
                        Value::I32(20),
                        Value::I32(30),
                        Value::I32(40),
                    ]),
                ),
                width: 4,
            });
        });
        let f = fb.build();
        let mut inp = Tape::new(ScalarTy::I32);
        inp.vpush(&[Value::I32(1), Value::I32(2), Value::I32(3), Value::I32(4)]);
        let mut out = Tape::new(ScalarTy::I32);
        let counters = fire_once(&f, Some(&mut inp), Some(&mut out)).unwrap();
        assert_eq!(
            out.vpop(4),
            vec![
                Value::I32(11),
                Value::I32(22),
                Value::I32(33),
                Value::I32(44)
            ]
        );
        assert!(counters.compute_vector > 0);
        assert_eq!(counters.compute_scalar, 0);
    }

    #[test]
    fn lane_pack_unpack_costs_tracked() {
        use macross_streamir::expr::Expr;
        let mut fb = FilterBuilder::new("pk", 2, 2, 2, ScalarTy::I32);
        let tv = fb.local("t_v", Ty::Vector(ScalarTy::I32, 2));
        fb.work(|b| {
            b.assign(macross_streamir::expr::LValue::LaneVar(tv, 1), peek(1i32));
            b.assign(macross_streamir::expr::LValue::LaneVar(tv, 0), pop());
            b.push(E(Expr::Lane(Box::new(Expr::Var(tv)), 0)));
            b.push(E(Expr::Lane(Box::new(Expr::Var(tv)), 1)));
            b.stmt(macross_streamir::stmt::Stmt::AdvanceRead(1));
        });
        let f = fb.build();
        let mut inp = Tape::new(ScalarTy::I32);
        inp.push(Value::I32(7));
        inp.push(Value::I32(8));
        let mut out = Tape::new(ScalarTy::I32);
        let counters = fire_once(&f, Some(&mut inp), Some(&mut out)).unwrap();
        assert_eq!(out.pop(), Value::I32(7));
        assert_eq!(out.pop(), Value::I32(8));
        // 2 inserts + 2 extracts at cost 1 each.
        assert_eq!(counters.pack_unpack, 4);
        assert!(inp.is_empty());
    }

    #[test]
    fn permutes_deinterleave() {
        use macross_streamir::expr::Expr;
        let a = Expr::ConstVec((0..4).map(Value::I32).collect());
        let b = Expr::ConstVec((4..8).map(Value::I32).collect());
        let mut fb = FilterBuilder::new("perm", 0, 0, 8, ScalarTy::I32);
        fb.work(|bld| {
            bld.stmt(Stmt::VPush {
                value: Expr::PermuteEven(Box::new(a.clone()), Box::new(b.clone())),
                width: 4,
            });
            bld.stmt(Stmt::VPush {
                value: Expr::PermuteOdd(Box::new(a), Box::new(b)),
                width: 4,
            });
        });
        let f = fb.build();
        let mut out = Tape::new(ScalarTy::I32);
        let counters = fire_once(&f, None, Some(&mut out)).unwrap();
        let even = out.vpop(4);
        let odd = out.vpop(4);
        assert_eq!(
            even,
            vec![Value::I32(0), Value::I32(2), Value::I32(4), Value::I32(6)]
        );
        assert_eq!(
            odd,
            vec![Value::I32(1), Value::I32(3), Value::I32(5), Value::I32(7)]
        );
        assert_eq!(counters.permute, 2);
    }

    #[test]
    fn loop_overhead_charged_per_iteration() {
        let mut fb = FilterBuilder::new("l", 0, 0, 4, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 4i32, |b| {
                b.push(v(i));
            });
        });
        let f = fb.build();
        let mut out = Tape::new(ScalarTy::I32);
        let counters = fire_once(&f, None, Some(&mut out)).unwrap();
        assert_eq!(counters.loop_overhead, 4);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn local_channels_roundtrip() {
        use macross_streamir::expr::Expr;
        let fb = FilterBuilder::new("fused", 1, 1, 1, ScalarTy::I32);
        let f = {
            let mut f = fb.build();
            let c = f.add_chan("buf", Ty::Scalar(ScalarTy::I32));
            f.work = {
                let mut b = B::new();
                b.lpush(c, pop() + 1i32);
                b.push(E(Expr::LPop(c)) + 10i32);
                b.build()
            };
            f
        };
        let mut inp = Tape::new(ScalarTy::I32);
        inp.push(Value::I32(5));
        let mut out = Tape::new(ScalarTy::I32);
        let _ = fire_once(&f, Some(&mut inp), Some(&mut out)).unwrap();
        assert_eq!(out.pop(), Value::I32(16));
    }

    #[test]
    fn mixed_operands_rejected() {
        use macross_streamir::expr::Expr;
        let mut fb = FilterBuilder::new("bad", 0, 0, 0, ScalarTy::I32);
        let tv = fb.local("t", Ty::Vector(ScalarTy::I32, 4));
        fb.work(|b| {
            b.set(tv, E(Expr::Var(tv)) + 1i32);
        });
        let f = fb.build();
        let err = fire_once(&f, None, None).unwrap_err();
        match err {
            VmError::TypeMismatch {
                ref filter,
                ref context,
            } => {
                assert_eq!(filter, "bad");
                assert!(context.contains("mixed scalar/vector"), "{context}");
            }
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_tape_reported() {
        let mut fb = FilterBuilder::new("no_tape", 0, 0, 1, ScalarTy::I32);
        fb.work(|b| {
            b.push(pop());
        });
        let f = fb.build();
        let err = fire_once(&f, None, None).unwrap_err();
        assert_eq!(
            err,
            VmError::MissingTape {
                filter: "no_tape".into(),
                side: TapeSide::Input
            }
        );
    }

    #[test]
    fn channel_underflow_reported() {
        use macross_streamir::expr::Expr;
        let fb = FilterBuilder::new("under", 0, 0, 1, ScalarTy::I32);
        let f = {
            let mut f = fb.build();
            let c = f.add_chan("buf", Ty::Scalar(ScalarTy::I32));
            f.work = {
                let mut b = B::new();
                b.push(E(Expr::LPop(c)));
                b.build()
            };
            f
        };
        let mut out = Tape::new(ScalarTy::I32);
        let err = fire_once(&f, None, Some(&mut out)).unwrap_err();
        assert!(matches!(err, VmError::ChannelUnderflow { .. }), "{err:?}");
    }
}
