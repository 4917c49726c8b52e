//! The firing compiler: lowers a filter's `init`/`work` statement trees
//! into the flat register bytecode of [`crate::bytecode`].
//!
//! Compilation is **all-or-nothing per filter**: if any construct cannot
//! be lowered with provably identical semantics — ill-typed stores that
//! the dynamically-typed tree-walker would tolerate (or fail on at run
//! time), unknown tape element types, shape mismatches — the compiler
//! returns `None` and the filter keeps tree-walking. That guarantee is
//! what lets the differential suite demand bit-identical outputs *and*
//! identical error behaviour: the bytecode path only ever runs programs
//! whose every operation it can reproduce exactly.
//!
//! # Register allocation
//!
//! Each register file has three zones, bottom up. Declared variables get
//! fixed windows (scalars one register, vectors `w`, arrays `n`,
//! vector-arrays `w*n`), split by class into the integer and float files
//! and recorded in [`CompiledFilter::var_windows`]. Above them sits the
//! **constant pool**: a pre-scan gives every scalar literal, `ConstVec`
//! and `Splat` of a literal a window that is loaded once when the register
//! files are created and that no op ever writes, so a literal compiles to
//! an operand and emits nothing. Expression temporaries are bump-allocated
//! above the pool and released per statement, so the files stay small.
//!
//! The destination of a value-producing op is a fresh temporary, or — for
//! the outermost op of `x = expr` / `v.lane = expr` — the variable's own
//! window (**destination forwarding**, [`Compiler::dest`]), which saves
//! the move. Either way every source window in the destination's file is
//! disjoint from it or, for the lane-wise ops `crate::lanes` runs
//! identical-or-disjoint, identical to it: the aliasing invariant the
//! vector ops in the VM rely on.
//!
//! # Cycle accounting
//!
//! Every charge the tree-walker makes is accumulated into the pending
//! [`ChargeEntry`] of the innermost enclosing block. A loop body's entry
//! is multiplied by the trip count into the enclosing block — at compile
//! time when the count is an integer literal (nests multiply), by one
//! [`Op::ChargeTimes`] behind the loop otherwise — so a body without an
//! `If` ends in exactly one [`Op::Charge`]; only the branches of an `If`
//! are charged in place. Counter fields are `u64` sums, so aggregation
//! order cannot change totals; per-access input/output reorder costs are
//! kept as *counts* and multiplied by the edge costs at run time, exactly
//! like the tree-walker's incremental additions.

use crate::bytecode::{ChargeEntry, CompiledFilter, Op};
use crate::machine::Machine;
use crate::tape::raw_of;
use macross_streamir::expr::{BinOp, Expr, Intrinsic, LValue, UnOp};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{ScalarTy, Ty, Value};
use std::collections::HashMap;

/// A compiled expression value: a scalar register or `w` consecutive
/// registers, in the file selected by `ty`'s class.
#[derive(Debug, Clone, Copy)]
struct Operand {
    ty: ScalarTy,
    /// `None` for scalars, `Some(w)` for vectors.
    w: Option<u32>,
    reg: u32,
}

impl Operand {
    fn is_float(&self) -> bool {
        self.ty.is_float()
    }
}

/// A declared variable's register window.
#[derive(Debug, Clone, Copy)]
struct VarSlot {
    ty: Ty,
    base: u32,
}

/// The variable window the outermost op of an assignment may write
/// directly instead of a fresh temporary.
#[derive(Debug, Clone, Copy)]
struct Window {
    float: bool,
    base: u32,
    len: u32,
}

/// One register file's constant pool: register images in pool order and
/// a hashed index from a constant's image to its offset, so interning and
/// lookup stay linear in the size of the filter.
#[derive(Default)]
struct Pool {
    base: u32,
    bits: Vec<u64>,
    index: HashMap<Vec<u64>, u32>,
}

impl Pool {
    fn intern(&mut self, image: &[u64]) {
        if !self.index.contains_key(image) {
            self.index.insert(image.to_vec(), self.bits.len() as u32);
            self.bits.extend_from_slice(image);
        }
    }
}

/// The constant `e` denotes, if it is one the pool holds — a scalar
/// literal, a homogeneous `ConstVec` or a `Splat` of a literal — as
/// `(type, width)`, with its register image left in `image` (a scratch
/// buffer, so a lookup allocates nothing). The image is what the registers
/// hold (`i32` sign-extended, `f32` exactly widened) as bit patterns, so
/// equal values of both widths share a window while `-0.0` and each NaN
/// payload keep their own.
fn pooled(e: &Expr, image: &mut Vec<u64>) -> Option<(ScalarTy, Option<u32>)> {
    image.clear();
    match e {
        Expr::Const(v) => {
            image.push(raw_of(*v));
            Some((v.ty(), None))
        }
        Expr::ConstVec(vs) => {
            let ty = vs.first()?.ty();
            let w = u32::try_from(vs.len()).ok()?;
            image.extend(vs.iter().map(|v| raw_of(*v)));
            vs.iter().all(|v| v.ty() == ty).then_some((ty, Some(w)))
        }
        Expr::Splat(x, w) => match **x {
            Expr::Const(v) => {
                let lanes = u32::try_from(*w).ok()?;
                image.resize(*w, raw_of(v));
                Some((v.ty(), Some(lanes)))
            }
            _ => None,
        },
        _ => None,
    }
}

struct Compiler<'a> {
    machine: &'a Machine,
    in_elem: Option<ScalarTy>,
    out_elem: Option<ScalarTy>,
    chan_elems: Vec<ScalarTy>,
    vars: Vec<VarSlot>,
    pool_i: Pool,
    pool_f: Pool,
    /// Scratch for [`pooled`].
    image: Vec<u64>,
    code: Vec<Op>,
    charges: Vec<ChargeEntry>,
    /// Charges of the innermost enclosing block (function body, loop body
    /// or `If` branch) not yet emitted or folded into its parent.
    pending: ChargeEntry,
    cur_i: u32,
    cur_f: u32,
    max_i: u32,
    max_f: u32,
}

fn window_len(ty: Ty) -> Option<u32> {
    let n = match ty {
        Ty::Scalar(_) => 1,
        Ty::Vector(_, w) => w,
        Ty::Array(_, n) => n,
        Ty::VectorArray(_, w, n) => w.checked_mul(n)?,
    };
    u32::try_from(n).ok()
}

/// Compile a filter's `init` and `work` bodies to bytecode.
///
/// `in_elem` / `out_elem` are the element types of the filter's
/// input/output edges (`None` when the filter has no such edge — any tape
/// op then forces a fallback, since its element type is unknowable).
/// Returns `None` when any construct cannot be lowered exactly; the
/// caller must then keep the tree-walking engine for this filter.
pub fn compile_filter(
    filter: &Filter,
    in_elem: Option<ScalarTy>,
    out_elem: Option<ScalarTy>,
    machine: &Machine,
) -> Option<CompiledFilter> {
    let mut vars = Vec::with_capacity(filter.vars.len());
    let mut var_windows = Vec::with_capacity(filter.vars.len());
    let mut zero_i = Vec::new();
    let mut zero_f = Vec::new();
    let mut ni = 0u32;
    let mut nf = 0u32;
    for decl in &filter.vars {
        let len = window_len(decl.ty)?;
        let float = decl.ty.elem().is_float();
        let (cursor, zeros) = if float {
            (&mut nf, &mut zero_f)
        } else {
            (&mut ni, &mut zero_i)
        };
        let base = *cursor;
        *cursor = cursor.checked_add(len)?;
        if decl.kind == VarKind::Local && len > 0 {
            // Windows are allocated in declaration order, so a `Local`
            // that follows another in its file extends the same range.
            match zeros.last_mut() {
                Some((b, l)) if *b + *l == base => *l += len,
                _ => zeros.push((base, len)),
            }
        }
        vars.push(VarSlot { ty: decl.ty, base });
        var_windows.push((base, len, float));
    }
    // The pool zone sits between the variables and the temporaries, so
    // its size has to be known before the first temporary is allocated.
    let pool_at = |base| Pool {
        base,
        ..Pool::default()
    };
    let (mut pool_i, mut pool_f, mut image) = (pool_at(ni), pool_at(nf), Vec::new());
    for s in filter.init.iter().chain(&filter.work) {
        s.walk_exprs(&mut |e| match pooled(e, &mut image) {
            Some((ty, _)) if ty.is_float() => pool_f.intern(&image),
            Some(_) => pool_i.intern(&image),
            None => {}
        });
    }
    let temp_i = ni.checked_add(u32::try_from(pool_i.bits.len()).ok()?)?;
    let temp_f = nf.checked_add(u32::try_from(pool_f.bits.len()).ok()?)?;
    let mut c = Compiler {
        machine,
        in_elem,
        out_elem,
        chan_elems: filter.chans.iter().map(|ch| ch.ty.elem()).collect(),
        vars,
        pool_i,
        pool_f,
        image,
        code: Vec::new(),
        charges: Vec::new(),
        pending: ChargeEntry::default(),
        cur_i: temp_i,
        cur_f: temp_f,
        max_i: temp_i,
        max_f: temp_f,
    };
    let init = c.compile_body(&filter.init)?;
    let work = c.compile_body(&filter.work)?;
    Some(CompiledFilter {
        name: filter.name.clone(),
        in_elem,
        out_elem,
        int_regs: c.max_i,
        float_regs: c.max_f,
        var_windows,
        pool_i: (ni, c.pool_i.bits.iter().map(|&b| b as i64).collect()),
        pool_f: (
            nf,
            c.pool_f.bits.iter().map(|&b| f64::from_bits(b)).collect(),
        ),
        zero_i,
        zero_f,
        init,
        work,
        charges: c.charges,
    })
}

impl<'a> Compiler<'a> {
    fn compile_body(&mut self, stmts: &[Stmt]) -> Option<Vec<Op>> {
        debug_assert!(self.pending.is_zero());
        self.code = Vec::new();
        self.compile_block(stmts)?;
        self.flush();
        Some(std::mem::take(&mut self.code))
    }

    fn compile_block(&mut self, stmts: &[Stmt]) -> Option<()> {
        for s in stmts {
            // Expression temporaries live only for their statement.
            let (ci, cf) = (self.cur_i, self.cur_f);
            self.compile_stmt(s)?;
            self.cur_i = ci;
            self.cur_f = cf;
        }
        Some(())
    }

    fn emit(&mut self, op: Op) {
        self.code.push(op);
    }

    /// Emit an op whose jump target will be patched later.
    fn emit_patch(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Op::Jump { target: t }
            | Op::JumpIfZI { target: t, .. }
            | Op::JumpIfZF { target: t, .. }
            | Op::LoopEnter { exit: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Emit the block's pending charges in place as a single `Charge` op
    /// (end of an `If` branch or of the function body).
    fn flush(&mut self) {
        if self.pending.is_zero() {
            return;
        }
        let idx = self.charges.len() as u32;
        self.charges.push(self.pending);
        self.pending = ChargeEntry::default();
        self.emit(Op::Charge(idx));
    }

    fn alloc(&mut self, float: bool, n: u32) -> u32 {
        if float {
            let r = self.cur_f;
            self.cur_f += n;
            self.max_f = self.max_f.max(self.cur_f);
            r
        } else {
            let r = self.cur_i;
            self.cur_i += n;
            self.max_i = self.max_i.max(self.cur_i);
            r
        }
    }

    /// Where a value-producing op writes: the forwarded window `want` when
    /// that is legal — same file and width, and every window of `srcs`
    /// (the op's sources as `(is_float, base, len)`) that lies in that
    /// file disjoint from it or, for the `lanewise` ops (lane `k` reads
    /// only lane `k`), identical to it — else a fresh temporary.
    /// Sub-expressions are compiled with no `want`, so only the op that
    /// produces the assigned value itself can land in the variable, and a
    /// pool register is never written.
    fn dest(
        &mut self,
        want: Option<Window>,
        float: bool,
        w: u32,
        lanewise: bool,
        srcs: &[(bool, u32, u32)],
    ) -> u32 {
        if let Some(win) = want.filter(|win| win.float == float && win.len == w) {
            let clear = |&(f, s, len): &(bool, u32, u32)| {
                f != float
                    || s + len <= win.base
                    || win.base + w <= s
                    || (lanewise && (s, len) == (win.base, w))
            };
            if srcs.iter().all(clear) {
                return win.base;
            }
        }
        self.alloc(float, w)
    }

    /// The window `lv = expr` may forward to: a whole scalar or vector
    /// variable, or one lane of a vector variable — the lvalues with no
    /// index to evaluate after the value.
    fn forward_window(&self, lv: &LValue) -> Option<Window> {
        let (slot, lane) = match *lv {
            LValue::Var(v) => (self.vars.get(v.0 as usize)?, None),
            LValue::LaneVar(v, lane) => (self.vars.get(v.0 as usize)?, Some(lane)),
            _ => return None,
        };
        let float = slot.ty.elem().is_float();
        let (base, len) = match (slot.ty, lane) {
            (Ty::Scalar(_), None) => (slot.base, 1),
            (Ty::Vector(_, w), None) => (slot.base, u32::try_from(w).ok()?),
            (Ty::Vector(_, w), Some(lane)) if lane < w => (slot.base + lane as u32, 1),
            _ => return None,
        };
        Some(Window { float, base, len })
    }

    /// `window at dst <- val`, a register move (free in the cost model)
    /// unless `val` was forwarded there and already is the window.
    fn emit_mov(&mut self, dst: u32, val: Operand) {
        let src = val.reg;
        if src != dst {
            self.emit(match (val.is_float(), val.w) {
                (false, None) => Op::MovI { dst, src },
                (true, None) => Op::MovF { dst, src },
                (false, Some(w)) => Op::MovNI { dst, src, w },
                (true, Some(w)) => Op::MovNF { dst, src, w },
            });
        }
    }

    /// An index/offset/count register: scalar operand as `i64` (floats go
    /// through the free `as_i64` conversion, like the tree-walker).
    fn as_index(&mut self, op: Operand) -> Option<u32> {
        if op.w.is_some() {
            return None;
        }
        if op.is_float() {
            let dst = self.alloc(false, 1);
            self.emit(Op::FToI { dst, a: op.reg });
            Some(dst)
        } else {
            Some(op.reg)
        }
    }

    fn scalar_binop_cost(&self, op: BinOp) -> u64 {
        match op {
            BinOp::Mul => self.machine.cost.mul,
            BinOp::Div | BinOp::Rem => self.machine.cost.div,
            _ => self.machine.cost.alu,
        }
    }

    fn vector_binop_cost(&self, op: BinOp) -> u64 {
        match op {
            BinOp::Mul => self.machine.cost.vmul,
            BinOp::Div | BinOp::Rem => self.machine.cost.vdiv,
            _ => self.machine.cost.valu,
        }
    }

    fn compile_stmt(&mut self, s: &Stmt) -> Option<()> {
        match s {
            Stmt::Assign(lv, e) => {
                let want = self.forward_window(lv);
                let val = self.compile_expr_to(e, want)?;
                self.compile_store(lv, val)
            }
            Stmt::Push(e) => {
                let val = self.compile_expr(e)?;
                let ty = self.out_elem?;
                if val.w.is_some() || val.ty != ty {
                    return None;
                }
                self.pending.counters.mem_scalar += self.machine.cost.store;
                self.pending.out_addr += 1;
                self.emit(if val.is_float() {
                    Op::PushF { src: val.reg }
                } else {
                    Op::PushI { src: val.reg }
                });
                Some(())
            }
            Stmt::RPush { value, offset } => {
                let val = self.compile_expr(value)?;
                let ty = self.out_elem?;
                if val.w.is_some() || val.ty != ty {
                    return None;
                }
                let off = self.compile_expr(offset)?;
                let off = self.as_index(off)?;
                self.pending.counters.mem_scalar += self.machine.cost.store;
                // rpush pays a flat ALU for its offset arithmetic, not the
                // per-edge reorder cost (the producer *is* the reorderer).
                self.pending.counters.addr_overhead += self.machine.cost.alu;
                self.emit(if val.is_float() {
                    Op::RPushF { src: val.reg, off }
                } else {
                    Op::RPushI { src: val.reg, off }
                });
                Some(())
            }
            Stmt::VPush { value, width } => {
                let val = self.compile_expr(value)?;
                let ty = self.out_elem?;
                if val.ty != ty || val.w != Some(u32::try_from(*width).ok()?) {
                    return None;
                }
                self.pending.counters.mem_vector += self.machine.cost.vstore;
                let w = val.w.expect("checked vector");
                self.emit(if val.is_float() {
                    Op::VPushF { src: val.reg, w }
                } else {
                    Op::VPushI { src: val.reg, w }
                });
                Some(())
            }
            Stmt::LPush(c, e) => {
                let val = self.compile_expr(e)?;
                let ty = *self.chan_elems.get(c.0 as usize)?;
                if val.w.is_some() || val.ty != ty {
                    return None;
                }
                self.pending.counters.mem_scalar += self.machine.cost.store;
                let chan = c.0;
                self.emit(if val.is_float() {
                    Op::LPushF { chan, src: val.reg }
                } else {
                    Op::LPushI { chan, src: val.reg }
                });
                Some(())
            }
            Stmt::LVPush(c, e, width) => {
                let val = self.compile_expr(e)?;
                let ty = *self.chan_elems.get(c.0 as usize)?;
                if val.ty != ty || val.w != Some(u32::try_from(*width).ok()?) {
                    return None;
                }
                self.pending.counters.mem_vector += self.machine.cost.vstore;
                let (chan, w) = (c.0, val.w.expect("checked vector"));
                self.emit(if val.is_float() {
                    Op::LVPushF {
                        chan,
                        src: val.reg,
                        w,
                    }
                } else {
                    Op::LVPushI {
                        chan,
                        src: val.reg,
                        w,
                    }
                });
                Some(())
            }
            Stmt::For { var, count, body } => {
                // The loop variable must be a declared i32 scalar: the
                // tree-walker overwrites the slot with `Value::I32`
                // regardless of declaration, which the typed register file
                // cannot reproduce for any other declaration.
                let slot = *self.vars.get(var.0 as usize)?;
                if slot.ty != Ty::Scalar(ScalarTy::I32) {
                    return None;
                }
                let cnt = self.compile_expr(count)?;
                if cnt.w.is_some() {
                    return None;
                }
                // Loop setup.
                self.pending.counters.compute_scalar += self.machine.cost.alu;
                // The limit has to survive the body. A pool register or a
                // temporary of this statement does; a variable may be
                // reassigned in the body, so it is copied.
                let limit = if cnt.is_float() {
                    self.as_index(cnt)?
                } else if cnt.reg < self.pool_i.base {
                    let dst = self.alloc(false, 1);
                    self.emit(Op::MovI { dst, src: cnt.reg });
                    dst
                } else {
                    cnt.reg
                };
                let counter = self.alloc(false, 1);
                let enter = self.emit_patch(Op::LoopEnter {
                    counter,
                    limit,
                    var: slot.base,
                    exit: 0,
                });
                let top = self.here();
                let outer = std::mem::take(&mut self.pending);
                self.pending.counters.loop_overhead += self.machine.cost.loop_iter;
                self.compile_block(body)?;
                let per_iter = std::mem::replace(&mut self.pending, outer);
                self.emit(Op::LoopNext {
                    counter,
                    limit,
                    var: slot.base,
                    body: top,
                });
                match count {
                    // A literal trip count: the body's charges fold into
                    // the enclosing block here, `n` times over.
                    Expr::Const(n @ (Value::I32(_) | Value::I64(_))) => {
                        let n = n.as_i64().max(0) as u64;
                        self.pending.absorb(&per_iter.times(n)?);
                    }
                    _ if per_iter.is_zero() => {}
                    _ => {
                        let idx = self.charges.len() as u32;
                        self.charges.push(per_iter);
                        self.emit(Op::ChargeTimes { idx, n: limit });
                    }
                }
                let exit = self.here();
                self.patch(enter, exit);
                Some(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.compile_expr(cond)?;
                if c.w.is_some() {
                    return None;
                }
                self.pending.counters.compute_scalar += self.machine.cost.alu; // branch
                let outer = std::mem::take(&mut self.pending);
                let to_else = self.emit_patch(if c.is_float() {
                    Op::JumpIfZF {
                        cond: c.reg,
                        target: 0,
                    }
                } else {
                    Op::JumpIfZI {
                        cond: c.reg,
                        target: 0,
                    }
                });
                self.compile_block(then_branch)?;
                self.flush();
                let to_end = self.emit_patch(Op::Jump { target: 0 });
                let else_label = self.here();
                self.patch(to_else, else_label);
                self.compile_block(else_branch)?;
                self.flush();
                let end = self.here();
                self.patch(to_end, end);
                self.pending = outer;
                Some(())
            }
            Stmt::AdvanceRead(n) => {
                self.pending.counters.addr_overhead += self.machine.cost.alu;
                let n = u32::try_from(*n).ok()?;
                self.emit(Op::AdvRead { n });
                Some(())
            }
            Stmt::AdvanceWrite(n) => {
                self.pending.counters.addr_overhead += self.machine.cost.alu;
                let n = u32::try_from(*n).ok()?;
                self.emit(Op::AdvWrite { n });
                Some(())
            }
        }
    }

    /// Lower `lv = val`. Evaluation order matches the tree-walker: the
    /// value is already compiled; any lvalue index is compiled after it.
    fn compile_store(&mut self, lv: &LValue, val: Operand) -> Option<()> {
        match lv {
            LValue::Var(v) => {
                let slot = *self.vars.get(v.0 as usize)?;
                match (slot.ty, val.w) {
                    (Ty::Scalar(t), None) if t == val.ty => self.emit_mov(slot.base, val),
                    (Ty::Vector(t, w), Some(vw)) if t == val.ty && u32::try_from(w).ok()? == vw => {
                        self.emit_mov(slot.base, val)
                    }
                    _ => return None,
                }
                Some(())
            }
            LValue::Index(v, i) => {
                let slot = *self.vars.get(v.0 as usize)?;
                let idx = self.compile_expr(i)?;
                let idx = self.as_index(idx)?;
                match (slot.ty, val.w) {
                    (Ty::Array(t, n), None) if t == val.ty => {
                        self.pending.counters.mem_scalar += self.machine.cost.store;
                        let len = u32::try_from(n).ok()?;
                        self.emit(if val.is_float() {
                            Op::StoreIdxF {
                                base: slot.base,
                                len,
                                idx,
                                src: val.reg,
                            }
                        } else {
                            Op::StoreIdxI {
                                base: slot.base,
                                len,
                                idx,
                                src: val.reg,
                            }
                        });
                        Some(())
                    }
                    (Ty::VectorArray(t, w, n), Some(vw))
                        if t == val.ty && u32::try_from(w).ok()? == vw =>
                    {
                        self.pending.counters.mem_vector += self.machine.cost.vstore;
                        let len = u32::try_from(n).ok()?;
                        self.emit(if val.is_float() {
                            Op::StoreVElemF {
                                base: slot.base,
                                len,
                                idx,
                                src: val.reg,
                                w: vw,
                            }
                        } else {
                            Op::StoreVElemI {
                                base: slot.base,
                                len,
                                idx,
                                src: val.reg,
                                w: vw,
                            }
                        });
                        Some(())
                    }
                    _ => None,
                }
            }
            LValue::VIndex(v, i, _) => {
                let slot = *self.vars.get(v.0 as usize)?;
                let idx = self.compile_expr(i)?;
                let idx = self.as_index(idx)?;
                // The tree-walker copies `vals.len()` elements, ignoring
                // the annotation; mirror that by using the value's width.
                let vw = val.w?;
                match slot.ty {
                    Ty::Array(t, n) if t == val.ty => {
                        self.pending.counters.mem_vector += self.machine.cost.vstore;
                        let len = u32::try_from(n).ok()?;
                        self.emit(if val.is_float() {
                            Op::StoreVSliceF {
                                base: slot.base,
                                len,
                                idx,
                                src: val.reg,
                                w: vw,
                            }
                        } else {
                            Op::StoreVSliceI {
                                base: slot.base,
                                len,
                                idx,
                                src: val.reg,
                                w: vw,
                            }
                        });
                        Some(())
                    }
                    _ => None,
                }
            }
            LValue::LaneVar(v, lane) => {
                let slot = *self.vars.get(v.0 as usize)?;
                match slot.ty {
                    Ty::Vector(t, w) if t == val.ty && val.w.is_none() && *lane < w => {
                        self.pending.counters.pack_unpack += self.machine.cost.lane_insert;
                        self.emit_mov(slot.base + u32::try_from(*lane).ok()?, val);
                        Some(())
                    }
                    _ => None,
                }
            }
            LValue::LaneIndex(v, i, lane) => {
                let slot = *self.vars.get(v.0 as usize)?;
                let idx = self.compile_expr(i)?;
                let idx = self.as_index(idx)?;
                match slot.ty {
                    Ty::VectorArray(t, w, n) if t == val.ty && val.w.is_none() && *lane < w => {
                        self.pending.counters.pack_unpack += self.machine.cost.lane_insert;
                        let (len, w, lane) = (
                            u32::try_from(n).ok()?,
                            u32::try_from(w).ok()?,
                            u32::try_from(*lane).ok()?,
                        );
                        self.emit(if val.is_float() {
                            Op::LaneStoreF {
                                base: slot.base,
                                len,
                                idx,
                                lane,
                                w,
                                src: val.reg,
                            }
                        } else {
                            Op::LaneStoreI {
                                base: slot.base,
                                len,
                                idx,
                                lane,
                                w,
                                src: val.reg,
                            }
                        });
                        Some(())
                    }
                    _ => None,
                }
            }
        }
    }

    fn compile_expr(&mut self, e: &Expr) -> Option<Operand> {
        self.compile_expr_to(e, None)
    }

    /// A constant's pool window as an operand: nothing to emit, only the
    /// charges the tree-walker makes for evaluating it.
    fn pooled_operand(&mut self, e: &Expr) -> Option<Operand> {
        let (ty, w) = pooled(e, &mut self.image)?;
        match e {
            Expr::ConstVec(_) => self.pending.counters.mem_vector += self.machine.cost.vload,
            Expr::Splat(..) => self.pending.counters.pack_unpack += self.machine.cost.splat,
            _ => {}
        }
        let pool = if ty.is_float() {
            &self.pool_f
        } else {
            &self.pool_i
        };
        let reg = pool.base + pool.index.get(&self.image[..])?;
        Some(Operand { ty, w, reg })
    }

    /// [`Self::compile_expr`] for the value of an assignment: the op that
    /// produces it may write `want` (see [`Self::dest`]).
    fn compile_expr_to(&mut self, e: &Expr, want: Option<Window>) -> Option<Operand> {
        match e {
            Expr::Const(_) | Expr::ConstVec(_) => self.pooled_operand(e),
            Expr::Var(v) => {
                let slot = *self.vars.get(v.0 as usize)?;
                match slot.ty {
                    // Reads are free (register residency); aggregates
                    // cannot be read as values (tree-walk errors).
                    Ty::Scalar(t) => Some(Operand {
                        ty: t,
                        w: None,
                        reg: slot.base,
                    }),
                    Ty::Vector(t, w) => Some(Operand {
                        ty: t,
                        w: Some(u32::try_from(w).ok()?),
                        reg: slot.base,
                    }),
                    _ => None,
                }
            }
            Expr::Index(v, i) => {
                let slot = *self.vars.get(v.0 as usize)?;
                let idx = self.compile_expr(i)?;
                let idx = self.as_index(idx)?;
                match slot.ty {
                    Ty::Array(t, n) => {
                        self.pending.counters.mem_scalar += self.machine.cost.load;
                        let len = u32::try_from(n).ok()?;
                        let srcs = [(t.is_float(), slot.base, len), (false, idx, 1)];
                        let dst = self.dest(want, t.is_float(), 1, false, &srcs);
                        self.emit(if t.is_float() {
                            Op::LoadIdxF {
                                dst,
                                base: slot.base,
                                len,
                                idx,
                            }
                        } else {
                            Op::LoadIdxI {
                                dst,
                                base: slot.base,
                                len,
                                idx,
                            }
                        });
                        Some(Operand {
                            ty: t,
                            w: None,
                            reg: dst,
                        })
                    }
                    Ty::VectorArray(t, w, n) => {
                        self.pending.counters.mem_vector += self.machine.cost.vload;
                        let (len, w) = (u32::try_from(n).ok()?, u32::try_from(w).ok()?);
                        let srcs = [(t.is_float(), slot.base, len * w), (false, idx, 1)];
                        let dst = self.dest(want, t.is_float(), w, false, &srcs);
                        self.emit(if t.is_float() {
                            Op::LoadVElemF {
                                dst,
                                base: slot.base,
                                len,
                                idx,
                                w,
                            }
                        } else {
                            Op::LoadVElemI {
                                dst,
                                base: slot.base,
                                len,
                                idx,
                                w,
                            }
                        });
                        Some(Operand {
                            ty: t,
                            w: Some(w),
                            reg: dst,
                        })
                    }
                    _ => None,
                }
            }
            Expr::VIndex(v, i, w) => {
                let slot = *self.vars.get(v.0 as usize)?;
                let idx = self.compile_expr(i)?;
                let idx = self.as_index(idx)?;
                let w = u32::try_from(*w).ok()?;
                match slot.ty {
                    Ty::Array(t, n) => {
                        self.pending.counters.mem_vector += self.machine.cost.vload;
                        let len = u32::try_from(n).ok()?;
                        let srcs = [(t.is_float(), slot.base, len), (false, idx, 1)];
                        let dst = self.dest(want, t.is_float(), w, false, &srcs);
                        self.emit(if t.is_float() {
                            Op::LoadVSliceF {
                                dst,
                                base: slot.base,
                                len,
                                idx,
                                w,
                            }
                        } else {
                            Op::LoadVSliceI {
                                dst,
                                base: slot.base,
                                len,
                                idx,
                                w,
                            }
                        });
                        Some(Operand {
                            ty: t,
                            w: Some(w),
                            reg: dst,
                        })
                    }
                    _ => None,
                }
            }
            Expr::Unary(op, a) => {
                let a = self.compile_expr(a)?;
                match a.w {
                    None => {
                        self.pending.counters.compute_scalar += self.machine.cost.alu;
                        self.unary(*op, a, None, want)
                    }
                    Some(w) => {
                        self.pending.counters.compute_vector += self.machine.cost.valu;
                        self.unary(*op, a, Some(w), want)
                    }
                }
            }
            Expr::Binary(op, a, b) => {
                let a = self.compile_expr(a)?;
                let b = self.compile_expr(b)?;
                if a.ty != b.ty || a.w != b.w {
                    // Mixed widths/classes: tree-walk errors or panics.
                    return None;
                }
                if a.is_float() && op.is_integer_only() {
                    return None;
                }
                let (float, cmp) = (a.is_float(), op.is_comparison());
                match a.w {
                    None => self.pending.counters.compute_scalar += self.scalar_binop_cost(*op),
                    Some(_) => self.pending.counters.compute_vector += self.vector_binop_cost(*op),
                }
                // Comparisons yield I32 0/1 lanes, so a float comparison
                // lands in the integer file.
                let lanes = a.w.unwrap_or(1);
                let srcs = [(float, a.reg, lanes), (float, b.reg, lanes)];
                let dst = self.dest(want, float && !cmp, lanes, true, &srcs);
                let (op, ty, w, a, b) = (*op, a.ty, a.w, a.reg, b.reg);
                self.emit(match (float, cmp, w) {
                    (true, true, None) => Op::CmpF { op, dst, a, b },
                    (true, true, Some(w)) => Op::VCmpF { op, dst, a, b, w },
                    (true, false, None) => Op::BinF { op, ty, dst, a, b },
                    (true, false, Some(w)) => Op::VBinF {
                        op,
                        ty,
                        dst,
                        a,
                        b,
                        w,
                    },
                    (false, _, None) => Op::BinI { op, ty, dst, a, b },
                    (false, _, Some(w)) => Op::VBinI {
                        op,
                        ty,
                        dst,
                        a,
                        b,
                        w,
                    },
                });
                let ty = if cmp { ScalarTy::I32 } else { ty };
                Some(Operand { ty, w, reg: dst })
            }
            Expr::Call(i, args) => {
                if args.len() != i.arity() {
                    return None; // tree-walk asserts on arity
                }
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    ops.push(self.compile_expr(a)?);
                }
                let a = ops[0];
                if ops.iter().any(|o| o.ty != a.ty || o.w != a.w) {
                    return None;
                }
                self.intrinsic(*i, &ops, want)
            }
            Expr::Cast(t, a) => {
                let a = self.compile_expr(a)?;
                let to = *t;
                match a.w {
                    None => {
                        self.pending.counters.compute_scalar += self.machine.cost.alu;
                        let srcs = [(a.is_float(), a.reg, 1)];
                        let dst = self.dest(want, to.is_float(), 1, true, &srcs);
                        self.emit(cast_op(a.ty, to, dst, a.reg, None));
                        Some(Operand {
                            ty: to,
                            w: None,
                            reg: dst,
                        })
                    }
                    Some(w) => {
                        self.pending.counters.compute_vector += self.machine.cost.valu;
                        let srcs = [(a.is_float(), a.reg, w)];
                        let dst = self.dest(want, to.is_float(), w, true, &srcs);
                        self.emit(cast_op(a.ty, to, dst, a.reg, Some(w)));
                        Some(Operand {
                            ty: to,
                            w: Some(w),
                            reg: dst,
                        })
                    }
                }
            }
            Expr::Pop => {
                let ty = self.in_elem?;
                self.pending.counters.mem_scalar += self.machine.cost.load;
                self.pending.in_addr += 1;
                let dst = self.dest(want, ty.is_float(), 1, false, &[]);
                self.emit(if ty.is_float() {
                    Op::PopF { dst }
                } else {
                    Op::PopI { dst }
                });
                Some(Operand {
                    ty,
                    w: None,
                    reg: dst,
                })
            }
            Expr::Peek(off) => {
                let o = self.compile_expr(off)?;
                let off = self.as_index(o)?;
                let ty = self.in_elem?;
                self.pending.counters.mem_scalar += self.machine.cost.load;
                self.pending.in_addr += 1;
                let dst = self.dest(want, ty.is_float(), 1, false, &[(false, off, 1)]);
                self.emit(if ty.is_float() {
                    Op::PeekF { dst, off }
                } else {
                    Op::PeekI { dst, off }
                });
                Some(Operand {
                    ty,
                    w: None,
                    reg: dst,
                })
            }
            Expr::VPop { width } => {
                let ty = self.in_elem?;
                let w = u32::try_from(*width).ok()?;
                self.pending.counters.mem_vector += self.machine.cost.vload;
                let dst = self.dest(want, ty.is_float(), w, false, &[]);
                self.emit(if ty.is_float() {
                    Op::VPopF { dst, w }
                } else {
                    Op::VPopI { dst, w }
                });
                Some(Operand {
                    ty,
                    w: Some(w),
                    reg: dst,
                })
            }
            Expr::VPeek { offset, width } => {
                let o = self.compile_expr(offset)?;
                let off = self.as_index(o)?;
                let ty = self.in_elem?;
                let w = u32::try_from(*width).ok()?;
                self.pending.counters.mem_vector += self.machine.cost.vload;
                let dst = self.dest(want, ty.is_float(), w, false, &[(false, off, 1)]);
                self.emit(if ty.is_float() {
                    Op::VPeekF { dst, off, w }
                } else {
                    Op::VPeekI { dst, off, w }
                });
                Some(Operand {
                    ty,
                    w: Some(w),
                    reg: dst,
                })
            }
            Expr::LPop(c) => {
                let ty = *self.chan_elems.get(c.0 as usize)?;
                self.pending.counters.mem_scalar += self.machine.cost.load;
                let dst = self.dest(want, ty.is_float(), 1, false, &[]);
                let chan = c.0;
                self.emit(if ty.is_float() {
                    Op::LPopF { chan, dst }
                } else {
                    Op::LPopI { chan, dst }
                });
                Some(Operand {
                    ty,
                    w: None,
                    reg: dst,
                })
            }
            Expr::LVPop(c, width) => {
                let ty = *self.chan_elems.get(c.0 as usize)?;
                let w = u32::try_from(*width).ok()?;
                self.pending.counters.mem_vector += self.machine.cost.vload;
                let dst = self.dest(want, ty.is_float(), w, false, &[]);
                let chan = c.0;
                self.emit(if ty.is_float() {
                    Op::LVPopF { chan, dst, w }
                } else {
                    Op::LVPopI { chan, dst, w }
                });
                Some(Operand {
                    ty,
                    w: Some(w),
                    reg: dst,
                })
            }
            Expr::Lane(e, lane) => {
                let v = self.compile_expr(e)?;
                let w = v.w?;
                let lane = u32::try_from(*lane).ok()?;
                if lane >= w {
                    return None; // tree-walk panics on lane OOB
                }
                self.pending.counters.pack_unpack += self.machine.cost.lane_extract;
                // A lane is just a register offset; no move needed. The
                // source registers cannot be overwritten before use:
                // expressions have no variable side effects.
                Some(Operand {
                    ty: v.ty,
                    w: None,
                    reg: v.reg + lane,
                })
            }
            Expr::Splat(x, _) if matches!(**x, Expr::Const(_)) => self.pooled_operand(e),
            Expr::Splat(e, width) => {
                let x = self.compile_expr(e)?;
                if x.w.is_some() {
                    return None;
                }
                let w = u32::try_from(*width).ok()?;
                self.pending.counters.pack_unpack += self.machine.cost.splat;
                let dst = self.dest(want, x.is_float(), w, false, &[(x.is_float(), x.reg, 1)]);
                self.emit(if x.is_float() {
                    Op::SplatF { dst, a: x.reg, w }
                } else {
                    Op::SplatI { dst, a: x.reg, w }
                });
                Some(Operand {
                    ty: x.ty,
                    w: Some(w),
                    reg: dst,
                })
            }
            Expr::PermuteEven(a, b) => self.permute(a, b, 0, want),
            Expr::PermuteOdd(a, b) => self.permute(a, b, 1, want),
        }
    }

    fn permute(
        &mut self,
        a: &Expr,
        b: &Expr,
        parity: u32,
        want: Option<Window>,
    ) -> Option<Operand> {
        let a = self.compile_expr(a)?;
        let b = self.compile_expr(b)?;
        let w = a.w?;
        if b.w != Some(w) || a.ty != b.ty {
            return None;
        }
        self.pending.counters.permute += self.machine.cost.permute;
        // Lane `k` of a permute reads lane `2k` or `2k + 1`: it must not
        // write over its sources.
        let srcs = [(a.is_float(), a.reg, w), (a.is_float(), b.reg, w)];
        let dst = self.dest(want, a.is_float(), w, false, &srcs);
        self.emit(if a.is_float() {
            Op::PermF {
                parity,
                dst,
                a: a.reg,
                b: b.reg,
                w,
            }
        } else {
            Op::PermI {
                parity,
                dst,
                a: a.reg,
                b: b.reg,
                w,
            }
        });
        Some(Operand {
            ty: a.ty,
            w: Some(w),
            reg: dst,
        })
    }

    fn unary(
        &mut self,
        op: UnOp,
        a: Operand,
        w: Option<u32>,
        want: Option<Window>,
    ) -> Option<Operand> {
        let float = a.is_float();
        let (result_float, result_ty) = match op {
            UnOp::Neg => (float, a.ty),
            UnOp::Not => {
                if float {
                    return None; // tree-walk panics: Not on float
                }
                (false, a.ty)
            }
            UnOp::LogNot => (false, ScalarTy::I32),
        };
        let lanes = w.unwrap_or(1);
        let dst = self.dest(want, result_float, lanes, true, &[(float, a.reg, lanes)]);
        let op = match (op, float, w) {
            (UnOp::Neg, false, None) => Op::NegI {
                ty: a.ty,
                dst,
                a: a.reg,
            },
            (UnOp::Neg, true, None) => Op::NegF { dst, a: a.reg },
            (UnOp::Not, false, None) => Op::NotI {
                ty: a.ty,
                dst,
                a: a.reg,
            },
            (UnOp::LogNot, false, None) => Op::LogNotI { dst, a: a.reg },
            (UnOp::LogNot, true, None) => Op::LogNotF { dst, a: a.reg },
            (UnOp::Neg, false, Some(w)) => Op::VNegI {
                ty: a.ty,
                dst,
                a: a.reg,
                w,
            },
            (UnOp::Neg, true, Some(w)) => Op::VNegF { dst, a: a.reg, w },
            (UnOp::Not, false, Some(w)) => Op::VNotI {
                ty: a.ty,
                dst,
                a: a.reg,
                w,
            },
            (UnOp::LogNot, false, Some(w)) => Op::VLogNotI { dst, a: a.reg, w },
            (UnOp::LogNot, true, Some(w)) => Op::VLogNotF { dst, a: a.reg, w },
            (UnOp::Not, true, _) => unreachable!("rejected above"),
        };
        self.emit(op);
        Some(Operand {
            ty: result_ty,
            w,
            reg: dst,
        })
    }

    fn intrinsic(
        &mut self,
        i: Intrinsic,
        ops: &[Operand],
        want: Option<Window>,
    ) -> Option<Operand> {
        let a = ops[0];
        let float = a.is_float();
        // One or two operands (anything else is refused below).
        let (lanes, last) = (a.w.unwrap_or(1), ops[ops.len() - 1]);
        let srcs = [(float, a.reg, lanes), (float, last.reg, lanes)];
        // Which (intrinsic, class) pairs the tree-walker evaluates without
        // panicking: Abs/Min/Max on any class, everything else float-only.
        let int_ok = matches!(i, Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max);
        if !float && !int_ok {
            return None;
        }
        match a.w {
            None => {
                self.pending.counters.compute_scalar += self.machine.scalar_intrinsic_cost(i);
                let dst = self.dest(want, float, 1, true, &srcs);
                let op = match (ops.len(), float) {
                    (1, false) => Op::Call1I {
                        i,
                        ty: a.ty,
                        dst,
                        a: a.reg,
                    },
                    (1, true) => Op::Call1F {
                        i,
                        ty: a.ty,
                        dst,
                        a: a.reg,
                    },
                    (2, false) => Op::Call2I {
                        i,
                        dst,
                        a: a.reg,
                        b: ops[1].reg,
                    },
                    (2, true) => Op::Call2F {
                        i,
                        ty: a.ty,
                        dst,
                        a: a.reg,
                        b: ops[1].reg,
                    },
                    _ => return None,
                };
                self.emit(op);
                Some(Operand {
                    ty: a.ty,
                    w: None,
                    reg: dst,
                })
            }
            Some(w) => {
                self.pending.counters.compute_vector += self.machine.vector_intrinsic_cost(i);
                let dst = self.dest(want, float, w, true, &srcs);
                let op = match (ops.len(), float) {
                    (1, false) => Op::VCall1I {
                        i,
                        ty: a.ty,
                        dst,
                        a: a.reg,
                        w,
                    },
                    (1, true) => Op::VCall1F {
                        i,
                        ty: a.ty,
                        dst,
                        a: a.reg,
                        w,
                    },
                    (2, false) => Op::VCall2I {
                        i,
                        dst,
                        a: a.reg,
                        b: ops[1].reg,
                        w,
                    },
                    (2, true) => Op::VCall2F {
                        i,
                        ty: a.ty,
                        dst,
                        a: a.reg,
                        b: ops[1].reg,
                        w,
                    },
                    _ => return None,
                };
                self.emit(op);
                Some(Operand {
                    ty: a.ty,
                    w: Some(w),
                    reg: dst,
                })
            }
        }
    }
}

fn cast_op(from: ScalarTy, to: ScalarTy, dst: u32, a: u32, w: Option<u32>) -> Op {
    match (from.is_float(), to.is_float(), w) {
        (false, false, None) => Op::CastII { from, to, dst, a },
        (false, true, None) => Op::CastIF { to, dst, a },
        (true, false, None) => Op::CastFI { to, dst, a },
        (true, true, None) => Op::CastFF { to, dst, a },
        (false, false, Some(w)) => Op::VCastII {
            from,
            to,
            dst,
            a,
            w,
        },
        (false, true, Some(w)) => Op::VCastIF { to, dst, a, w },
        (true, false, Some(w)) => Op::VCastFI { to, dst, a, w },
        (true, true, Some(w)) => Op::VCastFF { to, dst, a, w },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::edsl::*;

    #[test]
    fn simple_filter_compiles() {
        let mut fb = FilterBuilder::new("dbl", 1, 1, 1, ScalarTy::I32);
        fb.work(|b| {
            b.push(pop() * 2i32);
        });
        let f = fb.build();
        let plan = compile_filter(
            &f,
            Some(ScalarTy::I32),
            Some(ScalarTy::I32),
            &Machine::core_i7(),
        )
        .expect("should compile");
        assert!(plan.work.len() >= 3); // pop, mul (by a pool register), push, charge
        assert_eq!(plan.charges.len(), 1);
        // load + store, mul, one in-access, one out-access.
        let c = plan.charges[0];
        assert_eq!(c.counters.mem_scalar, 4);
        assert_eq!(c.counters.compute_scalar, 3);
        assert_eq!(c.in_addr, 1);
        assert_eq!(c.out_addr, 1);
    }

    #[test]
    fn unknown_tape_elem_forces_fallback() {
        let mut fb = FilterBuilder::new("dbl", 1, 1, 1, ScalarTy::I32);
        fb.work(|b| {
            b.push(pop() * 2i32);
        });
        let f = fb.build();
        assert!(compile_filter(&f, None, Some(ScalarTy::I32), &Machine::core_i7()).is_none());
        assert!(compile_filter(&f, Some(ScalarTy::I32), None, &Machine::core_i7()).is_none());
    }

    #[test]
    fn ill_typed_store_forces_fallback() {
        let mut fb = FilterBuilder::new("bad", 0, 0, 1, ScalarTy::I32);
        let x = fb.local("x", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(x, c(1.5f32)); // f32 into an i32 slot: tree-walk tolerates
            b.push(v(x));
        });
        let f = fb.build();
        assert!(compile_filter(&f, None, Some(ScalarTy::I32), &Machine::core_i7()).is_none());
    }

    #[test]
    fn loop_compiles_with_setup_and_per_iter_charges() {
        let mut fb = FilterBuilder::new("looper", 0, 0, 4, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 4i32, |b| {
                b.push(v(i));
            });
        });
        let f = fb.build();
        let plan =
            compile_filter(&f, None, Some(ScalarTy::I32), &Machine::core_i7()).expect("compiles");
        let count = |f: fn(&Op) -> bool| plan.work.iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, Op::LoopEnter { .. })), 1);
        assert_eq!(count(|op| matches!(op, Op::LoopNext { .. })), 1);
        // The trip count is a literal, so the whole firing is one charge:
        // the setup alu plus four times the per-iteration entry (loop
        // overhead, one store, one out-access).
        assert_eq!(count(|op| matches!(op, Op::Charge(_))), 1);
        assert_eq!(plan.charges.len(), 1);
        let c = plan.charges[0];
        assert_eq!(c.counters.compute_scalar, 1);
        assert_eq!(c.counters.loop_overhead, 4);
        assert_eq!(c.counters.mem_scalar, 8);
        assert_eq!(c.out_addr, 4);
        // The limit is the literal's pool register, read in place.
        assert_eq!(plan.pool_i, (1, vec![4i64].into_boxed_slice()));
        assert!(plan
            .work
            .iter()
            .any(|op| matches!(op, Op::LoopEnter { limit: 1, .. })));
    }

    #[test]
    fn float_loop_var_forces_fallback() {
        let mut fb = FilterBuilder::new("fl", 0, 0, 1, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.for_(i, 4i32, |b| {
                b.push(v(i));
            });
        });
        let f = fb.build();
        assert!(compile_filter(&f, None, Some(ScalarTy::F32), &Machine::core_i7()).is_none());
    }
}
