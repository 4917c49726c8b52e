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
//! **constant pool**: every scalar literal, `ConstVec` and `Splat` of a
//! literal gets a window that is loaded once when the register files are
//! created and that no op ever writes, so a literal compiles to an
//! operand and emits nothing. The pool is interned as the bodies compile,
//! in the order a walk of their expressions meets the constants.
//! Expression temporaries are bump-allocated above the pool and released
//! per statement, so the files stay small; since the pool's size is known
//! only at the end, they are numbered from provisional bases while the
//! filter compiles and moved down once, above the pool
//! ([`relocate_temporaries`]).
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
//! Every node is charged its price from the machine's price list
//! ([`Machine::expr_charge`] and its siblings, the prices the tree-walker
//! charges as it executes), accumulated into the pending [`ChargeEntry`]
//! of the innermost enclosing block. A loop body's entry
//! is multiplied by the trip count into the enclosing block — at compile
//! time when the count is an integer literal (nests multiply), by one
//! [`Op::ChargeTimes`] behind the loop otherwise — so a body without an
//! `If` ends in exactly one [`Op::Charge`]; only the branches of an `If`
//! are charged in place. Counter fields are `u64` sums, so aggregation
//! order cannot change totals; per-access input/output reorder costs are
//! kept as *counts* and multiplied by the edge costs at run time, exactly
//! like the tree-walker's incremental additions.

use crate::bytecode::{CompiledFilter, Op};
use crate::machine::{ChargeEntry, Machine};
use crate::tape::raw_of;
use macross_streamir::expr::{Expr, Intrinsic, LValue, UnOp};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{ScalarTy, Ty, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// FxHash's multiply-rotate step: the pool's keys are a few machine
/// words, which SipHash spends most of an intern on.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K> = HashMap<K, u32, BuildHasherDefault<FxHasher>>;

/// One register file's constant pool: register images in pool order and
/// a hashed index from a constant's image to its offset, so interning and
/// lookup stay linear in the size of the filter. A constant whose lanes
/// share one image — every scalar literal and splat — is keyed by that
/// image and its width: interned with one hash and no key allocated.
#[derive(Default)]
struct Pool {
    base: u32,
    bits: Vec<u64>,
    uniform: FxMap<(u64, u32)>,
    /// Vector constants with differing lanes, by image.
    mixed: FxMap<Vec<u64>>,
}

/// `(image, width)` of a constant whose lanes all hold `image`.
fn uniform_key(image: &[u64]) -> Option<(u64, u32)> {
    let (&first, rest) = image.split_first()?;
    rest.iter()
        .all(|&b| b == first)
        .then_some((first, image.len() as u32))
}

impl Pool {
    /// The register of `image`'s window, interned at the end of the pool
    /// the first time it is met.
    fn intern(&mut self, image: &[u64]) -> u32 {
        let at = self.bits.len() as u32;
        let found = match uniform_key(image) {
            Some(key) => match self.uniform.entry(key) {
                Entry::Vacant(slot) => *slot.insert(at),
                Entry::Occupied(slot) => *slot.get(),
            },
            None => match self.mixed.get(image) {
                Some(&offset) => offset,
                None => {
                    self.mixed.insert(image.to_vec(), at);
                    at
                }
            },
        };
        if found == at {
            self.bits.extend_from_slice(image);
        }
        self.base + found
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

/// The provisional bases of the integer and float temporaries: every
/// register at or above `TEMP_I` is an integer temporary, every one in
/// `TEMP_F..TEMP_I` a float one, and variables and the pool stay below
/// `TEMP_F`.
const TEMP_I: u32 = 3 << 30;
const TEMP_F: u32 = 2 << 30;

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
    /// A temporary did not fit its zone: the filter cannot be compiled.
    overflowed: bool,
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
    // The pool zone sits between the variables and the temporaries.
    let pool_at = |base| Pool {
        base,
        ..Pool::default()
    };
    let mut c = Compiler {
        machine,
        in_elem,
        out_elem,
        chan_elems: filter.chans.iter().map(|ch| ch.ty.elem()).collect(),
        vars,
        pool_i: pool_at(ni),
        pool_f: pool_at(nf),
        image: Vec::new(),
        code: Vec::new(),
        charges: Vec::new(),
        pending: ChargeEntry::default(),
        cur_i: TEMP_I,
        cur_f: TEMP_F,
        max_i: TEMP_I,
        max_f: TEMP_F,
        overflowed: false,
    };
    let mut init = c.compile_body(&filter.init)?;
    let mut work = c.compile_body(&filter.work)?;
    let temp_i = ni.checked_add(u32::try_from(c.pool_i.bits.len()).ok()?)?;
    let temp_f = nf.checked_add(u32::try_from(c.pool_f.bits.len()).ok()?)?;
    if c.overflowed || temp_i >= TEMP_F || temp_f >= TEMP_F {
        return None;
    }
    relocate_temporaries(&mut init, temp_i, temp_f);
    relocate_temporaries(&mut work, temp_i, temp_f);
    Some(CompiledFilter {
        name: filter.name.clone(),
        in_elem,
        out_elem,
        int_regs: temp_i + (c.max_i - TEMP_I),
        float_regs: temp_f + (c.max_f - TEMP_F),
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
        // Each file's temporaries must stay inside their provisional zone.
        let (cur, max, end) = if float {
            (&mut self.cur_f, &mut self.max_f, TEMP_I)
        } else {
            (&mut self.cur_i, &mut self.max_i, u32::MAX)
        };
        let r = *cur;
        match cur.checked_add(n).filter(|&c| c <= end) {
            Some(c) => {
                *cur = c;
                *max = (*max).max(c);
            }
            None => self.overflowed = true,
        }
        r
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

    /// Fold one node's price into the enclosing block's pending entry.
    fn charge(&mut self, price: ChargeEntry) {
        self.pending.absorb(&price);
    }

    fn compile_stmt(&mut self, s: &Stmt) -> Option<()> {
        self.charge(self.machine.stmt_charge(s));
        match s {
            Stmt::Assign(lv, e) => {
                // The pool meets a subscript's constants before the value's.
                if let LValue::Index(_, i) | LValue::LaneIndex(_, i, _) | LValue::VIndex(_, i, _) =
                    lv
                {
                    i.walk(&mut |e| {
                        self.pooled_operand(e);
                    });
                }
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
                let outer = std::mem::replace(&mut self.pending, self.machine.loop_iter());
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
                let n = u32::try_from(*n).ok()?;
                self.emit(Op::AdvRead { n });
                Some(())
            }
            Stmt::AdvanceWrite(n) => {
                let n = u32::try_from(*n).ok()?;
                self.emit(Op::AdvWrite { n });
                Some(())
            }
        }
    }

    /// Lower `lv = val`. Evaluation order matches the tree-walker: the
    /// value is already compiled; any lvalue index is compiled after it.
    fn compile_store(&mut self, lv: &LValue, val: Operand) -> Option<()> {
        self.charge(self.machine.store_charge(lv, val.w.is_some()));
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

    /// A constant's pool window as an operand, interned if it is new:
    /// nothing to emit.
    fn pooled_operand(&mut self, e: &Expr) -> Option<Operand> {
        let (ty, w) = pooled(e, &mut self.image)?;
        let pool = if ty.is_float() {
            &mut self.pool_f
        } else {
            &mut self.pool_i
        };
        let reg = pool.intern(&self.image);
        Some(Operand { ty, w, reg })
    }

    /// [`Self::compile_expr`] for the value of an assignment: the op that
    /// produces it may write `want` (see [`Self::dest`]).
    fn compile_expr_to(&mut self, e: &Expr, want: Option<Window>) -> Option<Operand> {
        let val = self.lower_expr(e, want)?;
        self.pending
            .absorb(&self.machine.expr_charge(e, val.w.is_some()));
        Some(val)
    }

    fn lower_expr(&mut self, e: &Expr, want: Option<Window>) -> Option<Operand> {
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
                self.unary(*op, a, a.w, want)
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
                let (to, lanes) = (*t, a.w.unwrap_or(1));
                let srcs = [(a.is_float(), a.reg, lanes)];
                let dst = self.dest(want, to.is_float(), lanes, true, &srcs);
                self.emit(cast_op(a.ty, to, dst, a.reg, a.w));
                Some(Operand {
                    ty: to,
                    w: a.w,
                    reg: dst,
                })
            }
            Expr::Pop => {
                let ty = self.in_elem?;
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
                // A lane is just a register offset; no move needed. The
                // source registers cannot be overwritten before use:
                // expressions have no variable side effects.
                Some(Operand {
                    ty: v.ty,
                    w: None,
                    reg: v.reg + lane,
                })
            }
            Expr::Splat(x, _) if matches!(**x, Expr::Const(_)) => {
                let splat = self.pooled_operand(e)?;
                // A walk meets the literal inside as well: the pool keeps
                // its scalar window too.
                self.pooled_operand(x)?;
                Some(splat)
            }
            Expr::Splat(e, width) => {
                let x = self.compile_expr(e)?;
                if x.w.is_some() {
                    return None;
                }
                let w = u32::try_from(*width).ok()?;
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
        let dst = self.dest(want, float, lanes, true, &srcs);
        let (ty, w, a, b) = (a.ty, a.w, a.reg, last.reg);
        self.emit(match (ops.len(), float, w) {
            (1, false, None) => Op::Call1I { i, ty, dst, a },
            (1, true, None) => Op::Call1F { i, ty, dst, a },
            (2, false, None) => Op::Call2I { i, dst, a, b },
            (2, true, None) => Op::Call2F { i, ty, dst, a, b },
            (1, false, Some(w)) => Op::VCall1I { i, ty, dst, a, w },
            (1, true, Some(w)) => Op::VCall1F { i, ty, dst, a, w },
            (2, false, Some(w)) => Op::VCall2I { i, dst, a, b, w },
            (2, true, Some(w)) => Op::VCall2F {
                i,
                ty,
                dst,
                a,
                b,
                w,
            },
            _ => return None,
        });
        Some(Operand { ty, w, reg: dst })
    }
}

/// Move every temporary `code` names from its provisional number
/// ([`TEMP_I`], [`TEMP_F`]) to its place above the pool, which starts at
/// `temp_i` in the integer file and `temp_f` in the float one.
fn relocate_temporaries(code: &mut [Op], temp_i: u32, temp_f: u32) {
    let fix = |r: &mut u32| {
        if *r >= TEMP_I {
            *r = *r - TEMP_I + temp_i;
        } else if *r >= TEMP_F {
            *r = *r - TEMP_F + temp_f;
        }
    };
    for op in code {
        match op {
            Op::Charge(_) | Op::AdvRead { .. } | Op::AdvWrite { .. } | Op::Jump { .. } => {}
            Op::ChargeTimes { n: r, .. }
            | Op::PopI { dst: r }
            | Op::PopF { dst: r }
            | Op::VPopI { dst: r, .. }
            | Op::VPopF { dst: r, .. }
            | Op::PushI { src: r }
            | Op::PushF { src: r }
            | Op::VPushI { src: r, .. }
            | Op::VPushF { src: r, .. }
            | Op::LPopI { dst: r, .. }
            | Op::LPopF { dst: r, .. }
            | Op::LVPopI { dst: r, .. }
            | Op::LVPopF { dst: r, .. }
            | Op::LPushI { src: r, .. }
            | Op::LPushF { src: r, .. }
            | Op::LVPushI { src: r, .. }
            | Op::LVPushF { src: r, .. }
            | Op::JumpIfZI { cond: r, .. }
            | Op::JumpIfZF { cond: r, .. } => fix(r),
            Op::MovI { dst, src: a }
            | Op::MovF { dst, src: a }
            | Op::MovNI { dst, src: a, .. }
            | Op::MovNF { dst, src: a, .. }
            | Op::FToI { dst, a }
            | Op::NegI { dst, a, .. }
            | Op::NegF { dst, a }
            | Op::NotI { dst, a, .. }
            | Op::LogNotI { dst, a }
            | Op::LogNotF { dst, a }
            | Op::VNegI { dst, a, .. }
            | Op::VNegF { dst, a, .. }
            | Op::VNotI { dst, a, .. }
            | Op::VLogNotI { dst, a, .. }
            | Op::VLogNotF { dst, a, .. }
            | Op::CastII { dst, a, .. }
            | Op::CastIF { dst, a, .. }
            | Op::CastFI { dst, a, .. }
            | Op::CastFF { dst, a, .. }
            | Op::VCastII { dst, a, .. }
            | Op::VCastIF { dst, a, .. }
            | Op::VCastFI { dst, a, .. }
            | Op::VCastFF { dst, a, .. }
            | Op::Call1I { dst, a, .. }
            | Op::Call1F { dst, a, .. }
            | Op::VCall1I { dst, a, .. }
            | Op::VCall1F { dst, a, .. }
            | Op::SplatI { dst, a, .. }
            | Op::SplatF { dst, a, .. }
            | Op::PeekI { dst, off: a }
            | Op::PeekF { dst, off: a }
            | Op::VPeekI { dst, off: a, .. }
            | Op::VPeekF { dst, off: a, .. }
            | Op::RPushI { src: dst, off: a }
            | Op::RPushF { src: dst, off: a } => {
                fix(dst);
                fix(a);
            }
            Op::BinI { dst, a, b, .. }
            | Op::BinF { dst, a, b, .. }
            | Op::CmpF { dst, a, b, .. }
            | Op::VBinI { dst, a, b, .. }
            | Op::VBinF { dst, a, b, .. }
            | Op::VCmpF { dst, a, b, .. }
            | Op::Call2I { dst, a, b, .. }
            | Op::Call2F { dst, a, b, .. }
            | Op::VCall2I { dst, a, b, .. }
            | Op::VCall2F { dst, a, b, .. }
            | Op::PermI { dst, a, b, .. }
            | Op::PermF { dst, a, b, .. }
            | Op::LoadIdxI {
                dst,
                base: a,
                idx: b,
                ..
            }
            | Op::LoadIdxF {
                dst,
                base: a,
                idx: b,
                ..
            }
            | Op::LoadVElemI {
                dst,
                base: a,
                idx: b,
                ..
            }
            | Op::LoadVElemF {
                dst,
                base: a,
                idx: b,
                ..
            }
            | Op::LoadVSliceI {
                dst,
                base: a,
                idx: b,
                ..
            }
            | Op::LoadVSliceF {
                dst,
                base: a,
                idx: b,
                ..
            }
            | Op::StoreIdxI {
                src: dst,
                base: a,
                idx: b,
                ..
            }
            | Op::StoreIdxF {
                src: dst,
                base: a,
                idx: b,
                ..
            }
            | Op::StoreVElemI {
                src: dst,
                base: a,
                idx: b,
                ..
            }
            | Op::StoreVElemF {
                src: dst,
                base: a,
                idx: b,
                ..
            }
            | Op::StoreVSliceI {
                src: dst,
                base: a,
                idx: b,
                ..
            }
            | Op::StoreVSliceF {
                src: dst,
                base: a,
                idx: b,
                ..
            }
            | Op::LaneStoreI {
                src: dst,
                base: a,
                idx: b,
                ..
            }
            | Op::LaneStoreF {
                src: dst,
                base: a,
                idx: b,
                ..
            }
            | Op::LoopEnter {
                counter: dst,
                limit: a,
                var: b,
                ..
            }
            | Op::LoopNext {
                counter: dst,
                limit: a,
                var: b,
                ..
            } => {
                fix(dst);
                fix(a);
                fix(b);
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

    /// The pool is interned in the order a walk of the expressions meets
    /// the constants — an indexed assignment's subscript before its value,
    /// a splat before its literal — and the temporaries sit right above
    /// it.
    #[test]
    fn the_pool_keeps_walk_order_and_temporaries_sit_above_it() {
        let mut fb = FilterBuilder::new("order", 0, 0, 0, ScalarTy::F32);
        let a = fb.local("a", Ty::Array(ScalarTy::I32, 8));
        let x = fb.local("x", Ty::Vector(ScalarTy::F32, 4));
        let splat = Expr::Splat(Box::new(Expr::Const(Value::F32(2.5))), 4);
        fb.work(|b| {
            b.set_idx(a, 7i32, c(3i32) + c(4i32));
            b.set(x, E(splat) * v(x));
        });
        let f = fb.build();
        let plan = compile_filter(&f, None, None, &Machine::core_i7()).expect("compiles");
        // `a` takes i0..8 and `x` f0..4; the pool follows each.
        assert_eq!(plan.pool_i, (8, vec![7i64, 3, 4].into_boxed_slice()));
        assert_eq!(plan.pool_f, (4, vec![2.5f64; 5].into_boxed_slice()));
        let (i32_, add) = (ScalarTy::I32, macross_streamir::expr::BinOp::Add);
        assert_eq!(
            plan.work[..2],
            [
                Op::BinI {
                    op: add,
                    ty: i32_,
                    dst: 11,
                    a: 9,
                    b: 10
                },
                Op::StoreIdxI {
                    base: 0,
                    len: 8,
                    idx: 8,
                    src: 11
                },
            ]
        );
        assert_eq!((plan.int_regs, plan.float_regs), (12, 9));
    }

    /// A temporary wider than its file's provisional zone cannot be
    /// numbered: the filter keeps tree-walking.
    #[test]
    fn a_temporary_too_wide_for_its_zone_forces_fallback() {
        let mut fb = FilterBuilder::new("wide", 0, 0, 0, ScalarTy::F32);
        let x = fb.local("x", Ty::Vector(ScalarTy::F32, (1 << 30) + 1));
        fb.work(|b| {
            b.set(x, (v(x) + v(x)) * v(x));
        });
        let f = fb.build();
        assert!(compile_filter(&f, None, None, &Machine::core_i7()).is_none());
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
