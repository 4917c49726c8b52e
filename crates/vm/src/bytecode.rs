//! Flat, register-based bytecode for compiled work functions.
//!
//! The tree-walking interpreter ([`crate::interp`]) pays enum dispatch,
//! `RtVal::V(Vec<Value>)` heap allocation, and per-node temporaries on
//! every operation. The bytecode VM removes all of that: values live
//! unboxed in two register files (`Vec<i64>` / `Vec<f64>`), vectors are
//! `width` consecutive registers, variable slots are resolved to fixed
//! bases at compile time, literals live in a constant pool loaded once per
//! register file, and cycle charges are pre-aggregated per firing into
//! [`ChargeEntry`] records applied by a single [`Op::Charge`].
//!
//! # Value representation
//!
//! * `i32` values are stored sign-extended in `i64` registers; arithmetic
//!   is performed in the `i32` domain and re-extended, so wrapping
//!   semantics match [`macross_streamir::expr::eval_binop`] exactly.
//! * `f32` values are stored exactly widened in `f64` registers (every
//!   `f32` is exactly representable as `f64`); arithmetic is performed in
//!   the `f32` domain and re-widened. Comparisons run on the widened
//!   values, which is what the tree-walker's `fcmp` does too.
//!
//! A register's bits are therefore the token's *image*
//! ([`crate::tape::raw_of`]), which is what tapes and channels store: a
//! tape or channel op is a bit-cast register move, and a compiled filter
//! is bit-identical to the tree-walked one, which reads the same slots
//! through the typed `Value` view (the differential suite in
//! `tests/differential.rs` enforces this).
//!
//! # Cycle accounting
//!
//! The compiler sums the per-op charges of each region (function body or
//! loop body) at compile time and multiplies a loop body's sum by its trip
//! count — at compile time when the count is a literal, by one
//! [`Op::ChargeTimes`] after the loop when it is not; only code under an
//! `If` is charged where it runs. Address-generation overhead on reordered
//! tapes depends on the edge ([`AddrCosts`]), so [`ChargeEntry`] records
//! *counts* of input/output accesses and [`ChargeEntry::apply`] multiplies
//! at run time. All charges are plain `u64` additions, so aggregation order
//! cannot change totals; on a successful firing the counters are
//! bit-identical to the tree-walker's. Runs that abort with a [`VmError`]
//! never surface their counters, so where inside a firing a charge lands
//! is unobservable.

use crate::error::{TapeSide, VmError};
use crate::lanes;
use crate::machine::{AddrCosts, ChargeEntry, CycleCounters};
use crate::tape::Tape;
use macross_streamir::expr::{BinOp, Intrinsic};
use macross_streamir::types::ScalarTy;

/// The two unboxed register files of a compiled filter.
#[derive(Debug, Clone, Default)]
pub struct Regs {
    /// Integer registers (`i32` values sign-extended).
    pub i: Vec<i64>,
    /// Float registers (`f32` values exactly widened).
    pub f: Vec<f64>,
}

impl Regs {
    /// Zeroed register files of the given sizes.
    pub fn new(int_regs: usize, float_regs: usize) -> Regs {
        Regs {
            i: vec![0; int_regs],
            f: vec![0.0; float_regs],
        }
    }
}

/// An internal (fused-actor) channel of a compiled filter: a flat FIFO of
/// register images. It is empty between firings, so it rewinds whenever it
/// has drained and never outgrows one firing's traffic.
#[derive(Debug, Clone, Default)]
pub struct Chan {
    buf: Vec<u64>,
    /// Index of the next image to pop.
    head: usize,
}

impl Chan {
    /// True when every pushed image was popped.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    #[inline]
    fn push(&mut self, images: &[u64]) {
        if self.is_empty() {
            self.buf.clear();
            self.head = 0;
        }
        self.buf.extend_from_slice(images);
    }

    /// The next `w` images, or `None` when fewer are queued.
    #[inline]
    fn pop(&mut self, w: usize) -> Option<&[u64]> {
        let span = self.buf.get(self.head..self.head + w)?;
        self.head += w;
        Some(span)
    }
}

/// A filter's compiled firing plan: bytecode for `init` and `work`, the
/// shared charge table, and the layout of the two register files — each
/// is variable windows, then the constant pool, then expression
/// temporaries — including which ranges hold `Local` variables (zeroed
/// before every firing, like [`crate::interp::reset_locals`]).
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    /// Filter name (for errors and panics).
    pub name: String,
    /// Element type of the input tape the tape ops were compiled against
    /// (`None`: no input edge, so no input op). The firing boundary checks
    /// the tape it is handed against it, once per block.
    pub in_elem: Option<ScalarTy>,
    /// Element type of the output tape, likewise.
    pub out_elem: Option<ScalarTy>,
    /// Integer register file size.
    pub int_regs: u32,
    /// Float register file size.
    pub float_regs: u32,
    /// Each declared variable's window `(base, len, is_float)`, by
    /// `VarId`: the one record of where a variable lives.
    pub var_windows: Vec<(u32, u32, bool)>,
    /// Integer constant pool `(base, values)`: registers
    /// [`CompiledFilter::new_regs`] loads and no op ever writes.
    pub pool_i: (u32, Box<[i64]>),
    /// Float constant pool `(base, values)`.
    pub pool_f: (u32, Box<[f64]>),
    /// `(base, len)` integer ranges of `Local` variables.
    pub zero_i: Vec<(u32, u32)>,
    /// `(base, len)` float ranges of `Local` variables.
    pub zero_f: Vec<(u32, u32)>,
    /// Compiled `init` body.
    pub init: Vec<Op>,
    /// Compiled `work` body.
    pub work: Vec<Op>,
    /// Charge table indexed by [`Op::Charge`].
    pub charges: Vec<ChargeEntry>,
}

impl CompiledFilter {
    /// Fresh register files for this plan: zeroed, constant pool loaded.
    pub fn new_regs(&self) -> Regs {
        let mut regs = Regs::new(self.int_regs as usize, self.float_regs as usize);
        lanes::put(&mut regs.i, self.pool_i.0 as usize, &self.pool_i.1);
        lanes::put(&mut regs.f, self.pool_f.0 as usize, &self.pool_f.1);
        regs
    }

    /// A hand-assembled plan for unit tests: `work` over register files of
    /// the given sizes, nothing declared, pooled or zeroed.
    #[cfg(test)]
    pub(crate) fn bare(name: &str, int_regs: u32, float_regs: u32, work: Vec<Op>) -> Self {
        CompiledFilter {
            name: name.into(),
            in_elem: None,
            out_elem: None,
            int_regs,
            float_regs,
            var_windows: vec![],
            pool_i: (0, Box::new([])),
            pool_f: (0, Box::new([])),
            zero_i: vec![],
            zero_f: vec![],
            init: vec![],
            work,
            charges: vec![],
        }
    }

    /// Zero the `Local` variable ranges (between firings).
    pub fn zero_locals(&self, regs: &mut Regs) {
        for &(base, len) in &self.zero_i {
            lanes::fill(&mut regs.i, base as usize, len as usize, 0);
        }
        for &(base, len) in &self.zero_f {
            lanes::fill(&mut regs.f, base as usize, len as usize, 0.0);
        }
    }
}

/// One bytecode instruction.
///
/// Register operands are indices into [`Regs`]; vector operands name the
/// first of `w` consecutive registers. The destination of a value-
/// producing op is a fresh temporary or the variable window its
/// assignment forwarded it to, and in both cases every source window in
/// the same file is disjoint from it or — lane-wise ops only — is it, so
/// vector ops can write in-place lane by lane. Constant-pool registers are
/// never a destination.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Apply `charges[idx]` to the counters.
    Charge(u32),
    /// Apply `charges[idx]` `max(i[n], 0)` times: the per-iteration
    /// charges of a loop whose trip count is only known at run time,
    /// emitted once after the loop.
    ChargeTimes {
        idx: u32,
        n: u32,
    },

    // --- Moves (constants are pool registers, not ops) ------------------
    /// `i[dst] = i[src]` (free: register move).
    MovI {
        dst: u32,
        src: u32,
    },
    /// `f[dst] = f[src]`.
    MovF {
        dst: u32,
        src: u32,
    },
    /// `i[dst..dst+w] = i[src..src+w]`.
    MovNI {
        dst: u32,
        src: u32,
        w: u32,
    },
    /// `f[dst..dst+w] = f[src..src+w]`.
    MovNF {
        dst: u32,
        src: u32,
        w: u32,
    },
    /// `i[dst] = f[a] as i64` (free conversion for indices/counts; the
    /// tree-walker's `Value::as_i64` is uncharged too).
    FToI {
        dst: u32,
        a: u32,
    },

    // --- Scalar arithmetic ---------------------------------------------
    /// Integer binary op in the `ty` domain; comparisons yield 0/1.
    BinI {
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Float arithmetic in the `ty` domain.
    BinF {
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Float comparison: `i[dst] = op(f[a], f[b]) as i64`.
    CmpF {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Wrapping negate in the `ty` domain.
    NegI {
        ty: ScalarTy,
        dst: u32,
        a: u32,
    },
    /// `f[dst] = -f[a]`.
    NegF {
        dst: u32,
        a: u32,
    },
    /// Bitwise complement in the `ty` domain.
    NotI {
        ty: ScalarTy,
        dst: u32,
        a: u32,
    },
    /// `i[dst] = (i[a] == 0) as i64`.
    LogNotI {
        dst: u32,
        a: u32,
    },
    /// `i[dst] = (f[a] == 0.0) as i64` (NaN is truthy, -0.0 falsy).
    LogNotF {
        dst: u32,
        a: u32,
    },

    // --- Vector arithmetic (lane-wise over w registers) ----------------
    VBinI {
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    VBinF {
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    /// A float multiply and the add that consumes it, lane-wise over `w`
    /// registers (`w == 1` for scalars): `f[dst] = f[acc] + f[a]*f[b]`
    /// when `acc_first`, else `f[a]*f[b] + f[acc]`. Two roundings in the
    /// `ty` domain, each through [`bin_f`] in the source's operand order,
    /// so every bit is the two ops' — never a fused `mul_add`.
    MulAddF {
        ty: ScalarTy,
        acc_first: bool,
        dst: u32,
        acc: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    VCmpF {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    VNegI {
        ty: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    VNegF {
        dst: u32,
        a: u32,
        w: u32,
    },
    VNotI {
        ty: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    VLogNotI {
        dst: u32,
        a: u32,
        w: u32,
    },
    VLogNotF {
        dst: u32,
        a: u32,
        w: u32,
    },

    // --- Casts ---------------------------------------------------------
    /// Int-to-int cast (only I64 -> I32 truncates).
    CastII {
        from: ScalarTy,
        to: ScalarTy,
        dst: u32,
        a: u32,
    },
    /// Int-to-float cast.
    CastIF {
        to: ScalarTy,
        dst: u32,
        a: u32,
    },
    /// Float-to-int cast (saturating, like Rust `as`).
    CastFI {
        to: ScalarTy,
        dst: u32,
        a: u32,
    },
    /// Float-to-float cast (F32 destination rounds through `f32`).
    CastFF {
        to: ScalarTy,
        dst: u32,
        a: u32,
    },
    VCastII {
        from: ScalarTy,
        to: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    VCastIF {
        to: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    VCastFI {
        to: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    VCastFF {
        to: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },

    // --- Intrinsics ----------------------------------------------------
    /// Unary integer intrinsic (Abs).
    Call1I {
        i: Intrinsic,
        ty: ScalarTy,
        dst: u32,
        a: u32,
    },
    /// Binary integer intrinsic (Min/Max; order-preserving on the
    /// sign-extended representation).
    Call2I {
        i: Intrinsic,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Unary float intrinsic in the `ty` domain.
    Call1F {
        i: Intrinsic,
        ty: ScalarTy,
        dst: u32,
        a: u32,
    },
    /// Binary float intrinsic (Min/Max/Pow) in the `ty` domain.
    Call2F {
        i: Intrinsic,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
    },
    VCall1I {
        i: Intrinsic,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    VCall2I {
        i: Intrinsic,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    VCall1F {
        i: Intrinsic,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    VCall2F {
        i: Intrinsic,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },

    // --- Packing and permutation ---------------------------------------
    /// `i[dst..dst+w] = i[a]` broadcast.
    SplatI {
        dst: u32,
        a: u32,
        w: u32,
    },
    SplatF {
        dst: u32,
        a: u32,
        w: u32,
    },
    /// `extract_even` (parity 0) / `extract_odd` (parity 1) of the
    /// concatenation of two `w`-lane vectors. `dst` is disjoint from `a`
    /// and `b` (forwarding refuses a permute that reads its destination).
    PermI {
        parity: u32,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    PermF {
        parity: u32,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    /// `extract_even` into `even` and `extract_odd` into `odd` of the
    /// same two vectors: the two permutes of a pair, in that order, as one
    /// op. Both destinations are disjoint from `a` and `b`, so the odd
    /// half reads what the even half read.
    PermPairI {
        even: u32,
        odd: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    PermPairF {
        even: u32,
        odd: u32,
        a: u32,
        b: u32,
        w: u32,
    },

    // --- Array variables (register-file windows) -----------------------
    /// `i[dst] = i[base + i[idx]]`, bounds-checked against `len`.
    LoadIdxI {
        dst: u32,
        base: u32,
        len: u32,
        idx: u32,
    },
    LoadIdxF {
        dst: u32,
        base: u32,
        len: u32,
        idx: u32,
    },
    /// Vector-array element load: `i[dst..dst+w] = i[base + i[idx]*w ..]`.
    LoadVElemI {
        dst: u32,
        base: u32,
        len: u32,
        idx: u32,
        w: u32,
    },
    LoadVElemF {
        dst: u32,
        base: u32,
        len: u32,
        idx: u32,
        w: u32,
    },
    /// Unit-stride vector load from a scalar array (`VIndex`).
    LoadVSliceI {
        dst: u32,
        base: u32,
        len: u32,
        idx: u32,
        w: u32,
    },
    LoadVSliceF {
        dst: u32,
        base: u32,
        len: u32,
        idx: u32,
        w: u32,
    },
    StoreIdxI {
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
    },
    StoreIdxF {
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
    },
    StoreVElemI {
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
        w: u32,
    },
    StoreVElemF {
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
        w: u32,
    },
    StoreVSliceI {
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
        w: u32,
    },
    StoreVSliceF {
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
        w: u32,
    },
    /// `i[base + i[idx]*w + lane] = i[src]` (lane store into a
    /// vector-array element).
    LaneStoreI {
        base: u32,
        len: u32,
        idx: u32,
        lane: u32,
        w: u32,
        src: u32,
    },
    LaneStoreF {
        base: u32,
        len: u32,
        idx: u32,
        lane: u32,
        w: u32,
        src: u32,
    },

    // --- Input tape ----------------------------------------------------
    PopI {
        dst: u32,
    },
    PopF {
        dst: u32,
    },
    /// `off` is an integer register holding the peek offset.
    PeekI {
        dst: u32,
        off: u32,
    },
    PeekF {
        dst: u32,
        off: u32,
    },
    VPopI {
        dst: u32,
        w: u32,
    },
    VPopF {
        dst: u32,
        w: u32,
    },
    VPeekI {
        dst: u32,
        off: u32,
        w: u32,
    },
    VPeekF {
        dst: u32,
        off: u32,
        w: u32,
    },
    AdvRead {
        n: u32,
    },

    // --- Output tape ---------------------------------------------------
    PushI {
        src: u32,
    },
    PushF {
        src: u32,
    },
    RPushI {
        src: u32,
        off: u32,
    },
    RPushF {
        src: u32,
        off: u32,
    },
    VPushI {
        src: u32,
        w: u32,
    },
    VPushF {
        src: u32,
        w: u32,
    },
    AdvWrite {
        n: u32,
    },

    // --- Internal channels ---------------------------------------------
    LPopI {
        chan: u32,
        dst: u32,
    },
    LPopF {
        chan: u32,
        dst: u32,
    },
    LVPopI {
        chan: u32,
        dst: u32,
        w: u32,
    },
    LVPopF {
        chan: u32,
        dst: u32,
        w: u32,
    },
    LPushI {
        chan: u32,
        src: u32,
    },
    LPushF {
        chan: u32,
        src: u32,
    },
    LVPushI {
        chan: u32,
        src: u32,
        w: u32,
    },
    LVPushF {
        chan: u32,
        src: u32,
        w: u32,
    },

    // --- Control flow ---------------------------------------------------
    Jump {
        target: u32,
    },
    /// Jump if `i[cond] == 0`.
    JumpIfZI {
        cond: u32,
        target: u32,
    },
    /// Jump if `f[cond] == 0.0`.
    JumpIfZF {
        cond: u32,
        target: u32,
    },
    /// Loop entry: `i[counter] = 0`, then jump to `exit` if `i[limit] <=
    /// 0` (the loop variable stays untouched), else `i[var] = 0` and fall
    /// into the body.
    LoopEnter {
        counter: u32,
        limit: u32,
        var: u32,
        exit: u32,
    },
    /// The loop's one latch: `i[counter] += 1`; while that is below
    /// `i[limit]`, `i[var] = (i[counter] as i32) as i64` and jump back to
    /// `body`. The loop variable is declared `i32`, mirroring the
    /// tree-walker's `Value::I32(i as i32)`; the body may overwrite it, or
    /// whatever the count was read from, without changing the trip count.
    LoopNext {
        counter: u32,
        limit: u32,
        var: u32,
        body: u32,
    },
}

// ---------------------------------------------------------------------
// Exact-semantics scalar helpers. Every function here mirrors one code
// path of `eval_binop` / `eval_unop` / `eval_intrinsic` / `Value::cast`
// on the register representation; any change must keep the differential
// suite green.
// ---------------------------------------------------------------------

#[inline(always)]
fn cmp_ord(op: BinOp, lt: bool, eq: bool) -> bool {
    match op {
        BinOp::Eq => eq,
        BinOp::Ne => !eq,
        BinOp::Lt => lt,
        BinOp::Le => lt || eq,
        BinOp::Gt => !lt && !eq,
        BinOp::Ge => !lt,
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

#[inline(always)]
pub(crate) fn bin_i(op: BinOp, ty: ScalarTy, a: i64, b: i64) -> i64 {
    use BinOp::*;
    if op.is_comparison() {
        // Sign extension preserves order, so i64 comparison is exact for
        // both widths.
        return cmp_ord(op, a < b, a == b) as i64;
    }
    if ty == ScalarTy::I32 {
        let x = a as i32;
        let y = b as i32;
        let r = match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            Rem => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_rem(y)
                }
            }
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
            Shl => x.wrapping_shl(y as u32),
            Shr => x.wrapping_shr(y as u32),
            _ => unreachable!(),
        };
        r as i64
    } else {
        match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Shl => a.wrapping_shl(b as u32),
            Shr => a.wrapping_shr(b as u32),
            _ => unreachable!(),
        }
    }
}

#[inline(always)]
pub(crate) fn bin_f(op: BinOp, ty: ScalarTy, a: f64, b: f64) -> f64 {
    use BinOp::*;
    if ty == ScalarTy::F32 {
        let x = a as f32;
        let y = b as f32;
        (match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Rem => x % y,
            _ => unreachable!("integer-only operator {op:?} on f32"),
        }) as f64
    } else {
        match op {
            Add => a + b,
            Sub => a - b,
            Mul => a * b,
            Div => a / b,
            Rem => a % b,
            _ => unreachable!("integer-only operator {op:?} on f64"),
        }
    }
}

/// Integer compare producing the portable 0/1 lane. Registers hold
/// sign-extended values and sign extension preserves order, so the i64
/// predicate is exact for both integer widths.
#[inline(always)]
pub(crate) fn cmp_i(op: BinOp, a: i64, b: i64) -> i64 {
    cmp_ord(op, a < b, a == b) as i64
}

#[inline(always)]
pub(crate) fn cmp_f(op: BinOp, a: f64, b: f64) -> i64 {
    // The tree-walker compares f32 operands after widening to f64; the
    // registers already hold the widened values.
    let r = match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("not a comparison: {op:?}"),
    };
    r as i64
}

#[inline(always)]
pub(crate) fn neg_i(ty: ScalarTy, x: i64) -> i64 {
    if ty == ScalarTy::I32 {
        ((x as i32).wrapping_neg()) as i64
    } else {
        x.wrapping_neg()
    }
}

#[inline(always)]
pub(crate) fn not_i(ty: ScalarTy, x: i64) -> i64 {
    if ty == ScalarTy::I32 {
        (!(x as i32)) as i64
    } else {
        !x
    }
}

#[inline(always)]
pub(crate) fn cast_ii(from: ScalarTy, to: ScalarTy, x: i64) -> i64 {
    if from == ScalarTy::I64 && to == ScalarTy::I32 {
        (x as i32) as i64
    } else {
        x
    }
}

#[inline(always)]
pub(crate) fn cast_if(to: ScalarTy, x: i64) -> f64 {
    if to == ScalarTy::F32 {
        (x as f32) as f64
    } else {
        x as f64
    }
}

#[inline(always)]
pub(crate) fn cast_fi(to: ScalarTy, x: f64) -> i64 {
    if to == ScalarTy::I32 {
        (x as i32) as i64
    } else {
        x as i64
    }
}

#[inline(always)]
pub(crate) fn cast_ff(to: ScalarTy, x: f64) -> f64 {
    if to == ScalarTy::F32 {
        (x as f32) as f64
    } else {
        x
    }
}

#[inline(always)]
pub(crate) fn call1_i(ty: ScalarTy, x: i64) -> i64 {
    // Abs is the only unary integer intrinsic the compiler accepts.
    if ty == ScalarTy::I32 {
        ((x as i32).wrapping_abs()) as i64
    } else {
        x.wrapping_abs()
    }
}

#[inline(always)]
pub(crate) fn call2_i(i: Intrinsic, a: i64, b: i64) -> i64 {
    // Min/Max: order-preserving on the sign-extended representation.
    match i {
        Intrinsic::Min => a.min(b),
        Intrinsic::Max => a.max(b),
        _ => unreachable!("integer intrinsic {i:?}"),
    }
}

#[inline(always)]
pub(crate) fn call1_f(i: Intrinsic, ty: ScalarTy, x: f64) -> f64 {
    if i == Intrinsic::Abs {
        return if ty == ScalarTy::F32 {
            ((x as f32).abs()) as f64
        } else {
            x.abs()
        };
    }
    let r = match i {
        Intrinsic::Sin => x.sin(),
        Intrinsic::Cos => x.cos(),
        Intrinsic::Atan => x.atan(),
        Intrinsic::Sqrt => x.sqrt(),
        Intrinsic::Exp => x.exp(),
        Intrinsic::Log => x.ln(),
        Intrinsic::Floor => x.floor(),
        _ => unreachable!("unary float intrinsic {i:?}"),
    };
    // eval_intrinsic computes transcendentals in f64 and rounds once to
    // f32 for F32 operands.
    if ty == ScalarTy::F32 {
        (r as f32) as f64
    } else {
        r
    }
}

#[inline(always)]
pub(crate) fn call2_f(i: Intrinsic, ty: ScalarTy, a: f64, b: f64) -> f64 {
    // Min/Max/Pow are evaluated in the operand's own domain: f64::min on
    // widened f32 values could pick the other operand of a +/-0.0 pair.
    if ty == ScalarTy::F32 {
        let x = a as f32;
        let y = b as f32;
        (match i {
            Intrinsic::Min => x.min(y),
            Intrinsic::Max => x.max(y),
            Intrinsic::Pow => x.powf(y),
            _ => unreachable!("binary float intrinsic {i:?}"),
        }) as f64
    } else {
        match i {
            Intrinsic::Min => a.min(b),
            Intrinsic::Max => a.max(b),
            Intrinsic::Pow => a.powf(b),
            _ => unreachable!("binary float intrinsic {i:?}"),
        }
    }
}

fn array_index(idx: i64, len: u32, filter: &str) -> usize {
    let k = idx as usize;
    assert!(
        k < len as usize,
        "array index {idx} out of bounds (len {len}) in filter {filter}"
    );
    k
}

fn slice_index(idx: i64, w: u32, len: u32, filter: &str) -> usize {
    let k = idx as usize;
    assert!(
        k <= len as usize && len as usize - k >= w as usize,
        "vector slice {idx}..+{w} out of bounds (len {len}) in filter {filter}"
    );
    k
}

/// Execute one compiled body (`plan.init` or `plan.work`).
///
/// `addr` holds the per-access reorder address costs of the input and
/// output edge (see [`crate::firing::FirePlan`]).
///
/// # Errors
/// Returns [`VmError::MissingTape`] when a tape op runs without the
/// corresponding tape (e.g. tape ops inside `init`, which always runs
/// tape-less) and [`VmError::ChannelUnderflow`] on internal-channel
/// underflow — the same failures, with the same payloads, as the
/// tree-walker.
///
/// # Panics
/// Panics where the tree-walker panics: empty-tape pops, out-of-bounds
/// array accesses, reorder-mode violations.
#[allow(clippy::too_many_arguments)]
pub fn run_code(
    plan: &CompiledFilter,
    code: &[Op],
    regs: &mut Regs,
    chans: &mut [Chan],
    mut input: Option<&mut Tape>,
    mut output: Option<&mut Tape>,
    addr: AddrCosts,
    counters: &mut CycleCounters,
) -> Result<(), VmError> {
    macro_rules! tape {
        ($side:ident, $v:expr) => {
            match $v.as_deref_mut() {
                Some(t) => t,
                None => {
                    return Err(VmError::MissingTape {
                        filter: plan.name.clone(),
                        side: TapeSide::$side,
                    })
                }
            }
        };
    }
    macro_rules! underflow {
        ($chan:expr) => {
            return Err(VmError::ChannelUnderflow {
                filter: plan.name.clone(),
                chan: $chan,
            })
        };
    }

    // The cursor is a slice iterator: stepping is a pointer compare and
    // bump, and only a taken jump pays an index bounds check.
    let at = |target: u32| code[target as usize..].iter();
    let mut ip = code.iter();
    while let Some(op) = ip.next() {
        match op {
            Op::Charge(idx) => plan.charges[*idx as usize].apply(counters, addr),
            Op::ChargeTimes { idx, n } => {
                let times = regs.i[*n as usize].max(0) as u64;
                let e = plan.charges[*idx as usize].times(times);
                e.expect("cycle counters overflow u64")
                    .apply(counters, addr);
            }

            Op::MovI { dst, src } => regs.i[*dst as usize] = regs.i[*src as usize],
            Op::MovF { dst, src } => regs.f[*dst as usize] = regs.f[*src as usize],
            Op::MovNI { dst, src, w } => {
                lanes::mov(&mut regs.i, *dst as usize, *src as usize, *w as usize);
            }
            Op::MovNF { dst, src, w } => {
                lanes::mov(&mut regs.f, *dst as usize, *src as usize, *w as usize);
            }
            Op::FToI { dst, a } => regs.i[*dst as usize] = regs.f[*a as usize] as i64,

            // Pure arithmetic: a scalar op is the width-1 instance of its
            // vector op, and both resolve `(op, ty)` once in `lanes`.
            Op::BinI { op, ty, dst, a, b } => {
                lanes::bin_i(*op, *ty, &mut regs.i, *dst, *a, *b, 1);
            }
            Op::VBinI {
                op,
                ty,
                dst,
                a,
                b,
                w,
            } => lanes::bin_i(*op, *ty, &mut regs.i, *dst, *a, *b, *w),
            Op::BinF { op, ty, dst, a, b } => {
                lanes::bin_f(*op, *ty, &mut regs.f, *dst, *a, *b, 1);
            }
            Op::VBinF {
                op,
                ty,
                dst,
                a,
                b,
                w,
            } => lanes::bin_f(*op, *ty, &mut regs.f, *dst, *a, *b, *w),
            Op::MulAddF {
                ty,
                acc_first,
                dst,
                acc,
                a,
                b,
                w,
            } => lanes::mul_add_f(*ty, *acc_first, &mut regs.f, *dst, *acc, (*a, *b), *w),
            Op::CmpF { op, dst, a, b } => lanes::cmp_f(*op, regs, *dst, *a, *b, 1),
            Op::VCmpF { op, dst, a, b, w } => lanes::cmp_f(*op, regs, *dst, *a, *b, *w),
            Op::NegI { ty, dst, a } => lanes::neg_i(*ty, &mut regs.i, *dst, *a, 1),
            Op::VNegI { ty, dst, a, w } => lanes::neg_i(*ty, &mut regs.i, *dst, *a, *w),
            Op::NegF { dst, a } => lanes::neg_f(&mut regs.f, *dst, *a, 1),
            Op::VNegF { dst, a, w } => lanes::neg_f(&mut regs.f, *dst, *a, *w),
            Op::NotI { ty, dst, a } => lanes::not_i(*ty, &mut regs.i, *dst, *a, 1),
            Op::VNotI { ty, dst, a, w } => lanes::not_i(*ty, &mut regs.i, *dst, *a, *w),
            Op::LogNotI { dst, a } => lanes::lognot_i(&mut regs.i, *dst, *a, 1),
            Op::VLogNotI { dst, a, w } => lanes::lognot_i(&mut regs.i, *dst, *a, *w),
            Op::LogNotF { dst, a } => lanes::lognot_f(regs, *dst, *a, 1),
            Op::VLogNotF { dst, a, w } => lanes::lognot_f(regs, *dst, *a, *w),

            Op::CastII { from, to, dst, a } => {
                lanes::cast_ii(*from, *to, &mut regs.i, *dst, *a, 1);
            }
            Op::VCastII {
                from,
                to,
                dst,
                a,
                w,
            } => lanes::cast_ii(*from, *to, &mut regs.i, *dst, *a, *w),
            Op::CastIF { to, dst, a } => lanes::cast_if(*to, regs, *dst, *a, 1),
            Op::VCastIF { to, dst, a, w } => lanes::cast_if(*to, regs, *dst, *a, *w),
            Op::CastFI { to, dst, a } => lanes::cast_fi(*to, regs, *dst, *a, 1),
            Op::VCastFI { to, dst, a, w } => lanes::cast_fi(*to, regs, *dst, *a, *w),
            Op::CastFF { to, dst, a } => lanes::cast_ff(*to, &mut regs.f, *dst, *a, 1),
            Op::VCastFF { to, dst, a, w } => lanes::cast_ff(*to, &mut regs.f, *dst, *a, *w),

            Op::Call1I { i, ty, dst, a } => {
                debug_assert_eq!(*i, Intrinsic::Abs);
                lanes::call1_i(*ty, &mut regs.i, *dst, *a, 1);
            }
            Op::VCall1I { i, ty, dst, a, w } => {
                debug_assert_eq!(*i, Intrinsic::Abs);
                lanes::call1_i(*ty, &mut regs.i, *dst, *a, *w);
            }
            Op::Call2I { i, dst, a, b } => lanes::call2_i(*i, &mut regs.i, *dst, *a, *b, 1),
            Op::VCall2I { i, dst, a, b, w } => {
                lanes::call2_i(*i, &mut regs.i, *dst, *a, *b, *w);
            }
            Op::Call1F { i, ty, dst, a } => lanes::call1_f(*i, *ty, &mut regs.f, *dst, *a, 1),
            Op::VCall1F { i, ty, dst, a, w } => {
                lanes::call1_f(*i, *ty, &mut regs.f, *dst, *a, *w);
            }
            Op::Call2F { i, ty, dst, a, b } => {
                lanes::call2_f(*i, *ty, &mut regs.f, *dst, *a, *b, 1);
            }
            Op::VCall2F {
                i,
                ty,
                dst,
                a,
                b,
                w,
            } => lanes::call2_f(*i, *ty, &mut regs.f, *dst, *a, *b, *w),

            Op::SplatI { dst, a, w } => lanes::splat(&mut regs.i, *dst, *a, *w),
            Op::SplatF { dst, a, w } => lanes::splat(&mut regs.f, *dst, *a, *w),
            Op::PermI {
                parity,
                dst,
                a,
                b,
                w,
            } => lanes::permute(&mut regs.i, lanes::lone(*parity, *dst), *a, *b, *w),
            Op::PermF {
                parity,
                dst,
                a,
                b,
                w,
            } => lanes::permute(&mut regs.f, lanes::lone(*parity, *dst), *a, *b, *w),
            Op::PermPairI { even, odd, a, b, w } => {
                lanes::permute(&mut regs.i, [Some(*even), Some(*odd)], *a, *b, *w)
            }
            Op::PermPairF { even, odd, a, b, w } => {
                lanes::permute(&mut regs.f, [Some(*even), Some(*odd)], *a, *b, *w)
            }

            Op::LoadIdxI {
                dst,
                base,
                len,
                idx,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                regs.i[*dst as usize] = regs.i[*base as usize + k];
            }
            Op::LoadIdxF {
                dst,
                base,
                len,
                idx,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                regs.f[*dst as usize] = regs.f[*base as usize + k];
            }
            Op::LoadVElemI {
                dst,
                base,
                len,
                idx,
                w,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                let s = *base as usize + k * *w as usize;
                lanes::mov(&mut regs.i, *dst as usize, s, *w as usize);
            }
            Op::LoadVElemF {
                dst,
                base,
                len,
                idx,
                w,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                let s = *base as usize + k * *w as usize;
                lanes::mov(&mut regs.f, *dst as usize, s, *w as usize);
            }
            Op::LoadVSliceI {
                dst,
                base,
                len,
                idx,
                w,
            } => {
                let k = slice_index(regs.i[*idx as usize], *w, *len, &plan.name);
                lanes::mov(&mut regs.i, *dst as usize, *base as usize + k, *w as usize);
            }
            Op::LoadVSliceF {
                dst,
                base,
                len,
                idx,
                w,
            } => {
                let k = slice_index(regs.i[*idx as usize], *w, *len, &plan.name);
                lanes::mov(&mut regs.f, *dst as usize, *base as usize + k, *w as usize);
            }
            Op::StoreIdxI {
                base,
                len,
                idx,
                src,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                regs.i[*base as usize + k] = regs.i[*src as usize];
            }
            Op::StoreIdxF {
                base,
                len,
                idx,
                src,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                regs.f[*base as usize + k] = regs.f[*src as usize];
            }
            Op::StoreVElemI {
                base,
                len,
                idx,
                src,
                w,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                let d = *base as usize + k * *w as usize;
                lanes::mov(&mut regs.i, d, *src as usize, *w as usize);
            }
            Op::StoreVElemF {
                base,
                len,
                idx,
                src,
                w,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                let d = *base as usize + k * *w as usize;
                lanes::mov(&mut regs.f, d, *src as usize, *w as usize);
            }
            Op::StoreVSliceI {
                base,
                len,
                idx,
                src,
                w,
            } => {
                let k = slice_index(regs.i[*idx as usize], *w, *len, &plan.name);
                lanes::mov(&mut regs.i, *base as usize + k, *src as usize, *w as usize);
            }
            Op::StoreVSliceF {
                base,
                len,
                idx,
                src,
                w,
            } => {
                let k = slice_index(regs.i[*idx as usize], *w, *len, &plan.name);
                lanes::mov(&mut regs.f, *base as usize + k, *src as usize, *w as usize);
            }
            Op::LaneStoreI {
                base,
                len,
                idx,
                lane,
                w,
                src,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                regs.i[*base as usize + k * *w as usize + *lane as usize] = regs.i[*src as usize];
            }
            Op::LaneStoreF {
                base,
                len,
                idx,
                lane,
                w,
                src,
            } => {
                let k = array_index(regs.i[*idx as usize], *len, &plan.name);
                regs.f[*base as usize + k * *w as usize + *lane as usize] = regs.f[*src as usize];
            }

            // Tape and channel ops are bit-cast register moves: a slot
            // holds the image a register holds. That the tapes carry the
            // element types the plan was compiled for (`in_elem`,
            // `out_elem`) is checked once per firing block, at the firing
            // boundary.
            Op::PopI { dst } => regs.i[*dst as usize] = tape!(Input, input).pop_raw() as i64,
            Op::PopF { dst } => {
                regs.f[*dst as usize] = f64::from_bits(tape!(Input, input).pop_raw());
            }
            Op::PeekI { dst, off } => {
                let o = regs.i[*off as usize] as usize;
                regs.i[*dst as usize] = tape!(Input, input).peek_raw(o) as i64;
            }
            Op::PeekF { dst, off } => {
                let o = regs.i[*off as usize] as usize;
                regs.f[*dst as usize] = f64::from_bits(tape!(Input, input).peek_raw(o));
            }
            Op::VPopI { dst, w } => {
                let span = tape!(Input, input).vpop_slices(*w as usize);
                lanes::load(&mut regs.i, *dst, span, |raw| raw as i64);
            }
            Op::VPopF { dst, w } => {
                let span = tape!(Input, input).vpop_slices(*w as usize);
                lanes::load(&mut regs.f, *dst, span, f64::from_bits);
            }
            Op::VPeekI { dst, off, w } => {
                let o = regs.i[*off as usize] as usize;
                let span = tape!(Input, input).vpeek_slices(o, *w as usize);
                lanes::load(&mut regs.i, *dst, span, |raw| raw as i64);
            }
            Op::VPeekF { dst, off, w } => {
                let o = regs.i[*off as usize] as usize;
                let span = tape!(Input, input).vpeek_slices(o, *w as usize);
                lanes::load(&mut regs.f, *dst, span, f64::from_bits);
            }
            Op::AdvRead { n } => tape!(Input, input).advance_read(*n as usize),

            Op::PushI { src } => tape!(Output, output).push_raw(regs.i[*src as usize] as u64),
            Op::PushF { src } => {
                tape!(Output, output).push_raw(regs.f[*src as usize].to_bits());
            }
            Op::RPushI { src, off } => {
                let o = regs.i[*off as usize] as usize;
                tape!(Output, output).rpush_raw(regs.i[*src as usize] as u64, o);
            }
            Op::RPushF { src, off } => {
                let o = regs.i[*off as usize] as usize;
                tape!(Output, output).rpush_raw(regs.f[*src as usize].to_bits(), o);
            }
            Op::VPushI { src, w } => {
                let t = tape!(Output, output);
                lanes::store(&regs.i, *src, *w, |x| x as u64, |span| t.push_slice(span));
            }
            Op::VPushF { src, w } => {
                let t = tape!(Output, output);
                lanes::store(&regs.f, *src, *w, f64::to_bits, |span| t.push_slice(span));
            }
            Op::AdvWrite { n } => tape!(Output, output).advance_write(*n as usize),

            Op::LPopI { chan, dst } => match chans[*chan as usize].pop(1) {
                Some(span) => regs.i[*dst as usize] = span[0] as i64,
                None => underflow!(format!("ch{chan}")),
            },
            Op::LPopF { chan, dst } => match chans[*chan as usize].pop(1) {
                Some(span) => regs.f[*dst as usize] = f64::from_bits(span[0]),
                None => underflow!(format!("ch{chan}")),
            },
            Op::LVPopI { chan, dst, w } => match chans[*chan as usize].pop(*w as usize) {
                Some(span) => lanes::load(&mut regs.i, *dst, (span, &[]), |raw| raw as i64),
                None => underflow!(format!("ch{chan} (vector)")),
            },
            Op::LVPopF { chan, dst, w } => match chans[*chan as usize].pop(*w as usize) {
                Some(span) => lanes::load(&mut regs.f, *dst, (span, &[]), f64::from_bits),
                None => underflow!(format!("ch{chan} (vector)")),
            },
            Op::LPushI { chan, src } => {
                chans[*chan as usize].push(&[regs.i[*src as usize] as u64]);
            }
            Op::LPushF { chan, src } => {
                chans[*chan as usize].push(&[regs.f[*src as usize].to_bits()]);
            }
            Op::LVPushI { chan, src, w } => {
                let ch = &mut chans[*chan as usize];
                lanes::store(&regs.i, *src, *w, |x| x as u64, |span| ch.push(span));
            }
            Op::LVPushF { chan, src, w } => {
                let ch = &mut chans[*chan as usize];
                lanes::store(&regs.f, *src, *w, f64::to_bits, |span| ch.push(span));
            }

            Op::Jump { target } => ip = at(*target),
            Op::JumpIfZI { cond, target } => {
                if regs.i[*cond as usize] == 0 {
                    ip = at(*target);
                }
            }
            Op::JumpIfZF { cond, target } => {
                if regs.f[*cond as usize] == 0.0 {
                    ip = at(*target);
                }
            }
            Op::LoopEnter {
                counter,
                limit,
                var,
                exit,
            } => {
                regs.i[*counter as usize] = 0;
                if regs.i[*limit as usize] <= 0 {
                    ip = at(*exit);
                } else {
                    regs.i[*var as usize] = 0;
                }
            }
            Op::LoopNext {
                counter,
                limit,
                var,
                body,
            } => {
                let next = regs.i[*counter as usize] + 1;
                regs.i[*counter as usize] = next;
                if next < regs.i[*limit as usize] {
                    regs.i[*var as usize] = (next as i32) as i64;
                    ip = at(*body);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i32_arithmetic_wraps_in_narrow_domain() {
        let x = i32::MAX as i64;
        assert_eq!(bin_i(BinOp::Add, ScalarTy::I32, x, 1), i32::MIN as i64);
        assert_eq!(bin_i(BinOp::Add, ScalarTy::I64, x, 1), x + 1);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        assert_eq!(bin_i(BinOp::Div, ScalarTy::I32, 7, 0), 0);
        assert_eq!(bin_i(BinOp::Rem, ScalarTy::I64, 7, 0), 0);
    }

    #[test]
    fn comparisons_yield_zero_one() {
        assert_eq!(bin_i(BinOp::Lt, ScalarTy::I32, -1, 1), 1);
        assert_eq!(bin_i(BinOp::Ge, ScalarTy::I64, -1, 1), 0);
        assert_eq!(cmp_f(BinOp::Le, 1.5, 1.5), 1);
        assert_eq!(cmp_f(BinOp::Ne, f64::NAN, f64::NAN), 1);
    }

    #[test]
    fn f32_arithmetic_rounds_per_op() {
        // 1e8 + 1 is not representable in f32; the f32 domain must round.
        let a = 1.0e8f32 as f64;
        let r = bin_f(BinOp::Add, ScalarTy::F32, a, 1.0);
        assert_eq!(r, (1.0e8f32 + 1.0f32) as f64);
        let r64 = bin_f(BinOp::Add, ScalarTy::F64, a, 1.0);
        assert_eq!(r64, a + 1.0);
    }

    #[test]
    fn casts_match_value_cast() {
        use macross_streamir::types::Value;
        // F64 -> I32 saturation.
        assert_eq!(
            cast_fi(ScalarTy::I32, 1e12),
            Value::F64(1e12).cast(ScalarTy::I32).as_i64()
        );
        // I64 -> I32 truncation, re-extended.
        assert_eq!(cast_ii(ScalarTy::I64, ScalarTy::I32, 1 << 40), 0);
        // F64 -> F32 rounding.
        assert_eq!(cast_ff(ScalarTy::F32, 1.0e-300), 0.0);
    }

    #[test]
    fn charge_entry_zero_detection() {
        assert!(ChargeEntry::default().is_zero());
        let e = ChargeEntry {
            in_addr: 1,
            ..Default::default()
        };
        assert!(!e.is_zero());
    }

    #[test]
    fn straight_line_code_runs() {
        let add = Op::BinI {
            op: BinOp::Add,
            ty: ScalarTy::I32,
            dst: 2,
            a: 0,
            b: 1,
        };
        let plan = CompiledFilter {
            pool_i: (0, Box::new([20, 22])),
            ..CompiledFilter::bare("t", 3, 0, vec![add])
        };
        let mut regs = plan.new_regs();
        let mut counters = CycleCounters::default();
        run_code(
            &plan,
            &plan.work,
            &mut regs,
            &mut [],
            None,
            None,
            AddrCosts::default(),
            &mut counters,
        )
        .unwrap();
        assert_eq!(regs.i[2], 42);
    }

    #[test]
    fn missing_tape_is_reported() {
        let pop = Op::PopI { dst: 0 };
        let plan = CompiledFilter::bare("no_tape", 1, 0, vec![pop]);
        let mut regs = Regs::new(1, 0);
        let mut counters = CycleCounters::default();
        let err = run_code(
            &plan,
            &plan.work,
            &mut regs,
            &mut [],
            None,
            None,
            AddrCosts::default(),
            &mut counters,
        )
        .unwrap_err();
        assert_eq!(
            err,
            VmError::MissingTape {
                filter: "no_tape".into(),
                side: TapeSide::Input
            }
        );
    }
}
