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
//! # Folding
//!
//! The walk keeps a [`Fact`] per variable: what it knows of an integer
//! scalar at the point it has reached. A `Local` one is 0 at the top of
//! `work`; the `k`-th copy of an unrolled loop knows its variable is `k`;
//! an assignment whose value folds — every leaf a literal or a known
//! variable, evaluated with the VM's own integer helpers — makes its
//! variable known and emits nothing. A fact is dropped when its variable
//! gets a value that does not fold, at the join of an `If` whose
//! condition does not fold (for what either branch assigns) and at the
//! entry of a rotated loop (for what its body assigns); its register is
//! written only then, and for a `State` variable at the end of the body
//! ([`Compiler::settle`]). What folds is a pool operand; an array element
//! whose subscript folds in range is a window of its array, read and
//! forwarded to like a variable; an `If` whose condition folds compiles
//! the branch it takes; and a loop whose count folds is unrolled when its
//! copies fit [`UNROLL_BUDGET`] ([`Compiler::unrolled`]) — in `work`
//! only. A scalar or vector assigned a window that outlives the statement
//! — a pool window, another variable's, an element's — is a
//! [`Fact::Copy`] of it, read from there with no move; the move is
//! emitted only when something is about to write that window
//! ([`Compiler::clobber`]), before a join or a loop, or when the fact is
//! settled. Folding moves no charge: every folded node is charged its
//! price where the tree-walker evaluates it.
//!
//! # Writing where the value goes
//!
//! Three more rewrites make an op write where its value is used or save
//! one, each looking no further than the last op emitted or the next
//! statement.
//! A float `Add` one of whose sources is the temporary the last op — a
//! `Mul` of the same type and width — just computed replaces that op
//! with one [`Op::MulAddF`] ([`Compiler::product`]): the product's
//! temporary is read by nothing else, and the fused op rounds twice, in
//! the source's operand order, so its bits are the two ops'. Only when
//! [`Compiler::dest`] settles no copy in between is the `Mul` still the
//! last op. And in `x = e; a[k] = x`, where `a[k]`'s subscript folds in
//! range and does not read `x`, `e` is offered the element's window
//! before `x`'s ([`Compiler::in_place`]): `x` becomes a copy of the
//! element and the store moves nothing. Where `dest` refuses the
//! element, the value goes to `x` as before. And an `extract_odd` whose
//! last op is the `extract_even` of the same sources, width and file
//! replaces that op with one [`Op::PermPairF`] / [`Op::PermPairI`]
//! ([`Compiler::even_half`]), unless its `dest` settles a copy (a move
//! then sits between them) or it starts at a jump target: the rule
//! crosses a statement, so [`Compiler::here`] marks each label. None
//! moves a charge: each node is charged where it always was.
//!
//! # Cycle accounting
//!
//! Every node is charged its price from the machine's price list
//! ([`Machine::expr_charge`] and its siblings, the prices the tree-walker
//! charges as it executes), accumulated into the pending [`ChargeEntry`]
//! of the innermost enclosing block. A loop body's entry
//! is multiplied by the trip count into the enclosing block — at compile
//! time when the count folds (nests multiply), by one
//! [`Op::ChargeTimes`] behind the loop otherwise — so a body without an
//! `If` ends in exactly one [`Op::Charge`]; only the branches of an `If`
//! are charged in place. Counter fields are `u64` sums, so aggregation
//! order cannot change totals; per-access input/output reorder costs are
//! kept as *counts* and multiplied by the edge costs at run time, exactly
//! like the tree-walker's incremental additions.

use crate::bytecode::{bin_i, call1_i, call2_i, cast_ii, neg_i, not_i, CompiledFilter, Op};
use crate::machine::{ChargeEntry, Machine};
use crate::tape::raw_of;
use macross_streamir::expr::{BinOp, Expr, Intrinsic, LValue, UnOp};
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
    kind: VarKind,
    base: u32,
}

/// What the walk knows of a variable at the point it has reached. Only
/// an integer scalar is ever [`Fact::Known`]; only a scalar or vector is
/// ever a [`Fact::Copy`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fact {
    /// The variable's register holds its value.
    Unknown,
    /// The variable's value is `image`; `in_reg` says whether its
    /// register holds it yet.
    Known { image: i64, in_reg: bool },
    /// The variable's value is the window of its width at `reg`, a pool
    /// window or another variable's; its own register does not hold it.
    Copy { reg: u32 },
}

/// How many ops a loop whose trip count is known may compile to when it
/// is unrolled, as [`Compiler::unrolled`] measures it. A loop above it
/// stays a rotated `LoopEnter`/`LoopNext` loop.
const UNROLL_BUDGET: u64 = 256;

/// A window of one register file: the variable window the outermost op
/// of an assignment may write directly instead of a fresh temporary, or
/// the window a copy reads.
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

    /// Forget every constant interned since the pool held `len` images.
    fn truncate(&mut self, len: usize) {
        self.bits.truncate(len);
        let kept = |offset: &mut u32| (*offset as usize) < len;
        self.uniform.retain(|_, offset| kept(offset));
        self.mixed.retain(|_, offset| kept(offset));
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
    /// What the walk knows of each variable, by `VarId`.
    facts: Vec<Fact>,
    /// The variables whose fact is a [`Fact::Copy`], each with the window
    /// it reads.
    copies: Vec<(usize, Window)>,
    /// Whether a loop whose trip count is known may be unrolled (in
    /// `work`, not in `init`).
    unroll: bool,
    /// Charges of the innermost enclosing block (function body, loop body
    /// or `If` branch) not yet emitted or folded into its parent.
    pending: ChargeEntry,
    cur_i: u32,
    cur_f: u32,
    max_i: u32,
    max_f: u32,
    /// A temporary did not fit its zone: the filter cannot be compiled.
    overflowed: bool,
    /// Where the last jump target was taken ([`Compiler::here`]): an op
    /// emitted there is reached from elsewhere too, so it must not be
    /// merged into the op before it.
    label: Option<u32>,
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
        vars.push(VarSlot {
            ty: decl.ty,
            kind: decl.kind,
            base,
        });
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
        facts: Vec::new(),
        copies: Vec::new(),
        unroll: false,
        pending: ChargeEntry::default(),
        cur_i: TEMP_I,
        cur_f: TEMP_F,
        max_i: TEMP_I,
        max_f: TEMP_F,
        overflowed: false,
        label: None,
    };
    let mut init = c.compile_body(&filter.init, false)?;
    let mut work = c.compile_body(&filter.work, true)?;
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
    /// Compile `init` (`work == false`) or `work`. A `work` body starts
    /// knowing that every `Local` integer scalar is 0, as the VM zeroes
    /// them before each firing, and may unroll; `init` knows nothing at
    /// entry and unrolls nothing. A `State` variable's register is written
    /// at the end of either, so it carries its value to the next firing.
    fn compile_body(&mut self, stmts: &[Stmt], work: bool) -> Option<Vec<Op>> {
        debug_assert!(self.pending.is_zero());
        self.unroll = work;
        self.facts.clear();
        self.facts
            .extend(self.vars.iter().map(|slot| match slot.ty {
                Ty::Scalar(ScalarTy::I32 | ScalarTy::I64)
                    if work && slot.kind == VarKind::Local =>
                {
                    Fact::Known {
                        image: 0,
                        in_reg: true,
                    }
                }
                _ => Fact::Unknown,
            }));
        self.copies.clear();
        self.code = Vec::new();
        self.label = None;
        self.compile_block(stmts)?;
        for v in 0..self.vars.len() {
            if self.vars[v].kind == VarKind::State {
                self.settle(&[v]);
            }
        }
        self.flush();
        Some(std::mem::take(&mut self.code))
    }

    fn compile_block(&mut self, stmts: &[Stmt]) -> Option<()> {
        for (k, s) in stmts.iter().enumerate() {
            // Expression temporaries live only for their statement.
            let (ci, cf) = (self.cur_i, self.cur_f);
            self.compile_stmt(s, stmts.get(k + 1))?;
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

    /// The position of the next op, taken as a jump target.
    fn here(&mut self) -> u32 {
        let at = self.code.len() as u32;
        self.label = Some(at);
        at
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

    /// Where a value-producing op writes: the first forwarded window of
    /// `want` where that is legal — same file and width, and every window
    /// of `srcs` (the op's sources as `(is_float, base, len)`) that lies in
    /// that file disjoint from it or, for the `lanewise` ops (lane `k`
    /// reads only lane `k`), identical to it — else a fresh temporary.
    /// Sub-expressions are compiled with no `want`, so only the op that
    /// produces the assigned value itself can land in the variable, and a
    /// pool register is never written.
    fn dest(
        &mut self,
        want: &[Window],
        float: bool,
        w: u32,
        lanewise: bool,
        srcs: &[(bool, u32, u32)],
    ) -> u32 {
        for win in want.iter().filter(|win| win.float == float && win.len == w) {
            let clear = |&(f, s, len): &(bool, u32, u32)| {
                f != float
                    || s + len <= win.base
                    || win.base + w <= s
                    || (lanewise && (s, len) == (win.base, w))
            };
            if srcs.iter().all(clear) {
                self.clobber(float, win.base, w);
                return win.base;
            }
        }
        self.alloc(float, w)
    }

    /// The window `lv = expr` may forward to: a whole scalar or vector
    /// variable, one lane of a vector variable, or — when its subscript
    /// folded to an in-range `known` — an element or an element's lane of
    /// an array: the lvalues with nothing to evaluate after the value.
    fn forward_window(&self, lv: &LValue, known: Option<i64>) -> Option<Window> {
        let slot = *self.vars.get(lv.var().0 as usize)?;
        let float = slot.ty.elem().is_float();
        let k = || known.and_then(|k| u32::try_from(k).ok());
        let (base, len) = match (lv, slot.ty) {
            (LValue::Var(_), Ty::Scalar(_)) => (slot.base, 1),
            (LValue::Var(_), Ty::Vector(_, w)) => (slot.base, u32::try_from(w).ok()?),
            (LValue::LaneVar(_, lane), Ty::Vector(_, w)) if *lane < w => {
                (slot.base + u32::try_from(*lane).ok()?, 1)
            }
            (LValue::Index(..), Ty::Array(_, n)) => {
                let k = k().filter(|&k| (k as usize) < n)?;
                (slot.base + k, 1)
            }
            (LValue::Index(..), Ty::VectorArray(_, w, n)) => {
                let (k, w) = (k().filter(|&k| (k as usize) < n)?, u32::try_from(w).ok()?);
                (slot.base + k * w, w)
            }
            (LValue::LaneIndex(_, _, lane), Ty::VectorArray(_, w, n)) if *lane < w => {
                let k = k().filter(|&k| (k as usize) < n)?;
                let (w, lane) = (u32::try_from(w).ok()?, u32::try_from(*lane).ok()?);
                (slot.base + k * w + lane, 1)
            }
            _ => return None,
        };
        Some(Window { float, base, len })
    }

    /// `window at dst <- val`, a register move (free in the cost model)
    /// unless `val` was forwarded there and already is the window.
    fn emit_mov(&mut self, dst: u32, val: Operand) {
        let src = val.reg;
        if src != dst {
            self.clobber(val.is_float(), dst, val.w.unwrap_or(1));
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

    /// Charge every node of `e`, a tree that folded: each is charged what
    /// the tree-walker charges for evaluating it.
    fn charge_tree(&mut self, e: &Expr) {
        let (machine, pending) = (self.machine, &mut self.pending);
        e.walk(&mut |n| {
            // Reading a literal or a variable is free.
            if !matches!(n, Expr::Const(_) | Expr::Var(_)) {
                pending.absorb(&machine.expr_charge(n, false));
            }
        });
    }

    /// The value of `e` if it is an integer scalar expression whose every
    /// leaf the walk knows here, as `(type, image)`, computed with the
    /// helpers the VM runs its integer ops with. Emits and charges
    /// nothing; floating point is never folded.
    fn fold(&self, e: &Expr) -> Option<(ScalarTy, i64)> {
        Some(match e {
            Expr::Const(v @ (Value::I32(_) | Value::I64(_))) => (v.ty(), raw_of(*v) as i64),
            Expr::Var(v) => match self.facts.get(v.0 as usize)? {
                Fact::Known { image, .. } => (self.vars[v.0 as usize].ty.elem(), *image),
                Fact::Unknown | Fact::Copy { .. } => return None,
            },
            Expr::Unary(op, a) => {
                let (t, x) = self.fold(a)?;
                match op {
                    UnOp::Neg => (t, neg_i(t, x)),
                    UnOp::Not => (t, not_i(t, x)),
                    UnOp::LogNot => (ScalarTy::I32, (x == 0) as i64),
                }
            }
            Expr::Binary(op, a, b) => {
                let ((t, x), (u, y)) = (self.fold(a)?, self.fold(b)?);
                if t != u {
                    return None;
                }
                let ty = if op.is_comparison() { ScalarTy::I32 } else { t };
                (ty, bin_i(*op, t, x, y))
            }
            Expr::Cast(to, a) if !to.is_float() => {
                let (from, x) = self.fold(a)?;
                (*to, cast_ii(from, *to, x))
            }
            Expr::Call(i, args) => match (i, &args[..]) {
                (Intrinsic::Abs, [a]) => {
                    let (t, x) = self.fold(a)?;
                    (t, call1_i(t, x))
                }
                (Intrinsic::Min | Intrinsic::Max, [a, b]) => {
                    let ((t, x), (u, y)) = (self.fold(a)?, self.fold(b)?);
                    if t != u {
                        return None;
                    }
                    (t, call2_i(*i, x, y))
                }
                _ => return None,
            },
            _ => return None,
        })
    }

    /// [`Self::fold`] for a tree about to be dropped from the code: its
    /// nodes are charged when it folds.
    fn fold_charged(&mut self, e: &Expr) -> Option<(ScalarTy, i64)> {
        let known = self.fold(e)?;
        self.charge_tree(e);
        Some(known)
    }

    /// Set `v`'s fact, keeping [`Compiler::copies`] the list of copies.
    fn set_fact(&mut self, v: usize, fact: Fact) {
        if let Fact::Copy { .. } = self.facts[v] {
            self.copies.retain(|&(c, _)| c != v);
        }
        if let Fact::Copy { reg } = fact {
            let ty = self.vars[v].ty;
            let (float, len) = (ty.elem().is_float(), window_len(ty).unwrap_or(1));
            let read = Window {
                float,
                base: reg,
                len,
            };
            self.copies.push((v, read));
        }
        self.facts[v] = fact;
    }

    /// Write each of `vars` that holds a fact its register does not yet
    /// hold, and forget the fact: from here on the register is the value.
    fn settle(&mut self, vars: &[usize]) {
        for &v in vars {
            let slot = self.vars[v];
            let reg = match self.facts[v] {
                Fact::Known { in_reg: true, .. } => None,
                Fact::Known { image, .. } => Some(self.pool_i.intern(&[image as u64])),
                Fact::Copy { reg } => Some(reg),
                Fact::Unknown => continue,
            };
            self.set_fact(v, Fact::Unknown);
            if let Some(reg) = reg {
                let w = match slot.ty {
                    Ty::Vector(..) => window_len(slot.ty),
                    _ => None,
                };
                let ty = slot.ty.elem();
                self.emit_mov(slot.base, Operand { ty, w, reg });
            }
        }
    }

    /// Settle every copy: before a join or a loop, where the paths that
    /// meet would disagree on them.
    fn settle_copies(&mut self) {
        while let Some(&(v, _)) = self.copies.last() {
            self.settle(&[v]);
        }
    }

    /// Before an op writes the registers `base..base + len` of one file,
    /// settle each copy whose window they overlap.
    fn clobber(&mut self, float: bool, base: u32, len: u32) {
        let mut at = 0;
        while let Some(&(v, read)) = self.copies.get(at) {
            if read.float == float && read.base < base + len && base < read.base + read.len {
                // Settling writes the copy's own window, which may settle
                // others: start over.
                self.settle(&[v]);
                at = 0;
            } else {
                at += 1;
            }
        }
    }

    /// What the walk knows of each of `vars`: compiling code that assigns
    /// only those changes no other fact, so this is all it must put back.
    fn facts_of(&self, vars: &[usize]) -> Vec<Fact> {
        vars.iter().map(|&v| self.facts[v]).collect()
    }

    /// Put back what [`Self::facts_of`] took of `vars`.
    fn restore_facts(&mut self, vars: &[usize], facts: &[Fact]) {
        for (&v, &fact) in vars.iter().zip(facts) {
            self.set_fact(v, fact);
        }
    }

    /// Every variable `stmts` may assign as a whole, a loop variable
    /// included, appended to `out`.
    fn assigned(stmts: &[Stmt], out: &mut Vec<usize>) {
        for s in stmts {
            s.walk(&mut |s| match s {
                Stmt::Assign(LValue::Var(v), _) | Stmt::For { var: v, .. } => {
                    out.push(v.0 as usize);
                }
                _ => {}
            });
        }
    }

    /// Compile the loop over `var` with a known count of `trips` as
    /// `trips` copies of `body`, when they fit [`UNROLL_BUDGET`]: in the
    /// `k`-th copy the variable is `k`, and each copy is charged where it
    /// runs. The copies are compiled one after another and counted at
    /// least one op each; as soon as they exceed the budget, or the first
    /// copy times `trips` does, they are taken back and `false` returned,
    /// for the caller to compile a rotated loop instead.
    fn unrolled(&mut self, var: usize, trips: u64, body: &[Stmt]) -> Option<bool> {
        let (at, charges, pending) = (self.code.len(), self.charges.len(), self.pending);
        let pools = (self.pool_i.bits.len(), self.pool_f.bits.len());
        // The copies may settle a copy the body does not assign.
        let mut assigned = vec![var];
        Self::assigned(body, &mut assigned);
        assigned.extend(self.copies.iter().map(|&(v, _)| v));
        let facts = self.facts_of(&assigned);
        for k in 0..trips {
            let image = i64::from(k as i32);
            self.set_fact(
                var,
                Fact::Known {
                    image,
                    in_reg: false,
                },
            );
            self.charge(self.machine.loop_iter());
            self.compile_block(body)?;
            let size = ((self.code.len() - at) as u64).max(k + 1);
            if size > UNROLL_BUDGET || (k == 0 && trips.saturating_mul(size) > UNROLL_BUDGET) {
                self.code.truncate(at);
                self.charges.truncate(charges);
                self.pool_i.truncate(pools.0);
                self.pool_f.truncate(pools.1);
                self.pending = pending;
                self.restore_facts(&assigned, &facts);
                return Some(false);
            }
        }
        Some(true)
    }

    /// Where `slot`'s elements `k..k + span` lie, `len` elements of
    /// `stride` registers each, for the subscript `i` that folded to
    /// `known`: `Ok(register)` when `k` is known and in range — a window
    /// of the variable, no op needed — else `Err(idx)`, the index register
    /// of the bounds-checked op, which fails where the tree-walker does.
    fn locate(
        &mut self,
        slot: VarSlot,
        i: &Expr,
        known: Option<i64>,
        (stride, len, span): (u32, u32, u32),
    ) -> Option<Result<u32, u32>> {
        let at = known.and_then(|k| u32::try_from(k).ok());
        if let Some(k) = at.filter(|&k| k <= len && len - k >= span) {
            self.charge_tree(i);
            return Some(Ok(slot.base + k * stride));
        }
        let idx = self.compile_expr(i)?;
        Some(Err(self.as_index(idx)?))
    }

    /// The element window `x = e` may compute its value into when `next`,
    /// the statement after it, is `lv = x`: `lv` an element whose
    /// subscript folds in range and does not read `x`, so that it locates
    /// the same window before and after `x` is assigned. `x` is then a
    /// copy of the element, and the store moves nothing.
    fn in_place(&self, x: &LValue, next: Option<&Stmt>) -> Option<Window> {
        let (LValue::Var(x), Some(Stmt::Assign(lv, Expr::Var(y)))) = (x, next) else {
            return None;
        };
        let (LValue::Index(_, i) | LValue::LaneIndex(_, i, _)) = lv else {
            return None;
        };
        let mut reads_x = false;
        i.walk(&mut |e| reads_x |= matches!(e, Expr::Var(v) if v == x));
        if y != x || reads_x {
            return None;
        }
        let (_, known) = self.fold(i)?;
        self.forward_window(lv, Some(known))
    }

    fn compile_stmt(&mut self, s: &Stmt, next: Option<&Stmt>) -> Option<()> {
        self.charge(self.machine.stmt_charge(s));
        match s {
            Stmt::Assign(lv, e) => {
                let mut known = None;
                if let LValue::Index(_, i) | LValue::LaneIndex(_, i, _) | LValue::VIndex(_, i, _) =
                    lv
                {
                    known = self.fold(i).map(|(_, k)| k);
                    if known.is_none() {
                        // The pool meets a subscript's constants before
                        // the value's.
                        i.walk(&mut |e| {
                            self.pooled_operand(e);
                        });
                    }
                }
                // An integer scalar assigned a value the walk knows holds
                // it as a fact; its register is written only when the
                // fact is dropped.
                let folded = self.fold(e);
                if let (LValue::Var(v), Some((ty, image))) = (lv, folded) {
                    if self.vars.get(v.0 as usize)?.ty == Ty::Scalar(ty) {
                        self.charge_tree(e);
                        let fact = Fact::Known {
                            image,
                            in_reg: false,
                        };
                        self.set_fact(v.0 as usize, fact);
                        return Some(());
                    }
                }
                // Writing one lane needs the whole vector in its window.
                if let LValue::LaneVar(v, _) = lv {
                    self.settle(&[v.0 as usize]);
                }
                // The element the next statement stores `lv` to comes
                // first; where `dest` refuses it, `lv`'s own window.
                let own = self.forward_window(lv, known);
                let both;
                let want = match (self.in_place(lv, next), own) {
                    (Some(element), Some(own)) => {
                        both = [element, own];
                        &both[..]
                    }
                    _ => own.as_slice(),
                };
                let val = match folded {
                    Some(_) => self.compile_expr_to(e, want)?,
                    None => self.lower_charged(e, want)?,
                };
                self.compile_store(lv, val, known)
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
                let (limit, trips) = match self.fold_charged(count) {
                    Some((_, n)) => {
                        let trips = n.max(0) as u64;
                        if self.unroll && self.unrolled(var.0 as usize, trips, body)? {
                            return Some(());
                        }
                        (self.pool_i.intern(&[n as u64]), Some(trips))
                    }
                    None => {
                        let cnt = self.compile_expr(count)?;
                        if cnt.w.is_some() {
                            return None;
                        }
                        // The limit has to survive the body. A pool
                        // register or a temporary of this statement does;
                        // a variable may be reassigned in the body, so it
                        // is copied.
                        let limit = if cnt.is_float() {
                            self.as_index(cnt)?
                        } else if cnt.reg < self.pool_i.base {
                            let dst = self.alloc(false, 1);
                            self.emit(Op::MovI { dst, src: cnt.reg });
                            dst
                        } else {
                            cnt.reg
                        };
                        (limit, None)
                    }
                };
                // What the body assigns differs between iterations: those
                // facts are written to their registers and dropped, before
                // the loop and again before its latch.
                let mut assigned = vec![var.0 as usize];
                Self::assigned(body, &mut assigned);
                self.settle(&assigned);
                self.settle_copies();
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
                self.settle(&assigned);
                self.settle_copies();
                let per_iter = std::mem::replace(&mut self.pending, outer);
                self.emit(Op::LoopNext {
                    counter,
                    limit,
                    var: slot.base,
                    body: top,
                });
                match trips {
                    // A known trip count: the body's charges fold into the
                    // enclosing block here, `n` times over.
                    Some(n) => self.pending.absorb(&per_iter.times(n)?),
                    None if per_iter.is_zero() => {}
                    None => {
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
                // A known condition compiles the branch it takes, charged
                // with the enclosing block.
                if let Some((_, c)) = self.fold_charged(cond) {
                    return self.compile_block(if c != 0 { then_branch } else { else_branch });
                }
                let c = self.compile_expr(cond)?;
                if c.w.is_some() {
                    return None;
                }
                // A fact either branch may change is dropped at the join:
                // each branch writes it to its register before it ends.
                let mut assigned = Vec::new();
                Self::assigned(then_branch, &mut assigned);
                Self::assigned(else_branch, &mut assigned);
                self.settle_copies();
                let facts = self.facts_of(&assigned);
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
                self.settle(&assigned);
                self.settle_copies();
                self.flush();
                let to_end = self.emit_patch(Op::Jump { target: 0 });
                let else_label = self.here();
                self.patch(to_else, else_label);
                self.restore_facts(&assigned, &facts);
                self.compile_block(else_branch)?;
                self.settle(&assigned);
                self.settle_copies();
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
    /// `known` is the subscript, when it folded: an element it locates in
    /// range is a register window, stored to with a move.
    fn compile_store(&mut self, lv: &LValue, val: Operand, known: Option<i64>) -> Option<()> {
        self.charge(self.machine.store_charge(lv, val.w.is_some()));
        let slot = *self.vars.get(lv.var().0 as usize)?;
        let len = |n: usize| u32::try_from(n).ok();
        match lv {
            LValue::Var(v) => {
                match (slot.ty, val.w) {
                    (Ty::Scalar(t), None) if t == val.ty => {}
                    (Ty::Vector(t, w), Some(vw)) if t == val.ty && u32::try_from(w).ok()? == vw => {
                    }
                    _ => return None,
                }
                // A value in a window that outlives the statement — the
                // pool's or another variable's — is a copy, not a move.
                let v = v.0 as usize;
                if val.reg != slot.base && val.reg < TEMP_F {
                    self.set_fact(v, Fact::Copy { reg: val.reg });
                } else {
                    self.set_fact(v, Fact::Unknown);
                    self.emit_mov(slot.base, val);
                }
                Some(())
            }
            LValue::Index(_, i) => {
                let (float, base, src) = (val.is_float(), slot.base, val.reg);
                match (slot.ty, val.w) {
                    (Ty::Array(t, n), None) if t == val.ty => {
                        let len = len(n)?;
                        let at = self.locate(slot, i, known, (1, len, 1))?;
                        self.store_at(at, val, slot, |idx| {
                            if float {
                                Op::StoreIdxF {
                                    base,
                                    len,
                                    idx,
                                    src,
                                }
                            } else {
                                Op::StoreIdxI {
                                    base,
                                    len,
                                    idx,
                                    src,
                                }
                            }
                        });
                        Some(())
                    }
                    (Ty::VectorArray(t, w, n), Some(vw))
                        if t == val.ty && u32::try_from(w).ok()? == vw =>
                    {
                        let (len, w) = (len(n)?, vw);
                        let at = self.locate(slot, i, known, (w, len, 1))?;
                        self.store_at(at, val, slot, |idx| {
                            if float {
                                Op::StoreVElemF {
                                    base,
                                    len,
                                    idx,
                                    src,
                                    w,
                                }
                            } else {
                                Op::StoreVElemI {
                                    base,
                                    len,
                                    idx,
                                    src,
                                    w,
                                }
                            }
                        });
                        Some(())
                    }
                    _ => None,
                }
            }
            LValue::VIndex(_, i, _) => {
                // The tree-walker copies `vals.len()` elements, ignoring
                // the annotation; mirror that by using the value's width.
                let (w, base, src) = (val.w?, slot.base, val.reg);
                match slot.ty {
                    Ty::Array(t, n) if t == val.ty => {
                        let len = len(n)?;
                        let at = self.locate(slot, i, known, (1, len, w))?;
                        self.store_at(at, val, slot, |idx| {
                            if t.is_float() {
                                Op::StoreVSliceF {
                                    base,
                                    len,
                                    idx,
                                    src,
                                    w,
                                }
                            } else {
                                Op::StoreVSliceI {
                                    base,
                                    len,
                                    idx,
                                    src,
                                    w,
                                }
                            }
                        });
                        Some(())
                    }
                    _ => None,
                }
            }
            LValue::LaneVar(_, lane) => match slot.ty {
                Ty::Vector(t, w) if t == val.ty && val.w.is_none() && *lane < w => {
                    self.emit_mov(slot.base + u32::try_from(*lane).ok()?, val);
                    Some(())
                }
                _ => None,
            },
            LValue::LaneIndex(_, i, lane) => match slot.ty {
                Ty::VectorArray(t, w, n) if t == val.ty && val.w.is_none() && *lane < w => {
                    let (len, w, lane) = (len(n)?, len(w)?, len(*lane)?);
                    let (base, src) = (slot.base, val.reg);
                    let at = self.locate(slot, i, known, (w, len, 1))?;
                    self.store_at(at.map(|row| row + lane), val, slot, |idx| {
                        if t.is_float() {
                            Op::LaneStoreF {
                                base,
                                len,
                                idx,
                                lane,
                                w,
                                src,
                            }
                        } else {
                            Op::LaneStoreI {
                                base,
                                len,
                                idx,
                                lane,
                                w,
                                src,
                            }
                        }
                    });
                    Some(())
                }
                _ => None,
            },
        }
    }

    /// Store `val` where [`Self::locate`] found its element: a move into
    /// the element's window, or the bounds-checked `op` on the index
    /// register, which may write anywhere in `slot`'s window.
    fn store_at(
        &mut self,
        at: Result<u32, u32>,
        val: Operand,
        slot: VarSlot,
        op: impl FnOnce(u32) -> Op,
    ) {
        match at {
            Ok(window) => self.emit_mov(window, val),
            Err(idx) => {
                let len = window_len(slot.ty).unwrap_or(u32::MAX - slot.base);
                self.clobber(slot.ty.elem().is_float(), slot.base, len);
                self.emit(op(idx));
            }
        }
    }

    fn compile_expr(&mut self, e: &Expr) -> Option<Operand> {
        self.compile_expr_to(e, &[])
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
    fn compile_expr_to(&mut self, e: &Expr, want: &[Window]) -> Option<Operand> {
        // What folds is a pool operand: nothing to emit. (Only these node
        // kinds can fold.)
        if let Expr::Const(_)
        | Expr::Var(_)
        | Expr::Unary(..)
        | Expr::Binary(..)
        | Expr::Cast(..)
        | Expr::Call(..) = e
        {
            if let Some((ty, image)) = self.fold_charged(e) {
                let reg = self.pool_i.intern(&[image as u64]);
                return Some(Operand { ty, w: None, reg });
            }
        }
        self.lower_charged(e, want)
    }

    /// [`Self::compile_expr_to`] for an `e` that does not fold.
    fn lower_charged(&mut self, e: &Expr, want: &[Window]) -> Option<Operand> {
        let val = self.lower_expr(e, want)?;
        // Reading a variable is free.
        if !matches!(e, Expr::Var(_)) {
            self.pending
                .absorb(&self.machine.expr_charge(e, val.w.is_some()));
        }
        Some(val)
    }

    fn lower_expr(&mut self, e: &Expr, want: &[Window]) -> Option<Operand> {
        match e {
            Expr::Const(_) | Expr::ConstVec(_) => self.pooled_operand(e),
            Expr::Var(v) => {
                let mut slot = *self.vars.get(v.0 as usize)?;
                if let Fact::Copy { reg } = self.facts[v.0 as usize] {
                    slot.base = reg;
                }
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
                let known = self.fold(i).map(|(_, k)| k);
                match slot.ty {
                    Ty::Array(t, n) => {
                        let len = u32::try_from(n).ok()?;
                        let idx = match self.locate(slot, i, known, (1, len, 1))? {
                            Ok(reg) => {
                                return Some(Operand {
                                    ty: t,
                                    w: None,
                                    reg,
                                })
                            }
                            Err(idx) => idx,
                        };
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
                        let (ty, w) = (t, Some(w));
                        let idx = match self.locate(slot, i, known, (w?, len, 1))? {
                            Ok(reg) => return Some(Operand { ty, w, reg }),
                            Err(idx) => idx,
                        };
                        let w = w?;
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
                let known = self.fold(i).map(|(_, k)| k);
                let w = u32::try_from(*w).ok()?;
                match slot.ty {
                    Ty::Array(t, n) => {
                        let len = u32::try_from(n).ok()?;
                        let idx = match self.locate(slot, i, known, (1, len, w))? {
                            Ok(reg) => {
                                let w = Some(w);
                                return Some(Operand { ty: t, w, reg });
                            }
                            Err(idx) => idx,
                        };
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
                let fused = match (float, op) {
                    (true, BinOp::Add) => self.product(a.ty, lanes, a.reg, b.reg),
                    _ => None,
                };
                // The multiply-add reads the product's sources in place of
                // the product: they must be clear of its destination too.
                let (x, y) = fused.map_or((a.reg, b.reg), |(_, _, x, y)| (x, y));
                let srcs = [a.reg, b.reg, x, y].map(|r| (float, r, lanes));
                let at = self.code.len();
                let dst = self.dest(want, float && !cmp, lanes, true, &srcs);
                let (op, ty, w, a, b) = (*op, a.ty, a.w, a.reg, b.reg);
                // Only if `dest` settled no copy is the product still the
                // last op.
                if let Some((acc_first, acc, a, b)) = fused.filter(|_| self.code.len() == at) {
                    self.code.pop();
                    self.emit(Op::MulAddF {
                        ty,
                        acc_first,
                        dst,
                        acc,
                        a,
                        b,
                        w: lanes,
                    });
                    return Some(Operand { ty, w, reg: dst });
                }
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
                // A splat of a value the walk knows is a vector constant.
                if let Some((ty, image)) = self.fold_charged(e) {
                    let w = u32::try_from(*width).ok()?;
                    self.image.clear();
                    self.image.resize(*width, image as u64);
                    let reg = self.pool_i.intern(&self.image);
                    return Some(Operand {
                        ty,
                        w: Some(w),
                        reg,
                    });
                }
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

    /// When the last op emitted is a float `Mul` of `ty` over `w` lanes
    /// into a temporary that exactly one of an `Add`'s sources `a`, `b`
    /// is: `(acc_first, acc, x, y)`, the `MulAddF` that computes the `Add`
    /// from the product's sources `x`, `y` and the other source `acc`. A
    /// temporary is read once, by the node it was computed for, so nothing
    /// else needs the product.
    fn product(&self, ty: ScalarTy, w: u32, a: u32, b: u32) -> Option<(bool, u32, u32, u32)> {
        let (t, x, y) = match *self.code.last()? {
            Op::BinF {
                op: BinOp::Mul,
                ty: of,
                dst,
                a,
                b,
            } if of == ty && w == 1 => (dst, a, b),
            Op::VBinF {
                op: BinOp::Mul,
                ty: of,
                dst,
                a,
                b,
                w: lanes,
            } if of == ty && lanes == w => (dst, a, b),
            _ => return None,
        };
        if !(TEMP_F..TEMP_I).contains(&t) {
            return None;
        }
        match (a == t, b == t) {
            (true, false) => Some((false, b, x, y)),
            (false, true) => Some((true, a, x, y)),
            _ => None,
        }
    }

    fn permute(&mut self, a: &Expr, b: &Expr, parity: u32, want: &[Window]) -> Option<Operand> {
        let a = self.compile_expr(a)?;
        let b = self.compile_expr(b)?;
        let w = a.w?;
        if b.w != Some(w) || a.ty != b.ty {
            return None;
        }
        // Lane `k` of a permute reads lane `2k` or `2k + 1`: it must not
        // write over its sources.
        let float = a.is_float();
        let srcs = [(float, a.reg, w), (float, b.reg, w)];
        let dst = self.dest(want, float, w, false, &srcs);
        let (a, b, ty) = (a.reg, b.reg, a.ty);
        // A copy `dest` settled is a move after the even half, which is
        // then no longer the last op.
        let even = match parity {
            1 => self.even_half(float, a, b, w),
            _ => None,
        };
        if even.is_some() {
            self.code.pop();
        }
        let odd = dst;
        self.emit(match (even, float) {
            (Some(even), true) => Op::PermPairF { even, odd, a, b, w },
            (Some(even), false) => Op::PermPairI { even, odd, a, b, w },
            (None, true) => Op::PermF {
                parity,
                dst,
                a,
                b,
                w,
            },
            (None, false) => Op::PermI {
                parity,
                dst,
                a,
                b,
                w,
            },
        });
        Some(Operand {
            ty,
            w: Some(w),
            reg: dst,
        })
    }

    /// When the last op emitted is the `extract_even` of `a` and `b` over
    /// `w` lanes in the `float` file, and the next op is not a jump
    /// target: that permute's destination, for the `extract_odd` of the
    /// same sources to join it as one pair op. The even destination is
    /// disjoint from `a` and `b`, so the odd half reads what it read.
    fn even_half(&self, float: bool, a: u32, b: u32, w: u32) -> Option<u32> {
        if self.label == Some(self.code.len() as u32) {
            return None;
        }
        let (dst, srcs) = match *self.code.last()? {
            Op::PermF {
                parity: 0,
                dst,
                a,
                b,
                w,
            } if float => (dst, (a, b, w)),
            Op::PermI {
                parity: 0,
                dst,
                a,
                b,
                w,
            } if !float => (dst, (a, b, w)),
            _ => return None,
        };
        (srcs == (a, b, w)).then_some(dst)
    }

    fn unary(&mut self, op: UnOp, a: Operand, w: Option<u32>, want: &[Window]) -> Option<Operand> {
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

    fn intrinsic(&mut self, i: Intrinsic, ops: &[Operand], want: &[Window]) -> Option<Operand> {
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
            Op::MulAddF { dst, acc, a, b, .. }
            | Op::PermPairI {
                even: dst,
                odd: acc,
                a,
                b,
                ..
            }
            | Op::PermPairF {
                even: dst,
                odd: acc,
                a,
                b,
                ..
            } => {
                fix(dst);
                fix(acc);
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
    /// it. The subscript and the value read a `State` variable, so neither
    /// folds.
    #[test]
    fn the_pool_keeps_walk_order_and_temporaries_sit_above_it() {
        let mut fb = FilterBuilder::new("order", 0, 0, 0, ScalarTy::F32);
        let a = fb.local("a", Ty::Array(ScalarTy::I32, 8));
        let x = fb.local("x", Ty::Vector(ScalarTy::F32, 4));
        let s = fb.state("s", Ty::Scalar(ScalarTy::I32));
        let splat = Expr::Splat(Box::new(Expr::Const(Value::F32(2.5))), 4);
        fb.work(|b| {
            b.set_idx(a, v(s) & 7i32, v(s) * 3i32 + 4i32);
            b.set(x, E(splat) * v(x));
        });
        let f = fb.build();
        let plan = compile_filter(&f, None, None, &Machine::core_i7()).expect("compiles");
        // `a` takes i0..8, `s` i8 and `x` f0..4; the pool follows each.
        assert_eq!(plan.pool_i, (9, vec![7i64, 3, 4].into_boxed_slice()));
        assert_eq!(plan.pool_f, (4, vec![2.5f64; 5].into_boxed_slice()));
        use macross_streamir::expr::BinOp::{Add, And, Mul};
        let bin = |op, dst, a, b| Op::BinI {
            op,
            ty: ScalarTy::I32,
            dst,
            a,
            b,
        };
        assert_eq!(
            plan.work[..4],
            [
                bin(Mul, 12, 8, 10),
                bin(Add, 13, 12, 11),
                bin(And, 14, 8, 9),
                Op::StoreIdxI {
                    base: 0,
                    len: 8,
                    idx: 14,
                    src: 13
                },
            ]
        );
        assert_eq!((plan.int_regs, plan.float_regs), (15, 9));
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

    /// A loop one trip above [`UNROLL_BUDGET`] stays a rotated loop, its
    /// charges folded at compile time.
    #[test]
    fn loop_compiles_with_setup_and_per_iter_charges() {
        let n = UNROLL_BUDGET + 1;
        let mut fb = FilterBuilder::new("looper", 0, 0, n as usize, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, n as i32, |b| {
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
        // the setup alu plus `n` times the per-iteration entry (loop
        // overhead, one store, one out-access).
        assert_eq!(count(|op| matches!(op, Op::Charge(_))), 1);
        assert_eq!(plan.charges.len(), 1);
        let c = plan.charges[0];
        assert_eq!(c.counters.compute_scalar, 1);
        assert_eq!(c.counters.loop_overhead, n);
        assert_eq!(c.counters.mem_scalar, 2 * n);
        assert_eq!(c.out_addr, n);
        // The limit is the literal's pool register, read in place.
        assert_eq!(plan.pool_i, (1, vec![n as i64].into_boxed_slice()));
        assert!(plan
            .work
            .iter()
            .any(|op| matches!(op, Op::LoopEnter { limit: 1, .. })));
    }

    fn count_ops(code: &[Op], f: impl Fn(&Op) -> bool) -> usize {
        code.iter().filter(|op| f(op)).count()
    }

    /// `trips` pushes of the loop variable compile to `trips` pushes of
    /// pool registers at the bound, and to a rotated loop one past it.
    #[test]
    fn a_literal_loop_at_the_bound_unrolls_and_one_past_stays_rotated() {
        for trips in [UNROLL_BUDGET, UNROLL_BUDGET + 1] {
            let mut fb = FilterBuilder::new("at", 0, 0, trips as usize, ScalarTy::I32);
            let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
            fb.work(|b| {
                b.for_(i, trips as i32, |b| {
                    b.push(v(i));
                });
            });
            let f = fb.build();
            let m = Machine::core_i7();
            let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
            let rotated = count_ops(&plan.work, |op| matches!(op, Op::LoopEnter { .. }));
            let pushes = count_ops(&plan.work, |op| matches!(op, Op::PushI { .. }));
            assert_eq!(
                (rotated, pushes),
                if trips == UNROLL_BUDGET {
                    (0, trips as usize)
                } else {
                    (1, 1)
                },
                "{trips} trips"
            );
            // Either way the firing is charged the same, in one op.
            assert_eq!(plan.charges.len(), 1);
            assert_eq!(plan.charges[0].counters.loop_overhead, trips);
        }
    }

    /// Fire `f`'s `work` `k` times, compiled (`Some(plan)`) or tree-walked
    /// (`None`), into an `I32` sink: the block's result, the completed
    /// firings and what the sink took.
    fn fire(
        f: &Filter,
        plan: Option<CompiledFilter>,
        k: u64,
    ) -> (Result<(), crate::VmError>, u64, Vec<Value>) {
        fire_into(f, plan, k, ScalarTy::I32)
    }

    /// [`fire`] into a sink of `elem` tokens.
    fn fire_into(
        f: &Filter,
        plan: Option<CompiledFilter>,
        k: u64,
        elem: ScalarTy,
    ) -> (Result<(), crate::VmError>, u64, Vec<Value>) {
        use crate::firing::{fire_block, graph_tapes, FilterState, FirePlan};
        use macross_streamir::graph::{Graph, Node};
        let mut g = Graph::new();
        let id = g.add_node(Node::filter(f.clone()));
        let sink = g.add_node(Node::Sink);
        g.connect(id, 0, sink, 0, elem);
        let m = Machine::core_i7();
        let plans = FirePlan::for_graph(&g, &m);
        let mut tapes = graph_tapes(&g);
        let mut state = FilterState::from_shared(f, plan.map(std::sync::Arc::new));
        state.run_init_fn(f, &m).expect("init runs");
        let mut counters = crate::machine::CycleCounters::default();
        let (mut completed, mut sunk) = (0, Vec::new());
        let node = g.node(id);
        let plan = &plans[id.0 as usize];
        let result = fire_block(
            plan,
            node,
            &mut state,
            &mut tapes,
            &m,
            &mut counters,
            k,
            &mut Vec::new(),
            &mut completed,
        );
        if result.is_err() {
            return (result, completed, sunk);
        }
        let (mut drained, sink) = (0, g.node(sink));
        let moved = tapes[0].len() as u64;
        fire_block(
            &plans[1],
            sink,
            &mut FilterState::default(),
            &mut tapes,
            &m,
            &mut counters,
            moved,
            &mut sunk,
            &mut drained,
        )
        .expect("the sink drains");
        (result, completed, sunk)
    }

    /// A loop whose count is known to be 0 or negative compiles to
    /// nothing: the variable keeps what it held before.
    #[test]
    fn trip_counts_zero_and_below_leave_the_loop_variable_untouched() {
        let mut fb = FilterBuilder::new("none", 0, 0, 2, ScalarTy::I32);
        let (i, acc) = (
            fb.local("i", Ty::Scalar(ScalarTy::I32)),
            fb.local("acc", Ty::Scalar(ScalarTy::I32)),
        );
        fb.work(|b| {
            b.set(i, 5i32);
            b.for_(i, 0i32, |b| {
                b.set(acc, v(acc) + 1i32);
            });
            b.for_(i, c(2i32) - 5i32, |b| {
                b.set(acc, v(acc) + 2i32);
            });
            b.push(v(i)).push(v(acc));
        });
        let f = fb.build();
        let m = Machine::core_i7();
        let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
        assert!(
            plan.work
                .iter()
                .all(|op| matches!(op, Op::PushI { .. } | Op::Charge(_))),
            "{:?}",
            plan.work
        );
        let (result, completed, sunk) = fire(&f, Some(plan), 2);
        assert_eq!((result, completed), (Ok(()), 2));
        assert_eq!(sunk, [Value::I32(5), Value::I32(0)].repeat(2));
    }

    /// An element whose subscript is known and in range is a register
    /// window of its array, read and written with no array op.
    #[test]
    fn a_known_in_range_subscript_emits_no_array_op() {
        let mut fb = FilterBuilder::new("win", 0, 0, 3, ScalarTy::I32);
        let a = fb.local("a", Ty::Array(ScalarTy::I32, 4));
        let va = fb.state("va", Ty::VectorArray(ScalarTy::I32, 4, 2));
        let (i, s) = (
            fb.local("i", Ty::Scalar(ScalarTy::I32)),
            fb.state("s", Ty::Scalar(ScalarTy::I32)),
        );
        fb.work(|b| {
            b.for_(i, 4i32, |b| {
                b.set_idx(a, v(i), v(i) * v(s));
            });
            b.set_idx(va, 1i32, E(Expr::Splat(Box::new(idx(a, 3i32).0), 4)));
            b.stmt(Stmt::Assign(
                LValue::LaneIndex(va, c(0i32).0, 2),
                idx(a, 1i32).0,
            ));
            b.set(s, v(s) + 1i32);
            b.push(idx(a, v(i) - 1i32));
            b.push(E(Expr::Lane(Box::new(idx(va, 1i32).0), 0)));
            b.push(E(Expr::Lane(Box::new(idx(va, 0i32).0), 2)));
        });
        let f = fb.build();
        let m = Machine::core_i7();
        let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
        let array_ops = count_ops(&plan.work, |op| {
            let name = format!("{op:?}");
            ["Load", "Store", "LaneStore"]
                .iter()
                .any(|p| name.starts_with(p))
        });
        assert_eq!(array_ops, 0, "{:?}", plan.work);
        let tree = fire(&f, None, 3);
        assert_eq!(fire(&f, Some(plan), 3), tree);
        let want: Vec<Value> = [2, 3, 1, 4, 6, 2].map(Value::I32).to_vec();
        assert_eq!(tree.2[3..], want);
    }

    /// A known subscript out of range keeps its bounds-checked op, so the
    /// firing that reaches it fails as the op always failed — where a
    /// taken branch leads to it, and not where the branch is not taken.
    #[test]
    fn a_known_out_of_range_subscript_keeps_its_bounds_checked_op() {
        let build = |taken: E| {
            let mut fb = FilterBuilder::new("oob", 0, 0, 1, ScalarTy::I32);
            let a = fb.local("a", Ty::Array(ScalarTy::I32, 4));
            let n = fb.state("n", Ty::Scalar(ScalarTy::I32));
            let k = fb.local("k", Ty::Scalar(ScalarTy::I32));
            fb.work(|b| {
                b.set(n, v(n) + 1i32).set(k, 2i32);
                let cond = taken.clone();
                b.if_(cond, |b| {
                    b.set_idx(a, v(k) * 2i32, 7i32);
                });
                b.push(v(n));
            });
            fb.build()
        };
        let m = Machine::core_i7();
        let n = || E(Expr::Var(macross_streamir::expr::VarId(1)));
        for (cond, fails_at) in [
            (eq(n(), 3i32), Some(3)),
            (c(1i32), Some(1)),
            (c(0i32), None),
        ] {
            let f = build(cond);
            let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
            let stores = count_ops(&plan.work, |op| matches!(op, Op::StoreIdxI { .. }));
            assert_eq!(stores, fails_at.is_some() as usize, "{:?}", plan.work);
            let (result, completed, _) = fire(&f, Some(plan), 5);
            let (tree, tree_completed, _) = fire(&f, None, 5);
            assert_eq!(completed, tree_completed);
            match fails_at {
                Some(at) => {
                    assert_eq!(completed, at - 1);
                    assert!(tree.is_err());
                    assert_eq!(
                        result,
                        Err(crate::VmError::Panicked {
                            filter: "oob".into(),
                            message: "array index 4 out of bounds (len 4) in filter oob".into(),
                        })
                    );
                }
                None => assert_eq!((result, tree, completed), (Ok(()), Ok(()), 5)),
            }
        }
    }

    /// An `If` whose condition is known compiles the branch it takes, with
    /// no jump, charged with the block around it.
    #[test]
    fn a_known_if_emits_no_jump() {
        let mut fb = FilterBuilder::new("known", 0, 0, 2, ScalarTy::I32);
        let (x, y) = (
            fb.local("x", Ty::Scalar(ScalarTy::I32)),
            fb.local("y", Ty::Scalar(ScalarTy::I32)),
        );
        fb.work(|b| {
            b.if_else(
                eq(v(x), 0i32),
                |b| {
                    b.set(y, 3i32).push(v(y));
                },
                |b| {
                    b.push(7i32);
                },
            );
            b.if_(v(y) - 3i32, |b| {
                b.push(9i32);
            });
            b.push(v(y) * 2i32);
        });
        let f = fb.build();
        let m = Machine::core_i7();
        let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
        let jumps = count_ops(&plan.work, |op| {
            matches!(
                op,
                Op::Jump { .. } | Op::JumpIfZI { .. } | Op::JumpIfZF { .. }
            )
        });
        assert_eq!(jumps, 0, "{:?}", plan.work);
        assert_eq!(plan.charges.len(), 1);
        let tree = fire(&f, None, 2);
        assert_eq!(fire(&f, Some(plan), 2), tree);
        assert_eq!(tree.2, [3, 6, 3, 6].map(Value::I32));
    }

    /// A variable assigned a window that outlives the statement reads
    /// that window, with no move, until something writes the window: the
    /// move comes then, just before the write.
    #[test]
    fn a_copy_reads_its_window_until_the_window_is_written() {
        let mut fb = FilterBuilder::new("copy", 0, 0, 3, ScalarTy::I32);
        let (a, t) = (
            fb.local("a", Ty::Array(ScalarTy::I32, 4)),
            fb.local("t", Ty::Array(ScalarTy::I32, 4)),
        );
        let (x, s) = (
            fb.local("x", Ty::Scalar(ScalarTy::I32)),
            fb.state("s", Ty::Scalar(ScalarTy::I32)),
        );
        fb.work(|b| {
            b.set_idx(a, 1i32, v(s) * 3i32);
            b.set(x, idx(a, 1i32));
            b.set_idx(t, 2i32, v(x));
            b.set_idx(a, 1i32, 9i32);
            b.set(s, v(s) + 1i32);
            b.push(v(x)).push(idx(t, 2i32)).push(idx(a, 1i32));
        });
        let f = fb.build();
        let m = Machine::core_i7();
        let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
        // `a` is i0..4, `t` i4..8, `x` i8: `t[2] = x` moves from `a[1]`,
        // and `x` takes its value just before `a[1]` is overwritten.
        let moves: Vec<(u32, u32)> = (plan.work.iter())
            .filter_map(|op| match *op {
                Op::MovI { dst, src } => Some((dst, src)),
                _ => None,
            })
            .collect();
        assert_eq!(moves[..2], [(6, 1), (8, 1)], "{:?}", plan.work);
        assert_eq!(moves.len(), 3, "{:?}", plan.work);
        let tree = fire(&f, None, 3);
        assert_eq!(fire(&f, Some(plan), 3), tree);
        assert_eq!(tree.2, [0, 0, 9, 3, 3, 9, 6, 6, 9].map(Value::I32));
    }

    /// A `State` variable assigned a known value holds it as a fact
    /// through the body, and its register is written before the firing
    /// ends, so the next firing — which knows nothing of it — reads it.
    #[test]
    fn a_known_state_variable_is_written_back_before_the_firing_ends() {
        let mut fb = FilterBuilder::new("keep", 0, 0, 2, ScalarTy::I32);
        let (s, t) = (
            fb.state("s", Ty::Scalar(ScalarTy::I32)),
            fb.state("t", Ty::Scalar(ScalarTy::I32)),
        );
        fb.init(|b| {
            b.set(t, 40i32);
        });
        fb.work(|b| {
            b.push(v(s) + v(t));
            b.set(s, 5i32);
            b.set(t, v(s) * 2i32);
            b.push(v(t));
        });
        let f = fb.build();
        let m = Machine::core_i7();
        let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
        let reg =
            |x: i64| plan.pool_i.0 + plan.pool_i.1.iter().position(|&v| v == x).unwrap() as u32;
        assert_eq!(
            plan.init,
            [Op::MovI {
                dst: 1,
                src: reg(40)
            }]
        );
        let tail = &plan.work[plan.work.len() - 3..];
        assert_eq!(
            tail,
            [
                Op::MovI {
                    dst: 0,
                    src: reg(5)
                },
                Op::MovI {
                    dst: 1,
                    src: reg(10)
                },
                Op::Charge(0),
            ]
        );
        let tree = fire(&f, None, 3);
        assert_eq!(fire(&f, Some(plan), 3), tree);
        assert_eq!(tree.2, [40, 10, 15, 10, 15, 10].map(Value::I32));
    }

    const VEC4: Ty = Ty::Vector(ScalarTy::F32, 4);

    fn splat(x: f32) -> E {
        E(Expr::Splat(Box::new(Expr::Const(Value::F32(x))), 4))
    }

    fn lane(e: E, k: usize) -> E {
        E(Expr::Lane(Box::new(e.0), k))
    }

    /// The `MulAddF`s of `code` as `(ty, acc_first, w)`.
    fn mul_adds(code: &[Op]) -> Vec<(ScalarTy, bool, u32)> {
        code.iter()
            .filter_map(|op| match *op {
                Op::MulAddF {
                    ty, acc_first, w, ..
                } => Some((ty, acc_first, w)),
                _ => None,
            })
            .collect()
    }

    fn is_mul(op: &Op) -> bool {
        matches!(
            op,
            Op::BinF { op: BinOp::Mul, .. } | Op::VBinF { op: BinOp::Mul, .. }
        )
    }

    /// `f` compiled with no input edge and an `F32` output, and its
    /// firings into an `F32` sink agreeing bit for bit with the tree
    /// walker's.
    fn compiled_agreeing(f: &Filter) -> CompiledFilter {
        compiled_agreeing_on(f, &Machine::core_i7())
    }

    /// [`compiled_agreeing`], compiled for the machine `m`.
    fn compiled_agreeing_on(f: &Filter, m: &Machine) -> CompiledFilter {
        let plan = compile_filter(f, None, Some(ScalarTy::F32), m).expect("compiles");
        let bits = |(result, completed, sunk): (_, _, Vec<Value>)| {
            let sunk: Vec<u64> = sunk.into_iter().map(raw_of).collect();
            (result, completed, sunk)
        };
        let tree = bits(fire_into(f, None, 3, ScalarTy::F32));
        assert_eq!(
            bits(fire_into(f, Some(plan.clone()), 3, ScalarTy::F32)),
            tree
        );
        plan
    }

    /// `acc + x*y` and `x*y + acc`, vector `F32` and scalar `F64`: each
    /// add takes the place of the product it consumes, in the source's
    /// operand order.
    #[test]
    fn a_float_product_and_the_add_that_consumes_it_are_one_op() {
        let mut fb = FilterBuilder::new("fma", 0, 0, 10, ScalarTy::F32);
        let f64s = Ty::Scalar(ScalarTy::F64);
        let (x, y, acc) = (
            fb.state("x", VEC4),
            fb.state("y", VEC4),
            fb.state("acc", VEC4),
        );
        let (p, q) = (fb.local("p", VEC4), fb.local("q", VEC4));
        let (s, t, u) = (
            fb.state("s", f64s),
            fb.state("t", f64s),
            fb.state("u", f64s),
        );
        let (d, e) = (fb.local("d", f64s), fb.local("e", f64s));
        fb.init(|b| {
            b.set(x, splat(1.5))
                .set(y, splat(-2.25))
                .set(acc, splat(0.375));
            b.set(s, 0.5f64).set(t, 3.0f64).set(u, -0.125f64);
        });
        fb.work(|b| {
            b.set(p, v(acc) + v(x) * v(y));
            b.set(q, v(x) * v(y) + v(acc));
            b.set(d, v(s) + v(t) * v(u));
            b.set(e, v(t) * v(u) + v(s));
            b.set(acc, v(p) - v(y)).set(s, v(e) - v(u));
            for k in 0..4 {
                b.push(lane(v(p), k)).push(lane(v(q), k));
            }
            b.push(cast(ScalarTy::F32, v(d)))
                .push(cast(ScalarTy::F32, v(e)));
        });
        let plan = compiled_agreeing(&fb.build());
        use ScalarTy::{F32, F64};
        assert_eq!(
            mul_adds(&plan.work),
            [
                (F32, true, 4),
                (F32, false, 4),
                (F64, true, 1),
                (F64, false, 1)
            ],
            "{:?}",
            plan.work
        );
        assert_eq!(count_ops(&plan.work, is_mul), 0, "{:?}", plan.work);
    }

    /// `x*y + z*w`: the first product is a source of the add by the time
    /// the second is computed, so only the second fuses.
    #[test]
    fn of_two_products_only_the_second_fuses() {
        let mut fb = FilterBuilder::new("two", 0, 0, 4, ScalarTy::F32);
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| fb.state(n, VEC4));
        let r = fb.local("r", VEC4);
        fb.init(|b| {
            b.set(x, splat(0.5)).set(y, splat(3.0));
            b.set(z, splat(-1.25)).set(w, splat(2.5));
        });
        fb.work(|b| {
            b.set(r, v(x) * v(y) + v(z) * v(w));
            b.set(x, v(r) - v(z));
            for k in 0..4 {
                b.push(lane(v(r), k));
            }
        });
        let plan = compiled_agreeing(&fb.build());
        let first = plan.work.iter().find(|op| is_mul(op));
        let Some(&Op::VBinF { dst: product, .. }) = first else {
            panic!("no first product: {:?}", plan.work);
        };
        assert_eq!(count_ops(&plan.work, is_mul), 1, "{:?}", plan.work);
        // `x`, `y`, `z`, `w` are f0..16 and `r` f16..20.
        let fused = plan.work.iter().find(|op| matches!(op, Op::MulAddF { .. }));
        assert_eq!(
            fused,
            Some(&Op::MulAddF {
                ty: ScalarTy::F32,
                acc_first: true,
                dst: 16,
                acc: product,
                a: 8,
                b: 12,
                w: 4,
            }),
            "{:?}",
            plan.work
        );
    }

    /// A product assigned to a variable is the variable's value, read by
    /// both adds after it: no add may consume it.
    #[test]
    fn a_product_held_in_a_variable_does_not_fuse() {
        let mut fb = FilterBuilder::new("held", 0, 0, 8, ScalarTy::F32);
        let [x, y, b_, d] = ["x", "y", "b", "d"].map(|n| fb.state(n, VEC4));
        let [t, a, c_] = ["t", "a", "c"].map(|n| fb.local(n, VEC4));
        fb.init(|b| {
            b.set(x, splat(0.5)).set(y, splat(3.0));
            b.set(b_, splat(-1.25)).set(d, splat(2.5));
        });
        fb.work(|b| {
            b.set(t, v(x) * v(y));
            b.set(a, v(t) + v(b_));
            b.set(c_, v(t) + v(d));
            b.set(x, v(a) - v(c_));
            for k in 0..4 {
                b.push(lane(v(a), k)).push(lane(v(c_), k));
            }
        });
        let plan = compiled_agreeing(&fb.build());
        assert!(mul_adds(&plan.work).is_empty(), "{:?}", plan.work);
        assert_eq!(count_ops(&plan.work, is_mul), 1, "{:?}", plan.work);
    }

    /// `y = x; x = x + p*q`: `y` reads `x`'s window, so forwarding the
    /// add into `x` settles `y` after the product is computed. The move
    /// sits between the two ops, and they stay two.
    #[test]
    fn a_settle_between_the_product_and_the_add_keeps_them_apart() {
        let mut fb = FilterBuilder::new("settle", 0, 0, 8, ScalarTy::F32);
        let [x, p, q] = ["x", "p", "q"].map(|n| fb.state(n, VEC4));
        let y = fb.local("y", VEC4);
        fb.init(|b| {
            b.set(x, splat(0.75)).set(p, splat(-1.5)).set(q, splat(2.0));
        });
        fb.work(|b| {
            b.set(y, v(x));
            b.set(x, v(x) + v(p) * v(q));
            for k in 0..4 {
                b.push(lane(v(y), k)).push(lane(v(x), k));
            }
        });
        let plan = compiled_agreeing(&fb.build());
        assert!(mul_adds(&plan.work).is_empty(), "{:?}", plan.work);
        // `x`, `p`, `q` are f0..12 and `y` f12..16.
        let settle = Op::MovNF {
            dst: 12,
            src: 0,
            w: 4,
        };
        let vbin = |op: &Op| match *op {
            Op::VBinF { op, .. } => Some(op),
            _ => None,
        };
        let head = &plan.work[..3];
        assert_eq!(
            (vbin(&head[0]), &head[1], vbin(&head[2])),
            (Some(BinOp::Mul), &settle, Some(BinOp::Add)),
            "{:?}",
            plan.work
        );
    }

    /// `x*y + pop()`: the pop is emitted between the product and the add,
    /// so the product is not the last op when the add is.
    #[test]
    fn a_product_with_an_op_after_it_does_not_fuse() {
        let mut fb = FilterBuilder::new("between", 1, 1, 1, ScalarTy::F32);
        let (x, y) = (
            fb.state("x", Ty::Scalar(ScalarTy::F32)),
            fb.state("y", Ty::Scalar(ScalarTy::F32)),
        );
        fb.work(|b| {
            b.push(v(x) * v(y) + pop());
        });
        let f = fb.build();
        let m = Machine::core_i7();
        let plan =
            compile_filter(&f, Some(ScalarTy::F32), Some(ScalarTy::F32), &m).expect("compiles");
        assert!(mul_adds(&plan.work).is_empty(), "{:?}", plan.work);
        assert!(
            matches!(
                plan.work[..3],
                [
                    Op::BinF { op: BinOp::Mul, .. },
                    Op::PopF { .. },
                    Op::BinF { op: BinOp::Add, .. }
                ]
            ),
            "{:?}",
            plan.work
        );
    }

    /// Integer index arithmetic `i*8 + j` keeps its two ops.
    #[test]
    fn an_integer_product_does_not_fuse() {
        let mut fb = FilterBuilder::new("index", 0, 0, 1, ScalarTy::I32);
        let (i, j) = (
            fb.state("i", Ty::Scalar(ScalarTy::I32)),
            fb.state("j", Ty::Scalar(ScalarTy::I32)),
        );
        fb.work(|b| {
            b.push(v(i) * 8i32 + v(j));
            b.set(i, v(i) + 1i32).set(j, v(j) - 3i32);
        });
        let f = fb.build();
        let m = Machine::core_i7();
        let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
        assert!(mul_adds(&plan.work).is_empty(), "{:?}", plan.work);
        let bin = |want: BinOp| move |op: &Op| matches!(*op, Op::BinI { op, .. } if op == want);
        assert_eq!(
            (
                count_ops(&plan.work, bin(BinOp::Mul)),
                count_ops(&plan.work, bin(BinOp::Add))
            ),
            (1, 2),
            "{:?}",
            plan.work
        );
        let tree = fire(&f, None, 3);
        assert_eq!(fire(&f, Some(plan), 3), tree);
    }

    /// A filter with `F32` panels `a` (f0..16), vectors `x` (f16..20) and
    /// `y` (f20..24), a `State` vector `s` (f24..28) and a vector channel:
    /// `work` is `pre`, then `s += 1`, `s * 0.5` through the channel into
    /// `x`, `a[3] = x`, and the four lanes of `a[3]` pushed.
    fn popped_into_an_element(
        pre: impl FnOnce(&mut B, [macross_streamir::expr::VarId; 4]),
    ) -> Filter {
        let mut f = Filter::new("inplace", 0, 0, 8);
        let a = f.add_var("a", Ty::VectorArray(ScalarTy::F32, 4, 4), VarKind::Local);
        let [x, y] = ["x", "y"].map(|n| f.add_var(n, VEC4, VarKind::Local));
        let s = f.add_var("s", VEC4, VarKind::State);
        let ch = f.add_chan("ch", VEC4);
        let mut b = B::new();
        pre(&mut b, [a, x, y, s]);
        b.set(s, v(s) + splat(1.0));
        b.stmt(Stmt::LVPush(ch, (v(s) * splat(0.5)).0, 4));
        b.set(x, E(Expr::LVPop(ch, 4)));
        b.set_idx(a, 3i32, v(x));
        for k in 0..4 {
            b.push(lane(idx(a, 3i32), k));
        }
        f.work = b.build();
        f
    }

    /// `x = lvpop(c, 4); a[3] = x`: the pop writes `a[3]`'s window, `x`
    /// is a copy of it, and the store moves nothing.
    #[test]
    fn a_popped_vector_is_written_straight_into_the_element_it_is_stored_to() {
        let plan = compiled_agreeing(&popped_into_an_element(|b, [.., y, _]| {
            for k in 0..4 {
                b.push(lane(v(y), k));
            }
        }));
        let pops: Vec<&Op> = (plan.work.iter())
            .filter(|op| matches!(op, Op::LVPopF { .. }))
            .collect();
        assert_eq!(
            pops,
            [&Op::LVPopF {
                chan: 0,
                dst: 12,
                w: 4
            }],
            "{:?}",
            plan.work
        );
        assert_eq!(
            count_ops(&plan.work, |op| matches!(op, Op::MovNF { .. })),
            0,
            "{:?}",
            plan.work
        );
    }

    /// `a[x & 3] = x`: the subscript reads `x`, whose value (0 at the top
    /// of `work`) the assignment changes, so the value goes to `x` and
    /// the store stays.
    #[test]
    fn a_subscript_that_reads_the_value_keeps_its_store() {
        let mut fb = FilterBuilder::new("reads", 0, 0, 4, ScalarTy::I32);
        let a = fb.local("a", Ty::Array(ScalarTy::I32, 4));
        let x = fb.local("x", Ty::Scalar(ScalarTy::I32));
        let s = fb.state("s", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(s, v(s) + 5i32);
            b.set(x, v(s) * 3i32);
            b.set_idx(a, v(x) & 3i32, v(x));
            for k in 0..4 {
                b.push(idx(a, k));
            }
        });
        let f = fb.build();
        let m = Machine::core_i7();
        let plan = compile_filter(&f, None, Some(ScalarTy::I32), &m).expect("compiles");
        // `a` is i0..4, `x` i4.
        let into_x = |op: &Op| {
            matches!(
                *op,
                Op::BinI {
                    op: BinOp::Mul,
                    dst: 4,
                    ..
                }
            )
        };
        let store = |op: &Op| matches!(*op, Op::StoreIdxI { src: 4, .. });
        assert_eq!(
            (count_ops(&plan.work, into_x), count_ops(&plan.work, store)),
            (1, 1),
            "{:?}",
            plan.work
        );
        let tree = fire(&f, None, 3);
        assert_eq!(fire(&f, Some(plan), 3), tree);
    }

    /// A copy of `a[3]` taken before the pop is settled — moved to its own
    /// window — before the pop overwrites `a[3]`.
    #[test]
    fn a_copy_of_the_element_is_settled_before_the_value_overwrites_it() {
        let plan = compiled_agreeing(&popped_into_an_element(|b, [a, _, y, s]| {
            b.set_idx(a, 3i32, v(s) * splat(2.0));
            b.set(y, idx(a, 3i32));
            for k in 0..4 {
                b.push(lane(v(y), k));
            }
        }));
        let at = |want: &Op| plan.work.iter().position(|op| op == want);
        let settle = at(&Op::MovNF {
            dst: 20,
            src: 12,
            w: 4,
        });
        let pop = at(&Op::LVPopF {
            chan: 0,
            dst: 12,
            w: 4,
        });
        assert!(
            matches!((settle, pop), (Some(m), Some(p)) if m < p),
            "{:?}",
            plan.work
        );
    }

    use macross_streamir::expr::VarId;

    /// `extract_even` (parity 0) or `extract_odd` (parity 1) of `a ++ b`.
    fn perm(parity: u32, a: VarId, b: VarId) -> E {
        let (a, b) = (Box::new(Expr::Var(a)), Box::new(Expr::Var(b)));
        E(match parity {
            0 => Expr::PermuteEven(a, b),
            _ => Expr::PermuteOdd(a, b),
        })
    }

    /// A `w`-lane literal of `ty` whose lanes differ: `base + k`, with a
    /// NaN payload and `-0.0` among the float ones.
    fn lanes_of(ty: ScalarTy, w: usize, base: i32) -> E {
        let lane = |k: usize| match (ty, k % 4) {
            (ScalarTy::F32, 1) => Value::F32(f32::from_bits(0x7fc0_0001)),
            (ScalarTy::F32, 2) => Value::F32(-0.0),
            (ScalarTy::F32, _) => Value::F32(base as f32 + k as f32 * 0.5),
            _ => Value::I32(base + k as i32),
        };
        E(Expr::ConstVec((0..w).map(lane).collect()))
    }

    /// The permutes of `code`, lone and paired.
    fn permutes(code: &[Op]) -> Vec<Op> {
        code.iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::PermF { .. }
                        | Op::PermI { .. }
                        | Op::PermPairF { .. }
                        | Op::PermPairI { .. }
                )
            })
            .cloned()
            .collect()
    }

    /// A filter over `F32` vectors `x`, `y`, `z`, `u` and `I32` vectors
    /// `p`, `q` of `w` lanes (the state, changed every firing so that the
    /// firings differ) and `F32` locals `e`, `o`, `e8`, `o8` — the last two
    /// of twice the width — the `I32` firing count `s` and loop variable
    /// `i`, and `I32` vectors `ei`, `oi` of `w` lanes, whose `work`
    /// counts the firing, runs `body` and pushes every lane of the `F32`
    /// vectors. Windows: `x` f0, `y` fw, `z` f2w, `u` f3w, `e` f4w, `o`
    /// f5w; `p` i0, `q` iw, `s` i2w, `i` i2w + 1, `ei` i2w + 2, `oi`
    /// i3w + 2.
    fn permuting(w: usize, body: impl FnOnce(&mut B, [VarId; 14])) -> Filter {
        let mut fb = FilterBuilder::new("perm", 0, 0, 6 * w, ScalarTy::F32);
        let (vf, vi) = (Ty::Vector(ScalarTy::F32, w), Ty::Vector(ScalarTy::I32, w));
        let vars = [
            fb.state("x", vf),
            fb.state("y", vf),
            fb.state("z", vf),
            fb.state("u", vf),
            fb.local("e", vf),
            fb.local("o", vf),
            fb.local("e8", Ty::Vector(ScalarTy::F32, 2 * w)),
            fb.local("o8", Ty::Vector(ScalarTy::F32, 2 * w)),
            fb.state("p", vi),
            fb.state("q", vi),
            fb.state("s", Ty::Scalar(ScalarTy::I32)),
            fb.local("i", Ty::Scalar(ScalarTy::I32)),
            fb.local("ei", vi),
            fb.local("oi", vi),
        ];
        let [x, y, z, u, e, o, e8, o8, p, q, s, ..] = vars;
        fb.init(|b| {
            b.set(x, lanes_of(ScalarTy::F32, w, 1))
                .set(y, lanes_of(ScalarTy::F32, w, 20))
                .set(z, lanes_of(ScalarTy::F32, w, -7))
                .set(u, lanes_of(ScalarTy::F32, w, 40))
                .set(p, lanes_of(ScalarTy::I32, w, 3))
                .set(q, lanes_of(ScalarTy::I32, w, -9));
        });
        fb.work(|b| {
            b.set(s, v(s) + 1i32);
            body(b, vars);
            b.set(x, v(x) + v(y)).set(p, v(p) * v(q));
            for k in 0..w {
                b.push(lane(v(e), k)).push(lane(v(o), k));
                b.push(lane(v(e8), 2 * k)).push(lane(v(o8), 2 * k + 1));
                b.push(lane(v(z), k)).push(lane(v(u), k));
            }
        });
        fb.build()
    }

    /// `e = even(x, y); o = odd(x, y)` is one `PermPairF`, and the same
    /// pair of two integer vectors one `PermPairI`: each half writes its
    /// variable's window and both read the same two sources.
    #[test]
    fn a_pair_of_permutes_of_the_same_two_vectors_is_one_op() {
        let plan = compiled_agreeing(&permuting(
            4,
            |b, [x, y, z, u, e, o, .., p, q, _, _, ei, oi]| {
                b.set(e, perm(0, x, y)).set(o, perm(1, x, y));
                b.set(ei, perm(0, p, q)).set(oi, perm(1, p, q));
                b.set(z, cast(ScalarTy::F32, v(ei)));
                b.set(u, cast(ScalarTy::F32, v(oi)));
            },
        ));
        let (a, b, w) = (0, 4, 4);
        assert_eq!(
            permutes(&plan.work)[0],
            Op::PermPairF {
                even: 16,
                odd: 20,
                a,
                b,
                w
            },
            "{:?}",
            plan.work
        );
        assert_eq!(
            permutes(&plan.work)[1..],
            [Op::PermPairI {
                even: 10,
                odd: 14,
                a,
                b,
                w
            }],
            "{:?}",
            plan.work
        );
    }

    /// An odd permute stays its own op when it reads the even one's
    /// destination, when its sources, its width or its register file
    /// differ from the even one's, when it comes first, and when writing
    /// its destination settles a copy of it (`z = o`) after the even one.
    #[test]
    fn a_permute_that_is_not_the_odd_half_of_the_last_op_stays_apart() {
        type Body = fn(&mut B, [VarId; 14]);
        let cases: [(&str, Body); 6] = [
            (
                "odd reads the even destination",
                |b, [x, y, _, _, e, o, ..]| {
                    b.set(e, perm(0, x, y)).set(o, perm(1, e, y));
                },
            ),
            ("other sources", |b, [x, y, _, _, e, o, ..]| {
                b.set(e, perm(0, x, y)).set(o, perm(1, y, x));
            }),
            ("other width", |b, [x, y, _, _, e, _, e8, o8, ..]| {
                b.set(e8, perm(0, e8, e8)).set(e, perm(0, x, y));
                b.set(o8, perm(1, e8, e8));
            }),
            ("other file", |b, [x, y, _, u, e, .., p, q, _, _, _, _]| {
                b.set(e, perm(0, x, y));
                b.set(u, cast(ScalarTy::F32, perm(1, p, q)));
            }),
            ("odd first", |b, [x, y, _, _, e, o, ..]| {
                b.set(o, perm(1, x, y)).set(e, perm(0, x, y));
            }),
            ("a copy settled in between", |b, [x, y, z, _, e, o, ..]| {
                b.set(e, perm(0, x, y)).set(z, v(o)).set(o, perm(1, x, y));
            }),
        ];
        for (what, body) in cases {
            let plan = compiled_agreeing(&permuting(4, body));
            assert!(
                permutes(&plan.work)
                    .iter()
                    .all(|op| matches!(op, Op::PermF { .. } | Op::PermI { .. })),
                "{what}: {:?}",
                plan.work
            );
        }
    }

    /// The even half ends an `If` branch, or a rotated loop's body, and
    /// the odd half follows: the odd starts at a jump target, reached from
    /// the other branch (or with the loop skipped) too, so the two stay
    /// apart. Permutes are free on this machine, so the `else` branch ends
    /// in the even permute itself, with no `Charge` after it.
    #[test]
    fn a_permute_pair_is_not_fused_across_a_jump_target() {
        let mut m = Machine::core_i7();
        m.cost.permute = 0;
        type Body = fn(&mut B, [VarId; 14]);
        let cases: [(&str, Body); 2] = [
            ("if", |b, [x, y, _, _, e, o, .., s, _, _, _]| {
                b.if_else(
                    v(s) & 1i32,
                    |b| {
                        b.set(x, v(x) - v(y));
                    },
                    |b| {
                        b.set(e, perm(0, x, y));
                    },
                );
                b.set(o, perm(1, x, y));
            }),
            ("rotated loop", |b, [x, y, _, _, e, o, .., s, i, _, _]| {
                b.for_(i, v(s) & 1i32, |b| {
                    b.set(e, perm(0, x, y));
                });
                b.set(o, perm(1, x, y));
            }),
        ];
        for (what, body) in cases {
            let plan = compiled_agreeing_on(&permuting(4, body), &m);
            let perms = permutes(&plan.work);
            assert!(
                matches!(
                    perms[..],
                    [Op::PermF { parity: 0, .. }, Op::PermF { parity: 1, .. }]
                ),
                "{what}: {:?}",
                plan.work
            );
            if what == "if" {
                let odd = plan.work.iter().position(|op| *op == perms[1]).unwrap();
                assert_eq!(plan.work[odd - 1], perms[0], "{what}: {:?}", plan.work);
            }
        }
    }

    /// A lone even or odd permute is one `PermF`/`PermI`, at a SIMD width
    /// (the fixed-width lane path) and at 3 (the indexed one).
    #[test]
    fn a_lone_permute_compiles_to_one_op_of_its_parity() {
        for w in [3, 4, 8] {
            let plan = compiled_agreeing(&permuting(
                w,
                |b, [x, y, z, _, e, o, .., p, q, _, _, _, _]| {
                    b.set(e, perm(0, x, y));
                    b.set(x, v(x) * v(y));
                    b.set(o, perm(1, x, y));
                    b.set(z, cast(ScalarTy::F32, perm(1, q, p)));
                },
            ));
            let w = w as u32;
            assert!(
                matches!(
                    permutes(&plan.work)[..],
                    [
                        Op::PermF { parity: 0, w: a, .. },
                        Op::PermF { parity: 1, w: b, .. },
                        Op::PermI { parity: 1, w: c, .. },
                    ] if [a, b, c] == [w; 3]
                ),
                "w {w}: {:?}",
                plan.work
            );
        }
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
