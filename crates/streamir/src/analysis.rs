//! Static analyses over filters: rate measurement by abstract
//! interpretation, statefulness, and the vectorizability conditions of
//! Section 3.1 of the paper.

use crate::expr::{BinOp, Expr, Intrinsic, LValue, VarId};
use crate::filter::{Filter, VarDecl, VarKind};
use crate::stmt::Stmt;
use crate::types::{ScalarTy, Ty, Value};
use std::cell::Cell;
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// Measured per-firing tape rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rates {
    /// Elements consumed (read pointer advance).
    pub pop: usize,
    /// Elements produced (write pointer advance).
    pub push: usize,
    /// Maximum read extent (`>= pop`).
    pub peek: usize,
}

/// Errors from rate measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RateError {
    /// A loop trip count could not be resolved to a compile-time constant.
    DynamicTripCount(String),
    /// A peek/rpush offset could not be resolved to a constant.
    DynamicOffset(String),
    /// The two branches of an `if` move the tape pointers differently.
    DivergentBranches(String),
    /// Measured rates disagree with the filter's declared rates.
    DeclaredMismatch {
        /// Actor name.
        name: String,
        /// What the body actually does.
        measured: Rates,
        /// What the actor declares.
        declared: Rates,
    },
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateError::DynamicTripCount(s) => {
                write!(f, "loop trip count is not a compile-time constant: {s}")
            }
            RateError::DynamicOffset(s) => {
                write!(f, "tape-access offset is not a compile-time constant: {s}")
            }
            RateError::DivergentBranches(s) => {
                write!(f, "if-branches have different tape rates: {s}")
            }
            RateError::DeclaredMismatch {
                name,
                measured,
                declared,
            } => write!(
                f,
                "filter {name}: measured rates {measured:?} disagree with declared {declared:?}"
            ),
        }
    }
}

impl std::error::Error for RateError {}

/// The constant environment of a static walk over a body: the value
/// each variable is known to hold at the current point, indexed by
/// [`VarId`] (`None`: unknown). Loop variables and variables assigned a
/// constant expression are tracked; everything else is unknown.
#[derive(Debug, Clone, Default)]
pub struct ConstEnv(Vec<Option<Value>>);

impl ConstEnv {
    /// An empty environment with room for `vars` variables (it grows past
    /// that on demand).
    pub fn with_vars(vars: usize) -> ConstEnv {
        ConstEnv(vec![None; vars])
    }

    /// What `v` is known to hold.
    pub fn get(&self, v: VarId) -> Option<Value> {
        self.0.get(v.0 as usize).copied().flatten()
    }

    /// Record what `v` holds from here on (`None`: unknown).
    pub fn set(&mut self, v: VarId, val: Option<Value>) {
        let i = v.0 as usize;
        if i >= self.0.len() {
            if val.is_none() {
                return;
            }
            self.0.resize(i + 1, None);
        }
        self.0[i] = val;
    }

    /// Evaluate `e` to a compile-time constant if possible: literals,
    /// known variables and the scalar operators over them.
    pub fn eval(&self, e: &Expr) -> Option<Value> {
        match e {
            Expr::Const(v) => Some(*v),
            Expr::Var(v) => self.get(*v),
            Expr::Unary(op, a) => Some(crate::expr::eval_unop(*op, self.eval(a)?)),
            Expr::Binary(op, a, b) => {
                Some(crate::expr::eval_binop(*op, self.eval(a)?, self.eval(b)?))
            }
            Expr::Cast(t, a) => Some(self.eval(a)?.cast(*t)),
            _ => None,
        }
    }

    /// Keep only the bindings `a` and `b` both hold unchanged.
    fn meet(&mut self, a: &ConstEnv, b: &ConstEnv) {
        for (i, slot) in self.0.iter_mut().enumerate() {
            let k = VarId(i as u32);
            if slot.is_some() && (a.get(k) != *slot || b.get(k) != *slot) {
                *slot = None;
            }
        }
    }

    /// Same bindings, bit for bit (a `NaN` equals itself).
    pub fn same(&self, other: &ConstEnv) -> bool {
        let n = self.0.len().max(other.0.len());
        (0..n).all(|i| {
            let k = VarId(i as u32);
            match (self.get(k), other.get(k)) {
                (Some(a), Some(b)) => a.bits_eq(b),
                (a, b) => a.is_none() && b.is_none(),
            }
        })
    }
}

/// A set of variables as one bit per [`VarId`]: membership is an index,
/// not a hash. The dataflow fixpoints over a body (taint, vector marking,
/// liveness) test it at every variable read. The first
/// [`VarSet::INLINE_VARS`] variables live in the set itself, so a set over
/// an ordinary actor's variables allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct VarSet {
    inline: [u64; INLINE_WORDS],
    /// Words for the variables past the inline ones.
    spill: Vec<u64>,
    len: usize,
}

const INLINE_WORDS: usize = 4;

impl VarSet {
    /// How many variables a set holds without allocating.
    pub const INLINE_VARS: usize = INLINE_WORDS * 64;

    /// The empty set.
    pub fn new() -> VarSet {
        VarSet::default()
    }

    /// The empty set sized for `vars` variables: inserting any of them
    /// allocates nothing more.
    pub fn with_vars(vars: usize) -> VarSet {
        VarSet {
            spill: vec![0; vars.div_ceil(64).saturating_sub(INLINE_WORDS)],
            ..VarSet::default()
        }
    }

    /// Word `w` of the bitmap.
    fn word(&self, w: usize) -> u64 {
        match w.checked_sub(INLINE_WORDS) {
            None => self.inline[w],
            Some(s) => self.spill.get(s).copied().unwrap_or(0),
        }
    }

    /// Add `v`; true if it was not a member.
    pub fn insert(&mut self, v: VarId) -> bool {
        let (w, bit) = (v.0 as usize / 64, 1u64 << (v.0 % 64));
        let word = match w.checked_sub(INLINE_WORDS) {
            None => &mut self.inline[w],
            Some(s) => {
                if s >= self.spill.len() {
                    self.spill.resize(s + 1, 0);
                }
                &mut self.spill[s]
            }
        };
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Is `v` a member?
    pub fn contains(&self, v: &VarId) -> bool {
        self.word(v.0 as usize / 64) >> (v.0 % 64) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members, in `VarId` order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..INLINE_WORDS + self.spill.len()).flat_map(move |w| {
            let word = self.word(w);
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| VarId((w * 64 + b) as u32))
        })
    }
}

/// Two sets are equal when they hold the same variables, however much
/// room either has.
impl PartialEq for VarSet {
    fn eq(&self, other: &VarSet) -> bool {
        let words = INLINE_WORDS + self.spill.len().max(other.spill.len());
        self.len == other.len && (0..words).all(|w| self.word(w) == other.word(w))
    }
}

impl Eq for VarSet {}

impl FromIterator<VarId> for VarSet {
    fn from_iter<I: IntoIterator<Item = VarId>>(vars: I) -> VarSet {
        let mut set = VarSet::new();
        for v in vars {
            set.insert(v);
        }
        set
    }
}

/// An `i32` induction of a loop [`uniform_loop_body`] admits: a variable
/// whose one assignment in the body is `v = v + c`, with `c` an `i32`
/// literal or a loop-invariant `i32` constant, and which the walk knows
/// when the loop starts. It holds `start + step·k` when iteration `k`
/// begins, where `step` is `c` times the trip counts of the inner loops
/// around the assignment, and none of the values it takes,
/// `start + step·n` after the last iteration included, leaves `i32`: the
/// walk's wrapping evaluation never wraps on it. (A counter the walk does
/// not know at the start, such as a lowering's zero-initialized permute
/// counter, stays unknown throughout and is no induction.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Induction {
    /// The variable.
    pub var: VarId,
    /// What it holds when the loop starts.
    pub start: i32,
    /// What one iteration adds.
    pub step: i32,
}

impl Induction {
    /// What the variable holds when iteration `k` (`0..=n`) begins.
    pub fn at(&self, k: i64) -> Value {
        Value::I32((i64::from(self.start) + i64::from(self.step) * k) as i32)
    }
}

/// Scratch for [`uniform_loop_body`], kept by a walker across loops.
/// After a check that admits a body it describes that loop: its
/// inductions, and which variables its body assigns. A new scratch takes
/// the buffers the last one dropped on its thread left behind, so the
/// many short walks of a compile allocate them once per thread.
#[derive(Debug, Clone)]
pub struct LoopScratch {
    /// The inductions of the loop last admitted.
    pub inductions: Vec<Induction>,
    /// What the pass knows at each open loop level: level 0 is the loop
    /// checked, level `l + 1` a loop in the body of level `l`.
    levels: Vec<Level>,
    /// How many levels are open.
    depth: usize,
}

/// The buffers of a [`LoopScratch`].
type Buffers = (Vec<Induction>, Vec<Level>);

thread_local! {
    /// The buffers of the last [`LoopScratch`] dropped on this thread.
    static SPARE: Cell<Buffers> = const { Cell::new((Vec::new(), Vec::new())) };
}

impl Default for LoopScratch {
    fn default() -> LoopScratch {
        let (inductions, levels) = SPARE.take();
        LoopScratch {
            inductions,
            levels,
            depth: 0,
        }
    }
}

impl Drop for LoopScratch {
    fn drop(&mut self) {
        let spare = (
            std::mem::take(&mut self.inductions),
            std::mem::take(&mut self.levels),
        );
        // A thread being torn down keeps no spare.
        let _ = SPARE.try_with(|s| s.set(spare));
    }
}

/// What the pass of [`uniform_loop_body`] knows of the variables at one
/// loop level, in the current iteration of its loop.
#[derive(Debug, Clone, Default)]
struct Level {
    /// Per [`VarId`]: the flags below.
    flags: Vec<u16>,
    /// The variables with a flag set.
    touched: Vec<VarId>,
    /// `(v, c, by)` for each `v = v + c` (the last one of `v` counts): `c`
    /// is added per iteration of this level, and read from `by` if that
    /// is a variable.
    steps: Vec<(VarId, i64, Option<VarId>)>,
    /// The loop's trip count.
    trips: i64,
}

/// Is what a loop's body does to a variable with `flags` the same in
/// every iteration: not the loop's own variable, a read that relied on it
/// being unknown never sees a known value from an earlier iteration, and
/// a value that matters carried across iterations only by an induction?
fn admits(flags: u16) -> bool {
    flags & COUNTER == 0
        && flags & (RELIED | KNOWN) != RELIED | KNOWN
        && (flags & CARRIED == 0 || flags & (TWICE | STEPPED) == STEPPED)
}

/// Assigned in this level's body so far, inner loops' included.
const ASSIGNED: u16 = 1;
/// Assigned more than once.
const TWICE: u16 = 1 << 1;
/// What it was last assigned is certainly unknown to the walk.
const UNKNOWN: u16 = 1 << 2;
/// Some assignment of it is not certainly unknown.
const KNOWN: u16 = 1 << 3;
/// Its last assignment is `v = v + c` (see [`Level::steps`]).
const STEPPED: u16 = 1 << 4;
/// Read before its assignment in an iteration, where its value matters:
/// the value comes from the iteration before.
const CARRIED: u16 = 1 << 5;
/// Read before its assignment in an iteration by an expression taken as
/// certainly unknown because of it.
const RELIED: u16 = 1 << 6;
/// The level's loop variable.
const COUNTER: u16 = 1 << 7;
/// Must hold one value through the loop: a trip count reads it (level 0
/// only).
const INVARIANT: u16 = 1 << 8;

impl Level {
    fn get(&self, v: VarId) -> u16 {
        self.flags.get(v.0 as usize).copied().unwrap_or(0)
    }

    fn set(&mut self, v: VarId, on: u16, off: u16) {
        let i = v.0 as usize;
        if i >= self.flags.len() {
            self.flags.resize(i + 1, 0);
        }
        if self.flags[i] == 0 {
            self.touched.push(v);
        }
        self.flags[i] = (self.flags[i] & !off) | on;
    }

    /// `v` is assigned, with `flags` (`UNKNOWN`, `KNOWN`, `STEPPED`) and
    /// the step `(c, by)` if it is stepped.
    fn assign(&mut self, v: VarId, flags: u16, step: Option<(i64, Option<VarId>)>) {
        let twice = if self.get(v) & ASSIGNED != 0 {
            TWICE
        } else {
            0
        };
        self.set(v, ASSIGNED | twice | flags, UNKNOWN | STEPPED);
        if let Some((c, by)) = step {
            self.steps.push((v, c, by));
        }
    }

    /// The step of `v`'s last assignment, `v = v + c`.
    fn step(&self, v: VarId) -> (i64, Option<VarId>) {
        let &(_, c, by) = (self.steps.iter().rev())
            .find(|s| s.0 == v)
            .expect("a stepped variable");
        (c, by)
    }

    fn reset(&mut self) {
        for v in self.touched.drain(..) {
            self.flags[v.0 as usize] = 0;
        }
        self.steps.clear();
    }
}

impl LoopScratch {
    /// Forget the last check.
    fn clear(&mut self) {
        self.levels.iter_mut().for_each(Level::reset);
        self.depth = 0;
        self.inductions.clear();
    }

    /// Does the body last admitted assign `v` (an inner loop's variable
    /// counts)?
    pub fn assigns(&self, v: VarId) -> bool {
        self.levels[0].get(v) & ASSIGNED != 0
    }

    /// The innermost open level in whose current iteration `v` has been
    /// assigned, and whether that value is certainly unknown.
    fn defined(&self, v: VarId) -> Option<(usize, bool)> {
        (0..self.depth).rev().find_map(|l| {
            let f = self.levels[l].get(v);
            (f & (ASSIGNED | COUNTER) != 0).then_some((l, f & UNKNOWN != 0))
        })
    }

    /// Open a level for a loop over `var` running `trips` times.
    fn open(&mut self, var: VarId, trips: i64) {
        if self.depth == self.levels.len() {
            self.levels.push(Level::default());
        }
        let level = &mut self.levels[self.depth];
        level.trips = trips;
        level.set(var, COUNTER, 0);
        self.depth += 1;
    }

    /// Note the reads of the value `e` assigned at `level`; returns
    /// whether [`ConstEnv::eval`] certainly finds `e` unknown there.
    fn read(&mut self, e: &Expr, level: usize, env: &ConstEnv) -> bool {
        // One unknown operand makes all of `e` unknown: `eval` gives up
        // at the first. An operand is unknown when this iteration assigned
        // it something unknown, or when no iteration has assigned it yet
        // and the walk did not know it when the loop started. Levels
        // whose iteration has not assigned it rely on it staying unknown;
        // prefer the operand with the fewest.
        let mut witness = None;
        if !self.trackable(e, env, &mut witness) {
            return true;
        }
        if let Some((v, from)) = witness {
            for l in from..=level {
                self.levels[l].set(v, RELIED, 0);
            }
            return true;
        }
        self.carry(e, level);
        false
    }

    /// Could [`ConstEnv::eval`] resolve `e` for some environment? Leaves
    /// in `witness` the operand that makes it certainly unknown with the
    /// fewest levels relying on it, and the first of those levels.
    fn trackable(&self, e: &Expr, env: &ConstEnv, witness: &mut Option<(VarId, usize)>) -> bool {
        match e {
            Expr::Const(_) => true,
            Expr::Var(v) => {
                let from = match self.defined(*v) {
                    Some((k, true)) => k + 1,
                    None if env.get(*v).is_none() => 0,
                    _ => return true,
                };
                if witness.is_none_or(|(_, j)| from > j) {
                    *witness = Some((*v, from));
                }
                true
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.trackable(a, env, witness),
            Expr::Binary(_, a, b) => {
                self.trackable(a, env, witness) && self.trackable(b, env, witness)
            }
            _ => false,
        }
    }

    /// Mark the variables the trackable `e` reads as carried at each level
    /// whose current iteration has not assigned them yet.
    fn carry(&mut self, e: &Expr, level: usize) {
        match e {
            Expr::Var(v) => {
                let from = self.defined(*v).map_or(0, |(k, _)| k + 1);
                for l in from..=level {
                    self.levels[l].set(*v, CARRIED, 0);
                }
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.carry(a, level),
            Expr::Binary(_, a, b) => {
                self.carry(a, level);
                self.carry(b, level);
            }
            _ => {}
        }
    }

    fn block(&mut self, body: &[Stmt], level: usize, env: &ConstEnv) -> bool {
        for s in body {
            match s {
                Stmt::Assign(LValue::Var(v), e) => {
                    let unknown = self.read(e, level, env);
                    let step = match e {
                        _ if unknown => None,
                        Expr::Binary(BinOp::Add, a, c) if **a == Expr::Var(*v) => match **c {
                            Expr::Const(Value::I32(c)) => Some((i64::from(c), None)),
                            Expr::Var(w) => match env.get(w) {
                                Some(Value::I32(c)) => Some((i64::from(c), Some(w))),
                                _ => None,
                            },
                            _ => None,
                        },
                        _ => None,
                    };
                    let flags = if unknown { UNKNOWN } else { KNOWN }
                        | if step.is_some() { STEPPED } else { 0 };
                    self.levels[level].assign(*v, flags, step);
                }
                Stmt::Assign(lv, _) => self.levels[level].assign(lv.var(), UNKNOWN, None),
                Stmt::For { var, count, body } => {
                    count.walk(&mut |x| {
                        if let Expr::Var(v) = x {
                            self.levels[0].set(*v, INVARIANT, 0);
                        }
                    });
                    let Some(m) = env.eval(count).map(|m| m.as_i64()) else {
                        return false;
                    };
                    if !(1..=i64::from(i32::MAX)).contains(&m) {
                        return false;
                    }
                    self.open(*var, m);
                    if !self.block(body, level + 1, env) || !self.close() {
                        return false;
                    }
                    self.levels[level].assign(*var, UNKNOWN, None);
                }
                Stmt::If { .. } => return false,
                _ => {}
            }
        }
        true
    }

    /// Close the innermost open level after its loop's body: it must be
    /// uniform itself ([`admits`]), and what its body assigns is
    /// assigned at the enclosing level, an induction's step as many
    /// times over as the loop runs.
    fn close(&mut self) -> bool {
        self.depth -= 1;
        let (outer, inner) = self.levels.split_at_mut(self.depth);
        let (level, enclosing) = (&inner[0], outer.last_mut().expect("an enclosing level"));
        for &v in &level.touched {
            let f = level.get(v);
            if f & ASSIGNED == 0 {
                continue;
            }
            if !admits(f) {
                return false;
            }
            let step = (f & STEPPED != 0).then(|| level.step(v));
            // A carried step read from a variable: the variable must hold
            // still through this loop.
            if let (true, Some((_, Some(w)))) = (f & CARRIED != 0, step) {
                if level.get(w) & (ASSIGNED | COUNTER) != 0 {
                    return false;
                }
            }
            let twice = if enclosing.get(v) & ASSIGNED != 0 {
                TWICE
            } else {
                0
            };
            let step = step.and_then(|(c, by)| Some((c.checked_mul(level.trips)?, by)));
            let on = ASSIGNED | twice | (f & (TWICE | UNKNOWN | KNOWN));
            let on = on | if step.is_some() { STEPPED } else { 0 };
            enclosing.set(v, on, UNKNOWN | STEPPED);
            if let Some((c, by)) = step {
                enclosing.steps.push((v, c, by));
            }
        }
        self.levels[self.depth].reset();
        true
    }
}

/// Can a static walk visit the body of `for var in 0..n` once and scale
/// what it saw, instead of unrolling it? Only when every iteration does
/// the same to what the walk tracks, given the constants `env` holds
/// when the loop starts. One forward pass over the body decides; what
/// only a later statement can settle (is a variable read here assigned
/// further on?) is settled when its loop level closes:
///
/// - no `If` (no condition), and `var` is not assigned;
/// - a variable the body assigns is *carried* when it is read before its
///   assignment in body order, so the value comes from the iteration
///   before. A carried read matters only inside an assigned value the
///   walk could track ([`ConstEnv::eval`]) that is not certainly unknown.
///   `eval` gives up at the first unknown operand, so a value is
///   certainly unknown when it reads a variable this iteration already
///   assigned something untrackable (a pop, peek, index or call),
///   directly or through other such variables, or one no iteration has
///   assigned yet that `env` does not know; such a variable must then
///   never be assigned a value that could be known. A read that matters
///   must be of an `i32` [`Induction`], which the walk sets itself at
///   each iteration;
/// - an inner `For` runs at least once, its trip count reads neither a
///   loop variable nor anything the body assigns, and its own body
///   passes the same test. A variable its body steps is an induction of
///   the outer loop too when the outer body does not reset it.
///
/// On success `scratch` holds the inductions and the assigned variables.
pub fn uniform_loop_body(
    var: VarId,
    n: i64,
    body: &[Stmt],
    env: &ConstEnv,
    scratch: &mut LoopScratch,
) -> bool {
    scratch.clear();
    scratch.open(var, n);
    if !scratch.block(body, 0, env) {
        return false;
    }
    let top = &scratch.levels[0];
    let fits = |x: i64| i32::try_from(x).is_ok();
    for &v in &top.touched {
        let f = top.get(v);
        if f & INVARIANT != 0 && f & (ASSIGNED | COUNTER) != 0 {
            return false;
        }
        if f & ASSIGNED == 0 {
            continue;
        }
        if !admits(f) {
            return false;
        }
        if f & CARRIED == 0 {
            continue;
        }
        let (step, by) = top.step(v);
        if by.is_some_and(|w| top.get(w) & (ASSIGNED | COUNTER) != 0) {
            return false;
        }
        let Some(Value::I32(start)) = env.get(v) else {
            return false;
        };
        let end = (step.checked_mul(n)).and_then(|d| d.checked_add(i64::from(start)));
        if !fits(step) || !end.is_some_and(fits) {
            return false;
        }
        scratch.inductions.push(Induction {
            var: v,
            start,
            step: step as i32,
        });
    }
    true
}

/// What [`affine`] reads a tape offset against: the loop a summarizing
/// walk found uniform, where in its body the offset sits, and which of
/// its inductions have stepped in the current iteration by then.
struct AffineIn<'a> {
    var: VarId,
    uniform: &'a LoopScratch,
    env: &'a ConstEnv,
    last: i128,
    /// Inside an inner loop.
    nested: bool,
    /// Bit `k`: `uniform.inductions[k]` was assigned earlier in the
    /// iteration.
    stepped: u64,
}

/// `e` as `a * var + b` over `var` in `0..=last`, when it is exactly
/// that: built from `i32` literals, `var`, variables the body does not
/// assign (known `i32` constants), the loop's inductions outside inner
/// loops (`start + step·var`, or `start + step·(var + 1)` once stepped)
/// and `+`, `-`, `*` by a loop-invariant factor, with every
/// sub-expression inside `i32` at both ends of the range. A linear
/// sub-expression is extreme at the ends, so it never wraps in between,
/// and the walk's wrapping `i32` evaluation agrees with the exact form at
/// every iteration.
fn affine(e: &Expr, at: &AffineIn) -> Option<(i128, i128)> {
    let (a, b) = match e {
        Expr::Const(Value::I32(c)) => (0, i128::from(*c)),
        Expr::Var(v) if *v == at.var => (1, 0),
        Expr::Var(v) => match at.uniform.inductions.iter().position(|d| d.var == *v) {
            Some(k) if !at.nested => {
                let d = at.uniform.inductions[k];
                let stepped = (at.stepped >> k) & 1 == 1;
                let start = i128::from(d.start) + if stepped { i128::from(d.step) } else { 0 };
                (i128::from(d.step), start)
            }
            Some(_) => return None,
            None if at.uniform.assigns(*v) => return None,
            None => match at.env.get(*v)? {
                Value::I32(c) => (0, i128::from(c)),
                _ => return None,
            },
        },
        Expr::Binary(op, x, y) => {
            let (xa, xb) = affine(x, at)?;
            let (ya, yb) = affine(y, at)?;
            match op {
                BinOp::Add => (xa + ya, xb + yb),
                BinOp::Sub => (xa - ya, xb - yb),
                BinOp::Mul if xa == 0 => (xb * ya, xb * yb),
                BinOp::Mul if ya == 0 => (xa * yb, xb * yb),
                _ => return None,
            }
        }
        _ => return None,
    };
    let fits = |x: i128| i32::try_from(x).is_ok();
    (fits(b) && fits(a * at.last + b)).then_some((a, b))
}

/// The tape offsets of a loop body a summarizing rate walk can scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offsets {
    /// No `peek`, `vpeek` or `rpush`: every extent is a pointer, which the
    /// last iteration leaves furthest.
    Absent,
    /// Each is affine in the loop variable and non-negative: extreme at
    /// the first or the last iteration.
    Affine,
}

/// Are the tape offsets in `body` (`peek`, `vpeek`, `rpush`) absent, or
/// each affine in `var` ([`affine`]) and non-negative over `0..=last`,
/// for the loop `uniform` describes? `None` when neither.
fn offsets(
    body: &[Stmt],
    var: VarId,
    uniform: &LoopScratch,
    env: &ConstEnv,
    last: i128,
) -> Option<Offsets> {
    let inductions = &uniform.inductions;
    if inductions.len() > 64 {
        return None;
    }
    let mut found = Offsets::Absent;
    let mut at = AffineIn {
        var,
        uniform,
        env,
        last,
        nested: false,
        stepped: 0,
    };
    for s in body {
        at.nested = matches!(s, Stmt::For { .. });
        let mut all = true;
        let mut ok = |off: &Expr| {
            found = Offsets::Affine;
            all &= affine(off, &at).is_some_and(|(a, b)| b >= 0 && a * last + b >= 0);
        };
        s.walk(&mut |s| {
            if let Stmt::RPush { offset, .. } = s {
                ok(offset);
            }
            s.walk_own_exprs(&mut |e| {
                if let Expr::Peek(off) | Expr::VPeek { offset: off, .. } = e {
                    ok(off);
                }
            });
        });
        if !all {
            return None;
        }
        // What `s` assigns has stepped for the rest of the iteration.
        if !inductions.is_empty() {
            s.walk(&mut |s| {
                if let Stmt::Assign(LValue::Var(v), _) = s {
                    if let Some(k) = inductions.iter().position(|d| d.var == *v) {
                        at.stepped |= 1 << k;
                    }
                }
            });
        }
    }
    Some(found)
}

/// Abstract machine state for rate measurement, over a body borrowed
/// for `'b`.
#[derive(Clone)]
struct RateState<'b> {
    /// Integer-constant environment (loop vars and constant locals).
    env: ConstEnv,
    /// Elements popped so far this firing.
    pops: usize,
    /// Maximum read extent so far.
    peek_extent: usize,
    /// Elements pushed (write pointer advance) so far.
    pushes: usize,
    /// Maximum write extent so far (rpush can exceed the pointer).
    push_extent: usize,
    /// Summarize uniform loops ([`uniform_loop_body`]); off for the
    /// unrolling reference walk.
    summarize: bool,
    /// Scratch for [`uniform_loop_body`].
    uniform: LoopScratch,
    /// The inductions of the summarized loops the walk is inside,
    /// innermost last.
    held: Vec<Induction>,
    /// Every loop the walk unrolls, when asked for them.
    unrolled: Option<Vec<&'b Stmt>>,
}

impl<'b> RateState<'b> {
    fn new(summarize: bool) -> RateState<'b> {
        RateState {
            env: ConstEnv::default(),
            pops: 0,
            peek_extent: 0,
            pushes: 0,
            push_extent: 0,
            summarize,
            uniform: LoopScratch::default(),
            held: Vec::new(),
            unrolled: None,
        }
    }

    fn rates(&self) -> Rates {
        Rates {
            pop: self.pops,
            push: self.pushes.max(self.push_extent),
            peek: self.peek_extent.max(self.pops),
        }
    }

    /// The tape counters, for comparing two walks.
    fn counters(&self) -> (usize, usize, usize, usize) {
        (self.pops, self.pushes, self.peek_extent, self.push_extent)
    }
}

/// Measure the per-firing rates of a work function body.
///
/// Loops are walked abstractly (their trip counts must be compile-time
/// constants), so loop-variable-dependent peek offsets like `peek(i + j)`
/// resolve exactly. A loop whose body is uniform across iterations
/// ([`uniform_loop_body`]) and whose tape offsets are affine in the loop
/// variable is walked at its first and last iteration only: the counters
/// grow by the same amount every iteration, and an affine extent is
/// largest at one end. Every other loop is unrolled.
///
/// # Errors
/// See [`RateError`].
pub fn measure_rates(body: &[Stmt]) -> Result<Rates, RateError> {
    let mut st = RateState::new(true);
    exec_block(body, &mut st)?;
    Ok(st.rates())
}

/// [`measure_rates`] with every loop unrolled: the reference the
/// summarizing walk is checked against.
#[doc(hidden)]
pub fn measure_rates_unrolled(body: &[Stmt]) -> Result<Rates, RateError> {
    let mut st = RateState::new(false);
    exec_block(body, &mut st)?;
    Ok(st.rates())
}

/// The loops of two iterations or more [`measure_rates`] unrolls in
/// `body`, in walk order, each as often as the walk reaches it.
///
/// # Errors
/// See [`RateError`].
#[doc(hidden)]
pub fn measure_rates_unrolls(body: &[Stmt]) -> Result<Vec<&Stmt>, RateError> {
    let mut st = RateState::new(true);
    st.unrolled = Some(Vec::new());
    exec_block(body, &mut st)?;
    Ok(st.unrolled.unwrap_or_default())
}

/// Check a filter's declared rates against its measured rates.
///
/// # Errors
/// Returns [`RateError::DeclaredMismatch`] when they disagree, or any
/// measurement error.
pub fn check_rates(filter: &Filter) -> Result<Rates, RateError> {
    let measured = measure_rates(&filter.work)?;
    let declared = Rates {
        pop: filter.pop,
        push: filter.push,
        peek: filter.peek,
    };
    if measured != declared {
        return Err(RateError::DeclaredMismatch {
            name: filter.name.clone(),
            measured,
            declared,
        });
    }
    Ok(measured)
}

fn exec_block<'b>(stmts: &'b [Stmt], st: &mut RateState<'b>) -> Result<(), RateError> {
    for s in stmts {
        exec_stmt(s, st)?;
    }
    Ok(())
}

/// The offset `off` evaluates to, as a tape distance.
fn tape_offset(off: &Expr, st: &RateState) -> Result<usize, RateError> {
    st.env
        .eval(off)
        .map(|v| v.as_i64() as usize)
        .ok_or_else(|| RateError::DynamicOffset(off.to_string()))
}

fn exec_stmt<'b>(s: &'b Stmt, st: &mut RateState<'b>) -> Result<(), RateError> {
    match s {
        Stmt::Assign(lv, e) => {
            count_expr(e, st)?;
            if let LValue::Index(_, i) | LValue::LaneIndex(_, i, _) | LValue::VIndex(_, i, _) = lv {
                count_expr(i, st)?;
            }
            let val = match lv {
                LValue::Var(_) => st.env.eval(e),
                _ => None,
            };
            st.env.set(lv.var(), val);
        }
        Stmt::Push(e) => {
            count_expr(e, st)?;
            st.pushes += 1;
            st.push_extent = st.push_extent.max(st.pushes);
        }
        Stmt::RPush { value, offset } => {
            count_expr(value, st)?;
            let off = tape_offset(offset, st)?;
            st.push_extent = st.push_extent.max(st.pushes + off + 1);
        }
        Stmt::VPush { value, width } => {
            count_expr(value, st)?;
            st.pushes += width;
            st.push_extent = st.push_extent.max(st.pushes);
        }
        Stmt::LPush(_, e) | Stmt::LVPush(_, e, _) => count_expr(e, st)?,
        Stmt::For { var, count, body } => {
            let n = st
                .env
                .eval(count)
                .map(|v| v.as_i64())
                .ok_or_else(|| RateError::DynamicTripCount(count.to_string()))?;
            let offsets = (n >= 2
                && n <= i64::from(i32::MAX)
                && st.summarize
                && uniform_loop_body(*var, n, body, &st.env, &mut st.uniform))
            .then(|| offsets(body, *var, &st.uniform, &st.env, i128::from(n - 1)))
            .flatten();
            if let Some(offsets) = offsets {
                #[cfg(debug_assertions)]
                let before = st.clone();
                summarized_loop(*var, n, body, offsets, st)?;
                #[cfg(debug_assertions)]
                {
                    let mut reference = before;
                    (reference.summarize, reference.unrolled) = (false, None);
                    unrolled_loop(*var, n, body, &mut reference)?;
                    assert!(
                        reference.counters() == st.counters() && reference.env.same(&st.env),
                        "summarized loop over {var} disagrees with its unrolling"
                    );
                }
            } else {
                if let (Some(unrolled), 2..) = (&mut st.unrolled, n) {
                    unrolled.push(s);
                }
                unrolled_loop(*var, n, body, st)?;
            }
            st.env.set(*var, None);
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            count_expr(cond, st)?;
            if let Some(c) = st.env.eval(cond) {
                if c.is_truthy() {
                    exec_block(then_branch, st)?;
                } else {
                    exec_block(else_branch, st)?;
                }
            } else {
                // Unknown condition: both branches must have identical
                // tape behaviour for the rates to be static.
                let (env, counters) = (st.env.clone(), st.counters());
                exec_block(then_branch, st)?;
                let then_counters = st.counters();
                let then_env = std::mem::replace(&mut st.env, env.clone());
                (st.pops, st.pushes, st.peek_extent, st.push_extent) = counters;
                exec_block(else_branch, st)?;
                if then_counters != st.counters() {
                    return Err(RateError::DivergentBranches(cond.to_string()));
                }
                // Keep only bindings identical in both branches.
                let else_env = std::mem::replace(&mut st.env, env);
                st.env.meet(&then_env, &else_env);
            }
        }
        Stmt::AdvanceRead(n) => {
            st.pops += n;
            st.peek_extent = st.peek_extent.max(st.pops);
        }
        Stmt::AdvanceWrite(n) => {
            st.pushes += n;
            st.push_extent = st.push_extent.max(st.pushes);
        }
    }
    Ok(())
}

fn unrolled_loop<'b>(
    var: VarId,
    n: i64,
    body: &'b [Stmt],
    st: &mut RateState<'b>,
) -> Result<(), RateError> {
    for i in 0..n.max(0) {
        st.env.set(var, Some(Value::I32(i as i32)));
        exec_block(body, st)?;
    }
    Ok(())
}

/// Walk a loop [`exec_stmt`] found uniform, with `offsets` as they are,
/// advancing the tape pointers past the iterations it does not visit:
/// each moves them as far as a visited one. With no offset every extent
/// is a pointer, so the last iteration (`n - 1`) alone is walked and the
/// pointers it leaves are the furthest. With affine offsets an extent is
/// largest at one end, so iteration 0 is walked too, first. The loop
/// variable and the inductions are set to what they hold when a visited
/// iteration begins; the body computes everything else it reads.
fn summarized_loop<'b>(
    var: VarId,
    n: i64,
    body: &'b [Stmt],
    offsets: Offsets,
    st: &mut RateState<'b>,
) -> Result<(), RateError> {
    let (pops, pushes) = (st.pops, st.pushes);
    if offsets == Offsets::Affine {
        // The walk of iteration 0 may check inner loops, which reuses the
        // scratch: hold this loop's inductions until iteration `n - 1`.
        let held = st.held.len();
        st.held.extend_from_slice(&st.uniform.inductions);
        st.env.set(var, Some(Value::I32(0)));
        exec_block(body, st)?;
        st.pops += (n - 2) as usize * (st.pops - pops);
        st.pushes += (n - 2) as usize * (st.pushes - pushes);
        st.env.set(var, Some(Value::I32((n - 1) as i32)));
        for d in st.held.drain(held..) {
            st.env.set(d.var, Some(d.at(n - 1)));
        }
        return exec_block(body, st);
    }
    st.env.set(var, Some(Value::I32((n - 1) as i32)));
    for d in &st.uniform.inductions {
        st.env.set(d.var, Some(d.at(n - 1)));
    }
    exec_block(body, st)?;
    let (popped, pushed) = (st.pops - pops, st.pushes - pushes);
    st.pops += (n - 1) as usize * popped;
    st.pushes += (n - 1) as usize * pushed;
    if popped > 0 {
        st.peek_extent = st.peek_extent.max(st.pops);
    }
    if pushed > 0 {
        st.push_extent = st.push_extent.max(st.pushes);
    }
    Ok(())
}

/// Count tape reads inside an expression (left-to-right evaluation order).
fn count_expr(e: &Expr, st: &mut RateState) -> Result<(), RateError> {
    match e {
        Expr::Pop => {
            st.pops += 1;
            st.peek_extent = st.peek_extent.max(st.pops);
        }
        Expr::VPop { width } => {
            st.pops += width;
            st.peek_extent = st.peek_extent.max(st.pops);
        }
        Expr::Peek(off) => {
            count_expr(off, st)?;
            let o = tape_offset(off, st)?;
            st.peek_extent = st.peek_extent.max(st.pops + o + 1);
        }
        Expr::VPeek { offset, width } => {
            count_expr(offset, st)?;
            let o = tape_offset(offset, st)?;
            st.peek_extent = st.peek_extent.max(st.pops + o + width);
        }
        Expr::Const(_) | Expr::ConstVec(_) | Expr::Var(_) | Expr::LPop(_) | Expr::LVPop(_, _) => {}
        Expr::Index(_, i) | Expr::VIndex(_, i, _) => count_expr(i, st)?,
        Expr::Unary(_, a) | Expr::Cast(_, a) | Expr::Lane(a, _) | Expr::Splat(a, _) => {
            count_expr(a, st)?
        }
        Expr::Binary(_, a, b) | Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
            count_expr(a, st)?;
            count_expr(b, st)?;
        }
        Expr::Call(_, args) => {
            for a in args {
                count_expr(a, st)?;
            }
        }
    }
    Ok(())
}

/// Result of the vectorizability analysis (Section 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vectorizability {
    /// The filter mutates persistent state in `work`.
    pub stateful: bool,
    /// A loop bound or branch condition depends on popped data.
    pub tape_dependent_control: bool,
    /// An array subscript or peek offset depends on popped data.
    pub tape_dependent_subscript: bool,
    /// Intrinsics called anywhere in `work` (the target machine decides
    /// which of these its SIMD engine supports).
    pub intrinsics: BTreeSet<Intrinsic>,
    /// The body already uses vector constructs (has been SIMDized).
    pub vectorized: bool,
}

impl Vectorizability {
    /// True if the actor passes every *machine-independent* condition for
    /// single-actor SIMDization. Intrinsic support must still be checked
    /// against the target.
    pub fn simdizable(&self) -> bool {
        !self.stateful
            && !self.tape_dependent_control
            && !self.tape_dependent_subscript
            && !self.vectorized
    }
}

/// Analyze a filter for the vectorizability conditions.
///
/// One walk per round of the taint fixpoint, which traverses each
/// expression once and returns its taint and whether it holds a tainted
/// subscript together. The first round also reads what does not depend on
/// taint: state writes, intrinsics and vector constructs.
pub fn analyze_vectorizability(filter: &Filter) -> Vectorizability {
    let mut walk = TaintWalk {
        vars: &filter.vars,
        tainted: VarSet::with_vars(filter.vars.len()),
        out: Vectorizability {
            stateful: false,
            tape_dependent_control: false,
            tape_dependent_subscript: false,
            intrinsics: BTreeSet::new(),
            vectorized: filter.vars.iter().any(|v| v.ty.is_vector()),
        },
        first_round: true,
    };
    // Iterate to a fixpoint so loop-carried taint is caught.
    loop {
        let before = walk.tainted.len();
        walk.block(&filter.work);
        walk.first_round = false;
        if walk.tainted.len() == before {
            break;
        }
    }
    walk.out
}

/// What one traversal of an expression finds under a taint set.
#[derive(Debug, Clone, Copy, Default)]
struct Taint {
    /// The value depends on tape data: it reads the tape or a tainted
    /// variable (a tainted array, for an element).
    value: bool,
    /// It holds an array subscript or a peek offset whose value depends
    /// on tape data.
    subscript: bool,
}

impl Taint {
    fn or(self, other: Taint) -> Taint {
        Taint {
            value: self.value || other.value,
            subscript: self.subscript || other.subscript,
        }
    }

    /// This value used as a subscript or offset.
    fn as_index(self) -> Taint {
        Taint {
            value: self.value,
            subscript: self.subscript || self.value,
        }
    }
}

/// One round of the may-taint fixpoint over a body.
struct TaintWalk<'a> {
    vars: &'a [VarDecl],
    tainted: VarSet,
    out: Vectorizability,
    first_round: bool,
}

impl TaintWalk<'_> {
    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Assign(lv, e) => {
                    let rhs = self.expr(e);
                    self.out.tape_dependent_subscript |= rhs.subscript;
                    if let LValue::Index(_, i)
                    | LValue::LaneIndex(_, i, _)
                    | LValue::VIndex(_, i, _) = lv
                    {
                        self.out.tape_dependent_subscript |= self.expr(i).as_index().subscript;
                    }
                    let v = lv.var();
                    if self.first_round {
                        // Statefulness: state variables written inside work.
                        self.out.stateful |=
                            (self.vars.get(v.0 as usize)).is_some_and(|d| d.kind == VarKind::State);
                    }
                    // A tainted value taints its target (a whole array for
                    // an element). Nothing untaints: the analysis is a
                    // conservative may-taint fixpoint.
                    if rhs.value {
                        self.tainted.insert(v);
                    }
                }
                Stmt::Push(e) | Stmt::LPush(_, e) => {
                    self.out.tape_dependent_subscript |= self.expr(e).subscript;
                }
                Stmt::VPush { value: e, .. } | Stmt::LVPush(_, e, _) => {
                    self.out.vectorized = true;
                    self.out.tape_dependent_subscript |= self.expr(e).subscript;
                }
                Stmt::RPush { value, offset } => {
                    // A tainted subscript inside the offset taints the
                    // offset.
                    let value = self.expr(value).subscript;
                    self.out.tape_dependent_subscript |= value || self.expr(offset).value;
                }
                // A condition or trip count is judged as a whole: a
                // tainted subscript inside one makes it tainted.
                Stmt::For { count, body, .. } => {
                    self.out.tape_dependent_control |= self.expr(count).value;
                    self.block(body);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.out.tape_dependent_control |= self.expr(cond).value;
                    self.block(then_branch);
                    self.block(else_branch);
                }
                Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => {}
            }
        }
    }

    /// The [`Taint`] of `e`, in one traversal.
    fn expr(&mut self, e: &Expr) -> Taint {
        let read = Taint {
            value: true,
            subscript: false,
        };
        match e {
            Expr::Const(_) => Taint::default(),
            Expr::Var(v) => Taint {
                value: self.tainted.contains(v),
                subscript: false,
            },
            Expr::Pop | Expr::LPop(_) => read,
            Expr::Peek(off) => Taint {
                value: true,
                ..self.expr(off).as_index()
            },
            Expr::Index(v, i) => {
                let i = self.expr(i).as_index();
                Taint {
                    value: i.value || self.tainted.contains(v),
                    ..i
                }
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.expr(a),
            Expr::Binary(_, a, b) => self.expr(a).or(self.expr(b)),
            Expr::Call(i, args) => {
                if self.first_round {
                    self.out.intrinsics.insert(*i);
                }
                let mut t = Taint::default();
                for a in args {
                    t = t.or(self.expr(a));
                }
                t
            }
            // Vector constructs: the body is already SIMDized.
            Expr::ConstVec(_) => {
                self.out.vectorized = true;
                Taint::default()
            }
            Expr::VPop { .. } | Expr::LVPop(_, _) => {
                self.out.vectorized = true;
                read
            }
            Expr::VPeek { offset, .. } => {
                self.out.vectorized = true;
                Taint {
                    value: true,
                    ..self.expr(offset).as_index()
                }
            }
            Expr::VIndex(_, a, _) | Expr::Lane(a, _) | Expr::Splat(a, _) => {
                self.out.vectorized = true;
                self.expr(a)
            }
            Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
                self.out.vectorized = true;
                self.expr(a).or(self.expr(b))
            }
        }
    }
}

/// The canonical cursor-advance statement `cursor = (cursor + 1) % R`.
///
/// [`check_region_spec`] requires this exact shape as the last top-level
/// `work` statement; the region SIMDizer strips it before vectorizing the
/// body and re-appends the panelized form `cursor = (cursor + 1) % (R/W)`.
pub fn region_cursor_update(cursor: VarId, regions: usize) -> Stmt {
    Stmt::Assign(
        LValue::Var(cursor),
        Expr::bin(
            BinOp::Rem,
            Expr::bin(BinOp::Add, Expr::Var(cursor), Expr::Const(Value::I32(1))),
            Expr::Const(Value::I32(regions as i32)),
        ),
    )
}

/// Validate a filter's region-based state annotation (the Timcheck &
/// Buhler shape): the declared invariant is that firing `i` touches only
/// region `i mod R`, which the body makes checkable by routing every
/// region access through an explicit cursor.
///
/// The checked conditions:
/// 1. the cursor is a scalar `i32` state variable, never written by `init`
///    (so zero-initialization starts it at region 0) and distinct from the
///    region arrays;
/// 2. each region variable is a state array of exactly `R` elements;
/// 3. inside `work`, every read and write of a region variable subscripts
///    it with exactly `cursor` — any other subscript is a (potential)
///    cross-region access and rejected;
/// 4. the last top-level `work` statement is exactly
///    `cursor = (cursor + 1) % R` and it is the only write to the cursor;
/// 5. `work` writes no persistent state besides the region arrays and the
///    cursor (other stateful behavior would not be lane-independent).
///
/// The SIMDizer re-checks this and silently falls back to scalar dispatch
/// on `Err`, so a wrong annotation can cost performance but never
/// correctness.
pub fn check_region_spec(filter: &Filter) -> Result<(), String> {
    let spec = filter
        .region
        .as_ref()
        .ok_or_else(|| "filter has no region annotation".to_string())?;
    if spec.regions < 2 {
        return Err(format!("region count must be >= 2, got {}", spec.regions));
    }
    let nvars = filter.vars.len() as u32;
    if spec.cursor.0 >= nvars || spec.vars.iter().any(|v| v.0 >= nvars) {
        return Err("region spec names an undeclared variable".to_string());
    }
    if spec.vars.is_empty() {
        return Err("region spec declares no region arrays".to_string());
    }
    if spec.vars.contains(&spec.cursor) {
        return Err("cursor cannot itself be a region array".to_string());
    }
    let mut seen = HashSet::new();
    if !spec.vars.iter().all(|v| seen.insert(*v)) {
        return Err("duplicate region array in spec".to_string());
    }

    // 1. Cursor shape.
    let cdecl = filter.var(spec.cursor);
    if cdecl.kind != VarKind::State || cdecl.ty != Ty::Scalar(ScalarTy::I32) {
        return Err(format!(
            "cursor {} must be a scalar i32 state variable",
            cdecl.name
        ));
    }
    for s in &filter.init {
        let mut bad = false;
        s.walk(&mut |s| {
            if let Stmt::Assign(lv, _) = s {
                if lv.var() == spec.cursor {
                    bad = true;
                }
            }
        });
        if bad {
            return Err(format!(
                "init writes cursor {}; it must start zero-initialized",
                cdecl.name
            ));
        }
    }

    // 2. Region array shapes.
    let regions: HashSet<VarId> = spec.vars.iter().copied().collect();
    for &v in &spec.vars {
        let d = filter.var(v);
        match d.ty {
            Ty::Array(_, n) if n == spec.regions && d.kind == VarKind::State => {}
            _ => {
                return Err(format!(
                    "region variable {} must be a state array of {} elements, got {:?}",
                    d.name, spec.regions, d.ty
                ));
            }
        }
    }

    // 3. Every work access of a region variable is subscripted by exactly
    // the cursor.
    let cursor_expr = Expr::Var(spec.cursor);
    let mut err: Option<String> = None;
    let flag = |msg: String, err: &mut Option<String>| {
        if err.is_none() {
            *err = Some(msg);
        }
    };
    for s in &filter.work {
        s.walk_exprs(&mut |e| match e {
            Expr::Index(v, i) if regions.contains(v) && **i != cursor_expr => {
                flag(
                    format!(
                        "region array {} read with subscript {i}; only the \
                         cursor may index it in work",
                        filter.var(*v).name
                    ),
                    &mut err,
                );
            }
            Expr::Var(v) | Expr::VIndex(v, _, _) if regions.contains(v) => {
                flag(
                    format!(
                        "region array {} referenced without a cursor subscript",
                        filter.var(*v).name
                    ),
                    &mut err,
                );
            }
            _ => {}
        });
        s.walk(&mut |s| {
            if let Stmt::Assign(lv, _) = s {
                if regions.contains(&lv.var()) {
                    match lv {
                        LValue::Index(_, i) if *i == cursor_expr => {}
                        _ => flag(
                            format!(
                                "region array {} written through {lv}; only \
                                 [cursor] stores are region-local",
                                filter.var(lv.var()).name
                            ),
                            &mut err,
                        ),
                    }
                }
            }
        });
    }
    if let Some(e) = err {
        return Err(e);
    }

    // 4. The cursor advances exactly once, as the last top-level statement.
    let expected = region_cursor_update(spec.cursor, spec.regions);
    match filter.work.last() {
        Some(s) if *s == expected => {}
        _ => {
            return Err(format!(
                "last work statement must be exactly `{} = ({0} + 1) % {}`",
                cdecl.name, spec.regions
            ));
        }
    }
    let mut cursor_writes = 0usize;
    for s in &filter.work {
        s.walk(&mut |s| {
            if let Stmt::Assign(lv, _) = s {
                if lv.var() == spec.cursor {
                    cursor_writes += 1;
                }
            }
        });
    }
    if cursor_writes != 1 {
        return Err(format!(
            "cursor {} must be written exactly once in work, found {} writes",
            cdecl.name, cursor_writes
        ));
    }

    // 5. No other persistent state is written in work.
    let state: HashSet<VarId> = filter.state_vars().collect();
    for s in &filter.work {
        let mut bad: Option<VarId> = None;
        s.walk(&mut |s| {
            if let Stmt::Assign(lv, _) = s {
                let v = lv.var();
                if state.contains(&v) && v != spec.cursor && !regions.contains(&v) && bad.is_none()
                {
                    bad = Some(v);
                }
            }
        });
        if let Some(v) = bad {
            return Err(format!(
                "work writes non-region state {}; region SIMDization requires \
                 all firing-carried state to live in region arrays",
                filter.var(v).name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edsl::*;
    use crate::types::{ScalarTy, Ty};

    #[test]
    fn var_sets_past_the_inline_words_keep_every_member() {
        let ids = [0u32, 63, 64, 255, 256, 300, 1000];
        let small: VarSet = ids.iter().map(|&i| VarId(i)).collect();
        assert_eq!(small.len(), ids.len());
        assert_eq!(small.iter().map(|v| v.0).collect::<Vec<_>>(), ids);
        assert!(ids.iter().all(|&i| small.contains(&VarId(i))));
        assert!(!small.contains(&VarId(1)) && !small.contains(&VarId(5000)));
        // Equality is by members, not by the room a set has.
        let mut sized = VarSet::with_vars(2000);
        for &i in ids.iter().rev() {
            assert!(sized.insert(VarId(i)));
        }
        assert!(!sized.insert(VarId(300)));
        assert_eq!(sized, small);
        assert_ne!(VarSet::with_vars(2000), small);
        assert_eq!(VarSet::with_vars(2000), VarSet::new());
    }

    #[test]
    fn measures_simple_rates() {
        let mut fb = FilterBuilder::new("d", 2, 2, 2, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let t = fb.local("t", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.for_(i, 2i32, |b| {
                b.set(t, pop());
                b.push(v(t) * 2.0f32);
            });
        });
        let f = fb.build();
        assert_eq!(
            check_rates(&f).unwrap(),
            Rates {
                pop: 2,
                push: 2,
                peek: 2
            }
        );
    }

    #[test]
    fn measures_loop_var_peeks() {
        // FIR-style: peek(i) for i in 0..8, pop 1, push 1.
        let mut fb = FilterBuilder::new("fir", 8, 1, 1, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::F32));
        let junk = fb.local("junk", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.set(acc, 0.0f32);
            b.for_(i, 8i32, |b| {
                b.set(acc, v(acc) + peek(v(i)));
            });
            b.set(junk, pop());
            b.push(v(acc));
        });
        let f = fb.build();
        assert_eq!(
            check_rates(&f).unwrap(),
            Rates {
                pop: 1,
                push: 1,
                peek: 8
            }
        );
    }

    /// The rates of `body`, from the summarizing walk, once it is shown
    /// to agree with the unrolling one.
    fn rates_both_ways(body: &[Stmt]) -> Result<Rates, RateError> {
        let summarized = measure_rates(body);
        assert_eq!(summarized, measure_rates_unrolled(body));
        summarized
    }

    /// Does the walk summarize the (only) loop at the top of `body`,
    /// given what the statements before it leave in the environment?
    fn summarizes_first_loop(body: &[Stmt]) -> bool {
        let mut st = RateState::new(true);
        for s in body {
            let Stmt::For { var, count, body } = s else {
                exec_stmt(s, &mut st).unwrap();
                continue;
            };
            let n = st.env.eval(count).unwrap().as_i64();
            return uniform_loop_body(*var, n, body, &st.env, &mut st.uniform)
                && offsets(body, *var, &st.uniform, &st.env, i128::from(n - 1)).is_some();
        }
        panic!("no loop")
    }

    #[test]
    fn affine_offsets_are_summarized_and_exact() {
        let mut fb = FilterBuilder::new("fir", 3, 1, 1, ScalarTy::F32);
        let (i, base) = (
            fb.local("i", Ty::Scalar(ScalarTy::I32)),
            fb.local("base", Ty::Scalar(ScalarTy::I32)),
        );
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::F32));
        let t = fb.local("t", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.set(base, 2i32);
            b.for_(i, 6i32, |b| {
                // Pops and a peek walking down while the pointer walks up:
                // pops before the peek are 2i + 1, its offset 9 - i + base.
                b.set(t, pop());
                b.set(acc, v(acc) + peek(c(9i32) - v(i) + v(base)));
                b.set(t, pop());
                b.stmt(Stmt::RPush {
                    value: v(acc).0,
                    offset: (v(i) * 3i32 + 1i32).0,
                });
            });
        });
        let f = fb.build();
        assert!(summarizes_first_loop(&f.work));
        // Peek extent: 2i + 1 + (11 - i) + 1, largest at i = 5: 18; pops 12.
        // Push extent: 3i + 2, largest at i = 5: 17.
        assert_eq!(
            rates_both_ways(&f.work).unwrap(),
            Rates {
                pop: 12,
                push: 17,
                peek: 18
            }
        );
    }

    /// One case per reason a loop is unrolled instead: each still
    /// measures what the unrolled walk measures.
    #[test]
    fn loops_that_vary_per_iteration_are_unrolled() {
        let build = |work: &dyn Fn(&mut B, VarId, VarId, VarId, VarId)| {
            let mut fb = FilterBuilder::new("f", 1, 1, 0, ScalarTy::I32);
            let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
            let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
            let k = fb.local("k", Ty::Scalar(ScalarTy::I32));
            let t = fb.local("t", Ty::Scalar(ScalarTy::I32));
            fb.work(|b| work(b, i, j, k, t));
            fb.build().work
        };
        let rates = |pop, peek| Rates { pop, push: 0, peek };

        // peek(i * i): not affine; offsets 0, 1, 4, 9.
        let square = build(&|b, i, _, _, t| {
            b.for_(i, 4i32, |b| {
                b.set(t, peek(v(i) * v(i)));
            });
        });
        assert!(!summarizes_first_loop(&square));
        assert_eq!(rates_both_ways(&square), Ok(rates(0, 10)));

        // peek(i % 4) over six iterations: largest in the middle (3),
        // not at either end (0 and 1).
        let modulo = build(&|b, i, _, _, t| {
            b.for_(i, 6i32, |b| {
                b.set(t, peek(v(i) % 4i32));
            });
        });
        assert!(!summarizes_first_loop(&modulo));
        assert_eq!(rates_both_ways(&modulo), Ok(rates(0, 4)));

        // if i == 0: the first iteration pops, the others do not.
        let first_only = build(&|b, i, _, _, t| {
            b.for_(i, 5i32, |b| {
                b.if_(eq(v(i), 0i32), |b| {
                    b.set(t, pop());
                });
            });
        });
        assert!(!summarizes_first_loop(&first_only));
        assert_eq!(rates_both_ways(&first_only), Ok(rates(1, 1)));

        // A triangular nest: the inner trip count is the outer variable.
        let triangle = build(&|b, i, j, _, t| {
            b.for_(i, 5i32, |b| {
                b.for_(j, v(i), |b| {
                    b.set(t, pop());
                });
            });
        });
        assert!(!summarizes_first_loop(&triangle));
        assert_eq!(rates_both_ways(&triangle), Ok(rates(10, 10)));

        // A step by a power: `k = k * 2` is no induction. Offsets 1, 2,
        // 4, 8 after 0-3 pops, then peek(16) after 4.
        let doubled = build(&|b, i, _, k, t| {
            b.set(k, 1i32);
            b.for_(i, 4i32, |b| {
                b.set(t, peek(v(k)));
                b.set(t, pop());
                b.set(k, v(k) * 2i32);
            });
            b.set(t, peek(v(k)));
        });
        assert!(!summarizes_first_loop(&doubled));
        assert_eq!(rates_both_ways(&doubled), Ok(rates(4, 21)));

        // Two assignments of a counter: it is no induction either.
        let twice = build(&|b, i, _, k, t| {
            b.set(k, 0i32);
            b.for_(i, 4i32, |b| {
                b.set(k, v(k) + 1i32);
                b.set(t, pop());
                b.set(k, v(k) + 1i32);
            });
            b.set(t, peek(v(k)));
        });
        assert!(!summarizes_first_loop(&twice));
        assert_eq!(rates_both_ways(&twice), Ok(rates(4, 13)));

        // A tracked constant read before its assignment: `j` is 1, then
        // 2i - 1, so after five iterations it is 7 (the walk of the last
        // iteration alone would leave 1 from iteration 0's `k`).
        let early = build(&|b, i, j, k, t| {
            b.set(k, 0i32);
            b.for_(i, 5i32, |b| {
                b.set(j, v(k) + 1i32);
                b.set(k, v(i) * 2i32);
                b.set(t, pop());
            });
            b.set(t, peek(v(j)));
        });
        assert!(!summarizes_first_loop(&early));
        assert_eq!(rates_both_ways(&early), Ok(rates(5, 13)));

        // An induction whose last value leaves `i32`: the walk wraps it,
        // so the loop is unrolled.
        let wraps = build(&|b, i, _, k, t| {
            b.set(k, i32::MAX - 10);
            b.for_(i, 6i32, |b| {
                b.set(t, pop());
                b.set(k, v(k) + 3i32);
            });
        });
        assert!(!summarizes_first_loop(&wraps));
        assert_eq!(rates_both_ways(&wraps), Ok(rates(6, 6)));

        // An offset nothing resolves: the error is still reported.
        let dynamic = build(&|b, i, _, k, t| {
            b.for_(i, 4i32, |b| {
                b.set(t, peek(v(i) + v(k)));
            });
        });
        assert!(!summarizes_first_loop(&dynamic));
        assert!(matches!(
            rates_both_ways(&dynamic),
            Err(RateError::DynamicOffset(_))
        ));
    }

    /// The shapes whose iterations look alike although the body assigns
    /// what it reads: each is walked at its two ends and measures what
    /// the unrolled walk measures, constants left behind included.
    #[test]
    fn loops_whose_iterations_look_alike_are_summarized() {
        // The work body from `i`, `j`, `k`, `t`, an accumulator and an array.
        type Work<'a> = &'a dyn Fn(&mut B, [VarId; 4], VarId, VarId);
        let build = |work: Work| {
            let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
            let ints = ["i", "j", "k", "t"].map(|n| fb.local(n, Ty::Scalar(ScalarTy::I32)));
            let acc = fb.local("acc", Ty::Scalar(ScalarTy::I32));
            let a = fb.state("a", Ty::Array(ScalarTy::I32, 8));
            fb.work(|b| work(b, ints, acc, a));
            fb.build().work
        };
        let rates = |pop, push, peek| Rates { pop, push, peek };

        // A temporary read after its assignment in the same iteration:
        // `t` leaves the loop as 2 * 5 + 1.
        let temporary = build(&|b, [i, j, k, t], _, _| {
            b.for_(i, 6i32, |b| {
                b.set(k, v(i) * 2i32);
                b.set(t, v(k) + 1i32);
                b.set(j, pop());
            });
            b.set(j, peek(v(t)));
        });
        assert!(summarizes_first_loop(&temporary));
        assert_eq!(rates_both_ways(&temporary), Ok(rates(6, 0, 18)));

        // An accumulator of what the walk cannot know, directly and
        // through a temporary: a pop divided by an array element.
        let accumulator = build(&|b, [i, _, k, t], acc, a| {
            b.set(acc, 0i32);
            b.for_(i, 5i32, |b| {
                b.set(t, pop() / idx(a, v(i)));
                b.set(k, v(t) * 2i32);
                b.set(acc, v(acc) + v(k));
                b.push(v(acc));
            });
        });
        assert!(summarizes_first_loop(&accumulator));
        assert_eq!(rates_both_ways(&accumulator), Ok(rates(5, 5, 5)));

        // An `i32` induction read by a peek before its step: the offset is
        // 1 + 2i after i pops, and the counter leaves the loop as 11.
        let induction = build(&|b, [i, _, k, t], _, _| {
            b.set(k, 1i32);
            b.for_(i, 5i32, |b| {
                b.set(t, peek(v(k)));
                b.set(k, v(k) + 2i32);
                b.set(t, pop());
            });
            b.set(t, peek(v(k)));
        });
        assert!(summarizes_first_loop(&induction));
        assert_eq!(rates_both_ways(&induction), Ok(rates(5, 0, 17)));

        // The same induction read after its step (offset 3 + 2i), stepped
        // by a loop-invariant constant.
        let invariant_step = build(&|b, [i, j, k, t], _, _| {
            b.set(j, 2i32);
            b.set(k, 1i32);
            b.for_(i, 5i32, |b| {
                b.set(k, v(k) + v(j));
                b.set(t, peek(v(k)));
                b.set(t, pop());
            });
        });
        assert!(summarizes_first_loop(&invariant_step));
        assert_eq!(rates_both_ways(&invariant_step), Ok(rates(5, 0, 16)));

        // An inner loop with a loop-invariant trip count, an accumulator
        // reset each outer iteration, and a counter stepped inside it: the
        // counter is an induction of the outer loop, three per iteration.
        let nested = build(&|b, [i, j, k, t], acc, _| {
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
            b.set(acc, peek(v(k)));
        });
        assert!(summarizes_first_loop(&nested));
        assert_eq!(rates_both_ways(&nested), Ok(rates(12, 4, 25)));
    }

    /// A step of another type than `i32` is no induction.
    #[test]
    fn a_float_step_is_unrolled() {
        let mut fb = FilterBuilder::new("f", 1, 1, 0, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let (x, t) = (
            fb.local("x", Ty::Scalar(ScalarTy::F32)),
            fb.local("t", Ty::Scalar(ScalarTy::F32)),
        );
        fb.work(|b| {
            b.set(x, 0.5f32);
            b.for_(i, 4i32, |b| {
                b.set(t, pop());
                b.set(x, v(x) + 1.5f32);
            });
            b.set(t, peek(cast(ScalarTy::I32, v(x))));
        });
        let work = fb.build().work;
        assert!(!summarizes_first_loop(&work));
        // x leaves the loop as 6.5, read as offset 6 after 4 pops.
        assert_eq!(
            rates_both_ways(&work),
            Ok(Rates {
                pop: 4,
                push: 0,
                peek: 11
            })
        );
    }

    #[test]
    fn peek_extent_tracks_pops() {
        // pop then peek(0): the peek reads element 1 of the firing.
        let mut fb = FilterBuilder::new("p", 2, 2, 1, ScalarTy::F32);
        let a = fb.local("a", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.set(a, pop() + peek(0i32));
            b.push(v(a));
            b.stmt(Stmt::AdvanceRead(1));
        });
        let f = fb.build();
        assert_eq!(
            check_rates(&f).unwrap(),
            Rates {
                pop: 2,
                push: 1,
                peek: 2
            }
        );
    }

    #[test]
    fn declared_mismatch_detected() {
        let mut fb = FilterBuilder::new("bad", 1, 1, 2, ScalarTy::F32);
        fb.work(|b| {
            b.push(pop());
        });
        let f = fb.build();
        assert!(matches!(
            check_rates(&f),
            Err(RateError::DeclaredMismatch { .. })
        ));
    }

    #[test]
    fn divergent_branches_detected() {
        let mut fb = FilterBuilder::new("div", 1, 1, 1, ScalarTy::I32);
        let x = fb.local("x", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(x, pop());
            b.if_else(
                v(x),
                |b| {
                    b.push(1i32);
                },
                |b| {
                    b.push(1i32);
                    b.push(2i32);
                },
            );
        });
        let f = fb.build();
        assert!(matches!(
            measure_rates(&f.work),
            Err(RateError::DivergentBranches(_))
        ));
    }

    #[test]
    fn balanced_dynamic_branches_ok() {
        let mut fb = FilterBuilder::new("bal", 1, 1, 1, ScalarTy::I32);
        let x = fb.local("x", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(x, pop());
            b.if_else(
                v(x),
                |b| {
                    b.push(v(x) + 1i32);
                },
                |b| {
                    b.push(0i32);
                },
            );
        });
        let f = fb.build();
        assert_eq!(
            check_rates(&f).unwrap(),
            Rates {
                pop: 1,
                push: 1,
                peek: 1
            }
        );
    }

    #[test]
    fn stateful_detection() {
        let mut fb = FilterBuilder::new("acc", 1, 1, 1, ScalarTy::F32);
        let s = fb.state("sum", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.set(s, v(s) + pop());
            b.push(v(s));
        });
        let f = fb.build();
        let va = analyze_vectorizability(&f);
        assert!(va.stateful);
        assert!(!va.simdizable());
    }

    #[test]
    fn readonly_state_is_not_stateful() {
        let mut fb = FilterBuilder::new("coef", 1, 1, 1, ScalarTy::F32);
        let cf = fb.state("c", Ty::Array(ScalarTy::F32, 4));
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.init(|b| {
            b.for_(i, 4i32, |b| {
                b.set_idx(cf, v(i), cast(ScalarTy::F32, v(i)));
            });
        });
        fb.work(|b| {
            b.push(pop() * idx(cf, 0i32));
        });
        let f = fb.build();
        let va = analyze_vectorizability(&f);
        assert!(!va.stateful);
        assert!(va.simdizable());
    }

    #[test]
    fn tape_dependent_control_detected() {
        let mut fb = FilterBuilder::new("tdc", 1, 1, 1, ScalarTy::I32);
        let x = fb.local("x", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(x, pop());
            b.if_else(
                gt(v(x), 0i32),
                |b| {
                    b.push(1i32);
                },
                |b| {
                    b.push(0i32);
                },
            );
        });
        let f = fb.build();
        let va = analyze_vectorizability(&f);
        assert!(va.tape_dependent_control);
        assert!(!va.simdizable());
    }

    #[test]
    fn tape_dependent_subscript_detected() {
        let mut fb = FilterBuilder::new("tds", 1, 1, 1, ScalarTy::I32);
        let arr = fb.state("lut", Ty::Array(ScalarTy::I32, 16));
        let x = fb.local("x", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(x, pop());
            b.push(idx(arr, v(x) & 15i32));
        });
        let f = fb.build();
        let va = analyze_vectorizability(&f);
        assert!(va.tape_dependent_subscript);
    }

    /// The verdict on an `i32` body built by `work` over two 16-element
    /// local arrays `a`, `b` and three scalar locals `x`, `y`, `i`.
    fn verdict(work: impl FnOnce(&mut B, [VarId; 5])) -> Vectorizability {
        let mut fb = FilterBuilder::new("t", 4, 1, 1, ScalarTy::I32);
        let vars = [
            fb.local("a", Ty::Array(ScalarTy::I32, 16)),
            fb.local("b", Ty::Array(ScalarTy::I32, 16)),
            fb.local("x", Ty::Scalar(ScalarTy::I32)),
            fb.local("y", Ty::Scalar(ScalarTy::I32)),
            fb.local("i", Ty::Scalar(ScalarTy::I32)),
        ];
        fb.work(|b| work(b, vars));
        analyze_vectorizability(&fb.build())
    }

    /// (tape-dependent control, tape-dependent subscript) of a verdict
    /// that is otherwise clean.
    fn flags(va: &Vectorizability) -> (bool, bool) {
        assert!(!va.stateful && !va.vectorized);
        (va.tape_dependent_control, va.tape_dependent_subscript)
    }

    #[test]
    fn nested_tainted_subscript_is_flagged() {
        // a[b[pop()]]: the inner subscript reads the tape.
        let va = verdict(|b, [a, arr_b, _, _, _]| {
            b.push(idx(a, idx(arr_b, pop())));
        });
        assert_eq!(flags(&va), (false, true));
        // The same read under a branch condition is control, not a
        // subscript: conditions are checked for taint as a whole.
        let va = verdict(|b, [a, arr_b, x, _, _]| {
            b.set(x, pop());
            b.if_(gt(idx(a, idx(arr_b, v(x))), 0i32), |b| {
                b.push(1i32);
            });
            b.if_(le(idx(a, idx(arr_b, v(x))), 0i32), |b| {
                b.push(0i32);
            });
        });
        assert_eq!(flags(&va), (true, false));
        // An untainted nested subscript flags nothing.
        let va = verdict(|b, [a, arr_b, x, _, _]| {
            b.set(x, pop());
            b.push(idx(a, idx(arr_b, 3i32)) + v(x));
        });
        assert_eq!(flags(&va), (false, false));
    }

    #[test]
    fn tainted_peek_offset_inside_a_call_is_flagged() {
        let va = verdict(|b, [_, _, x, y, _]| {
            b.set(x, peek(0i32) & 3i32);
            b.set(y, pop());
            b.push(cast(ScalarTy::I32, sqrt(cast(ScalarTy::F32, peek(v(x))))));
        });
        assert_eq!(flags(&va), (false, true));
        // A constant offset in the same place is fine.
        let va = verdict(|b, [_, _, _, y, _]| {
            b.set(y, pop());
            b.push(cast(ScalarTy::I32, sqrt(cast(ScalarTy::F32, peek(2i32)))));
        });
        assert_eq!(flags(&va), (false, false));
    }

    #[test]
    fn tainted_rpush_offset_is_flagged() {
        let va = verdict(|b, [_, _, x, _, _]| {
            b.set(x, pop() & 1i32);
            b.stmt(Stmt::RPush {
                value: Expr::Const(Value::I32(1)),
                offset: Expr::Var(x),
            });
        });
        assert_eq!(flags(&va), (false, true));
        // A tainted value at an untainted offset is plain data flow.
        let va = verdict(|b, [_, _, x, _, _]| {
            b.set(x, pop());
            b.stmt(Stmt::RPush {
                value: Expr::Var(x),
                offset: Expr::Const(Value::I32(0)),
            });
        });
        assert_eq!(flags(&va), (false, false));
    }

    #[test]
    fn loop_carried_taint_is_found_in_the_second_round() {
        // The first round reaches the branch on `y` before the loop body
        // taints `y`; only the second round sees the branch as tainted.
        let va = verdict(|b, [_, _, x, y, i]| {
            b.for_(i, 2i32, |b| {
                b.if_(gt(v(y), 0i32), |b| {
                    b.set(x, v(x) + 1i32);
                });
                b.set(y, pop());
            });
            b.push(v(x));
        });
        assert_eq!(flags(&va), (true, false));
        // Taint carried through a second variable needs a third round.
        let va = verdict(|b, [_, _, x, y, i]| {
            b.for_(i, 2i32, |b| {
                b.if_(gt(v(y), 0i32), |b| {
                    b.push(v(x));
                });
                b.set(y, v(x));
                b.set(x, pop());
            });
        });
        assert_eq!(flags(&va), (true, false));
        // The same shape without a tape read on the carried path is clean.
        let va = verdict(|b, [_, _, x, y, i]| {
            b.for_(i, 2i32, |b| {
                b.if_(gt(v(y), 0i32), |b| {
                    b.push(v(x));
                });
                b.set(y, v(x));
                b.set(x, 7i32);
            });
            b.push(v(x) + pop());
        });
        assert_eq!(flags(&va), (false, false));
        // Taint is not flow-sensitive: a later tape read into `x` reaches
        // the earlier loop through the fixpoint.
        let va = verdict(|b, [_, _, x, y, i]| {
            b.for_(i, 2i32, |b| {
                b.if_(gt(v(y), 0i32), |b| {
                    b.push(v(x));
                });
                b.set(y, v(x));
            });
            b.set(x, pop());
        });
        assert_eq!(flags(&va), (true, false));
    }

    #[test]
    fn tainted_array_element_taints_a_later_branch() {
        // Writing tape data into one element taints the whole array, so a
        // branch on a different element is tape-dependent control.
        let va = verdict(|b, [a, _, _, _, _]| {
            b.set_idx(a, 0i32, pop());
            b.if_else(
                gt(idx(a, 1i32), 0i32),
                |b| {
                    b.push(1i32);
                },
                |b| {
                    b.push(0i32);
                },
            );
        });
        assert_eq!(flags(&va), (true, false));
        // A tape-dependent subscript on the write side taints the
        // subscript flag, not the array.
        let va = verdict(|b, [a, _, x, _, _]| {
            b.set(x, pop() & 15i32);
            b.set_idx(a, v(x), 1i32);
            b.if_else(
                gt(idx(a, 1i32), 0i32),
                |b| {
                    b.push(1i32);
                },
                |b| {
                    b.push(0i32);
                },
            );
        });
        assert_eq!(flags(&va), (false, true));
    }

    #[test]
    fn intrinsics_collected() {
        let mut fb = FilterBuilder::new("trig", 1, 1, 1, ScalarTy::F32);
        fb.work(|b| {
            b.push(sin(pop()) + cos(c(0.5f32)));
        });
        let f = fb.build();
        let va = analyze_vectorizability(&f);
        assert!(va.intrinsics.contains(&Intrinsic::Sin));
        assert!(va.intrinsics.contains(&Intrinsic::Cos));
        assert!(va.simdizable());
    }

    #[test]
    fn vectorized_code_flagged() {
        let mut fb = FilterBuilder::new("vec", 4, 4, 4, ScalarTy::F32);
        let tv = fb.local("t_v", Ty::Vector(ScalarTy::F32, 4));
        fb.work(|b| {
            b.set(tv, E(Expr::VPop { width: 4 }));
            b.stmt(Stmt::VPush {
                value: Expr::Var(tv),
                width: 4,
            });
        });
        let f = fb.build();
        let va = analyze_vectorizability(&f);
        assert!(va.vectorized);
        assert!(!va.simdizable());
    }

    /// A canonical per-channel IIR bank with `regions` channels.
    fn region_iir(regions: usize) -> Filter {
        let mut fb = FilterBuilder::new("iir_bank", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", regions);
        let y = fb.region_var("y", ScalarTy::F32);
        fb.work(|b| {
            b.set_idx(y, v(cur), idx(y, v(cur)) * 0.5f32 + pop() * 0.5f32);
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(regions as i32));
        });
        fb.build()
    }

    #[test]
    fn well_formed_region_spec_accepted() {
        let f = region_iir(8);
        assert_eq!(check_region_spec(&f), Ok(()));
        // The classic analyses still see a stateful actor, so the
        // pre-existing passes keep refusing it.
        let va = analyze_vectorizability(&f);
        assert!(va.stateful);
        assert!(!va.simdizable());
    }

    #[test]
    fn region_cursor_update_matches_edsl_shape() {
        let f = region_iir(4);
        let spec = f.region.as_ref().unwrap();
        assert_eq!(
            f.work.last().unwrap(),
            &region_cursor_update(spec.cursor, 4)
        );
    }

    #[test]
    fn cross_region_write_rejected() {
        // Writes region (cursor + 1) % R: violates `i mod R` locality.
        let mut fb = FilterBuilder::new("bad", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", 4);
        let y = fb.region_var("y", ScalarTy::F32);
        fb.work(|b| {
            b.set_idx(y, (v(cur) + 1i32) % c(4i32), pop());
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(4i32));
        });
        let f = fb.build();
        let err = check_region_spec(&f).unwrap_err();
        assert!(err.contains("region-local"), "unexpected error: {err}");
    }

    #[test]
    fn cross_region_read_rejected() {
        let mut fb = FilterBuilder::new("bad", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", 4);
        let y = fb.region_var("y", ScalarTy::F32);
        fb.work(|b| {
            b.set_idx(y, v(cur), pop());
            b.push(idx(y, 0i32));
            b.set(cur, (v(cur) + 1i32) % c(4i32));
        });
        let f = fb.build();
        assert!(check_region_spec(&f).is_err());
    }

    #[test]
    fn missing_cursor_update_rejected() {
        let mut fb = FilterBuilder::new("bad", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", 4);
        let y = fb.region_var("y", ScalarTy::F32);
        fb.work(|b| {
            b.set_idx(y, v(cur), pop());
            b.push(idx(y, v(cur)));
        });
        let f = fb.build();
        let err = check_region_spec(&f).unwrap_err();
        assert!(err.contains("last work statement"), "got: {err}");
    }

    #[test]
    fn extra_state_write_rejected() {
        let mut fb = FilterBuilder::new("bad", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", 4);
        let y = fb.region_var("y", ScalarTy::F32);
        let total = fb.state("total", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.set_idx(y, v(cur), pop());
            b.set(total, v(total) + idx(y, v(cur)));
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(4i32));
        });
        let f = fb.build();
        let err = check_region_spec(&f).unwrap_err();
        assert!(err.contains("non-region state"), "got: {err}");
    }

    #[test]
    fn init_writing_cursor_rejected() {
        let mut fb = FilterBuilder::new("bad", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", 4);
        let y = fb.region_var("y", ScalarTy::F32);
        fb.init(|b| {
            b.set(cur, 2i32);
        });
        fb.work(|b| {
            b.set_idx(y, v(cur), pop());
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(4i32));
        });
        let f = fb.build();
        let err = check_region_spec(&f).unwrap_err();
        assert!(err.contains("init writes cursor"), "got: {err}");
    }

    #[test]
    fn region_spec_survives_structural_hash() {
        use crate::graph::{Graph, Node};
        use crate::shash::structural_hash;
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        let f = region_iir(8);
        let mut f2 = f.clone();
        f2.region.as_mut().unwrap().regions = 8; // identical
        g1.add_node(Node::filter(f));
        g2.add_node(Node::filter(f2));
        assert_eq!(structural_hash(&g1), structural_hash(&g2));

        let mut g3 = Graph::new();
        let mut f3 = region_iir(8);
        f3.region = None; // dropping the annotation must change the hash
        g3.add_node(Node::filter(f3));
        assert_ne!(structural_hash(&g1), structural_hash(&g3));
    }
}
