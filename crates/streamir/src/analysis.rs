//! Static analyses over filters: rate measurement by abstract
//! interpretation, statefulness, and the vectorizability conditions of
//! Section 3.1 of the paper.

use crate::expr::{BinOp, Expr, Intrinsic, LValue, VarId};
use crate::filter::{Filter, VarKind};
use crate::stmt::Stmt;
use crate::types::{ScalarTy, Ty, Value};
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

/// A set of variables as one flag per [`VarId`]: membership is an index,
/// not a hash. The dataflow fixpoints over a body (taint, vector marking,
/// liveness) test it at every variable read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarSet {
    member: Vec<bool>,
    len: usize,
}

impl VarSet {
    /// The empty set.
    pub fn new() -> VarSet {
        VarSet::default()
    }

    /// The empty set sized for `vars` variables: inserting any of them
    /// allocates nothing more.
    pub fn with_vars(vars: usize) -> VarSet {
        VarSet {
            member: vec![false; vars],
            len: 0,
        }
    }

    /// Add `v`; true if it was not a member.
    pub fn insert(&mut self, v: VarId) -> bool {
        let i = v.0 as usize;
        if i >= self.member.len() {
            self.member.resize(i + 1, false);
        }
        let fresh = !std::mem::replace(&mut self.member[i], true);
        self.len += usize::from(fresh);
        fresh
    }

    /// Is `v` a member?
    pub fn contains(&self, v: &VarId) -> bool {
        self.member.get(v.0 as usize).copied().unwrap_or(false)
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
        (self.member.iter().enumerate())
            .filter(|(_, &m)| m)
            .map(|(i, _)| VarId(i as u32))
    }
}

impl FromIterator<VarId> for VarSet {
    fn from_iter<I: IntoIterator<Item = VarId>>(vars: I) -> VarSet {
        let mut set = VarSet::new();
        for v in vars {
            set.insert(v);
        }
        set
    }
}

/// Can a static walk visit the body of `for var in 0..n` once and scale
/// what it saw, instead of unrolling it? Only when nothing the walk
/// tracks differs from one iteration to the next except `var` itself:
/// the body has no `For` (no inner trip count) and no `If` (no
/// condition), does not assign `var`, and no assignment of an
/// expression the walk could track as a constant reads a variable the
/// body assigns (no tracked constant carried across iterations). Leaves
/// the variables the body assigns in `assigned`.
pub fn uniform_loop_body(var: VarId, body: &[Stmt], assigned: &mut Vec<VarId>) -> bool {
    assigned.clear();
    for s in body {
        match s {
            Stmt::For { .. } | Stmt::If { .. } => return false,
            Stmt::Assign(lv, _) => assigned.push(lv.var()),
            _ => {}
        }
    }
    if assigned.contains(&var) {
        return false;
    }
    body.iter().all(|s| match s {
        Stmt::Assign(LValue::Var(_), e) if trackable(e) => {
            let mut carried = false;
            e.walk(&mut |e| {
                if let Expr::Var(v) = e {
                    carried |= assigned.contains(v);
                }
            });
            !carried
        }
        _ => true,
    })
}

/// Could [`ConstEnv::eval`] resolve `e` for some environment?
fn trackable(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) => true,
        Expr::Unary(_, a) | Expr::Cast(_, a) => trackable(a),
        Expr::Binary(_, a, b) => trackable(a) && trackable(b),
        _ => false,
    }
}

/// `e` as `a * var + b` over `var` in `0..=last`, when it is exactly
/// that: built from `i32` literals, `var`, variables the body does not
/// assign (known `i32` constants) and `+`, `-`, `*` by a loop-invariant
/// factor, with every sub-expression inside `i32` at both ends of the
/// range. A linear sub-expression is extreme at the ends, so it never
/// wraps in between, and the walk's wrapping `i32` evaluation agrees
/// with the exact form at every iteration.
fn affine(
    e: &Expr,
    var: VarId,
    assigned: &[VarId],
    env: &ConstEnv,
    last: i128,
) -> Option<(i128, i128)> {
    let (a, b) = match e {
        Expr::Const(Value::I32(c)) => (0, i128::from(*c)),
        Expr::Var(v) if *v == var => (1, 0),
        Expr::Var(v) if !assigned.contains(v) => match env.get(*v)? {
            Value::I32(c) => (0, i128::from(c)),
            _ => return None,
        },
        Expr::Binary(op, x, y) => {
            let (xa, xb) = affine(x, var, assigned, env, last)?;
            let (ya, yb) = affine(y, var, assigned, env, last)?;
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
    (fits(b) && fits(a * last + b)).then_some((a, b))
}

/// Every tape offset in `body` (`peek`, `vpeek`, `rpush`) is affine in
/// `var` ([`affine`]) and non-negative over `0..=last`.
fn offsets_affine(
    body: &[Stmt],
    var: VarId,
    assigned: &[VarId],
    env: &ConstEnv,
    last: i128,
) -> bool {
    let ok = |off: &Expr| {
        affine(off, var, assigned, env, last).is_some_and(|(a, b)| b >= 0 && a * last + b >= 0)
    };
    let mut all = true;
    for s in body {
        if let Stmt::RPush { offset, .. } = s {
            all &= ok(offset);
        }
        s.walk_exprs(&mut |e| {
            if let Expr::Peek(off) | Expr::VPeek { offset: off, .. } = e {
                all &= ok(off);
            }
        });
    }
    all
}

/// Abstract machine state for rate measurement.
#[derive(Clone)]
struct RateState {
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
    assigned: Vec<VarId>,
}

impl RateState {
    fn new(summarize: bool) -> RateState {
        RateState {
            env: ConstEnv::default(),
            pops: 0,
            peek_extent: 0,
            pushes: 0,
            push_extent: 0,
            summarize,
            assigned: Vec::new(),
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

fn exec_block(stmts: &[Stmt], st: &mut RateState) -> Result<(), RateError> {
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

fn exec_stmt(s: &Stmt, st: &mut RateState) -> Result<(), RateError> {
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
            if n >= 3
                && n <= i64::from(i32::MAX)
                && st.summarize
                && uniform_loop_body(*var, body, &mut st.assigned)
                && offsets_affine(body, *var, &st.assigned, &st.env, i128::from(n - 1))
            {
                #[cfg(debug_assertions)]
                let before = st.clone();
                summarized_loop(*var, n, body, st)?;
                #[cfg(debug_assertions)]
                {
                    let mut reference = before;
                    reference.summarize = false;
                    unrolled_loop(*var, n, body, &mut reference)?;
                    assert!(
                        reference.counters() == st.counters() && reference.env.same(&st.env),
                        "summarized loop over {var} disagrees with its unrolling"
                    );
                }
            } else {
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
                let mut t = st.clone();
                exec_block(then_branch, &mut t)?;
                let mut e = st.clone();
                exec_block(else_branch, &mut e)?;
                if t.counters() != e.counters() {
                    return Err(RateError::DivergentBranches(cond.to_string()));
                }
                (st.pops, st.pushes, st.peek_extent, st.push_extent) = t.counters();
                // Keep only bindings identical in both branches.
                st.env.meet(&t.env, &e.env);
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

fn unrolled_loop(var: VarId, n: i64, body: &[Stmt], st: &mut RateState) -> Result<(), RateError> {
    for i in 0..n.max(0) {
        st.env.set(var, Some(Value::I32(i as i32)));
        exec_block(body, st)?;
    }
    Ok(())
}

/// Walk iteration 0 and iteration `n - 1` (`n >= 3`) of a loop
/// [`exec_stmt`] found uniform with affine offsets, advancing the tape
/// pointers past the `n - 2` iterations in between: each moves them as
/// far as iteration 0 did, and reaches no further than one of the ends.
fn summarized_loop(var: VarId, n: i64, body: &[Stmt], st: &mut RateState) -> Result<(), RateError> {
    let (pops, pushes) = (st.pops, st.pushes);
    st.env.set(var, Some(Value::I32(0)));
    exec_block(body, st)?;
    let skipped = (n - 2) as usize;
    st.pops += skipped * (st.pops - pops);
    st.pushes += skipped * (st.pushes - pushes);
    st.env.set(var, Some(Value::I32((n - 1) as i32)));
    exec_block(body, st)
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
pub fn analyze_vectorizability(filter: &Filter) -> Vectorizability {
    let mut out = Vectorizability {
        stateful: false,
        tape_dependent_control: false,
        tape_dependent_subscript: false,
        intrinsics: BTreeSet::new(),
        vectorized: false,
    };

    // Statefulness: state variables written inside work.
    let state_vars: VarSet = filter.state_vars().collect();
    for s in &filter.work {
        s.walk(&mut |s| {
            if let Stmt::Assign(lv, _) = s {
                if state_vars.contains(&lv.var()) {
                    out.stateful = true;
                }
            }
        });
    }

    // Intrinsics and pre-existing vector constructs.
    for s in &filter.work {
        s.walk_exprs(&mut |e| match e {
            Expr::Call(i, _) => {
                out.intrinsics.insert(*i);
            }
            Expr::ConstVec(_)
            | Expr::VPop { .. }
            | Expr::VPeek { .. }
            | Expr::LVPop(_, _)
            | Expr::VIndex(_, _, _)
            | Expr::Lane(_, _)
            | Expr::Splat(_, _)
            | Expr::PermuteEven(_, _)
            | Expr::PermuteOdd(_, _) => out.vectorized = true,
            _ => {}
        });
        s.walk(&mut |s| {
            if matches!(s, Stmt::VPush { .. } | Stmt::LVPush(_, _, _)) {
                out.vectorized = true;
            }
        });
    }
    if filter.vars.iter().any(|v| v.ty.is_vector()) {
        out.vectorized = true;
    }

    // Taint analysis for tape-dependent control flow / subscripts.
    // Iterate to a fixpoint so loop-carried taint is caught.
    let mut tainted = VarSet::new();
    loop {
        let before = tainted.len();
        taint_block(&filter.work, &mut tainted, &mut out);
        if tainted.len() == before {
            break;
        }
    }
    out
}

fn expr_tainted(e: &Expr, tainted: &VarSet) -> bool {
    let mut hit = false;
    e.walk(&mut |e| match e {
        Expr::Pop
        | Expr::Peek(_)
        | Expr::VPop { .. }
        | Expr::VPeek { .. }
        | Expr::LPop(_)
        | Expr::LVPop(_, _) => hit = true,
        Expr::Var(v) | Expr::Index(v, _) if tainted.contains(v) => {
            hit = true;
        }
        _ => {}
    });
    hit
}

fn check_subscripts(e: &Expr, tainted: &VarSet, out: &mut Vectorizability) {
    e.walk(&mut |e| match e {
        Expr::Index(_, i) if expr_tainted(i, tainted) => {
            out.tape_dependent_subscript = true;
        }
        Expr::Peek(off) | Expr::VPeek { offset: off, .. } if expr_tainted(off, tainted) => {
            out.tape_dependent_subscript = true;
        }
        _ => {}
    });
}

fn taint_block(stmts: &[Stmt], tainted: &mut VarSet, out: &mut Vectorizability) {
    for s in stmts {
        match s {
            Stmt::Assign(lv, e) => {
                check_subscripts(e, tainted, out);
                if let LValue::Index(_, i) | LValue::LaneIndex(_, i, _) | LValue::VIndex(_, i, _) =
                    lv
                {
                    check_subscripts(i, tainted, out);
                    if expr_tainted(i, tainted) {
                        out.tape_dependent_subscript = true;
                    }
                }
                let rhs_tainted = expr_tainted(e, tainted);
                match lv {
                    LValue::Var(v) => {
                        if rhs_tainted {
                            tainted.insert(*v);
                        }
                        // Note: we do not untaint on clean assignment; the
                        // analysis is a conservative may-taint fixpoint.
                    }
                    _ => {
                        if rhs_tainted {
                            tainted.insert(lv.var());
                        }
                    }
                }
            }
            Stmt::Push(e) | Stmt::LPush(_, e) | Stmt::LVPush(_, e, _) => {
                check_subscripts(e, tainted, out)
            }
            Stmt::RPush { value, offset } => {
                check_subscripts(value, tainted, out);
                if expr_tainted(offset, tainted) {
                    out.tape_dependent_subscript = true;
                }
            }
            Stmt::VPush { value, .. } => check_subscripts(value, tainted, out),
            Stmt::For { count, body, .. } => {
                if expr_tainted(count, tainted) {
                    out.tape_dependent_control = true;
                }
                taint_block(body, tainted, out);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if expr_tainted(cond, tainted) {
                    out.tape_dependent_control = true;
                }
                taint_block(then_branch, tainted, out);
                taint_block(else_branch, tainted, out);
            }
            Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => {}
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
            return uniform_loop_body(*var, body, &mut st.assigned)
                && offsets_affine(body, *var, &st.assigned, &st.env, i128::from(n - 1));
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

        // A local stepped in the body and read after the loop.
        let stepped = build(&|b, i, _, k, t| {
            b.set(k, 0i32);
            b.for_(i, 4i32, |b| {
                b.set(t, pop());
                b.set(k, v(k) + 3i32);
            });
            b.set(t, peek(v(k)));
        });
        assert!(!summarizes_first_loop(&stepped));
        assert_eq!(rates_both_ways(&stepped), Ok(rates(4, 17)));

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
