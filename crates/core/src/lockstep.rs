//! Reading `SW` isomorphic bodies in lock-step, for horizontal
//! SIMDization (Section 3.3): the bodies must agree node for node except
//! in the values of constants, and the merge of them keeps each constant
//! all lanes share and gathers the ones that differ into a lane-ordered
//! vector constant (Figure 6b's `const_v = {5,6,7,8}`).
//!
//! The walk follows lane 0's body and reaches every other lane through a
//! [`Lane`] closure per level, so it keeps no buffer of lanes per node.
//! With a single lane every check passes and a merge is a plain copy,
//! which is how staging normalizes one actor and a merged group alike
//! ([`crate::normalize`]).

use macross_streamir::expr::{Expr, LValue};
use macross_streamir::stmt::Stmt;

/// Lane `j`'s node at the position the walk has reached (`j = 0` is the
/// node being walked).
pub(crate) type Lane<'l, 'f, T> = &'l dyn Fn(usize) -> &'f T;

const KINDS: &str = "statement kinds differ";
const SHAPES: &str = "expression shapes differ";
const TARGETS: &str = "assignment targets differ";

/// `Ok` when `alike` holds for lanes `1..lanes`, else `why`.
fn lanes_alike<T: ?Sized>(
    lane: Lane<'_, '_, T>,
    lanes: usize,
    why: &'static str,
    alike: impl Fn(&T) -> bool,
) -> Result<(), &'static str> {
    if (1..lanes).all(|j| alike(lane(j))) {
        Ok(())
    } else {
        Err(why)
    }
}

/// Every lane has a block of `first`'s length here.
pub(crate) fn blocks_alike(
    first: &[Stmt],
    lane: Lane<'_, '_, [Stmt]>,
    lanes: usize,
) -> Result<(), &'static str> {
    lanes_alike(lane, lanes, "statement counts differ", |b| {
        b.len() == first.len()
    })
}

/// Every lane's statement here has `first`'s kind, loop variable or
/// pointer advance. Channel and vector statements have no place in a
/// merge of several lanes.
pub(crate) fn stmt_alike(
    first: &Stmt,
    lane: Lane<'_, '_, Stmt>,
    lanes: usize,
) -> Result<(), &'static str> {
    use Stmt::*;
    match first {
        Assign(..) => lanes_alike(lane, lanes, KINDS, |s| matches!(s, Assign(..))),
        Push(_) => lanes_alike(lane, lanes, KINDS, |s| matches!(s, Push(_))),
        LPush(..) | LVPush(..) | VPush { .. } | RPush { .. } if lanes > 1 => {
            Err("vector/channel ops in horizontal input")
        }
        LPush(..) | LVPush(..) | VPush { .. } | RPush { .. } => Ok(()),
        For { var, .. } => lanes_alike(
            lane,
            lanes,
            KINDS,
            |s| matches!(s, For { var: v, .. } if v == var),
        ),
        If { .. } => lanes_alike(lane, lanes, KINDS, |s| matches!(s, If { .. })),
        AdvanceRead(n) => lanes_alike(
            lane,
            lanes,
            "advance_read amounts differ",
            |s| matches!(s, AdvanceRead(m) if m == n),
        ),
        AdvanceWrite(n) => lanes_alike(
            lane,
            lanes,
            "advance_write amounts differ",
            |s| matches!(s, AdvanceWrite(m) if m == n),
        ),
    }
}

/// Every lane's expression here has `first`'s kind, operator, variable,
/// type or arity; constants may differ in value but not in type. Vector
/// and channel constructs have no place in a merge of several lanes.
pub(crate) fn expr_alike(
    first: &Expr,
    lane: Lane<'_, '_, Expr>,
    lanes: usize,
) -> Result<(), &'static str> {
    use Expr::*;
    if lanes == 1 {
        return Ok(());
    }
    let shaped = |alike: &dyn Fn(&Expr) -> bool| lanes_alike(lane, lanes, SHAPES, alike);
    match first {
        Const(v) => {
            // One pass; a lane of another shape outranks one of another type.
            let (mut shape, mut ty) = (true, true);
            for j in 1..lanes {
                match lane(j) {
                    Const(x) => ty &= x.ty() == v.ty(),
                    _ => shape = false,
                }
            }
            match (shape, ty) {
                (false, _) => Err(SHAPES),
                (true, false) => Err("constant types differ"),
                (true, true) => Ok(()),
            }
        }
        Var(v) => lanes_alike(
            lane,
            lanes,
            "variable references differ",
            |e| matches!(e, Var(w) if w == v),
        ),
        Index(v, _) => shaped(&|e| matches!(e, Index(w, _) if w == v)),
        Unary(op, _) => shaped(&|e| matches!(e, Unary(o, _) if o == op)),
        Cast(t, _) => shaped(&|e| matches!(e, Cast(u, _) if u == t)),
        Binary(op, ..) => shaped(&|e| matches!(e, Binary(o, ..) if o == op)),
        Call(i, args) => {
            shaped(&|e| matches!(e, Call(j, other) if j == i && other.len() == args.len()))
        }
        Pop => shaped(&|e| matches!(e, Pop)),
        Peek(_) => shaped(&|e| matches!(e, Peek(_))),
        _ => Err("vector construct in horizontal input"),
    }
}

/// The expression a statement owns: an assignment's or push's value, a
/// loop's trip count, a branch condition.
pub(crate) fn own_expr(s: &Stmt) -> &Expr {
    match s {
        Stmt::Assign(_, e) | Stmt::Push(e) => e,
        Stmt::For { count, .. } => count,
        Stmt::If { cond, .. } => cond,
        _ => unreachable!("only assignments, pushes, loops and branches are merged"),
    }
}

/// An assignment's target.
pub(crate) fn own_target(s: &Stmt) -> &LValue {
    match s {
        Stmt::Assign(lv, _) => lv,
        _ => unreachable!("only assignments have a target"),
    }
}

/// Block `k` of a loop (its body) or a branch (0: then, 1: else).
pub(crate) fn own_block(s: &Stmt, k: usize) -> &[Stmt] {
    match s {
        Stmt::For { body, .. } => body,
        Stmt::If { then_branch, .. } if k == 0 => then_branch,
        Stmt::If { else_branch, .. } => else_branch,
        _ => unreachable!("only loops and branches hold blocks"),
    }
}

/// Operand `k` of an expression.
pub(crate) fn operand(e: &Expr, k: usize) -> &Expr {
    use Expr::*;
    match e {
        Index(_, a)
        | VIndex(_, a, _)
        | Unary(_, a)
        | Cast(_, a)
        | Peek(a)
        | Lane(a, _)
        | Splat(a, _) => a,
        VPeek { offset, .. } => offset,
        Binary(_, a, b) | PermuteEven(a, b) | PermuteOdd(a, b) => [a, b][k],
        Call(_, args) => &args[k],
        _ => unreachable!("a leaf has no operands"),
    }
}

/// The merge of a block across the lanes.
pub(crate) fn merge_block<'f>(
    first: &'f [Stmt],
    lane: Lane<'_, 'f, [Stmt]>,
    lanes: usize,
) -> Result<Vec<Stmt>, &'static str> {
    blocks_alike(first, lane, lanes)?;
    (first.iter().enumerate())
        .map(|(i, s)| merge_stmt(s, &|j| &lane(j)[i], lanes))
        .collect()
}

fn merge_stmt<'f>(
    first: &'f Stmt,
    lane: Lane<'_, 'f, Stmt>,
    lanes: usize,
) -> Result<Stmt, &'static str> {
    use Stmt::*;
    if lanes == 1 {
        return Ok(first.clone());
    }
    stmt_alike(first, lane, lanes)?;
    let expr = |first| merge_expr(first, &|j| own_expr(lane(j)), lanes);
    let block = |first, k| merge_block(first, &|j| own_block(lane(j), k), lanes);
    Ok(match first {
        Assign(lv, e) => Assign(merge_lvalue(lv, &|j| own_target(lane(j)), lanes)?, expr(e)?),
        Push(e) => Push(expr(e)?),
        For { var, count, body } => For {
            var: *var,
            count: expr(count)?,
            body: block(body, 0)?,
        },
        If {
            cond,
            then_branch,
            else_branch,
        } => If {
            cond: expr(cond)?,
            then_branch: block(then_branch, 0)?,
            else_branch: block(else_branch, 1)?,
        },
        other => other.clone(),
    })
}

/// The merge of an assignment target across the lanes.
pub(crate) fn merge_lvalue<'f>(
    first: &'f LValue,
    lane: Lane<'_, 'f, LValue>,
    lanes: usize,
) -> Result<LValue, &'static str> {
    if lanes == 1 {
        return Ok(first.clone());
    }
    match first {
        LValue::Var(v) => {
            lanes_alike(
                lane,
                lanes,
                TARGETS,
                |l| matches!(l, LValue::Var(w) if w == v),
            )?;
            Ok(LValue::Var(*v))
        }
        LValue::Index(v, i) => {
            lanes_alike(
                lane,
                lanes,
                TARGETS,
                |l| matches!(l, LValue::Index(w, _) if w == v),
            )?;
            let subscript = |j| match lane(j) {
                LValue::Index(_, i) => i,
                _ => unreachable!("lanes checked alike"),
            };
            Ok(LValue::Index(*v, merge_expr(i, &subscript, lanes)?))
        }
        _ => Err("lane lvalue in horizontal input"),
    }
}

/// The merge of an expression across the lanes: a constant every lane
/// shares stays one `Const`, and only constants that differ between lanes
/// are gathered into a lane-ordered `ConstVec`.
pub(crate) fn merge_expr<'f>(
    first: &'f Expr,
    lane: Lane<'_, 'f, Expr>,
    lanes: usize,
) -> Result<Expr, &'static str> {
    use Expr::*;
    if lanes == 1 {
        return Ok(first.clone());
    }
    expr_alike(first, lane, lanes)?;
    let arg = |first, k| merge_expr(first, &|j| operand(lane(j), k), lanes);
    let boxed = |first| arg(first, 0).map(Box::new);
    Ok(match first {
        Const(v) => {
            let value = |j| match lane(j) {
                Const(x) => *x,
                _ => unreachable!("lanes checked alike"),
            };
            if (1..lanes).all(|j| value(j).bits_eq(*v)) {
                Const(*v)
            } else {
                ConstVec((0..lanes).map(value).collect())
            }
        }
        Index(v, i) => Index(*v, boxed(i)?),
        Unary(op, a) => Unary(*op, boxed(a)?),
        Cast(t, a) => Cast(*t, boxed(a)?),
        Binary(op, a, b) => Expr::bin(*op, arg(a, 0)?, arg(b, 1)?),
        Call(i, args) => Call(
            *i,
            (args.iter().enumerate())
                .map(|(k, a)| arg(a, k))
                .collect::<Result<_, _>>()?,
        ),
        Peek(o) => Peek(boxed(o)?),
        other => other.clone(),
    })
}
