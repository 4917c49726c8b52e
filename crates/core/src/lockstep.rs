//! Reading `SW` isomorphic bodies in lock-step, for horizontal
//! SIMDization (Section 3.3): the bodies must agree node for node except
//! in the values of constants, and the merge of them keeps each constant
//! all lanes share and gathers the ones that differ into a lane-ordered
//! vector constant (Figure 6b's `const_v = {5,6,7,8}`).
//!
//! The walk holds one slice per level with every lane's node there, lane
//! 0's (the node being walked) first, and builds the next level's from it
//! as it steps in ([`step`]). With a single lane every check passes and a
//! merge is a plain copy, which is how staging normalizes one actor and a
//! merged group alike ([`crate::normalize`]).

use macross_streamir::expr::{Expr, LValue};
use macross_streamir::stmt::Stmt;
use std::ops::Deref;

/// Every lane's node at one level of the walk, lane 0's first: a single
/// lane is held as it is, and more in a vector.
pub(crate) enum Lanes<'f, T: ?Sized> {
    One(&'f T),
    Many(Vec<&'f T>),
}

impl<'f, T: ?Sized> Deref for Lanes<'f, T> {
    type Target = [&'f T];

    fn deref(&self) -> &[&'f T] {
        match self {
            Lanes::One(lane) => std::slice::from_ref(lane),
            Lanes::Many(lanes) => lanes,
        }
    }
}

/// The next level of the walk: `next` of every lane's node in `lanes`.
pub(crate) fn step<'f, T: ?Sized, U: ?Sized>(
    lanes: &[&'f T],
    next: impl Fn(&'f T) -> &'f U,
) -> Lanes<'f, U> {
    match lanes {
        [lane] => Lanes::One(next(lane)),
        _ => Lanes::Many(lanes.iter().map(|&l| next(l)).collect()),
    }
}

const KINDS: &str = "statement kinds differ";
const SHAPES: &str = "expression shapes differ";
const TARGETS: &str = "assignment targets differ";

/// `Ok` when `alike` holds for every lane but lane 0, else `why`.
fn lanes_alike<T: ?Sized>(
    lanes: &[&T],
    why: &'static str,
    alike: impl Fn(&T) -> bool,
) -> Result<(), &'static str> {
    if lanes[1..].iter().all(|l| alike(l)) {
        Ok(())
    } else {
        Err(why)
    }
}

/// Every lane has a block of lane 0's length here.
pub(crate) fn blocks_alike(lanes: &[&[Stmt]]) -> Result<(), &'static str> {
    let n = lanes[0].len();
    lanes_alike(lanes, "statement counts differ", |b| b.len() == n)
}

/// Every lane's statement here has lane 0's kind, loop variable or
/// pointer advance. Channel and vector statements have no place in a
/// merge of several lanes.
pub(crate) fn stmt_alike(lanes: &[&Stmt]) -> Result<(), &'static str> {
    use Stmt::*;
    match lanes[0] {
        Assign(..) => lanes_alike(lanes, KINDS, |s| matches!(s, Assign(..))),
        Push(_) => lanes_alike(lanes, KINDS, |s| matches!(s, Push(_))),
        LPush(..) | LVPush(..) | VPush { .. } | RPush { .. } if lanes.len() > 1 => {
            Err("vector/channel ops in horizontal input")
        }
        LPush(..) | LVPush(..) | VPush { .. } | RPush { .. } => Ok(()),
        For { var, .. } => lanes_alike(
            lanes,
            KINDS,
            |s| matches!(s, For { var: v, .. } if v == var),
        ),
        If { .. } => lanes_alike(lanes, KINDS, |s| matches!(s, If { .. })),
        AdvanceRead(n) => lanes_alike(
            lanes,
            "advance_read amounts differ",
            |s| matches!(s, AdvanceRead(m) if m == n),
        ),
        AdvanceWrite(n) => lanes_alike(
            lanes,
            "advance_write amounts differ",
            |s| matches!(s, AdvanceWrite(m) if m == n),
        ),
    }
}

/// Every lane's expression here has lane 0's kind, operator, variable,
/// type or arity; constants may differ in value but not in type. Vector
/// and channel constructs have no place in a merge of several lanes.
pub(crate) fn expr_alike(lanes: &[&Expr]) -> Result<(), &'static str> {
    use Expr::*;
    if lanes.len() == 1 {
        return Ok(());
    }
    let shaped = |alike: &dyn Fn(&Expr) -> bool| lanes_alike(lanes, SHAPES, alike);
    match lanes[0] {
        Const(v) => {
            // One pass; a lane of another shape outranks one of another type.
            let (mut shape, mut ty) = (true, true);
            for l in &lanes[1..] {
                match l {
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
pub(crate) fn merge_block(lanes: &[&[Stmt]]) -> Result<Vec<Stmt>, &'static str> {
    blocks_alike(lanes)?;
    (0..lanes[0].len())
        .map(|i| merge_stmt(&step(lanes, |b| &b[i])))
        .collect()
}

fn merge_stmt(lanes: &[&Stmt]) -> Result<Stmt, &'static str> {
    use Stmt::*;
    let first = lanes[0];
    if lanes.len() == 1 {
        return Ok(first.clone());
    }
    stmt_alike(lanes)?;
    let expr = || merge_expr(&step(lanes, own_expr));
    let block = |k| merge_block(&step(lanes, |s| own_block(s, k)));
    Ok(match first {
        Assign(..) => Assign(merge_lvalue(&step(lanes, own_target))?, expr()?),
        Push(_) => Push(expr()?),
        For { var, .. } => For {
            var: *var,
            count: expr()?,
            body: block(0)?,
        },
        If { .. } => If {
            cond: expr()?,
            then_branch: block(0)?,
            else_branch: block(1)?,
        },
        other => other.clone(),
    })
}

/// The merge of an assignment target across the lanes.
pub(crate) fn merge_lvalue(lanes: &[&LValue]) -> Result<LValue, &'static str> {
    let first = lanes[0];
    if lanes.len() == 1 {
        return Ok(first.clone());
    }
    match first {
        LValue::Var(v) => {
            lanes_alike(lanes, TARGETS, |l| matches!(l, LValue::Var(w) if w == v))?;
            Ok(LValue::Var(*v))
        }
        LValue::Index(v, _) => {
            lanes_alike(
                lanes,
                TARGETS,
                |l| matches!(l, LValue::Index(w, _) if w == v),
            )?;
            fn subscript(l: &LValue) -> &Expr {
                match l {
                    LValue::Index(_, i) => i,
                    _ => unreachable!("lanes checked alike"),
                }
            }
            Ok(LValue::Index(*v, merge_expr(&step(lanes, subscript))?))
        }
        _ => Err("lane lvalue in horizontal input"),
    }
}

/// The merge of an expression across the lanes: a constant every lane
/// shares stays one `Const`, and only constants that differ between lanes
/// are gathered into a lane-ordered `ConstVec`.
pub(crate) fn merge_expr(lanes: &[&Expr]) -> Result<Expr, &'static str> {
    use Expr::*;
    let first = lanes[0];
    if lanes.len() == 1 {
        return Ok(first.clone());
    }
    expr_alike(lanes)?;
    let arg = |k| merge_expr(&step(lanes, |e| operand(e, k)));
    let boxed = || arg(0).map(Box::new);
    Ok(match first {
        Const(v) => {
            let value = |l: &Expr| match l {
                Const(x) => *x,
                _ => unreachable!("lanes checked alike"),
            };
            if lanes[1..].iter().all(|l| value(l).bits_eq(*v)) {
                Const(*v)
            } else {
                ConstVec(lanes.iter().map(|l| value(l)).collect())
            }
        }
        Index(v, _) => Index(*v, boxed()?),
        Unary(op, _) => Unary(*op, boxed()?),
        Cast(t, _) => Cast(*t, boxed()?),
        Binary(op, ..) => Expr::bin(*op, arg(0)?, arg(1)?),
        Call(i, args) => Call(*i, (0..args.len()).map(arg).collect::<Result<_, _>>()?),
        Peek(_) => Peek(boxed()?),
        other => other.clone(),
    })
}
