//! Statement AST of actor `work`/`init` functions.

use crate::expr::{ChanId, Expr, LValue, VarId};
use std::fmt;

/// Statement nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs`.
    Assign(LValue, Expr),
    /// Scalar push to the output tape (advances the write pointer by 1).
    Push(Expr),
    /// Random-access push: write `value` at `offset` elements past the write
    /// pointer without advancing it (`rpush(data, offset)` in the paper).
    RPush { value: Expr, offset: Expr },
    /// Vector push: `width` lanes written contiguously at the write pointer,
    /// advancing it by `width`.
    VPush { value: Expr, width: usize },
    /// Scalar push to an internal channel of a fused actor.
    LPush(ChanId, Expr),
    /// Vector push to an internal channel of a fused actor.
    LVPush(ChanId, Expr, usize),
    /// Counted loop: `var` ranges over `0..count`.
    For {
        var: VarId,
        count: Expr,
        body: Vec<Stmt>,
    },
    /// Conditional.
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    /// Advance the input-tape read pointer by `n` elements without reading.
    ///
    /// Emitted by the SIMDizer at the end of a vectorized work function: the
    /// strided `peek`s only popped `pop_rate` elements although
    /// `SW * pop_rate` were consumed (implicit in Figure 3b of the paper).
    AdvanceRead(usize),
    /// Advance the output-tape write pointer by `n` elements; the slots were
    /// already filled by `RPush`. Counterpart of [`Stmt::AdvanceRead`].
    AdvanceWrite(usize),
}

impl Stmt {
    /// Pre-order walk over statements (not descending into expressions).
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::For { body, .. } => {
                for s in body {
                    s.walk(f);
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                for s in then_branch {
                    s.walk(f);
                }
                for s in else_branch {
                    s.walk(f);
                }
            }
            _ => {}
        }
    }

    /// Walk every expression contained in this statement (and substatements).
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.walk(&mut |s| s.walk_own_exprs(f));
    }

    /// Walk the expressions this statement holds itself — an assignment's
    /// subscript and value, a push's operand and offset, a trip count, a
    /// condition — but not those of its substatements.
    pub fn walk_own_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Assign(lv, e) => {
                match lv {
                    LValue::Index(_, i) | LValue::LaneIndex(_, i, _) | LValue::VIndex(_, i, _) => {
                        i.walk(f)
                    }
                    _ => {}
                }
                e.walk(f);
            }
            Stmt::Push(e) | Stmt::LPush(_, e) | Stmt::LVPush(_, e, _) => e.walk(f),
            Stmt::RPush { value, offset } => {
                value.walk(f);
                offset.walk(f);
            }
            Stmt::VPush { value, .. } => value.walk(f),
            Stmt::For { count, .. } => count.walk(f),
            Stmt::If { cond, .. } => cond.walk(f),
            Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => {}
        }
    }
}

/// Copy-on-write rewrite of a list (a block's statements, a call's
/// arguments): `rewrite` returns the replacement for an item it changes
/// (any number of items, none to delete it) and `None` to keep it.
/// `None` when every item is kept, with nothing allocated; otherwise the
/// new list, the kept items cloned around the replacements.
pub fn rewrite_slice<T: Clone, R: IntoIterator<Item = T>>(
    items: &[T],
    mut rewrite: impl FnMut(&T) -> Option<R>,
) -> Option<Vec<T>> {
    let mut out: Option<Vec<T>> = None;
    for (i, item) in items.iter().enumerate() {
        match rewrite(item) {
            Some(new) => out.get_or_insert_with(|| items[..i].to_vec()).extend(new),
            None => {
                if let Some(out) = &mut out {
                    out.push(item.clone());
                }
            }
        }
    }
    out
}

fn write_block(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], indent: usize) -> fmt::Result {
    for s in stmts {
        s.fmt_indented(f, indent)?;
    }
    Ok(())
}

impl Stmt {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Stmt::Assign(lv, e) => writeln!(f, "{pad}{lv} = {e};"),
            Stmt::Push(e) => writeln!(f, "{pad}push({e});"),
            Stmt::RPush { value, offset } => writeln!(f, "{pad}rpush({value}, {offset});"),
            Stmt::VPush { value, width } => writeln!(f, "{pad}vpush{width}({value});"),
            Stmt::LPush(c, e) => writeln!(f, "{pad}{c}.push({e});"),
            Stmt::LVPush(c, e, w) => writeln!(f, "{pad}{c}.vpush{w}({e});"),
            Stmt::For { var, count, body } => {
                writeln!(f, "{pad}for ({var} : 0 to {count}) {{")?;
                write_block(f, body, indent + 1)?;
                writeln!(f, "{pad}}}")
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                writeln!(f, "{pad}if ({cond}) {{")?;
                write_block(f, then_branch, indent + 1)?;
                if !else_branch.is_empty() {
                    writeln!(f, "{pad}}} else {{")?;
                    write_block(f, else_branch, indent + 1)?;
                }
                writeln!(f, "{pad}}}")
            }
            Stmt::AdvanceRead(n) => writeln!(f, "{pad}advance_read({n});"),
            Stmt::AdvanceWrite(n) => writeln!(f, "{pad}advance_write({n});"),
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, VarId};
    use crate::types::Value;

    fn sample_loop() -> Stmt {
        Stmt::For {
            var: VarId(0),
            count: Expr::Const(Value::I32(4)),
            body: vec![
                Stmt::Assign(LValue::Var(VarId(1)), Expr::Pop),
                Stmt::Push(Expr::bin(
                    BinOp::Mul,
                    Expr::Var(VarId(1)),
                    Expr::Const(Value::F32(2.0)),
                )),
            ],
        }
    }

    #[test]
    fn walk_visits_nested() {
        let s = sample_loop();
        let mut count = 0;
        s.walk(&mut |_| count += 1);
        assert_eq!(count, 3); // for + assign + push
    }

    #[test]
    fn walk_exprs_visits_all() {
        let s = sample_loop();
        let mut pops = 0;
        s.walk_exprs(&mut |e| {
            if matches!(e, Expr::Pop) {
                pops += 1;
            }
        });
        assert_eq!(pops, 1);
    }

    #[test]
    fn display_renders_block() {
        let s = sample_loop();
        let text = s.to_string();
        assert!(text.contains("for (v0 : 0 to 4) {"));
        assert!(text.contains("push((v1 * 2.0f));"));
    }

    #[test]
    fn rewrite_slice_copies_only_on_a_change() {
        let block = match sample_loop() {
            Stmt::For { body, .. } => body,
            _ => unreachable!(),
        };
        assert_eq!(rewrite_slice(&block, |_| None::<Vec<Stmt>>), None);
        let dropped = rewrite_slice(&block, |s| matches!(s, Stmt::Push(_)).then(Vec::new));
        assert_eq!(dropped, Some(block[..1].to_vec()));
        let doubled = rewrite_slice(&block, |s| {
            matches!(s, Stmt::Assign(..)).then(|| vec![s.clone(), s.clone()])
        });
        assert_eq!(
            doubled,
            Some(vec![block[0].clone(), block[0].clone(), block[1].clone()])
        );
    }

    #[test]
    fn if_display_includes_else() {
        let s = Stmt::If {
            cond: Expr::Var(VarId(0)),
            then_branch: vec![Stmt::Push(Expr::Const(Value::I32(1)))],
            else_branch: vec![Stmt::Push(Expr::Const(Value::I32(0)))],
        };
        let text = s.to_string();
        assert!(text.contains("} else {"));
    }
}
