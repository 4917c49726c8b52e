//! Prepass classic optimizations (Algorithm 1, "Prepass-Optimizations"):
//! constant folding (including intrinsic calls), algebraic identities,
//! constant-branch and trivial-loop simplification, and dead-local-store
//! elimination.
//!
//! The other prepass the paper names — *static parameter propagation* — is
//! performed by the benchmark builders, which bake each instance's
//! parameters into constants when they build its filter.
//!
//! Every rewrite here is bit-exactness-preserving: compile-time folds use
//! the same `eval_*` kernels the VM executes, so folding `sin(0.5)` now or
//! at run time produces the identical f32.

use macross_streamir::analysis::VarSet;
use macross_streamir::expr::{eval_binop, eval_intrinsic, eval_unop, BinOp, Expr, LValue};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::graph::{Graph, Node};
use macross_streamir::stmt::{rewrite_slice, Stmt};
use macross_streamir::types::Value;
use std::sync::Arc;

/// Statistics from one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Expressions folded to constants.
    pub folded: usize,
    /// Algebraic identities applied.
    pub identities: usize,
    /// Constant branches resolved.
    pub branches_resolved: usize,
    /// Loops removed or unrolled (count 0/1).
    pub loops_simplified: usize,
    /// Dead local stores removed.
    pub dead_stores: usize,
}

impl OptStats {
    /// Total rewrites.
    pub fn total(&self) -> usize {
        self.folded
            + self.identities
            + self.branches_resolved
            + self.loops_simplified
            + self.dead_stores
    }

    fn absorb(&mut self, o: OptStats) {
        self.folded += o.folded;
        self.identities += o.identities;
        self.branches_resolved += o.branches_resolved;
        self.loops_simplified += o.loops_simplified;
        self.dead_stores += o.dead_stores;
    }
}

/// Optimize one filter's `init` and `work` bodies to a fixed point,
/// copy-on-write: an actor no rewrite applies to is left as it is, still
/// shared; one that changes gets a copy of its own (its old bodies are
/// not copied), so only the actors the prepass improves stop being
/// shared.
pub fn optimize_filter(f: &mut Arc<Filter>) -> OptStats {
    let mut stats = OptStats::default();
    while let Some((init, work)) = opt_round(f, &mut stats) {
        match Arc::get_mut(f) {
            Some(own) => (own.init, own.work) = (init, work),
            None => *f = Arc::new(f.with_bodies(init, work)),
        }
    }
    stats
}

/// Optimize every filter of a graph, sharing each actor no rewrite
/// applies to with the graph's clones.
pub fn prepass_optimize(graph: &mut Graph) -> OptStats {
    let mut stats = OptStats::default();
    for id in graph.node_ids() {
        if let Node::Filter(f) = graph.node_mut(id) {
            stats.absorb(optimize_filter(f));
        }
    }
    stats
}

/// One round of every rewrite over `f`: its new `init` and `work`, or
/// `None` when no rewrite applies. Every counted rewrite changes the
/// body, so a round that counts none is the fixed point.
fn opt_round(f: &Filter, stats: &mut OptStats) -> Option<(Vec<Stmt>, Vec<Stmt>)> {
    let init = opt_block(&f.init, stats);
    let work = opt_block(&f.work, stats);
    let (swept_init, swept_work) = eliminate_dead_stores(
        f,
        init.as_deref().unwrap_or(&f.init),
        work.as_deref().unwrap_or(&f.work),
        &mut stats.dead_stores,
    );
    let (init, work) = (swept_init.or(init), swept_work.or(work));
    if init.is_none() && work.is_none() {
        return None;
    }
    Some((or_clone(init, &f.init), or_clone(work, &f.work)))
}

/// The rewritten value, or a copy of the original it left alone.
fn or_clone<T: Clone>(new: Option<T>, old: &T) -> T {
    new.unwrap_or_else(|| old.clone())
}

fn opt_block(stmts: &[Stmt], stats: &mut OptStats) -> Option<Vec<Stmt>> {
    rewrite_slice(stmts, |s| opt_stmt(s, stats))
}

/// The statements `s` rewrites to, or `None` when no rewrite applies.
fn opt_stmt(s: &Stmt, stats: &mut OptStats) -> Option<Vec<Stmt>> {
    let mut e = |e: &Expr| opt_expr(e, stats);
    let one = |s: Stmt| Some(vec![s]);
    match s {
        Stmt::Assign(lv, rhs) => {
            let new_lv = match lv {
                LValue::Index(v, i) => e(i).map(|i| LValue::Index(*v, i)),
                LValue::LaneIndex(v, i, l) => e(i).map(|i| LValue::LaneIndex(*v, i, *l)),
                LValue::VIndex(v, i, w) => e(i).map(|i| LValue::VIndex(*v, i, *w)),
                LValue::Var(_) | LValue::LaneVar(..) => None,
            };
            let new_rhs = e(rhs);
            if new_lv.is_none() && new_rhs.is_none() {
                return None;
            }
            one(Stmt::Assign(or_clone(new_lv, lv), or_clone(new_rhs, rhs)))
        }
        Stmt::Push(v) => one(Stmt::Push(e(v)?)),
        Stmt::RPush { value, offset } => {
            let (new_value, new_offset) = (e(value), e(offset));
            if new_value.is_none() && new_offset.is_none() {
                return None;
            }
            one(Stmt::RPush {
                value: or_clone(new_value, value),
                offset: or_clone(new_offset, offset),
            })
        }
        Stmt::VPush { value, width } => one(Stmt::VPush {
            value: e(value)?,
            width: *width,
        }),
        Stmt::LPush(c, v) => one(Stmt::LPush(*c, e(v)?)),
        Stmt::LVPush(c, v, w) => one(Stmt::LVPush(*c, e(v)?, *w)),
        Stmt::For { var, count, body } => {
            let new_count = e(count);
            let new_body = opt_block(body, stats);
            let count_now = new_count.as_ref().unwrap_or(count);
            match count_now.as_const_usize() {
                Some(0) if block_tape_free(new_body.as_deref().unwrap_or(body)) => {
                    stats.loops_simplified += 1;
                    // Dropped entirely: zero iterations.
                    Some(Vec::new())
                }
                Some(1) => {
                    stats.loops_simplified += 1;
                    let mut out = vec![Stmt::Assign(LValue::Var(*var), Expr::Const(Value::I32(0)))];
                    out.extend(or_clone(new_body, body));
                    Some(out)
                }
                _ if new_count.is_none() && new_body.is_none() => None,
                _ => one(Stmt::For {
                    var: *var,
                    count: or_clone(new_count, count),
                    body: or_clone(new_body, body),
                }),
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let new_cond = e(cond);
            let new_then = opt_block(then_branch, stats);
            let new_else = opt_block(else_branch, stats);
            let cond_now = new_cond.as_ref().unwrap_or(cond);
            if let Expr::Const(v) = cond_now {
                stats.branches_resolved += 1;
                return Some(if v.is_truthy() {
                    or_clone(new_then, then_branch)
                } else {
                    or_clone(new_else, else_branch)
                });
            }
            let then_now = new_then.as_deref().unwrap_or(then_branch);
            let else_now = new_else.as_deref().unwrap_or(else_branch);
            if then_now.is_empty() && else_now.is_empty() && !cond_now.reads_tape() {
                stats.branches_resolved += 1;
                return Some(Vec::new());
            }
            if new_cond.is_none() && new_then.is_none() && new_else.is_none() {
                return None;
            }
            one(Stmt::If {
                cond: or_clone(new_cond, cond),
                then_branch: or_clone(new_then, then_branch),
                else_branch: or_clone(new_else, else_branch),
            })
        }
        Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => None,
    }
}

fn block_tape_free(stmts: &[Stmt]) -> bool {
    stmts.iter().all(|s| {
        let mut clean = true;
        s.walk_exprs(&mut |e| {
            if e.reads_tape() {
                clean = false;
            }
        });
        s.walk(&mut |s| {
            if matches!(
                s,
                Stmt::Push(_)
                    | Stmt::RPush { .. }
                    | Stmt::VPush { .. }
                    | Stmt::LPush(_, _)
                    | Stmt::LVPush(_, _, _)
                    | Stmt::AdvanceRead(_)
                    | Stmt::AdvanceWrite(_)
            ) {
                clean = false;
            }
        });
        clean
    })
}

/// The expression `e` rewrites to, or `None` when no rewrite applies.
fn opt_expr(e: &Expr, stats: &mut OptStats) -> Option<Expr> {
    let mut sub = |a: &Expr| opt_expr(a, stats).map(Box::new);
    match e {
        Expr::Unary(op, a) => {
            let new_a = opt_expr(a, stats);
            if let Expr::Const(v) = new_a.as_ref().unwrap_or(a) {
                stats.folded += 1;
                return Some(Expr::Const(eval_unop(*op, *v)));
            }
            Some(Expr::Unary(*op, Box::new(new_a?)))
        }
        Expr::Binary(op, a, b) => {
            let (new_a, new_b) = (opt_expr(a, stats), opt_expr(b, stats));
            let (a_now, b_now) = (new_a.as_ref().unwrap_or(a), new_b.as_ref().unwrap_or(b));
            match (a_now, b_now) {
                (Expr::Const(x), Expr::Const(y)) if x.ty() == y.ty() => {
                    stats.folded += 1;
                    return Some(Expr::Const(eval_binop(*op, *x, *y)));
                }
                _ => {}
            }
            // Algebraic identities (safe ones only).
            if let Some(simplified) = identity(*op, a_now, b_now) {
                stats.identities += 1;
                return Some(simplified);
            }
            if new_a.is_none() && new_b.is_none() {
                return None;
            }
            Some(Expr::bin(*op, or_clone(new_a, a), or_clone(new_b, b)))
        }
        Expr::Cast(t, a) => {
            let new_a = opt_expr(a, stats);
            if let Expr::Const(v) = new_a.as_ref().unwrap_or(a) {
                stats.folded += 1;
                return Some(Expr::Const(v.cast(*t)));
            }
            Some(Expr::Cast(*t, Box::new(new_a?)))
        }
        Expr::Call(i, args) => {
            let new_args = rewrite_slice(args, |a| opt_expr(a, stats).map(std::iter::once));
            let args_now = new_args.as_deref().unwrap_or(args);
            if args_now.iter().all(|a| matches!(a, Expr::Const(_))) {
                let vals: Vec<Value> = args_now
                    .iter()
                    .map(|a| match a {
                        Expr::Const(v) => *v,
                        _ => unreachable!(),
                    })
                    .collect();
                stats.folded += 1;
                return Some(Expr::Const(eval_intrinsic(*i, &vals)));
            }
            Some(Expr::Call(*i, new_args?))
        }
        Expr::Index(v, i) => Some(Expr::Index(*v, sub(i)?)),
        Expr::VIndex(v, i, w) => Some(Expr::VIndex(*v, sub(i)?, *w)),
        Expr::Peek(o) => Some(Expr::Peek(sub(o)?)),
        Expr::VPeek { offset, width } => Some(Expr::VPeek {
            offset: sub(offset)?,
            width: *width,
        }),
        Expr::Lane(a, l) => Some(Expr::Lane(sub(a)?, *l)),
        Expr::Splat(a, w) => Some(Expr::Splat(sub(a)?, *w)),
        Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
            let (new_a, new_b) = (opt_expr(a, stats), opt_expr(b, stats));
            if new_a.is_none() && new_b.is_none() {
                return None;
            }
            let (a, b) = (Box::new(or_clone(new_a, a)), Box::new(or_clone(new_b, b)));
            Some(match e {
                Expr::PermuteEven(..) => Expr::PermuteEven(a, b),
                _ => Expr::PermuteOdd(a, b),
            })
        }
        Expr::Const(_)
        | Expr::ConstVec(_)
        | Expr::Var(_)
        | Expr::Pop
        | Expr::VPop { .. }
        | Expr::LPop(_)
        | Expr::LVPop(..) => None,
    }
}

fn is_const(e: &Expr, v: f64) -> bool {
    matches!(e, Expr::Const(c) if c.as_f64() == v && !matches!(c, Value::F32(f) if f.is_sign_negative() && *f == 0.0))
}

fn is_int_const(e: &Expr, v: i64) -> bool {
    matches!(e, Expr::Const(Value::I32(c)) if *c as i64 == v)
        || matches!(e, Expr::Const(Value::I64(c)) if *c == v)
}

/// Safe algebraic identities. Floating-point identities are restricted to
/// `x * 1.0` and `x / 1.0` (exact in IEEE); `x + 0.0` is *not* rewritten
/// (it is not an identity for `-0.0`). `x * 0` is only rewritten for
/// integers and only when `x` is effect-free.
fn identity(op: BinOp, a: &Expr, b: &Expr) -> Option<Expr> {
    match op {
        BinOp::Mul => {
            if is_const(b, 1.0) {
                return Some(a.clone());
            }
            if is_const(a, 1.0) {
                return Some(b.clone());
            }
            if is_int_const(b, 0) && !a.reads_tape() {
                return Some(b.clone());
            }
            if is_int_const(a, 0) && !b.reads_tape() {
                return Some(a.clone());
            }
            None
        }
        BinOp::Div => {
            if is_const(b, 1.0) {
                return Some(a.clone());
            }
            None
        }
        BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
            if is_int_const(b, 0) {
                return Some(a.clone());
            }
            if op == BinOp::Add && is_int_const(a, 0) {
                return Some(b.clone());
            }
            None
        }
        _ => None,
    }
}

/// Remove assignments to `Local` scalar variables that are never read
/// from `f`'s current bodies `init` and `work`: each swept body, or `None`
/// for one with no dead store. Arrays and state are left alone; RHSes
/// with tape reads are kept.
fn eliminate_dead_stores(
    f: &Filter,
    init: &[Stmt],
    work: &[Stmt],
    removed: &mut usize,
) -> (Option<Vec<Stmt>>, Option<Vec<Stmt>>) {
    // Collect read variables across init+work.
    let mut read = VarSet::with_vars(f.vars.len());
    for s in init.iter().chain(work) {
        s.walk_exprs(&mut |e| {
            if let Expr::Var(v) | Expr::Index(v, _) | Expr::VIndex(v, _, _) = e {
                read.insert(*v);
            }
        });
        s.walk(&mut |s| match s {
            // Partial writes keep the variable alive as a read.
            Stmt::Assign(lv, _) if !matches!(lv, LValue::Var(_)) => {
                read.insert(lv.var());
            }
            _ => {}
        });
    }
    let dead = |lv: &LValue, e: &Expr| -> bool {
        if let LValue::Var(v) = lv {
            f.var(*v).kind == VarKind::Local && !read.contains(v) && !e.reads_tape()
        } else {
            false
        }
    };
    fn sweep(
        stmts: &[Stmt],
        dead: &dyn Fn(&LValue, &Expr) -> bool,
        removed: &mut usize,
    ) -> Option<Vec<Stmt>> {
        rewrite_slice(stmts, |s| match s {
            Stmt::Assign(lv, e) if dead(lv, e) => {
                *removed += 1;
                Some(Vec::new())
            }
            Stmt::For { var, count, body } => {
                let body = sweep(body, dead, removed)?;
                Some(vec![Stmt::For {
                    var: *var,
                    count: count.clone(),
                    body,
                }])
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let new_then = sweep(then_branch, dead, removed);
                let new_else = sweep(else_branch, dead, removed);
                if new_then.is_none() && new_else.is_none() {
                    return None;
                }
                Some(vec![Stmt::If {
                    cond: cond.clone(),
                    then_branch: or_clone(new_then, then_branch),
                    else_branch: or_clone(new_else, else_branch),
                }])
            }
            _ => None,
        })
    }
    (sweep(init, &dead, removed), sweep(work, &dead, removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::analysis::check_rates;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};

    #[test]
    fn folds_constants_and_intrinsics() {
        let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::F32);
        fb.work(|b| {
            b.push(pop() * (c(2.0f32) + 1.0f32) + sqrt(c(16.0f32)));
        });
        let mut f = Arc::new(fb.build());
        let stats = optimize_filter(&mut f);
        assert!(stats.folded >= 2, "{stats:?}");
        let text = f.work[0].to_string();
        assert!(text.contains("3.0f"), "{text}");
        assert!(text.contains("4.0f"), "{text}");
        check_rates(&f).unwrap();
    }

    #[test]
    fn mul_by_one_removed_div_kept_exact() {
        let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::F32);
        fb.work(|b| {
            b.push(pop() * 1.0f32);
        });
        let mut f = Arc::new(fb.build());
        let stats = optimize_filter(&mut f);
        assert_eq!(stats.identities, 1);
        assert_eq!(f.work[0].to_string().trim(), "push(pop());");
    }

    #[test]
    fn add_zero_float_not_rewritten() {
        // x + 0.0 maps -0.0 to +0.0; must stay.
        let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::F32);
        fb.work(|b| {
            b.push(pop() + 0.0f32);
        });
        let mut f = Arc::new(fb.build());
        let _ = optimize_filter(&mut f);
        assert!(f.work[0].to_string().contains("+ 0.0f"));
    }

    #[test]
    fn int_identities_applied() {
        let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
        fb.work(|b| {
            b.push(((pop() + 0i32) ^ 0i32) << 0i32);
        });
        let mut f = Arc::new(fb.build());
        let stats = optimize_filter(&mut f);
        assert!(stats.identities >= 3);
        assert_eq!(f.work[0].to_string().trim(), "push(pop());");
    }

    #[test]
    fn const_branch_resolved() {
        let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
        fb.work(|b| {
            b.if_else(
                c(1i32),
                |b| {
                    b.push(pop() + 1i32);
                },
                |b| {
                    b.push(pop() + 2i32);
                },
            );
        });
        let mut f = Arc::new(fb.build());
        let stats = optimize_filter(&mut f);
        assert_eq!(stats.branches_resolved, 1);
        assert_eq!(f.work.len(), 1);
        assert!(f.work[0].to_string().contains("+ 1)"));
        check_rates(&f).unwrap();
    }

    #[test]
    fn single_iteration_loop_unrolled() {
        let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 1i32, |b| {
                b.push(pop() + v(i));
            });
        });
        let mut f = Arc::new(fb.build());
        let stats = optimize_filter(&mut f);
        assert_eq!(stats.loops_simplified, 1);
        assert!(f.work.iter().all(|s| !matches!(s, Stmt::For { .. })));
        check_rates(&f).unwrap();
    }

    #[test]
    fn dead_store_removed_but_tape_reads_kept() {
        let mut fb = FilterBuilder::new("f", 2, 2, 1, ScalarTy::I32);
        let unused = fb.local("unused", Ty::Scalar(ScalarTy::I32));
        let junk = fb.local("junk", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(unused, 42i32); // dead: removable
            b.set(junk, pop()); // dead value but pops: must stay
            b.push(pop());
        });
        let mut f = Arc::new(fb.build());
        let stats = optimize_filter(&mut f);
        assert_eq!(stats.dead_stores, 1);
        assert_eq!(f.work.len(), 2);
        check_rates(&f).unwrap();
    }

    #[test]
    fn whole_suite_unchanged_behaviour() {
        use macross_sdf::Schedule;
        use macross_vm::{run_scheduled, Machine};
        // Prepass on a realistic filter graph: output must be identical and
        // cycles must not increase.
        let mut fb = FilterBuilder::new("poly", 1, 1, 1, ScalarTy::F32);
        let x = fb.local("x", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.set(x, pop());
            b.push(v(x) * (c(0.5f32) * 2.0f32) + sqrt(c(4.0f32)) * v(x) + 0.0f32 * 0.0f32);
        });
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n));
            b.set(
                n,
                cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 100i32),
            );
        });
        let g = macross_streamir::builder::StreamSpec::pipeline(vec![
            src.build_spec(),
            fb.build_spec(),
            macross_streamir::builder::StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let mut og = g.clone();
        let stats = prepass_optimize(&mut og);
        assert!(stats.total() > 0);
        let sched = Schedule::compute(&g).unwrap();
        let machine = Machine::core_i7();
        let a = run_scheduled(&g, &sched, &machine, 5).unwrap();
        let b = run_scheduled(&og, &sched, &machine, 5).unwrap();
        assert_eq!(a.output, b.output);
        assert!(b.total_cycles() <= a.total_cycles());
    }
}
