//! Prepass classic optimizations (Algorithm 1, "Prepass-Optimizations"):
//! constant folding (including intrinsic calls), algebraic identities,
//! constant-branch and trivial-loop simplification, and dead-local-store
//! elimination.
//!
//! The other prepass the paper names — *static parameter propagation* — is
//! performed by the `macross-streamlang` elaborator (parameters become
//! constants at instantiation) and by the benchmark builders, which bake
//! parameters into constants directly.
//!
//! Every rewrite here is bit-exactness-preserving: compile-time folds use
//! the same `eval_*` kernels the VM executes, so folding `sin(0.5)` now or
//! at run time produces the identical f32.

use macross_streamir::analysis::VarSet;
use macross_streamir::expr::{eval_binop, eval_intrinsic, eval_unop, BinOp, Expr, LValue};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::graph::{Graph, Node};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::Value;

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

/// Optimize one filter's `init` and `work` bodies in place.
pub fn optimize_filter(f: &mut Filter) -> OptStats {
    let mut stats = OptStats::default();
    loop {
        let mut round = OptStats::default();
        let init = std::mem::take(&mut f.init);
        f.init = opt_block(init, &mut round);
        let work = std::mem::take(&mut f.work);
        f.work = opt_block(work, &mut round);
        round.dead_stores += eliminate_dead_stores(f);
        let progress = round.total() > 0;
        stats.absorb(round);
        if !progress {
            break;
        }
    }
    stats
}

/// Optimize every filter of a graph in place.
pub fn prepass_optimize(graph: &mut Graph) -> OptStats {
    let mut stats = OptStats::default();
    for id in graph.node_ids().collect::<Vec<_>>() {
        if let Node::Filter(f) = graph.node_mut(id) {
            stats.absorb(optimize_filter(f));
        }
    }
    stats
}

fn opt_block(stmts: Vec<Stmt>, stats: &mut OptStats) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Assign(lv, e) => {
                let lv = match lv {
                    LValue::Index(v, i) => LValue::Index(v, opt_expr(i, stats)),
                    LValue::LaneIndex(v, i, l) => LValue::LaneIndex(v, opt_expr(i, stats), l),
                    LValue::VIndex(v, i, w) => LValue::VIndex(v, opt_expr(i, stats), w),
                    other => other,
                };
                out.push(Stmt::Assign(lv, opt_expr(e, stats)));
            }
            Stmt::Push(e) => out.push(Stmt::Push(opt_expr(e, stats))),
            Stmt::RPush { value, offset } => out.push(Stmt::RPush {
                value: opt_expr(value, stats),
                offset: opt_expr(offset, stats),
            }),
            Stmt::VPush { value, width } => out.push(Stmt::VPush {
                value: opt_expr(value, stats),
                width,
            }),
            Stmt::LPush(c, e) => out.push(Stmt::LPush(c, opt_expr(e, stats))),
            Stmt::LVPush(c, e, w) => out.push(Stmt::LVPush(c, opt_expr(e, stats), w)),
            Stmt::For { var, count, body } => {
                let count = opt_expr(count, stats);
                let body = opt_block(body, stats);
                match count.as_const_usize() {
                    Some(0) if block_tape_free(&body) => {
                        stats.loops_simplified += 1;
                        // Dropped entirely: zero iterations.
                    }
                    Some(1) => {
                        stats.loops_simplified += 1;
                        out.push(Stmt::Assign(LValue::Var(var), Expr::Const(Value::I32(0))));
                        out.extend(body);
                    }
                    _ => out.push(Stmt::For { var, count, body }),
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = opt_expr(cond, stats);
                let then_branch = opt_block(then_branch, stats);
                let else_branch = opt_block(else_branch, stats);
                if let Expr::Const(v) = &cond {
                    stats.branches_resolved += 1;
                    if v.is_truthy() {
                        out.extend(then_branch);
                    } else {
                        out.extend(else_branch);
                    }
                } else if then_branch.is_empty() && else_branch.is_empty() && !cond.reads_tape() {
                    stats.branches_resolved += 1;
                } else {
                    out.push(Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                    });
                }
            }
            other => out.push(other),
        }
    }
    out
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

fn opt_expr(e: Expr, stats: &mut OptStats) -> Expr {
    match e {
        Expr::Unary(op, a) => {
            let a = opt_expr(*a, stats);
            if let Expr::Const(v) = a {
                stats.folded += 1;
                Expr::Const(eval_unop(op, v))
            } else {
                Expr::Unary(op, Box::new(a))
            }
        }
        Expr::Binary(op, a, b) => {
            let a = opt_expr(*a, stats);
            let b = opt_expr(*b, stats);
            match (&a, &b) {
                (Expr::Const(x), Expr::Const(y)) if x.ty() == y.ty() => {
                    stats.folded += 1;
                    return Expr::Const(eval_binop(op, *x, *y));
                }
                _ => {}
            }
            // Algebraic identities (safe ones only).
            if let Some(simplified) = identity(op, &a, &b) {
                stats.identities += 1;
                return simplified;
            }
            Expr::bin(op, a, b)
        }
        Expr::Cast(t, a) => {
            let a = opt_expr(*a, stats);
            match a {
                Expr::Const(v) => {
                    stats.folded += 1;
                    Expr::Const(v.cast(t))
                }
                a => Expr::Cast(t, Box::new(a)),
            }
        }
        Expr::Call(i, args) => {
            let args: Vec<Expr> = args.into_iter().map(|a| opt_expr(a, stats)).collect();
            if args.iter().all(|a| matches!(a, Expr::Const(_))) {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| match a {
                        Expr::Const(v) => *v,
                        _ => unreachable!(),
                    })
                    .collect();
                stats.folded += 1;
                Expr::Const(eval_intrinsic(i, &vals))
            } else {
                Expr::Call(i, args)
            }
        }
        Expr::Index(v, i) => Expr::Index(v, Box::new(opt_expr(*i, stats))),
        Expr::VIndex(v, i, w) => Expr::VIndex(v, Box::new(opt_expr(*i, stats)), w),
        Expr::Peek(o) => Expr::Peek(Box::new(opt_expr(*o, stats))),
        Expr::VPeek { offset, width } => Expr::VPeek {
            offset: Box::new(opt_expr(*offset, stats)),
            width,
        },
        Expr::Lane(a, l) => Expr::Lane(Box::new(opt_expr(*a, stats)), l),
        Expr::Splat(a, w) => Expr::Splat(Box::new(opt_expr(*a, stats)), w),
        Expr::PermuteEven(a, b) => {
            Expr::PermuteEven(Box::new(opt_expr(*a, stats)), Box::new(opt_expr(*b, stats)))
        }
        Expr::PermuteOdd(a, b) => {
            Expr::PermuteOdd(Box::new(opt_expr(*a, stats)), Box::new(opt_expr(*b, stats)))
        }
        other => other,
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

/// Remove assignments to `Local` scalar variables that are never read.
/// Arrays and state are left alone; RHSes with tape reads are kept.
fn eliminate_dead_stores(f: &mut Filter) -> usize {
    // Collect read variables across init+work.
    let mut read = VarSet::new();
    let mut loop_vars = VarSet::new();
    let mut collect = |stmts: &[Stmt]| {
        for s in stmts {
            s.walk_exprs(&mut |e| {
                if let Expr::Var(v) | Expr::Index(v, _) | Expr::VIndex(v, _, _) = e {
                    read.insert(*v);
                }
            });
            s.walk(&mut |s| match s {
                Stmt::For { var, .. } => {
                    loop_vars.insert(*var);
                }
                Stmt::Assign(lv, _)
                    // Partial writes keep the variable alive as a read.
                    if !matches!(lv, LValue::Var(_)) => {
                        read.insert(lv.var());
                    }
                _ => {}
            });
        }
    };
    collect(&f.init);
    collect(&f.work);

    let mut removed = 0;
    let dead = |lv: &LValue, e: &Expr, f: &Filter, read: &VarSet| -> bool {
        if let LValue::Var(v) = lv {
            f.var(*v).kind == VarKind::Local && !read.contains(v) && !e.reads_tape()
        } else {
            false
        }
    };
    type DeadCheck<'a> = &'a dyn Fn(&LValue, &Expr, &Filter, &VarSet) -> bool;
    fn sweep(
        stmts: Vec<Stmt>,
        f: &Filter,
        read: &VarSet,
        dead: DeadCheck<'_>,
        removed: &mut usize,
    ) -> Vec<Stmt> {
        stmts
            .into_iter()
            .filter_map(|s| match s {
                Stmt::Assign(lv, e) if dead(&lv, &e, f, read) => {
                    *removed += 1;
                    None
                }
                Stmt::For { var, count, body } => Some(Stmt::For {
                    var,
                    count,
                    body: sweep(body, f, read, dead, removed),
                }),
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => Some(Stmt::If {
                    cond,
                    then_branch: sweep(then_branch, f, read, dead, removed),
                    else_branch: sweep(else_branch, f, read, dead, removed),
                }),
                other => Some(other),
            })
            .collect()
    }
    let init = std::mem::take(&mut f.init);
    f.init = sweep(init, f, &read, &dead, &mut removed);
    let work = std::mem::take(&mut f.work);
    f.work = sweep(work, f, &read, &dead, &mut removed);
    removed
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
        let mut f = fb.build();
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
        let mut f = fb.build();
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
        let mut f = fb.build();
        let _ = optimize_filter(&mut f);
        assert!(f.work[0].to_string().contains("+ 0.0f"));
    }

    #[test]
    fn int_identities_applied() {
        let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
        fb.work(|b| {
            b.push(((pop() + 0i32) ^ 0i32) << 0i32);
        });
        let mut f = fb.build();
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
        let mut f = fb.build();
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
        let mut f = fb.build();
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
        let mut f = fb.build();
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
