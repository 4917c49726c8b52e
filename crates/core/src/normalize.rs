//! Work-function normalization: hoists every tape read and every push
//! operand into a fresh local, so the SIMDizer only has to handle the
//! statement forms `v = pop()`, `v = peek(e)`, `v = lpop(ch)` and
//! `push(v)` / `lpush(ch, v)`.
//!
//! Normalization copies: it reads a body by reference and writes the
//! normal form into the filter being staged, so staging builds each
//! statement list once and never copies the source actor first. A
//! horizontal group's `SW` isomorphic bodies are read the same way, in
//! lock-step ([`crate::lockstep`]): their merge is written in normal form
//! as it is built, so the merged body is never built twice.

use crate::lockstep::{
    blocks_alike, expr_alike, merge_expr, merge_lvalue, operand, own_block, own_expr, own_target,
    step, stmt_alike,
};
use macross_streamir::expr::{Expr, LValue, VarId};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::name::numbered;
use macross_streamir::stmt::Stmt;
use macross_streamir::types::Ty;

/// Copy `work` into `into.work` in normal form, declaring the hoisted
/// temporaries (`__t0`, `__t1`, ...) in `into`. Returns whether the body
/// peeks or advances its read pointer explicitly (what
/// [`crate::single::uses_peek`] reports).
///
/// `in_elem`/`out_elem` are the element types of the input and output
/// tapes, used to type the hoisted temporaries.
///
/// # Panics
/// Panics if a peek offset or control-flow expression itself reads the
/// tape — the vectorizability analysis rejects such actors before the
/// SIMDizer runs.
pub fn normalize_into(work: &[Stmt], into: &mut Filter, in_elem: Ty, out_elem: Ty) -> bool {
    normalize_lanes(&[work], into, in_elem, out_elem).unwrap_or_else(|why| panic!("{why}"))
}

/// [`normalize_into`] for the merge of `lanes`, isomorphic bodies read in
/// lock-step (one for a single actor): the normal form of the body
/// [`crate::horizontal::merge_isomorphic`] would build from them.
///
/// # Errors
/// Fails where the bodies are not isomorphic, or where a peek offset or
/// control-flow expression reads the tape.
pub(crate) fn normalize_lanes(
    lanes: &[&[Stmt]],
    into: &mut Filter,
    in_elem: Ty,
    out_elem: Ty,
) -> Result<bool, &'static str> {
    let mut n = Normalizer {
        filter: into,
        in_elem,
        out_elem,
        counter: 0,
        peeking: false,
    };
    let work = n.block(lanes)?;
    n.filter.work = work;
    Ok(n.peeking)
}

/// The first statement of `work` (with its substatements) that breaks
/// the normal form [`normalize_into`] writes: a `pop`, `peek` or `lpop`
/// anywhere but as the whole right-hand side of `v = …` (with a peek
/// offset that reads no tape), or a `push` / `lpush` operand that is not
/// a variable, printed. `None` for a body in normal form.
pub fn normal_form_violation(work: &[Stmt]) -> Option<String> {
    let reads = |e: &Expr| matches!(e, Expr::Pop | Expr::Peek(_) | Expr::LPop(_));
    let mut bad = None;
    for s in work {
        s.walk(&mut |s| {
            let normal = match s {
                Stmt::Assign(LValue::Var(_), Expr::Pop | Expr::LPop(_)) => true,
                Stmt::Assign(LValue::Var(_), Expr::Peek(off)) => {
                    let mut clean = true;
                    off.walk(&mut |e| clean &= !reads(e));
                    clean
                }
                Stmt::Push(e) | Stmt::LPush(_, e) => matches!(e, Expr::Var(_)),
                other => {
                    let mut clean = true;
                    other.walk_own_exprs(&mut |e| clean &= !reads(e));
                    clean
                }
            };
            if !normal && bad.is_none() {
                bad = Some(s.to_string());
            }
        });
    }
    bad
}

struct Normalizer<'a> {
    filter: &'a mut Filter,
    in_elem: Ty,
    out_elem: Ty,
    counter: usize,
    peeking: bool,
}

/// Fails with `why` when `e` reads the tape.
fn tape_free(e: &Expr, why: &'static str) -> Result<(), &'static str> {
    if e.reads_tape() {
        Err(why)
    } else {
        Ok(())
    }
}

impl<'a> Normalizer<'a> {
    fn fresh(&mut self, ty: Ty) -> VarId {
        let name = numbered("__t", &[self.counter]);
        self.counter += 1;
        self.filter.add_var(name, ty, VarKind::Local)
    }

    fn block(&mut self, lanes: &[&[Stmt]]) -> Result<Vec<Stmt>, &'static str> {
        blocks_alike(lanes)?;
        let mut out = Vec::with_capacity(lanes[0].len());
        for i in 0..lanes[0].len() {
            self.stmt(&step(lanes, |b| &b[i]), &mut out)?;
        }
        Ok(out)
    }

    fn stmt(&mut self, lanes: &[&Stmt], out: &mut Vec<Stmt>) -> Result<(), &'static str> {
        stmt_alike(lanes)?;
        let own = || step(lanes, own_expr);
        let target = || merge_lvalue(&step(lanes, own_target));
        let block = |k| step(lanes, |s| own_block(s, k));
        match lanes[0] {
            // Already-normal tape-read assignments are copied as they are
            // when the target is a plain variable.
            Stmt::Assign(LValue::Var(_), Expr::Pop | Expr::LPop(_)) => {
                out.push(Stmt::Assign(target()?, merge_expr(&own())?))
            }
            Stmt::Assign(LValue::Var(_), Expr::Peek(off)) => {
                tape_free(off, "peek offset reads the tape")?;
                self.peeking = true;
                out.push(Stmt::Assign(target()?, merge_expr(&own())?));
            }
            Stmt::Assign(lv, _) => {
                let e = self.hoist(&own(), out)?;
                if let LValue::Index(_, i) | LValue::LaneIndex(_, i, _) | LValue::VIndex(_, i, _) =
                    lv
                {
                    tape_free(i, "array subscript reads the tape")?;
                }
                out.push(Stmt::Assign(target()?, e));
            }
            Stmt::Push(_) => {
                let e = self.hoist(&own(), out)?;
                let var = self.as_var(e, self.out_elem, out);
                out.push(Stmt::Push(Expr::Var(var)));
            }
            // Channel and vector statements: one lane only (`stmt_alike`).
            Stmt::LPush(c, e) => {
                let e = self.hoist(&[e], out)?;
                let ty = self.filter.chans[c.0 as usize].ty;
                let var = self.as_var(e, ty, out);
                out.push(Stmt::LPush(*c, Expr::Var(var)));
            }
            Stmt::RPush { value, offset } => {
                let value = self.hoist(&[value], out)?;
                tape_free(offset, "rpush offset reads the tape")?;
                out.push(Stmt::RPush {
                    value,
                    offset: offset.clone(),
                });
            }
            Stmt::VPush { value, width } => {
                let value = self.hoist(&[value], out)?;
                out.push(Stmt::VPush {
                    value,
                    width: *width,
                });
            }
            Stmt::LVPush(c, e, w) => {
                let e = self.hoist(&[e], out)?;
                out.push(Stmt::LVPush(*c, e, *w));
            }
            Stmt::For { var, count, .. } => {
                tape_free(count, "loop trip count reads the tape")?;
                let body = self.block(&block(0))?;
                out.push(Stmt::For {
                    var: *var,
                    count: merge_expr(&own())?,
                    body,
                });
            }
            Stmt::If { cond, .. } => {
                tape_free(cond, "branch condition reads the tape")?;
                let then_branch = self.block(&block(0))?;
                let else_branch = self.block(&block(1))?;
                out.push(Stmt::If {
                    cond: merge_expr(&own())?,
                    then_branch,
                    else_branch,
                });
            }
            Stmt::AdvanceRead(n) => {
                self.peeking = true;
                out.push(Stmt::AdvanceRead(*n));
            }
            Stmt::AdvanceWrite(n) => out.push(Stmt::AdvanceWrite(*n)),
        }
        Ok(())
    }

    /// Ensure an expression is a variable reference, hoisting if needed.
    fn as_var(&mut self, e: Expr, ty: Ty, out: &mut Vec<Stmt>) -> VarId {
        if let Expr::Var(v) = e {
            return v;
        }
        let t = self.fresh(ty);
        out.push(Stmt::Assign(LValue::Var(t), e));
        t
    }

    /// Copy lane 0's expression with its tape reads replaced by fresh
    /// temporaries, assigned in left-to-right evaluation order (merged
    /// across `lanes`).
    fn hoist(&mut self, lanes: &[&Expr], out: &mut Vec<Stmt>) -> Result<Expr, &'static str> {
        let e = lanes[0];
        // A leaf and a peek are checked by the merge that copies them.
        if !matches!(
            e,
            Expr::Const(_) | Expr::ConstVec(_) | Expr::Var(_) | Expr::Peek(_)
        ) {
            expr_alike(lanes)?;
        }
        let arg = |k| step(lanes, move |e| operand(e, k));
        Ok(match e {
            Expr::Pop => {
                let t = self.fresh(self.in_elem);
                out.push(Stmt::Assign(LValue::Var(t), Expr::Pop));
                Expr::Var(t)
            }
            Expr::Peek(off) => {
                tape_free(off, "peek offset reads the tape")?;
                self.peeking = true;
                let t = self.fresh(self.in_elem);
                out.push(Stmt::Assign(LValue::Var(t), merge_expr(lanes)?));
                Expr::Var(t)
            }
            Expr::LPop(c) => {
                let ty = self.filter.chans[c.0 as usize].ty;
                let t = self.fresh(ty);
                out.push(Stmt::Assign(LValue::Var(t), Expr::LPop(*c)));
                Expr::Var(t)
            }
            Expr::VPop { .. } | Expr::VPeek { .. } | Expr::LVPop(_, _) => {
                return Err("normalizing already-vectorized code")
            }
            Expr::Const(_) | Expr::ConstVec(_) | Expr::Var(_) => merge_expr(lanes)?,
            Expr::Index(v, _) => Expr::Index(*v, Box::new(self.hoist(&arg(0), out)?)),
            Expr::VIndex(v, _, w) => Expr::VIndex(*v, Box::new(self.hoist(&arg(0), out)?), *w),
            Expr::Unary(op, _) => Expr::Unary(*op, Box::new(self.hoist(&arg(0), out)?)),
            Expr::Binary(op, ..) => {
                let a = Box::new(self.hoist(&arg(0), out)?);
                let b = Box::new(self.hoist(&arg(1), out)?);
                Expr::Binary(*op, a, b)
            }
            Expr::Call(i, args) => Expr::Call(
                *i,
                (0..args.len())
                    .map(|k| self.hoist(&arg(k), out))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Cast(t, _) => Expr::Cast(*t, Box::new(self.hoist(&arg(0), out)?)),
            Expr::Lane(_, l) => Expr::Lane(Box::new(self.hoist(&arg(0), out)?), *l),
            Expr::Splat(_, w) => Expr::Splat(Box::new(self.hoist(&arg(0), out)?), *w),
            Expr::PermuteEven(..) => {
                let a = Box::new(self.hoist(&arg(0), out)?);
                let b = Box::new(self.hoist(&arg(1), out)?);
                Expr::PermuteEven(a, b)
            }
            Expr::PermuteOdd(..) => {
                let a = Box::new(self.hoist(&arg(0), out)?);
                let b = Box::new(self.hoist(&arg(1), out)?);
                Expr::PermuteOdd(a, b)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::analysis::measure_rates;
    use macross_streamir::edsl::*;
    use macross_streamir::types::ScalarTy;

    fn f32_ty() -> Ty {
        Ty::Scalar(ScalarTy::F32)
    }

    /// A copy of `f` with its work body normalized; `f` is not touched.
    fn normalized(f: &Filter) -> Filter {
        let mut g = f.with_bodies(f.init.clone(), Vec::new());
        normalize_into(&f.work, &mut g, f32_ty(), f32_ty());
        g
    }

    #[test]
    fn normal_form_is_recognised() {
        let mut fb = FilterBuilder::new("x", 3, 2, 2, ScalarTy::F32);
        let t = fb.local("t", f32_ty());
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(t, peek(2i32) - pop());
            b.for_(i, 1i32, |b| {
                b.push(v(t) * pop());
            });
            b.push(v(t));
        });
        let f = fb.build();
        let bad = normal_form_violation(&f.work).unwrap();
        assert!(bad.contains("peek(2)") && bad.contains("pop()"), "{bad}");
        let n = normalized(&f);
        assert_eq!(normal_form_violation(&n.work), None);

        // A computed push operand, even without a tape read, is not normal.
        let mut fb = FilterBuilder::new("y", 1, 1, 1, ScalarTy::F32);
        let t = fb.local("t", f32_ty());
        fb.work(|b| {
            b.set(t, pop());
            b.push(v(t) + 1.0f32);
        });
        let f = fb.build();
        let bad = normal_form_violation(&f.work).unwrap();
        assert!(bad.starts_with("push("), "{bad}");
        assert_eq!(normal_form_violation(&normalized(&f).work), None);
    }

    /// A generated temporary's name reads exactly as the text it stands
    /// for, through `Display` (padding included) and `Debug`, and
    /// compares equal to it.
    #[test]
    fn generated_names_render_exactly() {
        let max = usize::MAX.to_string();
        let cases: [(&'static str, &[usize], &str); 8] = [
            ("__t", &[0], "__t0"),
            ("__t", &[1234], "__t1234"),
            ("__ld", &[1, 7], "__ld1_7"),
            ("__in_perm_", &[9], "__in_perm_9"),
            ("__perm_r", &[1, 10, 100], "__perm_r1_10_100"),
            ("__st", &[0, 0], "__st0_0"),
            ("x", &[], "x"),
            ("", &[usize::MAX], &max),
        ];
        for (stem, numbers, text) in cases {
            let name = numbered(stem, numbers);
            assert_eq!(format!("{name}"), text);
            assert_eq!(name.to_string(), text);
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
            assert_eq!(
                format!("{name:>24}|{name:<24}|"),
                format!("{text:>24}|{text:<24}|")
            );
            assert_eq!(name, *text);
        }
    }

    #[test]
    fn hoists_pop_out_of_expression() {
        let mut fb = FilterBuilder::new("x", 2, 2, 1, ScalarTy::F32);
        fb.work(|b| {
            b.push(pop() + pop());
        });
        let f = normalized(&fb.build());
        // t0 = pop; t1 = pop; t2 = t0 + t1; push(t2)
        assert_eq!(f.work.len(), 4);
        assert!(matches!(
            &f.work[0],
            Stmt::Assign(LValue::Var(_), Expr::Pop)
        ));
        assert!(matches!(&f.work[3], Stmt::Push(Expr::Var(_))));
        assert_eq!(measure_rates(&f.work).unwrap().pop, 2);
    }

    #[test]
    fn preserves_evaluation_order() {
        // push(peek(1) - pop()): peek must be hoisted before the pop.
        let mut fb = FilterBuilder::new("x", 2, 1, 1, ScalarTy::F32);
        fb.work(|b| {
            b.push(peek(1i32) - pop());
        });
        let f = normalized(&fb.build());
        assert!(matches!(&f.work[0], Stmt::Assign(_, Expr::Peek(_))));
        assert!(matches!(&f.work[1], Stmt::Assign(_, Expr::Pop)));
    }

    #[test]
    fn keeps_normal_forms_untouched() {
        let mut fb = FilterBuilder::new("x", 1, 1, 1, ScalarTy::F32);
        let t = fb.local("t", f32_ty());
        fb.work(|b| {
            b.set(t, pop());
            b.push(v(t));
        });
        let f = fb.build();
        assert_eq!(normalized(&f), f);
    }

    #[test]
    fn hoists_inside_loops_stay_inside() {
        let mut fb = FilterBuilder::new("x", 4, 4, 4, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 4i32, |b| {
                b.push(pop() * 2.0f32);
            });
        });
        let f = normalized(&fb.build());
        match &f.work[0] {
            Stmt::For { body, .. } => {
                assert!(matches!(&body[0], Stmt::Assign(_, Expr::Pop)));
                assert_eq!(body.len(), 3);
            }
            other => panic!("expected loop, got {other:?}"),
        }
        assert_eq!(measure_rates(&f.work).unwrap().pop, 4);
    }

    #[test]
    fn behaviour_is_preserved_under_vm() {
        use macross_streamir::builder::StreamSpec;
        use macross_vm::{run_program, Machine};
        let mk = |normalize: bool| {
            let mut src = FilterBuilder::new("src", 0, 0, 2, ScalarTy::F32);
            let n = src.state("n", f32_ty());
            src.work(|b| {
                b.push(v(n));
                b.set(n, v(n) + 1.0f32);
                b.push(v(n) * 0.5f32);
                b.set(n, v(n) + 1.0f32);
            });
            let mut fb = FilterBuilder::new("f", 3, 2, 2, ScalarTy::F32);
            fb.work(|b| {
                b.push(peek(2i32) - pop());
                b.push(pop() * 3.0f32);
            });
            let mut f = fb.build();
            if normalize {
                f = normalized(&f);
            }
            StreamSpec::pipeline(vec![
                src.build_spec(),
                StreamSpec::filter(f, ScalarTy::F32),
                StreamSpec::Sink,
            ])
            .build()
            .unwrap()
        };
        let machine = Machine::core_i7();
        let a = run_program(&mk(false), &machine, 5).unwrap();
        let b = run_program(&mk(true), &machine, 5).unwrap();
        assert_eq!(a.output, b.output);
    }
}
