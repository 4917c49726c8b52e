//! # macross-autovec
//!
//! The *traditional* auto-vectorization baseline the paper compares
//! MacroSS against (Section 4 / Figure 10): a local loop vectorizer that
//! sees one actor's lowered work function at a time.
//!
//! Exactly like GCC/ICC on the StreamIt-generated C++, this pass:
//!
//! - cannot change the steady-state schedule or repetition numbers,
//! - cannot fuse actors or merge isomorphic ones,
//! - cannot restructure tape layouts,
//! - can only vectorize innermost counted loops whose bodies pass a
//!   conventional legality check (no control flow, unit-stride accesses,
//!   privatizable temporaries, recognized reductions).
//!
//! Two presets model the paper's two host compilers:
//!
//! - [`AutovecConfig::gcc_like`]: no vector math library and no
//!   floating-point reassociation (GCC's defaults) — "GCC shows
//!   unimpressive gains".
//! - [`AutovecConfig::icc_like`]: SVML-style vector math calls and
//!   fast-FP reductions (ICC's defaults, which reassociate) — "fairly
//!   large gains (1.34x on average)".
//!
//! Because the ICC preset reassociates floating-point reductions, its
//! output is *not* bit-identical to scalar; the differential tests use a
//! relative tolerance for it, and exact equality for everything else —
//! faithfully mirroring the real compilers.

use macross_streamir::expr::{BinOp, Expr, LValue, VarId};
use macross_streamir::filter::{VarDecl, VarKind};
use macross_streamir::graph::{Graph, Node};
use macross_streamir::stmt::{rewrite_slice, Stmt};
use macross_streamir::types::{ScalarTy, Ty, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Auto-vectorizer behaviour knobs modelling a host compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutovecConfig {
    /// Preset name for reports.
    pub name: String,
    /// Vector width.
    pub sw: usize,
    /// A vector math library is available for intrinsic calls.
    pub vector_math: bool,
    /// Floating-point reductions may be reassociated (changes results!).
    pub fp_reductions: bool,
    /// Integer reductions may be vectorized (exact).
    pub int_reductions: bool,
}

impl AutovecConfig {
    /// GCC-4.3-like defaults: conservative.
    pub fn gcc_like(sw: usize) -> AutovecConfig {
        AutovecConfig {
            name: "gcc_like".into(),
            sw,
            vector_math: false,
            fp_reductions: false,
            int_reductions: true,
        }
    }

    /// ICC-11-like defaults: vector math library, fast-FP reductions.
    pub fn icc_like(sw: usize) -> AutovecConfig {
        AutovecConfig {
            name: "icc_like".into(),
            sw,
            vector_math: true,
            fp_reductions: true,
            int_reductions: true,
        }
    }
}

/// Report of what the pass vectorized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AutovecReport {
    /// `(actor, loops vectorized)` for actors where at least one loop was.
    pub vectorized: Vec<(String, usize)>,
    /// Total loops examined.
    pub loops_seen: usize,
    /// Loops rejected by legality.
    pub loops_rejected: usize,
}

/// Auto-vectorize every filter of a graph in place, returning the report.
/// Copy-on-write: a filter the pass leaves alone stays shared with the
/// graph's clones; only one it rewrites is made unique first.
///
/// The graph's schedule and rates are untouched — this is precisely the
/// limitation the paper identifies in traditional post-lowering
/// vectorization.
pub fn autovectorize_graph(graph: &mut Graph, cfg: &AutovecConfig) -> AutovecReport {
    let mut report = AutovecReport::default();
    for id in graph.node_ids() {
        let Node::Filter(shared) = graph.node_mut(id) else {
            continue;
        };
        let mut count = 0;
        let mut pass = LoopVectorizer {
            cfg,
            vars: &shared.vars,
            new_vars: Vec::new(),
            report: &mut report,
        };
        let body = pass.block(&shared.work, &mut count);
        let new_vars = pass.new_vars;
        // A rejected loop may still have declared temporaries; they are
        // kept, as an unused local changes nothing a firing computes.
        if body.is_none() && new_vars.is_empty() {
            continue;
        }
        let f = Arc::make_mut(shared);
        for (name, ty) in new_vars {
            f.add_var(name, ty, VarKind::Local);
        }
        if let Some(body) = body {
            f.work = body;
        }
        if count > 0 {
            report.vectorized.push((f.name.clone(), count));
        }
    }
    report
}

struct LoopVectorizer<'a> {
    cfg: &'a AutovecConfig,
    /// The filter's declared variables; the temporaries this pass adds
    /// follow them in `new_vars`.
    vars: &'a [VarDecl],
    new_vars: Vec<(String, Ty)>,
    report: &'a mut AutovecReport,
}

/// Affine form `i + c` of an index expression in the loop variable.
fn affine_in(e: &Expr, i: VarId) -> Option<(bool, i32)> {
    match e {
        Expr::Var(v) if *v == i => Some((true, 0)),
        Expr::Const(Value::I32(c)) => Some((false, *c)),
        Expr::Binary(BinOp::Add, a, b) => {
            let (ai, ac) = affine_in(a, i)?;
            let (bi, bc) = affine_in(b, i)?;
            if ai && bi {
                None // 2*i: non-unit stride
            } else {
                Some((ai || bi, ac.wrapping_add(bc)))
            }
        }
        _ => None,
    }
}

fn uses_var(e: &Expr, v: VarId) -> bool {
    let mut hit = false;
    e.walk(&mut |e| {
        if matches!(e, Expr::Var(w) | Expr::Index(w, _) if *w == v) {
            hit = true;
        }
    });
    hit
}

/// Everything the legality scan learns about a candidate loop body.
struct BodyInfo {
    /// Temps written before being read (become fresh vector temps).
    private: HashSet<VarId>,
    /// Reduction accumulators `acc = acc + e`.
    reductions: HashSet<VarId>,
    /// Pops per iteration (must be 0 or 1).
    pops: usize,
    /// Pushes per iteration (must be 0 or 1).
    pushes: usize,
}

impl<'a> LoopVectorizer<'a> {
    /// Variables declared so far, the filter's and this pass's.
    fn var_count(&self) -> usize {
        self.vars.len() + self.new_vars.len()
    }

    fn fresh(&mut self, name: &str, ty: Ty) -> VarId {
        let id = VarId(self.var_count() as u32);
        self.new_vars
            .push((format!("{name}{}", self.new_vars.len()), ty));
        id
    }

    fn var_ty(&self, v: VarId) -> Ty {
        let i = v.0 as usize;
        match self.vars.get(i) {
            Some(decl) => decl.ty,
            None => self.new_vars[i - self.vars.len()].1,
        }
    }

    /// `stmts` with every legal innermost loop vectorized, or `None` when
    /// no statement changes.
    fn block(&mut self, stmts: &[Stmt], count: &mut usize) -> Option<Vec<Stmt>> {
        rewrite_slice(stmts, |s| match s {
            Stmt::For {
                var,
                count: c,
                body,
            } => {
                let inner_has_control = body
                    .iter()
                    .any(|s| matches!(s, Stmt::For { .. } | Stmt::If { .. }));
                if inner_has_control {
                    // Not innermost: recurse, then leave this loop scalar.
                    let body = self.block(body, count)?;
                    return Some(vec![Stmt::For {
                        var: *var,
                        count: c.clone(),
                        body,
                    }]);
                }
                self.report.loops_seen += 1;
                let vectorized = self.try_vectorize(*var, c, body);
                match vectorized {
                    Some(_) => *count += 1,
                    None => self.report.loops_rejected += 1,
                }
                vectorized
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let new_then = self.block(then_branch, count);
                let new_else = self.block(else_branch, count);
                if new_then.is_none() && new_else.is_none() {
                    return None;
                }
                Some(vec![Stmt::If {
                    cond: cond.clone(),
                    then_branch: new_then.unwrap_or_else(|| then_branch.clone()),
                    else_branch: new_else.unwrap_or_else(|| else_branch.clone()),
                }])
            }
            _ => None,
        })
    }

    /// Legality scan.
    fn scan(&self, i: VarId, body: &[Stmt]) -> Option<BodyInfo> {
        let mut info = BodyInfo {
            private: HashSet::new(),
            reductions: HashSet::new(),
            pops: 0,
            pushes: 0,
        };
        let mut defined: HashSet<VarId> = HashSet::new();
        for s in body {
            match s {
                Stmt::Assign(LValue::Var(v), e) => {
                    // Reduction pattern: v = v + e (v not otherwise used).
                    let is_reduction = matches!(
                        e,
                        Expr::Binary(BinOp::Add, a, _) if matches!(a.as_ref(), Expr::Var(w) if w == v)
                    ) || matches!(
                        e,
                        Expr::Binary(BinOp::Add, _, b) if matches!(b.as_ref(), Expr::Var(w) if w == v)
                    );
                    let reads_self = uses_var(e, *v);
                    if reads_self && !defined.contains(v) {
                        if !is_reduction {
                            return None; // loop-carried dependence
                        }
                        let elem = self.var_ty(*v).elem();
                        let allowed = if elem.is_float() {
                            self.cfg.fp_reductions
                        } else {
                            self.cfg.int_reductions
                        };
                        if !allowed {
                            return None;
                        }
                        info.reductions.insert(*v);
                    } else {
                        info.private.insert(*v);
                    }
                    defined.insert(*v);
                    self.scan_expr(i, e, &mut info)?;
                }
                Stmt::Assign(LValue::Index(v, idx), e) => {
                    // Unit-stride store required.
                    let (has_i, _) = affine_in(idx, i)?;
                    if !has_i {
                        return None; // same slot every iteration: dependence
                    }
                    if self.var_ty(*v).is_vector() {
                        return None;
                    }
                    self.scan_expr(i, e, &mut info)?;
                }
                Stmt::Push(e) => {
                    info.pushes += 1;
                    if info.pushes > 1 {
                        return None;
                    }
                    self.scan_expr(i, e, &mut info)?;
                }
                _ => return None, // rpush/vector/channel ops, control flow
            }
        }
        // A reduction variable must not also be treated as private.
        if info.reductions.intersection(&info.private).next().is_some() {
            return None;
        }
        Some(info)
    }

    /// Expression-side legality: counts pops, checks peeks and subscripts.
    fn scan_expr(&self, i: VarId, e: &Expr, info: &mut BodyInfo) -> Option<()> {
        let mut ok = true;
        let mut pops = 0usize;
        e.walk(&mut |e| match e {
            Expr::Pop => pops += 1,
            Expr::Peek(off)
                // Legal iff the loop has no pops (affine offsets) or the
                // offset is loop-invariant and the peek precedes all pops —
                // we conservatively require no pops anywhere in the loop.
                if affine_in(off, i).is_none() => {
                    ok = false;
                }
            Expr::Index(v, idx) => {
                if self.var_ty(*v).is_vector() {
                    ok = false;
                }
                // Loads: unit-stride or loop-invariant are both fine.
                match affine_in(idx, i) {
                    Some(_) => {}
                    None => {
                        if uses_var(idx, i) {
                            ok = false;
                        }
                    }
                }
            }
            Expr::Call(_, _)
                if !self.cfg.vector_math => {
                    // Calls force scalar libm: reject the loop (GCC).
                    ok = false;
                }
            Expr::VPop { .. }
            | Expr::VPeek { .. }
            | Expr::VIndex(_, _, _)
            | Expr::ConstVec(_)
            | Expr::Lane(_, _)
            | Expr::Splat(_, _)
            | Expr::PermuteEven(_, _)
            | Expr::PermuteOdd(_, _)
            | Expr::LVPop(_, _)
            | Expr::LPop(_) => ok = false,
            _ => {}
        });
        info.pops += pops;
        if info.pops > 1 {
            ok = false;
        }
        // Peeks combined with pops in the same loop are rejected (the
        // moving read pointer breaks contiguity).
        if info.pops > 0 {
            let mut has_peek = false;
            e.walk(&mut |e| {
                if matches!(e, Expr::Peek(_)) {
                    has_peek = true;
                }
            });
            if has_peek {
                ok = false;
            }
        }
        ok.then_some(())
    }

    fn try_vectorize(&mut self, i: VarId, count: &Expr, body: &[Stmt]) -> Option<Vec<Stmt>> {
        let sw = self.cfg.sw;
        let n = count.as_const_usize()?;
        if n < sw {
            return None;
        }
        let info = self.scan(i, body)?;
        // Private temps must not be live outside the loop: conservatively
        // require their declared names to be compiler temps or reused
        // solely inside; we approximate by checking the variable is scalar
        // (arrays are excluded) — liveness outside is the benchmark
        // author's responsibility flagged by differential tests.
        let n_vec = n - n % sw;

        let mut out = Vec::new();
        // Map private/reduction vars to fresh vector temps.
        let mut vec_map: Vec<Option<VarId>> = vec![None; self.var_count()];
        for &v in info.private.iter().chain(info.reductions.iter()) {
            let ty = self.var_ty(v).vectorized(sw);
            let nv = self.fresh("__av", ty);
            vec_map.resize(self.var_count(), None);
            vec_map[v.0 as usize] = Some(nv);
        }
        // Reduction prologue: vacc = splat(0).
        for &v in &info.reductions {
            let elem = self.var_ty(v).elem();
            out.push(Stmt::Assign(
                LValue::Var(vec_map[v.0 as usize].expect("mapped")),
                Expr::Splat(Box::new(Expr::Const(elem.zero())), sw),
            ));
        }

        // Main vector loop.
        let ivec = self.fresh("__iv", Ty::Scalar(ScalarTy::I32));
        let ibase = self.fresh("__ib", Ty::Scalar(ScalarTy::I32));
        let mut vbody = vec![Stmt::Assign(
            LValue::Var(ibase),
            Expr::bin(
                BinOp::Mul,
                Expr::Var(ivec),
                Expr::Const(Value::I32(sw as i32)),
            ),
        )];
        for s in body {
            vbody.push(self.rewrite_stmt(s, i, ibase, &vec_map, &info)?);
        }
        out.push(Stmt::For {
            var: ivec,
            count: Expr::Const(Value::I32((n_vec / sw) as i32)),
            body: vbody,
        });

        // Reduction epilogue: acc += lane sums.
        for &v in &info.reductions {
            let nv = vec_map[v.0 as usize].expect("mapped");
            let mut sum = Expr::Lane(Box::new(Expr::Var(nv)), 0);
            for l in 1..sw {
                sum = Expr::bin(BinOp::Add, sum, Expr::Lane(Box::new(Expr::Var(nv)), l));
            }
            out.push(Stmt::Assign(
                LValue::Var(v),
                Expr::bin(BinOp::Add, Expr::Var(v), sum),
            ));
        }

        // Remainder loop with the original body, offset by n_vec.
        if n_vec < n {
            let r = self.fresh("__rem", Ty::Scalar(ScalarTy::I32));
            let mut rbody = vec![Stmt::Assign(
                LValue::Var(i),
                Expr::bin(
                    BinOp::Add,
                    Expr::Var(r),
                    Expr::Const(Value::I32(n_vec as i32)),
                ),
            )];
            rbody.extend(body.iter().cloned());
            out.push(Stmt::For {
                var: r,
                count: Expr::Const(Value::I32((n - n_vec) as i32)),
                body: rbody,
            });
        }
        Some(out)
    }

    fn rewrite_stmt(
        &mut self,
        s: &Stmt,
        i: VarId,
        ibase: VarId,
        vec_map: &[Option<VarId>],
        info: &BodyInfo,
    ) -> Option<Stmt> {
        match s {
            Stmt::Assign(LValue::Var(v), e) => {
                if info.reductions.contains(v) {
                    // v = v + e  ->  vacc = vacc + vec(e)
                    let nv = vec_map[v.0 as usize].expect("mapped");
                    let (_, other) = split_reduction(e, *v)?;
                    let (oe, ov) = self.rewrite_expr(&other, i, ibase, vec_map)?;
                    let oe = self.ensure_vec(oe, ov);
                    return Some(Stmt::Assign(
                        LValue::Var(nv),
                        Expr::bin(BinOp::Add, Expr::Var(nv), oe),
                    ));
                }
                let nv = vec_map[v.0 as usize].expect("private var mapped");
                let (e2, ev) = self.rewrite_expr(e, i, ibase, vec_map)?;
                Some(Stmt::Assign(LValue::Var(nv), self.ensure_vec(e2, ev)))
            }
            Stmt::Assign(LValue::Index(v, idx), e) => {
                let (has_i, c) = affine_in(idx, i)?;
                debug_assert!(has_i);
                let base = Expr::bin(BinOp::Add, Expr::Var(ibase), Expr::Const(Value::I32(c)));
                let (e2, ev) = self.rewrite_expr(e, i, ibase, vec_map)?;
                Some(Stmt::Assign(
                    LValue::VIndex(*v, base, self.cfg.sw),
                    self.ensure_vec(e2, ev),
                ))
            }
            Stmt::Push(e) => {
                let (e2, ev) = self.rewrite_expr(e, i, ibase, vec_map)?;
                Some(Stmt::VPush {
                    value: self.ensure_vec(e2, ev),
                    width: self.cfg.sw,
                })
            }
            _ => None,
        }
    }

    fn ensure_vec(&self, e: Expr, is_vec: bool) -> Expr {
        if is_vec {
            e
        } else {
            Expr::Splat(Box::new(e), self.cfg.sw)
        }
    }

    /// Returns `(expr, is_vector)`.
    fn rewrite_expr(
        &mut self,
        e: &Expr,
        i: VarId,
        ibase: VarId,
        vec_map: &[Option<VarId>],
    ) -> Option<(Expr, bool)> {
        let sw = self.cfg.sw;
        Some(match e {
            Expr::Const(v) => (Expr::Const(*v), false),
            Expr::Var(v) if *v == i => {
                // iota: ibase + {0,1,..,sw-1}
                let iota = Expr::ConstVec((0..sw as i32).map(Value::I32).collect());
                (
                    Expr::bin(
                        BinOp::Add,
                        Expr::Splat(Box::new(Expr::Var(ibase)), sw),
                        iota,
                    ),
                    true,
                )
            }
            Expr::Var(v) => match vec_map.get(v.0 as usize).copied().flatten() {
                Some(nv) => (Expr::Var(nv), true),
                None => (Expr::Var(*v), false),
            },
            Expr::Index(v, idx) => match affine_in(idx, i) {
                Some((true, c)) => {
                    let base = Expr::bin(BinOp::Add, Expr::Var(ibase), Expr::Const(Value::I32(c)));
                    (Expr::VIndex(*v, Box::new(base), sw), true)
                }
                _ => {
                    // Loop-invariant subscript: scalar load.
                    (Expr::Index(*v, idx.clone()), false)
                }
            },
            Expr::Peek(off) => {
                let (has_i, c) = affine_in(off, i)?;
                if has_i {
                    let base = Expr::bin(BinOp::Add, Expr::Var(ibase), Expr::Const(Value::I32(c)));
                    (
                        Expr::VPeek {
                            offset: Box::new(base),
                            width: sw,
                        },
                        true,
                    )
                } else {
                    // Loop-invariant peek with no pops in the loop: same
                    // value every iteration.
                    (Expr::Peek(off.clone()), false)
                }
            }
            Expr::Pop => (Expr::VPop { width: sw }, true),
            Expr::Unary(op, a) => {
                let (a2, av) = self.rewrite_expr(a, i, ibase, vec_map)?;
                (Expr::Unary(*op, Box::new(a2)), av)
            }
            Expr::Cast(t, a) => {
                let (a2, av) = self.rewrite_expr(a, i, ibase, vec_map)?;
                (Expr::Cast(*t, Box::new(a2)), av)
            }
            Expr::Binary(op, a, b) => {
                let (a2, av) = self.rewrite_expr(a, i, ibase, vec_map)?;
                let (b2, bv) = self.rewrite_expr(b, i, ibase, vec_map)?;
                let vec = av || bv;
                let a3 = if vec && !av {
                    self.ensure_vec(a2, false)
                } else {
                    a2
                };
                let b3 = if vec && !bv {
                    self.ensure_vec(b2, false)
                } else {
                    b2
                };
                (Expr::bin(*op, a3, b3), vec)
            }
            Expr::Call(f, args) => {
                let parts: Vec<(Expr, bool)> = args
                    .iter()
                    .map(|a| self.rewrite_expr(a, i, ibase, vec_map))
                    .collect::<Option<_>>()?;
                let vec = parts.iter().any(|(_, v)| *v);
                let args2 = parts
                    .into_iter()
                    .map(|(a, av)| {
                        if vec && !av {
                            self.ensure_vec(a, false)
                        } else {
                            a
                        }
                    })
                    .collect();
                (Expr::Call(*f, args2), vec)
            }
            _ => return None,
        })
    }
}

/// For `acc = acc + e` (either operand order), return `(acc, e)`.
fn split_reduction(e: &Expr, acc: VarId) -> Option<(VarId, Expr)> {
    match e {
        Expr::Binary(BinOp::Add, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(v), other) if *v == acc => Some((acc, other.clone())),
            (other, Expr::Var(v)) if *v == acc => Some((acc, other.clone())),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_sdf::Schedule;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_vm::{run_scheduled, Machine, RunResult};

    fn f32_source() -> StreamSpec {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n) * 0.5f32);
            b.set(
                n,
                cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 313i32),
            );
        });
        src.build_spec()
    }

    fn run_pair(
        graph: &Graph,
        cfg: &AutovecConfig,
        iters: u64,
    ) -> (RunResult, RunResult, AutovecReport) {
        let sched = Schedule::compute(graph).unwrap();
        let machine = Machine::core_i7();
        let a = run_scheduled(graph, &sched, &machine, iters).unwrap();
        let mut vg = graph.clone();
        let report = autovectorize_graph(&mut vg, cfg);
        let b = run_scheduled(&vg, &sched, &machine, iters).unwrap();
        assert_eq!(a.output.len(), b.output.len());
        (a, b, report)
    }

    /// Elementwise loop: exactly vectorizable by both presets.
    #[test]
    fn elementwise_loop_vectorized_exactly() {
        let mut fb = FilterBuilder::new("scale", 8, 8, 8, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let arr = fb.local("arr", Ty::Array(ScalarTy::F32, 8));
        let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 8i32, |b| {
                b.set_idx(arr, v(i), pop() * 2.0f32 + 1.0f32);
            });
            b.for_(j, 8i32, |b| {
                b.push(idx(arr, v(j)));
            });
        });
        let g = StreamSpec::pipeline(vec![f32_source(), fb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let (a, b, report) = run_pair(&g, &AutovecConfig::gcc_like(4), 6);
        for (x, y) in a.output.iter().zip(&b.output) {
            assert!(x.bits_eq(*y));
        }
        assert_eq!(report.vectorized, vec![("scale".to_string(), 2)]);
        assert!(b.total_cycles() < a.total_cycles());
    }

    /// FP reduction: GCC refuses, ICC vectorizes with tolerance.
    #[test]
    fn fp_reduction_policy() {
        let mut fb = FilterBuilder::new("dot", 8, 8, 1, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::F32));
        let arr = fb.local("arr", Ty::Array(ScalarTy::F32, 8));
        let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(j, 8i32, |b| {
                b.set_idx(arr, v(j), pop());
            });
            b.set(acc, 0.0f32);
            b.for_(i, 8i32, |b| {
                b.set(acc, v(acc) + idx(arr, v(i)) * idx(arr, v(i)));
            });
            b.push(v(acc));
        });
        let g = StreamSpec::pipeline(vec![f32_source(), fb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();

        let (_, _, gcc_rep) = run_pair(&g, &AutovecConfig::gcc_like(4), 4);
        // GCC vectorizes the fill loop but not the FP reduction.
        assert_eq!(gcc_rep.vectorized, vec![("dot".to_string(), 1)]);

        let (a, b, icc_rep) = run_pair(&g, &AutovecConfig::icc_like(4), 4);
        assert_eq!(icc_rep.vectorized, vec![("dot".to_string(), 2)]);
        // Reassociated: approximately equal only.
        for (x, y) in a.output.iter().zip(&b.output) {
            let (x, y) = (x.as_f64(), y.as_f64());
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    /// Integer reduction is exact for both.
    #[test]
    fn int_reduction_exact() {
        let mut fb = FilterBuilder::new("sum", 8, 8, 1, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(acc, 0i32);
            b.for_(i, 8i32, |b| {
                b.set(acc, v(acc) + pop());
            });
            b.push(v(acc));
        });
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, (v(n) + 7i32) % 1000i32);
        });
        let g = StreamSpec::pipeline(vec![src.build_spec(), fb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let (a, b, rep) = run_pair(&g, &AutovecConfig::gcc_like(4), 6);
        assert_eq!(a.output, b.output);
        assert_eq!(rep.vectorized.len(), 1);
    }

    /// Intrinsic calls: rejected by GCC preset, vectorized by ICC preset.
    #[test]
    fn math_call_policy() {
        let mut fb = FilterBuilder::new("trig", 4, 4, 4, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 4i32, |b| {
                b.push(sin(pop()));
            });
        });
        let g = StreamSpec::pipeline(vec![f32_source(), fb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let (_, _, gcc_rep) = run_pair(&g, &AutovecConfig::gcc_like(4), 4);
        assert!(gcc_rep.vectorized.is_empty());
        let (a, b, icc_rep) = run_pair(&g, &AutovecConfig::icc_like(4), 4);
        assert_eq!(icc_rep.vectorized.len(), 1);
        for (x, y) in a.output.iter().zip(&b.output) {
            assert!(x.bits_eq(*y), "elementwise sin must stay exact");
        }
    }

    /// FIR peek loop with affine offsets (no pops inside): vectorizable.
    #[test]
    fn fir_peek_loop() {
        let mut fb = FilterBuilder::new("fir", 8, 1, 1, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::F32));
        let junk = fb.local("junk", Ty::Scalar(ScalarTy::F32));
        let coef = fb.state("coef", Ty::Array(ScalarTy::F32, 8));
        let k = fb.local("k", Ty::Scalar(ScalarTy::I32));
        fb.init(|b| {
            b.for_(k, 8i32, |b| {
                b.set_idx(coef, v(k), cast(ScalarTy::F32, v(k) + 1i32));
            });
        });
        fb.work(|b| {
            b.set(acc, 0.0f32);
            b.for_(i, 8i32, |b| {
                b.set(acc, v(acc) + peek(v(i)) * idx(coef, v(i)));
            });
            b.set(junk, pop());
            b.push(v(acc));
        });
        let g = StreamSpec::pipeline(vec![f32_source(), fb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let (a, b, rep) = run_pair(&g, &AutovecConfig::icc_like(4), 6);
        assert_eq!(rep.vectorized.len(), 1);
        assert!(b.total_cycles() < a.total_cycles());
        for (x, y) in a.output.iter().zip(&b.output) {
            let (x, y) = (x.as_f64(), y.as_f64());
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
        }
    }

    /// Loop-carried dependence must be rejected.
    #[test]
    fn loop_carried_dependence_rejected() {
        let mut fb = FilterBuilder::new("scan", 4, 4, 4, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let prev = fb.local("prev", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 4i32, |b| {
                b.set(prev, v(prev) * 3i32 + pop());
                b.push(v(prev));
            });
        });
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        let g = StreamSpec::pipeline(vec![src.build_spec(), fb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let (a, b, rep) = run_pair(&g, &AutovecConfig::icc_like(4), 4);
        assert!(rep.vectorized.is_empty());
        assert_eq!(rep.loops_rejected, 1);
        assert_eq!(a.output, b.output);
    }

    /// Two pops per iteration: strided lanes, rejected.
    #[test]
    fn multi_pop_loop_rejected() {
        let mut fb = FilterBuilder::new("pair", 8, 8, 4, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 4i32, |b| {
                b.push(pop() + pop());
            });
        });
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        let g = StreamSpec::pipeline(vec![src.build_spec(), fb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let (a, b, rep) = run_pair(&g, &AutovecConfig::icc_like(4), 4);
        assert!(rep.vectorized.is_empty());
        assert_eq!(a.output, b.output);
    }

    /// Remainder iterations are handled when the trip count is not a
    /// multiple of the vector width.
    #[test]
    fn remainder_loop_correct() {
        let mut fb = FilterBuilder::new("r", 7, 7, 7, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.for_(i, 7i32, |b| {
                b.push(pop() * 3i32 + v(i));
            });
        });
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        let g = StreamSpec::pipeline(vec![src.build_spec(), fb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let (a, b, rep) = run_pair(&g, &AutovecConfig::gcc_like(4), 5);
        assert_eq!(rep.vectorized.len(), 1);
        assert_eq!(a.output, b.output);
    }
}
