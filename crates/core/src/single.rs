//! Single-actor SIMDization (Section 3.1): transform `SW` consecutive
//! firings of a stateless actor into one data-parallel firing.
//!
//! The input and output tapes can be accessed in one of three modes,
//! chosen per side by the cost model (Section 3.4):
//!
//! - [`TapeMode::Strided`]: the paper's baseline — scalar strided
//!   `peek`/`pop` reads pack lanes one by one, scalar `rpush`/`push`
//!   writes unpack them (Figure 3b), followed by explicit pointer
//!   adjustments.
//! - [`TapeMode::Permute`]: vector loads/stores plus the
//!   `extract_even`/`extract_odd` networks of [`crate::permnet`]
//!   (Figure 7).
//! - [`TapeMode::VectorReorder`]: plain vector pops/pushes; the *scalar*
//!   actor on the other end of the tape performs column-major accesses
//!   resolved by the SAGU or the Figure-8 software sequence (the driver
//!   marks the edge accordingly).

use crate::error::SimdizeError;
#[cfg(debug_assertions)]
use crate::normalize::normal_form_violation;
use crate::normalize::normalize_lanes;
use crate::permnet::{gather_applicable, gather_plan, scatter_applicable, scatter_plan};
use macross_streamir::analysis::{analyze_vectorizability, check_rates, VarSet};
use macross_streamir::expr::{BinOp, Expr, LValue, VarId};
use macross_streamir::filter::{Filter, VarDecl, VarKind};
use macross_streamir::name::numbered;
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{ScalarTy, Ty, Value};

/// How a vectorized actor accesses one of its tapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeMode {
    /// Strided scalar accesses with lane packing/unpacking.
    Strided,
    /// Vector accesses plus permutation networks.
    Permute,
    /// Vector accesses; the scalar neighbour reorders (SAGU tape opt).
    VectorReorder,
    /// The tape itself carries vectors (horizontal SIMDization): plain
    /// vector pops/pushes, vector peeks at scaled offsets, no reordering
    /// anywhere.
    Vector,
}

/// Configuration for single-actor SIMDization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleActorConfig {
    /// SIMD width.
    pub sw: usize,
    /// Input-tape access mode.
    pub input: TapeMode,
    /// Output-tape access mode.
    pub output: TapeMode,
    /// Element type of the input tape.
    pub in_elem: ScalarTy,
    /// Element type of the output tape.
    pub out_elem: ScalarTy,
}

impl SingleActorConfig {
    /// The paper's baseline configuration: strided tapes on both sides.
    pub fn strided(sw: usize, in_elem: ScalarTy, out_elem: ScalarTy) -> SingleActorConfig {
        SingleActorConfig {
            sw,
            input: TapeMode::Strided,
            output: TapeMode::Strided,
            in_elem,
            out_elem,
        }
    }
}

/// Does the (normalized or unnormalized) body use `peek` or explicit read
/// advances anywhere? Such actors only support the strided input mode.
pub fn uses_peek(filter: &Filter) -> bool {
    let mut found = false;
    for s in &filter.work {
        s.walk_exprs(&mut |e| {
            if matches!(e, Expr::Peek(_)) {
                found = true;
            }
        });
        s.walk(&mut |s| {
            if matches!(s, Stmt::AdvanceRead(_)) {
                found = true;
            }
        });
    }
    found
}

/// Vectorize one stateless actor for `cfg.sw`-wide execution.
///
/// The one-shot form of the transform: [`stage_actor`] followed by
/// [`Staged::materialize`]. The driver's tape-mode search stages an actor
/// once, costs every mode pair from that staging
/// ([`crate::cost::staged_pair_costs`]) and materializes only the winner.
///
/// # Errors
/// Fails when `cfg.sw` is not a power of two `>= 2`, or the actor is
/// stateful, has tape-dependent control flow or subscripts, is already
/// vectorized, requests a non-strided input mode while peeking, or
/// requests a permute mode its rates don't admit. The result is
/// self-checked: its measured rates must match its declared rates.
pub fn simdize_single_actor(
    orig: &Filter,
    cfg: &SingleActorConfig,
) -> Result<Filter, SimdizeError> {
    if !cfg.sw.is_power_of_two() || cfg.sw < 2 {
        return Err(SimdizeError::SimdWidth(cfg.sw));
    }
    let va = analyze_vectorizability(orig);
    if !va.simdizable() {
        return Err(SimdizeError::NotVectorizable {
            actor: orig.name.clone(),
            reason: format!(
                "stateful={} tape_dependent_control={} tape_dependent_subscript={} vectorized={}",
                va.stateful, va.tape_dependent_control, va.tape_dependent_subscript, va.vectorized
            ),
        });
    }
    stage_actor(orig, cfg.sw, cfg.in_elem, cfg.out_elem).materialize(cfg.input, cfg.output)
}

/// The mode-independent half of the transform, done once per actor: the
/// body normalized to the statement forms `v = pop()`, `v = peek(e)`,
/// `v = lpop(ch)`, `push(v)` and `lpush(ch, v)`, vector variables marked
/// and retyped, internal channels widened. Tape accesses are still in
/// scalar form; [`Staged::lower`] rewrites them for one (input, output)
/// mode pair.
#[derive(Debug, PartialEq)]
pub(crate) struct Staged {
    /// The actor with its normalized, retyped, not yet tape-lowered body.
    pub(crate) filter: Filter,
    /// Variables that hold one value per lane.
    pub(crate) vec_vars: VarSet,
    /// SIMD width.
    pub(crate) sw: usize,
    in_elem: ScalarTy,
    out_elem: ScalarTy,
    /// The scalar actor's declared rates.
    pub(crate) pop: usize,
    pub(crate) push: usize,
    peek: usize,
    /// The body peeks or advances the read pointer explicitly.
    pub(crate) peeking: bool,
}

/// Stage `orig` under its vectorized name `<name>_v<SW>`. The caller
/// vouches that `orig` passes [`analyze_vectorizability`]; `orig` itself
/// is only read.
pub(crate) fn stage_actor(
    orig: &Filter,
    sw: usize,
    in_elem: ScalarTy,
    out_elem: ScalarTy,
) -> Staged {
    let shell = shell(orig, format!("{}_v{sw}", orig.name));
    stage(shell, &[&orig.work], sw, in_elem, out_elem, &VarSet::new())
        .unwrap_or_else(|why| panic!("{}: {why}", orig.name))
}

/// `orig`'s rates, variables, channels, `init` and region annotation
/// under `name`, with an empty work body: what staging copies before it
/// normalizes the body into it. Copying a declaration copies no name.
pub(crate) fn shell(orig: &Filter, name: String) -> Filter {
    Filter {
        name,
        peek: orig.peek,
        pop: orig.pop,
        push: orig.push,
        vars: orig.vars.clone(),
        chans: orig.chans.clone(),
        init: orig.init.clone(),
        work: Vec::new(),
        region: orig.region.clone(),
    }
}

/// Stage `work` for `sw`-wide execution as the work body of `f` (the
/// actor's [`shell`], possibly with declarations added): the body is
/// normalized while it is copied in, so no statement list is built
/// twice. `work` holds one body per lane read in lock-step: an actor's
/// own, or a horizontal group's `SW` isomorphic ones, merged as they are
/// copied ([`crate::normalize::normalize_lanes`]). `seeds` enter the
/// def-use marking fixpoint as already-vector, forcing variables whose
/// lanes must diverge even without tape data flowing into them (region
/// state panels hold per-region values from `init`).
///
/// Debug builds stage every body twice and require equal results and a
/// body in normal form ([`normal_form_violation`]): every single-actor,
/// fused, region and horizontal staging of a debug run is checked.
///
/// # Errors
/// Fails where the lanes are not isomorphic, or where a peek offset or
/// control-flow expression reads the tape.
pub(crate) fn stage(
    f: Filter,
    work: &[&[Stmt]],
    sw: usize,
    in_elem: ScalarTy,
    out_elem: ScalarTy,
    seeds: &VarSet,
) -> Result<Staged, &'static str> {
    assert!(
        sw.is_power_of_two() && sw >= 2,
        "SIMD width must be a power of two >= 2"
    );
    #[cfg(debug_assertions)]
    let again = stage_once(f.clone(), work, sw, in_elem, out_elem, seeds);
    let staged = stage_once(f, work, sw, in_elem, out_elem, seeds)?;
    #[cfg(debug_assertions)]
    {
        let name = &staged.filter.name;
        assert_eq!(
            Ok(&staged),
            again.as_ref(),
            "{name}: staging the same body twice differs"
        );
        if let Some(s) = normal_form_violation(&staged.filter.work) {
            panic!("{name}: staged body not in normal form at `{s}`");
        }
    }
    Ok(staged)
}

fn stage_once(
    mut f: Filter,
    work: &[&[Stmt]],
    sw: usize,
    in_elem: ScalarTy,
    out_elem: ScalarTy,
    seeds: &VarSet,
) -> Result<Staged, &'static str> {
    let (pop, push, peek) = (f.pop, f.push, f.peek);
    let peeking = normalize_lanes(work, &mut f, Ty::Scalar(in_elem), Ty::Scalar(out_elem))?;

    // Mark vector variables by def-use propagation from tape reads and
    // merged vector constants (Section 3.1 "identifying variables and
    // constants to be vectorized").
    let vec_vars = mark_vector_vars_seeded(&f, seeds);
    for v in vec_vars.iter() {
        let decl = &mut f.vars[v.0 as usize];
        decl.ty = decl.ty.vectorized(sw);
    }
    // Internal channels carry one lane per fused execution: vectorize all.
    for ch in &mut f.chans {
        ch.ty = ch.ty.vectorized(sw);
    }
    Ok(Staged {
        filter: f,
        vec_vars,
        sw,
        in_elem,
        out_elem,
        pop,
        push,
        peek,
        peeking,
    })
}

impl Staged {
    /// [`Staged::lower`] the work function only, then self-check the
    /// result's measured rates against its declared ones.
    pub(crate) fn materialize(
        self,
        input: TapeMode,
        output: TapeMode,
    ) -> Result<Filter, SimdizeError> {
        let f = self.lower(input, output, false)?;
        check_rates(&f).map_err(|e| SimdizeError::RateCheck(e.to_string()))?;
        Ok(f)
    }

    /// The tape-lowering half, shared by single-actor (and, through the
    /// fused coarse actor, vertical) SIMDization, region SIMDization and
    /// horizontal SIMDization (with [`TapeMode::Vector`] and
    /// `rewrite_init = true`): rewrites tape/channel accesses per the
    /// given modes, emits permutation preambles/postambles and pointer
    /// adjustments, and updates the declared rates.
    ///
    /// [`crate::cost::staged_pair_costs`] prices exactly the statements
    /// emitted here; the driver's debug oracle holds the two together.
    pub(crate) fn lower(
        self,
        input: TapeMode,
        output: TapeMode,
        rewrite_init: bool,
    ) -> Result<Filter, SimdizeError> {
        let Staged {
            filter: mut f,
            vec_vars,
            sw,
            in_elem,
            out_elem,
            pop: p,
            push: q,
            peek: orig_peek,
            peeking,
        } = self;
        let not_vectorizable = |f: &Filter, reason: String| SimdizeError::NotVectorizable {
            actor: f.name.clone(),
            reason,
        };
        if peeking && !matches!(input, TapeMode::Strided | TapeMode::Vector) {
            return Err(not_vectorizable(
                &f,
                "peeking actors require the strided or vector-tape input mode".into(),
            ));
        }
        if input == TapeMode::Permute && !gather_applicable(p) {
            return Err(not_vectorizable(
                &f,
                format!("pop rate {p} does not admit the permute input mode"),
            ));
        }
        if output == TapeMode::Permute && !scatter_applicable(q) {
            return Err(not_vectorizable(
                &f,
                format!("push rate {q} does not admit the permute output mode"),
            ));
        }

        let mut rw = Rewriter {
            vars: &mut f.vars,
            vec_vars,
            sw,
            p,
            q,
            input,
            output,
            in_perm: None,
            out_perm: None,
            fresh: 0,
        };

        let mut body = Vec::new();
        // Input permute preamble: p vector pops + gather network into an
        // array indexed by a running pop counter.
        if input == TapeMode::Permute && p > 0 {
            let arr = rw.alloc("__in_perm_", &[], Ty::VectorArray(in_elem, sw, p));
            let cnt = rw.alloc("__in_cnt_", &[], Ty::Scalar(ScalarTy::I32));
            rw.in_perm = Some((arr, cnt));
            let loads: Vec<VarId> = (0..p)
                .map(|i| rw.alloc("__ld", &[i], Ty::Vector(in_elem, sw)))
                .collect();
            for &t in &loads {
                body.push(Stmt::Assign(LValue::Var(t), Expr::VPop { width: sw }));
            }
            let finals = emit_rounds(
                &loads,
                gather_plan(p, sw).rounds,
                in_elem,
                sw,
                &mut rw,
                &mut body,
            );
            for (i, &t) in finals.iter().enumerate() {
                body.push(Stmt::Assign(
                    LValue::Index(arr, Expr::Const(Value::I32(i as i32))),
                    Expr::Var(t),
                ));
            }
        }
        if output == TapeMode::Permute && q > 0 {
            let arr = rw.alloc("__out_perm_", &[], Ty::VectorArray(out_elem, sw, q));
            let cnt = rw.alloc("__out_cnt_", &[], Ty::Scalar(ScalarTy::I32));
            rw.out_perm = Some((arr, cnt));
        }

        let work = std::mem::take(&mut f.work);
        body.reserve(work.len());
        for s in work {
            rw.stmt(s, &mut body)?;
        }

        // Output permute postamble: scatter network + q vector pushes.
        if output == TapeMode::Permute && q > 0 {
            let (arr, _) = rw.out_perm.unwrap();
            let loads: Vec<VarId> = (0..q)
                .map(|i| rw.alloc("__st", &[i], Ty::Vector(out_elem, sw)))
                .collect();
            for (i, &t) in loads.iter().enumerate() {
                body.push(Stmt::Assign(
                    LValue::Var(t),
                    Expr::Index(arr, Box::new(Expr::Const(Value::I32(i as i32)))),
                ));
            }
            let finals = emit_rounds(
                &loads,
                scatter_plan(q, sw).rounds,
                out_elem,
                sw,
                &mut rw,
                &mut body,
            );
            for &t in &finals {
                body.push(Stmt::VPush {
                    value: Expr::Var(t),
                    width: sw,
                });
            }
        }

        // Pointer adjustments for the strided modes (the step the paper
        // leaves implicit in Figure 3b).
        if input == TapeMode::Strided && p > 0 {
            body.push(Stmt::AdvanceRead((sw - 1) * p));
        }
        if output == TapeMode::Strided && q > 0 {
            body.push(Stmt::AdvanceWrite((sw - 1) * q));
        }

        // Horizontal SIMDization also rewrites the init function (per-lane
        // state initialization, Figure 6b).
        if rewrite_init {
            let init = std::mem::take(&mut f.init);
            f.init = rw.block(init)?;
        }

        f.work = body;
        f.pop = sw * p;
        f.push = sw * q;
        f.peek = match input {
            TapeMode::Strided => (sw - 1) * p + orig_peek,
            TapeMode::Vector => sw * orig_peek,
            _ => sw * p,
        };
        Ok(f)
    }
}

/// Emit `rounds` even/odd permutation rounds over the given vector temps,
/// returning the final temps in order.
fn emit_rounds(
    inputs: &[VarId],
    rounds: usize,
    elem: ScalarTy,
    sw: usize,
    rw: &mut Rewriter,
    body: &mut Vec<Stmt>,
) -> Vec<VarId> {
    let mut cur: Vec<VarId> = inputs.to_vec();
    let k = cur.len();
    let mut next = Vec::with_capacity(k);
    for r in 0..rounds {
        next.clear();
        next.extend((0..k).map(|i| rw.alloc("__perm_r", &[r, i], Ty::Vector(elem, sw))));
        for i in 0..k / 2 {
            body.push(Stmt::Assign(
                LValue::Var(next[i]),
                Expr::PermuteEven(
                    Box::new(Expr::Var(cur[2 * i])),
                    Box::new(Expr::Var(cur[2 * i + 1])),
                ),
            ));
            body.push(Stmt::Assign(
                LValue::Var(next[k / 2 + i]),
                Expr::PermuteOdd(
                    Box::new(Expr::Var(cur[2 * i])),
                    Box::new(Expr::Var(cur[2 * i + 1])),
                ),
            ));
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Multiply a (possibly constant) offset expression by the SIMD width,
/// constant-folding when possible.
fn scale_offset(off: Expr, sw: usize) -> Expr {
    match off {
        Expr::Const(Value::I32(c)) => Expr::Const(Value::I32(c * sw as i32)),
        other => Expr::bin(BinOp::Mul, other, Expr::Const(Value::I32(sw as i32))),
    }
}

/// Def-use marking: variables whose values originate (transitively) from
/// tape or channel reads, from vector constants or from `seeds` become
/// vectors.
pub(crate) fn mark_vector_vars_seeded(f: &Filter, seeds: &VarSet) -> VarSet {
    let mut vec = seeds.clone();
    loop {
        let before = vec.len();
        mark_block(&f.init, &mut vec);
        mark_block(&f.work, &mut vec);
        if vec.len() == before {
            break;
        }
    }
    vec
}

pub(crate) fn expr_vecish(e: &Expr, vec: &VarSet) -> bool {
    e.any(&mut |e| match e {
        Expr::Pop | Expr::Peek(_) | Expr::LPop(_) | Expr::ConstVec(_) => true,
        Expr::Var(v) | Expr::Index(v, _) => vec.contains(v),
        _ => false,
    })
}

fn mark_block(stmts: &[Stmt], vec: &mut VarSet) {
    for s in stmts {
        match s {
            Stmt::Assign(lv, e) if expr_vecish(e, vec) => {
                vec.insert(lv.var());
            }
            Stmt::For { body, .. } => mark_block(body, vec),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                mark_block(then_branch, vec);
                mark_block(else_branch, vec);
            }
            _ => {}
        }
    }
}

struct Rewriter<'v> {
    /// The lowered actor's declarations; the rewrite's temporaries are
    /// appended as they are made.
    vars: &'v mut Vec<VarDecl>,
    vec_vars: VarSet,
    sw: usize,
    p: usize,
    q: usize,
    input: TapeMode,
    output: TapeMode,
    in_perm: Option<(VarId, VarId)>,
    out_perm: Option<(VarId, VarId)>,
    fresh: usize,
}

impl Rewriter<'_> {
    /// A fresh local named `stem`, then `idx` and a counter, `_`-separated
    /// (`__ld1_7`), rendered only when it is read.
    fn alloc(&mut self, stem: &'static str, idx: &[usize], ty: Ty) -> VarId {
        let mut numbers = [0; 3];
        numbers[..idx.len()].copy_from_slice(idx);
        numbers[idx.len()] = self.fresh;
        self.fresh += 1;
        self.vars.push(VarDecl {
            name: numbered(stem, &numbers[..=idx.len()]),
            ty,
            kind: VarKind::Local,
        });
        VarId(self.vars.len() as u32 - 1)
    }

    fn splat(&self, e: Expr) -> Expr {
        Expr::Splat(Box::new(e), self.sw)
    }

    /// Rewrite a block, consuming it: an expression node the rewrite
    /// keeps is moved into the output with its allocation.
    fn block(&mut self, stmts: Vec<Stmt>) -> Result<Vec<Stmt>, SimdizeError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.stmt(s, &mut out)?;
        }
        Ok(out)
    }

    fn stmt(&mut self, s: Stmt, out: &mut Vec<Stmt>) -> Result<(), SimdizeError> {
        match s {
            Stmt::Assign(LValue::Var(v), Expr::Pop) => {
                debug_assert!(
                    self.vec_vars.contains(&v),
                    "pop target must be marked vector"
                );
                match self.input {
                    TapeMode::Strided => {
                        for l in (1..self.sw).rev() {
                            out.push(Stmt::Assign(
                                LValue::LaneVar(v, l),
                                Expr::Peek(Box::new(Expr::Const(Value::I32((l * self.p) as i32)))),
                            ));
                        }
                        out.push(Stmt::Assign(LValue::LaneVar(v, 0), Expr::Pop));
                    }
                    TapeMode::Permute => {
                        let (arr, cnt) = self.in_perm.expect("permute input state");
                        out.push(Stmt::Assign(
                            LValue::Var(v),
                            Expr::Index(arr, Box::new(Expr::Var(cnt))),
                        ));
                        out.push(Stmt::Assign(
                            LValue::Var(cnt),
                            Expr::bin(BinOp::Add, Expr::Var(cnt), Expr::Const(Value::I32(1))),
                        ));
                    }
                    TapeMode::VectorReorder | TapeMode::Vector => {
                        out.push(Stmt::Assign(LValue::Var(v), Expr::VPop { width: self.sw }));
                    }
                }
            }
            Stmt::Assign(LValue::Var(v), Expr::Peek(off)) => {
                debug_assert!(
                    self.vec_vars.contains(&v),
                    "peek target must be marked vector"
                );
                let (off_rw, off_vec) = self.expr(*off)?;
                assert!(!off_vec, "peek offset must be uniform");
                match self.input {
                    TapeMode::Strided => {
                        for l in (1..self.sw).rev() {
                            out.push(Stmt::Assign(
                                LValue::LaneVar(v, l),
                                Expr::Peek(Box::new(Expr::bin(
                                    BinOp::Add,
                                    off_rw.clone(),
                                    Expr::Const(Value::I32((l * self.p) as i32)),
                                ))),
                            ));
                        }
                        out.push(Stmt::Assign(
                            LValue::LaneVar(v, 0),
                            Expr::Peek(Box::new(off_rw)),
                        ));
                    }
                    TapeMode::Vector => {
                        // Vector tape: logical vector index `off` lives at
                        // scalar offset `off * SW`.
                        let scaled = scale_offset(off_rw, self.sw);
                        out.push(Stmt::Assign(
                            LValue::Var(v),
                            Expr::VPeek {
                                offset: Box::new(scaled),
                                width: self.sw,
                            },
                        ));
                    }
                    other => panic!("peek unsupported in {other:?} mode"),
                }
            }
            Stmt::Assign(LValue::Var(v), Expr::LPop(c)) => {
                debug_assert!(self.vec_vars.contains(&v));
                out.push(Stmt::Assign(LValue::Var(v), Expr::LVPop(c, self.sw)));
            }
            Stmt::Assign(lv, e) => {
                let (mut e2, ev) = self.expr(e)?;
                let target_vec = self.vec_vars.contains(&lv.var());
                if target_vec && !ev {
                    e2 = self.splat(e2);
                } else if !target_vec && ev {
                    panic!("marking bug: vector value assigned to scalar variable {lv}");
                }
                let lv2 = match lv {
                    LValue::Var(v) => LValue::Var(v),
                    LValue::Index(v, i) => {
                        let (i2, ivec) = self.expr(i)?;
                        assert!(!ivec, "array subscript must be uniform");
                        LValue::Index(v, i2)
                    }
                    LValue::LaneVar(_, _)
                    | LValue::LaneIndex(_, _, _)
                    | LValue::VIndex(_, _, _) => {
                        panic!("vector lvalue in scalar input code")
                    }
                };
                out.push(Stmt::Assign(lv2, e2));
            }
            Stmt::Push(e) => {
                let var = match e {
                    Expr::Var(v) => v,
                    other => panic!("push operand not normalized: {other}"),
                };
                let is_vec = self.vec_vars.contains(&var);
                match self.output {
                    TapeMode::Strided => {
                        for l in (1..self.sw).rev() {
                            let value = if is_vec {
                                Expr::Lane(Box::new(Expr::Var(var)), l)
                            } else {
                                Expr::Var(var)
                            };
                            out.push(Stmt::RPush {
                                value,
                                offset: Expr::Const(Value::I32((l * self.q) as i32)),
                            });
                        }
                        let value = if is_vec {
                            Expr::Lane(Box::new(Expr::Var(var)), 0)
                        } else {
                            Expr::Var(var)
                        };
                        out.push(Stmt::Push(value));
                    }
                    TapeMode::Permute => {
                        let (arr, cnt) = self.out_perm.expect("permute output state");
                        let value = if is_vec {
                            Expr::Var(var)
                        } else {
                            self.splat(Expr::Var(var))
                        };
                        out.push(Stmt::Assign(LValue::Index(arr, Expr::Var(cnt)), value));
                        out.push(Stmt::Assign(
                            LValue::Var(cnt),
                            Expr::bin(BinOp::Add, Expr::Var(cnt), Expr::Const(Value::I32(1))),
                        ));
                    }
                    TapeMode::VectorReorder | TapeMode::Vector => {
                        let value = if is_vec {
                            Expr::Var(var)
                        } else {
                            self.splat(Expr::Var(var))
                        };
                        out.push(Stmt::VPush {
                            value,
                            width: self.sw,
                        });
                    }
                }
            }
            Stmt::LPush(c, e) => {
                let (e2, ev) = self.expr(e)?;
                let value = if ev { e2 } else { self.splat(e2) };
                out.push(Stmt::LVPush(c, value, self.sw));
            }
            Stmt::For { var, count, body } => {
                let (count2, cvec) = self.expr(count)?;
                assert!(!cvec, "loop trip count must be uniform");
                let body2 = self.block(body)?;
                out.push(Stmt::For {
                    var,
                    count: count2,
                    body: body2,
                });
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let (cond2, cvec) = self.expr(cond)?;
                assert!(!cvec, "branch condition must be uniform");
                let then2 = self.block(then_branch)?;
                let else2 = self.block(else_branch)?;
                out.push(Stmt::If {
                    cond: cond2,
                    then_branch: then2,
                    else_branch: else2,
                });
            }
            Stmt::AdvanceRead(n) => match self.input {
                TapeMode::Strided => out.push(Stmt::AdvanceRead(n)),
                TapeMode::Vector => out.push(Stmt::AdvanceRead(n * self.sw)),
                other => panic!("advance_read unsupported in {other:?} mode"),
            },
            Stmt::AdvanceWrite(_)
            | Stmt::RPush { .. }
            | Stmt::VPush { .. }
            | Stmt::LVPush(_, _, _) => {
                panic!("vector/random-access tape ops in scalar input code")
            }
        }
        Ok(())
    }

    /// Rewrite an expression, consuming it; returns (expr, is_vector).
    /// An operand is moved back into its own box.
    fn expr(&mut self, e: Expr) -> Result<(Expr, bool), SimdizeError> {
        Ok(match e {
            Expr::Const(v) => (Expr::Const(v), false),
            Expr::Var(v) => (Expr::Var(v), self.vec_vars.contains(&v)),
            Expr::Index(v, mut i) => {
                let (i2, ivec) = self.expr(*i)?;
                assert!(!ivec, "array subscript must be uniform");
                *i = i2;
                (Expr::Index(v, i), self.vec_vars.contains(&v))
            }
            Expr::Unary(op, mut a) => {
                let (a2, av) = self.expr(*a)?;
                *a = a2;
                (Expr::Unary(op, a), av)
            }
            Expr::Cast(t, mut a) => {
                let (a2, av) = self.expr(*a)?;
                *a = a2;
                (Expr::Cast(t, a), av)
            }
            Expr::Binary(op, mut a, mut b) => {
                let (a2, av) = self.expr(*a)?;
                let (b2, bv) = self.expr(*b)?;
                let vec = av || bv;
                *a = if vec && !av { self.splat(a2) } else { a2 };
                *b = if vec && !bv { self.splat(b2) } else { b2 };
                (Expr::Binary(op, a, b), vec)
            }
            Expr::Call(i, args) => {
                let parts: Vec<(Expr, bool)> = args
                    .into_iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<_, _>>()?;
                let vec = parts.iter().any(|(_, v)| *v);
                let args2 = parts
                    .into_iter()
                    .map(|(a, av)| if vec && !av { self.splat(a) } else { a })
                    .collect();
                (Expr::Call(i, args2), vec)
            }
            Expr::ConstVec(vs) => (Expr::ConstVec(vs), true),
            Expr::Pop | Expr::Peek(_) | Expr::LPop(_) => {
                panic!("tape read not normalized out of expression position")
            }
            other => panic!("unexpected vector construct in scalar input: {other}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_sdf::Schedule;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::graph::{Graph, Node, NodeId};
    use macross_vm::{run_scheduled, Machine};

    /// Helper: build src -> actor -> sink, SIMDize the middle actor with
    /// the given modes, and check differential output over `iters`
    /// steady-state iterations of the *scaled* schedule.
    fn differential(
        actor: Filter,
        in_elem: ScalarTy,
        cfg: SingleActorConfig,
        iters: u64,
    ) -> (u64, u64) {
        let mut src = FilterBuilder::new("src", 0, 0, 1, in_elem);
        let n = src.state("n", Ty::Scalar(in_elem));
        src.work(|b| {
            b.push(v(n));
            // Wrap around a small range to keep f32 exact.
            b.set(
                n,
                E(Expr::bin(
                    BinOp::Rem,
                    Expr::bin(
                        BinOp::Add,
                        Expr::Cast(ScalarTy::I32, Box::new(Expr::Var(n))),
                        Expr::Const(Value::I32(1)),
                    ),
                    Expr::Const(Value::I32(1000)),
                ))
                .0,
            );
        });
        // Source state is typed as in_elem; for f32 we cast back.
        let mut srcf = src.build();
        if in_elem == ScalarTy::F32 {
            srcf.work = {
                let mut b = B::new();
                b.push(v(n));
                b.set(
                    n,
                    cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 1000i32),
                );
                b.build()
            };
        }

        let build = |mid: Filter| {
            StreamSpec::pipeline(vec![
                StreamSpec::filter(srcf.clone(), in_elem),
                StreamSpec::filter(mid, cfg.out_elem),
                StreamSpec::Sink,
            ])
            .build()
            .unwrap()
        };

        let scalar_graph = build(actor.clone());
        let vec_actor = simdize_single_actor(&actor, &cfg).unwrap();
        let vec_graph = build(vec_actor);

        // Scalar schedule, scaled by SW (Equation 1 with one SIMDizable
        // actor); the vector schedule is the same with the vectorized
        // actor's repetition number divided by SW — exactly what the
        // driver does.
        let mut ssched = Schedule::compute(&scalar_graph).unwrap();
        ssched.scale(cfg.sw as u64);
        let mut vsched = ssched.clone();
        let actor_id = NodeId(1);
        assert_eq!(vsched.reps[1] % cfg.sw as u64, 0);
        vsched.reps[1] /= cfg.sw as u64;
        // Mark reorder edges for VectorReorder modes.
        let mut vec_graph = vec_graph;
        if cfg.input == TapeMode::VectorReorder {
            let e = vec_graph.single_in_edge(actor_id).unwrap();
            vec_graph.edge_mut(e).reorder = Some(macross_streamir::Reorder {
                rate: actor.pop,
                sw: cfg.sw,
                side: macross_streamir::ReorderSide::Producer,
                addr_gen: macross_streamir::AddrGen::Sagu,
            });
        }
        if cfg.output == TapeMode::VectorReorder {
            let e = vec_graph.single_out_edge(actor_id).unwrap();
            vec_graph.edge_mut(e).reorder = Some(macross_streamir::Reorder {
                rate: actor.push,
                sw: cfg.sw,
                side: macross_streamir::ReorderSide::Consumer,
                addr_gen: macross_streamir::AddrGen::Sagu,
            });
        }

        let machine = Machine::core_i7_with_sagu();
        let a = run_scheduled(&scalar_graph, &ssched, &machine, iters).unwrap();
        let b = run_scheduled(&vec_graph, &vsched, &machine, iters).unwrap();
        assert_eq!(a.output.len(), b.output.len(), "output lengths differ");
        assert!(!a.output.is_empty());
        for (i, (x, y)) in a.output.iter().zip(&b.output).enumerate() {
            assert!(
                x.bits_eq(*y),
                "output {i} differs: scalar {x:?} vs simd {y:?}"
            );
        }
        (a.total_cycles(), b.total_cycles())
    }

    /// The paper's actor D (Figure 3a): pop 2, push 2, loop + sqrt.
    fn actor_d() -> Filter {
        let mut fb = FilterBuilder::new("D", 2, 2, 2, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let t = fb.local("t", Ty::Scalar(ScalarTy::F32));
        let tmp = fb.local("tmp", Ty::Array(ScalarTy::F32, 2));
        let coeff = fb.state("coeff", Ty::Array(ScalarTy::F32, 2));
        fb.init(|b| {
            b.set_idx(coeff, 0i32, 0.5f32);
            b.set_idx(coeff, 1i32, 0.25f32);
        });
        fb.work(|b| {
            b.for_(i, 2i32, |b| {
                b.set(t, pop());
                b.set_idx(tmp, v(i), v(t) * idx(coeff, v(i)));
            });
            b.push(sqrt(abs(idx(tmp, 0i32) + idx(tmp, 1i32))));
            b.push(sqrt(abs(idx(tmp, 0i32) - idx(tmp, 1i32))));
        });
        fb.build()
    }

    #[test]
    fn strided_mode_preserves_output() {
        let cfg = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        let (scalar, simd) = differential(actor_d(), ScalarTy::F32, cfg, 8);
        assert!(simd < scalar, "SIMD ({simd}) should beat scalar ({scalar})");
    }

    #[test]
    fn permute_mode_preserves_output() {
        let cfg = SingleActorConfig {
            sw: 4,
            input: TapeMode::Permute,
            output: TapeMode::Permute,
            in_elem: ScalarTy::F32,
            out_elem: ScalarTy::F32,
        };
        let (scalar, simd) = differential(actor_d(), ScalarTy::F32, cfg, 8);
        assert!(simd < scalar);
    }

    #[test]
    fn vector_reorder_mode_preserves_output() {
        let cfg = SingleActorConfig {
            sw: 4,
            input: TapeMode::VectorReorder,
            output: TapeMode::VectorReorder,
            in_elem: ScalarTy::F32,
            out_elem: ScalarTy::F32,
        };
        let (scalar, simd) = differential(actor_d(), ScalarTy::F32, cfg, 8);
        assert!(simd < scalar);
    }

    #[test]
    fn permute_beats_strided_on_cost() {
        let strided = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        let permute = SingleActorConfig {
            sw: 4,
            input: TapeMode::Permute,
            output: TapeMode::Permute,
            in_elem: ScalarTy::F32,
            out_elem: ScalarTy::F32,
        };
        let (_, strided_cycles) = differential(actor_d(), ScalarTy::F32, strided, 8);
        let (_, permute_cycles) = differential(actor_d(), ScalarTy::F32, permute, 8);
        assert!(
            permute_cycles < strided_cycles,
            "permute ({permute_cycles}) should beat strided ({strided_cycles})"
        );
    }

    #[test]
    fn peeking_fir_strided() {
        // 4-tap moving sum: peek 4, pop 1, push 1.
        let mut fb = FilterBuilder::new("fir", 4, 1, 1, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::F32));
        let junk = fb.local("junk", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.set(acc, 0.0f32);
            b.for_(i, 4i32, |b| {
                b.set(acc, v(acc) + peek(v(i)));
            });
            b.set(junk, pop());
            b.push(v(acc));
        });
        let cfg = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        // Peek-heavy actors are correctness-preserving but often
        // unprofitable under strided packing — the driver's cost model is
        // responsible for skipping them, so only output equality is
        // asserted here.
        let (scalar, simd) = differential(fb.build(), ScalarTy::F32, cfg, 6);
        assert!(scalar > 0 && simd > 0);
    }

    #[test]
    fn peeking_rejects_permute_mode() {
        let mut fb = FilterBuilder::new("fir", 2, 1, 1, ScalarTy::F32);
        let junk = fb.local("junk", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.push(peek(1i32));
            b.set(junk, pop());
        });
        let cfg = SingleActorConfig {
            sw: 4,
            input: TapeMode::Permute,
            output: TapeMode::Strided,
            in_elem: ScalarTy::F32,
            out_elem: ScalarTy::F32,
        };
        assert!(matches!(
            simdize_single_actor(&fb.build(), &cfg),
            Err(SimdizeError::NotVectorizable { .. })
        ));
    }

    #[test]
    fn stateful_rejected() {
        let mut fb = FilterBuilder::new("acc", 1, 1, 1, ScalarTy::F32);
        let s = fb.state("s", Ty::Scalar(ScalarTy::F32));
        fb.work(|b| {
            b.set(s, v(s) + pop());
            b.push(v(s));
        });
        let cfg = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        assert!(matches!(
            simdize_single_actor(&fb.build(), &cfg),
            Err(SimdizeError::NotVectorizable { .. })
        ));
    }

    #[test]
    fn figure3_shape_strided_reads() {
        // The vectorized D must read with stride 2 (its pop rate), as in
        // Figure 3b lines 1-4.
        let cfg = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        let dv = simdize_single_actor(&actor_d(), &cfg).unwrap();
        assert_eq!(dv.pop, 8);
        assert_eq!(dv.push, 8);
        assert_eq!(dv.peek, 8);
        let text = dv.work.iter().map(|s| s.to_string()).collect::<String>();
        assert!(text.contains("peek(6)"), "stride-2 lane 3 read:\n{text}");
        assert!(text.contains("peek(4)"));
        assert!(text.contains("peek(2)"));
        assert!(text.contains("rpush("));
        assert!(text.contains("advance_read(6)"));
        assert!(text.contains("advance_write(6)"));
    }

    #[test]
    fn integer_actor_all_modes() {
        // Bit-manipulation actor (DES-like round function slice).
        let mut fb = FilterBuilder::new("mix", 2, 2, 2, ScalarTy::I32);
        let a = fb.local("a", Ty::Scalar(ScalarTy::I32));
        let bv = fb.local("b", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(a, pop());
            b.set(bv, pop());
            b.push((v(a) ^ (v(bv) << 3i32)) & 0x7fffffffi32);
            b.push((v(bv) | (v(a) >> 2i32)) + 17i32);
        });
        let f = fb.build();
        for (im, om) in [
            (TapeMode::Strided, TapeMode::Strided),
            (TapeMode::Permute, TapeMode::Permute),
            (TapeMode::VectorReorder, TapeMode::VectorReorder),
            (TapeMode::Permute, TapeMode::Strided),
            (TapeMode::Strided, TapeMode::VectorReorder),
        ] {
            let cfg = SingleActorConfig {
                sw: 4,
                input: im,
                output: om,
                in_elem: ScalarTy::I32,
                out_elem: ScalarTy::I32,
            };
            differential(f.clone(), ScalarTy::I32, cfg, 5);
        }
    }

    #[test]
    fn wider_simd_widths() {
        for sw in [2usize, 8] {
            let cfg = SingleActorConfig::strided(sw, ScalarTy::F32, ScalarTy::F32);
            differential(actor_d(), ScalarTy::F32, cfg, 4);
        }
    }

    #[test]
    fn graph_node_replacement_roundtrip() {
        // Sanity: replacing a node in a Graph keeps edges valid.
        let mut g = Graph::new();
        let a = g.add_node(Node::filter(Filter::new("a", 0, 0, 1)));
        let b = g.add_node(Node::filter(Filter::new("b", 1, 1, 1)));
        let c = g.add_node(Node::Sink);
        g.connect(a, 0, b, 0, ScalarTy::F32);
        g.connect(b, 0, c, 0, ScalarTy::F32);
        let mut nb = Filter::new("b_v4", 4, 4, 4);
        nb.work = vec![];
        g.replace_node(b, Node::filter(nb));
        assert_eq!(g.node(b).name(), "b_v4");
        assert_eq!(g.edge_count(), 2);
    }
}
