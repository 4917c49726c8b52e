//! Region-based stateful SIMDization (Timcheck & Buhler, extended to the
//! MacroSS pipeline): a stateful actor whose state partitions into `R`
//! identical, independent regions — firing `i` touching only region
//! `i mod R` — is rewritten so `W` consecutive firings run as one vector
//! firing with one region per lane.
//!
//! The classic MacroSS passes refuse every stateful actor; this transform
//! recovers the common stateful shapes (per-channel IIR banks, rotating
//! accumulators, delay lines with channel-striped state) whose loop-carried
//! dependence is *per region* and therefore never crosses lanes.
//!
//! ## Panel layout
//!
//! Scalar state `y: [elem; R]` becomes a region-major panel array
//! `y: [vec<elem, W>; R/W]` where panel `j` holds regions
//! `j*W .. j*W + W - 1`, one per lane. Vector firing `k` covers scalar
//! firings `k*W .. k*W + W - 1`, which (because `W` divides `R`) all land
//! in panel `k mod (R/W)` — so the scalar cursor survives as the panel
//! cursor, advanced by `cursor = (cursor + 1) % (R/W)` instead of
//! `% R`. Tape access stays the existing strip-mined chunk-major strided
//! form: lane `l` reads/writes the tape slots of scalar firing `k*W + l`.
//!
//! `init` still runs scalar code: the original body is redirected into a
//! scratch scalar array and a packing epilogue transposes it into the
//! panels (`y[j].{l} = scratch[j*W + l]`).

use crate::error::SimdizeError;
use crate::single::{stage, SingleActorConfig, TapeMode};
use macross_streamir::analysis::{
    analyze_vectorizability, check_rates, check_region_spec, region_cursor_update, Vectorizability,
};
use macross_streamir::expr::{Expr, LValue, VarId};
use macross_streamir::filter::{Filter, RegionSpec, VarKind};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{Ty, Value};
use std::collections::{HashMap, HashSet};

/// Pick the lane width for an `R`-region actor on a `sw`-wide machine:
/// `sw` itself when it divides `R`, otherwise the largest power-of-two
/// divisor of `R` that fits (`>= 2`). `None` when no usable width exists
/// (odd `R`, or `R < 2`).
pub fn region_width(regions: usize, sw: usize) -> Option<usize> {
    if sw >= 2 && regions.is_multiple_of(sw) {
        return Some(sw);
    }
    let mut w = sw.next_power_of_two().min(64);
    while w >= 2 {
        if w <= sw && regions.is_multiple_of(w) {
            return Some(w);
        }
        w /= 2;
    }
    None
}

fn subst_expr(e: &mut Expr, map: &HashMap<VarId, VarId>) {
    match e {
        Expr::Var(v) | Expr::Index(v, _) | Expr::VIndex(v, _, _) => {
            if let Some(n) = map.get(v) {
                *v = *n;
            }
        }
        _ => {}
    }
    match e {
        Expr::Index(_, a)
        | Expr::VIndex(_, a, _)
        | Expr::Unary(_, a)
        | Expr::Cast(_, a)
        | Expr::Peek(a)
        | Expr::Lane(a, _)
        | Expr::Splat(a, _) => subst_expr(a, map),
        Expr::VPeek { offset, .. } => subst_expr(offset, map),
        Expr::Binary(_, a, b) | Expr::PermuteEven(a, b) | Expr::PermuteOdd(a, b) => {
            subst_expr(a, map);
            subst_expr(b, map);
        }
        Expr::Call(_, args) => {
            for a in args {
                subst_expr(a, map);
            }
        }
        _ => {}
    }
}

fn subst_stmt(s: &mut Stmt, map: &HashMap<VarId, VarId>) {
    match s {
        Stmt::Assign(lv, e) => {
            match lv {
                LValue::Var(v) | LValue::LaneVar(v, _) => {
                    if let Some(n) = map.get(v) {
                        *v = *n;
                    }
                }
                LValue::Index(v, i) | LValue::LaneIndex(v, i, _) | LValue::VIndex(v, i, _) => {
                    if let Some(n) = map.get(v) {
                        *v = *n;
                    }
                    subst_expr(i, map);
                }
            }
            subst_expr(e, map);
        }
        Stmt::Push(e) | Stmt::LPush(_, e) | Stmt::LVPush(_, e, _) => subst_expr(e, map),
        Stmt::RPush { value, offset } => {
            subst_expr(value, map);
            subst_expr(offset, map);
        }
        Stmt::VPush { value, .. } => subst_expr(value, map),
        Stmt::For { count, body, .. } => {
            subst_expr(count, map);
            for s in body {
                subst_stmt(s, map);
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            subst_expr(cond, map);
            for s in then_branch {
                subst_stmt(s, map);
            }
            for s in else_branch {
                subst_stmt(s, map);
            }
        }
        Stmt::AdvanceRead(_) | Stmt::AdvanceWrite(_) => {}
    }
}

/// Vectorize one region-annotated stateful actor for `cfg.sw` lanes.
///
/// `cfg.sw` must divide the region count (use [`region_width`] to pick
/// it) and both tape modes must be [`TapeMode::Strided`] — the region
/// transform reuses the strip-mined chunk-major tape form unchanged.
///
/// # Errors
/// Fails when the annotation does not hold
/// ([`check_region_spec`]), the body has tape-dependent control flow or
/// subscripts, is already vectorized, or the width does not divide `R`.
/// The result is self-checked against its declared rates.
pub fn simdize_region_actor(
    orig: &Filter,
    cfg: &SingleActorConfig,
) -> Result<Filter, SimdizeError> {
    simdize_region_actor_analyzed(orig, cfg, &analyze_vectorizability(orig))
}

/// [`simdize_region_actor`] for a caller that already holds `orig`'s
/// vectorizability verdict.
pub(crate) fn simdize_region_actor_analyzed(
    orig: &Filter,
    cfg: &SingleActorConfig,
    va: &Vectorizability,
) -> Result<Filter, SimdizeError> {
    let not_vec = |reason: String| SimdizeError::NotVectorizable {
        actor: orig.name.clone(),
        reason,
    };
    check_region_spec(orig).map_err(&not_vec)?;
    if va.tape_dependent_control || va.tape_dependent_subscript || va.vectorized {
        return Err(not_vec(format!(
            "tape_dependent_control={} tape_dependent_subscript={} vectorized={}",
            va.tape_dependent_control, va.tape_dependent_subscript, va.vectorized
        )));
    }
    let spec = orig.region.clone().expect("checked above");
    let w = cfg.sw;
    if w < 2 || !spec.regions.is_multiple_of(w) {
        return Err(not_vec(format!(
            "lane width {w} does not divide region count {}",
            spec.regions
        )));
    }
    if cfg.input != TapeMode::Strided || cfg.output != TapeMode::Strided {
        return Err(not_vec(
            "region SIMDization supports only strided tape modes".into(),
        ));
    }
    let panels = spec.regions / w;

    let mut f = orig.clone();
    f.name = format!("{}_r{}", f.name, w);

    // Strip the canonical cursor advance — check_region_spec proved it is
    // the last top-level statement and the only cursor write.
    debug_assert_eq!(
        f.work.last(),
        Some(&region_cursor_update(spec.cursor, spec.regions))
    );
    f.work.pop();

    // Redirect init's region-array accesses into scalar scratch locals so
    // the (unrewritten, scalar) init body stays well-typed after the
    // panels change type.
    let mut map: HashMap<VarId, VarId> = HashMap::new();
    let mut scratch: Vec<(VarId, VarId, macross_streamir::types::ScalarTy)> = Vec::new();
    for &y in &spec.vars {
        let elem = match f.var(y).ty {
            Ty::Array(e, _) => e,
            _ => unreachable!("check_region_spec enforces array region vars"),
        };
        let name = format!("__rs_{}", f.var(y).name);
        let sid = f.add_var(name, Ty::Array(elem, spec.regions), VarKind::Local);
        map.insert(y, sid);
        scratch.push((y, sid, elem));
    }
    for s in &mut f.init {
        subst_stmt(s, &map);
    }

    // Vectorize the cursor-free body. The region arrays are seeded as
    // vector variables: their lanes hold different regions' values even
    // when no tape data flows into them.
    let seeds: HashSet<VarId> = spec.vars.iter().copied().collect();
    let mut f =
        stage(f, w, cfg.in_elem, cfg.out_elem, &seeds).lower(cfg.input, cfg.output, false)?;

    // Retype the panels region-major: W lanes per panel, R/W panels (the
    // blanket retype in `stage` produced R panels).
    for &(y, _, elem) in &scratch {
        f.vars[y.0 as usize].ty = Ty::VectorArray(elem, w, panels);
    }

    // Packing epilogue: transpose scratch into the panels, lane l of
    // panel j taking region j*W + l. Fully unrolled — R is a small
    // compile-time constant and constant subscripts fold downstream.
    for &(y, sid, _) in &scratch {
        for j in 0..panels {
            for l in 0..w {
                f.init.push(Stmt::Assign(
                    LValue::LaneIndex(y, Expr::Const(Value::I32(j as i32)), l),
                    Expr::Index(sid, Box::new(Expr::Const(Value::I32((j * w + l) as i32)))),
                ));
            }
        }
    }

    // The scalar cursor survives as the panel cursor.
    f.work.push(region_cursor_update(spec.cursor, panels));
    f.region = Some(RegionSpec {
        regions: panels,
        vars: spec.vars.clone(),
        cursor: spec.cursor,
    });

    check_rates(&f).map_err(|e| SimdizeError::RateCheck(e.to_string()))?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::edsl::*;
    use macross_streamir::types::ScalarTy;

    fn iir_bank(regions: usize) -> Filter {
        let mut fb = FilterBuilder::new("iir_bank", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", regions);
        let y = fb.region_var("y", ScalarTy::F32);
        let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
        fb.init(|b| {
            b.for_(j, regions as i32, |b| {
                b.set_idx(y, v(j), cast(ScalarTy::F32, v(j)) * 0.125f32);
            });
        });
        fb.work(|b| {
            b.set_idx(y, v(cur), idx(y, v(cur)) * 0.5f32 + pop() * 0.5f32);
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(regions as i32));
        });
        fb.build()
    }

    #[test]
    fn width_selection() {
        assert_eq!(region_width(8, 4), Some(4));
        assert_eq!(region_width(4, 4), Some(4));
        assert_eq!(region_width(12, 8), Some(4));
        assert_eq!(region_width(6, 4), Some(2));
        assert_eq!(region_width(7, 4), None);
        assert_eq!(region_width(2, 8), Some(2));
    }

    #[test]
    fn transform_produces_panel_layout() {
        let f = iir_bank(8);
        let cfg = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        let vf = simdize_region_actor(&f, &cfg).unwrap();
        assert_eq!(vf.name, "iir_bank_r4");
        assert_eq!(vf.pop, 4);
        assert_eq!(vf.push, 4);
        let spec = vf.region.as_ref().unwrap();
        assert_eq!(spec.regions, 2); // 8 regions / 4 lanes = 2 panels
        let y = spec.vars[0];
        assert_eq!(vf.var(y).ty, Ty::VectorArray(ScalarTy::F32, 4, 2));
        // Panel cursor update got re-appended with the panel modulus.
        assert_eq!(
            vf.work.last().unwrap(),
            &macross_streamir::analysis::region_cursor_update(spec.cursor, 2)
        );
        // Init ends with the 8 packing lane stores.
        let lane_stores = vf
            .init
            .iter()
            .filter(|s| matches!(s, Stmt::Assign(LValue::LaneIndex(_, _, _), _)))
            .count();
        assert_eq!(lane_stores, 8);
    }

    #[test]
    fn non_divisor_width_rejected() {
        let f = iir_bank(6);
        let cfg = SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32);
        assert!(simdize_region_actor(&f, &cfg).is_err());
        let cfg2 = SingleActorConfig::strided(2, ScalarTy::F32, ScalarTy::F32);
        assert!(simdize_region_actor(&f, &cfg2).is_ok());
    }

    #[test]
    fn cross_region_write_falls_back() {
        let mut fb = FilterBuilder::new("bad", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", 4);
        let y = fb.region_var("y", ScalarTy::F32);
        fb.work(|b| {
            b.set_idx(y, (v(cur) + 1i32) % c(4i32), pop());
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(4i32));
        });
        assert!(matches!(
            simdize_region_actor(
                &fb.build(),
                &SingleActorConfig::strided(4, ScalarTy::F32, ScalarTy::F32)
            ),
            Err(SimdizeError::NotVectorizable { .. })
        ));
    }
}
