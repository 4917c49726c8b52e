//! The x86-64 rows of the kernel backend matrix: SSE2 (128-bit) and
//! AVX2 (256-bit) execution of fused kernels. The only `unsafe` in the
//! kernel layer lives here.
//!
//! Both tiers are generated from one shared exec body
//! ([`tier_exec_body!`]) parameterized over the tier's vector types and
//! `LANES` (f64/i64 lanes per chunk). Each tier module supplies the same
//! wrapper row — loads, stores, lane ops, the stride-2 shuffle, the
//! compare-mask builder — and the macro derives the slice walkers,
//! register-resident chains, permutations, casts and intrinsic paths
//! from it. Every function is gated on its tier's `#[target_feature]`;
//! callers go through [`super::exec`], which only selects a tier that
//! [`super::KernelTier::available`] approved.
//!
//! Bit-exactness contract: each specialized path must produce exactly
//! what the portable loop produces.
//!
//! - **f32 domain**: registers hold `f32` values exactly widened to
//!   `f64`. `cvtpd2ps` rounds to nearest under the default MXCSR (which
//!   Rust never changes), which is precisely `x as f32`; the `ps` op
//!   then matches scalar `f32` IEEE arithmetic, and `cvtps2pd` is
//!   exact. Net effect: `((x as f32) op (y as f32)) as f64`, lane-wise.
//! - **i32 domain**: registers hold `i32` values sign-extended to
//!   `i64`. We gather the low dwords (they carry the full `i32` value),
//!   do wrapping 32-bit ops, and re-sign-extend — exactly
//!   `((x as i32).wrapping_op(y as i32)) as i64`. AVX2 sign-extends
//!   with `vpmovsxdq`; SSE2 with an arithmetic-shift/unpack pair.
//! - **i64 / f64 / bitwise**: the full-width op *is* the scalar op,
//!   lane-wise.
//! - **compares**: ordered-quiet predicates (`NEQ` unordered-quiet)
//!   match Rust's `PartialOrd` on `f64` exactly, NaN included; the
//!   all-ones mask is masked down to the portable `0/1`.
//! - **permutations**: the stride-2 gather (`unpacklo` + cross-lane
//!   permute on AVX2) is a pure data movement — bit-exact by nature —
//!   taken only for even widths with a destination disjoint from both
//!   sources, where it reads and writes exactly what the portable
//!   element loop does.
//! - **intrinsics**: `sqrtpd` *is* `f64::sqrt`; `abs` is a sign-bit
//!   clear just like Rust's `abs` (the f32 flavor narrows, clears in
//!   `ps`, widens — the portable composition verbatim); AVX2 `floor`
//!   uses `roundpd`. `f32`-typed results take the same
//!   narrow-after-f64-op rounding as the scalar helper.
//!
//! - **i64 multiply**: no tier has a qword `mullo`, so both decompose
//!   into `pmuludq` 32x32 partial products — `lo*lo + ((lo*hi + hi*lo)
//!   << 32)` is `i64::wrapping_mul` bit-exactly (the dropped `hi*hi`
//!   term is `2^64`-scaled; the shift truncates the cross terms the
//!   same way the scalar wrap does).
//! - **integer compares**: sign extension preserves order, so the
//!   full-width predicate (`vpcmpeqq`/`vpcmpgtq` + complements on AVX2)
//!   is exact for both widths; SSE2 has only dword compares, so it
//!   takes `i32` compares via the gathered-low-dword path and leaves
//!   `i64` compares to the portable loop.
//!
//! Ops a tier has no exact instruction for — `MulI32` on SSE2 (`pmulld`
//! is SSE4.1), `i64` compares on SSE2, `floor` on SSE2 (`roundpd` is
//! SSE4.1), saturating `CastFI`, `CastIF`, `Min`/`Max` (±0.0/NaN
//! tie-breaks differ), transcendentals — fall through to
//! [`super::exec_kop_portable`], still inside the `target_feature`
//! region, so the compiler may vectorize them too.

use core::arch::x86_64::*;
use macross_streamir::expr::BinOp;

/// Raw destination/source pointers into one register file. Fusion
/// verified for every specialized variant that `dst` is disjoint from
/// `a`/`b` and all ranges are in-bounds, so the pointers cannot alias
/// the destination or escape the file.
#[inline]
unsafe fn ptrs3<T>(file: &mut [T], dst: u32, a: u32, b: u32) -> (*mut T, *const T, *const T) {
    let p = file.as_mut_ptr();
    (
        p.add(dst as usize),
        p.add(a as usize) as *const T,
        p.add(b as usize) as *const T,
    )
}

/// Like [`ptrs3`] for unary ops.
#[inline]
unsafe fn ptrs2<T>(file: &mut [T], dst: u32, a: u32) -> (*mut T, *const T) {
    let p = file.as_mut_ptr();
    (p.add(dst as usize), p.add(a as usize) as *const T)
}

/// `|x|` on 4 packed `f32`: clear the sign bits.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn abs_ps128(v: __m128) -> __m128 {
    _mm_and_ps(v, _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff)))
}

/// Signed dword compare mask from the SSE2 baseline (`pcmpeqd` /
/// `pcmpgtd`); the remaining predicates are complements. Shared by both
/// tiers — the operands are gathered low dwords, always 128-bit.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn cmp_mask_epi32(op: BinOp, a: __m128i, b: __m128i) -> __m128i {
    let ones = _mm_set1_epi32(-1);
    match op {
        BinOp::Eq => _mm_cmpeq_epi32(a, b),
        BinOp::Ne => _mm_xor_si128(_mm_cmpeq_epi32(a, b), ones),
        BinOp::Lt => _mm_cmpgt_epi32(b, a),
        BinOp::Gt => _mm_cmpgt_epi32(a, b),
        BinOp::Le => _mm_xor_si128(_mm_cmpgt_epi32(a, b), ones),
        BinOp::Ge => _mm_xor_si128(_mm_cmpgt_epi32(b, a), ones),
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

/// The shared tier body: everything below is identical for SSE2 and
/// AVX2 up to the wrapper row the enclosing module defines (`load_pd`,
/// `stride2_pd`, `cmp_mask`, ..., plus `LANES` and the capability
/// consts). Names resolve in the enclosing module, so each expansion
/// binds its own tier's wrappers — this is how one exec body serves
/// every width.
macro_rules! tier_exec_body {
    ($feat:literal) => {
        use super::super::{
            chain_apply_f32, chain_apply_f64, chain_apply_i32, chain_apply_i64, chain_parts,
            disjoint, exec_kop_portable, ChainClass, ChainDom, ChainKind, ChainStage, KOp,
        };
        use crate::bytecode::{call1_f, cmp_f, cmp_i, Regs};
        use crate::lanes;
        use macross_streamir::expr::{BinOp, Intrinsic};
        use macross_streamir::types::ScalarTy;

        /// `f32`-domain binop walker: narrow `LANES` `f64` lanes, op in
        /// `ps`, widen back; scalar `f32` remainder.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn bin_f32(kind: ChainKind, d: *mut f64, x: *const f64, y: *const f64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let a = cvt_pd_ps(load_pd(x.add(k)));
                let b = cvt_pd_ps(load_pd(y.add(k)));
                let r = match kind {
                    ChainKind::Add => _mm_add_ps(a, b),
                    ChainKind::Sub => _mm_sub_ps(a, b),
                    ChainKind::Mul => _mm_mul_ps(a, b),
                    ChainKind::Div => _mm_div_ps(a, b),
                    _ => unreachable!("f32 binop kind"),
                };
                store_pd(d.add(k), cvt_ps_pd(r));
                k += LANES;
            }
            while k < n {
                *d.add(k) = chain_apply_f32(kind, *x.add(k) as f32, *y.add(k) as f32) as f64;
                k += 1;
            }
        }

        /// `f64`-domain binop walker: the wide op is the scalar op.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn bin_f64(kind: ChainKind, d: *mut f64, x: *const f64, y: *const f64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let a = load_pd(x.add(k));
                let b = load_pd(y.add(k));
                let r = match kind {
                    ChainKind::Add => add_pd(a, b),
                    ChainKind::Sub => sub_pd(a, b),
                    ChainKind::Mul => mul_pd(a, b),
                    ChainKind::Div => div_pd(a, b),
                    _ => unreachable!("f64 binop kind"),
                };
                store_pd(d.add(k), r);
                k += LANES;
            }
            while k < n {
                *d.add(k) = chain_apply_f64(kind, *x.add(k), *y.add(k));
                k += 1;
            }
        }

        /// `i32`-domain binop walker: gather low dwords, wrapping 32-bit
        /// op, sign-extend back. `Mul` only when the tier has `pmulld`
        /// (the dispatcher checks `HAS_MULLO_I32`).
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn bin_i32(kind: ChainKind, d: *mut i64, x: *const i64, y: *const i64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let a = gather_lo32(load_si(x.add(k)));
                let b = gather_lo32(load_si(y.add(k)));
                let r = match kind {
                    ChainKind::Add => _mm_add_epi32(a, b),
                    ChainKind::Sub => _mm_sub_epi32(a, b),
                    ChainKind::Mul => mul32(a, b),
                    _ => unreachable!("i32 binop kind"),
                };
                store_si(d.add(k), sext_lo32(r));
                k += LANES;
            }
            while k < n {
                *d.add(k) = chain_apply_i32(kind, *x.add(k) as i32, *y.add(k) as i32) as i64;
                k += 1;
            }
        }

        /// `i64`/bitwise binop walker on full-width lanes. `Mul` goes
        /// through the tier's `pmuludq` partial-product decomposition.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn bin_i64(kind: ChainKind, d: *mut i64, x: *const i64, y: *const i64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let a = load_si(x.add(k));
                let b = load_si(y.add(k));
                let r = match kind {
                    ChainKind::Add => add_i64(a, b),
                    ChainKind::Sub => sub_i64(a, b),
                    ChainKind::Mul => mul_i64(a, b),
                    ChainKind::And => and_si(a, b),
                    ChainKind::Or => or_si(a, b),
                    ChainKind::Xor => xor_si(a, b),
                    _ => unreachable!("i64 binop kind"),
                };
                store_si(d.add(k), r);
                k += LANES;
            }
            while k < n {
                *d.add(k) = chain_apply_i64(kind, *x.add(k), *y.add(k));
                k += 1;
            }
        }

        /// Integer-compare walker producing the portable 0/1 lanes. The
        /// registers hold sign-extended values and sign extension
        /// preserves order, so the full-width predicate is exact for
        /// both integer widths; a tier without 64-bit compare masks
        /// (`HAS_CMP_I64`) only ever sees `i32` operands (the dispatcher
        /// guards) and compares their gathered low dwords instead.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn cmp_i_slice(op: BinOp, d: *mut i64, x: *const i64, y: *const i64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let a = load_si(x.add(k));
                let b = load_si(y.add(k));
                let m = if HAS_CMP_I64 {
                    cmp_mask_i64(op, a, b)
                } else {
                    sext_lo32(super::cmp_mask_epi32(op, gather_lo32(a), gather_lo32(b)))
                };
                store_si(d.add(k), and_si(m, ones_epi64()));
                k += LANES;
            }
            while k < n {
                *d.add(k) = cmp_i(op, *x.add(k), *y.add(k));
                k += 1;
            }
        }

        /// Register-resident `f32` chain: one narrow at the accumulator
        /// load, every stage in `ps` registers, one widen per surviving
        /// store. Per lane this is exactly the portable stage order.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn chain_f32(a: u32, w: u32, stages: &[ChainStage], regs: &mut Regs) {
            let base = regs.f.as_mut_ptr();
            let (a, w) = (a as usize, w as usize);
            let mut k = 0;
            while k + LANES <= w {
                let mut acc = cvt_pd_ps(load_pd(base.add(a + k)));
                for st in stages {
                    let o = cvt_pd_ps(load_pd(base.add(st.other as usize + k)));
                    acc = match st.kind {
                        ChainKind::Add => _mm_add_ps(acc, o),
                        ChainKind::Sub => _mm_sub_ps(acc, o),
                        ChainKind::Mul => _mm_mul_ps(acc, o),
                        ChainKind::Div => _mm_div_ps(acc, o),
                        ChainKind::RSub => _mm_sub_ps(o, acc),
                        ChainKind::RDiv => _mm_div_ps(o, acc),
                        _ => unreachable!("f32 chain kind"),
                    };
                    if let Some(d) = st.store {
                        store_pd(base.add(d as usize + k), cvt_ps_pd(acc));
                    }
                }
                k += LANES;
            }
            while k < w {
                let mut acc = *base.add(a + k) as f32;
                for st in stages {
                    acc = chain_apply_f32(st.kind, acc, *base.add(st.other as usize + k) as f32);
                    if let Some(d) = st.store {
                        *base.add(d as usize + k) = acc as f64;
                    }
                }
                k += 1;
            }
        }

        /// Register-resident `f64` chain.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn chain_f64(a: u32, w: u32, stages: &[ChainStage], regs: &mut Regs) {
            let base = regs.f.as_mut_ptr();
            let (a, w) = (a as usize, w as usize);
            let mut k = 0;
            while k + LANES <= w {
                let mut acc = load_pd(base.add(a + k));
                for st in stages {
                    let o = load_pd(base.add(st.other as usize + k));
                    acc = match st.kind {
                        ChainKind::Add => add_pd(acc, o),
                        ChainKind::Sub => sub_pd(acc, o),
                        ChainKind::Mul => mul_pd(acc, o),
                        ChainKind::Div => div_pd(acc, o),
                        ChainKind::RSub => sub_pd(o, acc),
                        ChainKind::RDiv => div_pd(o, acc),
                        _ => unreachable!("f64 chain kind"),
                    };
                    if let Some(d) = st.store {
                        store_pd(base.add(d as usize + k), acc);
                    }
                }
                k += LANES;
            }
            while k < w {
                let mut acc = *base.add(a + k);
                for st in stages {
                    acc = chain_apply_f64(st.kind, acc, *base.add(st.other as usize + k));
                    if let Some(d) = st.store {
                        *base.add(d as usize + k) = acc;
                    }
                }
                k += 1;
            }
        }

        /// Register-resident `i32` chain: the accumulator stays as
        /// packed dwords; each surviving store sign-extends. The
        /// dispatcher routes `Mul` stages here only when the tier has
        /// `pmulld`.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn chain_i32(a: u32, w: u32, stages: &[ChainStage], regs: &mut Regs) {
            let base = regs.i.as_mut_ptr();
            let (a, w) = (a as usize, w as usize);
            let mut k = 0;
            while k + LANES <= w {
                let mut acc = gather_lo32(load_si(base.add(a + k)));
                for st in stages {
                    let o = gather_lo32(load_si(base.add(st.other as usize + k)));
                    acc = match st.kind {
                        ChainKind::Add => _mm_add_epi32(acc, o),
                        ChainKind::Sub => _mm_sub_epi32(acc, o),
                        ChainKind::Mul => mul32(acc, o),
                        ChainKind::RSub => _mm_sub_epi32(o, acc),
                        _ => unreachable!("i32 chain kind"),
                    };
                    if let Some(d) = st.store {
                        store_si(base.add(d as usize + k), sext_lo32(acc));
                    }
                }
                k += LANES;
            }
            while k < w {
                let mut acc = *base.add(a + k) as i32;
                for st in stages {
                    acc = chain_apply_i32(st.kind, acc, *base.add(st.other as usize + k) as i32);
                    if let Some(d) = st.store {
                        *base.add(d as usize + k) = acc as i64;
                    }
                }
                k += 1;
            }
        }

        /// Register-resident `i64` chain (`Mul` stages through the
        /// tier's `pmuludq` decomposition).
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn chain_i64(a: u32, w: u32, stages: &[ChainStage], regs: &mut Regs) {
            let base = regs.i.as_mut_ptr();
            let (a, w) = (a as usize, w as usize);
            let mut k = 0;
            while k + LANES <= w {
                let mut acc = load_si(base.add(a + k));
                for st in stages {
                    let o = load_si(base.add(st.other as usize + k));
                    acc = match st.kind {
                        ChainKind::Add => add_i64(acc, o),
                        ChainKind::Sub => sub_i64(acc, o),
                        ChainKind::Mul => mul_i64(acc, o),
                        ChainKind::RSub => sub_i64(o, acc),
                        ChainKind::And => and_si(acc, o),
                        ChainKind::Or => or_si(acc, o),
                        ChainKind::Xor => xor_si(acc, o),
                        _ => unreachable!("i64 chain kind"),
                    };
                    if let Some(d) = st.store {
                        store_si(base.add(d as usize + k), acc);
                    }
                }
                k += LANES;
            }
            while k < w {
                let mut acc = *base.add(a + k);
                for st in stages {
                    acc = chain_apply_i64(st.kind, acc, *base.add(st.other as usize + k));
                    if let Some(d) = st.store {
                        *base.add(d as usize + k) = acc;
                    }
                }
                k += 1;
            }
        }

        /// `dst[k] = src[2k]` for `k < n` — the stride-2 half of a
        /// permutation. Reads `src[0..2n-1]`, within the caller's range.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn copy_stride2_pd(src: *const f64, dst: *mut f64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let v0 = load_pd(src.add(2 * k));
                let v1 = load_pd(src.add(2 * k + LANES));
                store_pd(dst.add(k), stride2_pd(v0, v1));
                k += LANES;
            }
            while k < n {
                *dst.add(k) = *src.add(2 * k);
                k += 1;
            }
        }

        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn copy_stride2_i64(src: *const i64, dst: *mut i64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let v0 = load_si(src.add(2 * k));
                let v1 = load_si(src.add(2 * k + LANES));
                store_si(dst.add(k), stride2_i64(v0, v1));
                k += LANES;
            }
            while k < n {
                *dst.add(k) = *src.add(2 * k);
                k += 1;
            }
        }

        /// `extract_even`/`extract_odd` over the float file. Caller
        /// verified: even `w`, `dst` disjoint from `a` and `b`. For even
        /// `w` the portable loop reads `a[parity + 2k]` for the low half
        /// and `b[parity + 2k]` for the high half — two stride-2 copies.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn perm_f(parity: u32, dst: u32, a: u32, b: u32, w: u32, regs: &mut Regs) {
            let half = (w / 2) as usize;
            let base = regs.f.as_mut_ptr();
            let src_a = base.add(a as usize + parity as usize) as *const f64;
            let src_b = base.add(b as usize + parity as usize) as *const f64;
            copy_stride2_pd(src_a, base.add(dst as usize), half);
            copy_stride2_pd(src_b, base.add(dst as usize + half), half);
        }

        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn perm_i(parity: u32, dst: u32, a: u32, b: u32, w: u32, regs: &mut Regs) {
            let half = (w / 2) as usize;
            let base = regs.i.as_mut_ptr();
            let src_a = base.add(a as usize + parity as usize) as *const i64;
            let src_b = base.add(b as usize + parity as usize) as *const i64;
            copy_stride2_i64(src_a, base.add(dst as usize), half);
            copy_stride2_i64(src_b, base.add(dst as usize + half), half);
        }

        /// Float compare into the int file: predicate mask, masked down
        /// to the portable `0/1`. The files are distinct, so no aliasing
        /// is possible.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn cmp_f_slice(op: BinOp, d: *mut i64, x: *const f64, y: *const f64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let m = cmp_mask(op, load_pd(x.add(k)), load_pd(y.add(k)));
                store_si(d.add(k), and_si(m, ones_epi64()));
                k += LANES;
            }
            while k < n {
                *d.add(k) = cmp_f(op, *x.add(k), *y.add(k));
                k += 1;
            }
        }

        /// `CastFF` to `f32`: the narrow/widen round trip *is* the cast.
        /// Caller verified `dst` disjoint from `a` (the chunked order
        /// would otherwise diverge from the portable element order).
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn cast_ff_f32(d: *mut f64, x: *const f64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                store_pd(d.add(k), cvt_ps_pd(cvt_pd_ps(load_pd(x.add(k)))));
                k += LANES;
            }
            while k < n {
                *d.add(k) = (*x.add(k) as f32) as f64;
                k += 1;
            }
        }

        /// `sqrt`/`abs` (and `floor` where the tier has `roundpd`).
        /// `f32`-typed `sqrt`/`floor` replicate the scalar helper's
        /// round-once-to-f32 composition; `abs` narrows first like the
        /// scalar helper, clears the sign in `ps`, and widens back.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn call1_f_slice(i: Intrinsic, ty: ScalarTy, d: *mut f64, x: *const f64, n: usize) {
            let mut k = 0;
            while k + LANES <= n {
                let v = load_pd(x.add(k));
                let r = match (i, ty) {
                    (Intrinsic::Abs, ScalarTy::F32) => cvt_ps_pd(super::abs_ps128(cvt_pd_ps(v))),
                    (Intrinsic::Abs, _) => abs_pd(v),
                    (Intrinsic::Sqrt, ScalarTy::F32) => cvt_ps_pd(cvt_pd_ps(sqrt_pd(v))),
                    (Intrinsic::Sqrt, _) => sqrt_pd(v),
                    (Intrinsic::Floor, ScalarTy::F32) => cvt_ps_pd(cvt_pd_ps(floor_pd(v))),
                    (Intrinsic::Floor, _) => floor_pd(v),
                    _ => unreachable!("unsupported intrinsic on the SIMD path"),
                };
                store_pd(d.add(k), r);
                k += LANES;
            }
            while k < n {
                *d.add(k) = call1_f(i, ty, *x.add(k));
                k += 1;
            }
        }

        /// Execute a kernel's ops with this tier's paths for the
        /// specialized variants; everything else runs the portable code
        /// (still inside the `target_feature` region).
        ///
        /// # Safety
        /// The CPU must support this tier
        /// ([`super::super::KernelTier::available`]).
        #[target_feature(enable = $feat)]
        pub(crate) unsafe fn exec(kops: &[KOp], regs: &mut Regs) {
            for op in kops {
                // All specialized binary arithmetic goes through one
                // decomposition — the same one chain formation uses.
                if let Some((class, kind, dst, a, b, w)) = chain_parts(op) {
                    let n = w as usize;
                    match class {
                        ChainClass::F32 => {
                            let (d, x, y) = super::ptrs3(&mut regs.f, dst, a, b);
                            bin_f32(kind, d, x, y, n);
                        }
                        ChainClass::F64 => {
                            let (d, x, y) = super::ptrs3(&mut regs.f, dst, a, b);
                            bin_f64(kind, d, x, y, n);
                        }
                        ChainClass::I32 if kind != ChainKind::Mul || HAS_MULLO_I32 => {
                            let (d, x, y) = super::ptrs3(&mut regs.i, dst, a, b);
                            bin_i32(kind, d, x, y, n);
                        }
                        ChainClass::I64 | ChainClass::Bits => {
                            let (d, x, y) = super::ptrs3(&mut regs.i, dst, a, b);
                            bin_i64(kind, d, x, y, n);
                        }
                        // MulI32 without pmulld.
                        _ => exec_kop_portable(op, regs),
                    }
                    continue;
                }
                match *op {
                    KOp::Chain {
                        dom,
                        a,
                        w,
                        ref stages,
                    } => {
                        let has_mul = || stages.iter().any(|s| s.kind == ChainKind::Mul);
                        match dom {
                            ChainDom::F32 => chain_f32(a, w, stages, regs),
                            ChainDom::F64 => chain_f64(a, w, stages, regs),
                            ChainDom::I32 if HAS_MULLO_I32 || !has_mul() => {
                                chain_i32(a, w, stages, regs)
                            }
                            ChainDom::I64 => chain_i64(a, w, stages, regs),
                            _ => exec_kop_portable(op, regs),
                        }
                    }
                    KOp::PermF {
                        parity,
                        dst,
                        a,
                        b,
                        w,
                    } if w % 2 == 0 && disjoint(dst, a, w) && disjoint(dst, b, w) => {
                        perm_f(parity, dst, a, b, w, regs);
                    }
                    KOp::PermI {
                        parity,
                        dst,
                        a,
                        b,
                        w,
                    } if w % 2 == 0 && disjoint(dst, a, w) && disjoint(dst, b, w) => {
                        perm_i(parity, dst, a, b, w, regs);
                    }
                    KOp::CmpF {
                        op: cop,
                        dst,
                        a,
                        b,
                        w,
                    } if cop.is_comparison() => {
                        // Distinct files: dst is int, sources are float.
                        let d = regs.i.as_mut_ptr().add(dst as usize);
                        let x = regs.f.as_ptr().add(a as usize);
                        let y = regs.f.as_ptr().add(b as usize);
                        cmp_f_slice(cop, d, x, y, w as usize);
                    }
                    KOp::CmpI {
                        op: cop,
                        ty,
                        dst,
                        a,
                        b,
                        w,
                    } if ty == ScalarTy::I32 || HAS_CMP_I64 => {
                        let (d, x, y) = super::ptrs3(&mut regs.i, dst, a, b);
                        cmp_i_slice(cop, d, x, y, w as usize);
                    }
                    KOp::CastFF {
                        to: ScalarTy::F32,
                        dst,
                        a,
                        w,
                    } if disjoint(dst, a, w) => {
                        let (d, x) = super::ptrs2(&mut regs.f, dst, a);
                        cast_ff_f32(d, x, w as usize);
                    }
                    KOp::Call1F { i, ty, dst, a, w }
                        if disjoint(dst, a, w)
                            && (matches!(i, Intrinsic::Sqrt | Intrinsic::Abs)
                                || (HAS_FLOOR && i == Intrinsic::Floor)) =>
                    {
                        let (d, x) = super::ptrs2(&mut regs.f, dst, a);
                        call1_f_slice(i, ty, d, x, w as usize);
                    }
                    // Register moves go straight to the shared lane
                    // loops (SIMD-width windows move as fixed-size
                    // arrays, no libc call) instead of through the
                    // portable dispatcher's second match.
                    KOp::MovNF { dst, src, w } => {
                        lanes::mov(&mut regs.f, dst as usize, src as usize, w as usize);
                    }
                    KOp::MovNI { dst, src, w } => {
                        lanes::mov(&mut regs.i, dst as usize, src as usize, w as usize);
                    }
                    KOp::SplatF { dst, a, w } => lanes::splat(&mut regs.f, dst, a, w),
                    KOp::SplatI { dst, a, w } => lanes::splat(&mut regs.i, dst, a, w),
                    // Everything generic runs the exact portable loops.
                    ref other => exec_kop_portable(other, regs),
                }
            }
        }
    };
}

/// The 128-bit row: SSE2 only — the x86-64 baseline. No `pmulld`
/// (32-bit multiplies stay portable), no `roundpd` (floor stays
/// portable); sign-extension is the shift/unpack pair.
pub(crate) mod sse2 {
    use core::arch::x86_64::*;

    const LANES: usize = 2;
    const HAS_MULLO_I32: bool = false;
    const HAS_FLOOR: bool = false;
    const HAS_CMP_I64: bool = false;

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load_pd(p: *const f64) -> __m128d {
        _mm_loadu_pd(p)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn store_pd(p: *mut f64, v: __m128d) {
        _mm_storeu_pd(p, v)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn add_pd(a: __m128d, b: __m128d) -> __m128d {
        _mm_add_pd(a, b)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn sub_pd(a: __m128d, b: __m128d) -> __m128d {
        _mm_sub_pd(a, b)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn mul_pd(a: __m128d, b: __m128d) -> __m128d {
        _mm_mul_pd(a, b)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn div_pd(a: __m128d, b: __m128d) -> __m128d {
        _mm_div_pd(a, b)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn sqrt_pd(a: __m128d) -> __m128d {
        _mm_sqrt_pd(a)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn abs_pd(v: __m128d) -> __m128d {
        _mm_and_pd(v, _mm_castsi128_pd(_mm_set1_epi64x(0x7fff_ffff_ffff_ffff)))
    }
    /// `roundpd` is SSE4.1; `HAS_FLOOR` keeps this unreachable.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn floor_pd(_v: __m128d) -> __m128d {
        unreachable!("floor has no SSE2 instruction")
    }
    /// Narrows the 2 `f64` lanes into `ps` lanes 0–1 (upper lanes zero).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn cvt_pd_ps(v: __m128d) -> __m128 {
        _mm_cvtpd_ps(v)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn cvt_ps_pd(v: __m128) -> __m128d {
        _mm_cvtps_pd(v)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load_si(p: *const i64) -> __m128i {
        _mm_loadu_si128(p as *const __m128i)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn store_si(p: *mut i64, v: __m128i) {
        _mm_storeu_si128(p as *mut __m128i, v)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn add_i64(a: __m128i, b: __m128i) -> __m128i {
        _mm_add_epi64(a, b)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn sub_i64(a: __m128i, b: __m128i) -> __m128i {
        _mm_sub_epi64(a, b)
    }
    /// Lane-wise wrapping 64-bit multiply from `pmuludq` 32x32 partial
    /// products: `lo*lo + ((lo*hi + hi*lo) << 32)`. The dropped `hi*hi`
    /// term is `2^64`-scaled, and the shift truncates the cross terms
    /// exactly as the scalar wrap does — bit-exact `i64::wrapping_mul`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn mul_i64(a: __m128i, b: __m128i) -> __m128i {
        let lo = _mm_mul_epu32(a, b);
        let cross = _mm_add_epi64(
            _mm_mul_epu32(_mm_srli_epi64::<32>(a), b),
            _mm_mul_epu32(a, _mm_srli_epi64::<32>(b)),
        );
        _mm_add_epi64(lo, _mm_slli_epi64::<32>(cross))
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn and_si(a: __m128i, b: __m128i) -> __m128i {
        _mm_and_si128(a, b)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn or_si(a: __m128i, b: __m128i) -> __m128i {
        _mm_or_si128(a, b)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn xor_si(a: __m128i, b: __m128i) -> __m128i {
        _mm_xor_si128(a, b)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn ones_epi64() -> __m128i {
        _mm_set1_epi64x(1)
    }
    /// Low dwords of the 2 `i64` lanes into dword lanes 0–1.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn gather_lo32(v: __m128i) -> __m128i {
        _mm_shuffle_epi32::<0b00_00_10_00>(v)
    }
    /// Sign-extend dword lanes 0–1 to 2 `i64` lanes without SSE4.1's
    /// `pmovsxdq`: interleave with the arithmetic-shift sign words.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn sext_lo32(v: __m128i) -> __m128i {
        _mm_unpacklo_epi32(v, _mm_srai_epi32::<31>(v))
    }
    /// `pmulld` is SSE4.1; `HAS_MULLO_I32` keeps this unreachable.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn mul32(_a: __m128i, _b: __m128i) -> __m128i {
        unreachable!("32-bit multiply has no exact SSE2 instruction")
    }
    /// `[s0, s2]` from two consecutive pair loads `[s0,s1]`, `[s2,s3]`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn stride2_pd(v0: __m128d, v1: __m128d) -> __m128d {
        _mm_unpacklo_pd(v0, v1)
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn stride2_i64(v0: __m128i, v1: __m128i) -> __m128i {
        _mm_unpacklo_epi64(v0, v1)
    }
    /// `pcmpeqq`/`pcmpgtq` are SSE4.1/4.2; `HAS_CMP_I64` keeps this
    /// unreachable (the dispatcher only sends `i32` compares here).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn cmp_mask_i64(_op: BinOp, _a: __m128i, _b: __m128i) -> __m128i {
        unreachable!("64-bit compare has no SSE2 instruction")
    }
    /// Quiet-predicate compare mask (matches Rust `PartialOrd` on NaN).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn cmp_mask(op: BinOp, a: __m128d, b: __m128d) -> __m128i {
        let m = match op {
            BinOp::Eq => _mm_cmpeq_pd(a, b),
            BinOp::Ne => _mm_cmpneq_pd(a, b),
            BinOp::Lt => _mm_cmplt_pd(a, b),
            BinOp::Le => _mm_cmple_pd(a, b),
            BinOp::Gt => _mm_cmpgt_pd(a, b),
            BinOp::Ge => _mm_cmpge_pd(a, b),
            _ => unreachable!("not a comparison: {op:?}"),
        };
        _mm_castpd_si128(m)
    }

    tier_exec_body!("sse2");
}

/// The 256-bit row: AVX2, runtime-detected. Full capability set —
/// `pmulld` for 32-bit multiplies, `roundpd` for floor, `vpmovsxdq`
/// sign-extension, cross-lane permutes for the stride-2 gather.
pub(crate) mod avx2 {
    use core::arch::x86_64::*;

    const LANES: usize = 4;
    const HAS_MULLO_I32: bool = true;
    const HAS_FLOOR: bool = true;
    const HAS_CMP_I64: bool = true;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_pd(p: *const f64) -> __m256d {
        _mm256_loadu_pd(p)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_pd(p: *mut f64, v: __m256d) {
        _mm256_storeu_pd(p, v)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_pd(a: __m256d, b: __m256d) -> __m256d {
        _mm256_add_pd(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sub_pd(a: __m256d, b: __m256d) -> __m256d {
        _mm256_sub_pd(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_pd(a: __m256d, b: __m256d) -> __m256d {
        _mm256_mul_pd(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn div_pd(a: __m256d, b: __m256d) -> __m256d {
        _mm256_div_pd(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sqrt_pd(a: __m256d) -> __m256d {
        _mm256_sqrt_pd(a)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn abs_pd(v: __m256d) -> __m256d {
        _mm256_and_pd(
            v,
            _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff)),
        )
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn floor_pd(v: __m256d) -> __m256d {
        _mm256_floor_pd(v)
    }
    /// Narrows the 4 `f64` lanes into a full `__m128`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cvt_pd_ps(v: __m256d) -> __m128 {
        _mm256_cvtpd_ps(v)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cvt_ps_pd(v: __m128) -> __m256d {
        _mm256_cvtps_pd(v)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_si(p: *const i64) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_si(p: *mut i64, v: __m256i) {
        _mm256_storeu_si256(p as *mut __m256i, v)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_i64(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi64(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sub_i64(a: __m256i, b: __m256i) -> __m256i {
        _mm256_sub_epi64(a, b)
    }
    /// Lane-wise wrapping 64-bit multiply from `vpmuludq` 32x32 partial
    /// products: `lo*lo + ((lo*hi + hi*lo) << 32)` — see the SSE2 row
    /// for the exactness argument.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_i64(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b),
            _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b)),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn and_si(a: __m256i, b: __m256i) -> __m256i {
        _mm256_and_si256(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn or_si(a: __m256i, b: __m256i) -> __m256i {
        _mm256_or_si256(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn xor_si(a: __m256i, b: __m256i) -> __m256i {
        _mm256_xor_si256(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ones_epi64() -> __m256i {
        _mm256_set1_epi64x(1)
    }
    /// Low dwords of the 4 `i64` lanes into a `__m128i`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_lo32(v: __m256i) -> __m128i {
        let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(v, even))
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sext_lo32(v: __m128i) -> __m256i {
        _mm256_cvtepi32_epi64(v)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul32(a: __m128i, b: __m128i) -> __m128i {
        _mm_mullo_epi32(a, b)
    }
    /// `[s0, s2, s4, s6]` from two consecutive quad loads: in-lane
    /// unpack gives `[s0, s4, s2, s6]`, the cross-lane permute
    /// `(0,2,1,3)` restores element order.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn stride2_pd(v0: __m256d, v1: __m256d) -> __m256d {
        _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpacklo_pd(v0, v1))
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn stride2_i64(v0: __m256i, v1: __m256i) -> __m256i {
        _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_unpacklo_epi64(v0, v1))
    }
    /// Signed qword compare mask: `vpcmpeqq`/`vpcmpgtq` for the base
    /// predicates, complements for the rest.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmp_mask_i64(op: BinOp, a: __m256i, b: __m256i) -> __m256i {
        let ones = _mm256_set1_epi64x(-1);
        match op {
            BinOp::Eq => _mm256_cmpeq_epi64(a, b),
            BinOp::Ne => _mm256_xor_si256(_mm256_cmpeq_epi64(a, b), ones),
            BinOp::Lt => _mm256_cmpgt_epi64(b, a),
            BinOp::Gt => _mm256_cmpgt_epi64(a, b),
            BinOp::Le => _mm256_xor_si256(_mm256_cmpgt_epi64(a, b), ones),
            BinOp::Ge => _mm256_xor_si256(_mm256_cmpgt_epi64(b, a), ones),
            _ => unreachable!("not a comparison: {op:?}"),
        }
    }
    /// Quiet-predicate compare mask (matches Rust `PartialOrd` on NaN).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmp_mask(op: BinOp, a: __m256d, b: __m256d) -> __m256i {
        let m = match op {
            BinOp::Eq => _mm256_cmp_pd::<_CMP_EQ_OQ>(a, b),
            BinOp::Ne => _mm256_cmp_pd::<_CMP_NEQ_UQ>(a, b),
            BinOp::Lt => _mm256_cmp_pd::<_CMP_LT_OQ>(a, b),
            BinOp::Le => _mm256_cmp_pd::<_CMP_LE_OQ>(a, b),
            BinOp::Gt => _mm256_cmp_pd::<_CMP_GT_OQ>(a, b),
            BinOp::Ge => _mm256_cmp_pd::<_CMP_GE_OQ>(a, b),
            _ => unreachable!("not a comparison: {op:?}"),
        };
        _mm256_castpd_si256(m)
    }

    tier_exec_body!("avx2");
}

#[cfg(test)]
mod tests {
    use super::super::{exec_kop_portable, ChainDom, ChainKind, ChainStage, KOp, KernelTier};
    use crate::bytecode::Regs;
    use macross_streamir::expr::{BinOp, Intrinsic};
    use macross_streamir::types::ScalarTy;

    fn mk_regs() -> Regs {
        let mut r = Regs::new(48, 48);
        for (k, x) in r.i.iter_mut().enumerate() {
            *x = ((k as i64 * 2654435761) % 97) - 48;
        }
        for (k, x) in r.f.iter_mut().enumerate() {
            *x = (((k as f64) * 0.37 - 3.0) as f32) as f64;
        }
        r
    }

    fn ops_under_test() -> Vec<KOp> {
        let w = 7u32; // odd width exercises every scalar remainder
        vec![
            KOp::AddF32 {
                dst: 16,
                a: 0,
                b: 8,
                w,
            },
            KOp::MulF32 {
                dst: 24,
                a: 16,
                b: 0,
                w,
            },
            KOp::DivF32 {
                dst: 16,
                a: 24,
                b: 8,
                w,
            },
            KOp::AddF64 {
                dst: 24,
                a: 0,
                b: 16,
                w,
            },
            KOp::MulI32 {
                dst: 16,
                a: 0,
                b: 8,
                w,
            },
            KOp::SubI32 {
                dst: 24,
                a: 16,
                b: 0,
                w,
            },
            KOp::AddI64 {
                dst: 16,
                a: 24,
                b: 8,
                w,
            },
            KOp::XorI {
                dst: 24,
                a: 16,
                b: 0,
                w,
            },
            KOp::MulI64 {
                dst: 16,
                a: 24,
                b: 8,
                w,
            },
            KOp::PermF {
                parity: 0,
                dst: 32,
                a: 0,
                b: 8,
                w: 8,
            },
            KOp::PermF {
                parity: 1,
                dst: 32,
                a: 0,
                b: 8,
                w: 7,
            },
            KOp::PermI {
                parity: 1,
                dst: 32,
                a: 0,
                b: 8,
                w: 8,
            },
            KOp::CmpF {
                op: BinOp::Le,
                dst: 40,
                a: 0,
                b: 8,
                w,
            },
            KOp::CmpF {
                op: BinOp::Ne,
                dst: 40,
                a: 8,
                b: 16,
                w,
            },
            KOp::MulI64 {
                dst: 32,
                a: 0,
                b: 8,
                w,
            },
            KOp::CmpI {
                op: BinOp::Lt,
                ty: ScalarTy::I32,
                dst: 40,
                a: 0,
                b: 8,
                w,
            },
            KOp::CmpI {
                op: BinOp::Ge,
                ty: ScalarTy::I64,
                dst: 40,
                a: 8,
                b: 16,
                w,
            },
            KOp::CmpI {
                op: BinOp::Ne,
                ty: ScalarTy::I64,
                dst: 40,
                a: 16,
                b: 24,
                w,
            },
            KOp::CastFF {
                to: ScalarTy::F32,
                dst: 32,
                a: 16,
                w,
            },
            KOp::Call1F {
                i: Intrinsic::Abs,
                ty: ScalarTy::F32,
                dst: 32,
                a: 0,
                w,
            },
            KOp::Call1F {
                i: Intrinsic::Sqrt,
                ty: ScalarTy::F64,
                dst: 32,
                a: 8,
                w,
            },
            KOp::Call1F {
                i: Intrinsic::Floor,
                ty: ScalarTy::F32,
                dst: 32,
                a: 16,
                w,
            },
            KOp::Chain {
                dom: ChainDom::F32,
                a: 0,
                w,
                stages: Box::new([
                    ChainStage {
                        kind: ChainKind::Mul,
                        other: 8,
                        store: None,
                    },
                    ChainStage {
                        kind: ChainKind::Add,
                        other: 16,
                        store: Some(32),
                    },
                    ChainStage {
                        kind: ChainKind::RSub,
                        other: 8,
                        store: Some(24),
                    },
                ]),
            },
            KOp::Chain {
                dom: ChainDom::I32,
                a: 0,
                w,
                stages: Box::new([
                    ChainStage {
                        kind: ChainKind::Mul,
                        other: 8,
                        store: None,
                    },
                    ChainStage {
                        kind: ChainKind::Add,
                        other: 16,
                        store: Some(32),
                    },
                ]),
            },
            KOp::Chain {
                dom: ChainDom::I64,
                a: 0,
                w,
                stages: Box::new([
                    ChainStage {
                        kind: ChainKind::Xor,
                        other: 8,
                        store: None,
                    },
                    ChainStage {
                        kind: ChainKind::Mul,
                        other: 16,
                        store: Some(24),
                    },
                    ChainStage {
                        kind: ChainKind::Sub,
                        other: 16,
                        store: Some(32),
                    },
                ]),
            },
        ]
    }

    #[test]
    fn intrinsic_tiers_match_portable_lane_for_lane() {
        for tier in [KernelTier::Sse2, KernelTier::Avx2] {
            if !tier.available() {
                continue;
            }
            let ops = ops_under_test();
            let (mut rt, mut rp) = (mk_regs(), mk_regs());
            match tier {
                KernelTier::Sse2 => unsafe { super::sse2::exec(&ops, &mut rt) },
                KernelTier::Avx2 => unsafe { super::avx2::exec(&ops, &mut rt) },
                KernelTier::Portable => unreachable!(),
            }
            for op in &ops {
                exec_kop_portable(op, &mut rp);
            }
            assert_eq!(rt.i, rp.i, "{} int file", tier.label());
            let bits = |r: &Regs| r.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&rt), bits(&rp), "{} float file", tier.label());
        }
    }
}
