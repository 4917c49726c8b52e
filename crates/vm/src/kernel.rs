//! Superblock kernel fusion: a post-pass over compiled firing bytecode
//! that collapses straight-line runs of pure register ops into single
//! [`Kernel`]s executed over contiguous register slices.
//!
//! The dispatch loop in [`crate::bytecode::run_code`] pays, per executed
//! op, one opcode dispatch, one `(operator, type)` resolution inside
//! `crate::lanes`, a window check, and a round trip through the
//! register file for every value. Fusion goes after what is left of
//! that: at compile time each fusible [`Op`] is lowered to a [`KOp`] with
//! the operator/type pre-resolved and its windows proven in bounds, each
//! maximal run becomes one `Op::Kernel` the interpreter executes in a
//! single dispatch, redundant ops inside it are pruned, and
//! producer→consumer ladders keep their accumulator in a machine
//! register. The lane work itself is no cheaper fused than dispatched
//! unless a tier brings real vector instructions to it — the portable
//! tier executes a `KOp` by calling the very lane loop the dispatch arm
//! calls — which is why the profitability gate (`tier_threshold`) asks
//! a run to earn its kernel entry, and why the portable tier fuses
//! nothing by default.
//!
//! A width-parameterized **tier matrix** executes the same `KOp` stream
//! (DESIGN.md §16):
//!
//! - **Portable** ([`KernelTier::Portable`], `exec_kop_portable`): safe
//!   Rust over the shared lane loops of `crate::lanes`, vectorized by
//!   LLVM at whatever width the build target has — the scalable-width
//!   tier, the fallback the intrinsic tiers call for ops they have no
//!   exact instruction for, and the reference they are tested against.
//!   Always available and the only tier off x86-64.
//! - **SSE2** ([`KernelTier::Sse2`], [`x86::sse2`]): 128-bit intrinsic
//!   paths — the x86-64 baseline, present on every x86-64 CPU.
//! - **AVX2** ([`KernelTier::Avx2`], [`x86::avx2`]): 256-bit intrinsic
//!   paths, runtime-feature-detected (`is_x86_feature_detected!`).
//!
//! Both intrinsic tiers are generated from one shared exec body
//! parameterized over the tier's vector types and lane count, so adding a
//! width is a matter of supplying the wrapper row, not re-deriving the
//! dispatch logic. Variants a tier has no exact instruction for fall
//! through to the portable code. All `unsafe` is confined to the [`x86`]
//! module. Tier selection is runtime feature detection, overridable with
//! `MACROSS_KERNEL_TIER=portable|sse2|avx2`.
//!
//! # Register-resident chains
//!
//! After the alias passes, [`form_chains`] collapses producer→consumer
//! runs of specialized arithmetic — each op reading the previous op's
//! destination as exactly one operand — into a single [`KOp::Chain`]
//! that loads the accumulator once, applies every stage in-register, and
//! stores each destination range only at its *last* write (intermediate
//! writebacks whose range is rewritten later in the chain are elided).
//! This removes the store-to-load round trip through the register file
//! that otherwise dominates fused FMA chains. Legality (checked at
//! formation) guarantees every execution order that preserves per-lane
//! stage order is bit-identical to the original op sequence: every pair
//! of ranges the chain touches — the accumulator load, each stage's
//! `other` operand, each destination — is identical-or-disjoint, so
//! identical ranges stay lane-aligned and disjoint ranges never
//! interact. Stores surviving elision are exactly those whose range is
//! read again before being rewritten, plus each range's last write.
//!
//! # Fusion legality
//!
//! Only *pure register ops* fuse: moves, arithmetic, comparisons, casts,
//! intrinsic calls, splats and permutations (constants are pool registers,
//! not ops). Tape, channel and array ops, control flow (the loop ops
//! included), and [`Op::Charge`] / [`Op::ChargeTimes`] never fuse —
//! leaving the charges unfused keeps `CycleCounters` bit-identical for
//! free. A run never extends across a jump target (basic-block leader),
//! so every jump still lands on a real instruction. The fused ops stay
//! in place behind the `Op::Kernel` marker; the interpreter skips them
//! via the kernel's `span`, which preserves all jump targets without
//! rewriting a single index.
//!
//! Backend-specialized variants (e.g. [`KOp::AddF32`]) additionally
//! require the destination range to be disjoint from both source ranges
//! and fully in-bounds — verified at fusion time; a violating op degrades
//! to its generic variant, which goes through the lane loop's own window
//! check and so keeps `run_code`'s exact per-lane write order (aliasing
//! included).
//!
//! # Bit-exactness
//!
//! Every portable variant, generic or specialized, runs the lane loop
//! `run_code` runs for the same `(op, ty)`, over the same scalar helpers
//! (`f32` domain: narrow, op, widen; `i32` domain: truncate, wrapping
//! op, sign-extend). The AVX2 paths use conversion instructions
//! (`vcvtpd2ps` / `vcvtps2pd` / `vpmovsxdq`) that are exactly the
//! per-lane Rust `as` casts, so all three execution paths produce
//! bit-identical register files. The engine differential suite enforces
//! this across every benchmark.

use crate::bytecode::{Op, Regs};
use crate::lanes;
use macross_streamir::expr::{BinOp, Intrinsic};
use macross_streamir::types::ScalarTy;

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// Minimum fusible run length: a 1-op "kernel" would only add overhead.
const MIN_RUN: usize = 2;

/// Minimum chain length: a 1-stage "chain" is just the op itself, with
/// the chain dispatch overhead added for nothing.
const MIN_CHAIN: usize = 2;

/// One tier of the kernel backend matrix. Chosen once per
/// [`crate::compile::compile_filter_opts`] call and stored on the
/// compiled plan, so one process can compare tiers by recompiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Safe Rust slice loops, written for LLVM autovectorization — the
    /// scalable-width tier: vector width is whatever the build target
    /// gives the autovectorizer. Always available, on every arch.
    Portable,
    /// 128-bit `core::arch::x86_64` intrinsics. SSE2 is part of the
    /// x86-64 baseline, so this tier is available on every x86-64 CPU.
    Sse2,
    /// 256-bit `core::arch::x86_64` intrinsics; needs runtime-detected
    /// AVX2.
    Avx2,
}

impl KernelTier {
    /// Every tier in the matrix, narrowest last.
    pub const ALL: [KernelTier; 3] = [KernelTier::Avx2, KernelTier::Sse2, KernelTier::Portable];

    /// Stable label for reports and `MACROSS_KERNEL_TIER` values.
    pub fn label(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Inverse of [`label`](Self::label); `None` for labels outside the
    /// matrix.
    pub fn from_label(s: &str) -> Option<KernelTier> {
        match s {
            "portable" => Some(KernelTier::Portable),
            "sse2" => Some(KernelTier::Sse2),
            "avx2" => Some(KernelTier::Avx2),
            _ => None,
        }
    }

    /// Nominal vector width in bits; 0 for the scalable portable tier.
    pub fn width_bits(self) -> u32 {
        match self {
            KernelTier::Portable => 0,
            KernelTier::Sse2 => 128,
            KernelTier::Avx2 => 256,
        }
    }

    /// Whether this process can execute the tier: portable always,
    /// SSE2 on any x86-64, AVX2 only where detection finds it.
    pub fn available(self) -> bool {
        match self {
            KernelTier::Portable => true,
            KernelTier::Sse2 => cfg!(target_arch = "x86_64"),
            KernelTier::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    avx2_available()
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

/// Tier for a given override state — the pure core of [`select_tier`],
/// testable without touching the process environment.
///
/// Precedence: an explicit `MACROSS_KERNEL_TIER` label wins (an unknown
/// label or an unavailable tier is an error — running a tier the CPU
/// lacks would be undefined behavior, so selection refuses loudly rather
/// than silently degrading a forced-tier CI run to a different tier);
/// then detection — the widest available tier.
fn tier_for(env_tier: Option<&str>) -> Result<KernelTier, String> {
    if let Some(s) = env_tier.filter(|s| !s.is_empty()) {
        let tier = KernelTier::from_label(s).ok_or_else(|| {
            format!("MACROSS_KERNEL_TIER={s:?} is not a tier the matrix recognizes (portable|sse2|avx2)")
        })?;
        if !tier.available() {
            return Err(format!(
                "MACROSS_KERNEL_TIER={} requested but this CPU cannot execute it",
                tier.label()
            ));
        }
        return Ok(tier);
    }
    Ok(*KernelTier::ALL
        .iter()
        .find(|t| t.available())
        .unwrap_or(&KernelTier::Portable))
}

/// Select the kernel tier: `MACROSS_KERNEL_TIER` if set (panics on an
/// unknown or unavailable tier — see [`tier_for`]), else the widest tier
/// runtime detection finds. Read per compile (not in the firing hot
/// path), so a test can flip tiers between compilations inside one
/// process.
pub fn select_tier() -> KernelTier {
    let env_tier = std::env::var("MACROSS_KERNEL_TIER").ok();
    match tier_for(env_tier.as_deref()) {
        Ok(t) => t,
        Err(e) => panic!("{e}"),
    }
}

/// One fused superblock: the pre-resolved ops and how many original
/// bytecode slots they cover (the interpreter advances `pc` by `span`).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Original ops covered (for the `pc` skip). At least `kops.len()` —
    /// redundancy pruning can make the fused form shorter than the run.
    pub span: u32,
    /// Pre-resolved ops, in original program order.
    pub kops: Box<[KOp]>,
}

/// A fused op. Scalar ops are width-1 vector ops here; specialized
/// arithmetic variants carry a proven-disjoint destination range, generic
/// variants replicate [`crate::bytecode::run_code`]'s lane loops with the
/// operator/type match hoisted out of the per-lane path.
#[derive(Debug, Clone, PartialEq)]
pub enum KOp {
    /// `copy_within` — alias-safe, like `Op::MovNI`.
    MovNI {
        dst: u32,
        src: u32,
        w: u32,
    },
    MovNF {
        dst: u32,
        src: u32,
        w: u32,
    },
    /// Broadcast (reads the scalar before filling, so overlap is safe).
    SplatI {
        dst: u32,
        a: u32,
        w: u32,
    },
    SplatF {
        dst: u32,
        a: u32,
        w: u32,
    },
    /// `extract_even`/`extract_odd`; the firing compiler never lets
    /// `dst` overlap `a` or `b`.
    PermI {
        parity: u32,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    PermF {
        parity: u32,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    /// `i[dst] = f[a] as i64`.
    FToI {
        dst: u32,
        a: u32,
    },
    /// Indexed vector-array element load, `Op::LoadVElemI` verbatim:
    /// `i[dst..dst+w] = i[base + i[idx]*w ..]`. The element index is
    /// dynamic (bounds-asserted at execution like the dispatch path), so
    /// the footprint conservatively reads the whole `len * w` array —
    /// these are the moves that let fused runs span an actor's panelized
    /// region state instead of breaking at every state access.
    LoadVElemI {
        dst: u32,
        base: u32,
        len: u32,
        idx: u32,
        w: u32,
    },
    LoadVElemF {
        dst: u32,
        base: u32,
        len: u32,
        idx: u32,
        w: u32,
    },
    /// Indexed vector-array element store, `Op::StoreVElemI` verbatim:
    /// `i[base + i[idx]*w ..] = i[src..src+w]`. The footprint writes the
    /// whole array conservatively *and* lists it as read (a may-write of
    /// one panel preserves every other panel's bits), which keeps the
    /// alias passes from treating the array as fully overwritten.
    StoreVElemI {
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
        w: u32,
    },
    StoreVElemF {
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
        w: u32,
    },

    // --- Backend-specialized arithmetic (dst disjoint from srcs, all
    // ranges in-bounds — verified at fusion time) ----------------------
    AddF32 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    SubF32 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    MulF32 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    DivF32 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    AddF64 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    SubF64 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    MulF64 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    DivF64 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    AddI32 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    SubI32 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    MulI32 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    AddI64 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    SubI64 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    MulI64 {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    /// Domain-independent on the sign-extended representation: the upper
    /// 32 bits of a lane-wise `&`/`|`/`^` of two sign-extended values are
    /// exactly the sign-extension of the result's bit 31.
    AndI {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    OrI {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    XorI {
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },

    // --- Generic exact fallbacks (identical to run_code lane loops) ----
    BinI {
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    BinF {
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    CmpF {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    /// Integer compare producing 0/1 lanes, specialized like the
    /// arithmetic variants (dst disjoint from sources, verified at
    /// fusion time). Sign extension preserves order, so the 64-bit
    /// predicate is exact for both widths; `ty` only gates which tiers
    /// have a native mask instruction for it.
    CmpI {
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    NegI {
        ty: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    NegF {
        dst: u32,
        a: u32,
        w: u32,
    },
    NotI {
        ty: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    LogNotI {
        dst: u32,
        a: u32,
        w: u32,
    },
    LogNotF {
        dst: u32,
        a: u32,
        w: u32,
    },
    CastII {
        from: ScalarTy,
        to: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    CastIF {
        to: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    CastFI {
        to: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    CastFF {
        to: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    /// Unary integer intrinsic (always `Abs`).
    Call1I {
        ty: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    Call2I {
        i: Intrinsic,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },
    Call1F {
        i: Intrinsic,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        w: u32,
    },
    Call2F {
        i: Intrinsic,
        ty: ScalarTy,
        dst: u32,
        a: u32,
        b: u32,
        w: u32,
    },

    // --- Register-resident chain (formed by `form_chains` from runs of
    // the specialized arithmetic variants above; see module docs) ------
    Chain {
        dom: ChainDom,
        /// Accumulator load range `[a, a+w)`.
        a: u32,
        w: u32,
        stages: Box<[ChainStage]>,
    },
}

/// Value domain of a register-resident chain. Determines the in-register
/// accumulator representation: `F32`/`I32` chains keep the accumulator
/// narrow (the specialized ops narrow per-stage anyway, so narrowing once
/// at the load is bit-identical), `F64`/`I64` keep it full-width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainDom {
    F32,
    F64,
    I32,
    I64,
}

/// One chain stage: `acc = acc <kind> other` (or reversed for
/// `RSub`/`RDiv`, which encode the original op reading the accumulator as
/// its *right* operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainKind {
    Add,
    Sub,
    Mul,
    Div,
    RSub,
    RDiv,
    And,
    Or,
    Xor,
}

/// One producer→consumer step of a [`KOp::Chain`]. `other` is the
/// non-accumulator operand range `[other, other+w)`; `store` is the
/// destination range start when this stage's result must be written back
/// (always for the last write of each destination range, elided when a
/// later stage rewrites the identical range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStage {
    pub kind: ChainKind,
    pub other: u32,
    pub store: Option<u32>,
}

// ---------------------------------------------------------------------
// Fusion pass
// ---------------------------------------------------------------------

/// `[lo, lo+w)` and `[r, r+w)` do not overlap.
fn disjoint(lo: u32, r: u32, w: u32) -> bool {
    r + w <= lo || r >= lo + w
}

/// Specialized-variant legality: destination disjoint from both sources
/// and every range inside the register file.
fn specializable(dst: u32, a: u32, b: u32, w: u32, file_len: u32) -> bool {
    let fits = |r: u32| r.checked_add(w).is_some_and(|end| end <= file_len);
    fits(dst) && fits(a) && fits(b) && disjoint(dst, a, w) && disjoint(dst, b, w)
}

/// Map an integer binary op to its specialized variant, if one exists
/// and the operand layout permits; generic [`KOp::BinI`] otherwise.
#[allow(clippy::too_many_arguments)]
fn kop_bin_i(op: BinOp, ty: ScalarTy, dst: u32, a: u32, b: u32, w: u32, int_regs: u32) -> KOp {
    if op.is_comparison() && specializable(dst, a, b, w, int_regs) {
        return KOp::CmpI {
            op,
            ty,
            dst,
            a,
            b,
            w,
        };
    }
    if !op.is_comparison() && specializable(dst, a, b, w, int_regs) {
        match (op, ty) {
            (BinOp::Add, ScalarTy::I32) => return KOp::AddI32 { dst, a, b, w },
            (BinOp::Sub, ScalarTy::I32) => return KOp::SubI32 { dst, a, b, w },
            (BinOp::Mul, ScalarTy::I32) => return KOp::MulI32 { dst, a, b, w },
            (BinOp::Add, ScalarTy::I64) => return KOp::AddI64 { dst, a, b, w },
            (BinOp::Sub, ScalarTy::I64) => return KOp::SubI64 { dst, a, b, w },
            (BinOp::Mul, ScalarTy::I64) => return KOp::MulI64 { dst, a, b, w },
            (BinOp::And, _) => return KOp::AndI { dst, a, b, w },
            (BinOp::Or, _) => return KOp::OrI { dst, a, b, w },
            (BinOp::Xor, _) => return KOp::XorI { dst, a, b, w },
            _ => {}
        }
    }
    KOp::BinI {
        op,
        ty,
        dst,
        a,
        b,
        w,
    }
}

/// Map a float binary op, preferring the specialized variant.
#[allow(clippy::too_many_arguments)]
fn kop_bin_f(op: BinOp, ty: ScalarTy, dst: u32, a: u32, b: u32, w: u32, float_regs: u32) -> KOp {
    if specializable(dst, a, b, w, float_regs) {
        match (op, ty) {
            (BinOp::Add, ScalarTy::F32) => return KOp::AddF32 { dst, a, b, w },
            (BinOp::Sub, ScalarTy::F32) => return KOp::SubF32 { dst, a, b, w },
            (BinOp::Mul, ScalarTy::F32) => return KOp::MulF32 { dst, a, b, w },
            (BinOp::Div, ScalarTy::F32) => return KOp::DivF32 { dst, a, b, w },
            (BinOp::Add, ScalarTy::F64) => return KOp::AddF64 { dst, a, b, w },
            (BinOp::Sub, ScalarTy::F64) => return KOp::SubF64 { dst, a, b, w },
            (BinOp::Mul, ScalarTy::F64) => return KOp::MulF64 { dst, a, b, w },
            (BinOp::Div, ScalarTy::F64) => return KOp::DivF64 { dst, a, b, w },
            _ => {}
        }
    }
    KOp::BinF {
        op,
        ty,
        dst,
        a,
        b,
        w,
    }
}

/// Lower one bytecode op to a fused op, or `None` for non-fusible ops
/// (tape/channel/array accesses, control flow, charges).
pub(crate) fn lower(op: &Op, int_regs: u32, float_regs: u32) -> Option<KOp> {
    Some(match *op {
        Op::MovI { dst, src } => KOp::MovNI { dst, src, w: 1 },
        Op::MovF { dst, src } => KOp::MovNF { dst, src, w: 1 },
        Op::MovNI { dst, src, w } => KOp::MovNI { dst, src, w },
        Op::MovNF { dst, src, w } => KOp::MovNF { dst, src, w },
        Op::FToI { dst, a } => KOp::FToI { dst, a },
        Op::BinI { op, ty, dst, a, b } => kop_bin_i(op, ty, dst, a, b, 1, int_regs),
        Op::VBinI {
            op,
            ty,
            dst,
            a,
            b,
            w,
        } => kop_bin_i(op, ty, dst, a, b, w, int_regs),
        Op::BinF { op, ty, dst, a, b } => kop_bin_f(op, ty, dst, a, b, 1, float_regs),
        Op::VBinF {
            op,
            ty,
            dst,
            a,
            b,
            w,
        } => kop_bin_f(op, ty, dst, a, b, w, float_regs),
        Op::CmpF { op, dst, a, b } => KOp::CmpF {
            op,
            dst,
            a,
            b,
            w: 1,
        },
        Op::VCmpF { op, dst, a, b, w } => KOp::CmpF { op, dst, a, b, w },
        Op::NegI { ty, dst, a } => KOp::NegI { ty, dst, a, w: 1 },
        Op::VNegI { ty, dst, a, w } => KOp::NegI { ty, dst, a, w },
        Op::NegF { dst, a } => KOp::NegF { dst, a, w: 1 },
        Op::VNegF { dst, a, w } => KOp::NegF { dst, a, w },
        Op::NotI { ty, dst, a } => KOp::NotI { ty, dst, a, w: 1 },
        Op::VNotI { ty, dst, a, w } => KOp::NotI { ty, dst, a, w },
        Op::LogNotI { dst, a } => KOp::LogNotI { dst, a, w: 1 },
        Op::VLogNotI { dst, a, w } => KOp::LogNotI { dst, a, w },
        Op::LogNotF { dst, a } => KOp::LogNotF { dst, a, w: 1 },
        Op::VLogNotF { dst, a, w } => KOp::LogNotF { dst, a, w },
        Op::CastII { from, to, dst, a } => KOp::CastII {
            from,
            to,
            dst,
            a,
            w: 1,
        },
        Op::VCastII {
            from,
            to,
            dst,
            a,
            w,
        } => KOp::CastII {
            from,
            to,
            dst,
            a,
            w,
        },
        Op::CastIF { to, dst, a } => KOp::CastIF { to, dst, a, w: 1 },
        Op::VCastIF { to, dst, a, w } => KOp::CastIF { to, dst, a, w },
        Op::CastFI { to, dst, a } => KOp::CastFI { to, dst, a, w: 1 },
        Op::VCastFI { to, dst, a, w } => KOp::CastFI { to, dst, a, w },
        Op::CastFF { to, dst, a } => KOp::CastFF { to, dst, a, w: 1 },
        Op::VCastFF { to, dst, a, w } => KOp::CastFF { to, dst, a, w },
        Op::Call1I { ty, dst, a, .. } => KOp::Call1I { ty, dst, a, w: 1 },
        Op::VCall1I { ty, dst, a, w, .. } => KOp::Call1I { ty, dst, a, w },
        Op::Call2I { i, dst, a, b } => KOp::Call2I { i, dst, a, b, w: 1 },
        Op::VCall2I { i, dst, a, b, w } => KOp::Call2I { i, dst, a, b, w },
        Op::Call1F { i, ty, dst, a } => KOp::Call1F {
            i,
            ty,
            dst,
            a,
            w: 1,
        },
        Op::VCall1F { i, ty, dst, a, w } => KOp::Call1F { i, ty, dst, a, w },
        Op::Call2F { i, ty, dst, a, b } => KOp::Call2F {
            i,
            ty,
            dst,
            a,
            b,
            w: 1,
        },
        Op::VCall2F {
            i,
            ty,
            dst,
            a,
            b,
            w,
        } => KOp::Call2F {
            i,
            ty,
            dst,
            a,
            b,
            w,
        },
        Op::SplatI { dst, a, w } => KOp::SplatI { dst, a, w },
        Op::SplatF { dst, a, w } => KOp::SplatF { dst, a, w },
        Op::PermI {
            parity,
            dst,
            a,
            b,
            w,
        } => KOp::PermI {
            parity,
            dst,
            a,
            b,
            w,
        },
        Op::PermF {
            parity,
            dst,
            a,
            b,
            w,
        } => KOp::PermF {
            parity,
            dst,
            a,
            b,
            w,
        },
        // Panelized region state: indexed vector-array moves are pure
        // register-file traffic, so runs may span them (the arithmetic
        // between a panel load and its writeback then chains normally).
        Op::LoadVElemI {
            dst,
            base,
            len,
            idx,
            w,
        } => KOp::LoadVElemI {
            dst,
            base,
            len,
            idx,
            w,
        },
        Op::LoadVElemF {
            dst,
            base,
            len,
            idx,
            w,
        } => KOp::LoadVElemF {
            dst,
            base,
            len,
            idx,
            w,
        },
        Op::StoreVElemI {
            base,
            len,
            idx,
            src,
            w,
        } => KOp::StoreVElemI {
            base,
            len,
            idx,
            src,
            w,
        },
        Op::StoreVElemF {
            base,
            len,
            idx,
            src,
            w,
        } => KOp::StoreVElemF {
            base,
            len,
            idx,
            src,
            w,
        },
        _ => return None,
    })
}

/// Register space a fused-op range lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    I,
    F,
}

/// A `(space, start, len)` register range.
type RegRange = (Space, u32, u32);

fn overlaps(a: RegRange, b: RegRange) -> bool {
    a.0 == b.0 && a.1 < b.1 + b.2 && b.1 < a.1 + a.2
}

/// The single range a fused op writes and the (up to three) ranges it
/// reads — the alias footprint the redundancy pruner works over.
fn footprint(op: &KOp) -> (RegRange, [Option<RegRange>; 3]) {
    use Space::{F, I};
    let r1 = |r| [Some(r), None, None];
    let r2 = |a, b| [Some(a), Some(b), None];
    let r3 = |a, b, c| [Some(a), Some(b), Some(c)];
    match *op {
        KOp::MovNI { dst, src, w } => ((I, dst, w), r1((I, src, w))),
        KOp::MovNF { dst, src, w } => ((F, dst, w), r1((F, src, w))),
        KOp::SplatI { dst, a, w } => ((I, dst, w), r1((I, a, 1))),
        KOp::SplatF { dst, a, w } => ((F, dst, w), r1((F, a, 1))),
        KOp::PermI { dst, a, b, w, .. } => ((I, dst, w), r2((I, a, w), (I, b, w))),
        KOp::PermF { dst, a, b, w, .. } => ((F, dst, w), r2((F, a, w), (F, b, w))),
        KOp::FToI { dst, a } => ((I, dst, 1), r1((F, a, 1))),
        KOp::LoadVElemI {
            dst,
            base,
            len,
            idx,
            w,
        } => ((I, dst, w), r2((I, base, len * w), (I, idx, 1))),
        KOp::LoadVElemF {
            dst,
            base,
            len,
            idx,
            w,
        } => ((F, dst, w), r2((F, base, len * w), (I, idx, 1))),
        // The array range is both the (conservative, may-write) write and
        // a read: every lane the store does not dynamically hit keeps its
        // prior bits. Listing it as read makes the write-covers check in
        // [`drop_dead_copies`] unreachable for ops under it and keeps
        // [`prune_idempotent`] from ever treating a store as idempotent.
        KOp::StoreVElemI {
            base,
            len,
            idx,
            src,
            w,
        } => (
            (I, base, len * w),
            r3((I, src, w), (I, idx, 1), (I, base, len * w)),
        ),
        KOp::StoreVElemF {
            base,
            len,
            idx,
            src,
            w,
        } => (
            (F, base, len * w),
            r3((F, src, w), (I, idx, 1), (F, base, len * w)),
        ),
        KOp::AddF32 { dst, a, b, w }
        | KOp::SubF32 { dst, a, b, w }
        | KOp::MulF32 { dst, a, b, w }
        | KOp::DivF32 { dst, a, b, w }
        | KOp::AddF64 { dst, a, b, w }
        | KOp::SubF64 { dst, a, b, w }
        | KOp::MulF64 { dst, a, b, w }
        | KOp::DivF64 { dst, a, b, w }
        | KOp::BinF { dst, a, b, w, .. }
        | KOp::Call2F { dst, a, b, w, .. } => ((F, dst, w), r2((F, a, w), (F, b, w))),
        KOp::AddI32 { dst, a, b, w }
        | KOp::SubI32 { dst, a, b, w }
        | KOp::MulI32 { dst, a, b, w }
        | KOp::AddI64 { dst, a, b, w }
        | KOp::SubI64 { dst, a, b, w }
        | KOp::MulI64 { dst, a, b, w }
        | KOp::AndI { dst, a, b, w }
        | KOp::OrI { dst, a, b, w }
        | KOp::XorI { dst, a, b, w }
        | KOp::BinI { dst, a, b, w, .. }
        | KOp::CmpI { dst, a, b, w, .. }
        | KOp::Call2I { dst, a, b, w, .. } => ((I, dst, w), r2((I, a, w), (I, b, w))),
        KOp::CmpF { dst, a, b, w, .. } => ((I, dst, w), r2((F, a, w), (F, b, w))),
        KOp::NegI { dst, a, w, .. }
        | KOp::NotI { dst, a, w, .. }
        | KOp::LogNotI { dst, a, w }
        | KOp::CastII { dst, a, w, .. }
        | KOp::Call1I { dst, a, w, .. } => ((I, dst, w), r1((I, a, w))),
        KOp::NegF { dst, a, w } | KOp::CastFF { dst, a, w, .. } | KOp::Call1F { dst, a, w, .. } => {
            ((F, dst, w), r1((F, a, w)))
        }
        KOp::LogNotF { dst, a, w } | KOp::CastFI { dst, a, w, .. } => ((I, dst, w), r1((F, a, w))),
        KOp::CastIF { dst, a, w, .. } => ((F, dst, w), r1((I, a, w))),
        // Chains write many ranges, which this single-write footprint
        // cannot express. They are formed by `form_chains` *after* every
        // pass that queries footprints (pruning, copy propagation, dead
        // copy elimination) and in-bounds checking has already run on the
        // pre-chain ops, so no footprint is ever taken of one.
        KOp::Chain { .. } => unreachable!("chains are formed after the alias passes"),
    }
}

/// Every range the op touches lies inside the register files. Fusion
/// refuses ops that fail this, so backends may use unchecked accesses
/// for *any* fused op, not just the specialized arithmetic variants.
fn in_bounds(op: &KOp, int_regs: u32, float_regs: u32) -> bool {
    let fits = |r: RegRange| {
        let file = match r.0 {
            Space::I => int_regs,
            Space::F => float_regs,
        };
        (r.1 as u64) + (r.2 as u64) <= file as u64
    };
    let (w, reads) = footprint(op);
    fits(w) && reads.iter().flatten().all(|&r| fits(r))
}

/// Forward a panel store to a following reload. A `LoadVElem*` whose
/// array, element-index register, and width match a still-live
/// `StoreVElem*` — no intervening write to the array, the index
/// register, or the stored source lanes — reads exactly the bits the
/// store wrote (same dynamic element, same bounds outcome), so it
/// becomes a register-to-register `MovN` from the store's source.
/// Region actors emit this shape for every `x = s[cur]` of a cascade:
/// writeback, then reload of the panel just written.
fn forward_panel_loads(kops: &mut [KOp]) {
    struct Live {
        space: Space,
        base: u32,
        len: u32,
        idx: u32,
        src: u32,
        w: u32,
    }
    let mut stores: Vec<Live> = Vec::new();
    for op in kops.iter_mut() {
        // Rewrite a matching reload first: invalidation below then uses
        // the replacement's precise (dst, w) write, not the load's
        // conservative whole-array read.
        let replace = match *op {
            KOp::LoadVElemI {
                dst,
                base,
                len,
                idx,
                w,
            } => stores
                .iter()
                .find(|s| {
                    s.space == Space::I
                        && s.base == base
                        && s.len == len
                        && s.idx == idx
                        && s.w == w
                })
                .map(|s| KOp::MovNI { dst, src: s.src, w }),
            KOp::LoadVElemF {
                dst,
                base,
                len,
                idx,
                w,
            } => stores
                .iter()
                .find(|s| {
                    s.space == Space::F
                        && s.base == base
                        && s.len == len
                        && s.idx == idx
                        && s.w == w
                })
                .map(|s| KOp::MovNF { dst, src: s.src, w }),
            _ => None,
        };
        if let Some(r) = replace {
            *op = r;
        }
        let (wr, _) = footprint(op);
        stores.retain(|s| {
            !overlaps(wr, (s.space, s.base, s.len * s.w))
                && !overlaps(wr, (Space::I, s.idx, 1))
                && !overlaps(wr, (s.space, s.src, s.w))
        });
        match *op {
            KOp::StoreVElemI {
                base,
                len,
                idx,
                src,
                w,
            } => stores.push(Live {
                space: Space::I,
                base,
                len,
                idx,
                src,
                w,
            }),
            KOp::StoreVElemF {
                base,
                len,
                idx,
                src,
                w,
            } => stores.push(Live {
                space: Space::F,
                base,
                len,
                idx,
                src,
                w,
            }),
            _ => {}
        }
    }
}

/// Drop idempotent re-executions: a fused op identical to an earlier one
/// in the same run, with nothing in between touching any register the
/// earlier op read or wrote, rewrites the exact same bits and can go.
/// Unrolled loop bodies re-materialize the same constants every
/// iteration; this collapses them to one materialization per kernel while
/// leaving final register state bit-identical.
///
/// An op whose write range overlaps one of its own read ranges (legal for
/// the generic fallback variants, e.g. `BinI` with `dst == a` from
/// `x = x + c`, or an overlapping `MovN`) is never idempotent: each
/// re-execution reads state its previous execution wrote. Such ops are
/// never offered as dedup candidates — and since equality implies an
/// identical footprint, a self-aliasing op can never match a registered
/// candidate either.
fn prune_idempotent(kops: Vec<KOp>) -> Vec<KOp> {
    let mut out: Vec<KOp> = Vec::with_capacity(kops.len());
    let mut avail: Vec<usize> = Vec::new();
    for k in kops {
        if avail.iter().any(|&e| out[e] == k) {
            continue;
        }
        let (w, r) = footprint(&k);
        avail.retain(|&e| {
            let (ew, er) = footprint(&out[e]);
            !overlaps(ew, w) && !er.iter().flatten().any(|&r| overlaps(r, w))
        });
        out.push(k);
        if !r.iter().flatten().any(|&rr| overlaps(rr, w)) {
            avail.push(out.len() - 1);
        }
    }
    out
}

/// Mutable access to the operands of the backend-specialized arithmetic
/// variants — the only ops copy propagation rewrites. Returns the shared
/// register space, both read operands, the destination, and the width.
fn arith_operands_mut(op: &mut KOp) -> Option<(Space, &mut u32, &mut u32, u32, u32)> {
    use Space::{F, I};
    match op {
        KOp::AddF32 { dst, a, b, w }
        | KOp::SubF32 { dst, a, b, w }
        | KOp::MulF32 { dst, a, b, w }
        | KOp::DivF32 { dst, a, b, w }
        | KOp::AddF64 { dst, a, b, w }
        | KOp::SubF64 { dst, a, b, w }
        | KOp::MulF64 { dst, a, b, w }
        | KOp::DivF64 { dst, a, b, w } => Some((F, a, b, *dst, *w)),
        KOp::AddI32 { dst, a, b, w }
        | KOp::SubI32 { dst, a, b, w }
        | KOp::MulI32 { dst, a, b, w }
        | KOp::AddI64 { dst, a, b, w }
        | KOp::SubI64 { dst, a, b, w }
        | KOp::MulI64 { dst, a, b, w }
        | KOp::AndI { dst, a, b, w }
        | KOp::OrI { dst, a, b, w }
        | KOp::XorI { dst, a, b, w }
        | KOp::CmpI { dst, a, b, w, .. } => Some((I, a, b, *dst, *w)),
        _ => None,
    }
}

/// Forward copy propagation. After `MovN dst <- src` with disjoint
/// ranges, `src` and `dst` hold the same bits until either is rewritten,
/// so an arithmetic read lying fully inside `dst` can read the
/// corresponding `src` registers instead (kept only if it preserves the
/// specialized variants' dst-disjoint-from-sources invariant). This
/// unchains the per-iteration writeback of unrolled accumulator loops
/// from the arithmetic that follows it, so [`drop_dead_copies`] can then
/// remove the copy itself.
fn propagate_copies(kops: &mut [KOp]) {
    // Live copies as (dst range, src start); ranges disjoint, same space.
    // Overlapping dst ranges cannot coexist: recording a copy first
    // invalidates every earlier copy its write touches.
    let mut copies: Vec<(RegRange, u32)> = Vec::new();
    for op in kops.iter_mut() {
        if let Some((sp, a, b, dst, w)) = arith_operands_mut(op) {
            for r in [a, b] {
                if let Some(&((_, cd, _), cs)) = copies
                    .iter()
                    .find(|&&((csp, cd, cw), _)| csp == sp && *r >= cd && *r + w <= cd + cw)
                {
                    let moved = cs + (*r - cd);
                    if disjoint(dst, moved, w) {
                        *r = moved;
                    }
                }
            }
        }
        // A copy's own source forwards through an earlier live copy too
        // (`MovN` is alias-safe `copy_within`, so no disjointness
        // constraint): this collapses forwarded-reload chains like
        // `68 <- 90; 32 <- 68` into `32 <- 90`, leaving the middle copy
        // for [`drop_dead_copies`].
        let mov = match op {
            KOp::MovNI { src, w, .. } => Some((Space::I, src, *w)),
            KOp::MovNF { src, w, .. } => Some((Space::F, src, *w)),
            _ => None,
        };
        if let Some((sp, r, w)) = mov {
            if let Some(&((_, cd, _), cs)) = copies
                .iter()
                .find(|&&((csp, cd, cw), _)| csp == sp && *r >= cd && *r + w <= cd + cw)
            {
                *r = cs + (*r - cd);
            }
        }
        let (wr, _) = footprint(op);
        copies.retain(|&(cdst, csrc)| !overlaps(cdst, wr) && !overlaps((cdst.0, csrc, cdst.2), wr));
        match *op {
            KOp::MovNF { dst, src, w } if disjoint(dst, src, w) => {
                copies.push(((Space::F, dst, w), src));
            }
            KOp::MovNI { dst, src, w } if disjoint(dst, src, w) => {
                copies.push(((Space::I, dst, w), src));
            }
            _ => {}
        }
    }
}

/// Drop a `MovN` whose destination is fully overwritten later in the
/// kernel before any read touches it: execution is straight-line, the
/// later write rewrites every lane, so final register state is
/// bit-identical without it. Sound even when the covering write is
/// itself dropped — its own cover then transitively covers this one with
/// no intervening reads. Together with [`propagate_copies`] this keeps
/// only the last writeback of an unrolled accumulator loop.
fn drop_dead_copies(kops: Vec<KOp>) -> Vec<KOp> {
    let dead = |i: usize| {
        let (w, _) = footprint(&kops[i]);
        for later in &kops[i + 1..] {
            let (jw, jr) = footprint(later);
            if jr.iter().flatten().any(|&r| overlaps(r, w)) {
                return false;
            }
            if jw.0 == w.0 && jw.1 <= w.1 && jw.1 + jw.2 >= w.1 + w.2 {
                return true;
            }
            if overlaps(jw, w) {
                // Partial overwrite: keep, conservatively.
                return false;
            }
        }
        false
    };
    let mut out = Vec::with_capacity(kops.len());
    for (i, k) in kops.iter().enumerate() {
        let copy = matches!(k, KOp::MovNF { .. } | KOp::MovNI { .. });
        if !(copy && dead(i)) {
            out.push(k.clone());
        }
    }
    out
}

// ---------------------------------------------------------------------
// Chain formation
// ---------------------------------------------------------------------

/// Chain-compatibility class of a specialized arithmetic op. Bitwise ops
/// operate on full 64-bit lanes, so they only join `I64`-domain chains:
/// inside an `I32` chain the accumulator's upper 32 bits are not
/// materialized, and a bitwise stage that must store would write a
/// sign-extension of the low 32 bits where the original op wrote the
/// full 64-bit result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainClass {
    F32,
    F64,
    I32,
    I64,
    /// `AndI`/`OrI`/`XorI`: domain-independent, merges with `I64` only.
    Bits,
}

/// Decompose a specialized arithmetic op into chain parts
/// `(class, kind, dst, a, b, w)`; `None` for everything else.
fn chain_parts(op: &KOp) -> Option<(ChainClass, ChainKind, u32, u32, u32, u32)> {
    use ChainClass as C;
    use ChainKind as K;
    Some(match *op {
        KOp::AddF32 { dst, a, b, w } => (C::F32, K::Add, dst, a, b, w),
        KOp::SubF32 { dst, a, b, w } => (C::F32, K::Sub, dst, a, b, w),
        KOp::MulF32 { dst, a, b, w } => (C::F32, K::Mul, dst, a, b, w),
        KOp::DivF32 { dst, a, b, w } => (C::F32, K::Div, dst, a, b, w),
        KOp::AddF64 { dst, a, b, w } => (C::F64, K::Add, dst, a, b, w),
        KOp::SubF64 { dst, a, b, w } => (C::F64, K::Sub, dst, a, b, w),
        KOp::MulF64 { dst, a, b, w } => (C::F64, K::Mul, dst, a, b, w),
        KOp::DivF64 { dst, a, b, w } => (C::F64, K::Div, dst, a, b, w),
        KOp::AddI32 { dst, a, b, w } => (C::I32, K::Add, dst, a, b, w),
        KOp::SubI32 { dst, a, b, w } => (C::I32, K::Sub, dst, a, b, w),
        KOp::MulI32 { dst, a, b, w } => (C::I32, K::Mul, dst, a, b, w),
        KOp::AddI64 { dst, a, b, w } => (C::I64, K::Add, dst, a, b, w),
        KOp::SubI64 { dst, a, b, w } => (C::I64, K::Sub, dst, a, b, w),
        KOp::MulI64 { dst, a, b, w } => (C::I64, K::Mul, dst, a, b, w),
        KOp::AndI { dst, a, b, w } => (C::Bits, K::And, dst, a, b, w),
        KOp::OrI { dst, a, b, w } => (C::Bits, K::Or, dst, a, b, w),
        KOp::XorI { dst, a, b, w } => (C::Bits, K::Xor, dst, a, b, w),
        _ => return None,
    })
}

fn chain_class_merge(cur: ChainClass, next: ChainClass) -> Option<ChainClass> {
    match (cur, next) {
        (a, b) if a == b => Some(a),
        (ChainClass::I64, ChainClass::Bits) | (ChainClass::Bits, ChainClass::I64) => {
            Some(ChainClass::I64)
        }
        _ => None,
    }
}

/// `kind` with its operands swapped — used when the accumulator enters a
/// stage as the *right* operand of the original op.
fn chain_kind_reversed(kind: ChainKind) -> ChainKind {
    match kind {
        ChainKind::Add | ChainKind::Mul | ChainKind::And | ChainKind::Or | ChainKind::Xor => kind,
        ChainKind::Sub => ChainKind::RSub,
        ChainKind::Div => ChainKind::RDiv,
        ChainKind::RSub | ChainKind::RDiv => unreachable!("chain_parts emits base kinds only"),
    }
}

/// Collapse producer→consumer runs of specialized arithmetic into
/// [`KOp::Chain`]s (see module docs). Runs after the alias passes.
///
/// Legality, checked while growing a chain — all ranges have the common
/// width `w`, so two ranges are either *identical* (same start) or they
/// overlap/are disjoint:
///
/// - every stage consumes the previous stage's destination as *exactly
///   one* operand (the accumulator);
/// - every pair of ranges the chain touches (initial accumulator load,
///   every stage's `other`, every destination) is identical-or-disjoint.
///
/// That invariant makes chunk-major execution (all stages on lanes
/// `[k, k+L)` before moving to the next chunk) bit-identical to the
/// original stage-major order: identical ranges are lane-aligned, and
/// for each lane the chunk preserves the stage order of its loads and
/// stores, while disjoint ranges never interact at all. The ping-pong
/// accumulator idiom (`t = x*c; x = t+d; ...`) is legal under it even
/// though a stage rewrites the range the accumulator was loaded from:
/// lane `k` is always loaded before the chunk that stores lane `k`.
///
/// A stage's store is elided when the next stage touching its range is
/// another *write* (or when chains never read it again — then only the
/// range's last write may be elided… it may not: the final value must
/// land). Concretely: keep the store if a later stage *reads* the range
/// before it is rewritten, or if no later stage rewrites it; elide
/// otherwise. Elided values still travel through the accumulator
/// register, so nothing observable changes.
fn form_chains(kops: Vec<KOp>) -> Vec<KOp> {
    let mut out: Vec<KOp> = Vec::with_capacity(kops.len());
    let mut i = 0usize;
    while i < kops.len() {
        let Some((class0, kind0, dst0, a0, b0, w)) = chain_parts(&kops[i]) else {
            out.push(kops[i].clone());
            i += 1;
            continue;
        };
        // Grow greedily. `specializable` already proved each op's dst
        // disjoint from its own sources, so only cross-stage aliasing
        // needs checking here.
        let ok = |x: u32, ys: &[u32]| ys.iter().all(|&y| x == y || disjoint(x, y, w));
        let mut class = class0;
        let mut stages: Vec<(ChainKind, u32, u32)> = vec![(kind0, b0, dst0)];
        let mut ranges: Vec<u32> = vec![a0, b0, dst0];
        let mut prev_dst = dst0;
        let mut j = i + 1;
        while let Some((c2, k2, d2, a2, b2, w2)) = kops.get(j).and_then(chain_parts) {
            if w2 != w {
                break;
            }
            let Some(merged) = chain_class_merge(class, c2) else {
                break;
            };
            let (kind, other) = if a2 == prev_dst && b2 != prev_dst {
                (k2, b2)
            } else if b2 == prev_dst && a2 != prev_dst {
                (chain_kind_reversed(k2), a2)
            } else {
                break;
            };
            if !ok(other, &ranges) || !ok(d2, &ranges) {
                break;
            }
            class = merged;
            stages.push((kind, other, d2));
            for r in [other, d2] {
                if !ranges.contains(&r) {
                    ranges.push(r);
                }
            }
            prev_dst = d2;
            j += 1;
        }
        if stages.len() >= MIN_CHAIN {
            let dom = match class {
                ChainClass::F32 => ChainDom::F32,
                ChainClass::F64 => ChainDom::F64,
                ChainClass::I32 => ChainDom::I32,
                ChainClass::I64 | ChainClass::Bits => ChainDom::I64,
            };
            let staged: Box<[ChainStage]> = stages
                .iter()
                .enumerate()
                .map(|(s, &(kind, other, d))| {
                    // Elide iff the next stage touching this range is
                    // another write: a read in between must see this
                    // store; the range's final value must always land.
                    let mut store = Some(d);
                    for &(_, lo, ld) in &stages[s + 1..] {
                        if lo == d {
                            break; // read first: keep the store
                        }
                        if ld == d {
                            store = None; // rewritten unread: elide
                            break;
                        }
                    }
                    ChainStage { kind, other, store }
                })
                .collect();
            out.push(KOp::Chain {
                dom,
                a: a0,
                w,
                stages: staged,
            });
            i = j;
        } else {
            out.push(kops[i].clone());
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------
// Profitability
// ---------------------------------------------------------------------

/// Number of op-units a fused op contributes: chains carry one unit per
/// stage (they replaced that many ops), everything else is one.
fn op_units(op: &KOp) -> usize {
    match op {
        KOp::Chain { stages, .. } => stages.len(),
        _ => 1,
    }
}

/// Number of op-units `tier` executes with genuine vector code: the
/// specialized slice paths every tier vectorizes, plus the ops only the
/// intrinsic tiers cover (permutations, float compares, f32 rounding
/// casts, `sqrt`/`abs`). Generic fallbacks and bookkeeping count 0.
fn simd_units(op: &KOp, tier: KernelTier) -> usize {
    let wide = |w: u32| w >= 2;
    let intrinsic_tier = matches!(tier, KernelTier::Sse2 | KernelTier::Avx2);
    match *op {
        KOp::AddF32 { w, .. }
        | KOp::SubF32 { w, .. }
        | KOp::MulF32 { w, .. }
        | KOp::DivF32 { w, .. }
        | KOp::AddF64 { w, .. }
        | KOp::SubF64 { w, .. }
        | KOp::MulF64 { w, .. }
        | KOp::DivF64 { w, .. }
        | KOp::AddI32 { w, .. }
        | KOp::SubI32 { w, .. }
        | KOp::MulI32 { w, .. }
        | KOp::AddI64 { w, .. }
        | KOp::SubI64 { w, .. }
        | KOp::MulI64 { w, .. }
        | KOp::AndI { w, .. }
        | KOp::OrI { w, .. }
        | KOp::XorI { w, .. } => wide(w) as usize,
        KOp::Chain { w, ref stages, .. } if wide(w) => stages.len(),
        KOp::Chain { .. } => 0,
        KOp::PermI { w, .. } | KOp::PermF { w, .. } | KOp::CmpF { w, .. } => {
            (intrinsic_tier && wide(w)) as usize
        }
        // SSE2 has dword compares only; 64-bit masks need AVX2.
        KOp::CmpI { ty, w, .. } => {
            (intrinsic_tier && wide(w) && (ty == ScalarTy::I32 || tier == KernelTier::Avx2))
                as usize
        }
        KOp::CastFF { w, .. } => (intrinsic_tier && wide(w)) as usize,
        KOp::Call1F { i, w, .. } => {
            (intrinsic_tier && wide(w) && matches!(i, Intrinsic::Sqrt | Intrinsic::Abs)) as usize
        }
        _ => 0,
    }
}

/// Default profitability threshold per tier; `None` when the tier does
/// not fuse unless told to. Entering a kernel has a fixed cost (kernel
/// lookup, tier dispatch, one non-inlined call) that a run must earn
/// back against a dispatch loop which resolves an op once and moves
/// SIMD-width windows inline (`crate::lanes`). Measured on the
/// 16-program suite (EXPERIMENTS.md, "Dispatch loop"): both intrinsic
/// tiers lose below 48, break even there and stay level above it, with
/// no difference between them that two sweeps could resolve; the
/// portable tier, whose fused ops run the very lane loops the dispatch
/// path calls, stays below 1.0 at every threshold that still fuses
/// anything, so it fuses nothing by default.
fn tier_threshold(tier: KernelTier) -> Option<usize> {
    match tier {
        KernelTier::Portable => None,
        KernelTier::Sse2 | KernelTier::Avx2 => Some(48),
    }
}

/// Threshold for `tier` given a raw `MACROSS_KERNEL_FUSE_THRESHOLD`
/// value — the pure core, testable without touching the process env.
/// A parseable override wins for every tier; garbage is ignored.
fn threshold_for(tier: KernelTier, env_val: Option<&str>) -> Option<usize> {
    env_val
        .and_then(|v| v.parse().ok())
        .or_else(|| tier_threshold(tier))
}

/// Read the env-tunable profitability threshold (per compile, not in the
/// firing hot path).
fn fuse_threshold(tier: KernelTier) -> Option<usize> {
    threshold_for(
        tier,
        std::env::var("MACROSS_KERNEL_FUSE_THRESHOLD")
            .ok()
            .as_deref(),
    )
}

/// Keep a run only when it has enough genuine vector work for `tier` or
/// is long enough for the saved dispatch to amortize the kernel entry.
fn profitable(kops: &[KOp], tier: KernelTier, threshold: usize) -> bool {
    let simd: usize = kops.iter().map(|k| simd_units(k, tier)).sum();
    let units: usize = kops.iter().map(op_units).sum();
    simd * 4 + units >= threshold
}

/// Basic-block leaders: every position a jump can land on. A fused run
/// must not extend across one (jumping into the middle of a kernel would
/// skip the run prefix), but may *start* at one — the jump then lands on
/// the `Op::Kernel` itself.
fn leaders(code: &[Op]) -> Vec<bool> {
    let mut leader = vec![false; code.len() + 1];
    for op in code {
        let t = match op {
            Op::Jump { target } => *target,
            Op::JumpIfZI { target, .. } => *target,
            Op::JumpIfZF { target, .. } => *target,
            Op::LoopEnter { exit, .. } => *exit,
            Op::LoopNext { body, .. } => *body,
            _ => continue,
        };
        if (t as usize) < leader.len() {
            leader[t as usize] = true;
        }
    }
    leader
}

/// Fuse straight-line runs of pure register ops in `code`, appending the
/// kernels to `kernels` (shared between `init` and `work`, indexed by
/// [`Op::Kernel`]). The profitability gate is tier-aware (what counts as
/// vector work, and whether the tier fuses at all) and env-tunable via
/// `MACROSS_KERNEL_FUSE_THRESHOLD`. Returns the number of kernels
/// created.
pub fn fuse(
    code: &mut [Op],
    kernels: &mut Vec<Kernel>,
    int_regs: u32,
    float_regs: u32,
    tier: KernelTier,
) -> usize {
    let Some(threshold) = fuse_threshold(tier) else {
        return 0;
    };
    fuse_runs(code, kernels, int_regs, float_regs, |kops| {
        profitable(kops, tier, threshold)
    })
}

/// [`fuse`] with an explicit profitability gate (tests use `|_| true` to
/// exercise run formation independently of the cost model).
fn fuse_runs(
    code: &mut [Op],
    kernels: &mut Vec<Kernel>,
    int_regs: u32,
    float_regs: u32,
    gate: impl Fn(&[KOp]) -> bool,
) -> usize {
    let leader = leaders(code);
    let before = kernels.len();
    let mut pc = 0usize;
    while pc < code.len() {
        let mut kops: Vec<KOp> = Vec::new();
        while pc + kops.len() < code.len() {
            let at = pc + kops.len();
            // Never extend across a jump target (except at run start).
            if !kops.is_empty() && leader[at] {
                break;
            }
            match lower(&code[at], int_regs, float_regs) {
                Some(k) if in_bounds(&k, int_regs, float_regs) => kops.push(k),
                _ => break,
            }
        }
        let span = kops.len();
        if span >= MIN_RUN {
            forward_panel_loads(&mut kops);
            let mut kops = prune_idempotent(kops);
            propagate_copies(&mut kops);
            let kops = drop_dead_copies(kops);
            let kops = form_chains(kops);
            if gate(&kops) {
                let idx = kernels.len() as u32;
                kernels.push(Kernel {
                    span: span as u32,
                    kops: kops.into_boxed_slice(),
                });
                // The fused ops stay in place behind the marker, so jumps
                // into the run (none exist past the leader check, but also
                // any future disassembly) still see real instructions.
                code[pc] = Op::Kernel(idx);
            }
            pc += span;
        } else {
            pc += span.max(1);
        }
    }
    kernels.len() - before
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Execute one fused kernel against the register files.
#[inline]
pub fn exec(kernel: &Kernel, tier: KernelTier, regs: &mut Regs) {
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY: `Avx2` is only ever selected after
        // `is_x86_feature_detected!("avx2")` returned true; SSE2 is part
        // of the x86-64 baseline.
        KernelTier::Avx2 => {
            unsafe { x86::avx2::exec(&kernel.kops, regs) };
            return;
        }
        KernelTier::Sse2 => {
            unsafe { x86::sse2::exec(&kernel.kops, regs) };
            return;
        }
        KernelTier::Portable => {}
    }
    let _ = tier;
    for op in kernel.kops.iter() {
        exec_kop_portable(op, regs);
    }
}

/// Dynamic element index of a fused indexed vector move, with the same
/// guest-panic bounds contract as the dispatch path's `array_index` (the
/// firing layer's `catch_unwind` maps it to `VmError::Panicked`).
fn kernel_array_index(idx: i64, len: u32) -> usize {
    let k = idx as usize;
    assert!(
        k < len as usize,
        "array index {idx} out of bounds (len {len}) in fused kernel"
    );
    k
}

/// Execute one fused op on the portable backend: every arm is one call
/// into `crate::lanes`, the same lane loops the dispatch path runs.
/// Public within the crate so the intrinsic tiers can fall through to it
/// for the variants they have no exact instruction for.
pub(crate) fn exec_kop_portable(op: &KOp, regs: &mut Regs) {
    match *op {
        KOp::MovNI { dst, src, w } => {
            lanes::mov(&mut regs.i, dst as usize, src as usize, w as usize);
        }
        KOp::MovNF { dst, src, w } => {
            lanes::mov(&mut regs.f, dst as usize, src as usize, w as usize);
        }
        KOp::SplatI { dst, a, w } => lanes::splat(&mut regs.i, dst, a, w),
        KOp::SplatF { dst, a, w } => lanes::splat(&mut regs.f, dst, a, w),
        KOp::PermI {
            parity,
            dst,
            a,
            b,
            w,
        } => {
            let w = w as usize;
            for k in 0..w {
                let pos = parity as usize + 2 * k;
                let v = if pos < w {
                    regs.i[a as usize + pos]
                } else {
                    regs.i[b as usize + pos - w]
                };
                regs.i[dst as usize + k] = v;
            }
        }
        KOp::PermF {
            parity,
            dst,
            a,
            b,
            w,
        } => {
            let w = w as usize;
            for k in 0..w {
                let pos = parity as usize + 2 * k;
                let v = if pos < w {
                    regs.f[a as usize + pos]
                } else {
                    regs.f[b as usize + pos - w]
                };
                regs.f[dst as usize + k] = v;
            }
        }
        KOp::FToI { dst, a } => regs.i[dst as usize] = regs.f[a as usize] as i64,
        KOp::LoadVElemI {
            dst,
            base,
            len,
            idx,
            w,
        } => {
            let s = base as usize + kernel_array_index(regs.i[idx as usize], len) * w as usize;
            lanes::mov(&mut regs.i, dst as usize, s, w as usize);
        }
        KOp::LoadVElemF {
            dst,
            base,
            len,
            idx,
            w,
        } => {
            let s = base as usize + kernel_array_index(regs.i[idx as usize], len) * w as usize;
            lanes::mov(&mut regs.f, dst as usize, s, w as usize);
        }
        KOp::StoreVElemI {
            base,
            len,
            idx,
            src,
            w,
        } => {
            let d = base as usize + kernel_array_index(regs.i[idx as usize], len) * w as usize;
            lanes::mov(&mut regs.i, d, src as usize, w as usize);
        }
        KOp::StoreVElemF {
            base,
            len,
            idx,
            src,
            w,
        } => {
            let d = base as usize + kernel_array_index(regs.i[idx as usize], len) * w as usize;
            lanes::mov(&mut regs.f, d, src as usize, w as usize);
        }

        KOp::BinI {
            op,
            ty,
            dst,
            a,
            b,
            w,
        }
        | KOp::CmpI {
            op,
            ty,
            dst,
            a,
            b,
            w,
        } => lanes::bin_i(op, ty, &mut regs.i, dst, a, b, w),
        KOp::BinF {
            op,
            ty,
            dst,
            a,
            b,
            w,
        } => lanes::bin_f(op, ty, &mut regs.f, dst, a, b, w),
        KOp::CmpF { op, dst, a, b, w } => lanes::cmp_f(op, regs, dst, a, b, w),
        KOp::NegI { ty, dst, a, w } => lanes::neg_i(ty, &mut regs.i, dst, a, w),
        KOp::NegF { dst, a, w } => lanes::neg_f(&mut regs.f, dst, a, w),
        KOp::NotI { ty, dst, a, w } => lanes::not_i(ty, &mut regs.i, dst, a, w),
        KOp::LogNotI { dst, a, w } => lanes::lognot_i(&mut regs.i, dst, a, w),
        KOp::LogNotF { dst, a, w } => lanes::lognot_f(regs, dst, a, w),
        KOp::CastII {
            from,
            to,
            dst,
            a,
            w,
        } => lanes::cast_ii(from, to, &mut regs.i, dst, a, w),
        KOp::CastIF { to, dst, a, w } => lanes::cast_if(to, regs, dst, a, w),
        KOp::CastFI { to, dst, a, w } => lanes::cast_fi(to, regs, dst, a, w),
        KOp::CastFF { to, dst, a, w } => lanes::cast_ff(to, &mut regs.f, dst, a, w),
        KOp::Call1I { ty, dst, a, w } => lanes::call1_i(ty, &mut regs.i, dst, a, w),
        KOp::Call2I { i, dst, a, b, w } => lanes::call2_i(i, &mut regs.i, dst, a, b, w),
        KOp::Call1F { i, ty, dst, a, w } => lanes::call1_f(i, ty, &mut regs.f, dst, a, w),
        KOp::Call2F {
            i,
            ty,
            dst,
            a,
            b,
            w,
        } => lanes::call2_f(i, ty, &mut regs.f, dst, a, b, w),
        KOp::Chain {
            dom,
            a,
            w,
            ref stages,
        } => exec_chain_portable(dom, a, w, stages, regs),
        // What remains is the specialized arithmetic, a pre-resolved
        // `(op, ty)`; its proven-disjoint destination takes the lane
        // loop's whole-window path.
        _ => {
            let (class, kind, dst, a, b, w) =
                chain_parts(op).expect("every other variant is matched above");
            let bin = match kind {
                ChainKind::Add => BinOp::Add,
                ChainKind::Sub => BinOp::Sub,
                ChainKind::Mul => BinOp::Mul,
                ChainKind::Div => BinOp::Div,
                ChainKind::And => BinOp::And,
                ChainKind::Or => BinOp::Or,
                ChainKind::Xor => BinOp::Xor,
                ChainKind::RSub | ChainKind::RDiv => {
                    unreachable!("chain_parts emits base kinds only")
                }
            };
            match class {
                ChainClass::F32 => lanes::bin_f(bin, ScalarTy::F32, &mut regs.f, dst, a, b, w),
                ChainClass::F64 => lanes::bin_f(bin, ScalarTy::F64, &mut regs.f, dst, a, b, w),
                ChainClass::I32 => lanes::bin_i(bin, ScalarTy::I32, &mut regs.i, dst, a, b, w),
                // Bitwise ops are full-width: the `I64` loop is theirs too.
                ChainClass::I64 | ChainClass::Bits => {
                    lanes::bin_i(bin, ScalarTy::I64, &mut regs.i, dst, a, b, w)
                }
            }
        }
    }
}

// --- Portable chain execution ----------------------------------------

#[inline(always)]
fn chain_apply_f32(kind: ChainKind, acc: f32, o: f32) -> f32 {
    match kind {
        ChainKind::Add => acc + o,
        ChainKind::Sub => acc - o,
        ChainKind::Mul => acc * o,
        ChainKind::Div => acc / o,
        ChainKind::RSub => o - acc,
        ChainKind::RDiv => o / acc,
        _ => unreachable!("no bitwise stages in float chains"),
    }
}

#[inline(always)]
fn chain_apply_f64(kind: ChainKind, acc: f64, o: f64) -> f64 {
    match kind {
        ChainKind::Add => acc + o,
        ChainKind::Sub => acc - o,
        ChainKind::Mul => acc * o,
        ChainKind::Div => acc / o,
        ChainKind::RSub => o - acc,
        ChainKind::RDiv => o / acc,
        _ => unreachable!("no bitwise stages in float chains"),
    }
}

#[inline(always)]
fn chain_apply_i32(kind: ChainKind, acc: i32, o: i32) -> i32 {
    match kind {
        ChainKind::Add => acc.wrapping_add(o),
        ChainKind::Sub => acc.wrapping_sub(o),
        ChainKind::Mul => acc.wrapping_mul(o),
        ChainKind::RSub => o.wrapping_sub(acc),
        _ => unreachable!("no div/bitwise stages in i32 chains"),
    }
}

#[inline(always)]
fn chain_apply_i64(kind: ChainKind, acc: i64, o: i64) -> i64 {
    match kind {
        ChainKind::Add => acc.wrapping_add(o),
        ChainKind::Sub => acc.wrapping_sub(o),
        ChainKind::Mul => acc.wrapping_mul(o),
        ChainKind::RSub => o.wrapping_sub(acc),
        ChainKind::And => acc & o,
        ChainKind::Or => acc | o,
        ChainKind::Xor => acc ^ o,
        _ => unreachable!("no div stages in integer chains"),
    }
}

/// Portable chain body: full fixed-size chunks (so the per-stage lane
/// loops autovectorize) plus a scalar remainder. `$ld`/`$st` are the
/// exact domain conversions the specialized slice paths use, applied
/// once at the accumulator load and once per surviving store.
macro_rules! chain_lanes {
    ($file:expr, $a:expr, $w:expr, $stages:expr, $acc_ty:ty, $ld:expr, $st:expr, $apply:expr) => {{
        const CHUNK: usize = 8;
        let file = $file;
        let (a, w) = ($a as usize, $w as usize);
        let mut k = 0usize;
        while k + CHUNK <= w {
            let mut acc: [$acc_ty; CHUNK] = Default::default();
            for l in 0..CHUNK {
                acc[l] = $ld(file[a + k + l]);
            }
            for stg in $stages.iter() {
                let o = stg.other as usize;
                for l in 0..CHUNK {
                    acc[l] = $apply(stg.kind, acc[l], $ld(file[o + k + l]));
                }
                if let Some(d) = stg.store {
                    let d = d as usize;
                    for l in 0..CHUNK {
                        file[d + k + l] = $st(acc[l]);
                    }
                }
            }
            k += CHUNK;
        }
        while k < w {
            let mut acc = $ld(file[a + k]);
            for stg in $stages.iter() {
                acc = $apply(stg.kind, acc, $ld(file[stg.other as usize + k]));
                if let Some(d) = stg.store {
                    file[d as usize + k] = $st(acc);
                }
            }
            k += 1;
        }
    }};
}

/// Execute a register-resident chain on the portable tier. Bit-identical
/// to executing the original op sequence: per lane, the stage order is
/// preserved and each stage applies the same narrowed/widened scalar
/// semantics as the specialized slice paths it replaced.
fn exec_chain_portable(dom: ChainDom, a: u32, w: u32, stages: &[ChainStage], regs: &mut Regs) {
    match dom {
        ChainDom::F32 => chain_lanes!(
            &mut regs.f,
            a,
            w,
            stages,
            f32,
            |x: f64| x as f32,
            |x: f32| x as f64,
            chain_apply_f32
        ),
        ChainDom::F64 => chain_lanes!(
            &mut regs.f,
            a,
            w,
            stages,
            f64,
            |x: f64| x,
            |x: f64| x,
            chain_apply_f64
        ),
        ChainDom::I32 => chain_lanes!(
            &mut regs.i,
            a,
            w,
            stages,
            i32,
            |x: i64| x as i32,
            |x: i32| x as i64,
            chain_apply_i32
        ),
        ChainDom::I64 => chain_lanes!(
            &mut regs.i,
            a,
            w,
            stages,
            i64,
            |x: i64| x,
            |x: i64| x,
            chain_apply_i64
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_both(code: &mut [Op], int_regs: u32, float_regs: u32, seed: u64) -> (Regs, Regs) {
        use crate::bytecode::{run_code, CompiledFilter};
        use crate::machine::CycleCounters;
        let mk_regs = || {
            let mut r = Regs::new(int_regs as usize, float_regs as usize);
            for (k, x) in r.i.iter_mut().enumerate() {
                *x = ((seed.wrapping_mul(k as u64 + 1) % 2000) as i64) - 1000;
            }
            for (k, x) in r.f.iter_mut().enumerate() {
                *x = ((seed.wrapping_mul(k as u64 + 3) % 2000) as f64 - 1000.0) as f32 as f64;
            }
            r
        };
        let plain = CompiledFilter::bare("t", int_regs, float_regs, code.to_vec());
        let mut kernels = Vec::new();
        fuse_runs(code, &mut kernels, int_regs, float_regs, |_| true);
        let fused = CompiledFilter {
            work: code.to_vec(),
            kernels,
            tier: select_tier(),
            ..plain.clone()
        };
        let mut c = CycleCounters::default();
        let (mut r1, mut r2) = (mk_regs(), mk_regs());
        run_code(
            &plain,
            &plain.work,
            &mut r1,
            &mut [],
            None,
            None,
            0,
            0,
            &mut c,
        )
        .unwrap();
        run_code(
            &fused,
            &fused.work,
            &mut r2,
            &mut [],
            None,
            None,
            0,
            0,
            &mut c,
        )
        .unwrap();
        (r1, r2)
    }

    #[test]
    fn fused_arith_matches_dispatch() {
        for seed in [1u64, 7, 13, 9999] {
            let mut code = vec![
                Op::VBinF {
                    op: BinOp::Mul,
                    ty: ScalarTy::F32,
                    dst: 8,
                    a: 0,
                    b: 4,
                    w: 4,
                },
                Op::VBinF {
                    op: BinOp::Add,
                    ty: ScalarTy::F32,
                    dst: 12,
                    a: 8,
                    b: 0,
                    w: 4,
                },
                Op::VBinI {
                    op: BinOp::Mul,
                    ty: ScalarTy::I32,
                    dst: 8,
                    a: 0,
                    b: 4,
                    w: 4,
                },
                Op::VBinI {
                    op: BinOp::Xor,
                    ty: ScalarTy::I32,
                    dst: 12,
                    a: 8,
                    b: 0,
                    w: 4,
                },
                Op::SplatI {
                    dst: 16,
                    a: 2,
                    w: 4,
                },
                Op::PermI {
                    parity: 1,
                    dst: 20,
                    a: 8,
                    b: 12,
                    w: 4,
                },
            ];
            let (r1, r2) = run_both(&mut code, 24, 16, seed);
            assert_eq!(r1.i, r2.i, "seed {seed}");
            assert_eq!(
                r1.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                r2.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn runs_stop_at_leaders_and_nonfusible_ops() {
        let mut code = vec![
            Op::MovI { dst: 0, src: 5 },
            Op::MovI { dst: 1, src: 6 },
            Op::LoopEnter {
                counter: 1,
                limit: 0,
                var: 7,
                exit: 7,
            },
            // leader (LoopNext target below)
            Op::BinI {
                op: BinOp::Add,
                ty: ScalarTy::I64,
                dst: 2,
                a: 2,
                b: 0,
            },
            Op::BinI {
                op: BinOp::Add,
                ty: ScalarTy::I64,
                dst: 3,
                a: 2,
                b: 2,
            },
            Op::Charge(0),
            Op::LoopNext {
                counter: 1,
                limit: 0,
                var: 7,
                body: 3,
            },
            Op::MovI { dst: 4, src: 3 },
        ];
        assert_eq!(
            leaders(&code).iter().filter(|&&l| l).count(),
            2,
            "loop body and loop exit"
        );
        let mut kernels = Vec::new();
        fuse_runs(&mut code, &mut kernels, 8, 0, |_| true);
        // Two fused runs: the two leading moves, and the two adds inside
        // the loop body (stopped by Charge). The trailing single MovI is
        // below MIN_RUN.
        assert_eq!(kernels.len(), 2);
        assert_eq!(code[0], Op::Kernel(0));
        assert!(matches!(code[2], Op::LoopEnter { .. }));
        assert_eq!(code[3], Op::Kernel(1));
        assert!(matches!(code[4], Op::BinI { .. })); // left in place
        assert!(matches!(code[7], Op::MovI { .. }));
        // dst aliases src `a` in the first add: must have degraded to the
        // generic lane-loop variant, not AddI64.
        assert!(matches!(kernels[1].kops[0], KOp::BinI { .. }));
        assert!(matches!(kernels[1].kops[1], KOp::AddI64 { .. }));

        // A jump into the middle of four fusible ops splits the run in
        // two, so the jump lands on a kernel marker, not inside a span.
        let mov = |dst| Op::MovI { dst, src: dst + 4 };
        let mut code = vec![
            Op::JumpIfZI { cond: 0, target: 3 },
            mov(0),
            mov(1),
            mov(2),
            mov(3),
        ];
        let mut kernels = Vec::new();
        fuse_runs(&mut code, &mut kernels, 8, 0, |_| true);
        assert_eq!(kernels.len(), 2);
        assert_eq!((&code[1], &code[3]), (&Op::Kernel(0), &Op::Kernel(1)));
    }

    #[test]
    fn idempotent_rematerializations_are_pruned() {
        // An unrolled two-stage chain: the second stage re-materializes
        // the same coefficient into the same registers with nothing
        // touching them in between — one materialization must survive, and
        // the fused result must still match plain dispatch bit-for-bit.
        let stage = |dst| {
            vec![
                Op::MovF { dst: 8, src: 20 },
                Op::SplatF { dst: 9, a: 8, w: 4 },
                Op::VBinF {
                    op: BinOp::Mul,
                    ty: ScalarTy::F32,
                    dst,
                    a: 0,
                    b: 9,
                    w: 4,
                },
                Op::MovNF {
                    dst: 0,
                    src: dst,
                    w: 4,
                },
            ]
        };
        let mut code: Vec<Op> = stage(16).into_iter().chain(stage(16)).collect();
        let (r1, r2) = run_both(&mut code, 4, 24, 5);
        assert_eq!(r1.i, r2.i);
        assert_eq!(
            r1.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            r2.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        let pruned = prune_idempotent(code_kops(
            &stage(16).into_iter().chain(stage(16)).collect::<Vec<_>>(),
        ));
        // Second stage's MovF + SplatF collapse; its Mul and MovNF stay
        // (their inputs were rewritten in between).
        assert_eq!(pruned.len(), 6);
    }

    fn code_kops(code: &[Op]) -> Vec<KOp> {
        code.iter().map(|op| lower(op, 32, 32).unwrap()).collect()
    }

    #[test]
    fn self_aliasing_ops_are_never_pruned() {
        // `x = x + c` twice in a row: the ops are identical and nothing
        // between them touches their registers, but each re-execution
        // reads what the previous one wrote — dropping one halves the
        // increment. Same for an overlapping copy_within-style MovN.
        let add = Op::BinI {
            op: BinOp::Add,
            ty: ScalarTy::I64,
            dst: 1,
            a: 1,
            b: 0,
        };
        let mov = Op::MovNI {
            dst: 2,
            src: 1,
            w: 4,
        };
        let code = vec![
            Op::MovI { dst: 0, src: 7 },
            add.clone(),
            add.clone(),
            mov.clone(),
            mov.clone(),
        ];
        let pruned = prune_idempotent(code_kops(&code));
        assert_eq!(pruned.len(), 5, "self-aliasing ops must all survive");
        // And end-to-end: fused execution stays bit-identical to dispatch.
        for seed in [1u64, 7, 23] {
            let mut c = code.clone();
            let (r1, r2) = run_both(&mut c, 8, 0, seed);
            assert_eq!(r1.i, r2.i, "seed {seed}");
        }
    }

    #[test]
    fn unprofitable_runs_stay_on_dispatch() {
        // The gate itself, at the intrinsic tiers' default threshold and
        // independent of the process environment. Two scalar moves are a
        // legal run far below the bar: no kernel, and the ops stay in
        // place.
        let gate = |k: &[KOp]| profitable(k, KernelTier::Avx2, 48);
        let mut code = vec![Op::MovI { dst: 0, src: 2 }, Op::MovI { dst: 1, src: 3 }];
        let mut kernels = Vec::new();
        assert_eq!(fuse_runs(&mut code, &mut kernels, 4, 0, gate), 0);
        assert!(kernels.is_empty());
        assert!(matches!(code[0], Op::MovI { .. }));
        // Twelve independent 4-lane adds clear it (12 x 4 vector units +
        // 12 ops), so the same gate is not just refusing everything.
        let mut code: Vec<Op> = (0..12)
            .map(|k| Op::VBinF {
                op: BinOp::Add,
                ty: ScalarTy::F32,
                dst: 8 + 4 * k,
                a: 0,
                b: 4,
                w: 4,
            })
            .collect();
        assert_eq!(fuse_runs(&mut code, &mut kernels, 0, 56, gate), 1);
        assert_eq!(code[0], Op::Kernel(0));
    }

    #[test]
    fn tier_selection_honors_overrides() {
        // Pure-function test: mutating the process env here would race
        // with concurrent tests in this module that call select_tier
        // via run_both. The env-var plumbing itself is exercised by
        // tests/kernel_backends.rs and tests/kernel_tier_matrix.rs,
        // which own their variables in single #[test]s, and by the CI
        // kernel-matrix job.
        assert_eq!(tier_for(Some("portable")), Ok(KernelTier::Portable));
        // Unknown labels refuse loudly instead of degrading.
        assert!(tier_for(Some("avx512")).is_err());
        assert!(tier_for(Some("AVX2")).is_err());
        // Detection picks the widest available tier; empty counts as
        // unset.
        let detected = tier_for(None).unwrap();
        assert_eq!(tier_for(Some("")), Ok(detected));
        assert!(detected.available());
        for t in KernelTier::ALL {
            if t.available() {
                assert_eq!(detected, t, "detection must pick the widest tier");
                break;
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(tier_for(Some("sse2")), Ok(KernelTier::Sse2));
            if std::is_x86_feature_detected!("avx2") {
                assert_eq!(tier_for(None), Ok(KernelTier::Avx2));
            } else {
                assert!(tier_for(Some("avx2")).is_err());
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            assert_eq!(tier_for(None), Ok(KernelTier::Portable));
            assert!(tier_for(Some("sse2")).is_err());
        }
    }

    #[test]
    fn tier_labels_round_trip() {
        for t in KernelTier::ALL {
            assert_eq!(KernelTier::from_label(t.label()), Some(t));
        }
        assert_eq!(KernelTier::from_label("neon"), None);
        assert_eq!(KernelTier::Portable.width_bits(), 0);
        assert_eq!(KernelTier::Sse2.width_bits(), 128);
        assert_eq!(KernelTier::Avx2.width_bits(), 256);
    }

    #[test]
    fn profitability_gate_is_tier_aware_and_tunable() {
        // The intrinsic tiers fuse by default; the portable tier only on
        // request.
        let avx2 = threshold_for(KernelTier::Avx2, None).expect("avx2 fuses");
        assert!(threshold_for(KernelTier::Sse2, None).is_some());
        assert_eq!(threshold_for(KernelTier::Portable, None), None);
        // The env override wins for every tier; garbage is ignored.
        for t in KernelTier::ALL {
            assert_eq!(threshold_for(t, Some("5")), Some(5));
            assert_eq!(threshold_for(t, Some("nope")), tier_threshold(t));
        }
        // A permutation-heavy run counts as vector work only on the
        // intrinsic tiers, so the same run clears AVX2's bar and would
        // not clear it as portable work.
        let perm = KOp::PermF {
            parity: 0,
            dst: 16,
            a: 0,
            b: 8,
            w: 8,
        };
        let kops: Vec<KOp> = (0..10).map(|_| perm.clone()).collect();
        assert!(profitable(&kops, KernelTier::Avx2, avx2));
        assert!(!profitable(&kops, KernelTier::Portable, avx2));
        // Chains count one unit per stage — they replaced that many ops.
        let chain = KOp::Chain {
            dom: ChainDom::F32,
            a: 0,
            w: 4,
            stages: (0..8)
                .map(|_| ChainStage {
                    kind: ChainKind::Mul,
                    other: 4,
                    store: Some(8),
                })
                .collect(),
        };
        assert_eq!(op_units(&chain), 8);
        assert_eq!(simd_units(&chain, KernelTier::Portable), 8);
    }

    #[test]
    fn chains_form_with_store_elision() {
        // vmix-shaped FMA ladder: Mul t1 <- x,c1; Add t2 <- t1,c2;
        // Mul t1 <- t2,c1; Add t2 <- t1,c2 — alternating destinations,
        // each op consuming the previous result. Only the *last* write
        // of each destination range may store.
        let kops = vec![
            KOp::MulF32 {
                dst: 8,
                a: 0,
                b: 4,
                w: 4,
            },
            KOp::AddF32 {
                dst: 12,
                a: 8,
                b: 16,
                w: 4,
            },
            KOp::MulF32 {
                dst: 8,
                a: 12,
                b: 4,
                w: 4,
            },
            KOp::AddF32 {
                dst: 12,
                a: 8,
                b: 16,
                w: 4,
            },
        ];
        let out = form_chains(kops);
        assert_eq!(out.len(), 1);
        let KOp::Chain {
            dom,
            a,
            w,
            ref stages,
        } = out[0]
        else {
            panic!("expected a chain, got {:?}", out[0]);
        };
        assert_eq!((dom, a, w), (ChainDom::F32, 0, 4));
        assert_eq!(stages.len(), 4);
        // Stage 0 (dst 8) and stage 1 (dst 12) are rewritten later:
        // stores elided. Stages 2 and 3 are the last writes: stored.
        assert_eq!(
            stages.iter().map(|s| s.store).collect::<Vec<_>>(),
            vec![None, None, Some(8), Some(12)]
        );
        assert_eq!(
            stages.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![
                ChainKind::Mul,
                ChainKind::Add,
                ChainKind::Mul,
                ChainKind::Add
            ]
        );
    }

    #[test]
    fn chains_respect_aliasing_and_domains() {
        // Second op reads range 2..6, overlapping the first op's write
        // 4..8 at an offset — not the accumulator, so no chain.
        let misaligned = vec![
            KOp::AddI64 {
                dst: 4,
                a: 0,
                b: 8,
                w: 4,
            },
            KOp::AddI64 {
                dst: 12,
                a: 2,
                b: 8,
                w: 4,
            },
        ];
        assert_eq!(form_chains(misaligned).len(), 2);
        // An op consuming the previous result twice (acc op acc) cannot
        // chain: the stage form has exactly one `other` operand.
        let squared = vec![
            KOp::MulF64 {
                dst: 4,
                a: 0,
                b: 8,
                w: 4,
            },
            KOp::MulF64 {
                dst: 12,
                a: 4,
                b: 4,
                w: 4,
            },
        ];
        assert_eq!(form_chains(squared).len(), 2);
        // Bitwise ops joining an i32-arith chain would store a
        // sign-extension where the original stored full 64-bit lanes:
        // the domains must not merge.
        let mixed = vec![
            KOp::AddI32 {
                dst: 4,
                a: 0,
                b: 8,
                w: 4,
            },
            KOp::XorI {
                dst: 12,
                a: 4,
                b: 8,
                w: 4,
            },
        ];
        assert_eq!(form_chains(mixed).len(), 2);
        // ...but bitwise joins an I64 chain fine, and a pure-bitwise
        // chain resolves to the I64 domain.
        let i64_mix = vec![
            KOp::AddI64 {
                dst: 4,
                a: 0,
                b: 8,
                w: 4,
            },
            KOp::XorI {
                dst: 12,
                a: 4,
                b: 8,
                w: 4,
            },
        ];
        let out = form_chains(i64_mix);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            KOp::Chain {
                dom: ChainDom::I64,
                ..
            }
        ));
        // Reversed operand position encodes as RSub: acc enters as the
        // right operand of the subtraction.
        let rsub = vec![
            KOp::AddF64 {
                dst: 4,
                a: 0,
                b: 8,
                w: 4,
            },
            KOp::SubF64 {
                dst: 12,
                a: 8,
                b: 4,
                w: 4,
            },
        ];
        let out = form_chains(rsub);
        assert_eq!(out.len(), 1);
        let KOp::Chain { ref stages, .. } = out[0] else {
            panic!("expected chain");
        };
        assert_eq!(stages[1].kind, ChainKind::RSub);
        assert_eq!(stages[1].other, 8);
    }

    #[test]
    fn ping_pong_ladders_chain_through_the_acc_range() {
        // The natural FMA accumulator idiom rewrites the very range the
        // chain's accumulator was loaded from (t = x*c; x = t+d; ...).
        // Identical ranges are lane-aligned, so this is legal: each lane
        // is loaded before the chunk that stores it.
        let pair = |_: u32| {
            [
                KOp::MulF32 {
                    dst: 25,
                    a: 34,
                    b: 21,
                    w: 4,
                },
                KOp::AddF32 {
                    dst: 34,
                    a: 25,
                    b: 30,
                    w: 4,
                },
            ]
        };
        let kops: Vec<KOp> = (0..3).flat_map(pair).collect();
        let out = form_chains(kops);
        assert_eq!(out.len(), 1, "ladder must form one chain: {out:?}");
        let KOp::Chain {
            dom, a, ref stages, ..
        } = out[0]
        else {
            panic!("expected chain");
        };
        assert_eq!((dom, a), (ChainDom::F32, 34));
        assert_eq!(stages.len(), 6);
        // Only each range's last write survives elision.
        assert_eq!(
            stages.iter().map(|s| s.store).collect::<Vec<_>>(),
            vec![None, None, None, None, Some(25), Some(34)]
        );
        // And end-to-end, the fused ladder stays bit-identical to
        // dispatch across chunked widths and scalar remainders.
        for w in [3u32, 4, 9] {
            let mk = |dst: u32, a: u32, op: BinOp, b: u32| Op::VBinF {
                op,
                ty: ScalarTy::F32,
                dst,
                a,
                b,
                w,
            };
            for seed in [1u64, 13, 777] {
                let mut code = vec![
                    mk(30, 40, BinOp::Mul, 10),
                    mk(40, 30, BinOp::Add, 20),
                    mk(30, 40, BinOp::Mul, 10),
                    mk(40, 30, BinOp::Add, 20),
                    mk(30, 40, BinOp::Mul, 10),
                    mk(40, 30, BinOp::Add, 20),
                ];
                let (r1, r2) = run_both(&mut code, 8, 64, seed);
                assert_eq!(
                    r1.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    r2.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "w {w} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn stores_read_later_in_the_chain_survive_elision() {
        // Stage 0 writes range 8; stage 3 rewrites it — but stage 2
        // reads 8 as its `other` operand in between, so stage 0's store
        // must survive (eliding it would feed stage 2 stale memory).
        let kops = vec![
            KOp::AddF64 {
                dst: 8,
                a: 0,
                b: 4,
                w: 4,
            },
            KOp::MulF64 {
                dst: 12,
                a: 8,
                b: 16,
                w: 4,
            },
            KOp::AddF64 {
                dst: 20,
                a: 12,
                b: 8,
                w: 4,
            },
            KOp::MulF64 {
                dst: 8,
                a: 20,
                b: 16,
                w: 4,
            },
        ];
        let out = form_chains(kops);
        assert_eq!(out.len(), 1);
        let KOp::Chain { ref stages, .. } = out[0] else {
            panic!("expected chain");
        };
        assert_eq!(
            stages.iter().map(|s| s.store).collect::<Vec<_>>(),
            vec![Some(8), Some(12), Some(20), Some(8)]
        );
        // End-to-end with spread-out ranges so every width stays
        // identical-or-disjoint.
        for w in [2u32, 4, 9] {
            let mk = |dst: u32, a: u32, op: BinOp, b: u32| Op::VBinF {
                op,
                ty: ScalarTy::F64,
                dst,
                a,
                b,
                w,
            };
            for seed in [5u64, 99, 2024] {
                let mut code = vec![
                    mk(10, 0, BinOp::Add, 20),
                    mk(30, 10, BinOp::Mul, 40),
                    mk(50, 30, BinOp::Add, 10),
                    mk(10, 50, BinOp::Mul, 40),
                ];
                let (r1, r2) = run_both(&mut code, 8, 64, seed);
                assert_eq!(
                    r1.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    r2.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "w {w} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn chained_execution_matches_dispatch() {
        // End-to-end: an FMA ladder long enough to clear MIN_RUN, fused
        // with the always-true gate (forming chains), must stay
        // bit-identical to plain dispatch on the selected tier. Widths 3
        // and 9 exercise the intrinsic tiers' scalar remainders.
        for w in [1u32, 3, 4, 8, 9] {
            let mk = |dst: u32, a: u32, op: BinOp, b: u32| Op::VBinF {
                op,
                ty: ScalarTy::F32,
                dst,
                a,
                b,
                w,
            };
            for seed in [1u64, 7, 13, 9999] {
                let mut code = vec![
                    mk(20, 0, BinOp::Mul, 10),
                    mk(30, 20, BinOp::Add, 40),
                    mk(20, 30, BinOp::Mul, 10),
                    mk(30, 20, BinOp::Add, 40),
                    mk(20, 30, BinOp::Div, 10),
                    mk(50, 10, BinOp::Sub, 20),
                ];
                let (r1, r2) = run_both(&mut code, 8, 64, seed);
                assert_eq!(
                    r1.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    r2.f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "w {w} seed {seed}"
                );
            }
        }
        // Integer ladder, i32 domain (wrapping, sign-extended).
        for w in [2u32, 4, 7] {
            let mk = |dst: u32, a: u32, op: BinOp, b: u32| Op::VBinI {
                op,
                ty: ScalarTy::I32,
                dst,
                a,
                b,
                w,
            };
            for seed in [3u64, 11, 4242] {
                let mut code = vec![
                    mk(16, 0, BinOp::Mul, 8),
                    mk(24, 16, BinOp::Add, 8),
                    mk(16, 24, BinOp::Mul, 0),
                    mk(32, 8, BinOp::Sub, 16),
                ];
                let (r1, r2) = run_both(&mut code, 48, 4, seed);
                assert_eq!(r1.i, r2.i, "w {w} seed {seed}");
            }
        }
    }
}
