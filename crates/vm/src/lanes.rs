//! Lane loops: the one implementation of every register-window
//! operation of the dispatch loop ([`crate::bytecode::run_code`]).
//!
//! A vector value is `w` consecutive registers of one file and a scalar
//! is the `w == 1` case of the same thing, so every pure op — scalar or
//! vector — executes by calling one function here.
//!
//! # Resolve once per op
//!
//! Each op-level function ([`bin_i`], [`bin_f`], [`mul_add_f`], [`cmp_f`],
//! the casts and intrinsic calls) holds exactly one `match` over its
//! runtime `(operator, type)`. Every arm hands [`zip`] (or, for the three
//! sources of [`mul_add_f`], `zip3`) a closure that calls the
//! scalar helper of [`crate::bytecode`] with that arm's operator and type
//! as *constants*; the helpers are `#[inline(always)]`, so each arm is a
//! loop monomorphised over a single machine operation. The helpers stay
//! the one definition of the arithmetic (`i32`/`f32` domain narrowing,
//! division by zero, NaN ordering), and no lane ever re-matches what the
//! op already resolved.
//!
//! # Windows, aliasing and lane order
//!
//! Lanes are always written in ascending order. A source window that
//! *is* the destination or is disjoint from it — the firing compiler's
//! destination invariant, so nearly always — cannot observe a lane
//! the same op wrote, so [`zip`] loads a SIMD-width window (1, 2, 4 or 8
//! lanes, the lane count a compile-time constant) whole as a fixed-size
//! array, computes, and stores it whole: three bounds checks per op and
//! straight-line code LLVM turns into vector instructions. A source that
//! overlaps the destination *at a shift* takes the indexed loop instead,
//! where lane `k + 1` reads what lane `k` wrote: the order-sensitive
//! behaviour the per-lane interpreter always had, kept bit for bit
//! because the engines are compared bitwise. Other widths take the
//! indexed loop too.
//! A window outside the file panics on either path (a guest fault the
//! firing boundary reports as `VmError::Panicked`).
//!
//! # Moves
//!
//! [`mov`], [`fill`] and [`put`] move SIMD-width windows the same way —
//! a couple of register moves — and leave only the odd widths to
//! `memmove`/`memset`. A fixed-size move loads the whole source before
//! storing, which is `copy_within`'s overlap semantics.
//!
//! # Permutes
//!
//! [`permute`] runs a lone `extract_even`/`extract_odd` and the pair of
//! them over the same two vectors (`PermPairI`/`PermPairF`) alike: for a
//! SIMD width with every destination disjoint from both sources, it reads
//! the two sources whole once and stores each half whole; anything else
//! takes the indexed loop, one half after the other.

use crate::bytecode::{self as scalar, Regs};
use macross_streamir::expr::{BinOp, Intrinsic};
use macross_streamir::types::ScalarTy::{self, F32, F64, I32, I64};

/// Evaluate `$fixed` with `$n` bound to the window width as a constant
/// when it is a SIMD width, `$other` for every other width. A chain of
/// compares rather than a `match`: the machine's own width comes first
/// and predicts, where a jump table would be one more indirect branch
/// per op.
macro_rules! by_width {
    ($w:expr, $n:ident => $fixed:expr, _ => $other:expr) => {
        if $w == 4 {
            const $n: usize = 4;
            $fixed
        } else if $w == 1 {
            const $n: usize = 1;
            $fixed
        } else if $w == 8 {
            const $n: usize = 8;
            $fixed
        } else if $w == 2 {
            const $n: usize = 2;
            $fixed
        } else {
            $other
        }
    };
}

/// The `N` registers at `at`, by value (one bounds check).
#[inline(always)]
fn read<T: Copy, const N: usize>(file: &[T], at: usize) -> [T; N] {
    file[at..at + N].try_into().expect("slice of length N")
}

/// The `N` registers at `at`, to be overwritten (one bounds check).
#[inline(always)]
fn window<T, const N: usize>(file: &mut [T], at: usize) -> &mut [T; N] {
    (&mut file[at..at + N])
        .try_into()
        .expect("slice of length N")
}

/// `file[dst + k] = f(file[a + k], file[b + k])` for `k` in `0..w`,
/// ascending (see the module docs for the two paths).
#[inline(always)]
fn zip<T: Copy>(file: &mut [T], dst: u32, a: u32, b: u32, w: u32, f: impl Fn(T, T) -> T) {
    let (dst, a, b, w) = (dst as usize, a as usize, b as usize, w as usize);
    // Overlapping the destination at a shift: a later lane would read
    // what an earlier lane wrote.
    let shifted = |r: usize| r != dst && r < dst + w && dst < r + w;
    if !shifted(a) && !shifted(b) {
        by_width!(w, N => {
            let (x, y) = (read::<T, N>(file, a), read::<T, N>(file, b));
            let mut out = x;
            for k in 0..N {
                out[k] = f(x[k], y[k]);
            }
            *window::<T, N>(file, dst) = out;
            return;
        }, _ => {});
    }
    for k in 0..w {
        file[dst + k] = f(file[a + k], file[b + k]);
    }
}

/// [`zip`] over three sources: `file[dst + k] = f(file[c + k], file[a + k],
/// file[b + k])`, on the same two paths.
#[inline(always)]
fn zip3<T: Copy>(
    file: &mut [T],
    dst: u32,
    (c, a, b): (u32, u32, u32),
    w: u32,
    f: impl Fn(T, T, T) -> T,
) {
    let (dst, c, a, b, w) = (dst as usize, c as usize, a as usize, b as usize, w as usize);
    let shifted = |r: usize| r != dst && r < dst + w && dst < r + w;
    if !shifted(c) && !shifted(a) && !shifted(b) {
        by_width!(w, N => {
            let x = read::<T, N>(file, c);
            let (y, z) = (read::<T, N>(file, a), read::<T, N>(file, b));
            let mut out = x;
            for k in 0..N {
                out[k] = f(x[k], y[k], z[k]);
            }
            *window::<T, N>(file, dst) = out;
            return;
        }, _ => {});
    }
    for k in 0..w {
        file[dst + k] = f(file[c + k], file[a + k], file[b + k]);
    }
}

/// Unary [`zip`]: `file[dst + k] = f(file[a + k])`.
#[inline(always)]
fn map<T: Copy>(file: &mut [T], dst: u32, a: u32, w: u32, f: impl Fn(T) -> T) {
    zip(file, dst, a, a, w, |x, _| f(x));
}

/// [`zip`] from one register file into the other, where no window can
/// alias: `to[dst + k] = f(from[a + k], from[b + k])`.
#[inline(always)]
fn zip_across<S: Copy, D>(
    to: &mut [D],
    from: &[S],
    dst: u32,
    a: u32,
    b: u32,
    w: u32,
    f: impl Fn(S, S) -> D,
) {
    let (dst, a, b, w) = (dst as usize, a as usize, b as usize, w as usize);
    by_width!(w, N => {
        let (x, y) = (read::<S, N>(from, a), read::<S, N>(from, b));
        let out = window::<D, N>(to, dst);
        for k in 0..N {
            out[k] = f(x[k], y[k]);
        }
    }, _ => {
        let (x, y) = (&from[a..a + w], &from[b..b + w]);
        for ((d, &x), &y) in to[dst..dst + w].iter_mut().zip(x).zip(y) {
            *d = f(x, y);
        }
    });
}

/// Unary [`zip_across`].
#[inline(always)]
fn map_across<S: Copy, D>(to: &mut [D], from: &[S], dst: u32, a: u32, w: u32, f: impl Fn(S) -> D) {
    zip_across(to, from, dst, a, a, w, |x, _| f(x));
}

/// Integer binary op in the `ty` domain; comparisons yield 0/1.
#[inline(always)]
pub(crate) fn bin_i(op: BinOp, ty: ScalarTy, file: &mut [i64], dst: u32, a: u32, b: u32, w: u32) {
    use BinOp::*;
    macro_rules! lift {
        ($($o:ident)*) => {
            match (op, ty) {
                $(($o, I32) => zip(file, dst, a, b, w, |x, y| scalar::bin_i($o, I32, x, y)),
                ($o, _) => zip(file, dst, a, b, w, |x, y| scalar::bin_i($o, I64, x, y)),)*
                // Sign extension preserves order: one predicate per
                // comparison serves both widths.
                (cmp, _) => cmp_i(cmp, file, dst, a, b, w),
            }
        };
    }
    lift!(Add Sub Mul Div Rem And Or Xor Shl Shr)
}

#[inline(always)]
fn cmp_i(op: BinOp, file: &mut [i64], dst: u32, a: u32, b: u32, w: u32) {
    use BinOp::*;
    macro_rules! lift {
        ($($o:ident)*) => {
            match op {
                $($o => zip(file, dst, a, b, w, |x, y| scalar::cmp_i($o, x, y)),)*
                _ => unreachable!("not a comparison: {op:?}"),
            }
        };
    }
    lift!(Eq Ne Lt Le Gt Ge)
}

/// Float arithmetic in the `ty` domain.
#[inline(always)]
pub(crate) fn bin_f(op: BinOp, ty: ScalarTy, file: &mut [f64], dst: u32, a: u32, b: u32, w: u32) {
    use BinOp::*;
    macro_rules! lift {
        ($($o:ident)*) => {
            match (op, ty) {
                $(($o, F32) => zip(file, dst, a, b, w, |x, y| scalar::bin_f($o, F32, x, y)),
                ($o, _) => zip(file, dst, a, b, w, |x, y| scalar::bin_f($o, F64, x, y)),)*
                _ => unreachable!("integer-only operator {op:?} on {ty}"),
            }
        };
    }
    lift!(Add Sub Mul Div Rem)
}

/// A multiply and the add that consumes it: lane `k` is `acc + a*b` when
/// `acc_first`, else `a*b + acc`, each op rounded in the `ty` domain by
/// [`scalar::bin_f`] — the bits of the two ops it stands for.
#[inline(always)]
pub(crate) fn mul_add_f(
    ty: ScalarTy,
    acc_first: bool,
    file: &mut [f64],
    dst: u32,
    acc: u32,
    (a, b): (u32, u32),
    w: u32,
) {
    use scalar::bin_f as op;
    use BinOp::{Add, Mul};
    let srcs = (acc, a, b);
    match (ty, acc_first) {
        (F32, true) => zip3(file, dst, srcs, w, |c, x, y| {
            op(Add, F32, c, op(Mul, F32, x, y))
        }),
        (F32, false) => zip3(file, dst, srcs, w, |c, x, y| {
            op(Add, F32, op(Mul, F32, x, y), c)
        }),
        (_, true) => zip3(file, dst, srcs, w, |c, x, y| {
            op(Add, F64, c, op(Mul, F64, x, y))
        }),
        (_, false) => zip3(file, dst, srcs, w, |c, x, y| {
            op(Add, F64, op(Mul, F64, x, y), c)
        }),
    }
}

/// Float comparison into the integer file: `i[dst + k] = op(f[a + k],
/// f[b + k])` as 0/1.
#[inline]
pub(crate) fn cmp_f(op: BinOp, regs: &mut Regs, dst: u32, a: u32, b: u32, w: u32) {
    use BinOp::*;
    let (to, from) = (&mut regs.i[..], &regs.f[..]);
    macro_rules! lift {
        ($($o:ident)*) => {
            match op {
                $($o => zip_across(to, from, dst, a, b, w, |x, y| scalar::cmp_f($o, x, y)),)*
                _ => unreachable!("not a comparison: {op:?}"),
            }
        };
    }
    lift!(Eq Ne Lt Le Gt Ge)
}

/// Wrapping negate in the `ty` domain.
#[inline]
pub(crate) fn neg_i(ty: ScalarTy, file: &mut [i64], dst: u32, a: u32, w: u32) {
    match ty {
        I32 => map(file, dst, a, w, |x| scalar::neg_i(I32, x)),
        _ => map(file, dst, a, w, |x| scalar::neg_i(I64, x)),
    }
}

/// `f[dst + k] = -f[a + k]`.
#[inline]
pub(crate) fn neg_f(file: &mut [f64], dst: u32, a: u32, w: u32) {
    map(file, dst, a, w, |x| -x);
}

/// Bitwise complement in the `ty` domain.
#[inline]
pub(crate) fn not_i(ty: ScalarTy, file: &mut [i64], dst: u32, a: u32, w: u32) {
    match ty {
        I32 => map(file, dst, a, w, |x| scalar::not_i(I32, x)),
        _ => map(file, dst, a, w, |x| scalar::not_i(I64, x)),
    }
}

/// `i[dst + k] = (i[a + k] == 0)`.
#[inline]
pub(crate) fn lognot_i(file: &mut [i64], dst: u32, a: u32, w: u32) {
    map(file, dst, a, w, |x| (x == 0) as i64);
}

/// `i[dst + k] = (f[a + k] == 0.0)` (NaN is truthy, -0.0 falsy).
#[inline]
pub(crate) fn lognot_f(regs: &mut Regs, dst: u32, a: u32, w: u32) {
    map_across(&mut regs.i, &regs.f, dst, a, w, |x| (x == 0.0) as i64);
}

/// Int-to-int cast (only `I64 -> I32` changes a value).
#[inline]
pub(crate) fn cast_ii(from: ScalarTy, to: ScalarTy, file: &mut [i64], dst: u32, a: u32, w: u32) {
    match (from, to) {
        (I64, I32) => map(file, dst, a, w, |x| scalar::cast_ii(I64, I32, x)),
        _ => map(file, dst, a, w, |x| x),
    }
}

/// Int-to-float cast.
#[inline]
pub(crate) fn cast_if(to: ScalarTy, regs: &mut Regs, dst: u32, a: u32, w: u32) {
    let (t, f) = (&mut regs.f[..], &regs.i[..]);
    match to {
        F32 => map_across(t, f, dst, a, w, |x| scalar::cast_if(F32, x)),
        _ => map_across(t, f, dst, a, w, |x| scalar::cast_if(F64, x)),
    }
}

/// Float-to-int cast (saturating, like Rust `as`).
#[inline]
pub(crate) fn cast_fi(to: ScalarTy, regs: &mut Regs, dst: u32, a: u32, w: u32) {
    let (t, f) = (&mut regs.i[..], &regs.f[..]);
    match to {
        I32 => map_across(t, f, dst, a, w, |x| scalar::cast_fi(I32, x)),
        _ => map_across(t, f, dst, a, w, |x| scalar::cast_fi(I64, x)),
    }
}

/// Float-to-float cast (an `F32` destination rounds through `f32`).
#[inline]
pub(crate) fn cast_ff(to: ScalarTy, file: &mut [f64], dst: u32, a: u32, w: u32) {
    match to {
        F32 => map(file, dst, a, w, |x| scalar::cast_ff(F32, x)),
        _ => map(file, dst, a, w, |x| x),
    }
}

/// Unary integer intrinsic — `Abs`, the only one the compiler accepts.
#[inline]
pub(crate) fn call1_i(ty: ScalarTy, file: &mut [i64], dst: u32, a: u32, w: u32) {
    match ty {
        I32 => map(file, dst, a, w, |x| scalar::call1_i(I32, x)),
        _ => map(file, dst, a, w, |x| scalar::call1_i(I64, x)),
    }
}

/// Binary integer intrinsic (`Min`/`Max`).
#[inline]
pub(crate) fn call2_i(i: Intrinsic, file: &mut [i64], dst: u32, a: u32, b: u32, w: u32) {
    match i {
        Intrinsic::Min => zip(file, dst, a, b, w, |x, y| {
            scalar::call2_i(Intrinsic::Min, x, y)
        }),
        Intrinsic::Max => zip(file, dst, a, b, w, |x, y| {
            scalar::call2_i(Intrinsic::Max, x, y)
        }),
        _ => unreachable!("integer intrinsic {i:?}"),
    }
}

/// Unary float intrinsic in the `ty` domain (not `#[inline]`, like
/// [`call2_f`]: libm dominates these, one copy of the loops will do).
pub(crate) fn call1_f(i: Intrinsic, ty: ScalarTy, file: &mut [f64], dst: u32, a: u32, w: u32) {
    use Intrinsic::*;
    macro_rules! lift {
        ($($n:ident)*) => {
            match (i, ty) {
                $(($n, F32) => map(file, dst, a, w, |x| scalar::call1_f($n, F32, x)),
                ($n, _) => map(file, dst, a, w, |x| scalar::call1_f($n, F64, x)),)*
                _ => unreachable!("unary float intrinsic {i:?}"),
            }
        };
    }
    lift!(Sin Cos Atan Sqrt Exp Log Floor Abs)
}

/// Binary float intrinsic (`Min`/`Max`/`Pow`) in the `ty` domain.
pub(crate) fn call2_f(
    i: Intrinsic,
    ty: ScalarTy,
    file: &mut [f64],
    dst: u32,
    a: u32,
    b: u32,
    w: u32,
) {
    use Intrinsic::*;
    macro_rules! lift {
        ($($n:ident)*) => {
            match (i, ty) {
                $(($n, F32) => zip(file, dst, a, b, w, |x, y| scalar::call2_f($n, F32, x, y)),
                ($n, _) => zip(file, dst, a, b, w, |x, y| scalar::call2_f($n, F64, x, y)),)*
                _ => unreachable!("binary float intrinsic {i:?}"),
            }
        };
    }
    lift!(Min Max Pow)
}

/// The destinations of a lone permute of `parity` into `dst`, in the
/// shape [`permute`] takes.
#[inline(always)]
pub(crate) fn lone(parity: u32, dst: u32) -> [Option<u32>; 2] {
    if parity == 0 {
        [Some(dst), None]
    } else {
        [None, Some(dst)]
    }
}

/// `extract_even` into `even` and `extract_odd` into `odd` of the `2w`
/// lanes `a ++ b`, either left out where `None`: lane `k` of the parity-`p`
/// half is lane `p + 2k` of the concatenation, and the even half is
/// written first. When every destination is disjoint from both sources —
/// the firing compiler's invariant for a permute — a SIMD-width pair of
/// sources is read whole once and each half stored whole. Any other
/// window takes the indexed loop, one half after the other, lanes
/// ascending: the two single permutes it stands for, bit for bit.
///
/// Out of line, unlike the other ops: inlined into the four permute arms
/// of `run_code` it made the whole dispatch loop slower, the scalar suite
/// (which runs no permute) included.
#[inline(never)]
pub(crate) fn permute<T: Copy>(
    file: &mut [T],
    [even, odd]: [Option<u32>; 2],
    a: u32,
    b: u32,
    w: u32,
) {
    let (a, b, w) = (a as usize, b as usize, w as usize);
    let halves = [(0, even), (1, odd)];
    let apart = |d: u32| {
        let d = d as usize;
        (d + w <= a || a + w <= d) && (d + w <= b || b + w <= d)
    };
    if even.is_none_or(apart) && odd.is_none_or(apart) {
        by_width!(w, N => {
            let (x, y) = (read::<T, N>(file, a), read::<T, N>(file, b));
            for (parity, dst) in halves {
                if let Some(dst) = dst {
                    *window::<T, N>(file, dst as usize) = std::array::from_fn(|k| {
                        let at = parity + 2 * k;
                        if at < N { x[at] } else { y[at - N] }
                    });
                }
            }
            return;
        }, _ => {});
    }
    for (parity, dst) in halves {
        let Some(dst) = dst else { continue };
        for k in 0..w {
            let at = parity + 2 * k;
            file[dst as usize + k] = if at < w {
                file[a + at]
            } else {
                file[b + at - w]
            };
        }
    }
}

/// `file[dst..dst + w] = file[src..src + w]` with `copy_within`'s overlap
/// semantics (the source is read whole before the first store).
#[inline(always)]
pub(crate) fn mov<T: Copy>(file: &mut [T], dst: usize, src: usize, w: usize) {
    by_width!(w, N => *window::<T, N>(file, dst) = read::<T, N>(file, src), _ => {
        file.copy_within(src..src + w, dst);
    });
}

/// `file[dst..dst + w] = v` in every lane (zeroing, [`splat`]).
#[inline(always)]
pub(crate) fn fill<T: Copy>(file: &mut [T], dst: usize, w: usize, v: T) {
    by_width!(w, N => *window::<T, N>(file, dst) = [v; N], _ => file[dst..dst + w].fill(v));
}

/// Broadcast: `file[dst..dst + w] = file[a]` (read before the fill, so a
/// source inside the window is safe).
#[inline(always)]
pub(crate) fn splat<T: Copy>(file: &mut [T], dst: u32, a: u32, w: u32) {
    let v = file[a as usize];
    fill(file, dst as usize, w as usize, v);
}

/// `file[dst..dst + vals.len()] = vals` (vector constants, image spans
/// landing on a tape).
#[inline(always)]
pub(crate) fn put<T: Copy>(file: &mut [T], dst: usize, vals: &[T]) {
    by_width!(vals.len(), N => *window::<T, N>(file, dst) = read::<T, N>(vals, 0), _ => {
        file[dst..dst + vals.len()].copy_from_slice(vals);
    });
}

/// Load the image span `a ++ b` — what a tape or channel pop hands out —
/// into the registers at `dst`, each image bit-cast by `of`.
#[inline(always)]
pub(crate) fn load<T: Copy>(
    file: &mut [T],
    dst: u32,
    (a, b): (&[u64], &[u64]),
    of: impl Fn(u64) -> T,
) {
    let dst = dst as usize;
    if b.is_empty() {
        by_width!(a.len(), N => {
            *window::<T, N>(file, dst) = read::<u64, N>(a, 0).map(of);
            return;
        }, _ => {});
    }
    let to = &mut file[dst..dst + a.len() + b.len()];
    for (d, &raw) in to.iter_mut().zip(a.iter().chain(b)) {
        *d = of(raw);
    }
}

/// Hand the `w` registers at `src` to `sink` as a span of images, each
/// register bit-cast by `bits`: whole for a SIMD width, in pieces of at
/// most eight for any other (a tape or channel push of the pieces in order
/// is a push of the whole).
#[inline(always)]
pub(crate) fn store<T: Copy>(
    file: &[T],
    src: u32,
    w: u32,
    bits: impl Fn(T) -> u64,
    mut sink: impl FnMut(&[u64]),
) {
    let (src, w) = (src as usize, w as usize);
    by_width!(w, N => sink(&read::<T, N>(file, src).map(bits)), _ => {
        for piece in file[src..src + w].chunks(8) {
            let mut images = [0u64; 8];
            for (image, &x) in images.iter_mut().zip(piece) {
                *image = bits(x);
            }
            sink(&images[..piece.len()]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{run_code, Chan, CompiledFilter, Op};
    use crate::machine::{AddrCosts, CycleCounters};
    use crate::tape::Tape;

    /// Registers per file in the property tests: room for three 16-lane
    /// windows plus the shifted ones.
    const FILE: usize = 64;

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// An integer register holding a `ty` value: sign-extended `i32`s
        /// for `I32` (the representation invariant every op relies on),
        /// anything for `I64`; zero, the extremes and small shift counts
        /// come up often.
        fn int(&mut self, ty: ScalarTy) -> i64 {
            let x = self.next();
            let wide = match x % 8 {
                0 => 0,
                1 => -1,
                2 => i64::MIN,
                3 => i64::MAX,
                4 => (x >> 8) as i64 % 70,
                _ => (x >> 3) as i64,
            };
            match ty {
                I32 if x % 8 == 2 => i32::MIN as i64,
                I32 if x % 8 == 3 => i32::MAX as i64,
                I32 => wide as i32 as i64,
                _ => wide,
            }
        }

        /// A float register holding a `ty` value (exactly widened `f32`s
        /// for `F32`), specials included. The one NaN is the NaN this
        /// host's arithmetic produces, so no op ever meets two different
        /// payloads and an operand swap inside a vectorized loop cannot
        /// show (which operand's payload survives is unspecified).
        fn float(&mut self, ty: ScalarTy) -> f64 {
            let x = self.next();
            let (zero, inf) = (std::hint::black_box(0.0f64), f64::INFINITY);
            let wide = match x % 10 {
                0 => 0.0,
                1 => -0.0,
                2 => zero * inf,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                5 => 1.0e300,
                6 => -1.0e-310,
                7 => ((x >> 8) % 4000) as f64 / 8.0 - 250.0,
                _ => f64::from_bits(x >> 2) * 1.0e-3,
            };
            match ty {
                F32 => wide as f32 as f64,
                _ => wide,
            }
        }

        fn regs(&mut self, ity: ScalarTy, fty: ScalarTy) -> Regs {
            Regs {
                i: (0..FILE).map(|_| self.int(ity)).collect(),
                f: (0..FILE).map(|_| self.float(fty)).collect(),
            }
        }
    }

    fn bits(r: &Regs) -> (Vec<i64>, Vec<u64>) {
        (r.i.clone(), r.f.iter().map(|x| x.to_bits()).collect())
    }

    fn plan_of(work: Vec<Op>, zero_i: Vec<(u32, u32)>, zero_f: Vec<(u32, u32)>) -> CompiledFilter {
        CompiledFilter {
            zero_i,
            zero_f,
            ..CompiledFilter::bare("lanes", FILE as u32, FILE as u32, work)
        }
    }

    /// `op` through the dispatch loop.
    fn dispatched(op: &Op, regs: &mut Regs) {
        let plan = plan_of(vec![op.clone()], vec![], vec![]);
        let mut c = CycleCounters::default();
        run_code(
            &plan,
            &plan.work,
            regs,
            &mut [],
            None,
            None,
            AddrCosts::default(),
            &mut c,
        )
        .expect("pure ops cannot fail");
    }

    /// The naive interpreter the dispatch loop is held to: one scalar
    /// helper call per lane, lanes ascending, straight on the register
    /// file.
    fn reference(op: &Op, r: &mut Regs) {
        macro_rules! lanes {
            ($w:expr, $to:ident[$dst:expr] = |$k:ident| $e:expr) => {
                for $k in 0..$w as usize {
                    r.$to[$dst as usize + $k] = $e;
                }
            };
        }
        let (i, f) = (
            |r: &Regs, at: u32, k: usize| r.i[at as usize + k],
            |r: &Regs, at: u32, k: usize| r.f[at as usize + k],
        );
        match *op {
            Op::VBinI {
                op,
                ty,
                dst,
                a,
                b,
                w,
            } => {
                lanes!(
                    w,
                    i[dst] = |k| scalar::bin_i(op, ty, i(r, a, k), i(r, b, k))
                )
            }
            Op::VBinF {
                op,
                ty,
                dst,
                a,
                b,
                w,
            } => {
                lanes!(
                    w,
                    f[dst] = |k| scalar::bin_f(op, ty, f(r, a, k), f(r, b, k))
                )
            }
            Op::MulAddF {
                ty,
                acc_first,
                dst,
                acc,
                a,
                b,
                w,
            } => lanes!(
                w,
                f[dst] = |k| {
                    let p = scalar::bin_f(BinOp::Mul, ty, f(r, a, k), f(r, b, k));
                    let c = f(r, acc, k);
                    if acc_first {
                        scalar::bin_f(BinOp::Add, ty, c, p)
                    } else {
                        scalar::bin_f(BinOp::Add, ty, p, c)
                    }
                }
            ),
            Op::VCmpF { op, dst, a, b, w } => {
                lanes!(w, i[dst] = |k| scalar::cmp_f(op, f(r, a, k), f(r, b, k)))
            }
            Op::VNegI { ty, dst, a, w } => lanes!(w, i[dst] = |k| scalar::neg_i(ty, i(r, a, k))),
            Op::VNegF { dst, a, w } => lanes!(w, f[dst] = |k| -f(r, a, k)),
            Op::VNotI { ty, dst, a, w } => lanes!(w, i[dst] = |k| scalar::not_i(ty, i(r, a, k))),
            Op::VLogNotI { dst, a, w } => lanes!(w, i[dst] = |k| (i(r, a, k) == 0) as i64),
            Op::VLogNotF { dst, a, w } => lanes!(w, i[dst] = |k| (f(r, a, k) == 0.0) as i64),
            Op::VCastII {
                from,
                to,
                dst,
                a,
                w,
            } => {
                lanes!(w, i[dst] = |k| scalar::cast_ii(from, to, i(r, a, k)))
            }
            Op::VCastIF { to, dst, a, w } => {
                lanes!(w, f[dst] = |k| scalar::cast_if(to, i(r, a, k)))
            }
            Op::VCastFI { to, dst, a, w } => {
                lanes!(w, i[dst] = |k| scalar::cast_fi(to, f(r, a, k)))
            }
            Op::VCastFF { to, dst, a, w } => {
                lanes!(w, f[dst] = |k| scalar::cast_ff(to, f(r, a, k)))
            }
            Op::VCall1I { ty, dst, a, w, .. } => {
                lanes!(w, i[dst] = |k| scalar::call1_i(ty, i(r, a, k)))
            }
            Op::VCall2I { i: n, dst, a, b, w } => {
                lanes!(w, i[dst] = |k| scalar::call2_i(n, i(r, a, k), i(r, b, k)))
            }
            Op::VCall1F {
                i: n,
                ty,
                dst,
                a,
                w,
            } => {
                lanes!(w, f[dst] = |k| scalar::call1_f(n, ty, f(r, a, k)))
            }
            Op::VCall2F {
                i: n,
                ty,
                dst,
                a,
                b,
                w,
            } => {
                lanes!(
                    w,
                    f[dst] = |k| scalar::call2_f(n, ty, f(r, a, k), f(r, b, k))
                )
            }
            Op::PermI {
                parity,
                dst,
                a,
                b,
                w,
            } => lanes!(
                w,
                i[dst] = |k| match parity as usize + 2 * k {
                    at if at < w as usize => i(r, a, at),
                    at => i(r, b, at - w as usize),
                }
            ),
            Op::PermF {
                parity,
                dst,
                a,
                b,
                w,
            } => lanes!(
                w,
                f[dst] = |k| match parity as usize + 2 * k {
                    at if at < w as usize => f(r, a, at),
                    at => f(r, b, at - w as usize),
                }
            ),
            ref other => unreachable!("the reference covers vector forms only: {other:?}"),
        }
    }

    /// The scalar op that is `op` at width 1, where the bytecode has one.
    fn scalar_form(op: &Op) -> Op {
        match *op {
            Op::VBinI {
                op, ty, dst, a, b, ..
            } => Op::BinI { op, ty, dst, a, b },
            Op::VBinF {
                op, ty, dst, a, b, ..
            } => Op::BinF { op, ty, dst, a, b },
            Op::VCmpF { op, dst, a, b, .. } => Op::CmpF { op, dst, a, b },
            Op::VNegI { ty, dst, a, .. } => Op::NegI { ty, dst, a },
            Op::VNegF { dst, a, .. } => Op::NegF { dst, a },
            Op::VNotI { ty, dst, a, .. } => Op::NotI { ty, dst, a },
            Op::VLogNotI { dst, a, .. } => Op::LogNotI { dst, a },
            Op::VLogNotF { dst, a, .. } => Op::LogNotF { dst, a },
            Op::VCastII {
                from, to, dst, a, ..
            } => Op::CastII { from, to, dst, a },
            Op::VCastIF { to, dst, a, .. } => Op::CastIF { to, dst, a },
            Op::VCastFI { to, dst, a, .. } => Op::CastFI { to, dst, a },
            Op::VCastFF { to, dst, a, .. } => Op::CastFF { to, dst, a },
            Op::VCall1I { i, ty, dst, a, .. } => Op::Call1I { i, ty, dst, a },
            Op::VCall2I { i, dst, a, b, .. } => Op::Call2I { i, dst, a, b },
            Op::VCall1F { i, ty, dst, a, .. } => Op::Call1F { i, ty, dst, a },
            Op::VCall2F {
                i, ty, dst, a, b, ..
            } => Op::Call2F { i, ty, dst, a, b },
            ref other => unreachable!("{other:?}"),
        }
    }

    /// Every pure arithmetic op the firing compiler can emit, as
    /// `(vector form, int operand type, float operand type)`.
    fn pure_ops(dst: u32, a: u32, b: u32, w: u32) -> Vec<(Op, ScalarTy, ScalarTy)> {
        use BinOp::*;
        use Intrinsic::*;
        let mut ops = Vec::new();
        for ty in [I32, I64] {
            for op in [
                Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge,
            ] {
                ops.push((
                    Op::VBinI {
                        op,
                        ty,
                        dst,
                        a,
                        b,
                        w,
                    },
                    ty,
                    F64,
                ));
            }
            ops.push((Op::VNegI { ty, dst, a, w }, ty, F64));
            ops.push((Op::VNotI { ty, dst, a, w }, ty, F64));
            ops.push((Op::VLogNotI { dst, a, w }, ty, F64));
            ops.push((
                Op::VCall1I {
                    i: Abs,
                    ty,
                    dst,
                    a,
                    w,
                },
                ty,
                F64,
            ));
            for i in [Min, Max] {
                ops.push((Op::VCall2I { i, dst, a, b, w }, ty, F64));
            }
            for to in [I32, I64] {
                ops.push((
                    Op::VCastII {
                        from: ty,
                        to,
                        dst,
                        a,
                        w,
                    },
                    ty,
                    F64,
                ));
            }
            for to in [F32, F64] {
                ops.push((Op::VCastIF { to, dst, a, w }, ty, to));
            }
        }
        for ty in [F32, F64] {
            for op in [Add, Sub, Mul, Div, Rem] {
                ops.push((
                    Op::VBinF {
                        op,
                        ty,
                        dst,
                        a,
                        b,
                        w,
                    },
                    I64,
                    ty,
                ));
            }
            for op in [Eq, Ne, Lt, Le, Gt, Ge] {
                ops.push((Op::VCmpF { op, dst, a, b, w }, I64, ty));
            }
            ops.push((Op::VNegF { dst, a, w }, I64, ty));
            ops.push((Op::VLogNotF { dst, a, w }, I64, ty));
            for i in [Sin, Cos, Atan, Sqrt, Exp, Log, Floor, Abs] {
                ops.push((Op::VCall1F { i, ty, dst, a, w }, I64, ty));
            }
            for i in [Min, Max, Pow] {
                ops.push((
                    Op::VCall2F {
                        i,
                        ty,
                        dst,
                        a,
                        b,
                        w,
                    },
                    I64,
                    ty,
                ));
            }
            for to in [I32, I64] {
                ops.push((Op::VCastFI { to, dst, a, w }, to, ty));
            }
            for to in [F32, F64] {
                ops.push((Op::VCastFF { to, dst, a, w }, I64, ty));
            }
        }
        ops
    }

    #[test]
    fn every_pure_op_matches_the_lane_by_lane_reference() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (a, b) = (8u32, 26u32);
        for w in [1u32, 2, 3, 4, 5, 8, 16] {
            // Disjoint, identical to a source, and overlapping a source
            // one lane up or down — where lane order is observable.
            for dst in [44, a, b, a + 1, a - 1, b + 1, b - 1] {
                for (op, ity, fty) in pure_ops(dst, a, b, w) {
                    let init = rng.regs(ity, fty);
                    let mut want = init.clone();
                    reference(&op, &mut want);
                    let mut forms = vec![op.clone()];
                    if w == 1 {
                        forms.push(scalar_form(&op));
                    }
                    for form in forms {
                        let mut got = init.clone();
                        dispatched(&form, &mut got);
                        assert_eq!(bits(&got), bits(&want), "{form:?}");
                    }
                }
            }
        }
    }

    /// Quiet NaNs with two payloads, the ones the engines' differential
    /// tests keep apart (`tests/proptests.rs`).
    const NAN_BITS: [u32; 2] = [0x7fc0_0001, 0x7fc0_0002];

    /// `MulAddF` at widths 1 to 8, F32 and F64, in both operand orders,
    /// its destination apart from, identical to or one lane off each
    /// source: lane by lane the two `bin_f` roundings it stands for, and —
    /// when no source is off by a lane, as the compiler emits it — the
    /// bits of the `VBinF Mul` into a temporary and the `VBinF Add` it
    /// replaces. A case draws one NaN payload and either signed zeros or
    /// infinities, never both: a product is then NaN only when an operand
    /// is, and two different NaNs never meet in one op (which of them
    /// survives is unspecified). Where a source is off by a lane, a lane
    /// reads what an earlier one wrote, a NaN the op makes itself (∞ − ∞)
    /// could meet the payload, and the case draws no payload.
    #[test]
    fn mul_add_matches_the_two_roundings_it_stands_for() {
        use BinOp::{Add, Mul};
        let (acc, a, b, temp) = (0u32, 16, 32, 56);
        let mut rng = Rng(0x6d75_6c61_6464);
        for w in [1u32, 2, 3, 4, 8] {
            for dst in [48, acc, a, b, acc + 1, a - 1, a + 1, b - 1, b + 1] {
                for (ty, acc_first, case) in [F32, F64]
                    .into_iter()
                    .flat_map(|ty| [(ty, true), (ty, false)])
                    .flat_map(|(ty, first)| (0..4usize).map(move |case| (ty, first, case)))
                {
                    // An `f32` NaN exactly widened, payload kept.
                    let payload = u64::from(NAN_BITS[case % 2] & 0x7f_ffff) << 29;
                    let nan = f64::from_bits(0x7ff0_0000_0000_0000 | payload);
                    let off = |s: u32| s != dst && s < dst + w && dst < s + w;
                    let shifted = [acc, a, b].into_iter().any(off);
                    let specials = if case < 2 {
                        [0.0, -0.0]
                    } else {
                        [f64::INFINITY, f64::NEG_INFINITY]
                    };
                    let mut init = Regs::new(FILE, FILE);
                    for x in init.f.iter_mut() {
                        let r = rng.next();
                        let small = ((r >> 8) % 4000) as f64 / 8.0 - 249.9375;
                        let finite = [small, 1.5, 3.0e38, -1.0e-40];
                        *x = match r % 6 {
                            0 if !shifted => nan,
                            0..=2 => specials[(r >> 3) as usize % 2],
                            _ if ty == F32 => finite[(r >> 5) as usize % 4] as f32 as f64,
                            _ => finite[(r >> 5) as usize % 4],
                        };
                    }
                    let op = Op::MulAddF {
                        ty,
                        acc_first,
                        dst,
                        acc,
                        a,
                        b,
                        w,
                    };
                    let mut want = init.clone();
                    reference(&op, &mut want);
                    let mut got = init.clone();
                    dispatched(&op, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{op:?}");
                    if !shifted {
                        let (x, y) = if acc_first { (acc, temp) } else { (temp, acc) };
                        let mut pair = init.clone();
                        for op in [
                            Op::VBinF {
                                op: Mul,
                                ty,
                                dst: temp,
                                a,
                                b,
                                w,
                            },
                            Op::VBinF {
                                op: Add,
                                ty,
                                dst,
                                a: x,
                                b: y,
                                w,
                            },
                        ] {
                            dispatched(&op, &mut pair);
                        }
                        let t = temp as usize..(temp + w) as usize;
                        pair.f[t.clone()].copy_from_slice(&init.f[t]);
                        assert_eq!(bits(&got), bits(&pair), "{op:?} against the pair");
                    }
                }
            }
        }
    }

    /// `PermPairI`/`PermPairF` at widths 1 to 8 — the fixed-width path, and
    /// at 3, 5, 6 and 7 the indexed one — against the even and the odd
    /// `Perm*` it stands for, each run through the dispatch loop and
    /// through the lane-by-lane reference, one after the other. The two
    /// destinations lie apart, side by side either way round or on one
    /// window (the odd half wins), or one of them overlaps a source, where
    /// lane order shows. The float file holds both NaN payloads and signed
    /// zeros, which a permute must move bit for bit.
    #[test]
    fn a_permute_pair_matches_the_two_permutes_it_stands_for() {
        let (a, b) = (8u32, 24u32);
        let mut rng = Rng(0x0070_6572_6d75_7465);
        for w in 1..=8u32 {
            for (even, odd) in [
                (40, 52),
                (40, 40 + w),
                (40 + w, 40),
                (44, 44),
                (a, 44),
                (a + 1, 44),
                (44, b - 1),
                (44, b + w / 2),
            ] {
                let mut init = rng.regs(I64, F64);
                for (k, x) in init.f.iter_mut().enumerate() {
                    let payload = u64::from(NAN_BITS[k % 2] & 0x7f_ffff) << 29;
                    match rng.next() % 4 {
                        0 => *x = f64::from_bits(0x7ff0_0000_0000_0000 | payload),
                        1 => *x = [0.0, -0.0][k % 2],
                        _ => {}
                    }
                }
                for float in [false, true] {
                    let (halves, pair) = if float {
                        (
                            [(0, even), (1, odd)].map(|(parity, dst)| Op::PermF {
                                parity,
                                dst,
                                a,
                                b,
                                w,
                            }),
                            Op::PermPairF { even, odd, a, b, w },
                        )
                    } else {
                        (
                            [(0, even), (1, odd)].map(|(parity, dst)| Op::PermI {
                                parity,
                                dst,
                                a,
                                b,
                                w,
                            }),
                            Op::PermPairI { even, odd, a, b, w },
                        )
                    };
                    let (mut want, mut lone) = (init.clone(), init.clone());
                    for op in &halves {
                        reference(op, &mut want);
                        dispatched(op, &mut lone);
                    }
                    assert_eq!(bits(&lone), bits(&want), "{halves:?}");
                    let mut got = init.clone();
                    dispatched(&pair, &mut got);
                    assert_eq!(bits(&got), bits(&want), "{pair:?}");
                }
            }
        }
    }

    #[test]
    fn windows_of_every_width_move_like_the_slice_primitives() {
        let file: Vec<i64> = (0..FILE as i64).map(|x| x * 3 + 1).collect();
        let src = 20usize;
        for w in 1..=17usize {
            // Disjoint, then overlapping in both directions by one lane,
            // by half and by all but one.
            for dst in [
                40,
                src + 1,
                src - 1,
                src + w / 2,
                src - w / 2,
                src + w - 1,
                src,
            ] {
                let mut want = file.clone();
                want.copy_within(src..src + w, dst);
                let mut got = file.clone();
                mov(&mut got, dst, src, w);
                assert_eq!(got, want, "mov w {w} dst {dst}");

                // The same move as an op and as a panel load/store (index
                // register 0 holds element 0).
                let (d, s, ww) = (dst as u32, src as u32, w as u32);
                let mut wantf = Regs::new(FILE, FILE);
                wantf.f = want.iter().map(|&x| x as f64).collect();
                let startf = || {
                    let mut r = Regs::new(FILE, FILE);
                    r.f = file.iter().map(|&x| x as f64).collect();
                    r
                };
                for op in [
                    Op::MovNF {
                        dst: d,
                        src: s,
                        w: ww,
                    },
                    Op::LoadVElemF {
                        dst: d,
                        base: s,
                        len: 1,
                        idx: 0,
                        w: ww,
                    },
                    Op::StoreVElemF {
                        base: d,
                        len: 1,
                        idx: 0,
                        src: s,
                        w: ww,
                    },
                ] {
                    let mut got = startf();
                    dispatched(&op, &mut got);
                    assert_eq!(bits(&got), bits(&wantf), "{op:?}");
                }
            }

            let mut want = file.clone();
            want[src..src + w].fill(-7);
            let mut got = file.clone();
            fill(&mut got, src, w, -7);
            assert_eq!(got, want, "fill w {w}");

            let vals: Vec<i64> = (0..w as i64).map(|x| -x).collect();
            want[src..src + w].copy_from_slice(&vals);
            put(&mut got, src, &vals);
            assert_eq!(got, want, "put w {w}");

            // Splat, constant-pool load and local zeroing as the engine
            // issues them. The splat source sits inside its own window.
            let mut start = Regs::new(FILE, FILE);
            start.i.clone_from(&file);
            let at = src as u32;
            let mut want = start.clone();
            want.i[src..src + w].fill(file[src + w / 2]);
            let splat = Op::SplatI {
                dst: at,
                a: at + w as u32 / 2,
                w: w as u32,
            };
            let mut got = start.clone();
            dispatched(&splat, &mut got);
            assert_eq!(bits(&got), bits(&want), "{splat:?}");

            let mut pooled = plan_of(vec![], vec![], vec![]);
            pooled.pool_i = (at, vals.clone().into());
            pooled.pool_f = (at, vals.iter().map(|&x| x as f64).collect());
            let mut want = Regs::new(FILE, FILE);
            want.i[src..src + w].copy_from_slice(&vals);
            want.f[src..src + w].copy_from_slice(&pooled.pool_f.1);
            assert_eq!(bits(&pooled.new_regs()), bits(&want), "pool w {w}");

            let mut want = start.clone();
            want.i[src..src + w].fill(0);
            want.i[3] = 0;
            let mut got = start.clone();
            plan_of(vec![], vec![(3, 1), (at, w as u32)], vec![]).zero_locals(&mut got);
            assert_eq!(bits(&got), bits(&want), "zero_locals w {w}");
        }
    }

    /// Vector tape and channel ops of every width — SIMD widths as one
    /// window, odd ones in pieces, spans that wrap the tape's ring in two
    /// — move exactly the register bits, in both files.
    #[test]
    fn tape_and_channel_vector_ops_of_every_width_move_register_bits() {
        for w in 1..=17u32 {
            // `skew` rotates both rings so that some spans straddle the seam.
            for skew in [0, 5, 7] {
                let (ity, fty) = (I64, F64);
                let mut rng = Rng(0x51ce ^ ((w as u64) << 8) ^ skew);
                let ints: Vec<i64> = (0..w).map(|_| rng.int(ity)).collect();
                let floats: Vec<f64> = (0..w).map(|_| rng.float(fty)).collect();
                for float in [false, true] {
                    let images: Vec<u64> = if float {
                        floats.iter().map(|x| x.to_bits()).collect()
                    } else {
                        ints.iter().map(|&x| x as u64).collect()
                    };
                    let ty = if float { fty } else { ity };
                    let (mut input, mut output) = (Tape::new(ty), Tape::new(ty));
                    for tape in [&mut input, &mut output] {
                        (0..skew).for_each(|_| tape.push_raw(0));
                        tape.advance_read(skew as usize);
                    }
                    input.push_slice(&images);
                    // peek -> channel -> registers -> output; then the pop.
                    let (chan, off) = (0, 63);
                    let work = if float {
                        vec![
                            Op::VPeekF { dst: 0, off, w },
                            Op::LVPushF { chan, src: 0, w },
                            Op::LVPopF { chan, dst: 20, w },
                            Op::VPushF { src: 20, w },
                            Op::VPopF { dst: 40, w },
                        ]
                    } else {
                        vec![
                            Op::VPeekI { dst: 0, off, w },
                            Op::LVPushI { chan, src: 0, w },
                            Op::LVPopI { chan, dst: 20, w },
                            Op::VPushI { src: 20, w },
                            Op::VPopI { dst: 40, w },
                        ]
                    };
                    let plan = plan_of(work, vec![], vec![]);
                    let mut regs = Regs::new(FILE, FILE);
                    let mut chans = [Chan::default()];
                    let mut c = CycleCounters::default();
                    let (i, o) = (Some(&mut input), Some(&mut output));
                    let addr = AddrCosts::default();
                    run_code(&plan, &plan.work, &mut regs, &mut chans, i, o, addr, &mut c)
                        .expect("the tokens are there");
                    let at = format!("w {w} skew {skew} float {float}");
                    let (a, b) = output.vpop_slices(w as usize);
                    assert_eq!([a, b].concat(), images, "{at}");
                    assert!(input.is_empty() && chans[0].is_empty(), "{at}");
                    for base in [0, 20, 40] {
                        let got: Vec<u64> = (base..base + w as usize)
                            .map(|k| {
                                if float {
                                    regs.f[k].to_bits()
                                } else {
                                    regs.i[k] as u64
                                }
                            })
                            .collect();
                        assert_eq!(got, images, "{at} window {base}");
                    }
                }
            }
        }
    }
}
