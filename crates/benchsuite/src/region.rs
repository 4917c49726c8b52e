//! Region-state benchmarks (stateful SIMDization): actors whose state
//! splits into `R` identical per-channel regions with firing `i` touching
//! only region `i mod R`. Both workloads carry a [`RegionSpec`] annotation
//! so the driver's region pass can vectorize them lane-per-region — the
//! actors the classic transforms refuse because they are stateful.
//!
//! [`RegionSpec`]: macross_streamir::RegionSpec

use crate::util::*;
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::Graph;
use macross_streamir::types::{ScalarTy, Ty};

/// Number of interleaved channels in both region benchmarks.
pub const CHANNELS: usize = 8;

/// Smoothing pole shared by every cascade stage of the IIR bank.
pub const IIR_POLE: f32 = 0.75;

/// Multiplier of the accumulator normalizer's first mixing round.
pub const ACC_MULT: i64 = 2654435761;

/// Multiplier of the second mixing round (positive 64-bit LCG constant).
pub const MIX_MULT: i64 = 6364136223846793005;

/// RegionIIRBank: 8 interleaved audio channels through a bank of
/// eight-stage cascaded one-pole IIR smoothers, one filter state per
/// channel and per stage. Firing `k` filters channel `k mod 8` with its
/// own `s1..s8[c]`, so the actor is stateful but the state is
/// region-splittable: 8 regions become two 4-lane panels at SSE width.
pub fn region_iir_bank() -> Graph {
    let mut fb = FilterBuilder::new("iir_bank", 1, 1, 1, ScalarTy::F32);
    let cur = fb.region_cursor("cur", CHANNELS);
    let stages: Vec<_> = (1..=8)
        .map(|s| fb.region_var(format!("s{s}"), ScalarTy::F32))
        .collect();
    let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
    let x = fb.local("x", Ty::Scalar(ScalarTy::F32));
    let st = stages.clone();
    fb.init(move |b| {
        b.for_(j, CHANNELS as i32, |b| {
            for (i, &s) in st.iter().enumerate() {
                b.set_idx(
                    s,
                    v(j),
                    cast(ScalarTy::F32, v(j)) * (0.125 * (i + 1) as f32),
                );
            }
        });
    });
    let st = stages.clone();
    fb.work(move |b| {
        b.set(x, pop());
        for &s in &st {
            b.set_idx(
                s,
                v(cur),
                idx(s, v(cur)) * IIR_POLE + v(x) * (1.0 - IIR_POLE),
            );
            b.set(x, idx(s, v(cur)));
        }
        b.push(v(x));
        b.set(cur, (v(cur) + 1i32) % c(CHANNELS as i32));
    });
    StreamSpec::pipeline(vec![
        source_f32("rib_src", 8, 4096, 0.001),
        fb.build_spec(),
        amplify("rib_out", 2.0),
        StreamSpec::Sink,
    ])
    .build()
    .expect("region_iir_bank builds")
}

/// RegionAccNorm: 8 interleaved counters with a hash-style normalizer.
/// Each firing accumulates into its channel's `i64` running sum, then
/// mixes it through murmur-style rounds (64-bit multiplies, xor-shifts)
/// and emits a truncated, compare-biased `i32` — exercising the
/// integer-heavy kernel ops (i64 multiply, integer compare) on
/// region-panel state.
pub fn region_acc_norm() -> Graph {
    let mut fb = FilterBuilder::new("acc_norm", 1, 1, 1, ScalarTy::I32);
    let cur = fb.region_cursor("cur", CHANNELS);
    let acc = fb.region_var("acc", ScalarTy::I64);
    let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
    let m = fb.local("m", Ty::Scalar(ScalarTy::I64));
    let over = fb.local("over", Ty::Scalar(ScalarTy::I32));
    fb.init(|b| {
        b.for_(j, CHANNELS as i32, |b| {
            b.set_idx(acc, v(j), cast(ScalarTy::I64, v(j) * 1000i32));
        });
    });
    fb.work(|b| {
        b.set_idx(acc, v(cur), idx(acc, v(cur)) + cast(ScalarTy::I64, pop()));
        b.set(m, idx(acc, v(cur)) * c(ACC_MULT));
        b.set(m, (v(m) ^ (v(m) >> c(31i64))) * c(MIX_MULT));
        b.set(m, v(m) ^ (v(m) >> c(33i64)));
        b.set(over, gt(v(m), c(0i64)) + lt(v(m), c(-(1i64 << 40))));
        b.push(cast(ScalarTy::I32, v(m) >> c(20i64)) + v(over));
        b.set(cur, (v(cur) + 1i32) % c(CHANNELS as i32));
    });

    // A stateless i32 tail so the graph also exercises mixed region +
    // single-actor scheduling (Equation 1 across both widths).
    let mut tail = FilterBuilder::new("ran_mix", 1, 1, 1, ScalarTy::I32);
    tail.work(|b| {
        b.push((pop() ^ c(0x5a5ai32)) * 3i32);
    });

    StreamSpec::pipeline(vec![
        source_i32("ran_src", 8, 0x7fff),
        fb.build_spec(),
        tail.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("region_acc_norm builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross::driver::{macro_simdize, SimdizeOptions};
    use macross_sdf::Schedule;
    use macross_streamir::types::Value;
    use macross_vm::{run_scheduled, Machine};

    /// The IIR bank against a closed-form scalar oracle computed in plain
    /// Rust with identical f32 arithmetic.
    #[test]
    fn iir_bank_matches_scalar_oracle() {
        let g = region_iir_bank();
        let sched = Schedule::compute(&g).unwrap();
        let r = run_scheduled(&g, &sched, &Machine::core_i7(), 16).unwrap();
        assert!(r.output.len() >= CHANNELS * 4);
        let mut s = [[0.0f32; CHANNELS]; 8];
        for (i, stage) in s.iter_mut().enumerate() {
            for (j, slot) in stage.iter_mut().enumerate() {
                *slot = j as f32 * (0.125 * (i + 1) as f32);
            }
        }
        let mut n = 0i32;
        for (k, out) in r.output.iter().enumerate() {
            let mut x = n as f32 * 0.001;
            n = (n + 1) % 4096;
            let ch = k % CHANNELS;
            for stage in s.iter_mut() {
                stage[ch] = stage[ch] * IIR_POLE + x * (1.0 - IIR_POLE);
                x = stage[ch];
            }
            let expect = x * 2.0;
            assert!(
                out.bits_eq(Value::F32(expect)),
                "output {k}: {out:?} != {expect}"
            );
        }
    }

    /// The accumulator/normalizer against a wrapping-integer oracle.
    #[test]
    fn acc_norm_matches_scalar_oracle() {
        let g = region_acc_norm();
        let sched = Schedule::compute(&g).unwrap();
        let r = run_scheduled(&g, &sched, &Machine::core_i7(), 16).unwrap();
        assert!(r.output.len() >= CHANNELS * 4);
        let mut acc: Vec<i64> = (0..CHANNELS as i64).map(|j| j * 1000).collect();
        let mut n = 0i32;
        for (k, out) in r.output.iter().enumerate() {
            let x = n & 0x7fff;
            n = n.wrapping_mul(1103515245).wrapping_add(12345);
            let ch = k % CHANNELS;
            acc[ch] = acc[ch].wrapping_add(x as i64);
            let mut m = acc[ch].wrapping_mul(ACC_MULT);
            m = (m ^ (m >> 31)).wrapping_mul(MIX_MULT);
            m ^= m >> 33;
            let over = (m > 0) as i32 + (m < -(1i64 << 40)) as i32;
            let norm = ((m >> 20) as i32).wrapping_add(over);
            let expect = (norm ^ 0x5a5a).wrapping_mul(3);
            assert!(
                out.bits_eq(Value::I32(expect)),
                "output {k}: {out:?} != {expect}"
            );
        }
    }

    /// Both benchmarks trigger the region pass on the default machine and
    /// stay bit-exact through it (the suite-wide differential tests cover
    /// the full engine × worker matrix).
    #[test]
    fn region_pass_fires_on_both() {
        let m = Machine::core_i7();
        for (build, actor) in [
            (region_iir_bank as fn() -> Graph, "iir_bank_r4"),
            (region_acc_norm as fn() -> Graph, "acc_norm_r4"),
        ] {
            let g = build();
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all()).unwrap();
            assert!(
                simd.report.region_actors.iter().any(|d| d.actor == actor),
                "{actor}: region pass did not fire: {:?}",
                simd.report
            );
        }
    }
}
