//! # macross-benchsuite
//!
//! The StreamIt-style benchmark suite used by the MacroSS reproduction's
//! experiments — sixteen applications re-implemented on the stream IR
//! with the same structural characters the paper relies on: split-joins
//! of isomorphic (sometimes stateful) actors for horizontal SIMDization,
//! deep stateless pipelines for vertical SIMDization, peeking filters,
//! data-dependent table lookups that *block* SIMDization, reordering-heavy
//! kernels where the SAGU shines, and region-state actors (per-channel
//! filter banks) that only the stateful region pass can vectorize.
//!
//! ```
//! use macross_benchsuite::all;
//!
//! let suite = all();
//! assert_eq!(suite.len(), 16);
//! let g = (suite[0].build)();
//! assert!(g.node_count() > 2);
//! ```

pub mod crypto;
pub mod dsp;
pub mod dynamic;
pub mod matrix;
pub mod media;
pub mod region;
pub mod transforms;
pub mod util;

use macross_streamir::graph::Graph;

/// A registered benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Name as used in the paper's figures.
    pub name: &'static str,
    /// Graph constructor.
    pub build: fn() -> Graph,
    /// Steady-state iterations used by the experiment harness (sized so
    /// every benchmark processes a few thousand elements).
    pub iters: u64,
}

/// Every benchmark, in the order the paper's figures list them.
pub fn all() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "AudioBeam",
            build: dsp::audio_beam,
            iters: 32,
        },
        Benchmark {
            name: "BeamFormer",
            build: dsp::beamformer,
            iters: 16,
        },
        Benchmark {
            name: "BitonicSort",
            build: transforms::bitonic_sort,
            iters: 32,
        },
        Benchmark {
            name: "ChannelVocoder",
            build: dsp::channel_vocoder,
            iters: 16,
        },
        Benchmark {
            name: "DCT",
            build: transforms::dct,
            iters: 32,
        },
        Benchmark {
            name: "DES",
            build: crypto::des,
            iters: 32,
        },
        Benchmark {
            name: "FFT",
            build: transforms::fft,
            iters: 16,
        },
        Benchmark {
            name: "FilterBank",
            build: dsp::filter_bank,
            iters: 8,
        },
        Benchmark {
            name: "FMRadio",
            build: dsp::fm_radio,
            iters: 16,
        },
        Benchmark {
            name: "MatrixMult",
            build: matrix::matrix_mult,
            iters: 16,
        },
        Benchmark {
            name: "MatrixMultBlock",
            build: matrix::matrix_mult_block,
            iters: 16,
        },
        Benchmark {
            name: "MP3Decoder",
            build: media::mp3_decoder,
            iters: 8,
        },
        Benchmark {
            name: "Serpent",
            build: crypto::serpent,
            iters: 32,
        },
        Benchmark {
            name: "TDE",
            build: transforms::tde,
            iters: 8,
        },
        Benchmark {
            name: "RegionIIRBank",
            build: region::region_iir_bank,
            iters: 32,
        },
        Benchmark {
            name: "RegionAccNorm",
            build: region::region_acc_norm,
            iters: 32,
        },
    ]
}

/// Look up a benchmark by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross::driver::{macro_simdize, SimdizeOptions};
    use macross_sdf::Schedule;
    use macross_streamir::analysis::check_rates;
    use macross_streamir::graph::Node;
    use macross_vm::{run_scheduled, Machine};

    /// Every benchmark builds, validates, rate-checks, and runs
    /// deterministically.
    #[test]
    fn all_benchmarks_build_and_run() {
        for b in all() {
            let g = (b.build)();
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            for (_, node) in g.nodes() {
                if let Node::Filter(f) = node {
                    check_rates(f).unwrap_or_else(|e| panic!("{}: {e}", b.name));
                }
            }
            let sched = Schedule::compute(&g).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let machine = Machine::core_i7();
            let r1 = run_scheduled(&g, &sched, &machine, 2).unwrap();
            let r2 = run_scheduled(&g, &sched, &machine, 2).unwrap();
            assert!(!r1.output.is_empty(), "{}: no output", b.name);
            assert_eq!(r1.output.len(), r2.output.len());
            for (x, y) in r1.output.iter().zip(&r2.output) {
                assert!(x.bits_eq(*y), "{}: nondeterministic output", b.name);
            }
        }
    }

    /// The flagship property: macro-SIMDization preserves every
    /// benchmark's output bit-for-bit, at matched throughput.
    #[test]
    fn macro_simdization_is_output_preserving_everywhere() {
        let machine = Machine::core_i7();
        for b in all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &machine, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let mut ssched = Schedule::compute(&g).unwrap();
            let src = g.node_ids().find(|&id| g.in_edges(id).is_empty()).unwrap();
            let l = macross_sdf::lcm(ssched.rep(src), simd.schedule.reps[src.0 as usize].max(1));
            let m1 = l / ssched.rep(src);
            ssched.scale(m1);
            let mut vsched = simd.schedule.clone();
            vsched.scale(l / vsched.reps[src.0 as usize]);
            let a = run_scheduled(&g, &ssched, &machine, 2).unwrap();
            let c = run_scheduled(&simd.graph, &vsched, &machine, 2).unwrap();
            assert_eq!(
                a.output.len(),
                c.output.len(),
                "{}: throughput mismatch",
                b.name
            );
            for (i, (x, y)) in a.output.iter().zip(&c.output).enumerate() {
                assert!(
                    x.bits_eq(*y),
                    "{}: output {i} differs: {x:?} vs {y:?}",
                    b.name
                );
            }
        }
    }

    /// Structural expectations per benchmark, mirroring the paper's
    /// discussion of where each transform applies.
    #[test]
    fn transform_coverage_matches_paper_narrative() {
        let machine = Machine::core_i7();
        let report_of = |name: &str| {
            let b = by_name(name).unwrap();
            macro_simdize(&(b.build)(), &machine, &SimdizeOptions::all())
                .unwrap()
                .report
        };

        // Horizontal-dominated benchmarks.
        for name in ["FilterBank", "BeamFormer", "ChannelVocoder", "FMRadio"] {
            let r = report_of(name);
            assert!(
                !r.horizontal_groups.is_empty(),
                "{name} should horizontalize: {r:?}"
            );
        }
        // Vertical-dominated benchmarks: at least one multi-actor chain.
        for name in [
            "MatrixMultBlock",
            "Serpent",
            "BitonicSort",
            "TDE",
            "DCT",
            "FFT",
        ] {
            let r = report_of(name);
            assert!(
                r.vertical_chains.iter().any(|c| c.len() >= 2),
                "{name} should fuse a pipeline: {r:?}"
            );
        }
        // AudioBeam: isolated actors, no vertical chains.
        let r = report_of("AudioBeam");
        assert!(
            r.vertical_chains.iter().all(|c| c.len() < 2),
            "AudioBeam chains: {r:?}"
        );
        assert!(!r.single_actors.is_empty());
        // DES: s-box actors must NOT be vectorized.
        let r = report_of("DES");
        assert!(
            r.single_actors.iter().all(|d| !d.actor.contains("sbox")),
            "DES sboxes vectorized: {r:?}"
        );
        // Region benchmarks: the stateful banks vectorize only through
        // the region pass, never through the classic transforms.
        for name in ["RegionIIRBank", "RegionAccNorm"] {
            let r = report_of(name);
            assert!(
                !r.region_actors.is_empty(),
                "{name} should region-vectorize: {r:?}"
            );
        }
    }

    /// Macro-SIMDization speeds up the suite on the modelled machine
    /// (geometric mean over all benchmarks).
    #[test]
    fn macro_simd_speeds_up_geomean() {
        let machine = Machine::core_i7();
        let mut log_sum = 0.0f64;
        let mut n = 0;
        for b in all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
            let mut ssched = Schedule::compute(&g).unwrap();
            let src = g.node_ids().find(|&id| g.in_edges(id).is_empty()).unwrap();
            let l = macross_sdf::lcm(ssched.rep(src), simd.schedule.reps[src.0 as usize].max(1));
            ssched.scale(l / ssched.rep(src));
            let mut vsched = simd.schedule.clone();
            vsched.scale(l / vsched.reps[src.0 as usize]);
            let a = run_scheduled(&g, &ssched, &machine, 2).unwrap();
            let c = run_scheduled(&simd.graph, &vsched, &machine, 2).unwrap();
            let speedup = a.total_cycles() as f64 / c.total_cycles() as f64;
            log_sum += speedup.ln();
            n += 1;
        }
        let geomean = (log_sum / n as f64).exp();
        assert!(
            geomean > 1.2,
            "macro-SIMD geomean speedup {geomean:.2}x too small"
        );
    }
}
