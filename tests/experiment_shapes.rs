//! Guards for the paper-vs-measured claims recorded in EXPERIMENTS.md:
//! these tests assert the qualitative *shapes* of every figure, so a
//! regression in any pass shows up as a failed claim, not just a changed
//! number.

use macross_bench::{
    figure10_measured, figure10_row, figure11_row, figure12_row, figure13_rows, geomean,
    run_aligned, scaling_ablation,
};
use macross_repro::autovec::AutovecConfig;
use macross_repro::benchsuite::{all, by_name};
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::multicore::{
    figure13_point, figure13_point_simd_aware, partition_simd_aware, CommModel,
};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::graph::Graph;
use macross_repro::vm::{run_scheduled, run_scheduled_mode, ExecMode, Machine};
use std::sync::Mutex;
use std::time::Instant;

/// The wall-clock tests take turns: two timed runs sharing the host's
/// cores would slow each other down.
static TIMING: Mutex<()> = Mutex::new(());

#[test]
fn figure10_macro_beats_both_autovectorizers() {
    let machine = Machine::core_i7();
    let mut auto_gcc = Vec::new();
    let mut auto_icc = Vec::new();
    let mut macro_v = Vec::new();
    for b in all() {
        let g = figure10_row(&b, &machine, &AutovecConfig::gcc_like(4));
        let i = figure10_row(&b, &machine, &AutovecConfig::icc_like(4));
        auto_gcc.push(g.autovec);
        auto_icc.push(i.autovec);
        macro_v.push(g.macro_simd);
        // Macro + auto never loses to macro alone.
        assert!(g.macro_plus_auto >= g.macro_simd * 0.99, "{}", b.name);
    }
    let (gg, gi, gm) = (geomean(auto_gcc), geomean(auto_icc), geomean(macro_v));
    // Paper: ICC autovec 1.34x, GCC unimpressive, MacroSS 2.07x.
    assert!(gi > gg, "ICC ({gi:.2}) must beat GCC ({gg:.2})");
    assert!(gm > gi, "macro ({gm:.2}) must beat ICC autovec ({gi:.2})");
    assert!(
        gm > 1.8,
        "macro geomean {gm:.2} out of the paper's ballpark"
    );
    assert!(
        gi > 1.05 && gi < 1.8,
        "ICC geomean {gi:.2} out of the paper's ballpark"
    );
}

/// Figure 10's measured bar: the VM's wall clock, scalar over
/// macro-SIMDized, on all 16 programs. Release builds require a geomean of
/// at least 1.5x (the paper reports 2.07x, the cycle model 2.31x); a debug
/// build's timing says nothing about the engine, so it times nothing.
#[test]
fn figure10_measured_macro_simd_geomean() {
    if cfg!(debug_assertions) {
        return;
    }
    let _turn = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let machine = Machine::core_i7();
    let bars: Vec<f64> = all()
        .iter()
        .map(|b| figure10_measured(b, &machine))
        .collect();
    let gm = geomean(bars.iter().copied());
    assert!(
        gm >= 1.5,
        "measured macro-SIMD geomean {gm:.2}x, below 1.5x: {bars:.2?}"
    );
}

/// Modelled cycles of `name` compiled without over with the options
/// `off` changes, both source-aligned.
fn ablation_ratio(name: &str, off: SimdizeOptions) -> f64 {
    let machine = Machine::core_i7();
    let b = by_name(name).unwrap();
    let g = (b.build)();
    let on = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
    let off = macro_simdize(&g, &machine, &off).unwrap();
    let (without, with) = run_aligned(
        (&off.graph, &off.schedule, &machine),
        (&on.graph, &on.schedule, &machine),
        b.iters,
    );
    without.total_cycles() as f64 / with.total_cycles() as f64
}

#[test]
fn ablation_horizontal_carries_the_split_join_benchmarks() {
    // Modelled at 1.89 (FilterBank), 1.96 (BeamFormer), 1.93
    // (ChannelVocoder): horizontal SIMDization is where their speedup is.
    let off = SimdizeOptions {
        horizontal: false,
        ..SimdizeOptions::all()
    };
    for name in ["FilterBank", "BeamFormer", "ChannelVocoder"] {
        let r = ablation_ratio(name, off);
        assert!(r > 1.3, "{name}: horizontal off / on = {r:.3}");
    }
}

#[test]
fn ablation_permutation_tape_accesses_pay() {
    // Modelled at 1.020 (DCT) and 1.031 (BitonicSort): Figure 7's
    // permutation networks beat scalar gathers wherever they apply.
    let off = SimdizeOptions {
        permute_opt: false,
        ..SimdizeOptions::all()
    };
    for name in ["DCT", "BitonicSort"] {
        let r = ablation_ratio(name, off);
        assert!(r > 1.0, "{name}: permute_opt off / on = {r:.3}");
    }
}

#[test]
fn ablation_wider_simd_speeds_serpent_up_monotonically() {
    // Modelled at 1.50 / 2.39 / 3.54 / 4.67 for SW 2 / 4 / 8 / 16.
    let b = by_name("Serpent").unwrap();
    let g = (b.build)();
    let sched = Schedule::compute(&g).unwrap();
    let speedups: Vec<f64> = [2, 4, 8, 16]
        .iter()
        .map(|&sw| {
            let m = Machine::wide(sw);
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all()).unwrap();
            let (scalar, v) = run_aligned((&g, &sched, &m), (&simd.graph, &simd.schedule, &m), 2);
            scalar.total_cycles() as f64 / v.total_cycles() as f64
        })
        .collect();
    assert!(
        speedups.windows(2).all(|w| w[1] > w[0]),
        "Serpent speedup over scalar at SW 2/4/8/16: {speedups:.2?}"
    );
}

#[test]
fn ablation_equation1_scaling_on_filter_bank() {
    // FilterBank's repetition numbers are already multiples of 4, so
    // Equation 1 needs no scaling where scale-by-SW quadruples the
    // steady state.
    let r = scaling_ablation(&by_name("FilterBank").unwrap(), &Machine::core_i7());
    assert_eq!((r.minimal_factor, r.naive_factor), (1, 4));
    assert_eq!((r.minimal_buffer_elems, r.naive_buffer_elems), (617, 1721));
    assert_eq!((r.minimal_firings, r.naive_firings), (209, 836));
}

#[test]
fn ablation_simd_aware_partitioner_beats_naive_lpt_on_tde() {
    // Modelled at 3.89x (SIMD-aware) against 3.47x (naive LPT) at 2 cores
    // + SIMD: keeping fusable chains on one core keeps them fusable.
    let machine = Machine::core_i7();
    let b = by_name("TDE").unwrap();
    let g = (b.build)();
    let comm = CommModel::default();
    let iters = b.iters.min(8);
    let naive = figure13_point(&g, &machine, 2, &comm, iters).unwrap();
    let aware = figure13_point_simd_aware(&g, &machine, 2, &comm, iters).unwrap();
    assert!(
        aware.multicore_simd > naive.multicore_simd,
        "aware {:.2}x vs naive {:.2}x",
        aware.multicore_simd,
        naive.multicore_simd
    );
}

#[test]
fn simd_aware_partitioner_is_deterministic() {
    // DES and AudioBeam have equal-load clusters: their ties must fall the
    // same way on every call, not by the order of a hash map.
    let machine = Machine::core_i7();
    let comm = CommModel::default();
    for name in ["DES", "AudioBeam"] {
        let b = by_name(name).unwrap();
        let g = (b.build)();
        let iters = b.iters.min(8);
        let sched = Schedule::compute(&g).unwrap();
        let per_iter: Vec<u64> = run_scheduled(&g, &sched, &machine, iters)
            .unwrap()
            .node_cycles
            .iter()
            .map(|c| c / iters)
            .collect();
        for cores in [2usize, 4] {
            let first = partition_simd_aware(&g, &per_iter, cores, &machine);
            for _ in 0..4 {
                assert_eq!(
                    partition_simd_aware(&g, &per_iter, cores, &machine),
                    first,
                    "{name}@{cores}: assignment moved between calls"
                );
            }
            let a = figure13_point_simd_aware(&g, &machine, cores, &comm, iters).unwrap();
            let b = figure13_point_simd_aware(&g, &machine, cores, &comm, iters).unwrap();
            assert_eq!(
                a.multicore_simd.to_bits(),
                b.multicore_simd.to_bits(),
                "{name}@{cores}: {} vs {}",
                a.multicore_simd,
                b.multicore_simd
            );
        }
    }
}

#[test]
fn figure11_vertical_shape() {
    let machine = Machine::core_i7();
    let rows: Vec<_> = all().iter().map(|b| figure11_row(b, &machine)).collect();
    let get = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap()
            .improvement_pct
    };
    // Negligible where the paper says so.
    for name in [
        "AudioBeam",
        "FilterBank",
        "BeamFormer",
        "FMRadio",
        "ChannelVocoder",
    ] {
        assert!(get(name) < 10.0, "{name}: {}", get(name));
    }
    // Large where fusion eliminates reordering overhead.
    for name in ["MatrixMultBlock", "Serpent", "TDE", "BitonicSort", "FFT"] {
        assert!(get(name) > 20.0, "{name}: {}", get(name));
    }
    let avg = rows.iter().map(|r| r.improvement_pct).sum::<f64>() / rows.len() as f64;
    assert!(avg > 10.0 && avg < 60.0, "average {avg:.1}% vs paper's 40%");
}

#[test]
fn figure12_sagu_shape() {
    let rows: Vec<_> = all().iter().map(figure12_row).collect();
    let get = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap()
            .improvement_pct
    };
    // The SAGU never hurts...
    for r in &rows {
        assert!(
            r.improvement_pct > -1.0,
            "{}: {}",
            r.name,
            r.improvement_pct
        );
    }
    // ...helps the reordering-heavy kernels...
    assert!(get("MatrixMult") > 2.0);
    assert!(get("DCT") > 2.0);
    // ...and does nothing for the horizontal-only / compute-bound ones.
    assert!(get("BeamFormer") < 2.0);
    assert!(get("FilterBank") < 2.0);
    assert!(get("MP3Decoder") < get("MatrixMult"));
    let avg = rows.iter().map(|r| r.improvement_pct).sum::<f64>() / rows.len() as f64;
    assert!(avg > 2.0 && avg < 15.0, "average {avg:.1}% vs paper's 8.1%");
}

#[test]
fn figure13_two_cores_plus_simd_competitive_with_four() {
    let machine = Machine::core_i7();
    let mut c2 = Vec::new();
    let mut c4 = Vec::new();
    let mut c2s = Vec::new();
    let mut c4s = Vec::new();
    for b in all() {
        let (p2, p4) = figure13_rows(&b, &machine);
        c2.push(p2.multicore);
        c4.push(p4.multicore);
        c2s.push(p2.multicore_simd);
        c4s.push(p4.multicore_simd);
    }
    let (g2, g4, g2s, g4s) = (geomean(c2), geomean(c4), geomean(c2s), geomean(c4s));
    assert!(g4 >= g2, "4-core {g4:.2} vs 2-core {g2:.2}");
    assert!(g2s > g2, "SIMD must add to 2-core: {g2s:.2} vs {g2:.2}");
    assert!(g4s > g4, "SIMD must add to 4-core: {g4s:.2} vs {g4:.2}");
    // The paper's headline: 2 cores + SIMD >= plain 4 cores (within 5%).
    assert!(g2s > g4 * 0.95, "2c+SIMD {g2s:.2} vs 4c {g4:.2}");
}

/// DESIGN.md §17's region row: `RegionIIRBank` SIMDized against its own
/// scalar graph, both on the bytecode engine, the scalar schedule scaled
/// to the same output volume per iteration. Every build checks that the
/// region pass vectorized the IIR bank and that both graphs' sink bits
/// agree; release builds also require the fastest of ten alternating
/// runs of 2 000 iterations per side to be at least 1.5x faster SIMDized
/// (a debug build's timing says nothing about the engine).
#[test]
fn region_iir_bank_beats_its_scalar_graph() {
    let machine = Machine::core_i7();
    let g = macross_repro::benchsuite::region::region_iir_bank();
    let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
    assert!(
        simd.report
            .region_actors
            .iter()
            .any(|a| a.contains("iir_bank")),
        "the region transform did not fire on iir_bank: {:?}",
        simd.report.region_actors
    );
    let run = |g: &Graph, s: &Schedule, iters| {
        run_scheduled_mode(g, s, &machine, iters, ExecMode::Bytecode).unwrap()
    };
    let mut scalar = Schedule::compute(&g).unwrap();
    let (s_out, v_out) = (
        run(&g, &scalar, 4).output.len(),
        run(&simd.graph, &simd.schedule, 4).output.len(),
    );
    assert_eq!(v_out % s_out, 0, "output volumes do not align");
    scalar.scale((v_out / s_out) as u64);
    let (sc, rg) = (run(&g, &scalar, 16), run(&simd.graph, &simd.schedule, 16));
    assert_eq!(sc.output.len(), rg.output.len());
    for (i, (x, y)) in sc.output.iter().zip(&rg.output).enumerate() {
        assert!(x.bits_eq(*y), "output {i} differs: {x:?} vs {y:?}");
    }
    if cfg!(debug_assertions) {
        return;
    }
    let _turn = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let time = |g: &Graph, s: &Schedule| {
        let t = Instant::now();
        std::hint::black_box(run(g, s, 2000));
        t.elapsed()
    };
    // Alternate scalar and SIMDized runs so both sides see the same host
    // state, and keep each side's fastest of ten.
    let (mut scalar_best, mut simd_best) = (time(&g, &scalar), time(&simd.graph, &simd.schedule));
    for _ in 0..9 {
        scalar_best = scalar_best.min(time(&g, &scalar));
        simd_best = simd_best.min(time(&simd.graph, &simd.schedule));
    }
    let ratio = scalar_best.as_secs_f64() / simd_best.as_secs_f64();
    assert!(
        ratio >= 1.5,
        "region_iir_bank runs {ratio:.2}x its scalar graph, below 1.5x"
    );
}

#[test]
// Asserting on model constants is the point of this test: it pins the
// datapath sizes the area claim rests on.
#[allow(clippy::assertions_on_constants)]
fn sagu_area_claim_is_modelled_small() {
    // The paper synthesizes the SAGU at < 1% of a core. Our model keeps it
    // to two 16-bit counters, one 16-bit adder chain and a 64-bit add —
    // assert the datapath constants the model exposes stay tiny.
    assert_eq!(macross_repro::sagu::Sagu::CYCLES_PER_ACCESS, 0);
    assert!(macross_repro::sagu::Sagu::SETUP_CYCLES <= 4);
    assert_eq!(macross_repro::sagu::SoftwareAddrGen::CYCLES_PER_ACCESS, 6);
}

#[test]
fn fmradio_equalizer_is_horizontal() {
    // Paper: BeamFormer and FilterBank speedups come mainly from
    // horizontal vectorization; FMRadio's equalizer bands merge too.
    let machine = Machine::core_i7();
    let b = by_name("FMRadio").unwrap();
    let simd =
        macross_repro::macross::driver::macro_simdize(&(b.build)(), &machine, &Default::default());
    let simd = simd.unwrap();
    assert!(simd
        .report
        .horizontal_groups
        .iter()
        .flatten()
        .any(|n| n.contains("eq_band")));
}
