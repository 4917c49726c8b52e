//! Guards for the paper-vs-measured claims recorded in EXPERIMENTS.md:
//! these tests assert the qualitative *shapes* of every figure, so a
//! regression in any pass shows up as a failed claim, not just a changed
//! number.

use macross_bench::{figure10_row, figure11_row, figure12_row, figure13_rows, geomean};
use macross_repro::autovec::AutovecConfig;
use macross_repro::benchsuite::{all, by_name};
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::graph::Graph;
use macross_repro::vm::{run_scheduled_mode, ExecMode, Machine};
use std::time::Instant;

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
/// agree; release builds also require the min-of-5 wall clock of 2 000
/// iterations to be at least 1.5x faster SIMDized (a debug build's timing
/// says nothing about the engine).
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
    let best_of_5 = |g: &Graph, s: &Schedule| {
        std::hint::black_box(run(g, s, 2000));
        (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(run(g, s, 2000));
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let ratio =
        best_of_5(&g, &scalar).as_secs_f64() / best_of_5(&simd.graph, &simd.schedule).as_secs_f64();
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
