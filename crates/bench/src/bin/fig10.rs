//! Regenerates Figure 10 of the paper: speedup over scalar of
//! (a) host-compiler auto-vectorization, (b) macro-SIMDization, and
//! (c) macro-SIMDization followed by auto-vectorization — modelled, with
//! the macro-SIMD bar also measured on this host's VM.
//!
//! Usage: `fig10`.

use macross_autovec::AutovecConfig;
use macross_bench::{figure10_measured, figure10_row, geomean, render_table, TRIES};
use macross_vm::Machine;

fn main() {
    let machine = Machine::core_i7();
    let (gcc, icc) = (AutovecConfig::gcc_like(4), AutovecConfig::icc_like(4));
    println!("== Figure 10: speedup over scalar, SW=4 ==");
    println!("modelled: Core-i7 cycle model; GCC-/ICC-like auto-vectorizer presets");
    println!(
        "measured: this host's bytecode VM, scalar vs macro-SIMDized wall clock, \
         best of {TRIES} over iters x 16 source-aligned iterations"
    );
    let mut rows = Vec::new();
    let mut cols: [Vec<f64>; 7] = Default::default();
    for b in macross_benchsuite::all() {
        let g = figure10_row(&b, &machine, &gcc);
        let i = figure10_row(&b, &machine, &icc);
        let measured = figure10_measured(&b, &machine);
        let bars = [
            g.autovec,
            i.autovec,
            g.macro_simd,
            g.macro_plus_auto,
            i.macro_plus_auto,
            measured,
            measured / g.macro_simd,
        ];
        for (col, v) in cols.iter_mut().zip(bars) {
            col.push(v);
        }
        let mut row = vec![b.name.to_string()];
        row.extend(bars.iter().map(|v| format!("{v:.2}x")));
        rows.push(row);
    }
    let means = cols.map(geomean);
    let mut row = vec!["GEOMEAN".to_string()];
    row.extend(means.iter().map(|v| format!("{v:.2}x")));
    rows.push(row);
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "GCC auto",
                "ICC auto",
                "macro",
                "macro+GCC",
                "macro+ICC",
                "measured",
                "meas/model",
            ],
            &rows
        )
    );
    let [gcc_auto, icc_auto, macro_simd, .., measured, error] = means;
    println!(
        "modelled macro-SIMD outperforms GCC-like auto-vectorization by {:.0}%, ICC-like by {:.0}%",
        (macro_simd / gcc_auto - 1.0) * 100.0,
        (macro_simd / icc_auto - 1.0) * 100.0
    );
    println!("measured macro-SIMD geomean {measured:.2}x");
    println!("model error (measured / modelled macro-SIMD, geomean): {error:.2}");
    println!("(paper: macro-SIMD 2.07x; +54% vs GCC, +26% vs ICC autovec 1.34x)");
}
