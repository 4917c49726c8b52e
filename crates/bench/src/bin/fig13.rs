//! Regenerates Figure 13: speedups over 1-core scalar for 2-core and
//! 4-core execution, with and without macro-SIMDization (partition-first,
//! as in the paper's naive SIMD-aware multicore scheduler). The 2-core
//! placements are also run through the threaded runtime on this host;
//! the 4-core columns are modelled only.
//!
//! Usage: `fig13`.

use macross_bench::{figure13_measured, figure13_rows, geomean, render_table, TRIES};
use macross_vm::Machine;

fn main() {
    let machine = Machine::core_i7();
    println!("== Figure 13: multicore vs multicore + macro-SIMD (speedup over 1-core scalar) ==");
    println!("modelled: Core-i7 cycle model, LPT partition, CommModel::default()");
    println!(
        "measured (2 cores only): the same placements through run_threaded_placed at 2 workers \
         against the sequential scalar VM, best of {TRIES} over iters x 16 source-aligned \
         iterations; 'call' times whole calls (thread spawn and per-worker compile included), \
         'steady' the steady loops"
    );
    println!("4-core columns: modelled only");
    let mut rows = Vec::new();
    let mut cols: [Vec<f64>; 10] = Default::default();
    for b in macross_benchsuite::all() {
        let (p2, p4) = figure13_rows(&b, &machine);
        let m = figure13_measured(&b, &machine, &p2);
        let bars = [
            p2.multicore,
            m.multicore_call,
            m.multicore_steady,
            m.multicore_steady / p2.multicore,
            p2.multicore_simd,
            m.multicore_simd_call,
            m.multicore_simd_steady,
            m.multicore_simd_steady / p2.multicore_simd,
            p4.multicore,
            p4.multicore_simd,
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
                "2c model",
                "2c call",
                "2c steady",
                "err",
                "2c+SIMD model",
                "call",
                "steady",
                "err",
                "4c model",
                "4c+SIMD model",
            ],
            &rows
        )
    );
    let [c2, c2_call, c2_steady, _, c2s, c2s_call, c2s_steady, _, c4, _] = means;
    println!("2-core+SIMD modelled {c2s:.2}x vs plain 4-core modelled {c4:.2}x");
    println!(
        "model error (measured / modelled, geomean): 2 cores {:.2} per call, {:.2} steady; \
         2 cores + SIMD {:.2} per call, {:.2} steady",
        c2_call / c2,
        c2_steady / c2,
        c2s_call / c2s,
        c2s_steady / c2s
    );
    println!("(paper: 2-core 1.28x -> 2.03x with SIMD; 4-core 1.85x -> 3.17x; 2c+SIMD within 5% of 4-core)");
}
