//! Regenerates Figure 12: percent improvement of macro-SIMDized code when
//! the target has the streaming address generation unit (SAGU). Modelled
//! only: the SAGU is hardware this host lacks.
//!
//! Usage: `fig12`.

use macross_bench::{figure12_row, render_table};

fn main() {
    println!("== Figure 12: benefit of the SAGU on macro-SIMDized code ==");
    println!("modelled only: Core-i7 cycle model with and without the SAGU (no host has one)");
    let mut rows = Vec::new();
    let mut sum = 0.0;
    let mut n = 0;
    for b in macross_benchsuite::all() {
        let r = figure12_row(&b);
        sum += r.improvement_pct;
        n += 1;
        rows.push(vec![
            r.name.to_string(),
            format!("{:.1}%", r.improvement_pct),
        ]);
    }
    let avg = sum / n as f64;
    rows.push(vec!["AVERAGE".into(), format!("{avg:.1}%")]);
    println!("{}", render_table(&["benchmark", "modelled"], &rows));
    println!("(paper: 8.1% average; MatrixMult 22%, DCT 17%; BeamFormer/MP3Decoder least)");
}
