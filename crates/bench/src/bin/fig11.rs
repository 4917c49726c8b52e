//! Regenerates Figure 11: speedup of vertical SIMDization over
//! single-actor-only SIMDization, modelled and measured on this host's VM.
//!
//! Usage: `fig11`.

use macross_bench::{figure11_measured, figure11_row, geomean, render_table, TRIES};
use macross_vm::Machine;

fn main() {
    let machine = Machine::core_i7();
    println!("== Figure 11: benefit of vertical SIMDization (vs single-actor only) ==");
    println!("modelled: Core-i7 cycle model");
    println!(
        "measured: this host's bytecode VM, single-actor vs vertical wall clock, \
         best of {TRIES} over iters x 16 source-aligned iterations"
    );
    let mut rows = Vec::new();
    let (mut modelled, mut measured) = (Vec::new(), Vec::new());
    for b in macross_benchsuite::all() {
        let model = 1.0 + figure11_row(&b, &machine).improvement_pct / 100.0;
        let meas = figure11_measured(&b, &machine);
        modelled.push(model);
        measured.push(meas);
        rows.push(vec![
            b.name.to_string(),
            format!("{:+.1}%", (model - 1.0) * 100.0),
            format!("{:+.1}%", (meas - 1.0) * 100.0),
            format!("{:.2}x", meas / model),
        ]);
    }
    let avg = |v: &[f64]| (v.iter().sum::<f64>() / v.len() as f64 - 1.0) * 100.0;
    let error = geomean(measured.iter().zip(&modelled).map(|(m, p)| m / p));
    rows.push(vec![
        "AVERAGE".into(),
        format!("{:+.1}%", avg(&modelled)),
        format!("{:+.1}%", avg(&measured)),
        format!("{error:.2}x"),
    ]);
    println!(
        "{}",
        render_table(&["benchmark", "modelled", "measured", "meas/model"], &rows)
    );
    println!(
        "geomean speedup: modelled {:.2}x, measured {:.2}x",
        geomean(modelled),
        geomean(measured)
    );
    println!("model error (measured / modelled, geomean): {error:.2}");
    println!(
        "(paper: 40% average; MatrixMultBlock largest at 114%; FilterBank/BeamFormer negligible)"
    );
}
