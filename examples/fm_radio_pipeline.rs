//! Run the FMRadio benchmark through the whole MacroSS pipeline and show
//! where the cycles go: which split-joins were horizontally SIMDized,
//! which tape modes the cost model chose, and the per-category cycle
//! breakdown before and after.
//!
//! Run with: `cargo run --example fm_radio_pipeline`

use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::vm::{run_scheduled, Machine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = benchsuite::dsp::fm_radio();
    let machine = Machine::core_i7();

    println!(
        "FMRadio graph: {} actors, {} tapes",
        graph.node_count(),
        graph.edge_count()
    );
    let simd = macro_simdize(&graph, &machine, &SimdizeOptions::all())?;

    println!("\n-- what MacroSS did --");
    for group in &simd.report.horizontal_groups {
        println!("horizontal: merged into {group:?}");
    }
    for chain in &simd.report.vertical_chains {
        println!("vertical:   fused {chain:?}");
    }
    for d in simd
        .report
        .single_actors
        .iter()
        .chain(&simd.report.region_actors)
    {
        let won = d.winner();
        println!(
            "tape modes: {} in={:?} out={:?} (pair {} of {}, {} cycles vs {} x {} scalar)",
            d.actor,
            won.input,
            won.output,
            d.chosen + 1,
            d.pairs.len(),
            won.cycles,
            d.width,
            d.scalar_cycles
        );
    }
    for d in &simd.report.skipped_unprofitable {
        println!(
            "skipped (cost model): {} ({} cycles vs {} x {} scalar)",
            d.actor,
            d.winner().cycles,
            d.width,
            d.scalar_cycles
        );
    }

    let mut scalar_sched = Schedule::compute(&graph)?;
    scalar_sched.scale(simd.report.scale_factor.max(1));
    let scalar = run_scheduled(&graph, &scalar_sched, &machine, 20)?;
    let vector = run_scheduled(&simd.graph, &simd.schedule, &machine, 20)?;
    assert_eq!(scalar.output, vector.output);

    println!("\n-- cycle breakdown (per 20 steady iterations) --");
    let rows = [
        (
            "scalar compute",
            scalar.counters.compute_scalar,
            vector.counters.compute_scalar,
        ),
        (
            "vector compute",
            scalar.counters.compute_vector,
            vector.counters.compute_vector,
        ),
        (
            "scalar memory",
            scalar.counters.mem_scalar,
            vector.counters.mem_scalar,
        ),
        (
            "vector memory",
            scalar.counters.mem_vector,
            vector.counters.mem_vector,
        ),
        (
            "pack/unpack",
            scalar.counters.pack_unpack,
            vector.counters.pack_unpack,
        ),
        ("permutes", scalar.counters.permute, vector.counters.permute),
        (
            "addr overhead",
            scalar.counters.addr_overhead,
            vector.counters.addr_overhead,
        ),
        (
            "loop overhead",
            scalar.counters.loop_overhead,
            vector.counters.loop_overhead,
        ),
        (
            "firing overhead",
            scalar.counters.firing_overhead,
            vector.counters.firing_overhead,
        ),
    ];
    println!("{:<16} {:>12} {:>12}", "category", "scalar", "macro-SIMD");
    for (name, s, v) in rows {
        println!("{name:<16} {s:>12} {v:>12}");
    }
    println!(
        "{:<16} {:>12} {:>12}  ({:.2}x)",
        "TOTAL",
        scalar.total_cycles(),
        vector.total_cycles(),
        scalar.total_cycles() as f64 / vector.total_cycles() as f64
    );
    Ok(())
}
