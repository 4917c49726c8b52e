//! Quickstart: build a small stream program, macro-SIMDize it, and compare
//! cycle counts and outputs against scalar execution.
//!
//! Run with: `cargo run --example quickstart`

use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::builder::StreamSpec;
use macross_repro::streamir::edsl::*;
use macross_repro::streamir::types::{ScalarTy, Ty};
use macross_repro::vm::{run_scheduled, Machine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the program: a counting source, two stateless compute
    //    actors, and a sink. `peek/pop/push` rates are declared up front,
    //    StreamIt-style, and verified against the bodies.
    let mut src = FilterBuilder::new("source", 0, 0, 1, ScalarTy::F32);
    let n = src.state("n", Ty::Scalar(ScalarTy::F32));
    src.work(|b| {
        b.push(v(n) * 0.01f32);
        b.set(
            n,
            cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 1000i32),
        );
    });

    let mut window = FilterBuilder::new("window", 2, 2, 2, ScalarTy::F32);
    let a = window.local("a", Ty::Scalar(ScalarTy::F32));
    let b2 = window.local("b", Ty::Scalar(ScalarTy::F32));
    window.work(|b| {
        b.set(a, pop());
        b.set(b2, pop());
        b.push(sqrt(abs(v(a) + v(b2))));
        b.push(sqrt(abs(v(a) - v(b2))));
    });

    let mut gain = FilterBuilder::new("gain", 1, 1, 1, ScalarTy::F32);
    gain.work(|b| {
        b.push(pop() * 1.5f32 + 0.25f32);
    });

    let graph = StreamSpec::pipeline(vec![
        src.build_spec(),
        window.build_spec(),
        gain.build_spec(),
        StreamSpec::Sink,
    ])
    .build()?;

    // 2. Macro-SIMDize for a Core-i7-like 4-wide SIMD target.
    let machine = Machine::core_i7();
    let simd = macro_simdize(&graph, &machine, &SimdizeOptions::all())?;
    println!("transforms applied: {:?}", simd.report.vertical_chains);
    for d in &simd.report.single_actors {
        println!(
            "vectorized actor:   {} ({} lanes: {} cycles per vector firing vs {} per scalar)",
            d.actor,
            d.width,
            d.winner().cycles,
            d.scalar_cycles
        );
    }
    println!("repetition scaling: x{}", simd.report.scale_factor);

    // 3. Run both versions at matched throughput and compare.
    let mut scalar_sched = Schedule::compute(&graph)?;
    scalar_sched.scale(simd.report.scale_factor);
    let scalar = run_scheduled(&graph, &scalar_sched, &machine, 50)?;
    let vector = run_scheduled(&simd.graph, &simd.schedule, &machine, 50)?;

    assert_eq!(
        scalar.output, vector.output,
        "SIMDization must preserve output bit-for-bit"
    );
    println!(
        "scalar: {} cycles, macro-SIMD: {} cycles  ->  {:.2}x speedup",
        scalar.total_cycles(),
        vector.total_cycles(),
        scalar.total_cycles() as f64 / vector.total_cycles() as f64
    );
    println!("outputs identical across {} samples", scalar.output.len());
    Ok(())
}
