//! Generate the intermediate C++ that MacroSS's final phase emits for a
//! benchmark, and print it: the macro-SIMDized unit (with SSE
//! intrinsics), or with `scalar` the unSIMDized one, which builds and
//! runs as the prelude's first line says.
//!
//! Run with: `cargo run --example emit_cpp [benchmark] [scalar]` (default DCT).

use macross_repro::benchsuite::by_name;
use macross_repro::codegen::emit_program;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::vm::Machine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "DCT".into());
    let b = by_name(&name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let g = (b.build)();
    if args.next().as_deref() == Some("scalar") {
        let code = emit_program(&g, &Schedule::compute(&g)?);
        println!("{code}");
        eprintln!("// {} lines of scalar C++ for {name}", code.lines().count());
        return Ok(());
    }
    let simd = macro_simdize(&g, &Machine::core_i7(), &SimdizeOptions::all())?;
    let code = emit_program(&simd.graph, &simd.schedule);
    println!("{code}");
    eprintln!(
        "// {} lines of intermediate C++ for {name} (vectorized actors: {})",
        code.lines().count(),
        simd.report.single_actors.len()
            + simd
                .report
                .horizontal_groups
                .iter()
                .map(|g| g.len())
                .sum::<usize>()
    );
    Ok(())
}
