//! The summarizing static walks — rate measurement, the Equation-1 firing
//! cost and the staged tape-mode pair costs — against their unrolling
//! references, on every filter of the 16 suite programs, scalar and
//! SIMDized. A uniform loop is walked once and scaled; everything else
//! unrolls (DESIGN.md §18). Debug builds also cross-check each
//! summarized loop inside the walk itself.

mod walks;

use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::vm::Machine;

#[test]
fn summarized_walks_equal_unrolled_walks_on_the_suite() {
    for machine in [Machine::core_i7(), Machine::wide(8)] {
        let mut staged = 0;
        for b in benchsuite::all() {
            let g = (b.build)();
            staged += walks::check_graph(&g, &machine, b.name);
            let simd = macro_simdize(&g, &machine, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            walks::check_graph(&simd.graph, &machine, &format!("{} (SIMDized)", b.name));
        }
        assert!(
            staged >= 20,
            "{}: only {staged} staged actors compared",
            machine.name
        );
    }
}
