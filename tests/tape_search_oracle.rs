//! Decision oracle for the driver's tape-mode search: the staged search
//! (stage an actor once, cost every mode pair in one walk, lower only the
//! winner) against the exhaustive grid it replaced (every pair through
//! `simdize_single_actor` and its own cost walk).
//!
//! The grid lives in `macross::driver` as a debug-build oracle: beside
//! every search it asserts identical per-pair costs and a byte-identical
//! lowered winner, and counts the actors it compared in
//! `SimdizeReport::search.oracle_checked`. These tests drive it over the
//! whole suite and check from the counters that it really ran and that
//! the search built no more bodies than it installed, and from the
//! decision records that every winner and every verdict follows from the
//! record's own numbers.

use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::macross::{ActorDecision, TapeMode};
use macross_repro::vm::Machine;

/// Does the record's verdict follow from its own numbers? Installed:
/// one vector firing costs less than `width` scalar firings; skipped:
/// it does not.
fn verdict_holds(d: &ActorDecision, installed: bool) -> bool {
    let (vector, scalar) = (d.pairs[d.chosen].cycles, d.width as u64 * d.scalar_cycles);
    if installed {
        vector < scalar
    } else {
        vector >= scalar
    }
}

#[test]
fn staged_search_matches_exhaustive_grid_on_the_suite() {
    let options = [
        ("all", SimdizeOptions::all()),
        ("no_reorder", SimdizeOptions::no_reorder()),
        ("single_only", SimdizeOptions::single_only()),
    ];
    let machines = [
        Machine::core_i7(),
        Machine::core_i7_with_sagu(),
        Machine::wide(8),
        Machine::neon_like(),
    ];
    let (mut searched, mut multi_pair, mut regions) = (0, 0, 0);
    for b in benchsuite::all() {
        let g = (b.build)();
        for (cfg, opts) in &options {
            for machine in &machines {
                let at = format!("{}/{cfg}/{}", b.name, machine.name);
                // A cost or winner mismatch panics inside the driver.
                let simd = macro_simdize(&g, machine, opts).unwrap_or_else(|e| panic!("{at}: {e}"));
                let report = &simd.report;
                let stats = report.search;
                let actors = report.searched().count();
                if cfg!(debug_assertions) {
                    assert_eq!(stats.oracle_checked, actors, "{at}");
                }
                // One lowering, hence one rate check, per installed actor
                // and none per rejected one (the grid made up to ten of
                // each per actor).
                assert_eq!(stats.lowerings, report.single_actors.len(), "{at}");
                // Two cost walks per actor however many pairs it has.
                assert_eq!(stats.cost_walks, 2 * actors, "{at}");
                let pairs: usize = report.searched().map(|d| d.pairs.len()).sum();
                assert!(report.searched().all(|d| !d.pairs.is_empty()), "{at}");
                searched += actors;
                multi_pair += pairs - actors;
                // Every verdict, region records included, agrees with the
                // record's own numbers.
                let installed = report.single_actors.iter().chain(&report.region_actors);
                for (d, ok) in (installed.map(|d| (d, true)))
                    .chain(report.skipped_unprofitable.iter().map(|d| (d, false)))
                {
                    assert!(verdict_holds(d, ok), "{at}: {d:?}");
                }
                regions += report.region_actors.len();
            }
        }
    }
    assert!(searched > 0, "the suite must exercise the search");
    assert!(multi_pair > 0, "some actor must have more than one pair");
    assert!(regions > 0, "the suite must exercise the region pass");
}

#[test]
fn reports_explain_the_chosen_tape_modes() {
    // Every searched record carries every pair considered, input-major,
    // and the winner is the first of the cheapest.
    let machine = Machine::core_i7_with_sagu();
    for b in benchsuite::all() {
        let simd = macro_simdize(&(b.build)(), &machine, &SimdizeOptions::all()).unwrap();
        for d in simd.report.searched() {
            let at = format!("{}: {}", b.name, d.actor);
            let mut inputs: Vec<TapeMode> = d.pairs.iter().map(|p| p.input).collect();
            inputs.dedup();
            let outputs: Vec<TapeMode> = (d.pairs.iter())
                .take_while(|p| p.input == inputs[0])
                .map(|p| p.output)
                .collect();
            let grid: Vec<(TapeMode, TapeMode)> = (inputs.iter())
                .flat_map(|&i| outputs.iter().map(move |&o| (i, o)))
                .collect();
            let listed: Vec<(TapeMode, TapeMode)> =
                d.pairs.iter().map(|p| (p.input, p.output)).collect();
            assert_eq!(listed, grid, "{at}: not input-major");
            let min = d.pairs.iter().map(|p| p.cycles).min();
            let first_min = d.pairs.iter().position(|p| Some(p.cycles) == min);
            assert_eq!(first_min, Some(d.chosen), "{at}: {:?}", d.pairs);
        }
    }
}
