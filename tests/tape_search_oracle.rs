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
//! the search built no more bodies than it installed.

use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::telemetry::compile::{Pass, PassEvent};
use macross_repro::vm::Machine;

/// Did the tape-mode search produce this event? (The region pass reports
/// its own unprofitable actors; it has one candidate and no search.)
fn went_through_search(e: &PassEvent) -> bool {
    e.pass == Pass::SingleActor || (e.pass == Pass::Unprofitable && !e.note.starts_with("region"))
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
    let mut searched = 0;
    let mut multi_pair = 0;
    for b in benchsuite::all() {
        let g = (b.build)();
        for (cfg, opts) in &options {
            for machine in &machines {
                let at = format!("{}/{cfg}/{}", b.name, machine.name);
                // A cost or winner mismatch panics inside the driver.
                let simd = macro_simdize(&g, machine, opts).unwrap_or_else(|e| panic!("{at}: {e}"));
                let report = &simd.report;
                let stats = report.search;
                if cfg!(debug_assertions) {
                    assert_eq!(stats.oracle_checked, stats.selected_actors, "{at}");
                }
                assert_eq!(
                    stats.selected_actors,
                    report
                        .passes
                        .iter()
                        .filter(|e| went_through_search(e))
                        .count(),
                    "{at}"
                );
                // One lowering, hence one rate check, per installed actor
                // and none per rejected one: at most 2 such passes over a
                // body per searched actor (the grid made up to ten of each).
                assert_eq!(stats.lowerings, report.single_actors.len(), "{at}");
                assert!(2 * stats.lowerings <= 2 * stats.selected_actors, "{at}");
                // Two cost walks per actor however many pairs it has.
                assert_eq!(stats.cost_walks, 2 * stats.selected_actors, "{at}");
                assert!(stats.pairs_costed >= stats.selected_actors, "{at}");
                searched += stats.selected_actors;
                multi_pair += stats.pairs_costed - stats.selected_actors;
            }
        }
    }
    assert!(searched > 0, "the suite must exercise the search");
    assert!(multi_pair > 0, "some actor must have more than one pair");
}

#[test]
fn reports_explain_the_chosen_tape_modes() {
    // Every decision event carries the cost of every pair considered, and
    // the reported vector cost is the smallest of them.
    let machine = Machine::core_i7_with_sagu();
    for b in benchsuite::all() {
        let simd = macro_simdize(&(b.build)(), &machine, &SimdizeOptions::all()).unwrap();
        for e in &simd.report.passes {
            if !went_through_search(e) {
                continue;
            }
            let (_, costed) = e
                .note
                .split_once("costed in/out ")
                .unwrap_or_else(|| panic!("{}: {} lacks pair costs: {}", b.name, e.actor, e.note));
            let costs: Vec<u64> = costed
                .split(' ')
                .map(|pair| pair.split_once('=').unwrap().1.parse().unwrap())
                .collect();
            assert_eq!(
                costs.iter().min(),
                Some(&e.est_vector_cycles),
                "{}: {}",
                b.name,
                e.note
            );
        }
    }
}
