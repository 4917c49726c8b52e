//! The summarizing static walks — rate measurement, the Equation-1 firing
//! cost and the staged tape-mode pair costs — against their unrolling
//! references, on every filter of the 16 suite programs, scalar and
//! SIMDized. A uniform loop is walked once and scaled; everything else
//! unrolls (DESIGN.md §18). Debug builds also cross-check each
//! summarized loop inside the walk itself. The firing cost is also held
//! to what the VM charges the same filter when it runs.

mod walks;

use macross_repro::benchsuite;
use macross_repro::macross::cost::{static_firing_cost, AddrCosts};
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::graph::{AddrGen, EdgeId, Graph, Node, ReorderSide};
use macross_repro::vm::{run_scheduled_mode, ExecMode, Machine};

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

/// The reorder address cost a scalar access to a filter's tape on
/// `edges` (its one in- or out-edge, if any) pays on `side`: the
/// per-access charge of the edge's address generator when it is
/// reordered there, else 0.
fn addr_cost(g: &Graph, edges: &[EdgeId], side: ReorderSide, m: &Machine) -> u64 {
    match edges.first().and_then(|&e| g.edge(e).reorder) {
        Some(r) if r.side == side => match r.addr_gen {
            AddrGen::Sagu => m.cost.sagu_access,
            AddrGen::Software => m.cost.addr_software_reorder,
        },
        _ => 0,
    }
}

/// Hold every filter's modelled cycles in a run of `g` on `m` to the
/// static model: `node_cycles[f] == static_firing_cost(f) × reps ×
/// iters` on both engines, with the reorder address costs of its edges.
/// Returns how many filters were compared.
fn check_vm_charges(g: &Graph, sched: &Schedule, m: &Machine, what: &str) -> usize {
    const ITERS: u64 = 2;
    let adj = g.adjacency();
    let mut filters = 0;
    for mode in [ExecMode::Bytecode, ExecMode::TreeWalk] {
        let run = run_scheduled_mode(g, sched, m, ITERS, mode)
            .unwrap_or_else(|e| panic!("{what}, {mode:?}: {e}"));
        for (id, node) in g.nodes() {
            let Node::Filter(f) = node else { continue };
            let addr = AddrCosts {
                input: addr_cost(g, adj.ins(id), ReorderSide::Consumer, m),
                output: addr_cost(g, adj.outs(id), ReorderSide::Producer, m),
            };
            let reps = sched.reps[id.0 as usize];
            assert_eq!(
                run.node_cycles[id.0 as usize],
                static_firing_cost(f, m, addr) * reps * ITERS,
                "{what}, {mode:?}: {} ({addr:?}, {reps} reps)",
                f.name
            );
            filters += 1;
        }
    }
    filters
}

/// `core/src/cost.rs` models each filter's firing by the VM's cost
/// accounting without executing it, and the Equation-1 gate and the
/// tape-mode choice trust that: on every program, scalar and SIMDized,
/// software-reordered, SAGU-reordered and eight lanes wide, the VM
/// charges a filter exactly its static cost per firing.
#[test]
fn the_static_model_prices_what_the_vm_charges() {
    for m in [
        Machine::core_i7(),
        Machine::core_i7_with_sagu(),
        Machine::wide(8),
    ] {
        let mut filters = 0;
        for b in benchsuite::all() {
            let g = (b.build)();
            let sched = Schedule::compute(&g).unwrap();
            filters += check_vm_charges(&g, &sched, &m, b.name);
            let simd = macro_simdize(&g, &m, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let what = format!("{} (SIMDized)", b.name);
            filters += check_vm_charges(&simd.graph, &simd.schedule, &m, &what);
        }
        assert!(filters >= 400, "{}: only {filters} filter runs", m.name);
    }
}
