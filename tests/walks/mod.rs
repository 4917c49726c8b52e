//! Shared by `static_walks.rs` and `param_proptests.rs`: every static
//! walk of a graph's filters, summarizing and unrolling, side by side.

use macross_repro::macross::cost::{
    staged_pair_costs_and_reference, static_firing_cost, static_firing_cost_unrolled, AddrCosts,
};
use macross_repro::streamir::analysis::{
    analyze_vectorizability, measure_rates, measure_rates_unrolled,
};
use macross_repro::streamir::graph::{Graph, Node};
use macross_repro::streamir::types::ScalarTy;
use macross_repro::vm::Machine;

/// Check that the summarizing walks measure what the unrolling ones do
/// on every filter of `g`: its rates, its firing cost (plain, and with
/// reorder address costs on both tapes), and — for a filter the
/// single-actor transform accepts on `machine` — the cost of every
/// candidate tape-mode pair of its staged body. Returns how many filters
/// were staged.
pub fn check_graph(g: &Graph, machine: &Machine, what: &str) -> usize {
    let adj = g.adjacency();
    let mut staged = 0;
    for (id, node) in g.nodes() {
        let Node::Filter(f) = node else { continue };
        let at = format!("{what}: {}", f.name);
        assert_eq!(
            measure_rates(&f.work),
            measure_rates_unrolled(&f.work),
            "{at}: rates"
        );
        for addr in [
            AddrCosts::default(),
            AddrCosts {
                input: 6,
                output: 5,
            },
        ] {
            assert_eq!(
                static_firing_cost(f, machine, addr),
                static_firing_cost_unrolled(f, machine, addr),
                "{at}: firing cost with {addr:?}"
            );
        }
        let va = analyze_vectorizability(f);
        if va.simdizable() && machine.supports_all(&va.intrinsics) {
            let elem = |edges: &[_]| match edges {
                [e] => g.edge(*e).elem,
                _ => ScalarTy::F32,
            };
            let (summarized, unrolled) =
                staged_pair_costs_and_reference(f, machine, elem(adj.ins(id)), elem(adj.outs(id)));
            assert_eq!(summarized, unrolled, "{at}: staged pair costs");
            staged += 1;
        }
    }
    staged
}
