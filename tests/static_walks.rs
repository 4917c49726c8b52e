//! The summarizing static walks — rate measurement, the Equation-1 firing
//! cost and the staged tape-mode pair costs — against their unrolling
//! references, on every filter of the 16 suite programs, scalar and
//! SIMDized. A uniform loop is walked once and scaled; everything else
//! unrolls (DESIGN.md §18). Debug builds also cross-check each
//! summarized loop inside the walk itself. The firing cost is also held
//! to what the VM charges the same filter when it runs.

mod walks;

use macross_repro::benchsuite;
use macross_repro::macross::cost::{
    staged_pair_costs_unrolls, static_firing_cost, static_firing_cost_unrolls, AddrCosts,
};
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::analysis::{analyze_vectorizability, measure_rates_unrolls};
use macross_repro::streamir::graph::{EdgeId, Graph, Node, ReorderSide};
use macross_repro::streamir::stmt::Stmt;
use macross_repro::streamir::types::ScalarTy;
use macross_repro::vm::{run_scheduled_mode, CostTable, ExecMode, Machine};

/// A machine whose 18 `CostTable` prices are pairwise distinct, and its
/// SAGU variant. On `core_i7` seven prices are 1 and four are 2, so a
/// charge routed to the wrong field of equal price passes every check
/// there; here it changes a total.
fn distinct_prices() -> [Machine; 2] {
    let m = Machine {
        name: "distinct_prices".into(),
        cost: CostTable {
            alu: 1,
            mul: 4,
            div: 19,
            valu: 2,
            vmul: 5,
            vdiv: 23,
            load: 3,
            store: 6,
            vload: 7,
            vstore: 8,
            lane_extract: 9,
            lane_insert: 10,
            splat: 11,
            permute: 12,
            loop_iter: 13,
            firing: 14,
            addr_software_reorder: 15,
            sagu_access: 16,
        },
        ..Machine::core_i7()
    };
    let sagu = Machine {
        name: "distinct_prices_sagu".into(),
        has_sagu: true,
        ..m.clone()
    };
    [m, sagu]
}

#[test]
fn summarized_walks_equal_unrolled_walks_on_the_suite() {
    let [distinct, distinct_sagu] = distinct_prices();
    for machine in [
        Machine::core_i7(),
        Machine::wide(8),
        distinct,
        distinct_sagu,
    ] {
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
        Some(r) if r.side == side => m.reorder_access(r.addr_gen),
        _ => 0,
    }
}

/// Hold every filter's modelled cycles in a run of `g` on `m` to the
/// static model: `node_cycles[f] == static_firing_cost(f) × reps ×
/// iters` on both engines, with the reorder address costs of its edges;
/// and the two engines to each other, category by category and node by
/// node. Returns how many filter runs were compared.
fn check_vm_charges(g: &Graph, sched: &Schedule, m: &Machine, what: &str) -> usize {
    const ITERS: u64 = 2;
    let adj = g.adjacency();
    let runs = [ExecMode::Bytecode, ExecMode::TreeWalk].map(|mode| {
        let run = run_scheduled_mode(g, sched, m, ITERS, mode)
            .unwrap_or_else(|e| panic!("{what}, {mode:?}: {e}"));
        (mode, run)
    });
    let (bytecode, treewalk) = (&runs[0].1, &runs[1].1);
    assert_eq!(bytecode.counters, treewalk.counters, "{what}: counters");
    assert_eq!(
        bytecode.node_cycles, treewalk.node_cycles,
        "{what}: node cycles"
    );
    let mut filters = 0;
    for (mode, run) in &runs {
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
/// software-reordered, SAGU-reordered, eight lanes wide and with every
/// price distinct, the VM charges a filter exactly its static cost per
/// firing, and both engines charge alike.
#[test]
fn the_static_model_prices_what_the_vm_charges() {
    let [distinct, distinct_sagu] = distinct_prices();
    for m in [
        Machine::core_i7(),
        Machine::core_i7_with_sagu(),
        Machine::wide(8),
        distinct,
        distinct_sagu,
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

/// A loop whose iterations differ by a branch is the one kind the walks
/// unroll (DESIGN.md §18): on every scalar, staged and SIMDized filter of
/// the suite, every loop the rate walk, the firing-cost walk or the
/// staged pair costing unrolls holds an `If`. A lowering that brings back
/// a counter the summarizing rule cannot follow fails here instead of
/// only slowing every compile down.
#[test]
fn only_loops_with_a_branch_are_unrolled() {
    let branches = |s: &Stmt| {
        let mut found = false;
        s.walk(&mut |s| found |= matches!(s, Stmt::If { .. }));
        found
    };
    for machine in [Machine::core_i7(), Machine::wide(8)] {
        for b in benchsuite::all() {
            let g = (b.build)();
            let simd = macro_simdize(&g, &machine, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            for (g, what) in [(&g, "scalar"), (&simd.graph, "SIMDized")] {
                let adj = g.adjacency();
                for (id, node) in g.nodes() {
                    let Node::Filter(f) = node else { continue };
                    let at = format!("{}: {} ({what}, {})", b.name, f.name, machine.name);
                    let rates =
                        measure_rates_unrolls(&f.work).unwrap_or_else(|e| panic!("{at}: {e}"));
                    let mut unrolled: Vec<Stmt> = rates.into_iter().cloned().collect();
                    unrolled.extend(static_firing_cost_unrolls(f, &machine).into_iter().cloned());
                    let va = analyze_vectorizability(f);
                    if va.simdizable() && machine.supports_all(&va.intrinsics) {
                        let elem = |edges: &[_]| match edges {
                            [e] => g.edge(*e).elem,
                            _ => ScalarTy::F32,
                        };
                        let (ins, outs) = (elem(adj.ins(id)), elem(adj.outs(id)));
                        unrolled.extend(staged_pair_costs_unrolls(f, &machine, ins, outs));
                    }
                    for s in &unrolled {
                        assert!(branches(s), "{at} unrolls a loop with no branch:\n{s}");
                    }
                }
            }
        }
    }
}
