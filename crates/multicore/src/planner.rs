//! Cost-model-driven placement planner: fusion, fission, and the
//! collapse-to-sequential guard.
//!
//! The naive LPT partitioner in the crate root is structure-blind: it
//! balances compute and lets every pipeline edge become a cut edge, so on
//! cheap graphs the threaded runtime pays more in ring transfers and
//! stalls than it wins in parallel compute. This module plans placements
//! the other way around, from a cost model ([`CommModel`]):
//!
//! 1. **Fusion** — greedy cut-edge contraction. Starting from singleton
//!    clusters, repeatedly pin the heaviest-traffic edge's endpoints to
//!    one core whenever the re-estimated makespan does not regress. Cheap
//!    adjacent stages collapse onto one core and their ring disappears.
//! 2. **Fission** — if one stateless stage dominates the bottleneck core,
//!    split its steady firings round-robin across several cores (the
//!    runtime deals/merges deterministically; see
//!    `macross_runtime::Placement`), so the hottest stage no longer caps
//!    the pipeline.
//! 3. **Collapse** — parallel placements must beat the modelled
//!    sequential run by a fixed margin ([`PARALLEL_MARGIN`], 1.2×);
//!    otherwise the plan says
//!    "one core" and the caller runs sequentially instead of losing to
//!    ring overhead.
//!
//! All decisions are pure functions of (graph, schedule, per-node cycles,
//! worker count, comm model): no hashing iteration order, no randomness —
//! the property tests below assert replanning is bit-stable, which keeps
//! `ReplayBundle`s reproducible.

use crate::{estimate, CommModel};
use macross_runtime::{FissionSpec, Placement};
use macross_sdf::Schedule;
use macross_streamir::analysis::analyze_vectorizability;
use macross_streamir::graph::{Graph, Node, NodeId};

/// A planned placement plus the model's view of it — everything reports
/// and gates need beyond the raw [`Placement`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    /// Core assignment + fission directives for the threaded runtime.
    pub placement: Placement,
    /// Distinct cores the placement actually uses (replicas included).
    pub cores_used: usize,
    /// Graph edges the runtime must bridge with rings (a fission edge
    /// counts once, though it fans out into one ring per replica).
    pub cut_edges: usize,
    /// Clusters holding two or more nodes — stages fused onto one core.
    pub fused_groups: usize,
    /// Replica count of the fissioned stage (0 when no stage is split).
    pub fissioned: usize,
    /// Modelled cycles per steady iteration under this placement.
    pub modelled_makespan: u64,
    /// Modelled cycles per steady iteration on one core (no comm).
    pub modelled_sequential: u64,
}

impl PlacementPlan {
    /// The model's predicted speedup over sequential (1.0 when collapsed).
    pub fn modelled_speedup(&self) -> f64 {
        if self.modelled_makespan == 0 {
            1.0
        } else {
            self.modelled_sequential as f64 / self.modelled_makespan as f64
        }
    }
}

/// Margin a parallel placement's modelled makespan must beat sequential
/// by before the planner commits to it. The comm model is only a model;
/// demanding a 1.2× modelled win keeps marginal placements
/// — the ones that lose to unmodelled stall latency — sequential.
const PARALLEL_MARGIN: f64 = 1.2;

/// Can this node's steady firings be dealt round-robin across replicas?
/// Mirrors `Placement::validate` (the runtime re-checks; this keeps the
/// planner from proposing placements the runtime would reject).
fn fission_legal(graph: &Graph, schedule: &Schedule, id: NodeId) -> bool {
    let Node::Filter(f) = graph.node(id) else {
        return false;
    };
    if analyze_vectorizability(f).stateful || f.peek > f.pop {
        return false;
    }
    if schedule.init_reps[id.0 as usize] != 0 {
        return false;
    }
    graph
        .in_edges(id)
        .iter()
        .chain(graph.out_edges(id).iter())
        .all(|&e| graph.edge(e).reorder.is_none())
}

/// Union-find root with path compression.
fn find(parent: &mut [usize], x: usize) -> usize {
    let mut r = x;
    while parent[r] != r {
        r = parent[r];
    }
    let mut c = x;
    while parent[c] != r {
        let next = parent[c];
        parent[c] = r;
        c = next;
    }
    r
}

/// LPT over clusters: cluster loads sorted heaviest-first (ties broken by
/// smallest member id — deterministic), each placed on the least-loaded
/// core (ties broken by lowest core index).
fn place_clusters(parent: &mut [usize], node_cycles: &[u64], workers: usize) -> Vec<u32> {
    let n = parent.len();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let r = find(parent, i);
        members[r].push(i);
    }
    let mut clusters: Vec<(u64, usize)> = members
        .iter()
        .enumerate()
        .filter(|(_, m)| !m.is_empty())
        .map(|(r, m)| (m.iter().map(|&i| node_cycles[i]).sum(), r))
        .collect();
    clusters.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut load = vec![0u64; workers];
    let mut assign = vec![0u32; n];
    for (cost, r) in clusters {
        let core = (0..workers).min_by_key(|&c| load[c]).unwrap();
        load[core] += cost;
        for &i in &members[r] {
            assign[i] = core as u32;
        }
    }
    assign
}

/// Plan a placement for `workers` cores from measured (or modelled)
/// per-node cycles per steady iteration.
///
/// Pure and deterministic in its inputs: the same (graph, schedule,
/// cycles, workers, comm) always yields the identical plan.
pub fn plan_placement(
    graph: &Graph,
    schedule: &Schedule,
    node_cycles: &[u64],
    workers: usize,
    comm: &CommModel,
) -> PlacementPlan {
    let n = graph.node_count();
    assert_eq!(node_cycles.len(), n);
    let sequential: u64 = node_cycles.iter().sum();
    let collapse = |fused_groups: usize| PlacementPlan {
        placement: Placement::whole_stage(vec![0; n]),
        cores_used: 1,
        cut_edges: 0,
        fused_groups,
        fissioned: 0,
        modelled_makespan: sequential,
        modelled_sequential: sequential,
    };
    if workers <= 1 || n < 2 {
        return collapse(0);
    }

    // --- Fusion: greedy cut-edge contraction -------------------------
    // Heaviest-traffic edges first (ties: edge id), re-placed with LPT
    // after each tentative merge; a merge survives when the modelled
    // makespan does not regress (equal keeps it — fewer rings at the
    // same makespan is strictly better in reality).
    let mut edges: Vec<(u64, usize, usize, usize)> = graph
        .edges()
        .map(|(id, e)| {
            let push = graph.node(e.src).push_rate(e.src_port) as u64;
            let tokens = schedule.reps[e.src.0 as usize] * push;
            (
                tokens * comm.cycles_per_element + comm.sync_per_edge,
                id.0 as usize,
                e.src.0 as usize,
                e.dst.0 as usize,
            )
        })
        .collect();
    edges.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let mut parent: Vec<usize> = (0..n).collect();
    let mut assign = place_clusters(&mut parent, node_cycles, workers);
    let mut makespan = estimate(graph, schedule, node_cycles, &assign, workers, comm).makespan;
    loop {
        let mut merged = false;
        for &(_, _, s, d) in &edges {
            if find(&mut parent, s) == find(&mut parent, d) {
                continue;
            }
            let saved = parent.clone();
            let (rs, rd) = (find(&mut parent, s), find(&mut parent, d));
            parent[rs.max(rd)] = rs.min(rd);
            let cand = place_clusters(&mut parent, node_cycles, workers);
            let m = estimate(graph, schedule, node_cycles, &cand, workers, comm).makespan;
            if m <= makespan {
                assign = cand;
                makespan = m;
                merged = true;
            } else {
                parent = saved;
            }
        }
        if !merged {
            break;
        }
    }
    let mut root_seen = vec![false; n];
    let mut cluster_sizes = vec![0usize; n];
    for i in 0..n {
        let r = find(&mut parent, i);
        root_seen[r] = true;
        cluster_sizes[r] += 1;
    }
    let fused_groups = cluster_sizes.iter().filter(|&&s| s >= 2).count();

    // --- Fission: split the stage that caps the bottleneck core ------
    // Worth modelling only when the bottleneck core is dominated by one
    // legal stage: moving 1/k of its firings to each of k cores trades
    // (k-1)/k of its compute for the deal/merge ring traffic on its two
    // edges.
    let est = estimate(graph, schedule, node_cycles, &assign, workers, comm);
    let bottleneck = est
        .per_core
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, _)| c as u32)
        .unwrap_or(0);
    let mut fission: Vec<FissionSpec> = Vec::new();
    let mut best_make = makespan;
    let mut candidates: Vec<(u64, usize)> = (0..n)
        .filter(|&i| assign[i] == bottleneck && fission_legal(graph, schedule, NodeId(i as u32)))
        .map(|i| (node_cycles[i], i))
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    if let Some(&(cyc, node)) = candidates.first() {
        // Replica cores: the home core plus the least-loaded others
        // (deterministic ties by core index).
        let mut others: Vec<(u64, usize)> = est
            .per_core
            .iter()
            .enumerate()
            .filter(|(c, _)| *c as u32 != bottleneck)
            .map(|(c, &l)| (l, c))
            .collect();
        others.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        for k in 2..=workers.min(1 + others.len()) {
            let mut per_core = est.per_core.clone();
            per_core[bottleneck as usize] -= cyc;
            let mut replicas = vec![bottleneck];
            replicas.extend(others[..k - 1].iter().map(|&(_, c)| c as u32));
            let share = cyc / k as u64;
            for (j, &r) in replicas.iter().enumerate() {
                per_core[r as usize] += share + u64::from(j == 0) * (cyc % k as u64);
            }
            // Each fission edge costs its full token traffic (if not
            // already cut) plus one sync term per replica ring.
            let mut comm_cycles = est.comm_cycles;
            for &e in graph
                .in_edges(NodeId(node as u32))
                .iter()
                .chain(graph.out_edges(NodeId(node as u32)).iter())
            {
                let ed = graph.edge(e);
                let push = graph.node(ed.src).push_rate(ed.src_port) as u64;
                let tokens = schedule.reps[ed.src.0 as usize] * push;
                let was_cut = assign[ed.src.0 as usize] != assign[ed.dst.0 as usize];
                comm_cycles += if was_cut {
                    (k as u64 - 1) * comm.sync_per_edge
                } else {
                    tokens * comm.cycles_per_element + k as u64 * comm.sync_per_edge
                };
            }
            let m = per_core.iter().copied().max().unwrap_or(0) + comm_cycles;
            if m < best_make {
                best_make = m;
                fission = vec![FissionSpec {
                    node: NodeId(node as u32),
                    replicas,
                }];
            }
        }
    }

    // --- Collapse guard ----------------------------------------------
    if (best_make as f64) * PARALLEL_MARGIN > sequential as f64 {
        return collapse(fused_groups);
    }

    let placement = Placement {
        assignment: assign,
        fission,
    };
    // The runtime re-validates; a planner bug must degrade to a legal
    // plan, not a hard error at run time.
    if placement.validate(graph, schedule).is_err() {
        return collapse(fused_groups);
    }
    let fissioned = placement
        .fission
        .first()
        .map(|s| s.replicas.len())
        .unwrap_or(0);
    let cut_edges = graph
        .edges()
        .filter(|(_, e)| {
            placement.assignment[e.src.0 as usize] != placement.assignment[e.dst.0 as usize]
                || placement
                    .fission
                    .iter()
                    .any(|s| s.node == e.src || s.node == e.dst)
        })
        .count();
    let cores_used = placement.cores();
    PlacementPlan {
        placement,
        cores_used,
        cut_edges,
        fused_groups,
        fissioned,
        modelled_makespan: best_make,
        modelled_sequential: sequential,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};
    use macross_vm::Machine;

    fn counter_src(push: usize) -> macross_streamir::builder::StreamSpec {
        let mut src = FilterBuilder::new("src", 0, 0, push, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(move |b| {
            for _ in 0..push {
                b.push(v(n));
                b.set(n, v(n) + 1i32);
            }
        });
        src.build_spec()
    }

    fn stateless(name: &str, work_reps: i32) -> macross_streamir::builder::StreamSpec {
        let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let t = fb.local("t", Ty::Scalar(ScalarTy::I32));
        fb.work(move |b| {
            b.set(t, pop());
            b.for_(i, work_reps, |b| {
                b.set(t, v(t) * 3i32 + 1i32);
            });
            b.push(v(t));
        });
        fb.build_spec()
    }

    fn pipeline(stages: Vec<macross_streamir::builder::StreamSpec>) -> Graph {
        StreamSpec::pipeline(stages).build().unwrap()
    }

    #[test]
    fn cheap_chain_collapses_to_sequential() {
        // Every stage is trivial: any cut edge costs more than the whole
        // graph computes, so the plan must stay on one core.
        let g = pipeline(vec![
            counter_src(1),
            stateless("a", 1),
            stateless("b", 1),
            StreamSpec::Sink,
        ]);
        let sched = Schedule::compute(&g).unwrap();
        let cycles = vec![5u64; g.node_count()];
        let plan = plan_placement(&g, &sched, &cycles, 4, &CommModel::default());
        assert_eq!(plan.cores_used, 1);
        assert_eq!(plan.cut_edges, 0);
        assert_eq!(plan.fissioned, 0);
        assert_eq!(plan.modelled_makespan, plan.modelled_sequential);
        assert!(plan.placement.assignment.iter().all(|&c| c == 0));
    }

    #[test]
    fn fusion_beats_lpt_on_cut_edges() {
        // Two heavy stages separated by cheap glue: LPT scatters the glue
        // across cores (cut edges everywhere); the planner must fuse the
        // glue onto the heavy stages' cores and keep only the one cut
        // that load balance demands.
        let g = pipeline(vec![
            counter_src(1),
            stateless("cheap1", 1),
            stateless("heavy1", 400),
            stateless("cheap2", 1),
            stateless("heavy2", 400),
            StreamSpec::Sink,
        ]);
        let sched = Schedule::compute(&g).unwrap();
        let cycles: Vec<u64> = vec![10, 10, 4000, 10, 4000, 10];
        let comm = CommModel::default();
        let plan = plan_placement(&g, &sched, &cycles, 2, &comm);
        assert!(plan.cores_used >= 2, "plan should go parallel: {plan:?}");
        let lpt = crate::Partition::lpt(&g, &sched, &cycles, 2);
        assert!(
            plan.cut_edges <= lpt.cut_edges.len(),
            "planned {} cuts vs LPT {}",
            plan.cut_edges,
            lpt.cut_edges.len()
        );
        assert!(plan.fused_groups >= 1);
        assert!(plan.modelled_makespan < plan.modelled_sequential);
    }

    #[test]
    fn hot_stateless_stage_gets_fissioned() {
        // One stage is 10x everything else: no whole-stage placement can
        // beat sequential by much, but dealing its firings across cores
        // can. The stage is stateless, so fission is legal.
        let g = pipeline(vec![
            counter_src(4),
            stateless("hot", 2000),
            StreamSpec::Sink,
        ]);
        let sched = Schedule::compute(&g).unwrap();
        let cycles: Vec<u64> = vec![40, 80_000, 40];
        let plan = plan_placement(&g, &sched, &cycles, 4, &CommModel::default());
        assert!(plan.fissioned >= 2, "expected fission: {plan:?}");
        let spec = &plan.placement.fission[0];
        assert_eq!(spec.node, NodeId(1));
        assert_eq!(
            plan.placement.assignment[1], spec.replicas[0],
            "home core must lead the replica list"
        );
        assert!(plan.modelled_makespan < plan.modelled_sequential);
    }

    #[test]
    fn stateful_stage_is_never_fissioned() {
        // Same shape, but the hot stage carries state across firings.
        let mut hot = FilterBuilder::new("hot", 1, 1, 1, ScalarTy::I32);
        let acc = hot.state("acc", Ty::Scalar(ScalarTy::I32));
        let i = hot.local("i", Ty::Scalar(ScalarTy::I32));
        hot.work(move |b| {
            b.for_(i, 2000i32, |b| {
                b.set(acc, v(acc) * 3i32 + 1i32);
            });
            b.push(pop() + v(acc));
        });
        let g = pipeline(vec![counter_src(4), hot.build_spec(), StreamSpec::Sink]);
        let sched = Schedule::compute(&g).unwrap();
        let cycles: Vec<u64> = vec![40, 80_000, 40];
        let plan = plan_placement(&g, &sched, &cycles, 4, &CommModel::default());
        assert_eq!(
            plan.fissioned, 0,
            "stateful stage must stay whole: {plan:?}"
        );
    }

    #[test]
    fn planning_is_deterministic() {
        // Pure function of inputs: independently rebuilt graphs with the
        // same structure produce bit-identical plans across repeated
        // calls, worker counts, and cost scales.
        let build = || {
            pipeline(vec![
                counter_src(4),
                stateless("a", 50),
                stateless("b", 800),
                stateless("c", 20),
                stateless("d", 700),
                StreamSpec::Sink,
            ])
        };
        let comm = CommModel::default();
        for workers in [1usize, 2, 3, 4, 8] {
            for scale in [1u64, 17, 400] {
                let g1 = build();
                let g2 = build();
                assert_eq!(
                    macross_streamir::structural_hash(&g1),
                    macross_streamir::structural_hash(&g2)
                );
                let s1 = Schedule::compute(&g1).unwrap();
                let s2 = Schedule::compute(&g2).unwrap();
                let cycles: Vec<u64> = (0..g1.node_count() as u64)
                    .map(|i| (i * 31 + 7) * scale)
                    .collect();
                let p1 = plan_placement(&g1, &s1, &cycles, workers, &comm);
                let p2 = plan_placement(&g2, &s2, &cycles, workers, &comm);
                assert_eq!(p1, p2, "workers={workers} scale={scale}");
                let p3 = plan_placement(&g1, &s1, &cycles, workers, &comm);
                assert_eq!(p1, p3, "replan drifted: workers={workers}");
            }
        }
    }

    #[test]
    fn planned_placements_validate_and_run() {
        // Whatever the planner proposes must pass the runtime's own
        // legality check and reproduce the sequential output bits.
        let g = pipeline(vec![
            counter_src(4),
            stateless("a", 200),
            stateless("hot", 2000),
            StreamSpec::Sink,
        ]);
        let sched = Schedule::compute(&g).unwrap();
        let m = Machine::core_i7();
        let seq = macross_vm::run_scheduled(&g, &sched, &m, 6).unwrap();
        let cycles: Vec<u64> = seq.node_cycles.iter().map(|c| c / 6).collect();
        for workers in [2usize, 4] {
            let plan = plan_placement(&g, &sched, &cycles, workers, &CommModel::default());
            plan.placement.validate(&g, &sched).unwrap();
            let thr =
                macross_runtime::run_threaded_placed(&g, &sched, &m, &plan.placement, 6).unwrap();
            assert_eq!(thr.output, seq.output, "workers={workers}");
        }
    }
}
