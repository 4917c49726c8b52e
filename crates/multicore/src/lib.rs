//! # macross-multicore
//!
//! The naive SIMD-aware multicore scheduler study of Section 5 /
//! Figure 13: partition the stream graph across cores for load balance,
//! *then* macro-SIMDize within each core (which reduces fusion and
//! horizontal opportunities), and compare against plain multicore and
//! plain SIMD execution.
//!
//! The multicore substrate is analytic (see DESIGN.md's substitution
//! table): per-core compute comes from the VM's per-node cycle counts, and
//! inter-core traffic is charged per element crossing a core boundary —
//! matching the paper's observation that "mapping parallelism onto
//! multi-core ... can also experience slowdown due to inter-core
//! communication overhead".

use macross::driver::{macro_simdize_colocated, SimdizeOptions};
use macross::SimdizeError;
use macross_sdf::Schedule;
use macross_streamir::graph::Graph;
use macross_vm::{run_scheduled, Machine};

pub mod planner;
pub use planner::{plan_placement, PlacementPlan};

/// Inter-core communication model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommModel {
    /// Cycles charged per element crossing a core boundary per steady
    /// iteration (cache-line transfer amortized per 32-bit element).
    pub cycles_per_element: u64,
    /// Fixed per-cut-edge synchronization cost per steady iteration.
    pub sync_per_edge: u64,
}

impl Default for CommModel {
    fn default() -> Self {
        CommModel {
            cycles_per_element: 3,
            sync_per_edge: 40,
        }
    }
}

/// Longest-processing-time greedy partitioner: nodes sorted by cycle cost,
/// assigned to the least-loaded core. Deliberately structure-blind — the
/// paper's "naive multi-core scheduler".
///
/// It serves the Figure 13 study and the fault campaigns' replay bundles
/// (`macross_bench::replay::campaign_placement`), nothing else: the
/// production placement is [`plan_placement`].
pub fn partition_lpt(node_cycles: &[u64], cores: usize) -> Vec<u32> {
    assert!(cores >= 1);
    let mut order: Vec<usize> = (0..node_cycles.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(node_cycles[i]));
    let mut load = vec![0u64; cores];
    let mut assign = vec![0u32; node_cycles.len()];
    for i in order {
        let core = (0..cores)
            .min_by_key(|&c| load[c])
            .expect("at least one core");
        assign[i] = core as u32;
        load[core] += node_cycles[i];
    }
    assign
}

/// One graph edge crossing a core boundary under a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutEdge {
    /// The crossing edge.
    pub edge: macross_streamir::EdgeId,
    /// Producing node.
    pub src: macross_streamir::NodeId,
    /// Consuming node.
    pub dst: macross_streamir::NodeId,
    /// Core the producer runs on.
    pub src_core: u32,
    /// Core the consumer runs on.
    pub dst_core: u32,
    /// Tokens crossing per steady iteration (`reps[src] * push`).
    pub tokens_per_iter: u64,
}

/// A core assignment plus the metadata consumers need beyond the raw
/// `Vec<u32>`: per-core compute loads and the cut edges the threaded
/// runtime must bridge with inter-core rings (and that [`CommModel`]
/// charges for).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Core count the assignment targets.
    pub cores: usize,
    /// Core index per node.
    pub assignment: Vec<u32>,
    /// Compute cycles per core (sum of assigned nodes' cycles).
    pub per_core_load: Vec<u64>,
    /// Edges whose endpoints land on different cores.
    pub cut_edges: Vec<CutEdge>,
}

impl Partition {
    /// Partition with the naive LPT heuristic and derive the metadata.
    pub fn lpt(graph: &Graph, schedule: &Schedule, node_cycles: &[u64], cores: usize) -> Partition {
        let assignment = partition_lpt(node_cycles, cores);
        Partition::from_assignment(graph, schedule, node_cycles, assignment, cores)
    }

    /// Derive per-core loads and cut edges for an existing assignment
    /// (e.g. from [`partition_simd_aware`] or a hand-written placement).
    pub fn from_assignment(
        graph: &Graph,
        schedule: &Schedule,
        node_cycles: &[u64],
        assignment: Vec<u32>,
        cores: usize,
    ) -> Partition {
        assert_eq!(assignment.len(), graph.node_count());
        let mut per_core_load = vec![0u64; cores];
        for (i, &core) in assignment.iter().enumerate() {
            per_core_load[core as usize] += node_cycles.get(i).copied().unwrap_or(0);
        }
        let mut cut_edges = Vec::new();
        for (id, e) in graph.edges() {
            let (sc, dc) = (assignment[e.src.0 as usize], assignment[e.dst.0 as usize]);
            if sc != dc {
                let push = graph.node(e.src).push_rate(e.src_port) as u64;
                cut_edges.push(CutEdge {
                    edge: id,
                    src: e.src,
                    dst: e.dst,
                    src_core: sc,
                    dst_core: dc,
                    tokens_per_iter: schedule.reps[e.src.0 as usize] * push,
                });
            }
        }
        Partition {
            cores,
            assignment,
            per_core_load,
            cut_edges,
        }
    }

    /// Load of the bottleneck core.
    pub fn max_load(&self) -> u64 {
        self.per_core_load.iter().copied().max().unwrap_or(0)
    }
}

/// Per-core estimate for one steady iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreEstimate {
    /// Compute cycles per core.
    pub per_core: Vec<u64>,
    /// Total communication cycles (added to the bottleneck core).
    pub comm_cycles: u64,
    /// Modelled makespan: `max(per_core) + comm_cycles`.
    pub makespan: u64,
}

/// Estimate the multicore makespan of one steady iteration: max core load
/// plus inter-core traffic.
pub fn estimate(
    graph: &Graph,
    schedule: &Schedule,
    node_cycles: &[u64],
    assignment: &[u32],
    cores: usize,
    comm: &CommModel,
) -> CoreEstimate {
    let mut per_core = vec![0u64; cores];
    for (i, &cyc) in node_cycles.iter().enumerate() {
        per_core[assignment[i] as usize] += cyc;
    }
    let mut comm_cycles = 0u64;
    for (_, e) in graph.edges() {
        if assignment[e.src.0 as usize] != assignment[e.dst.0 as usize] {
            let push = graph.node(e.src).push_rate(e.src_port) as u64;
            let tokens = schedule.reps[e.src.0 as usize] * push;
            comm_cycles += tokens * comm.cycles_per_element + comm.sync_per_edge;
        }
    }
    let makespan = per_core.iter().copied().max().unwrap_or(0) + comm_cycles;
    CoreEstimate {
        per_core,
        comm_cycles,
        makespan,
    }
}

/// One configuration's modelled performance, normalized per source firing
/// so scalar and Equation-1-scaled SIMD schedules are comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Modelled cycles per steady iteration (makespan).
    pub cycles_per_iteration: u64,
    /// Source firings per steady iteration.
    pub source_reps: u64,
}

impl Throughput {
    /// Cycles per source firing — the figure of merit.
    pub fn cycles_per_source_firing(&self) -> f64 {
        self.cycles_per_iteration as f64 / self.source_reps as f64
    }
}

/// The four bars of Figure 13 for one benchmark: `cores` with and without
/// macro-SIMDization, as speedups over single-core scalar.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure13Point {
    /// Core count.
    pub cores: usize,
    /// Speedup of plain multicore over 1-core scalar.
    pub multicore: f64,
    /// Speedup of multicore + macro-SIMD (partition-first) over 1-core
    /// scalar.
    pub multicore_simd: f64,
}

/// Evaluate one benchmark graph at a core count.
///
/// Steps mirror the paper: measure scalar per-node cycles, partition
/// (LPT), estimate plain multicore; then macro-SIMDize *with the partition
/// as a co-location constraint* and re-estimate.
///
/// # Errors
/// Propagates scheduling/SIMDization failures.
pub fn figure13_point(
    graph: &Graph,
    machine: &Machine,
    cores: usize,
    comm: &CommModel,
    iters: u64,
) -> Result<Figure13Point, SimdizeError> {
    let schedule = Schedule::compute(graph)?;
    let scalar = run_scheduled(graph, &schedule, machine, iters).expect("scalar run failed");
    let per_iter: Vec<u64> = scalar
        .node_cycles
        .iter()
        .map(|c| c / iters.max(1))
        .collect();
    let src = graph
        .node_ids()
        .find(|&id| graph.in_edges(id).is_empty())
        .expect("graph has a source");

    let single = Throughput {
        cycles_per_iteration: per_iter.iter().sum(),
        source_reps: schedule.rep(src),
    };

    let assignment = partition_lpt(&per_iter, cores);
    let mc = estimate(graph, &schedule, &per_iter, &assignment, cores, comm);
    let multicore = Throughput {
        cycles_per_iteration: mc.makespan,
        source_reps: schedule.rep(src),
    };

    // Partition-first macro-SIMDization.
    let (simd, colors) =
        macro_simdize_colocated(graph, machine, &SimdizeOptions::all(), &assignment)?;
    let simd_run =
        run_scheduled(&simd.graph, &simd.schedule, machine, iters).expect("simd run failed");
    let simd_per_iter: Vec<u64> = simd_run
        .node_cycles
        .iter()
        .map(|c| c / iters.max(1))
        .collect();
    let simd_src = simd
        .graph
        .node_ids()
        .find(|&id| simd.graph.in_edges(id).is_empty())
        .expect("simd graph has a source");
    let mcs = estimate(
        &simd.graph,
        &simd.schedule,
        &simd_per_iter,
        &colors,
        cores,
        comm,
    );
    let multicore_simd = Throughput {
        cycles_per_iteration: mcs.makespan,
        source_reps: simd.schedule.reps[simd_src.0 as usize],
    };

    let base = single.cycles_per_source_firing();
    Ok(Figure13Point {
        cores,
        multicore: base / multicore.cycles_per_source_firing(),
        multicore_simd: base / multicore_simd.cycles_per_source_firing(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};

    #[test]
    fn lpt_balances_loads() {
        let cycles = vec![10, 10, 10, 10, 40];
        let assign = partition_lpt(&cycles, 2);
        let mut load = [0u64; 2];
        for (i, &a) in assign.iter().enumerate() {
            load[a as usize] += cycles[i];
        }
        assert_eq!(load[0].max(load[1]), 40);
    }

    #[test]
    fn single_core_has_no_comm() {
        let cycles = vec![5, 5];
        let assign = partition_lpt(&cycles, 1);
        assert!(assign.iter().all(|&a| a == 0));
    }

    fn bench_graph() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 4, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            for _ in 0..4 {
                b.push(v(n) * 0.5f32);
                b.set(
                    n,
                    cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 199i32),
                );
            }
        });
        let heavy = |name: &str, k: f32| {
            let mut fb = FilterBuilder::new(name, 4, 4, 4, ScalarTy::F32);
            let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
            let t = fb.local("t", Ty::Scalar(ScalarTy::F32));
            fb.work(move |b| {
                b.for_(i, 4i32, |b| {
                    b.set(t, pop());
                    b.push(sqrt(abs(v(t) * k + 1.0f32)) * v(t));
                });
            });
            fb.build_spec()
        };
        StreamSpec::pipeline(vec![
            src.build_spec(),
            heavy("h1", 2.0),
            heavy("h2", 3.0),
            heavy("h3", 4.0),
            heavy("h4", 5.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap()
    }

    /// xorshift64* — deterministic stand-in for `proptest` (offline build).
    struct Rng(u64);
    impl Rng {
        fn new(seed: u64) -> Rng {
            Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next_u64() % (hi - lo)
        }
    }

    #[test]
    fn more_cores_than_nodes() {
        let cycles = vec![7, 3];
        let assign = partition_lpt(&cycles, 8);
        assert_eq!(assign.len(), 2);
        // Every node lands on a valid core, and no core hosts two nodes
        // while another sits idle.
        assert!(assign.iter().all(|&a| (a as usize) < 8));
        assert_ne!(assign[0], assign[1]);
    }

    #[test]
    fn zero_nodes() {
        assert!(partition_lpt(&[], 4).is_empty());
    }

    #[test]
    fn all_zero_costs_still_assign_valid_cores() {
        let cycles = vec![0u64; 13];
        for cores in 1..6 {
            let assign = partition_lpt(&cycles, cores);
            assert_eq!(assign.len(), 13);
            assert!(assign.iter().all(|&a| (a as usize) < cores));
        }
    }

    /// Randomized: every node gets a valid core; for uniform costs the
    /// greedy placement is optimal, and in general LPT's makespan is
    /// within the classic `4/3 - 1/(3m)` factor of the perfect split
    /// (a lower bound on OPT), which the bound certainly permits.
    #[test]
    fn lpt_property_valid_and_bounded() {
        for seed in 0..64u64 {
            let mut rng = Rng::new(seed);
            let n = rng.range(1, 24) as usize;
            let cores = rng.range(1, 9) as usize;
            let uniform = seed % 2 == 0;
            let c = rng.range(1, 100);
            let cycles: Vec<u64> = (0..n)
                .map(|_| if uniform { c } else { rng.range(1, 1000) })
                .collect();
            let assign = partition_lpt(&cycles, cores);
            assert_eq!(assign.len(), n);
            assert!(assign.iter().all(|&a| (a as usize) < cores), "seed {seed}");
            let mut load = vec![0u64; cores];
            for (i, &a) in assign.iter().enumerate() {
                load[a as usize] += cycles[i];
            }
            let makespan = *load.iter().max().unwrap();
            if uniform {
                // Uniform jobs: LPT is exactly optimal — ceil(n/m) jobs on
                // the fullest core.
                assert_eq!(makespan, n.div_ceil(cores) as u64 * c, "seed {seed}");
            }
            // Graham's bound vs. the fractional lower bound on OPT:
            // OPT >= max(mean load, max job).
            let total: u64 = cycles.iter().sum();
            let opt_lb = (total as f64 / cores as f64).max(*cycles.iter().max().unwrap() as f64);
            let bound = (4.0 / 3.0 - 1.0 / (3.0 * cores as f64)) * opt_lb;
            // Graham's guarantee is relative to true OPT >= opt_lb; allow
            // the fractional relaxation plus one max job of slack.
            assert!(
                makespan as f64 <= bound + *cycles.iter().max().unwrap() as f64,
                "seed {seed}: makespan {makespan} vs bound {bound} (loads {load:?})"
            );
        }
    }

    #[test]
    fn partition_metadata_matches_estimate() {
        let g = bench_graph();
        let sched = Schedule::compute(&g).unwrap();
        let cycles = vec![100u64; g.node_count()];
        let part = Partition::lpt(&g, &sched, &cycles, 2);
        assert_eq!(part.assignment, partition_lpt(&cycles, 2));
        assert_eq!(
            part.per_core_load.iter().sum::<u64>(),
            100 * g.node_count() as u64
        );
        let comm = CommModel::default();
        let est = estimate(&g, &sched, &cycles, &part.assignment, 2, &comm);
        let modeled: u64 = part
            .cut_edges
            .iter()
            .map(|c| c.tokens_per_iter * comm.cycles_per_element + comm.sync_per_edge)
            .sum();
        assert_eq!(est.comm_cycles, modeled);
        assert_eq!(est.makespan, part.max_load() + modeled);
        for c in &part.cut_edges {
            assert_ne!(c.src_core, c.dst_core);
            assert_eq!(part.assignment[c.src.0 as usize], c.src_core);
            assert_eq!(part.assignment[c.dst.0 as usize], c.dst_core);
        }
    }

    #[test]
    fn estimate_counts_cut_edges() {
        let g = bench_graph();
        let sched = Schedule::compute(&g).unwrap();
        let cycles = vec![100u64; g.node_count()];
        let all_one_core = vec![0u32; g.node_count()];
        let comm = CommModel::default();
        let e1 = estimate(&g, &sched, &cycles, &all_one_core, 2, &comm);
        assert_eq!(e1.comm_cycles, 0);
        let mut split = all_one_core.clone();
        split[2] = 1; // one actor on core 1: two cut edges
        let e2 = estimate(&g, &sched, &cycles, &split, 2, &comm);
        // Two cut edges, 4 tokens each per steady iteration.
        assert_eq!(
            e2.comm_cycles,
            2 * (4 * comm.cycles_per_element + comm.sync_per_edge)
        );
        assert_eq!(e2.makespan, 500 + e2.comm_cycles);
    }

    #[test]
    fn figure13_shapes() {
        let g = bench_graph();
        let machine = Machine::core_i7();
        let comm = CommModel::default();
        let p2 = figure13_point(&g, &machine, 2, &comm, 4).unwrap();
        let p4 = figure13_point(&g, &machine, 4, &comm, 4).unwrap();
        // Multicore speedups are positive and grow with cores.
        assert!(p2.multicore > 1.0, "2-core speedup {}", p2.multicore);
        assert!(p4.multicore >= p2.multicore);
        // Macro-SIMD on top of multicore beats plain multicore.
        assert!(p2.multicore_simd > p2.multicore);
        // The paper's headline: 2 cores + SIMD competitive with 4 cores.
        assert!(
            p2.multicore_simd > p4.multicore * 0.9,
            "2-core+SIMD {} should approach 4-core {}",
            p2.multicore_simd,
            p4.multicore
        );
    }

    #[test]
    fn colocation_restricts_fusion() {
        use macross::driver::macro_simdize_colocated;
        let g = bench_graph();
        let machine = Machine::core_i7();
        // All on one core: the whole h1..h4 chain fuses.
        let one = vec![0u32; g.node_count()];
        let (all_fused, _) =
            macro_simdize_colocated(&g, &machine, &SimdizeOptions::all(), &one).unwrap();
        // Split the chain across cores: fusion is cut at the boundary.
        let mut split = vec![0u32; g.node_count()];
        split[3] = 1;
        split[4] = 1;
        split[5] = 1;
        let (partial, _) =
            macro_simdize_colocated(&g, &machine, &SimdizeOptions::all(), &split).unwrap();
        let full_len: usize = all_fused
            .report
            .vertical_chains
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(0);
        let part_len: usize = partial
            .report
            .vertical_chains
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(0);
        assert!(
            full_len > part_len,
            "full {full_len} vs partitioned {part_len}"
        );
    }
}

// ---------------------------------------------------------------------
// SIMD-aware partitioning (the paper's future work: "we are not proposing
// any universal partitioning approach that can handle both SIMDization
// and multi-core partitioning ... performing vectorization on the
// high-level graph makes it possible for the partitioner ... to make
// SIMD-aware decisions").
// ---------------------------------------------------------------------

/// Cluster-aware LPT: vertically fusable chains and horizontal split-join
/// candidates are kept on one core so the SIMDizer's opportunities
/// survive partitioning, then clusters are placed greedily by load.
///
/// Like [`partition_lpt`], it serves the Figure 13 study only (the
/// `ablate_partitioner` comparison); the production placement is
/// [`plan_placement`].
pub fn partition_simd_aware(
    graph: &Graph,
    node_cycles: &[u64],
    cores: usize,
    machine: &Machine,
) -> Vec<u32> {
    use macross::horizontal::find_split_joins;
    use macross::vertical::link_fusable;
    use macross_streamir::analysis::analyze_vectorizability;

    assert!(cores >= 1);
    let n = graph.node_count();
    // Union-find over nodes.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    };

    let eligible = |id: macross_streamir::NodeId| -> bool {
        graph
            .node(id)
            .as_filter()
            .map(|f| {
                let va = analyze_vectorizability(f);
                va.simdizable() && machine.supports_all(&va.intrinsics)
            })
            .unwrap_or(false)
    };

    // Fusable pipeline links stay together.
    for (_, e) in graph.edges() {
        if eligible(e.src) && eligible(e.dst) && link_fusable(graph, e.src, e.dst).is_ok() {
            union(&mut parent, e.src.0 as usize, e.dst.0 as usize);
        }
    }
    // Horizontal candidates (splitter + all branches + joiner) stay together
    // when the branch count fits the SIMD width.
    for cand in find_split_joins(graph) {
        if cand.branches.len() % machine.simd_width != 0 {
            continue;
        }
        let sp = cand.splitter.0 as usize;
        for b in cand.branches.iter().flatten() {
            union(&mut parent, sp, b.0 as usize);
        }
        union(&mut parent, sp, cand.joiner.0 as usize);
    }
    // Splitters/joiners that did not form candidates stay free.

    // Cluster loads, then LPT over clusters.
    let mut cluster_nodes: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let r = find(&mut parent, i);
        cluster_nodes.entry(r).or_default().push(i);
    }
    let mut clusters: Vec<(u64, Vec<usize>)> = cluster_nodes
        .into_values()
        .map(|nodes| (nodes.iter().map(|&i| node_cycles[i]).sum(), nodes))
        .collect();
    clusters.sort_by_key(|(load, nodes)| std::cmp::Reverse((*load, nodes.len())));
    let mut core_load = vec![0u64; cores];
    let mut assign = vec![0u32; n];
    for (load, nodes) in clusters {
        let core = (0..cores)
            .min_by_key(|&c| core_load[c])
            .expect("at least one core");
        core_load[core] += load;
        for i in nodes {
            assign[i] = core as u32;
        }
    }
    assign
}

/// Figure-13 evaluation using the SIMD-aware partitioner instead of the
/// naive LPT (the `ablate_partitioner` comparison).
///
/// # Errors
/// Propagates scheduling/SIMDization failures.
pub fn figure13_point_simd_aware(
    graph: &Graph,
    machine: &Machine,
    cores: usize,
    comm: &CommModel,
    iters: u64,
) -> Result<Figure13Point, SimdizeError> {
    let schedule = Schedule::compute(graph)?;
    let scalar = run_scheduled(graph, &schedule, machine, iters).expect("scalar run failed");
    let per_iter: Vec<u64> = scalar
        .node_cycles
        .iter()
        .map(|c| c / iters.max(1))
        .collect();
    let src = graph
        .node_ids()
        .find(|&id| graph.in_edges(id).is_empty())
        .expect("source");
    let single = per_iter.iter().sum::<u64>() as f64 / schedule.rep(src) as f64;

    let assignment = partition_simd_aware(graph, &per_iter, cores, machine);
    let mc = estimate(graph, &schedule, &per_iter, &assignment, cores, comm);
    let multicore = mc.makespan as f64 / schedule.rep(src) as f64;

    let (simd, colors) =
        macro_simdize_colocated(graph, machine, &SimdizeOptions::all(), &assignment)?;
    let simd_run =
        run_scheduled(&simd.graph, &simd.schedule, machine, iters).expect("simd run failed");
    let simd_per_iter: Vec<u64> = simd_run
        .node_cycles
        .iter()
        .map(|c| c / iters.max(1))
        .collect();
    let simd_src = simd
        .graph
        .node_ids()
        .find(|&id| simd.graph.in_edges(id).is_empty())
        .expect("simd graph has a source");
    let mcs = estimate(
        &simd.graph,
        &simd.schedule,
        &simd_per_iter,
        &colors,
        cores,
        comm,
    );
    let multicore_simd = mcs.makespan as f64 / simd.schedule.reps[simd_src.0 as usize] as f64;

    Ok(Figure13Point {
        cores,
        multicore: single / multicore,
        multicore_simd: single / multicore_simd,
    })
}

#[cfg(test)]
mod simd_aware_tests {
    use super::*;
    use macross_benchsuite_free::*;

    /// A long fusable pipeline that naive LPT would cut.
    mod macross_benchsuite_free {
        use macross_streamir::builder::StreamSpec;
        use macross_streamir::edsl::*;
        use macross_streamir::graph::Graph;
        use macross_streamir::types::{ScalarTy, Ty};

        pub fn chain_graph() -> Graph {
            let mut src = FilterBuilder::new("src", 0, 0, 4, ScalarTy::F32);
            let n = src.state("n", Ty::Scalar(ScalarTy::F32));
            src.work(|b| {
                for _ in 0..4 {
                    b.push(v(n) * 0.25f32);
                    b.set(
                        n,
                        cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 99i32),
                    );
                }
            });
            let stage = |name: &str, k: f32| {
                let mut fb = FilterBuilder::new(name, 4, 4, 4, ScalarTy::F32);
                let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
                let t = fb.local("t", Ty::Scalar(ScalarTy::F32));
                fb.work(move |b| {
                    b.for_(i, 4i32, |b| {
                        b.set(t, pop());
                        b.push(sqrt(abs(v(t))) * k + v(t));
                    });
                });
                fb.build_spec()
            };
            StreamSpec::pipeline(vec![
                src.build_spec(),
                stage("s1", 1.0),
                stage("s2", 2.0),
                stage("s3", 3.0),
                stage("s4", 4.0),
                stage("s5", 5.0),
                stage("s6", 6.0),
                StreamSpec::Sink,
            ])
            .build()
            .unwrap()
        }
    }

    #[test]
    fn simd_aware_keeps_chains_together() {
        let g = chain_graph();
        let machine = Machine::core_i7();
        let cycles = vec![100u64; g.node_count()];
        let naive = partition_lpt(&cycles, 2);
        let aware = partition_simd_aware(&g, &cycles, 2, &machine);
        // The six fusable stages must share one core under the aware
        // partitioner; naive LPT scatters them.
        let stage_cores: std::collections::HashSet<u32> = (1..7).map(|i| aware[i]).collect();
        assert_eq!(stage_cores.len(), 1, "aware: {aware:?}");
        let naive_cores: std::collections::HashSet<u32> = (1..7).map(|i| naive[i]).collect();
        assert!(naive_cores.len() > 1, "naive: {naive:?}");
    }

    #[test]
    fn simd_aware_beats_naive_with_simd() {
        let g = chain_graph();
        let machine = Machine::core_i7();
        let comm = CommModel::default();
        let naive = figure13_point(&g, &machine, 2, &comm, 4).unwrap();
        let aware = figure13_point_simd_aware(&g, &machine, 2, &comm, 4).unwrap();
        assert!(
            aware.multicore_simd >= naive.multicore_simd,
            "aware {} vs naive {}",
            aware.multicore_simd,
            naive.multicore_simd
        );
    }
}
