//! # macross-multicore
//!
//! Placement across cores, and the Section 5 / Figure 13 study built on
//! it: partition the stream graph across cores for load balance, *then*
//! macro-SIMDize within each core (which reduces fusion and horizontal
//! opportunities), and compare against plain multicore and plain SIMD
//! execution.
//!
//! Three partitioners share one placement model:
//!
//! - [`partition_lpt`], the paper's structure-blind "naive multi-core
//!   scheduler";
//! - [`partition_simd_aware`], the paper's future work: fusable links and
//!   horizontal candidates are kept on one core;
//! - [`plan_placement`], the production planner (fusion, fission and the
//!   collapse to one core; see [`planner`]).
//!
//! All three place clusters of nodes with one longest-processing-time
//! greedy (`Clusters::place`) and price a placement with one
//! [`estimate`]. Which placements are legal and which edges cross cores
//! is the runtime's rule (`macross_runtime::Placement::validate` and
//! `Placement::crosses_cores`). Every choice breaks ties by node or core
//! index, so a placement is a pure function of its inputs.
//!
//! The multicore substrate is analytic (see DESIGN.md's substitution
//! table): per-core compute comes from the VM's per-node cycle counts, and
//! inter-core traffic is charged per element crossing a core boundary —
//! matching the paper's observation that "mapping parallelism onto
//! multi-core ... can also experience slowdown due to inter-core
//! communication overhead".

use macross::driver::{macro_simdize_colocated, SimdizeOptions, Simdized};
use macross::SimdizeError;
use macross_runtime::Placement;
use macross_sdf::Schedule;
use macross_streamir::graph::{Edge, Graph, NodeId};
use macross_vm::{run_scheduled, Machine};

pub mod planner;
pub use planner::{plan_placement, PlacementPlan};

/// Inter-core communication model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommModel {
    /// Cycles charged per element crossing a core boundary per steady
    /// iteration (cache-line transfer amortized per 32-bit element).
    pub cycles_per_element: u64,
    /// Fixed synchronization cost per inter-core ring per steady
    /// iteration.
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

/// What one steady iteration of `e`'s traffic costs when it crosses
/// cores through `rings` rings.
pub(crate) fn crossing_cycles(
    graph: &Graph,
    schedule: &Schedule,
    e: &Edge,
    rings: u64,
    comm: &CommModel,
) -> u64 {
    let tokens = schedule.reps[e.src.0 as usize] * graph.node(e.src).push_rate(e.src_port) as u64;
    tokens * comm.cycles_per_element + rings * comm.sync_per_edge
}

/// Clusters of nodes that share a core: a union-find over node ids whose
/// root is always the cluster's smallest member.
#[derive(Clone)]
pub(crate) struct Clusters {
    parent: Vec<usize>,
}

impl Clusters {
    /// `n` nodes, each its own cluster.
    pub(crate) fn singletons(n: usize) -> Clusters {
        Clusters {
            parent: (0..n).collect(),
        }
    }

    /// The root (smallest member) of `x`'s cluster, compressing the path.
    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }

    /// Put `a` and `b` in one cluster.
    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra.max(rb)] = ra.min(rb);
    }

    /// Each cluster's members in ascending order, indexed by its root
    /// (empty at every other index).
    pub(crate) fn members(&mut self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.parent.len()];
        for i in 0..self.parent.len() {
            let r = self.find(i);
            members[r].push(i);
        }
        members
    }

    /// Longest-processing-time greedy over clusters: heaviest cluster
    /// first (ties: smallest member), each onto the least-loaded core
    /// (ties: lowest index). Returns the core of every node.
    pub(crate) fn place(&mut self, node_cycles: &[u64], cores: usize) -> Vec<u32> {
        let members = self.members();
        let mut order: Vec<(u64, usize)> = members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(r, m)| (m.iter().map(|&i| node_cycles[i]).sum(), r))
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut load = vec![0u64; cores];
        let mut assign = vec![0u32; members.len()];
        for (cost, r) in order {
            let core = (0..cores)
                .min_by_key(|&c| load[c])
                .expect("at least one core");
            load[core] += cost;
            for &i in &members[r] {
                assign[i] = core as u32;
            }
        }
        assign
    }
}

/// Longest-processing-time greedy partitioner: every node its own
/// cluster, heaviest first onto the least-loaded core. Deliberately
/// structure-blind — the paper's "naive multi-core scheduler".
///
/// It serves the Figure 13 study and the fault campaigns' replay bundles
/// (`macross_bench::replay::campaign_placement`), nothing else: the
/// production placement is [`plan_placement`].
pub fn partition_lpt(node_cycles: &[u64], cores: usize) -> Vec<u32> {
    assert!(cores >= 1);
    Clusters::singletons(node_cycles.len()).place(node_cycles, cores)
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

/// Estimate the makespan of one steady iteration under `placement` on
/// `cores` cores: the bottleneck core's compute plus all inter-core
/// traffic.
///
/// A fissioned node's cycles are split evenly across its replicas, the
/// remainder on `replicas[0]`. Every edge that crosses cores
/// (`Placement::crosses_cores`) costs its tokens at
/// `cycles_per_element` plus `sync_per_edge` per ring: one ring, or one
/// per replica when an endpoint is fissioned.
pub fn estimate(
    graph: &Graph,
    schedule: &Schedule,
    node_cycles: &[u64],
    placement: &Placement,
    cores: usize,
    comm: &CommModel,
) -> CoreEstimate {
    let mut per_core = vec![0u64; cores];
    for (i, &cyc) in node_cycles.iter().enumerate() {
        per_core[placement.assignment[i] as usize] += cyc;
    }
    for spec in &placement.fission {
        let (i, k) = (spec.node.0 as usize, spec.replicas.len() as u64);
        per_core[placement.assignment[i] as usize] -= node_cycles[i];
        for &r in &spec.replicas {
            per_core[r as usize] += node_cycles[i] / k;
        }
        per_core[spec.replicas[0] as usize] += node_cycles[i] % k;
    }
    let comm_cycles = graph
        .edges()
        .filter(|(_, e)| placement.crosses_cores(e))
        .map(|(_, e)| {
            let fissioned = placement
                .fission
                .iter()
                .find(|s| s.node == e.src || s.node == e.dst);
            let rings = fissioned.map_or(1, |s| s.replicas.len() as u64);
            crossing_cycles(graph, schedule, e, rings, comm)
        })
        .sum();
    let makespan = per_core.iter().copied().max().unwrap_or(0) + comm_cycles;
    CoreEstimate {
        per_core,
        comm_cycles,
        makespan,
    }
}

/// The bars of Figure 13 for one benchmark at one core count: `cores`
/// with and without macro-SIMDization, as modelled speedups over
/// single-core scalar, plus the two placements they priced, so a caller
/// can run exactly those.
#[derive(Debug, Clone)]
pub struct Figure13Point {
    /// Core count.
    pub cores: usize,
    /// Speedup of plain multicore over 1-core scalar.
    pub multicore: f64,
    /// Speedup of multicore + macro-SIMD (partition-first) over 1-core
    /// scalar.
    pub multicore_simd: f64,
    /// Core per node of the scalar graph: the partition `multicore`
    /// priced.
    pub assignment: Vec<u32>,
    /// The graph macro-SIMDized under that partition as a co-location
    /// constraint, with its schedule.
    pub simd: Simdized,
    /// Core per node of `simd.graph`: the placement `multicore_simd`
    /// priced.
    pub simd_colors: Vec<u32>,
}

/// Evaluate one benchmark graph at a core count with the naive LPT
/// partition ([`partition_lpt`]).
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
    figure13_with(graph, machine, cores, comm, iters, |cycles| {
        partition_lpt(cycles, cores)
    })
}

/// Steps mirror the paper: measure scalar per-node cycles, partition,
/// estimate plain multicore; then macro-SIMDize *with the partition as a
/// co-location constraint* and re-estimate. Speedups are per source
/// firing, so scalar and Equation-1-scaled SIMD schedules compare.
fn figure13_with(
    graph: &Graph,
    machine: &Machine,
    cores: usize,
    comm: &CommModel,
    iters: u64,
    partition: impl FnOnce(&[u64]) -> Vec<u32>,
) -> Result<Figure13Point, SimdizeError> {
    // Cycles per steady iteration of each node, and source firings per
    // steady iteration.
    let measure = |g: &Graph, s: &Schedule| {
        let run = run_scheduled(g, s, machine, iters).expect("run failed");
        let per_iter: Vec<u64> = run.node_cycles.iter().map(|c| c / iters.max(1)).collect();
        let src = g
            .node_ids()
            .find(|&id| g.in_edges(id).is_empty())
            .expect("graph has a source");
        (per_iter, s.rep(src) as f64)
    };
    let schedule = Schedule::compute(graph)?;
    let (per_iter, reps) = measure(graph, &schedule);
    let single = per_iter.iter().sum::<u64>() as f64 / reps;
    let scalar = Placement::whole_stage(partition(&per_iter));
    let mc = estimate(graph, &schedule, &per_iter, &scalar, cores, comm);

    let (simd, colors) =
        macro_simdize_colocated(graph, machine, &SimdizeOptions::all(), &scalar.assignment)?;
    let (simd_per_iter, simd_reps) = measure(&simd.graph, &simd.schedule);
    let colocated = Placement::whole_stage(colors);
    let mcs = estimate(
        &simd.graph,
        &simd.schedule,
        &simd_per_iter,
        &colocated,
        cores,
        comm,
    );
    Ok(Figure13Point {
        cores,
        multicore: single / (mc.makespan as f64 / reps),
        multicore_simd: single / (mcs.makespan as f64 / simd_reps),
        assignment: scalar.assignment,
        simd,
        simd_colors: colocated.assignment,
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
    fn estimate_counts_cut_edges() {
        let g = bench_graph();
        let sched = Schedule::compute(&g).unwrap();
        let cycles = vec![100u64; g.node_count()];
        let all_one_core = vec![0u32; g.node_count()];
        let comm = CommModel::default();
        let e1 = estimate(
            &g,
            &sched,
            &cycles,
            &Placement::whole_stage(all_one_core.clone()),
            2,
            &comm,
        );
        assert_eq!(e1.comm_cycles, 0);
        let mut split = all_one_core.clone();
        split[2] = 1; // one actor on core 1: two cut edges
        let e2 = estimate(
            &g,
            &sched,
            &cycles,
            &Placement::whole_stage(split),
            2,
            &comm,
        );
        // Two cut edges, 4 tokens each per steady iteration.
        assert_eq!(
            e2.comm_cycles,
            2 * (4 * comm.cycles_per_element + comm.sync_per_edge)
        );
        assert_eq!(e2.makespan, 500 + e2.comm_cycles);
    }

    #[test]
    fn estimate_prices_fission() {
        // h3 (node 3) dealt across cores 0 and 2: its 101 cycles split
        // 51/50, and both its edges cross, 4 tokens each through two
        // rings. Every other edge stays on its core.
        let g = bench_graph();
        let sched = Schedule::compute(&g).unwrap();
        let mut cycles = vec![100u64; g.node_count()];
        cycles[3] = 101;
        let comm = CommModel::default();
        let placement = Placement {
            assignment: vec![0, 0, 0, 0, 1, 1],
            fission: vec![macross_runtime::FissionSpec {
                node: macross_streamir::NodeId(3),
                replicas: vec![0, 2],
            }],
        };
        placement.validate(&g, &sched).unwrap();
        let est = estimate(&g, &sched, &cycles, &placement, 3, &comm);
        assert_eq!(est.per_core, vec![351, 200, 50]);
        let edge = 4 * comm.cycles_per_element + 2 * comm.sync_per_edge;
        assert_eq!(est.comm_cycles, 2 * edge);
        assert_eq!(est.makespan, 351 + 2 * edge);
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
/// survive partitioning, then clusters are placed greedily by load, as
/// [`partition_lpt`] places single nodes.
///
/// Like [`partition_lpt`], it serves the Figure 13 study only (the
/// partitioner ablation in `tests/experiment_shapes.rs`); the production
/// placement is [`plan_placement`].
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
    let eligible = |id: NodeId| -> bool {
        graph
            .node(id)
            .as_filter()
            .map(|f| {
                let va = analyze_vectorizability(f);
                va.simdizable() && machine.supports_all(&va.intrinsics)
            })
            .unwrap_or(false)
    };
    let mut clusters = Clusters::singletons(graph.node_count());
    // Fusable pipeline links stay together.
    for (_, e) in graph.edges() {
        if eligible(e.src) && eligible(e.dst) && link_fusable(graph, e.src, e.dst).is_ok() {
            clusters.union(e.src.0 as usize, e.dst.0 as usize);
        }
    }
    // Horizontal candidates (splitter + all branches + joiner) stay together
    // when the branch count fits the SIMD width; splitters and joiners that
    // form no candidate stay free.
    for cand in find_split_joins(graph) {
        if cand.branches.len() % machine.simd_width != 0 {
            continue;
        }
        for node in cand.branches.iter().flatten().chain([&cand.joiner]) {
            clusters.union(cand.splitter.0 as usize, node.0 as usize);
        }
    }
    clusters.place(node_cycles, cores)
}

/// Figure-13 evaluation using the SIMD-aware partitioner instead of the
/// naive LPT (the partitioner ablation). `assignment` holds the aware
/// partition.
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
    figure13_with(graph, machine, cores, comm, iters, |cycles| {
        partition_simd_aware(graph, cycles, cores, machine)
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
        let stage_cores: std::collections::BTreeSet<u32> = (1..7).map(|i| aware[i]).collect();
        assert_eq!(stage_cores.len(), 1, "aware: {aware:?}");
        let naive_cores: std::collections::BTreeSet<u32> = (1..7).map(|i| naive[i]).collect();
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
