//! The compile-once cache: one [`CompiledGraph`] per unique *shape*,
//! shared by every session that submits an equivalent graph.
//!
//! The key is the structural hash ([`macross_streamir::shash`]) of the
//! submitted graph — invariant under actor renaming and node insertion
//! order — combined with everything else that changes what compilation
//! produces: the machine description, the SIMDization option set, and the
//! engine mode. Entries are `Arc`s, so eviction never invalidates a
//! running session; it only forces the *next* equivalent submission to
//! recompile.
//!
//! The service holds this cache behind one mutex **across the whole
//! compile**, so two tenants racing to submit the same shape serialize
//! and the second gets a hit. That is the invariant
//! [`crate::ServiceReport::violations`] checks: with zero evictions,
//! `compilations == distinct_graphs` no matter how many sessions ran.
//!
//! It is the only cache: a dynamic-rate session's configuration is the
//! shape its valuation instantiates, looked up here like any submission.
//! Each such install also counts itself per `(shape, valuation)` pair,
//! which is the report's `scache` block.

use crate::report::{CacheStats, ScheduleCacheStats};
use macross::{
    compile_graph, steady_node_weights, ArtifactCache, CompiledGraph, SimdizeError, SimdizeOptions,
};
use macross_multicore::{plan_placement, CommModel};
use macross_streamir::graph::Graph;
use macross_streamir::shash::{structural_hash, GraphHash};
use macross_vm::{ExecMode, Machine};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// What the cost-model planner would choose for a tenant's graph given
/// the whole worker pool — advisory (a session's slices run one at a
/// time, on one shard each) but recorded per tenant so capacity
/// decisions can read the parallel headroom straight off the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanSummary {
    pub(crate) cores: u64,
    pub(crate) cut_edges: u64,
    pub(crate) fused: u64,
    pub(crate) fissioned: u64,
}

/// Summarize the planner's verdict for a compiled artifact. Uses the
/// default communication model, so the summary is deterministic across
/// machines.
fn plan_summary(art: &CompiledGraph, machine: &Machine, workers: usize) -> PlanSummary {
    let cycles = steady_node_weights(&art.graph, &art.schedule, machine);
    let plan = plan_placement(
        &art.graph,
        &art.schedule,
        &cycles,
        workers.max(1),
        &CommModel::default(),
    );
    PlanSummary {
        cores: plan.cores_used as u64,
        cut_edges: plan.cut_edges as u64,
        fused: plan.fused_groups as u64,
        fissioned: plan.fissioned as u64,
    }
}

/// Everything that selects a distinct compilation output. The machine
/// is keyed by its *full* description, not its name: two `Machine`
/// configs sharing a name but differing in width, features, or costs
/// must never alias to the same artifact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    hash: GraphHash,
    machine: Machine,
    opts: SimdizeOptions,
    mode: ExecMode,
}

/// The compile-once cache: an [`ArtifactCache`] keyed by shape x machine
/// x options x mode, plus the submission counters of the SERVICE report
/// and the planner's verdict per shape.
pub struct CompileCache {
    arts: ArtifactCache<CacheKey>,
    submits: u64,
    /// One entry per shape ever compiled, planned for `workers` cores on
    /// its first compilation. A service fixes its machine, options, mode
    /// and worker count, so the plan is a function of the shape alone;
    /// entries outlive the artifact's eviction.
    plans: HashMap<GraphHash, PlanSummary>,
    workers: usize,
    /// Configuration installs of dynamic sessions, and those that hit.
    installs: u64,
    install_hits: u64,
    /// Every `(shape, valuation)` pair ever installed.
    configs: HashSet<(GraphHash, String)>,
}

impl CompileCache {
    /// An empty cache bounded to `capacity` entries (min 1), planning
    /// each shape for a pool of `workers` cores.
    pub fn new(capacity: usize, workers: usize) -> CompileCache {
        CompileCache {
            arts: ArtifactCache::new(capacity),
            submits: 0,
            plans: HashMap::new(),
            workers,
            installs: 0,
            install_hits: 0,
            configs: HashSet::new(),
        }
    }

    /// Look the graph's shape up; compile (and cache) on a miss. The
    /// returned flag is `true` on a hit.
    ///
    /// # Errors
    /// Propagates SIMDization failures; a failed submission counts
    /// neither as a miss nor as a distinct graph.
    pub fn get_or_compile(
        &mut self,
        graph: &Graph,
        machine: &Machine,
        opts: &SimdizeOptions,
        mode: ExecMode,
    ) -> Result<(Arc<CompiledGraph>, bool), SimdizeError> {
        self.get_or_compile_hashed(structural_hash(graph), graph, machine, opts, mode)
    }

    /// [`CompileCache::get_or_compile`] for a graph whose structural hash
    /// the caller computed — outside the cache lock.
    pub(crate) fn get_or_compile_hashed(
        &mut self,
        hash: GraphHash,
        graph: &Graph,
        machine: &Machine,
        opts: &SimdizeOptions,
        mode: ExecMode,
    ) -> Result<(Arc<CompiledGraph>, bool), SimdizeError> {
        let key = CacheKey {
            hash,
            machine: machine.clone(),
            opts: *opts,
            mode,
        };
        self.submits += 1;
        let (art, hit) = self.arts.get_or_insert_with(key, || {
            compile_graph(graph, machine, opts, mode).map(Arc::new)
        })?;
        if !hit {
            let workers = self.workers;
            self.plans
                .entry(hash)
                .or_insert_with(|| plan_summary(&art, machine, workers));
        }
        Ok((art, hit))
    }

    /// The planner's verdict for a shape this cache compiled — every
    /// artifact it handed out, whose `source_hash` is the key.
    pub(crate) fn plan(&self, hash: &GraphHash) -> PlanSummary {
        self.plans[hash]
    }

    /// Count a configuration install of a `(shape, canonical valuation)`
    /// pair, whose artifact a lookup just returned (`hit`: the lookup
    /// hit). The install hits when it reinstalls a pair whose artifact
    /// was still cached.
    pub(crate) fn count_install(&mut self, config: (GraphHash, String), hit: bool) -> bool {
        self.installs += 1;
        let hit = !self.configs.insert(config) && hit;
        self.install_hits += hit as u64;
        hit
    }

    /// Install counters in the SERVICE-report `scache` shape. A miss
    /// installs a pair first or reinstalls one whose artifact the LRU
    /// bound evicted, so `misses == distinct_valuations + evictions`.
    pub fn install_stats(&self) -> ScheduleCacheStats {
        let misses = self.installs - self.install_hits;
        ScheduleCacheStats {
            capacity: self.arts.capacity() as u64,
            distinct_valuations: self.configs.len() as u64,
            reconfigurations: self.installs,
            hits: self.install_hits,
            misses,
            evictions: misses - self.configs.len() as u64,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.arts.len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.arts.is_empty()
    }

    /// Counters in the SERVICE-report shape. Every miss compiles, so
    /// `compilations == misses`.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            capacity: self.arts.capacity() as u64,
            distinct_graphs: self.plans.len() as u64,
            submits: self.submits,
            compilations: self.arts.misses(),
            hits: self.arts.hits(),
            misses: self.arts.misses(),
            evictions: self.arts.evictions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::ScalarTy;

    fn pipeline(name: &str, mul: i32) -> Graph {
        let mut src = FilterBuilder::new(format!("{name}_src"), 0, 0, 1, ScalarTy::I32);
        src.work(|b| {
            b.push(c(1i32));
        });
        let mut f = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
        f.work(move |b| {
            b.push(pop() * mul);
        });
        StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap()
    }

    #[test]
    fn same_shape_hits_renamed_or_not() {
        let machine = Machine::core_i7();
        let opts = SimdizeOptions::all();
        let mut cache = CompileCache::new(8, 2);
        let (_, hit) = cache
            .get_or_compile(&pipeline("a", 3), &machine, &opts, ExecMode::Bytecode)
            .unwrap();
        assert!(!hit);
        // Alpha-renamed copy of the same shape: structural hash collides.
        let (_, hit) = cache
            .get_or_compile(&pipeline("z", 3), &machine, &opts, ExecMode::Bytecode)
            .unwrap();
        assert!(hit);
        // Different constant in the body: distinct shape, fresh compile.
        let (_, hit) = cache
            .get_or_compile(&pipeline("a", 4), &machine, &opts, ExecMode::Bytecode)
            .unwrap();
        assert!(!hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compilations), (1, 2, 2));
        assert_eq!(s.distinct_graphs, 2);
    }

    #[test]
    fn mode_and_options_partition_the_cache() {
        let machine = Machine::core_i7();
        let mut cache = CompileCache::new(16, 2);
        let g = pipeline("a", 3);
        let all = SimdizeOptions::all();
        let scalar = SimdizeOptions {
            single: false,
            vertical: false,
            horizontal: false,
            ..all
        };
        cache
            .get_or_compile(&g, &machine, &all, ExecMode::Bytecode)
            .unwrap();
        let (_, hit) = cache
            .get_or_compile(&g, &machine, &all, ExecMode::TreeWalk)
            .unwrap();
        assert!(!hit, "engine mode must partition the cache");
        let (_, hit) = cache
            .get_or_compile(&g, &machine, &scalar, ExecMode::Bytecode)
            .unwrap();
        assert!(!hit, "option sets must partition the cache");
        // Every option field keys on its own: flipping any single one
        // away from `all` is a fresh compilation.
        let flips: [fn(&mut SimdizeOptions); 8] = [
            |o| o.single = false,
            |o| o.vertical = false,
            |o| o.horizontal = false,
            |o| o.permute_opt = false,
            |o| o.reorder_opt = false,
            |o| o.profitability = false,
            |o| o.prepass = false,
            |o| o.region = false,
        ];
        for (i, flip) in flips.iter().enumerate() {
            let mut opts = all;
            flip(&mut opts);
            let (_, hit) = cache
                .get_or_compile(&g, &machine, &opts, ExecMode::Bytecode)
                .unwrap();
            assert!(!hit, "option field {i} must partition the cache");
        }
        // One source shape, eleven compilations — legal because the key
        // is (shape, machine, opts, mode), and distinct counts shapes.
        assert_eq!(cache.stats().distinct_graphs, 1);
        assert_eq!(cache.stats().compilations, 11);
    }

    #[test]
    fn machines_sharing_a_name_do_not_alias() {
        let opts = SimdizeOptions::all();
        let mut cache = CompileCache::new(8, 2);
        let g = pipeline("a", 3);
        let narrow = Machine::core_i7();
        // Same name, different vector width: a distinct compilation
        // target that must miss, not inherit the 4-wide artifact.
        let mut wide = Machine::core_i7();
        wide.simd_width = 8;
        assert_eq!(narrow.name, wide.name);
        let (art4, _) = cache
            .get_or_compile(&g, &narrow, &opts, ExecMode::Bytecode)
            .unwrap();
        let (art8, hit) = cache
            .get_or_compile(&g, &wide, &opts, ExecMode::Bytecode)
            .unwrap();
        assert!(!hit, "full machine description must partition the cache");
        assert!(!Arc::ptr_eq(&art4, &art8));
        // A cost-table tweak alone is also a distinct target.
        let mut pricier = Machine::core_i7();
        pricier.cost.permute = 9;
        let (_, hit) = cache
            .get_or_compile(&g, &pricier, &opts, ExecMode::Bytecode)
            .unwrap();
        assert!(!hit, "cost tables must partition the cache");
        assert_eq!(cache.stats().compilations, 3);
    }

    #[test]
    fn lru_bound_evicts_and_recompiles() {
        let machine = Machine::core_i7();
        let opts = SimdizeOptions::all();
        let mut cache = CompileCache::new(2, 2);
        let (g1, g2, g3) = (pipeline("a", 1), pipeline("a", 2), pipeline("a", 3));
        cache
            .get_or_compile(&g1, &machine, &opts, ExecMode::Bytecode)
            .unwrap();
        cache
            .get_or_compile(&g2, &machine, &opts, ExecMode::Bytecode)
            .unwrap();
        // Touch g1 so g2 is the LRU victim when g3 arrives.
        cache
            .get_or_compile(&g1, &machine, &opts, ExecMode::Bytecode)
            .unwrap();
        cache
            .get_or_compile(&g3, &machine, &opts, ExecMode::Bytecode)
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit) = cache
            .get_or_compile(&g2, &machine, &opts, ExecMode::Bytecode)
            .unwrap();
        assert!(!hit, "evicted entry recompiles");
        let s = cache.stats();
        assert_eq!(s.compilations, 4);
        assert_eq!(s.distinct_graphs, 3);
    }

    /// Configuration installs count per `(shape, valuation)`: a repeat
    /// hits, and one whose artifact the LRU bound evicted misses again
    /// and counts as an eviction.
    #[test]
    fn installs_hit_on_repeat_and_miss_after_eviction() {
        let machine = Machine::core_i7();
        let opts = SimdizeOptions::all();
        let mut cache = CompileCache::new(1, 2);
        let mut install = |mul: i32| {
            let g = pipeline("a", mul);
            let (art, hit) = cache
                .get_or_compile(&g, &machine, &opts, ExecMode::Bytecode)
                .unwrap();
            cache.count_install((art.source_hash, format!("mul={mul}")), hit)
        };
        assert!(!install(2));
        assert!(install(2), "a repeat valuation hits");
        assert!(!install(3), "a new valuation misses (and evicts mul=2)");
        assert!(!install(2), "an evicted configuration misses again");
        let s = cache.install_stats();
        assert_eq!((s.reconfigurations, s.hits, s.misses), (4, 1, 3));
        assert_eq!((s.distinct_valuations, s.evictions), (2, 1));
        assert_eq!(cache.stats().compilations, 3);
    }

    /// The plan recorded on a shape's miss is the one planning the
    /// artifact afresh gives, on the miss and on every later hit — for
    /// each program of the suite.
    #[test]
    fn cached_plan_matches_a_fresh_one_on_every_suite_shape() {
        let machine = Machine::core_i7();
        let opts = SimdizeOptions::all();
        let workers = 2;
        let mut cache = CompileCache::new(32, workers);
        for b in macross_benchsuite::all() {
            for want_hit in [false, true] {
                let (art, hit) = cache
                    .get_or_compile(&(b.build)(), &machine, &opts, ExecMode::Bytecode)
                    .unwrap();
                assert_eq!(hit, want_hit, "{}", b.name);
                let fresh = plan_summary(&art, &machine, workers);
                assert_eq!(cache.plan(&art.source_hash), fresh, "{}", b.name);
            }
        }
        assert_eq!(cache.stats().distinct_graphs, 16);
    }
}
