//! Reusable compiled artifacts: the unit the service layer caches.
//!
//! [`compile_graph`] runs everything expensive about admitting a stream
//! program exactly once — the Algorithm-1 SIMDization driver, the
//! Equation-1 schedule adjustment, the firing compiler, and the static
//! cost model — and packages the results
//! behind `Arc`s so any number of concurrent sessions of the same graph
//! shape execute from one compilation. This is what separates *compile*
//! from *run*: the `run_scheduled` / `run_threaded_placed` entry points
//! compile implicitly per call, which is correct for a bench harness and
//! wasteful for a server. [`ArtifactCache`] is the bounded LRU the
//! service's one compile-once cache keeps its artifacts in — static
//! graphs and dynamic-rate configurations alike.

use crate::driver::{macro_simdize, modelled_steady_cost, SimdizeOptions, SimdizeReport};
use crate::error::SimdizeError;
use macross_sdf::Schedule;
use macross_streamir::graph::Graph;
use macross_streamir::shash::{structural_hash, GraphHash};
use macross_vm::{CompiledPrograms, ExecMode, Machine};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Everything compiled once per unique graph shape, shareable across
/// sessions. Cloning clones `Arc`s and the (small) report, never the
/// graph, schedule or bytecode.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    /// Structural fingerprint of the *source* (pre-SIMDization) graph —
    /// the cache key it was compiled under.
    pub source_hash: GraphHash,
    /// What the SIMDization driver did.
    pub report: SimdizeReport,
    /// The SIMDized graph.
    pub graph: Arc<Graph>,
    /// Its Equation-1-adjusted steady schedule (do not recompute).
    pub schedule: Arc<Schedule>,
    /// Per-filter compiled bytecode.
    pub programs: CompiledPrograms,
    /// Engine mode the programs were compiled for.
    pub mode: ExecMode,
    /// Modelled cycles per steady iteration
    /// ([`crate::driver::modelled_steady_cost`]) — the weight session
    /// sharding balances across the worker pool.
    pub steady_cost: u64,
}

/// SIMDize and compile `graph` into a shareable artifact.
///
/// # Errors
/// Fails if the SIMDization driver rejects the graph.
pub fn compile_graph(
    graph: &Graph,
    machine: &Machine,
    opts: &SimdizeOptions,
    mode: ExecMode,
) -> Result<CompiledGraph, SimdizeError> {
    let source_hash = structural_hash(graph);
    let simd = macro_simdize(graph, machine, opts)?;
    let steady_cost = modelled_steady_cost(&simd, machine);
    let programs = CompiledPrograms::compile(&simd.graph, machine, mode);
    Ok(CompiledGraph {
        source_hash,
        report: simd.report,
        graph: Arc::new(simd.graph),
        schedule: Arc::new(simd.schedule),
        programs,
        mode,
        steady_cost,
    })
}

/// A bounded LRU of compiled artifacts with hit/miss/eviction counters.
///
/// The key type says what selects a distinct compilation for the caller;
/// it must hold everything that changes the output — the machine by its
/// full description, [`SimdizeOptions`] and [`ExecMode`] by value — so
/// two option sets can never alias to one artifact. Entries are `Arc`s:
/// eviction never invalidates a running session, it only forces the next
/// equivalent lookup to recompile.
pub struct ArtifactCache<K> {
    capacity: usize,
    map: HashMap<K, (Arc<CompiledGraph>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone> ArtifactCache<K> {
    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> ArtifactCache<K> {
        ArtifactCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look `key` up; on a miss run `compile`, cache its artifact and
    /// evict the least recently used entry if the bound is exceeded. The
    /// returned flag is `true` on a hit.
    ///
    /// # Errors
    /// Propagates `compile`'s failure, which counts as neither a hit nor
    /// a miss and caches nothing.
    pub fn get_or_insert_with<E>(
        &mut self,
        key: K,
        compile: impl FnOnce() -> Result<Arc<CompiledGraph>, E>,
    ) -> Result<(Arc<CompiledGraph>, bool), E> {
        self.tick += 1;
        if let Some((art, last_used)) = self.map.get_mut(&key) {
            *last_used = self.tick;
            self.hits += 1;
            return Ok((art.clone(), true));
        }
        let art = compile()?;
        self.misses += 1;
        if self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (art.clone(), self.tick));
        Ok((art, false))
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that compiled.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped to hold the bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};
    use macross_vm::{run_scheduled_mode, Executor};

    fn pipeline() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        let mut f = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
        f.work(|b| {
            b.push(pop() * 3i32 + 7i32);
        });
        StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap()
    }

    #[test]
    fn artifact_run_matches_cold_run() {
        let g = pipeline();
        let machine = Machine::core_i7();
        let art = compile_graph(&g, &machine, &SimdizeOptions::all(), ExecMode::default()).unwrap();
        let cold = run_scheduled_mode(&art.graph, &art.schedule, &machine, 5, art.mode).unwrap();
        // Two independent executors from the same shared programs.
        for _ in 0..2 {
            let mut ex =
                Executor::with_programs(&art.graph, &art.schedule, &machine, &art.programs);
            ex.run(5).unwrap();
            assert_eq!(ex.output_flat(), cold.output);
        }
        assert!(art.steady_cost > 0);
        assert_eq!(art.source_hash, structural_hash(&g));
    }
}
