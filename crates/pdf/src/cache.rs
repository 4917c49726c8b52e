//! The per-configuration schedule cache: one compiled configuration per
//! `(shape, valuation, machine, options, mode)`, so a dynamic session
//! revisiting a parameter valuation never re-solves the balance
//! equations or re-runs SIMDization.
//!
//! The cache is compile-agnostic: a lookup takes the *instantiated*
//! graph plus a compile callback to run on a miss. Standalone users pass
//! a plain [`macross::compile_graph`] wrapper; the service passes its
//! compile-once `CompileCache`, layering the two so a schedule-cache
//! miss can still be a compile-cache hit (two templates instantiating
//! structurally identical graphs share one artifact).

use macross::{ArtifactCache, CompiledGraph, SimdizeError, SimdizeOptions};
use macross_streamir::graph::Graph;
use macross_streamir::shash::{structural_hash, GraphHash};
use macross_streamir::Valuation;
use macross_telemetry::service::ScheduleCacheStats;
use macross_vm::{ExecMode, Machine};
use std::collections::HashSet;
use std::sync::Arc;

/// Everything that selects a distinct installed configuration. The
/// structural hash covers the instantiated graph (so two valuations
/// mapping to the same shape still key separately through `canon`, and
/// two templates mapping different shapes to the same valuation string
/// still key separately through `hash`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ScheduleKey {
    hash: GraphHash,
    canon: String,
    machine: Machine,
    opts: SimdizeOptions,
    mode: ExecMode,
}

/// An [`ArtifactCache`] of compiled configurations keyed by shape x
/// valuation x machine x options x mode, with reconfiguration counters in
/// the SERVICE-report shape.
pub struct ScheduleCache {
    arts: ArtifactCache<ScheduleKey>,
    distinct: HashSet<(GraphHash, String)>,
}

impl ScheduleCache {
    /// An empty cache bounded to `capacity` configurations (min 1).
    pub fn new(capacity: usize) -> ScheduleCache {
        ScheduleCache {
            arts: ArtifactCache::new(capacity),
            distinct: HashSet::new(),
        }
    }

    /// Look up the configuration for `(graph, valuation, machine, opts,
    /// mode)`; run `compile` and cache its artifact on a miss. Every call
    /// counts as one reconfiguration (a configuration install at a
    /// parameter boundary). The returned flag is `true` on a hit.
    ///
    /// # Errors
    /// Propagates the compile callback's failure; a failed install counts
    /// neither as a miss nor as a distinct valuation.
    pub fn get_or_compile<F>(
        &mut self,
        graph: &Graph,
        valuation: &Valuation,
        machine: &Machine,
        opts: &SimdizeOptions,
        mode: ExecMode,
        compile: F,
    ) -> Result<(Arc<CompiledGraph>, bool), SimdizeError>
    where
        F: FnOnce(&Graph) -> Result<Arc<CompiledGraph>, SimdizeError>,
    {
        let key = ScheduleKey {
            hash: structural_hash(graph),
            canon: valuation.canon(),
            machine: machine.clone(),
            opts: *opts,
            mode,
        };
        let valuation_id = (key.hash, key.canon.clone());
        let (art, hit) = self.arts.get_or_insert_with(key, || compile(graph))?;
        if !hit {
            self.distinct.insert(valuation_id);
        }
        Ok((art, hit))
    }

    /// Live configurations.
    pub fn len(&self) -> usize {
        self.arts.len()
    }

    /// True when nothing has been installed yet.
    pub fn is_empty(&self) -> bool {
        self.arts.is_empty()
    }

    /// Counters in the SERVICE-report shape. Invariants the report
    /// validator enforces: `hits + misses == reconfigurations` (every
    /// successful lookup is one reconfiguration), and with zero evictions
    /// `misses == distinct_valuations` (each distinct valuation compiled
    /// exactly once, however often it was revisited).
    pub fn stats(&self) -> ScheduleCacheStats {
        ScheduleCacheStats {
            capacity: self.arts.capacity() as u64,
            distinct_valuations: self.distinct.len() as u64,
            reconfigurations: self.arts.hits() + self.arts.misses(),
            hits: self.arts.hits(),
            misses: self.arts.misses(),
            evictions: self.arts.evictions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross::compile_graph;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::ScalarTy;

    fn pipeline(mul: i32) -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        src.work(|b| {
            b.push(c(1i32));
        });
        let mut f = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
        f.work(move |b| {
            b.push(pop() * mul);
        });
        StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap()
    }

    fn compile(g: &Graph) -> Result<Arc<CompiledGraph>, SimdizeError> {
        compile_graph(
            g,
            &Machine::core_i7(),
            &SimdizeOptions::all(),
            ExecMode::Bytecode,
        )
        .map(Arc::new)
    }

    #[test]
    fn repeat_valuations_hit_and_count_reconfigurations() {
        let machine = Machine::core_i7();
        let opts = SimdizeOptions::all();
        let mut cache = ScheduleCache::new(8);
        let (g2, g3) = (pipeline(2), pipeline(3));
        let (v2, v3) = (Valuation::of("mul", 2), Valuation::of("mul", 3));
        let mut compiles = 0;
        for (g, v) in [(&g2, &v2), (&g3, &v3), (&g2, &v2), (&g3, &v3), (&g2, &v2)] {
            cache
                .get_or_compile(g, v, &machine, &opts, ExecMode::Bytecode, |g| {
                    compiles += 1;
                    compile(g)
                })
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(compiles, 2, "repeat valuations must not recompile");
        assert_eq!((s.hits, s.misses), (3, 2));
        assert_eq!(s.reconfigurations, 5);
        assert_eq!(s.distinct_valuations, 2);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn same_valuation_string_different_shape_does_not_alias() {
        let machine = Machine::core_i7();
        let opts = SimdizeOptions::all();
        let mut cache = ScheduleCache::new(8);
        let v = Valuation::of("k", 1);
        cache
            .get_or_compile(
                &pipeline(2),
                &v,
                &machine,
                &opts,
                ExecMode::Bytecode,
                compile,
            )
            .unwrap();
        let (_, hit) = cache
            .get_or_compile(
                &pipeline(3),
                &v,
                &machine,
                &opts,
                ExecMode::Bytecode,
                compile,
            )
            .unwrap();
        assert!(!hit, "distinct shapes must partition the cache");
        assert_eq!(cache.stats().distinct_valuations, 2);
    }

    #[test]
    fn lru_bound_evicts_and_reinstalls() {
        let machine = Machine::core_i7();
        let opts = SimdizeOptions::all();
        let mut cache = ScheduleCache::new(1);
        let (g2, g3) = (pipeline(2), pipeline(3));
        let (v2, v3) = (Valuation::of("mul", 2), Valuation::of("mul", 3));
        cache
            .get_or_compile(&g2, &v2, &machine, &opts, ExecMode::Bytecode, compile)
            .unwrap();
        cache
            .get_or_compile(&g3, &v3, &machine, &opts, ExecMode::Bytecode, compile)
            .unwrap();
        let (_, hit) = cache
            .get_or_compile(&g2, &v2, &machine, &opts, ExecMode::Bytecode, compile)
            .unwrap();
        assert!(!hit, "evicted configuration reinstalls");
        let s = cache.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.misses, 3);
        assert_eq!(s.distinct_valuations, 2);
    }
}
