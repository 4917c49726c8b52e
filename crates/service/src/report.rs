//! What a service reports about itself: the live [`ServiceSnapshot`]
//! ([`crate::StreamService::snapshot`]) and the shutdown
//! [`ServiceReport`], which is the last snapshot plus a header and one
//! [`TenantRow`] per session. The report renders as the stable
//! `SERVICE_<name>.json` document, schema `macross-service-v2`:
//!
//! ```json
//! {
//!   "schema": "macross-service-v2",
//!   "name": "soak_bytecode",           // -> SERVICE_soak_bytecode.json
//!   "machine": "core_i7_sse4",
//!   "exec_mode": "bytecode",
//!   "created_unix_ms": 1754000000000,
//!   "workers": 4,                      // shard threads in the pool
//!   "session_cap": 64,                 // admission cap
//!   "cache": {
//!     "capacity": 32,                  // LRU bound (entries)
//!     "distinct_graphs": 14,           // structural hashes ever seen
//!     "submits": 64,                   // lookups offered to the cache
//!     "compilations": 14,              // driver+firing-compiler runs
//!     "hits": 50,
//!     "misses": 14,
//!     "evictions": 0,
//!     "hit_rate": 0.781                // hits / (hits + misses)
//!   },
//!   "scache": {
//!     "capacity": 32,                  // LRU bound (configurations)
//!     "distinct_valuations": 5,        // (shape, valuation) pairs seen
//!     "reconfigurations": 18,          // configuration installs
//!     "hits": 13,
//!     "misses": 5,
//!     "evictions": 0
//!   },
//!   "admission": {
//!     "submitted": 72,
//!     "admitted": 64,
//!     "rejected_sessions": 8,          // Overloaded at submit
//!     "rejected_feeds": 3,             // Overloaded at feed
//!     "backpressure_stalls": 5,        // slices deferred on full buffers
//!     "drained_on_shutdown": 10,       // sessions finished by shutdown
//!     "steals": 7                      // sessions an idle shard re-homed
//!   },
//!   "tenants_dropped": 0,              // closed rows a resident server dropped
//!   "tenants": [
//!     {
//!       "session": 0,
//!       "benchmark": "FMRadio",
//!       "shard": 1,
//!       "graph_hash": "0123456789abcdef0123456789abcdef",
//!       "cache_hit": true,
//!       "state": "closed",             // active|draining|faulted|closed
//!       "iters_requested": 8,
//!       "iters_done": 8,
//!       "firings": 1234,
//!       "outputs": 512,                // sink values delivered
//!       "stalls": 0,                   // backpressure deferrals
//!       "faults": 0,                   // failures recorded
//!       "placement_cores": 2,          // cores the planner chose
//!       "placement_cut_edges": 1,      // edges crossing a core boundary
//!       "placement_fused": 3,          // multi-stage fused groups
//!       "placement_fissioned": 0       // fission replicas (0 = none)
//!     }
//!   ]
//! }
//! ```
//!
//! The types carry the document's shape: counts are `u64`, a tenant's
//! state is a [`TenantState`], its hash a [`GraphHash`] (32 hex digits),
//! and `hit_rate` is rendered from `hits` and `misses`. What the types
//! cannot say, [`ServiceReport::violations`] checks: the admission and
//! row arithmetic, and the compile-once invariants — `hits + misses ==
//! submits`, `misses == compilations`, `compilations >= distinct_graphs`,
//! and with nothing evicted `compilations == distinct_graphs` (each
//! unique shape compiled exactly once, however many sessions ran it);
//! the schedule cache's analogues over `reconfigurations`, `misses` and
//! `distinct_valuations` (each parameter valuation compiled once,
//! however often sessions revisited it).

use crate::tenant::TenantState;
use macross_streamir::shash::GraphHash;
use macross_telemetry::json::Json;
use std::io;
use std::path::{Path, PathBuf};

/// The schema identifier carried in the `schema` field.
pub const SERVICE_SCHEMA: &str = "macross-service-v2";

/// Compile-once cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// LRU bound, in entries.
    pub capacity: u64,
    /// Distinct structural hashes ever requested.
    pub distinct_graphs: u64,
    /// Lookups offered to the cache (`hits + misses`).
    pub submits: u64,
    /// Times the SIMDization driver + firing compiler actually ran.
    pub compilations: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-configuration schedule-cache statistics (the dynamic-rate layer's
/// installs; all zeros when no parameterized session ever ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleCacheStats {
    /// LRU bound, in configurations.
    pub capacity: u64,
    /// Distinct `(shape, valuation)` pairs ever installed.
    pub distinct_valuations: u64,
    /// Configuration installs (initial admissions plus swaps).
    pub reconfigurations: u64,
    /// Installs served from the cache.
    pub hits: u64,
    /// Installs that had to compile.
    pub misses: u64,
    /// Configurations displaced by the LRU bound.
    pub evictions: u64,
}

/// Admission-control counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Sessions offered via `submit`.
    pub submitted: u64,
    /// Sessions admitted (submitted - rejected_sessions).
    pub admitted: u64,
    /// Submissions rejected with `Overloaded`.
    pub rejected_sessions: u64,
    /// Feed calls rejected with `Overloaded` (input queue full).
    pub rejected_feeds: u64,
    /// Work slices deferred because a tenant's output buffer was full.
    pub backpressure_stalls: u64,
    /// Admitted sessions whose remaining work the shutdown drain ran.
    pub drained_on_shutdown: u64,
    /// Queued sessions a shard with an empty queue took from another
    /// shard's queue, re-homing them.
    pub steals: u64,
}

/// A point-in-time view of a running service
/// ([`crate::StreamService::snapshot`]): what admission and the artifact
/// cache have counted so far and where the live sessions stand. It
/// copies counters the service keeps anyway.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Admission counters so far: submissions, rejections, backpressure
    /// stalls, steals.
    pub admission: AdmissionStats,
    /// Artifact cache counters so far.
    pub cache: CacheStats,
    /// Configuration-install counters so far (dynamic-rate sessions).
    pub scache: ScheduleCacheStats,
    /// Sessions queued on each shard, by shard index.
    pub queue_depths: Vec<usize>,
    /// Live sessions parked on backpressure until their client polls.
    pub deferred: usize,
    /// Live sessions a fault quarantined.
    pub quarantined: usize,
    /// Rows of closed sessions kept for the shutdown report, at most
    /// [`crate::server::RETIRED_ROWS`].
    pub retired_rows: usize,
    /// Closed sessions whose rows were dropped beyond that bound.
    pub retired_dropped: u64,
}

/// One tenant's row.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// Session id.
    pub session: u64,
    /// What graph the tenant ran (benchmark or caller-supplied tag).
    pub benchmark: String,
    /// Home shard at report time: the one admission placed the session
    /// on, or the last shard that stole it.
    pub shard: u64,
    /// Structural hash of the submitted graph.
    pub graph_hash: GraphHash,
    /// Whether admission hit the compile-once cache.
    pub cache_hit: bool,
    /// Lifecycle state at report time.
    pub state: TenantState,
    /// Steady iterations requested via `feed`.
    pub iters_requested: u64,
    /// Steady iterations completed.
    pub iters_done: u64,
    /// Clean firings executed.
    pub firings: u64,
    /// Sink values delivered.
    pub outputs: u64,
    /// Backpressure deferrals of this tenant's slices.
    pub stalls: u64,
    /// Stage failures recorded (0 or small; >0 implies `faulted`).
    pub faults: u64,
    /// Cores the cost-model planner chose for this graph (1 = collapsed
    /// to sequential).
    pub placement_cores: u64,
    /// Edges that cross a core boundary under the chosen placement.
    pub placement_cut_edges: u64,
    /// Fused groups — clusters holding two or more stages on one core.
    pub placement_fused: u64,
    /// Replica count of the fissioned stage (0 when no stage is split).
    pub placement_fissioned: u64,
}

/// The shutdown report ([`crate::StreamService::shutdown`]), written as
/// `SERVICE_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Report name; determines the file name.
    pub name: String,
    /// Machine description sessions ran against.
    pub machine: String,
    /// Work-function engine (`"bytecode"` / `"treewalk"`).
    pub exec_mode: String,
    /// Wall-clock creation time (Unix milliseconds).
    pub created_unix_ms: u64,
    /// Shard threads in the worker pool.
    pub workers: u64,
    /// Concurrent-session admission cap.
    pub session_cap: u64,
    /// The service's snapshot after the shutdown drain; its
    /// `retired_dropped` is the document's `tenants_dropped`.
    pub last: ServiceSnapshot,
    /// One row per session admitted, except the oldest closed ones a
    /// resident server dropped to bound its memory.
    pub tenants: Vec<TenantRow>,
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

impl ServiceReport {
    /// The canonical file name: `SERVICE_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("SERVICE_{}.json", self.name)
    }

    /// Every invariant of the counters the types do not enforce, one
    /// message per broken rule; empty for a consistent report.
    pub fn violations(&self) -> Vec<String> {
        let (a, c, s) = (&self.last.admission, &self.last.cache, &self.last.scache);
        let (rows, dropped) = (self.tenants.len() as u64, self.last.retired_dropped);
        let rules = [
            (
                a.admitted + a.rejected_sessions == a.submitted,
                format!(
                    "admission: admitted {} + rejected_sessions {} != submitted {}",
                    a.admitted, a.rejected_sessions, a.submitted
                ),
            ),
            (
                rows + dropped == a.admitted,
                format!(
                    "tenants: {rows} rows + {dropped} dropped != admitted {}",
                    a.admitted
                ),
            ),
            (
                c.hits + c.misses == c.submits,
                format!(
                    "cache: hits {} + misses {} != submits {}",
                    c.hits, c.misses, c.submits
                ),
            ),
            (
                c.misses == c.compilations,
                format!(
                    "cache: misses {} != compilations {}",
                    c.misses, c.compilations
                ),
            ),
            (
                c.compilations >= c.distinct_graphs,
                format!(
                    "cache: compilations {} < distinct_graphs {}",
                    c.compilations, c.distinct_graphs
                ),
            ),
            (
                c.evictions > 0 || c.compilations == c.distinct_graphs,
                format!(
                    "cache: with zero evictions each unique graph must compile exactly once \
                     (compilations {}, distinct_graphs {})",
                    c.compilations, c.distinct_graphs
                ),
            ),
            (
                s.hits + s.misses == s.reconfigurations,
                format!(
                    "scache: hits {} + misses {} != reconfigurations {}",
                    s.hits, s.misses, s.reconfigurations
                ),
            ),
            (
                s.misses >= s.distinct_valuations,
                format!(
                    "scache: misses {} < distinct_valuations {}",
                    s.misses, s.distinct_valuations
                ),
            ),
            (
                s.evictions > 0 || s.misses == s.distinct_valuations,
                format!(
                    "scache: with zero evictions each distinct valuation must compile exactly \
                     once (misses {}, distinct_valuations {})",
                    s.misses, s.distinct_valuations
                ),
            ),
            (self.workers >= 1, "workers must be >= 1".to_string()),
            (!self.name.is_empty(), "name must be non-empty".to_string()),
            (
                !self.exec_mode.is_empty(),
                "exec_mode must be non-empty".to_string(),
            ),
        ];
        let row_rules = self.tenants.iter().flat_map(|t| {
            [
                (!t.benchmark.is_empty(), "benchmark must be non-empty"),
                (t.placement_cores >= 1, "placement_cores must be >= 1"),
            ]
            .map(|(ok, rule)| (ok, format!("tenant {}: {rule}", t.session)))
        });
        rules
            .into_iter()
            .chain(row_rules)
            .filter_map(|(ok, rule)| (!ok).then_some(rule))
            .collect()
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        let (a, c, s) = (&self.last.admission, &self.last.cache, &self.last.scache);
        let tenants = self.tenants.iter().map(|t| {
            Json::obj([
                ("session", num(t.session)),
                ("benchmark", Json::Str(t.benchmark.clone())),
                ("shard", num(t.shard)),
                ("graph_hash", Json::Str(t.graph_hash.to_hex())),
                ("cache_hit", Json::Bool(t.cache_hit)),
                ("state", Json::Str(t.state.label().into())),
                ("iters_requested", num(t.iters_requested)),
                ("iters_done", num(t.iters_done)),
                ("firings", num(t.firings)),
                ("outputs", num(t.outputs)),
                ("stalls", num(t.stalls)),
                ("faults", num(t.faults)),
                ("placement_cores", num(t.placement_cores)),
                ("placement_cut_edges", num(t.placement_cut_edges)),
                ("placement_fused", num(t.placement_fused)),
                ("placement_fissioned", num(t.placement_fissioned)),
            ])
        });
        Json::obj([
            ("schema", Json::Str(SERVICE_SCHEMA.into())),
            ("name", Json::Str(self.name.clone())),
            ("machine", Json::Str(self.machine.clone())),
            ("exec_mode", Json::Str(self.exec_mode.clone())),
            ("created_unix_ms", num(self.created_unix_ms)),
            ("workers", num(self.workers)),
            ("session_cap", num(self.session_cap)),
            (
                "cache",
                Json::obj([
                    ("capacity", num(c.capacity)),
                    ("distinct_graphs", num(c.distinct_graphs)),
                    ("submits", num(c.submits)),
                    ("compilations", num(c.compilations)),
                    ("hits", num(c.hits)),
                    ("misses", num(c.misses)),
                    ("evictions", num(c.evictions)),
                    ("hit_rate", Json::Num(c.hit_rate())),
                ]),
            ),
            (
                "scache",
                Json::obj([
                    ("capacity", num(s.capacity)),
                    ("distinct_valuations", num(s.distinct_valuations)),
                    ("reconfigurations", num(s.reconfigurations)),
                    ("hits", num(s.hits)),
                    ("misses", num(s.misses)),
                    ("evictions", num(s.evictions)),
                ]),
            ),
            (
                "admission",
                Json::obj([
                    ("submitted", num(a.submitted)),
                    ("admitted", num(a.admitted)),
                    ("rejected_sessions", num(a.rejected_sessions)),
                    ("rejected_feeds", num(a.rejected_feeds)),
                    ("backpressure_stalls", num(a.backpressure_stalls)),
                    ("drained_on_shutdown", num(a.drained_on_shutdown)),
                    ("steals", num(a.steals)),
                ]),
            ),
            ("tenants_dropped", num(self.last.retired_dropped)),
            ("tenants", Json::Arr(tenants.collect())),
        ])
    }

    /// Pretty-printed JSON document.
    pub fn json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Write `SERVICE_<name>.json` into `dir` (created if missing) and
    /// return the path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.json_string())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_telemetry::json;

    /// A report whose counters satisfy every rule, with two tenants.
    fn sample() -> ServiceReport {
        let closed = TenantRow {
            session: 0,
            benchmark: "FMRadio".into(),
            shard: 1,
            graph_hash: GraphHash(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef),
            cache_hit: true,
            state: TenantState::Closed,
            iters_requested: 8,
            iters_done: 8,
            firings: 100,
            outputs: 64,
            stalls: 0,
            faults: 0,
            placement_cores: 2,
            placement_cut_edges: 1,
            placement_fused: 3,
            placement_fissioned: 0,
        };
        ServiceReport {
            name: "soak_bytecode".into(),
            machine: "core_i7_sse4".into(),
            exec_mode: "bytecode".into(),
            created_unix_ms: 1_754_000_000_000,
            workers: 4,
            session_cap: 64,
            last: ServiceSnapshot {
                admission: AdmissionStats {
                    submitted: 10,
                    admitted: 8,
                    rejected_sessions: 2,
                    rejected_feeds: 1,
                    backpressure_stalls: 0,
                    drained_on_shutdown: 4,
                    steals: 3,
                },
                cache: CacheStats {
                    capacity: 32,
                    distinct_graphs: 3,
                    submits: 8,
                    compilations: 3,
                    hits: 5,
                    misses: 3,
                    evictions: 0,
                },
                scache: ScheduleCacheStats {
                    capacity: 32,
                    distinct_valuations: 2,
                    reconfigurations: 6,
                    hits: 4,
                    misses: 2,
                    evictions: 0,
                },
                retired_dropped: 6,
                ..ServiceSnapshot::default()
            },
            tenants: vec![
                closed,
                TenantRow {
                    session: 7,
                    benchmark: "DCT".into(),
                    shard: 0,
                    graph_hash: GraphHash(0xabc),
                    cache_hit: false,
                    state: TenantState::Faulted,
                    iters_requested: 16,
                    iters_done: 3,
                    firings: 42,
                    outputs: 12,
                    stalls: 5,
                    faults: 1,
                    placement_cores: 1,
                    placement_cut_edges: 0,
                    placement_fused: 0,
                    placement_fissioned: 4,
                },
            ],
        }
    }

    /// Whether some violation of `r` contains `needle`.
    fn flags(r: &ServiceReport, needle: &str) -> bool {
        r.violations().iter().any(|v| v.contains(needle))
    }

    #[test]
    fn emitted_report_validates() {
        assert_eq!(sample().violations(), Vec::<String>::new());
    }

    /// The rendering is pinned key for key: the sample's text is the
    /// `macross-service-v2` document the format has always produced for
    /// these counters, `hit_rate` derived from `hits` and `misses`, hashes
    /// as 32 hex digits and states as their labels.
    #[test]
    fn rendering_is_pinned() {
        assert_eq!(sample().json_string(), PINNED);
    }

    const PINNED: &str = r#"{
  "schema": "macross-service-v2",
  "name": "soak_bytecode",
  "machine": "core_i7_sse4",
  "exec_mode": "bytecode",
  "created_unix_ms": 1754000000000,
  "workers": 4,
  "session_cap": 64,
  "cache": {
    "capacity": 32,
    "distinct_graphs": 3,
    "submits": 8,
    "compilations": 3,
    "hits": 5,
    "misses": 3,
    "evictions": 0,
    "hit_rate": 0.625
  },
  "scache": {
    "capacity": 32,
    "distinct_valuations": 2,
    "reconfigurations": 6,
    "hits": 4,
    "misses": 2,
    "evictions": 0
  },
  "admission": {
    "submitted": 10,
    "admitted": 8,
    "rejected_sessions": 2,
    "rejected_feeds": 1,
    "backpressure_stalls": 0,
    "drained_on_shutdown": 4,
    "steals": 3
  },
  "tenants_dropped": 6,
  "tenants": [
    {
      "session": 0,
      "benchmark": "FMRadio",
      "shard": 1,
      "graph_hash": "0123456789abcdef0123456789abcdef",
      "cache_hit": true,
      "state": "closed",
      "iters_requested": 8,
      "iters_done": 8,
      "firings": 100,
      "outputs": 64,
      "stalls": 0,
      "faults": 0,
      "placement_cores": 2,
      "placement_cut_edges": 1,
      "placement_fused": 3,
      "placement_fissioned": 0
    },
    {
      "session": 7,
      "benchmark": "DCT",
      "shard": 0,
      "graph_hash": "00000000000000000000000000000abc",
      "cache_hit": false,
      "state": "faulted",
      "iters_requested": 16,
      "iters_done": 3,
      "firings": 42,
      "outputs": 12,
      "stalls": 5,
      "faults": 1,
      "placement_cores": 1,
      "placement_cut_edges": 0,
      "placement_fused": 0,
      "placement_fissioned": 4
    }
  ]
}
"#;

    #[test]
    fn rendering_round_trips_through_the_parser() {
        let r = sample();
        let doc = json::parse(&r.json_string()).unwrap();
        assert_eq!(doc, r.to_json());
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SERVICE_SCHEMA)
        );
        let hit_rate = doc.get("cache").and_then(|c| c.get("hit_rate"));
        assert_eq!(
            hit_rate.and_then(Json::as_num),
            Some(r.last.cache.hit_rate())
        );
    }

    #[test]
    fn file_name_is_canonical() {
        assert_eq!(sample().file_name(), "SERVICE_soak_bytecode.json");
    }

    #[test]
    fn compile_once_invariant_is_enforced() {
        // 5 compilations for 3 distinct graphs with zero evictions: the
        // compile-once guarantee is broken and the report says so.
        let mut r = sample();
        r.last.cache.compilations = 5;
        r.last.cache.misses = 5;
        r.last.cache.submits = 10;
        assert!(flags(&r, "exactly once"), "{:?}", r.violations());
        // With evictions, recompiles are legitimate.
        r.last.cache.evictions = 2;
        assert!(r.violations().is_empty(), "{:?}", r.violations());
        // But never fewer compilations than distinct graphs.
        r.last.cache.compilations = 2;
        r.last.cache.misses = 2;
        r.last.cache.submits = 7;
        assert!(flags(&r, "< distinct_graphs"));
        // And every miss is a compilation, every lookup a hit or a miss.
        let mut r = sample();
        r.last.cache.compilations = 4;
        assert!(flags(&r, "!= compilations"));
        r.last.cache.submits = 9;
        assert!(flags(&r, "!= submits"));
    }

    #[test]
    fn schedule_cache_invariants_are_enforced() {
        // hits + misses must equal reconfigurations.
        let mut r = sample();
        r.last.scache.hits = 5; // 5 + 2 != 6
        assert!(flags(&r, "!= reconfigurations"));
        // A repeat valuation that recompiled without eviction breaks the
        // dynamic compile-once guarantee.
        let mut r = sample();
        r.last.scache.misses = 4;
        r.last.scache.hits = 2;
        assert!(flags(&r, "exactly once"), "{:?}", r.violations());
        // With evictions, reinstalls are legitimate.
        r.last.scache.evictions = 1;
        assert!(r.violations().is_empty(), "{:?}", r.violations());
        // But never fewer misses than distinct valuations.
        r.last.scache.misses = 1;
        r.last.scache.hits = 5;
        assert!(flags(&r, "< distinct_valuations"));
    }

    #[test]
    fn every_admitted_session_has_a_row_or_is_counted_dropped() {
        let mut r = sample();
        r.last.retired_dropped = 5; // 2 rows + 5 != 8 admitted
        assert!(flags(&r, "tenants:"));
        r.tenants.push(r.tenants[0].clone());
        assert!(r.violations().is_empty(), "{:?}", r.violations());
    }

    #[test]
    fn admission_arithmetic_is_enforced() {
        let mut r = sample();
        r.last.admission.admitted = 9; // 9 + 2 != 10
        assert!(flags(&r, "admission:"));
    }

    /// The header and row rules: a worker, a name, an engine, and per
    /// tenant a benchmark tag and at least one planned core.
    #[test]
    fn header_and_row_rules_are_enforced() {
        type Break = fn(&mut ServiceReport);
        let cases: [(Break, &str); 5] = [
            (|r| r.workers = 0, "workers"),
            (|r| r.name.clear(), "name"),
            (|r| r.exec_mode.clear(), "exec_mode"),
            (|r| r.tenants[1].benchmark.clear(), "tenant 7: benchmark"),
            (
                |r| r.tenants[0].placement_cores = 0,
                "tenant 0: placement_cores",
            ),
        ];
        for (break_it, needle) in cases {
            let mut r = sample();
            break_it(&mut r);
            assert_eq!(r.violations().len(), 1, "{needle}: {:?}", r.violations());
            assert!(flags(&r, needle), "{needle}: {:?}", r.violations());
        }
    }
}
