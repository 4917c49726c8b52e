//! The stable `SERVICE_<name>.json` schema the streaming service emits,
//! plus a validator so CI can gate on well-formed reports — the one
//! report schema in the tree.
//!
//! Schema (`macross-service-v2`):
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
//!     "drained_on_shutdown": 10        // sessions finished by shutdown
//!   },
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
//! Beyond field shapes, the validator enforces the compile-once
//! invariants the soak job gates on: `hits + misses == submits`,
//! `misses == compilations`, `compilations >= distinct_graphs`, and —
//! when nothing was ever evicted — `compilations == distinct_graphs`
//! (each unique shape compiled exactly once, however many sessions ran
//! it). The schedule cache carries the dynamic-rate analogues:
//! `hits + misses == reconfigurations`, `misses >= distinct_valuations`,
//! and at zero evictions `misses == distinct_valuations` (each distinct
//! parameter valuation compiled exactly once, however often sessions
//! revisited it).

use crate::json::{self, Json};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// The schema identifier carried in the `schema` field.
pub const SERVICE_SCHEMA: &str = "macross-service-v2";

/// Tenant lifecycle states a report may record.
pub const TENANT_STATES: [&str; 4] = ["active", "draining", "faulted", "closed"];

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
/// cache; all zeros when no parameterized session ever ran).
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
}

/// One tenant's row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantRow {
    /// Session id.
    pub session: u64,
    /// What graph the tenant ran (benchmark or caller-supplied tag).
    pub benchmark: String,
    /// Shard thread the session was placed on.
    pub shard: u64,
    /// Structural hash of the submitted graph (32 hex digits).
    pub graph_hash: String,
    /// Whether admission hit the compile-once cache.
    pub cache_hit: bool,
    /// Lifecycle state at report time (see [`TENANT_STATES`]).
    pub state: String,
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

/// A machine-readable service report, written as `SERVICE_<name>.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Report name; determines the file name.
    pub name: String,
    /// Machine description sessions ran against.
    pub machine: String,
    /// Work-function engine (`"bytecode"` / `"treewalk"` / ...).
    pub exec_mode: String,
    /// Wall-clock creation time (Unix milliseconds).
    pub created_unix_ms: u64,
    /// Shard threads in the worker pool.
    pub workers: u64,
    /// Concurrent-session admission cap.
    pub session_cap: u64,
    /// Compile-once cache statistics.
    pub cache: CacheStats,
    /// Per-configuration schedule-cache statistics.
    pub scache: ScheduleCacheStats,
    /// Admission-control counters.
    pub admission: AdmissionStats,
    /// One row per session ever admitted.
    pub tenants: Vec<TenantRow>,
}

impl ServiceReport {
    /// A report stamped with the current wall-clock time.
    pub fn new(
        name: impl Into<String>,
        machine: impl Into<String>,
        exec_mode: impl Into<String>,
    ) -> ServiceReport {
        ServiceReport {
            name: name.into(),
            machine: machine.into(),
            exec_mode: exec_mode.into(),
            created_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            ..ServiceReport::default()
        }
    }

    /// The canonical file name: `SERVICE_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("SERVICE_{}.json", self.name)
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                Json::obj([
                    ("session", Json::Num(t.session as f64)),
                    ("benchmark", Json::Str(t.benchmark.clone())),
                    ("shard", Json::Num(t.shard as f64)),
                    ("graph_hash", Json::Str(t.graph_hash.clone())),
                    ("cache_hit", Json::Bool(t.cache_hit)),
                    ("state", Json::Str(t.state.clone())),
                    ("iters_requested", Json::Num(t.iters_requested as f64)),
                    ("iters_done", Json::Num(t.iters_done as f64)),
                    ("firings", Json::Num(t.firings as f64)),
                    ("outputs", Json::Num(t.outputs as f64)),
                    ("stalls", Json::Num(t.stalls as f64)),
                    ("faults", Json::Num(t.faults as f64)),
                    ("placement_cores", Json::Num(t.placement_cores as f64)),
                    (
                        "placement_cut_edges",
                        Json::Num(t.placement_cut_edges as f64),
                    ),
                    ("placement_fused", Json::Num(t.placement_fused as f64)),
                    (
                        "placement_fissioned",
                        Json::Num(t.placement_fissioned as f64),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str(SERVICE_SCHEMA.into())),
            ("name", Json::Str(self.name.clone())),
            ("machine", Json::Str(self.machine.clone())),
            ("exec_mode", Json::Str(self.exec_mode.clone())),
            ("created_unix_ms", Json::Num(self.created_unix_ms as f64)),
            ("workers", Json::Num(self.workers as f64)),
            ("session_cap", Json::Num(self.session_cap as f64)),
            (
                "cache",
                Json::obj([
                    ("capacity", Json::Num(self.cache.capacity as f64)),
                    (
                        "distinct_graphs",
                        Json::Num(self.cache.distinct_graphs as f64),
                    ),
                    ("submits", Json::Num(self.cache.submits as f64)),
                    ("compilations", Json::Num(self.cache.compilations as f64)),
                    ("hits", Json::Num(self.cache.hits as f64)),
                    ("misses", Json::Num(self.cache.misses as f64)),
                    ("evictions", Json::Num(self.cache.evictions as f64)),
                    ("hit_rate", Json::Num(self.cache.hit_rate())),
                ]),
            ),
            (
                "scache",
                Json::obj([
                    ("capacity", Json::Num(self.scache.capacity as f64)),
                    (
                        "distinct_valuations",
                        Json::Num(self.scache.distinct_valuations as f64),
                    ),
                    (
                        "reconfigurations",
                        Json::Num(self.scache.reconfigurations as f64),
                    ),
                    ("hits", Json::Num(self.scache.hits as f64)),
                    ("misses", Json::Num(self.scache.misses as f64)),
                    ("evictions", Json::Num(self.scache.evictions as f64)),
                ]),
            ),
            (
                "admission",
                Json::obj([
                    ("submitted", Json::Num(self.admission.submitted as f64)),
                    ("admitted", Json::Num(self.admission.admitted as f64)),
                    (
                        "rejected_sessions",
                        Json::Num(self.admission.rejected_sessions as f64),
                    ),
                    (
                        "rejected_feeds",
                        Json::Num(self.admission.rejected_feeds as f64),
                    ),
                    (
                        "backpressure_stalls",
                        Json::Num(self.admission.backpressure_stalls as f64),
                    ),
                    (
                        "drained_on_shutdown",
                        Json::Num(self.admission.drained_on_shutdown as f64),
                    ),
                ]),
            ),
            ("tenants", Json::Arr(tenants)),
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

/// True when a parsed document declares the service schema — the test
/// `validate_report` uses to refuse anything else.
pub fn is_service_report(doc: &Json) -> bool {
    doc.get("schema").and_then(Json::as_str) == Some(SERVICE_SCHEMA)
}

/// One schema violation: the JSON key path of the offending value and
/// what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Key path into the document, e.g. `tenants[2].firings` (`$` is the
    /// document root).
    pub path: String,
    /// What the schema required there.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Collects every violation of a document, each with its key path.
struct Checker(Vec<Violation>);

impl Checker {
    fn push(&mut self, path: impl Into<String>, message: impl Into<String>) {
        self.0.push(Violation {
            path: path.into(),
            message: message.into(),
        });
    }

    /// Require `obj[key]` to exist and parse through `get`; on success run
    /// `then` against the extracted value.
    fn field<'a, T>(
        &mut self,
        obj: &'a Json,
        path: &str,
        kind: &str,
        get: impl Fn(&'a Json) -> Option<T>,
        then: impl FnOnce(&mut Checker, T),
    ) {
        let key = path.rsplit('.').next().unwrap_or(path);
        match obj.get(key) {
            None => self.push(path, "missing required field"),
            Some(v) => match get(v) {
                None => self.push(path, format!("must be {kind}")),
                Some(t) => then(self, t),
            },
        }
    }

    /// Require `obj[key]` to be a non-negative integer and return it.
    fn uint_field(&mut self, obj: &Json, path: &str) -> Option<u64> {
        let mut out = None;
        let get_uint = |v: &Json| v.as_num().filter(|n| *n >= 0.0 && n.fract() == 0.0);
        self.field(obj, path, "a non-negative integer", get_uint, |_, n| {
            out = Some(n as u64);
        });
        out
    }
}

/// Check a parsed document against `macross-service-v2`, collecting
/// **every** violation instead of stopping at the first, so a CI failure
/// shows the whole damage at once.
pub fn check(doc: &Json) -> Vec<Violation> {
    let mut c = Checker(Vec::new());
    if doc.as_obj().is_none() {
        c.push("$", "report must be a JSON object");
        return c.0;
    }
    c.field(doc, "schema", "a string", Json::as_str, |c, s| {
        if s != SERVICE_SCHEMA {
            c.push(
                "schema",
                format!("unsupported schema {s:?} (expected {SERVICE_SCHEMA:?})"),
            );
        }
    });
    c.field(doc, "name", "a string", Json::as_str, |c, s| {
        if s.is_empty() {
            c.push("name", "must be non-empty");
        }
    });
    c.field(doc, "machine", "a string", Json::as_str, |_, _| {});
    c.field(doc, "exec_mode", "a string", Json::as_str, |c, s| {
        if s.is_empty() {
            c.push("exec_mode", "must be non-empty");
        }
    });
    c.uint_field(doc, "created_unix_ms");
    if let Some(w) = c.uint_field(doc, "workers") {
        if w == 0 {
            c.push("workers", "must be >= 1");
        }
    }
    c.uint_field(doc, "session_cap");
    c.field(doc, "cache", "an object", Json::as_obj, |_, _| {});
    if doc.get("cache").is_some_and(|v| v.as_obj().is_some()) {
        check_cache(&mut c, doc.get("cache").unwrap());
    }
    c.field(doc, "scache", "an object", Json::as_obj, |_, _| {});
    if doc.get("scache").is_some_and(|v| v.as_obj().is_some()) {
        check_scache(&mut c, doc.get("scache").unwrap());
    }
    c.field(doc, "admission", "an object", Json::as_obj, |_, _| {});
    if doc.get("admission").is_some_and(|v| v.as_obj().is_some()) {
        check_admission(&mut c, doc.get("admission").unwrap());
    }
    c.field(doc, "tenants", "an array", Json::as_arr, |c, tenants| {
        for (i, t) in tenants.iter().enumerate() {
            check_tenant(c, t, i);
        }
    });
    c.0
}

fn check_cache(c: &mut Checker, cache: &Json) {
    c.uint_field(cache, "cache.capacity");
    let distinct = c.uint_field(cache, "cache.distinct_graphs");
    let submits = c.uint_field(cache, "cache.submits");
    let compilations = c.uint_field(cache, "cache.compilations");
    let hits = c.uint_field(cache, "cache.hits");
    let misses = c.uint_field(cache, "cache.misses");
    let evictions = c.uint_field(cache, "cache.evictions");
    if let (Some(s), Some(h), Some(m)) = (submits, hits, misses) {
        if h + m != s {
            c.push(
                "cache.submits",
                format!("hits + misses must equal submits ({h} + {m} != {s})"),
            );
        }
    }
    c.field(
        cache,
        "cache.hit_rate",
        "a finite number",
        Json::as_num,
        |c, r| {
            if !(0.0..=1.0).contains(&r) {
                c.push("cache.hit_rate", "must be within [0, 1]");
            }
        },
    );
    // The compile-once invariants the soak gate relies on.
    if let (Some(m), Some(comp)) = (misses, compilations) {
        if m != comp {
            c.push(
                "cache.compilations",
                format!("must equal misses (compilations {comp}, misses {m})"),
            );
        }
    }
    if let (Some(d), Some(comp), Some(ev)) = (distinct, compilations, evictions) {
        if comp < d {
            c.push(
                "cache.compilations",
                format!("must be >= distinct_graphs (compilations {comp}, distinct {d})"),
            );
        }
        if ev == 0 && comp != d {
            c.push(
                "cache.compilations",
                format!(
                    "with zero evictions each unique graph must compile exactly once \
                     (compilations {comp}, distinct_graphs {d})"
                ),
            );
        }
    }
    if let (Some(h), Some(m)) = (hits, misses) {
        if let Some(rate) = cache.get("hit_rate").and_then(Json::as_num) {
            let total = h + m;
            let expect = if total == 0 {
                0.0
            } else {
                h as f64 / total as f64
            };
            if (rate - expect).abs() > 1e-6 {
                c.push(
                    "cache.hit_rate",
                    format!("inconsistent with hits/misses (expected ~{expect:.6}, found {rate})"),
                );
            }
        }
    }
}

fn check_scache(c: &mut Checker, scache: &Json) {
    c.uint_field(scache, "scache.capacity");
    let distinct = c.uint_field(scache, "scache.distinct_valuations");
    let reconf = c.uint_field(scache, "scache.reconfigurations");
    let hits = c.uint_field(scache, "scache.hits");
    let misses = c.uint_field(scache, "scache.misses");
    let evictions = c.uint_field(scache, "scache.evictions");
    if let (Some(r), Some(h), Some(m)) = (reconf, hits, misses) {
        if h + m != r {
            c.push(
                "scache.reconfigurations",
                format!("hits + misses must equal reconfigurations ({h} + {m} != {r})"),
            );
        }
    }
    // The compile-once invariant of the dynamic-rate layer: revisiting a
    // valuation must hit, so misses count distinct valuations exactly
    // (unless eviction forced a reinstall).
    if let (Some(d), Some(m), Some(ev)) = (distinct, misses, evictions) {
        if m < d {
            c.push(
                "scache.misses",
                format!("must be >= distinct_valuations (misses {m}, distinct {d})"),
            );
        }
        if ev == 0 && m != d {
            c.push(
                "scache.misses",
                format!(
                    "with zero evictions each distinct valuation must compile exactly once \
                     (misses {m}, distinct_valuations {d})"
                ),
            );
        }
    }
}

fn check_admission(c: &mut Checker, adm: &Json) {
    let submitted = c.uint_field(adm, "admission.submitted");
    let admitted = c.uint_field(adm, "admission.admitted");
    let rejected = c.uint_field(adm, "admission.rejected_sessions");
    c.uint_field(adm, "admission.rejected_feeds");
    c.uint_field(adm, "admission.backpressure_stalls");
    c.uint_field(adm, "admission.drained_on_shutdown");
    if let (Some(s), Some(a), Some(r)) = (submitted, admitted, rejected) {
        if a + r != s {
            c.push(
                "admission.submitted",
                format!("admitted + rejected_sessions must equal submitted ({a} + {r} != {s})"),
            );
        }
    }
}

fn check_tenant(c: &mut Checker, t: &Json, i: usize) {
    let what = format!("tenants[{i}]");
    if t.as_obj().is_none() {
        c.push(what, "must be an object");
        return;
    }
    c.uint_field(t, &format!("{what}.session"));
    c.field(
        t,
        &format!("{what}.benchmark"),
        "a string",
        Json::as_str,
        |c, s| {
            if s.is_empty() {
                c.push(format!("{what}.benchmark"), "must be non-empty");
            }
        },
    );
    c.uint_field(t, &format!("{what}.shard"));
    c.field(
        t,
        &format!("{what}.graph_hash"),
        "a string",
        Json::as_str,
        |c, s| {
            if s.len() != 32 || !s.chars().all(|ch| ch.is_ascii_hexdigit()) {
                c.push(
                    format!("{what}.graph_hash"),
                    "must be 32 lowercase hex digits",
                );
            }
        },
    );
    c.field(
        t,
        &format!("{what}.cache_hit"),
        "a boolean",
        |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        },
        |_, _| {},
    );
    c.field(
        t,
        &format!("{what}.state"),
        "a string",
        Json::as_str,
        |c, s| {
            if !TENANT_STATES.contains(&s) {
                c.push(
                    format!("{what}.state"),
                    format!("must be one of {TENANT_STATES:?}"),
                );
            }
        },
    );
    for key in [
        "iters_requested",
        "iters_done",
        "firings",
        "outputs",
        "stalls",
        "faults",
        "placement_cut_edges",
        "placement_fused",
        "placement_fissioned",
    ] {
        c.uint_field(t, &format!("{what}.{key}"));
    }
    if let Some(cores) = c.uint_field(t, &format!("{what}.placement_cores")) {
        if cores == 0 {
            c.push(
                format!("{what}.placement_cores"),
                "must be >= 1 (1 = collapsed to sequential)",
            );
        }
    }
}

/// Non-fatal observations: unknown top-level keys and a tenant list that
/// carries no sessions at all.
pub fn warnings(doc: &Json) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(fields) = doc.as_obj() else {
        return out;
    };
    const KNOWN: [&str; 10] = [
        "schema",
        "name",
        "machine",
        "exec_mode",
        "created_unix_ms",
        "workers",
        "session_cap",
        "cache",
        "scache",
        "admission",
    ];
    for (k, _) in fields {
        if !KNOWN.contains(&k.as_str()) && k != "tenants" {
            out.push(Violation {
                path: k.clone(),
                message: "unknown top-level field (not part of the schema)".into(),
            });
        }
    }
    if let Some(tenants) = doc.get("tenants").and_then(Json::as_arr) {
        if tenants.is_empty() {
            out.push(Violation {
                path: "tenants".into(),
                message: "report carries no sessions".into(),
            });
        }
    }
    out
}

/// Validate a parsed document against `macross-service-v2`.
///
/// # Errors
/// Returns the first violation (use [`check`] to collect all of them).
pub fn validate(doc: &Json) -> Result<(), String> {
    match check(doc).into_iter().next() {
        Some(v) => Err(v.to_string()),
        None => Ok(()),
    }
}

/// Parse and validate a service report in one call.
///
/// # Errors
/// Returns a parse error or the first schema violation.
pub fn validate_str(input: &str) -> Result<(), String> {
    validate(&json::parse(input)?)
}

/// Parse a document and collect every schema violation.
///
/// # Errors
/// Returns the parse error when the input is not JSON at all.
pub fn check_str(input: &str) -> Result<Vec<Violation>, String> {
    Ok(check(&json::parse(input)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceReport {
        let mut r = ServiceReport::new("soak_bytecode", "core_i7_sse4", "bytecode");
        r.workers = 4;
        r.session_cap = 64;
        r.cache = CacheStats {
            capacity: 32,
            distinct_graphs: 3,
            submits: 8,
            compilations: 3,
            hits: 5,
            misses: 3,
            evictions: 0,
        };
        r.scache = ScheduleCacheStats {
            capacity: 32,
            distinct_valuations: 2,
            reconfigurations: 6,
            hits: 4,
            misses: 2,
            evictions: 0,
        };
        r.admission = AdmissionStats {
            submitted: 10,
            admitted: 8,
            rejected_sessions: 2,
            rejected_feeds: 1,
            backpressure_stalls: 0,
            drained_on_shutdown: 4,
        };
        r.tenants.push(TenantRow {
            session: 0,
            benchmark: "FMRadio".into(),
            shard: 1,
            graph_hash: "0123456789abcdef0123456789abcdef".into(),
            cache_hit: true,
            state: "closed".into(),
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
        });
        r
    }

    #[test]
    fn emitted_report_validates() {
        validate_str(&sample().json_string()).unwrap();
    }

    #[test]
    fn file_name_is_canonical() {
        assert_eq!(sample().file_name(), "SERVICE_soak_bytecode.json");
    }

    #[test]
    fn dispatcher_recognizes_schema() {
        let doc = json::parse(&sample().json_string()).unwrap();
        assert!(is_service_report(&doc));
        let bench = json::parse(r#"{"schema_version":1}"#).unwrap();
        assert!(!is_service_report(&bench));
    }

    #[test]
    fn compile_once_invariant_is_enforced() {
        // 5 compilations for 3 distinct graphs with zero evictions: the
        // compile-once guarantee is broken and the validator says so.
        let mut r = sample();
        r.cache.compilations = 5;
        r.cache.misses = 5;
        r.cache.submits = 10;
        let errs = check(&r.to_json());
        assert!(
            errs.iter().any(|v| v.message.contains("exactly once")),
            "{errs:?}"
        );
        // With evictions, recompiles are legitimate.
        r.cache.evictions = 2;
        assert!(check(&r.to_json()).is_empty());
        // But never fewer compilations than distinct graphs.
        r.cache.compilations = 2;
        r.cache.misses = 2;
        assert!(check(&r.to_json())
            .iter()
            .any(|v| v.message.contains(">= distinct_graphs")));
    }

    #[test]
    fn schedule_cache_invariants_are_enforced() {
        // hits + misses must equal reconfigurations.
        let mut r = sample();
        r.scache.hits = 5; // 5 + 2 != 6
        assert!(check(&r.to_json())
            .iter()
            .any(|v| v.path == "scache.reconfigurations"));
        // A repeat valuation that recompiled without eviction breaks the
        // dynamic compile-once guarantee.
        let mut r = sample();
        r.scache.misses = 4;
        r.scache.hits = 2;
        let errs = check(&r.to_json());
        assert!(
            errs.iter().any(|v| v.message.contains("exactly once")),
            "{errs:?}"
        );
        // With evictions, reinstalls are legitimate.
        r.scache.evictions = 1;
        assert!(check(&r.to_json()).is_empty());
        // But never fewer misses than distinct valuations.
        r.scache.misses = 1;
        r.scache.hits = 5;
        assert!(check(&r.to_json())
            .iter()
            .any(|v| v.message.contains(">= distinct_valuations")));
    }

    #[test]
    fn admission_arithmetic_is_enforced() {
        let mut r = sample();
        r.admission.admitted = 9; // 9 + 2 != 10
        assert!(check(&r.to_json())
            .iter()
            .any(|v| v.path == "admission.submitted"));
    }

    #[test]
    fn validator_rejects_bad_shapes() {
        let cases = [
            ("[]", "object"),
            (r#"{"name":"x"}"#, "schema"),
            (
                &sample().json_string().replace(SERVICE_SCHEMA, "nope-v9"),
                "unsupported schema",
            ),
            (
                &sample()
                    .json_string()
                    .replace("0123456789abcdef0123456789abcdef", "xyz"),
                "hex",
            ),
            (
                &sample().json_string().replace("\"closed\"", "\"zombie\""),
                "state",
            ),
            (
                &sample()
                    .json_string()
                    .replace("\"hits\": 5", "\"hits\": -5"),
                "hits",
            ),
            (
                &sample()
                    .json_string()
                    .replace("\"placement_cores\": 2", "\"placement_cores\": 0"),
                "placement_cores",
            ),
        ];
        for (doc, needle) in cases {
            let err = validate_str(doc).unwrap_err();
            assert!(
                err.contains(needle),
                "error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn hit_rate_consistency_is_checked() {
        let s = sample().json_string().replace("0.625", "0.99");
        assert!(validate_str(&s).unwrap_err().contains("hit_rate"));
    }

    #[test]
    fn warnings_flag_unknown_keys_and_empty_tenants() {
        let mut r = sample();
        r.tenants.clear();
        let doc = json::parse(&r.json_string()).unwrap();
        assert!(warnings(&doc).iter().any(|w| w.path == "tenants"));
        let with_extra =
            json::parse(&r.json_string().replacen('{', "{\n  \"bogus\": 1,", 1)).unwrap();
        assert!(warnings(&with_extra).iter().any(|w| w.path == "bogus"));
    }
}
