//! The stable `BENCH_<name>.json` schema the bench binaries emit, plus a
//! validator so CI can gate on well-formed reports.
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "fig11",                  // report name -> BENCH_fig11.json
//!   "machine": "core_i7_sse4",        // machine description used
//!   "simd_width": 4,
//!   "created_unix_ms": 1754000000000,
//!   "rows": [
//!     {
//!       "benchmark": "FMRadio",
//!       "metrics":  { "improvement_pct": 12.5 },   // finite f64s
//!       "counters": { "ring_traffic": 4096 }       // non-negative integers
//!     }
//!   ]
//! }
//! ```
//!
//! `metrics` carries continuous measurements (speedups, nanoseconds),
//! `counters` carries exact event counts. Both are open-ended maps so new
//! figures can add columns without a schema bump; the validator checks
//! shape and types, not specific keys.

use crate::json::{self, Json};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Current schema version, bumped on incompatible shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One benchmark's row in a report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRow {
    /// Benchmark name (e.g. `FMRadio`).
    pub benchmark: String,
    /// This row *is* the reference other rows' ratios are computed
    /// against (e.g. the 1-worker measurement a speedup divides by).
    /// Comparators must never gate a baseline row on ratio metrics —
    /// they are self-ratios, identically 1. Omitted from the JSON when
    /// false.
    pub baseline: bool,
    /// Continuous measurements, in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// Exact event counts, in insertion order.
    pub counters: Vec<(String, u64)>,
}

impl BenchRow {
    /// A row for `benchmark` with empty metric/counter maps.
    pub fn new(benchmark: impl Into<String>) -> BenchRow {
        BenchRow {
            benchmark: benchmark.into(),
            ..Default::default()
        }
    }

    /// Mark this row as the baseline its siblings' ratios divide by.
    pub fn as_baseline(mut self) -> BenchRow {
        self.baseline = true;
        self
    }

    /// Append a metric (non-finite values are recorded as 0.0 so the
    /// report never violates its own schema).
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> BenchRow {
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((key.into(), v));
        self
    }

    /// Append a counter.
    pub fn counter(mut self, key: impl Into<String>, value: u64) -> BenchRow {
        self.counters.push((key.into(), value));
        self
    }
}

/// One macro-SIMDization pass recorded alongside a report's rows: which
/// transform fired while producing the benchmarked graphs and the actors
/// it produced. Lets a consumer cross-check that a row claiming a
/// transform's speedup (e.g. a `region_*` benchmark) was actually
/// produced by that transform rather than by a silently skipped pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportPass {
    /// Pass name as the compile trace spells it (`"region"`,
    /// `"single_actor"`, ...).
    pub pass: String,
    /// Post-transform actor names the pass produced.
    pub actors: Vec<String>,
}

/// Pass names the schema recognizes in [`ReportPass::pass`] — the
/// `Display` spellings of the compile trace's pass enum.
pub const KNOWN_PASSES: [&str; 7] = [
    "prepass",
    "horizontal",
    "vertical",
    "single_actor",
    "unprofitable",
    "equation1",
    "region",
];

/// A machine-readable benchmark report, written as `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report name; determines the file name.
    pub name: String,
    /// Machine description the numbers were produced on.
    pub machine: String,
    /// SIMD width of that machine.
    pub simd_width: u64,
    /// Wall-clock creation time (Unix milliseconds).
    pub created_unix_ms: u64,
    /// Work-function engine the numbers were produced with (e.g.
    /// `"bytecode"` or `"treewalk"`); omitted from the JSON when unset.
    pub exec_mode: Option<String>,
    /// Total batched firings across the run, when the producer tracked
    /// them. Top-level because the number is scheduling-dependent, not a
    /// deterministic event count.
    pub batched_firings: Option<u64>,
    /// Compile passes that produced the benchmarked graphs; omitted from
    /// the JSON when empty (reports on pre-built graphs have none).
    pub passes: Vec<ReportPass>,
    /// One row per benchmark (or per benchmark x configuration).
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// A report stamped with the current wall-clock time.
    pub fn new(
        name: impl Into<String>,
        machine: impl Into<String>,
        simd_width: u64,
    ) -> BenchReport {
        BenchReport {
            name: name.into(),
            machine: machine.into(),
            simd_width,
            created_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            exec_mode: None,
            batched_firings: None,
            passes: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Stamp the report with the work-function engine used.
    pub fn with_exec_mode(mut self, mode: impl Into<String>) -> BenchReport {
        self.exec_mode = Some(mode.into());
        self
    }

    /// Stamp the report with the total batched firings observed.
    pub fn with_batched_firings(mut self, n: u64) -> BenchReport {
        self.batched_firings = Some(n);
        self
    }

    /// Append a row.
    pub fn push_row(&mut self, row: BenchRow) {
        self.rows.push(row);
    }

    /// Record a compile pass that produced the benchmarked graphs.
    pub fn push_pass(&mut self, pass: impl Into<String>, actors: Vec<String>) {
        self.passes.push(ReportPass {
            pass: pass.into(),
            actors,
        });
    }

    /// The canonical file name: `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut fields = vec![("benchmark", Json::Str(r.benchmark.clone()))];
                if r.baseline {
                    fields.push(("baseline", Json::Bool(true)));
                }
                fields.push((
                    "metrics",
                    Json::Obj(
                        r.metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ));
                fields.push((
                    "counters",
                    Json::Obj(
                        r.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                            .collect(),
                    ),
                ));
                Json::obj(fields)
            })
            .collect();
        let mut fields = vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("name", Json::Str(self.name.clone())),
            ("machine", Json::Str(self.machine.clone())),
            ("simd_width", Json::Num(self.simd_width as f64)),
            ("created_unix_ms", Json::Num(self.created_unix_ms as f64)),
        ];
        if let Some(mode) = &self.exec_mode {
            fields.push(("exec_mode", Json::Str(mode.clone())));
        }
        if let Some(n) = self.batched_firings {
            fields.push(("batched_firings", Json::Num(n as f64)));
        }
        if !self.passes.is_empty() {
            let passes = self
                .passes
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("pass", Json::Str(p.pass.clone())),
                        (
                            "actors",
                            Json::Arr(p.actors.iter().map(|a| Json::Str(a.clone())).collect()),
                        ),
                    ])
                })
                .collect();
            fields.push(("passes", Json::Arr(passes)));
        }
        fields.push(("rows", Json::Arr(rows)));
        Json::obj(fields)
    }

    /// Pretty-printed JSON document.
    pub fn json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Write `BENCH_<name>.json` into `dir` and return the path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.json_string())?;
        Ok(path)
    }
}

/// One schema violation: the JSON key path of the offending value and
/// what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Key path into the document, e.g. `rows[2].counters.iters` (`$` is
    /// the document root).
    pub path: String,
    /// What the schema required there.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

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
}

fn get_uint(v: &Json) -> Option<f64> {
    v.as_num().filter(|n| *n >= 0.0 && n.fract() == 0.0)
}

/// Check a parsed document against the version-1 schema, collecting
/// **every** violation (with its key path) instead of stopping at the
/// first — so a CI failure shows the whole damage at once.
pub fn check(doc: &Json) -> Vec<Violation> {
    let mut c = Checker(Vec::new());
    if doc.as_obj().is_none() {
        c.push("$", "report must be a JSON object");
        return c.0;
    }
    c.field(
        doc,
        "schema_version",
        "a finite number",
        Json::as_num,
        |c, n| {
            if n != SCHEMA_VERSION as f64 {
                c.push(
                    "schema_version",
                    format!("unsupported schema_version {n} (expected {SCHEMA_VERSION})"),
                );
            }
        },
    );
    c.field(doc, "name", "a string", Json::as_str, |c, s| {
        if s.is_empty() {
            c.push("name", "must be non-empty");
        }
    });
    c.field(doc, "machine", "a string", Json::as_str, |_, _| {});
    c.field(
        doc,
        "simd_width",
        "a non-negative integer",
        get_uint,
        |c, n| {
            if n < 1.0 {
                c.push("simd_width", "must be >= 1");
            }
        },
    );
    c.field(
        doc,
        "created_unix_ms",
        "a non-negative integer",
        get_uint,
        |_, _| {},
    );
    if let Some(mode) = doc.get("exec_mode") {
        match mode.as_str() {
            None => c.push("exec_mode", "must be a string"),
            Some("") => c.push("exec_mode", "must be non-empty when present"),
            Some(_) => {}
        }
    }
    if let Some(n) = doc.get("batched_firings") {
        if get_uint(n).is_none() {
            c.push("batched_firings", "must be a non-negative integer");
        }
    }
    if let Some(passes) = doc.get("passes") {
        match passes.as_arr() {
            None => c.push("passes", "must be an array"),
            Some(entries) => {
                for (i, entry) in entries.iter().enumerate() {
                    check_pass(&mut c, entry, i);
                }
            }
        }
    }
    c.field(doc, "rows", "an array", Json::as_arr, |c, rows| {
        for (i, row) in rows.iter().enumerate() {
            check_row(c, row, i);
        }
    });
    c.0
}

fn check_pass(c: &mut Checker, entry: &Json, i: usize) {
    let what = format!("passes[{i}]");
    if entry.as_obj().is_none() {
        c.push(what, "must be an object");
        return;
    }
    c.field(
        entry,
        &format!("{what}.pass"),
        "a string",
        Json::as_str,
        |c, s| {
            if !KNOWN_PASSES.contains(&s) {
                c.push(
                    format!("{what}.pass"),
                    format!("unknown pass {s:?} (expected one of {KNOWN_PASSES:?})"),
                );
            }
        },
    );
    c.field(
        entry,
        &format!("{what}.actors"),
        "an array",
        Json::as_arr,
        |c, actors| {
            for (j, a) in actors.iter().enumerate() {
                if !matches!(a.as_str(), Some(s) if !s.is_empty()) {
                    c.push(format!("{what}.actors[{j}]"), "must be a non-empty string");
                }
            }
        },
    );
}

fn check_row(c: &mut Checker, row: &Json, i: usize) {
    let what = format!("rows[{i}]");
    if row.as_obj().is_none() {
        c.push(what, "must be an object");
        return;
    }
    c.field(
        row,
        &format!("{what}.benchmark"),
        "a string",
        Json::as_str,
        |c, s| {
            if s.is_empty() {
                c.push(format!("{what}.benchmark"), "must be non-empty");
            }
        },
    );
    if let Some(b) = row.get("baseline") {
        if b.as_bool().is_none() {
            c.push(format!("{what}.baseline"), "must be a boolean");
        }
    }
    c.field(
        row,
        &format!("{what}.metrics"),
        "an object",
        Json::as_obj,
        |c, metrics| {
            for (k, v) in metrics {
                if v.as_num().is_none() {
                    c.push(format!("{what}.metrics.{k}"), "must be a finite number");
                }
            }
        },
    );
    c.field(
        row,
        &format!("{what}.counters"),
        "an object",
        Json::as_obj,
        |c, counters| {
            for (k, v) in counters {
                if get_uint(v).is_none() {
                    c.push(
                        format!("{what}.counters.{k}"),
                        "must be a non-negative integer",
                    );
                }
            }
        },
    );
}

/// Non-fatal observations about an otherwise valid document: unknown
/// top-level keys (typo'd fields silently skip validation) and rows that
/// carry no data at all.
pub fn warnings(doc: &Json) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(fields) = doc.as_obj() else {
        return out;
    };
    const KNOWN: [&str; 9] = [
        "schema_version",
        "name",
        "machine",
        "simd_width",
        "created_unix_ms",
        "exec_mode",
        "batched_firings",
        "passes",
        "rows",
    ];
    for (k, _) in fields {
        if !KNOWN.contains(&k.as_str()) {
            out.push(Violation {
                path: k.clone(),
                message: "unknown top-level field (not part of the schema)".into(),
            });
        }
    }
    if let Some(rows) = doc.get("rows").and_then(Json::as_arr) {
        if rows.is_empty() {
            out.push(Violation {
                path: "rows".into(),
                message: "report carries no rows".into(),
            });
        }
        for (i, row) in rows.iter().enumerate() {
            let empty = |key: &str| {
                row.get(key)
                    .and_then(Json::as_obj)
                    .is_some_and(|m| m.is_empty())
            };
            if empty("metrics") && empty("counters") {
                out.push(Violation {
                    path: format!("rows[{i}]"),
                    message: "row has no metrics and no counters".into(),
                });
            }
        }
        // Cross-check: a row claiming a region-transform measurement must
        // be backed by a recorded region pass with at least one actor —
        // otherwise the row timed a graph the transform silently skipped.
        let region_backed = doc.get("passes").and_then(Json::as_arr).is_some_and(|ps| {
            ps.iter().any(|p| {
                p.get("pass").and_then(Json::as_str) == Some("region")
                    && p.get("actors")
                        .and_then(Json::as_arr)
                        .is_some_and(|a| !a.is_empty())
            })
        });
        for (i, row) in rows.iter().enumerate() {
            let is_region = row
                .get("benchmark")
                .and_then(Json::as_str)
                .is_some_and(|b| b.starts_with("region_"));
            if is_region && !region_backed {
                out.push(Violation {
                    path: format!("rows[{i}]"),
                    message: "region_* row without a \"region\" entry in passes \
                              (did the region transform actually fire?)"
                        .into(),
                });
            }
        }
    }
    out
}

/// Validate a parsed document against the version-1 schema.
///
/// # Errors
/// Returns the first violation as a human-readable message (use [`check`]
/// to collect all of them).
pub fn validate(doc: &Json) -> Result<(), String> {
    match check(doc).into_iter().next() {
        Some(v) => Err(v.to_string()),
        None => Ok(()),
    }
}

/// Parse and validate a report document in one call.
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

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("fig11", "core_i7_sse4", 4);
        r.push_row(
            BenchRow::new("FMRadio")
                .metric("improvement_pct", 12.5)
                .counter("iters", 50),
        );
        r.push_row(BenchRow::new("DCT").metric("improvement_pct", 40.0));
        r
    }

    #[test]
    fn emitted_report_validates() {
        let s = sample().json_string();
        validate_str(&s).unwrap();
    }

    #[test]
    fn file_name_is_canonical() {
        assert_eq!(sample().file_name(), "BENCH_fig11.json");
    }

    #[test]
    fn exec_mode_is_optional_but_nonempty() {
        let stamped = sample().with_exec_mode("bytecode");
        let s = stamped.json_string();
        assert!(s.contains("\"exec_mode\": \"bytecode\""));
        validate_str(&s).unwrap();
        // Absent: still valid, and not emitted at all.
        let plain = sample().json_string();
        assert!(!plain.contains("exec_mode"));
        validate_str(&plain).unwrap();
        // Present but empty: rejected.
        let bad = r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"exec_mode":"","rows":[]}"#;
        assert!(validate_str(bad).unwrap_err().contains("exec_mode"));
    }

    #[test]
    fn batched_firings_is_optional_and_typed() {
        let s = sample().with_batched_firings(128).json_string();
        assert!(s.contains("\"batched_firings\": 128"));
        validate_str(&s).unwrap();
        // A known field: must not trip the unknown-key warning either.
        let doc = json::parse(&s).unwrap();
        assert!(warnings(&doc).iter().all(|w| w.path != "batched_firings"));
        // Absent: still valid, not emitted.
        let plain = sample().json_string();
        assert!(!plain.contains("batched_firings"));
        validate_str(&plain).unwrap();
        // Wrong type: rejected.
        let bad = r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"batched_firings":-3,"rows":[]}"#;
        assert!(validate_str(bad).unwrap_err().contains("batched_firings"));
    }

    #[test]
    fn baseline_flag_round_trips() {
        let mut r = BenchReport::new("runtime", "core_i7_sse4", 4);
        r.push_row(
            BenchRow::new("FilterBank@1")
                .as_baseline()
                .metric("nanos_per_iter", 100.0),
        );
        r.push_row(
            BenchRow::new("FilterBank@2")
                .metric("nanos_per_iter", 60.0)
                .metric("speedup", 1.67),
        );
        let s = r.json_string();
        assert!(s.contains("\"baseline\": true"));
        validate_str(&s).unwrap();
        // Unflagged rows stay flag-free on the wire.
        assert_eq!(s.matches("baseline").count(), 1);
        // Non-boolean flag is rejected.
        let bad = r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"rows":[{"benchmark":"b","baseline":1,"metrics":{},"counters":{}}]}"#;
        assert!(validate_str(bad).unwrap_err().contains("baseline"));
    }

    #[test]
    fn passes_round_trip_and_validate() {
        let mut r = sample();
        r.push_pass("region", vec!["iir_bank_r4".into(), "acc_norm_r4".into()]);
        r.push_pass("single_actor", vec!["vmix_v4".into()]);
        let s = r.json_string();
        assert!(s.contains("\"pass\": \"region\""));
        assert!(s.contains("\"iir_bank_r4\""));
        validate_str(&s).unwrap();
        let doc = json::parse(&s).unwrap();
        assert!(warnings(&doc).iter().all(|w| w.path != "passes"));
        // Absent: valid, not emitted.
        let plain = sample().json_string();
        assert!(!plain.contains("passes"));
        validate_str(&plain).unwrap();
        // Unknown pass name: rejected.
        let bad = r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"passes":[{"pass":"mystery","actors":[]}],"rows":[]}"#;
        assert!(validate_str(bad).unwrap_err().contains("unknown pass"));
        // Malformed shapes: rejected with the offending path.
        let bad = r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"passes":7,"rows":[]}"#;
        assert!(validate_str(bad).unwrap_err().contains("passes"));
        let bad = r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"passes":[{"pass":"region","actors":[""]}],"rows":[]}"#;
        assert!(validate_str(bad).unwrap_err().contains("actors[0]"));
    }

    #[test]
    fn region_row_requires_region_pass() {
        // A region_* row with no recorded region pass warns; adding the
        // pass entry clears it. Schema-valid either way (the cross-check
        // is a warning so hand-pinned gate baselines stay loadable).
        let mut r = BenchReport::new("hot", "m", 4);
        r.push_row(BenchRow::new("region_iir_bank").metric("region_vs_scalar_speedup_best", 1.9));
        let doc = json::parse(&r.json_string()).unwrap();
        assert!(check(&doc).is_empty());
        assert!(
            warnings(&doc)
                .iter()
                .any(|w| w.message.contains("region_* row")),
            "missing region pass should warn"
        );
        r.push_pass("region", vec!["iir_bank_r4".into()]);
        let doc = json::parse(&r.json_string()).unwrap();
        assert!(check(&doc).is_empty());
        assert!(warnings(&doc).is_empty());
        // An empty actors list does not count as backing.
        let mut r2 = BenchReport::new("hot", "m", 4);
        r2.push_row(BenchRow::new("region_iir_bank").metric("x", 1.0));
        r2.push_pass("region", Vec::new());
        let doc = json::parse(&r2.json_string()).unwrap();
        assert!(warnings(&doc)
            .iter()
            .any(|w| w.message.contains("region_* row")));
    }

    #[test]
    fn non_finite_metric_is_coerced() {
        let row = BenchRow::new("x").metric("speedup", f64::NAN);
        assert_eq!(row.metrics[0].1, 0.0);
    }

    #[test]
    fn write_and_read_back() {
        let dir = std::env::temp_dir().join("macross_telemetry_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = sample().write_to_dir(&dir).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        validate_str(&read).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn validator_rejects_bad_shapes() {
        let cases = [
            ("[]", "object"),
            (r#"{"name":"x"}"#, "schema_version"),
            (
                r#"{"schema_version":2,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"rows":[]}"#,
                "schema_version",
            ),
            (
                r#"{"schema_version":1,"name":"","machine":"m","simd_width":4,"created_unix_ms":0,"rows":[]}"#,
                "non-empty",
            ),
            (
                r#"{"schema_version":1,"name":"x","machine":"m","simd_width":0,"created_unix_ms":0,"rows":[]}"#,
                "simd_width",
            ),
            (
                r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"rows":[{"benchmark":"b","metrics":{"a":"nope"},"counters":{}}]}"#,
                "metrics",
            ),
            (
                r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"rows":[{"benchmark":"b","metrics":{},"counters":{"c":-1}}]}"#,
                "counters",
            ),
            (
                r#"{"schema_version":1,"name":"x","machine":"m","simd_width":4,"created_unix_ms":0,"rows":[{"metrics":{},"counters":{}}]}"#,
                "benchmark",
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
}
