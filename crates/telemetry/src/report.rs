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
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: BenchRow) {
        self.rows.push(row);
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
                Json::obj([
                    ("benchmark", Json::Str(r.benchmark.clone())),
                    (
                        "metrics",
                        Json::Obj(
                            r.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                    (
                        "counters",
                        Json::Obj(
                            r.counters
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("name", Json::Str(self.name.clone())),
            ("machine", Json::Str(self.machine.clone())),
            ("simd_width", Json::Num(self.simd_width as f64)),
            ("created_unix_ms", Json::Num(self.created_unix_ms as f64)),
            ("rows", Json::Arr(rows)),
        ])
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

/// Collects every violation of a document, each with its key path —
/// the core both this module's validator and [`crate::service`]'s run on.
pub(crate) struct Checker(pub(crate) Vec<Violation>);

impl Checker {
    pub(crate) fn push(&mut self, path: impl Into<String>, message: impl Into<String>) {
        self.0.push(Violation {
            path: path.into(),
            message: message.into(),
        });
    }

    /// Require `obj[key]` to exist and parse through `get`; on success run
    /// `then` against the extracted value.
    pub(crate) fn field<'a, T>(
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
    pub(crate) fn uint_field(&mut self, obj: &Json, path: &str) -> Option<u64> {
        let mut out = None;
        self.field(obj, path, "a non-negative integer", get_uint, |_, n| {
            out = Some(n as u64);
        });
        out
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
    if c.uint_field(doc, "simd_width") == Some(0) {
        c.push("simd_width", "must be >= 1");
    }
    c.uint_field(doc, "created_unix_ms");
    c.field(doc, "rows", "an array", Json::as_arr, |c, rows| {
        for (i, row) in rows.iter().enumerate() {
            check_row(c, row, i);
        }
    });
    c.0
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
    const KNOWN: [&str; 6] = [
        "schema_version",
        "name",
        "machine",
        "simd_width",
        "created_unix_ms",
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
