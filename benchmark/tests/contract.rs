//! The binary against `BENCHMARK.json`: a `--quick` run of every workload
//! emits exactly the names the contract lists, each with its unit; the
//! environment guard and the negative self-test work from outside.

use macross_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_suite_e2e");

fn contract() -> Json {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn suite_e2e(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .env_remove("MACROSS_KERNEL_TIER")
        .output()
        .expect("suite_e2e starts")
}

/// Name -> unit of one of the contract's metric lists.
fn listed(doc: &Json, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_runs_emit_the_contracts_names_and_units() {
    let doc = contract();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 5);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = listed(&doc, key);
        assert!(want.keys().all(|n| well_formed(n)), "{key}: malformed name");
        for w in &workloads {
            assert!(well_formed(w), "workload {w}");
            let out = suite_e2e(&["--workload", w, "--seed", "7", "--trace", trace, "--quick"]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} --trace {trace} failed: {stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("{w}: last line is not JSON: {e}"));
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_num)
                    .expect("attempted")
                    >= 1.0
            );
            let got: BTreeMap<String, String> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_num).is_some(),
                        "{w}: {name} has no finite value"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, want, "{w} --trace {trace}");
        }
    }
}

#[test]
fn a_macross_variable_is_refused_by_name() {
    let out = Command::new(EXE)
        .args(["--workload", "suite_simd_seq", "--seed", "1", "--quick"])
        .env("MACROSS_KERNEL_TIER", "portable")
        .output()
        .expect("suite_e2e starts");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("MACROSS_KERNEL_TIER"));
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("\"metrics\""),
        "a refused run prints no result"
    );
}

#[test]
fn selftest_catches_a_corrupted_reference() {
    let out = suite_e2e(&["selftest"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("oracle deterministic"));
    assert!(stdout.contains("corrupted reference caught"));
}
