//! `all`, `check` and `selftest`: runs of runs. Every run is a child
//! process of this binary, so `peak_rss_mb` is always one run's own.

use crate::run::{build_refs, run_untraced, RunConfig, QUICK_SECONDS};
use crate::suite::Refs;
use crate::trace::Tracer;
use crate::workloads::{Load, SeqLoad, Workload};
use crate::Args;
use macross_telemetry::json::{self, Json};
use macross_vm::Machine;
use std::collections::BTreeMap;
use std::process::Command;

/// Times `check` repeats a run the noise guard flagged.
const NOISY_RETRIES: usize = 2;

/// What `check` keeps of a child run.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    failed: u64,
    noisy: bool,
}

fn spawn(
    workload: Workload,
    args: &Args,
    trace: bool,
    capture: bool,
) -> Result<(i32, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = &args.record {
        cmd.args(["--record", path]);
    }
    let (status, text) = if capture {
        let out = cmd.output().map_err(|e| e.to_string())?;
        (
            out.status,
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    } else {
        (cmd.status().map_err(|e| e.to_string())?, String::new())
    };
    Ok((status.code().unwrap_or(-1), text))
}

fn child_run(workload: Workload, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let (code, text) = spawn(workload, args, trace, true)?;
    let last = text.lines().last().unwrap_or("");
    let result = json::parse(last)
        .map_err(|e| format!("{}: no result line (exit {code}): {e}", workload.name()))?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
        .collect();
    Ok(ChildRun {
        metrics,
        failed: result.get("failed").and_then(Json::as_num).unwrap_or(1.0) as u64,
        noisy: text
            .lines()
            .any(|l| l.starts_with("passes ") && l.ends_with("noisy true")),
    })
}

/// `all`: the five workloads in sequence, one process each.
pub fn all(args: &Args) -> Result<i32, String> {
    let mut worst = 0;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let (code, _) = spawn(w, args, args.trace, false)?;
        worst = worst.max(code.abs());
    }
    Ok(worst)
}

/// Bounds and directions of the end-to-end metrics, and the per-layer
/// metrics that are counts, from `BENCHMARK.json`.
struct Contract {
    end_to_end: Vec<(String, bool, f64)>,
    counts: Vec<String>,
}

fn read_contract() -> Result<Contract, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no {key}"))
    };
    let text_of = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: metric without {key}"))
    };
    let mut end_to_end = Vec::new();
    for m in list("end_to_end")? {
        let bound = m
            .get("bound")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{path}: metric without bound"))?;
        end_to_end.push((text_of(m, "name")?, text_of(m, "better")? == "lower", bound));
    }
    let mut counts = Vec::new();
    for m in list("per_layer")? {
        if text_of(m, "unit")? == "count" {
            counts.push(text_of(m, "name")?);
        }
    }
    Ok(Contract { end_to_end, counts })
}

/// `check`: two full sets at one seed, the second in reverse order; one
/// verdict per (metric, workload) cell against the bound, every count
/// metric exactly equal, no failed operation anywhere.
pub fn check(args: &Args) -> Result<i32, String> {
    let contract = read_contract()?;
    let mut order: Vec<Workload> = Workload::ALL.to_vec();
    let mut sets: Vec<BTreeMap<&'static str, (ChildRun, ChildRun)>> = Vec::new();
    let mut bad = 0;
    for set in 0..2 {
        let mut runs = BTreeMap::new();
        for &w in &order {
            let mut untraced = child_run(w, args, false)?;
            for _ in 0..NOISY_RETRIES {
                if !untraced.noisy {
                    break;
                }
                println!("set {set} {}: noisy run discarded, repeating", w.name());
                untraced = child_run(w, args, false)?;
            }
            let traced = child_run(w, args, true)?;
            for (kind, run) in [("untraced", &untraced), ("traced", &traced)] {
                if run.failed > 0 {
                    println!(
                        "FAIL set {set} {} {kind}: {} failed operations",
                        w.name(),
                        run.failed
                    );
                    bad += 1;
                }
            }
            println!(
                "set {set} {} done{}",
                w.name(),
                if untraced.noisy { " (still noisy)" } else { "" }
            );
            runs.insert(w.name(), (untraced, traced));
        }
        sets.push(runs);
        order.reverse();
    }
    for w in Workload::ALL {
        let (a, b) = (&sets[0][w.name()], &sets[1][w.name()]);
        for (name, lower, bound) in &contract.end_to_end {
            let (x, y) = (a.0.metrics.get(name), b.0.metrics.get(name));
            let (Some(&x), Some(&y)) = (x, y) else {
                println!("FAIL {name} {}: missing", w.name());
                bad += 1;
                continue;
            };
            let apart = (x - y).abs() / x.min(y);
            let ok = apart <= *bound;
            bad += !ok as i32;
            println!(
                "{} {name} {}: {x} vs {y} ({:.2} % apart, bound {:.0} %, {} is better)",
                if ok { "ok  " } else { "FAIL" },
                w.name(),
                apart * 100.0,
                bound * 100.0,
                if *lower { "lower" } else { "higher" }
            );
        }
        for name in &contract.counts {
            let (x, y) = (a.1.metrics.get(name), b.1.metrics.get(name));
            if x.is_none() || x != y {
                println!("FAIL count {name} {}: {x:?} vs {y:?}", w.name());
                bad += 1;
            }
        }
    }
    println!(
        "{} count metrics x {} workloads compared for exact repeat",
        contract.counts.len(),
        Workload::ALL.len()
    );
    println!("check: {}", if bad == 0 { "agree" } else { "DISAGREE" });
    Ok((bad > 0) as i32)
}

fn streams_equal(a: &Refs, b: &Refs) -> bool {
    a.streams.len() == b.streams.len()
        && a.streams
            .iter()
            .zip(&b.streams)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.bits_eq(*q)))
}

/// `selftest`: the tree-walk reference is deterministic, a clean run
/// passes, and a run against a reference with one flipped bit fails.
pub fn selftest() -> Result<i32, String> {
    let machine = Machine::core_i7();
    let load = SeqLoad::setup(&machine, true, &mut Tracer::off())?;
    let first = build_refs(&load.refs(), &machine)?;
    let second = build_refs(&load.refs(), &machine)?;
    if !streams_equal(&first, &second) {
        println!("selftest: FAIL, two oracle computations differ");
        return Ok(1);
    }
    println!(
        "selftest: oracle deterministic over {} streams",
        first.streams.len()
    );

    let mut cfg = RunConfig {
        workload: Workload::SimdSeq,
        seed: 1,
        seconds: QUICK_SECONDS,
        trace: false,
        quick: true,
        corrupt_reference: false,
    };
    let clean = run_untraced(&cfg)?;
    cfg.corrupt_reference = true;
    let corrupted = run_untraced(&cfg)?;
    println!(
        "selftest: clean run failed_share {} (exit {}), corrupted run failed_share {} (exit {})",
        clean.failed_share(),
        clean.exit_code(),
        corrupted.failed_share(),
        corrupted.exit_code()
    );
    let caught = clean.failed == 0
        && clean.exit_code() == 0
        && corrupted.failed > 0
        && corrupted.exit_code() != 0;
    println!(
        "selftest: {}",
        if caught {
            "corrupted reference caught"
        } else {
            "FAIL, corrupted reference not caught"
        }
    );
    Ok(!caught as i32)
}
