//! Measured vs. modeled under the cost-model planner: run benchmarks on
//! the threaded runtime with *planned* placements (fusion, fission,
//! block shares) at 2- and 4-worker budgets, and print the observed
//! wall-clock next to the planner's own modelled verdict.
//!
//! Every benchmark also runs once on a single core — the measured
//! baseline every speedup divides by. That row is flagged `baseline` in
//! the report so comparators never gate on its self-ratio. Two distinct
//! mechanisms can *collapse* a parallel row back to that baseline:
//!
//! - the planner's parallel margin — the cost model says multicore will
//!   not pay for this graph;
//! - the hardware budget — the worker budget is clamped to the host's
//!   available parallelism (override: `MACROSS_ASSUME_CORES`), so on a
//!   1-core box every parallel budget collapses.
//!
//! A collapsed row reuses the baseline measurement and reports speedup
//! exactly 1.0: "don't parallelize" is a verdict, not a failure.
//!
//! The modeled column is cycles of the abstract machine; the measured
//! column is host nanoseconds of the interpreter — different units, so
//! compare *scaling trends*, not magnitudes. Wall-clock metrics are the
//! median of three runs; the `--gate` comparison uses the per-side
//! minimum (the least noise-sensitive estimator).
//!
//! Usage: `runtime_measured [--gate] [--all] [bench...]`
//!
//! - default benchmark set: a fixed five-benchmark subset;
//! - `--all`: the full benchmark suite;
//! - `--gate`: exit nonzero when any committed placement measures a
//!   speedup below 1.0 — the CI multicore gate.
//!
//! Deterministic counters for the CI perf gate: pin the comm model with
//! `MACROSS_COMM_CYCLES_PER_ELEM` / `MACROSS_COMM_SYNC_PER_EDGE` and the
//! budget with `MACROSS_ASSUME_CORES`; the planner is then a pure
//! function of the graph and every counter is bit-reproducible.
//!
//! With the `telemetry` feature enabled, also drains the trace session
//! of the per-stage detail run into `TRACE_runtime_measured.json`
//! (Chrome `chrome://tracing` format).

use macross_bench::{
    emit_chrome_trace, emit_report, node_names, planned_vs_modeled_traced, render_table,
    safe_ratio, BenchReport, BenchRow,
};
use macross_multicore::{plan_placement, CommModel};
use macross_runtime::{run_threaded_placed, Placement, RuntimeReport};
use macross_sdf::Schedule;
use macross_telemetry::TraceSession;
use macross_vm::{run_scheduled, Machine};

const BENCHES: [&str; 5] = ["FMRadio", "FilterBank", "DCT", "MatrixMult", "Serpent"];
const WORKERS: [usize; 2] = [2, 4];
const SAMPLES: usize = 3;

/// Cores this host can actually run in parallel, `MACROSS_ASSUME_CORES`
/// taking precedence (CI pins it so planned counters are reproducible).
fn hardware_budget() -> usize {
    std::env::var("MACROSS_ASSUME_CORES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(64)
}

struct Measurement {
    median_ns: f64,
    min_ns: f64,
    report: RuntimeReport,
}

/// `SAMPLES` runs: median wall-clock (reported) + minimum (gated), with
/// the median run's report (counters are deterministic; only the clock
/// is noisy).
fn measure(mut run: impl FnMut() -> RuntimeReport) -> Measurement {
    let mut samples: Vec<(f64, RuntimeReport)> = (0..SAMPLES)
        .map(|_| run())
        .map(|r| (r.nanos_per_iter(), r))
        .collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let min_ns = samples[0].0;
    let (median_ns, report) = samples.swap_remove(samples.len() / 2);
    Measurement {
        median_ns,
        min_ns,
        report,
    }
}

fn main() {
    let machine = Machine::core_i7();
    let iters = 50;
    let mut gate = false;
    let mut all = false;
    let mut named: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--gate" => gate = true,
            "--all" => all = true,
            _ => named.push(arg),
        }
    }
    let selected: Vec<String> = if all {
        macross_benchsuite::all()
            .iter()
            .map(|b| b.name.to_string())
            .collect()
    } else if named.is_empty() {
        BENCHES.iter().map(|s| s.to_string()).collect()
    } else {
        named
    };
    let comm = CommModel::calibrated();
    let hw = hardware_budget();
    println!(
        "== Threaded runtime: measured wall-clock vs. planned makespan \
         ({iters} iters in blocks of {}, median of {SAMPLES}, comm model {}/{}, \
         hardware budget {hw}) ==",
        macross_runtime::iteration_block(),
        comm.cycles_per_element,
        comm.sync_per_edge
    );
    let mut report = BenchReport::new("runtime_measured", &machine.name, machine.simd_width as u64);
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    let mut batched_total = 0u64;
    let mut gate_failures: Vec<String> = Vec::new();
    for name in &selected {
        let b = macross_benchsuite::by_name(name).unwrap_or_else(|| {
            eprintln!("unknown benchmark '{name}' (known: {BENCHES:?}, --all for the full suite)");
            std::process::exit(2);
        });
        let g = (b.build)();
        let sched = Schedule::compute(&g).expect("schedule");
        let profile = run_scheduled(&g, &sched, &machine, 2).expect("sequential profile");
        // The measured baseline: the whole graph on one core.
        let sequential = Placement::whole_stage(vec![0; g.node_count()]);
        let base = measure(|| {
            run_threaded_placed(&g, &sched, &machine, &sequential, iters)
                .expect("sequential run")
                .report
        });
        batched_total += batched_firings(&base.report);
        report.push_row(
            BenchRow::new(format!("{name}@1"))
                .as_baseline()
                .metric("measured_ns_per_iter", base.median_ns)
                .counter("cut_edges", 0)
                .counter("ring_traffic", 0)
                .counter("cores_used", 1),
        );
        rows.push(vec![
            name.to_string(),
            "1".into(),
            "-".into(),
            format!("{:.0}", base.median_ns),
            "(baseline)".into(),
            "-".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
        ]);
        let (mut traffic, mut stalls, mut parks, mut stall_ns) = (0u64, 0u64, 0u64, 0u64);
        for workers in WORKERS {
            let budget = workers.min(hw);
            let plan = plan_placement(&g, &sched, &profile.node_cycles, budget, &comm);
            let collapsed = plan.cores_used == 1;
            let m = if collapsed {
                Measurement {
                    median_ns: base.median_ns,
                    min_ns: base.min_ns,
                    report: base.report.clone(),
                }
            } else {
                measure(|| {
                    run_threaded_placed(&g, &sched, &machine, &plan.placement, iters)
                        .expect("planned run")
                        .report
                })
            };
            let speedup = if collapsed {
                1.0
            } else {
                safe_ratio(base.median_ns, m.median_ns)
            };
            if gate && !collapsed {
                let gate_speedup = safe_ratio(base.min_ns, m.min_ns);
                if gate_speedup < 1.0 {
                    gate_failures.push(format!(
                        "{name}@{workers}: planned {} cores measured {gate_speedup:.3}x < 1.0",
                        plan.cores_used
                    ));
                }
            }
            traffic += m.report.ring_traffic();
            stalls += m.report.total_stalls();
            parks += m.report.total_parks();
            stall_ns += m.report.total_stall_nanos();
            batched_total += batched_firings(&m.report);
            report.push_row(
                BenchRow::new(format!("{name}@{workers}"))
                    .metric("modeled_cycles_per_iter", plan.modelled_makespan as f64)
                    .metric("modeled_speedup", plan.modelled_speedup())
                    .metric("measured_ns_per_iter", m.median_ns)
                    .metric("speedup", speedup)
                    .counter("cut_edges", m.report.cut_edges as u64)
                    .counter("cores_used", plan.cores_used as u64)
                    .counter("fused_groups", plan.fused_groups as u64)
                    .counter("fission_replicas", plan.fissioned as u64)
                    .counter("ring_traffic", m.report.ring_traffic())
                    .counter("total_stalls", m.report.total_stalls())
                    // A stall resolved by spinning costs about a
                    // microsecond, one that parked tens: count them apart.
                    .counter("stall_parks", m.report.total_parks())
                    .counter("stall_nanos", m.report.total_stall_nanos()),
            );
            rows.push(vec![
                name.to_string(),
                format!(
                    "{}/{workers}{}",
                    plan.cores_used,
                    if plan.fissioned > 0 { "*" } else { "" }
                ),
                plan.modelled_makespan.to_string(),
                format!("{:.0}", m.median_ns),
                format!("{speedup:.2}x"),
                format!("{:.2}x", plan.modelled_speedup()),
                m.report.cut_edges.to_string(),
                m.report.ring_traffic().to_string(),
                format!("{:.3}", per_iter(m.report.total_stalls(), &m.report)),
                format!("{:.3}", per_iter(m.report.total_parks(), &m.report)),
            ]);
        }
        totals.push(vec![
            name.to_string(),
            traffic.to_string(),
            stalls.to_string(),
            parks.to_string(),
            stall_ns.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "cores (* fission)",
                "modeled cyc/iter",
                "measured ns/iter",
                "speedup",
                "modeled speedup",
                "cut edges",
                "ring elems",
                "stalls/iter",
                "parks/iter",
            ],
            &rows,
        )
    );

    println!("== Ring totals across all worker budgets ==");
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "ring traffic",
                "total stalls",
                "of which parked",
                "stall ns",
            ],
            &totals,
        )
    );

    // Per-stage detail for one benchmark, to show the counters exist and
    // attribute work plausibly. This run is traced: with the telemetry
    // feature on, the firing/stall/park spans land in a Chrome trace file.
    let detail = selected
        .iter()
        .find(|n| n.as_str() == "FilterBank")
        .cloned()
        .unwrap_or_else(|| selected[0].clone());
    let b = macross_benchsuite::by_name(&detail).unwrap();
    let g = (b.build)();
    let sched = Schedule::compute(&g).unwrap();
    let session = TraceSession::new(4, 1 << 16);
    let budget = 4usize.min(hw);
    let m = planned_vs_modeled_traced(
        &detail, &g, &sched, &machine, budget, iters, &comm, &session,
    );
    println!(
        "== {detail} @ {budget}-worker budget (planner chose {} cores): per-stage counters ==",
        m.plan.cores_used
    );
    let rows: Vec<Vec<String>> = m
        .report
        .stages
        .iter()
        .map(|s| {
            vec![
                s.node.to_string(),
                s.name.clone(),
                s.core.to_string(),
                s.firings.to_string(),
                s.batched_firings.to_string(),
                s.ring_in.to_string(),
                s.ring_out.to_string(),
                s.full_stalls.to_string(),
                s.empty_stalls.to_string(),
                s.stall_nanos.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "node",
                "stage",
                "core",
                "firings",
                "batched",
                "ring in",
                "ring out",
                "full stalls",
                "empty stalls",
                "stall ns",
            ],
            &rows,
        )
    );
    if session.enabled() {
        emit_chrome_trace("runtime_measured", &session, &node_names(&g));
    }
    let report = report.with_batched_firings(batched_total);
    emit_report(&report);
    if !gate_failures.is_empty() {
        eprintln!("MULTICORE GATE FAILED:");
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if gate {
        println!("multicore gate: every committed placement at or above 1.0x");
    }
}

/// `count` events per steady iteration of the run `report` describes.
fn per_iter(count: u64, report: &RuntimeReport) -> f64 {
    safe_ratio(count as f64, report.iters as f64)
}

fn batched_firings(report: &RuntimeReport) -> u64 {
    report.stages.iter().map(|s| s.batched_firings).sum()
}
