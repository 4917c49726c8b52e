//! One-command reproduction of failing supervised runs.
//!
//! A fault-injection campaign (the `fault-matrix` CI job, or a local run
//! of `tests/fault_differential.rs`) that provokes a failure writes a
//! [`ReplayBundle`] next to its other artifacts. This module turns a
//! bundle back into the identical run: same benchmark graph, same
//! SIMDization, same node-to-core assignment, same engine, same fault
//! plan — and checks that the failures observed on replay match the ones
//! the bundle recorded.
//!
//! The `replay_fault` binary is the command-line face:
//!
//! ```text
//! cargo run -p macross-bench --bin replay_fault -- REPLAY_FMRadio_7.json
//! ```

use macross::driver::{macro_simdize, steady_node_weights, SimdizeOptions};
use macross_benchsuite::by_name;
use macross_multicore::partition_lpt;
use macross_runtime::{
    run_supervised_placed, FailureSignature, FaultPlan, Placement, ReplayBundle, SupervisedRun,
    SupervisorOptions,
};
use macross_sdf::Schedule;
use macross_streamir::graph::{Graph, Node};
use macross_vm::{ExecMode, Machine};
use std::time::Duration;

/// Resolve a machine description by its serialized name.
pub fn machine_by_name(name: &str) -> Option<Machine> {
    match name {
        "core_i7_sse4" => Some(Machine::core_i7()),
        "core_i7_sse4_sagu" => Some(Machine::core_i7_with_sagu()),
        _ => None,
    }
}

/// What a run left behind in the bundle's `expect` form: its failures
/// and, when there are any, each sink's committed length (a clean run's
/// signature is empty).
pub fn failure_signature(graph: &Graph, run: &SupervisedRun) -> FailureSignature {
    let failures = &run.report.failures;
    let sinks = graph.nodes().filter(|(_, n)| matches!(n, Node::Sink));
    let len = |id: usize| (id, run.outputs[id].len() as u64);
    FailureSignature {
        failures: (failures.iter())
            .map(|f| (f.stage, f.firing, f.cause.label().to_string()))
            .collect(),
        sinks: match failures.is_empty() {
            true => Vec::new(),
            false => sinks.map(|(id, _)| len(id.0 as usize)).collect(),
        },
    }
}

/// Build the bundle describing a failing (or to-be-failed) run, with
/// `expect` filled from what the run left behind.
#[allow(clippy::too_many_arguments)]
pub fn make_bundle(
    benchmark: &str,
    simdized: bool,
    machine: &Machine,
    mode: ExecMode,
    assignment: &[u32],
    iters: u64,
    watchdog: Option<Duration>,
    plan: FaultPlan,
    expect: FailureSignature,
) -> ReplayBundle {
    ReplayBundle {
        benchmark: benchmark.to_string(),
        simdized,
        machine: machine.name.clone(),
        exec_mode: mode.label().to_string(),
        assignment: assignment.to_vec(),
        iters,
        watchdog_ms: watchdog.map(|d| d.as_millis() as u64).unwrap_or(0),
        plan,
        expect,
    }
}

/// What [`run_bundle`] observed.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The replayed run (partial output + report included).
    pub run: SupervisedRun,
    /// What the replay left behind, in `expect` form.
    pub observed: FailureSignature,
    /// True when the replay matches the bundle's `expect` exactly: same
    /// stages, firing indices, causes and order, and the same length for
    /// every sink.
    pub reproduced: bool,
}

/// Re-execute the run a bundle describes and compare what it left behind
/// against the recorded signature.
///
/// # Errors
/// A human-readable message when the bundle references an unknown
/// benchmark/machine/engine, the assignment does not fit the rebuilt
/// graph, or the runtime rejects the configuration.
pub fn run_bundle(bundle: &ReplayBundle) -> Result<ReplayOutcome, String> {
    let bench = by_name(&bundle.benchmark)
        .ok_or_else(|| format!("unknown benchmark {:?}", bundle.benchmark))?;
    let machine = machine_by_name(&bundle.machine)
        .ok_or_else(|| format!("unknown machine {:?}", bundle.machine))?;
    let mode = ExecMode::from_label(&bundle.exec_mode)
        .ok_or_else(|| format!("unknown exec mode {:?}", bundle.exec_mode))?;
    let graph = (bench.build)();
    let (graph, schedule) = if bundle.simdized {
        let simd = macro_simdize(&graph, &machine, &SimdizeOptions::all())
            .map_err(|e| format!("simdize failed: {e}"))?;
        (simd.graph, simd.schedule)
    } else {
        let schedule = Schedule::compute(&graph).map_err(|e| format!("schedule failed: {e}"))?;
        (graph, schedule)
    };
    if bundle.assignment.len() != graph.node_count() {
        return Err(format!(
            "assignment has {} entries for a graph of {} nodes — bundle built \
             against a different benchmark revision?",
            bundle.assignment.len(),
            graph.node_count()
        ));
    }
    let opts = SupervisorOptions {
        mode,
        watchdog: (bundle.watchdog_ms > 0).then(|| Duration::from_millis(bundle.watchdog_ms)),
        plan: bundle.plan.clone(),
    };
    let run = run_supervised_placed(
        &graph,
        &schedule,
        &machine,
        &Placement::whole_stage(bundle.assignment.clone()),
        bundle.iters,
        &opts,
    )
    .map_err(|e| format!("runtime rejected the bundle: {e}"))?;
    let observed = failure_signature(&graph, &run);
    let reproduced = observed == bundle.expect;
    Ok(ReplayOutcome {
        run,
        observed,
        reproduced,
    })
}

/// The placement a fault campaign should record into its bundles: LPT
/// over the static cost model of the SIMDized graph, so campaign code and
/// replay agree by construction.
pub fn campaign_placement(
    graph: &Graph,
    machine: &Machine,
    cores: usize,
) -> Result<(Graph, Schedule, Vec<u32>), String> {
    let simd = macro_simdize(graph, machine, &SimdizeOptions::all())
        .map_err(|e| format!("simdize failed: {e}"))?;
    let weights = steady_node_weights(&simd.graph, &simd.schedule, machine);
    let assignment = partition_lpt(&weights, cores.max(1));
    Ok((simd.graph, simd.schedule, assignment))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_lookups_roundtrip() {
        for m in [Machine::core_i7(), Machine::core_i7_with_sagu()] {
            assert_eq!(machine_by_name(&m.name).unwrap().name, m.name);
        }
        assert!(machine_by_name("pdp11").is_none());
    }

    #[test]
    fn clean_bundle_replays_clean() {
        // An empty fault plan must replay to a failure-free run.
        let machine = Machine::core_i7();
        let bench = by_name("FMRadio").unwrap();
        let graph = (bench.build)();
        let (graph_s, _, assignment) = campaign_placement(&graph, &machine, 2).unwrap();
        let bundle = make_bundle(
            "FMRadio",
            true,
            &machine,
            ExecMode::default(),
            &assignment,
            3,
            None,
            FaultPlan::none(),
            FailureSignature::default(),
        );
        assert_eq!(bundle.assignment.len(), graph_s.node_count());
        let outcome = run_bundle(&bundle).unwrap();
        assert!(outcome.reproduced);
        assert!(outcome.run.completed);
        assert_eq!(outcome.observed, FailureSignature::default());
    }

    #[test]
    fn bundle_errors_name_the_problem() {
        let mut bundle = make_bundle(
            "FMRadio",
            false,
            &Machine::core_i7(),
            ExecMode::default(),
            &[0],
            1,
            None,
            FaultPlan::none(),
            FailureSignature::default(),
        );
        bundle.benchmark = "NoSuchBench".into();
        assert!(run_bundle(&bundle).unwrap_err().contains("NoSuchBench"));
        bundle.benchmark = "FMRadio".into();
        bundle.machine = "pdp11".into();
        assert!(run_bundle(&bundle).unwrap_err().contains("pdp11"));
        bundle.machine = "core_i7_sse4".into();
        assert!(run_bundle(&bundle)
            .unwrap_err()
            .contains("different benchmark revision"));
    }
}
