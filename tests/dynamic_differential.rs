//! Dynamic-rate differential suite: every dynamic benchmark × scripted
//! parameter trace × worker count × engine mode, driven through the
//! multi-tenant service, must be bit-identical to the oracle — the same
//! trace replayed with every configuration compiled from scratch, no
//! schedule cache, no compile-once cache, a fresh engine per segment.
//!
//! A second axis pins the swap protocol itself: a trace that re-sets the
//! *current* valuation still runs a full swap at every boundary (export
//! carrier, fetch configuration, resume), and its output must equal an
//! uninterrupted static run of the same configuration.

use macross::SimdizeOptions;
use macross_repro::benchsuite::dynamic::{dynamic, DynBenchmark};
use macross_repro::pdf::{oracle_replay, ParamTrace};
use macross_repro::runtime::FaultPlan;
use macross_repro::service::{ServiceConfig, StreamService};
use macross_repro::streamir::types::Value;
use macross_repro::vm::{ExecMode, Machine};
use std::sync::Arc;

const MODES: [ExecMode; 2] = [ExecMode::Bytecode, ExecMode::TreeWalk];
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Drive one trace through the service as a dynamic session and return
/// the full sink outputs.
fn drive_service(
    b: &DynBenchmark,
    trace: &ParamTrace,
    workers: usize,
    mode: ExecMode,
) -> Vec<Vec<Value>> {
    let service = StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers,
            mode,
            ..ServiceConfig::default()
        },
    );
    let template = Arc::new((b.template)());
    let id = service
        .submit_dynamic(b.name, &template, &(b.init)(), FaultPlan::none())
        .unwrap_or_else(|e| panic!("{}/{}: submit: {e}", b.name, trace.name));
    for step in &trace.steps {
        for (name, value) in &step.sets {
            service
                .set_param(id, name, *value)
                .unwrap_or_else(|e| panic!("{}/{}: set_param: {e}", b.name, trace.name));
        }
        service
            .feed(id, step.iters)
            .unwrap_or_else(|e| panic!("{}/{}: feed: {e}", b.name, trace.name));
    }
    let report = service
        .close(id)
        .unwrap_or_else(|e| panic!("{}/{}: close: {e}", b.name, trace.name));
    assert!(
        !report.faulted,
        "{}/{}: faulted: {:?}",
        b.name, trace.name, report.failures
    );
    assert_eq!(report.iters_done, trace.total_iters());
    report.outputs
}

fn assert_rows_eq(got: &[Vec<Value>], want: &[Vec<Value>], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: sink count");
    for (s, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{ctx}: sink {s} output count");
        for (i, (x, y)) in g.iter().zip(w).enumerate() {
            assert!(
                x.bits_eq(*y),
                "{ctx}: sink {s} value {i} differs: {x:?} vs {y:?}"
            );
        }
    }
}

/// The headline property: service execution with re-scheduling and both
/// cache layers matches scratch recompilation, bit for bit, for every
/// benchmark, trace, worker count, and engine mode.
#[test]
fn dynamic_sessions_match_the_scratch_oracle() {
    let machine = Machine::core_i7();
    let opts = SimdizeOptions::all();
    for b in dynamic() {
        let template = (b.template)();
        for trace in (b.traces)() {
            for mode in MODES {
                let want = oracle_replay(&template, &(b.init)(), &trace, &machine, &opts, mode)
                    .unwrap_or_else(|e| panic!("{}/{}: oracle: {e}", b.name, trace.name));
                for workers in WORKER_COUNTS {
                    let got = drive_service(&b, &trace, workers, mode);
                    let ctx = format!("{}/{} mode={mode:?} workers={workers}", b.name, trace.name);
                    assert_rows_eq(&got, &want, &ctx);
                }
            }
        }
    }
}

/// Same-valuation swaps are observationally free: a trace that re-sets
/// the current parameter value at every boundary produces exactly the
/// output of one uninterrupted static session over the instantiated
/// graph.
#[test]
fn same_valuation_swaps_match_an_uninterrupted_run() {
    for b in dynamic() {
        let template = Arc::new((b.template)());
        let init = (b.init)();
        // Re-set the initial value at two boundaries; 9 iterations total.
        let name = init.names().next().unwrap().to_string();
        let value = init.get(&name).unwrap();
        let trace = ParamTrace::new("reset")
            .then(&[], 3)
            .then(&[(name.as_str(), value)], 3)
            .then(&[(name.as_str(), value)], 3);
        for mode in MODES {
            let got = drive_service(&b, &trace, 2, mode);
            // The static reference: same graph, same iterations, no swaps.
            let service = StreamService::new(
                Machine::core_i7(),
                ServiceConfig {
                    workers: 2,
                    mode,
                    ..ServiceConfig::default()
                },
            );
            let graph = template.instantiate(&init).unwrap();
            let id = service.submit(b.name, &graph, FaultPlan::none()).unwrap();
            service.feed(id, trace.total_iters()).unwrap();
            let report = service.close(id).unwrap();
            assert!(!report.faulted);
            let ctx = format!("{}/reset mode={mode:?}", b.name);
            assert_rows_eq(&got, &report.outputs, &ctx);
        }
    }
}

/// Repeat valuations must be served from the schedule cache: across a
/// whole trace, misses equal distinct valuations (no evictions at these
/// sizes) and every lookup is a reconfiguration.
#[test]
fn schedule_cache_serves_repeat_valuations() {
    for b in dynamic() {
        for trace in (b.traces)() {
            let service = StreamService::new(
                Machine::core_i7(),
                ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
            );
            let template = Arc::new((b.template)());
            let id = service
                .submit_dynamic(b.name, &template, &(b.init)(), FaultPlan::none())
                .unwrap();
            for step in &trace.steps {
                for (name, value) in &step.sets {
                    service.set_param(id, name, *value).unwrap();
                }
                service.feed(id, step.iters).unwrap();
            }
            service.close(id).unwrap();
            let s = service.schedule_cache_stats();
            assert_eq!(
                s.reconfigurations,
                1 + trace.reconfigurations(),
                "{}/{}: install count",
                b.name,
                trace.name
            );
            assert_eq!(s.hits + s.misses, s.reconfigurations);
            assert_eq!(s.evictions, 0);
            assert_eq!(
                s.misses, s.distinct_valuations,
                "{}/{}: a repeat valuation recompiled",
                b.name, trace.name
            );
        }
    }
}
