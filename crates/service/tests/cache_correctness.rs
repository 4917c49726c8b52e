//! Cache-correctness suite: the compile-once cache must change *when*
//! compilation happens, never *what* a session computes.
//!
//! Two halves:
//!
//! - Structural-hash properties at the service boundary: equivalent
//!   graphs (alpha-renamed actors, reordered node insertion) share one
//!   compilation; semantically different graphs (rates, body constants)
//!   never do.
//! - A differential sweep over all fourteen benchmarks: for each, a
//!   cold-compiled single-threaded reference run, then two service
//!   sessions of the same graph — the second a guaranteed cache hit —
//!   each of whose sink outputs must be bit-identical to the reference.

use macross::{compile_graph, SimdizeOptions};
use macross_benchsuite::all;
use macross_runtime::FaultPlan;
use macross_service::{ServiceConfig, StreamService};
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::Graph;
use macross_streamir::shash::structural_hash;
use macross_streamir::types::{ScalarTy, Ty, Value};
use macross_vm::{Executor, Machine};

fn assert_bits_eq(ctx: &str, expect: &[Value], got: &[Value]) {
    assert_eq!(expect.len(), got.len(), "{ctx}: length mismatch");
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        assert!(a.bits_eq(*b), "{ctx}: element {i} differs: {a:?} vs {b:?}");
    }
}

fn named_pipeline(src_name: &str, f_name: &str, mul: i32) -> Graph {
    let mut src = FilterBuilder::new(src_name, 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(move |b| {
        b.push(v(n) * mul);
        b.set(n, v(n) + 1i32);
    });
    let mut f = FilterBuilder::new(f_name, 1, 1, 1, ScalarTy::I32);
    f.work(|b| {
        b.push(pop() + 100i32);
    });
    StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink])
        .build()
        .unwrap()
}

#[test]
fn equivalent_graphs_share_one_compilation() {
    let service = StreamService::new(Machine::core_i7(), ServiceConfig::default());
    let original = named_pipeline("reader", "scale", 3);
    let renamed = named_pipeline("producer", "gain", 3);
    assert_eq!(
        structural_hash(&original),
        structural_hash(&renamed),
        "alpha-renaming must not change the structural hash"
    );
    let a = service
        .submit("original", &original, FaultPlan::none())
        .unwrap();
    let b = service
        .submit("renamed", &renamed, FaultPlan::none())
        .unwrap();
    for id in [a, b] {
        service.feed(id, 6).unwrap();
    }
    let out_a = service.close(a).unwrap();
    let out_b = service.close(b).unwrap();
    let flat_a: Vec<Value> = out_a.outputs.into_iter().flatten().collect();
    let flat_b: Vec<Value> = out_b.outputs.into_iter().flatten().collect();
    assert_bits_eq("renamed tenants", &flat_a, &flat_b);
    let report = service.shutdown("rename");
    assert_eq!(report.last.cache.compilations, 1, "one shape, one compile");
    assert_eq!(report.last.cache.distinct_graphs, 1);
    assert_eq!(report.last.cache.hits, 1);
}

#[test]
fn different_bodies_never_share_a_compilation() {
    let service = StreamService::new(Machine::core_i7(), ServiceConfig::default());
    let three = named_pipeline("src", "f", 3);
    let four = named_pipeline("src", "f", 4);
    assert_ne!(structural_hash(&three), structural_hash(&four));
    service.submit("three", &three, FaultPlan::none()).unwrap();
    service.submit("four", &four, FaultPlan::none()).unwrap();
    let report = service.shutdown("bodies");
    assert_eq!(report.last.cache.compilations, 2);
    assert_eq!(report.last.cache.distinct_graphs, 2);
    assert_eq!(report.last.cache.hits, 0);
}

/// The headline differential: across every benchmark, a cache-hit
/// session's sink outputs are bit-identical to a cold compile + solo
/// single-threaded run of the same graph.
#[test]
fn cache_hit_sessions_match_cold_runs_on_all_benchmarks() {
    let machine = Machine::core_i7();
    let opts = SimdizeOptions::all();
    let mode = macross_vm::ExecMode::default();
    let service = StreamService::new(
        machine.clone(),
        ServiceConfig {
            workers: 3,
            session_cap: 32,
            ..ServiceConfig::default()
        },
    );
    let suite = all();
    assert_eq!(suite.len(), 16);
    for bench in &suite {
        let graph = (bench.build)();
        let iters = bench.iters.min(4);
        // Cold reference: compile from scratch, run solo.
        let art = compile_graph(&graph, &machine, &opts, mode).unwrap();
        let mut ex = Executor::with_programs(&art.graph, &art.schedule, &machine, &art.programs);
        ex.run(iters).unwrap();
        let reference = ex.output_flat();
        // Two sessions of the same graph; the second must be a hit.
        for round in 0..2 {
            let id = service
                .submit(bench.name, &graph, FaultPlan::none())
                .unwrap();
            service.feed(id, iters).unwrap();
            let report = service.close(id).unwrap();
            assert!(!report.faulted, "{}: unexpected fault", bench.name);
            let flat: Vec<Value> = report.outputs.into_iter().flatten().collect();
            assert_bits_eq(&format!("{} round {round}", bench.name), &reference, &flat);
        }
    }
    let report = service.shutdown("benchsuite");
    // 16 distinct shapes, 32 sessions: compilations count shapes, and the
    // service never compiled what the hits could reuse.
    assert_eq!(report.last.cache.distinct_graphs, 16);
    assert_eq!(report.last.cache.compilations, 16);
    assert_eq!(report.last.cache.hits, 16);
    assert_eq!(report.last.admission.admitted, 32);
    assert_eq!(report.violations(), Vec::<String>::new());
}
