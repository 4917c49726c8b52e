//! Runtime CPU-feature dispatch for superblock kernels: forcing the
//! portable backend (`MACROSS_KERNEL_TIER=portable`) must not change
//! a single output bit or cycle counter versus the default,
//! feature-detected backend.
//!
//! Coverage is deliberately two-pronged:
//!   * an FMA-heavy SIMDized kernel (24 chained multiply-adds, the same
//!     shape as the `vmix_simdized` hot-path benchmark) exercises the
//!     f32 add/mul slice kernels, and
//!   * every suite benchmark whose SIMDized form executes
//!     `extract_even`/`extract_odd` permutations exercises the `PermI`/
//!     `PermF` lane-shuffle paths.
//!
//! Both prongs live in ONE `#[test]` because the override is a
//! process-global environment variable: splitting them into separate
//! tests would let the harness run them on concurrent threads and race
//! on the variable.

use macross_repro::benchsuite;
use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::Schedule;
use macross_repro::streamir::builder::StreamSpec;
use macross_repro::streamir::edsl::*;
use macross_repro::streamir::graph::Graph;
use macross_repro::streamir::types::{ScalarTy, Ty};
use macross_repro::vm::{run_scheduled_mode, ExecMode, Machine, RunResult};

const OVERRIDE: &str = "MACROSS_KERNEL_TIER";

/// Stateless f32 filter with a deep multiply-add chain; after
/// macro-SIMDization the work body compiles to fused vector kernels.
fn fma_chain() -> Graph {
    let mut fb = FilterBuilder::new("fma", 1, 1, 1, ScalarTy::F32);
    let x = fb.local("x", Ty::Scalar(ScalarTy::F32));
    fb.work(move |b| {
        b.set(x, pop());
        for _ in 0..24 {
            b.set(x, v(x) * 1.0001f32 + 0.5f32);
        }
        b.push(v(x));
    });
    StreamSpec::pipeline(vec![
        benchsuite::util::source_f32("src", 4, 4096, 0.25),
        fb.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("fma graph")
}

fn run(g: &Graph, s: &Schedule, m: &Machine) -> RunResult {
    run_scheduled_mode(g, s, m, 2, ExecMode::Bytecode).expect("run")
}

fn assert_bit_identical(name: &str, native: &RunResult, portable: &RunResult) {
    assert_eq!(
        native.output.len(),
        portable.output.len(),
        "{name}: backend changed throughput"
    );
    assert!(!native.output.is_empty(), "{name}: empty output");
    for (i, (a, b)) in native.output.iter().zip(&portable.output).enumerate() {
        assert!(
            a.bits_eq(*b),
            "{name}: output {i} differs between backends: {a:?} vs {b:?}"
        );
    }
    assert_eq!(
        native.counters, portable.counters,
        "{name}: cycle counters differ between backends"
    );
}

#[test]
fn portable_override_is_bit_identical_on_fma_and_permutation_benchmarks() {
    let machine = Machine::core_i7();
    let opts = SimdizeOptions::all();

    // Collect (name, graph, schedule) for the FMA chain plus every suite
    // benchmark whose SIMDized form actually fires permutations.
    let mut subjects: Vec<(String, Graph, Schedule)> = Vec::new();
    let simd = macro_simdize(&fma_chain(), &machine, &opts).expect("simdize fma");
    subjects.push(("fma_chain".into(), simd.graph, simd.schedule));

    let mut permuting = 0usize;
    for b in benchsuite::all() {
        let g = (b.build)();
        let simd = macro_simdize(&g, &machine, &opts)
            .unwrap_or_else(|e| panic!("{}: simdize failed: {e}", b.name));
        let probe = run(&simd.graph, &simd.schedule, &machine);
        if probe.counters.permute > 0 {
            permuting += 1;
            subjects.push((b.name.to_string(), simd.graph, simd.schedule));
        }
    }
    assert!(
        permuting > 0,
        "no suite benchmark exercises permutations; the PermI/PermF \
         backend paths would go untested"
    );

    std::env::remove_var(OVERRIDE);
    let native: Vec<RunResult> = subjects
        .iter()
        .map(|(_, g, s)| run(g, s, &machine))
        .collect();

    std::env::set_var(OVERRIDE, "portable");
    let portable: Vec<RunResult> = subjects
        .iter()
        .map(|(_, g, s)| run(g, s, &machine))
        .collect();
    std::env::remove_var(OVERRIDE);

    for ((name, _, _), (n, p)) in subjects.iter().zip(native.iter().zip(&portable)) {
        assert_bit_identical(name, n, p);
    }
}
