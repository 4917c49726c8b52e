//! Interpreter hot-path microbenchmark: ns per firing of the tree-walking
//! interpreter vs. the register bytecode engine on eight representative
//! filter shapes — an arithmetic-heavy scalar loop, a macro-SIMDized
//! multiply-add chain, a peeking FIR with an array-indexed loop, two
//! permutation-heavy SIMDized pipelines (BitonicSort's compare-exchange
//! network and MatrixMultBlock's transpose mesh), a synthetic
//! perm-dominated riffle network, and two *stateful* region workloads
//! (the benchsuite's IIR bank and accumulator/normalizer) where the
//! region transform vectorizes actors the classic passes refuse. For the
//! region rows both sides run on the bytecode engine and the baseline is
//! the **scalar** graph (schedules aligned by steady-state output volume),
//! so `region_vs_scalar_speedup` prices the whole transform — panel
//! layout and cursor elision on the dispatch loop; the binary exits
//! non-zero when the IIR bank's falls below [`REGION_GATE`].
//!
//! All engines run the *same* compiled graph and schedule inside one
//! binary via `ExecMode`, so the comparison isolates the execution
//! substrate. Outputs and cycle counters are asserted bit-identical
//! against the tree-walk oracle before any number is reported. Emits
//! `BENCH_interp_hotpath.json` (schema v1) when report emission is
//! enabled (`telemetry` feature or `MACROSS_BENCH_JSON`).
//!
//! Usage: `interp_hotpath [iters]` (default 2000 steady iterations per
//! timed sample).

use macross::driver::{macro_simdize, SimdizeOptions};
use macross_bench::{emit_report, render_table, safe_ratio, BenchReport, BenchRow};
use macross_benchsuite::region::{region_acc_norm, region_iir_bank};
use macross_benchsuite::util::{fir, source_f32, source_i32};
use macross_sdf::Schedule;
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::{Graph, Node};
use macross_streamir::types::{ScalarTy, Ty};
use macross_vm::{compile_filter, run_scheduled_mode, ExecMode, Machine, RunResult};
use std::time::Instant;

/// The region row the gate holds, and the least region-vectorized vs.
/// scalar speedup it may show.
const REGION_GATE: (&str, f64) = ("region_iir_bank", 1.5);

/// Arithmetic-heavy scalar filter: pop 1, push 1, 48 loop iterations of
/// integer mixing (mul/add/xor/shift/mask) over an accumulator.
fn mix32() -> Graph {
    let mut fb = FilterBuilder::new("mix32", 1, 1, 1, ScalarTy::I32);
    let acc = fb.local("acc", Ty::Scalar(ScalarTy::I32));
    let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
    fb.work(move |b| {
        b.set(acc, pop());
        b.for_(i, 48i32, |b| {
            b.set(acc, (v(acc) * 1103515245i32 + 12345i32) ^ (v(acc) >> 7i32));
            b.set(acc, v(acc) & 0x7fffffffi32);
        });
        b.push(v(acc));
    });
    StreamSpec::pipeline(vec![
        source_i32("src", 1, 0xffff),
        fb.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("mix32 graph")
}

/// Stateless float filter that macro-SIMDization vectorizes: 24 chained
/// multiply-adds per element, executed as vector ops after SIMDization.
fn vmix_scalar() -> Graph {
    let mut fb = FilterBuilder::new("vmix", 1, 1, 1, ScalarTy::F32);
    let x = fb.local("x", Ty::Scalar(ScalarTy::F32));
    fb.work(move |b| {
        b.set(x, pop());
        for _ in 0..24 {
            b.set(x, v(x) * 1.0001f32 + 0.5f32);
        }
        b.push(v(x));
    });
    StreamSpec::pipeline(vec![
        source_f32("src", 4, 4096, 0.25),
        fb.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("vmix graph")
}

/// Peeking FIR: 16 taps, coefficient array filled in `init`, loop with
/// `peek(i) * coef[i]` accumulation.
fn fir16() -> Graph {
    StreamSpec::pipeline(vec![
        source_f32("src", 4, 4096, 0.25),
        fir("fir16", 16, 0.37, 0.11),
        StreamSpec::Sink,
    ])
    .build()
    .expect("fir16 graph")
}

/// Hand-vectorized permutation network: two 8-lane f32 vectors riffled
/// through 24 rounds of `extract_even`/`extract_odd` pairs, with a
/// two-op multiply-add mix every other round. Unlike the benchsuite
/// graphs (whose filters spread their work across a large tape and
/// charge footprint), this filter is almost nothing *but* permutations,
/// so its row prices the `PermF` dispatch arm.
fn permnet() -> Graph {
    use macross_streamir::expr::{BinOp, Expr, LValue};
    use macross_streamir::stmt::Stmt;
    use macross_streamir::types::Value;
    const W: usize = 8;
    const ROUNDS: usize = 24;
    let mut fb = FilterBuilder::new("permnet", 2 * W, 2 * W, 2 * W, ScalarTy::F32);
    let a = fb.local("a", Ty::Vector(ScalarTy::F32, W));
    let bv = fb.local("b", Ty::Vector(ScalarTy::F32, W));
    let e = fb.local("e", Ty::Vector(ScalarTy::F32, W));
    let o = fb.local("o", Ty::Vector(ScalarTy::F32, W));
    fb.work(move |b| {
        let var = |id| Box::new(Expr::Var(id));
        b.stmt(Stmt::Assign(LValue::Var(a), Expr::VPop { width: W }));
        b.stmt(Stmt::Assign(LValue::Var(bv), Expr::VPop { width: W }));
        for r in 0..ROUNDS / 2 {
            b.stmt(Stmt::Assign(
                LValue::Var(e),
                Expr::PermuteEven(var(a), var(bv)),
            ));
            b.stmt(Stmt::Assign(
                LValue::Var(o),
                Expr::PermuteOdd(var(a), var(bv)),
            ));
            b.stmt(Stmt::Assign(
                LValue::Var(a),
                Expr::PermuteEven(var(e), var(o)),
            ));
            b.stmt(Stmt::Assign(
                LValue::Var(bv),
                Expr::PermuteOdd(var(e), var(o)),
            ));
            if r % 2 == 0 {
                // a = a * 1.0001 + b: keeps the data flowing across
                // rounds.
                b.stmt(Stmt::Assign(
                    LValue::Var(a),
                    Expr::bin(
                        BinOp::Add,
                        Expr::bin(
                            BinOp::Mul,
                            Expr::Var(a),
                            Expr::Splat(Box::new(Expr::Const(Value::F32(1.0001))), W),
                        ),
                        Expr::Var(bv),
                    ),
                ));
            }
        }
        b.stmt(Stmt::VPush {
            value: Expr::Var(a),
            width: W,
        });
        b.stmt(Stmt::VPush {
            value: Expr::Var(bv),
            width: W,
        });
    });
    StreamSpec::pipeline(vec![
        source_f32("src", 2 * W, 4096, 0.25),
        fb.build_spec(),
        StreamSpec::Sink,
    ])
    .build()
    .expect("permnet graph")
}

/// Macro-SIMDize a benchsuite application; its hot filter is
/// permutation-heavy.
fn simdized_suite(name: &str) -> (Graph, Schedule) {
    let machine = Machine::core_i7();
    let b = macross_benchsuite::by_name(name)
        .unwrap_or_else(|| panic!("no benchsuite program named {name}"));
    let simd =
        macro_simdize(&(b.build)(), &machine, &SimdizeOptions::all()).expect("macro_simdize");
    (simd.graph, simd.schedule)
}

/// Minimum wall nanoseconds of `samples` runs of one full scheduled
/// execution (after one warm-up run).
fn time_run(
    graph: &Graph,
    sched: &Schedule,
    machine: &Machine,
    iters: u64,
    mode: ExecMode,
    samples: usize,
) -> u64 {
    std::hint::black_box(run_scheduled_mode(graph, sched, machine, iters, mode).expect("run"));
    (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(
                run_scheduled_mode(graph, sched, machine, iters, mode).expect("run"),
            );
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap()
}

/// Steady reps of the hot filter (name contains `needle`) and whether it
/// compiled to bytecode rather than falling back to the tree walker.
fn hot_filter(graph: &Graph, sched: &Schedule, machine: &Machine, needle: &str) -> (u64, bool) {
    for (id, node) in graph.nodes() {
        if let Node::Filter(f) = node {
            if f.name.contains(needle) {
                let in_elem = graph.single_in_edge(id).map(|e| graph.edge(e).elem);
                let out_elem = graph.single_out_edge(id).map(|e| graph.edge(e).elem);
                let compiled = compile_filter(f, in_elem, out_elem, machine).is_some();
                return (sched.reps[id.0 as usize], compiled);
            }
        }
    }
    panic!("no filter named *{needle}* in graph");
}

fn outputs_bits_eq(a: &RunResult, b: &RunResult) -> bool {
    a.output.len() == b.output.len() && a.output.iter().zip(&b.output).all(|(x, y)| x.bits_eq(*y))
}

fn main() {
    let machine = Machine::core_i7();
    let iters: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("iters must be a number"))
        .unwrap_or(2000);
    let samples = 5;

    // (label, graph, schedule, hot-filter name fragment)
    let mut cases: Vec<(&str, Graph, Schedule, &str)> = Vec::new();
    let g = mix32();
    let s = Schedule::compute(&g).expect("schedule");
    cases.push(("mix32_scalar_loop", g, s, "mix32"));
    let simd = macro_simdize(&vmix_scalar(), &machine, &SimdizeOptions::all()).expect("simdize");
    cases.push(("vmix_simdized", simd.graph, simd.schedule, "vmix"));
    let g = fir16();
    let s = Schedule::compute(&g).expect("schedule");
    cases.push(("fir16_peeking", g, s, "fir16"));
    // Permutation-heavy: the SIMDized BitonicSort network carries 40
    // PermI ops; MatrixMultBlock's transpose mesh carries 192 PermF.
    let (g, s) = simdized_suite("BitonicSort");
    cases.push(("bitonic_permnet", g, s, "bs_k"));
    let (g, s) = simdized_suite("MatrixMultBlock");
    cases.push(("blockmm_permnet", g, s, "mmb_mul"));
    let g = permnet();
    let s = Schedule::compute(&g).expect("schedule");
    cases.push(("permnet_synthetic", g, s, "permnet"));

    println!(
        "== Interpreter hot path: tree-walk vs. bytecode ({iters} iters, min of {samples}) =="
    );
    let mut report = BenchReport::new("interp_hotpath", &machine.name, machine.simd_width as u64)
        .with_exec_mode("bytecode-vs-treewalk");
    let mut rows = Vec::new();
    for (label, graph, sched, needle) in &cases {
        // Both engines must agree bit-for-bit before any timing counts.
        let tw = run_scheduled_mode(graph, sched, &machine, 16, ExecMode::TreeWalk).expect("tw");
        let bc = run_scheduled_mode(graph, sched, &machine, 16, ExecMode::Bytecode).expect("bc");
        assert!(outputs_bits_eq(&tw, &bc), "{label}: bytecode diverges");
        assert_eq!(tw.counters, bc.counters, "{label}: counters diverge");

        let (reps, compiled) = hot_filter(graph, sched, &machine, needle);
        let firings = reps * iters;
        let tw_ns = time_run(graph, sched, &machine, iters, ExecMode::TreeWalk, samples);
        let bc_ns = time_run(graph, sched, &machine, iters, ExecMode::Bytecode, samples);
        let tw_per = tw_ns as f64 / firings as f64;
        let bc_per = bc_ns as f64 / firings as f64;
        let speedup = safe_ratio(tw_per, bc_per);
        report.push_row(
            BenchRow::new(*label)
                .metric("treewalk_ns_per_firing", tw_per)
                .metric("bytecode_ns_per_firing", bc_per)
                .metric("speedup", speedup)
                .counter("firings", firings)
                .counter("compiled", u64::from(compiled)),
        );
        rows.push(vec![
            label.to_string(),
            format!("{tw_per:.1}"),
            format!("{bc_per:.1}"),
            format!("{speedup:.2}x"),
            if compiled { "yes" } else { "FALLBACK" }.to_string(),
        ]);
    }
    // --- Region-state rows: stateful actors vectorized lane-per-region.
    // Unlike the rows above (one graph, engines compared), these compare
    // two *graphs* on the bytecode engine: the scalar original vs. the
    // region-transformed one, schedules aligned by steady-state output
    // volume so a time ratio is a fair speedup.
    let mut region_rows = Vec::new();
    let mut below_gate = None;
    for (label, build, needle) in [
        (
            "region_iir_bank",
            region_iir_bank as fn() -> Graph,
            "iir_bank",
        ),
        (
            "region_acc_norm",
            region_acc_norm as fn() -> Graph,
            "acc_norm",
        ),
    ] {
        let g = build();
        let mut ss = Schedule::compute(&g).expect("schedule");
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).expect("simdize");
        let actors: Vec<String> = simd
            .report
            .region_actors
            .iter()
            .filter(|a| a.contains(needle))
            .cloned()
            .collect();
        assert!(
            !actors.is_empty(),
            "{label}: region transform did not fire on *{needle}*: {:?}",
            simd.report
        );
        report.push_pass("region", actors);
        // Align the scalar schedule to the transformed one's steady-state
        // output volume (Equation-1 scaling multiplies repetitions).
        let s_out = run_scheduled_mode(&g, &ss, &machine, 4, ExecMode::TreeWalk).expect("tw");
        let v_out =
            run_scheduled_mode(&simd.graph, &simd.schedule, &machine, 4, ExecMode::TreeWalk)
                .expect("tw");
        assert_eq!(
            v_out.output.len() % s_out.output.len(),
            0,
            "{label}: steady-state volumes do not align"
        );
        ss.scale((v_out.output.len() / s_out.output.len()) as u64);
        // The transformed graph must match the scalar one bit-for-bit
        // before any timing counts.
        let sc = run_scheduled_mode(&g, &ss, &machine, 16, ExecMode::Bytecode).expect("sc");
        let rg = run_scheduled_mode(
            &simd.graph,
            &simd.schedule,
            &machine,
            16,
            ExecMode::Bytecode,
        )
        .expect("rg");
        assert!(
            outputs_bits_eq(&sc, &rg),
            "{label}: region graph diverges from scalar"
        );

        let (reps, compiled) = hot_filter(&simd.graph, &simd.schedule, &machine, needle);
        let firings = reps * iters;
        let sc_ns = time_run(&g, &ss, &machine, iters, ExecMode::Bytecode, samples);
        let rg_ns = time_run(
            &simd.graph,
            &simd.schedule,
            &machine,
            iters,
            ExecMode::Bytecode,
            samples,
        );
        let sc_per = sc_ns as f64 / firings as f64;
        let rg_per = rg_ns as f64 / firings as f64;
        let ratio = safe_ratio(sc_per, rg_per);
        if label == REGION_GATE.0 && ratio < REGION_GATE.1 {
            below_gate = Some(ratio);
        }
        report.push_row(
            BenchRow::new(label)
                .metric("scalar_ns_per_firing", sc_per)
                .metric("region_ns_per_firing", rg_per)
                .metric("region_vs_scalar_speedup", ratio)
                .counter("firings", firings)
                .counter("compiled", u64::from(compiled)),
        );
        region_rows.push(vec![
            label.to_string(),
            format!("{sc_per:.1}"),
            format!("{rg_per:.1}"),
            format!("{ratio:.2}x"),
            if compiled { "yes" } else { "FALLBACK" }.to_string(),
        ]);
    }

    let headers = [
        "filter",
        "treewalk ns/firing",
        "bytecode ns/firing",
        "speedup",
        "compiled",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("== Region-state SIMDization: region-vectorized vs. scalar graph, bytecode ==");
    let region_headers = [
        "benchmark",
        "scalar ns/firing",
        "region ns/firing",
        "region/scalar",
        "compiled",
    ];
    println!("{}", render_table(&region_headers, &region_rows));
    emit_report(&report);
    if let Some(ratio) = below_gate {
        let (label, gate) = REGION_GATE;
        eprintln!("{label}: region speedup {ratio:.2}x is below the {gate}x gate");
        std::process::exit(1);
    }
}
