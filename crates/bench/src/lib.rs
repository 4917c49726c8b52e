//! # macross-bench
//!
//! The experiment harness: one reusable routine per figure of the paper's
//! evaluation (Section 5), shared by the command-line binaries
//! (`fig10`..`fig13`), the Criterion benches, and the integration tests
//! that assert the paper's result *shapes*.

pub mod replay;

use macross::driver::{macro_simdize, SimdizeOptions};
use macross_autovec::{autovectorize_graph, AutovecConfig};
use macross_benchsuite::Benchmark;
use macross_multicore::{figure13_point, CommModel, Figure13Point};
use macross_sdf::Schedule;
use macross_streamir::graph::Graph;
use macross_vm::{run_scheduled, Machine, RunResult};
use std::path::PathBuf;

pub use macross_telemetry::report::{BenchReport, BenchRow};

// ---------------------------------------------------------------------------
// Machine-readable reports for the experiment binaries.

/// Where the binaries write their reports: `MACROSS_BENCH_DIR` when it is
/// set; unset, no report is written.
pub fn bench_dir() -> Option<PathBuf> {
    std::env::var_os("MACROSS_BENCH_DIR").map(PathBuf::from)
}

/// Write `report` as `BENCH_<name>.json` into [`bench_dir`] when it is
/// set (silent no-op otherwise). Emission failures are reported on
/// stderr but never fail the benchmark itself.
pub fn emit_report(report: &BenchReport) {
    let Some(dir) = bench_dir() else {
        return;
    };
    match report.write_to_dir(&dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", report.file_name()),
    }
}

/// Align two scheduled programs to identical source throughput and run
/// each on its own machine description.
pub fn run_aligned(
    (g1, s1, m1): (&Graph, &Schedule, &Machine),
    (g2, s2, m2): (&Graph, &Schedule, &Machine),
    iters: u64,
) -> (RunResult, RunResult) {
    let src1 = g1
        .node_ids()
        .find(|&id| g1.in_edges(id).is_empty())
        .expect("source");
    let src2 = g2
        .node_ids()
        .find(|&id| g2.in_edges(id).is_empty())
        .expect("source");
    let (r1, r2) = (s1.reps[src1.0 as usize], s2.reps[src2.0 as usize]);
    let l = macross_sdf::lcm(r1, r2);
    let mut s1 = s1.clone();
    let mut s2 = s2.clone();
    s1.scale(l / r1);
    s2.scale(l / r2);
    (
        run_scheduled(g1, &s1, m1, iters).expect("run failed"),
        run_scheduled(g2, &s2, m2, iters).expect("run failed"),
    )
}

/// One benchmark's row of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Speedup of host-compiler auto-vectorization over scalar.
    pub autovec: f64,
    /// Speedup of macro-SIMDization over scalar.
    pub macro_simd: f64,
    /// Speedup of macro-SIMDization plus auto-vectorization over scalar.
    pub macro_plus_auto: f64,
}

/// Figure 10: scalar vs. auto-vectorized vs. macro-SIMDized vs. both,
/// under one host-compiler model.
pub fn figure10_row(b: &Benchmark, machine: &Machine, host: &AutovecConfig) -> Fig10Row {
    let g = (b.build)();
    let sched = Schedule::compute(&g).expect("schedule");

    // Host auto-vectorization of the lowered scalar program (same
    // schedule: the host compiler cannot touch it).
    let mut av = g.clone();
    autovectorize_graph(&mut av, host);

    // Macro-SIMDization, and macro + host autovec on the residue.
    let simd = macro_simdize(&g, machine, &SimdizeOptions::all()).expect("simdize");
    let mut both_graph = simd.graph.clone();
    autovectorize_graph(&mut both_graph, host);

    let m = (machine, machine);
    let (scalar, auto) = run_aligned((&g, &sched, m.0), (&av, &sched, m.1), b.iters);
    let (scalar2, macro_run) = run_aligned(
        (&g, &sched, m.0),
        (&simd.graph, &simd.schedule, m.1),
        b.iters,
    );
    let (scalar3, both_run) = run_aligned(
        (&g, &sched, m.0),
        (&both_graph, &simd.schedule, m.1),
        b.iters,
    );

    // Each pair is throughput-aligned internally; normalize per scalar run.
    Fig10Row {
        name: b.name,
        autovec: scalar.total_cycles() as f64 / auto.total_cycles() as f64,
        macro_simd: scalar2.total_cycles() as f64 / macro_run.total_cycles() as f64,
        macro_plus_auto: scalar3.total_cycles() as f64 / both_run.total_cycles() as f64,
    }
}

/// One benchmark's bar of Figure 11: % improvement of full vertical
/// SIMDization over single-actor-only SIMDization.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Percent improvement (0 when vertical finds nothing).
    pub improvement_pct: f64,
}

/// Figure 11: vertical vs. single-actor-only macro-SIMDization. Both
/// configurations disable horizontal and the tape optimizations so the
/// comparison isolates vertical fusion, as in the paper.
pub fn figure11_row(b: &Benchmark, machine: &Machine) -> Fig11Row {
    let g = (b.build)();
    let single = macro_simdize(&g, machine, &SimdizeOptions::single_only()).expect("single");
    let vertical_opts = SimdizeOptions {
        horizontal: false,
        permute_opt: false,
        reorder_opt: false,
        ..SimdizeOptions::all()
    };
    let full = macro_simdize(&g, machine, &vertical_opts).expect("vertical");
    let (a, c) = run_aligned(
        (&single.graph, &single.schedule, machine),
        (&full.graph, &full.schedule, machine),
        b.iters,
    );
    Fig11Row {
        name: b.name,
        improvement_pct: (a.total_cycles() as f64 / c.total_cycles() as f64 - 1.0) * 100.0,
    }
}

/// One benchmark's bar of Figure 12: % improvement from the SAGU.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Percent improvement of macro-SIMD-with-SAGU over macro-SIMD.
    pub improvement_pct: f64,
}

/// Figure 12: macro-SIMDized code on the plain machine vs. macro-SIMDized
/// code compiled for (and run on) the SAGU-equipped machine.
pub fn figure12_row(b: &Benchmark) -> Fig12Row {
    let base_machine = Machine::core_i7();
    let sagu_machine = Machine::core_i7_with_sagu();
    let g = (b.build)();
    let base = macro_simdize(&g, &base_machine, &SimdizeOptions::all()).expect("base");
    let sagu = macro_simdize(&g, &sagu_machine, &SimdizeOptions::all()).expect("sagu");
    let (a, c) = run_aligned(
        (&base.graph, &base.schedule, &base_machine),
        (&sagu.graph, &sagu.schedule, &sagu_machine),
        b.iters,
    );
    Fig12Row {
        name: b.name,
        improvement_pct: (a.total_cycles() as f64 / c.total_cycles() as f64 - 1.0) * 100.0,
    }
}

/// Figure 13 rows for one benchmark at 2 and 4 cores.
pub fn figure13_rows(b: &Benchmark, machine: &Machine) -> (Figure13Point, Figure13Point) {
    let g = (b.build)();
    let comm = CommModel::default();
    let p2 = figure13_point(&g, machine, 2, &comm, b.iters.min(8)).expect("2 cores");
    let p4 = figure13_point(&g, machine, 4, &comm, b.iters.min(8)).expect("4 cores");
    (p2, p4)
}

/// Geometric mean.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v.ln();
        n += 1;
    }
    (sum / n.max(1) as f64).exp()
}

/// Render a simple aligned table for the binaries' stdout.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_benchsuite::by_name;

    #[test]
    fn fig10_shapes_on_a_sample() {
        let b = by_name("Serpent").unwrap();
        let machine = Machine::core_i7();
        let gcc = figure10_row(&b, &machine, &AutovecConfig::gcc_like(4));
        assert!(
            gcc.macro_simd > gcc.autovec,
            "macro {} vs auto {}",
            gcc.macro_simd,
            gcc.autovec
        );
        assert!(gcc.macro_simd > 1.0);
    }

    #[test]
    fn fig11_matrix_mult_block_wins_big() {
        let machine = Machine::core_i7();
        let row = figure11_row(&by_name("MatrixMultBlock").unwrap(), &machine);
        assert!(row.improvement_pct > 20.0, "got {}", row.improvement_pct);
        let fb = figure11_row(&by_name("FilterBank").unwrap(), &machine);
        assert!(fb.improvement_pct < row.improvement_pct);
    }

    #[test]
    fn fig12_sagu_never_hurts() {
        let row = figure12_row(&by_name("MatrixMult").unwrap());
        assert!(row.improvement_pct >= -0.5, "got {}", row.improvement_pct);
    }

    #[test]
    fn geomean_is_geometric() {
        let g = geomean([1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(&["a", "bench"], &[vec!["1".into(), "x".into()]]);
        assert!(t.contains("bench"));
        assert!(t.lines().count() == 3);
    }
}

/// The Equation-1 scaling ablation (DESIGN.md): compare the paper's
/// minimal repetition-vector scaling against a naive scale-everything-by-
/// `SW` policy, in steady-state latency (total firings per iteration) and
/// aggregate tape buffer capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingAblation {
    /// Equation-1 factor the driver chose.
    pub minimal_factor: u64,
    /// The naive factor (`SW`).
    pub naive_factor: u64,
    /// Firings per steady iteration under minimal scaling.
    pub minimal_firings: u64,
    /// Firings per steady iteration under naive scaling.
    pub naive_firings: u64,
    /// Sum of tape capacities (elements) under minimal scaling.
    pub minimal_buffer_elems: u64,
    /// Sum of tape capacities under naive scaling.
    pub naive_buffer_elems: u64,
}

/// Run the scaling ablation for one benchmark.
///
/// Both policies are applied to the *scalar* steady state (the vectorized
/// actors' later divide-by-`SW` affects both identically, so comparing
/// the undivided schedules is faithful): Equation 1 multiplies by the
/// minimal `M`, the naive policy always multiplies by `SW`.
pub fn scaling_ablation(b: &Benchmark, machine: &Machine) -> ScalingAblation {
    let g = (b.build)();
    let simd = macro_simdize(&g, machine, &SimdizeOptions::all()).expect("simdize");
    let m = simd.report.scale_factor.max(1);
    let sw = machine.simd_width as u64;

    let base = Schedule::compute(&g).expect("schedule");
    let mut minimal = base.clone();
    minimal.scale(m);
    let mut naive = base;
    naive.scale(sw);
    let min_bufs = macross_sdf::buffer_requirements(&g, &minimal);
    let naive_bufs = macross_sdf::buffer_requirements(&g, &naive);
    ScalingAblation {
        minimal_factor: m,
        naive_factor: sw,
        minimal_firings: minimal.total_firings(),
        naive_firings: naive.total_firings(),
        minimal_buffer_elems: min_bufs.iter().map(|b| b.capacity).sum(),
        naive_buffer_elems: naive_bufs.iter().map(|b| b.capacity).sum(),
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;
    use macross_benchsuite::by_name;

    #[test]
    fn minimal_scaling_never_exceeds_naive() {
        let machine = Machine::core_i7();
        for name in ["FMRadio", "DCT", "MatrixMult", "TDE"] {
            let r = scaling_ablation(&by_name(name).unwrap(), &machine);
            assert!(r.minimal_factor <= r.naive_factor, "{name}: {r:?}");
            assert!(r.minimal_firings <= r.naive_firings, "{name}: {r:?}");
            assert!(
                r.minimal_buffer_elems <= r.naive_buffer_elems,
                "{name}: {r:?}"
            );
        }
    }

    /// At least one benchmark must genuinely profit from Equation 1 (i.e.
    /// the minimal factor is strictly smaller than SW), or the machinery
    /// would be pointless.
    #[test]
    fn equation1_is_sometimes_strictly_better() {
        let machine = Machine::core_i7();
        let better = macross_benchsuite::all().iter().any(|b| {
            let r = scaling_ablation(b, &machine);
            r.minimal_factor < r.naive_factor && r.minimal_buffer_elems < r.naive_buffer_elems
        });
        assert!(better, "no benchmark profits from minimal scaling");
    }
}

// ---------------------------------------------------------------------------
// Wall-clock timing harness for the `harness = false` benches.

/// Format a nanosecond count with a human unit.
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Run `f` twice for warm-up, then `samples` timed rounds, and print the
/// median and minimum wall-clock time under `label`. The return value is
/// passed through [`std::hint::black_box`] so the work is not elided.
pub fn time_case<T>(label: &str, samples: usize, mut f: impl FnMut() -> T) {
    for _ in 0..2 {
        std::hint::black_box(f());
    }
    let mut ns: Vec<u128> = (0..samples.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    println!(
        "{label:<48} median {:>10}  min {:>10}  ({} samples)",
        fmt_ns(ns[ns.len() / 2]),
        fmt_ns(ns[0]),
        ns.len()
    );
}
