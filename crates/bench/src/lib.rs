//! # macross-bench
//!
//! The experiment harness: one reusable routine per figure of the paper's
//! evaluation (Section 5), shared by the figure binaries (`fig10`..`fig13`)
//! and the integration tests that assert the paper's result *shapes*.
//!
//! Each figure has a *modelled* row — the VM's Core-i7 cycle model, the
//! host auto-vectorizer presets, the partitioner's makespans — and Figs.
//! 10, 11 and 13 also have a *measured* bar: the same programs run on
//! this host's bytecode VM and timed by [`best_of`]. Fig. 12 stays
//! modelled (the SAGU is hardware no host has).

pub mod replay;

use macross::driver::{macro_simdize, SimdizeOptions, Simdized};
use macross_autovec::{autovectorize_graph, AutovecConfig};
use macross_benchsuite::Benchmark;
use macross_multicore::{figure13_point, CommModel, Figure13Point};
use macross_runtime::{run_threaded_placed, Placement};
use macross_sdf::Schedule;
use macross_streamir::graph::Graph;
use macross_vm::{run_scheduled, CompiledPrograms, ExecMode, Executor, Machine, RunResult};
use std::path::PathBuf;
use std::time::Instant;

/// Where `service_soak` and `dynamic_rate` write their `SERVICE_*.json`
/// reports: `MACROSS_BENCH_DIR` when it is set; unset, none is written.
pub fn bench_dir() -> Option<PathBuf> {
    std::env::var_os("MACROSS_BENCH_DIR").map(PathBuf::from)
}

/// Source firings per steady iteration of `s`.
fn source_reps(g: &Graph, s: &Schedule) -> u64 {
    let src = g
        .node_ids()
        .find(|&id| g.in_edges(id).is_empty())
        .expect("source");
    s.reps[src.0 as usize]
}

/// Two programs' schedules scaled to one source throughput: a steady
/// iteration of either fires its source equally often, so costs per
/// iteration compare directly.
fn aligned_schedules(
    (g1, s1): (&Graph, &Schedule),
    (g2, s2): (&Graph, &Schedule),
) -> (Schedule, Schedule) {
    let (r1, r2) = (source_reps(g1, s1), source_reps(g2, s2));
    let l = macross_sdf::lcm(r1, r2);
    let (mut s1, mut s2) = (s1.clone(), s2.clone());
    s1.scale(l / r1);
    s2.scale(l / r2);
    (s1, s2)
}

/// Align two scheduled programs to identical source throughput and run
/// each on its own machine description (modelled cycles).
pub fn run_aligned(
    (g1, s1, m1): (&Graph, &Schedule, &Machine),
    (g2, s2, m2): (&Graph, &Schedule, &Machine),
    iters: u64,
) -> (RunResult, RunResult) {
    let (s1, s2) = aligned_schedules((g1, s1), (g2, s2));
    (
        run_scheduled(g1, &s1, m1, iters).expect("run failed"),
        run_scheduled(g2, &s2, m2, iters).expect("run failed"),
    )
}

// ---------------------------------------------------------------------------
// Measured bars.

/// Timed tries per measured bar; the fastest counts.
pub const TRIES: usize = 7;

/// Source-aligned steady iterations one try of a measured bar runs: the
/// benchmark's own `iters`, 16 times over.
fn measured_iters(b: &Benchmark) -> u64 {
    b.iters * 16
}

/// The one timer behind every measured bar, after SNIPPETS.md snippet 2:
/// the best of a fixed number of tries over a fixed amount of work. Each
/// closure runs once untimed, then [`TRIES`] rounds time every closure
/// once in turn, so a burst of host noise lands on all the configurations
/// being compared rather than on one of them.
///
/// Returns, per closure, the fastest call's wall nanoseconds and the
/// smallest of the inner spans it returned — the steady phase it timed
/// itself, 0 if it has none.
pub fn best_of<const N: usize>(mut runs: [&mut dyn FnMut() -> u64; N]) -> [(f64, f64); N] {
    for f in runs.iter_mut() {
        std::hint::black_box(f());
    }
    let mut best = [(u64::MAX, u64::MAX); N];
    for _ in 0..TRIES {
        for (f, (call, inner)) in runs.iter_mut().zip(best.iter_mut()) {
            let t = Instant::now();
            *inner = (*inner).min(std::hint::black_box(f()));
            *call = (*call).min(t.elapsed().as_nanos() as u64);
        }
    }
    best.map(|(call, inner)| (call as f64, inner as f64))
}

/// One try of `iters` steady iterations of a compiled program on the
/// sequential bytecode VM: executor set-up and init, then the steady
/// phase, whose nanoseconds it returns.
fn seq_run<'a>(
    g: &'a Graph,
    s: &'a Schedule,
    machine: &'a Machine,
    programs: &'a CompiledPrograms,
    iters: u64,
) -> impl FnMut() -> u64 + 'a {
    move || {
        let mut ex = Executor::with_programs(g, s, machine, programs);
        ex.run_init().expect("measured init failed");
        let t = Instant::now();
        ex.run_steady(iters).expect("measured run failed");
        let steady = t.elapsed().as_nanos() as u64;
        std::hint::black_box(ex.outputs());
        steady
    }
}

/// Measured speedup of the second program over the first: both aligned
/// to one source throughput, compiled, then timed by [`best_of`] over
/// whole calls.
fn measured_speedup(
    base: (&Graph, &Schedule),
    variant: (&Graph, &Schedule),
    machine: &Machine,
    iters: u64,
) -> f64 {
    let (s1, s2) = aligned_schedules(base, variant);
    let compile = |g| CompiledPrograms::compile(g, machine, ExecMode::Bytecode);
    let (p1, p2) = (compile(base.0), compile(variant.0));
    let [(t1, _), (t2, _)] = best_of([
        &mut seq_run(base.0, &s1, machine, &p1, iters),
        &mut seq_run(variant.0, &s2, machine, &p2, iters),
    ]);
    t1 / t2
}

// ---------------------------------------------------------------------------
// Figure 10.

/// One benchmark's modelled row of Figure 10.
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

/// Figure 10's measured macro-SIMD bar: the VM's wall clock running the
/// scalar program over running it macro-SIMDized.
pub fn figure10_measured(b: &Benchmark, machine: &Machine) -> f64 {
    let g = (b.build)();
    let sched = Schedule::compute(&g).expect("schedule");
    let simd = macro_simdize(&g, machine, &SimdizeOptions::all()).expect("simdize");
    measured_speedup(
        (&g, &sched),
        (&simd.graph, &simd.schedule),
        machine,
        measured_iters(b),
    )
}

// ---------------------------------------------------------------------------
// Figure 11.

/// One benchmark's modelled bar of Figure 11: % improvement of full
/// vertical SIMDization over single-actor-only SIMDization.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Percent improvement (0 when vertical finds nothing).
    pub improvement_pct: f64,
}

/// Figure 11's two compilations: single-actor-only and vertical. Both
/// disable horizontal and the tape optimizations so the comparison
/// isolates vertical fusion, as in the paper.
fn figure11_pair(b: &Benchmark, machine: &Machine) -> (Simdized, Simdized) {
    let g = (b.build)();
    let single = macro_simdize(&g, machine, &SimdizeOptions::single_only()).expect("single");
    let vertical_opts = SimdizeOptions {
        horizontal: false,
        permute_opt: false,
        reorder_opt: false,
        ..SimdizeOptions::all()
    };
    let full = macro_simdize(&g, machine, &vertical_opts).expect("vertical");
    (single, full)
}

/// Figure 11: vertical vs. single-actor-only macro-SIMDization.
pub fn figure11_row(b: &Benchmark, machine: &Machine) -> Fig11Row {
    let (single, full) = figure11_pair(b, machine);
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

/// Figure 11's measured bar: the VM's wall clock running the
/// single-actor-only program over running the vertical one (a speedup,
/// not a percentage).
pub fn figure11_measured(b: &Benchmark, machine: &Machine) -> f64 {
    let (single, full) = figure11_pair(b, machine);
    measured_speedup(
        (&single.graph, &single.schedule),
        (&full.graph, &full.schedule),
        machine,
        measured_iters(b),
    )
}

// ---------------------------------------------------------------------------
// Figure 12 (modelled only).

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

// ---------------------------------------------------------------------------
// Figure 13.

/// Figure 13 rows for one benchmark at 2 and 4 cores.
pub fn figure13_rows(b: &Benchmark, machine: &Machine) -> (Figure13Point, Figure13Point) {
    let g = (b.build)();
    let comm = CommModel::default();
    let p2 = figure13_point(&g, machine, 2, &comm, b.iters.min(8)).expect("2 cores");
    let p4 = figure13_point(&g, machine, 4, &comm, b.iters.min(8)).expect("4 cores");
    (p2, p4)
}

/// Figure 13's measured bars for one benchmark: speedups over the
/// sequential scalar run, per whole call and per steady phase.
#[derive(Debug, Clone, Copy)]
pub struct Fig13Measured {
    /// Plain multicore, whole `run_threaded_placed` calls.
    pub multicore_call: f64,
    /// Plain multicore, steady loops (`RuntimeReport::wall_nanos`).
    pub multicore_steady: f64,
    /// Multicore + macro-SIMD, whole calls.
    pub multicore_simd_call: f64,
    /// Multicore + macro-SIMD, steady loops.
    pub multicore_simd_steady: f64,
}

/// Figure 13 measured: run the two placements `p` priced — the LPT
/// partition of the scalar graph and the co-located SIMD graph's colors —
/// through `run_threaded_placed`, and time them against the sequential
/// scalar program. A call spawns its workers and compiles per worker; the
/// steady loops exclude both, like the model.
pub fn figure13_measured(b: &Benchmark, machine: &Machine, p: &Figure13Point) -> Fig13Measured {
    let g = (b.build)();
    let sched = Schedule::compute(&g).expect("schedule");
    let (scalar, simd) = aligned_schedules((&g, &sched), (&p.simd.graph, &p.simd.schedule));
    let iters = measured_iters(b);
    let programs = CompiledPrograms::compile(&g, machine, ExecMode::Bytecode);
    let mc = Placement::whole_stage(p.assignment.clone());
    let ms = Placement::whole_stage(p.simd_colors.clone());
    let threaded = |g: &Graph, s: &Schedule, placement: &Placement| {
        run_threaded_placed(g, s, machine, placement, iters)
            .expect("threaded run failed")
            .report
            .wall_nanos
    };
    let [(base_call, base_steady), (mc_call, mc_steady), (ms_call, ms_steady)] = best_of([
        &mut seq_run(&g, &scalar, machine, &programs, iters),
        &mut || threaded(&g, &scalar, &mc),
        &mut || threaded(&p.simd.graph, &simd, &ms),
    ]);
    Fig13Measured {
        multicore_call: base_call / mc_call,
        multicore_steady: base_steady / mc_steady,
        multicore_simd_call: base_call / ms_call,
        multicore_simd_steady: base_steady / ms_steady,
    }
}

// ---------------------------------------------------------------------------
// Output.

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
