//! The traced run: every per-layer number, in one process.
//!
//! Whatever `--workload` names, the traced run sets all the workloads up
//! and takes a few traced passes of each, because the per-layer table is
//! one ledger: a row is only worth reading next to the others, measured
//! minutes apart on the same machine. `--workload` picks whose spans go
//! to `results/TRACE_<workload>_<seed>.json` and whose tracing overhead
//! and coverage are reported.

use crate::host;
use crate::names::{self, prog_metric};
use crate::run::{build_refs, tabulate, Outcome, RunConfig, Stopwatch, Tally};
use crate::stats::{self, Rng};
use crate::suite::{Prog, Refs};
use crate::trace::{NodeClass, Tracer};
use crate::workloads::{
    ColdLoad, Load, PassOut, RefSpec, SeqLoad, ServiceLoad, ThreadedLoad, ThreadedSample, Workload,
    COLD_SWEEPS,
};
use macross_sdf::{buffer_requirements, Schedule};
use macross_streamir::graph::{Graph, Node};
use macross_streamir::structural_hash;
use macross_vm::{CompiledPrograms, ExecMode, Executor, Machine};
use std::collections::BTreeMap;
use std::time::Instant;

/// Traced passes per workload (1 with `--quick`).
const TRACED_PASSES: usize = 5;
/// Back-to-back repetitions behind every engine and SIMD ratio (1 with
/// `--quick`).
const RATIO_REPS: usize = 5;

struct Ledger {
    values: BTreeMap<String, f64>,
}

impl Ledger {
    fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

/// Pass times and outputs of one workload's traced passes.
#[derive(Default)]
struct Passes {
    traced_ms: Vec<f64>,
    /// Filled when the passes were paired (see [`traced_passes`]).
    untraced_ms: Vec<f64>,
    outs: Vec<PassOut>,
}

/// What every section of the traced run shares.
struct Bench {
    refs: Refs,
    tally: Tally,
    /// Scales each timed span by the machine probes around it.
    watch: Stopwatch,
    rng: Rng,
}

/// Run `passes` passes of `load` under `tr`, checking every output.
/// With `paired`, every traced pass follows an untraced one: the pairs
/// behind `bench.trace_overhead_share`.
fn traced_passes(
    load: &mut dyn Load,
    passes: usize,
    paired: bool,
    tr: &mut Tracer,
    b: &mut Bench,
) -> Passes {
    let mut p = Passes::default();
    for _ in 0..passes {
        if paired {
            let (t, out) = b.watch.time(|| load.pass(&mut b.rng, &mut Tracer::off()));
            p.untraced_ms.push(t.ms);
            b.tally.check(&out, &b.refs);
        }
        let (t, out) = b.watch.time(|| load.pass(&mut b.rng, tr));
        p.traced_ms.push(t.ms);
        b.tally.check(&out, &b.refs);
        p.outs.push(out);
    }
    p
}

/// Microseconds per sweep spent in spans called `name`.
fn us_per(tr: &Tracer, name: &str, sweeps: usize) -> f64 {
    tr.by_name()
        .get(name)
        .map_or(0.0, |t| t.dur_ns as f64 / 1e3 / sweeps.max(1) as f64)
}

/// Durations of every span called `name`, in `unit_ns` units.
fn durations(tr: &Tracer, name: &str, unit_ns: f64) -> Vec<f64> {
    tr.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / unit_ns)
        .collect()
}

/// Tokens (and bytes) crossing every tape in one steady iteration.
fn tape_traffic(graph: &Graph, sched: &Schedule) -> (u64, u64) {
    graph.edges().fold((0, 0), |(elems, bytes), (_, e)| {
        let n = sched.reps[e.src.0 as usize] * graph.node(e.src).push_rate(e.src_port) as u64;
        (elems + n, bytes + n * e.elem.size_bytes() as u64)
    })
}

/// Modelled cycles of one steady iteration (init excluded, as `fig10`).
fn modelled_cycles_per_iter(
    graph: &Graph,
    sched: &Schedule,
    machine: &Machine,
    programs: &CompiledPrograms,
    iters: u64,
) -> Result<f64, String> {
    let mut ex = Executor::with_programs(graph, sched, machine, programs);
    ex.run_init().map_err(|e| e.to_string())?;
    ex.reset_counters();
    ex.run_steady(iters).map_err(|e| e.to_string())?;
    Ok(ex.total_cycles() as f64 / iters as f64)
}

/// Median-of-`reps` probe-scaled ns per iteration of every program under
/// each load, the loads taken back to back on one program before the
/// next. (Not best-of: the minimum of probe-scaled times selects for the
/// probe's own jitter.)
fn ns_per_iter(loads: &[&SeqLoad], reps: usize, b: &mut Bench) -> Vec<Vec<f64>> {
    let n = loads[0].progs.len();
    let mut median = vec![Vec::with_capacity(n); loads.len()];
    let mut off = Tracer::off();
    for i in 0..n {
        let mut samples = vec![Vec::with_capacity(reps); loads.len()];
        for _ in 0..reps {
            for (load, samples) in loads.iter().zip(&mut samples) {
                let (t, r) = b.watch.time(|| load.op(i, &mut off));
                let mut out = PassOut::default();
                match r {
                    Ok(o) => out.outputs.push(o),
                    Err(e) => out.errors.push(e),
                }
                b.tally.check(&out, &b.refs);
                samples.push(t.ms * 1e6 / SeqLoad::iters(&load.progs[i]) as f64);
            }
        }
        for (median, samples) in median.iter_mut().zip(&samples) {
            median.push(stats::median(samples));
        }
    }
    median
}

fn ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter()
        .zip(den)
        .map(|(a, b)| stats::ratio(*a, *b))
        .collect()
}

fn filter_count(g: &Graph) -> usize {
    g.nodes()
        .filter(|(_, n)| matches!(n, Node::Filter(_)))
        .count()
}

fn structure_counts(l: &mut Ledger, simd: &SeqLoad) {
    let progs: &[Prog] = &simd.progs;
    let sum = |f: &dyn Fn(&Prog) -> usize| progs.iter().map(f).sum::<usize>() as f64;
    l.put("streamir.simd_nodes", sum(&|p| p.simd.node_count()));
    l.put("streamir.simd_edges", sum(&|p| p.simd.edge_count()));
    l.put(
        "sdf.steady_firings",
        progs.iter().map(|p| p.vsched.total_firings()).sum::<u64>() as f64,
    );
    l.put(
        "sdf.tape_bytes",
        progs
            .iter()
            .map(|p| {
                buffer_requirements(&p.simd, &p.vsched)
                    .iter()
                    .zip(p.simd.edges())
                    .map(|(req, (_, e))| req.capacity * e.elem.size_bytes() as u64)
                    .sum::<u64>()
            })
            .sum::<u64>() as f64,
    );
    l.put("core.single_actors", sum(&|p| p.report.single_actors.len()));
    l.put(
        "core.vertical_chains",
        sum(&|p| p.report.vertical_chains.len()),
    );
    l.put(
        "core.horizontal_groups",
        sum(&|p| p.report.horizontal_groups.len()),
    );
    l.put("core.region_actors", sum(&|p| p.report.region_actors.len()));
    let compiled: usize = simd.programs.iter().map(|c| c.compiled_count()).sum();
    l.put("vm.filters_compiled", compiled as f64);
    l.put(
        "vm.filters_treewalk",
        sum(&|p| filter_count(&p.simd)) - compiled as f64,
    );
    l.put(
        "vm.kernels_fused",
        simd.programs
            .iter()
            .map(|c| c.kernel_total())
            .sum::<usize>() as f64,
    );
}

fn threaded_metrics(
    l: &mut Ledger,
    load: &ThreadedLoad,
    samples: &[&ThreadedSample],
    passes: usize,
    simd_ns: &[f64],
) {
    let n = load.progs.len();
    let mut best = vec![f64::MAX; n];
    for s in samples {
        best[s.prog] = best[s.prog].min(s.outside_ns as f64 / s.iters as f64);
    }
    for (p, ns) in load.progs.iter().zip(&best) {
        l.put(&prog_metric(p.name, "threaded_ns_per_iter"), *ns);
    }
    let measured = ratios(simd_ns, &best);
    let modelled: Vec<f64> = load.plans.iter().map(|p| p.modelled_speedup()).collect();
    l.put(
        "multicore.cut_edges",
        load.plans.iter().map(|p| p.cut_edges).sum::<usize>() as f64,
    );
    l.put(
        "multicore.fissioned",
        load.plans.iter().filter(|p| p.fissioned > 0).count() as f64,
    );
    l.put(
        "multicore.modelled_speedup_geomean",
        stats::geomean(&modelled),
    );
    l.put(
        "multicore.model_error_geomean",
        stats::geomean(&ratios(&measured, &modelled)),
    );
    l.put(
        "runtime.threaded_over_seq_geomean",
        stats::geomean(&measured),
    );
    let launch: Vec<f64> = samples
        .iter()
        .map(|s| s.outside_ns.saturating_sub(s.report.wall_nanos) as f64 / 1e6)
        .collect();
    l.put("runtime.launch_ms", stats::median(&launch));
    let total =
        |f: &dyn Fn(&ThreadedSample) -> u64| samples.iter().map(|s| f(s)).sum::<u64>() as f64;
    l.put(
        "runtime.ring_elems_per_pass",
        total(&|s| s.report.ring_traffic()) / passes as f64,
    );
    l.put(
        "runtime.stalls_per_iter",
        stats::ratio(total(&|s| s.report.total_stalls()), total(&|s| s.iters)),
    );
    l.put(
        "runtime.stall_ns_share",
        stats::ratio(
            total(&|s| s.report.total_stall_nanos()),
            total(&|s| s.report.core_nanos.iter().sum()),
        ),
    );
    l.put(
        "runtime.batched_firings_share",
        stats::ratio(
            total(&|s| s.report.stages.iter().map(|st| st.batched_firings).sum()),
            total(&|s| s.report.stages.iter().map(|st| st.firings).sum()),
        ),
    );
}

fn service_metrics(l: &mut Ledger, tr: &Tracer) {
    let p50 = |name: &str, unit_ns: f64| stats::median(&durations(tr, name, unit_ns));
    l.put("service.submit_us_p50", p50("service.submit", 1e3));
    l.put("service.feed_us_p50", p50("service.feed", 1e3));
    l.put("service.close_wait_ms_p50", p50("service.close", 1e6));
    l.put("pdf.set_param_us_p50", p50("pdf.set_param", 1e3));
    // A session runs from its first call's start to its close's return.
    let mut sessions: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.parent != 0) {
        let e = sessions.entry(s.op).or_insert((u64::MAX, 0));
        e.0 = e.0.min(s.start_ns);
        e.1 = e.1.max(s.end_ns);
    }
    let ms = stats::sorted(
        &sessions
            .values()
            .map(|(a, b)| (b - a) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    l.put("service.session_ms_p50", stats::percentile(&ms, 50.0));
    l.put("service.session_ms_p99", stats::percentile(&ms, 99.0));
    let wave_s: f64 = durations(tr, "service.wave", 1e9).iter().sum();
    l.put(
        "service.sessions_per_s",
        stats::ratio(sessions.len() as f64, wave_s),
    );
}

pub fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let machine = Machine::core_i7();
    let header = host::header(cfg.workload.name(), cfg.seed, cfg.seconds, true);
    let (passes, reps) = if cfg.quick {
        (1, 1)
    } else {
        (TRACED_PASSES, RATIO_REPS)
    };
    let mut l = Ledger {
        values: BTreeMap::new(),
    };
    let mut off = Tracer::off();

    // Set-up, traced only where a set-up call is itself a metric.
    let mut simd = SeqLoad::setup(&machine, true, &mut off)?;
    let mut scalar = SeqLoad::setup(&machine, false, &mut off)?;
    let mut cold = ColdLoad::setup(&machine, &mut off)?;
    let mut plan_tr = Tracer::on();
    let mut threaded = ThreadedLoad::setup(&machine, &mut plan_tr)?;
    l.put("multicore.plan_us", us_per(&plan_tr, "multicore.plan", 1));
    let mut service = ServiceLoad::setup(&machine, &mut off)?;

    let t = Instant::now();
    let specs: Vec<RefSpec> = [simd.refs(), cold.refs(), threaded.refs(), service.refs()]
        .into_iter()
        .flatten()
        .collect();
    let refs = build_refs(&specs, &machine)?;
    l.put("bench.oracle_s", t.elapsed().as_secs_f64());
    let mut b = Bench {
        refs,
        tally: Tally::default(),
        watch: Stopwatch::new(),
        rng: Rng::new(cfg.seed),
    };

    let own = |w: Workload| cfg.workload == w;

    // compile_cold: the compile phases.
    let mut cold_tr = Tracer::on();
    let cold_p = traced_passes(
        &mut cold,
        passes,
        own(Workload::CompileCold),
        &mut cold_tr,
        &mut b,
    );
    let sweeps = passes * COLD_SWEEPS;
    for (metric, span) in [
        ("streamir.build_us", "streamir.build"),
        ("streamir.validate_us", "streamir.validate"),
        ("sdf.schedule_us", "sdf.schedule"),
        ("core.simdize_us", "core.simdize"),
        ("vm.compile_fused_us", "vm.compile_fused"),
    ] {
        l.put(metric, us_per(&cold_tr, span, sweeps));
    }
    // Two calls no workload makes by itself, over the same sweep count.
    let mut extra = Tracer::on();
    for _ in 0..sweeps {
        for p in &simd.progs {
            let s = extra.begin("streamir.shash");
            std::hint::black_box(structural_hash(&p.scalar));
            extra.end(s);
            let s = extra.begin("vm.compile_dispatch");
            std::hint::black_box(CompiledPrograms::compile(
                &p.simd,
                &machine,
                ExecMode::BytecodeNoFuse,
            ));
            extra.end(s);
        }
    }
    l.put(
        "streamir.shash_us",
        us_per(&extra, "streamir.shash", sweeps),
    );
    let dispatch_us = us_per(&extra, "vm.compile_dispatch", sweeps);
    l.put("vm.compile_dispatch_us", dispatch_us);
    l.put("vm.fuse_us", l.values["vm.compile_fused_us"] - dispatch_us);
    structure_counts(&mut l, &simd);

    // suite_simd_seq: firing-level attribution.
    let mut simd_tr = Tracer::on();
    let simd_p = traced_passes(
        &mut simd,
        passes,
        own(Workload::SimdSeq),
        &mut simd_tr,
        &mut b,
    );
    l.put(
        "vm.executor_new_us",
        us_per(&simd_tr, "vm.executor_new", passes),
    );
    l.put("vm.init_us", us_per(&simd_tr, "vm.init", passes));
    let classes = simd_tr.by_class();
    let fire_ns: u64 = classes.values().map(|c| c.1).sum();
    let firings: u64 = classes.values().map(|c| c.0).sum();
    l.put("vm.firings_per_pass", firings as f64 / passes as f64);
    l.put(
        "vm.ns_per_firing",
        stats::ratio(fire_ns as f64, firings as f64),
    );
    for (metric, class) in [
        ("vm.share_filter", NodeClass::Filter),
        ("vm.share_splitjoin", NodeClass::SplitJoin),
        ("vm.share_hsplitjoin", NodeClass::HSplitJoin),
        ("vm.share_sink", NodeClass::Sink),
    ] {
        let ns = classes.get(&class).map_or(0, |c| c.1);
        l.put(metric, stats::ratio(ns as f64, fire_ns as f64));
    }
    let (tape_elems, tape_bytes) = simd.progs.iter().fold((0, 0), |(e, b), p| {
        let (pe, pb) = tape_traffic(&p.simd, &p.vsched);
        (e + pe * SeqLoad::iters(p), b + pb * SeqLoad::iters(p))
    });
    let fire_ns_per_pass = fire_ns as f64 / passes as f64;
    l.put("vm.tape_elems_per_pass", tape_elems as f64);
    l.put(
        "vm.ns_per_tape_elem",
        stats::ratio(fire_ns_per_pass, tape_elems as f64),
    );

    // suite_scalar_seq is traced only for its own trace file.
    let mut scalar_tr = Tracer::on();
    let mut scalar_p = Passes::default();
    if own(Workload::ScalarSeq) {
        scalar_p = traced_passes(&mut scalar, passes, true, &mut scalar_tr, &mut b);
    }

    // Engine and SIMD ratios, back to back on identical blocks.
    let simd_nofuse = SeqLoad::with_mode(&machine, true, ExecMode::BytecodeNoFuse, &mut off)?;
    let simd_tree = SeqLoad::with_mode(&machine, true, ExecMode::TreeWalk, &mut off)?;
    let scalar_nofuse = SeqLoad::with_mode(&machine, false, ExecMode::BytecodeNoFuse, &mut off)?;
    let ns = ns_per_iter(
        &[&simd, &simd_nofuse, &simd_tree, &scalar, &scalar_nofuse],
        reps,
        &mut b,
    );
    let (simd_ns, scalar_ns) = (&ns[0], &ns[3]);
    for (i, p) in simd.progs.iter().enumerate() {
        l.put(&prog_metric(p.name, "simd_ns_per_iter"), simd_ns[i]);
        l.put(&prog_metric(p.name, "scalar_ns_per_iter"), scalar_ns[i]);
    }
    let mut simd_cycles = Vec::new();
    let mut scalar_cycles = Vec::new();
    for (i, p) in simd.progs.iter().enumerate() {
        simd_cycles.push(modelled_cycles_per_iter(
            &p.simd,
            &p.vsched,
            &machine,
            &simd.programs[i],
            p.base_iters,
        )?);
        scalar_cycles.push(modelled_cycles_per_iter(
            &p.scalar,
            &p.ssched,
            &machine,
            &scalar.programs[i],
            p.base_iters,
        )?);
    }
    let speedup = stats::geomean(&ratios(scalar_ns, simd_ns));
    let modelled = stats::geomean(&ratios(&scalar_cycles, &simd_cycles));
    l.put("core.simd_speedup_geomean", speedup);
    l.put("core.simd_speedup_modelled_geomean", modelled);
    l.put(
        "core.simd_speedup_model_error",
        stats::ratio(speedup, modelled),
    );
    l.put(
        "vm.fused_over_dispatch_geomean",
        stats::geomean(&ratios(&ns[1], simd_ns)),
    );
    l.put(
        "vm.fused_over_dispatch_scalar_geomean",
        stats::geomean(&ratios(&ns[4], scalar_ns)),
    );
    l.put(
        "vm.bytecode_over_treewalk_geomean",
        stats::geomean(&ratios(&ns[2], simd_ns)),
    );
    let ns_per_cycle = stats::sorted(&ratios(simd_ns, &simd_cycles));
    l.put(
        "vm.ns_per_modelled_cycle_geomean",
        stats::geomean(&ns_per_cycle),
    );
    l.put(
        "vm.model_error_spread",
        stats::ratio(
            ns_per_cycle.last().copied().unwrap_or(0.0),
            ns_per_cycle.first().copied().unwrap_or(0.0),
        ),
    );

    // suite_simd_threaded2: placement and rings.
    let mut thr_tr = Tracer::on();
    let thr_p = traced_passes(
        &mut threaded,
        passes,
        own(Workload::Threaded2),
        &mut thr_tr,
        &mut b,
    );
    let samples: Vec<&ThreadedSample> = thr_p.outs.iter().flat_map(|o| &o.threaded).collect();
    threaded_metrics(&mut l, &threaded, &samples, passes, simd_ns);

    // service_sessions: admission, caches, reconfiguration.
    let cache0 = service.service.cache_stats();
    let scache0 = service.service.schedule_cache_stats();
    let mut svc_tr = Tracer::on();
    let svc_p = traced_passes(
        &mut service,
        passes,
        own(Workload::Service),
        &mut svc_tr,
        &mut b,
    );
    let cache1 = service.service.cache_stats();
    let scache1 = service.service.schedule_cache_stats();
    service_metrics(&mut l, &svc_tr);
    l.put(
        "service.cache_hit_rate",
        stats::ratio(
            (cache1.hits - cache0.hits) as f64,
            (cache1.submits - cache0.submits) as f64,
        ),
    );
    l.put("service.compilations", cache1.compilations as f64);
    l.put("service.refusals", service.refusals as f64);
    let reconfigs = scache1.reconfigurations - scache0.reconfigurations;
    // Paired untraced passes went through the same service.
    let service_passes = svc_p.traced_ms.len() + svc_p.untraced_ms.len();
    l.put("pdf.reconfigs", reconfigs as f64 / service_passes as f64);
    l.put(
        "pdf.scache_hit_rate",
        stats::ratio((scache1.hits - scache0.hits) as f64, reconfigs as f64),
    );
    Box::new(service).finish();

    // The machine, and the tapes as a fraction of it.
    let bw = host::stream_probe();
    l.put("bench.stream_copy_gbs", bw.copy_gbs);
    l.put("bench.stream_triad_gbs", bw.triad_gbs);
    l.put(
        "bench.tape_bandwidth_share",
        stats::ratio(
            stats::ratio(tape_bytes as f64, fire_ns_per_pass),
            bw.copy_gbs,
        ),
    );

    // The named workload's own trace.
    let (own_tr, own_p) = match cfg.workload {
        Workload::SimdSeq => (&simd_tr, &simd_p),
        Workload::ScalarSeq => (&scalar_tr, &scalar_p),
        Workload::CompileCold => (&cold_tr, &cold_p),
        Workload::Threaded2 => (&thr_tr, &thr_p),
        Workload::Service => (&svc_tr, &svc_p),
    };
    l.put(
        "bench.trace_overhead_share",
        stats::ratio(
            stats::median(&own_p.traced_ms),
            stats::median(&own_p.untraced_ms),
        ) - 1.0,
    );
    l.put("bench.trace_coverage_share", own_tr.coverage());
    let path = format!(
        concat!(env!("CARGO_MANIFEST_DIR"), "/results/TRACE_{}_{}.json"),
        cfg.workload.name(),
        cfg.seed
    );
    write_trace(&path, own_tr, &header)?;
    println!("trace written to {path}");
    for (name, t) in own_tr.by_name() {
        println!(
            "span {name} count {} self_ms {} total_ms {}",
            t.count,
            t.self_ns as f64 / 1e6,
            t.dur_ns as f64 / 1e6
        );
    }
    // One row per program: measured ns next to the models' claims.
    println!(
        "program scalar_ns_per_iter simd_ns_per_iter threaded_ns_per_iter \
         scalar_cycles_per_iter simd_cycles_per_iter modelled_simd_speedup \
         modelled_threaded_speedup"
    );
    for (i, p) in simd.progs.iter().enumerate() {
        println!(
            "program {} {:.0} {:.0} {:.0} {:.0} {:.0} {:.3} {:.3}",
            p.name,
            scalar_ns[i],
            simd_ns[i],
            l.values[&prog_metric(p.name, "threaded_ns_per_iter")],
            scalar_cycles[i],
            simd_cycles[i],
            stats::ratio(scalar_cycles[i], simd_cycles[i]),
            threaded.plans[i].modelled_speedup(),
        );
    }

    Ok(Outcome {
        header,
        metrics: tabulate(&names::per_layer(), &l.values)?,
        attempted: b.tally.attempted,
        failed: b.tally.failed,
        noisy: host::noisy(&b.watch.probes_ms),
        passes,
        info: Vec::new(),
    })
}

fn write_trace(
    path: &str,
    tr: &Tracer,
    header: &macross_telemetry::json::Json,
) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, tr.to_json(header.clone()).to_string_compact())
        .map_err(|e| format!("{path}: {e}"))
}
