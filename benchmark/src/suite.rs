//! The 16 suite programs as the workloads use them: graphs, aligned
//! schedules, the tree-walk oracle, and the two sequential operations.

use crate::trace::{NodeClass, Tracer};
use macross::driver::{macro_simdize, SimdizeOptions, SimdizeReport};
use macross_benchsuite::Benchmark;
use macross_sdf::Schedule;
use macross_streamir::graph::{Graph, Node};
use macross_streamir::types::Value;
use macross_vm::{CompiledPrograms, ExecMode, Executor, Machine};
use std::time::Instant;

/// Iteration block of the sequential workloads: `b.iters x` this.
/// Sized once on the seed machine (2-core Xeon 2.1 GHz, avx2 tier) so a
/// pass over the 16 programs takes ~75 ms SIMDized and ~120 ms scalar;
/// never calibrated at run time, so both sides of a comparison do the
/// same work per pass.
pub const BLOCK_MULT: u64 = 16;

/// One suite program, prepared for every workload.
pub struct Prog {
    pub name: &'static str,
    /// `Benchmark::iters`, the suite's own block size.
    pub base_iters: u64,
    pub scalar: Graph,
    /// Scalar schedule scaled to the SIMD schedule's source rate, so one
    /// iteration delivers the same sink elements on both graphs (the
    /// `lcm` scaling the differential tests use).
    pub ssched: Schedule,
    pub simd: Graph,
    /// SIMD schedule, source-aligned with `ssched`.
    pub vsched: Schedule,
    /// SIMD schedule as `macro_simdize` returned it (what the service
    /// and a cold CLI run execute).
    pub vsched_raw: Schedule,
    pub report: SimdizeReport,
}

/// Build, validate, schedule and SIMDize one program, a span per call.
pub fn prepare(b: &Benchmark, machine: &Machine, tr: &mut Tracer) -> Result<Prog, String> {
    let s = tr.begin("streamir.build");
    let scalar = (b.build)();
    tr.end(s);
    let s = tr.begin("streamir.validate");
    let valid = scalar.validate();
    tr.end(s);
    valid.map_err(|e| format!("{}: {e}", b.name))?;
    let s = tr.begin("sdf.schedule");
    let ssched = Schedule::compute(&scalar);
    tr.end(s);
    let mut ssched = ssched.map_err(|e| format!("{}: {e}", b.name))?;
    let s = tr.begin("core.simdize");
    let simd = macro_simdize(&scalar, machine, &SimdizeOptions::all());
    tr.end(s);
    let simd = simd.map_err(|e| format!("{}: {e}", b.name))?;

    let src = scalar
        .node_ids()
        .find(|&id| scalar.in_edges(id).is_empty())
        .ok_or_else(|| format!("{}: no source", b.name))?;
    let vsrc = simd.schedule.reps[src.0 as usize].max(1);
    let l = macross_sdf::lcm(ssched.rep(src), vsrc);
    ssched.scale(l / ssched.rep(src));
    let mut vsched = simd.schedule.clone();
    vsched.scale(l / vsrc);
    Ok(Prog {
        name: b.name,
        base_iters: b.iters,
        scalar,
        ssched,
        simd: simd.graph,
        vsched,
        vsched_raw: simd.schedule,
        report: simd.report,
    })
}

/// [`prepare`] for the whole suite.
pub fn prepare_all(machine: &Machine, tr: &mut Tracer) -> Result<Vec<Prog>, String> {
    macross_benchsuite::all()
        .iter()
        .map(|b| prepare(b, machine, tr))
        .collect()
}

/// Sink elements `iters` steady iterations (after the init schedule)
/// deliver under `sched`.
pub fn expected_elems(graph: &Graph, sched: &Schedule, iters: u64) -> usize {
    graph
        .nodes()
        .filter(|(_, n)| matches!(n, Node::Sink))
        .map(|(id, _)| sched.init_reps[id.0 as usize] + iters * sched.reps[id.0 as usize])
        .sum::<u64>() as usize
}

pub fn node_classes(graph: &Graph) -> Vec<NodeClass> {
    graph
        .nodes()
        .map(|(_, n)| match n {
            Node::Filter(_) => NodeClass::Filter,
            Node::Splitter(_) | Node::Joiner(_) => NodeClass::SplitJoin,
            Node::HSplitter { .. } | Node::HJoiner { .. } => NodeClass::HSplitJoin,
            Node::Sink => NodeClass::Sink,
        })
        .collect()
}

/// Reference sink stream of at least `min_elems` elements:
/// `ExecMode::TreeWalk` on a freshly built scalar graph under its own
/// schedule — never the SIMDizer, the bytecode compiler or a kernel.
pub fn oracle_stream(
    build: fn() -> Graph,
    machine: &Machine,
    min_elems: usize,
) -> Result<Vec<Value>, String> {
    let g = build();
    let sched = Schedule::compute(&g).map_err(|e| e.to_string())?;
    let per_iter = expected_elems(&g, &sched, 1) - expected_elems(&g, &sched, 0);
    if per_iter == 0 {
        return Err("program delivers no sink elements".into());
    }
    let iters = min_elems.div_ceil(per_iter) as u64;
    let mut ex = Executor::with_mode(&g, &sched, machine, ExecMode::TreeWalk);
    ex.run(iters).map_err(|e| e.to_string())?;
    Ok(ex.output_flat())
}

/// What one operation delivered, to be checked outside the timed span.
pub struct Output {
    /// Index into [`Refs::streams`].
    pub reference: usize,
    /// Length the schedule says the output must have; `None` when the
    /// whole reference is the expected output (dynamic sessions).
    pub expect_len: Option<usize>,
    pub values: Vec<Value>,
}

/// Reference streams: the suite programs first (suite order), then one
/// per distinct dynamic-session script.
#[derive(Default)]
pub struct Refs {
    pub streams: Vec<Vec<Value>>,
}

impl Refs {
    /// Bit-equal to the reference prefix, and exactly as long as the
    /// schedule says it must be.
    pub fn verify(&self, out: &Output) -> bool {
        let reference = &self.streams[out.reference];
        out.values.len() == out.expect_len.unwrap_or(reference.len())
            && out.values.len() <= reference.len()
            && out.values.iter().zip(reference).all(|(a, b)| a.bits_eq(*b))
    }
}

/// One sequential operation: a fresh executor over shared compiled
/// programs, the init schedule, `iters` steady iterations, the output.
/// Traced, it walks `order x reps` itself and times every node's
/// firings (one clock pair per node per iteration).
pub fn seq_op(
    graph: &Graph,
    sched: &Schedule,
    machine: &Machine,
    programs: &CompiledPrograms,
    iters: u64,
    classes: &[NodeClass],
    tr: &mut Tracer,
) -> Result<Vec<Value>, String> {
    let s = tr.begin("vm.executor_new");
    let mut ex = Executor::with_programs(graph, sched, machine, programs);
    tr.end(s);
    let s = tr.begin("vm.init");
    let r = ex.run_init();
    tr.end(s);
    r.map_err(|e| e.to_string())?;
    let s = tr.begin("vm.steady");
    let r = if tr.enabled() {
        let mut per_node = vec![(0u64, 0u64); graph.node_count()];
        let r = walk_steady(&mut ex, sched, iters, &mut per_node);
        tr.fires(&per_node, classes);
        r
    } else {
        ex.run_steady(iters).map_err(|e| e.to_string())
    };
    tr.end(s);
    r?;
    let s = tr.begin("vm.collect");
    let out = ex.output_flat();
    tr.end(s);
    Ok(out)
}

fn walk_steady(
    ex: &mut Executor<'_>,
    sched: &Schedule,
    iters: u64,
    per_node: &mut [(u64, u64)],
) -> Result<(), String> {
    for _ in 0..iters {
        for &id in &sched.order {
            let reps = sched.reps[id.0 as usize];
            let t = Instant::now();
            for _ in 0..reps {
                ex.fire(id).map_err(|e| e.to_string())?;
            }
            let slot = &mut per_node[id.0 as usize];
            slot.0 += reps;
            slot.1 += t.elapsed().as_nanos() as u64;
        }
    }
    Ok(())
}

/// One cold start-to-first-results: everything a CLI user pays per run
/// and the service pays per cache miss. `reference` is the program's
/// index in [`Refs::streams`].
pub fn cold_op(
    reference: usize,
    b: &Benchmark,
    machine: &Machine,
    tr: &mut Tracer,
) -> Result<Output, String> {
    let prog = prepare(b, machine, tr)?;
    let s = tr.begin("vm.compile_fused");
    let programs = CompiledPrograms::compile(&prog.simd, machine, ExecMode::Bytecode);
    tr.end(s);
    let classes = if tr.enabled() {
        node_classes(&prog.simd)
    } else {
        Vec::new()
    };
    let values = seq_op(
        &prog.simd,
        &prog.vsched_raw,
        machine,
        &programs,
        b.iters,
        &classes,
        tr,
    )?;
    Ok(Output {
        reference,
        expect_len: Some(expected_elems(&prog.simd, &prog.vsched_raw, b.iters)),
        values,
    })
}
