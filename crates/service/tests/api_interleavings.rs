//! Interleaved API calls against a sequential reference. A deterministic
//! xorshift stream issues `submit`, `submit_dynamic`, `feed`,
//! `set_param`, `poll` and `close` calls on a two-shard service whose
//! session cap is small enough that submissions get refused. Each
//! session's polled outputs plus its `close` outputs must be bit-equal to
//! a solo run of what it was fed: a static session against a lone
//! `SessionEngine`, a dynamic one against `oracle_replay` of the script
//! it received, boundaries at the requested count. Every refusal is a
//! typed `Overloaded`, and the cache compiles each distinct shape once.
//!
//! One static session in four carries a random single fault. One that
//! fires quarantines its session, whose outputs must then be its solo
//! clean run cut to `committed_outcome`, while every co-resident session
//! stays bit-equal to its solo run; every seed quarantines at least one.

use macross::{compile_graph, SimdizeOptions};
use macross_pdf::{oracle_replay, ParamGraph, ParamTrace};
use macross_runtime::{
    committed_outcome, FailureCause, FaultKind, FaultPlan, SessionEngine, StageFailure,
};
use macross_service::{ServiceConfig, ServiceError, StreamService};
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::Graph;
use macross_streamir::shash::structural_hash;
use macross_streamir::types::{ScalarTy, Ty, Value};
use macross_streamir::{ParamDomain, RateExpr, Valuation};
use macross_vm::{ExecMode, Machine};
use std::collections::HashSet;
use std::sync::Arc;

const CAP: usize = 3;
const OPS: usize = 400;
const SEEDS: [u64; 4] = [0x9e37_79b9_7f4a_7c15, 0x2545_f491_4f6c_dd1d, 7, 1 << 40];

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A stateful counter scaled by `mul`: one shape per multiplier.
fn counter(mul: i32) -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(move |b| {
        b.push(v(n) * mul);
        b.set(n, v(n) + 1i32);
    });
    StreamSpec::pipeline(vec![src.build_spec(), StreamSpec::Sink])
        .build()
        .unwrap()
}

/// src (stateful counter) -> down(decim) -> sink; `decim` is the
/// runtime parameter.
fn decim_template() -> Arc<ParamGraph> {
    let domain = ParamDomain::new().with("decim", 1, 3);
    Arc::new(ParamGraph::new("decim_chain", domain, |val| {
        let decim = RateExpr::param("decim")
            .eval(val)
            .map_err(|e| e.to_string())?;
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        let mut down = FilterBuilder::new("down", decim, decim, 1, ScalarTy::I32);
        let x = down.local("x", Ty::Scalar(ScalarTy::I32));
        let j = down.local("j", Ty::Scalar(ScalarTy::I32));
        let i = down.local("i", Ty::Scalar(ScalarTy::I32));
        down.work(move |b| {
            b.set(x, pop());
            b.for_(i, (decim - 1) as i32, |b| {
                b.set(j, pop());
            });
            b.push(v(x));
        });
        StreamSpec::pipeline(vec![src.build_spec(), down.build_spec(), StreamSpec::Sink])
            .build()
            .map_err(|e| e.to_string())
    }))
}

/// What a session was fed, in the form its reference replays.
enum Script {
    /// The multiplier of its shape, the iterations fed, and the fault its
    /// plan injects, if any: `(stage, firing)` of a panic.
    Static(i32, u64, Option<(usize, u64)>),
    /// Parameter changes and iterations, segment by segment.
    Dynamic(ParamTrace),
}

struct Live {
    id: u64,
    script: Script,
    got: Vec<Vec<Value>>,
}

/// A solo run of what `live` was fed — clean, and cut to the committed
/// outcome of its fault if the run reached it — and whether it faulted.
fn reference(live: &Live, template: &ParamGraph) -> (Vec<Vec<Value>>, bool) {
    let machine = Machine::core_i7();
    let (opts, mode) = (SimdizeOptions::all(), ExecMode::default());
    match &live.script {
        &Script::Static(mul, iters, fault) => {
            let art = compile_graph(&counter(mul), &machine, &opts, mode).unwrap();
            let mut engine = SessionEngine::new(
                art.graph.clone(),
                art.schedule.clone(),
                Arc::new(machine),
                &art.programs,
                FaultPlan::none(),
                0,
            );
            engine.run_steady(iters);
            let mut rows = vec![Vec::new(); engine.sink_ids().len()];
            engine.drain_outputs_into(&mut rows);
            let (graph, schedule) = (&art.graph, &art.schedule);
            let reached = fault.filter(|&(stage, firing)| {
                firing < schedule.init_reps[stage] + iters * schedule.reps[stage]
            });
            if let Some((stage, firing)) = reached {
                let failure = StageFailure {
                    stage,
                    name: String::new(),
                    core: 0,
                    firing,
                    init_fn: false,
                    mode,
                    cause: FailureCause::Panic(String::new()),
                };
                let bounds = committed_outcome(graph, schedule, &[failure]);
                for (row, sink) in rows.iter_mut().zip(engine.sink_ids()) {
                    row.truncate(bounds[sink.0 as usize] as usize);
                }
            }
            (rows, reached.is_some())
        }
        Script::Dynamic(trace) => {
            let init = Valuation::of("decim", 1);
            let rows = oracle_replay(template, &init, trace, &machine, &opts, mode).unwrap();
            (rows, false)
        }
    }
}

fn append(got: &mut Vec<Vec<Value>>, rows: Vec<Vec<Value>>) {
    got.resize(rows.len().max(got.len()), Vec::new());
    for (row, more) in got.iter_mut().zip(rows) {
        row.extend(more);
    }
}

/// Close-time check: `rows` are the outputs `close` returned, `faulted`
/// whether it reported the session quarantined.
fn check(mut live: Live, rows: Vec<Vec<Value>>, faulted: bool, template: &ParamGraph, ctx: &str) {
    append(&mut live.got, rows);
    let (want, fault) = reference(&live, template);
    assert_eq!(faulted, fault, "{ctx}: quarantine");
    assert_eq!(live.got.len(), want.len(), "{ctx}: sink count");
    for (s, (g, w)) in live.got.iter().zip(&want).enumerate() {
        assert_eq!(g.len(), w.len(), "{ctx}: sink {s} output count");
        let same = g.iter().zip(w).all(|(x, y)| x.bits_eq(*y));
        assert!(same, "{ctx}: sink {s} differs from the solo run");
    }
}

fn run(seed: u64) {
    let service = StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers: 2,
            session_cap: CAP,
            batch_iters: 2,
            ..ServiceConfig::default()
        },
    );
    let template = decim_template();
    let mut rng = XorShift(seed);
    let mut live: Vec<Live> = Vec::new();
    let mut shapes = HashSet::new();
    let (mut refusals, mut closed, mut quarantined) = (0, 0, 0);
    for op in 0..OPS {
        let pick = |rng: &mut XorShift, n: usize| rng.below(n as u64) as usize;
        match rng.below(100) {
            0..=19 => {
                let dynamic = rng.below(3) == 0;
                let mul = 1 + rng.below(3) as i32;
                let init = Valuation::of("decim", 1);
                // A static session's fault: a panic at one of the first
                // dozen firings of a node of its compiled graph (the
                // service compiles the same shape the same way).
                let fault = (!dynamic && rng.below(4) == 0).then(|| {
                    let nodes = compile_graph(
                        &counter(mul),
                        &Machine::core_i7(),
                        &SimdizeOptions::all(),
                        ExecMode::default(),
                    )
                    .unwrap()
                    .graph
                    .node_count();
                    (pick(&mut rng, nodes), rng.below(12))
                });
                let plan = fault.map_or(FaultPlan::none(), |(stage, firing)| {
                    FaultPlan::single(stage, firing, FaultKind::Panic)
                });
                let admitted = if dynamic {
                    service.submit_dynamic("dyn", &template, &init, plan)
                } else {
                    service.submit("static", &counter(mul), plan)
                };
                match admitted {
                    Ok(id) => {
                        let (shape, script) = if dynamic {
                            let graph = template.instantiate(&init).unwrap();
                            (graph, Script::Dynamic(ParamTrace::new("script")))
                        } else {
                            (counter(mul), Script::Static(mul, 0, fault))
                        };
                        shapes.insert(structural_hash(&shape));
                        live.push(Live {
                            id,
                            script,
                            got: Vec::new(),
                        });
                    }
                    Err(e) => {
                        assert!(e.is_overloaded(), "op {op}: refusal {e}");
                        assert_eq!(live.len(), CAP, "op {op}: refused below the cap");
                        refusals += 1;
                    }
                }
            }
            20..=49 if !live.is_empty() => {
                let i = pick(&mut rng, live.len());
                let iters = 1 + rng.below(4);
                service.feed(live[i].id, iters).unwrap();
                match &mut live[i].script {
                    Script::Static(_, fed, _) => *fed += iters,
                    Script::Dynamic(trace) => trace.steps.push(step(&[], iters)),
                }
            }
            50..=64 if !live.is_empty() => {
                let i = pick(&mut rng, live.len());
                let l = &mut live[i];
                let decim = 1 + rng.below(3);
                let set = service.set_param(l.id, "decim", decim);
                let Script::Dynamic(trace) = &mut l.script else {
                    assert!(matches!(set, Err(ServiceError::NotDynamic(_))), "{set:?}");
                    continue;
                };
                set.unwrap();
                // Fed right away, so every boundary is reached and each
                // valuation installed is one the cache must compile.
                let iters = 1 + rng.below(3);
                service.feed(l.id, iters).unwrap();
                trace.steps.push(step(&[("decim", decim)], iters));
                let graph = template.instantiate(&Valuation::of("decim", decim));
                shapes.insert(structural_hash(&graph.unwrap()));
            }
            65..=84 if !live.is_empty() => {
                let i = pick(&mut rng, live.len());
                let polled = service.poll(live[i].id).unwrap();
                append(&mut live[i].got, polled.outputs);
            }
            85.. if !live.is_empty() => {
                let l = live.swap_remove(pick(&mut rng, live.len()));
                let report = service.close(l.id).unwrap();
                quarantined += usize::from(report.faulted);
                check(
                    l,
                    report.outputs,
                    report.faulted,
                    &template,
                    &format!("seed {seed:#x} op {op}"),
                );
                closed += 1;
            }
            _ => {}
        }
    }
    for l in live {
        let report = service.close(l.id).unwrap();
        quarantined += usize::from(report.faulted);
        check(
            l,
            report.outputs,
            report.faulted,
            &template,
            &format!("seed {seed:#x} at the end"),
        );
        closed += 1;
    }
    assert!(refusals > 0, "seed {seed:#x}: the cap never refused");
    assert!(closed > CAP, "seed {seed:#x}: too few sessions checked");
    assert!(quarantined > 0, "seed {seed:#x}: a fault must quarantine");
    let stats = service.cache_stats();
    assert_eq!(stats.compilations, shapes.len() as u64, "seed {seed:#x}");
    let sr = service.shutdown("interleavings");
    assert_eq!(sr.last.admission.rejected_sessions, refusals);
    assert_eq!(sr.violations(), Vec::<String>::new());
}

fn step(sets: &[(&str, u64)], iters: u64) -> macross_pdf::TraceStep {
    macross_pdf::TraceStep {
        sets: sets.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        iters,
    }
}

#[test]
fn interleaved_calls_match_solo_runs() {
    for seed in SEEDS {
        run(seed);
    }
}
