//! Dynamic-rate benchmarks: parameterized graph templates with scripted
//! parameter traces, the workload behind the dynamic differential suite
//! and the `dynamic_rate` experiment binary.
//!
//! Each benchmark obeys the swappability contract
//! ([`ParamGraph::validate_swappable`]): stateful filters keep their
//! names across valuations, and every carried (peek-slack) edge connects
//! stateful filters, so its signature — and therefore its resident
//! tokens — survive any reconfiguration.

use macross_pdf::{ParamGraph, ParamTrace};
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::types::{ScalarTy, Ty};
use macross_streamir::{ParamDomain, RateExpr, Valuation};

use crate::util;

/// A registered dynamic-rate benchmark: a template, its starting
/// valuation, and the scripted traces the experiments drive it with.
#[derive(Debug, Clone, Copy)]
pub struct DynBenchmark {
    /// Name as used in reports and test failures.
    pub name: &'static str,
    /// Template constructor.
    pub template: fn() -> ParamGraph,
    /// Starting valuation.
    pub init: fn() -> Valuation,
    /// Scripted parameter traces (each one differential-tested).
    pub traces: fn() -> Vec<ParamTrace>,
}

/// Every dynamic-rate benchmark.
pub fn dynamic() -> Vec<DynBenchmark> {
    vec![
        DynBenchmark {
            name: "VarDecim",
            template: var_decim,
            init: || Valuation::of("decim", 1),
            traces: var_decim_traces,
        },
        DynBenchmark {
            name: "BurstCodec",
            template: burst_codec,
            init: || Valuation::of("frame", 2),
            traces: burst_codec_traces,
        },
    ]
}

/// A variable-rate decimation chain:
/// `vd_src -> vd_smooth (peek 4, stateful) -> vd_down(decim) -> vd_amp`,
/// with `decim` in `[1, 4]` at runtime. The `vd_src -> vd_smooth` edge
/// carries 3 resident tokens across every swap; the stateless tail is
/// rebuilt per configuration.
pub fn var_decim() -> ParamGraph {
    let domain = ParamDomain::new().with("decim", 1, 4);
    ParamGraph::new("VarDecim", domain, |val| {
        let decim = RateExpr::param("decim")
            .eval(val)
            .map_err(|e| e.to_string())?;
        let src = util::source_f32("vd_src", 1, 4096, 0.25);
        // A leaky smoother over a 4-sample window: stateful (running
        // accumulator) *and* peeking, so the upstream edge keeps slack.
        let mut sm = FilterBuilder::new("vd_smooth", 4, 1, 1, ScalarTy::F32);
        let acc = sm.state("acc", Ty::Scalar(ScalarTy::F32));
        let junk = sm.local("junk", Ty::Scalar(ScalarTy::F32));
        sm.work(|b| {
            b.set(
                acc,
                v(acc) * 0.5f32 + (peek(c(0i32)) + peek(c(3i32))) * 0.25f32,
            );
            b.push(v(acc));
            b.set(junk, pop());
        });
        StreamSpec::pipeline(vec![
            src,
            sm.build_spec(),
            util::downsample("vd_down", decim),
            util::amplify("vd_amp", 2.0),
            StreamSpec::Sink,
        ])
        .build()
        .map_err(|e| e.to_string())
    })
}

fn var_decim_traces() -> Vec<ParamTrace> {
    vec![
        // Visit every decimation factor once: all misses.
        ParamTrace::new("sweep")
            .then(&[], 4)
            .then(&[("decim", 2)], 4)
            .then(&[("decim", 3)], 4)
            .then(&[("decim", 4)], 4),
        // Alternate between two factors: revisits must hit the cache.
        ParamTrace::new("pingpong")
            .then(&[], 4)
            .then(&[("decim", 4)], 4)
            .then(&[("decim", 1)], 4)
            .then(&[("decim", 4)], 4)
            .then(&[("decim", 1)], 4),
        // Re-set the current value: the swap protocol still runs (and
        // hits), and the output must match an uninterrupted run.
        ParamTrace::new("steady")
            .then(&[], 4)
            .then(&[("decim", 1)], 4)
            .then(&[("decim", 1)], 4),
    ]
}

/// A framing codec with a runtime frame size:
/// `bc_src -> bc_smooth (peek 3, stateful) -> bc_frame(frame, stateful)
/// -> bc_enc -> bc_dec(frame)`, with `frame` in `[2, 5]`. The framer
/// prepends a running frame counter (stateful, so its count survives
/// swaps); the decoder strips it. Both rate-parameterized filters change
/// their pop/push rates with `frame`.
pub fn burst_codec() -> ParamGraph {
    let domain = ParamDomain::new().with("frame", 2, 5);
    ParamGraph::new("BurstCodec", domain, |val| {
        let frame = RateExpr::param("frame")
            .eval(val)
            .map_err(|e| e.to_string())?;
        let src = util::source_i32("bc_src", 1, 0xffff);
        // Windowed mixer: stateful + peek 3 so the upstream edge carries.
        let mut sm = FilterBuilder::new("bc_smooth", 3, 1, 1, ScalarTy::I32);
        let run = sm.state("run", Ty::Scalar(ScalarTy::I32));
        let junk = sm.local("junk", Ty::Scalar(ScalarTy::I32));
        sm.work(|b| {
            b.set(run, v(run) + peek(c(2i32)) - peek(c(0i32)));
            b.push(peek(c(0i32)) + (v(run) & 0xffi32));
            b.set(junk, pop());
        });
        // Framer: pop `frame` samples, push a header (the running frame
        // ordinal) followed by the samples. Stateful, rates vary.
        let mut fr = FilterBuilder::new("bc_frame", frame, frame, frame + 1, ScalarTy::I32);
        let cnt = fr.state("cnt", Ty::Scalar(ScalarTy::I32));
        let x = fr.local("x", Ty::Scalar(ScalarTy::I32));
        let i = fr.local("i", Ty::Scalar(ScalarTy::I32));
        fr.work(move |b| {
            b.push(v(cnt));
            b.for_(i, frame as i32, |b| {
                b.set(x, pop());
                b.push(v(x));
            });
            b.set(cnt, v(cnt) + 1i32);
        });
        // Stateless per-token encode; rebuilt (and SIMDized) per config.
        let mut enc = FilterBuilder::new("bc_enc", 1, 1, 1, ScalarTy::I32);
        enc.work(|b| {
            b.push(pop() * 3i32 + 7i32);
        });
        // Decoder: strip the header, pass the payload.
        let mut dec = FilterBuilder::new("bc_dec", frame + 1, frame + 1, frame, ScalarTy::I32);
        let jd = dec.local("junk", Ty::Scalar(ScalarTy::I32));
        let xd = dec.local("x", Ty::Scalar(ScalarTy::I32));
        let id = dec.local("i", Ty::Scalar(ScalarTy::I32));
        dec.work(move |b| {
            b.set(jd, pop());
            b.for_(id, frame as i32, |b| {
                b.set(xd, pop());
                b.push(v(xd));
            });
        });
        StreamSpec::pipeline(vec![
            src,
            sm.build_spec(),
            fr.build_spec(),
            enc.build_spec(),
            dec.build_spec(),
            StreamSpec::Sink,
        ])
        .build()
        .map_err(|e| e.to_string())
    })
}

fn burst_codec_traces() -> Vec<ParamTrace> {
    vec![
        // Grow the frame through the whole domain: all misses.
        ParamTrace::new("grow")
            .then(&[], 3)
            .then(&[("frame", 3)], 3)
            .then(&[("frame", 4)], 3)
            .then(&[("frame", 5)], 3),
        // Bursts alternating small and large frames; revisits hit.
        ParamTrace::new("burst")
            .then(&[], 2)
            .then(&[("frame", 5)], 3)
            .then(&[("frame", 2)], 3)
            .then(&[("frame", 5)], 3)
            .then(&[("frame", 2)], 3),
        // Hold the current frame size across explicit re-sets.
        ParamTrace::new("hold")
            .then(&[], 3)
            .then(&[("frame", 2)], 3)
            .then(&[("frame", 2)], 3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross::SimdizeOptions;
    use macross_vm::{ExecMode, Machine};

    #[test]
    fn every_dynamic_benchmark_is_swappable_in_both_modes() {
        for b in dynamic() {
            let t = (b.template)();
            for mode in [ExecMode::Bytecode, ExecMode::TreeWalk] {
                let v = t
                    .validate_swappable(&Machine::core_i7(), &SimdizeOptions::all(), mode)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                assert!(v.carried_edges >= 1, "{}: nothing carried", b.name);
                assert!(v.stateful_filters >= 2, "{}: too little state", b.name);
            }
        }
    }

    #[test]
    fn traces_stay_inside_the_domain() {
        for b in dynamic() {
            let t = (b.template)();
            let traces = (b.traces)();
            assert!(traces.len() >= 3, "{}: need at least 3 traces", b.name);
            for trace in traces {
                let mut val = (b.init)();
                t.domain().check(&val).unwrap();
                for step in &trace.steps {
                    for (name, value) in &step.sets {
                        val.bind(name, *value);
                    }
                    t.domain()
                        .check(&val)
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", b.name, trace.name));
                }
            }
        }
    }
}
