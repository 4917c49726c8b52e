//! Failure-injection tests: malformed inputs at every layer must produce
//! typed errors (never panics), with actionable messages.

use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::macross::SimdizeError;
use macross_repro::sdf::{RateMatchError, Schedule, ScheduleError};
use macross_repro::streamir::builder::{BuildError, StreamSpec};
use macross_repro::streamir::edsl::*;
use macross_repro::streamir::filter::Filter;
use macross_repro::streamir::graph::{Graph, GraphError, Node, SplitKind};
use macross_repro::streamir::types::{ScalarTy, Ty};
use macross_repro::vm::Machine;

#[test]
fn cyclic_graph_is_rejected_everywhere() {
    let mut g = Graph::new();
    let a = g.add_node(Node::filter(Filter::new("a", 1, 1, 1)));
    let b = g.add_node(Node::filter(Filter::new("b", 1, 1, 1)));
    g.connect(a, 0, b, 0, ScalarTy::F32);
    g.connect(b, 0, a, 0, ScalarTy::F32);
    assert_eq!(g.topo_order(), Err(GraphError::Cyclic));
    assert!(matches!(
        Schedule::compute(&g),
        Err(ScheduleError::Graph(_))
    ));
    assert!(matches!(
        macro_simdize(&g, &Machine::core_i7(), &SimdizeOptions::all()),
        Err(SimdizeError::Graph(_))
    ));
}

#[test]
fn rate_liar_is_caught_by_driver() {
    // Declared push 2, actual push 1.
    let mut src = FilterBuilder::new("src", 0, 0, 2, ScalarTy::F32);
    src.work(|b| {
        b.push(1.0f32);
    });
    let mut g = Graph::new();
    let s = g.add_node(Node::filter(src.build()));
    let k = g.add_node(Node::Sink);
    g.connect(s, 0, k, 0, ScalarTy::F32);
    let err = macro_simdize(&g, &Machine::core_i7(), &SimdizeOptions::all()).unwrap_err();
    assert!(matches!(err, SimdizeError::RateCheck(_)), "{err}");
    assert!(err.to_string().contains("measured"), "{err}");
}

#[test]
fn inconsistent_splitjoin_rates_fail_scheduling() {
    let mut g = Graph::new();
    let s = g.add_node(Node::filter(Filter::new("s", 0, 0, 2)));
    let sp = g.add_node(Node::Splitter(SplitKind::Duplicate));
    let x1 = g.add_node(Node::filter(Filter::new("x1", 1, 1, 1)));
    let x2 = g.add_node(Node::filter(Filter::new("x2", 1, 1, 3)));
    let j = g.add_node(Node::Joiner(vec![1, 1]));
    let k = g.add_node(Node::Sink);
    g.connect(s, 0, sp, 0, ScalarTy::F32);
    g.connect(sp, 0, x1, 0, ScalarTy::F32);
    g.connect(sp, 1, x2, 0, ScalarTy::F32);
    g.connect(x1, 0, j, 0, ScalarTy::F32);
    g.connect(x2, 0, j, 1, ScalarTy::F32);
    g.connect(j, 0, k, 0, ScalarTy::F32);
    match Schedule::compute(&g) {
        Err(ScheduleError::Rates(RateMatchError::Inconsistent { .. })) => {}
        other => panic!("expected inconsistency, got {other:?}"),
    }
}

#[test]
fn builder_rejects_malformed_composition() {
    // Interior sink.
    let mk = || {
        let mut fb = FilterBuilder::new("f", 1, 1, 1, ScalarTy::F32);
        fb.work(|b| {
            b.push(pop());
        });
        fb.build_spec()
    };
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
    src.work(|b| {
        b.push(0.0f32);
    });
    let err = StreamSpec::pipeline(vec![
        src.build_spec(),
        StreamSpec::Sink,
        mk(),
        StreamSpec::Sink,
    ])
    .build()
    .unwrap_err();
    assert_eq!(err, BuildError::InteriorSink);

    // Dangling output (no sink).
    let mut src2 = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
    src2.work(|b| {
        b.push(0.0f32);
    });
    let err = StreamSpec::pipeline(vec![src2.build_spec(), mk()])
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::DanglingOutput);
}

#[test]
fn neon_machine_skips_unsupported_intrinsics_without_error() {
    // A pow-heavy actor cannot run on the Neon-like SIMD engine; the
    // driver must leave it scalar, not fail.
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
    let n = src.state("n", Ty::Scalar(ScalarTy::F32));
    src.work(|b| {
        b.push(v(n));
        b.set(
            n,
            cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 50i32),
        );
    });
    let mut f = FilterBuilder::new("powf", 1, 1, 1, ScalarTy::F32);
    f.work(|b| {
        b.push(pow(abs(pop()) + 1.0f32, 1.5f32));
    });
    let g = StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink])
        .build()
        .unwrap();
    let simd = macro_simdize(&g, &Machine::neon_like(), &SimdizeOptions::all()).unwrap();
    assert!(simd.report.single_actors.is_empty(), "{:?}", simd.report);
    // Same actor on the full machine does vectorize.
    let simd2 = macro_simdize(&g, &Machine::core_i7(), &SimdizeOptions::all()).unwrap();
    assert_eq!(simd2.report.single_actors, vec!["powf_v4"]);
}

#[test]
fn simdize_single_actor_rejects_every_illegal_shape() {
    use macross_repro::macross::single::{simdize_single_actor, SingleActorConfig};
    let cfg = SingleActorConfig::strided(4, ScalarTy::I32, ScalarTy::I32);

    // Tape-dependent control flow.
    let mut fb = FilterBuilder::new("tdc", 1, 1, 1, ScalarTy::I32);
    let x = fb.local("x", Ty::Scalar(ScalarTy::I32));
    fb.work(|b| {
        b.set(x, pop());
        b.if_else(
            gt(v(x), 0i32),
            |b| {
                b.push(1i32);
            },
            |b| {
                b.push(0i32);
            },
        );
    });
    assert!(matches!(
        simdize_single_actor(&fb.build(), &cfg),
        Err(SimdizeError::NotVectorizable { .. })
    ));

    // Tape-dependent subscript.
    let mut fb = FilterBuilder::new("tds", 1, 1, 1, ScalarTy::I32);
    let lut = fb.state("lut", Ty::Array(ScalarTy::I32, 8));
    fb.work(|b| {
        b.push(idx(lut, pop() & 7i32));
    });
    assert!(matches!(
        simdize_single_actor(&fb.build(), &cfg),
        Err(SimdizeError::NotVectorizable { .. })
    ));

    // Already vectorized.
    use macross_repro::streamir::{Expr, Stmt};
    let mut fb = FilterBuilder::new("vec", 4, 4, 4, ScalarTy::I32);
    let tv = fb.local("t", Ty::Vector(ScalarTy::I32, 4));
    fb.work(|b| {
        b.set(tv, E(Expr::VPop { width: 4 }));
        b.stmt(Stmt::VPush {
            value: Expr::Var(tv),
            width: 4,
        });
    });
    assert!(matches!(
        simdize_single_actor(&fb.build(), &cfg),
        Err(SimdizeError::NotVectorizable { .. })
    ));
}

#[test]
fn simd_width_that_is_not_a_power_of_two_is_a_typed_error() {
    // `Machine::simd_width` is a public field: a width the lane layouts
    // cannot use is refused before any pass runs, not by a panic inside
    // one.
    let g = macross_repro::benchsuite::by_name("FFT").unwrap();
    let g = (g.build)();
    for w in [0, 1, 3, 6] {
        let machine = Machine {
            simd_width: w,
            ..Machine::core_i7()
        };
        for opts in [
            SimdizeOptions::all(),
            SimdizeOptions::no_reorder(),
            SimdizeOptions::single_only(),
        ] {
            let err = macro_simdize(&g, &machine, &opts).unwrap_err();
            assert_eq!(err, SimdizeError::SimdWidth(w));
            assert!(err.to_string().contains("power of two"), "{err}");
        }
    }
    for w in [2, 4, 8] {
        let machine = Machine {
            simd_width: w,
            ..Machine::core_i7()
        };
        macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
    }

    // The public one-shot transforms refuse such a lane count the same
    // way, before asking whether it divides a region count.
    use macross_repro::macross::{simdize_region_actor, simdize_single_actor, SingleActorConfig};
    let bank = (macross_repro::benchsuite::by_name("RegionIIRBank")
        .unwrap()
        .build)();
    let region = (bank.nodes())
        .find_map(|(_, n)| n.as_filter().filter(|f| f.region.is_some()))
        .unwrap();
    let stateless = (g.nodes())
        .find_map(|(_, n)| {
            n.as_filter()
                .filter(|f| f.pop > 0 && f.state_vars().count() == 0)
        })
        .unwrap();
    for w in [0, 1, 3, 6] {
        let cfg = SingleActorConfig::strided(w, ScalarTy::F32, ScalarTy::F32);
        assert_eq!(
            simdize_single_actor(stateless, &cfg),
            Err(SimdizeError::SimdWidth(w))
        );
        assert_eq!(
            simdize_region_actor(region, &cfg),
            Err(SimdizeError::SimdWidth(w))
        );
    }
}
