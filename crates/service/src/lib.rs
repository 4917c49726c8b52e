//! # macross-service
//!
//! A multi-tenant streaming session server over the MacroSS compilation
//! pipeline: many concurrent stream-graph sessions share one process,
//! one worker pool, and — when their graphs are structurally equivalent
//! — one compiled artifact.
//!
//! Four pillars:
//!
//! 1. **Compile-once cache** ([`cache::CompileCache`]): submissions are
//!    keyed by the structural hash of their graph
//!    ([`macross_streamir::shash`]), which ignores actor names and node
//!    insertion order, so N tenants running the same benchmark trigger
//!    exactly one SIMDization + bytecode compilation. The cache is a
//!    bounded LRU of [`macross::CompiledGraph`]s with hit/miss/eviction
//!    counters surfaced in the service report.
//! 2. **Session manager** ([`server::StreamService`]): `submit` admits a
//!    graph and pins it to the least-loaded shard by modelled steady
//!    cost; `feed` queues steady iterations; `poll` drains sink outputs;
//!    `close` drains and retires. Each session runs on a
//!    [`macross_runtime::SessionEngine`] — the supervised single-session
//!    engine — so a faulting tenant is quarantined with its bit-exact
//!    clean output prefix while co-resident tenants keep firing.
//! 3. **Admission control**: a session cap at `submit`, a bounded input
//!    queue per tenant at `feed`, and output-buffer backpressure that
//!    defers a tenant's slices until it polls. Saturation returns the
//!    typed [`error::ServiceError::Overloaded`], never a panic or a
//!    hang; `shutdown` drains everything admitted and emits the
//!    `SERVICE_<name>.json` report (`macross-service-v2`, validated by
//!    `validate_report`).
//! 4. **Dynamic-rate sessions**: `submit_dynamic` admits a
//!    [`macross_pdf::ParamGraph`] — a graph template over a declared
//!    parameter domain — and `set_param` re-configures it at the steady
//!    iteration boundary after everything fed so far: re-solve, re-derive,
//!    re-SIMDize, swap at the quiescent point with bit-exact carryover.
//!    Compiled configurations are memoized in a shared
//!    [`macross_pdf::ScheduleCache`] layered on the compile-once cache,
//!    so revisiting a valuation never recompiles.

pub mod cache;
pub mod error;
pub mod server;
pub mod tenant;

pub use cache::CompileCache;
pub use error::ServiceError;
pub use server::{mode_label, ServiceConfig, StreamService};
pub use tenant::{CloseReport, PollResult, TenantState};

#[cfg(test)]
mod tests {
    use super::*;
    use macross_pdf::ParamGraph;
    use macross_runtime::FaultPlan;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::graph::Graph;
    use macross_streamir::types::{ScalarTy, Ty, Value};
    use macross_streamir::{ParamDomain, RateExpr, Valuation};
    use macross_telemetry::service as svc_schema;
    use macross_vm::Machine;
    use std::sync::Arc;

    fn counter_pipeline(mul: i32) -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", macross_streamir::types::Ty::Scalar(ScalarTy::I32));
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

    fn flat_i32(rows: Vec<Vec<Value>>) -> Vec<i32> {
        rows.into_iter()
            .flatten()
            .map(|v| match v {
                Value::I32(x) => x,
                other => panic!("unexpected value {other:?}"),
            })
            .collect()
    }

    #[test]
    fn dynamic_session_reconfigures_in_stream_order() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let template = decim_template();
        let id = service
            .submit_dynamic(
                "dyn",
                &template,
                &Valuation::of("decim", 1),
                FaultPlan::none(),
            )
            .unwrap();
        service.feed(id, 4).unwrap();
        // Lands after the 4 iterations already fed, regardless of how
        // far the shard has actually run.
        service.set_param(id, "decim", 2).unwrap();
        service.feed(id, 4).unwrap();
        let report = service.close(id).unwrap();
        assert!(!report.faulted, "failures: {:?}", report.failures);
        assert_eq!(report.iters_done, 8);
        // One SIMDized steady iteration fires the source 4 times (the
        // vector width), so 4 iterations at decim=1 pass the counter
        // through as 0..16; decim=2 then keeps the first of each pair.
        // Bit-exact carryover: the counter continues at 16, not at 0.
        let mut expect: Vec<i32> = (0..16).collect();
        expect.extend((16..48).step_by(2));
        assert_eq!(flat_i32(report.outputs), expect);
        let sr = service.shutdown("dyn");
        // Initial install + one swap, both distinct configurations.
        assert_eq!(sr.scache.reconfigurations, 2);
        assert_eq!(sr.scache.misses, 2);
        assert_eq!(sr.scache.distinct_valuations, 2);
        svc_schema::validate_str(&sr.json_string()).unwrap();
    }

    #[test]
    fn set_param_on_static_session_is_typed_error() {
        let service = StreamService::new(Machine::core_i7(), ServiceConfig::default());
        let id = service
            .submit("static", &counter_pipeline(1), FaultPlan::none())
            .unwrap();
        let err = service.set_param(id, "decim", 2).unwrap_err();
        assert!(matches!(err, ServiceError::NotDynamic(_)), "got {err}");
        // Outside the domain: typed parameter error, session unharmed.
        let template = decim_template();
        let did = service
            .submit_dynamic(
                "dyn",
                &template,
                &Valuation::of("decim", 1),
                FaultPlan::none(),
            )
            .unwrap();
        let err = service.set_param(did, "decim", 9).unwrap_err();
        assert!(matches!(err, ServiceError::Param(_)), "got {err}");
        service.feed(did, 2).unwrap();
        let report = service.close(did).unwrap();
        assert!(!report.faulted);
        assert_eq!(report.iters_done, 2);
        service.close(id).unwrap();
        let sr = service.shutdown("typed");
        svc_schema::validate_str(&sr.json_string()).unwrap();
    }

    #[test]
    fn revisited_valuations_hit_the_schedule_cache() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let template = decim_template();
        let id = service
            .submit_dynamic(
                "pingpong",
                &template,
                &Valuation::of("decim", 1),
                FaultPlan::none(),
            )
            .unwrap();
        // 1 -> 2 -> 1 -> 2: four installs, two distinct configurations.
        for (value, iters) in [(2u64, 4u64), (1, 4), (2, 4)] {
            service.feed(id, iters).unwrap();
            service.set_param(id, "decim", value).unwrap();
        }
        service.feed(id, 4).unwrap();
        let report = service.close(id).unwrap();
        assert!(!report.faulted, "failures: {:?}", report.failures);
        let sr = service.shutdown("pingpong");
        assert_eq!(sr.scache.reconfigurations, 4);
        assert_eq!(sr.scache.misses, 2, "repeat valuations must not recompile");
        assert_eq!(sr.scache.hits, 2);
        assert_eq!(sr.scache.distinct_valuations, 2);
        svc_schema::validate_str(&sr.json_string()).unwrap();
    }

    #[test]
    fn feed_poll_close_round_trip() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let id = service
            .submit("counter", &counter_pipeline(3), FaultPlan::none())
            .unwrap();
        service.feed(id, 8).unwrap();
        let report = service.close(id).unwrap();
        assert!(!report.faulted);
        assert_eq!(report.iters_done, 8);
        let flat: Vec<_> = report.outputs.into_iter().flatten().collect();
        assert_eq!(flat.len(), 8);
        let sr = service.shutdown("unit");
        assert_eq!(sr.admission.admitted, 1);
        assert_eq!(sr.cache.compilations, 1);
        svc_schema::validate_str(&sr.json_string()).unwrap();
    }

    #[test]
    fn session_cap_rejects_with_typed_overload() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 1,
                session_cap: 2,
                ..ServiceConfig::default()
            },
        );
        let g = counter_pipeline(1);
        service.submit("a", &g, FaultPlan::none()).unwrap();
        service.submit("b", &g, FaultPlan::none()).unwrap();
        let err = service.submit("c", &g, FaultPlan::none()).unwrap_err();
        assert!(err.is_overloaded(), "got {err}");
        // One shape, three submissions: exactly one compilation.
        let stats = service.cache_stats();
        assert_eq!(stats.compilations, 1);
        assert_eq!(stats.hits, 1);
        let sr = service.shutdown("cap");
        assert_eq!(sr.admission.submitted, 3);
        assert_eq!(sr.admission.rejected_sessions, 1);
        svc_schema::validate_str(&sr.json_string()).unwrap();
    }

    #[test]
    fn feed_queue_bound_rejects_and_recovers() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 1,
                queue_bound: 4,
                ..ServiceConfig::default()
            },
        );
        let id = service
            .submit("q", &counter_pipeline(2), FaultPlan::none())
            .unwrap();
        let err = service.feed(id, 5).unwrap_err();
        assert!(err.is_overloaded(), "got {err}");
        service.feed(id, 4).unwrap();
        let report = service.close(id).unwrap();
        assert_eq!(report.iters_done, 4);
        let sr = service.shutdown("bound");
        assert_eq!(sr.admission.rejected_feeds, 1);
    }

    #[test]
    fn backpressure_defers_until_polled() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 1,
                batch_iters: 2,
                output_bound: 4,
                ..ServiceConfig::default()
            },
        );
        let id = service
            .submit("bp", &counter_pipeline(1), FaultPlan::none())
            .unwrap();
        service.feed(id, 64).unwrap();
        // Let the shard hit the output bound and park the tenant. The
        // drain is bounded by the clock, not by a poll count: how many
        // polls fit before the shard worker is next scheduled depends on
        // the load around this test.
        let mut drained = 0usize;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while drained < 64 && std::time::Instant::now() < deadline {
            let r = service.poll(id).unwrap();
            drained += r.outputs.iter().map(Vec::len).sum::<usize>();
            std::thread::yield_now();
        }
        assert_eq!(drained, 64, "all fed iterations eventually drain");
        let sr = service.shutdown("bp");
        assert!(
            sr.admission.backpressure_stalls > 0,
            "a 4-value bound over 64 iterations must stall at least once"
        );
        svc_schema::validate_str(&sr.json_string()).unwrap();
    }

    #[test]
    fn feed_rejects_overflowing_iters() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 1,
                queue_bound: 8,
                ..ServiceConfig::default()
            },
        );
        let id = service
            .submit("ovf", &counter_pipeline(1), FaultPlan::none())
            .unwrap();
        service.feed(id, 1).unwrap();
        // pending + u64::MAX would wrap past the bound; the admission
        // check must reject it, not enqueue an astronomical backlog.
        let err = service.feed(id, u64::MAX).unwrap_err();
        assert!(err.is_overloaded(), "got {err}");
        let report = service.close(id).unwrap();
        assert_eq!(report.iters_done, 1, "close drains only the sane feed");
        let sr = service.shutdown("ovf");
        assert_eq!(sr.admission.rejected_feeds, 1);
    }

    #[test]
    fn close_drains_through_backpressure_without_polling() {
        // Regression for a drain/backpressure race: with a 1-value
        // output bound every second slice defers, and a `close` landing
        // while the deferring slice is in flight used to park the tenant
        // with no reviver — `close` then blocked forever. Loop to give
        // the race window many chances; the test's assertion is simply
        // that every close returns, fully drained.
        for round in 0..25 {
            let service = StreamService::new(
                Machine::core_i7(),
                ServiceConfig {
                    workers: 1,
                    batch_iters: 1,
                    output_bound: 1,
                    queue_bound: 256,
                    ..ServiceConfig::default()
                },
            );
            let id = service
                .submit("race", &counter_pipeline(1), FaultPlan::none())
                .unwrap();
            service.feed(id, 64).unwrap();
            if round % 2 == 1 {
                // Vary the interleaving: sometimes let the shard reach
                // the parked state before closing, sometimes close hot.
                std::thread::yield_now();
            }
            let report = service.close(id).unwrap();
            assert!(!report.faulted);
            assert_eq!(report.iters_done, 64, "round {round}: drain lost work");
        }
    }

    #[test]
    fn shutdown_drains_parked_tenants() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 1,
                batch_iters: 1,
                output_bound: 1,
                ..ServiceConfig::default()
            },
        );
        let g = counter_pipeline(3);
        let a = service.submit("a", &g, FaultPlan::none()).unwrap();
        let b = service.submit("b", &g, FaultPlan::none()).unwrap();
        service.feed(a, 32).unwrap();
        service.feed(b, 32).unwrap();
        // Let both tenants hit the 1-value bound and park.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let sr = service.shutdown("parked");
        // `drained_on_shutdown` counts completed drains: both tenants
        // must actually finish their 32 iterations, bound ignored.
        assert_eq!(sr.admission.drained_on_shutdown, 2);
        for row in &sr.tenants {
            assert_eq!(
                row.iters_done, 32,
                "tenant {} not fully drained at shutdown",
                row.session
            );
        }
        svc_schema::validate_str(&sr.json_string()).unwrap();
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let service = StreamService::new(Machine::core_i7(), ServiceConfig::default());
        let id = service
            .submit("drain", &counter_pipeline(7), FaultPlan::none())
            .unwrap();
        service.feed(id, 16).unwrap();
        // No close: shutdown itself must finish the admitted work.
        let sr = service.shutdown("drain");
        let row = &sr.tenants[0];
        assert_eq!(row.iters_done, 16);
        assert_eq!(row.state, "draining");
        svc_schema::validate_str(&sr.json_string()).unwrap();
    }
}
