//! Work-conserving shards: a shard with nothing queued steals a queued
//! session from another shard at a slice boundary. A stolen session must
//! stay bit-identical to a solo run, and a failure must name the shard
//! that ran it. The retired-row log of a resident server stays bounded.

use macross_runtime::FaultPlan;
use macross_service::server::RETIRED_ROWS;
use macross_service::{CloseReport, ServiceConfig, StreamService};
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::Graph;
use macross_streamir::types::{ScalarTy, Ty, Value};
use macross_vm::Machine;

const ITERS: u64 = 400;
/// The victim's faulting firing.
const FAIL_AT: i32 = 300;

/// `src -> scale^stages -> sink`: a counter times `5^stages`. More stages
/// cost more under the admission model.
fn chain(stages: usize) -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(move |b| {
        b.push(v(n));
        b.set(n, v(n) + 1i32);
    });
    let mut specs = vec![src.build_spec()];
    for i in 0..stages {
        let mut f = FilterBuilder::new(format!("scale{i}"), 1, 1, 1, ScalarTy::I32);
        f.work(|b| {
            b.push(pop() * 5i32);
        });
        specs.push(f.build_spec());
    }
    specs.push(StreamSpec::Sink);
    StreamSpec::pipeline(specs).build().unwrap()
}

/// `src -> bomb -> sink`: from its firing `FAIL_AT` on, the bomb writes
/// far outside a 4-element state array, a guest fault that quarantines
/// the session.
fn victim() -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(move |b| {
        b.push(v(n));
        b.set(n, v(n) + 1i32);
    });
    let mut bomb = FilterBuilder::new("bomb", 1, 1, 1, ScalarTy::I32);
    let fired = bomb.state("fired", Ty::Scalar(ScalarTy::I32));
    let table = bomb.state("table", Ty::Array(ScalarTy::I32, 4));
    bomb.work(move |b| {
        b.set_idx(table, v(fired) / FAIL_AT * 1_000_000i32, v(fired));
        b.set(fired, v(fired) + 1i32);
        b.push(pop() * 3i32);
    });
    StreamSpec::pipeline(vec![src.build_spec(), bomb.build_spec(), StreamSpec::Sink])
        .build()
        .unwrap()
}

fn service(workers: usize) -> StreamService {
    StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers,
            batch_iters: 1,
            queue_bound: ITERS,
            ..ServiceConfig::default()
        },
    )
}

fn flat(report: &CloseReport) -> Vec<Value> {
    report.outputs.iter().flatten().copied().collect()
}

fn assert_bits_eq(ctx: &str, expect: &[Value], got: &[Value]) {
    assert_eq!(expect.len(), got.len(), "{ctx}: length mismatch");
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        assert!(a.bits_eq(*b), "{ctx}: element {i} differs: {a:?} vs {b:?}");
    }
}

fn solo(graph: &Graph) -> CloseReport {
    let service = service(1);
    let id = service.submit("solo", graph, FaultPlan::none()).unwrap();
    service.feed(id, ITERS).unwrap();
    let report = service.close(id).unwrap();
    service.shutdown("solo");
    report
}

/// Admission homes the heavy chain on shard 0 and both light sessions on
/// shard 1. Fed only the light ones, shard 0 has nothing of its own, so
/// its first slice is a steal from shard 1's queue.
#[test]
fn an_idle_shard_steals_and_the_stolen_session_stays_bit_exact() {
    let (heavy, light, bomb) = (chain(4), chain(1), victim());
    let dry = service(2);
    for (name, g) in [("heavy", &heavy), ("light", &light), ("victim", &bomb)] {
        dry.submit(name, g, FaultPlan::none()).unwrap();
    }
    let homes: Vec<u64> = dry
        .shutdown("dry")
        .tenants
        .iter()
        .map(|t| t.shard)
        .collect();
    assert_eq!(homes, vec![0, 1, 1], "the scenario's admission homes");

    let light_solo = solo(&light);
    let victim_solo = solo(&bomb);
    assert!(victim_solo.faulted && !light_solo.faulted);
    // A steal needs shard 0 scheduled while shard 1 still has a session
    // queued; retry the round on a host too busy to give it one.
    let mut steals = 0;
    for round in 0..20 {
        let service = service(2);
        service.submit("heavy", &heavy, FaultPlan::none()).unwrap();
        let l = service.submit("light", &light, FaultPlan::none()).unwrap();
        let v = service.submit("victim", &bomb, FaultPlan::none()).unwrap();
        service.feed(l, ITERS).unwrap();
        service.feed(v, ITERS).unwrap();
        let light_report = service.close(l).unwrap();
        let victim_report = service.close(v).unwrap();
        let sr = service.shutdown("steal");
        let ctx = format!("round {round}");
        assert_eq!(light_report.iters_done, ITERS, "{ctx}");
        assert_eq!(light_report.firings, light_solo.firings, "{ctx}");
        assert_bits_eq(&ctx, &flat(&light_solo), &flat(&light_report));
        assert!(victim_report.faulted, "{ctx}");
        assert_eq!(victim_report.iters_done, victim_solo.iters_done, "{ctx}");
        assert_bits_eq(&ctx, &flat(&victim_solo), &flat(&victim_report));
        // The shard that ran the faulting slice is the victim's last home.
        let row = sr.tenants.iter().find(|t| t.benchmark == "victim").unwrap();
        let core = format!("on core {}", row.shard);
        assert!(
            victim_report.failures.iter().all(|f| f.contains(&core)),
            "{ctx}: {:?} should name {core}",
            victim_report.failures
        );
        assert_eq!(sr.violations(), Vec::<String>::new());
        steals = sr.last.admission.steals;
        if steals > 0 {
            break;
        }
    }
    assert!(steals > 0, "shard 0 never stole in 20 rounds");
}

/// A resident server keeps rows for the newest `RETIRED_ROWS` closed
/// sessions and counts the rest, instead of one row per session served.
#[test]
fn retired_rows_are_bounded_and_the_rest_counted() {
    let service = service(1);
    let g = chain(1);
    let extra = 6;
    for _ in 0..RETIRED_ROWS + extra {
        let id = service.submit("short", &g, FaultPlan::none()).unwrap();
        service.feed(id, 1).unwrap();
        assert_eq!(service.close(id).unwrap().iters_done, 1);
    }
    let sr = service.shutdown("retired");
    assert_eq!(sr.tenants.len(), RETIRED_ROWS);
    assert_eq!(sr.last.retired_dropped, extra as u64);
    assert_eq!(sr.tenants[0].session, extra as u64, "the oldest rows go");
    assert_eq!(sr.last.admission.admitted, (RETIRED_ROWS + extra) as u64);
    assert_eq!(sr.violations(), Vec::<String>::new());
}
