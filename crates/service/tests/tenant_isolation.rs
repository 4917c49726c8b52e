//! Tenant isolation: a faulting session is quarantined with exactly its
//! committed outcome — the clean run cut to each sink's bound in
//! `committed_outcome` — while co-resident sessions — homed on the
//! *same* shard and sharing the *same* compiled artifact — produce
//! outputs bit-identical to running alone. The migration half homes two
//! sessions on one shard beside an idle one, which steals: a session's
//! slices may run on either shard, and outputs, counters and fault
//! outcomes still match the solo runs.

use macross::{compile_graph, SimdizeOptions};
use macross_runtime::{committed_outcome, FailureCause, FaultKind, FaultPlan, StageFailure};
use macross_service::{CloseReport, ServiceConfig, StreamService, TenantState};
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::Graph;
use macross_streamir::types::{ScalarTy, Ty, Value};
use macross_vm::{ExecMode, Machine};

/// `src -> f(*5) -> sink`, one value per steady iteration: firing `k` of
/// stage 1 (the filter) pushes `5k`.
fn victim_pipeline() -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(move |b| {
        b.push(v(n));
        b.set(n, v(n) + 1i32);
    });
    let mut f = FilterBuilder::new("f", 1, 1, 1, ScalarTy::I32);
    f.work(|b| {
        b.push(pop() * 5i32);
    });
    StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink])
        .build()
        .unwrap()
}

/// `clean`, the solo output of `victim_pipeline`, cut to the committed
/// outcome of a failure at `firing` of `stage` of the graph the service
/// compiles it to.
fn committed(clean: &[Value], stage: usize, firing: u64) -> Vec<Value> {
    let opts = SimdizeOptions::all();
    let machine = Machine::core_i7();
    let art = compile_graph(&victim_pipeline(), &machine, &opts, ExecMode::default()).unwrap();
    let failure = StageFailure {
        stage,
        name: String::new(),
        core: 0,
        firing,
        init_fn: false,
        mode: art.mode,
        cause: FailureCause::Panic(String::new()),
    };
    let bounds = committed_outcome(&art.graph, &art.schedule, &[failure]);
    let sink = art.graph.node_count() - 1;
    assert_eq!(
        art.graph.node(macross_streamir::NodeId(sink as u32)).name(),
        "sink"
    );
    clean[..bounds[sink] as usize].to_vec()
}

fn flat(report: CloseReport) -> Vec<Value> {
    report.outputs.into_iter().flatten().collect()
}

fn assert_bits_eq(ctx: &str, expect: &[Value], got: &[Value]) {
    assert_eq!(expect.len(), got.len(), "{ctx}: length mismatch");
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        assert!(a.bits_eq(*b), "{ctx}: element {i} differs: {a:?} vs {b:?}");
    }
}

/// Run one session alone (optionally with a fault plan) and return its
/// outputs and counters.
fn solo_run(iters: u64, plan: FaultPlan) -> (Vec<Value>, u64, u64) {
    let service = StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let id = service.submit("solo", &victim_pipeline(), plan).unwrap();
    service.feed(id, iters).unwrap();
    let report = service.close(id).unwrap();
    let (iters_done, firings) = (report.iters_done, report.firings);
    let out = flat(report);
    service.shutdown("solo");
    (out, iters_done, firings)
}

/// No faults: two co-resident tenants of the same shape are each
/// bit-identical to the solo run (the shared artifact is never a shared
/// mutable anything).
#[test]
fn co_resident_tenants_match_solo_runs() {
    const ITERS: u64 = 12;
    let (solo_out, solo_iters, solo_firings) = solo_run(ITERS, FaultPlan::none());
    let service = StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers: 1,
            batch_iters: 3,
            ..ServiceConfig::default()
        },
    );
    let g = victim_pipeline();
    let a = service.submit("tenant_a", &g, FaultPlan::none()).unwrap();
    let b = service.submit("tenant_b", &g, FaultPlan::none()).unwrap();
    // Interleave feeds so the shard alternates slices between tenants.
    for _ in 0..4 {
        service.feed(a, ITERS / 4).unwrap();
        service.feed(b, ITERS / 4).unwrap();
    }
    for id in [a, b] {
        let report = service.close(id).unwrap();
        assert!(!report.faulted);
        assert_eq!(report.iters_done, solo_iters);
        assert_eq!(report.firings, solo_firings);
        assert_bits_eq(&format!("tenant {id}"), &solo_out, &flat(report));
    }
    let sr = service.shutdown("isolation_clean");
    assert_eq!(
        sr.last.cache.compilations, 1,
        "both tenants share one artifact"
    );
}

/// The acceptance criterion: inject a panic into one of two concurrent
/// sessions on the same shard. The faulted tenant drains to the
/// committed outcome; the unfaulted tenant is bit-identical (outputs
/// *and* counters) to its solo run.
#[test]
fn injected_panic_quarantines_only_the_faulty_tenant() {
    const ITERS: u64 = 12;
    const FAULT_FIRING: u64 = 6;
    let (solo_out, solo_iters, solo_firings) = solo_run(ITERS, FaultPlan::none());
    // Fault the seventh firing of stage 1 of the SIMDized graph. A solo
    // faulted run quarantines with exactly the committed outcome, cut
    // short of the full run.
    let plan = FaultPlan::single(1, FAULT_FIRING, FaultKind::Panic);
    let (victim_solo_out, victim_solo_iters, _) = solo_run(ITERS, plan.clone());
    assert!(
        victim_solo_out.len() < solo_out.len(),
        "fault must truncate"
    );
    assert!(victim_solo_iters < solo_iters);
    assert_bits_eq(
        "solo faulted run is the committed outcome",
        &committed(&solo_out, 1, FAULT_FIRING),
        &victim_solo_out,
    );
    let service = StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers: 1,
            batch_iters: 3,
            ..ServiceConfig::default()
        },
    );
    let g = victim_pipeline();
    let victim = service.submit("victim", &g, plan).unwrap();
    let healthy = service.submit("healthy", &g, FaultPlan::none()).unwrap();
    for _ in 0..4 {
        service.feed(victim, ITERS / 4).unwrap();
        service.feed(healthy, ITERS / 4).unwrap();
    }
    let victim_report = service.close(victim).unwrap();
    assert!(victim_report.faulted, "the injected panic must quarantine");
    assert!(
        victim_report.failures.iter().any(|f| f.contains("panic")),
        "failure should carry the panic cause: {:?}",
        victim_report.failures
    );
    // Co-resident quarantine is bit-identical to the solo quarantine.
    assert_bits_eq(
        "victim committed outcome",
        &victim_solo_out,
        &flat(victim_report),
    );
    // The co-resident tenant never noticed.
    let healthy_report = service.close(healthy).unwrap();
    assert!(!healthy_report.faulted);
    assert_eq!(healthy_report.iters_done, solo_iters);
    assert_eq!(healthy_report.firings, solo_firings);
    assert_bits_eq("healthy tenant", &solo_out, &flat(healthy_report));
    let sr = service.shutdown("isolation_fault");
    let victim_row = sr.tenants.iter().find(|t| t.benchmark == "victim").unwrap();
    assert_eq!(victim_row.state, TenantState::Faulted);
    assert!(victim_row.faults > 0);
    let healthy_row = sr
        .tenants
        .iter()
        .find(|t| t.benchmark == "healthy")
        .unwrap();
    assert_eq!(healthy_row.state, TenantState::Closed);
    assert_eq!(healthy_row.faults, 0);
    assert_eq!(sr.violations(), Vec::<String>::new());
}

/// `src -> scale^stages -> sink`: more stages cost more under the
/// admission model.
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

fn two_shards(batch_iters: u64) -> StreamService {
    StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers: 2,
            batch_iters,
            ..ServiceConfig::default()
        },
    )
}

/// Admit a never-fed `chain(6)` — it homes on shard 0 and outweighs two
/// `victim_pipeline` sessions, so both of those home on shard 1 — then
/// the two sessions. Shard 0 has nothing of its own: everything it runs,
/// it stole.
fn anchored(service: &StreamService, plans: [FaultPlan; 2]) -> [u64; 2] {
    service
        .submit("anchor", &chain(6), FaultPlan::none())
        .unwrap();
    plans.map(|plan| service.submit("tenant", &victim_pipeline(), plan).unwrap())
}

/// Migration: two long sessions homed on one shard while the other has
/// nothing of its own. The idle shard steals one at a slice boundary, and
/// both stay bit-identical to their solo runs, outputs *and* counters.
#[test]
fn stolen_sessions_match_solo_runs() {
    const ITERS: u64 = 96;
    let (solo_out, solo_iters, solo_firings) = solo_run(ITERS, FaultPlan::none());
    let dry = two_shards(1);
    anchored(&dry, [FaultPlan::none(), FaultPlan::none()]);
    let homes: Vec<u64> = dry
        .shutdown("dry")
        .tenants
        .iter()
        .map(|t| t.shard)
        .collect();
    assert_eq!(homes, vec![0, 1, 1], "the scenario's admission homes");
    // A steal needs shard 0 scheduled while shard 1 still has a session
    // queued; retry the round on a host too busy to give it one.
    let mut steals = 0;
    for round in 0..10 {
        let service = two_shards(1);
        let ids = anchored(&service, [FaultPlan::none(), FaultPlan::none()]);
        for id in ids {
            service.feed(id, ITERS).unwrap();
        }
        for id in ids {
            let report = service.close(id).unwrap();
            let ctx = format!("round {round}, tenant {id}");
            assert!(!report.faulted, "{ctx}");
            assert_eq!(report.iters_done, solo_iters, "{ctx}");
            assert_eq!(report.firings, solo_firings, "{ctx}");
            assert_bits_eq(&ctx, &solo_out, &flat(report));
        }
        let sr = service.shutdown("migration");
        assert_eq!(sr.violations(), Vec::<String>::new());
        steals = sr.last.admission.steals;
        if steals > 0 {
            break;
        }
    }
    assert!(steals > 0, "the idle shard never stole in 10 rounds");
}

/// A fault on a stolen slice. The victim's home shard is stuck in a
/// co-resident's stalled firing, so the victim's feed wakes the idle
/// shard, which steals it; its whole feed is one slice, so the fault
/// fires on the stolen slice itself. The quarantined output equals the
/// solo faulted run's, the staller equals its solo run, and the failure
/// names the shard that ran the slice — the victim's home since the
/// steal.
#[test]
fn a_fault_on_a_stolen_slice_quarantines_to_the_solo_prefix() {
    const ITERS: u64 = 12;
    let plan = FaultPlan::single(1, 6, FaultKind::Panic);
    let (victim_solo_out, victim_solo_iters, _) = solo_run(ITERS, plan.clone());
    let (solo_out, _, _) = solo_run(ITERS, FaultPlan::none());
    assert_bits_eq("solo", &committed(&solo_out, 1, 6), &victim_solo_out);
    let (stall_solo_out, _, stall_solo_firings) = solo_run(1, FaultPlan::none());
    let stall = FaultPlan::single(1, 0, FaultKind::StallFiring { nanos: 400_000_000 });
    let mut steals = 0;
    for round in 0..5 {
        let service = two_shards(ITERS);
        let [staller, victim] = anchored(&service, [stall.clone(), plan.clone()]);
        service.feed(staller, 1).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        service.feed(victim, ITERS).unwrap();
        let ctx = format!("round {round}");
        let report = service.close(victim).unwrap();
        assert!(report.faulted, "{ctx}: the injected panic must quarantine");
        assert_eq!(report.iters_done, victim_solo_iters, "{ctx}");
        let failures = report.failures.clone();
        assert_bits_eq(&ctx, &victim_solo_out, &flat(report));
        let staller_report = service.close(staller).unwrap();
        assert!(!staller_report.faulted, "{ctx}");
        assert_eq!(staller_report.firings, stall_solo_firings, "{ctx}");
        assert_bits_eq(&ctx, &stall_solo_out, &flat(staller_report));
        let sr = service.shutdown("stolen_fault");
        assert_eq!(sr.violations(), Vec::<String>::new());
        let row = sr
            .tenants
            .iter()
            .find(|t| t.state == TenantState::Faulted)
            .unwrap();
        let core = format!("on core {}", row.shard);
        assert!(
            failures.iter().all(|f| f.contains(&core)),
            "{ctx}: {failures:?} should name {core}"
        );
        steals = sr.last.admission.steals;
        if steals > 0 && row.shard == 0 {
            break;
        }
    }
    assert!(steals > 0, "the victim was never stolen in 5 rounds");
}

/// `src -> spin -> sink`, a 3-node graph whose one firing of `spin`
/// loops a million times: a slice that keeps its shard busy for a while.
fn spinner() -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    src.work(|b| {
        b.push(1i32);
    });
    let mut spin = FilterBuilder::new("spin", 1, 1, 1, ScalarTy::I32);
    let acc = spin.local("acc", Ty::Scalar(ScalarTy::I32));
    let i = spin.local("i", Ty::Scalar(ScalarTy::I32));
    spin.work(move |b| {
        b.set(acc, pop());
        b.for_(i, 1_000_000, |b| {
            b.set(acc, v(acc) + 1i32);
        });
        b.push(v(acc));
    });
    StreamSpec::pipeline(vec![src.build_spec(), spin.build_spec(), StreamSpec::Sink])
        .build()
        .unwrap()
}

/// Admit `anchor` (`chain(8)`), `moved` (`chain(3)`) and `busy`
/// (`spinner`) on `service`; the ids of `moved` and `busy`.
fn moved_and_busy(service: &StreamService) -> (u64, u64) {
    service
        .submit("anchor", &chain(8), FaultPlan::none())
        .unwrap();
    let moved = service
        .submit("moved", &chain(3), FaultPlan::none())
        .unwrap();
    let busy = service
        .submit("busy", &spinner(), FaultPlan::none())
        .unwrap();
    (moved, busy)
}

/// One session's slices run on both shards: its home shard 1 runs it
/// while it is alone, the idle shard 0 steals it once shard 1 is busy
/// with a co-resident, and the session's row then names shard 0, its
/// home since the steal. Its output is the solo run's, bit for bit.
#[test]
fn a_stolen_session_fires_on_both_shards() {
    use macross::SimdizeOptions;
    let opts = SimdizeOptions {
        single: false,
        vertical: false,
        horizontal: false,
        permute_opt: false,
        reorder_opt: false,
        profitability: false,
        prepass: false,
        region: false,
    };
    let config = ServiceConfig {
        workers: 2,
        batch_iters: 4,
        opts,
        ..ServiceConfig::default()
    };
    let solo = StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers: 1,
            ..config
        },
    );
    let id = solo.submit("solo", &chain(3), FaultPlan::none()).unwrap();
    solo.feed(id, 128).unwrap();
    let solo_out = flat(solo.close(id).unwrap());
    solo.shutdown("solo");
    let dry = StreamService::new(Machine::core_i7(), config);
    moved_and_busy(&dry);
    let homes: Vec<u64> = dry
        .shutdown("dry")
        .tenants
        .iter()
        .map(|t| t.shard)
        .collect();
    assert_eq!(homes, vec![0, 1, 1], "the scenario's admission homes");
    // (moved's last home, steals) of the last failed round.
    let mut last = (1, 0);
    for round in 0..10 {
        let service = StreamService::new(Machine::core_i7(), config);
        let (moved, busy) = moved_and_busy(&service);
        // Alone, `moved` runs on its home shard 1.
        service.feed(moved, 64).unwrap();
        let mut out = Vec::new();
        loop {
            let polled = service.poll(moved).unwrap();
            out.extend(polled.outputs.into_iter().flatten());
            if polled.iters_done == 64 {
                break;
            }
            std::thread::yield_now();
        }
        // Let shard 1 park after `moved`'s last slice: a shard still
        // awake is not woken, so `busy`'s feed would wake shard 0, which
        // would steal `busy` instead.
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Shard 1 inside `busy`'s one long slice: the next feed of
        // `moved` wakes shard 0, which steals it.
        service.feed(busy, 1).unwrap();
        service.feed(moved, 64).unwrap();
        out.extend(flat(service.close(moved).unwrap()));
        service.close(busy).unwrap();
        assert_bits_eq(&format!("round {round}"), &solo_out, &out);
        let sr = service.shutdown("steal");
        let home = sr
            .tenants
            .iter()
            .find(|t| t.session == moved)
            .unwrap()
            .shard;
        if home == 0 && sr.last.admission.steals > 0 {
            return;
        }
        last = (home, sr.last.admission.steals);
    }
    panic!("shard 0 never stole the session in 10 rounds: {last:?}");
}
