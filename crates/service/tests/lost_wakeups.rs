//! Lost-wake-up stress: three client threads drive 64 sessions on two
//! shards with one-iteration slices, interleaving `feed`, `poll`,
//! `set_param` and `close`. A wake-up that reaches nobody — a shard left
//! parked beside queued work, a `close` never signalled — shows up here
//! as a `close` that does not come back: every one must return within
//! the deadline, with every fed iteration done.

use macross_pdf::ParamGraph;
use macross_runtime::FaultPlan;
use macross_service::{ServiceConfig, StreamService};
use macross_streamir::builder::StreamSpec;
use macross_streamir::edsl::*;
use macross_streamir::graph::Graph;
use macross_streamir::types::{ScalarTy, Ty};
use macross_streamir::{ParamDomain, RateExpr, Valuation};
use macross_vm::Machine;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 64;
const CLIENTS: usize = 3;
const ROUNDS: u64 = 4;
const FEED: u64 = 6;
const DEADLINE: Duration = Duration::from_secs(10);

fn counter() -> Graph {
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    let n = src.state("n", Ty::Scalar(ScalarTy::I32));
    src.work(move |b| {
        b.push(v(n));
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

/// One client: admit its share of the sessions (odd ones dynamic), feed
/// them round-robin with polls and parameter changes between, then close
/// them newest first, reporting `(session, fed, iters_done, seconds)`
/// for each close.
fn client(service: &StreamService, c: usize, tx: &mpsc::Sender<(usize, u64, u64, f64)>) {
    let graph = counter();
    let template = decim_template();
    let mut open = Vec::new();
    for s in (c..SESSIONS).step_by(CLIENTS) {
        let dynamic = s % 2 == 1;
        let id = if dynamic {
            service
                .submit_dynamic(
                    "dyn",
                    &template,
                    &Valuation::of("decim", 1),
                    FaultPlan::none(),
                )
                .unwrap()
        } else {
            service.submit("static", &graph, FaultPlan::none()).unwrap()
        };
        open.push((s, id, dynamic));
    }
    for round in 0..ROUNDS {
        for &(s, id, dynamic) in &open {
            service.feed(id, FEED).unwrap();
            if (s as u64 + round) % 2 == 1 {
                service.poll(id).unwrap();
            }
            if dynamic {
                service.set_param(id, "decim", 1 + round % 3).unwrap();
            }
        }
    }
    for &(s, id, _) in open.iter().rev() {
        let start = Instant::now();
        let report = service.close(id).unwrap();
        assert!(!report.faulted, "session {s}: {:?}", report.failures);
        let elapsed = start.elapsed().as_secs_f64();
        tx.send((s, ROUNDS * FEED, report.iters_done, elapsed))
            .unwrap();
    }
}

#[test]
fn every_close_returns_with_everything_fed_done() {
    let service = Arc::new(StreamService::new(
        Machine::core_i7(),
        ServiceConfig {
            workers: 2,
            batch_iters: 1,
            session_cap: SESSIONS,
            // Small enough that slices defer until a poll or the drain.
            output_bound: 16,
            ..ServiceConfig::default()
        },
    ));
    let (tx, rx) = mpsc::channel();
    // Plain threads, not scoped ones: a lost wake-up must fail the test
    // at the deadline, not hang it in a join.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (service, tx) = (service.clone(), tx.clone());
            std::thread::spawn(move || client(&service, c, &tx))
        })
        .collect();
    drop(tx);
    let mut closed = [false; SESSIONS];
    for _ in 0..SESSIONS {
        let (s, fed, done, secs) = rx.recv_timeout(DEADLINE).unwrap_or_else(|e| {
            panic!(
                "no close came back within {DEADLINE:?} ({e}); still open: {:?}",
                (0..SESSIONS).filter(|&s| !closed[s]).collect::<Vec<_>>()
            )
        });
        assert_eq!(done, fed, "session {s}: {done} of {fed} fed iterations ran");
        assert!(
            secs < DEADLINE.as_secs_f64(),
            "session {s}: close took {secs:.1} s"
        );
        closed[s] = true;
    }
    for client in clients {
        client.join().unwrap();
    }
    let service = Arc::try_unwrap(service)
        .ok()
        .expect("every client thread has finished");
    let sr = service.shutdown("wakeups");
    assert_eq!(sr.last.admission.admitted, SESSIONS as u64);
    assert_eq!(sr.violations(), Vec::<String>::new());
}
