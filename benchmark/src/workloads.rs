//! The five workloads. Each is set up once (timed as `setup_s`) and then
//! asked for passes; a pass is a fixed amount of work — one visit to
//! every program of the workload in seed-shuffled order — whose constants
//! live here and are never calibrated at run time.

use crate::stats::Rng;
use crate::suite::{
    cold_op, expected_elems, node_classes, prepare_all, seq_op, Output, Prog, BLOCK_MULT,
};
use crate::trace::{NodeClass, Tracer};
use macross::driver::SimdizeOptions;
use macross_benchsuite::dynamic::{dynamic, DynBenchmark};
use macross_benchsuite::Benchmark;
use macross_multicore::{plan_placement, CommModel, PlacementPlan};
use macross_pdf::{ParamGraph, ParamTrace};
use macross_runtime::{run_threaded_placed, FaultPlan, RuntimeReport};
use macross_service::{ServiceConfig, StreamService};
use macross_streamir::Valuation;
use macross_vm::{run_scheduled, CompiledPrograms, ExecMode, Machine};
use std::sync::Arc;
use std::time::Instant;

/// Sweeps of the 16 programs in one `compile_cold` pass (~22 ms each on
/// the seed machine).
pub const COLD_SWEEPS: usize = 5;
/// `suite_simd_threaded2` iteration block: `b.iters x` this.
pub const THREADED_MULT: u64 = 4;
/// Worker threads / service shards asked for; clamped to `nproc`.
pub const WORKERS: usize = 2;
/// Session-length multipliers of `service_sessions`. A pass is one wave
/// per multiplier and every session slot sees each multiplier once per
/// pass, so a pass is the same work whatever the seed.
pub const SESSION_MULTS: [u64; 3] = [1, 4, 16];
pub const WAVES_PER_PASS: usize = SESSION_MULTS.len();
/// Base length of a dynamic-rate session, in steady iterations.
pub const DYN_BASE_ITERS: u64 = 16;
/// Iterations per `feed` call; longer sessions are fed in several calls.
pub const FEED_CHUNK: u64 = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimdSeq,
    ScalarSeq,
    CompileCold,
    Threaded2,
    Service,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SimdSeq,
        Workload::ScalarSeq,
        Workload::CompileCold,
        Workload::Threaded2,
        Workload::Service,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimdSeq => "suite_simd_seq",
            Workload::ScalarSeq => "suite_scalar_seq",
            Workload::CompileCold => "compile_cold",
            Workload::Threaded2 => "suite_simd_threaded2",
            Workload::Service => "service_sessions",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set the workload up: everything before its first pass.
    pub fn setup(self, machine: &Machine, tr: &mut Tracer) -> Result<Box<dyn Load>, String> {
        Ok(match self {
            Workload::SimdSeq => Box::new(SeqLoad::setup(machine, true, tr)?),
            Workload::ScalarSeq => Box::new(SeqLoad::setup(machine, false, tr)?),
            Workload::CompileCold => Box::new(ColdLoad::setup(machine, tr)?),
            Workload::Threaded2 => Box::new(ThreadedLoad::setup(machine, tr)?),
            Workload::Service => Box::new(ServiceLoad::setup(machine, tr)?),
        })
    }
}

/// `min(WORKERS, nproc)`: load never exceeds the cores there are.
pub fn workers() -> usize {
    WORKERS.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One `run_threaded_placed` call as seen from outside, with the report
/// it returned (kept only when tracing).
pub struct ThreadedSample {
    pub prog: usize,
    pub iters: u64,
    pub outside_ns: u64,
    pub report: RuntimeReport,
}

/// What a pass hands back for checking outside the timed span.
#[derive(Default)]
pub struct PassOut {
    pub outputs: Vec<Output>,
    /// Operations that returned an error, faulted or were refused.
    pub errors: Vec<String>,
    pub threaded: Vec<ThreadedSample>,
}

impl PassOut {
    fn push(&mut self, name: &str, r: Result<Output, String>) {
        match r {
            Ok(out) => self.outputs.push(out),
            Err(e) => self.errors.push(format!("{name}: {e}")),
        }
    }
}

/// A reference stream a workload checks against.
pub enum RefSpec {
    /// Suite program `index`, at least `min_elems` long.
    Suite { index: usize, min_elems: usize },
    /// A dynamic session's script, replayed by `macross_pdf::oracle_replay`.
    Dynamic {
        index: usize,
        bench: DynBenchmark,
        trace: ParamTrace,
    },
}

pub trait Load {
    fn pass(&mut self, rng: &mut Rng, tr: &mut Tracer) -> PassOut;
    fn refs(&self) -> Vec<RefSpec>;
    /// Stop what set-up started (service shards).
    fn finish(self: Box<Self>) {}
}

fn suite_refs(progs: &[Prog], elems: impl Fn(&Prog) -> usize) -> Vec<RefSpec> {
    progs
        .iter()
        .enumerate()
        .map(|(index, p)| RefSpec::Suite {
            index,
            min_elems: elems(p),
        })
        .collect()
}

// ---------------------------------------------------------------------
// suite_simd_seq / suite_scalar_seq
// ---------------------------------------------------------------------

/// Sequential executor over programs compiled once in set-up.
pub struct SeqLoad {
    pub machine: Machine,
    pub simd: bool,
    pub progs: Vec<Prog>,
    pub programs: Vec<CompiledPrograms>,
    pub classes: Vec<Vec<NodeClass>>,
}

impl SeqLoad {
    pub fn setup(machine: &Machine, simd: bool, tr: &mut Tracer) -> Result<SeqLoad, String> {
        SeqLoad::with_mode(machine, simd, ExecMode::Bytecode, tr)
    }

    pub fn with_mode(
        machine: &Machine,
        simd: bool,
        mode: ExecMode,
        tr: &mut Tracer,
    ) -> Result<SeqLoad, String> {
        let progs = prepare_all(machine, tr)?;
        let s = tr.begin("vm.compile");
        let programs = progs
            .iter()
            .map(|p| {
                CompiledPrograms::compile(if simd { &p.simd } else { &p.scalar }, machine, mode)
            })
            .collect();
        tr.end(s);
        let classes = progs
            .iter()
            .map(|p| node_classes(if simd { &p.simd } else { &p.scalar }))
            .collect();
        Ok(SeqLoad {
            machine: machine.clone(),
            simd,
            progs,
            programs,
            classes,
        })
    }

    pub fn iters(p: &Prog) -> u64 {
        p.base_iters * BLOCK_MULT
    }

    /// One operation on program `i`.
    pub fn op(&self, i: usize, tr: &mut Tracer) -> Result<Output, String> {
        let p = &self.progs[i];
        let (graph, sched) = if self.simd {
            (&p.simd, &p.vsched)
        } else {
            (&p.scalar, &p.ssched)
        };
        let iters = SeqLoad::iters(p);
        tr.next_op();
        let root = tr.begin("bench.op");
        let values = seq_op(
            graph,
            sched,
            &self.machine,
            &self.programs[i],
            iters,
            &self.classes[i],
            tr,
        );
        tr.end(root);
        Ok(Output {
            reference: i,
            expect_len: Some(expected_elems(graph, sched, iters)),
            values: values?,
        })
    }
}

impl Load for SeqLoad {
    fn pass(&mut self, rng: &mut Rng, tr: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        for i in rng.permutation(self.progs.len()) {
            let r = self.op(i, tr);
            out.push(self.progs[i].name, r);
        }
        out
    }

    fn refs(&self) -> Vec<RefSpec> {
        suite_refs(&self.progs, |p| {
            expected_elems(&p.simd, &p.vsched, SeqLoad::iters(p))
        })
    }
}

// ---------------------------------------------------------------------
// compile_cold
// ---------------------------------------------------------------------

pub struct ColdLoad {
    machine: Machine,
    benches: Vec<Benchmark>,
    /// Sink elements one cold run of each program delivers.
    elems: Vec<usize>,
}

impl ColdLoad {
    pub fn setup(machine: &Machine, tr: &mut Tracer) -> Result<ColdLoad, String> {
        let elems = prepare_all(machine, tr)?
            .iter()
            .map(|p| expected_elems(&p.simd, &p.vsched_raw, p.base_iters))
            .collect();
        Ok(ColdLoad {
            machine: machine.clone(),
            benches: macross_benchsuite::all(),
            elems,
        })
    }
}

impl Load for ColdLoad {
    fn pass(&mut self, rng: &mut Rng, tr: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        for _ in 0..COLD_SWEEPS {
            for i in rng.permutation(self.benches.len()) {
                let b = &self.benches[i];
                tr.next_op();
                let root = tr.begin("bench.op");
                let r = cold_op(i, b, &self.machine, tr);
                tr.end(root);
                out.push(b.name, r);
            }
        }
        out
    }

    fn refs(&self) -> Vec<RefSpec> {
        self.elems
            .iter()
            .enumerate()
            .map(|(index, &min_elems)| RefSpec::Suite { index, min_elems })
            .collect()
    }
}

// ---------------------------------------------------------------------
// suite_simd_threaded2
// ---------------------------------------------------------------------

/// The SIMDized suite through `plan_placement` and `run_threaded_placed`.
pub struct ThreadedLoad {
    pub machine: Machine,
    pub progs: Vec<Prog>,
    pub plans: Vec<PlacementPlan>,
}

impl ThreadedLoad {
    pub fn setup(machine: &Machine, tr: &mut Tracer) -> Result<ThreadedLoad, String> {
        let progs = prepare_all(machine, tr)?;
        // 3/40 passed explicitly: the plan is a pure function of the
        // graph, not of a calibration run or an environment variable.
        let comm = CommModel::default();
        let mut plans = Vec::with_capacity(progs.len());
        for p in &progs {
            let s = tr.begin("vm.profile");
            let profile = run_scheduled(&p.simd, &p.vsched, machine, 2);
            tr.end(s);
            let profile = profile.map_err(|e| format!("{}: {e}", p.name))?;
            let s = tr.begin("multicore.plan");
            let plan = plan_placement(&p.simd, &p.vsched, &profile.node_cycles, workers(), &comm);
            tr.end(s);
            plans.push(plan);
        }
        Ok(ThreadedLoad {
            machine: machine.clone(),
            progs,
            plans,
        })
    }

    pub fn iters(p: &Prog) -> u64 {
        p.base_iters * THREADED_MULT
    }
}

impl Load for ThreadedLoad {
    fn pass(&mut self, rng: &mut Rng, tr: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        for i in rng.permutation(self.progs.len()) {
            let p = &self.progs[i];
            let iters = ThreadedLoad::iters(p);
            tr.next_op();
            let root = tr.begin("bench.op");
            let s = tr.begin("runtime.run_threaded_placed");
            let t = Instant::now();
            let run = run_threaded_placed(
                &p.simd,
                &p.vsched,
                &self.machine,
                &self.plans[i].placement,
                iters,
            );
            let outside_ns = t.elapsed().as_nanos() as u64;
            tr.end(s);
            tr.end(root);
            match run {
                Ok(run) => {
                    if tr.enabled() {
                        out.threaded.push(ThreadedSample {
                            prog: i,
                            iters,
                            outside_ns,
                            report: run.report,
                        });
                    }
                    out.outputs.push(Output {
                        reference: i,
                        expect_len: Some(expected_elems(&p.simd, &p.vsched, iters)),
                        values: run.output,
                    });
                }
                Err(e) => out.errors.push(format!("{}: {e}", p.name)),
            }
        }
        out
    }

    fn refs(&self) -> Vec<RefSpec> {
        suite_refs(&self.progs, |p| {
            expected_elems(&p.simd, &p.vsched, ThreadedLoad::iters(p))
        })
    }
}

// ---------------------------------------------------------------------
// service_sessions
// ---------------------------------------------------------------------

/// One dynamic-rate template of the wave.
pub struct DynSlot {
    pub bench: DynBenchmark,
    pub template: Arc<ParamGraph>,
    pub init: Valuation,
    pub param: String,
    pub lo: u64,
    pub hi: u64,
    /// Index in `Refs::streams` of this template's first script.
    pub ref_base: usize,
}

impl DynSlot {
    fn values(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// The script of one session: half the iterations, one `set_param`,
    /// the other half.
    fn script(&self, mult_idx: usize, value: u64) -> (usize, u64, u64) {
        let iters = DYN_BASE_ITERS * SESSION_MULTS[mult_idx];
        let index = self.ref_base + mult_idx * self.values() as usize + (value - self.lo) as usize;
        (index, iters / 2, iters - iters / 2)
    }
}

/// Closed loop of waves against one resident `StreamService`.
pub struct ServiceLoad {
    pub progs: Vec<Prog>,
    pub dyns: Vec<DynSlot>,
    pub service: StreamService,
    /// `Overloaded` answers to any call so far (expected 0).
    pub refusals: u64,
}

struct Session {
    op: u32,
    id: Option<u64>,
    failed: Option<String>,
}

impl ServiceLoad {
    pub fn setup(machine: &Machine, tr: &mut Tracer) -> Result<ServiceLoad, String> {
        let progs = prepare_all(machine, tr)?;
        let mut dyns = Vec::new();
        let mut ref_base = progs.len();
        for bench in dynamic() {
            let template = Arc::new((bench.template)());
            let (param, range) = template
                .domain()
                .iter()
                .next()
                .map(|(n, r)| (n.to_string(), r))
                .ok_or_else(|| format!("{}: no parameter", bench.name))?;
            let slot = DynSlot {
                bench,
                template,
                init: (bench.init)(),
                param,
                lo: range.lo,
                hi: range.hi,
                ref_base,
            };
            ref_base += SESSION_MULTS.len() * slot.values() as usize;
            dyns.push(slot);
        }
        let wave = progs.len() + dyns.len();
        let longest = progs.iter().map(|p| p.base_iters).max().unwrap_or(1)
            * SESSION_MULTS.iter().max().copied().unwrap_or(1);
        // Default config except what the wave's shape dictates: room for
        // one wave of sessions and for the longest session's iterations,
        // so that no call is refused.
        let config = ServiceConfig {
            workers: workers(),
            session_cap: wave.max(ServiceConfig::default().session_cap),
            queue_bound: longest.max(ServiceConfig::default().queue_bound),
            ..ServiceConfig::default()
        };
        let s = tr.begin("service.start");
        let service = StreamService::new(machine.clone(), config);
        tr.end(s);
        let mut load = ServiceLoad {
            progs,
            dyns,
            service,
            refusals: 0,
        };
        // The cold wave: every static shape compiles once, and each
        // dynamic session walks its whole domain so that every later
        // wave is 100 % compile-cache and schedule-cache hits.
        let s = tr.begin("service.cold_wave");
        let cold = load.cold_wave();
        tr.end(s);
        cold?;
        Ok(load)
    }

    fn cold_wave(&mut self) -> Result<(), String> {
        let svc = &self.service;
        let err = |e: macross_service::ServiceError| e.to_string();
        let mut ids = Vec::new();
        for p in &self.progs {
            let id = svc
                .submit(p.name, &p.scalar, FaultPlan::none())
                .map_err(err)?;
            svc.feed(id, 1).map_err(err)?;
            ids.push(id);
        }
        for d in &self.dyns {
            let id = svc
                .submit_dynamic(d.bench.name, &d.template, &d.init, FaultPlan::none())
                .map_err(err)?;
            svc.feed(id, 1).map_err(err)?;
            for v in d.lo..=d.hi {
                svc.set_param(id, &d.param, v).map_err(err)?;
                svc.feed(id, 1).map_err(err)?;
            }
            ids.push(id);
        }
        for id in ids {
            let report = svc.close(id).map_err(err)?;
            if report.faulted {
                return Err(format!("cold wave faulted: {:?}", report.failures));
            }
        }
        Ok(())
    }

    fn feed(&mut self, sess: &mut Session, mut iters: u64, tr: &mut Tracer) {
        let Some(id) = sess.id else { return };
        while iters > 0 && sess.failed.is_none() {
            let n = iters.min(FEED_CHUNK);
            let s = tr.begin("service.feed");
            let r = self.service.feed(id, n);
            tr.end(s);
            if let Err(e) = r {
                self.refusals += e.is_overloaded() as u64;
                sess.failed = Some(e.to_string());
            }
            iters -= n;
        }
    }

    /// One wave: submit every session, feed every session, close every
    /// session. `mult_of[i]` is slot `i`'s multiplier index this wave.
    fn wave(
        &mut self,
        order: &[usize],
        mult_of: &[usize],
        rng: &mut Rng,
        tr: &mut Tracer,
        out: &mut PassOut,
    ) {
        let n_static = self.progs.len();
        tr.next_op();
        let wave_op = tr.op();
        let root = tr.begin("service.wave");
        let mut sessions: Vec<Session> = (0..order.len())
            .map(|_| Session {
                op: tr.next_op(),
                id: None,
                failed: None,
            })
            .collect();
        // Seeded `set_param` target of each dynamic slot.
        let targets: Vec<u64> = self
            .dyns
            .iter()
            .map(|d| d.lo + rng.below(d.values()))
            .collect();

        for &i in order {
            tr.set_op(sessions[i].op);
            let s = tr.begin("service.submit");
            let r = if i < n_static {
                let p = &self.progs[i];
                self.service.submit(p.name, &p.scalar, FaultPlan::none())
            } else {
                let d = &self.dyns[i - n_static];
                self.service
                    .submit_dynamic(d.bench.name, &d.template, &d.init, FaultPlan::none())
            };
            tr.end(s);
            match r {
                Ok(id) => sessions[i].id = Some(id),
                Err(e) => {
                    self.refusals += e.is_overloaded() as u64;
                    sessions[i].failed = Some(e.to_string());
                }
            }
        }
        for &i in order {
            tr.set_op(sessions[i].op);
            let sess = &mut sessions[i];
            if i < n_static {
                let iters = self.progs[i].base_iters * SESSION_MULTS[mult_of[i]];
                self.feed(sess, iters, tr);
            } else {
                let d = i - n_static;
                let (_, before, after) = self.dyns[d].script(mult_of[i], targets[d]);
                self.feed(sess, before, tr);
                if let (Some(id), None) = (sess.id, &sess.failed) {
                    let s = tr.begin("pdf.set_param");
                    let r = self.service.set_param(id, &self.dyns[d].param, targets[d]);
                    tr.end(s);
                    if let Err(e) = r {
                        sess.failed = Some(e.to_string());
                    }
                }
                self.feed(sess, after, tr);
            }
        }
        for &i in order {
            let sess = &mut sessions[i];
            tr.set_op(sess.op);
            let name = if i < n_static {
                self.progs[i].name
            } else {
                self.dyns[i - n_static].bench.name
            };
            let Some(id) = sess.id else {
                out.errors.push(format!(
                    "{name}: {}",
                    sess.failed.take().unwrap_or_default()
                ));
                continue;
            };
            let s = tr.begin("service.close");
            let r = self.service.close(id);
            tr.end(s);
            let report = match r {
                Ok(report) => report,
                Err(e) => {
                    out.errors.push(format!("{name}: {e}"));
                    continue;
                }
            };
            if let Some(e) = sess.failed.take() {
                out.errors.push(format!("{name}: {e}"));
            } else if report.faulted {
                out.errors
                    .push(format!("{name}: faulted {:?}", report.failures));
            } else if i < n_static {
                let p = &self.progs[i];
                let iters = p.base_iters * SESSION_MULTS[mult_of[i]];
                out.outputs.push(Output {
                    reference: i,
                    expect_len: Some(expected_elems(&p.simd, &p.vsched_raw, iters)),
                    values: report.outputs.into_iter().flatten().collect(),
                });
            } else {
                let d = i - n_static;
                let (reference, _, _) = self.dyns[d].script(mult_of[i], targets[d]);
                out.outputs.push(Output {
                    reference,
                    expect_len: None,
                    values: report.outputs.into_iter().flatten().collect(),
                });
            }
        }
        tr.set_op(wave_op);
        tr.end(root);
    }
}

impl Load for ServiceLoad {
    fn pass(&mut self, rng: &mut Rng, tr: &mut Tracer) -> PassOut {
        let mut out = PassOut::default();
        let slots = self.progs.len() + self.dyns.len();
        // Slot i runs multiplier (rot[i] + wave) mod 3 in this pass.
        let rot: Vec<usize> = (0..slots)
            .map(|_| rng.below(WAVES_PER_PASS as u64) as usize)
            .collect();
        for w in 0..WAVES_PER_PASS {
            let order = rng.permutation(slots);
            let mult_of: Vec<usize> = rot.iter().map(|r| (r + w) % WAVES_PER_PASS).collect();
            self.wave(&order, &mult_of, rng, tr, &mut out);
        }
        out
    }

    fn refs(&self) -> Vec<RefSpec> {
        let longest = SESSION_MULTS.iter().max().copied().unwrap_or(1);
        let mut specs = suite_refs(&self.progs, |p| {
            expected_elems(&p.simd, &p.vsched_raw, p.base_iters * longest)
        });
        for d in &self.dyns {
            for m in 0..SESSION_MULTS.len() {
                for value in d.lo..=d.hi {
                    let (index, before, after) = d.script(m, value);
                    specs.push(RefSpec::Dynamic {
                        index,
                        bench: d.bench,
                        trace: ParamTrace::new("session")
                            .then(&[], before)
                            .then(&[(d.param.as_str(), value)], after),
                    });
                }
            }
        }
        specs
    }

    fn finish(self: Box<Self>) {
        self.service.shutdown("suite_e2e");
    }
}

/// The options and mode every dynamic reference is replayed with: the
/// service's own defaults.
pub fn service_opts() -> (SimdizeOptions, ExecMode) {
    let c = ServiceConfig::default();
    (c.opts, c.mode)
}
