//! The session server: admission control at the front, the compile-once
//! cache in the middle, a work-conserving shard pool at the back.
//!
//! ## Threading and lock order
//!
//! Three locks exist: the service **state** (session table, run queues,
//! counters), one mutex **per tenant** (its engine and buffers), and the
//! one artifact **cache**. The global order is *state → tenant → cache*.
//! Shard threads take a session id under the state lock, run the slice
//! under that tenant's lock (a dynamic tenant swapping configurations
//! mid-slice takes the cache lock inside it), then re-acquire the state
//! lock once to publish the slice and take the next id. Control-plane
//! calls (`feed`, `poll`, `set_param`) may take a tenant lock while
//! holding the state lock; admission (`submit` and `submit_dynamic` both
//! go through `admit`) compiles under the cache lock alone, never while
//! holding the state lock.
//!
//! ## One session type
//!
//! Every tenant runs one [`SessionEngine`]; a dynamic-rate tenant also
//! carries its parameter boundaries ([`DynamicSession`]) and, at each,
//! swaps the engine in place ([`SessionEngine::reconfigure`]) to the
//! configuration it looks up in the same cache a submission does. A
//! static tenant is one with no boundaries.
//!
//! ## Placement and stealing
//!
//! At admission a session is homed on the shard with the least total
//! modelled steady cost ([`macross::CompiledGraph::steady_cost`], the
//! same Equation-1-derived weights `lpt_placement` balances), and its
//! slices queue there. The model knows neither how long a session will
//! be fed nor what a slice really costs, so a shard whose own queue is
//! empty steals: at a slice boundary it takes the tail of the longest
//! other queue and re-homes that session. Bit-exactness needs a session's
//! slices to run one at a time, not on one thread: the `running` flag
//! keeps them apart and the tenant lock orders them, so outputs stay
//! bit-identical to a solo single-threaded run whichever shards ran them.
//!
//! ## Wake-ups
//!
//! Each shard parks on a condition variable of its own, and a wake-up
//! goes to one thread that can act on it. Queued work wakes its home
//! shard if that one is parked, else any parked shard (which steals it);
//! with every shard inside a slice nobody is woken, since each looks at
//! the queues at its next slice boundary. A shard requeueing its own
//! session wakes nobody either: it takes its next id in the same critical
//! section, and only work it leaves queued wakes a parked shard. `close`
//! is woken when the session it waits on has drained, not after every
//! slice.
//!
//! ## Drain semantics
//!
//! `close` marks the tenant draining (backpressure no longer defers it),
//! waits until its queue is empty or a fault ends it, and returns the
//! final outputs. `shutdown` does the same for every remaining tenant,
//! then joins the shards and assembles the `SERVICE_*.json` report.
//! A faulted tenant stops immediately: its pending work is discarded,
//! its committed outcome (the clean output cut to each sink's bound,
//! [`macross_runtime::committed_outcome`]) stays pollable, and its
//! quarantine never
//! blocks a co-resident tenant (the engine is per-session; only the
//! compiled artifact is shared, and that is immutable).

use crate::cache::{CompileCache, PlanSummary};
use crate::error::ServiceError;
use crate::tenant::{CloseReport, PollResult, Tenant, TenantState};
use macross::{CompiledGraph, SimdizeError, SimdizeOptions};
use macross_pdf::{DynamicSession, ParamGraph};
use macross_runtime::{FaultPlan, SessionEngine};
use macross_streamir::graph::Graph;
use macross_streamir::shash::structural_hash;
use macross_streamir::Valuation;
use macross_telemetry::service::{
    AdmissionStats, CacheStats, ScheduleCacheStats, ServiceReport, TenantRow,
};
use macross_telemetry::{EventKind, TraceSession, WorkerTrace};
use macross_vm::{ExecMode, Machine};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Closed sessions whose rows a service keeps for its shutdown report;
/// a resident server drops the oldest beyond this and counts them, so
/// what it retains per session served stays bounded.
pub const RETIRED_ROWS: usize = 1024;

/// Tunables for a [`StreamService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Shard threads in the worker pool (min 1).
    pub workers: usize,
    /// Maximum concurrently admitted sessions.
    pub session_cap: usize,
    /// Maximum pending steady iterations per tenant; `feed` beyond this
    /// returns [`ServiceError::Overloaded`].
    pub queue_bound: u64,
    /// Maximum buffered sink values per tenant before its slices defer
    /// until the client polls (min 1).
    pub output_bound: usize,
    /// Artifact cache bound, in compiled shapes (static graphs and the
    /// configurations of dynamic-rate sessions alike).
    pub cache_capacity: usize,
    /// Steady iterations per shard work slice (fairness quantum, min 1).
    pub batch_iters: u64,
    /// Engine mode sessions compile for.
    pub mode: ExecMode,
    /// SIMDization option set sessions compile with.
    pub opts: SimdizeOptions,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            session_cap: 16,
            queue_bound: 256,
            output_bound: 1 << 16,
            cache_capacity: 32,
            batch_iters: 4,
            mode: ExecMode::default(),
            opts: SimdizeOptions::all(),
        }
    }
}

/// Stable label for the engine mode, as reported in `SERVICE_*.json`.
pub fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Bytecode => "bytecode",
        ExecMode::TreeWalk => "treewalk",
    }
}

/// A point-in-time view of a running service
/// ([`StreamService::snapshot`]): what admission has counted so far and
/// where the live sessions stand. It copies counters the service keeps
/// anyway, under one short hold of the state lock, with or without a
/// live trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Admission counters so far: submissions, rejections, backpressure
    /// stalls, steals.
    pub admission: AdmissionStats,
    /// Sessions queued on each shard, by shard index.
    pub queue_depths: Vec<usize>,
    /// Live sessions parked on backpressure until their client polls.
    pub deferred: usize,
    /// Live sessions a fault quarantined.
    pub quarantined: usize,
    /// Rows of closed sessions kept for the shutdown report, at most
    /// [`RETIRED_ROWS`].
    pub retired_rows: usize,
    /// Closed sessions whose rows were dropped beyond that bound.
    pub retired_dropped: u64,
}

/// Control-plane view of one admitted session. The engine itself lives
/// behind `slot`; everything here is guarded by the state lock.
struct SessionEntry {
    slot: Arc<Mutex<Tenant>>,
    /// Home shard: where the session's slices queue. Admission picks it;
    /// a steal moves it.
    shard: usize,
    benchmark: String,
    graph_hash: String,
    cache_hit: bool,
    steady_cost: u64,
    plan: PlanSummary,
    /// Id sits in a shard run queue.
    queued: bool,
    /// A shard is inside a slice right now.
    running: bool,
    /// Parked on backpressure; `poll` (or a drain) revives it.
    deferred: bool,
    /// `close`/`shutdown` drain: backpressure no longer defers.
    draining: bool,
    /// A `close` is blocked until the session drains.
    closing: bool,
    faulted: bool,
    /// Shadow of the tenant's pending count, updated after each slice,
    /// so waiters never need the tenant lock.
    pending_hint: u64,
}

impl SessionEntry {
    fn admitted(
        slot: Tenant,
        shard: usize,
        benchmark: &str,
        graph_hash: String,
        cache_hit: bool,
        steady_cost: u64,
        plan: PlanSummary,
    ) -> SessionEntry {
        SessionEntry {
            slot: Arc::new(Mutex::new(slot)),
            shard,
            benchmark: benchmark.to_string(),
            graph_hash,
            cache_hit,
            steady_cost,
            plan,
            queued: false,
            running: false,
            deferred: false,
            draining: false,
            closing: false,
            faulted: false,
            pending_hint: 0,
        }
    }

    /// Nothing queued or running, and nothing left that could run.
    fn drained(&self) -> bool {
        !self.queued && !self.running && (self.pending_hint == 0 || self.faulted)
    }
}

struct State {
    next_id: u64,
    sessions: HashMap<u64, SessionEntry>,
    queues: Vec<VecDeque<u64>>,
    /// Per shard: parked on its `work_cv` with nothing to run.
    idle: Vec<bool>,
    shard_load: Vec<u64>,
    shutting_down: bool,
    admission: AdmissionStats,
    /// Rows of the newest closed sessions, at most [`RETIRED_ROWS`].
    retired: VecDeque<TenantRow>,
    /// Closed sessions whose rows `retired` dropped, oldest first.
    retired_dropped: u64,
}

impl State {
    fn new(workers: usize) -> State {
        State {
            next_id: 0,
            sessions: HashMap::new(),
            queues: vec![VecDeque::new(); workers],
            idle: vec![false; workers],
            shard_load: vec![0; workers],
            shutting_down: false,
            admission: AdmissionStats::default(),
            retired: VecDeque::new(),
            retired_dropped: 0,
        }
    }

    fn snapshot(&self) -> ServiceSnapshot {
        let count =
            |flag: fn(&SessionEntry) -> bool| self.sessions.values().filter(|e| flag(e)).count();
        ServiceSnapshot {
            admission: self.admission,
            queue_depths: self.queues.iter().map(VecDeque::len).collect(),
            deferred: count(|e| e.deferred),
            quarantined: count(|e| e.faulted),
            retired_rows: self.retired.len(),
            retired_dropped: self.retired_dropped,
        }
    }

    /// The least-loaded shard by modelled steady cost: a new session's
    /// home.
    fn lightest_shard(&self) -> usize {
        self.shard_load
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| **load)
            .map_or(0, |(i, _)| i)
    }

    /// Queue `id` on its home shard and wake one parked shard to run it.
    fn enqueue(&mut self, id: u64, work_cv: &[Condvar]) {
        let Some(entry) = self.sessions.get_mut(&id) else {
            return;
        };
        entry.queued = true;
        let home = entry.shard;
        self.queues[home].push_back(id);
        self.wake(home, work_cv);
    }

    /// Wake one parked shard for work queued on `home`: `home` itself if
    /// it is parked, else any parked shard, which will steal the work.
    /// With no shard parked nobody is woken.
    fn wake(&mut self, home: usize, work_cv: &[Condvar]) {
        let parked = if self.idle[home] {
            Some(home)
        } else {
            self.idle.iter().position(|&p| p)
        };
        if let Some(s) = parked {
            self.idle[s] = false;
            work_cv[s].notify_one();
        }
    }

    /// The next session `shard` runs, marked running, with its drain
    /// flag: the head of the shard's own queue, else the tail of the
    /// longest other queue. A stolen session is re-homed here, so its
    /// later slices queue on this shard. `None` when every queue is
    /// empty.
    fn take_job(&mut self, shard: usize) -> Option<(u64, Arc<Mutex<Tenant>>, bool)> {
        loop {
            let id = match self.queues[shard].pop_front() {
                Some(id) => id,
                None => {
                    let victim = (0..self.queues.len()).max_by_key(|&s| self.queues[s].len())?;
                    let id = self.queues[victim].pop_back()?;
                    if let Some(entry) = self.sessions.get_mut(&id) {
                        entry.shard = shard;
                        self.shard_load[victim] -= entry.steady_cost;
                        self.shard_load[shard] += entry.steady_cost;
                        self.admission.steals += 1;
                    }
                    id
                }
            };
            // A closed session leaves no id queued; skip one defensively.
            let Some(entry) = self.sessions.get_mut(&id) else {
                continue;
            };
            entry.queued = false;
            entry.running = true;
            return Some((id, entry.slot.clone(), entry.draining || self.shutting_down));
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// One per shard, so that a wake-up reaches the shard it is for.
    work_cv: Vec<Condvar>,
    /// `close` waits here; signalled when a session it waits on drains.
    done_cv: Condvar,
    cache: Mutex<CompileCache>,
    machine: Arc<Machine>,
    config: ServiceConfig,
    /// Control-plane recorder (admission and cache events).
    ctl: WorkerTrace,
}

impl Inner {
    /// Look `graph` up in the artifact cache, compiling it on a miss, with
    /// the planner's verdict for its shape. A dynamic session's
    /// configuration install passes its `valuation` and counts itself; the
    /// flag is then the install's hit (see [`CompileCache::count_install`]).
    fn lookup(
        &self,
        graph: &Graph,
        valuation: Option<&Valuation>,
    ) -> Result<(Arc<CompiledGraph>, bool, PlanSummary), SimdizeError> {
        let (machine, opts, mode) = (&self.machine, &self.config.opts, self.config.mode);
        // Keyed outside the lock: the hash is the lookup's walk of the graph.
        let hash = structural_hash(graph);
        let config = valuation.map(|v| (hash, v.canon()));
        let mut cache = self.cache.lock().unwrap();
        let (art, hit) = cache.get_or_compile_hashed(hash, graph, machine, opts, mode)?;
        let hit = match config {
            Some(config) => cache.count_install(config, hit),
            None => hit,
        };
        let plan = cache.plan(&art.source_hash);
        Ok((art, hit, plan))
    }

    /// Wake every parked shard: shutdown, which each must see.
    fn wake_all(&self, st: &mut State) {
        for (idle, cv) in st.idle.iter_mut().zip(&self.work_cv) {
            *idle = false;
            cv.notify_one();
        }
    }
}

/// A long-running in-process server multiplexing stream-graph sessions
/// over a shared worker pool. See the module docs for the execution
/// model; see [`ServiceConfig`] for the knobs.
pub struct StreamService {
    inner: Arc<Inner>,
    trace: TraceSession,
    handles: Vec<JoinHandle<()>>,
}

impl StreamService {
    /// Start the shard pool with tracing disabled.
    pub fn new(machine: Machine, config: ServiceConfig) -> StreamService {
        StreamService::with_trace(machine, config, TraceSession::disabled())
    }

    /// Start the shard pool with a recording handle per shard (worker
    /// `i` = shard `i`; worker `workers` = the control plane).
    pub fn with_trace(
        machine: Machine,
        config: ServiceConfig,
        trace: TraceSession,
    ) -> StreamService {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State::new(workers)),
            work_cv: (0..workers).map(|_| Condvar::new()).collect(),
            done_cv: Condvar::new(),
            cache: Mutex::new(CompileCache::new(config.cache_capacity, workers)),
            machine: Arc::new(machine),
            // A zero quantum or bound would requeue or defer every slice
            // forever.
            config: ServiceConfig {
                workers,
                batch_iters: config.batch_iters.max(1),
                output_bound: config.output_bound.max(1),
                ..config
            },
            ctl: trace.worker(workers),
        });
        let handles = (0..workers)
            .map(|shard| {
                let inner = inner.clone();
                let wt = trace.worker(shard);
                std::thread::Builder::new()
                    .name(format!("macross-shard-{shard}"))
                    .spawn(move || shard_loop(&inner, shard, &wt))
                    .expect("spawn shard thread")
            })
            .collect();
        StreamService {
            inner,
            trace,
            handles,
        }
    }

    /// The machine sessions compile against.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// Admit a new session for `graph`, compiling it (or reusing the
    /// cached artifact for an equivalent shape) and homing it on the
    /// least-loaded shard. `name` tags the tenant in reports.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`] at the session cap,
    /// [`ServiceError::ShuttingDown`] after shutdown began, and
    /// [`ServiceError::Simdize`] when the driver rejects the graph.
    pub fn submit(&self, name: &str, graph: &Graph, plan: FaultPlan) -> Result<u64, ServiceError> {
        self.admit(name, plan, None, || Ok(self.inner.lookup(graph, None)?))
    }

    /// Admit a *dynamic-rate* session: instantiate `template` at `init`,
    /// install that configuration from the artifact cache, and home the
    /// session on the least-loaded shard. Later
    /// [`StreamService::set_param`] calls re-configure it at quiescent
    /// points.
    ///
    /// # Errors
    /// [`ServiceError::Param`] when `init` is outside the template's
    /// domain or the builder fails, plus everything
    /// [`StreamService::submit`] returns.
    pub fn submit_dynamic(
        &self,
        name: &str,
        template: &Arc<ParamGraph>,
        init: &Valuation,
        plan: FaultPlan,
    ) -> Result<u64, ServiceError> {
        let params = DynamicSession::new(template.clone(), init);
        self.admit(name, plan, Some(params), || {
            let graph = template
                .instantiate(init)
                .map_err(|e| ServiceError::Param(e.to_string()))?;
            Ok(self.inner.lookup(&graph, Some(init))?)
        })
    }

    /// The one admission path: the cap check, the compile-or-hit
    /// (`lookup`, run outside the state lock — the cache lock is held
    /// across the whole compile on purpose, so concurrent submissions of
    /// the same shape serialize and the losers get hits), the cap
    /// re-check, the shard pick, the session entry and its events.
    fn admit(
        &self,
        name: &str,
        plan: FaultPlan,
        params: Option<DynamicSession>,
        lookup: impl FnOnce() -> Result<(Arc<CompiledGraph>, bool, PlanSummary), ServiceError>,
    ) -> Result<u64, ServiceError> {
        let inner = &self.inner;
        let cap = inner.config.session_cap;
        let overloaded = || ServiceError::Overloaded {
            reason: format!("session cap {cap} reached"),
        };
        {
            let mut st = inner.state.lock().unwrap();
            st.admission.submitted += 1;
            if st.shutting_down {
                st.admission.rejected_sessions += 1;
                return Err(ServiceError::ShuttingDown);
            }
            if st.sessions.len() >= cap {
                st.admission.rejected_sessions += 1;
                let (next, live) = (st.next_id as u32, st.sessions.len() as u64);
                inner.ctl.record(EventKind::SessionRejected, next, live);
                return Err(overloaded());
            }
        }
        let looked_up = lookup();
        let mut st = inner.state.lock().unwrap();
        let (art, hit, summary) = match looked_up {
            Ok(admitted) => admitted,
            Err(e) => {
                st.admission.rejected_sessions += 1;
                return Err(e);
            }
        };
        // Re-check the cap: another submission may have won the race
        // while we compiled.
        if st.sessions.len() >= cap {
            st.admission.rejected_sessions += 1;
            return Err(overloaded());
        }
        let shard = st.lightest_shard();
        let engine = SessionEngine::new(
            art.graph.clone(),
            art.schedule.clone(),
            inner.machine.clone(),
            &art.programs,
            plan,
            shard as u32,
        );
        let id = st.next_id;
        st.next_id += 1;
        st.shard_load[shard] += art.steady_cost.max(1);
        st.admission.admitted += 1;
        st.sessions.insert(
            id,
            SessionEntry::admitted(
                Tenant::new(engine, params),
                shard,
                name,
                art.source_hash.to_hex(),
                hit,
                art.steady_cost.max(1),
                summary,
            ),
        );
        let kind = if hit {
            EventKind::CacheHit
        } else {
            EventKind::CacheMiss
        };
        inner.ctl.record(kind, id as u32, art.steady_cost);
        inner
            .ctl
            .record(EventKind::SessionAdmitted, id as u32, shard as u64);
        Ok(id)
    }

    /// Schedule a parameter change on a dynamic session. The change
    /// lands at the steady-iteration boundary after everything fed so
    /// far — stream order — and the configuration swap itself runs on
    /// the session's shard at that quiescent point. A boundary with no
    /// subsequent `feed` stays pending and is abandoned at close.
    ///
    /// # Errors
    /// [`ServiceError::NotDynamic`] for sessions admitted via `submit`,
    /// [`ServiceError::Param`] for valuations outside the domain, plus
    /// the usual unknown/shutdown errors.
    pub fn set_param(&self, id: u64, name: &str, value: u64) -> Result<(), ServiceError> {
        let inner = &self.inner;
        let st = inner.state.lock().unwrap();
        if st.shutting_down {
            return Err(ServiceError::ShuttingDown);
        }
        let entry = st
            .sessions
            .get(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        let slot = entry.slot.clone();
        let mut tenant = slot.lock().unwrap();
        let (at, done) = (tenant.requested, tenant.engine.iters_done());
        let Some(params) = tenant.params.as_mut() else {
            return Err(ServiceError::NotDynamic(id));
        };
        params
            .set_param_at(at, done, name, value)
            .map_err(|e| ServiceError::Param(e.to_string()))?;
        drop(tenant);
        inner.ctl.record(EventKind::SetParam, id as u32, value);
        Ok(())
    }

    /// Queue `iters` steady iterations for the session.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`] when the tenant's input queue cannot
    /// take `iters` more, plus the usual unknown/shutdown errors.
    pub fn feed(&self, id: u64, iters: u64) -> Result<(), ServiceError> {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap();
        if st.shutting_down {
            return Err(ServiceError::ShuttingDown);
        }
        let bound = inner.config.queue_bound;
        let st_ref = &mut *st;
        let entry = st_ref
            .sessions
            .get_mut(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        let slot = entry.slot.clone();
        let mut tenant = slot.lock().unwrap();
        // Overflow-safe form of `pending + iters > bound`: a near-u64::MAX
        // `iters` must be rejected, not wrapped past the queue bound.
        if iters > bound.saturating_sub(tenant.pending) {
            st_ref.admission.rejected_feeds += 1;
            return Err(ServiceError::Overloaded {
                reason: format!(
                    "input queue full ({} pending, bound {bound})",
                    tenant.pending
                ),
            });
        }
        tenant.pending += iters;
        tenant.requested += iters;
        entry.pending_hint = tenant.pending;
        drop(tenant);
        if !entry.queued && !entry.running && !entry.deferred && !entry.faulted {
            st_ref.enqueue(id, &inner.work_cv);
        }
        Ok(())
    }

    /// Drain the session's buffered sink outputs and report progress.
    /// Polling also releases backpressure: a tenant deferred on a full
    /// output buffer is requeued.
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`] for ids not live.
    pub fn poll(&self, id: u64) -> Result<PollResult, ServiceError> {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap();
        let shutting_down = st.shutting_down;
        let st_ref = &mut *st;
        let entry = st_ref
            .sessions
            .get_mut(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        let slot = entry.slot.clone();
        let mut tenant = slot.lock().unwrap();
        let result = PollResult {
            outputs: tenant.take_buffered(),
            iters_done: tenant.engine.iters_done(),
            pending: tenant.pending,
            faulted: tenant.is_faulted(),
        };
        let pending = tenant.pending;
        drop(tenant);
        if entry.deferred && !shutting_down {
            entry.deferred = false;
            if pending > 0 && !entry.queued && !entry.running {
                st_ref.enqueue(id, &inner.work_cv);
            }
        }
        Ok(result)
    }

    /// Drain the session to completion (or to its fault), retire it, and
    /// return the final outputs. Blocks until the drain finishes; other
    /// tenants keep firing throughout.
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`] for ids not live.
    pub fn close(&self, id: u64) -> Result<CloseReport, ServiceError> {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap();
        {
            let st_ref = &mut *st;
            let entry = st_ref
                .sessions
                .get_mut(&id)
                .ok_or(ServiceError::UnknownSession(id))?;
            entry.draining = true;
            let parked = std::mem::take(&mut entry.deferred);
            if (entry.pending_hint > 0 || parked)
                && !entry.queued
                && !entry.running
                && !entry.faulted
            {
                st_ref.enqueue(id, &inner.work_cv);
            }
        }
        st = self.wait_drained(st, id);
        // A concurrent close may have retired the session while we waited.
        let entry = st.sessions.remove(&id).ok_or(ServiceError::Closed(id))?;
        st.shard_load[entry.shard] -= entry.steady_cost;
        let mut tenant = entry.slot.lock().unwrap();
        let outputs = tenant.take_buffered();
        let faulted = tenant.is_faulted();
        let report = CloseReport {
            outputs,
            iters_done: tenant.engine.iters_done(),
            firings: tenant.engine.firings(),
            faulted,
            failures: tenant.failures(),
        };
        let state = if faulted {
            TenantState::Faulted
        } else {
            TenantState::Closed
        };
        if st.retired.len() == RETIRED_ROWS {
            st.retired.pop_front();
            st.retired_dropped += 1;
        }
        st.retired.push_back(tenant_row(id, &entry, &tenant, state));
        drop(tenant);
        inner
            .ctl
            .record(EventKind::SessionClosed, id as u32, report.iters_done);
        Ok(report)
    }

    fn wait_drained<'a>(&'a self, mut st: MutexGuard<'a, State>, id: u64) -> MutexGuard<'a, State> {
        loop {
            let Some(entry) = st.sessions.get_mut(&id) else {
                return st;
            };
            if entry.drained() {
                return st;
            }
            entry.closing = true;
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// The admission counters, shard queue depths and parked and
    /// quarantined session counts as they stand now.
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.inner.state.lock().unwrap().snapshot()
    }

    /// Sessions currently admitted.
    pub fn live_sessions(&self) -> usize {
        self.inner.state.lock().unwrap().sessions.len()
    }

    /// Artifact cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().unwrap().stats()
    }

    /// Configuration-install counters so far (dynamic-rate sessions).
    pub fn schedule_cache_stats(&self) -> ScheduleCacheStats {
        self.inner.cache.lock().unwrap().install_stats()
    }

    /// Drain every remaining session, stop the shards, and assemble the
    /// `SERVICE_<report_name>.json` report (cache, admission, one row per
    /// session ever admitted).
    pub fn shutdown(mut self, report_name: &str) -> ServiceReport {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutting_down = true;
            let State {
                sessions,
                queues,
                admission,
                ..
            } = &mut *st;
            for (id, entry) in sessions.iter_mut() {
                entry.draining = true;
                let parked = std::mem::take(&mut entry.deferred);
                // The count is a guarantee, not a hope: every entry
                // counted here drains before the shards exit — parked
                // ones are requeued below, and an in-flight slice that
                // defers under `shutting_down` requeues itself (see
                // `shard_loop`) instead of parking.
                if entry.pending_hint > 0 || parked {
                    admission.drained_on_shutdown += 1;
                    if !entry.queued && !entry.running && !entry.faulted {
                        entry.queued = true;
                        queues[entry.shard].push_back(*id);
                    }
                }
            }
            self.inner.wake_all(&mut st);
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("shard thread panicked");
        }
        let mut st = self.inner.state.lock().unwrap();
        let mut report = ServiceReport::new(
            report_name,
            self.inner.machine.name.clone(),
            mode_label(self.inner.config.mode),
        );
        report.workers = self.inner.config.workers as u64;
        report.session_cap = self.inner.config.session_cap as u64;
        let cache = self.inner.cache.lock().unwrap();
        (report.cache, report.scache) = (cache.stats(), cache.install_stats());
        drop(cache);
        report.admission = st.admission;
        report.tenants = std::mem::take(&mut st.retired).into();
        report.tenants_dropped = st.retired_dropped;
        let mut remaining: Vec<_> = st.sessions.drain().collect();
        remaining.sort_by_key(|(id, _)| *id);
        for (id, entry) in remaining {
            let tenant = entry.slot.lock().unwrap();
            let state = if tenant.is_faulted() {
                TenantState::Faulted
            } else {
                TenantState::Draining
            };
            report.tenants.push(tenant_row(id, &entry, &tenant, state));
        }
        report.tenants.sort_by_key(|row| row.session);
        report
    }

    /// The trace session handed to [`StreamService::with_trace`] (drain
    /// it after shutdown for a Chrome timeline of the run).
    pub fn trace(&self) -> &TraceSession {
        &self.trace
    }
}

impl Drop for StreamService {
    fn drop(&mut self) {
        // `shutdown` already joined; otherwise stop the shards so a
        // dropped service never leaks parked threads.
        if self.handles.is_empty() {
            return;
        }
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutting_down = true;
            self.inner.wake_all(&mut st);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn tenant_row(id: u64, entry: &SessionEntry, tenant: &Tenant, state: TenantState) -> TenantRow {
    TenantRow {
        session: id,
        benchmark: entry.benchmark.clone(),
        shard: entry.shard as u64,
        graph_hash: entry.graph_hash.clone(),
        cache_hit: entry.cache_hit,
        state: state.label().to_string(),
        iters_requested: tenant.requested,
        iters_done: tenant.engine.iters_done(),
        firings: tenant.engine.firings(),
        outputs: tenant.delivered,
        stalls: tenant.stalls,
        faults: tenant.failures().len() as u64,
        placement_cores: entry.plan.cores,
        placement_cut_edges: entry.plan.cut_edges,
        placement_fused: entry.plan.fused,
        placement_fissioned: entry.plan.fissioned,
    }
}

fn shard_loop(inner: &Inner, shard: usize, trace: &WorkerTrace) {
    let mut st = inner.state.lock().unwrap();
    loop {
        // Take the next id (own queue first, else steal), or park; exit
        // on shutdown once every queue is empty.
        let Some((id, slot, drain)) = st.take_job(shard) else {
            if st.shutting_down {
                return;
            }
            st.idle[shard] = true;
            st = inner.work_cv[shard].wait(st).unwrap();
            st.idle[shard] = false;
            continue;
        };
        // Work this shard leaves queued goes to a parked shard now.
        if let Some(home) = st.queues.iter().position(|q| !q.is_empty()) {
            st.wake(home, &inner.work_cv);
        }
        drop(st);
        // Run the slice under the tenant's lock only.
        let outcome = {
            let mut tenant = slot.lock().unwrap();
            tenant.engine.set_host(shard as u32, trace.clone());
            let mut install = |graph: &Graph, valuation: &Valuation| {
                let (art, hit, _) = inner.lookup(graph, Some(valuation))?;
                trace.record(EventKind::Reconfigure, hit as u32, id);
                Ok(art)
            };
            let (batch, bound) = (inner.config.batch_iters, inner.config.output_bound);
            tenant.run_slice(batch, bound, drain, &mut install)
        };
        // Publish the outcome and requeue if there is more to do. The
        // pending count is re-read under state -> tenant: a `feed` that
        // landed between the slice ending and this publish saw
        // `running == true` and skipped its own enqueue, counting on
        // this publish to requeue — `outcome.pending` is stale then.
        // The requeue wakes nobody: the next `take_job` is this shard's.
        st = inner.state.lock().unwrap();
        let fresh_pending = slot.lock().unwrap().pending;
        let st_ref = &mut *st;
        if let Some(entry) = st_ref.sessions.get_mut(&id) {
            entry.running = false;
            entry.pending_hint = fresh_pending;
            if outcome.faulted && !entry.faulted {
                entry.faulted = true;
                trace.record(EventKind::SessionQuarantined, id as u32, 0);
            }
            let requeue = if outcome.deferred {
                // Re-check drain state under the lock: `close`/`shutdown`
                // may have set it while the slice ran, and they only
                // revive entries that were *already* parked — parking now
                // would strand the tenant (only `poll` requeues deferred
                // entries) and deadlock the waiting drain. Requeue
                // instead; the next pop computes `drain = true` and runs
                // with the output bound ignored.
                let drain_now = entry.draining || st_ref.shutting_down;
                if !drain_now {
                    entry.deferred = true;
                    st_ref.admission.backpressure_stalls += 1;
                }
                drain_now
            } else {
                fresh_pending > 0 && !entry.faulted
            };
            if requeue && !entry.queued {
                entry.queued = true;
                st_ref.queues[entry.shard].push_back(id);
            }
            if entry.closing && entry.drained() {
                inner.done_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::ScalarTy;

    /// A state with one admitted session per entry of `homes`, each of
    /// steady cost 10, queued on its home shard in order, and a condvar
    /// per shard.
    fn state(workers: usize, homes: &[usize]) -> (State, Vec<Condvar>) {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        src.work(|b| {
            b.push(1i32);
        });
        let g = StreamSpec::pipeline(vec![src.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let machine = Arc::new(Machine::core_i7());
        let opts = SimdizeOptions::all();
        let art = macross::compile_graph(&g, &machine, &opts, ExecMode::default()).unwrap();
        let mut st = State::new(workers);
        for (id, &home) in homes.iter().enumerate() {
            let engine = SessionEngine::new(
                art.graph.clone(),
                art.schedule.clone(),
                machine.clone(),
                &art.programs,
                FaultPlan::none(),
                home as u32,
            );
            let tenant = Tenant::new(engine, None);
            let entry = SessionEntry::admitted(
                tenant,
                home,
                "t",
                String::new(),
                true,
                10,
                PlanSummary {
                    cores: 1,
                    cut_edges: 0,
                    fused: 0,
                    fissioned: 0,
                },
            );
            st.sessions.insert(id as u64, entry);
            st.shard_load[home] += 10;
            st.sessions.get_mut(&(id as u64)).unwrap().queued = true;
            st.queues[home].push_back(id as u64);
        }
        let cvs = (0..workers).map(|_| Condvar::new()).collect();
        (st, cvs)
    }

    #[test]
    fn an_empty_shard_steals_the_tail_of_the_longest_queue_and_rehomes_it() {
        // Shard 0 holds one session, shard 2 three, shard 1 none.
        let (mut st, _) = state(3, &[0, 2, 2, 2]);
        let (id, _, drain) = st.take_job(1).unwrap();
        assert_eq!((id, drain), (3, false), "the tail of shard 2's queue");
        let entry = &st.sessions[&3];
        assert!(entry.running && !entry.queued);
        assert_eq!(entry.shard, 1, "a steal re-homes the session");
        assert_eq!(st.shard_load, vec![10, 10, 20]);
        assert_eq!(st.admission.steals, 1);
        // An owner takes its own queue's head and steals nothing.
        assert_eq!(st.take_job(2).unwrap().0, 1);
        assert_eq!(st.take_job(0).unwrap().0, 0);
        assert_eq!(st.admission.steals, 1);
        // Shard 0's queue is empty now: it steals shard 2's last one.
        assert_eq!(st.take_job(0).unwrap().0, 2);
        assert_eq!(st.admission.steals, 2);
        assert!(st.take_job(1).is_none(), "every queue is empty");
    }

    #[test]
    fn a_snapshot_reads_the_scripted_state() {
        // Shard 0 holds one session, shard 1 three.
        let (mut st, _) = state(2, &[0, 1, 1, 1]);
        assert_eq!(st.snapshot().queue_depths, vec![1, 3]);
        // Shard 0 runs its own session, then steals shard 1's tail.
        st.take_job(0).unwrap();
        st.take_job(0).unwrap();
        st.sessions.get_mut(&0).unwrap().deferred = true;
        st.sessions.get_mut(&3).unwrap().faulted = true;
        st.admission.backpressure_stalls = 1;
        st.admission.rejected_feeds = 2;
        assert_eq!(
            st.snapshot(),
            ServiceSnapshot {
                admission: AdmissionStats {
                    backpressure_stalls: 1,
                    rejected_feeds: 2,
                    steals: 1,
                    ..AdmissionStats::default()
                },
                queue_depths: vec![0, 2],
                deferred: 1,
                quarantined: 1,
                retired_rows: 0,
                retired_dropped: 0,
            }
        );
    }

    #[test]
    fn a_wake_up_goes_to_the_home_shard_then_to_one_parked_thief() {
        let (mut st, cvs) = state(3, &[]);
        st.idle = vec![true, false, true];
        // Home shard 2 is parked: it is the one woken.
        st.wake(2, &cvs);
        assert_eq!(st.idle, vec![true, false, false]);
        // Home shard 2 is awake now: one parked shard is woken to steal.
        st.wake(2, &cvs);
        assert_eq!(st.idle, vec![false, false, false]);
        // Every shard awake: nobody is.
        st.wake(1, &cvs);
        assert_eq!(st.idle, vec![false, false, false]);
    }

    fn counter() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", macross_streamir::types::Ty::Scalar(ScalarTy::I32));
        src.work(move |b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        StreamSpec::pipeline(vec![src.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap()
    }

    /// A zero slice quantum used to requeue every slice without running
    /// anything (`close` never returned, a shard spun), and a zero output
    /// bound deferred every slice until `close`. Both are clamped to 1.
    #[test]
    fn zero_quanta_still_make_progress() {
        let service = Arc::new(StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 1,
                batch_iters: 0,
                output_bound: 0,
                ..ServiceConfig::default()
            },
        ));
        let id = service
            .submit("zero", &counter(), FaultPlan::none())
            .unwrap();
        service.feed(id, 8).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut polled = Vec::new();
        while polled.is_empty() && std::time::Instant::now() < deadline {
            polled.extend(service.poll(id).unwrap().outputs.concat());
            std::thread::yield_now();
        }
        assert!(!polled.is_empty(), "no poll made progress");
        // On a plain thread, not a scoped one: a close that never
        // returns must fail the test at the deadline, not hang it.
        let (tx, rx) = std::sync::mpsc::channel();
        let closer = service.clone();
        std::thread::spawn(move || tx.send(closer.close(id).unwrap()));
        let report = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("close did not return");
        assert_eq!(report.iters_done, 8);
        polled.extend(report.outputs.concat());
        let want: Vec<_> = (0..8).map(macross_streamir::types::Value::I32).collect();
        assert_eq!(polled, want, "every fed iteration, in order");
    }

    /// The retired-row bound is visible without a shutdown: the snapshot
    /// reads the rows kept and the rows dropped.
    #[test]
    fn the_snapshot_shows_the_retired_row_bound() {
        let service = StreamService::new(
            Machine::core_i7(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let g = counter();
        for _ in 0..RETIRED_ROWS + 6 {
            let id = service.submit("short", &g, FaultPlan::none()).unwrap();
            service.close(id).unwrap();
        }
        let snap = service.snapshot();
        assert_eq!((snap.retired_rows, snap.retired_dropped), (1024, 6));
    }
}
