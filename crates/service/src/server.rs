//! The session server: admission control at the front, the compile-once
//! cache in the middle, a pinned-shard worker pool at the back.
//!
//! ## Threading and lock order
//!
//! Four locks exist: the service **state** (session table, run queues,
//! counters), the compile-once **cache**, the per-configuration
//! **schedule cache**, and one mutex **per tenant** (its engine and
//! buffers). The global order is *state → tenant → schedule cache →
//! compile cache*. Shard threads pop a session id under the state lock,
//! run the slice under that tenant's lock (a dynamic tenant swapping
//! configurations mid-slice takes the two cache locks in order), then
//! re-acquire the state lock to requeue. Control-plane calls (`feed`,
//! `poll`, `set_param`) may take a tenant lock while holding the state
//! lock; `submit`/`submit_dynamic` compile under the cache locks alone,
//! never while holding the state lock.
//!
//! ## Placement
//!
//! A session is pinned to one shard at admission — the shard with the
//! least total modelled steady cost ([`macross::CompiledGraph::steady_cost`], the
//! same Equation-1-derived weights `lpt_placement` balances). Pinning
//! keeps every session's firing order sequential, so outputs are
//! bit-identical to a solo single-threaded run regardless of what the
//! other shards do.
//!
//! ## Drain semantics
//!
//! `close` marks the tenant draining (backpressure no longer defers it),
//! waits until its queue is empty or a fault ends it, and returns the
//! final outputs. `shutdown` does the same for every remaining tenant,
//! then joins the shards and assembles the `SERVICE_*.json` report.
//! A faulted tenant stops immediately: its pending work is discarded,
//! its clean output prefix stays pollable, and its quarantine never
//! blocks a co-resident tenant (the engine is per-session; only the
//! compiled artifact is shared, and that is immutable).

use crate::cache::{CompileCache, PlanSummary};
use crate::error::ServiceError;
use crate::tenant::{CloseReport, PollResult, Tenant, TenantState};
use macross::SimdizeOptions;
use macross_pdf::{CompileFn, DynamicSession, ParamGraph, ScheduleCache};
use macross_runtime::{FaultPlan, SessionEngine};
use macross_streamir::graph::Graph;
use macross_streamir::Valuation;
use macross_telemetry::service::{
    AdmissionStats, CacheStats, ScheduleCacheStats, ServiceReport, TenantRow,
};
use macross_telemetry::{EventKind, TraceSession, WorkerTrace};
use macross_vm::{ExecMode, Machine};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

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
    /// until the client polls.
    pub output_bound: usize,
    /// Compile-once cache bound, in artifacts.
    pub cache_capacity: usize,
    /// Schedule-cache bound, in compiled configurations (dynamic-rate
    /// sessions).
    pub scache_capacity: usize,
    /// Steady iterations per shard work slice (fairness quantum).
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
            scache_capacity: 32,
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

/// Control-plane view of one admitted session. The engine itself lives
/// behind `slot`; everything here is guarded by the state lock.
struct SessionEntry {
    slot: Arc<Mutex<Tenant>>,
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
    faulted: bool,
    /// Shadow of the tenant's pending count, updated after each slice,
    /// so waiters never need the tenant lock.
    pending_hint: u64,
}

struct State {
    next_id: u64,
    sessions: HashMap<u64, SessionEntry>,
    queues: Vec<VecDeque<u64>>,
    shard_load: Vec<u64>,
    shutting_down: bool,
    admission: AdmissionStats,
    retired: Vec<TenantRow>,
}

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// `Arc`d (not just a field) so dynamic sessions' compile callbacks
    /// can capture the cache alone, without a cycle through `Inner`.
    cache: Arc<Mutex<CompileCache>>,
    /// Per-configuration cache shared by every dynamic session.
    scache: Arc<Mutex<ScheduleCache>>,
    machine: Arc<Machine>,
    config: ServiceConfig,
    /// Control-plane recorder (admission and cache events).
    ctl: WorkerTrace,
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
            state: Mutex::new(State {
                next_id: 0,
                sessions: HashMap::new(),
                queues: vec![VecDeque::new(); workers],
                shard_load: vec![0; workers],
                shutting_down: false,
                admission: AdmissionStats::default(),
                retired: Vec::new(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cache: Arc::new(Mutex::new(CompileCache::new(
                config.cache_capacity,
                workers,
            ))),
            scache: Arc::new(Mutex::new(ScheduleCache::new(config.scache_capacity))),
            machine: Arc::new(machine),
            config: ServiceConfig { workers, ..config },
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
    /// cached artifact for an equivalent shape) and pinning it to the
    /// least-loaded shard. `name` tags the tenant in reports.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`] at the session cap,
    /// [`ServiceError::ShuttingDown`] after shutdown began, and
    /// [`ServiceError::Simdize`] when the driver rejects the graph.
    pub fn submit(&self, name: &str, graph: &Graph, plan: FaultPlan) -> Result<u64, ServiceError> {
        let inner = &self.inner;
        {
            let mut st = inner.state.lock().unwrap();
            st.admission.submitted += 1;
            if st.shutting_down {
                st.admission.rejected_sessions += 1;
                return Err(ServiceError::ShuttingDown);
            }
            if st.sessions.len() >= inner.config.session_cap {
                st.admission.rejected_sessions += 1;
                inner.ctl.record(
                    EventKind::SessionRejected,
                    st.next_id as u32,
                    st.sessions.len() as u64,
                );
                return Err(ServiceError::Overloaded {
                    reason: format!("session cap {} reached", inner.config.session_cap),
                });
            }
        }
        // Compile (or hit) outside the state lock. The cache lock is held
        // across the whole compile on purpose: concurrent submissions of
        // the same shape serialize here and the losers get hits.
        let compiled = {
            let mut cache = inner.cache.lock().unwrap();
            cache
                .get_or_compile(graph, &inner.machine, &inner.config.opts, inner.config.mode)
                .map(|(art, hit)| (cache.plan(&art.source_hash), art, hit))
        };
        let (summary, art, hit) = match compiled {
            Ok(admitted) => admitted,
            Err(e) => {
                let mut st = inner.state.lock().unwrap();
                st.admission.rejected_sessions += 1;
                return Err(ServiceError::Simdize(e));
            }
        };
        let mut st = inner.state.lock().unwrap();
        // Re-check the cap: another submission may have won the race
        // while we compiled.
        if st.sessions.len() >= inner.config.session_cap {
            st.admission.rejected_sessions += 1;
            return Err(ServiceError::Overloaded {
                reason: format!("session cap {} reached", inner.config.session_cap),
            });
        }
        let shard = st
            .shard_load
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| **load)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let engine = SessionEngine::new(
            art.graph.clone(),
            art.schedule.clone(),
            self.inner.machine.clone(),
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
            SessionEntry {
                slot: Arc::new(Mutex::new(Tenant::new(engine))),
                shard,
                benchmark: name.to_string(),
                graph_hash: art.source_hash.to_hex(),
                cache_hit: hit,
                steady_cost: art.steady_cost.max(1),
                plan: summary,
                queued: false,
                running: false,
                deferred: false,
                draining: false,
                faulted: false,
                pending_hint: 0,
            },
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

    /// A [`CompileFn`] routing schedule-cache misses through the
    /// compile-once cache, so two templates instantiating structurally
    /// identical configurations share one artifact.
    fn compile_fn(&self) -> CompileFn {
        let cache = self.inner.cache.clone();
        Arc::new(move |g, machine, opts, mode| {
            cache
                .lock()
                .unwrap()
                .get_or_compile(g, machine, opts, mode)
                .map(|(art, _)| art)
        })
    }

    /// Admit a *dynamic-rate* session: instantiate `template` at `init`,
    /// compile (or fetch) that configuration through the schedule cache,
    /// and pin the session to the least-loaded shard. Later
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
        let inner = &self.inner;
        {
            let mut st = inner.state.lock().unwrap();
            st.admission.submitted += 1;
            if st.shutting_down {
                st.admission.rejected_sessions += 1;
                return Err(ServiceError::ShuttingDown);
            }
            if st.sessions.len() >= inner.config.session_cap {
                st.admission.rejected_sessions += 1;
                inner.ctl.record(
                    EventKind::SessionRejected,
                    st.next_id as u32,
                    st.sessions.len() as u64,
                );
                return Err(ServiceError::Overloaded {
                    reason: format!("session cap {} reached", inner.config.session_cap),
                });
            }
        }
        let graph = match template.instantiate(init) {
            Ok(g) => g,
            Err(e) => {
                let mut st = inner.state.lock().unwrap();
                st.admission.rejected_sessions += 1;
                return Err(ServiceError::Param(e.to_string()));
            }
        };
        // Install the initial configuration outside the state lock, same
        // discipline as `submit`: schedule-cache lock first, compile-once
        // cache inside the callback (the global lock order).
        let compile = self.compile_fn();
        let compiled = {
            let mut sc = inner.scache.lock().unwrap();
            let cb = &compile;
            sc.get_or_compile(
                &graph,
                init,
                &inner.machine,
                &inner.config.opts,
                inner.config.mode,
                |g| cb(g, &inner.machine, &inner.config.opts, inner.config.mode),
            )
        };
        let (art, hit) = match compiled {
            Ok(pair) => pair,
            Err(e) => {
                let mut st = inner.state.lock().unwrap();
                st.admission.rejected_sessions += 1;
                return Err(ServiceError::Simdize(e));
            }
        };
        // The artifact came through the compile-once cache (on a
        // schedule-cache hit, at an earlier miss), which planned its shape.
        let summary = inner.cache.lock().unwrap().plan(&art.source_hash);
        let mut st = inner.state.lock().unwrap();
        if st.sessions.len() >= inner.config.session_cap {
            st.admission.rejected_sessions += 1;
            return Err(ServiceError::Overloaded {
                reason: format!("session cap {} reached", inner.config.session_cap),
            });
        }
        let shard = st
            .shard_load
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| **load)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let session = DynamicSession::with_artifact(
            template.clone(),
            init,
            art.clone(),
            hit,
            inner.machine.clone(),
            inner.config.opts,
            inner.config.mode,
            inner.scache.clone(),
            compile,
            plan,
            shard as u32,
        );
        let id = st.next_id;
        st.next_id += 1;
        st.shard_load[shard] += art.steady_cost.max(1);
        st.admission.admitted += 1;
        st.sessions.insert(
            id,
            SessionEntry {
                slot: Arc::new(Mutex::new(Tenant::new_dynamic(session))),
                shard,
                benchmark: name.to_string(),
                graph_hash: art.source_hash.to_hex(),
                cache_hit: hit,
                steady_cost: art.steady_cost.max(1),
                plan: summary,
                queued: false,
                running: false,
                deferred: false,
                draining: false,
                faulted: false,
                pending_hint: 0,
            },
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
        let at = tenant.requested;
        let Some(session) = tenant.engine.dynamic_mut() else {
            return Err(ServiceError::NotDynamic(id));
        };
        session
            .set_param_at(at, name, value)
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
            entry.queued = true;
            st_ref.queues[entry.shard].push_back(id);
            inner.work_cv.notify_all();
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
            faulted: tenant.engine.is_faulted(),
        };
        let pending = tenant.pending;
        drop(tenant);
        if entry.deferred && !shutting_down {
            entry.deferred = false;
            if pending > 0 && !entry.queued && !entry.running {
                entry.queued = true;
                st_ref.queues[entry.shard].push_back(id);
                inner.work_cv.notify_all();
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
                entry.queued = true;
                st_ref.queues[entry.shard].push_back(id);
                inner.work_cv.notify_all();
            }
        }
        st = self.wait_drained(st, id);
        // A concurrent close may have retired the session while we waited.
        let entry = st.sessions.remove(&id).ok_or(ServiceError::Closed(id))?;
        st.shard_load[entry.shard] -= entry.steady_cost;
        let mut tenant = entry.slot.lock().unwrap();
        let outputs = tenant.take_buffered();
        let faulted = tenant.engine.is_faulted();
        let report = CloseReport {
            outputs,
            iters_done: tenant.engine.iters_done(),
            firings: tenant.engine.firings(),
            faulted,
            failures: tenant.engine.failures_rendered(),
        };
        let state = if faulted {
            TenantState::Faulted
        } else {
            TenantState::Closed
        };
        st.retired.push(tenant_row(id, &entry, &tenant, state));
        drop(tenant);
        inner
            .ctl
            .record(EventKind::SessionClosed, id as u32, report.iters_done);
        Ok(report)
    }

    fn wait_drained<'a>(&'a self, mut st: MutexGuard<'a, State>, id: u64) -> MutexGuard<'a, State> {
        loop {
            let Some(entry) = st.sessions.get(&id) else {
                return st;
            };
            let done =
                !entry.queued && !entry.running && (entry.pending_hint == 0 || entry.faulted);
            if done {
                return st;
            }
            st = self.inner.done_cv.wait(st).unwrap();
        }
    }

    /// Sessions currently admitted.
    pub fn live_sessions(&self) -> usize {
        self.inner.state.lock().unwrap().sessions.len()
    }

    /// Compile-once cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().unwrap().stats()
    }

    /// Schedule-cache counters so far (dynamic-rate sessions).
    pub fn schedule_cache_stats(&self) -> ScheduleCacheStats {
        self.inner.scache.lock().unwrap().stats()
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
            self.inner.work_cv.notify_all();
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
        report.cache = self.inner.cache.lock().unwrap().stats();
        report.scache = self.inner.scache.lock().unwrap().stats();
        report.admission = st.admission;
        report.tenants = std::mem::take(&mut st.retired);
        let mut remaining: Vec<_> = st.sessions.drain().collect();
        remaining.sort_by_key(|(id, _)| *id);
        for (id, entry) in remaining {
            let tenant = entry.slot.lock().unwrap();
            let state = if tenant.engine.is_faulted() {
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
            self.inner.work_cv.notify_all();
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
        faults: tenant.engine.failure_count(),
        placement_cores: entry.plan.cores,
        placement_cut_edges: entry.plan.cut_edges,
        placement_fused: entry.plan.fused,
        placement_fissioned: entry.plan.fissioned,
    }
}

fn shard_loop(inner: &Inner, shard: usize, trace: &WorkerTrace) {
    loop {
        // Take one id off this shard's queue (or exit on shutdown).
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                let st_ref = &mut *st;
                if let Some(id) = st_ref.queues[shard].pop_front() {
                    match st_ref.sessions.get_mut(&id) {
                        Some(entry) => {
                            entry.queued = false;
                            entry.running = true;
                            let drain = entry.draining || st_ref.shutting_down;
                            break Some((id, entry.slot.clone(), drain));
                        }
                        // Closed while queued; skip the stale id.
                        None => continue,
                    }
                }
                if st_ref.shutting_down {
                    break None;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        let Some((id, slot, drain)) = job else { return };
        // Run the slice under the tenant's lock only.
        let outcome = {
            let mut tenant = slot.lock().unwrap();
            // WorkerTrace is only Copy when the trace feature is off.
            #[allow(clippy::clone_on_copy)]
            tenant.engine.set_trace(trace.clone());
            tenant.run_slice(inner.config.batch_iters, inner.config.output_bound, drain)
        };
        // Publish the outcome and requeue if there is more to do. The
        // pending count is re-read under state -> tenant: a `feed` that
        // landed between the slice ending and this publish saw
        // `running == true` and skipped its own enqueue, counting on
        // this publish to requeue — `outcome.pending` is stale then.
        let mut st = inner.state.lock().unwrap();
        let fresh_pending = slot.lock().unwrap().pending;
        let st_ref = &mut *st;
        if let Some(entry) = st_ref.sessions.get_mut(&id) {
            entry.running = false;
            entry.pending_hint = fresh_pending;
            if outcome.faulted && !entry.faulted {
                entry.faulted = true;
                trace.record(EventKind::SessionQuarantined, id as u32, 0);
            }
            if outcome.deferred {
                // Re-check drain state under the lock: `close`/`shutdown`
                // may have set it while the slice ran, and they only
                // revive entries that were *already* parked — parking now
                // would strand the tenant (only `poll` requeues deferred
                // entries) and deadlock the waiting drain. Requeue
                // instead; the next pop computes `drain = true` and runs
                // with the output bound ignored.
                if entry.draining || st_ref.shutting_down {
                    if !entry.queued {
                        entry.queued = true;
                        st_ref.queues[entry.shard].push_back(id);
                        inner.work_cv.notify_all();
                    }
                } else {
                    entry.deferred = true;
                    st_ref.admission.backpressure_stalls += 1;
                }
            } else if fresh_pending > 0 && !entry.queued && !entry.faulted {
                entry.queued = true;
                st_ref.queues[entry.shard].push_back(id);
                inner.work_cv.notify_all();
            }
        }
        inner.done_cv.notify_all();
    }
}
