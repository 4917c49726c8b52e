//! Per-session supervised execution for the multi-tenant service layer.
//!
//! A [`SessionEngine`] runs one tenant's stream graph incrementally —
//! iterations are requested in slices ([`SessionEngine::run_steady`]),
//! between which the hosting shard thread is free to run other tenants —
//! from *shared* compiled programs ([`macross_vm::CompiledPrograms`]), so
//! a thousand sessions of the same graph shape pay for one compilation.
//!
//! The engine carries PR 4's supervision envelope down to session
//! granularity: a node's repetitions in an iteration run as one block
//! behind one `catch_unwind`, cut so that a planned [`FaultPlan`] fault
//! fires alone, and a failure — named by its exact firing — quarantines
//! *this session only*. Quarantine is a taint drain, not an abort: the
//! failed stage and everything data-dependent on it (descendants, plus
//! any stage adjacent to a poisoned tape) stop firing, while independent
//! branches finish the current steady iteration so every sink ends on a
//! bit-exact clean prefix of the fault-free run. Co-resident sessions on
//! the same shard share nothing but the immutable compiled artifacts, so
//! they are unaffected by construction — the tenant-isolation tests
//! assert this bit-for-bit.
//!
//! Differences from the threaded worker's envelope, by design: there are
//! no cut-edge rings (one session = one timeline), so the ring faults
//! `DelayPush` / `DropUnpark` are inert here, and without a watchdog
//! `StallFiring` is pure latency rather than an escalation.

use crate::fault::{FaultKind, FaultPlan};
use crate::supervisor::{FailureCause, StageFailure};
use macross_sdf::Schedule;
use macross_streamir::analysis::analyze_vectorizability;
use macross_streamir::graph::{Graph, Node, NodeId};
use macross_streamir::types::Value;
use macross_telemetry::{EventKind, WorkerTrace};
use macross_vm::firing::{self, FilterState, FirePlan};
use macross_vm::{CompiledPrograms, CycleCounters, ExecMode, Machine, Tape};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Name-level identity of an edge, stable across independently compiled
/// configurations of the same parameterized program (node *ids* are not:
/// SIMDization inserts and renumbers nodes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdgeSig {
    /// Producer node name.
    pub src: String,
    /// Producer output port.
    pub src_port: usize,
    /// Consumer node name.
    pub dst: String,
    /// Consumer input port.
    pub dst_port: usize,
}

/// The portable quiescent-point state of a session: everything that must
/// survive a configuration swap for the continued run to stay bit-exact.
///
/// Captured by [`SessionEngine::export_carrier`] at a steady-iteration
/// boundary and installed into a freshly built engine by
/// [`SessionEngine::resume`]. Stateful filters (state written in `work`)
/// travel by name — the SIMDizer never renames them — while init-only
/// state (e.g. FIR coefficient tables) is deterministically recomputed by
/// the new engine's init functions and therefore not carried. Resident
/// tape tokens (the peek slack the init schedule primed) travel by edge
/// signature, so the new configuration skips its init schedule entirely.
#[derive(Debug, Clone)]
pub struct SessionCarrier {
    /// `(filter name, flattened state values)` per stateful filter.
    pub states: Vec<(String, Vec<Value>)>,
    /// `(edge signature, resident tokens in FIFO order)` per non-empty
    /// tape.
    pub tapes: Vec<(EdgeSig, Vec<Value>)>,
    /// Sink count (output-continuity check across configurations).
    pub sinks: usize,
}

/// Whether a session can accept more work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Healthy; more iterations may be fed.
    Running,
    /// A stage failed; the session drained its clean prefix and is
    /// permanently quarantined ([`SessionEngine::failures`] says why).
    Faulted,
}

/// One tenant's incremental, supervised run of one graph.
pub struct SessionEngine {
    graph: Arc<Graph>,
    schedule: Arc<Schedule>,
    machine: Arc<Machine>,
    mode: ExecMode,
    plan: FaultPlan,
    /// Shard hosting the session — reported as `core` in failures.
    shard: u32,
    tapes: Vec<Tape>,
    states: Vec<FilterState>,
    adj: Vec<FirePlan>,
    /// Captured values per node id (non-empty for sinks only).
    outputs: Vec<Vec<Value>>,
    sink_ids: Vec<NodeId>,
    counters: CycleCounters,
    /// Per-stage firing index (init + steady), the address space of
    /// [`FaultPlan`] — identical numbering to the threaded worker.
    attempts: Vec<u64>,
    /// Total firings completed cleanly.
    firings: u64,
    iters_done: u64,
    failures: Vec<StageFailure>,
    tainted: Vec<bool>,
    init_fns_done: bool,
    init_schedule_done: bool,
    quarantined: bool,
    trace: WorkerTrace,
}

impl SessionEngine {
    /// Build a session over shared compiled programs. No compilation
    /// happens here — only tape and state allocation.
    pub fn new(
        graph: Arc<Graph>,
        schedule: Arc<Schedule>,
        machine: Arc<Machine>,
        programs: &CompiledPrograms,
        plan: FaultPlan,
        shard: u32,
    ) -> SessionEngine {
        assert_eq!(
            programs.node_count(),
            graph.node_count(),
            "compiled programs were built for a different graph"
        );
        let states = graph
            .nodes()
            .map(|(id, node)| programs.state_for(id, node))
            .collect();
        let sink_ids = graph
            .nodes()
            .filter(|(_, n)| matches!(n, Node::Sink))
            .map(|(id, _)| id)
            .collect();
        let n = graph.node_count();
        SessionEngine {
            mode: programs.mode(),
            tapes: firing::graph_tapes(&graph),
            states,
            adj: FirePlan::for_graph(&graph, &machine),
            outputs: vec![Vec::new(); n],
            sink_ids,
            counters: CycleCounters::default(),
            attempts: vec![0; n],
            firings: 0,
            iters_done: 0,
            failures: Vec::new(),
            tainted: vec![false; n],
            init_fns_done: false,
            init_schedule_done: false,
            quarantined: false,
            trace: WorkerTrace::disabled(),
            graph,
            schedule,
            machine,
            plan,
            shard,
        }
    }

    /// Install a recording handle for firing/fault/drain events.
    pub fn set_trace(&mut self, trace: WorkerTrace) {
        self.trace = trace;
    }

    /// Sink node ids, in node order — the row order of
    /// [`SessionEngine::take_outputs`].
    pub fn sink_ids(&self) -> &[NodeId] {
        &self.sink_ids
    }

    /// Drain everything the sinks captured since the last call, one `Vec`
    /// per sink in [`SessionEngine::sink_ids`] order.
    pub fn take_outputs(&mut self) -> Vec<Vec<Value>> {
        let outputs = &mut self.outputs;
        self.sink_ids
            .iter()
            .map(|id| std::mem::take(&mut outputs[id.0 as usize]))
            .collect()
    }

    /// Failures recorded so far (at most the first fault and any
    /// secondary poisoning it caused).
    pub fn failures(&self) -> &[StageFailure] {
        &self.failures
    }

    /// True once a fault quarantined this session.
    pub fn is_faulted(&self) -> bool {
        self.quarantined
    }

    /// Total firings completed cleanly (init + steady).
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// Steady iterations fully executed.
    pub fn iters_done(&self) -> u64 {
        self.iters_done
    }

    /// Aggregate modelled-cycle counters.
    pub fn counters(&self) -> CycleCounters {
        self.counters
    }

    fn status(&self) -> SessionStatus {
        if self.quarantined {
            SessionStatus::Faulted
        } else {
            SessionStatus::Running
        }
    }

    /// Record a failure, begin the taint drain.
    fn fail(&mut self, id: NodeId, firing: u64, cause: FailureCause) {
        self.trace.record(EventKind::StageFailed, id.0, firing);
        if self.failures.is_empty() {
            self.trace.record(EventKind::DrainBegin, id.0, 0);
        }
        self.failures.push(StageFailure {
            stage: id.0 as usize,
            name: self.graph.node(id).name(),
            core: self.shard,
            firing,
            mode: self.mode,
            cause,
        });
        self.quarantined = true;
        self.taint_from(id);
    }

    /// Taint `id` and every node data-dependent on it (reachable through
    /// out-edges): none of them may fire again, their inputs are
    /// compromised.
    fn taint_from(&mut self, id: NodeId) {
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut self.tainted[n.0 as usize], true) {
                continue;
            }
            for e in self.graph.out_edges(n) {
                stack.push(self.graph.edge(e).dst);
            }
        }
    }

    /// During a drain, a stage touching a poisoned tape must not fire:
    /// taint it instead of letting the firing fail a second time.
    fn adjacent_poisoned(&self, id: NodeId) -> bool {
        self.adj[id.0 as usize]
            .tapes()
            .any(|t| self.tapes[t].is_poisoned())
    }

    /// Fire `id` `k` times in a row as one guarded block: panic caught,
    /// failure recorded at the firing that raised it and drained. The
    /// caller ([`SessionEngine::run_phase`]) cuts blocks so that a planned
    /// fault can only address a block's first firing, and then `k = 1` —
    /// as under a live trace handle, whose spans are per firing. Returns
    /// `false` when a firing failed; the ones before it stand.
    fn fire_guarded(&mut self, id: NodeId, k: u64) -> bool {
        let stage = id.0 as usize;
        let first = self.attempts[stage];
        let fault = self.plan.fault_for(stage, first);
        if let Some(kind) = fault {
            debug_assert_eq!(k, 1, "a planned fault fires alone");
            self.trace.record(EventKind::FaultInjected, id.0, first);
            match kind {
                FaultKind::PoisonTape => {
                    // Poison the stage's input half (or output half for
                    // sources); the firing below then refuses to run.
                    let a = &self.adj[stage];
                    if let Some(e) = a.in_edge().or(a.out_edge()) {
                        self.tapes[e].poison();
                    }
                }
                FaultKind::StallFiring { nanos } => {
                    // No watchdog on the sequential engine: a stall is
                    // pure latency, never an escalation.
                    std::thread::sleep(std::time::Duration::from_nanos(nanos));
                }
                // Ring-level faults; the session engine has no rings.
                FaultKind::DelayPush { .. } | FaultKind::DropUnpark { .. } => {}
                FaultKind::Panic => {}
            }
        }
        self.trace.record(EventKind::FiringStart, id.0, 0);
        let before = self.counters.total();
        let mut done = 0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, Some(FaultKind::Panic)) {
                panic!("injected fault: panic at stage {stage} firing {first}");
            }
            firing::fire_block(
                &self.adj[stage],
                self.graph.node(id),
                &mut self.states[stage],
                &mut self.tapes,
                &self.machine,
                &mut self.counters,
                k,
                &mut self.outputs[stage],
                &mut done,
            )
        }));
        self.trace
            .record(EventKind::FiringEnd, id.0, self.counters.total() - before);
        self.firings += done;
        // The failed firing was attempted too.
        self.attempts[stage] += done + u64::from(!matches!(result, Ok(Ok(()))));
        match result {
            Ok(Ok(())) => true,
            Ok(Err(e)) => {
                // The firing already poisoned the touched tapes.
                self.fail(id, first + done, FailureCause::Vm(e));
                false
            }
            Err(payload) => {
                // A panic outside the VM's own boundary (native node or
                // injected): quarantine the stage's tapes ourselves.
                for t in self.adj[stage].tapes() {
                    self.tapes[t].poison();
                }
                let msg = firing::panic_message(payload.as_ref());
                self.fail(id, first + done, FailureCause::Panic(msg));
                false
            }
        }
    }

    /// One pass over a schedule phase (init or steady), each node's
    /// repetitions as one guarded block, honouring the taint drain:
    /// tainted stages are skipped, stages that would touch a poisoned tape
    /// are tainted instead of fired, everything else runs to flush its
    /// clean data.
    fn run_phase(&mut self, init: bool) {
        let schedule = Arc::clone(&self.schedule);
        let draining_at_entry = self.quarantined;
        for &id in &schedule.order {
            let stage = id.0 as usize;
            let mut left = if init {
                schedule.init_reps[stage]
            } else {
                schedule.reps[stage]
            };
            while left > 0 {
                if self.tainted[stage] {
                    break;
                }
                if (self.quarantined || draining_at_entry) && self.adjacent_poisoned(id) {
                    self.taint_from(id);
                    break;
                }
                // Up to the next planned fault, which then fires alone.
                let k = if self.trace.active() {
                    1
                } else {
                    let next = self.plan.first_fault(stage, self.attempts[stage], 1, left);
                    next.unwrap_or(left).max(1)
                };
                if !self.fire_guarded(id, k) {
                    break;
                }
                left -= k;
            }
        }
    }

    fn run_init_functions(&mut self) {
        if self.init_fns_done {
            return;
        }
        self.init_fns_done = true;
        for (id, node) in self.graph.clone().nodes() {
            if let Node::Filter(f) = node {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    self.states[id.0 as usize].run_init_fn(f, &self.machine)
                }));
                match result {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        self.fail(id, 0, FailureCause::Vm(e));
                        return;
                    }
                    Err(payload) => {
                        let msg = firing::panic_message(payload.as_ref());
                        self.fail(id, 0, FailureCause::Panic(msg));
                        return;
                    }
                }
            }
        }
    }

    /// Run filter `init` functions and the init schedule (idempotent).
    pub fn run_init(&mut self) -> SessionStatus {
        self.run_init_functions();
        if !self.init_schedule_done && !self.quarantined {
            self.init_schedule_done = true;
            self.run_phase(true);
        }
        self.status()
    }

    fn edge_sig(&self, idx: usize) -> EdgeSig {
        let (_, e) = self
            .graph
            .edges()
            .nth(idx)
            .expect("tape index is an edge index");
        EdgeSig {
            src: self.graph.node(e.src).name(),
            src_port: e.src_port,
            dst: self.graph.node(e.dst).name(),
            dst_port: e.dst_port,
        }
    }

    /// Capture the session's quiescent-point carrier (see
    /// [`SessionCarrier`]). Must be called at a steady-iteration boundary
    /// — which is the only place slice-based callers can call it, since
    /// [`SessionEngine::run_steady`] returns only at boundaries.
    ///
    /// # Errors
    /// Fails when the session is faulted, initialization has not run, or
    /// a tape's resident state cannot be expressed as a plain token
    /// sequence (partial reorder block / staged rpush data — states that
    /// template validation proves unreachable for swappable programs).
    pub fn export_carrier(&self) -> Result<SessionCarrier, String> {
        if self.quarantined {
            return Err("cannot export the carrier of a faulted session".into());
        }
        if !self.init_fns_done || !self.init_schedule_done {
            return Err("cannot export a carrier before initialization".into());
        }
        let mut states = Vec::new();
        for (id, node) in self.graph.nodes() {
            if let Node::Filter(f) = node {
                if analyze_vectorizability(f).stateful {
                    if states.iter().any(|(n, _)| *n == f.name) {
                        return Err(format!("duplicate stateful filter name '{}'", f.name));
                    }
                    let vals = self.states[id.0 as usize].export_state_vars(f);
                    states.push((f.name.clone(), vals));
                }
            }
        }
        let mut tapes = Vec::new();
        for (idx, tape) in self.tapes.iter().enumerate() {
            let vals = tape.export_resident().ok_or_else(|| {
                format!(
                    "tape {:?} holds reordered or uncommitted resident state",
                    self.edge_sig(idx)
                )
            })?;
            if !vals.is_empty() {
                let sig = self.edge_sig(idx);
                if tapes.iter().any(|(s, _)| *s == sig) {
                    return Err(format!("ambiguous resident-tape signature {sig:?}"));
                }
                tapes.push((sig, vals));
            }
        }
        Ok(SessionCarrier {
            states,
            tapes,
            sinks: self.sink_ids.len(),
        })
    }

    /// Build a session over `programs` primed from `carrier` instead of
    /// the init schedule: init *functions* run (recomputing deterministic
    /// init-only state such as coefficient tables), carried stateful
    /// values overwrite the corresponding filters' state, carried tokens
    /// preload the corresponding tapes, and the init schedule is skipped
    /// — its priming is exactly what the carrier holds.
    ///
    /// # Errors
    /// Fails when the carrier does not fit this configuration: a carried
    /// stateful filter or tape signature missing or ambiguous here, a
    /// state-shape mismatch, a sink-count mismatch, or an init function
    /// fault. Template validation makes these unreachable for programs it
    /// accepted; the error path exists so an unvalidated swap degrades to
    /// a typed failure instead of silent corruption.
    #[allow(clippy::too_many_arguments)]
    pub fn resume(
        graph: Arc<Graph>,
        schedule: Arc<Schedule>,
        machine: Arc<Machine>,
        programs: &CompiledPrograms,
        plan: FaultPlan,
        shard: u32,
        carrier: &SessionCarrier,
    ) -> Result<SessionEngine, String> {
        let mut s = SessionEngine::new(graph, schedule, machine, programs, plan, shard);
        if s.sink_ids.len() != carrier.sinks {
            return Err(format!(
                "sink count changed across configurations: {} -> {}",
                carrier.sinks,
                s.sink_ids.len()
            ));
        }
        s.run_init_functions();
        if s.quarantined {
            return Err("init function faulted while resuming".into());
        }
        for (name, vals) in &carrier.states {
            let mut target = None;
            for (id, node) in s.graph.nodes() {
                if let Node::Filter(f) = node {
                    if f.name == *name {
                        if target.is_some() {
                            return Err(format!("ambiguous stateful filter name '{name}'"));
                        }
                        target = Some(id);
                    }
                }
            }
            let id = target
                .ok_or_else(|| format!("stateful filter '{name}' missing in new configuration"))?;
            let filter = match s.graph.clone().node(id) {
                Node::Filter(f) => f.clone(),
                _ => unreachable!("target is a filter"),
            };
            s.states[id.0 as usize]
                .import_state_vars(&filter, vals)
                .map_err(|e| format!("state carrier rejected for '{name}': {e}"))?;
        }
        for (sig, vals) in &carrier.tapes {
            let mut target = None;
            for idx in 0..s.tapes.len() {
                if s.edge_sig(idx) == *sig {
                    if target.is_some() {
                        return Err(format!("ambiguous tape signature {sig:?}"));
                    }
                    target = Some(idx);
                }
            }
            let idx = target.ok_or_else(|| format!("tape {sig:?} missing in new configuration"))?;
            if !s.tapes[idx].import_resident(vals) {
                return Err(format!("tape {sig:?} refused the carried tokens"));
            }
        }
        s.init_schedule_done = true;
        Ok(s)
    }

    /// Run up to `iters` steady iterations, stopping (after draining the
    /// current iteration's clean remainder) on the first fault.
    pub fn run_steady(&mut self, iters: u64) -> SessionStatus {
        if !self.init_fns_done || !self.init_schedule_done {
            self.run_init();
        }
        for _ in 0..iters {
            if self.quarantined {
                break;
            }
            self.run_phase(false);
            if !self.quarantined {
                self.iters_done += 1;
            }
        }
        self.status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_sdf::Schedule as SdfSchedule;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};
    use macross_vm::run_scheduled_mode;

    fn pipeline() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 2, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
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

    fn build(plan: FaultPlan) -> SessionEngine {
        let g = Arc::new(pipeline());
        let sched = Arc::new(SdfSchedule::compute(&g).unwrap());
        let machine = Arc::new(Machine::core_i7());
        let programs = CompiledPrograms::compile(&g, &machine, ExecMode::default());
        SessionEngine::new(g, sched, machine, &programs, plan, 0)
    }

    /// src (4 tokens a firing) -> bomb -> sink: the bomb and the sink fire
    /// four times an iteration, so their blocks have an inside. The bomb
    /// blows its own firing `fail_at` with an out-of-range peek, after it
    /// has counted the firing and before it pushes.
    fn build_wide(fail_at: i32, plan: FaultPlan) -> SessionEngine {
        let mut src = FilterBuilder::new("src", 0, 0, 4, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            for _ in 0..4 {
                b.push(v(n));
                b.set(n, v(n) + 1i32);
            }
        });
        let mut bomb = FilterBuilder::new("bomb", 1, 1, 1, ScalarTy::I32);
        let fired = bomb.state("fired", Ty::Scalar(ScalarTy::I32));
        let junk = bomb.local("junk", Ty::Scalar(ScalarTy::I32));
        bomb.work(move |b| {
            b.set(fired, v(fired) + 1i32);
            b.if_(eq(v(fired), fail_at + 1), |b| {
                b.set(junk, peek(1_000_000i32));
            });
            b.push(pop() * 5i32);
        });
        let g = StreamSpec::pipeline(vec![src.build_spec(), bomb.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let g = Arc::new(g);
        let sched = Arc::new(SdfSchedule::compute(&g).unwrap());
        assert_eq!(sched.reps, vec![1, 4, 4]);
        let machine = Arc::new(Machine::core_i7());
        let programs = CompiledPrograms::compile(&g, &machine, ExecMode::default());
        SessionEngine::new(g, sched, machine, &programs, plan, 0)
    }

    /// `run_steady` as it was before blocks: an envelope per firing.
    fn steady_one_at_a_time(s: &mut SessionEngine, iters: u64) {
        s.run_init();
        let schedule = Arc::clone(&s.schedule);
        for _ in 0..iters {
            if s.quarantined {
                break;
            }
            for &id in &schedule.order {
                for _ in 0..schedule.reps[id.0 as usize] {
                    if s.tainted[id.0 as usize] {
                        break;
                    }
                    if s.quarantined && s.adjacent_poisoned(id) {
                        s.taint_from(id);
                        break;
                    }
                    if !s.fire_guarded(id, 1) {
                        break;
                    }
                }
            }
            if !s.quarantined {
                s.iters_done += 1;
            }
        }
    }

    /// Everything a run leaves behind that a caller or a later firing can
    /// see.
    fn leftovers(s: &SessionEngine) -> impl PartialEq + std::fmt::Debug {
        let tapes: Vec<_> = s
            .tapes
            .iter()
            .map(|t| (t.len(), t.is_poisoned(), t.stats()))
            .collect();
        (
            (s.failures.clone(), s.outputs.clone(), tapes),
            (s.firings, s.iters_done, s.counters),
            (s.attempts.clone(), s.tainted.clone()),
        )
    }

    #[test]
    fn guest_fault_inside_a_block_names_its_firing_and_keeps_what_came_before() {
        // Firing 6 of the bomb is the third of its second block: the block
        // began at firing 4 and two firings completed in it.
        for fail_at in [4, 6, 7] {
            let mut blocks = build_wide(fail_at, FaultPlan::none());
            assert_eq!(blocks.run_steady(5), SessionStatus::Faulted);
            let f = &blocks.failures()[0];
            assert_eq!((f.stage, f.firing), (1, fail_at as u64));
            assert_eq!(f.cause.label(), "vm");
            // What the block's earlier firings pushed stands on the tape
            // (poisoned with it), and the sink has the whole iteration
            // before.
            assert_eq!(blocks.tapes[1].len(), fail_at as usize - 4);
            assert_eq!(blocks.firings(), (1 + 4 + 4) + 1 + (fail_at as u64 - 4));
            let mut singles = build_wide(fail_at, FaultPlan::none());
            steady_one_at_a_time(&mut singles, 5);
            assert_eq!(leftovers(&blocks), leftovers(&singles), "bomb at {fail_at}");
            let expect: Vec<Value> = (0..4).map(|x| Value::I32(x * 5)).collect();
            assert_eq!(blocks.take_outputs()[0], expect);
        }
    }

    /// A planned fault cuts its block in three: the firings before it as
    /// one block, the addressed firing alone, the rest as one block — at
    /// the first, a middle and the last firing of a block alike, with
    /// exactly what an envelope per firing leaves behind.
    #[test]
    fn planned_fault_splits_a_block_at_its_firing() {
        if !crate::fault::FAULTS_COMPILED {
            return;
        }
        let kinds = [
            FaultKind::Panic,
            FaultKind::PoisonTape,
            FaultKind::StallFiring { nanos: 1000 },
            FaultKind::DelayPush { nanos: 1000 },
            FaultKind::DropUnpark { count: 1 },
        ];
        for kind in kinds {
            for firing in [4, 6, 7] {
                let plan = FaultPlan::single(1, firing, kind);
                let mut blocks = build_wide(i32::MAX - 1, plan.clone());
                let status = blocks.run_steady(3);
                let fatal = matches!(kind, FaultKind::Panic | FaultKind::PoisonTape);
                assert_eq!(status == SessionStatus::Faulted, fatal, "{kind:?}");
                if fatal {
                    let f = &blocks.failures()[0];
                    assert_eq!((f.stage, f.firing), (1, firing), "{kind:?}");
                    assert_eq!(blocks.tapes[1].len() as u64, firing - 4, "{kind:?}");
                } else {
                    assert_eq!(blocks.outputs[2].len(), 12, "{kind:?}");
                }
                let mut singles = build_wide(i32::MAX - 1, plan);
                steady_one_at_a_time(&mut singles, 3);
                assert_eq!(
                    leftovers(&blocks),
                    leftovers(&singles),
                    "{kind:?} at {firing}"
                );
            }
        }
    }

    #[test]
    fn incremental_slices_match_one_shot() {
        let mut s = build(FaultPlan::none());
        assert_eq!(s.run_init(), SessionStatus::Running);
        let mut collected: Vec<Value> = Vec::new();
        for _ in 0..5 {
            assert_eq!(s.run_steady(2), SessionStatus::Running);
            let outs = s.take_outputs();
            assert_eq!(outs.len(), 1);
            collected.extend(outs[0].iter().copied());
        }
        let g = pipeline();
        let sched = SdfSchedule::compute(&g).unwrap();
        let one_shot =
            run_scheduled_mode(&g, &sched, &Machine::core_i7(), 10, ExecMode::default()).unwrap();
        assert_eq!(collected, one_shot.output);
        assert_eq!(s.iters_done(), 10);
        assert!(s.failures().is_empty());
    }

    #[test]
    fn injected_panic_quarantines_with_clean_prefix() {
        if !crate::fault::FAULTS_COMPILED {
            return;
        }
        // Stage 1 is the scaling filter; fail its 7th firing (2 per iter
        // steady, so mid-iteration 3 counting from 0).
        let plan = FaultPlan::single(1, 6, FaultKind::Panic);
        let mut s = build(plan);
        s.run_init();
        let status = s.run_steady(10);
        assert_eq!(status, SessionStatus::Faulted);
        assert!(s.is_faulted());
        assert_eq!(s.failures().len(), 1);
        let f = &s.failures()[0];
        assert_eq!(f.stage, 1);
        assert_eq!(f.firing, 6);
        assert_eq!(f.cause.label(), "panic");
        // Clean prefix: exactly the 6 completed firings' outputs.
        let outs = s.take_outputs();
        let expect: Vec<Value> = (0..6).map(|x| Value::I32(x * 5)).collect();
        assert_eq!(outs[0], expect);
        // Further work is refused without panicking.
        assert_eq!(s.run_steady(3), SessionStatus::Faulted);
        assert!(s.take_outputs()[0].is_empty());
    }
}
