//! Per-session supervised execution for the multi-tenant service layer.
//!
//! A [`SessionEngine`] runs one tenant's stream graph incrementally —
//! iterations are requested in slices ([`SessionEngine::run_steady`]),
//! between which the hosting shard thread is free to run other tenants —
//! from *shared* compiled programs ([`macross_vm::CompiledPrograms`]), so
//! a thousand sessions of the same graph shape pay for one compilation.
//!
//! It is the share runner (`runner.rs`) over every node of the
//! graph, a share being a node's repetitions in one iteration, plus the
//! slice loop and the configuration-swap carrier. A failure quarantines
//! *this session only*, and quarantine is a bounded finish, not an abort:
//! the session completes the current iteration (the init phase, for a
//! failure there) with every node capped at its bound in
//! [`crate::committed_outcome`], so every sink ends on exactly the
//! committed outcome — the clean run's output cut to the sink's bound, the
//! same on every engine. Co-resident sessions on the same shard share
//! nothing but the immutable compiled artifacts, so they are unaffected by
//! construction — the tenant-isolation tests assert this bit-for-bit.
//!
//! One session is one timeline, so the ring faults `DelayPush` /
//! `DropUnpark` are inert here, and without a watchdog `StallFiring` is
//! pure latency rather than an escalation.

use crate::fault::{committed_outcome, FaultKind, FaultPlan};
use crate::runner::{Failed, Runner, Unit};
use crate::supervisor::StageFailure;
use macross_sdf::Schedule;
use macross_streamir::analysis::analyze_vectorizability;
use macross_streamir::graph::{Graph, Node, NodeId};
use macross_streamir::types::Value;
use macross_vm::firing::{self, FirePlan};
use macross_vm::{CompiledPrograms, CycleCounters, Machine};
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
/// [`SessionEngine::reconfigure`]. Stateful filters (state written in `work`)
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
    /// A stage failed; the session finished its committed outcome and is
    /// permanently quarantined ([`SessionEngine::failures`] says why).
    Faulted,
}

/// One tenant's incremental, supervised run of one graph.
pub struct SessionEngine {
    graph: Arc<Graph>,
    schedule: Arc<Schedule>,
    machine: Arc<Machine>,
    /// The share runner over every node: unit `i` is node `i`.
    run: Runner,
    sink_ids: Vec<NodeId>,
    /// Total firings completed cleanly.
    firings: u64,
    iters_done: u64,
    failures: Vec<StageFailure>,
    /// Each node's firing bound once a failure is recorded (empty before).
    bounds: Vec<u64>,
    /// Init functions and the init schedule (or a carrier) are done.
    initialized: bool,
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
        let plans = FirePlan::for_graph(&graph, &machine);
        let units = graph.node_ids().zip(plans).map(|(id, adj)| Unit {
            id,
            adj,
            attempts: 0,
            stride: 1,
        });
        let states = graph.nodes().map(|(id, node)| programs.state_for(id, node));
        let run = Runner::new(
            units.collect(),
            firing::graph_tapes(&graph),
            states.collect(),
            plan,
            shard,
            programs.mode(),
        );
        let sink_ids = graph
            .nodes()
            .filter(|(_, n)| matches!(n, Node::Sink))
            .map(|(id, _)| id)
            .collect();
        SessionEngine {
            run,
            sink_ids,
            firings: 0,
            iters_done: 0,
            failures: Vec::new(),
            bounds: Vec::new(),
            initialized: false,
            graph,
            schedule,
            machine,
        }
    }

    /// Move the session to the shard that runs its next slice: failures
    /// name `shard` as their core.
    pub fn set_host(&mut self, shard: u32) {
        self.run.core = shard;
    }

    /// Sink node ids, in node order — the row order of
    /// [`SessionEngine::drain_outputs_into`].
    pub fn sink_ids(&self) -> &[NodeId] {
        &self.sink_ids
    }

    /// Append everything the sinks captured since the last call to
    /// `rows`, one row per sink in [`SessionEngine::sink_ids`] order, and
    /// return how many values moved. It allocates nothing: each sink
    /// buffer keeps its capacity, so a session drained after every slice
    /// stops allocating once its buffers have grown.
    pub fn drain_outputs_into(&mut self, rows: &mut [Vec<Value>]) -> usize {
        let mut moved = 0;
        for (row, id) in rows.iter_mut().zip(&self.sink_ids) {
            let captured = &mut self.run.outputs[id.0 as usize];
            moved += captured.len();
            row.append(captured);
        }
        moved
    }

    /// Failures recorded so far: the first fault (a session stops at it).
    pub fn failures(&self) -> &[StageFailure] {
        &self.failures
    }

    /// True once a fault quarantined this session.
    pub fn is_faulted(&self) -> bool {
        !self.failures.is_empty()
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
        self.run.counters
    }

    fn status(&self) -> SessionStatus {
        if self.is_faulted() {
            SessionStatus::Faulted
        } else {
            SessionStatus::Running
        }
    }

    /// Record a failure and bound every node's firings by the outcome.
    fn fail(&mut self, failure: StageFailure) {
        self.failures.push(failure);
        self.bounds = committed_outcome(&self.graph, &self.schedule, &self.failures);
    }

    /// Fire up to `k` firings of `id` as one guarded share, cut before a
    /// planned fault (which then fires alone): how many fired, or `None`
    /// when one failed — the ones before it stand, the failure is
    /// recorded.
    fn fire_guarded(&mut self, id: NodeId, k: u64) -> Option<u64> {
        let stage = id.0 as usize;
        let (k, fault) = self.run.cut(stage, k);
        if let Some(FaultKind::StallFiring { nanos }) = fault {
            std::thread::sleep(std::time::Duration::from_nanos(nanos));
        }
        let fired = self
            .run
            .fire_share(&self.graph, &self.machine, stage, k, fault);
        match fired {
            Ok(()) => {
                self.firings += k;
                Some(k)
            }
            Err(Failed { done, failure }) => {
                self.firings += done;
                self.fail(failure);
                None
            }
        }
    }

    /// One pass over a schedule phase (init or steady), each node's
    /// repetitions as one share (cut before a planned fault) and, once a
    /// failure is recorded, each node capped at its bound.
    fn run_phase(&mut self, init: bool) {
        // Indexed, not through a cloned `Arc`: every session of a shape
        // shares the schedule, and a clone per iteration is two atomic
        // read-modify-writes on one cache line for all of them.
        for i in 0..self.schedule.order.len() {
            let id = self.schedule.order[i];
            let stage = id.0 as usize;
            let mut left = if init {
                self.schedule.init_reps[stage]
            } else {
                self.schedule.reps[stage]
            };
            if let Some(&bound) = self.bounds.get(stage) {
                left = left.min(bound.saturating_sub(self.run.units[stage].attempts));
            }
            while left > 0 {
                // A failed firing is its node's bound.
                let Some(fired) = self.fire_guarded(id, left) else {
                    break;
                };
                left -= fired;
            }
        }
    }

    /// Run filter `init` functions and the init schedule (idempotent).
    pub fn run_init(&mut self) -> SessionStatus {
        if !std::mem::replace(&mut self.initialized, true) {
            for failure in self.run.run_init_fns(&self.graph, &self.machine) {
                self.fail(failure);
            }
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
        if self.is_faulted() {
            return Err("cannot export the carrier of a faulted session".into());
        }
        if !self.initialized {
            return Err("cannot export a carrier before initialization".into());
        }
        let mut states = Vec::new();
        for (id, node) in self.graph.nodes() {
            if let Node::Filter(f) = node {
                if analyze_vectorizability(f).stateful {
                    if states.iter().any(|(n, _)| *n == f.name) {
                        return Err(format!("duplicate stateful filter name '{}'", f.name));
                    }
                    let vals = self.run.states[id.0 as usize].export_state_vars(f);
                    states.push((f.name.clone(), vals));
                }
            }
        }
        let mut tapes = Vec::new();
        for (idx, tape) in self.run.tapes.iter().enumerate() {
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

    /// Swap the session to another configuration of its program at a
    /// steady-iteration boundary, in place: export the carrier, build the
    /// engine for `graph` over `programs`, run its init *functions*
    /// (recomputing deterministic init-only state such as coefficient
    /// tables), let carried stateful values overwrite the corresponding
    /// filters' state and carried tokens preload the corresponding tapes,
    /// and skip the init schedule — its priming is exactly what the
    /// carrier holds. Firings, iterations, the sinks' uncollected output
    /// and the host carry over, and each node's firing index continues
    /// where the new configuration run from the session's start would be,
    /// so fault addresses and the committed outcome count from there.
    ///
    /// # Errors
    /// Leaves the session as it was when the carrier cannot be exported
    /// (see [`SessionEngine::export_carrier`]) or does not fit the new
    /// configuration: a carried stateful filter or tape signature missing
    /// or ambiguous there, a state-shape mismatch, a sink-count mismatch,
    /// or an init function fault. Template validation makes these
    /// unreachable for programs it accepted; the error path exists so an
    /// unvalidated swap degrades to a typed failure instead of silent
    /// corruption.
    pub fn reconfigure(
        &mut self,
        graph: Arc<Graph>,
        schedule: Arc<Schedule>,
        programs: &CompiledPrograms,
    ) -> Result<(), String> {
        let carrier = self.export_carrier()?;
        let (machine, plan) = (self.machine.clone(), self.run.faults.clone());
        let mut s = SessionEngine::new(graph, schedule, machine, programs, plan, self.run.core);
        if s.sink_ids.len() != carrier.sinks {
            return Err(format!(
                "sink count changed across configurations: {} -> {}",
                carrier.sinks,
                s.sink_ids.len()
            ));
        }
        if let Some(f) = s.run.run_init_fns(&s.graph, &s.machine).first() {
            return Err(format!("init function faulted while resuming: {f}"));
        }
        for (name, vals) in &carrier.states {
            let filters = s
                .graph
                .nodes()
                .filter_map(|(id, n)| Some((id, n.as_filter()?)));
            let (id, filter) = only(
                filters.filter(|(_, f)| f.name == *name),
                format!("stateful filter '{name}' missing in new configuration"),
                format!("ambiguous stateful filter name '{name}'"),
            )?;
            s.run.states[id.0 as usize]
                .import_state_vars(filter, vals)
                .map_err(|e| format!("state carrier rejected for '{name}': {e}"))?;
        }
        for (sig, vals) in &carrier.tapes {
            let idx = only(
                (0..s.run.tapes.len()).filter(|&idx| s.edge_sig(idx) == *sig),
                format!("tape {sig:?} missing in new configuration"),
                format!("ambiguous tape signature {sig:?}"),
            )?;
            if !s.run.tapes[idx].import_resident(vals) {
                return Err(format!("tape {sig:?} refused the carried tokens"));
            }
        }
        s.initialized = true;
        (s.firings, s.iters_done) = (self.firings, self.iters_done);
        for (u, unit) in s.run.units.iter_mut().enumerate() {
            unit.attempts = s.schedule.init_reps[u] + s.iters_done * s.schedule.reps[u];
        }
        for (new, old) in s.sink_ids.iter().zip(&self.sink_ids) {
            s.run.outputs[new.0 as usize] = std::mem::take(&mut self.run.outputs[old.0 as usize]);
        }
        *self = s;
        Ok(())
    }

    /// Run up to `iters` steady iterations, stopping (after draining the
    /// current iteration's clean remainder) on the first fault.
    pub fn run_steady(&mut self, iters: u64) -> SessionStatus {
        self.run_init();
        for _ in 0..iters {
            if self.is_faulted() {
                break;
            }
            self.run_phase(false);
            if !self.is_faulted() {
                self.iters_done += 1;
            }
        }
        self.status()
    }
}

/// The only item of `found`: `missing` when there is none, `ambiguous`
/// when there are more.
fn only<T>(
    mut found: impl Iterator<Item = T>,
    missing: String,
    ambiguous: String,
) -> Result<T, String> {
    match (found.next(), found.next()) {
        (Some(item), None) => Ok(item),
        (None, _) => Err(missing),
        _ => Err(ambiguous),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_sdf::Schedule as SdfSchedule;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};
    use macross_vm::{run_scheduled_mode, ExecMode};

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

    /// Everything the sinks captured so far, one row per sink.
    fn take_outputs(s: &mut SessionEngine) -> Vec<Vec<Value>> {
        let mut rows = vec![Vec::new(); s.sink_ids().len()];
        s.drain_outputs_into(&mut rows);
        rows
    }

    /// `run_steady` as it was before blocks: an envelope per firing.
    fn steady_one_at_a_time(s: &mut SessionEngine, iters: u64) {
        s.run_init();
        let schedule = Arc::clone(&s.schedule);
        for _ in 0..iters {
            if s.is_faulted() {
                break;
            }
            for &id in &schedule.order {
                let stage = id.0 as usize;
                for _ in 0..schedule.reps[stage] {
                    let at = s.run.units[stage].attempts;
                    if s.bounds.get(stage).is_some_and(|&bound| at >= bound) {
                        break;
                    }
                    if s.fire_guarded(id, 1).is_none() {
                        break;
                    }
                }
            }
            if !s.is_faulted() {
                s.iters_done += 1;
            }
        }
    }

    /// Everything a run leaves behind that a caller or a later firing can
    /// see.
    fn leftovers(s: &SessionEngine) -> impl PartialEq + std::fmt::Debug {
        let attempts: Vec<u64> = s.run.units.iter().map(|u| u.attempts).collect();
        let tapes: Vec<_> = s
            .run
            .tapes
            .iter()
            .map(|t| (t.len(), t.is_poisoned(), t.stats()))
            .collect();
        (
            (s.failures.clone(), s.run.outputs.clone(), tapes),
            (s.firings, s.iters_done, s.run.counters),
            (attempts, s.bounds.clone()),
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
            // What the block's earlier firings pushed stands, and the sink
            // takes it: it fires to its bound, one firing per bomb firing
            // that completed.
            assert_eq!(blocks.run.tapes[1].len(), 0);
            let bomb = fail_at as u64 - 4;
            assert_eq!(blocks.firings(), (1 + 4 + 4) + 1 + 2 * bomb);
            let mut singles = build_wide(fail_at, FaultPlan::none());
            steady_one_at_a_time(&mut singles, 5);
            assert_eq!(leftovers(&blocks), leftovers(&singles), "bomb at {fail_at}");
            let expect: Vec<Value> = (0..fail_at).map(|x| Value::I32(x * 5)).collect();
            assert_eq!(take_outputs(&mut blocks)[0], expect);
        }
    }

    /// A planned fault cuts its block in three: the firings before it as
    /// one block, the addressed firing alone, the rest as one block — at
    /// the first, a middle and the last firing of a block alike, with
    /// exactly what an envelope per firing leaves behind.
    #[test]
    fn planned_fault_splits_a_block_at_its_firing() {
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
                    assert_eq!(blocks.run.outputs[2].len() as u64, firing, "{kind:?}");
                } else {
                    assert_eq!(blocks.run.outputs[2].len(), 12, "{kind:?}");
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
            let outs = take_outputs(&mut s);
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
        // The committed outcome: exactly the 6 completed firings' outputs.
        let outs = take_outputs(&mut s);
        let expect: Vec<Value> = (0..6).map(|x| Value::I32(x * 5)).collect();
        assert_eq!(outs[0], expect);
        // Further work is refused without panicking.
        assert_eq!(s.run_steady(3), SessionStatus::Faulted);
        assert!(take_outputs(&mut s)[0].is_empty());
    }
}
