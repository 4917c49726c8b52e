//! The guarded share runner: the one state machine under the session
//! engine ([`crate::SessionEngine`]) and the threaded workers.
//!
//! Its unit of execution is a node's *share*: a run of the node's firings
//! in the schedule — its repetitions in one iteration for a session, its
//! part of an iteration block for a worker — fired by one
//! [`firing::fire_block`] call. A [`Runner`] owns everything those calls
//! touch for a set of nodes (tapes, filter states, [`FirePlan`]s, sink
//! outputs, cycle counters) and each node's attempt cursor: the index of
//! its next firing, init and steady phases together, the address space of
//! the [`FaultPlan`]. A fission replica's cursor steps by its replica
//! count, so it stays the node's global firing index.
//!
//! [`Runner::cut`] ends a share before the next planned fault, which then
//! fires alone; [`Runner::fire_share`] applies the fault and fires the
//! share behind the one `catch_unwind`. A failure is named by its exact
//! firing, because `fire_block` counts the firings that completed, so
//! nothing is snapshot and nothing replayed: the firings before the
//! failed one stand, and the failed firing's torn output is unwritten
//! (each out-tape goes back to where the share began plus what the
//! completed firings push, a static count). No tape stays poisoned: what
//! keeps the failed stage from firing again is its bound in
//! [`crate::committed_outcome`], to which both hosts fire every node.

use crate::fault::{FaultKind, FaultPlan};
use crate::supervisor::{FailureCause, StageFailure};
use macross_streamir::graph::{Graph, Node, NodeId};
use macross_streamir::types::Value;
use macross_vm::firing::{self, FilterState, FirePlan};
use macross_vm::{CycleCounters, ExecMode, Machine, Tape};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One node a runner fires, and where its firings stand.
pub(crate) struct Unit {
    pub(crate) id: NodeId,
    /// Adjacent tape indices and reorder address costs, resolved once.
    pub(crate) adj: FirePlan,
    /// Index of the next firing to attempt (a failed one was attempted).
    pub(crate) attempts: u64,
    /// 1 for a whole node; `k` for a replica of a `k`-way fission, which
    /// fires the node's global steady firings `r, r + k, r + 2k, …`.
    pub(crate) stride: u64,
}

/// A share that failed: how many of its firings completed, and the
/// failure of the one after them.
pub(crate) struct Failed {
    pub(crate) done: u64,
    pub(crate) failure: StageFailure,
}

/// A node set's firing state (see the module docs).
pub(crate) struct Runner {
    pub(crate) units: Vec<Unit>,
    /// One tape per edge of the graph, indexed by edge id.
    pub(crate) tapes: Vec<Tape>,
    /// Filter states, indexed by node id.
    pub(crate) states: Vec<FilterState>,
    /// Values captured per node id (non-empty for sinks only).
    pub(crate) outputs: Vec<Vec<Value>>,
    pub(crate) counters: CycleCounters,
    pub(crate) faults: FaultPlan,
    /// Core (worker) or shard (session) a failure names.
    pub(crate) core: u32,
    mode: ExecMode,
    /// [`Tape::written`] of each out-tape of the share in flight, at its
    /// start.
    written: Vec<usize>,
}

impl Runner {
    pub(crate) fn new(
        units: Vec<Unit>,
        tapes: Vec<Tape>,
        states: Vec<FilterState>,
        faults: FaultPlan,
        core: u32,
        mode: ExecMode,
    ) -> Runner {
        Runner {
            units,
            tapes,
            outputs: vec![Vec::new(); states.len()],
            states,
            counters: CycleCounters::default(),
            faults,
            core,
            mode,
            written: Vec::new(),
        }
    }

    /// The failure of node `id` at `firing`.
    fn failure(&self, graph: &Graph, id: NodeId, firing: u64, cause: FailureCause) -> StageFailure {
        StageFailure {
            stage: id.0 as usize,
            name: graph.node(id).name(),
            core: self.core,
            firing,
            init_fn: false,
            mode: self.mode,
            cause,
        }
    }

    /// Run every filter's `init` function, in unit order; each one that
    /// faults fails its node at firing 0, in the init phase.
    pub(crate) fn run_init_fns(&mut self, graph: &Graph, machine: &Machine) -> Vec<StageFailure> {
        let mut failures = Vec::new();
        for u in 0..self.units.len() {
            let id = self.units[u].id;
            if let Node::Filter(f) = graph.node(id) {
                if let Err(e) = self.states[id.0 as usize].run_init_fn(f, machine) {
                    let failure = self.failure(graph, id, 0, FailureCause::Vm(e));
                    failures.push(StageFailure {
                        init_fn: true,
                        ..failure
                    });
                }
            }
        }
        failures
    }

    /// How many of unit `u`'s next `k` firings form one share: those
    /// before the first one the fault plan addresses, or that one alone,
    /// returned with its fault.
    pub(crate) fn cut(&self, u: usize, k: u64) -> (u64, Option<FaultKind>) {
        let unit = &self.units[u];
        let stage = unit.id.0 as usize;
        match self
            .faults
            .first_fault(stage, unit.attempts, unit.stride, k)
        {
            Some(0) => (1, self.faults.fault_for(stage, unit.attempts)),
            Some(clean) => (clean, None),
            None => (k, None),
        }
    }

    /// Fire unit `u` `k` times as one guarded block, `fault` (from
    /// [`Runner::cut`]) applied to its only firing: a `PoisonTape`
    /// poisons the node's first tape (an input, or a source's output) so
    /// the block is refused, a `Panic` panics inside the guard. The other
    /// fault kinds are the host's to apply. On failure the firings before
    /// the failed one stand and the rest is undone as the module docs say.
    pub(crate) fn fire_share(
        &mut self,
        graph: &Graph,
        machine: &Machine,
        u: usize,
        k: u64,
        fault: Option<FaultKind>,
    ) -> Result<(), Failed> {
        let Unit {
            id,
            ref adj,
            attempts: first,
            stride,
        } = self.units[u];
        let stage = id.0 as usize;
        let node = graph.node(id);
        if fault == Some(FaultKind::PoisonTape) {
            if let Some(t) = adj.tapes().next() {
                self.tapes[t].poison();
            }
        }
        self.written.clear();
        let tapes = &self.tapes;
        // A single out-edge (a filter's) is read without the edge list.
        match adj.out_edge() {
            Some(t) => self.written.push(tapes[t].written()),
            None => self
                .written
                .extend(adj.out_tapes().iter().map(|&t| tapes[t].written())),
        }
        let mut done = 0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if fault == Some(FaultKind::Panic) {
                panic!("injected fault: panic at stage {stage} firing {first}");
            }
            firing::fire_block(
                adj,
                node,
                &mut self.states[stage],
                &mut self.tapes,
                machine,
                &mut self.counters,
                k,
                &mut self.outputs[stage],
                &mut done,
            )
        }));
        let cause = match result {
            Ok(Ok(())) => {
                self.units[u].attempts += k * stride;
                return Ok(());
            }
            Ok(Err(e)) => FailureCause::Vm(e),
            Err(payload) => FailureCause::Panic(firing::panic_message(payload.as_ref())),
        };
        // What the failed firing wrote goes, and no tape stays poisoned.
        for t in adj.tapes() {
            self.tapes[t].clear_poison();
        }
        self.unwrite(node, u, done);
        self.units[u].attempts += (done + 1) * stride;
        let failure = self.failure(graph, id, first + done * stride, cause);
        Err(Failed { done, failure })
    }

    /// Undo what the share in flight of unit `u` (node `node`) wrote after
    /// its first `done` firings: what those firings pushed can be
    /// delivered.
    pub(crate) fn unwrite(&mut self, node: &Node, u: usize, done: u64) {
        let outs = self.units[u].adj.out_tapes();
        for (port, (&t, &at)) in outs.iter().zip(&self.written).enumerate() {
            self.tapes[t].unwrite_to(at + done as usize * node.push_rate(port));
        }
    }
}
