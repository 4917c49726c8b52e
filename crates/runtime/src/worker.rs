//! Per-core worker: executes one core's slice of the global SDF schedule
//! against thread-local tapes, bridging cut edges through SPSC rings.
//!
//! Each worker owns a full `Vec<Tape>` indexed by edge id but only touches
//! the edges incident to its own nodes. A cut edge is represented twice —
//! a producer-side tape half on the producing core and a consumer-side
//! half on the consuming core — with the physical [`crate::ring::Ring`]
//! in between. Reorder semantics stay in the local halves: a
//! producer-side reorder (`ReorderSide::Producer`) stages and commits on
//! the producing core, a consumer-side reorder (`ReorderSide::Consumer`)
//! remaps reads on the consuming core, and the ring always carries
//! elements in committed physical order — as the register images the tape
//! halves hold, so a token is copied across and never converted. Draining
//! a tape front-first therefore preserves exactly the layout the
//! single-threaded executor would have seen, which is what makes the
//! differential tests exact.
//!
//! Workers are *supervised*: firings run inside `catch_unwind` with a
//! heartbeat the watchdog samples — a node's whole share of an iteration
//! block in one envelope ([`Worker::fire_many`]), one firing at a time
//! where something is addressed to a single firing
//! ([`Worker::fire_plan`]) — failures become typed [`StageFailure`]s
//! instead of process aborts, and on the first failure the run switches
//! to a coordinated drain (see [`Worker::drain`]).

use crate::fault::FaultKind;
use crate::ring::Ring;
use crate::supervisor::{FailureCause, StageFailure, Supervisor, SupervisorOptions};
use crate::{stage_name, EdgeRings, Placement, Stage, StartGate, Wiring, ITER_BLOCK};
use macross_sdf::Schedule;
use macross_streamir::graph::{Graph, Node, NodeId};
use macross_streamir::types::Value;
use macross_telemetry::{clock, EventKind, WorkerTrace};
use macross_vm::firing::{self, FilterState, FirePlan};
use macross_vm::machine::{CycleCounters, Machine};
use macross_vm::tape::{Tape, TapeMark};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The supervisor interrupt was observed: stop the scheduled phase and
/// switch to draining (or return, when already draining).
struct Stop;

/// What a worker hands back to the coordinator. Failures travel through
/// the [`Supervisor`], so this is plain (possibly partial) output.
pub(crate) struct WorkerOut {
    /// `(sink node id, values captured)` for sinks hosted on this core.
    pub sink_outputs: Vec<(usize, Vec<Value>)>,
    /// Wall-clock nanoseconds spent in the steady loop.
    pub steady_nanos: u64,
    /// Modelled cycles accumulated by this core's firings (steady only).
    pub modelled: CycleCounters,
}

/// One cut in-edge the worker must pull tokens for before firing.
///
/// Normally one ring; when the edge's *producer* is fissioned this is a
/// merge point — one ring per replica, read round-robin in `ring_block`
/// chunks (the producer's per-firing push rate), which reassembles the
/// exact sequential stream.
struct Pull {
    edge: usize,
    rings: Vec<Arc<Ring>>,
    /// Tokens read from one ring before rotating to the next (unused when
    /// `rings.len() == 1`).
    ring_block: usize,
    /// Total tokens pulled off this edge's rings — the rotation cursor.
    taken: usize,
    /// Physical tokens one firing must be able to address:
    /// `max(pop, peek)` for filters, the exact pop rate otherwise.
    need: usize,
    /// Logical tokens one firing consumes (advances the block position).
    pop: usize,
    /// Read-reorder block of the local consumer tape half (1 if plain).
    /// Column-major remapping addresses anywhere inside the current
    /// block, so availability is rounded up to whole blocks.
    block: usize,
    /// Total tokens consumed so far — `consumed % block` is the position
    /// inside the current block.
    consumed: usize,
}

impl Pull {
    fn single(edge: usize, ring: Arc<Ring>, need: usize, pop: usize, block: usize) -> Pull {
        Pull {
            edge,
            rings: vec![ring],
            ring_block: 0,
            taken: 0,
            need,
            pop,
            block,
            consumed: 0,
        }
    }

    /// Physical tokens the local tape half must hold for the next firing.
    fn needed_phys(&self) -> usize {
        if self.block > 1 {
            let pos = self.consumed % self.block;
            (pos + self.need).div_ceil(self.block) * self.block
        } else {
            self.need
        }
    }

    /// Index of the ring holding the next token in stream order.
    fn cur(&self) -> usize {
        if self.rings.len() == 1 {
            0
        } else {
            (self.taken / self.ring_block) % self.rings.len()
        }
    }

    /// Pop up to `max` tokens into `tape` without blocking, rotating
    /// rings at merge-block boundaries. Returns tokens moved. Stops when
    /// the ring holding the next in-order token runs dry — a later
    /// replica's tokens must not be read early.
    fn pop_rotating(&mut self, tape: &mut Tape, mut max: usize) -> usize {
        let mut total = 0;
        while max > 0 {
            let (i, room) = if self.rings.len() == 1 {
                (0, max)
            } else {
                let i = self.cur();
                (i, (self.ring_block - self.taken % self.ring_block).min(max))
            };
            let n = self.rings[i].pop_spans(room, |a, b| {
                tape.push_slice(a);
                tape.push_slice(b);
            });
            self.taken += n;
            total += n;
            max -= n;
            if n < room {
                break;
            }
        }
        total
    }
}

/// One cut out-edge the worker must flush after firing.
///
/// Normally one ring; when the edge's *consumer* is fissioned this is a
/// deal point — one ring per replica, written round-robin in `ring_block`
/// chunks (the consumer's per-firing pop rate), so replica `r` receives
/// exactly the tokens of steady firings `g ≡ r (mod k)`.
struct Push {
    edge: usize,
    rings: Vec<Arc<Ring>>,
    /// Tokens written to one ring before rotating to the next (unused
    /// when `rings.len() == 1`).
    ring_block: usize,
    /// Total tokens shipped on this edge — the rotation cursor.
    shipped: usize,
}

impl Push {
    fn single(edge: usize, ring: Arc<Ring>) -> Push {
        Push {
            edge,
            rings: vec![ring],
            ring_block: 0,
            shipped: 0,
        }
    }

    /// Index of the ring receiving the next token in stream order.
    fn cur(&self) -> usize {
        if self.rings.len() == 1 {
            0
        } else {
            (self.shipped / self.ring_block) % self.rings.len()
        }
    }

    /// How many of `want` tokens fit in the current deal block.
    fn room_in_block(&self, want: usize) -> usize {
        if self.rings.len() == 1 {
            want
        } else {
            (self.ring_block - self.shipped % self.ring_block).min(want)
        }
    }

    /// Ship `vals` in stream order: one chunk for a single ring; at a
    /// deal point, rotate replicas at pop-rate block boundaries so
    /// replica r receives exactly the tokens of its own global firings.
    /// `send` returns how many tokens of a chunk the ring took; the first
    /// short answer stops the shipment with the cursor exactly at the
    /// next undelivered token. Returns how many tokens went out.
    fn ship(&mut self, vals: &[u64], mut send: impl FnMut(&Ring, &[u64]) -> usize) -> usize {
        let mut off = 0;
        while off < vals.len() {
            let take = self.room_in_block(vals.len() - off);
            let sent = send(&self.rings[self.cur()], &vals[off..off + take]);
            self.shipped += sent;
            off += sent;
            if sent < take {
                break;
            }
        }
        off
    }
}

/// One same-core in-edge, tracked so the post-failure drain can check
/// token sufficiency without firing (the scheduled phase needs no such
/// check: the schedule guarantees availability).
struct LocalIn {
    edge: usize,
    /// Physical tokens one firing must be able to address.
    need: usize,
    /// Consumer-side reorder block (1 if plain). The drain has no block
    /// cursor for local tapes, so sufficiency is `need + block - 1` —
    /// conservative by at most one block.
    block: usize,
}

/// Per-node firing plan for one core.
struct NodePlan {
    id: NodeId,
    /// Adjacent tape indices and reorder address costs, resolved once.
    adj: FirePlan,
    reps: u64,
    init_reps: u64,
    pulls: Vec<Pull>,
    pushes: Vec<Push>,
    local_ins: Vec<LocalIn>,
    /// Firings attempted so far (the fault-addressing clock: init +
    /// steady, 0-based, deterministic because each node fires on exactly
    /// one worker in schedule order).
    attempts: u64,
    /// Firings completed (output committed).
    completed: u64,
    /// Total firings a full run would execute; the drain never exceeds it
    /// (keeps branch sources from running away from a failed sibling).
    scheduled: u64,
    /// Firing-index stride. 1 for a whole node; `k` for a fission
    /// replica, which executes global steady firings `offset, offset+k,
    /// offset+2k, …` — `attempts` stays the *global* firing index, so
    /// fault addressing and trace attribution match the sequential run.
    stride: u64,
    /// Steps the node runs behind the sources ([`crate::stage_lags`]):
    /// it fires steady block `b` at step `b + lag`.
    lag: u64,
}

/// Record a mark of each tape in `ids`, in that order.
fn take_marks(marks: &mut Vec<TapeMark>, tapes: &[Tape], ids: impl Iterator<Item = usize>) {
    marks.clear();
    marks.extend(ids.map(|e| tapes[e].mark()));
}

/// Put each tape in `ids` (the order [`take_marks`] saw) back to its mark,
/// and lift the poison the firing path put on the tapes of a filter that
/// failed: what the marks restore is trustworthy again.
fn restore_marks(tapes: &mut [Tape], ids: impl Iterator<Item = usize>, marks: &[TapeMark]) {
    for (e, mark) in ids.zip(marks) {
        tapes[e].rollback(mark);
        tapes[e].clear_poison();
    }
}

pub(crate) struct Worker<'g> {
    graph: &'g Graph,
    machine: &'g Machine,
    tapes: Vec<Tape>,
    states: Vec<FilterState>,
    plans: Vec<NodePlan>,
    stages: Arc<Vec<Stage>>,
    counters: CycleCounters,
    /// Values captured per node id (non-empty for this core's sinks only).
    outputs: Vec<Vec<Value>>,
    /// Tape marks of the firing or share in flight, in the order of the
    /// plan's tape list; reused so a firing allocates nothing.
    marks: Vec<TapeMark>,
    /// What the filter of the share in flight held before it
    /// ([`FilterState::save_to`]); reused likewise.
    saved: FilterState,
    /// This core's trace handle (zero-sized no-op unless the `telemetry`
    /// feature is on and a live session was passed to the run).
    trace: WorkerTrace,
    core: u32,
    opts: &'g SupervisorOptions,
    sup: &'g Supervisor,
    /// Index into the supervisor's heartbeat table.
    slot: usize,
}

impl<'g> Worker<'g> {
    /// Build the worker for `core`: local tapes (with reorder halves for
    /// cut edges), filter states for its own nodes, and the pull/push
    /// plan per node. Registers this thread on its rings for unpark.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        graph: &'g Graph,
        schedule: &'g Schedule,
        machine: &'g Machine,
        placement: &'g Placement,
        core: u32,
        wiring: &'g Wiring,
        stages: Arc<Vec<Stage>>,
        trace: WorkerTrace,
        opts: &'g SupervisorOptions,
        sup: &'g Supervisor,
        slot: usize,
        iters: u64,
    ) -> Worker<'g> {
        let (assignment, rings, lags) = (&placement.assignment, &wiring.rings, &wiring.lags);
        // A node runs here when assigned here — or, if fissioned, when
        // this core hosts one of its replicas.
        let on_core = |id: NodeId| match placement.fission_of(id) {
            Some(spec) => spec.replicas.contains(&core),
            None => assignment[id.0 as usize] == core,
        };
        // A cut edge's tape half holds up to a block of it (a share is
        // fired whole, then flushed); a same-core edge as many blocks as
        // its consumer lags its producer, plus one. Sized once, here, not
        // doubling by doubling inside the first timed blocks.
        let mut tapes: Vec<Tape> = graph
            .edges()
            .zip(&wiring.reqs)
            .zip(rings)
            .map(|(((_, e), req), how)| {
                let mut tape = Tape::new(e.elem);
                if on_core(e.src) || on_core(e.dst) {
                    let blocks = match how {
                        EdgeRings::Local => lags[e.dst.0 as usize] - lags[e.src.0 as usize] + 1,
                        _ => 1,
                    };
                    let steady = req.capacity - req.init_tokens;
                    let span = (blocks * ITER_BLOCK).min(iters);
                    tape.reserve((req.init_tokens + span * steady) as usize);
                }
                tape
            })
            .collect();
        for (i, (_, e)) in graph.edges().enumerate() {
            let Some(r) = e.reorder else { continue };
            // Fissioned nodes reject reorder on their edges (see
            // `Placement::validate`), so plain assignment lookups suffice.
            let (src_core, dst_core) = (assignment[e.src.0 as usize], assignment[e.dst.0 as usize]);
            match r.side {
                // Consumer-side remap lives on the consuming core's half.
                macross_streamir::graph::ReorderSide::Consumer if dst_core == core => {
                    tapes[i].set_read_reorder(r.rate, r.sw);
                }
                // Producer-side staging lives on the producing core's half.
                macross_streamir::graph::ReorderSide::Producer if src_core == core => {
                    tapes[i].set_write_reorder(r.rate, r.sw);
                }
                _ => {}
            }
        }
        let states: Vec<FilterState> = graph
            .nodes()
            .map(|(id, node)| match node {
                Node::Filter(f) if on_core(id) => {
                    let in_elem = graph.single_in_edge(id).map(|e| graph.edge(e).elem);
                    let out_elem = graph.single_out_edge(id).map(|e| graph.edge(e).elem);
                    FilterState::prepared(f, machine, in_elem, out_elem, opts.mode)
                }
                _ => FilterState::default(),
            })
            .collect();
        let mut plans = Vec::new();
        for &id in &schedule.order {
            // stride/offset: replica r of a k-way fission fires global
            // steady firings r, r+k, r+2k, …
            let (stride, offset) = match placement.fission_of(id) {
                Some(spec) => match spec.replicas.iter().position(|&c| c == core) {
                    Some(r) => (spec.replicas.len() as u64, r as u64),
                    None => continue,
                },
                None => {
                    if assignment[id.0 as usize] != core {
                        continue;
                    }
                    (1, 0)
                }
            };
            let node = graph.node(id);
            let mut pulls = Vec::new();
            let mut local_ins = Vec::new();
            for eid in graph.in_edges(id) {
                let e = graph.edge(eid);
                let pop = node.pop_rate(e.dst_port);
                let need = match node {
                    Node::Filter(f) => f.pop.max(f.peek),
                    _ => pop,
                };
                let block = e
                    .reorder
                    .filter(|r| r.side == macross_streamir::graph::ReorderSide::Consumer)
                    .map(|r| r.block())
                    .unwrap_or(1);
                match &rings[eid.0 as usize] {
                    EdgeRings::Single(ring) => {
                        ring.register_consumer();
                        pulls.push(Pull::single(
                            eid.0 as usize,
                            Arc::clone(ring),
                            need,
                            pop,
                            block,
                        ));
                    }
                    EdgeRings::Fission(rs) if stride > 1 => {
                        // This node is the fissioned consumer: replica r
                        // reads only its own deal ring.
                        let ring = &rs[offset as usize];
                        ring.register_consumer();
                        pulls.push(Pull::single(
                            eid.0 as usize,
                            Arc::clone(ring),
                            need,
                            pop,
                            block,
                        ));
                    }
                    EdgeRings::Fission(rs) => {
                        // Merge point: the producer is fissioned, replica
                        // streams interleave in push-rate blocks.
                        for ring in rs {
                            ring.register_consumer();
                        }
                        let ring_block = graph.node(e.src).push_rate(e.src_port);
                        pulls.push(Pull {
                            edge: eid.0 as usize,
                            rings: rs.iter().map(Arc::clone).collect(),
                            ring_block,
                            taken: 0,
                            need,
                            pop,
                            block,
                            consumed: 0,
                        });
                    }
                    EdgeRings::Local => local_ins.push(LocalIn {
                        edge: eid.0 as usize,
                        need,
                        block,
                    }),
                }
            }
            let mut pushes = Vec::new();
            for eid in graph.out_edges(id) {
                let e = graph.edge(eid);
                match &rings[eid.0 as usize] {
                    EdgeRings::Local => {}
                    EdgeRings::Single(ring) => {
                        ring.register_producer();
                        pushes.push(Push::single(eid.0 as usize, Arc::clone(ring)));
                    }
                    EdgeRings::Fission(rs) if stride > 1 => {
                        // Fissioned producer: replica r writes only its
                        // own merge ring.
                        let ring = &rs[offset as usize];
                        ring.register_producer();
                        pushes.push(Push::single(eid.0 as usize, Arc::clone(ring)));
                    }
                    EdgeRings::Fission(rs) => {
                        // Deal point: the consumer is fissioned, tokens
                        // rotate across replicas in pop-rate blocks.
                        for ring in rs {
                            ring.register_producer();
                        }
                        let ring_block = graph.node(e.dst).pop_rate(e.dst_port);
                        pushes.push(Push {
                            edge: eid.0 as usize,
                            rings: rs.iter().map(Arc::clone).collect(),
                            ring_block,
                            shipped: 0,
                        });
                    }
                }
            }
            let reps = schedule.reps[id.0 as usize];
            let init_reps = schedule.init_reps[id.0 as usize];
            // Replicas start their firing clock at their offset and own
            // every stride-th firing; init firings exist only for whole
            // nodes (validate rejects fission with init_reps > 0).
            let (attempts, scheduled) = if stride > 1 {
                (
                    offset,
                    (iters * reps).saturating_sub(offset).div_ceil(stride),
                )
            } else {
                (0, init_reps + iters * reps)
            };
            plans.push(NodePlan {
                id,
                adj: FirePlan::compute(graph, id, machine),
                reps,
                init_reps,
                pulls,
                pushes,
                local_ins,
                attempts,
                completed: 0,
                scheduled,
                stride,
                lag: lags[id.0 as usize],
            });
        }
        let mut outputs = vec![Vec::new(); graph.node_count()];
        for plan in &plans {
            if matches!(graph.node(plan.id), Node::Sink) {
                outputs[plan.id.0 as usize].reserve(plan.scheduled as usize);
            }
        }
        Worker {
            graph,
            machine,
            tapes,
            states,
            plans,
            stages,
            counters: CycleCounters::default(),
            outputs,
            marks: Vec::new(),
            saved: FilterState::default(),
            trace,
            core,
            opts,
            sup,
            slot,
        }
    }

    /// Run this core: filter init functions, the init schedule, the start
    /// gate, then `iters` timed steady iterations in blocks of
    /// [`ITER_BLOCK`], each node `lag` blocks behind the sources. Always
    /// returns (the possibly partial) output — failures travel through
    /// the supervisor.
    pub(crate) fn run(mut self, iters: u64, gate: &StartGate) -> WorkerOut {
        for p in 0..self.plans.len() {
            let id = self.plans[p].id;
            if self.plans[p].stride > 1 {
                self.trace
                    .record(EventKind::FissionReplica, id.0, self.plans[p].stride);
            }
            if let Node::Filter(f) = self.graph.node(id) {
                if let Err(e) = self.states[id.0 as usize].run_init_fn(f, self.machine) {
                    self.fail(id.0 as usize, 0, FailureCause::Vm(e));
                    return self.into_out(0);
                }
            }
        }
        // Init schedule (primes peek slack), in global-order restriction:
        // a plan's init firings are its share of block 0.
        for p in 0..self.plans.len() {
            if self.run_share(p, 0).is_err() {
                self.drain();
                return self.into_out(0);
            }
        }
        // Don't let fast cores start the clock while others still prime.
        if gate.wait(self.sup.interrupt_flag()).is_err() {
            self.drain();
            return self.into_out(0);
        }
        self.counters = CycleCounters::default();
        let t0 = Instant::now();
        let mut stopped = false;
        // Node-major over blocks of `ITER_BLOCK` iterations, skewed: at
        // step `s` each plan fires its whole share of block `s - lag`
        // before the next plan starts. A node on this core that consumes
        // what another core produced works on the block that core
        // finished a step earlier, so a dependency that leaves this core
        // and comes back — source here, filter there, sink here — is not
        // waited for at all once the pipeline is full, instead of once
        // per block. A block is the steady schedule with every repetition
        // count scaled, and a node's blocks still come in order, so firing
        // order per node, deal/merge rotation and fault addresses are
        // those of the iteration-major loop.
        let nblocks = iters.div_ceil(ITER_BLOCK);
        let max_lag = self.plans.iter().map(|p| p.lag).max().unwrap_or(0);
        'steady: for step in 0..nblocks + max_lag {
            for p in 0..self.plans.len() {
                let Some(b) = step.checked_sub(self.plans[p].lag) else {
                    continue;
                };
                // Past its last block, `run_share` finds the share done.
                let t = ((b + 1) * ITER_BLOCK).min(iters);
                if self.run_share(p, t).is_err() {
                    stopped = true;
                    break 'steady;
                }
            }
        }
        let steady_nanos = t0.elapsed().as_nanos() as u64;
        if stopped || self.sup.draining() {
            self.drain();
        }
        self.into_out(steady_nanos)
    }

    fn into_out(self, steady_nanos: u64) -> WorkerOut {
        let captured = self.outputs.into_iter().enumerate();
        WorkerOut {
            sink_outputs: captured.filter(|(_, vals)| !vals.is_empty()).collect(),
            steady_nanos,
            modelled: self.counters,
        }
    }

    /// Record a failure of `stage` at `firing` and raise the interrupt.
    fn fail(&mut self, stage: usize, firing: u64, cause: FailureCause) {
        self.trace
            .record(EventKind::StageFailed, stage as u32, firing);
        self.sup.raise(StageFailure {
            stage,
            name: stage_name(self.graph.node(NodeId(stage as u32))),
            core: self.core,
            firing,
            mode: self.opts.mode,
            cause,
        });
    }

    /// Sleep `nanos` in supervisor-aware slices, so an injected stall (or
    /// push delay) can outlive a watchdog timeout without outliving the
    /// run. Returns `Err(Stop)` if the run started draining meanwhile.
    fn cooperative_stall(&self, nanos: u64) -> Result<(), Stop> {
        let until = clock::now_ns() + nanos;
        while clock::now_ns() < until {
            if self.sup.draining() {
                return Err(Stop);
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        Ok(())
    }

    /// Record the write mark of every out-edge tape of plan `p`, for
    /// [`Worker::rollback_outputs`].
    fn mark_outputs(&mut self, p: usize) {
        let outs = self.plans[p].adj.out_tapes().iter().copied();
        take_marks(&mut self.marks, &self.tapes, outs);
    }

    /// Undo the writes of a firing that failed or was condemned: every
    /// out-edge tape half of plan `p` goes back to its mark, so a torn
    /// write prefix is gone while everything earlier firings committed
    /// stays deliverable — under the blocked loop a downstream stage may
    /// not have consumed any of it yet. (Cut-edge rings only ever receive
    /// post-firing flushes, so they hold no torn data.)
    fn rollback_outputs(&mut self, p: usize) {
        let outs = self.plans[p].adj.out_tapes().iter().copied();
        restore_marks(&mut self.tapes, outs, &self.marks);
    }

    /// One firing of plan `p` in an envelope of its own: pull cut-edge
    /// inputs, fire (inside `catch_unwind`, under a heartbeat, with any
    /// planned fault applied), flush cut-edge outputs. The path of
    /// everything addressed to a single firing — a planned fault, a
    /// watchdog timeout, a trace span, the replay that finds which firing
    /// of a share failed.
    fn fire_plan(&mut self, p: usize) -> Result<(), Stop> {
        if self.sup.draining() {
            return Err(Stop);
        }
        let id = self.plans[p].id;
        let stage = id.0 as usize;
        let firing = self.plans[p].attempts;
        self.plans[p].attempts += self.plans[p].stride;
        let fault = self.opts.plan.fault_for(stage, firing);
        let mut delay_push = 0u64;
        if let Some(kind) = fault {
            self.trace.record(EventKind::FaultInjected, id.0, firing);
            match kind {
                FaultKind::PoisonTape => {
                    // Poison the stage's input half (or output half for
                    // sources); the firing below then refuses to run.
                    let adj = &self.plans[p].adj;
                    if let Some(e) = adj.in_edge().or(adj.out_edge()) {
                        self.tapes[e].poison();
                    }
                }
                FaultKind::DelayPush { nanos } => delay_push = nanos,
                FaultKind::DropUnpark { count } => {
                    for push in &self.plans[p].pushes {
                        for ring in &push.rings {
                            ring.arm_unpark_drops(count as u64);
                        }
                    }
                    for pull in &self.plans[p].pulls {
                        for ring in &pull.rings {
                            ring.arm_unpark_drops(count as u64);
                        }
                    }
                }
                FaultKind::Panic | FaultKind::StallFiring { .. } => {}
            }
        }
        // Input waits stay OUTSIDE the heartbeat window: a stage blocked
        // on an empty ring is waiting, not executing, and must not be
        // condemned by the watchdog (blocked waits are interruptible
        // through the abort flag instead). The heartbeat covers only the
        // firing itself.
        self.ensure_inputs(p)?;
        let hb = self.sup.heartbeat(self.slot);
        hb.begin(stage, firing);
        if let Some(FaultKind::StallFiring { nanos }) = fault {
            // Under the heartbeat: a stall longer than the watchdog
            // timeout is escalated; a shorter one is pure latency.
            if self.cooperative_stall(nanos).is_err() {
                hb.end();
                return Err(Stop);
            }
        }
        self.mark_outputs(p);
        self.trace.record(EventKind::FiringStart, id.0, 0);
        let before = self.counters.total();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, Some(FaultKind::Panic)) {
                panic!("injected fault: panic at stage {stage} firing {firing}");
            }
            self.fire(p, 1)
        }));
        self.trace
            .record(EventKind::FiringEnd, id.0, self.counters.total() - before);
        hb.end();
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                self.rollback_outputs(p);
                self.fail(stage, firing, FailureCause::Vm(e));
                return Err(Stop);
            }
            Err(payload) => {
                self.rollback_outputs(p);
                let msg = firing::panic_message(payload.as_ref());
                self.fail(stage, firing, FailureCause::Panic(msg));
                return Err(Stop);
            }
        }
        // The watchdog may have condemned this very firing while it ran
        // (stall injection, genuinely slow stage). Its output must not be
        // committed then: the failure report says the firing never
        // finished cleanly.
        if self.sup.draining() && self.sup.failed_stages().contains(&stage) {
            self.trace.record(EventKind::WatchdogFire, id.0, firing);
            self.rollback_outputs(p);
            return Err(Stop);
        }
        self.commit(p, 1);
        if delay_push > 0 && self.cooperative_stall(delay_push).is_err() {
            // Another stage failed during the injected delay; the drain
            // below flushes this firing's committed output.
            return Err(Stop);
        }
        if self.flush_outputs(p).is_err() {
            return Err(Stop);
        }
        Ok(())
    }

    /// Plan `p`'s share of a block: fire it up to the end of steady
    /// iteration `t` (`t = 0`: its init firings) — for a replica, its
    /// stride of the global firings up to there. One envelope takes as
    /// much of the share as the inputs on this core cover and no planned
    /// fault addresses; a firing someone wants to see alone — the fault
    /// plan, a watchdog (timeouts are per firing), a live trace handle
    /// (spans are) — goes through [`Worker::fire_plan`].
    fn run_share(&mut self, p: usize, t: u64) -> Result<(), Stop> {
        let single = self.opts.wants_watchdog() || self.trace.active();
        loop {
            let plan = &self.plans[p];
            let end = plan.init_reps + t * plan.reps;
            if plan.attempts >= end {
                return Ok(());
            }
            let left = (end - plan.attempts).div_ceil(plan.stride);
            // Firings before the next one that must fire alone.
            let clean = if single {
                0
            } else {
                let faults = &self.opts.plan;
                faults
                    .first_fault(plan.id.0 as usize, plan.attempts, plan.stride, left)
                    .unwrap_or(left)
            };
            if clean == 0 {
                self.fire_plan(p)?;
            } else {
                self.fire_many(p, clean)?;
            }
        }
    }

    /// Top the cut in-edge tapes of plan `p` up, without blocking, with
    /// what their rings hold of the next `max` firings' input, and return
    /// how many firings the tapes then cover — at least the one
    /// [`Worker::ensure_inputs`] has waited for. Same-core inputs need no
    /// look: their producers, at the same lag or a smaller one, fired
    /// their share of the block already, at this step or an earlier one.
    fn top_up(&mut self, p: usize, max: u64) -> u64 {
        let plan = &mut self.plans[p];
        let stage = plan.id.0 as usize;
        let mut k = max;
        for pull in &mut plan.pulls {
            let tape = &mut self.tapes[pull.edge];
            let pos = pull.consumed % pull.block;
            // Physical tokens k successive firings address: the last
            // starts at block position pos + (k-1)*pop and reaches `need`
            // further, rounded up to whole reorder blocks.
            let target = pos + (k as usize - 1) * pull.pop + pull.need;
            let target = target.next_multiple_of(pull.block);
            if tape.len() < target {
                let got = pull.pop_rotating(tape, target - tape.len());
                if got > 0 {
                    self.stages[stage]
                        .ring_in
                        .fetch_add(got as u64, Ordering::Relaxed);
                }
            }
            let whole_blocks = tape.len() / pull.block * pull.block;
            if let Some(more) = (whole_blocks - pos - pull.need).checked_div(pull.pop) {
                k = k.min(more as u64 + 1);
            }
        }
        k
    }

    /// Fire plan `p` up to `max` times in one envelope: one wait for
    /// input, one heartbeat window, one snapshot, one `catch_unwind`
    /// around one `fire_block`, one output flush. Cycle accounting stays
    /// per firing (`fire_block` charges each), and so does failure
    /// attribution: a run that fails is undone — tapes, filter state,
    /// modelled counters, sink output; the cursors have not moved yet —
    /// and replayed through [`Worker::fire_plan`], so the deterministic
    /// failure recurs at its exact firing with that path's own output
    /// rollback and `StageFailure`. Ring statistics are not undone: the
    /// replay finds its tokens on this core and pulls none again.
    fn fire_many(&mut self, p: usize, max: u64) -> Result<(), Stop> {
        if self.sup.draining() {
            return Err(Stop);
        }
        // Outside the heartbeat, like every input wait (see `fire_plan`).
        self.ensure_inputs(p)?;
        let k = self.top_up(p, max);
        let stage = self.plans[p].id.0 as usize;
        // Marks undo a node's pops and pushes alike; the top-up is not
        // undone, and precedes them. A native node's state is empty.
        take_marks(&mut self.marks, &self.tapes, self.plans[p].adj.tapes());
        self.states[stage].save_to(&mut self.saved);
        let counters = self.counters;
        let sunk = self.outputs[stage].len();

        let hb = self.sup.heartbeat(self.slot);
        hb.begin(stage, self.plans[p].attempts);
        let result = catch_unwind(AssertUnwindSafe(|| self.fire(p, k)));
        hb.end();
        if !matches!(result, Ok(Ok(()))) {
            restore_marks(&mut self.tapes, self.plans[p].adj.tapes(), &self.marks);
            self.states[stage].restore_from(&self.saved);
            self.counters = counters;
            self.outputs[stage].truncate(sunk);
            return (0..k).try_for_each(|_| self.fire_plan(p));
        }
        self.plans[p].attempts += k * self.plans[p].stride;
        self.commit(p, k);
        self.stages[stage]
            .batched_firings
            .fetch_add(k, Ordering::Relaxed);
        self.flush_outputs(p)
    }

    /// Count `k` firings of plan `p` completed: their output stands and
    /// their input is consumed.
    fn commit(&mut self, p: usize, k: u64) {
        let plan = &mut self.plans[p];
        plan.completed += k;
        for pull in &mut plan.pulls {
            pull.consumed += k as usize * pull.pop;
        }
        self.stages[plan.id.0 as usize]
            .firings
            .fetch_add(k, Ordering::Relaxed);
    }

    /// Pull from each cut in-edge until the local tape half holds every
    /// physical token the next firing can address.
    fn ensure_inputs(&mut self, p: usize) -> Result<(), Stop> {
        let abort = self.sup.interrupt_flag();
        let plan = &mut self.plans[p];
        let node_idx = plan.id.0 as usize;
        for pull in &mut plan.pulls {
            let needed_phys = pull.needed_phys();
            let tape = &mut self.tapes[pull.edge];
            let mut got = 0u64;
            // One stall interval per insufficient-input episode: opened
            // on the first park, closed when the input is satisfied (or
            // re-keyed when the merge rotation moves to another ring).
            // Spurious unparks and partial arrivals re-enter the wait
            // without opening a second interval, so `empty_stalls` counts
            // episodes and `empty_stall_nanos` stays monotonic per
            // episode.
            let mut stall: Option<(usize, Instant)> = None;
            while tape.len() < needed_phys {
                let missing = needed_phys - tape.len();
                got += pull.pop_rotating(tape, missing) as u64;
                if tape.len() >= needed_phys {
                    break;
                }
                let cur = pull.cur();
                match stall {
                    Some((i, _)) if i == cur => {}
                    Some((i, t0)) => {
                        pull.rings[i].end_empty_stall(t0, &self.trace);
                        stall = Some((cur, pull.rings[cur].begin_empty_stall(&self.trace)));
                    }
                    None => {
                        stall = Some((cur, pull.rings[cur].begin_empty_stall(&self.trace)));
                    }
                }
                if pull.rings[cur]
                    .wait_nonempty_quiet(abort, &self.trace)
                    .is_err()
                {
                    if let Some((i, t0)) = stall {
                        pull.rings[i].end_empty_stall(t0, &self.trace);
                    }
                    return Err(Stop);
                }
            }
            if let Some((i, t0)) = stall {
                pull.rings[i].end_empty_stall(t0, &self.trace);
            }
            if got > 0 {
                self.stages[node_idx]
                    .ring_in
                    .fetch_add(got, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Drain every committed element of each cut out-edge's local tape
    /// half into its ring, in physical order.
    fn flush_outputs(&mut self, p: usize) -> Result<(), Stop> {
        let abort = self.sup.interrupt_flag();
        let plan = &mut self.plans[p];
        let node_idx = plan.id.0 as usize;
        for push in &mut plan.pushes {
            let tape = &mut self.tapes[push.edge];
            let n = tape.len();
            if n == 0 {
                continue;
            }
            let (a, b) = tape.vpop_slices(n);
            for span in [a, b] {
                let sent = push.ship(span, |ring, chunk| {
                    match ring.push_batch_traced(chunk, abort, &self.trace) {
                        Ok(()) => chunk.len(),
                        Err(_) => 0,
                    }
                });
                if sent < span.len() {
                    return Err(Stop);
                }
            }
            self.stages[node_idx]
                .ring_out
                .fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Coordinated drain after a failure, the "degrade gracefully" half
    /// of the supervision protocol:
    ///
    /// - stages with a path to any failed stage (including the failed
    ///   stages themselves) stop — anything they produced would never be
    ///   consumed past the failure point;
    /// - every other local stage keeps firing as long as its inputs are
    ///   already available (non-blocking ring pops, no waits), bounded by
    ///   the firing count a full run would have executed;
    /// - cut-edge flushes become non-blocking and keep the unflushed tail
    ///   buffered locally, so no committed token is dropped while a full
    ///   ring empties;
    /// - the pass loop ends after two consecutive passes without
    ///   progress (the second separated by a short sleep so in-flight
    ///   tokens from other cores can land).
    ///
    /// Termination is structural: every pass either completes a firing
    /// (bounded by the schedule) or burns one of the two idle passes.
    fn drain(&mut self) {
        let failed = self.sup.failed_stages();
        self.trace.record(
            EventKind::DrainBegin,
            failed.first().map(|&s| s as u32).unwrap_or(0),
            0,
        );
        let excluded = self.upstream_of(&failed);
        let mut dead = vec![false; self.graph.node_count()];
        let mut idle_passes = 0;
        while idle_passes < 2 {
            let mut fired = false;
            for p in 0..self.plans.len() {
                let stage = self.plans[p].id.0 as usize;
                if excluded[stage] || dead[stage] {
                    continue;
                }
                // Committed output first: even if the stage never fires
                // again, what it already produced must reach its ring.
                self.flush_avail(p);
                while self.plans[p].completed < self.plans[p].scheduled
                    && self.drain_inputs_ready(p)
                {
                    if self.drain_fire(p, &mut dead) {
                        fired = true;
                    } else {
                        break;
                    }
                }
            }
            if fired {
                idle_passes = 0;
            } else {
                idle_passes += 1;
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }

    /// `excluded[n]` = node `n` can reach a failed stage (or is one):
    /// its remaining output is undeliverable, so it parks instead of
    /// firing into a dead subgraph.
    fn upstream_of(&self, failed: &[usize]) -> Vec<bool> {
        let mut marked = vec![false; self.graph.node_count()];
        for &f in failed {
            if f < marked.len() {
                marked[f] = true;
            }
        }
        loop {
            let mut changed = false;
            for (_, e) in self.graph.edges() {
                if marked[e.dst.0 as usize] && !marked[e.src.0 as usize] {
                    marked[e.src.0 as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                return marked;
            }
        }
    }

    /// True when every in-edge of plan `p` already holds enough tokens
    /// for one firing (after topping up cut edges non-blocking) and none
    /// of them is poisoned.
    fn drain_inputs_ready(&mut self, p: usize) -> bool {
        let node_idx = self.plans[p].id.0 as usize;
        let plan = &mut self.plans[p];
        for pull in &mut plan.pulls {
            let needed_phys = pull.needed_phys();
            let tape = &mut self.tapes[pull.edge];
            if tape.is_poisoned() {
                return false;
            }
            if tape.len() < needed_phys {
                let missing = needed_phys - tape.len();
                let got = pull.pop_rotating(tape, missing);
                if got > 0 {
                    self.stages[node_idx]
                        .ring_in
                        .fetch_add(got as u64, Ordering::Relaxed);
                }
                if tape.len() < needed_phys {
                    return false;
                }
            }
        }
        for li in &plan.local_ins {
            let tape = &self.tapes[li.edge];
            if tape.is_poisoned() {
                return false;
            }
            // No block cursor for local tapes: require a worst-case
            // block-aligned window (conservative by < one block).
            let required = if li.block > 1 {
                li.need + li.block - 1
            } else {
                li.need
            };
            if tape.len() < required {
                return false;
            }
        }
        true
    }

    /// Fire plan `p` once during the drain. Returns false (and marks the
    /// stage dead) if the firing failed — a second failure during the
    /// drain is recorded like the first, but must not loop forever.
    fn drain_fire(&mut self, p: usize, dead: &mut [bool]) -> bool {
        let id = self.plans[p].id;
        let stage = id.0 as usize;
        let firing = self.plans[p].attempts;
        self.plans[p].attempts += self.plans[p].stride;
        self.mark_outputs(p);
        self.trace.record(EventKind::FiringStart, id.0, 0);
        let before = self.counters.total();
        let result = catch_unwind(AssertUnwindSafe(|| self.fire(p, 1)));
        self.trace
            .record(EventKind::FiringEnd, id.0, self.counters.total() - before);
        let cause = match result {
            Ok(Ok(())) => {
                self.commit(p, 1);
                self.flush_avail(p);
                return true;
            }
            Ok(Err(e)) => FailureCause::Vm(e),
            Err(payload) => FailureCause::Panic(firing::panic_message(payload.as_ref())),
        };
        self.rollback_outputs(p);
        self.fail(stage, firing, cause);
        dead[stage] = true;
        false
    }

    /// Non-blocking cut-edge flush: push what fits, keep the tail local
    /// (in order) for the next pass.
    fn flush_avail(&mut self, p: usize) {
        let plan = &mut self.plans[p];
        let node_idx = plan.id.0 as usize;
        for push in &mut plan.pushes {
            let tape = &mut self.tapes[push.edge];
            let n = tape.len();
            if n == 0 {
                continue;
            }
            // Stop at the first ring that refuses tokens: what it did
            // not take stays on the tape, in order.
            let (a, b) = tape.vpeek_slices(0, n);
            let mut off = push.ship(a, |ring, chunk| ring.push_avail(chunk));
            if off == a.len() {
                off += push.ship(b, |ring, chunk| ring.push_avail(chunk));
            }
            tape.advance_read(off);
            if off > 0 {
                self.stages[node_idx]
                    .ring_out
                    .fetch_add(off as u64, Ordering::Relaxed);
            }
        }
    }

    /// Fire plan `p`'s node `k` times against the local tapes through the
    /// shared firing path, a sink's values landing in this core's outputs.
    /// Which firing failed is found by replay, not by count.
    fn fire(&mut self, p: usize, k: u64) -> Result<(), macross_vm::VmError> {
        let plan = &self.plans[p];
        let idx = plan.id.0 as usize;
        firing::fire_block(
            &plan.adj,
            self.graph.node(plan.id),
            &mut self.states[idx],
            &mut self.tapes,
            self.machine,
            &mut self.counters,
            k,
            &mut self.outputs[idx],
            &mut 0,
        )
    }
}
