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
//! A worker is the share runner ([`crate::runner`]) over its core's plans
//! plus what only a thread among threads needs: the rings, the non-blocking
//! top-up that sizes a share to the input at hand, the heartbeat the
//! watchdog samples, the ring faults (`DelayPush`, `DropUnpark`) and the
//! cooperative stall. A failure becomes a typed [`StageFailure`] raised
//! through the [`Supervisor`], and on the first one the run switches to a
//! coordinated drain (see [`Worker::drain`]).

use crate::fault::FaultKind;
use crate::ring::Ring;
use crate::runner::{mark_reachable, Failed, Runner, Unit};
use crate::supervisor::{Supervisor, SupervisorOptions};
use crate::{EdgeRings, Placement, Stage, StartGate, Wiring, ITER_BLOCK};
use macross_sdf::Schedule;
use macross_streamir::graph::{EdgeId, Graph, Node, NodeId, ReorderSide};
use macross_streamir::types::Value;
use macross_telemetry::{clock, EventKind, WorkerTrace};
use macross_vm::firing::{FilterState, FirePlan};
use macross_vm::machine::{CycleCounters, Machine};
use macross_vm::tape::Tape;
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

/// Which of `rings` rings holds stream token `at` when they take turns in
/// blocks of `block` tokens.
fn rotation(at: usize, block: usize, rings: usize) -> usize {
    if rings == 1 {
        0
    } else {
        (at / block) % rings
    }
}

impl Pull {
    /// Index of the ring holding the next token in stream order.
    fn cur(&self) -> usize {
        rotation(self.taken, self.ring_block, self.rings.len())
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

    /// Pull into `tape`, without blocking, what it still lacks of the next
    /// `k ≥ 1` firings' input. Returns how many of them it then covers
    /// (0 to `k`) and how many tokens moved.
    fn fill(&mut self, tape: &mut Tape, k: u64) -> (u64, usize) {
        let pos = self.consumed % self.block;
        // The last of `k` firings starts at block position
        // `pos + (k-1)·pop` and reaches `need` further, rounded up to
        // whole reorder blocks.
        let target = (pos + (k as usize - 1) * self.pop + self.need).next_multiple_of(self.block);
        let got = match target.saturating_sub(tape.len()) {
            0 => 0,
            missing => self.pop_rotating(tape, missing),
        };
        let whole_blocks = tape.len() / self.block * self.block;
        let covered = match whole_blocks.checked_sub(pos + self.need) {
            None => 0,
            Some(spare) => spare
                .checked_div(self.pop)
                .map_or(k, |more| k.min(more as u64 + 1)),
        };
        (covered, got)
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
    /// Ship `vals` in stream order: one chunk for a single ring; at a
    /// deal point, rotate replicas at pop-rate block boundaries so
    /// replica r receives exactly the tokens of its own global firings.
    /// `send` returns how many tokens of a chunk the ring took; the first
    /// short answer stops the shipment with the cursor exactly at the
    /// next undelivered token. Returns how many tokens went out.
    fn ship(&mut self, vals: &[u64], mut send: impl FnMut(&Ring, &[u64]) -> usize) -> usize {
        let mut off = 0;
        while off < vals.len() {
            let mut take = vals.len() - off;
            if self.rings.len() > 1 {
                take = take.min(self.ring_block - self.shipped % self.ring_block);
            }
            let cur = rotation(self.shipped, self.ring_block, self.rings.len());
            let sent = send(&self.rings[cur], &vals[off..off + take]);
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

/// Per-node firing plan for one core; the node itself, its tapes and its
/// firing cursor are the runner's unit of the same index.
struct NodePlan {
    reps: u64,
    init_reps: u64,
    pulls: Vec<Pull>,
    pushes: Vec<Push>,
    local_ins: Vec<LocalIn>,
    /// Firings completed (output committed).
    completed: u64,
    /// Total firings a full run would execute; the drain never exceeds it
    /// (keeps branch sources from running away from a failed sibling).
    scheduled: u64,
    /// Steps the node runs behind the sources ([`crate::stage_lags`]):
    /// it fires steady block `b` at step `b + lag`.
    lag: u64,
}

pub(crate) struct Worker<'g> {
    graph: &'g Graph,
    machine: &'g Machine,
    /// This core's share runner: unit `p` is plan `p`.
    run: Runner,
    plans: Vec<NodePlan>,
    stages: Arc<Vec<Stage>>,
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
        let (assignment, lags) = (&placement.assignment, &wiring.lags);
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
        let tapes: Vec<Tape> = graph
            .edges()
            .zip(&wiring.reqs)
            .zip(&wiring.rings)
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
                // A consumer-side remap lives on the consuming core's half,
                // producer-side staging on the producing core's. Fissioned
                // nodes reject reorder on their edges (see
                // `Placement::validate`), so plain assignment lookups do.
                let (src, dst) = (assignment[e.src.0 as usize], assignment[e.dst.0 as usize]);
                match e.reorder {
                    Some(r) if r.side == ReorderSide::Consumer && dst == core => {
                        tape.set_read_reorder(r.rate, r.sw)
                    }
                    Some(r) if r.side == ReorderSide::Producer && src == core => {
                        tape.set_write_reorder(r.rate, r.sw)
                    }
                    _ => {}
                }
                tape
            })
            .collect();
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
        let (mut units, mut plans) = (Vec::new(), Vec::new());
        for &id in &schedule.order {
            // stride/offset: replica r of a k-way fission fires global
            // steady firings r, r+k, r+2k, …
            let (stride, offset) = match placement.fission_of(id) {
                Some(spec) => match spec.replicas.iter().position(|&c| c == core) {
                    Some(r) => (spec.replicas.len() as u64, r as u64),
                    None => continue,
                },
                None if assignment[id.0 as usize] == core => (1, 0),
                None => continue,
            };
            // The rings of cut edge `eid` on this core: a replica's own,
            // or one per replica of the fissioned node at the other end,
            // rotated in blocks of `rate` tokens (that node's per-firing
            // rate) so the replica streams deal and merge exactly.
            let ring_set = |eid: EdgeId, rate: usize| match &wiring.rings[eid.0 as usize] {
                EdgeRings::Local => None,
                EdgeRings::Single(ring) => Some((vec![Arc::clone(ring)], 0)),
                EdgeRings::Fission(rs) if stride > 1 => {
                    Some((vec![Arc::clone(&rs[offset as usize])], 0))
                }
                EdgeRings::Fission(rs) => Some((rs.clone(), rate)),
            };
            let node = graph.node(id);
            let (mut pulls, mut local_ins) = (Vec::new(), Vec::new());
            for eid in graph.in_edges(id) {
                let e = graph.edge(eid);
                let pop = node.pop_rate(e.dst_port);
                let need = match node {
                    Node::Filter(f) => f.pop.max(f.peek),
                    _ => pop,
                };
                let block = e
                    .reorder
                    .filter(|r| r.side == ReorderSide::Consumer)
                    .map_or(1, |r| r.block());
                let edge = eid.0 as usize;
                let Some((rings, ring_block)) =
                    ring_set(eid, graph.node(e.src).push_rate(e.src_port))
                else {
                    local_ins.push(LocalIn { edge, need, block });
                    continue;
                };
                rings.iter().for_each(|ring| ring.register_consumer());
                pulls.push(Pull {
                    edge,
                    rings,
                    ring_block,
                    taken: 0,
                    need,
                    pop,
                    block,
                    consumed: 0,
                });
            }
            let mut pushes = Vec::new();
            for eid in graph.out_edges(id) {
                let e = graph.edge(eid);
                let Some((rings, ring_block)) =
                    ring_set(eid, graph.node(e.dst).pop_rate(e.dst_port))
                else {
                    continue;
                };
                rings.iter().for_each(|ring| ring.register_producer());
                pushes.push(Push {
                    edge: eid.0 as usize,
                    rings,
                    ring_block,
                    shipped: 0,
                });
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
            units.push(Unit {
                id,
                adj: FirePlan::compute(graph, id, machine),
                attempts,
                stride,
            });
            plans.push(NodePlan {
                reps,
                init_reps,
                pulls,
                pushes,
                local_ins,
                completed: 0,
                scheduled,
                lag: lags[id.0 as usize],
            });
        }
        let faults = opts.plan.clone();
        let mut run = Runner::new(units, tapes, states, faults, trace, core, opts.mode);
        for (unit, plan) in run.units.iter().zip(&plans) {
            if matches!(graph.node(unit.id), Node::Sink) {
                run.outputs[unit.id.0 as usize].reserve(plan.scheduled as usize);
            }
        }
        Worker {
            graph,
            machine,
            run,
            plans,
            stages,
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
        for unit in self.run.units.iter().filter(|u| u.stride > 1) {
            self.run
                .trace
                .record(EventKind::FissionReplica, unit.id.0, unit.stride);
        }
        if let Err(failure) = self.run.run_init_fns(self.graph, self.machine) {
            self.sup.raise(failure);
            return self.into_out(0);
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
        self.run.counters = CycleCounters::default();
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
        let captured = self.run.outputs.into_iter().enumerate();
        WorkerOut {
            sink_outputs: captured.filter(|(_, vals)| !vals.is_empty()).collect(),
            steady_nanos,
            modelled: self.run.counters,
        }
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

    /// Plan `p`'s share of a block: fire it up to the end of steady
    /// iteration `t` (`t = 0`: its init firings) — for a replica, its
    /// stride of the global firings up to there — in as few envelopes as
    /// the runner's fault cut and the input on this core allow. A watchdog
    /// (its timeout is per firing) and a live trace handle (its spans
    /// are) see each firing in an envelope of its own.
    fn run_share(&mut self, p: usize, t: u64) -> Result<(), Stop> {
        let alone = self.opts.wants_watchdog() || self.run.trace.active();
        loop {
            let (plan, unit) = (&self.plans[p], &self.run.units[p]);
            let end = plan.init_reps + t * plan.reps;
            if unit.attempts >= end {
                return Ok(());
            }
            if self.sup.draining() {
                return Err(Stop);
            }
            let left = (end - unit.attempts).div_ceil(unit.stride);
            let (k, fault) = self.run.cut(p, if alone { 1 } else { left });
            self.fire_share(p, k, fault, !alone && fault.is_none())?;
        }
    }

    /// Fire up to `k` firings of plan `p` in one envelope: one wait for
    /// input and a non-blocking top-up, one heartbeat window around the
    /// runner's guarded block, one commit and one output flush. `fault`
    /// is the runner's cut; the ring faults and the stall are applied
    /// here. `batched` counts the firings as fired in a share.
    fn fire_share(
        &mut self,
        p: usize,
        k: u64,
        fault: Option<FaultKind>,
        batched: bool,
    ) -> Result<(), Stop> {
        if let Some(FaultKind::DropUnpark { count }) = fault {
            let plan = &self.plans[p];
            let pulls = plan.pulls.iter().flat_map(|pull| &pull.rings);
            for ring in plan.pushes.iter().flat_map(|push| &push.rings).chain(pulls) {
                ring.arm_unpark_drops(count as u64);
            }
        }
        // Input waits stay OUTSIDE the heartbeat window: a stage blocked
        // on an empty ring is waiting, not executing, and must not be
        // condemned by the watchdog (blocked waits are interruptible
        // through the abort flag instead).
        self.ensure_inputs(p)?;
        let k = self.top_up(p, k);
        let (id, first) = (self.run.units[p].id, self.run.units[p].attempts);
        let hb = self.sup.heartbeat(self.slot);
        hb.begin(id.0 as usize, first);
        if let Some(FaultKind::StallFiring { nanos }) = fault {
            // Under the heartbeat: a stall longer than the watchdog
            // timeout is escalated; a shorter one is pure latency.
            if self.cooperative_stall(nanos).is_err() {
                hb.end();
                return Err(Stop);
            }
        }
        let fired = self.run.fire_share(self.graph, self.machine, p, k, fault);
        hb.end();
        if let Err(Failed { done, failure }) = fired {
            // The firings before the failed one stand: their output goes
            // out before the failure stops the run (the drain parks this
            // stage).
            self.commit(p, done, batched);
            let _ = self.flush_outputs(p);
            self.sup.raise(failure);
            return Err(Stop);
        }
        // The watchdog may have condemned this very firing while it ran
        // (stall injection, genuinely slow stage). Its output must not be
        // committed then: the failure report says the firing never
        // finished cleanly.
        if self.opts.wants_watchdog()
            && self.sup.draining()
            && self.sup.failed_stages().contains(&(id.0 as usize))
        {
            self.run.trace.record(EventKind::WatchdogFire, id.0, first);
            self.run.unwrite(self.graph.node(id), p, 0);
            return Err(Stop);
        }
        self.commit(p, k, batched);
        if let Some(FaultKind::DelayPush { nanos }) = fault {
            // Another stage failed during the injected delay: the drain
            // flushes this firing's committed output.
            self.cooperative_stall(nanos)?;
        }
        self.flush_outputs(p)
    }

    /// Count `k` firings of plan `p` completed: their output stands and
    /// their input is consumed.
    fn commit(&mut self, p: usize, k: u64, batched: bool) {
        let plan = &mut self.plans[p];
        plan.completed += k;
        for pull in &mut plan.pulls {
            pull.consumed += k as usize * pull.pop;
        }
        let stage = &self.stages[self.run.units[p].id.0 as usize];
        stage.firings.fetch_add(k, Ordering::Relaxed);
        if batched {
            stage.batched_firings.fetch_add(k, Ordering::Relaxed);
        }
    }

    /// Top the cut in-edge tapes of plan `p` up, without blocking, with
    /// what their rings hold of the next `k` firings' input, and return
    /// how many firings the tapes then cover — at least the one
    /// [`Worker::ensure_inputs`] has waited for. Same-core inputs need no
    /// look: their producers, at the same lag or a smaller one, fired
    /// their share of the block already, at this step or an earlier one.
    fn top_up(&mut self, p: usize, mut k: u64) -> u64 {
        let ring_in = &self.stages[self.run.units[p].id.0 as usize].ring_in;
        for pull in &mut self.plans[p].pulls {
            let (covered, got) = pull.fill(&mut self.run.tapes[pull.edge], k);
            if got > 0 {
                ring_in.fetch_add(got as u64, Ordering::Relaxed);
            }
            k = covered;
        }
        k
    }

    /// Pull from each cut in-edge until the local tape half holds every
    /// physical token the next firing can address.
    fn ensure_inputs(&mut self, p: usize) -> Result<(), Stop> {
        let abort = self.sup.interrupt_flag();
        let ring_in = &self.stages[self.run.units[p].id.0 as usize].ring_in;
        let trace = &self.run.trace;
        for pull in &mut self.plans[p].pulls {
            let tape = &mut self.run.tapes[pull.edge];
            let mut got = 0;
            // One stall interval per insufficient-input episode: opened
            // on the first park, closed when the input is satisfied (or
            // re-keyed when the merge rotation moves to another ring).
            // Spurious unparks and partial arrivals re-enter the wait
            // without opening a second interval, so `empty_stalls` counts
            // episodes and `empty_stall_nanos` stays monotonic per
            // episode.
            let mut stall: Option<(usize, Instant)> = None;
            let waited = loop {
                let (covered, n) = pull.fill(tape, 1);
                got += n;
                if covered > 0 {
                    break Ok(());
                }
                let cur = pull.cur();
                match stall {
                    Some((i, _)) if i == cur => {}
                    Some((i, t0)) => {
                        pull.rings[i].end_empty_stall(t0, trace);
                        stall = Some((cur, pull.rings[cur].begin_empty_stall(trace)));
                    }
                    None => stall = Some((cur, pull.rings[cur].begin_empty_stall(trace))),
                }
                if pull.rings[cur].wait_nonempty_quiet(abort, trace).is_err() {
                    break Err(Stop);
                }
            };
            if let Some((i, t0)) = stall {
                pull.rings[i].end_empty_stall(t0, trace);
            }
            if got > 0 {
                ring_in.fetch_add(got as u64, Ordering::Relaxed);
            }
            waited?;
        }
        Ok(())
    }

    /// Drain every committed element of each cut out-edge's local tape
    /// half into its ring, in physical order.
    fn flush_outputs(&mut self, p: usize) -> Result<(), Stop> {
        let abort = self.sup.interrupt_flag();
        let ring_out = &self.stages[self.run.units[p].id.0 as usize].ring_out;
        let trace = &self.run.trace;
        for push in &mut self.plans[p].pushes {
            let tape = &mut self.run.tapes[push.edge];
            let n = tape.len();
            if n == 0 {
                continue;
            }
            let (a, b) = tape.vpop_slices(n);
            for span in [a, b] {
                let sent = push.ship(span, |ring, chunk| {
                    match ring.push_batch_traced(chunk, abort, trace) {
                        Ok(()) => chunk.len(),
                        Err(_) => 0,
                    }
                });
                if sent < span.len() {
                    return Err(Stop);
                }
            }
            ring_out.fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Coordinated drain after a failure, the "degrade gracefully" half
    /// of the supervision protocol:
    ///
    /// - stages with a path to any failed stage (including the failed
    ///   stages themselves) stop — anything they produced would never be
    ///   consumed past the failure point;
    /// - every other local stage keeps firing, one firing at a time, as
    ///   long as its inputs are already available (non-blocking ring
    ///   pops, no waits), bounded by the firing count a full run would
    ///   have executed;
    /// - cut-edge flushes become non-blocking and keep the unflushed tail
    ///   buffered locally, so no committed token is dropped while a full
    ///   ring empties;
    /// - the pass loop ends after two consecutive passes without
    ///   progress (the second separated by a short sleep so in-flight
    ///   tokens from other cores can land).
    ///
    /// Termination is structural: every pass either completes a firing
    /// (bounded by the schedule) or burns one of the two idle passes. A
    /// second failure during the drain is recorded like the first, and
    /// its stage fires no more.
    fn drain(&mut self) {
        let failed = self.sup.failed_stages();
        self.run.trace.record(
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
                let stage = self.run.units[p].id.0 as usize;
                if excluded[stage] || dead[stage] {
                    continue;
                }
                // Committed output first: even if the stage never fires
                // again, what it already produced must reach its ring.
                self.flush_avail(p);
                while self.plans[p].completed < self.plans[p].scheduled
                    && self.drain_inputs_ready(p)
                {
                    match self.run.fire_share(self.graph, self.machine, p, 1, None) {
                        Ok(()) => {
                            self.commit(p, 1, false);
                            self.flush_avail(p);
                            fired = true;
                        }
                        Err(Failed { failure, .. }) => {
                            self.sup.raise(failure);
                            dead[stage] = true;
                            break;
                        }
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
        let n = self.graph.node_count();
        let mut marked = vec![false; n];
        for &f in failed.iter().filter(|&&f| f < n) {
            mark_reachable(self.graph, &mut marked, NodeId(f as u32), false);
        }
        marked
    }

    /// True when every in-edge of plan `p` already holds enough tokens
    /// for one firing (after topping up cut edges non-blocking) and none
    /// of them is poisoned.
    fn drain_inputs_ready(&mut self, p: usize) -> bool {
        if self.run.poisoned(p) {
            return false;
        }
        let ring_in = &self.stages[self.run.units[p].id.0 as usize].ring_in;
        let plan = &mut self.plans[p];
        for pull in &mut plan.pulls {
            let (covered, got) = pull.fill(&mut self.run.tapes[pull.edge], 1);
            if got > 0 {
                ring_in.fetch_add(got as u64, Ordering::Relaxed);
            }
            if covered == 0 {
                return false;
            }
        }
        // No block cursor for local tapes: require a worst-case
        // block-aligned window (conservative by < one block).
        (plan.local_ins.iter()).all(|li| self.run.tapes[li.edge].len() >= li.need + li.block - 1)
    }

    /// Non-blocking cut-edge flush: push what fits, keep the tail local
    /// (in order) for the next pass.
    fn flush_avail(&mut self, p: usize) {
        let ring_out = &self.stages[self.run.units[p].id.0 as usize].ring_out;
        for push in &mut self.plans[p].pushes {
            let tape = &mut self.run.tapes[push.edge];
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
                ring_out.fetch_add(off as u64, Ordering::Relaxed);
            }
        }
    }
}
