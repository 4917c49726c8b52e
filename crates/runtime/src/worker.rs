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
//! through the [`Supervisor`]; from then on the worker fires each of its
//! plans to exactly its bound in [`crate::committed_outcome`] (see
//! [`Worker::drain`]).

use crate::fault::{committed_outcome, edge_reads, FaultKind};
use crate::ring::Ring;
use crate::runner::{Failed, Runner, Unit};
use crate::supervisor::{now_ns, Supervisor, SupervisorOptions};
use crate::{EdgeRings, Placement, Stage, StartGate, Wiring, ITER_BLOCK};
use macross_sdf::Schedule;
use macross_streamir::graph::{EdgeId, Graph, Node, NodeId, ReorderSide};
use macross_streamir::types::Value;
use macross_vm::firing::{FilterState, FirePlan};
use macross_vm::machine::{CycleCounters, Machine};
use macross_vm::tape::Tape;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A failure was raised since this worker last read the failures: stop
/// firing and (re)draw the bounds.
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
    /// Where `shipped` may go: the tokens the consumer's bound reads
    /// (after a failure; unbounded before). Tokens past it are dropped.
    cap: usize,
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

/// Per-node firing plan for one core; the node itself, its tapes and its
/// firing cursor are the runner's unit of the same index.
struct NodePlan {
    reps: u64,
    init_reps: u64,
    pulls: Vec<Pull>,
    pushes: Vec<Push>,
    /// Steps the node runs behind the sources ([`crate::stage_lags`]):
    /// it fires steady block `b` at step `b + lag`.
    lag: u64,
    /// The node's firing bound once a failure was raised (global firings;
    /// unbounded before).
    bound: u64,
}

pub(crate) struct Worker<'g> {
    graph: &'g Graph,
    schedule: &'g Schedule,
    machine: &'g Machine,
    /// This core's share runner: unit `p` is plan `p`.
    run: Runner,
    plans: Vec<NodePlan>,
    stages: Arc<Vec<Stage>>,
    opts: &'g SupervisorOptions,
    sup: &'g Supervisor,
    /// Index into the supervisor's heartbeat table.
    slot: usize,
    /// This worker's unread-failure flag: what its waits poll.
    abort: &'g AtomicBool,
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
        let mut fire = FirePlan::for_graph(graph, machine);
        let elem = |tape: Option<usize>| tape.map(|e| graph.edge(EdgeId(e as u32)).elem);
        let states: Vec<FilterState> = graph
            .nodes()
            .map(|(id, node)| match node {
                Node::Filter(f) if on_core(id) => {
                    let adj = &fire[id.0 as usize];
                    let (in_elem, out_elem) = (elem(adj.in_edge()), elem(adj.out_edge()));
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
            // Each node is planned once per core: its fire plan moves
            // into the unit.
            let adj = std::mem::take(&mut fire[id.0 as usize]);
            let mut pulls = Vec::new();
            for &edge in adj.in_tapes() {
                let eid = EdgeId(edge as u32);
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
                let Some((rings, ring_block)) =
                    ring_set(eid, graph.node(e.src).push_rate(e.src_port))
                else {
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
            for &edge in adj.out_tapes() {
                let eid = EdgeId(edge as u32);
                let e = graph.edge(eid);
                let Some((rings, ring_block)) =
                    ring_set(eid, graph.node(e.dst).pop_rate(e.dst_port))
                else {
                    continue;
                };
                rings.iter().for_each(|ring| ring.register_producer());
                pushes.push(Push {
                    edge,
                    rings,
                    ring_block,
                    shipped: 0,
                    cap: usize::MAX,
                });
            }
            let i = id.0 as usize;
            let (reps, init_reps) = (schedule.reps[i], schedule.init_reps[i]);
            // Replicas start their firing clock at their offset and own
            // every stride-th firing; init firings exist only for whole
            // nodes (validate rejects fission with init_reps > 0).
            units.push(Unit {
                id,
                adj,
                attempts: offset,
                stride,
            });
            plans.push(NodePlan {
                reps,
                init_reps,
                pulls,
                pushes,
                lag: lags[i],
                bound: u64::MAX,
            });
        }
        let faults = opts.plan.clone();
        let mut run = Runner::new(units, tapes, states, faults, core, opts.mode);
        for (unit, plan) in run.units.iter().zip(&plans) {
            if matches!(graph.node(unit.id), Node::Sink) {
                let firings = plan.init_reps + iters * plan.reps;
                run.outputs[unit.id.0 as usize].reserve(firings as usize);
            }
        }
        Worker {
            graph,
            schedule,
            machine,
            run,
            plans,
            stages,
            opts,
            sup,
            slot,
            abort: sup.unread_flag(slot),
        }
    }

    /// Run this core: filter init functions, the init schedule, the start
    /// gate, then `iters` timed steady iterations in blocks of
    /// [`ITER_BLOCK`], each node `lag` blocks behind the sources — or,
    /// once a failure is raised, [`Worker::drain`]. Always returns (the
    /// possibly partial) output; failures travel through the supervisor.
    pub(crate) fn run(mut self, iters: u64, gate: &StartGate) -> WorkerOut {
        let failures = self.run.run_init_fns(self.graph, self.machine);
        let clean = failures.is_empty();
        failures.into_iter().for_each(|f| self.sup.raise(f));
        // Don't let fast cores start the clock while others still prime.
        let mut steady_nanos = 0;
        if clean && self.init_phase().is_ok() && gate.wait(self.sup.interrupt_flag()).is_ok() {
            self.run.counters = CycleCounters::default();
            let t0 = Instant::now();
            let steady = self.steady(iters);
            steady_nanos = t0.elapsed().as_nanos() as u64;
            if steady.is_ok() {
                return self.into_out(steady_nanos);
            }
        }
        self.drain(iters);
        self.into_out(steady_nanos)
    }

    /// The init schedule (primes peek slack), in global-order restriction:
    /// a plan's init firings are its share of block 0.
    fn init_phase(&mut self) -> Result<(), Stop> {
        (0..self.plans.len()).try_for_each(|p| self.run_share(p, 0))
    }

    /// Node-major over blocks of `ITER_BLOCK` iterations, skewed: at step
    /// `s` each plan fires its whole share of block `s - lag` before the
    /// next plan starts. A node on this core that consumes what another
    /// core produced works on the block that core finished a step
    /// earlier, so a dependency that leaves this core and comes back —
    /// source here, filter there, sink here — is not waited for at all
    /// once the pipeline is full, instead of once per block. A block is
    /// the steady schedule with every repetition count scaled, and a
    /// node's blocks still come in order, so firing order per node,
    /// deal/merge rotation and fault addresses are those of the
    /// iteration-major loop.
    fn steady(&mut self, iters: u64) -> Result<(), Stop> {
        let nblocks = iters.div_ceil(ITER_BLOCK);
        let max_lag = self.plans.iter().map(|p| p.lag).max().unwrap_or(0);
        for step in 0..nblocks + max_lag {
            for p in 0..self.plans.len() {
                // Past its last block, `run_share` finds the share done.
                if let Some(b) = step.checked_sub(self.plans[p].lag) {
                    self.run_share(p, ((b + 1) * ITER_BLOCK).min(iters))?;
                }
            }
        }
        Ok(())
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
    /// run. Returns `Err(Stop)` if a failure was raised meanwhile.
    fn cooperative_stall(&self, nanos: u64) -> Result<(), Stop> {
        let until = now_ns() + nanos;
        while now_ns() < until {
            if self.abort.load(Ordering::Relaxed) {
                return Err(Stop);
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        Ok(())
    }

    /// Plan `p`'s share of a block: fire it up to the end of steady
    /// iteration `t` (`t = 0`: its init firings), or to its bound if that
    /// comes first — for a replica, its stride of the global firings up to
    /// there — in as few envelopes as the runner's fault cut and the input
    /// on this core allow. A watchdog (its timeout is per firing) sees
    /// each firing in an envelope of its own.
    fn run_share(&mut self, p: usize, t: u64) -> Result<(), Stop> {
        let alone = self.opts.watchdog.is_some();
        loop {
            let (plan, unit) = (&self.plans[p], &self.run.units[p]);
            let end = (plan.init_reps + t * plan.reps).min(plan.bound);
            if unit.attempts >= end {
                return Ok(());
            }
            if self.abort.load(Ordering::Relaxed) {
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
            // The firings before the failed one stand; the drain flushes
            // what the consumers' bounds read of their output.
            self.commit(p, done, batched);
            self.sup.raise(failure);
            return Err(Stop);
        }
        // The watchdog may have condemned this very firing while it ran
        // (stall injection, genuinely slow stage). Its output must not be
        // committed then: the failure report says the firing never
        // finished cleanly.
        if self.opts.watchdog.is_some()
            && self.sup.draining()
            && self.sup.condemned(id.0 as usize, first)
        {
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
        for pull in &mut self.plans[p].pulls {
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
        let abort = self.abort;
        let ring_in = &self.stages[self.run.units[p].id.0 as usize].ring_in;
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
                        pull.rings[i].end_empty_stall(t0);
                        stall = Some((cur, pull.rings[cur].begin_empty_stall()));
                    }
                    None => stall = Some((cur, pull.rings[cur].begin_empty_stall())),
                }
                if pull.rings[cur].wait_nonempty_quiet(abort).is_err() {
                    break Err(Stop);
                }
            };
            if let Some((i, t0)) = stall {
                pull.rings[i].end_empty_stall(t0);
            }
            if got > 0 {
                ring_in.fetch_add(got as u64, Ordering::Relaxed);
            }
            waited?;
        }
        Ok(())
    }

    /// Ship the committed elements of each cut out-edge's local tape half
    /// into its ring, in physical order, up to the edge's cap; what lies
    /// past the cap is dropped. What a ring did not take when a failure
    /// was raised stays on the tape, in order, for the drain.
    fn flush_outputs(&mut self, p: usize) -> Result<(), Stop> {
        let abort = self.abort;
        let ring_out = &self.stages[self.run.units[p].id.0 as usize].ring_out;
        for push in &mut self.plans[p].pushes {
            let tape = &mut self.run.tapes[push.edge];
            let n = tape.len();
            if n == 0 {
                continue;
            }
            let due = n.min(push.cap.saturating_sub(push.shipped));
            let (a, b) = tape.vpeek_slices(0, due);
            let mut sent = push.ship(a, |ring, chunk| ring.push_batch(chunk, abort));
            if sent == a.len() {
                sent += push.ship(b, |ring, chunk| ring.push_batch(chunk, abort));
            }
            tape.advance_read(if sent == due { n } else { sent });
            ring_out.fetch_add(sent as u64, Ordering::Relaxed);
            if sent < due {
                return Err(Stop);
            }
        }
        Ok(())
    }

    /// Fire every plan to exactly its bound in [`committed_outcome`],
    /// after the first failure this worker observed (a failed `init`
    /// function, a failed firing, an interrupted wait):
    ///
    /// - read the failures raised so far and bound each plan, and cap each
    ///   cut out-edge at what its consumer's bound reads;
    /// - flush what an interrupted flush left on the tape halves, then run
    ///   the init schedule and the skewed block loop again, every share
    ///   capped at its bound: shares already fired are found done, the
    ///   rest fire as they would have, planned faults included.
    ///
    /// Waits block as they do in the steady loop, and only for tokens a
    /// bound guarantees: a producer fires to its bound, which feeds every
    /// firing of its consumer's, and ships exactly what that reads. The
    /// capped order is a restriction of the sequential one the ring sizes
    /// are proved against (`run_supervised_placed`), and a cap keeps every
    /// ring at or below its occupancy there, so the drain cannot deadlock.
    /// A failure raised meanwhile — bounds only ever fall — interrupts a
    /// wait through this worker's flag, and the drain starts over with the
    /// lower bounds; it ends when a pass completes.
    fn drain(&mut self, iters: u64) {
        loop {
            let failures = self.sup.read_failures(self.slot);
            let bounds = committed_outcome(self.graph, self.schedule, &failures);
            for (plan, unit) in self.plans.iter_mut().zip(&self.run.units) {
                plan.bound = bounds[unit.id.0 as usize];
                for push in &mut plan.pushes {
                    let e = self.graph.edge(EdgeId(push.edge as u32));
                    let reads = edge_reads(self.graph, e, bounds[e.dst.0 as usize]);
                    // A replica's ring carries its own share of the global
                    // firings whose output the reads reach.
                    let (rate, k) = (self.graph.node(e.src).push_rate(e.src_port), unit.stride);
                    let firings = reads.div_ceil(rate.max(1) as u64);
                    let own = firings.saturating_sub(unit.attempts % k).div_ceil(k);
                    push.cap = if k == 1 { reads } else { own * rate as u64 } as usize;
                }
            }
            let flushed = (0..self.plans.len()).try_for_each(|p| self.flush_outputs(p));
            if flushed
                .and_then(|()| self.init_phase())
                .and_then(|()| self.steady(iters))
                .is_ok()
            {
                return;
            }
        }
    }
}
