//! Threaded steady-state runtime for scheduled stream graphs.
//!
//! Where `macross_vm::run_scheduled` interprets the whole graph on one
//! thread, this crate executes the *same* schedule pipeline-parallel: one
//! worker per core of a placement (e.g. from
//! `macross_multicore::plan_placement`) — the first on the calling
//! thread, each other on a thread of its own — with every cross-core tape
//! edge bridged by a bounded lock-free SPSC ring ([`ring::Ring`]).
//!
//! The execution model is a Kahn process network specialization: each
//! worker fires its nodes in the global schedule order restricted to its
//! core, a block of steady iterations at a time ([`iteration_block`]),
//! every node one block behind each producer on another core (its *lag*,
//! see [`run_supervised_placed`]), blocking on ring reads until enough
//! tokens are visible and on ring writes until space frees. Because every
//! worker preserves its nodes' firing order and rings preserve element
//! order, the threaded run is deterministic and bit-identical to the
//! single-threaded executor — the property the differential test suite
//! pins down for every benchmark graph, scalar and macro-SIMDized.
//!
//! Alongside the outputs, a run produces a [`RuntimeReport`]: per-stage
//! firing and ring-traffic counters, per-edge stall counts, and measured
//! wall-clock per steady iteration, for comparison against the analytic
//! model (`macross_multicore::estimate`).

pub mod fault;
pub mod ring;
mod runner;
pub mod session;
pub mod supervisor;
mod worker;

use macross_sdf::{buffer_requirements, BufferReq, Schedule};
use macross_streamir::analysis::analyze_vectorizability;
use macross_streamir::graph::{Edge, Graph, Node, NodeId};
use macross_streamir::types::Value;
use macross_vm::firing::panic_message;
use macross_vm::machine::{CycleCounters, Machine};
use macross_vm::VmError;
use ring::{Aborted, Ring};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use supervisor::Supervisor;
use worker::Worker;

pub use fault::{
    committed_outcome, FailureSignature, FaultKind, FaultPlan, FaultSpec, ReplayBundle,
};
pub use session::{EdgeSig, SessionCarrier, SessionEngine, SessionStatus};
pub use supervisor::{FailureCause, StageFailure, SupervisorOptions};

/// Errors from a threaded run.
#[derive(Debug)]
pub enum RuntimeError {
    /// A filter body failed on some worker.
    Vm(VmError),
    /// `assignment.len()` does not match the graph's node count.
    BadAssignment {
        /// Nodes in the graph.
        expected: usize,
        /// Entries in the assignment.
        got: usize,
    },
    /// A worker thread panicked (runtime bug, not a guest-program error).
    WorkerPanicked(String),
    /// The run aborted without a recorded cause.
    Aborted,
    /// A [`Placement`] violates a fission legality rule (the message names
    /// the node and the rule).
    InvalidPlacement(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Vm(e) => write!(f, "worker failed: {e}"),
            RuntimeError::BadAssignment { expected, got } => {
                write!(
                    f,
                    "assignment has {got} entries for a graph of {expected} nodes"
                )
            }
            RuntimeError::WorkerPanicked(msg) => write!(f, "worker thread panicked: {msg}"),
            RuntimeError::Aborted => write!(f, "run aborted"),
            RuntimeError::InvalidPlacement(msg) => write!(f, "invalid placement: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Vm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for RuntimeError {
    fn from(e: VmError) -> Self {
        RuntimeError::Vm(e)
    }
}

/// Live per-stage counters, shared between the workers and the
/// coordinator. One entry per node, indexed by node id; each node is
/// updated by exactly one worker, so the relaxed atomics are contention
/// free — they exist so the counters can be observed while running.
#[derive(Debug, Default)]
pub struct Stage {
    /// Completed firings.
    pub firings: AtomicU64,
    /// Of those, firings fired in a share of several, not in an envelope
    /// of their own: all of them in a clean run without a watchdog (see
    /// `Worker::run_share`).
    pub batched_firings: AtomicU64,
    /// Tokens pulled from cross-core rings into this node's input tapes.
    pub ring_in: AtomicU64,
    /// Tokens flushed from this node's output tapes into cross-core rings.
    pub ring_out: AtomicU64,
}

/// Spin barrier between the init schedule and the timed steady phase.
/// Abort-aware so a worker that failed during init cannot strand the
/// others (a `std::sync::Barrier` would).
pub(crate) struct StartGate {
    arrived: AtomicUsize,
    total: usize,
}

impl StartGate {
    pub(crate) fn new(total: usize) -> StartGate {
        StartGate {
            arrived: AtomicUsize::new(0),
            total,
        }
    }

    pub(crate) fn wait(&self, abort: &AtomicBool) -> Result<(), Aborted> {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        while self.arrived.load(Ordering::Acquire) < self.total {
            if abort.load(Ordering::Relaxed) {
                return Err(Aborted);
            }
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// Final per-stage numbers in a [`RuntimeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Node id in the graph.
    pub node: usize,
    /// Human-readable stage name (filter name or node kind).
    pub name: String,
    /// Core the stage ran on.
    pub core: u32,
    /// Completed firings (init + steady); after a failure, the stage's
    /// bound in [`committed_outcome`] — what a worker fired past it
    /// before it saw the failure is not counted.
    pub firings: u64,
    /// Of those, firings fired inside a share envelope rather than one of
    /// their own: every firing of a clean run, none under a watchdog, all
    /// but the addressed ones under a fault plan.
    pub batched_firings: u64,
    /// Tokens pulled from cross-core rings.
    pub ring_in: u64,
    /// Tokens pushed to cross-core rings.
    pub ring_out: u64,
}

/// Final per-ring numbers in a [`RuntimeReport`], one per ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingStat {
    /// Edge id in the graph.
    pub edge: usize,
    /// Producing node id.
    pub src: usize,
    /// Consuming node id.
    pub dst: usize,
    /// Slot count of the ring.
    pub capacity: usize,
    /// Times the producer found the ring full.
    pub full_stalls: u64,
    /// Times the consumer found the ring empty.
    pub empty_stalls: u64,
    /// Nanoseconds the producer spent waiting for space.
    pub full_stall_nanos: u64,
    /// Nanoseconds the consumer spent waiting for data.
    pub empty_stall_nanos: u64,
}

/// Measured counters from a threaded run, the empirical counterpart of
/// the analytic `macross_multicore::estimate`.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Worker threads (cores in the assignment).
    pub cores: usize,
    /// Steady iterations executed.
    pub iters: u64,
    /// Steady iterations per node-major block ([`iteration_block`]): the
    /// hand-off unit the stall counts are to be read against.
    pub block: u64,
    /// Cross-core (cut) edges bridged by rings.
    pub cut_edges: usize,
    /// Per-stage counters, indexed by node id.
    pub stages: Vec<StageStats>,
    /// Per-ring stall numbers, one per ring.
    pub rings: Vec<RingStat>,
    /// Steady-loop wall nanoseconds per core (0 for cores with no nodes).
    pub core_nanos: Vec<u64>,
    /// Slowest core's steady-loop nanoseconds — the measured makespan.
    pub wall_nanos: u64,
    /// Modelled cycles per core (steady phase), from the interpreter's
    /// cost accounting.
    pub core_modelled: Vec<CycleCounters>,
    /// Stage failures, in committed order: by steady iteration (the init
    /// phase first), then by schedule position — whichever core raised
    /// one first. Empty for a clean run; the first entry is the root
    /// cause. A failure a worker ran ahead to past the committed outcome
    /// of the others is not one (see [`committed_outcome`]).
    pub failures: Vec<StageFailure>,
}

impl RuntimeReport {
    /// Total tokens that crossed core boundaries.
    pub fn ring_traffic(&self) -> u64 {
        self.stages.iter().map(|s| s.ring_out).sum()
    }

    /// Total ring stall events (full + empty) across all rings.
    pub fn total_stalls(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.full_stalls + r.empty_stalls)
            .sum()
    }

    /// Total nanoseconds workers spent blocked on rings (both sides).
    pub fn total_stall_nanos(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.full_stall_nanos + r.empty_stall_nanos)
            .sum()
    }

    /// The first failure raised — the root cause, if the run failed.
    pub fn root_failure(&self) -> Option<&StageFailure> {
        self.failures.first()
    }
}

/// Result of a threaded run ([`run_supervised_placed`]): always carries
/// the output produced so far, even when the run failed.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// All sink outputs concatenated in node-id order — the same order as
    /// `macross_vm::RunResult::output`, so the two are directly
    /// comparable. For a failed run this is exactly the committed
    /// outcome: each sink's stream is the clean run's cut to its bound in
    /// [`committed_outcome`].
    pub output: Vec<Value>,
    /// Per-sink outputs, indexed by node id (empty for non-sinks).
    pub outputs: Vec<Vec<Value>>,
    /// Measured counters, including `failures`.
    pub report: RuntimeReport,
    /// True when every scheduled firing completed (no failures).
    pub completed: bool,
}

impl SupervisedRun {
    /// Collapse to the all-or-nothing surface of [`run_threaded_placed`]:
    /// a clean run's output, or one error for a failed run — the
    /// root-cause VM error wins, then a panic, then a bare abort (a
    /// watchdog escalation carries neither).
    ///
    /// # Errors
    /// [`RuntimeError::Vm`], [`RuntimeError::WorkerPanicked`] or
    /// [`RuntimeError::Aborted`] when the run did not complete.
    pub fn into_result(self) -> Result<SupervisedRun, RuntimeError> {
        if self.completed {
            return Ok(self);
        }
        let failures = &self.report.failures;
        if let Some(e) = failures.iter().find_map(|f| match &f.cause {
            FailureCause::Vm(e) => Some(e.clone()),
            _ => None,
        }) {
            return Err(RuntimeError::Vm(e));
        }
        if let Some(msg) = failures.iter().find_map(|f| match &f.cause {
            FailureCause::Panic(msg) => Some(msg.clone()),
            _ => None,
        }) {
            return Err(RuntimeError::WorkerPanicked(msg));
        }
        Err(RuntimeError::Aborted)
    }
}

/// One fissioned stage: its steady firings are dealt round-robin across
/// `replicas` (global steady firing `g` runs on `replicas[g % k]`), with
/// tokens dealt to / merged from one SPSC ring per replica in firing-block
/// order — so the merged stream is bit-identical to the sequential one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FissionSpec {
    /// The stage being split. Must be a stateless filter (see
    /// [`Placement::validate`] for the full legality rules).
    pub node: NodeId,
    /// Cores hosting the replicas, in deal order. At least two, all
    /// distinct; `assignment[node]` must equal `replicas[0]`.
    pub replicas: Vec<u32>,
}

/// A full multicore placement: the per-node core assignment plus any
/// fissioned stages ([`Placement::whole_stage`] is the `fission: []`
/// special case).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement {
    /// Node id -> core.
    pub assignment: Vec<u32>,
    /// Stages split across cores (empty for plain placements).
    pub fission: Vec<FissionSpec>,
}

impl Placement {
    /// A plain whole-stage placement with no fission.
    pub fn whole_stage(assignment: Vec<u32>) -> Placement {
        Placement {
            assignment,
            fission: Vec::new(),
        }
    }

    /// The fission spec covering `node`, if any.
    pub fn fission_of(&self, node: NodeId) -> Option<&FissionSpec> {
        self.fission.iter().find(|s| s.node == node)
    }

    /// True when `e`'s tokens leave the core that produced them: the edge
    /// is cut, or an endpoint is fissioned (one ring per replica).
    #[inline]
    pub fn crosses_cores(&self, e: &Edge) -> bool {
        let (src, dst) = (e.src.0 as usize, e.dst.0 as usize);
        self.assignment[src] != self.assignment[dst]
            || self
                .fission
                .iter()
                .any(|s| s.node == e.src || s.node == e.dst)
    }

    /// Worker threads this placement needs (max named core + 1).
    pub fn cores(&self) -> usize {
        let a = self.assignment.iter().copied().max().unwrap_or(0);
        let f = self
            .fission
            .iter()
            .flat_map(|s| s.replicas.iter().copied())
            .max()
            .unwrap_or(0);
        a.max(f) as usize + 1
    }

    /// Check the placement against `graph` and `schedule`.
    ///
    /// Fission legality (each rule keeps the dealt/merged streams
    /// bit-identical to the sequential schedule):
    ///
    /// - the node is a filter with no state written in `work`
    ///   (read-only state is fine — every replica initializes it
    ///   identically), so firings are independent;
    /// - `peek <= pop`: a firing addresses only its own dealt block,
    ///   never a successor's tokens;
    /// - `init_reps == 0`: the deal clock starts at steady firing 0;
    /// - no reorder marking on its edges (the ring must carry committed
    ///   physical order, and reorder halves assume one consumer);
    /// - neighbors are not fissioned (one deal/merge per edge);
    /// - at least two distinct replica cores, and `assignment[node] ==
    ///   replicas[0]` (the canonical core for stage attribution).
    ///
    /// # Errors
    /// [`RuntimeError::BadAssignment`] / [`RuntimeError::InvalidPlacement`].
    pub fn validate(&self, graph: &Graph, schedule: &Schedule) -> Result<(), RuntimeError> {
        if self.assignment.len() != graph.node_count() {
            return Err(RuntimeError::BadAssignment {
                expected: graph.node_count(),
                got: self.assignment.len(),
            });
        }
        let bad = |msg: String| Err(RuntimeError::InvalidPlacement(msg));
        for spec in &self.fission {
            let idx = spec.node.0 as usize;
            if idx >= graph.node_count() {
                return bad(format!("fission node {idx} out of range"));
            }
            if self.fission.iter().filter(|s| s.node == spec.node).count() > 1 {
                return bad(format!("node {idx} fissioned twice"));
            }
            if spec.replicas.len() < 2 {
                return bad(format!("node {idx}: fission needs >= 2 replicas"));
            }
            for (i, &c) in spec.replicas.iter().enumerate() {
                if spec.replicas[..i].contains(&c) {
                    return bad(format!("node {idx}: duplicate replica core {c}"));
                }
            }
            if self.assignment[idx] != spec.replicas[0] {
                return bad(format!(
                    "node {idx}: assignment[{idx}] must equal replicas[0]"
                ));
            }
            let Node::Filter(f) = graph.node(spec.node) else {
                return bad(format!("node {idx}: only filters can be fissioned"));
            };
            if analyze_vectorizability(f).stateful {
                return bad(format!("node {idx} ({}): stateful filter", f.name));
            }
            if f.peek > f.pop {
                return bad(format!(
                    "node {idx} ({}): peek {} > pop {} carries lookahead across firings",
                    f.name, f.peek, f.pop
                ));
            }
            if schedule.init_reps[idx] != 0 {
                return bad(format!(
                    "node {idx} ({}): fires in the init schedule",
                    f.name
                ));
            }
            for eid in graph
                .in_edges(spec.node)
                .into_iter()
                .chain(graph.out_edges(spec.node))
            {
                let e = graph.edge(eid);
                if e.reorder.is_some() {
                    return bad(format!(
                        "node {idx} ({}): edge {} carries a reorder marking",
                        f.name, eid.0
                    ));
                }
                let peer = if e.src == spec.node { e.dst } else { e.src };
                if self.fission_of(peer).is_some() {
                    return bad(format!(
                        "node {idx} ({}): neighbor {} is also fissioned",
                        f.name, peer.0
                    ));
                }
            }
        }
        Ok(())
    }
}

/// How one edge's tokens travel between cores.
pub(crate) enum EdgeRings {
    /// Same-core edge: plain local tape, no ring.
    Local,
    /// Ordinary cut edge: one SPSC ring.
    Single(Arc<Ring>),
    /// An endpoint is fissioned: one ring per replica — deal rings when
    /// the consumer is fissioned, merge rings when the producer is.
    Fission(Vec<Arc<Ring>>),
}

/// What a run derives once from its graph, schedule and placement, and
/// every worker reads.
pub(crate) struct Wiring {
    /// How each edge's tokens travel, indexed by edge id.
    pub(crate) rings: Vec<EdgeRings>,
    /// Each edge's [`buffer_requirements`], indexed by edge id.
    pub(crate) reqs: Vec<BufferReq>,
    /// Each node's lag in blocks ([`stage_lags`]), indexed by node id.
    pub(crate) lags: Vec<u64>,
}

/// How many blocks each node runs behind the sources: 0 for a source,
/// otherwise the maximum over its in-edges of the producer's lag, plus
/// one when the edge crosses cores ([`Placement::crosses_cores`]). A
/// worker fires a node's block `b` at step `b + lag`, so a consumer on
/// another core works on the block its producer finished one step
/// earlier.
pub(crate) fn stage_lags(graph: &Graph, schedule: &Schedule, placement: &Placement) -> Vec<u64> {
    let mut lags = vec![0u64; graph.node_count()];
    // The schedule order is topological: a node's producers are final
    // before its own out-edges are relaxed.
    for &id in &schedule.order {
        for eid in graph.out_edges(id) {
            let e = graph.edge(eid);
            let lag = lags[id.0 as usize] + u64::from(placement.crosses_cores(e));
            let dst = &mut lags[e.dst.0 as usize];
            *dst = (*dst).max(lag);
        }
    }
    lags
}

/// Execute `iters` steady iterations of a scheduled graph across workers,
/// one per core named by `placement` (the cost-model planner in
/// `macross-multicore` produces placements; [`Placement::whole_stage`]
/// wraps a plain node id -> core assignment). The first core's worker
/// runs on the calling thread, every other one on a scoped thread.
///
/// Within a core, nodes fire in the global schedule order via the same
/// firing path as the single-threaded executor; cross-core edges stream
/// through bounded SPSC rings sized from the schedule's
/// [`buffer_requirements`]. The init schedule runs before timing starts;
/// sink outputs and modelled cycle counters cover the steady phase
/// exactly like `run_scheduled`.
///
/// This is [`run_supervised_placed`] with default [`SupervisorOptions`],
/// collapsed by [`SupervisedRun::into_result`]; call that directly to
/// choose the engine ([`SupervisorOptions::mode`]), plan faults or a
/// watchdog, or keep the partial output of a failed run.
///
/// # Errors
/// [`RuntimeError::BadAssignment`] / [`RuntimeError::InvalidPlacement`]
/// for a malformed placement, and any [`VmError`] a filter raises on a
/// worker (the other workers are drained and joined).
pub fn run_threaded_placed(
    graph: &Graph,
    schedule: &Schedule,
    machine: &Machine,
    placement: &Placement,
    iters: u64,
) -> Result<SupervisedRun, RuntimeError> {
    run_supervised_placed(
        graph,
        schedule,
        machine,
        placement,
        iters,
        &SupervisorOptions::default(),
    )?
    .into_result()
}

/// Steady iterations a worker executes node-major before it moves on:
/// the unit of cross-core hand-off. A worker whose input comes from
/// another core waits for it once per block and plan instead of once per
/// iteration, and every wake-up is amortized over a block of work.
///
/// 16, from the recorded runs (EXPERIMENTS.md "Threaded hand-off",
/// "Skewed blocks"): 8 is measurably slower, 32 no faster while doubling
/// every ring and local tape again. Outputs do not depend on it — a block
/// is the steady schedule with its repetition counts scaled, so firing
/// order per stage, deal/merge rotation and fault addressing never see
/// the block size.
pub(crate) const ITER_BLOCK: u64 = 16;

/// The smallest ring slack: how many steady iterations of an edge a ring
/// holds on top of the tokens resident after init when its consumer runs
/// one block behind its producer (the lag difference of every plain
/// producer-to-consumer cut). Two blocks — the one the consumer is
/// reading and the one the producer is writing. A ring whose endpoints'
/// lags differ by more gets one block more per step of difference (see
/// [`run_supervised_placed`]).
const RING_SLACK: u64 = 2 * ITER_BLOCK;

/// [`RING_SLACK`], for run headers: the floor of every ring's slack, not
/// the size of every ring.
pub fn ring_slack() -> u64 {
    RING_SLACK
}

/// `ITER_BLOCK`: how many steady iterations one cross-core hand-off
/// covers.
pub fn iteration_block() -> u64 {
    ITER_BLOCK
}

/// The full-fidelity entry point: execute `iters` steady iterations under
/// supervision and *always* return the (possibly partial) output plus a
/// report whose `failures` list types every stage failure.
///
/// This is [`run_threaded_placed`]'s engine. On top of it, supervision
/// adds:
///
/// - every share of firings runs inside the share runner's
///   `catch_unwind` under a heartbeat, so a panicking or erroring stage
///   becomes a [`StageFailure`], named at its exact firing, instead of a
///   process abort or a wedged pipeline;
/// - an optional watchdog thread ([`SupervisorOptions::watchdog`])
///   escalates any single firing that exceeds its timeout — the worker
///   on the calling thread included;
/// - after a failure, every worker fires each of its nodes to exactly
///   its bound in [`committed_outcome`], and each sink's output is cut
///   to its bound — the same outcome as [`SessionEngine`]'s, whatever
///   the placement and whichever core saw the failure first;
/// - a [`fault::FaultPlan`] deterministically injects faults at exact
///   `(stage, firing)` coordinates (an empty plan injects nothing).
///
/// Besides the node-to-core assignment, stages named in
/// `placement.fission` are split across replica cores. Steady firing `g`
/// of a fissioned stage runs on `replicas[g % k]`; its input tokens are
/// dealt to one ring per replica in pop-rate blocks and its output merged
/// back in push-rate blocks, so the downstream consumer observes the
/// exact sequential stream.
///
/// # Errors
/// [`RuntimeError::BadAssignment`] / [`RuntimeError::InvalidPlacement`]
/// for a malformed placement. Stage failures are *not* errors here: they
/// come back inside the report.
pub fn run_supervised_placed(
    graph: &Graph,
    schedule: &Schedule,
    machine: &Machine,
    placement: &Placement,
    iters: u64,
    opts: &SupervisorOptions,
) -> Result<SupervisedRun, RuntimeError> {
    placement.validate(graph, schedule)?;
    let assignment = &placement.assignment;
    let cores = placement.cores();
    // Rings bridge cut edges. Every worker runs its slice of the schedule
    // over blocks of `ITER_BLOCK` iterations, skewed: at step `s` it fires
    // each of its nodes, in schedule order, up to the end of block
    // `s - lag` (`stage_lags`: one block per core crossing on the node's
    // longest path from a source). The deadlock argument is the one for a
    // single iteration, scaled and skewed: the global order "for each
    // step, each node in schedule order fires block `s - lag`" is itself
    // a sequential execution — a producer on the same core has the same
    // or a smaller lag and comes first in the schedule order, one on
    // another core has a smaller lag — and every worker's local order is
    // a restriction of it. In that order an edge holds its init tokens
    // plus `lag(dst) - lag(src) + 1` blocks at most: right after the
    // producer finished block `s - lag(src)` the consumer has consumed
    // through block `s - lag(dst) - 1`. With at least that much on every
    // ring, the bounded network (a Kahn network itself, blocked writes
    // included) can always follow that order, so no interleaving
    // deadlocks. With less, a dependency that leaves a core and returns
    // wedges: a split-join branch that crosses cores three times feeds
    // its joiner three steps after the one-crossing branch beside it, and
    // a two-block ring on the short branch fills with blocks the joiner
    // cannot take before the long branch, queued behind the full ring on
    // the same core, delivers.
    //
    // A consumer one block behind its producer — every plain cut —
    // therefore gets two blocks (`ring_slack()` iterations): the producer
    // writes a block while the consumer works through the previous one.
    // The floor also covers the init-phase resident count: the node-major
    // init schedule has a producer complete ALL init firings before its
    // consumer's first, so init_reps[src] * push tokens are
    // simultaneously live — possibly more than the steady capacity (deep
    // peeking pipelines do this).
    //
    // Fission edges get one ring per replica, each at the full edge
    // capacity: a ring only ever holds its rotation share of the edge's
    // tokens, so this over-provision can never deadlock, and it keeps the
    // per-ring bound independent of how the deal divides an iteration.
    let reqs = buffer_requirements(graph, schedule);
    let lags = stage_lags(graph, schedule, placement);
    let rings: Vec<EdgeRings> = graph
        .edges()
        .map(|(eid, e)| {
            if !placement.crosses_cores(e) {
                return EdgeRings::Local;
            }
            let (src, dst) = (e.src.0 as usize, e.dst.0 as usize);
            let init_peak =
                schedule.init_reps[src] * graph.node(e.src).push_rate(e.src_port) as u64;
            let req = &reqs[eid.0 as usize];
            let steady = req.capacity - req.init_tokens;
            let blocks = lags[dst] - lags[src] + 1;
            let cap = (req.init_tokens + blocks * ITER_BLOCK * steady)
                .max(req.capacity)
                .max(init_peak) as usize;
            let mk = || Arc::new(Ring::with_capacity(cap));
            match placement.fission_of(e.dst).or(placement.fission_of(e.src)) {
                Some(spec) => EdgeRings::Fission((0..spec.replicas.len()).map(|_| mk()).collect()),
                None => EdgeRings::Single(mk()),
            }
        })
        .collect();
    let cut_edges = rings
        .iter()
        .filter(|r| !matches!(r, EdgeRings::Local))
        .count();
    let wiring = Wiring { rings, reqs, lags };
    let stages: Arc<Vec<Stage>> =
        Arc::new((0..graph.node_count()).map(|_| Stage::default()).collect());
    let worker_cores: Vec<u32> = {
        let mut seen = vec![false; cores];
        for &c in assignment {
            seen[c as usize] = true;
        }
        for spec in &placement.fission {
            for &c in &spec.replicas {
                seen[c as usize] = true;
            }
        }
        (0..cores as u32).filter(|&c| seen[c as usize]).collect()
    };
    let sup = Supervisor::new(worker_cores.len());
    let gate = StartGate::new(worker_cores.len());

    // One core's worker. It catches firing panics itself; this outer net
    // only catches harness bugs, so a buggy runtime still cannot strand
    // the other workers on the gate — whichever thread it runs on.
    let run_core = |slot: usize, core: u32| {
        catch_unwind(AssertUnwindSafe(|| {
            let stages = Arc::clone(&stages);
            Worker::new(
                graph, schedule, machine, placement, core, &wiring, stages, opts, &sup, slot, iters,
            )
            .run(iters, &gate)
        }))
        .map_err(|payload| {
            sup.raise(StageFailure {
                stage: usize::MAX,
                name: format!("worker {core}"),
                core,
                firing: 0,
                init_fn: false,
                mode: opts.mode,
                cause: FailureCause::Panic(panic_message(payload.as_ref())),
            });
        })
        .ok()
    };
    let mut results: Vec<(u32, Option<worker::WorkerOut>)> = Vec::with_capacity(worker_cores.len());
    std::thread::scope(|s| {
        // The first core runs on the calling thread, after the others and
        // the watchdog have their threads.
        let run_core = &run_core;
        let handles: Vec<_> = worker_cores
            .iter()
            .enumerate()
            .skip(1)
            .map(|(slot, &core)| (core, s.spawn(move || run_core(slot, core))))
            .collect();
        let watchdog = opts.watchdog.is_some().then(|| {
            let sup = &sup;
            let worker_cores = &worker_cores;
            let stage_names: Vec<String> = graph.nodes().map(|(_, n)| n.name()).collect();
            s.spawn(move || sup.run_watchdog(opts, worker_cores, &stage_names))
        });
        if let Some(&core) = worker_cores.first() {
            results.push((core, run_core(0, core)));
        }
        for (core, h) in handles {
            // The spawned closure never panics: the body is wrapped in
            // catch_unwind, so join() only fails on harness bugs.
            results.push((core, h.join().expect("worker wrapper panicked")));
        }
        sup.finish();
        if let Some(w) = watchdog {
            w.join().expect("watchdog panicked");
        }
    });

    let failures = fault::committed_failures(graph, schedule, sup.take_failures());
    let finished: Vec<(u32, worker::WorkerOut)> = results
        .into_iter()
        .filter_map(|(core, r)| r.map(|out| (core, out)))
        .collect();

    let mut outputs: Vec<Vec<Value>> = vec![Vec::new(); graph.node_count()];
    let mut core_nanos = vec![0u64; cores];
    let mut core_modelled = vec![CycleCounters::default(); cores];
    for (core, out) in finished {
        for (node, vals) in out.sink_outputs {
            outputs[node] = vals;
        }
        core_nanos[core as usize] = out.steady_nanos;
        core_modelled[core as usize] = out.modelled;
    }
    // A worker may have fired past the outcome before it saw a failure:
    // its sink rows and its stages' firing counts are cut to the bounds.
    let bounds = if failures.is_empty() {
        vec![u64::MAX; graph.node_count()]
    } else {
        committed_outcome(graph, schedule, &failures)
    };
    for (row, &bound) in outputs.iter_mut().zip(&bounds) {
        row.truncate(bound as usize);
    }
    let wall_nanos = core_nanos.iter().copied().max().unwrap_or(0);

    let stage_stats: Vec<StageStats> = graph
        .nodes()
        .map(|(id, node)| {
            let i = id.0 as usize;
            StageStats {
                node: i,
                name: node.name(),
                core: assignment[i],
                firings: stages[i].firings.load(Ordering::Relaxed).min(bounds[i]),
                batched_firings: stages[i]
                    .batched_firings
                    .load(Ordering::Relaxed)
                    .min(bounds[i]),
                ring_in: stages[i].ring_in.load(Ordering::Relaxed),
                ring_out: stages[i].ring_out.load(Ordering::Relaxed),
            }
        })
        .collect();
    let mut ring_stats: Vec<RingStat> = Vec::with_capacity(cut_edges);
    for (eid, e) in graph.edges() {
        let physical: &[Arc<Ring>] = match &wiring.rings[eid.0 as usize] {
            EdgeRings::Local => &[],
            EdgeRings::Single(ring) => std::slice::from_ref(ring),
            EdgeRings::Fission(rs) => rs,
        };
        for ring in physical {
            ring_stats.push(RingStat {
                edge: eid.0 as usize,
                src: e.src.0 as usize,
                dst: e.dst.0 as usize,
                capacity: ring.capacity(),
                full_stalls: ring.full_stalls(),
                empty_stalls: ring.empty_stalls(),
                full_stall_nanos: ring.full_stall_nanos(),
                empty_stall_nanos: ring.empty_stall_nanos(),
            });
        }
    }

    let output = outputs.concat();
    let completed = failures.is_empty();
    Ok(SupervisedRun {
        output,
        outputs,
        report: RuntimeReport {
            cores,
            iters,
            block: ITER_BLOCK,
            cut_edges,
            stages: stage_stats,
            rings: ring_stats,
            core_nanos,
            wall_nanos,
            core_modelled,
            failures,
        },
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{ScalarTy, Ty};

    /// counter -> tripler -> sink, for splitting across cores.
    fn chain() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        let mut scale = FilterBuilder::new("scale", 1, 1, 1, ScalarTy::I32);
        scale.work(|b| {
            b.push(pop() * 3i32);
        });
        StreamSpec::pipeline(vec![src.build_spec(), scale.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap()
    }

    /// Whole-stage run of `assignment` (node id -> core).
    fn run_on(
        g: &Graph,
        sched: &Schedule,
        m: &Machine,
        assignment: &[u32],
        iters: u64,
    ) -> Result<SupervisedRun, RuntimeError> {
        run_threaded_placed(
            g,
            sched,
            m,
            &Placement::whole_stage(assignment.to_vec()),
            iters,
        )
    }

    /// The all-or-nothing mapping keeps its precedence whatever order the
    /// failures were raised in: a VM error beats a panic beats `Aborted`.
    #[test]
    fn into_result_prefers_vm_error_then_panic_then_aborted() {
        let run_with = |causes: Vec<FailureCause>| {
            let failures: Vec<StageFailure> = causes
                .into_iter()
                .enumerate()
                .map(|(stage, cause)| StageFailure {
                    stage,
                    name: format!("stage{stage}"),
                    core: 0,
                    firing: 0,
                    init_fn: false,
                    mode: Default::default(),
                    cause,
                })
                .collect();
            SupervisedRun {
                output: vec![Value::I32(7)],
                outputs: vec![vec![Value::I32(7)]],
                completed: failures.is_empty(),
                report: RuntimeReport {
                    cores: 1,
                    iters: 1,
                    block: ITER_BLOCK,
                    cut_edges: 0,
                    stages: Vec::new(),
                    rings: Vec::new(),
                    core_nanos: vec![0],
                    wall_nanos: 0,
                    core_modelled: vec![CycleCounters::default()],
                    failures,
                },
            }
        };
        let watchdog = || FailureCause::Watchdog { waited_nanos: 1 };
        let panic = || FailureCause::Panic("boom".into());
        let vm = || FailureCause::Vm(VmError::Poisoned { filter: "f".into() });

        let clean = run_with(vec![]).into_result().unwrap();
        assert_eq!(clean.output, vec![Value::I32(7)]);
        assert!(matches!(
            run_with(vec![watchdog(), panic(), vm()]).into_result(),
            Err(RuntimeError::Vm(VmError::Poisoned { .. }))
        ));
        match run_with(vec![watchdog(), panic()]).into_result() {
            Err(RuntimeError::WorkerPanicked(msg)) => assert_eq!(msg, "boom"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(matches!(
            run_with(vec![watchdog()]).into_result(),
            Err(RuntimeError::Aborted)
        ));
    }

    #[test]
    fn bad_assignment_is_rejected() {
        let g = chain();
        let sched = Schedule::compute(&g).unwrap();
        let err = run_on(&g, &sched, &Machine::core_i7(), &[0, 1], 4).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::BadAssignment {
                expected: 3,
                got: 2
            }
        ));
    }

    #[test]
    fn two_core_chain_matches_single_threaded() {
        let g = chain();
        let sched = Schedule::compute(&g).unwrap();
        let m = Machine::core_i7();
        let seq = macross_vm::run_scheduled(&g, &sched, &m, 8).unwrap();
        let thr = run_on(&g, &sched, &m, &[0, 1, 1], 8).unwrap();
        assert_eq!(thr.output, seq.output);
        assert_eq!(thr.report.cores, 2);
        assert_eq!(thr.report.cut_edges, 1);
        // src fired 8 steady times and shipped every token cross-core.
        assert_eq!(thr.report.stages[0].firings, 8);
        assert_eq!(thr.report.stages[0].ring_out, 8);
        assert_eq!(thr.report.stages[1].ring_in, 8);
        // Modelled cycles are partitioned, not duplicated.
        let total: u64 = thr
            .report
            .core_modelled
            .iter()
            .map(CycleCounters::total)
            .sum();
        assert_eq!(total, seq.counters.total());
    }

    #[test]
    fn single_core_threaded_matches_single_threaded() {
        let g = chain();
        let sched = Schedule::compute(&g).unwrap();
        let m = Machine::core_i7();
        let seq = macross_vm::run_scheduled(&g, &sched, &m, 5).unwrap();
        let thr = run_on(&g, &sched, &m, &[0, 0, 0], 5).unwrap();
        assert_eq!(thr.output, seq.output);
        assert_eq!(thr.report.cut_edges, 0);
        assert_eq!(thr.report.ring_traffic(), 0);
        assert!(thr.report.rings.is_empty());
        assert_eq!(thr.report.total_stall_nanos(), 0);
    }

    #[test]
    fn report_carries_ring_stats() {
        let g = chain();
        let sched = Schedule::compute(&g).unwrap();
        let thr = run_on(&g, &sched, &Machine::core_i7(), &[0, 1, 1], 16).unwrap();
        assert_eq!(thr.report.rings.len(), 1);
        let rs = &thr.report.rings[0];
        assert_eq!((rs.src, rs.dst), (0, 1));
        assert!(rs.capacity >= 8);
    }

    #[test]
    fn per_iteration_ratios_guard_zero_iters() {
        let g = chain();
        let sched = Schedule::compute(&g).unwrap();
        let thr = run_on(&g, &sched, &Machine::core_i7(), &[0, 1, 1], 0).unwrap();
        assert_eq!(thr.report.iters, 0);
    }

    /// counter (push 4) -> doubler (stateless, pop 1 push 1) -> sink:
    /// the doubler runs 4 firings per iteration, enough for a 2-way
    /// fission to actually rotate deal/merge blocks mid-iteration.
    fn fissionable_chain() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 4, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            for _ in 0..4 {
                b.push(v(n));
                b.set(n, v(n) + 1i32);
            }
        });
        let mut dbl = FilterBuilder::new("dbl", 1, 1, 1, ScalarTy::I32);
        dbl.work(|b| {
            b.push(pop() * 2i32);
        });
        StreamSpec::pipeline(vec![src.build_spec(), dbl.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap()
    }

    #[test]
    fn fissioned_stage_matches_single_threaded() {
        let g = fissionable_chain();
        let sched = Schedule::compute(&g).unwrap();
        let m = Machine::core_i7();
        let seq = macross_vm::run_scheduled(&g, &sched, &m, 8).unwrap();
        let placement = Placement {
            assignment: vec![0, 1, 0],
            fission: vec![FissionSpec {
                node: NodeId(1),
                replicas: vec![1, 2],
            }],
        };
        let thr = run_threaded_placed(&g, &sched, &m, &placement, 8).unwrap();
        assert_eq!(thr.output, seq.output);
        assert_eq!(thr.report.cores, 3);
        // Both fission edges are cut (2 rings each); replicas split the
        // 8 * 4 steady firings between them while the shared stage
        // counter still reads the sequential total.
        assert_eq!(thr.report.stages[1].firings, 32);
        assert_eq!(thr.report.stages[1].ring_in, 32);
        assert_eq!(thr.report.stages[1].ring_out, 32);
        assert_eq!(thr.report.rings.len(), 4);
    }

    /// A node runs a block behind each producer on another core: the
    /// `[0, 1, 0]` ping-pong chain runs its stages 0, 1 and 2 blocks
    /// behind, and a fission edge counts as cut even when the assignment
    /// puts both of its ends on one core.
    #[test]
    fn lag_counts_core_crossings_on_the_longest_path() {
        let g = chain();
        let sched = Schedule::compute(&g).unwrap();
        let lags =
            |assignment: Vec<u32>| stage_lags(&g, &sched, &Placement::whole_stage(assignment));
        assert_eq!(lags(vec![0, 1, 0]), vec![0, 1, 2]);
        assert_eq!(lags(vec![0, 0, 1]), vec![0, 0, 1]);
        assert_eq!(lags(vec![0, 0, 0]), vec![0, 0, 0]);

        let g = fissionable_chain();
        let sched = Schedule::compute(&g).unwrap();
        let replicas = Placement {
            assignment: vec![0, 0, 0],
            fission: vec![FissionSpec {
                node: NodeId(1),
                replicas: vec![0, 1],
            }],
        };
        assert_eq!(stage_lags(&g, &sched, &replicas), vec![0, 1, 2]);
    }

    /// src -> duplicate split -> (a1 -> a2 -> a3 | b1) -> join -> sink,
    /// with node ids 0, 1, (3, 4, 5 | 6), 2, 7.
    fn lopsided_split_join() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) * 3i32 + 1i32);
        });
        let stage = |name: &str, k: i32| {
            let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::I32);
            fb.work(move |b| {
                b.push(pop() * k + 1i32);
            });
            fb.build_spec()
        };
        StreamSpec::pipeline(vec![
            src.build_spec(),
            StreamSpec::split_join_duplicate(
                1,
                vec![
                    StreamSpec::pipeline(vec![stage("a1", 2), stage("a2", 3), stage("a3", 5)]),
                    stage("b1", 7),
                ],
            ),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap()
    }

    /// The long branch crosses cores three times (a1, a3 on core 1, a2
    /// on core 0), the short one once (b1 on core 1), so the joiner runs
    /// three blocks behind b1 and b1's ring must hold four. With the two
    /// blocks every plain cut gets, b1 fills it before a3 — after b1 in
    /// core 1's schedule order — ships the block the joiner waits for,
    /// and the run never ends. Run on a thread of its own, so a hang
    /// fails the bound instead of the whole suite.
    #[test]
    fn lag_skew_of_three_on_a_cut_edge_finishes_inside_a_wall_clock_bound() {
        let iters = 8 * ITER_BLOCK + 5;
        let placement = Placement::whole_stage(vec![0, 0, 0, 1, 0, 1, 1, 0]);
        let g = lopsided_split_join();
        let sched = Schedule::compute(&g).unwrap();
        let lags = stage_lags(&g, &sched, &placement);
        assert_eq!((lags[6], lags[2]), (1, 4), "b1 and the joiner");

        let (tx, rx) = std::sync::mpsc::channel();
        let run = placement.clone();
        std::thread::spawn(move || {
            let g = lopsided_split_join();
            let sched = Schedule::compute(&g).unwrap();
            let _ = tx.send(run_threaded_placed(
                &g,
                &sched,
                &Machine::core_i7(),
                &run,
                iters,
            ));
        });
        let thr = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the run did not finish inside 10 s")
            .unwrap();
        let seq = macross_vm::run_scheduled(&g, &sched, &Machine::core_i7(), iters).unwrap();
        assert_eq!(thr.output.len(), seq.output.len());
        assert!(thr
            .output
            .iter()
            .zip(&seq.output)
            .all(|(a, b)| a.bits_eq(*b)));
        let b1_ring = thr.report.rings.iter().find(|r| (r.src, r.dst) == (6, 2));
        assert!(b1_ring.unwrap().capacity as u64 >= 4 * ITER_BLOCK);
    }

    #[test]
    fn fission_of_stateful_stage_is_rejected() {
        let g = fissionable_chain();
        let sched = Schedule::compute(&g).unwrap();
        let placement = Placement {
            assignment: vec![0, 0, 0],
            fission: vec![FissionSpec {
                node: NodeId(0), // the counter: carries state across firings
                replicas: vec![0, 1],
            }],
        };
        let err = run_threaded_placed(&g, &sched, &Machine::core_i7(), &placement, 4).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidPlacement(_)));
    }

    #[test]
    fn fission_needs_two_distinct_replicas() {
        let g = fissionable_chain();
        let sched = Schedule::compute(&g).unwrap();
        let placement = Placement {
            assignment: vec![0, 1, 0],
            fission: vec![FissionSpec {
                node: NodeId(1),
                replicas: vec![1, 1],
            }],
        };
        let err = run_threaded_placed(&g, &sched, &Machine::core_i7(), &placement, 4).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidPlacement(_)));
    }

    #[test]
    fn stall_episodes_bounded_by_consumer_firings() {
        // gobble needs 4 tokens per firing that trickle in from a
        // cross-core src pushing 1 per firing. The episode protocol
        // opens at most one stall interval per insufficient-input wait,
        // so `empty_stalls` is bounded by gobble's firing count even
        // though each episode can span several partial arrivals.
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
        let n = src.state("n", Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        let mut gob = FilterBuilder::new("gobble", 4, 4, 1, ScalarTy::I32);
        gob.work(|b| {
            b.push(pop() + pop() + pop() + pop());
        });
        let g = StreamSpec::pipeline(vec![src.build_spec(), gob.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let sched = Schedule::compute(&g).unwrap();
        let m = Machine::core_i7();
        let iters = 50;
        let seq = macross_vm::run_scheduled(&g, &sched, &m, iters).unwrap();
        let thr = run_on(&g, &sched, &m, &[0, 1, 1], iters).unwrap();
        assert_eq!(thr.output, seq.output);
        let gob_firings = thr.report.stages[1].firings;
        let ring = thr
            .report
            .rings
            .iter()
            .find(|r| (r.src, r.dst) == (0, 1))
            .unwrap();
        assert!(
            ring.empty_stalls <= gob_firings,
            "{} stall episodes for {} consumer firings",
            ring.empty_stalls,
            gob_firings
        );
    }
}
