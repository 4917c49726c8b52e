//! The reentrant firing path.
//!
//! [`fire_block`] fires one node `k` times in a row against a
//! caller-supplied tape slice ([`fire_node`] is `k = 1`), shared by the
//! single-threaded [`crate::exec::Executor`] and the session engine and
//! worker threads of `macross-runtime`. All state is
//! passed in explicitly ([`FilterState`] is plain owned data and therefore
//! `Send`), so a worker thread can own the states of exactly the filters
//! assigned to its core and fire them against thread-local tapes.

use crate::bytecode::{run_code, Chan, CompiledFilter, Regs};
use crate::compile::compile_filter;
use crate::error::VmError;
use crate::exec::ExecMode;
use crate::interp::{reset_locals, zero_slots, FiringCtx, Slot};
use crate::machine::{AddrCosts, ChargeEntry, CycleCounters, Machine};
use crate::tape::{raw_of, value_of, Tape};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::graph::{EdgeId, Graph, Node, NodeId, ReorderSide, SplitKind};
use macross_streamir::types::{ScalarTy, Ty, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Which engine a [`FilterState`] fires with. The compiled plan is shared
/// (`Arc`) so cloning a state for a worker thread does not recompile.
#[derive(Debug, Clone, Default)]
enum Engine {
    /// Tree-walking interpreter over `slots`.
    #[default]
    Tree,
    /// Register bytecode over `regs`.
    Compiled(Arc<CompiledFilter>),
}

/// Persistent per-filter execution state: variable slots and internal
/// (fused-actor) channels. Owned data — `Send` — so it can migrate to the
/// worker thread that hosts the filter. A state holds the storage of its
/// own engine only: a compiled one has registers and image FIFOs, and
/// its `slots` and `chans` are empty.
#[derive(Debug, Clone, Default)]
pub struct FilterState {
    /// Variable storage, indexed by `VarId` (tree-walking engine).
    pub slots: Vec<Slot>,
    /// Internal channel storage, indexed by `ChanId` (tree-walking
    /// engine: values keep their dynamic type).
    pub chans: Vec<VecDeque<Value>>,
    /// Unboxed register files (bytecode engine).
    regs: Regs,
    /// Internal channels as image FIFOs, indexed by `ChanId` (bytecode
    /// engine).
    fifos: Vec<Chan>,
    engine: Engine,
}

impl FilterState {
    /// Zero-initialized state for a filter (tree-walking engine).
    pub fn new(filter: &Filter) -> FilterState {
        FilterState {
            slots: zero_slots(filter),
            chans: vec![VecDeque::new(); filter.chans.len()],
            regs: Regs::default(),
            fifos: Vec::new(),
            engine: Engine::Tree,
        }
    }

    /// Zero-initialized state with the engine selected by `mode`.
    ///
    /// In [`ExecMode::Bytecode`], compiles the filter's bodies against the
    /// element types of its input/output edges; filters the compiler
    /// cannot lower exactly keep the tree-walking engine (per-filter
    /// fallback), so behaviour is always identical.
    pub fn prepared(
        filter: &Filter,
        machine: &Machine,
        in_elem: Option<ScalarTy>,
        out_elem: Option<ScalarTy>,
        mode: ExecMode,
    ) -> FilterState {
        FilterState::from_shared(
            filter,
            FilterState::compile_plan(filter, machine, in_elem, out_elem, mode),
        )
    }

    /// Compile the shareable plan [`FilterState::prepared`] would install,
    /// without building any state. `None` when `mode` is
    /// [`ExecMode::TreeWalk`] or the compiler cannot lower the body
    /// exactly (per-filter fallback).
    pub fn compile_plan(
        filter: &Filter,
        machine: &Machine,
        in_elem: Option<ScalarTy>,
        out_elem: Option<ScalarTy>,
        mode: ExecMode,
    ) -> Option<Arc<CompiledFilter>> {
        match mode {
            ExecMode::Bytecode => compile_filter(filter, in_elem, out_elem, machine).map(Arc::new),
            ExecMode::TreeWalk => None,
        }
    }

    /// Zero-initialized state firing through an already-compiled shared
    /// plan (`None` selects the tree-walking engine). Only the `Arc` is
    /// cloned — many concurrent sessions of the same graph shape share
    /// one compilation. Behaviour is identical to
    /// [`FilterState::prepared`] with the mode the plan was compiled for.
    pub fn from_shared(filter: &Filter, plan: Option<Arc<CompiledFilter>>) -> FilterState {
        match plan {
            Some(plan) => FilterState {
                regs: plan.new_regs(),
                fifos: vec![Chan::default(); filter.chans.len()],
                engine: Engine::Compiled(plan),
                ..FilterState::default()
            },
            None => FilterState::new(filter),
        }
    }

    /// Export the values of the filter's `State` variables, flattened in
    /// declaration order (vector-arrays row-major: all lanes of row 0,
    /// then row 1, ...). Exact in both engines: the tree-walker stores
    /// `Value`s directly, and a bytecode register holds the value's image
    /// ([`raw_of`]), which the declared element type reads back.
    ///
    /// Together with [`FilterState::import_state_vars`] this is the
    /// configuration-swap carrier of the parameterized-dataflow runtime:
    /// a stateful filter's values move bit-exactly between two
    /// independently compiled configurations of the same program.
    pub fn export_state_vars(&self, filter: &Filter) -> Vec<Value> {
        let mut out = Vec::new();
        match &self.engine {
            Engine::Compiled(plan) => {
                for (decl, &(base, len, float)) in filter.vars.iter().zip(&plan.var_windows) {
                    if decl.kind != VarKind::State {
                        continue;
                    }
                    let elem = decl.ty.elem();
                    for k in base..base + len {
                        let image = if float {
                            self.regs.f[k as usize].to_bits()
                        } else {
                            self.regs.i[k as usize] as u64
                        };
                        out.push(value_of(elem, image));
                    }
                }
            }
            Engine::Tree => {
                for (i, decl) in filter.vars.iter().enumerate() {
                    if decl.kind != VarKind::State {
                        continue;
                    }
                    match &self.slots[i] {
                        Slot::S(v) => out.push(*v),
                        Slot::V(vs) | Slot::A(vs) => out.extend_from_slice(vs),
                        Slot::VA(rows) => {
                            for row in rows {
                                out.extend_from_slice(row);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Overwrite the filter's `State` variables with values previously
    /// produced by [`FilterState::export_state_vars`] on a state of a
    /// filter with identical `State` declarations: the slots of a
    /// tree-walking state, the registers of a compiled one, so a
    /// subsequent export round-trips.
    ///
    /// # Errors
    /// [`VmError::TypeMismatch`] when the value count or any element
    /// type disagrees with the filter's declarations — the two
    /// configurations are not state-compatible.
    pub fn import_state_vars(&mut self, filter: &Filter, vals: &[Value]) -> Result<(), VmError> {
        let mismatch = |context: String| VmError::TypeMismatch {
            filter: filter.name.clone(),
            context,
        };
        let mut cursor = 0usize;
        for (i, decl) in filter.vars.iter().enumerate() {
            if decl.kind != VarKind::State {
                continue;
            }
            let len = decl.ty.lanes() * decl.ty.array_len().unwrap_or(1);
            let chunk = vals
                .get(cursor..cursor + len)
                .ok_or_else(|| mismatch(format!("state carrier too short for '{}'", decl.name)))?;
            let elem = decl.ty.elem();
            if !chunk.iter().all(|v| v.ty() == elem) {
                return Err(mismatch(format!(
                    "state carrier element type mismatch for '{}'",
                    decl.name
                )));
            }
            cursor += len;
            match &self.engine {
                Engine::Compiled(plan) => {
                    let (base, window, float) = plan.var_windows[i];
                    debug_assert_eq!(window as usize, len);
                    for (k, v) in chunk.iter().enumerate() {
                        if float {
                            self.regs.f[base as usize + k] = f64::from_bits(raw_of(*v));
                        } else {
                            self.regs.i[base as usize + k] = raw_of(*v) as i64;
                        }
                    }
                }
                Engine::Tree => self.slots[i] = unflatten_slot(decl.ty, chunk),
            }
        }
        if cursor != vals.len() {
            return Err(mismatch(format!(
                "state carrier has {} values, filter consumes {cursor}",
                vals.len()
            )));
        }
        Ok(())
    }

    /// Run the filter's `init` function, if any. Cycles are *not*
    /// counted: the paper's measurements are steady-state.
    ///
    /// The body is a failure boundary like a firing's: a panic in it is
    /// caught and converted ([`VmError::Panicked`]), so every engine
    /// reports a faulting `init` the same way.
    ///
    /// # Errors
    /// Propagates interpreter failures from the `init` body.
    // Out of line, like `fire_filter`: the unwind boundary stays out of
    // the callers' bodies.
    #[inline(never)]
    pub fn run_init_fn(&mut self, filter: &Filter, machine: &Machine) -> Result<(), VmError> {
        if filter.init.is_empty() {
            return Ok(());
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.exec_init(filter, machine)
        }))
        .unwrap_or_else(|payload| {
            Err(VmError::Panicked {
                filter: filter.name.clone(),
                message: panic_message(payload.as_ref()),
            })
        })
    }

    fn exec_init(&mut self, filter: &Filter, machine: &Machine) -> Result<(), VmError> {
        let mut scratch = CycleCounters::default();
        if let Engine::Compiled(plan) = &self.engine {
            let plan = Arc::clone(plan);
            return run_code(
                &plan,
                &plan.init,
                &mut self.regs,
                &mut self.fifos,
                None,
                None,
                AddrCosts::default(),
                &mut scratch,
            );
        }
        let mut ctx = FiringCtx {
            filter,
            slots: &mut self.slots,
            chans: &mut self.chans,
            input: None,
            output: None,
            machine,
            counters: &mut scratch,
            addr: AddrCosts::default(),
        };
        ctx.exec_block(&filter.init)
    }
}

fn unflatten_slot(ty: Ty, vals: &[Value]) -> Slot {
    match ty {
        Ty::Scalar(_) => Slot::S(vals[0]),
        Ty::Vector(_, _) => Slot::V(vals.to_vec()),
        Ty::Array(_, _) => Slot::A(vals.to_vec()),
        Ty::VectorArray(_, w, _) => Slot::VA(vals.chunks(w).map(<[Value]>::to_vec).collect()),
    }
}

/// Reorder address-generation cost a scalar access on `edge` pays at the
/// consuming (`consuming = true`) or producing end, if the edge is
/// reordered on that side.
fn edge_addr_cost(graph: &Graph, edge: EdgeId, consuming: bool, machine: &Machine) -> u64 {
    let scalar_side = if consuming {
        ReorderSide::Consumer
    } else {
        ReorderSide::Producer
    };
    match graph.edge(edge).reorder {
        Some(r) if r.side == scalar_side => machine.reorder_access(r.addr_gen),
        _ => 0,
    }
}

/// Per-node firing facts that never change once the graph is built:
/// adjacent edges (as indices into the caller's tape slice), a filter's
/// reorder address costs and a native node's charge per firing.
/// [`fire_node`] is on the hot path of every engine; recomputing these
/// from the graph (an edge-table scan plus a `Vec` allocation per lookup)
/// on every firing dominates short firings, so each engine resolves them
/// once at construction.
///
/// Reorder address costs apply to the *scalar* side of a reordered tape:
/// the consumer side when the edge reorders reads, the producer side when
/// it reorders writes.
#[derive(Debug, Clone, Default)]
pub struct FirePlan {
    in_edge: Option<usize>,
    out_edge: Option<usize>,
    /// Reorder address costs of `in_edge` (consumer side) and `out_edge`
    /// (producer side); 0 on a side without a single edge.
    addr: AddrCosts,
    /// All input edges, sorted by port (joiners).
    in_idx: Vec<usize>,
    /// All output edges, sorted by port (splitters).
    out_idx: Vec<usize>,
    /// What one firing of a native node charges for the tokens it moves
    /// ([`moves_charge`]); zero for a filter.
    moves: CycleCounters,
}

impl FirePlan {
    /// The plan of node `id`, from its port-sorted edges.
    fn from_edges(
        graph: &Graph,
        id: NodeId,
        ins: &[EdgeId],
        outs: &[EdgeId],
        machine: &Machine,
    ) -> FirePlan {
        if !matches!(graph.node(id), Node::Filter(_)) {
            let mut elems = ins.iter().chain(outs).map(|&e| graph.edge(e).elem);
            let first = elems.next();
            assert!(
                elems.all(|elem| Some(elem) == first),
                "{} joins tapes of different element types",
                graph.node(id).name()
            );
        }
        let in_costs: Vec<u64> = ins
            .iter()
            .map(|&e| edge_addr_cost(graph, e, true, machine))
            .collect();
        let out_costs: Vec<u64> = outs
            .iter()
            .map(|&e| edge_addr_cost(graph, e, false, machine))
            .collect();
        let in_idx: Vec<usize> = ins.iter().map(|e| e.0 as usize).collect();
        let out_idx: Vec<usize> = outs.iter().map(|e| e.0 as usize).collect();
        // The "single edge" of a node is its only edge on that side.
        let single = |idx: &[usize], costs: &[u64]| match (idx, costs) {
            (&[e], &[cost]) => (Some(e), cost),
            _ => (None, 0),
        };
        let (in_edge, input) = single(&in_idx, &in_costs);
        let (out_edge, output) = single(&out_idx, &out_costs);
        let addr = AddrCosts { input, output };
        FirePlan {
            in_edge,
            out_edge,
            addr,
            in_idx,
            out_idx,
            moves: moves_charge(graph.node(id), machine, addr, &in_costs, &out_costs),
        }
    }

    /// One plan per node of `graph`, indexed by node id, from one pass
    /// over the edge table ([`Graph::adjacency`]).
    ///
    /// # Panics
    /// Panics if a native node's edges differ in element type: it moves
    /// images from tape to tape as they are, so a graph builder that
    /// connected them so has a bug.
    pub fn for_graph(graph: &Graph, machine: &Machine) -> Vec<FirePlan> {
        let adj = graph.adjacency();
        graph
            .node_ids()
            .map(|id| FirePlan::from_edges(graph, id, adj.ins(id), adj.outs(id), machine))
            .collect()
    }

    /// Tape index of the node's only input edge, if it has exactly one.
    pub fn in_edge(&self) -> Option<usize> {
        self.in_edge
    }

    /// Tape index of the node's only output edge, if it has exactly one.
    pub fn out_edge(&self) -> Option<usize> {
        self.out_edge
    }

    /// Tape indices of all input edges, sorted by port.
    pub fn in_tapes(&self) -> &[usize] {
        &self.in_idx
    }

    /// Tape indices of all output edges, sorted by port.
    pub fn out_tapes(&self) -> &[usize] {
        &self.out_idx
    }

    /// Tape indices of every adjacent edge, inputs first.
    pub fn tapes(&self) -> impl Iterator<Item = usize> + '_ {
        self.in_idx.iter().chain(&self.out_idx).copied()
    }

    /// True when a tape of [`FirePlan::tapes`] is poisoned. A node with at
    /// most one edge on each side — a filter, a sink — is checked through
    /// its single edges, without a walk of the edge lists.
    #[inline]
    pub fn poisoned(&self, tapes: &[Tape]) -> bool {
        let hit = |t: Option<usize>| t.is_some_and(|t| tapes[t].is_poisoned());
        if self.in_idx.len() <= 1 && self.out_idx.len() <= 1 {
            hit(self.in_edge) || hit(self.out_edge)
        } else {
            self.tapes().any(|t| tapes[t].is_poisoned())
        }
    }
}

/// One tape per edge of `graph`, indexed by edge id, with each reordered
/// edge's read or write remapping installed.
pub fn graph_tapes(graph: &Graph) -> Vec<Tape> {
    graph
        .edges()
        .map(|(_, e)| {
            let mut tape = Tape::new(e.elem);
            match e.reorder {
                Some(r) if r.side == ReorderSide::Consumer => tape.set_read_reorder(r.rate, r.sw),
                Some(r) => tape.set_write_reorder(r.rate, r.sw),
                None => {}
            }
            tape
        })
        .collect()
}

/// Fire `node` `k` times in a row against `tapes` — the one implementation
/// of a firing, shared by the sequential executor, the session engine and
/// the threaded workers. Values a sink captures are appended to `sunk`
/// for the caller to route.
///
/// The block is one envelope: the poison check, the tape borrows, the
/// element-type check and the unwind boundary are paid once, and the `k`
/// firings run inside them as `k` single firings would have. A block of
/// any node kind that touches a poisoned tape is refused before its first
/// firing ([`VmError::Poisoned`]). The first firing that fails returns
/// its error (a filter's also poisons both its tapes); the firings before
/// it stand, and `completed` says how many they are — on success (`k`),
/// on an error and when a native node unwinds through here alike — so a
/// supervisor can name the firing that failed.
///
/// # Errors
/// [`VmError::Poisoned`] for any node kind; interpreter failures from
/// filters (the native nodes cannot fail otherwise).
#[allow(clippy::too_many_arguments)]
pub fn fire_block(
    plan: &FirePlan,
    node: &Node,
    state: &mut FilterState,
    tapes: &mut [Tape],
    machine: &Machine,
    counters: &mut CycleCounters,
    k: u64,
    sunk: &mut Vec<Value>,
    completed: &mut u64,
) -> Result<(), VmError> {
    *completed = 0;
    if k == 0 {
        return Ok(());
    }
    let result = if plan.poisoned(tapes) {
        Err(VmError::Poisoned {
            filter: node.name(),
        })
    } else {
        match node {
            Node::Filter(f) => fire_filter(f, state, tapes, plan, machine, counters, k, completed),
            Node::Sink => {
                fire_sink(tapes, plan, k, sunk, completed);
                Ok(())
            }
            Node::Splitter(kind) => each_firing(k, completed, || {
                fire_splitter(kind, tapes, plan);
                Ok(())
            }),
            Node::Joiner(weights) => each_firing(k, completed, || {
                fire_joiner(weights, tapes, plan);
                Ok(())
            }),
            Node::HSplitter { kind, width } => each_firing(k, completed, || {
                fire_hsplitter(kind, *width, tapes, plan);
                Ok(())
            }),
            Node::HJoiner { weights, width } => each_firing(k, completed, || {
                fire_hjoiner(weights, *width, tapes, plan);
                Ok(())
            }),
        }
    };
    // Every firing that began pays its overhead (after a failure, the
    // completed ones and the failed one) and every completed one its token
    // moves; a filter's body charged itself as it ran.
    let began = if result.is_ok() { k } else { *completed + 1 };
    let overhead = machine.firing().times(began).expect(OVERFLOW);
    overhead.apply(counters, AddrCosts::default());
    counters.absorb(&plan.moves.times(*completed).expect(OVERFLOW));
    result
}

const OVERFLOW: &str = "cycle counters overflow u64";

/// What one firing of native node `node` charges for the tokens it moves,
/// at the reorder address costs of its edges: `addr` for its single edge
/// on a side, `ins` / `outs` per edge by port. A filter's body is charged
/// as it runs, so its entry is zero.
fn moves_charge(
    node: &Node,
    m: &Machine,
    addr: AddrCosts,
    ins: &[u64],
    outs: &[u64],
) -> CycleCounters {
    let mut c = CycleCounters::default();
    let mut add = |e: ChargeEntry, n: usize, input: u64, output: u64| {
        let e = e.times(n as u64).expect(OVERFLOW);
        e.apply(&mut c, AddrCosts { input, output });
    };
    let (pop, push) = (m.tape_pop(), m.tape_push());
    match node {
        Node::Filter(_) => {}
        Node::Sink => add(pop, 1, addr.input, 0),
        Node::Splitter(SplitKind::Duplicate) => {
            add(pop, 1, addr.input, 0);
            outs.iter().for_each(|&out| add(push, 1, 0, out));
        }
        Node::Splitter(SplitKind::RoundRobin(weights)) => {
            for (&n, &out) in weights.iter().zip(outs) {
                add(pop + push, n, addr.input, out);
            }
        }
        Node::Joiner(weights) => {
            for (&n, &input) in weights.iter().zip(ins) {
                add(pop + push, n, input, addr.output);
            }
        }
        // The H-nodes read and write scalars at a plain load and store,
        // with no reorder address cost, and pack or unpack every lane.
        Node::HSplitter {
            kind: SplitKind::Duplicate,
            ..
        } => {
            add(m.load(false), 1, 0, 0);
            add(m.splat() + m.store(true), outs.len(), 0, 0);
        }
        Node::HSplitter {
            kind: SplitKind::RoundRobin(weights),
            width,
        } => {
            let vectors = outs.len() * weights[0];
            add(m.load(false) + m.lane_insert(), vectors * width, 0, 0);
            add(m.store(true), vectors, 0, 0);
        }
        Node::HJoiner { weights, width } => {
            let vectors = ins.len() * weights[0];
            add(m.load(true), vectors, 0, 0);
            add(m.lane_extract() + m.store(false), vectors * width, 0, 0);
        }
    }
    c
}

/// [`fire_block`] of one firing — what an engine with a per-firing
/// envelope of its own (faults, heartbeats, a watchdog) calls.
///
/// # Errors
/// As [`fire_block`].
#[inline]
pub fn fire_node(
    plan: &FirePlan,
    node: &Node,
    state: &mut FilterState,
    tapes: &mut [Tape],
    machine: &Machine,
    counters: &mut CycleCounters,
    sunk: &mut Vec<Value>,
) -> Result<(), VmError> {
    fire_block(plan, node, state, tapes, machine, counters, 1, sunk, &mut 0)
}

/// A block's count of completed firings: kept in a register while the
/// block runs and written out when dropped, which a return, a `?` and an
/// unwind all do — the success path pays an increment, and the index of a
/// failed firing exists only where someone reads it.
struct Tally<'a> {
    n: u64,
    out: &'a mut u64,
}

impl Drop for Tally<'_> {
    fn drop(&mut self) {
        *self.out = self.n;
    }
}

/// Run `fire` `k` times, stopping at its first error, and leave in
/// `completed` how many calls returned `Ok`.
#[inline(always)]
fn each_firing(
    k: u64,
    completed: &mut u64,
    mut fire: impl FnMut() -> Result<(), VmError>,
) -> Result<(), VmError> {
    let mut done = Tally {
        n: 0,
        out: completed,
    };
    while done.n < k {
        fire()?;
        done.n += 1;
    }
    Ok(())
}

/// Render a caught panic payload as text (best effort).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Exclusive borrows of the tapes at `i` and `j` (distinct: they are
/// different edges of one node).
fn tape_pair(tapes: &mut [Tape], i: usize, j: usize) -> (&mut Tape, &mut Tape) {
    assert_ne!(i, j, "a node's tapes must be distinct edges");
    if i < j {
        let (lo, hi) = tapes.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = tapes.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// [`tape_pair`] where either tape may be absent.
fn two_tapes(
    tapes: &mut [Tape],
    a: Option<usize>,
    b: Option<usize>,
) -> (Option<&mut Tape>, Option<&mut Tape>) {
    match (a, b) {
        (Some(i), Some(j)) => {
            let (x, y) = tape_pair(tapes, i, j);
            (Some(x), Some(y))
        }
        (Some(i), None) => (Some(&mut tapes[i]), None),
        (None, Some(j)) => (None, Some(&mut tapes[j])),
        (None, None) => (None, None),
    }
}

/// Fire a filter `k` times: per firing, reset locals and run `work`
/// against the plan's input and output tapes.
///
/// The block is a failure boundary: a compiled plan is held to the
/// element types of the tapes it is handed ([`VmError::TypeMismatch`] —
/// its tape ops move images and trust them), and a panic in the body is
/// caught and converted ([`VmError::Panicked`]) so a bad guest program
/// fails one firing instead of unwinding through a host worker thread.
///
/// # Errors
/// Propagates interpreter failures; the tapes are restored either way.
// Out of line, as it was when each engine called it directly: inlined
// into `fire_block`, the unwind boundary lands in every engine's dispatch
// body (measured 4–11 % slower on the suite_e2e workloads).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn fire_filter(
    filter: &Filter,
    state: &mut FilterState,
    tapes: &mut [Tape],
    plan: &FirePlan,
    machine: &Machine,
    counters: &mut CycleCounters,
    k: u64,
    completed: &mut u64,
) -> Result<(), VmError> {
    let (mut in_tape, mut out_tape) = two_tapes(tapes, plan.in_edge, plan.out_edge);
    let FilterState {
        slots,
        chans,
        regs,
        fifos,
        engine,
    } = state;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Engine::Compiled(compiled) = engine {
            let agrees = |ty: Option<ScalarTy>, tape: Option<&Tape>| match (ty, tape) {
                (Some(ty), Some(tape)) => ty == tape.elem(),
                _ => true,
            };
            if !agrees(compiled.in_elem, in_tape.as_deref())
                || !agrees(compiled.out_elem, out_tape.as_deref())
            {
                return Err(VmError::TypeMismatch {
                    filter: filter.name.clone(),
                    context: "compiled against tapes of other element types".into(),
                });
            }
            each_firing(k, completed, || {
                compiled.zero_locals(regs);
                run_code(
                    compiled,
                    &compiled.work,
                    regs,
                    fifos,
                    in_tape.as_deref_mut(),
                    out_tape.as_deref_mut(),
                    plan.addr,
                    counters,
                )
            })
        } else {
            each_firing(k, completed, || {
                reset_locals(filter, slots);
                let mut ctx = FiringCtx {
                    filter,
                    slots,
                    chans,
                    input: in_tape.as_deref_mut(),
                    output: out_tape.as_deref_mut(),
                    machine,
                    counters,
                    addr: plan.addr,
                };
                ctx.exec_block(&filter.work)
            })
        }
    }))
    .unwrap_or_else(|payload| {
        Err(VmError::Panicked {
            filter: filter.name.clone(),
            message: panic_message(payload.as_ref()),
        })
    });
    // A failed firing may have left a torn write prefix behind; quarantine
    // it so downstream firings refuse the edge instead of consuming it.
    if result.is_err() {
        if let Some(t) = in_tape {
            t.poison();
        }
        if let Some(t) = out_tape {
            t.poison();
        }
    }
    result?;
    debug_assert!(
        chans.iter().all(|c| c.is_empty()) && fifos.iter().all(Chan::is_empty),
        "filter {} left data in an internal channel after firing",
        filter.name
    );
    Ok(())
}

/// Fire a splitter once. Tokens move between tapes as the images they are.
fn fire_splitter(kind: &SplitKind, tapes: &mut [Tape], plan: &FirePlan) {
    let in_edge = plan.in_edge.expect("splitter needs an input");
    match kind {
        SplitKind::Duplicate => {
            let v = tapes[in_edge].pop_raw();
            for &e in &plan.out_idx {
                tapes[e].push_raw(v);
            }
        }
        SplitKind::RoundRobin(weights) => {
            for (i, &e) in plan.out_idx.iter().enumerate() {
                let (src, dst) = tape_pair(tapes, in_edge, e);
                src.pop_spans(weights[i], |span| dst.push_slice(span));
            }
        }
    }
}

/// Fire a round-robin joiner once.
fn fire_joiner(weights: &[usize], tapes: &mut [Tape], plan: &FirePlan) {
    let out_edge = plan.out_edge.expect("joiner needs an output");
    for (i, &e) in plan.in_idx.iter().enumerate() {
        let (src, dst) = tape_pair(tapes, e, out_edge);
        src.pop_spans(weights[i], |span| dst.push_slice(span));
    }
}

/// Fire a horizontal splitter once: takes the original splitter's worth of
/// scalars off its input, packs them into vectors (one lane per fused
/// branch), and vector-pushes to each group's vector tape.
fn fire_hsplitter(kind: &SplitKind, width: usize, tapes: &mut [Tape], plan: &FirePlan) {
    let in_edge = plan.in_edge.expect("hsplitter needs an input");
    let out_edges = &plan.out_idx;
    match kind {
        SplitKind::Duplicate => {
            let v = tapes[in_edge].pop_raw();
            for &e in out_edges {
                tapes[e].vpush_many(width, |_| v);
            }
        }
        SplitKind::RoundRobin(weights) => {
            let w = weights[0];
            debug_assert!(
                weights.iter().all(|&x| x == w),
                "hsplitter weights must be uniform"
            );
            // Branch `g * width + j` owns `w` consecutive input tokens;
            // its `k`-th is lane `j` of group `g`'s `k`-th vector.
            for (g, &e) in out_edges.iter().enumerate() {
                let (src, dst) = tape_pair(tapes, in_edge, e);
                for k in 0..w {
                    dst.vpush_many(width, |j| src.peek_raw(w * (g * width + j) + k));
                }
            }
            tapes[in_edge].advance_read(out_edges.len() * width * w);
        }
    }
}

/// Fire a horizontal joiner once: vector-pops from each group, unpacks
/// lanes, and pushes scalars in the original joiner's round-robin order.
fn fire_hjoiner(weights: &[usize], width: usize, tapes: &mut [Tape], plan: &FirePlan) {
    let out_edge = plan.out_edge.expect("hjoiner needs an output");
    let w = weights[0];
    debug_assert!(
        weights.iter().all(|&x| x == w),
        "hjoiner weights must be uniform"
    );
    for &e in &plan.in_idx {
        let (src, dst) = tape_pair(tapes, e, out_edge);
        // The group's `w` vectors, popped as one span: branch `j`'s
        // `k`-th token is lane `j` of vector `k`.
        let (a, b) = src.vpop_slices(w * width);
        for j in 0..width {
            for at in (j..w * width).step_by(width) {
                dst.push_raw(if at < a.len() { a[at] } else { b[at - a.len()] });
            }
        }
    }
}

/// Fire a sink `k` times: pop `k` values off its input tape as a span and
/// append them to `sunk` — the one place a sequential run decodes images.
/// A sink firing is one token, so `completed` is the tokens captured.
fn fire_sink(
    tapes: &mut [Tape],
    plan: &FirePlan,
    k: u64,
    sunk: &mut Vec<Value>,
    completed: &mut u64,
) {
    let tape = &mut tapes[plan.in_edge.expect("sink needs an input")];
    let elem = tape.elem();
    let mut done = Tally {
        n: 0,
        out: completed,
    };
    tape.pop_spans(k as usize, |span| {
        sunk.extend(span.iter().map(|&raw| value_of(elem, raw)));
        done.n += span.len() as u64;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Op;
    use macross_streamir::expr::BinOp;

    #[test]
    #[should_panic(expected = "joins tapes of different element types")]
    fn a_native_node_between_tapes_of_two_types_is_refused_when_planned() {
        let mut g = Graph::new();
        let src = g.add_node(Node::filter(Filter::new("src", 0, 0, 1)));
        let join = g.add_node(Node::Joiner(vec![1]));
        let sink = g.add_node(Node::Sink);
        g.connect(src, 0, join, 0, ScalarTy::I32);
        g.connect(join, 0, sink, 0, ScalarTy::F32);
        FirePlan::for_graph(&g, &Machine::core_i7());
    }

    /// A poisoned tape is refused by a block of any node kind, before its
    /// first firing touches anything: a splitter, a joiner and a sink alike
    /// fail by their own name with nothing popped or pushed.
    #[test]
    fn a_block_of_any_node_kind_refuses_a_poisoned_tape() {
        let mut g = Graph::new();
        let src = g.add_node(Node::filter(Filter::new("src", 0, 0, 2)));
        let split = g.add_node(Node::Splitter(SplitKind::RoundRobin(vec![1, 1])));
        let join = g.add_node(Node::Joiner(vec![1, 1]));
        let sink = g.add_node(Node::Sink);
        g.connect(src, 0, split, 0, ScalarTy::I32);
        g.connect(split, 0, join, 0, ScalarTy::I32);
        g.connect(split, 1, join, 1, ScalarTy::I32);
        g.connect(join, 0, sink, 0, ScalarTy::I32);
        let machine = Machine::core_i7();
        for (id, poisoned) in [(split, 0), (join, 2), (sink, 3), (split, 2)] {
            let mut tapes = graph_tapes(&g);
            tapes
                .iter_mut()
                .for_each(|t| (0..4).for_each(|i| t.push_raw(i)));
            tapes[poisoned].poison();
            let (mut done, mut sunk) = (7, Vec::new());
            let err = fire_block(
                &FirePlan::for_graph(&g, &machine)[id.0 as usize],
                g.node(id),
                &mut FilterState::default(),
                &mut tapes,
                &machine,
                &mut CycleCounters::default(),
                2,
                &mut sunk,
                &mut done,
            )
            .expect_err("a poisoned tape is refused");
            let name = g.node(id).name();
            assert!(
                matches!(&err, VmError::Poisoned { filter } if *filter == name),
                "{err:?}"
            );
            assert_eq!(done, 0, "{name}");
            assert!(sunk.is_empty(), "{name}");
            assert!(tapes.iter().all(|t| t.stats() == (4, 0)), "{name}");
        }
    }

    /// A compiled plan moves images and trusts them, so a block refuses
    /// tapes of other element types than it was compiled against — once,
    /// before the first firing touches either.
    #[test]
    fn a_plan_compiled_for_other_tapes_is_refused_at_the_block_boundary() {
        let mut g = Graph::new();
        let src = g.add_node(Node::filter(Filter::new("src", 0, 0, 1)));
        let f = g.add_node(Node::filter(Filter::new("f", 1, 1, 1)));
        let sink = g.add_node(Node::Sink);
        g.connect(src, 0, f, 0, ScalarTy::F32);
        g.connect(f, 0, sink, 0, ScalarTy::F32);
        let machine = Machine::core_i7();
        let plan = FirePlan::for_graph(&g, &machine).swap_remove(f.0 as usize);
        let Node::Filter(filter) = g.node(f) else {
            unreachable!()
        };
        for (in_elem, out_elem) in [
            (Some(ScalarTy::I32), Some(ScalarTy::F32)),
            (Some(ScalarTy::F32), Some(ScalarTy::F64)),
        ] {
            let compiled = CompiledFilter {
                in_elem,
                out_elem,
                ..CompiledFilter::bare("f", 0, 0, vec![])
            };
            let mut state = FilterState::from_shared(filter, Some(Arc::new(compiled)));
            let mut tapes = graph_tapes(&g);
            let err = fire_block(
                &plan,
                g.node(f),
                &mut state,
                &mut tapes,
                &machine,
                &mut CycleCounters::default(),
                3,
                &mut Vec::new(),
                &mut 0,
            )
            .expect_err("element types disagree");
            assert!(
                matches!(&err, VmError::TypeMismatch { filter, .. } if filter == "f"),
                "{err:?}"
            );
            assert!(tapes.iter().all(Tape::is_poisoned));
        }
    }

    /// A vector operand outside the register file is a guest fault like
    /// any other: the lane loop's window check panics, the firing
    /// boundary reports it and quarantines both tapes.
    #[test]
    fn out_of_file_vector_operand_fails_the_firing_and_poisons_both_tapes() {
        let mut g = Graph::new();
        let src = g.add_node(Node::filter(Filter::new("src", 0, 0, 1)));
        let f = g.add_node(Node::filter(Filter::new("wild", 1, 1, 1)));
        let sink = g.add_node(Node::Sink);
        g.connect(src, 0, f, 0, ScalarTy::F32);
        g.connect(f, 0, sink, 0, ScalarTy::F32);
        let machine = Machine::core_i7();
        let plan = FirePlan::for_graph(&g, &machine).swap_remove(f.0 as usize);
        let mut tapes = graph_tapes(&g);

        for (dst, a) in [(0, 1000), (1000, 0), (13, 0)] {
            let op = Op::VBinF {
                op: BinOp::Add,
                ty: ScalarTy::F32,
                dst,
                a,
                b: 4,
                w: 4,
            };
            let wild = CompiledFilter::bare("wild", 0, 16, vec![op]);
            let Node::Filter(filter) = g.node(f) else {
                unreachable!()
            };
            let mut state = FilterState::from_shared(filter, Some(Arc::new(wild)));
            tapes.iter_mut().for_each(Tape::clear_poison);
            let mut counters = CycleCounters::default();
            let err = fire_node(
                &plan,
                g.node(f),
                &mut state,
                &mut tapes,
                &machine,
                &mut counters,
                &mut Vec::new(),
            )
            .expect_err("the window lies outside the file");
            assert!(
                matches!(&err, VmError::Panicked { filter, .. } if filter == "wild"),
                "{err:?}"
            );
            assert!(tapes.iter().all(Tape::is_poisoned), "dst {dst} a {a}");
        }
    }
}
