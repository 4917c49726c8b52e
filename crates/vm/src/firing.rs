//! The reentrant firing path.
//!
//! [`fire_node`] fires one node once against a caller-supplied tape
//! slice, shared by the single-threaded [`crate::exec::Executor`] and the
//! session engine and worker threads of `macross-runtime`. All state is
//! passed in explicitly ([`FilterState`] is plain owned data and therefore
//! `Send`), so a worker thread can own the states of exactly the filters
//! assigned to its core and fire them against thread-local tapes.

use crate::bytecode::{run_code, CompiledFilter, Regs};
use crate::compile::compile_filter_opts;
use crate::error::VmError;
use crate::exec::ExecMode;
use crate::interp::{reset_locals, zero_slots, FiringCtx, Slot};
use crate::machine::{CycleCounters, Machine};
use crate::tape::Tape;
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::graph::{EdgeId, Graph, Node, NodeId, ReorderSide, SplitKind};
use macross_streamir::types::{ScalarTy, Ty, Value};
use macross_streamir::AddrGen;
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
/// worker thread that hosts the filter.
#[derive(Debug, Clone, Default)]
pub struct FilterState {
    /// Variable storage, indexed by `VarId` (tree-walking engine).
    pub slots: Vec<Slot>,
    /// Internal channel storage, indexed by `ChanId`.
    pub chans: Vec<VecDeque<Value>>,
    /// Unboxed register files (bytecode engine).
    regs: Regs,
    engine: Engine,
}

impl FilterState {
    /// Zero-initialized state for a filter (tree-walking engine).
    pub fn new(filter: &Filter) -> FilterState {
        FilterState {
            slots: zero_slots(filter),
            chans: vec![VecDeque::new(); filter.chans.len()],
            regs: Regs::default(),
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
        let fuse = match mode {
            ExecMode::Bytecode => Some(true),
            ExecMode::BytecodeNoFuse => Some(false),
            ExecMode::TreeWalk => None,
        }?;
        compile_filter_opts(filter, in_elem, out_elem, machine, fuse).map(Arc::new)
    }

    /// Zero-initialized state firing through an already-compiled shared
    /// plan (`None` selects the tree-walking engine). Only the `Arc` is
    /// cloned — many concurrent sessions of the same graph shape share
    /// one compilation. Behaviour is identical to
    /// [`FilterState::prepared`] with the mode the plan was compiled for.
    pub fn from_shared(filter: &Filter, plan: Option<Arc<CompiledFilter>>) -> FilterState {
        let mut state = FilterState::new(filter);
        if let Some(plan) = plan {
            state.regs = plan.new_regs();
            state.engine = Engine::Compiled(plan);
        }
        state
    }

    /// True when this state fires through compiled bytecode.
    pub fn is_compiled(&self) -> bool {
        matches!(self.engine, Engine::Compiled(_))
    }

    /// Number of fused superblock kernels in the compiled plan (0 when
    /// tree-walking or fusion is off) — telemetry's kernel-fusion trace.
    pub fn kernel_count(&self) -> usize {
        match &self.engine {
            Engine::Compiled(plan) => plan.kernels.len(),
            Engine::Tree => 0,
        }
    }

    /// Export the values of the filter's `State` variables, flattened in
    /// declaration order (vector-arrays row-major: all lanes of row 0,
    /// then row 1, ...). Exact in both engines: the tree-walker stores
    /// `Value`s directly, and the bytecode register files hold `i32`
    /// sign-extended to `i64` / `f32` exactly widened to `f64`, so
    /// narrowing back through the declared element type loses nothing.
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
                        out.push(if float {
                            narrow_float(elem, self.regs.f[k as usize])
                        } else {
                            narrow_int(elem, self.regs.i[k as usize])
                        });
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
    /// filter with identical `State` declarations. Both engines' storage
    /// is updated so a subsequent export round-trips.
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
            if !chunk.iter().all(|v| value_matches(elem, *v)) {
                return Err(mismatch(format!(
                    "state carrier element type mismatch for '{}'",
                    decl.name
                )));
            }
            cursor += len;
            self.slots[i] = unflatten_slot(decl.ty, chunk);
            if let Engine::Compiled(plan) = &self.engine {
                let (base, window, float) = plan.var_windows[i];
                debug_assert_eq!(window as usize, len);
                for (k, v) in chunk.iter().enumerate() {
                    if float {
                        self.regs.f[base as usize + k] = widen_float(*v);
                    } else {
                        self.regs.i[base as usize + k] = widen_int(*v);
                    }
                }
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
    /// # Errors
    /// Propagates interpreter failures from the `init` body.
    pub fn run_init_fn(&mut self, filter: &Filter, machine: &Machine) -> Result<(), VmError> {
        if filter.init.is_empty() {
            return Ok(());
        }
        let mut scratch = CycleCounters::default();
        if let Engine::Compiled(plan) = &self.engine {
            let plan = Arc::clone(plan);
            return run_code(
                &plan,
                &plan.init,
                &mut self.regs,
                &mut self.chans,
                None,
                None,
                0,
                0,
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
            input_addr_cost: 0,
            output_addr_cost: 0,
        };
        ctx.exec_block(&filter.init)
    }
}

fn value_matches(t: ScalarTy, v: Value) -> bool {
    matches!(
        (t, v),
        (ScalarTy::I32, Value::I32(_))
            | (ScalarTy::I64, Value::I64(_))
            | (ScalarTy::F32, Value::F32(_))
            | (ScalarTy::F64, Value::F64(_))
    )
}

fn widen_int(v: Value) -> i64 {
    match v {
        Value::I32(x) => x as i64,
        Value::I64(x) => x,
        _ => unreachable!("int window holds int values"),
    }
}

fn widen_float(v: Value) -> f64 {
    match v {
        Value::F32(x) => x as f64,
        Value::F64(x) => x,
        _ => unreachable!("float window holds float values"),
    }
}

fn narrow_int(t: ScalarTy, raw: i64) -> Value {
    match t {
        ScalarTy::I32 => Value::I32(raw as i32),
        ScalarTy::I64 => Value::I64(raw),
        _ => unreachable!("int window narrows to an int type"),
    }
}

fn narrow_float(t: ScalarTy, raw: f64) -> Value {
    match t {
        ScalarTy::F32 => Value::F32(raw as f32),
        ScalarTy::F64 => Value::F64(raw),
        _ => unreachable!("float window narrows to a float type"),
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
        Some(r) if r.side == scalar_side => match r.addr_gen {
            AddrGen::Sagu => machine.cost.sagu_access,
            AddrGen::Software => machine.cost.addr_software_reorder,
        },
        _ => 0,
    }
}

/// Per-node firing facts that never change once the graph is built:
/// adjacent edges (as indices into the caller's tape slice) and their
/// reorder address costs. [`fire_node`] is on the hot path of every
/// engine; recomputing these from the graph (an edge-table scan plus a
/// `Vec` allocation per lookup) on every firing dominates short firings,
/// so each engine resolves them once at construction.
///
/// Reorder address costs apply to the *scalar* side of a reordered tape:
/// the consumer side when the edge reorders reads, the producer side when
/// it reorders writes.
#[derive(Debug, Clone)]
pub struct FirePlan {
    in_edge: Option<usize>,
    out_edge: Option<usize>,
    /// Consumer-side reorder address cost of `in_edge` (0 without one).
    in_cost: u64,
    /// Producer-side reorder address cost of `out_edge` (0 without one).
    out_cost: u64,
    /// All input edges, sorted by port (joiners).
    in_idx: Vec<usize>,
    /// All output edges, sorted by port (splitters).
    out_idx: Vec<usize>,
    /// Consumer-side address cost per entry of `in_idx`.
    in_costs: Vec<u64>,
    /// Producer-side address cost per entry of `out_idx`.
    out_costs: Vec<u64>,
}

impl FirePlan {
    /// Resolve the plan of node `id`.
    pub fn compute(graph: &Graph, id: NodeId, machine: &Machine) -> FirePlan {
        let ins = graph.in_edges(id);
        let outs = graph.out_edges(id);
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
        let (in_edge, in_cost) = single(&in_idx, &in_costs);
        let (out_edge, out_cost) = single(&out_idx, &out_costs);
        FirePlan {
            in_edge,
            out_edge,
            in_cost,
            out_cost,
            in_idx,
            out_idx,
            in_costs,
            out_costs,
        }
    }

    /// One plan per node of `graph`, indexed by node id.
    pub fn for_graph(graph: &Graph, machine: &Machine) -> Vec<FirePlan> {
        graph
            .node_ids()
            .map(|id| FirePlan::compute(graph, id, machine))
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

    /// Tape indices of all output edges, sorted by port.
    pub fn out_tapes(&self) -> &[usize] {
        &self.out_idx
    }

    /// Tape indices of every adjacent edge, inputs first.
    pub fn tapes(&self) -> impl Iterator<Item = usize> + '_ {
        self.in_idx.iter().chain(&self.out_idx).copied()
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

/// Fire `node` once against `tapes` — the one implementation of a firing,
/// shared by the sequential executor, the session engine and the threaded
/// workers. Returns the value a sink captured (`None` for every other
/// node kind) for the caller to route.
///
/// # Errors
/// Propagates interpreter failures (filters only; the native nodes cannot
/// fail).
#[inline]
pub fn fire_node(
    plan: &FirePlan,
    node: &Node,
    state: &mut FilterState,
    tapes: &mut [Tape],
    machine: &Machine,
    counters: &mut CycleCounters,
) -> Result<Option<Value>, VmError> {
    counters.firing_overhead += machine.cost.firing;
    match node {
        Node::Filter(f) => fire_filter(f, state, tapes, plan, machine, counters)?,
        Node::Splitter(kind) => fire_splitter(kind, tapes, plan, machine, counters),
        Node::Joiner(weights) => fire_joiner(weights, tapes, plan, machine, counters),
        Node::HSplitter { kind, width } => {
            fire_hsplitter(kind, *width, tapes, plan, machine, counters)
        }
        Node::HJoiner { weights, width } => {
            fire_hjoiner(weights, *width, tapes, plan, machine, counters)
        }
        Node::Sink => return Ok(Some(fire_sink(tapes, plan, machine, counters))),
    }
    Ok(None)
}

/// Render a caught panic payload as text (best effort).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Disjoint mutable borrows of the tapes at `a` and `b` (which must be
/// distinct when both present — they are different edges of one node).
fn two_tapes(
    tapes: &mut [Tape],
    a: Option<usize>,
    b: Option<usize>,
) -> (Option<&mut Tape>, Option<&mut Tape>) {
    match (a, b) {
        (Some(i), Some(j)) if i < j => {
            let (lo, hi) = tapes.split_at_mut(j);
            (Some(&mut lo[i]), Some(&mut hi[0]))
        }
        (Some(i), Some(j)) => {
            assert_ne!(i, j, "input and output tape must be distinct edges");
            let (lo, hi) = tapes.split_at_mut(i);
            (Some(&mut hi[0]), Some(&mut lo[j]))
        }
        (Some(i), None) => (Some(&mut tapes[i]), None),
        (None, Some(j)) => (None, Some(&mut tapes[j])),
        (None, None) => (None, None),
    }
}

/// Fire a filter once: reset locals, run `work` against the plan's input
/// and output tapes.
///
/// The firing is a failure boundary: a poisoned tape is refused before it
/// is touched ([`VmError::Poisoned`]), and a panic in the body is caught
/// and converted ([`VmError::Panicked`]) so a bad guest program fails one
/// firing instead of unwinding through a host worker thread.
///
/// # Errors
/// Propagates interpreter failures; the tapes are restored either way.
// Out of line, as it was when each engine called it directly: inlined
// into `fire_node`, the unwind boundary lands in every engine's dispatch
// body (measured 4–11 % slower on the suite_e2e workloads).
#[inline(never)]
fn fire_filter(
    filter: &Filter,
    state: &mut FilterState,
    tapes: &mut [Tape],
    plan: &FirePlan,
    machine: &Machine,
    counters: &mut CycleCounters,
) -> Result<(), VmError> {
    if plan
        .in_edge
        .iter()
        .chain(plan.out_edge.iter())
        .any(|&e| tapes[e].is_poisoned())
    {
        return Err(VmError::Poisoned {
            filter: filter.name.clone(),
        });
    }
    let (mut in_tape, mut out_tape) = two_tapes(tapes, plan.in_edge, plan.out_edge);
    let FilterState {
        slots,
        chans,
        regs,
        engine,
    } = state;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Engine::Compiled(compiled) = engine {
            compiled.zero_locals(regs);
            run_code(
                compiled,
                &compiled.work,
                regs,
                chans,
                in_tape.as_deref_mut(),
                out_tape.as_deref_mut(),
                plan.in_cost,
                plan.out_cost,
                counters,
            )
        } else {
            reset_locals(filter, slots);
            let mut ctx = FiringCtx {
                filter,
                slots,
                chans,
                input: in_tape.as_deref_mut(),
                output: out_tape.as_deref_mut(),
                machine,
                counters,
                input_addr_cost: plan.in_cost,
                output_addr_cost: plan.out_cost,
            };
            ctx.exec_block(&filter.work)
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
        chans.iter().all(|c| c.is_empty()),
        "filter {} left data in an internal channel after firing",
        filter.name
    );
    Ok(())
}

/// Fire a splitter once.
fn fire_splitter(
    kind: &SplitKind,
    tapes: &mut [Tape],
    plan: &FirePlan,
    machine: &Machine,
    counters: &mut CycleCounters,
) {
    let in_edge = plan.in_edge.expect("splitter needs an input");
    match kind {
        SplitKind::Duplicate => {
            counters.mem_scalar += machine.cost.load;
            counters.addr_overhead += plan.in_cost;
            let v = tapes[in_edge].pop();
            for (&e, &cost) in plan.out_idx.iter().zip(&plan.out_costs) {
                counters.mem_scalar += machine.cost.store;
                counters.addr_overhead += cost;
                tapes[e].push(v);
            }
        }
        SplitKind::RoundRobin(weights) => {
            for (i, &e) in plan.out_idx.iter().enumerate() {
                for _ in 0..weights[i] {
                    counters.mem_scalar += machine.cost.load + machine.cost.store;
                    counters.addr_overhead += plan.in_cost + plan.out_costs[i];
                    let v = tapes[in_edge].pop();
                    tapes[e].push(v);
                }
            }
        }
    }
}

/// Fire a round-robin joiner once.
fn fire_joiner(
    weights: &[usize],
    tapes: &mut [Tape],
    plan: &FirePlan,
    machine: &Machine,
    counters: &mut CycleCounters,
) {
    let out_edge = plan.out_edge.expect("joiner needs an output");
    for (i, &e) in plan.in_idx.iter().enumerate() {
        for _ in 0..weights[i] {
            counters.mem_scalar += machine.cost.load + machine.cost.store;
            counters.addr_overhead += plan.in_costs[i] + plan.out_cost;
            let v = tapes[e].pop();
            tapes[out_edge].push(v);
        }
    }
}

/// Fire a horizontal splitter once: pops the original splitter's worth of
/// scalars, packs them into vectors (one lane per fused branch), and
/// vector-pushes to each group's vector tape.
fn fire_hsplitter(
    kind: &SplitKind,
    width: usize,
    tapes: &mut [Tape],
    plan: &FirePlan,
    machine: &Machine,
    counters: &mut CycleCounters,
) {
    let in_edge = plan.in_edge.expect("hsplitter needs an input");
    let out_edges = &plan.out_idx;
    let groups = out_edges.len();
    match kind {
        SplitKind::Duplicate => {
            counters.mem_scalar += machine.cost.load;
            let v = tapes[in_edge].pop();
            for &e in out_edges {
                counters.pack_unpack += machine.cost.splat;
                counters.mem_vector += machine.cost.vstore;
                tapes[e].vpush(&vec![v; width]);
            }
        }
        SplitKind::RoundRobin(weights) => {
            let w = weights[0];
            debug_assert!(
                weights.iter().all(|&x| x == w),
                "hsplitter weights must be uniform"
            );
            let n = groups * width;
            let mut vals = Vec::with_capacity(n * w);
            for _ in 0..n * w {
                counters.mem_scalar += machine.cost.load;
                vals.push(tapes[in_edge].pop());
            }
            for (g, &e) in out_edges.iter().enumerate() {
                for k in 0..w {
                    let mut vec = Vec::with_capacity(width);
                    for j in 0..width {
                        counters.pack_unpack += machine.cost.lane_insert;
                        vec.push(vals[w * (g * width + j) + k]);
                    }
                    counters.mem_vector += machine.cost.vstore;
                    tapes[e].vpush(&vec);
                }
            }
        }
    }
}

/// Fire a horizontal joiner once: vector-pops from each group, unpacks
/// lanes, and pushes scalars in the original joiner's round-robin order.
fn fire_hjoiner(
    weights: &[usize],
    width: usize,
    tapes: &mut [Tape],
    plan: &FirePlan,
    machine: &Machine,
    counters: &mut CycleCounters,
) {
    let out_edge = plan.out_edge.expect("hjoiner needs an output");
    let in_edges = &plan.in_idx;
    let w = weights[0];
    debug_assert!(
        weights.iter().all(|&x| x == w),
        "hjoiner weights must be uniform"
    );
    let groups = in_edges.len();
    // rows[g][k] = k-th vector popped from group g this firing.
    let mut rows: Vec<Vec<Vec<Value>>> = Vec::with_capacity(groups);
    for &e in in_edges {
        let mut group_rows = Vec::with_capacity(w);
        for _ in 0..w {
            counters.mem_vector += machine.cost.vload;
            group_rows.push(tapes[e].vpop(width));
        }
        rows.push(group_rows);
    }
    let n = groups * width;
    for b in 0..n {
        for row in &rows[b / width] {
            counters.pack_unpack += machine.cost.lane_extract;
            counters.mem_scalar += machine.cost.store;
            tapes[out_edge].push(row[b % width]);
        }
    }
}

/// Fire a sink once: pop one value from its input tape and return it for
/// the caller to record.
fn fire_sink(
    tapes: &mut [Tape],
    plan: &FirePlan,
    machine: &Machine,
    counters: &mut CycleCounters,
) -> Value {
    counters.mem_scalar += machine.cost.load;
    counters.addr_overhead += plan.in_cost;
    tapes[plan.in_edge.expect("sink needs an input")].pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Op;
    use macross_streamir::expr::BinOp;

    /// A vector operand outside the register file is a guest fault like
    /// any other: the lane loop's window check panics, the firing
    /// boundary reports it and quarantines both tapes.
    #[test]
    fn out_of_file_vector_operand_fails_the_firing_and_poisons_both_tapes() {
        let mut g = Graph::new();
        let src = g.add_node(Node::Filter(Filter::new("src", 0, 0, 1)));
        let f = g.add_node(Node::Filter(Filter::new("wild", 1, 1, 1)));
        let sink = g.add_node(Node::Sink);
        g.connect(src, 0, f, 0, ScalarTy::F32);
        g.connect(f, 0, sink, 0, ScalarTy::F32);
        let machine = Machine::core_i7();
        let plan = FirePlan::compute(&g, f, &machine);
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
