//! Graph-level sets of compiled filter plans, shareable across executors.
//!
//! [`CompiledPrograms`] is the unit the service layer's compile-once cache
//! stores: every filter of a graph compiled exactly once for the chosen
//! [`ExecMode`], behind `Arc`s so any number of concurrent sessions can
//! instantiate fresh [`FilterState`]s without re-running the firing
//! compiler. `Clone` is cheap — it clones the
//! `Arc`s, never the bytecode.

use crate::bytecode::CompiledFilter;
use crate::exec::ExecMode;
use crate::firing::FilterState;
use crate::machine::Machine;
use macross_streamir::graph::{Graph, Node, NodeId};
use std::sync::Arc;

/// Every filter of one graph compiled once for one engine mode.
///
/// Indexed by [`NodeId`]; non-filter nodes and tree-walk mode hold `None`
/// (those fire natively or through the interpreter and need no plan).
#[derive(Debug, Clone)]
pub struct CompiledPrograms {
    mode: ExecMode,
    plans: Vec<Option<Arc<CompiledFilter>>>,
}

impl CompiledPrograms {
    /// Run the firing compiler over every filter of `graph`.
    ///
    /// Element types for tape-typed opcodes come from each filter's
    /// single input/output edge, exactly as [`crate::Executor`] resolves
    /// them, so an executor built from these plans behaves identically to
    /// one built with [`crate::Executor::with_mode`].
    pub fn compile(graph: &Graph, machine: &Machine, mode: ExecMode) -> CompiledPrograms {
        let plans = graph
            .nodes()
            .map(|(id, node)| match node {
                Node::Filter(f) => {
                    let in_elem = graph.single_in_edge(id).map(|e| graph.edge(e).elem);
                    let out_elem = graph.single_out_edge(id).map(|e| graph.edge(e).elem);
                    FilterState::compile_plan(f, machine, in_elem, out_elem, mode)
                }
                _ => None,
            })
            .collect();
        CompiledPrograms { mode, plans }
    }

    /// The engine mode these plans were compiled for.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Number of graph nodes covered (filters and non-filters alike).
    pub fn node_count(&self) -> usize {
        self.plans.len()
    }

    /// The shared plan for `id`, if that node is a compiled filter.
    pub fn plan(&self, id: NodeId) -> Option<&Arc<CompiledFilter>> {
        self.plans[id.0 as usize].as_ref()
    }

    /// Fresh per-session firing state for `id` (empty for non-filters),
    /// sharing this set's compiled plan.
    pub fn state_for(&self, id: NodeId, node: &Node) -> FilterState {
        match node {
            Node::Filter(f) => FilterState::from_shared(f, self.plans[id.0 as usize].clone()),
            _ => FilterState::default(),
        }
    }

    /// Number of filters that actually compiled (the rest tree-walk).
    pub fn compiled_count(&self) -> usize {
        self.plans.iter().flatten().count()
    }
}
