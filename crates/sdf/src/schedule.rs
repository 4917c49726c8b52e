//! Steady-state and initialization schedules (Figure 1b of the paper), and
//! per-tape buffer requirements.

use crate::repetition::{repetition_vector, RateMatchError};
use macross_streamir::graph::{Graph, GraphError, NodeId};
use std::fmt;

/// A complete execution plan for a stream graph.
///
/// The steady state executes nodes in topological order, each enclosed in a
/// for-loop running its repetition number of times — exactly the template of
/// Figure 1b. Peeking filters additionally require an *initialization*
/// phase that primes their input tapes with `peek - pop` slack tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Topological execution order.
    pub order: Vec<NodeId>,
    /// Steady-state repetition number per node (indexed by node id).
    pub reps: Vec<u64>,
    /// Initialization firings per node (indexed by node id), executed once
    /// before the first steady-state iteration.
    pub init_reps: Vec<u64>,
}

/// Errors from scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Rate matching failed.
    Rates(RateMatchError),
    /// The graph is structurally invalid.
    Graph(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Rates(e) => write!(f, "rate matching failed: {e}"),
            ScheduleError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<RateMatchError> for ScheduleError {
    fn from(e: RateMatchError) -> Self {
        ScheduleError::Rates(e)
    }
}

impl From<GraphError> for ScheduleError {
    fn from(e: GraphError) -> Self {
        ScheduleError::Graph(e.to_string())
    }
}

impl Schedule {
    /// Compute the steady-state schedule of a graph.
    ///
    /// # Errors
    /// Fails when the graph is cyclic/invalid or its rates are inconsistent.
    pub fn compute(graph: &Graph) -> Result<Schedule, ScheduleError> {
        let order = graph.validated_order()?;
        let reps = repetition_vector(graph)?;
        let init_reps = compute_init_reps(graph, &order);
        Ok(Schedule {
            order,
            reps,
            init_reps,
        })
    }

    /// Repetition number of a node.
    pub fn rep(&self, id: NodeId) -> u64 {
        self.reps[id.0 as usize]
    }

    /// Scale the entire repetition vector by `m` (used by the SIMDizer's
    /// Equation-1 adjustment). The init schedule is unaffected: priming
    /// tokens depend only on peek slack, not on steady-state length.
    /// Saturates at `u64::MAX` instead of wrapping: an adversarial
    /// multiplier yields a uselessly-huge but *ordered* schedule rather
    /// than one that silently wrapped to a few firings.
    pub fn scale(&mut self, m: u64) {
        for r in &mut self.reps {
            *r = r.saturating_mul(m);
        }
    }

    /// Total firings in one steady-state iteration, saturating at
    /// `u64::MAX` (adversarial repetition vectors must not wrap to a
    /// small total and fool cost models or drain bounds).
    pub fn total_firings(&self) -> u64 {
        self.reps.iter().fold(0u64, |acc, &r| acc.saturating_add(r))
    }
}

/// Initialization firings: enough upstream work that every peeking consumer
/// holds `peek - pop` extra tokens on its input tape before steady state.
/// Public so the SIMDization driver can refresh priming counts after
/// transforming actor rates.
///
/// Processed in reverse topological order: a node must fire in init often
/// enough to cover (a) the tokens its consumers' init firings eat and
/// (b) the peek slack its consumers need left over.
pub fn compute_init_reps(graph: &Graph, order: &[NodeId]) -> Vec<u64> {
    let mut init = vec![0u64; graph.node_count()];
    let adj = graph.adjacency();
    for &id in order.iter().rev() {
        let mut need = 0u64;
        for &eid in adj.outs(id) {
            let e = graph.edge(eid);
            let push = graph.node(id).push_rate(e.src_port) as u64;
            let consumer = graph.node(e.dst);
            let pop = consumer.pop_rate(e.dst_port) as u64;
            let peek = consumer.peek_rate(e.dst_port) as u64;
            let slack = peek.saturating_sub(pop);
            let consumed = init[e.dst.0 as usize] * pop + slack;
            need = need.max(consumed.div_ceil(push));
        }
        init[id.0 as usize] = need;
    }
    // Nodes with inputs cannot fire in init beyond what their own producers
    // supply; the reverse pass above already guarantees producers cover
    // them, so no forward fix-up is needed for DAGs.
    init
}

/// Static buffer requirement of one tape under the Figure-1b schedule
/// (producer completes all firings of a steady iteration before the
/// consumer starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferReq {
    /// Tokens resident after initialization (the peek slack).
    pub init_tokens: u64,
    /// Peak tokens during a steady iteration.
    pub capacity: u64,
}

/// Compute per-edge buffer requirements (indexed by edge id).
pub fn buffer_requirements(graph: &Graph, sched: &Schedule) -> Vec<BufferReq> {
    graph
        .edges()
        .map(|(_, e)| {
            let push = graph.node(e.src).push_rate(e.src_port) as u64;
            let pop = graph.node(e.dst).pop_rate(e.dst_port) as u64;
            let init_tokens =
                sched.init_reps[e.src.0 as usize] * push - sched.init_reps[e.dst.0 as usize] * pop;
            let capacity = init_tokens + sched.reps[e.src.0 as usize] * push;
            BufferReq {
                init_tokens,
                capacity,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::filter::Filter;
    use macross_streamir::graph::Node;
    use macross_streamir::types::ScalarTy;

    fn fir_chain(peek: usize) -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let s = g.add_node(Node::filter(Filter::new("src", 0, 0, 1)));
        let f = g.add_node(Node::filter(Filter::new("fir", peek, 1, 1)));
        let k = g.add_node(Node::Sink);
        g.connect(s, 0, f, 0, ScalarTy::F32);
        g.connect(f, 0, k, 0, ScalarTy::F32);
        (g, s, f, k)
    }

    #[test]
    fn schedule_simple_chain() {
        let (g, s, f, k) = fir_chain(1);
        let sched = Schedule::compute(&g).unwrap();
        assert_eq!(sched.order, vec![s, f, k]);
        assert_eq!(sched.reps, vec![1, 1, 1]);
        assert_eq!(sched.init_reps, vec![0, 0, 0]);
        assert_eq!(sched.total_firings(), 3);
    }

    #[test]
    fn peeking_filter_gets_primed() {
        let (g, s, f, _) = fir_chain(8);
        let sched = Schedule::compute(&g).unwrap();
        // FIR needs 7 slack tokens; source pushes 1 per firing.
        assert_eq!(sched.init_reps[s.0 as usize], 7);
        assert_eq!(sched.init_reps[f.0 as usize], 0);
        let bufs = buffer_requirements(&g, &sched);
        assert_eq!(bufs[0].init_tokens, 7);
        assert_eq!(bufs[0].capacity, 8);
    }

    #[test]
    fn cascaded_peeking_filters() {
        // src -> fir1(peek 4) -> fir2(peek 6) -> sink: fir1 must fire 5
        // extra times to prime fir2, and src must cover fir1's own slack
        // plus what fir1 eats during init.
        let mut g = Graph::new();
        let s = g.add_node(Node::filter(Filter::new("src", 0, 0, 1)));
        let f1 = g.add_node(Node::filter(Filter::new("fir1", 4, 1, 1)));
        let f2 = g.add_node(Node::filter(Filter::new("fir2", 6, 1, 1)));
        let k = g.add_node(Node::Sink);
        g.connect(s, 0, f1, 0, ScalarTy::F32);
        g.connect(f1, 0, f2, 0, ScalarTy::F32);
        g.connect(f2, 0, k, 0, ScalarTy::F32);
        let sched = Schedule::compute(&g).unwrap();
        assert_eq!(sched.init_reps[f2.0 as usize], 0);
        assert_eq!(sched.init_reps[f1.0 as usize], 5);
        // src: f1 init eats 5 and needs 3 slack => 8.
        assert_eq!(sched.init_reps[s.0 as usize], 8);
    }

    #[test]
    fn scale_multiplies_reps_only() {
        let (g, _, _, _) = fir_chain(8);
        let mut sched = Schedule::compute(&g).unwrap();
        let init = sched.init_reps.clone();
        sched.scale(4);
        assert_eq!(sched.reps, vec![4, 4, 4]);
        assert_eq!(sched.init_reps, init);
    }

    #[test]
    fn scale_and_total_firings_saturate_instead_of_wrapping() {
        let (g, _, _, _) = fir_chain(1);
        let mut sched = Schedule::compute(&g).unwrap();
        // A multiplier that would wrap: 3 nodes at rep 1 scaled by
        // u64::MAX must pin at MAX, and the total must also pin rather
        // than wrapping (MAX + MAX + MAX wraps to MAX - 2 otherwise).
        sched.scale(u64::MAX);
        assert_eq!(sched.reps, vec![u64::MAX; 3]);
        assert_eq!(sched.total_firings(), u64::MAX);
        // Double-scaling an already-saturated schedule stays pinned.
        sched.scale(7);
        assert_eq!(sched.reps, vec![u64::MAX; 3]);
    }

    #[test]
    fn buffer_capacity_accounts_for_rates() {
        let mut g = Graph::new();
        let s = g.add_node(Node::filter(Filter::new("src", 0, 0, 3)));
        let f = g.add_node(Node::filter(Filter::new("f", 2, 2, 1)));
        let k = g.add_node(Node::Sink);
        g.connect(s, 0, f, 0, ScalarTy::F32);
        g.connect(f, 0, k, 0, ScalarTy::F32);
        let sched = Schedule::compute(&g).unwrap();
        // reps: src 2, f 3, sink 3.
        let bufs = buffer_requirements(&g, &sched);
        assert_eq!(bufs[0].capacity, 6);
        assert_eq!(bufs[1].capacity, 3);
    }
}
