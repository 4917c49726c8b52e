//! Stream graphs: nodes (filters, splitters, joiners, sinks) connected by
//! tapes (edges), with rate queries and topological utilities.

use crate::filter::Filter;
use crate::types::ScalarTy;
use std::fmt;
use std::sync::Arc;

/// Identifies a node within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifies an edge (tape) within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// How a splitter distributes data to its branches.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitKind {
    /// Every branch receives a copy of each item.
    Duplicate,
    /// Weighted round-robin: branch `i` receives `weights[i]` consecutive
    /// items per firing.
    RoundRobin(Vec<usize>),
}

/// Which address-generation mechanism resolves a reordered tape access
/// (Section 3.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrGen {
    /// The streaming address generation unit (Figure 9): address generation
    /// is folded into the memory operation.
    Sagu,
    /// The software fallback (Figure 8): ~6 extra ALU operations per access.
    Software,
}

/// Which end of the tape performs the column-major (reordered) accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderSide {
    /// The vectorized producer pushed whole vectors in row-major order; the
    /// scalar consumer reads column-major.
    Consumer,
    /// The scalar producer writes column-major so the vectorized consumer
    /// can pop whole vectors.
    Producer,
}

/// Marks a tape whose scalar end accesses data in column-major block order
/// because the vector end uses plain vector pushes/pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reorder {
    /// The vector actor's per-original-firing push (or pop) count — the
    /// `Push_Count` register of the SAGU.
    pub rate: usize,
    /// SIMD width of the vector end.
    pub sw: usize,
    /// Which side performs reordered accesses.
    pub side: ReorderSide,
    /// Hardware or software address generation.
    pub addr_gen: AddrGen,
}

impl Reorder {
    /// Elements per reorder block (`rate * sw`).
    pub fn block(&self) -> usize {
        self.rate * self.sw
    }
}

/// A node of the stream graph.
///
/// Actors are shared: cloning a node or a whole [`Graph`] copies a
/// reference count, not the actor's bodies, so a graph and the graphs a
/// pass derives from it hold every actor the pass left alone in common.
/// A pass that rewrites an actor builds or `Arc::make_mut`s its own copy.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A computational actor (1 optional input, 1 optional output).
    /// Build one with [`Node::filter`].
    Filter(Arc<Filter>),
    /// Distributes one input tape over several output tapes.
    Splitter(SplitKind),
    /// Merges several input tapes round-robin by the given weights.
    Joiner(Vec<usize>),
    /// Horizontal splitter produced by horizontal SIMDization: packs scalar
    /// input into vectors on `groups` vector output tapes.
    HSplitter {
        /// The original splitter kind (weights must be uniform for
        /// round-robin).
        kind: SplitKind,
        /// SIMD width (lanes per vector).
        width: usize,
    },
    /// Horizontal joiner: unpacks vectors from `groups` vector input tapes
    /// back to the scalar output order of the original joiner.
    HJoiner {
        /// Original per-branch round-robin weights (uniform).
        weights: Vec<usize>,
        /// SIMD width.
        width: usize,
    },
    /// Terminal node: pops one element per firing and records it as program
    /// output (used by the VM for differential testing).
    Sink,
}

impl Node {
    /// A filter node owning a fresh actor.
    pub fn filter(f: Filter) -> Node {
        Node::Filter(Arc::new(f))
    }

    /// Display name for reports.
    pub fn name(&self) -> String {
        match self {
            Node::Filter(f) => f.name.clone(),
            Node::Splitter(SplitKind::Duplicate) => "split_dup".into(),
            Node::Splitter(SplitKind::RoundRobin(_)) => "split_rr".into(),
            Node::Joiner(_) => "join_rr".into(),
            Node::HSplitter { .. } => "hsplitter".into(),
            Node::HJoiner { .. } => "hjoiner".into(),
            Node::Sink => "sink".into(),
        }
    }

    /// The contained filter, if this node is one.
    pub fn as_filter(&self) -> Option<&Filter> {
        match self {
            Node::Filter(f) => Some(f),
            _ => None,
        }
    }

    /// Elements consumed per firing on input `port` (scalar elements).
    pub fn pop_rate(&self, port: usize) -> usize {
        match self {
            Node::Filter(f) => {
                assert_eq!(port, 0);
                f.pop
            }
            Node::Splitter(SplitKind::Duplicate) => 1,
            Node::Splitter(SplitKind::RoundRobin(w)) => {
                assert_eq!(port, 0);
                w.iter().sum()
            }
            Node::Joiner(w) => w[port],
            Node::HSplitter { kind, .. } => match kind {
                SplitKind::Duplicate => 1,
                SplitKind::RoundRobin(w) => w.iter().sum(),
            },
            Node::HJoiner { weights, width } => {
                // One input port per group of `width` branches; weights are
                // uniform, so each port delivers `weight * width` scalars
                // (`weight` vectors) per firing.
                let _ = port;
                weights[0] * *width
            }
            Node::Sink => 1,
        }
    }

    /// Elements produced per firing on output `port` (scalar elements).
    pub fn push_rate(&self, port: usize) -> usize {
        match self {
            Node::Filter(f) => {
                assert_eq!(port, 0);
                f.push
            }
            Node::Splitter(SplitKind::Duplicate) => 1,
            Node::Splitter(SplitKind::RoundRobin(w)) => w[port],
            Node::Joiner(w) => w.iter().sum(),
            Node::HSplitter { kind, width } => match kind {
                SplitKind::Duplicate => *width,
                SplitKind::RoundRobin(w) => w[0] * *width,
            },
            Node::HJoiner { weights, .. } => weights.iter().sum(),
            Node::Sink => 0,
        }
    }

    /// Maximum read extent per firing on input `port`.
    pub fn peek_rate(&self, port: usize) -> usize {
        match self {
            Node::Filter(f) => {
                assert_eq!(port, 0);
                f.peek
            }
            other => other.pop_rate(port),
        }
    }
}

/// A tape connecting two node ports.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producer node.
    pub src: NodeId,
    /// Producer output port.
    pub src_port: usize,
    /// Consumer node.
    pub dst: NodeId,
    /// Consumer input port.
    pub dst_port: usize,
    /// Element type flowing on the tape.
    pub elem: ScalarTy,
    /// Lanes per logical item: 1 for scalar tapes, `SW` for vector tapes
    /// created by horizontal SIMDization. Rates are always counted in scalar
    /// elements regardless of width.
    pub width: usize,
    /// Reordered-access marking for SAGU / software address generation.
    pub reorder: Option<Reorder>,
}

/// Errors from graph validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node has a port-arity violation (e.g. a filter with two inputs).
    BadArity { node: u32, detail: String },
    /// Ports on a node are not contiguous starting at zero.
    BadPorts { node: u32, detail: String },
    /// The graph contains a cycle; only DAGs are supported.
    Cyclic,
    /// A source filter (no input edge) declares a nonzero pop rate, or a
    /// filter with an input edge declares zero.
    RateMismatch { node: u32, detail: String },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadArity { node, detail } => write!(f, "node n{node}: {detail}"),
            GraphError::BadPorts { node, detail } => write!(f, "node n{node}: {detail}"),
            GraphError::Cyclic => {
                write!(f, "graph contains a cycle (feedback loops are unsupported)")
            }
            GraphError::RateMismatch { node, detail } => write!(f, "node n{node}: {detail}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Every node's edges, from [`Graph::adjacency`]: each side one flat
/// list grouped by node, with the start of each node's group.
#[derive(Debug, Clone)]
pub struct Adjacency {
    ins: Vec<EdgeId>,
    in_start: Vec<usize>,
    outs: Vec<EdgeId>,
    out_start: Vec<usize>,
}

impl Adjacency {
    /// Input edges of `id`, sorted by input port.
    pub fn ins(&self, id: NodeId) -> &[EdgeId] {
        let i = id.0 as usize;
        &self.ins[self.in_start[i]..self.in_start[i + 1]]
    }

    /// Output edges of `id`, sorted by output port.
    pub fn outs(&self, id: NodeId) -> &[EdgeId] {
        let i = id.0 as usize;
        &self.outs[self.out_start[i]..self.out_start[i + 1]]
    }
}

/// Group `edges` by the node `end` names, each group in table order and
/// then stably sorted by `port`: the edge ids and each group's start.
fn group_edges(
    edges: &[Edge],
    nodes: usize,
    end: impl Fn(&Edge) -> NodeId,
    port: impl Fn(&Edge) -> usize,
) -> (Vec<EdgeId>, Vec<usize>) {
    let mut start = vec![0usize; nodes + 1];
    for e in edges {
        start[end(e).0 as usize + 1] += 1;
    }
    for i in 0..nodes {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut grouped = vec![EdgeId(0); edges.len()];
    for (i, e) in edges.iter().enumerate() {
        let slot = &mut fill[end(e).0 as usize];
        grouped[*slot] = EdgeId(i as u32);
        *slot += 1;
    }
    for w in start.windows(2) {
        grouped[w[0]..w[1]].sort_by_key(|&e| port(&edges[e.0 as usize]));
    }
    (grouped, start)
}

/// A flattened stream graph (a DAG of nodes and tapes).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Connect `src`'s output `src_port` to `dst`'s input `dst_port` with a
    /// scalar tape of element type `elem`, returning the edge id.
    pub fn connect(
        &mut self,
        src: NodeId,
        src_port: usize,
        dst: NodeId,
        dst_port: usize,
        elem: ScalarTy,
    ) -> EdgeId {
        self.edges.push(Edge {
            src,
            src_port,
            dst,
            dst_port,
            elem,
            width: 1,
            reorder: None,
        });
        EdgeId((self.edges.len() - 1) as u32)
    }

    /// All nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Node ids only.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Borrow an edge.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// Mutably borrow an edge.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id.0 as usize]
    }

    /// Replace a node in place (used by SIMDization transforms).
    pub fn replace_node(&mut self, id: NodeId, node: Node) {
        self.nodes[id.0 as usize] = node;
    }

    /// Input edges of a node, sorted by input port.
    pub fn in_edges(&self, id: NodeId) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dst == id)
            .map(|(i, _)| EdgeId(i as u32))
            .collect();
        v.sort_by_key(|&e| self.edge(e).dst_port);
        v
    }

    /// Output edges of a node, sorted by output port.
    pub fn out_edges(&self, id: NodeId) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.src == id)
            .map(|(i, _)| EdgeId(i as u32))
            .collect();
        v.sort_by_key(|&e| self.edge(e).src_port);
        v
    }

    /// Every node's input and output edges from one pass over the edge
    /// table: for each node, what [`Graph::in_edges`] and
    /// [`Graph::out_edges`] return, without a scan and an allocation per
    /// node and side.
    pub fn adjacency(&self) -> Adjacency {
        let n = self.nodes.len();
        // Stable sorts: edges on one port keep their table order, as in
        // `in_edges` / `out_edges`.
        let (ins, in_start) = group_edges(&self.edges, n, |e| e.dst, |e| e.dst_port);
        let (outs, out_start) = group_edges(&self.edges, n, |e| e.src, |e| e.src_port);
        Adjacency {
            ins,
            in_start,
            outs,
            out_start,
        }
    }

    /// The single input edge of a node, if it has exactly one.
    pub fn single_in_edge(&self, id: NodeId) -> Option<EdgeId> {
        self.only_edge(|e| e.dst == id)
    }

    /// The single output edge of a node, if it has exactly one.
    pub fn single_out_edge(&self, id: NodeId) -> Option<EdgeId> {
        self.only_edge(|e| e.src == id)
    }

    /// The one edge `hit` accepts, if exactly one does; one scan of the
    /// edge table, nothing allocated.
    fn only_edge(&self, hit: impl Fn(&Edge) -> bool) -> Option<EdgeId> {
        let mut found = self.edges().filter(|(_, e)| hit(e)).map(|(id, _)| id);
        let first = found.next()?;
        found.next().is_none().then_some(first)
    }

    /// Topological order of all nodes.
    ///
    /// # Errors
    /// Returns [`GraphError::Cyclic`] if the graph is not a DAG.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, GraphError> {
        self.topo_order_in(&self.adjacency())
    }

    /// [`Graph::topo_order`] over this graph's [`Graph::adjacency`].
    fn topo_order_in(&self, adj: &Adjacency) -> Result<Vec<NodeId>, GraphError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.dst.0 as usize] += 1;
        }
        let mut queue: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|id| indeg[id.0 as usize] == 0)
            .collect();
        // Keep deterministic order: process smallest id first.
        queue.sort();
        let mut order = Vec::with_capacity(n);
        let mut next: Vec<NodeId> = Vec::new();
        let mut qi = 0;
        while qi < queue.len() {
            let id = queue[qi];
            qi += 1;
            order.push(id);
            for &e in adj.outs(id) {
                let dst = self.edge(e).dst;
                indeg[dst.0 as usize] -= 1;
                if indeg[dst.0 as usize] == 0 {
                    next.push(dst);
                }
            }
            next.sort();
            queue.append(&mut next);
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cyclic)
        }
    }

    /// Structural validation: port arities, contiguity, acyclicity, and
    /// source/sink rate sanity.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.validated_order().map(|_| ())
    }

    /// [`Graph::validate`], returning the [`Graph::topo_order`] that
    /// checked acyclicity; both read one [`Graph::adjacency`].
    ///
    /// # Errors
    /// As [`Graph::validate`].
    pub fn validated_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let adj = self.adjacency();
        for (id, node) in self.nodes() {
            let (ins, outs) = (adj.ins(id), adj.outs(id));
            let (max_in, max_out) = match node {
                Node::Filter(_) => (1usize, 1usize),
                Node::Splitter(SplitKind::Duplicate) => (1, usize::MAX),
                Node::Splitter(SplitKind::RoundRobin(w)) => (1, w.len()),
                Node::Joiner(w) => (w.len(), 1),
                Node::HSplitter { kind, width } => {
                    let n = match kind {
                        SplitKind::Duplicate => outs.len() * width,
                        SplitKind::RoundRobin(w) => w.len(),
                    };
                    (1, n.div_ceil(*width))
                }
                Node::HJoiner { weights, width } => (weights.len().div_ceil(*width), 1),
                Node::Sink => (1, 0),
            };
            if ins.len() > max_in || (matches!(node, Node::Joiner(_)) && ins.len() != max_in) {
                return Err(GraphError::BadArity {
                    node: id.0,
                    detail: format!(
                        "{} has {} inputs (expected <= {})",
                        node.name(),
                        ins.len(),
                        max_in
                    ),
                });
            }
            if max_out != usize::MAX && outs.len() > max_out {
                return Err(GraphError::BadArity {
                    node: id.0,
                    detail: format!(
                        "{} has {} outputs (expected <= {})",
                        node.name(),
                        outs.len(),
                        max_out
                    ),
                });
            }
            for (want, &e) in ins.iter().enumerate() {
                if self.edge(e).dst_port != want {
                    return Err(GraphError::BadPorts {
                        node: id.0,
                        detail: format!("input ports not contiguous at port {want}"),
                    });
                }
            }
            for (want, &e) in outs.iter().enumerate() {
                if self.edge(e).src_port != want {
                    return Err(GraphError::BadPorts {
                        node: id.0,
                        detail: format!("output ports not contiguous at port {want}"),
                    });
                }
            }
            if let Node::Filter(f) = node {
                if ins.is_empty() && f.pop != 0 {
                    return Err(GraphError::RateMismatch {
                        node: id.0,
                        detail: format!(
                            "filter {} has no input tape but pop rate {}",
                            f.name, f.pop
                        ),
                    });
                }
                if !ins.is_empty() && f.pop == 0 && f.peek == 0 {
                    return Err(GraphError::RateMismatch {
                        node: id.0,
                        detail: format!("filter {} has an input tape but never reads it", f.name),
                    });
                }
                if outs.is_empty() && f.push != 0 {
                    return Err(GraphError::RateMismatch {
                        node: id.0,
                        detail: format!(
                            "filter {} has no output tape but push rate {}",
                            f.name, f.push
                        ),
                    });
                }
            }
        }
        self.topo_order_in(&adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;

    fn chain3() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node(Node::filter(Filter::new("src", 0, 0, 2)));
        let b = g.add_node(Node::filter(Filter::new("mid", 2, 2, 1)));
        let c = g.add_node(Node::Sink);
        g.connect(a, 0, b, 0, ScalarTy::F32);
        g.connect(b, 0, c, 0, ScalarTy::F32);
        (g, a, b, c)
    }

    #[test]
    fn topo_order_of_chain() {
        let (g, a, b, c) = chain3();
        assert_eq!(g.topo_order().unwrap(), vec![a, b, c]);
        g.validate().unwrap();
    }

    #[test]
    fn splitter_rates() {
        let sp = Node::Splitter(SplitKind::RoundRobin(vec![4, 4, 4, 4]));
        assert_eq!(sp.pop_rate(0), 16);
        assert_eq!(sp.push_rate(2), 4);
        let dup = Node::Splitter(SplitKind::Duplicate);
        assert_eq!(dup.pop_rate(0), 1);
        assert_eq!(dup.push_rate(3), 1);
    }

    #[test]
    fn joiner_rates() {
        let j = Node::Joiner(vec![1, 2, 3]);
        assert_eq!(j.pop_rate(1), 2);
        assert_eq!(j.push_rate(0), 6);
    }

    #[test]
    fn hsplitter_hjoiner_rates() {
        let hs = Node::HSplitter {
            kind: SplitKind::RoundRobin(vec![4, 4, 4, 4]),
            width: 4,
        };
        assert_eq!(hs.pop_rate(0), 16);
        assert_eq!(hs.push_rate(0), 16); // 4 vectors of width 4
        let hj = Node::HJoiner {
            weights: vec![1, 1, 1, 1],
            width: 4,
        };
        assert_eq!(hj.pop_rate(0), 4);
        assert_eq!(hj.push_rate(0), 4);
    }

    /// A split-join wired out of port order: the one-pass adjacency lists
    /// every node's edges as the per-node scans do, port-sorted.
    #[test]
    fn adjacency_matches_the_per_node_scans() {
        let mut g = Graph::new();
        let src = g.add_node(Node::filter(Filter::new("src", 0, 0, 3)));
        let split = g.add_node(Node::Splitter(SplitKind::RoundRobin(vec![1, 1, 1])));
        let join = g.add_node(Node::Joiner(vec![1, 1, 1]));
        let sink = g.add_node(Node::Sink);
        g.connect(src, 0, split, 0, ScalarTy::I32);
        for port in [2, 0, 1] {
            let f = g.add_node(Node::filter(Filter::new("f", 1, 1, 1)));
            g.connect(split, port, f, 0, ScalarTy::I32);
            g.connect(f, 0, join, port, ScalarTy::I32);
        }
        g.connect(join, 0, sink, 0, ScalarTy::I32);
        let adj = g.adjacency();
        for id in g.node_ids() {
            assert_eq!(adj.ins(id), g.in_edges(id), "inputs of {id:?}");
            assert_eq!(adj.outs(id), g.out_edges(id), "outputs of {id:?}");
        }
        let ports: Vec<usize> = adj
            .outs(split)
            .iter()
            .map(|&e| g.edge(e).src_port)
            .collect();
        assert_eq!(ports, [0, 1, 2]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = Graph::new();
        let a = g.add_node(Node::filter(Filter::new("a", 1, 1, 1)));
        let b = g.add_node(Node::filter(Filter::new("b", 1, 1, 1)));
        g.connect(a, 0, b, 0, ScalarTy::I32);
        g.connect(b, 0, a, 0, ScalarTy::I32);
        assert_eq!(g.topo_order(), Err(GraphError::Cyclic));
    }

    #[test]
    fn validate_rejects_source_with_pop() {
        let mut g = Graph::new();
        let a = g.add_node(Node::filter(Filter::new("bad", 1, 1, 1)));
        let b = g.add_node(Node::Sink);
        g.connect(a, 0, b, 0, ScalarTy::I32);
        let err = g.validate().unwrap_err();
        assert!(matches!(err, GraphError::RateMismatch { .. }));
    }

    #[test]
    fn validate_rejects_double_input_filter() {
        let mut g = Graph::new();
        let s1 = g.add_node(Node::filter(Filter::new("s1", 0, 0, 1)));
        let s2 = g.add_node(Node::filter(Filter::new("s2", 0, 0, 1)));
        let f = g.add_node(Node::filter(Filter::new("f", 2, 2, 1)));
        let k = g.add_node(Node::Sink);
        g.connect(s1, 0, f, 0, ScalarTy::I32);
        g.connect(s2, 0, f, 1, ScalarTy::I32);
        g.connect(f, 0, k, 0, ScalarTy::I32);
        assert!(matches!(g.validate(), Err(GraphError::BadArity { .. })));
    }

    #[test]
    fn in_out_edges_sorted_by_port() {
        let mut g = Graph::new();
        let src = g.add_node(Node::filter(Filter::new("src", 0, 0, 3)));
        let sp = g.add_node(Node::Splitter(SplitKind::RoundRobin(vec![1, 1, 1])));
        let j = g.add_node(Node::Joiner(vec![1, 1, 1]));
        let k = g.add_node(Node::Sink);
        g.connect(src, 0, sp, 0, ScalarTy::I32);
        // Connect out of order on purpose.
        g.connect(sp, 2, j, 2, ScalarTy::I32);
        g.connect(sp, 0, j, 0, ScalarTy::I32);
        g.connect(sp, 1, j, 1, ScalarTy::I32);
        g.connect(j, 0, k, 0, ScalarTy::I32);
        let outs = g.out_edges(sp);
        assert_eq!(self_ports(&g, &outs), vec![0, 1, 2]);
        g.validate().unwrap();
    }

    fn self_ports(g: &Graph, edges: &[EdgeId]) -> Vec<usize> {
        edges.iter().map(|&e| g.edge(e).src_port).collect()
    }

    #[test]
    fn reorder_block_size() {
        let r = Reorder {
            rate: 3,
            sw: 4,
            side: ReorderSide::Consumer,
            addr_gen: AddrGen::Sagu,
        };
        assert_eq!(r.block(), 12);
    }
}
