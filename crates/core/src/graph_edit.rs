//! Graph surgery utilities shared by the vertical and horizontal
//! SIMDization transforms.

use macross_streamir::graph::{Edge, Graph, NodeId};
use std::collections::HashSet;

/// Result of rebuilding a graph without a set of nodes.
#[derive(Debug)]
pub struct Rebuilt {
    /// The new graph containing every kept node and every edge whose both
    /// endpoints were kept.
    pub graph: Graph,
    /// Old node id -> new node id (`None` for removed nodes).
    pub node_map: Vec<Option<NodeId>>,
    /// Edges of the old graph that were dropped because they touched a
    /// removed node (in old-graph coordinates). The caller reconnects these
    /// to replacement nodes.
    pub dropped_edges: Vec<Edge>,
}

/// Copy `old` into a new graph, dropping the nodes in `remove` (and every
/// edge touching them). Kept edges keep their element type, width, and
/// reorder marking.
pub fn rebuild_without(old: &Graph, remove: &HashSet<NodeId>) -> Rebuilt {
    let mut graph = Graph::new();
    let mut node_map: Vec<Option<NodeId>> = Vec::with_capacity(old.node_count());
    for (id, node) in old.nodes() {
        if remove.contains(&id) {
            node_map.push(None);
        } else {
            node_map.push(Some(graph.add_node(node.clone())));
        }
    }
    let mut dropped_edges = Vec::new();
    for (_, e) in old.edges() {
        match (node_map[e.src.0 as usize], node_map[e.dst.0 as usize]) {
            (Some(src), Some(dst)) => {
                let id = graph.connect(src, e.src_port, dst, e.dst_port, e.elem);
                let new_edge = graph.edge_mut(id);
                new_edge.width = e.width;
                new_edge.reorder = e.reorder;
            }
            _ => dropped_edges.push(e.clone()),
        }
    }
    Rebuilt {
        graph,
        node_map,
        dropped_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::filter::Filter;
    use macross_streamir::graph::Node;
    use macross_streamir::types::ScalarTy;

    #[test]
    fn rebuild_drops_nodes_and_reports_edges() {
        let mut g = Graph::new();
        let a = g.add_node(Node::filter(Filter::new("a", 0, 0, 1)));
        let b = g.add_node(Node::filter(Filter::new("b", 1, 1, 1)));
        let c = g.add_node(Node::Sink);
        g.connect(a, 0, b, 0, ScalarTy::F32);
        g.connect(b, 0, c, 0, ScalarTy::F32);

        let remove: HashSet<NodeId> = [b].into_iter().collect();
        let r = rebuild_without(&g, &remove);
        assert_eq!(r.graph.node_count(), 2);
        assert_eq!(r.graph.edge_count(), 0);
        assert_eq!(r.dropped_edges.len(), 2);
        assert!(r.node_map[b.0 as usize].is_none());
        assert!(r.node_map[a.0 as usize].is_some());
    }

    #[test]
    fn rebuild_preserves_kept_edges() {
        let mut g = Graph::new();
        let a = g.add_node(Node::filter(Filter::new("a", 0, 0, 1)));
        let b = g.add_node(Node::filter(Filter::new("b", 1, 1, 1)));
        let c = g.add_node(Node::Sink);
        g.connect(a, 0, b, 0, ScalarTy::I64);
        g.connect(b, 0, c, 0, ScalarTy::I64);
        let r = rebuild_without(&g, &HashSet::new());
        assert_eq!(r.graph.edge_count(), 2);
        assert_eq!(r.graph.edges().next().unwrap().1.elem, ScalarTy::I64);
        assert!(r.dropped_edges.is_empty());
    }
}
