//! Hierarchical graph construction: StreamIt-style pipelines and
//! split-joins that flatten into a [`Graph`].

use crate::filter::Filter;
use crate::graph::{Graph, Node, NodeId, SplitKind};
use crate::types::ScalarTy;
use std::fmt;

/// A hierarchical stream program, mirroring StreamIt's `pipeline` and
/// `splitjoin` composition (feedback loops are out of scope; see DESIGN.md).
#[derive(Debug, Clone)]
pub enum StreamSpec {
    /// A leaf actor together with the element type it produces.
    Filter {
        /// The actor.
        filter: Filter,
        /// Element type on the output tape.
        out_elem: ScalarTy,
    },
    /// Sequential composition.
    Pipeline(Vec<StreamSpec>),
    /// Parallel composition between a splitter and a joiner.
    SplitJoin {
        /// Splitter kind.
        split: SplitKind,
        /// Parallel branches (one per splitter output).
        branches: Vec<StreamSpec>,
        /// Joiner round-robin weights (one per branch).
        join: Vec<usize>,
    },
    /// Terminal sink capturing program output.
    Sink,
}

impl StreamSpec {
    /// Leaf constructor.
    pub fn filter(filter: Filter, out_elem: ScalarTy) -> StreamSpec {
        StreamSpec::Filter { filter, out_elem }
    }

    /// Sequential composition of the given stages.
    pub fn pipeline(stages: Vec<StreamSpec>) -> StreamSpec {
        StreamSpec::Pipeline(stages)
    }

    /// Split-join with a round-robin splitter of uniform weight `w` and a
    /// round-robin joiner of uniform weight `jw`.
    pub fn split_join_uniform(w: usize, jw: usize, branches: Vec<StreamSpec>) -> StreamSpec {
        let n = branches.len();
        StreamSpec::SplitJoin {
            split: SplitKind::RoundRobin(vec![w; n]),
            branches,
            join: vec![jw; n],
        }
    }

    /// Split-join with a duplicate splitter and a round-robin joiner of
    /// uniform weight `jw`.
    pub fn split_join_duplicate(jw: usize, branches: Vec<StreamSpec>) -> StreamSpec {
        let n = branches.len();
        StreamSpec::SplitJoin {
            split: SplitKind::Duplicate,
            branches,
            join: vec![jw; n],
        }
    }

    /// Flatten into a graph.
    ///
    /// # Errors
    /// Returns [`BuildError`] on malformed composition (empty pipeline,
    /// branch/weight count mismatch, interior sink, missing connections).
    pub fn build(self) -> Result<Graph, BuildError> {
        let mut g = Graph::new();
        let ends = flatten(&mut g, self, ScalarTy::F32)?;
        if let Some((_, _)) = ends.exit {
            return Err(BuildError::DanglingOutput);
        }
        g.validate()
            .map_err(|e| BuildError::Invalid(e.to_string()))?;
        Ok(g)
    }
}

/// Errors from [`StreamSpec::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A pipeline or split-join had no children.
    Empty,
    /// Branch count does not match joiner weight count.
    BranchMismatch { branches: usize, weights: usize },
    /// A sink appeared somewhere other than the end of the program.
    InteriorSink,
    /// A stage produces output but nothing consumes it.
    DanglingOutput,
    /// A stage consumes input but nothing produces it.
    DanglingInput,
    /// Graph-level validation failed after flattening.
    Invalid(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Empty => write!(f, "empty pipeline or split-join"),
            BuildError::BranchMismatch { branches, weights } => {
                write!(
                    f,
                    "split-join has {branches} branches but {weights} joiner weights"
                )
            }
            BuildError::InteriorSink => write!(f, "sink must be the final stage of the program"),
            BuildError::DanglingOutput => {
                write!(f, "program output is not consumed (missing sink?)")
            }
            BuildError::DanglingInput => write!(f, "stage consumes input but none is produced"),
            BuildError::Invalid(s) => write!(f, "flattened graph invalid: {s}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Entry/exit connection points of a flattened sub-stream.
struct Ends {
    /// Node consuming the sub-stream's input, if it consumes any.
    entry: Option<NodeId>,
    /// Node producing the sub-stream's output and its element type.
    exit: Option<(NodeId, ScalarTy)>,
}

fn flatten(g: &mut Graph, spec: StreamSpec, in_elem: ScalarTy) -> Result<Ends, BuildError> {
    match spec {
        StreamSpec::Filter { filter, out_elem } => {
            let consumes = filter.pop > 0 || filter.peek > 0;
            let produces = filter.push > 0;
            let id = g.add_node(Node::filter(filter));
            Ok(Ends {
                entry: consumes.then_some(id),
                exit: produces.then_some((id, out_elem)),
            })
        }
        StreamSpec::Sink => {
            let id = g.add_node(Node::Sink);
            Ok(Ends {
                entry: Some(id),
                exit: None,
            })
        }
        StreamSpec::Pipeline(stages) => {
            if stages.is_empty() {
                return Err(BuildError::Empty);
            }
            let n = stages.len();
            let mut first_entry: Option<NodeId> = None;
            let mut prev_exit: Option<(NodeId, ScalarTy)> = None;
            let mut seen_any = false;
            for (i, stage) in stages.into_iter().enumerate() {
                let stage_in = prev_exit.map(|(_, t)| t).unwrap_or(in_elem);
                let ends = flatten(g, stage, stage_in)?;
                match (prev_exit, ends.entry) {
                    (Some((src, elem)), Some(dst)) => {
                        g.connect(src, next_out_port(g, src), dst, next_in_port(g, dst), elem);
                    }
                    (Some(_), None) => {
                        return Err(BuildError::Invalid("stage ignores its input".into()))
                    }
                    (None, Some(_)) if seen_any => return Err(BuildError::DanglingInput),
                    _ => {}
                }
                if !seen_any {
                    first_entry = ends.entry;
                }
                if ends.exit.is_none() && i != n - 1 {
                    return Err(BuildError::InteriorSink);
                }
                prev_exit = ends.exit;
                seen_any = true;
            }
            Ok(Ends {
                entry: first_entry,
                exit: prev_exit,
            })
        }
        StreamSpec::SplitJoin {
            split,
            branches,
            join,
        } => {
            if branches.is_empty() {
                return Err(BuildError::Empty);
            }
            if branches.len() != join.len() {
                return Err(BuildError::BranchMismatch {
                    branches: branches.len(),
                    weights: join.len(),
                });
            }
            if let SplitKind::RoundRobin(w) = &split {
                if w.len() != branches.len() {
                    return Err(BuildError::BranchMismatch {
                        branches: branches.len(),
                        weights: w.len(),
                    });
                }
            }
            let sp = g.add_node(Node::Splitter(split));
            let jn = g.add_node(Node::Joiner(join));
            let mut out_elem = in_elem;
            for (i, branch) in branches.into_iter().enumerate() {
                let ends = flatten(g, branch, in_elem)?;
                let entry = ends.entry.ok_or(BuildError::DanglingInput)?;
                let (exit, elem) = ends.exit.ok_or(BuildError::InteriorSink)?;
                g.connect(sp, i, entry, next_in_port(g, entry), in_elem);
                g.connect(exit, next_out_port(g, exit), jn, i, elem);
                out_elem = elem;
            }
            Ok(Ends {
                entry: Some(sp),
                exit: Some((jn, out_elem)),
            })
        }
    }
}

fn next_in_port(g: &Graph, id: NodeId) -> usize {
    g.in_edges(id).len()
}

fn next_out_port(g: &Graph, id: NodeId) -> usize {
    g.out_edges(id).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Node;

    fn src(push: usize) -> StreamSpec {
        StreamSpec::filter(Filter::new("src", 0, 0, push), ScalarTy::F32)
    }

    fn id_filter(name: &str) -> StreamSpec {
        StreamSpec::filter(Filter::new(name, 1, 1, 1), ScalarTy::F32)
    }

    #[test]
    fn simple_pipeline_builds() {
        let g = StreamSpec::pipeline(vec![src(1), id_filter("f"), StreamSpec::Sink])
            .build()
            .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn split_join_builds() {
        let g = StreamSpec::pipeline(vec![
            src(4),
            StreamSpec::split_join_uniform(
                1,
                1,
                vec![
                    id_filter("b0"),
                    id_filter("b1"),
                    id_filter("b2"),
                    id_filter("b3"),
                ],
            ),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        // src, splitter, 4 branches, joiner, sink
        assert_eq!(g.node_count(), 8);
        let splitters = g
            .nodes()
            .filter(|(_, n)| matches!(n, Node::Splitter(_)))
            .count();
        assert_eq!(splitters, 1);
    }

    #[test]
    fn nested_split_join() {
        let inner = StreamSpec::split_join_uniform(1, 1, vec![id_filter("x"), id_filter("y")]);
        let g = StreamSpec::pipeline(vec![
            src(4),
            StreamSpec::split_join_uniform(2, 2, vec![inner, id_filter("z")]),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        assert_eq!(g.topo_order().unwrap().len(), g.node_count());
    }

    #[test]
    fn missing_sink_rejected() {
        let err = StreamSpec::pipeline(vec![src(1), id_filter("f")])
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::DanglingOutput);
    }

    #[test]
    fn interior_sink_rejected() {
        let err = StreamSpec::pipeline(vec![
            src(1),
            StreamSpec::Sink,
            id_filter("f"),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap_err();
        assert_eq!(err, BuildError::InteriorSink);
    }

    #[test]
    fn branch_weight_mismatch_rejected() {
        let err = StreamSpec::pipeline(vec![
            src(2),
            StreamSpec::SplitJoin {
                split: SplitKind::RoundRobin(vec![1, 1]),
                branches: vec![id_filter("a"), id_filter("b")],
                join: vec![1],
            },
            StreamSpec::Sink,
        ])
        .build()
        .unwrap_err();
        assert!(matches!(err, BuildError::BranchMismatch { .. }));
    }

    #[test]
    fn empty_pipeline_rejected() {
        assert_eq!(
            StreamSpec::pipeline(vec![]).build().unwrap_err(),
            BuildError::Empty
        );
    }
}
