//! Horizontal SIMDization (Section 3.3): replace `SW` isomorphic
//! task-parallel actors inside a split-join with one vector actor on
//! vector tapes, converting task-level parallelism into data-level
//! parallelism. Stateful actors are allowed — each lane keeps its own
//! state. The splitter and joiner become [`Node::HSplitter`] /
//! [`Node::HJoiner`], which perform the scalar-to-vector transposition.

use crate::error::SimdizeError;
use crate::graph_edit::rebuild_without;
use crate::lockstep::{merge_block, step};
use crate::single::{expr_vecish, stage, Staged, TapeMode};
use macross_streamir::analysis::VarSet;
use macross_streamir::expr::{Expr, LValue};
use macross_streamir::filter::Filter;
use macross_streamir::graph::{Graph, Node, NodeId, SplitKind};
use macross_streamir::stmt::Stmt;
use std::collections::HashSet;

/// A structurally eligible split-join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitJoinCandidate {
    /// The splitter node.
    pub splitter: NodeId,
    /// The joiner node.
    pub joiner: NodeId,
    /// `branches[b]` is the linear chain of filter nodes on branch `b`,
    /// in splitter-port order.
    pub branches: Vec<Vec<NodeId>>,
}

impl SplitJoinCandidate {
    /// Number of pipeline levels.
    pub fn levels(&self) -> usize {
        self.branches[0].len()
    }
}

/// Find all structural split-join candidates: a splitter whose every
/// branch is a nonempty linear chain of filters of equal length ending at
/// one common joiner with matching port order.
pub fn find_split_joins(graph: &Graph) -> Vec<SplitJoinCandidate> {
    let mut out = Vec::new();
    for (id, node) in graph.nodes() {
        let Node::Splitter(_) = node else { continue };
        let mut branches = Vec::new();
        let mut joiner: Option<NodeId> = None;
        let mut ok = true;
        for eid in graph.out_edges(id) {
            let mut chain = Vec::new();
            let mut cur = graph.edge(eid).dst;
            let mut cur_port = graph.edge(eid).dst_port;
            loop {
                match graph.node(cur) {
                    Node::Filter(_) => {
                        if cur_port != 0 || graph.single_in_edge(cur).is_none() {
                            ok = false;
                            break;
                        }
                        chain.push(cur);
                        let Some(out_e) = graph.single_out_edge(cur) else {
                            ok = false;
                            break;
                        };
                        cur_port = graph.edge(out_e).dst_port;
                        cur = graph.edge(out_e).dst;
                    }
                    Node::Joiner(_) => {
                        if cur_port != branches.len() {
                            ok = false;
                        }
                        match joiner {
                            None => joiner = Some(cur),
                            Some(j) if j == cur => {}
                            _ => ok = false,
                        }
                        break;
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok || chain.is_empty() {
                ok = false;
                break;
            }
            branches.push(chain);
        }
        if ok && branches.len() >= 2 && branches.iter().all(|b| b.len() == branches[0].len()) {
            out.push(SplitJoinCandidate {
                splitter: id,
                joiner: joiner.expect("joiner found"),
                branches,
            });
        }
    }
    out
}

/// Merge `sw` isomorphic filters into one template whose differing
/// constants become vector constants (Figure 6b's `const_v = {5,6,7,8}`).
///
/// # Errors
/// Fails when the filters are not isomorphic: differing rates, variable
/// declarations, or body structure beyond constant literals.
pub fn merge_isomorphic(actors: &[&Filter], sw: usize) -> Result<Filter, SimdizeError> {
    let mut merged = merge_shell(actors, sw)?;
    merged.work = merge_block(&step(actors, |a| a.work.as_slice()))
        .map_err(|why| not_isomorphic(actors[0], why))?;
    Ok(merged)
}

fn not_isomorphic(first: &Filter, reason: impl Into<String>) -> SimdizeError {
    SimdizeError::NotVectorizable {
        actor: first.name.clone(),
        reason: reason.into(),
    }
}

/// [`merge_isomorphic`] without the work body: the merged actor's rates,
/// declarations and `init`, named `<first>_h<SW>`, which staging
/// completes with the lanes' work bodies merged in normal form.
fn merge_shell(actors: &[&Filter], sw: usize) -> Result<Filter, SimdizeError> {
    assert_eq!(actors.len(), sw, "merge needs exactly SW actors");
    let first = actors[0];
    for a in actors {
        if (a.pop, a.push, a.peek) != (first.pop, first.push, first.peek) {
            return Err(not_isomorphic(
                first,
                format!("rates differ between {} and {}", first.name, a.name),
            ));
        }
        if a.vars.len() != first.vars.len()
            || a.vars
                .iter()
                .zip(&first.vars)
                .any(|(x, y)| x.ty != y.ty || x.kind != y.kind)
        {
            return Err(not_isomorphic(
                first,
                format!(
                    "variable declarations differ between {} and {}",
                    first.name, a.name
                ),
            ));
        }
        if !a.chans.is_empty() {
            return Err(not_isomorphic(
                first,
                format!("{} has internal channels", a.name),
            ));
        }
    }
    let init = merge_block(&step(actors, |a| a.init.as_slice()))
        .map_err(|why| not_isomorphic(first, why))?;
    let mut shell = Filter::new(
        format!("{}_h{sw}", first.name),
        first.peek,
        first.pop,
        first.push,
    );
    shell.vars = first.vars.clone();
    shell.init = init;
    shell.region = first.region.clone();
    Ok(shell)
}

/// Check that the staged merged actor has no divergent (vector) control
/// flow, subscripts or peek offsets — these cannot be SIMDized lanewise.
/// Staging keeps every such expression where it was and hoists a tape
/// read only into a vector temporary, so the staged body diverges exactly
/// where the merged template did.
fn check_uniform_control(staged: &Staged) -> Result<(), SimdizeError> {
    let (f, vec) = (&staged.filter, &staged.vec_vars);
    let mut bad: Option<String> = None;
    let mut visit = |stmts: &[Stmt]| {
        for s in stmts {
            s.walk(&mut |s| match s {
                Stmt::For { count, .. } if expr_vecish(count, vec) => {
                    bad = Some(format!("divergent loop bound: {count}"));
                }
                Stmt::If { cond, .. } if expr_vecish(cond, vec) => {
                    bad = Some(format!("divergent branch condition: {cond}"));
                }
                Stmt::Assign(LValue::Index(_, i), _) if expr_vecish(i, vec) => {
                    bad = Some(format!("divergent subscript: {i}"));
                }
                _ => {}
            });
            s.walk_exprs(&mut |e| match e {
                Expr::Index(_, i) if expr_vecish(i, vec) => {
                    bad = Some(format!("divergent subscript: {i}"));
                }
                Expr::Peek(o) if expr_vecish(o, vec) => {
                    bad = Some(format!("divergent peek offset: {o}"));
                }
                _ => {}
            });
        }
    };
    visit(&f.init);
    visit(&f.work);
    match bad {
        Some(reason) => Err(SimdizeError::NotVectorizable {
            actor: f.name.clone(),
            reason,
        }),
        None => Ok(()),
    }
}

/// Outcome of horizontalizing one split-join.
#[derive(Debug)]
pub struct Horizontalized {
    /// The rewritten graph.
    pub graph: Graph,
    /// Old-to-new node id mapping for untouched nodes.
    pub node_map: Vec<Option<NodeId>>,
    /// Names of the merged vector actors, per level and group.
    pub merged_names: Vec<Vec<String>>,
}

/// Apply horizontal SIMDization to one candidate split-join.
///
/// # Errors
/// Fails when the branch count is not a multiple of `sw`, splitter/joiner
/// weights are non-uniform, any level's actors are not isomorphic, or the
/// merged template has divergent control flow.
pub fn horizontalize(
    graph: &Graph,
    cand: &SplitJoinCandidate,
    sw: usize,
) -> Result<Horizontalized, SimdizeError> {
    let n = cand.branches.len();
    if !n.is_multiple_of(sw) {
        return Err(SimdizeError::Graph(format!(
            "split-join has {n} branches, not a multiple of SIMD width {sw}"
        )));
    }
    let groups = n / sw;
    let split_kind = match graph.node(cand.splitter) {
        Node::Splitter(k) => k.clone(),
        _ => {
            return Err(SimdizeError::Graph(
                "candidate splitter is not a splitter".into(),
            ))
        }
    };
    if let SplitKind::RoundRobin(w) = &split_kind {
        if w.iter().any(|&x| x != w[0]) {
            return Err(SimdizeError::Graph(
                "splitter weights are not uniform".into(),
            ));
        }
    }
    let join_weights = match graph.node(cand.joiner) {
        Node::Joiner(w) => w.clone(),
        _ => {
            return Err(SimdizeError::Graph(
                "candidate joiner is not a joiner".into(),
            ))
        }
    };
    if join_weights.iter().any(|&x| x != join_weights[0]) {
        return Err(SimdizeError::Graph("joiner weights are not uniform".into()));
    }

    let levels = cand.levels();
    // Element types along one branch (before each level, and after the last).
    let elem_in: Vec<_> = (0..levels)
        .map(|l| {
            let node = cand.branches[0][l];
            let e = graph.single_in_edge(node).expect("branch node has input");
            graph.edge(e).elem
        })
        .collect();
    let elem_out_last = {
        let node = cand.branches[0][levels - 1];
        let e = graph.single_out_edge(node).expect("branch node has output");
        graph.edge(e).elem
    };

    // Merge and vectorize each (level, group).
    let mut merged: Vec<Vec<Filter>> = Vec::with_capacity(levels);
    let mut merged_names = Vec::with_capacity(levels);
    for l in 0..levels {
        let mut row = Vec::with_capacity(groups);
        let mut names = Vec::with_capacity(groups);
        for g in 0..groups {
            let actors: Vec<&Filter> = (0..sw)
                .map(|j| {
                    graph
                        .node(cand.branches[g * sw + j][l])
                        .as_filter()
                        .expect("filter")
                })
                .collect();
            let shell = merge_shell(&actors, sw)?;
            let out_elem = if l + 1 < levels {
                elem_in[l + 1]
            } else {
                elem_out_last
            };
            // The lanes' work bodies are merged as they are staged: the
            // merged body is built once, already in normal form.
            let lanes: Vec<&[Stmt]> = actors.iter().map(|a| a.work.as_slice()).collect();
            let staged = stage(shell, &lanes, sw, elem_in[l], out_elem, &VarSet::new())
                .map_err(|why| not_isomorphic(actors[0], why))?;
            check_uniform_control(&staged)?;
            let m = staged.lower(TapeMode::Vector, TapeMode::Vector, true)?;
            macross_streamir::analysis::check_rates(&m)
                .map_err(|e| SimdizeError::RateCheck(e.to_string()))?;
            names.push(m.name.clone());
            row.push(m);
        }
        merged.push(row);
        merged_names.push(names);
    }

    // Graph surgery.
    let mut remove: HashSet<NodeId> = [cand.splitter, cand.joiner].into_iter().collect();
    for b in &cand.branches {
        remove.extend(b.iter().copied());
    }
    let mut r = rebuild_without(graph, &remove);
    let hsplit = r.graph.add_node(Node::HSplitter {
        kind: split_kind,
        width: sw,
    });
    let hjoin = r.graph.add_node(Node::HJoiner {
        weights: join_weights,
        width: sw,
    });
    let mut level_ids: Vec<Vec<NodeId>> = Vec::with_capacity(levels);
    for row in merged {
        level_ids.push(
            row.into_iter()
                .map(|f| r.graph.add_node(Node::filter(f)))
                .collect(),
        );
    }
    // `g` is simultaneously the splitter/joiner port number and the
    // branch index, so a plain range reads better than enumerate().
    #[allow(clippy::needless_range_loop)]
    for g in 0..groups {
        let e0 = r.graph.connect(hsplit, g, level_ids[0][g], 0, elem_in[0]);
        r.graph.edge_mut(e0).width = sw;
        for l in 0..levels - 1 {
            let e = r
                .graph
                .connect(level_ids[l][g], 0, level_ids[l + 1][g], 0, elem_in[l + 1]);
            r.graph.edge_mut(e).width = sw;
        }
        let el = r
            .graph
            .connect(level_ids[levels - 1][g], 0, hjoin, g, elem_out_last);
        r.graph.edge_mut(el).width = sw;
    }
    // Reconnect external edges.
    for e in &r.dropped_edges {
        if e.dst == cand.splitter {
            if let Some(src) = r.node_map[e.src.0 as usize] {
                r.graph.connect(src, e.src_port, hsplit, 0, e.elem);
            }
        } else if e.src == cand.joiner {
            if let Some(dst) = r.node_map[e.dst.0 as usize] {
                r.graph.connect(hjoin, 0, dst, e.dst_port, e.elem);
            }
        }
    }
    Ok(Horizontalized {
        graph: r.graph,
        node_map: r.node_map,
        merged_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_sdf::Schedule;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::expr::BinOp;
    use macross_streamir::types::{ScalarTy, Ty, Value};
    use macross_vm::{run_scheduled, Machine};

    /// Figure 6a's B actor: 3 iterations of (pop 4, push 1) with a
    /// branch-specific divisor constant.
    fn actor_b(divisor: f32) -> Filter {
        let mut fb = FilterBuilder::new("B", 12, 12, 3, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let a0 = fb.local("a0", Ty::Scalar(ScalarTy::F32));
        let a1 = fb.local("a1", Ty::Scalar(ScalarTy::F32));
        let a2 = fb.local("a2", Ty::Scalar(ScalarTy::F32));
        let a3 = fb.local("a3", Ty::Scalar(ScalarTy::F32));
        fb.work(move |b| {
            b.for_(i, 3i32, |b| {
                b.set(a0, pop());
                b.set(a1, pop());
                b.set(a2, pop());
                b.set(a3, pop());
                b.push((v(a0) * v(a1) + v(a2) * v(a3)) / divisor);
            });
        });
        fb.build()
    }

    /// Figure 6a's stateful C actor: a 31-deep delay line.
    fn actor_c() -> Filter {
        let mut fb = FilterBuilder::new("C", 1, 1, 1, ScalarTy::F32);
        let state = fb.state("state", Ty::Array(ScalarTy::F32, 31));
        let ph = fb.state("place_holder", Ty::Scalar(ScalarTy::I32));
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.init(|b| {
            b.for_(i, 31i32, |b| {
                b.set_idx(state, v(i), 0.0f32);
            });
        });
        fb.work(|b| {
            b.push(idx(state, v(ph)));
            b.set_idx(state, v(ph), pop());
            b.set(ph, (v(ph) + 1i32) % 31i32);
        });
        fb.build()
    }

    fn figure6_graph() -> Graph {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n) * 0.25f32);
            b.set(
                n,
                cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 256i32),
            );
        });
        let branches = (0..4)
            .map(|k| {
                StreamSpec::pipeline(vec![
                    StreamSpec::filter(actor_b(5.0 + k as f32), ScalarTy::F32),
                    StreamSpec::filter(actor_c(), ScalarTy::F32),
                ])
            })
            .collect();
        StreamSpec::pipeline(vec![
            src.build_spec(),
            StreamSpec::SplitJoin {
                split: SplitKind::RoundRobin(vec![4, 4, 4, 4]),
                branches,
                join: vec![1, 1, 1, 1],
            },
            StreamSpec::Sink,
        ])
        .build()
        .unwrap()
    }

    #[test]
    fn finds_figure6_candidate() {
        let g = figure6_graph();
        let cands = find_split_joins(&g);
        assert_eq!(cands.len(), 1);
        let c = &cands[0];
        assert_eq!(c.branches.len(), 4);
        assert_eq!(c.levels(), 2);
    }

    #[test]
    fn merge_builds_vector_constants() {
        let b0 = actor_b(5.0);
        let b1 = actor_b(6.0);
        let b2 = actor_b(7.0);
        let b3 = actor_b(8.0);
        let m = merge_isomorphic(&[&b0, &b1, &b2, &b3], 4).unwrap();
        let text = m.work.iter().map(|s| s.to_string()).collect::<String>();
        assert!(
            text.contains("{5.0f, 6.0f, 7.0f, 8.0f}"),
            "merged constants:\n{text}"
        );
    }

    #[test]
    fn merge_rejects_non_isomorphic() {
        let b0 = actor_b(5.0);
        let c = actor_c();
        let b2 = actor_b(7.0);
        let b3 = actor_b(8.0);
        assert!(merge_isomorphic(&[&b0, &c, &b2, &b3], 4).is_err());
    }

    /// The reason a refused merge gives.
    fn refusal(actors: &[&Filter]) -> String {
        match merge_isomorphic(actors, actors.len()) {
            Err(SimdizeError::NotVectorizable { reason, .. }) => reason,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// Every constant of a body, `Const` and `ConstVec` alike, in walk
    /// order.
    fn constants(body: &[Stmt]) -> Vec<Expr> {
        let mut out = Vec::new();
        for s in body {
            s.walk_exprs(&mut |e| {
                if matches!(e, Expr::Const(_) | Expr::ConstVec(_)) {
                    out.push(e.clone());
                }
            });
        }
        out
    }

    #[test]
    fn merge_keeps_equal_constants_scalar() {
        let (b, c) = (actor_b(5.0), actor_c());
        let m = merge_isomorphic(&[&b, &b, &b, &b], 4).unwrap();
        assert_eq!((&m.init, &m.work), (&b.init, &b.work));
        let m = merge_isomorphic(&[&c, &c], 2).unwrap();
        assert_eq!((&m.init, &m.work), (&c.init, &c.work));
        assert_eq!(m.name, "C_h2");
        assert!(constants(&m.work)
            .iter()
            .all(|e| matches!(e, Expr::Const(_))));
    }

    #[test]
    fn merge_orders_differing_constants_by_lane() {
        let (b5, b6, b7, b8) = (actor_b(5.0), actor_b(6.0), actor_b(7.0), actor_b(8.0));
        let m = merge_isomorphic(&[&b7, &b5, &b8, &b6], 4).unwrap();
        let lanes = [7.0f32, 5.0, 8.0, 6.0].map(Value::F32).to_vec();
        assert_eq!(
            constants(&m.work),
            vec![Expr::Const(Value::I32(3)), Expr::ConstVec(lanes)],
            "the trip count is equal in every lane, the divisor is not"
        );
    }

    /// `push(((pop() <op> 1) * 2) - 3)` inside a loop and a branch.
    fn nested(op: BinOp) -> Filter {
        let mut fb = FilterBuilder::new("n", 2, 2, 2, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(move |b| {
            b.for_(i, 2i32, |b| {
                b.if_else(
                    lt(v(i), 1i32),
                    |b| {
                        b.push((E(Expr::bin(op, pop().0, c(1.0f32).0)) * 2.0f32) - 3.0f32);
                    },
                    |b| {
                        b.push(pop());
                    },
                );
            });
        });
        fb.build()
    }

    #[test]
    fn merge_refuses_a_shape_mismatch_three_levels_down() {
        let (add, sub) = (nested(BinOp::Add), nested(BinOp::Sub));
        assert!(merge_isomorphic(&[&add, &add], 2).is_ok());
        assert_eq!(
            refusal(&[&add, &add, &sub, &add]),
            "expression shapes differ"
        );
    }

    #[test]
    fn merge_refuses_constants_of_different_types() {
        let mk = |k: Expr| {
            let mut fb = FilterBuilder::new("k", 1, 1, 1, ScalarTy::F32);
            fb.work(move |b| {
                b.push(pop() * cast(ScalarTy::F32, k.clone()));
            });
            fb.build()
        };
        let (int, float) = (
            mk(Expr::Const(Value::I32(2))),
            mk(Expr::Const(Value::F32(2.0))),
        );
        assert_eq!(refusal(&[&int, &float]), "constant types differ");
    }

    #[test]
    fn merge_refuses_differing_variable_references() {
        let mk = |second: bool| {
            let mut fb = FilterBuilder::new("r", 1, 1, 1, ScalarTy::F32);
            let a = fb.local("a", Ty::Scalar(ScalarTy::F32));
            let b2 = fb.local("b", Ty::Scalar(ScalarTy::F32));
            fb.work(move |b| {
                b.set(a, pop());
                b.set(b2, v(a) + 1.0f32);
                b.push(v(if second { b2 } else { a }));
            });
            fb.build()
        };
        let (x, y) = (mk(false), mk(true));
        assert_eq!(refusal(&[&x, &y]), "variable references differ");
    }

    #[test]
    fn horizontal_is_output_equivalent_and_reduces_tape_traffic() {
        let g = figure6_graph();
        let sched = Schedule::compute(&g).unwrap();
        let cand = find_split_joins(&g).remove(0);
        let h = horizontalize(&g, &cand, 4).unwrap();
        h.graph.validate().unwrap();
        // "The repetition number of the actors involved ... is not changed":
        // the horizontal graph schedules independently.
        let hsched = Schedule::compute(&h.graph).unwrap();

        // Align throughput via the source.
        let mut s1 = sched.clone();
        let mut s2 = hsched.clone();
        let l = macross_sdf::lcm(s1.reps[0], s2.reps[0]);
        s1.scale(l / s1.reps[0]);
        s2.scale(l / s2.reps[0]);

        let machine = Machine::core_i7();
        let a = run_scheduled(&g, &s1, &machine, 6).unwrap();
        let b = run_scheduled(&h.graph, &s2, &machine, 6).unwrap();
        assert_eq!(a.output.len(), b.output.len());
        assert!(!a.output.is_empty());
        for (i, (x, y)) in a.output.iter().zip(&b.output).enumerate() {
            assert!(x.bits_eq(*y), "output {i}: {x:?} != {y:?}");
        }
        // Stateful C actors were vectorized; the horizontal version must be
        // faster and shift scalar memory traffic to vector accesses.
        assert!(
            b.total_cycles() < a.total_cycles(),
            "horizontal {} vs scalar {}",
            b.total_cycles(),
            a.total_cycles()
        );
        assert!(b.counters.mem_vector > 0);
        assert!(b.counters.mem_scalar < a.counters.mem_scalar);
    }

    #[test]
    fn branch_count_must_be_multiple_of_width() {
        let g = figure6_graph();
        let cand = find_split_joins(&g).remove(0);
        assert!(matches!(
            horizontalize(&g, &cand, 8),
            Err(SimdizeError::Graph(_))
        ));
    }

    #[test]
    fn duplicate_splitter_split_join() {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n));
            b.set(
                n,
                cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 64i32),
            );
        });
        let mk = |gain: f32| {
            let mut fb = FilterBuilder::new("amp", 1, 1, 1, ScalarTy::F32);
            fb.work(move |b| {
                b.push(pop() * gain);
            });
            StreamSpec::filter(fb.build(), ScalarTy::F32)
        };
        let g = StreamSpec::pipeline(vec![
            src.build_spec(),
            StreamSpec::split_join_duplicate(1, vec![mk(1.0), mk(2.0), mk(3.0), mk(4.0)]),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let cand = find_split_joins(&g).remove(0);
        let h = horizontalize(&g, &cand, 4).unwrap();
        let sched = Schedule::compute(&g).unwrap();
        let hsched = Schedule::compute(&h.graph).unwrap();
        let machine = Machine::core_i7();
        let a = run_scheduled(&g, &sched, &machine, 8).unwrap();
        let b = run_scheduled(&h.graph, &hsched, &machine, 8).unwrap();
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn eight_branches_two_groups() {
        let mut src = FilterBuilder::new("src", 0, 0, 8, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            for _ in 0..8 {
                b.push(v(n));
                b.set(
                    n,
                    cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 128i32),
                );
            }
        });
        let mk = |ofs: f32| {
            let mut fb = FilterBuilder::new("add", 1, 1, 1, ScalarTy::F32);
            fb.work(move |b| {
                b.push(pop() + ofs);
            });
            StreamSpec::filter(fb.build(), ScalarTy::F32)
        };
        let g = StreamSpec::pipeline(vec![
            src.build_spec(),
            StreamSpec::split_join_uniform(1, 1, (0..8).map(|k| mk(k as f32)).collect()),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let cand = find_split_joins(&g).remove(0);
        assert_eq!(cand.branches.len(), 8);
        let h = horizontalize(&g, &cand, 4).unwrap();
        assert_eq!(h.merged_names[0].len(), 2, "two groups of four");
        let sched = Schedule::compute(&g).unwrap();
        let hsched = Schedule::compute(&h.graph).unwrap();
        let machine = Machine::core_i7();
        let a = run_scheduled(&g, &sched, &machine, 5).unwrap();
        let b = run_scheduled(&h.graph, &hsched, &machine, 5).unwrap();
        assert_eq!(a.output, b.output);
    }
}
