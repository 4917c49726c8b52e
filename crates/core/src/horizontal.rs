//! Horizontal SIMDization (Section 3.3): replace `SW` isomorphic
//! task-parallel actors inside a split-join with one vector actor on
//! vector tapes, converting task-level parallelism into data-level
//! parallelism. Stateful actors are allowed — each lane keeps its own
//! state. The splitter and joiner become [`Node::HSplitter`] /
//! [`Node::HJoiner`], which perform the scalar-to-vector transposition.

use crate::error::SimdizeError;
use crate::graph_edit::rebuild_without;
use crate::single::{expr_vecish, mark_vector_vars, stage, TapeMode};
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
    assert_eq!(actors.len(), sw, "merge needs exactly SW actors");
    let first = actors[0];
    let err = |reason: String| SimdizeError::NotVectorizable {
        actor: first.name.clone(),
        reason,
    };
    for a in actors {
        if (a.pop, a.push, a.peek) != (first.pop, first.push, first.peek) {
            return Err(err(format!(
                "rates differ between {} and {}",
                first.name, a.name
            )));
        }
        if a.vars.len() != first.vars.len()
            || a.vars
                .iter()
                .zip(&first.vars)
                .any(|(x, y)| x.ty != y.ty || x.kind != y.kind)
        {
            return Err(err(format!(
                "variable declarations differ between {} and {}",
                first.name, a.name
            )));
        }
        if !a.chans.is_empty() {
            return Err(err(format!("{} has internal channels", a.name)));
        }
    }
    let mut merged = first.clone();
    merged.name = format!("{}_h{sw}", first.name);
    merged.init = merge_blocks(&actors.iter().map(|a| a.init.as_slice()).collect::<Vec<_>>())
        .map_err(&err)?;
    merged.work = merge_blocks(&actors.iter().map(|a| a.work.as_slice()).collect::<Vec<_>>())
        .map_err(&err)?;
    Ok(merged)
}

fn merge_blocks(blocks: &[&[Stmt]]) -> Result<Vec<Stmt>, String> {
    let n = blocks[0].len();
    if blocks.iter().any(|b| b.len() != n) {
        return Err("statement counts differ".into());
    }
    (0..n)
        .map(|i| merge_stmts(&blocks.iter().map(|b| &b[i]).collect::<Vec<_>>()))
        .collect()
}

fn merge_stmts(ss: &[&Stmt]) -> Result<Stmt, String> {
    use Stmt::*;
    let first = ss[0];
    match first {
        Assign(lv, e) => {
            let lvs: Vec<&LValue> = ss
                .iter()
                .map(|s| match s {
                    Assign(l, _) => Ok(l),
                    _ => Err("statement kinds differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            let es: Vec<&Expr> = ss
                .iter()
                .map(|s| match s {
                    Assign(_, e) => Ok(e),
                    _ => Err("statement kinds differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            let _ = (lv, e);
            Ok(Assign(merge_lvalues(&lvs)?, merge_exprs(&es)?))
        }
        Push(_) => {
            let es = collect(ss, |s| match s {
                Push(e) => Some(e),
                _ => None,
            })?;
            Ok(Push(merge_exprs(&es)?))
        }
        LPush(_, _) | LVPush(_, _, _) | VPush { .. } | RPush { .. } => {
            Err("vector/channel ops in horizontal input".into())
        }
        For { var, count, body } => {
            let counts = collect(ss, |s| match s {
                For { var: v2, count, .. } if v2 == var => Some(count),
                _ => None,
            })?;
            let count2 = merge_exprs(&counts)?;
            let bodies: Vec<&[Stmt]> = collect(ss, |s| match s {
                For { body, .. } => Some(body.as_slice()),
                _ => None,
            })?;
            let _ = (count, body);
            Ok(For {
                var: *var,
                count: count2,
                body: merge_blocks(&bodies)?,
            })
        }
        If { .. } => {
            let conds = collect(ss, |s| match s {
                If { cond, .. } => Some(cond),
                _ => None,
            })?;
            let thens: Vec<&[Stmt]> = collect(ss, |s| match s {
                If { then_branch, .. } => Some(then_branch.as_slice()),
                _ => None,
            })?;
            let elses: Vec<&[Stmt]> = collect(ss, |s| match s {
                If { else_branch, .. } => Some(else_branch.as_slice()),
                _ => None,
            })?;
            Ok(If {
                cond: merge_exprs(&conds)?,
                then_branch: merge_blocks(&thens)?,
                else_branch: merge_blocks(&elses)?,
            })
        }
        AdvanceRead(n) => {
            if ss.iter().all(|s| matches!(s, AdvanceRead(m) if m == n)) {
                Ok(AdvanceRead(*n))
            } else {
                Err("advance_read amounts differ".into())
            }
        }
        AdvanceWrite(n) => {
            if ss.iter().all(|s| matches!(s, AdvanceWrite(m) if m == n)) {
                Ok(AdvanceWrite(*n))
            } else {
                Err("advance_write amounts differ".into())
            }
        }
    }
}

fn collect<'a, T: ?Sized>(
    ss: &[&'a Stmt],
    f: impl Fn(&'a Stmt) -> Option<&'a T>,
) -> Result<Vec<&'a T>, String> {
    ss.iter()
        .map(|s| f(s).ok_or_else(|| "statement kinds differ".to_string()))
        .collect()
}

fn merge_lvalues(lvs: &[&LValue]) -> Result<LValue, String> {
    let first = lvs[0];
    match first {
        LValue::Var(v) => {
            if lvs.iter().all(|l| matches!(l, LValue::Var(w) if w == v)) {
                Ok(LValue::Var(*v))
            } else {
                Err("assignment targets differ".into())
            }
        }
        LValue::Index(v, _) => {
            let idxs: Vec<&Expr> = lvs
                .iter()
                .map(|l| match l {
                    LValue::Index(w, i) if w == v => Ok(i),
                    _ => Err("assignment targets differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            Ok(LValue::Index(*v, merge_exprs(&idxs)?))
        }
        _ => Err("lane lvalue in horizontal input".into()),
    }
}

fn merge_exprs(es: &[&Expr]) -> Result<Expr, String> {
    use Expr::*;
    let first = es[0];
    match first {
        Const(v) => {
            let vals: Vec<macross_streamir::types::Value> = es
                .iter()
                .map(|e| match e {
                    Const(x) => Ok(*x),
                    _ => Err("expression shapes differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            if vals.iter().any(|x| x.ty() != v.ty()) {
                return Err("constant types differ".into());
            }
            if vals.iter().all(|x| x.bits_eq(*v)) {
                Ok(Const(*v))
            } else {
                Ok(ConstVec(vals))
            }
        }
        Var(v) => {
            if es.iter().all(|e| matches!(e, Var(w) if w == v)) {
                Ok(Var(*v))
            } else {
                Err("variable references differ".into())
            }
        }
        Index(v, _) => {
            let idxs: Vec<&Expr> = es
                .iter()
                .map(|e| match e {
                    Index(w, i) if w == v => Ok(i.as_ref()),
                    _ => Err("expression shapes differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            Ok(Index(*v, Box::new(merge_exprs(&idxs)?)))
        }
        Unary(op, _) => {
            let args: Vec<&Expr> = es
                .iter()
                .map(|e| match e {
                    Unary(o, a) if o == op => Ok(a.as_ref()),
                    _ => Err("expression shapes differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            Ok(Unary(*op, Box::new(merge_exprs(&args)?)))
        }
        Cast(t, _) => {
            let args: Vec<&Expr> = es
                .iter()
                .map(|e| match e {
                    Cast(u, a) if u == t => Ok(a.as_ref()),
                    _ => Err("expression shapes differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            Ok(Cast(*t, Box::new(merge_exprs(&args)?)))
        }
        Binary(op, _, _) => {
            let lhs: Vec<&Expr> = es
                .iter()
                .map(|e| match e {
                    Binary(o, a, _) if o == op => Ok(a.as_ref()),
                    _ => Err("expression shapes differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            let rhs: Vec<&Expr> = es
                .iter()
                .map(|e| match e {
                    Binary(o, _, b) if o == op => Ok(b.as_ref()),
                    _ => Err("expression shapes differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            Ok(Expr::bin(*op, merge_exprs(&lhs)?, merge_exprs(&rhs)?))
        }
        Call(i, args0) => {
            let mut merged_args = Vec::with_capacity(args0.len());
            for k in 0..args0.len() {
                let arg_k: Vec<&Expr> = es
                    .iter()
                    .map(|e| match e {
                        Call(j, args) if j == i && args.len() == args0.len() => Ok(&args[k]),
                        _ => Err("expression shapes differ".to_string()),
                    })
                    .collect::<Result<_, _>>()?;
                merged_args.push(merge_exprs(&arg_k)?);
            }
            Ok(Call(*i, merged_args))
        }
        Pop => {
            if es.iter().all(|e| matches!(e, Pop)) {
                Ok(Pop)
            } else {
                Err("expression shapes differ".into())
            }
        }
        Peek(_) => {
            let offs: Vec<&Expr> = es
                .iter()
                .map(|e| match e {
                    Peek(o) => Ok(o.as_ref()),
                    _ => Err("expression shapes differ".to_string()),
                })
                .collect::<Result<_, _>>()?;
            Ok(Peek(Box::new(merge_exprs(&offs)?)))
        }
        _ => Err("vector construct in horizontal input".into()),
    }
}

/// Check that the merged template has no divergent (vector) control flow,
/// subscripts or peek offsets — these cannot be SIMDized lanewise.
fn check_uniform_control(f: &Filter) -> Result<(), SimdizeError> {
    let vec = mark_vector_vars(f);
    let mut bad: Option<String> = None;
    let mut visit = |stmts: &[Stmt]| {
        for s in stmts {
            s.walk(&mut |s| match s {
                Stmt::For { count, .. } if expr_vecish(count, &vec) => {
                    bad = Some(format!("divergent loop bound: {count}"));
                }
                Stmt::If { cond, .. } if expr_vecish(cond, &vec) => {
                    bad = Some(format!("divergent branch condition: {cond}"));
                }
                Stmt::Assign(LValue::Index(_, i), _) if expr_vecish(i, &vec) => {
                    bad = Some(format!("divergent subscript: {i}"));
                }
                _ => {}
            });
            s.walk_exprs(&mut |e| match e {
                Expr::Index(_, i) if expr_vecish(i, &vec) => {
                    bad = Some(format!("divergent subscript: {i}"));
                }
                Expr::Peek(o) if expr_vecish(o, &vec) => {
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
            let m = merge_isomorphic(&actors, sw)?;
            check_uniform_control(&m)?;
            let out_elem = if l + 1 < levels {
                elem_in[l + 1]
            } else {
                elem_out_last
            };
            let m = stage(m, sw, elem_in[l], out_elem, &HashSet::new()).lower(
                TapeMode::Vector,
                TapeMode::Vector,
                true,
            )?;
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
                .map(|f| r.graph.add_node(Node::Filter(f)))
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
    use macross_streamir::types::{ScalarTy, Ty};
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
