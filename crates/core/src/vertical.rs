//! Vertical SIMDization (Section 3.2): fuse a pipeline of vectorizable
//! actors into one coarse actor whose inner actors communicate through
//! internal channels — which the subsequent single-actor SIMDization of
//! the coarse actor turns into *vector* buffers, eliminating the
//! packing/unpacking between the fused actors (Figure 5).

use crate::error::SimdizeError;
use macross_sdf::gcd;
use macross_streamir::analysis::analyze_vectorizability;
use macross_streamir::expr::{ChanId, Expr, LValue, VarId};
use macross_streamir::filter::{Filter, VarKind};
use macross_streamir::graph::{Graph, Node, NodeId};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::{ScalarTy, Ty};

/// Why two adjacent actors cannot be fused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseBlocker {
    /// One of the actors fails the vectorizability conditions.
    NotVectorizable(String),
    /// A non-head actor peeks (its window would become fused-actor state).
    InnerPeek(String),
    /// The nodes are not a filter-to-filter pipeline edge.
    NotPipeline,
}

/// Check whether `up -> down` is a fusable pipeline link: both filters
/// SIMDizable, connected one-to-one, and `down` consumes with plain pops
/// only (the paper allows peeking only at the endpoints of a fused
/// pipeline; we require it only at the head — see DESIGN.md).
pub fn link_fusable(graph: &Graph, up: NodeId, down: NodeId) -> Result<(), FuseBlocker> {
    let (upf, downf) = pipeline_link(graph, up, down)?;
    for f in [upf, downf] {
        if !analyze_vectorizability(f).simdizable() {
            return Err(FuseBlocker::NotVectorizable(f.name.clone()));
        }
    }
    no_inner_peek(downf)
}

/// [`link_fusable`] for a caller that already holds both actors'
/// vectorizability verdicts and found them SIMDizable.
pub(crate) fn link_fusable_vetted(
    graph: &Graph,
    up: NodeId,
    down: NodeId,
) -> Result<(), FuseBlocker> {
    let (_, downf) = pipeline_link(graph, up, down)?;
    no_inner_peek(downf)
}

/// The two filters of a one-to-one filter-to-filter pipeline edge.
fn pipeline_link(
    graph: &Graph,
    up: NodeId,
    down: NodeId,
) -> Result<(&Filter, &Filter), FuseBlocker> {
    let (upf, downf) = match (graph.node(up), graph.node(down)) {
        (Node::Filter(a), Node::Filter(b)) => (a, b),
        _ => return Err(FuseBlocker::NotPipeline),
    };
    let out = graph.single_out_edge(up).ok_or(FuseBlocker::NotPipeline)?;
    if graph.edge(out).dst != down || graph.single_in_edge(down) != Some(out) {
        return Err(FuseBlocker::NotPipeline);
    }
    Ok((upf, downf))
}

fn no_inner_peek(downf: &Filter) -> Result<(), FuseBlocker> {
    if downf.peek > downf.pop || crate::single::uses_peek(downf) {
        return Err(FuseBlocker::InnerPeek(downf.name.clone()));
    }
    Ok(())
}

/// Fuse a chain of pipeline actors into one coarse actor.
///
/// `reps` are the actors' repetition numbers in the current steady state;
/// inner repetition counts are `reps[i] / gcd(reps)` and the coarse actor
/// fires `gcd(reps)` times per steady state.
///
/// # Errors
/// Fails if any link is not fusable.
///
/// # Panics
/// Panics if `chain.len() < 2` or the chain/reps lengths differ.
pub fn fuse_chain(graph: &Graph, chain: &[NodeId], reps: &[u64]) -> Result<Filter, SimdizeError> {
    for w in chain.windows(2) {
        link_fusable(graph, w[0], w[1]).map_err(|b| SimdizeError::NotVectorizable {
            actor: graph.node(w[0]).name(),
            reason: format!("cannot fuse with successor: {b:?}"),
        })?;
    }
    Ok(fuse_vetted_chain(graph, chain, reps))
}

/// [`fuse_chain`] for a chain whose every link the caller has already
/// found fusable.
pub(crate) fn fuse_vetted_chain(graph: &Graph, chain: &[NodeId], reps: &[u64]) -> Filter {
    assert!(chain.len() >= 2, "fusing needs at least two actors");
    assert_eq!(chain.len(), reps.len());

    let g = reps.iter().copied().fold(0, gcd).max(1);
    let inner_reps: Vec<u64> = reps.iter().map(|r| r / g).collect();
    let filters: Vec<&Filter> = chain
        .iter()
        .map(|&id| graph.node(id).as_filter().expect("filters"))
        .collect();

    // Name in the paper's style: 3D_2E.
    let name = filters
        .iter()
        .zip(&inner_reps)
        .map(|(f, r)| format!("{r}{}", f.name))
        .collect::<Vec<_>>()
        .join("_");

    let head = filters[0];
    let tail = filters[filters.len() - 1];
    let r0 = inner_reps[0] as usize;
    let rn = inner_reps[inner_reps.len() - 1] as usize;
    let mut fused = Filter::new(
        name,
        (r0 - 1) * head.pop + head.peek,
        r0 * head.pop,
        rn * tail.push,
    );

    // Internal channels between adjacent inner actors, typed by the
    // connecting tape's element type.
    let mut chans: Vec<ChanId> = Vec::new();
    for w in chain.windows(2) {
        let e = graph.single_out_edge(w[0]).expect("pipeline edge");
        let elem = graph.edge(e).elem;
        let up_name = graph.node(w[0]).name();
        chans.push(fused.add_chan(format!("buf_{up_name}"), Ty::Scalar(elem)));
    }

    for (i, f) in filters.iter().enumerate() {
        assert!(f.chans.is_empty(), "inner actor already fused");
        // Remap this inner actor's variables into the fused namespace.
        let base = fused.vars.len() as u32;
        for v in &f.vars {
            fused.vars.push(v.clone());
        }
        let in_chan = if i > 0 { Some(chans[i - 1]) } else { None };
        let out_chan = if i < filters.len() - 1 {
            Some(chans[i])
        } else {
            None
        };

        let init = remap_block(&f.init, base, in_chan, out_chan);
        fused.init.extend(init);

        let body = remap_block(&f.work, base, in_chan, out_chan);
        let r = inner_reps[i] as usize;
        if r == 1 {
            fused.work.extend(body);
        } else {
            let wc = fused.add_var(
                format!("work_counter{i}"),
                Ty::Scalar(ScalarTy::I32),
                VarKind::Local,
            );
            fused.work.push(Stmt::For {
                var: wc,
                count: Expr::Const(macross_streamir::types::Value::I32(r as i32)),
                body,
            });
        }
    }
    fused
}

/// Remap variable ids by `base` and redirect tape accesses to internal
/// channels where the actor is not at the fused boundary.
fn remap_block(
    stmts: &[Stmt],
    base: u32,
    in_chan: Option<ChanId>,
    out_chan: Option<ChanId>,
) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| remap_stmt(s, base, in_chan, out_chan))
        .collect()
}

fn remap_stmt(s: &Stmt, base: u32, ic: Option<ChanId>, oc: Option<ChanId>) -> Stmt {
    let e = |e: &Expr| remap_expr(e, base, ic);
    match s {
        Stmt::Assign(lv, rhs) => Stmt::Assign(remap_lvalue(lv, base, ic), e(rhs)),
        Stmt::Push(v) => match oc {
            Some(c) => Stmt::LPush(c, e(v)),
            None => Stmt::Push(e(v)),
        },
        Stmt::RPush { value, offset } => {
            assert!(oc.is_none(), "rpush inside a fused inner actor");
            Stmt::RPush {
                value: e(value),
                offset: e(offset),
            }
        }
        Stmt::VPush { .. } | Stmt::LVPush(_, _, _) => panic!("vector ops in scalar fusion input"),
        Stmt::LPush(_, _) => panic!("inner actor already has channels"),
        Stmt::For { var, count, body } => Stmt::For {
            var: VarId(var.0 + base),
            count: e(count),
            body: remap_block(body, base, ic, oc),
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond: e(cond),
            then_branch: remap_block(then_branch, base, ic, oc),
            else_branch: remap_block(else_branch, base, ic, oc),
        },
        Stmt::AdvanceRead(n) => {
            assert!(
                ic.is_none(),
                "peeking consumption inside a fused inner actor"
            );
            Stmt::AdvanceRead(*n)
        }
        Stmt::AdvanceWrite(n) => Stmt::AdvanceWrite(*n),
    }
}

fn remap_lvalue(lv: &LValue, base: u32, ic: Option<ChanId>) -> LValue {
    match lv {
        LValue::Var(v) => LValue::Var(VarId(v.0 + base)),
        LValue::Index(v, i) => LValue::Index(VarId(v.0 + base), remap_expr(i, base, ic)),
        LValue::LaneVar(v, l) => LValue::LaneVar(VarId(v.0 + base), *l),
        LValue::LaneIndex(v, i, l) => {
            LValue::LaneIndex(VarId(v.0 + base), remap_expr(i, base, ic), *l)
        }
        LValue::VIndex(_, _, _) => panic!("vector lvalue in scalar fusion input"),
    }
}

fn remap_expr(e: &Expr, base: u32, ic: Option<ChanId>) -> Expr {
    let r = |e: &Expr| remap_expr(e, base, ic);
    match e {
        Expr::Const(v) => Expr::Const(*v),
        Expr::ConstVec(v) => Expr::ConstVec(v.clone()),
        Expr::Var(v) => Expr::Var(VarId(v.0 + base)),
        Expr::Index(v, i) => Expr::Index(VarId(v.0 + base), Box::new(r(i))),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(r(a))),
        Expr::Binary(op, a, b) => Expr::bin(*op, r(a), r(b)),
        Expr::Call(i, args) => Expr::Call(*i, args.iter().map(r).collect()),
        Expr::Cast(t, a) => Expr::Cast(*t, Box::new(r(a))),
        Expr::Pop => match ic {
            Some(c) => Expr::LPop(c),
            None => Expr::Pop,
        },
        Expr::Peek(off) => {
            assert!(ic.is_none(), "peek inside a fused inner actor");
            Expr::Peek(Box::new(r(off)))
        }
        Expr::LPop(_) => panic!("inner actor already has channels"),
        other => panic!("vector construct in scalar fusion input: {other}"),
    }
}

/// A graph with a fused chain spliced in.
#[derive(Debug)]
pub struct Spliced {
    /// The rewritten graph.
    pub graph: Graph,
    /// The fused actor's node id (the one node the splice appended).
    pub fused_id: NodeId,
    /// Old-to-new node id mapping; `None` for the chain's nodes.
    pub node_map: Vec<Option<NodeId>>,
}

/// Replace a fused chain in the graph: the chain's nodes are removed, the
/// fused actor inserted, and boundary edges reconnected.
pub fn splice_fused(graph: &Graph, chain: &[NodeId], fused: Filter) -> Spliced {
    use crate::graph_edit::rebuild_without;
    use std::collections::HashSet;
    let remove: HashSet<NodeId> = chain.iter().copied().collect();
    let head = chain[0];
    let tail = *chain.last().expect("non-empty chain");
    let mut r = rebuild_without(graph, &remove);
    let fused_id = r.graph.add_node(Node::Filter(fused));
    for e in &r.dropped_edges {
        if e.dst == head {
            if let Some(src) = r.node_map[e.src.0 as usize] {
                r.graph.connect(src, e.src_port, fused_id, 0, e.elem);
            }
        } else if e.src == tail {
            if let Some(dst) = r.node_map[e.dst.0 as usize] {
                r.graph.connect(fused_id, 0, dst, e.dst_port, e.elem);
            }
        }
        // Edges strictly inside the chain vanish into internal channels.
    }
    Spliced {
        graph: r.graph,
        fused_id,
        node_map: r.node_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{simdize_single_actor, SingleActorConfig};
    use macross_sdf::Schedule;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_vm::{run_scheduled, Machine, RunResult};

    /// Paper's actor D (pop 2, push 2).
    fn actor_d() -> Filter {
        let mut fb = FilterBuilder::new("D", 2, 2, 2, ScalarTy::F32);
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let t = fb.local("t", Ty::Scalar(ScalarTy::F32));
        let tmp = fb.local("tmp", Ty::Array(ScalarTy::F32, 2));
        let coeff = fb.state("coeff", Ty::Array(ScalarTy::F32, 2));
        fb.init(|b| {
            b.set_idx(coeff, 0i32, 0.5f32);
            b.set_idx(coeff, 1i32, 0.25f32);
        });
        fb.work(|b| {
            b.for_(i, 2i32, |b| {
                b.set(t, pop());
                b.set_idx(tmp, v(i), v(t) * idx(coeff, v(i)));
            });
            b.push(sqrt(abs(idx(tmp, 0i32) + idx(tmp, 1i32))));
            b.push(sqrt(abs(idx(tmp, 0i32) - idx(tmp, 1i32))));
        });
        fb.build()
    }

    /// Paper's actor E (pop 3, push 4) with sin/cos.
    fn actor_e() -> Filter {
        let mut fb = FilterBuilder::new("E", 3, 3, 4, ScalarTy::F32);
        let x0 = fb.local("x0", Ty::Scalar(ScalarTy::F32));
        let x1 = fb.local("x1", Ty::Scalar(ScalarTy::F32));
        let x2 = fb.local("x2", Ty::Scalar(ScalarTy::F32));
        let res = fb.local("result", Ty::Array(ScalarTy::F32, 4));
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        fb.work(|b| {
            b.set(x0, pop());
            b.set(x1, pop());
            b.set(x2, pop());
            b.set_idx(res, 0i32, v(x1) * cos(v(x0)) + v(x2));
            b.set_idx(res, 1i32, v(x0) * cos(v(x1)) + v(x2));
            b.set_idx(res, 2i32, v(x1) * sin(v(x0)) + v(x2));
            b.set_idx(res, 3i32, v(x0) * sin(v(x1)) + v(x2));
            b.for_(i, 4i32, |b| {
                b.push(idx(res, v(i)));
            });
        });
        fb.build()
    }

    fn f32_source() -> StreamSpec {
        let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n) * 0.125f32);
            b.set(
                n,
                cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 512i32),
            );
        });
        src.build_spec()
    }

    fn pipeline_graph(mid: Vec<Filter>) -> Graph {
        let mut stages = vec![f32_source()];
        for f in mid {
            stages.push(StreamSpec::filter(f, ScalarTy::F32));
        }
        stages.push(StreamSpec::Sink);
        StreamSpec::pipeline(stages).build().unwrap()
    }

    fn run(graph: &Graph, sched: &Schedule, iters: u64) -> RunResult {
        run_scheduled(graph, sched, &Machine::core_i7(), iters).unwrap()
    }

    #[test]
    fn fuse_d_e_matches_paper_shape() {
        let g = pipeline_graph(vec![actor_d(), actor_e()]);
        let sched = Schedule::compute(&g).unwrap();
        // D rep 3, E rep 2 within gcd: overall reps depend on src/sink; D=3k, E=2k.
        let (d_id, e_id) = (NodeId(1), NodeId(2));
        let reps = [sched.rep(d_id), sched.rep(e_id)];
        let fused = fuse_chain(&g, &[d_id, e_id], &reps).unwrap();
        assert_eq!(fused.name, "3D_2E");
        assert_eq!(fused.pop, 6);
        assert_eq!(fused.push, 8);
        assert_eq!(fused.peek, 6);
        assert_eq!(fused.chans.len(), 1);
    }

    #[test]
    fn fused_actor_is_output_equivalent() {
        let g = pipeline_graph(vec![actor_d(), actor_e()]);
        let sched = Schedule::compute(&g).unwrap();
        let reps = [sched.rep(NodeId(1)), sched.rep(NodeId(2))];
        let fused = fuse_chain(&g, &[NodeId(1), NodeId(2)], &reps).unwrap();
        let fg = splice_fused(&g, &[NodeId(1), NodeId(2)], fused).graph;
        let fsched = Schedule::compute(&fg).unwrap();

        // Equal throughput: scale both to the same number of source firings.
        let mut s1 = sched.clone();
        let mut s2 = fsched.clone();
        let l = macross_sdf::lcm(s1.reps[0], s2.reps[0]);
        let (m1, m2) = (l / s1.reps[0], l / s2.reps[0]);
        s1.scale(m1);
        s2.scale(m2);
        let a = run(&g, &s1, 6);
        let b = run(&fg, &s2, 6);
        assert_eq!(a.output.len(), b.output.len());
        for (x, y) in a.output.iter().zip(&b.output) {
            assert!(x.bits_eq(*y), "{x:?} != {y:?}");
        }
    }

    #[test]
    fn vertical_simdization_eliminates_pack_unpack() {
        // Build both versions: (a) single-actor SIMDize D and E separately;
        // (b) fuse then SIMDize the coarse actor. Both must match scalar
        // output; (b) must spend fewer pack/unpack cycles.
        let sw = 4usize;
        let scalar_graph = pipeline_graph(vec![actor_d(), actor_e()]);
        let base = Schedule::compute(&scalar_graph).unwrap();

        // --- scalar reference, scaled for equal throughput ---
        // reps: src 12, D 6, E 4, sink 16? (depends); scale everything by 4.
        let mut ssched = base.clone();
        ssched.scale(sw as u64);

        // (a) separate single-actor SIMDization.
        let cfg = SingleActorConfig::strided(sw, ScalarTy::F32, ScalarTy::F32);
        let dv = simdize_single_actor(&actor_d(), &cfg).unwrap();
        let ev = simdize_single_actor(&actor_e(), &cfg).unwrap();
        let mut ga = pipeline_graph(vec![actor_d(), actor_e()]);
        ga.replace_node(NodeId(1), Node::Filter(dv));
        ga.replace_node(NodeId(2), Node::Filter(ev));
        let mut sa = base.clone();
        sa.scale(sw as u64);
        sa.reps[1] /= sw as u64;
        sa.reps[2] /= sw as u64;

        // (b) vertical: fuse then SIMDize.
        let reps = [base.rep(NodeId(1)), base.rep(NodeId(2))];
        let fused = fuse_chain(&scalar_graph, &[NodeId(1), NodeId(2)], &reps).unwrap();
        let Spliced {
            graph: mut gb,
            fused_id,
            ..
        } = splice_fused(&scalar_graph, &[NodeId(1), NodeId(2)], fused);
        let fsched = Schedule::compute(&gb).unwrap();
        let fused_filter = gb.node(fused_id).as_filter().unwrap().clone();
        let coarse_v = simdize_single_actor(&fused_filter, &cfg).unwrap();
        gb.replace_node(fused_id, Node::Filter(coarse_v));
        let mut sb = fsched.clone();
        sb.scale(sw as u64);
        sb.reps[fused_id.0 as usize] /= sw as u64;

        // Align throughput across all three runs via source reps.
        let l = [ssched.reps[0], sa.reps[0], sb.reps[0]]
            .into_iter()
            .fold(1, macross_sdf::lcm);
        let scale_for = |s: &mut Schedule| {
            let m = l / s.reps[0];
            s.scale(m);
        };
        scale_for(&mut ssched);
        scale_for(&mut sa);
        scale_for(&mut sb);

        let machine = Machine::core_i7();
        let r_scalar = run_scheduled(&scalar_graph, &ssched, &machine, 4).unwrap();
        let r_single = run_scheduled(&ga, &sa, &machine, 4).unwrap();
        let r_vert = run_scheduled(&gb, &sb, &machine, 4).unwrap();

        assert_eq!(r_scalar.output.len(), r_single.output.len());
        assert_eq!(r_scalar.output.len(), r_vert.output.len());
        for ((x, y), z) in r_scalar
            .output
            .iter()
            .zip(&r_single.output)
            .zip(&r_vert.output)
        {
            assert!(x.bits_eq(*y), "single-actor mismatch");
            assert!(x.bits_eq(*z), "vertical mismatch");
        }
        assert!(
            r_vert.counters.pack_unpack < r_single.counters.pack_unpack,
            "vertical ({}) must pack/unpack less than single-actor ({})",
            r_vert.counters.pack_unpack,
            r_single.counters.pack_unpack
        );
        assert!(
            r_vert.total_cycles() < r_single.total_cycles(),
            "vertical ({}) must beat single-actor ({})",
            r_vert.total_cycles(),
            r_single.total_cycles()
        );
        assert!(r_vert.total_cycles() < r_scalar.total_cycles());
    }

    #[test]
    fn stateful_link_rejected() {
        let mut acc = FilterBuilder::new("acc", 1, 1, 1, ScalarTy::F32);
        let s = acc.state("s", Ty::Scalar(ScalarTy::F32));
        acc.work(|b| {
            b.set(s, v(s) + pop());
            b.push(v(s));
        });
        let g = pipeline_graph(vec![actor_d(), acc.build()]);
        assert!(matches!(
            link_fusable(&g, NodeId(1), NodeId(2)),
            Err(FuseBlocker::NotVectorizable(_))
        ));
    }

    #[test]
    fn inner_peek_rejected() {
        let mut fir = FilterBuilder::new("fir", 3, 1, 1, ScalarTy::F32);
        let junk = fir.local("j", Ty::Scalar(ScalarTy::F32));
        fir.work(|b| {
            b.push(peek(0i32) + peek(2i32));
            b.set(junk, pop());
        });
        let g = pipeline_graph(vec![actor_d(), fir.build()]);
        assert!(matches!(
            link_fusable(&g, NodeId(1), NodeId(2)),
            Err(FuseBlocker::InnerPeek(_))
        ));
    }

    #[test]
    fn head_peek_allowed() {
        let mut fir = FilterBuilder::new("fir", 3, 1, 1, ScalarTy::F32);
        let junk = fir.local("j", Ty::Scalar(ScalarTy::F32));
        fir.work(|b| {
            b.push(peek(0i32) + peek(2i32));
            b.set(junk, pop());
        });
        // fir (peeking head) -> D: allowed.
        let g = pipeline_graph(vec![fir.build(), actor_d()]);
        link_fusable(&g, NodeId(1), NodeId(2)).unwrap();
        let sched = Schedule::compute(&g).unwrap();
        let reps = [sched.rep(NodeId(1)), sched.rep(NodeId(2))];
        let fused = fuse_chain(&g, &[NodeId(1), NodeId(2)], &reps).unwrap();
        assert!(fused.peek > fused.pop);
    }
}
