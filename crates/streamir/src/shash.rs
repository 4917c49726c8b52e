//! Structural graph hashing: a 128-bit fingerprint of *what a stream
//! program computes*, independent of how it was written down.
//!
//! Two graphs collide exactly when they have the same topology (up to
//! node-id / insertion-order relabeling), the same declared rates, the
//! same splitter/joiner configurations, the same edge element types and
//! reorder markings, and structurally identical filter bodies. Everything
//! diagnostic is ignored: filter names, variable names, channel names and
//! the order nodes happened to be added to the graph. Variables and
//! channels are referenced by index inside the AST ([`crate::expr::VarId`]
//! never carries a name), so body hashing is alpha-invariant for free —
//! only the *declaration* lists need name-blind treatment.
//!
//! The fingerprint keys the service layer's compile-once cache: a session
//! whose graph hashes to an already-compiled shape reuses the SIMDized
//! graph, schedule, and fused bytecode without re-running the driver. A
//! false collision there would hand a tenant another program's code, so
//! the hash is deliberately conservative: 128 bits from two independently
//! seeded streams, with Weisfeiler–Lehman label refinement so that
//! topology (not just local node content) feeds every label.

use crate::expr::{Expr, LValue};
use crate::filter::{Filter, VarKind};
use crate::graph::{AddrGen, Graph, Node, Reorder, ReorderSide, SplitKind};
use crate::stmt::Stmt;
use crate::types::{ScalarTy, Ty, Value};
use std::fmt;

/// A 128-bit structural fingerprint of a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphHash(pub u128);

impl GraphHash {
    /// Lower-case hex rendering (32 digits) for reports and cache keys.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for GraphHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for GraphHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GraphHash({:032x})", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Seeds separating the two streams; arbitrary odd constants.
const SEED_A: u64 = 0x9e37_79b9_7f4a_7c15;
const SEED_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Two independently seeded FNV-1a-style word folds, advanced in
/// lockstep. Each absorbed word is multiplied-and-rotated so that word
/// position matters (plain FNV over equal words would be too regular).
#[derive(Clone, Copy)]
struct H {
    a: u64,
    b: u64,
}

impl H {
    fn new() -> H {
        H {
            a: FNV_OFFSET ^ SEED_A,
            b: FNV_OFFSET.wrapping_mul(FNV_PRIME) ^ SEED_B,
        }
    }

    #[must_use]
    fn word(mut self, x: u64) -> H {
        self.a = (self.a ^ x).wrapping_mul(FNV_PRIME).rotate_left(27);
        self.b = (self.b ^ x.rotate_left(32))
            .wrapping_mul(FNV_PRIME)
            .rotate_left(31);
        self
    }

    /// Absorb a previously finished 128-bit label.
    #[must_use]
    fn label(self, l: u128) -> H {
        self.word(l as u64).word((l >> 64) as u64)
    }

    fn finish(self) -> u128 {
        // Final avalanche so truncated prefixes of the stream don't
        // produce related outputs.
        let mut a = self.a ^ self.b.rotate_left(17);
        a ^= a >> 33;
        a = a.wrapping_mul(0xff51_afd7_ed55_8ccd);
        let mut b = self.b ^ self.a.rotate_left(43);
        b ^= b >> 29;
        b = b.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        ((a as u128) << 64) | b as u128
    }
}

fn scalar_tag(t: ScalarTy) -> u64 {
    match t {
        ScalarTy::I32 => 1,
        ScalarTy::I64 => 2,
        ScalarTy::F32 => 3,
        ScalarTy::F64 => 4,
    }
}

fn hash_ty(h: H, ty: &Ty) -> H {
    match ty {
        Ty::Scalar(t) => h.word(1).word(scalar_tag(*t)),
        Ty::Vector(t, w) => h.word(2).word(scalar_tag(*t)).word(*w as u64),
        Ty::Array(t, n) => h.word(3).word(scalar_tag(*t)).word(*n as u64),
        Ty::VectorArray(t, w, n) => h
            .word(4)
            .word(scalar_tag(*t))
            .word(*w as u64)
            .word(*n as u64),
    }
}

/// Bit-exact value hashing: distinct bit patterns (including NaN
/// payloads and `-0.0` vs `0.0`) hash differently, matching
/// [`Value::bits_eq`] semantics used by the differential tests.
fn hash_value(h: H, v: &Value) -> H {
    match v {
        Value::I32(x) => h.word(1).word(*x as u32 as u64),
        Value::I64(x) => h.word(2).word(*x as u64),
        Value::F32(x) => h.word(3).word(x.to_bits() as u64),
        Value::F64(x) => h.word(4).word(x.to_bits()),
    }
}

fn hash_expr(mut h: H, e: &Expr) -> H {
    match e {
        Expr::Const(v) => hash_value(h.word(1), v),
        Expr::ConstVec(vs) => {
            h = h.word(2).word(vs.len() as u64);
            for v in vs {
                h = hash_value(h, v);
            }
            h
        }
        Expr::Var(v) => h.word(3).word(v.0 as u64),
        Expr::Index(v, i) => hash_expr(h.word(4).word(v.0 as u64), i),
        Expr::VIndex(v, i, w) => hash_expr(h.word(5).word(v.0 as u64).word(*w as u64), i),
        Expr::Unary(op, a) => hash_expr(h.word(6).word(*op as u64), a),
        Expr::Binary(op, a, b) => hash_expr(hash_expr(h.word(7).word(*op as u64), a), b),
        Expr::Call(intr, args) => {
            h = h.word(8).word(*intr as u64).word(args.len() as u64);
            for a in args {
                h = hash_expr(h, a);
            }
            h
        }
        Expr::Cast(t, a) => hash_expr(h.word(9).word(scalar_tag(*t)), a),
        Expr::Pop => h.word(10),
        Expr::Peek(off) => hash_expr(h.word(11), off),
        Expr::VPop { width } => h.word(12).word(*width as u64),
        Expr::VPeek { offset, width } => hash_expr(h.word(13).word(*width as u64), offset),
        Expr::LPop(c) => h.word(14).word(c.0 as u64),
        Expr::LVPop(c, w) => h.word(15).word(c.0 as u64).word(*w as u64),
        Expr::Lane(a, i) => hash_expr(h.word(16).word(*i as u64), a),
        Expr::Splat(a, w) => hash_expr(h.word(17).word(*w as u64), a),
        Expr::PermuteEven(a, b) => hash_expr(hash_expr(h.word(18), a), b),
        Expr::PermuteOdd(a, b) => hash_expr(hash_expr(h.word(19), a), b),
    }
}

fn hash_lvalue(h: H, lv: &LValue) -> H {
    match lv {
        LValue::Var(v) => h.word(1).word(v.0 as u64),
        LValue::Index(v, i) => hash_expr(h.word(2).word(v.0 as u64), i),
        LValue::LaneVar(v, l) => h.word(3).word(v.0 as u64).word(*l as u64),
        LValue::LaneIndex(v, i, l) => hash_expr(h.word(4).word(v.0 as u64).word(*l as u64), i),
        LValue::VIndex(v, i, w) => hash_expr(h.word(5).word(v.0 as u64).word(*w as u64), i),
    }
}

fn hash_stmt(mut h: H, s: &Stmt) -> H {
    match s {
        Stmt::Assign(lv, e) => hash_expr(hash_lvalue(h.word(1), lv), e),
        Stmt::Push(e) => hash_expr(h.word(2), e),
        Stmt::RPush { value, offset } => hash_expr(hash_expr(h.word(3), value), offset),
        Stmt::VPush { value, width } => hash_expr(h.word(4).word(*width as u64), value),
        Stmt::LPush(c, e) => hash_expr(h.word(5).word(c.0 as u64), e),
        Stmt::LVPush(c, e, w) => hash_expr(h.word(6).word(c.0 as u64).word(*w as u64), e),
        Stmt::For { var, count, body } => {
            h = hash_expr(h.word(7).word(var.0 as u64), count);
            hash_block(h, body)
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            h = hash_expr(h.word(8), cond);
            h = hash_block(h, then_branch);
            hash_block(h, else_branch)
        }
        Stmt::AdvanceRead(n) => h.word(9).word(*n as u64),
        Stmt::AdvanceWrite(n) => h.word(10).word(*n as u64),
    }
}

fn hash_block(mut h: H, block: &[Stmt]) -> H {
    h = h.word(block.len() as u64);
    for s in block {
        h = hash_stmt(h, s);
    }
    h
}

/// Name-blind filter signature: rates, variable and channel *shapes*
/// (types and kinds, never names), and both function bodies.
fn filter_sig(f: &Filter) -> u128 {
    let mut h = H::new()
        .word(0xf11f)
        .word(f.peek as u64)
        .word(f.pop as u64)
        .word(f.push as u64)
        .word(f.vars.len() as u64);
    for v in &f.vars {
        h = hash_ty(h, &v.ty).word(match v.kind {
            VarKind::Local => 1,
            VarKind::State => 2,
        });
    }
    h = h.word(f.chans.len() as u64);
    for c in &f.chans {
        h = hash_ty(h, &c.ty);
    }
    h = hash_block(h, &f.init);
    h = hash_block(h, &f.work);
    // The region annotation changes what the SIMDizer may do with the
    // filter, so two filters differing only in it must not collide in
    // the compile-once cache.
    match &f.region {
        None => h = h.word(0),
        Some(r) => {
            h = h
                .word(0xbe10)
                .word(r.regions as u64)
                .word(r.cursor.0 as u64)
                .word(r.vars.len() as u64);
            for v in &r.vars {
                h = h.word(v.0 as u64);
            }
        }
    }
    h.finish()
}

fn hash_split_kind(mut h: H, kind: &SplitKind) -> H {
    match kind {
        SplitKind::Duplicate => h.word(1),
        SplitKind::RoundRobin(ws) => {
            h = h.word(2).word(ws.len() as u64);
            for &w in ws {
                h = h.word(w as u64);
            }
            h
        }
    }
}

/// Local (round-zero) label of a node: its own content only.
fn node_sig(node: &Node) -> u128 {
    let h = H::new();
    match node {
        Node::Filter(f) => h.word(1).label(filter_sig(f)),
        Node::Splitter(kind) => hash_split_kind(h.word(2), kind),
        Node::Joiner(ws) => {
            let mut h = h.word(3).word(ws.len() as u64);
            for &w in ws {
                h = h.word(w as u64);
            }
            h
        }
        Node::HSplitter { kind, width } => hash_split_kind(h.word(4).word(*width as u64), kind),
        Node::HJoiner { weights, width } => {
            let mut h = h.word(5).word(*width as u64).word(weights.len() as u64);
            for &w in weights {
                h = h.word(w as u64);
            }
            h
        }
        Node::Sink => h.word(6),
    }
    .finish()
}

fn hash_reorder(h: H, r: &Option<Reorder>) -> H {
    match r {
        None => h.word(0),
        Some(r) => h
            .word(1)
            .word(r.rate as u64)
            .word(r.sw as u64)
            .word(match r.side {
                ReorderSide::Consumer => 1,
                ReorderSide::Producer => 2,
            })
            .word(match r.addr_gen {
                AddrGen::Sagu => 1,
                AddrGen::Software => 2,
            }),
    }
}

/// Content signature of an edge, without endpoint identities (those are
/// supplied as refined labels by the caller).
fn edge_sig(h: H, elem: ScalarTy, width: usize, reorder: &Option<Reorder>) -> H {
    hash_reorder(h.word(scalar_tag(elem)).word(width as u64), reorder)
}

/// Compute the structural fingerprint of `graph`.
///
/// Runs Weisfeiler–Lehman label refinement: each node starts from its
/// name-blind content signature and repeatedly absorbs its neighbours'
/// labels through port-ordered edge descriptions, so after `k` rounds a
/// label summarizes the node's radius-`k` neighbourhood. The final hash
/// is the fold of the *sorted* label multiset plus the sorted relation of
/// labelled edges — both order-free, which is what makes the result
/// insertion-order invariant.
pub fn structural_hash(graph: &Graph) -> GraphHash {
    let n = graph.node_count();
    let mut labels: Vec<u128> = graph.nodes().map(|(_, node)| node_sig(node)).collect();
    // Enough rounds to propagate across any benchmark-sized graph; more
    // rounds can only merge fewer (never more) shapes, and invariance
    // properties hold for any round count.
    let rounds = n.clamp(1, 32);
    // Port-sorted edge lists, resolved once for every round: the
    // absorption order is structural, not insertion order.
    let adj = graph.adjacency();
    let mut next = labels.clone();
    for _ in 0..rounds {
        for (id, _) in graph.nodes() {
            let mut h = H::new().label(labels[id.0 as usize]);
            for &e in adj.ins(id) {
                let edge = graph.edge(e);
                h = edge_sig(
                    h.word(0x1e)
                        .word(edge.dst_port as u64)
                        .word(edge.src_port as u64)
                        .label(labels[edge.src.0 as usize]),
                    edge.elem,
                    edge.width,
                    &edge.reorder,
                );
            }
            for &e in adj.outs(id) {
                let edge = graph.edge(e);
                h = edge_sig(
                    h.word(0x0e)
                        .word(edge.src_port as u64)
                        .word(edge.dst_port as u64)
                        .label(labels[edge.dst.0 as usize]),
                    edge.elem,
                    edge.width,
                    &edge.reorder,
                );
            }
            next[id.0 as usize] = h.finish();
        }
        std::mem::swap(&mut labels, &mut next);
    }

    let mut sorted = labels.clone();
    sorted.sort_unstable();
    let mut edge_hashes: Vec<u128> = graph
        .edges()
        .map(|(_, e)| {
            edge_sig(
                H::new()
                    .label(labels[e.src.0 as usize])
                    .word(e.src_port as u64)
                    .label(labels[e.dst.0 as usize])
                    .word(e.dst_port as u64),
                e.elem,
                e.width,
                &e.reorder,
            )
            .finish()
        })
        .collect();
    edge_hashes.sort_unstable();

    let mut h = H::new().word(n as u64).word(edge_hashes.len() as u64);
    for l in sorted {
        h = h.label(l);
    }
    for e in edge_hashes {
        h = h.label(e);
    }
    GraphHash(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StreamSpec;
    use crate::edsl::*;
    use crate::types::{ScalarTy, Ty};

    /// A two-filter pipeline parameterized over every diagnostic name.
    fn named_pipeline(src_name: &str, f_name: &str, state_name: &'static str, mul: i32) -> Graph {
        let mut src = FilterBuilder::new(src_name, 0, 0, 2, ScalarTy::I32);
        let n = src.state(state_name, Ty::Scalar(ScalarTy::I32));
        src.work(|b| {
            b.push(v(n));
            b.set(n, v(n) + 1i32);
            b.push(v(n));
            b.set(n, v(n) + 1i32);
        });
        let mut f = FilterBuilder::new(f_name, 1, 1, 1, ScalarTy::I32);
        f.work(move |b| {
            b.push(pop() * mul);
        });
        StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap()
    }

    #[test]
    fn alpha_renamed_graphs_collide() {
        let a = named_pipeline("src", "scale", "n", 3);
        let b = named_pipeline("generator", "gain", "counter", 3);
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn body_change_diverges() {
        let a = named_pipeline("src", "scale", "n", 3);
        let b = named_pipeline("src", "scale", "n", 4);
        assert_ne!(structural_hash(&a), structural_hash(&b));
    }

    fn rated_filter(name: &str, peek: usize, pop: usize, push: usize) -> Filter {
        let mut f = Filter::new(name, peek, pop, push);
        let mut b = B::new();
        for _ in 0..push {
            b.push(1i32);
        }
        if pop > 0 {
            b.stmt(Stmt::AdvanceRead(pop));
        }
        f.work = b.build();
        f
    }

    /// The same diamond built with two different node insertion orders
    /// (and therefore different NodeIds) must collide.
    fn diamond(order_flipped: bool) -> Graph {
        let mut g = Graph::new();
        let src = rated_filter("src", 0, 0, 2);
        let left = rated_filter("left", 1, 1, 1);
        let right = rated_filter("right", 1, 1, 3);
        let (s, sp, l, r, j, k) = if order_flipped {
            let k = g.add_node(Node::Sink);
            let j = g.add_node(Node::Joiner(vec![1, 3]));
            let r = g.add_node(Node::filter(right));
            let l = g.add_node(Node::filter(left));
            let sp = g.add_node(Node::Splitter(SplitKind::RoundRobin(vec![1, 1])));
            let s = g.add_node(Node::filter(src));
            (s, sp, l, r, j, k)
        } else {
            let s = g.add_node(Node::filter(src));
            let sp = g.add_node(Node::Splitter(SplitKind::RoundRobin(vec![1, 1])));
            let l = g.add_node(Node::filter(left));
            let r = g.add_node(Node::filter(right));
            let j = g.add_node(Node::Joiner(vec![1, 3]));
            let k = g.add_node(Node::Sink);
            (s, sp, l, r, j, k)
        };
        g.connect(s, 0, sp, 0, ScalarTy::I32);
        g.connect(sp, 0, l, 0, ScalarTy::I32);
        g.connect(sp, 1, r, 0, ScalarTy::I32);
        g.connect(l, 0, j, 0, ScalarTy::I32);
        g.connect(r, 0, j, 1, ScalarTy::I32);
        g.connect(j, 0, k, 0, ScalarTy::I32);
        g
    }

    #[test]
    fn insertion_order_is_ignored() {
        assert_eq!(
            structural_hash(&diamond(false)),
            structural_hash(&diamond(true))
        );
    }

    #[test]
    fn rate_change_diverges() {
        let mut a = Graph::new();
        let s = a.add_node(Node::filter(rated_filter("s", 0, 0, 2)));
        let k = a.add_node(Node::Sink);
        a.connect(s, 0, k, 0, ScalarTy::I32);
        let mut b = Graph::new();
        let s = b.add_node(Node::filter(rated_filter("s", 0, 0, 4)));
        let k = b.add_node(Node::Sink);
        b.connect(s, 0, k, 0, ScalarTy::I32);
        assert_ne!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn splitter_weights_matter() {
        let build = |w: Vec<usize>| {
            let mut g = Graph::new();
            let s = g.add_node(Node::filter(rated_filter("s", 0, 0, 4)));
            let sp = g.add_node(Node::Splitter(SplitKind::RoundRobin(w.clone())));
            let l = g.add_node(Node::filter(rated_filter("l", 1, 1, 1)));
            let r = g.add_node(Node::filter(rated_filter("r", 1, 1, 1)));
            let j = g.add_node(Node::Joiner(w.clone()));
            let k = g.add_node(Node::Sink);
            g.connect(s, 0, sp, 0, ScalarTy::I32);
            g.connect(sp, 0, l, 0, ScalarTy::I32);
            g.connect(sp, 1, r, 0, ScalarTy::I32);
            g.connect(l, 0, j, 0, ScalarTy::I32);
            g.connect(r, 0, j, 1, ScalarTy::I32);
            g.connect(j, 0, k, 0, ScalarTy::I32);
            g
        };
        assert_ne!(
            structural_hash(&build(vec![1, 3])),
            structural_hash(&build(vec![2, 2]))
        );
    }

    #[test]
    fn element_type_matters() {
        let build = |t: ScalarTy| {
            let mut g = Graph::new();
            let mut f = Filter::new("s", 0, 0, 1);
            let mut b = B::new();
            match t {
                ScalarTy::F32 => b.push(1.0f32),
                _ => b.push(1i32),
            };
            f.work = b.build();
            let s = g.add_node(Node::filter(f));
            let k = g.add_node(Node::Sink);
            g.connect(s, 0, k, 0, t);
            g
        };
        assert_ne!(
            structural_hash(&build(ScalarTy::I32)),
            structural_hash(&build(ScalarTy::F32))
        );
    }

    #[test]
    fn hex_rendering_is_stable_width() {
        let g = named_pipeline("src", "scale", "n", 3);
        let hex = structural_hash(&g).to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
