//! Repetition-vector computation: solving the SDF balance equations
//! (Lee & Messerschmitt, 1987) with exact rational arithmetic.

use macross_streamir::graph::{Edge, Graph, NodeId};
use std::fmt;

/// Errors from rate matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RateMatchError {
    /// The balance equations have no consistent solution: the graph is not
    /// a valid SDF program.
    Inconsistent {
        /// Producer of the offending edge.
        src: u32,
        /// Consumer of the offending edge.
        dst: u32,
    },
    /// An edge has a zero production or consumption rate.
    ZeroRate {
        /// Producer of the offending edge.
        src: u32,
        /// Consumer of the offending edge.
        dst: u32,
    },
    /// Arithmetic overflow while solving (rates astronomically imbalanced).
    Overflow,
}

impl fmt::Display for RateMatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateMatchError::Inconsistent { src, dst } => {
                write!(f, "balance equations inconsistent on edge n{src} -> n{dst}")
            }
            RateMatchError::ZeroRate { src, dst } => {
                write!(f, "edge n{src} -> n{dst} has a zero push or pop rate")
            }
            RateMatchError::Overflow => write!(f, "overflow while solving balance equations"),
        }
    }
}

impl std::error::Error for RateMatchError {}

/// Greatest common divisor.
pub fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple.
///
/// # Panics
/// Panics on overflow of `u64`.
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

/// A non-negative rational number used while propagating rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    fn new(num: u64, den: u64) -> Option<Ratio> {
        if den == 0 {
            return None;
        }
        let g = gcd(num, den).max(1);
        Some(Ratio {
            num: num / g,
            den: den / g,
        })
    }

    fn mul(self, num: u64, den: u64) -> Option<Ratio> {
        let a = self.num.checked_mul(num)?;
        let b = self.den.checked_mul(den)?;
        Ratio::new(a, b)
    }
}

/// The minimal repetition vector of a graph: the smallest positive integer
/// firing counts per node such that every tape is balanced in one steady
/// state (`reps[src] * push == reps[dst] * pop` on every edge).
///
/// # Errors
/// See [`RateMatchError`].
pub fn repetition_vector(graph: &Graph) -> Result<Vec<u64>, RateMatchError> {
    let n = graph.node_count();
    let mut ratio: Vec<Option<Ratio>> = vec![None; n];

    // Build adjacency over the undirected structure for propagation.
    for (_, e) in graph.edges() {
        let push = graph.node(e.src).push_rate(e.src_port);
        let pop = graph.node(e.dst).pop_rate(e.dst_port);
        if push == 0 || pop == 0 {
            return Err(RateMatchError::ZeroRate {
                src: e.src.0,
                dst: e.dst.0,
            });
        }
    }

    // Each node's edges in table order, from one pass over the table: the
    // propagation visits them as a scan of the whole table would.
    let mut incident: Vec<Vec<&Edge>> = vec![Vec::new(); n];
    for (_, e) in graph.edges() {
        incident[e.src.0 as usize].push(e);
        if e.dst != e.src {
            incident[e.dst.0 as usize].push(e);
        }
    }

    for start in 0..n {
        if ratio[start].is_some() {
            continue;
        }
        ratio[start] = Some(Ratio { num: 1, den: 1 });
        let mut stack = vec![NodeId(start as u32)];
        while let Some(id) = stack.pop() {
            let r = ratio[id.0 as usize].expect("visited node has a ratio");
            for &e in &incident[id.0 as usize] {
                if e.src == id {
                    let push = graph.node(e.src).push_rate(e.src_port) as u64;
                    let pop = graph.node(e.dst).pop_rate(e.dst_port) as u64;
                    let next = r.mul(push, pop).ok_or(RateMatchError::Overflow)?;
                    match ratio[e.dst.0 as usize] {
                        None => {
                            ratio[e.dst.0 as usize] = Some(next);
                            stack.push(e.dst);
                        }
                        Some(existing) => {
                            if existing != next {
                                return Err(RateMatchError::Inconsistent {
                                    src: e.src.0,
                                    dst: e.dst.0,
                                });
                            }
                        }
                    }
                } else if e.dst == id {
                    let push = graph.node(e.src).push_rate(e.src_port) as u64;
                    let pop = graph.node(e.dst).pop_rate(e.dst_port) as u64;
                    let next = r.mul(pop, push).ok_or(RateMatchError::Overflow)?;
                    match ratio[e.src.0 as usize] {
                        None => {
                            ratio[e.src.0 as usize] = Some(next);
                            stack.push(e.src);
                        }
                        Some(existing) => {
                            if existing != next {
                                return Err(RateMatchError::Inconsistent {
                                    src: e.src.0,
                                    dst: e.dst.0,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // Scale to the minimal integer vector: multiply by lcm of denominators,
    // then divide by the gcd of the numerators (per connected component the
    // result is already minimal; global gcd keeps disconnected graphs sane).
    let mut denom_lcm = 1u64;
    for r in ratio.iter().flatten() {
        denom_lcm = lcm(denom_lcm, r.den);
        if denom_lcm == 0 {
            return Err(RateMatchError::Overflow);
        }
    }
    let mut reps = Vec::with_capacity(ratio.len());
    for r in &ratio {
        let r = r.expect("all nodes visited");
        let rep = r
            .num
            .checked_mul(denom_lcm / r.den)
            .ok_or(RateMatchError::Overflow)?;
        reps.push(rep);
    }
    let mut g = 0u64;
    for &r in &reps {
        g = gcd(g, r);
    }
    if g > 1 {
        for r in &mut reps {
            *r /= g;
        }
    }
    Ok(reps)
}

/// Verify that a repetition vector balances every edge of the graph.
pub fn is_balanced(graph: &Graph, reps: &[u64]) -> bool {
    graph.edges().all(|(_, e)| {
        let push = graph.node(e.src).push_rate(e.src_port) as u64;
        let pop = graph.node(e.dst).pop_rate(e.dst_port) as u64;
        reps[e.src.0 as usize] * push == reps[e.dst.0 as usize] * pop
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::filter::Filter;
    use macross_streamir::graph::{Node, SplitKind};
    use macross_streamir::types::ScalarTy;

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 5), 0);
    }

    /// The paper's running example (Figure 2a): A(push 8) -> split(4,4,4,4)
    /// -> B(12,3) x4 -> C(1,1) x4 -> join(1,1,1,1) -> D(2,2) -> E(3,4) ->
    /// F(4,1) -> G(2,8) -> H(pop 8).
    fn figure2a() -> (Graph, Vec<u64>) {
        let mut g = Graph::new();
        let a = g.add_node(Node::filter(Filter::new("A", 0, 0, 8)));
        let sp = g.add_node(Node::Splitter(SplitKind::RoundRobin(vec![4, 4, 4, 4])));
        let mut bs = Vec::new();
        let mut cs = Vec::new();
        for i in 0..4 {
            bs.push(g.add_node(Node::filter(Filter::new(format!("B{i}"), 12, 12, 3))));
            cs.push(g.add_node(Node::filter(Filter::new(format!("C{i}"), 1, 1, 1))));
        }
        let j = g.add_node(Node::Joiner(vec![1, 1, 1, 1]));
        let d = g.add_node(Node::filter(Filter::new("D", 2, 2, 2)));
        let e = g.add_node(Node::filter(Filter::new("E", 3, 3, 4)));
        let f = g.add_node(Node::filter(Filter::new("F", 4, 4, 1)));
        let gg = g.add_node(Node::filter(Filter::new("G", 4, 2, 8)));
        let h = g.add_node(Node::filter(Filter::new("H", 8, 8, 1)));
        let k = g.add_node(Node::Sink);
        g.connect(a, 0, sp, 0, ScalarTy::F32);
        for i in 0..4 {
            g.connect(sp, i, bs[i], 0, ScalarTy::F32);
            g.connect(bs[i], 0, cs[i], 0, ScalarTy::F32);
            g.connect(cs[i], 0, j, i, ScalarTy::F32);
        }
        g.connect(j, 0, d, 0, ScalarTy::F32);
        g.connect(d, 0, e, 0, ScalarTy::F32);
        g.connect(e, 0, f, 0, ScalarTy::F32);
        g.connect(f, 0, gg, 0, ScalarTy::F32);
        g.connect(gg, 0, h, 0, ScalarTy::F32);
        g.connect(h, 0, k, 0, ScalarTy::F32);
        let reps = repetition_vector(&g).unwrap();
        (g, reps)
    }

    #[test]
    fn figure2a_repetitions_match_paper() {
        let (g, reps) = figure2a();
        // Paper's repetition numbers (Figure 2a): A=6, split=3, B=1, C=3,
        // join=3, D=6, E=4, F=4, G=2, H=2.
        let name_of = |want: &str| -> u64 {
            g.nodes()
                .find(|(_, n)| n.name() == want)
                .map(|(id, _)| reps[id.0 as usize])
                .unwrap()
        };
        assert_eq!(name_of("A"), 6);
        assert_eq!(name_of("B0"), 1);
        assert_eq!(name_of("C2"), 3);
        assert_eq!(name_of("D"), 6);
        assert_eq!(name_of("E"), 4);
        assert_eq!(name_of("F"), 4);
        assert_eq!(name_of("G"), 2);
        assert_eq!(name_of("H"), 2);
        assert!(is_balanced(&g, &reps));
    }

    #[test]
    fn minimality() {
        let (_, reps) = figure2a();
        let mut g = 0u64;
        for &r in &reps {
            g = gcd(g, r);
        }
        assert_eq!(g, 1, "repetition vector must be minimal");
    }

    #[test]
    fn inconsistent_rates_detected() {
        // Diamond where the two paths disagree: src -> dup -> (x1, x2) -> join.
        let mut g = Graph::new();
        let s = g.add_node(Node::filter(Filter::new("s", 0, 0, 1)));
        let sp = g.add_node(Node::Splitter(SplitKind::Duplicate));
        let x1 = g.add_node(Node::filter(Filter::new("x1", 1, 1, 1)));
        let x2 = g.add_node(Node::filter(Filter::new("x2", 1, 1, 2)));
        let j = g.add_node(Node::Joiner(vec![1, 1]));
        let k = g.add_node(Node::Sink);
        g.connect(s, 0, sp, 0, ScalarTy::F32);
        g.connect(sp, 0, x1, 0, ScalarTy::F32);
        g.connect(sp, 1, x2, 0, ScalarTy::F32);
        g.connect(x1, 0, j, 0, ScalarTy::F32);
        g.connect(x2, 0, j, 1, ScalarTy::F32);
        g.connect(j, 0, k, 0, ScalarTy::F32);
        assert!(matches!(
            repetition_vector(&g),
            Err(RateMatchError::Inconsistent { .. })
        ));
    }

    #[test]
    fn zero_rate_detected() {
        let mut g = Graph::new();
        let s = g.add_node(Node::filter(Filter::new("s", 0, 0, 1)));
        // Filter that never reads its input per its declared rate.
        let f = g.add_node(Node::filter(Filter::new("f", 1, 0, 1)));
        let k = g.add_node(Node::Sink);
        g.connect(s, 0, f, 0, ScalarTy::F32);
        g.connect(f, 0, k, 0, ScalarTy::F32);
        assert!(matches!(
            repetition_vector(&g),
            Err(RateMatchError::ZeroRate { .. })
        ));
    }

    #[test]
    fn simple_chain_scaling() {
        let mut g = Graph::new();
        let a = g.add_node(Node::filter(Filter::new("a", 0, 0, 3)));
        let b = g.add_node(Node::filter(Filter::new("b", 2, 2, 1)));
        let k = g.add_node(Node::Sink);
        g.connect(a, 0, b, 0, ScalarTy::I32);
        g.connect(b, 0, k, 0, ScalarTy::I32);
        let reps = repetition_vector(&g).unwrap();
        assert_eq!(reps, vec![2, 3, 3]);
    }
}
