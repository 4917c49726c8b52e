//! Randomized property tests for the parameterized-dataflow layer: for
//! arbitrary parameterized pipelines — rates drawn from the `RateExpr`
//! language (constants, parameters, sums, products) — the balance solver
//! must produce a balanced *and minimal* repetition vector at **every**
//! valuation of the declared domain.
//!
//! Cases are generated with a seeded xorshift PRNG (the container has no
//! network access to fetch `proptest`/`rand`), so every run explores the
//! same deterministic case set and failures are reproducible from the
//! printed template index.

mod walks;

use macross_repro::macross::driver::{macro_simdize, SimdizeOptions};
use macross_repro::sdf::{is_balanced, repetition_vector};
use macross_repro::streamir::builder::StreamSpec;
use macross_repro::streamir::edsl::*;
use macross_repro::streamir::types::{ScalarTy, Ty};
use macross_repro::streamir::{ParamDomain, RateExpr, Valuation};
use macross_repro::vm::Machine;

// ---------------------------------------------------------------------
// Deterministic PRNG (xorshift64*), same construction as proptests.rs.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

// ---------------------------------------------------------------------
// Random parameterized pipelines.
// ---------------------------------------------------------------------

/// A random rate expression that is >= 1 at every valuation of a domain
/// whose ranges start at 1: leaves are positive constants or parameters,
/// and sums/products of positives stay positive.
fn rand_rate(rng: &mut Rng, params: &[String]) -> RateExpr {
    fn leaf(rng: &mut Rng, params: &[String]) -> RateExpr {
        if params.is_empty() || rng.range(0, 2) == 0 {
            RateExpr::Const(rng.range(1, 4) as u64)
        } else {
            RateExpr::param(params[rng.range(0, params.len())].clone())
        }
    }
    match rng.range(0, 5) {
        0 | 1 => leaf(rng, params),
        2 => leaf(rng, params), // weight leaves over compounds
        3 => RateExpr::Mul(Box::new(leaf(rng, params)), Box::new(leaf(rng, params))),
        _ => RateExpr::Add(Box::new(leaf(rng, params)), Box::new(leaf(rng, params))),
    }
}

/// One random template: a parameter domain plus per-stage (pop, push)
/// rate expressions for a pipeline of `stages` rate-changing filters.
struct TemplateSpec {
    domain: ParamDomain,
    rates: Vec<(RateExpr, RateExpr)>,
}

fn rand_template(rng: &mut Rng) -> TemplateSpec {
    let n_params = rng.range(1, 3);
    let names: Vec<String> = (0..n_params).map(|i| format!("p{i}")).collect();
    let mut domain = ParamDomain::new();
    for name in &names {
        let lo = rng.range(1, 3) as u64;
        let hi = lo + rng.range(0, 3) as u64;
        domain = domain.with(name.clone(), lo, hi);
    }
    let stages = rng.range(2, 6);
    let rates = (0..stages)
        .map(|_| (rand_rate(rng, &names), rand_rate(rng, &names)))
        .collect();
    TemplateSpec { domain, rates }
}

/// Instantiate the spec at one valuation: a source pushing 1, then the
/// rate-changing stages, then a sink. Every stage pops `pop`, pushes
/// `push` derived values.
fn instantiate(spec: &TemplateSpec, val: &Valuation) -> macross_repro::streamir::graph::Graph {
    let mut parts = Vec::with_capacity(spec.rates.len() + 2);
    let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
    src.work(|b| {
        b.push(c(1i32));
    });
    parts.push(src.build_spec());
    for (k, (pop_e, push_e)) in spec.rates.iter().enumerate() {
        let pop_n = pop_e.eval(val).unwrap();
        let push_n = push_e.eval(val).unwrap();
        let mut fb = FilterBuilder::new(format!("stage{k}"), pop_n, pop_n, push_n, ScalarTy::I32);
        let acc = fb.local("acc", Ty::Scalar(ScalarTy::I32));
        let i = fb.local("i", Ty::Scalar(ScalarTy::I32));
        let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
        fb.work(move |b| {
            b.set(acc, 0i32);
            b.for_(i, pop_n as i32, |b| {
                b.set(acc, v(acc) + pop());
            });
            b.for_(j, push_n as i32, |b| {
                b.push(v(acc) + v(j));
            });
        });
        parts.push(fb.build_spec());
    }
    parts.push(StreamSpec::Sink);
    StreamSpec::pipeline(parts).build().unwrap()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The solver balances every random parameterized pipeline at every
/// valuation of its domain, and the solution is minimal (the repetition
/// vector's entries are coprime — no smaller balanced vector exists).
#[test]
fn repetition_vector_balances_minimally_across_every_valuation() {
    let mut rng = Rng::new(0xD1FF_5EED);
    for case in 0..60 {
        let spec = rand_template(&mut rng);
        let valuations = spec.domain.valuations();
        assert!(!valuations.is_empty(), "case {case}: empty domain");
        for val in valuations {
            let graph = instantiate(&spec, &val);
            let reps =
                repetition_vector(&graph).unwrap_or_else(|e| panic!("case {case} at {val}: {e}"));
            assert!(
                is_balanced(&graph, &reps),
                "case {case} at {val}: unbalanced solution {reps:?}"
            );
            let g = reps.iter().copied().filter(|&r| r > 0).fold(0, gcd);
            assert_eq!(
                g, 1,
                "case {case} at {val}: non-minimal repetition vector {reps:?}"
            );
        }
    }
}

/// The summarizing static walks agree with the unrolling ones on every
/// generated pipeline at every valuation, scalar and SIMDized: each
/// stage's two loops run a parameter-sized trip count, summarized when
/// it is at least 2 (cost) or 3 (rates).
#[test]
fn summarized_walks_equal_unrolled_walks_on_generated_pipelines() {
    let machine = Machine::core_i7();
    let mut rng = Rng::new(0x5EED_0031);
    for case in 0..40 {
        let spec = rand_template(&mut rng);
        for val in spec.domain.valuations() {
            let graph = instantiate(&spec, &val);
            let what = format!("case {case} at {val}");
            walks::check_graph(&graph, &machine, &what);
            let simd = macro_simdize(&graph, &machine, &SimdizeOptions::all())
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            walks::check_graph(&simd.graph, &machine, &format!("{what} (SIMDized)"));
        }
    }
}

/// Scaling a balanced vector keeps it balanced but never minimal: the
/// solver must not return any multiple of the base solution.
#[test]
fn scaled_vectors_stay_balanced_but_are_rejected_as_solutions() {
    let mut rng = Rng::new(0xABCD_0123);
    for case in 0..20 {
        let spec = rand_template(&mut rng);
        for val in spec.domain.valuations() {
            let graph = instantiate(&spec, &val);
            let reps = repetition_vector(&graph).unwrap();
            let doubled: Vec<u64> = reps.iter().map(|r| r * 2).collect();
            assert!(
                is_balanced(&graph, &doubled),
                "case {case} at {val}: scaling broke balance"
            );
            let g = doubled.iter().copied().filter(|&r| r > 0).fold(0, gcd);
            assert!(g >= 2, "case {case} at {val}: doubled vector coprime?");
        }
    }
}

/// A parameter actually drives the solution: for a template whose rates
/// reference a parameter, different valuations yield different
/// repetition vectors (for at least one pair in the domain) — the
/// re-scheduling at a swap is not vacuous.
#[test]
fn valuations_change_the_schedule_when_rates_are_parameterized() {
    let domain = ParamDomain::new().with("k", 1, 3);
    let spec = TemplateSpec {
        domain,
        rates: vec![(RateExpr::param("k"), RateExpr::Const(1))],
    };
    let mut seen = std::collections::HashSet::new();
    for val in spec.domain.valuations() {
        let graph = instantiate(&spec, &val);
        seen.insert(repetition_vector(&graph).unwrap());
    }
    assert_eq!(
        seen.len(),
        3,
        "each decimation factor needs its own schedule"
    );
}
