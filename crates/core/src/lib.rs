//! # macross
//!
//! The core of the MacroSS reproduction (ASPLOS 2010): **macro-SIMDization
//! of streaming applications** — vectorization decided on the stream graph
//! rather than on lowered loops.
//!
//! The crate implements the paper's three graph-level transforms and both
//! tape optimizations, orchestrated by the Algorithm-1 driver:
//!
//! - [`single`] — single-actor SIMDization (Section 3.1): `SW` consecutive
//!   firings of a stateless actor become one data-parallel firing, with
//!   strided scalar tape accesses packing/unpacking lanes.
//! - [`vertical`] — vertical SIMDization (Section 3.2): pipelines of
//!   vectorizable actors are fused so the firing reorder turns their
//!   internal tapes into vector buffers, eliminating the pack/unpack.
//! - [`horizontal`] — horizontal SIMDization (Section 3.3): `SW`
//!   isomorphic task-parallel actors (stateful allowed) merge into one
//!   vector actor on vector tapes, with HSplitter/HJoiner doing the
//!   transposition.
//! - [`permnet`] — permutation-based tape accesses (Section 3.4, Fig. 7).
//! - the SAGU tape optimization (Section 3.4, Figs. 8/9) via
//!   [`single::TapeMode::VectorReorder`] and edge reorder markings, with
//!   the hardware model in the `macross-sagu` crate.
//! - [`driver`] — Algorithm 1: scheduling, segment identification,
//!   Equation-1 repetition adjustment, cost-model-driven tape-mode
//!   selection (each actor staged once, every mode pair costed from that
//!   staging, only the winner lowered), and final validation.
//!
//! Every transform is *output-preserving by construction and by test*: the
//! differential harness runs the scalar and SIMDized graphs on the
//! `macross-vm` interpreter and requires bit-identical sink output.
//!
//! ```
//! use macross::driver::{macro_simdize, SimdizeOptions};
//! use macross_streamir::builder::StreamSpec;
//! use macross_streamir::edsl::*;
//! use macross_streamir::types::{ScalarTy, Ty};
//! use macross_vm::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
//! let n = src.state("n", Ty::Scalar(ScalarTy::F32));
//! src.work(|b| { b.push(v(n)); b.set(n, v(n) + 1.0f32); });
//! let mut f = FilterBuilder::new("f", 2, 2, 2, ScalarTy::F32);
//! let a = f.local("a", Ty::Scalar(ScalarTy::F32));
//! f.work(|b| {
//!     b.set(a, pop());
//!     b.push(v(a) * 2.0f32);
//!     b.push(v(a) + pop());
//! });
//! let graph = StreamSpec::pipeline(vec![src.build_spec(), f.build_spec(), StreamSpec::Sink]).build()?;
//! let simd = macro_simdize(&graph, &Machine::core_i7(), &SimdizeOptions::all())?;
//! let [f_v4] = &simd.report.single_actors[..] else { panic!() };
//! assert_eq!(f_v4.actor, "f_v4");
//! assert!(f_v4.winner().cycles < 4 * f_v4.scalar_cycles);
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod cost;
pub mod driver;
pub mod error;
pub mod graph_edit;
pub mod horizontal;
pub mod normalize;
pub mod opt;
pub mod permnet;
pub mod region;
pub mod single;
pub mod vertical;

pub use artifact::{compile_graph, ArtifactCache, CompiledGraph};
pub use driver::{
    macro_simdize, macro_simdize_colocated, modelled_steady_cost, steady_node_weights,
    ActorDecision, PairCost, RegionTerm, SearchStats, SimdizeOptions, SimdizeReport, Simdized,
};
pub use error::SimdizeError;
pub use region::{region_width, simdize_region_actor};
pub use single::{simdize_single_actor, SingleActorConfig, TapeMode};
