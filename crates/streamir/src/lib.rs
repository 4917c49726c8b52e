//! # macross-streamir
//!
//! The StreamIt-style synchronous-data-flow intermediate representation
//! used by the MacroSS reproduction.
//!
//! A stream program is a DAG of actors ([`filter::Filter`]s plus splitters,
//! joiners and sinks — [`graph::Node`]) connected by FIFO tapes
//! ([`graph::Edge`]). Each filter owns `init`/`work` function bodies written
//! in a small typed AST ([`expr::Expr`], [`stmt::Stmt`]) that supports both
//! scalar and vector constructs, so the macro-SIMDizer can rewrite scalar
//! actors into vectorized ones inside the same IR.
//!
//! Programs are composed hierarchically with [`builder::StreamSpec`]
//! (pipelines and split-joins, as in StreamIt) and authored ergonomically
//! with the [`edsl`] module:
//!
//! ```
//! use macross_streamir::builder::StreamSpec;
//! use macross_streamir::edsl::*;
//! use macross_streamir::types::{ScalarTy, Ty};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A source counting 0,1,2,..., a scaling filter, and a sink.
//! let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::F32);
//! let n = src.state("n", Ty::Scalar(ScalarTy::F32));
//! src.work(|b| {
//!     b.push(v(n));
//!     b.set(n, v(n) + 1.0f32);
//! });
//!
//! let mut scale = FilterBuilder::new("scale", 1, 1, 1, ScalarTy::F32);
//! scale.work(|b| {
//!     b.push(pop() * 3.0f32);
//! });
//!
//! let graph = StreamSpec::pipeline(vec![
//!     src.build_spec(),
//!     scale.build_spec(),
//!     StreamSpec::Sink,
//! ])
//! .build()?;
//! assert_eq!(graph.node_count(), 3);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod builder;
pub mod edsl;
pub mod expr;
pub mod filter;
pub mod graph;
pub mod name;
pub mod param;
pub mod shash;
pub mod stmt;
pub mod types;

pub use expr::{BinOp, ChanId, Expr, Intrinsic, LValue, UnOp, VarId};
pub use filter::{Filter, LocalChan, RegionSpec, VarDecl, VarKind};
pub use graph::{
    AddrGen, Adjacency, Edge, EdgeId, Graph, GraphError, Node, NodeId, Reorder, ReorderSide,
    SplitKind,
};
pub use name::Name;
pub use param::{ParamDomain, ParamError, ParamRange, RateExpr, Valuation};
pub use shash::{structural_hash, GraphHash};
pub use stmt::Stmt;
pub use types::{ScalarTy, Ty, Value};
