//! Parameterized synchronous dataflow on top of the MacroSS pipeline.
//!
//! Classic SDF fixes every actor's pop/peek/push rate at compile time;
//! many streaming programs are *parameterized*: a decimation factor, a
//! frame length, a burst size that changes at well-defined points of the
//! stream. This crate adds that dimension without giving up anything the
//! static pipeline proves:
//!
//! - [`ParamGraph`] is a graph *template*: a [`ParamDomain`] declaring
//!   every runtime parameter's legal range, plus a builder that
//!   instantiates a concrete [`Graph`] for one
//!   [`Valuation`] (rate expressions evaluate via
//!   [`macross_streamir::RateExpr`]).
//! - At a parameter boundary the balance equations are re-solved, the
//!   steady schedule and buffer requirements re-derived, and SIMDization
//!   re-run for the new rates — by compiling the instantiated graph
//!   through the ordinary [`macross::compile_graph`] pipeline.
//! - [`DynamicSession`] holds a session's current valuation and its
//!   pending parameter boundaries; whoever runs the session swaps
//!   configurations at those quiescent points (steady-iteration
//!   boundaries) with [`macross_runtime::SessionEngine::reconfigure`]:
//!   stateful filters travel by name, resident tape tokens by edge
//!   signature, and init-only state is recomputed — so in-flight data
//!   carries over bit-exactly. Compiled configurations are memoized by
//!   the caller (the service's one artifact cache, keyed by shape), so
//!   revisiting a valuation never recompiles.
//! - [`ParamGraph::validate_swappable`] sweeps the whole domain once and
//!   proves every pair of configurations exchangeable before any runtime
//!   swap happens; [`oracle_replay`] is the differential referee, running
//!   the same scripted [`ParamTrace`] with every configuration compiled
//!   from scratch.

pub mod oracle;
pub mod session;
pub mod template;

pub use oracle::{oracle_replay, ParamTrace, TraceStep};
pub use session::DynamicSession;
pub use template::{ParamGraph, SwapValidation};

use macross::SimdizeError;
use macross_streamir::ParamError;
use std::fmt;

/// Errors from the parameterized-dataflow layer.
#[derive(Debug)]
pub enum PdfError {
    /// A valuation failed domain validation, or a rate expression could
    /// not be evaluated.
    Param(ParamError),
    /// The template builder produced an invalid graph.
    Build(String),
    /// The SIMDization driver rejected an instantiated configuration.
    Simdize(SimdizeError),
    /// The domain sweep found two configurations that cannot exchange a
    /// session carrier (the template must not be run dynamically).
    NotSwappable(String),
    /// A runtime configuration swap failed; the session is quarantined.
    Swap(String),
    /// A scripted parameter boundary is out of order (before an already
    /// scheduled or executed iteration).
    Boundary(String),
}

impl fmt::Display for PdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdfError::Param(e) => write!(f, "parameter error: {e}"),
            PdfError::Build(e) => write!(f, "template build failed: {e}"),
            PdfError::Simdize(e) => write!(f, "configuration rejected: {e}"),
            PdfError::NotSwappable(e) => write!(f, "template is not swappable: {e}"),
            PdfError::Swap(e) => write!(f, "configuration swap failed: {e}"),
            PdfError::Boundary(e) => write!(f, "bad parameter boundary: {e}"),
        }
    }
}

impl std::error::Error for PdfError {}

impl From<ParamError> for PdfError {
    fn from(e: ParamError) -> PdfError {
        PdfError::Param(e)
    }
}

impl From<SimdizeError> for PdfError {
    fn from(e: SimdizeError) -> PdfError {
        PdfError::Simdize(e)
    }
}
