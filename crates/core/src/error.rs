//! Error type for the macro-SIMDization passes.

use std::fmt;

/// Errors produced by the SIMDization transforms and driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimdizeError {
    /// An actor fails a vectorizability condition for the requested
    /// transform.
    NotVectorizable {
        /// Actor name.
        actor: String,
        /// Which condition failed.
        reason: String,
    },
    /// A transformed actor's measured rates disagree with its declared
    /// rates — an internal consistency failure of the transform.
    RateCheck(String),
    /// Scheduling the (transformed) graph failed.
    Schedule(String),
    /// The graph is structurally unsuitable.
    Graph(String),
    /// The machine's SIMD width is not a power of two `>= 2`, so no lane
    /// layout of the transforms fits it.
    SimdWidth(usize),
}

impl fmt::Display for SimdizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimdizeError::NotVectorizable { actor, reason } => {
                write!(f, "actor {actor} is not vectorizable: {reason}")
            }
            SimdizeError::RateCheck(s) => write!(f, "rate self-check failed: {s}"),
            SimdizeError::Schedule(s) => write!(f, "scheduling failed: {s}"),
            SimdizeError::Graph(s) => write!(f, "graph error: {s}"),
            SimdizeError::SimdWidth(w) => {
                write!(f, "SIMD width {w} is not a power of two >= 2")
            }
        }
    }
}

impl std::error::Error for SimdizeError {}

impl From<macross_sdf::ScheduleError> for SimdizeError {
    fn from(e: macross_sdf::ScheduleError) -> Self {
        SimdizeError::Schedule(e.to_string())
    }
}
