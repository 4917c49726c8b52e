//! Typed execution errors.
//!
//! The interpreter used to panic on malformed programs (scalar/vector slot
//! mismatches, tape accesses without a tape). Panics poison a whole
//! process; the threaded runtime needs a worker to be able to fail one run
//! gracefully and report the failure across a thread boundary, so every
//! such condition is now a [`VmError`] propagated through
//! [`crate::exec::run_program`] / [`crate::exec::run_scheduled`].

use macross_sdf::ScheduleError;
use std::fmt;

/// Which end of a filter a missing tape was expected on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeSide {
    /// The filter's input tape.
    Input,
    /// The filter's output tape.
    Output,
}

impl fmt::Display for TapeSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeSide::Input => write!(f, "input"),
            TapeSide::Output => write!(f, "output"),
        }
    }
}

/// An execution failure. All variants are plain data (`Send + Sync`) so a
/// worker thread can hand one back to the coordinating thread.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A filter popped/pushed/peeked without the corresponding tape.
    MissingTape {
        /// Filter name.
        filter: String,
        /// Which side was missing.
        side: TapeSide,
    },
    /// A value's scalar/vector/aggregate shape disagreed with the slot or
    /// operation it was used in (the SIMDizer must splat scalars, etc.).
    TypeMismatch {
        /// Filter name.
        filter: String,
        /// What was being executed when the mismatch surfaced.
        context: String,
    },
    /// An internal (fused-actor) channel was read while empty.
    ChannelUnderflow {
        /// Filter name.
        filter: String,
        /// Channel display name.
        chan: String,
    },
    /// Scheduling failed before execution began ([`crate::exec::run_program`] only).
    Schedule(ScheduleError),
    /// A runtime value had the wrong shape for the requested view
    /// ([`crate::interp::RtVal::scalar`] / [`crate::interp::RtVal::vector`]).
    Shape {
        /// The shape the caller asked for.
        expected: &'static str,
        /// The shape the value actually had.
        got: &'static str,
    },
    /// A tape this filter fires against was poisoned — by fault injection
    /// or by a prior failed firing that left it in an undefined state —
    /// so the firing was refused before touching it.
    Poisoned {
        /// Filter name.
        filter: String,
    },
    /// The filter body panicked. The unwind is caught at the firing
    /// boundary ([`crate::firing::fire_node`]) and converted so one bad
    /// guest program cannot take a host worker thread down with it.
    Panicked {
        /// Filter name.
        filter: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::MissingTape { filter, side } => {
                write!(f, "filter {filter} accessed its {side} tape but has none")
            }
            VmError::TypeMismatch { filter, context } => {
                write!(f, "type mismatch in filter {filter}: {context}")
            }
            VmError::ChannelUnderflow { filter, chan } => {
                write!(f, "internal channel {chan} of filter {filter} underflowed")
            }
            VmError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            VmError::Shape { expected, got } => {
                write!(f, "expected {expected} value, got {got}")
            }
            VmError::Poisoned { filter } => {
                write!(f, "filter {filter} refused to fire on a poisoned tape")
            }
            VmError::Panicked { filter, message } => {
                write!(f, "filter {filter} panicked mid-firing: {message}")
            }
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScheduleError> for VmError {
    fn from(e: ScheduleError) -> Self {
        VmError::Schedule(e)
    }
}
