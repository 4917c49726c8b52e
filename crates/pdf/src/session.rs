//! Dynamic-rate sessions: what parameterized dataflow adds to a
//! supervised session — the template, the current valuation, and the
//! parameter boundaries still to come.
//!
//! ## Quiescent-point swap
//!
//! A parameter boundary is scheduled at an absolute steady-iteration
//! index ([`DynamicSession::set_param_at`]). Whoever runs the session
//! splits its slices at [`DynamicSession::until_next`] and, at a
//! boundary ([`DynamicSession::take_due`]), swaps configurations
//! *between* iterations — the only points where no firing is mid-flight,
//! every tape holds exactly its peek slack, and the carrier is therefore
//! a complete description of the session. Service callers get this for
//! free: work slices only ever return at iteration boundaries, so a
//! `set_param` scheduled after everything already fed lands on one.
//!
//! ## What a swap moves
//!
//! [`SessionEngine::reconfigure`](macross_runtime::SessionEngine::reconfigure)
//! captures stateful filters by name and resident tape tokens by edge
//! signature, rebuilds the engine for the new configuration, re-runs init
//! *functions* (recomputing deterministic init-only state like
//! coefficient tables), installs the carried state and tokens, and skips
//! the init *schedule* — the carrier already holds its effect.
//! [`crate::ParamGraph::validate_swappable`] proves ahead of time that
//! every pair of configurations can make this exchange; the typed error
//! path exists so an unvalidated swap degrades to a quarantined session,
//! never silent corruption.

use crate::template::ParamGraph;
use crate::PdfError;
use macross_streamir::Valuation;
use std::collections::VecDeque;
use std::sync::Arc;

/// The parameter side of one tenant's run of a *parameterized* graph: the
/// template, the configuration installed now, and the pending parameter
/// boundaries. The engine and the compiled configurations belong to the
/// caller.
pub struct DynamicSession {
    template: Arc<ParamGraph>,
    current: Valuation,
    /// Scheduled boundaries: `(absolute steady-iteration index, full
    /// target valuation)`, indices non-decreasing; same-index updates
    /// coalesce into one swap.
    boundaries: VecDeque<(u64, Valuation)>,
}

impl DynamicSession {
    /// A session of `template` whose first configuration is `init`.
    pub fn new(template: Arc<ParamGraph>, init: &Valuation) -> DynamicSession {
        DynamicSession {
            template,
            current: init.clone(),
            boundaries: VecDeque::new(),
        }
    }

    /// The template this session parameterizes.
    pub fn template(&self) -> &ParamGraph {
        &self.template
    }

    /// Schedule a parameter change to take effect at the quiescent point
    /// *before* steady iteration `at_iter` (absolute, across the whole
    /// session), `done` iterations having run. Changes scheduled at the
    /// same boundary coalesce into one swap; a boundary earlier than one
    /// already scheduled (or already executed) is refused. Scheduling is
    /// always a reconfiguration, even when the value equals the current
    /// one — the swap still runs (and hits the cache), which keeps the
    /// protocol uniform and testable.
    ///
    /// # Errors
    /// [`PdfError::Param`] when the resulting valuation leaves the
    /// domain, [`PdfError::Boundary`] for out-of-order boundaries.
    pub fn set_param_at(
        &mut self,
        at_iter: u64,
        done: u64,
        name: &str,
        value: u64,
    ) -> Result<(), PdfError> {
        if at_iter < done {
            return Err(PdfError::Boundary(format!(
                "iteration {at_iter} already executed ({done} done)"
            )));
        }
        if let Some((last, _)) = self.boundaries.back() {
            if at_iter < *last {
                return Err(PdfError::Boundary(format!(
                    "iteration {at_iter} precedes an already scheduled boundary at {last}"
                )));
            }
        }
        let base = self.boundaries.back().map_or(&self.current, |(_, v)| v);
        let target = base.clone().with(name, value);
        self.template.domain().check(&target)?;
        match self.boundaries.back_mut() {
            Some((last, v)) if *last == at_iter => *v = target,
            _ => self.boundaries.push_back((at_iter, target)),
        }
        Ok(())
    }

    /// The configuration to install now, `done` iterations having run:
    /// the target of the next boundary once the run has reached it, which
    /// becomes the current valuation. `None` between boundaries.
    pub fn take_due(&mut self, done: u64) -> Option<Valuation> {
        if self.boundaries.front()?.0 > done {
            return None;
        }
        let (_, target) = self.boundaries.pop_front()?;
        self.current = target.clone();
        Some(target)
    }

    /// Steady iterations from `done` to the next boundary (`u64::MAX`
    /// with none scheduled): how far a slice may run before it must swap.
    pub fn until_next(&self, done: u64) -> u64 {
        self.boundaries
            .front()
            .map_or(u64::MAX, |(at, _)| at - done)
    }
}
