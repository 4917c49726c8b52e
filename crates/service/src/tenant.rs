//! Per-session state: one admitted tenant = one [`SessionEngine`] over the
//! shared compiled artifact, the parameter boundaries of a dynamic-rate
//! session ([`DynamicSession`]), and the bounded queues admission control
//! meters: pending steady iterations on the way in, buffered sink values
//! on the way out.

use macross::{CompiledGraph, SimdizeError};
use macross_pdf::{DynamicSession, ParamGraph, PdfError};
use macross_runtime::{SessionEngine, SessionStatus};
use macross_streamir::graph::Graph;
use macross_streamir::types::Value;
use macross_streamir::Valuation;
use std::sync::Arc;

/// Lifecycle of an admitted session, reported in `SERVICE_*.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Admitted and serving `feed`/`poll`.
    Active,
    /// `close` or shutdown is flushing its remaining pending work.
    Draining,
    /// A fault quarantined it; its committed outcome is still pollable.
    Faulted,
    /// Fully drained and retired.
    Closed,
}

impl TenantState {
    /// The schema's state string.
    pub fn label(self) -> &'static str {
        match self {
            TenantState::Active => "active",
            TenantState::Draining => "draining",
            TenantState::Faulted => "faulted",
            TenantState::Closed => "closed",
        }
    }
}

/// What `poll` returns: everything the sinks produced since the last
/// poll, plus progress counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PollResult {
    /// One row per sink (in the graph's sink order), drained.
    pub outputs: Vec<Vec<Value>>,
    /// Steady iterations completed so far.
    pub iters_done: u64,
    /// Steady iterations still queued.
    pub pending: u64,
    /// True once a fault quarantined the session.
    pub faulted: bool,
}

/// What `close` returns after the final drain.
#[derive(Debug, Clone, PartialEq)]
pub struct CloseReport {
    /// The remaining (previously unpolled) sink outputs.
    pub outputs: Vec<Vec<Value>>,
    /// Steady iterations completed over the session's lifetime.
    pub iters_done: u64,
    /// Clean firings executed over the session's lifetime.
    pub firings: u64,
    /// True when the session ended quarantined.
    pub faulted: bool,
    /// Rendered stage failures (empty unless faulted).
    pub failures: Vec<String>,
}

/// Outcome of one bounded work slice.
pub(crate) struct SliceOutcome {
    /// The slice was skipped because the output buffer is at its bound.
    pub deferred: bool,
    /// The session is quarantined (now or previously).
    pub faulted: bool,
}

/// Looks up (compiling on a miss) the artifact of the configuration a
/// dynamic session swaps to: the instantiated graph and its valuation.
pub(crate) type Install<'a> =
    &'a mut dyn FnMut(&Graph, &Valuation) -> Result<Arc<CompiledGraph>, SimdizeError>;

/// The engine-side of a session; lives behind its own mutex so one
/// tenant's slice never blocks another tenant's `feed`/`poll`. A static
/// session is a dynamic one without parameter boundaries: the slice loop
/// is the same, and only a tenant with `params` ever swaps.
pub(crate) struct Tenant {
    pub engine: SessionEngine,
    /// The parameter boundaries of a dynamic-rate session.
    pub params: Option<DynamicSession>,
    /// A failed swap quarantines the session exactly like a stage fault.
    swap_failure: Option<String>,
    /// Steady iterations requested but not yet run.
    pub pending: u64,
    /// Lifetime total of requested iterations.
    pub requested: u64,
    /// Sink outputs accumulated since the last poll, one row per sink.
    pub out: Vec<Vec<Value>>,
    /// Total buffered values across `out` (the backpressure gauge).
    pub buffered: usize,
    /// Lifetime total of values delivered to the client.
    pub delivered: u64,
    /// Times a slice was deferred for backpressure.
    pub stalls: u64,
}

impl Tenant {
    /// A tenant over `engine`; `params` makes it a dynamic-rate one.
    pub fn new(engine: SessionEngine, params: Option<DynamicSession>) -> Tenant {
        Tenant {
            out: vec![Vec::new(); engine.sink_ids().len()],
            engine,
            params,
            swap_failure: None,
            pending: 0,
            requested: 0,
            buffered: 0,
            delivered: 0,
            stalls: 0,
        }
    }

    /// True once a stage fault or a failed swap quarantined the session.
    pub fn is_faulted(&self) -> bool {
        self.swap_failure.is_some() || self.engine.is_faulted()
    }

    /// Rendered failures: the engine's stage failures, then a swap failure.
    pub fn failures(&self) -> Vec<String> {
        let swap = self.swap_failure.iter();
        let swap = swap.map(|e| format!("configuration swap failed: {e}"));
        self.engine
            .failures()
            .iter()
            .map(|f| f.to_string())
            .chain(swap)
            .collect()
    }

    /// Run up to `batch` pending iterations. With `ignore_bound` unset,
    /// the slice defers instead when the output buffer is at `bound`
    /// (the client must poll before more work runs). `install` fetches
    /// the artifact of a configuration a parameter boundary swaps to.
    pub fn run_slice(
        &mut self,
        batch: u64,
        bound: usize,
        ignore_bound: bool,
        install: Install<'_>,
    ) -> SliceOutcome {
        if self.is_faulted() {
            self.pending = 0;
            return SliceOutcome {
                deferred: false,
                faulted: true,
            };
        }
        if !ignore_bound && self.buffered >= bound {
            self.stalls += 1;
            return SliceOutcome {
                deferred: true,
                faulted: false,
            };
        }
        let take = self.pending.min(batch);
        let status = self.run_steady(take, install);
        self.pending -= take;
        self.buffered += self.engine.drain_outputs_into(&mut self.out);
        if status == SessionStatus::Faulted {
            // Nothing queued will ever run; drop it so drains terminate.
            self.pending = 0;
        }
        SliceOutcome {
            deferred: false,
            faulted: status == SessionStatus::Faulted,
        }
    }

    /// Run `iters` steady iterations, splitting them at every parameter
    /// boundary and swapping configurations there — also at a boundary
    /// the run starts or ends on.
    fn run_steady(&mut self, iters: u64, install: Install<'_>) -> SessionStatus {
        let Some(params) = &mut self.params else {
            return self.engine.run_steady(iters);
        };
        let mut left = iters;
        loop {
            while let Some(target) = params.take_due(self.engine.iters_done()) {
                let swapped = swap(&mut self.engine, params.template(), &target, install);
                if let Err(e) = swapped {
                    self.swap_failure = Some(e.to_string());
                    return SessionStatus::Faulted;
                }
            }
            if left == 0 {
                return SessionStatus::Running;
            }
            let n = left.min(params.until_next(self.engine.iters_done()));
            if self.engine.run_steady(n) == SessionStatus::Faulted {
                return SessionStatus::Faulted;
            }
            left -= n;
        }
    }

    /// Drain the poll buffer.
    pub fn take_buffered(&mut self) -> Vec<Vec<Value>> {
        self.buffered = 0;
        let rows: Vec<Vec<Value>> = self.out.iter_mut().map(std::mem::take).collect();
        self.delivered += rows.iter().map(|r| r.len() as u64).sum::<u64>();
        rows
    }
}

/// Swap `engine`, at a steady-iteration boundary, to the configuration
/// `target` of `template`.
fn swap(
    engine: &mut SessionEngine,
    template: &ParamGraph,
    target: &Valuation,
    install: Install<'_>,
) -> Result<(), PdfError> {
    // A fresh session may not have initialized yet; the carrier requires
    // it (and init is itself a quiescent point).
    if engine.run_init() == SessionStatus::Faulted {
        return Err(PdfError::Swap(
            "session faulted during initialization".into(),
        ));
    }
    let art = install(&template.instantiate(target)?, target)?;
    engine
        .reconfigure(art.graph.clone(), art.schedule.clone(), &art.programs)
        .map_err(PdfError::Swap)
}
