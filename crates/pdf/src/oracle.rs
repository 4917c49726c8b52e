//! The differential referee for dynamic-rate execution: replay a
//! scripted parameter trace with **every configuration compiled from
//! scratch** — no artifact cache, a freshly built engine per segment —
//! and return the concatenated sink outputs. A dynamic session driving
//! the same trace through the service must produce bit-identical
//! outputs; anything the cache or the swap machinery got wrong shows up
//! as a diff.

use crate::template::ParamGraph;
use crate::PdfError;
use macross::{compile_graph, SimdizeOptions};
use macross_runtime::{FaultPlan, SessionEngine, SessionStatus};
use macross_streamir::types::Value;
use macross_streamir::Valuation;
use macross_vm::{ExecMode, Machine};
use std::sync::Arc;

/// One segment of a scripted trace: parameter changes applied at the
/// segment's leading quiescent point, then a run of steady iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// `(name, value)` changes; empty = no reconfiguration, keep running.
    pub sets: Vec<(String, u64)>,
    /// Steady iterations to run after applying the changes.
    pub iters: u64,
}

/// A named, scripted parameter trace — the driver for the dynamic-rate
/// benchmarks and the differential suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamTrace {
    /// Trace name (tags reports and test failures).
    pub name: String,
    /// Segments, in stream order.
    pub steps: Vec<TraceStep>,
}

impl ParamTrace {
    /// An empty trace.
    pub fn new(name: impl Into<String>) -> ParamTrace {
        ParamTrace {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Append a segment: apply `sets` at the boundary, then run `iters`.
    pub fn then(mut self, sets: &[(&str, u64)], iters: u64) -> ParamTrace {
        self.steps.push(TraceStep {
            sets: sets.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            iters,
        });
        self
    }

    /// Total steady iterations across all segments.
    pub fn total_iters(&self) -> u64 {
        self.steps.iter().map(|s| s.iters).sum()
    }

    /// Segments that schedule at least one parameter change (each is one
    /// reconfiguration: same-boundary sets coalesce).
    pub fn reconfigurations(&self) -> u64 {
        self.steps.iter().filter(|s| !s.sets.is_empty()).count() as u64
    }
}

/// Replay `trace` from `init`, compiling each configuration from scratch
/// and carrying the session state across segments with the same carrier
/// protocol the dynamic session uses. Returns the concatenated sink
/// outputs (one row per sink).
///
/// # Errors
/// Any instantiation, compilation, carrier, or in-run fault aborts the
/// replay — the oracle has no quarantine-and-continue mode; a trace that
/// faults is a broken test input.
pub fn oracle_replay(
    template: &ParamGraph,
    init: &Valuation,
    trace: &ParamTrace,
    machine: &Machine,
    opts: &SimdizeOptions,
    mode: ExecMode,
) -> Result<Vec<Vec<Value>>, PdfError> {
    let machine = Arc::new(machine.clone());
    let mut valuation = init.clone();
    let graph = template.instantiate(&valuation)?;
    let art = compile_graph(&graph, &machine, opts, mode)?;
    let mut engine = SessionEngine::new(
        art.graph.clone(),
        art.schedule.clone(),
        machine.clone(),
        &art.programs,
        FaultPlan::none(),
        0,
    );
    if engine.run_init() == SessionStatus::Faulted {
        return Err(PdfError::Swap(render_failures(&engine)));
    }
    let mut outputs = vec![Vec::new(); engine.sink_ids().len()];
    for step in &trace.steps {
        if !step.sets.is_empty() {
            let mut target = valuation.clone();
            for (name, value) in &step.sets {
                target.bind(name, *value);
            }
            template.domain().check(&target)?;
            let graph = template.instantiate(&target)?;
            let art = compile_graph(&graph, &machine, opts, mode)?;
            engine
                .reconfigure(art.graph.clone(), art.schedule.clone(), &art.programs)
                .map_err(PdfError::Swap)?;
            valuation = target;
        }
        if engine.run_steady(step.iters) == SessionStatus::Faulted {
            return Err(PdfError::Swap(render_failures(&engine)));
        }
        engine.drain_outputs_into(&mut outputs);
    }
    Ok(outputs)
}

fn render_failures(engine: &SessionEngine) -> String {
    engine
        .failures()
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("; ")
}
