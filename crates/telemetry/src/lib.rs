//! # macross-telemetry
//!
//! The observability subsystem of the MacroSS reproduction: a low-overhead
//! event recorder threaded through the threaded runtime and the VM, plus
//! machine-readable exporters for the benchmark binaries.
//!
//! Four layers, from hot to cold:
//!
//! 1. **Recording** ([`ring::EventRing`], [`trace::TraceSession`]): each
//!    worker thread appends fixed-size [`event::Event`]s (firing spans,
//!    ring push/pop stalls, park/unpark) to a bounded lock-free ring with
//!    monotonic [`clock::now_ns`] timestamps. The facade is selected by
//!    the `trace` cargo feature: disabled (the default), `WorkerTrace` is
//!    a zero-sized struct whose `record` is an empty inline function, so
//!    hooks in the runtime and VM compile to nothing.
//! 2. **Aggregation**: the runtime's `RuntimeReport` carries per-stage
//!    firings, tokens moved, stall counts *and stall nanoseconds*, plus
//!    per-ring occupancy histograms and high-water marks (always on —
//!    a handful of relaxed atomics per firing batch).
//! 3. **Compile-side tracing** ([`compile::PassEvent`]): the SIMDization
//!    driver records which transform fired on which actor, the chosen
//!    SIMD width, and the cost-model estimates, so estimated cost can be
//!    compared against measured cost per benchmark.
//! 4. **Export** ([`chrome`], [`report`]): a Chrome `trace_event` JSON
//!    timeline (open in `chrome://tracing` or <https://ui.perfetto.dev>)
//!    and the stable [`report::BenchReport`] schema the bench binaries
//!    write to `BENCH_<name>.json` (and [`service::ServiceReport`]'s
//!    `SERVICE_<name>.json`). [`report::validate_str`] (and the
//!    `validate_report` binary) check a report against the schema without
//!    any external JSON dependency; both schemas' validators run on one
//!    checker.

pub mod chrome;
pub mod clock;
pub mod compile;
pub mod event;
pub mod json;
pub mod report;
pub mod ring;
pub mod service;
pub mod trace;

pub use event::{Event, EventKind};
pub use ring::EventRing;
pub use trace::{TraceSession, WorkerTrace};
