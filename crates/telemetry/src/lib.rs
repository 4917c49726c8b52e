//! # macross-telemetry
//!
//! The observability subsystem of the MacroSS reproduction: a low-overhead
//! event recorder threaded through the threaded runtime, the VM and the
//! service, plus exporters for what it records.
//!
//! Two layers, from hot to cold:
//!
//! 1. **Recording** ([`trace::TraceSession`], [`trace::WorkerTrace`]):
//!    each worker thread sends fixed-size [`event::Event`]s (firing spans,
//!    ring push/pop stalls, park/unpark, service admissions) into a
//!    bounded track with monotonic [`clock::now_ns`] timestamps; a full
//!    track drops and counts instead of blocking. Recording is chosen per
//!    run: a [`trace::TraceSession::disabled`] session hands out handles
//!    without a track, whose `record` is one `Option` test. The
//!    compile-side pass trace ([`compile::PassEvent`]) records which
//!    transform fired on which actor, the chosen SIMD width, and the
//!    cost-model estimates.
//! 2. **Export** ([`chrome`], [`json`]): a Chrome `trace_event` JSON
//!    timeline (open in `chrome://tracing` or <https://ui.perfetto.dev>)
//!    and the dependency-free JSON value, writer and parser that the
//!    service's `SERVICE_<name>.json` report, replay bundles and the
//!    benchmark harness are written and read with. The figure binaries
//!    write no files; they print their tables.
//!
//! Per-stage and per-ring counters (firings, tokens moved, stall counts
//! and nanoseconds, occupancy histograms) are always on and live in the
//! runtime's `RuntimeReport`, not here.

pub mod chrome;
pub mod clock;
pub mod compile;
pub mod event;
pub mod json;
pub mod trace;

pub use event::{Event, EventKind};
pub use trace::{TraceSession, WorkerTrace};
