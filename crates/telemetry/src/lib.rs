//! # macross-telemetry
//!
//! What the reproduction's runs are read through, besides the runtime's
//! always-on counters (`RuntimeReport`):
//!
//! - [`json`]: the dependency-free JSON value, writer and parser that the
//!   service's `SERVICE_<name>.json` report, replay bundles and the
//!   benchmark harness are written and read with;
//! - [`compile::PassEvent`]: the compile-side pass trace — which transform
//!   fired on which actor, the chosen SIMD width, and the cost-model
//!   estimates — that the driver appends to its `SimdizeReport`.
//!
//! There is no run-time event recorder: firings, ring stalls and parks,
//! failures and service admissions are counted where they happen
//! (`Stage::firings`, `RingStat`, `StageFailure`, `AdmissionStats`).

pub mod compile;
pub mod json;
