//! # macross-telemetry
//!
//! [`json`]: the dependency-free JSON value, writer and parser that the
//! service's `SERVICE_<name>.json` report, replay bundles and the
//! benchmark harness are written and read with.
//!
//! Nothing else is recorded here. A compilation explains itself through
//! its `SimdizeReport`, one typed record per decision, and a run through
//! counters kept where things happen (`Stage::firings`, `RingStat`,
//! `StageFailure`, `AdmissionStats`); there is no event recorder.

pub mod json;
