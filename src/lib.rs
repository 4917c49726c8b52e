//! Umbrella crate for the MacroSS reproduction.
//!
//! Re-exports every workspace crate under one roof so the examples and
//! integration tests in this repository can use a single dependency.
pub use macross;
pub use macross_autovec as autovec;
pub use macross_benchsuite as benchsuite;
pub use macross_codegen as codegen;
pub use macross_multicore as multicore;
pub use macross_pdf as pdf;
pub use macross_runtime as runtime;
pub use macross_sagu as sagu;
pub use macross_sdf as sdf;
pub use macross_service as service;
pub use macross_streamir as streamir;
pub use macross_telemetry as telemetry;
pub use macross_vm as vm;
