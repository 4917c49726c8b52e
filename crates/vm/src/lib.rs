//! # macross-vm
//!
//! The execution substrate of the MacroSS reproduction: a virtual machine
//! that runs stream graphs (scalar *or* macro-SIMDized) functionally while
//! charging every operation against a target [`machine::Machine`] cost
//! table.
//!
//! The VM plays the role of the paper's Core i7 testbed: differential
//! execution checks that every SIMDization transform is output-preserving,
//! and the cycle counters provide the relative performance numbers behind
//! each figure. See DESIGN.md for the substitution argument.
//!
//! ```
//! use macross_streamir::builder::StreamSpec;
//! use macross_streamir::edsl::*;
//! use macross_streamir::types::{ScalarTy, Ty};
//! use macross_vm::{run_program, Machine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut src = FilterBuilder::new("src", 0, 0, 1, ScalarTy::I32);
//! let n = src.state("n", Ty::Scalar(ScalarTy::I32));
//! src.work(|b| { b.push(v(n)); b.set(n, v(n) + 1i32); });
//! let mut dbl = FilterBuilder::new("dbl", 1, 1, 1, ScalarTy::I32);
//! dbl.work(|b| { b.push(pop() * 2i32); });
//! let g = StreamSpec::pipeline(vec![src.build_spec(), dbl.build_spec(), StreamSpec::Sink]).build()?;
//! let res = run_program(&g, &Machine::core_i7(), 4)?;
//! assert_eq!(res.output.len(), 4);
//! assert!(res.total_cycles() > 0);
//! # Ok(())
//! # }
//! ```

pub mod bytecode;
pub mod compile;
pub mod error;
pub mod exec;
pub mod firing;
pub mod interp;
mod lanes;
pub mod machine;
pub mod programs;
pub mod tape;

pub use bytecode::{CompiledFilter, Regs};
pub use compile::compile_filter;
pub use error::{TapeSide, VmError};
pub use exec::{run_program, run_scheduled, run_scheduled_mode, ExecMode, Executor, RunResult};
pub use firing::FilterState;
pub use interp::{FiringCtx, RtVal, Slot};
pub use machine::{CostTable, CycleCounters, Machine};
pub use programs::CompiledPrograms;
pub use tape::Tape;

// Stand-ins for the benchmark package (`benchmark/`), which still names
// three items of the superblock kernel layer this crate no longer has:
// `BytecodeNoFuse` is plain `Bytecode`, no plan carries a kernel, and no
// kernel tier is in force. They go in the benchmark change that retires
// the `vm.fuse_*` and `vm.fused_over_dispatch_*` ledger rows.

#[doc(hidden)]
#[allow(non_upper_case_globals)]
impl ExecMode {
    pub const BytecodeNoFuse: ExecMode = ExecMode::Bytecode;
}

#[doc(hidden)]
impl CompiledPrograms {
    pub fn kernel_total(&self) -> usize {
        0
    }
}

#[doc(hidden)]
pub struct NoKernelTier;

#[doc(hidden)]
impl NoKernelTier {
    pub fn label(self) -> &'static str {
        "none"
    }
}

#[doc(hidden)]
pub fn select_tier() -> NoKernelTier {
    NoKernelTier
}
