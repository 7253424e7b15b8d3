//! # gpu-sim — SIMT performance simulator and GPU power model
//!
//! The simulation substrate of the power-quality tradeoff framework
//! (§5.1, Figure 10), substituting for GPGPU-Sim + GPUWattch (the
//! substitution rationale is documented in DESIGN.md §3):
//!
//! * [`dispatch`] — functional execution with the IHW "knob": every
//!   workload routes arithmetic through an [`dispatch::FpCtx`], which
//!   both executes on the configured (im)precise unit and collects the
//!   per-opcode performance counters;
//! * [`simt`] — the SIMT throughput timing model over the per-opcode
//!   counts (GTX480-like SMs, per-unit issue throughput, DRAM bandwidth);
//! * [`wattch`] — the GPUWattch-style component power model producing the
//!   Figure 2 breakdown and the FPU/SFU shares the Figure 12 estimator
//!   needs;
//! * [`tuner`] — the iterative quality tuning loop of Figure 10.
//!
//! ```
//! use gpu_sim::prelude::*;
//! use ihw_core::config::IhwConfig;
//!
//! // Functional simulation with counters:
//! let mut ctx = FpCtx::new(IhwConfig::all_imprecise());
//! let mut acc = 0.0f32;
//! for i in 0..64 {
//!     acc = ctx.fma32(i as f32, 0.5, acc);
//! }
//! ctx.int_op(64);
//! ctx.mem_op(64);
//!
//! // Timing + power for the observed mix:
//! let kernel = KernelLaunch::new(ctx.mix().clone());
//! let stats = Simulator::new(GpuConfig::gtx480()).simulate(&kernel);
//! let breakdown = WattchModel::gtx480().breakdown(&kernel.mix, &stats);
//! assert!(breakdown.total_w() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod compile;
pub mod concurrent;
pub mod deps;
pub mod dispatch;
pub mod dvfs;
pub mod isa;
pub mod memory;
pub mod plan;
pub mod programs;
pub mod simt;
pub mod tuner;
pub mod wattch;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::concurrent::{LaunchError, LaunchOutcome, SharedInterpreter};
    pub use crate::deps::{racecheck, RaceReport, Verdict};
    pub use crate::dispatch::FpCtx;
    pub use crate::dvfs::DvfsPoint;
    pub use crate::isa::{ExecEngine, Instr, Program, Reg, WarpInterpreter};
    pub use crate::memory::MemoryHierarchy;
    pub use crate::plan::{compile, CompiledKernel, PlanCacheStats, PlanKey};
    pub use crate::simt::{GpuConfig, InstrMix, KernelLaunch, SimStats, Simulator, UnitClass};
    pub use crate::tuner::{tune, tune_sites, QualityConstraint, TuningOutcome, TuningStep};
    pub use crate::wattch::{PowerBreakdown, WattchModel};
}

pub use prelude::*;
