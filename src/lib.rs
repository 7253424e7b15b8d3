//! # imprecise-gpgpu — facade crate
//!
//! Reproduction of *"Low Power GPGPU Computation with Imprecise Hardware"*
//! (Zhang, Putic, Lach — DAC 2014). This crate re-exports the whole
//! workspace so examples, integration tests and downstream users can
//! depend on a single package:
//!
//! * [`core`] (`ihw-core`) — the imprecise FP/SFU unit models;
//! * [`qmc`] (`ihw-qmc`) — low-discrepancy input sequences;
//! * [`error`] (`ihw-error`) — error characterization (Figures 8–9);
//! * [`power`] (`ihw-power`) — 45 nm synthesis library and the system-level
//!   power estimator (Tables 2–5, Figure 12);
//! * [`quality`] (`ihw-quality`) — MAE/MSE/WED/SSIM/Pratt quality metrics;
//! * [`sim`] (`gpu-sim`) — the SIMT performance simulator and GPUWattch-style
//!   power model;
//! * [`analyze`] (`ihw-analyze`) — static error-bound and
//!   imprecision-taint analysis over the kernel IR (rules A001–A003 and
//!   A009; interval plus affine relational domains, DESIGN.md §8, §12),
//!   plus the [`racecheck`] memory-dependence pass (rules A004–A007)
//!   whose store-shape proof gates the compiled engine's lane blocks,
//!   and the [`autotune`] static-bound-driven precision
//!   autotuner (per-site sensitivity analysis, rule A008, energy-vs-bound
//!   Pareto fronts);
//! * [`lint`] (`ihw-lint`) — workspace bit-determinism auditor and the
//!   shared diagnostic/baseline machinery;
//! * [`workloads`] (`ihw-workloads`) — HotSpot, SRAD, RayTracing, CP, ART,
//!   MD and Sphinx-like benchmarks.
//!
//! ```
//! use imprecise_gpgpu::core::prelude::*;
//!
//! let cfg = IhwConfig::all_imprecise();
//! assert_eq!(cfg.mul32(1.5, 1.5), 2.0);
//! ```
//!
//! The race analysis proves which kernels' threads are order-independent:
//!
//! ```
//! use imprecise_gpgpu::racecheck;
//! use imprecise_gpgpu::sim::deps::{racecheck as verdict_of, Verdict};
//! use imprecise_gpgpu::sim::programs;
//!
//! let report = verdict_of(&programs::saxpy(2.0));
//! assert_eq!(report.verdict, Verdict::ThreadIndependent);
//! assert_eq!(report.verdict.label(), "thread-independent");
//! // The diagnostic front end maps reports onto A004–A007 findings.
//! let races = racecheck::racecheck_stock(&[]);
//! assert!(racecheck::collect_findings(&races).is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gpu_sim as sim;
pub use ihw_analyze as analyze;
pub use ihw_analyze::autotune;
pub use ihw_analyze::contraction as converge;
pub use ihw_analyze::races as racecheck;
pub use ihw_core as core;
pub use ihw_error as error;
pub use ihw_lint as lint;
pub use ihw_power as power;
pub use ihw_qmc as qmc;
pub use ihw_quality as quality;
pub use ihw_workloads as workloads;
