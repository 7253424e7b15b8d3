//! # ihw-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! experiment lives in [`experiments`] and is callable both from the
//! `repro` binary (`cargo run -p ihw-bench --bin repro -- <experiment>`)
//! and from perfbench's `paper` workload, which times each one.
//!
//! The per-experiment index mapping tables/figures to modules is in
//! DESIGN.md §4; measured-vs-paper numbers are recorded in EXPERIMENTS.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod racebench;
pub mod runner;
pub mod serve;
pub mod solverbench;
pub mod table;

pub use experiments::Scale;
