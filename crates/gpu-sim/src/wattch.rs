//! GPUWattch-style component power model (substitute for the
//! McPAT-based GPUWattch, see DESIGN.md §3).
//!
//! Component energies follow the GPUWattch structure — per-access dynamic
//! energy times the simulator's performance counters, plus constant
//! background power — and are calibrated so that the compute-intensive
//! benchmarks land at the paper's Figure 2 shares (FPU+SFU ≈ 27–38% of
//! total GPU power, integer ALU < 10%).

use crate::simt::{InstrMix, SimStats};
use ihw_core::config::FpOp;

/// Per-access energies (picojoules) and background power (watts) of a
/// GTX480-like GPU. The per-access values include the unit's share of
/// pipeline registers and control, as GPUWattch attributes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WattchModel {
    /// FPU energy per scalar add/sub, pJ.
    pub e_fp_add_pj: f64,
    /// FPU energy per scalar multiply, pJ.
    pub e_fp_mul_pj: f64,
    /// FPU energy per scalar FMA, pJ.
    pub e_fp_fma_pj: f64,
    /// SFU energy per scalar elementary-function op, pJ.
    pub e_sfu_pj: f64,
    /// Integer ALU energy per scalar op, pJ.
    pub e_alu_pj: f64,
    /// Register file energy per scalar operand access, pJ (3 per op).
    pub e_rf_pj: f64,
    /// Average memory-system energy per access (L1/L2/DRAM blend), pJ.
    pub e_mem_pj: f64,
    /// Constant background power: leakage, clock tree, schedulers, W.
    pub background_w: f64,
}

impl WattchModel {
    /// The calibrated GTX480-like model. The memory energy derives from
    /// the cache/DRAM hierarchy ([`crate::memory::MemoryHierarchy`]).
    pub fn gtx480() -> Self {
        Self::with_memory(&crate::memory::MemoryHierarchy::fermi())
    }

    /// Builds the model with per-access memory energy taken from a
    /// hierarchy description.
    pub fn with_memory(memory: &crate::memory::MemoryHierarchy) -> Self {
        WattchModel {
            e_fp_add_pj: 110.0,
            e_fp_mul_pj: 160.0,
            e_fp_fma_pj: 210.0,
            e_sfu_pj: 600.0,
            e_alu_pj: 55.0,
            e_rf_pj: 12.0,
            e_mem_pj: memory.avg_energy_pj(),
            background_w: 42.0,
        }
    }
}

impl Default for WattchModel {
    fn default() -> Self {
        Self::gtx480()
    }
}

/// GPU power decomposed by component for one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// FPU power, W.
    pub fpu_w: f64,
    /// SFU power, W.
    pub sfu_w: f64,
    /// Integer ALU power, W.
    pub alu_w: f64,
    /// Register file power, W.
    pub rf_w: f64,
    /// Memory system power, W.
    pub mem_w: f64,
    /// Background (leakage/clock/control) power, W.
    pub background_w: f64,
}

impl PowerBreakdown {
    /// Total GPU power, W.
    pub fn total_w(&self) -> f64 {
        self.fpu_w + self.sfu_w + self.alu_w + self.rf_w + self.mem_w + self.background_w
    }

    /// FPU share of total power (Figure 2 y-axis component).
    pub fn fpu_share(&self) -> f64 {
        self.fpu_w / self.total_w()
    }

    /// SFU share of total power.
    pub fn sfu_share(&self) -> f64 {
        self.sfu_w / self.total_w()
    }

    /// Combined floating point arithmetic share (FPU + SFU).
    pub fn arithmetic_share(&self) -> f64 {
        self.fpu_share() + self.sfu_share()
    }

    /// Integer ALU share.
    pub fn alu_share(&self) -> f64 {
        self.alu_w / self.total_w()
    }

    /// The `(fpu, sfu)` share pair consumed by the Figure 12 estimator.
    pub fn shares(&self) -> ihw_power::system::PowerShares {
        ihw_power::system::PowerShares::new(self.fpu_share(), self.sfu_share())
    }
}

impl WattchModel {
    /// Computes the component power breakdown for a kernel given its
    /// instruction mix and timing.
    ///
    /// # Panics
    ///
    /// Panics if the simulation reports zero kernel time.
    pub fn breakdown(&self, mix: &InstrMix, stats: &SimStats) -> PowerBreakdown {
        assert!(stats.time_us > 0.0, "kernel time must be positive");
        let t_us = stats.time_us;
        // pJ / µs = µW; convert to W with 1e-6.
        let to_w = |pj: f64| pj / t_us * 1e-6;

        let mut fpu_pj = 0.0;
        let mut sfu_pj = 0.0;
        for (op, n) in mix.fp.iter() {
            let n = n as f64;
            match op {
                FpOp::Add => fpu_pj += n * self.e_fp_add_pj,
                FpOp::Mul => fpu_pj += n * self.e_fp_mul_pj,
                FpOp::Fma => fpu_pj += n * self.e_fp_fma_pj,
                _ => sfu_pj += n * self.e_sfu_pj,
            }
        }
        let alu_pj = mix.int_ops as f64 * self.e_alu_pj;
        let rf_pj = mix.total() as f64 * 3.0 * self.e_rf_pj;
        let mem_pj = mix.mem_ops as f64 * self.e_mem_pj;

        PowerBreakdown {
            fpu_w: to_w(fpu_pj),
            sfu_w: to_w(sfu_pj),
            alu_w: to_w(alu_pj),
            rf_w: to_w(rf_pj),
            mem_w: to_w(mem_pj),
            background_w: self.background_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simt::{GpuConfig, KernelLaunch, Simulator};
    use ihw_power::system::OpCounts;

    fn compute_intensive_kernel() -> KernelLaunch {
        // HotSpot-like per-thread mix scaled to 1M threads:
        // 6 FPU ops, 1.5 SFU ops, 5 int ops, 2.5 mem ops per thread.
        let mut fp = OpCounts::new();
        fp.record(FpOp::Add, 3_500_000);
        fp.record(FpOp::Mul, 2_500_000);
        fp.record(FpOp::Rcp, 800_000);
        fp.record(FpOp::Sqrt, 700_000);
        KernelLaunch::new(InstrMix {
            fp,
            int_ops: 5_000_000,
            mem_ops: 2_500_000,
        })
    }

    fn run(k: &KernelLaunch) -> PowerBreakdown {
        let stats = Simulator::new(GpuConfig::gtx480()).simulate(k);
        WattchModel::gtx480().breakdown(&k.mix, &stats)
    }

    #[test]
    fn compute_kernel_shares_match_figure2_band() {
        let b = run(&compute_intensive_kernel());
        let arith = b.arithmetic_share();
        assert!(
            (0.20..=0.50).contains(&arith),
            "arithmetic share {arith} outside the Figure 2 band"
        );
        assert!(
            b.alu_share() < 0.10,
            "ALU share {} should stay <10%",
            b.alu_share()
        );
    }

    #[test]
    fn shares_sum_to_one() {
        let b = run(&compute_intensive_kernel());
        let sum = b.fpu_share()
            + b.sfu_share()
            + b.alu_share()
            + b.rf_w / b.total_w()
            + b.mem_w / b.total_w()
            + b.background_w / b.total_w();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_kernel_has_lower_arith_share() {
        let mut k = compute_intensive_kernel();
        k.mix.mem_ops *= 8;
        let mem_heavy = run(&k);
        let base = run(&compute_intensive_kernel());
        assert!(mem_heavy.arithmetic_share() < base.arithmetic_share());
    }

    #[test]
    fn sfu_heavy_kernel_shifts_share_to_sfu() {
        let mut fp = OpCounts::new();
        fp.record(FpOp::Add, 1_000_000);
        fp.record(FpOp::Rsqrt, 3_000_000);
        let k = KernelLaunch::new(InstrMix {
            fp,
            int_ops: 1_000_000,
            mem_ops: 500_000,
        });
        let b = run(&k);
        assert!(b.sfu_share() > b.fpu_share());
    }

    #[test]
    fn total_power_plausible_for_gtx480() {
        // The paper quotes up to 250 W for high-end GPUs; a busy
        // compute-intensive kernel should land between 60 W and 260 W.
        let b = run(&compute_intensive_kernel());
        let total = b.total_w();
        assert!((60.0..260.0).contains(&total), "total {total} W");
    }

    #[test]
    fn shares_feed_power_estimator() {
        let b = run(&compute_intensive_kernel());
        let shares = b.shares();
        assert!(shares.fpu > 0.0 && shares.sfu > 0.0);
        assert!(shares.arithmetic() < 1.0);
    }
}
