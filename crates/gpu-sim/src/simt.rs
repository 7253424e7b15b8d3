//! SIMT throughput timing model — the performance-simulator substitute
//! for GPGPU-Sim (see DESIGN.md §3).
//!
//! The machine is a Fermi-like GPU (GTX480 defaults, as modelled by
//! GPUWattch): `num_sms` streaming multiprocessors, each with 32 FP32
//! lanes, 4 special function units, integer ALUs sharing the cores and a
//! 16-wide load/store unit, clocked at 700 MHz.
//!
//! Workloads execute functionally through [`crate::dispatch::FpCtx`],
//! which counts every operation per opcode. [`Simulator::simulate`] times
//! the resulting dynamic instruction mix with a throughput
//! (roofline-style) model: with enough resident warps, kernel runtime is
//! bound by the busiest issue port or by DRAM bandwidth. Its cycles are
//! what the power framework consumes.

use crate::memory::MemoryHierarchy;
use ihw_power::system::OpCounts;

/// Machine description (GTX480-like defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// FP32 lanes (CUDA cores) per SM.
    pub fpu_lanes_per_sm: u32,
    /// Special function units per SM.
    pub sfu_units_per_sm: u32,
    /// Load/store unit width per SM.
    pub lsu_width_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Pipeline depth in cycles (fill/drain overhead per kernel).
    pub pipeline_depth: u32,
    /// Cache/DRAM hierarchy.
    pub memory: MemoryHierarchy,
}

impl GpuConfig {
    /// The GTX480-like configuration used throughout the evaluation.
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 15,
            warp_size: 32,
            fpu_lanes_per_sm: 32,
            sfu_units_per_sm: 4,
            lsu_width_per_sm: 16,
            clock_ghz: 0.7,
            pipeline_depth: 24,
            memory: MemoryHierarchy::fermi(),
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

/// Execution-unit classes of the SM issue ports, plus the machine-wide
/// DRAM interface (a possible bottleneck but not an issue port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitClass {
    /// FP32 pipeline (add/mul/fma).
    Fpu,
    /// Special function unit (rcp/rsqrt/sqrt/log2/div).
    Sfu,
    /// Integer ALU.
    Alu,
    /// Load/store unit.
    Lsu,
    /// DRAM bandwidth (machine-wide).
    Dram,
}

impl UnitClass {
    /// All SM issue ports (DRAM is not an issue port).
    pub const ALL: [UnitClass; 4] = [
        UnitClass::Fpu,
        UnitClass::Sfu,
        UnitClass::Alu,
        UnitClass::Lsu,
    ];
}

/// A dynamic scalar operation mix: the per-opcode counters the timing
/// and power models consume. `FpCtx` accumulates one, a compiled plan
/// keeps one per thread, and a [`KernelLaunch`] carries a whole
/// kernel's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstrMix {
    /// Floating point operations by class.
    pub fp: OpCounts,
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Memory operations (loads + stores).
    pub mem_ops: u64,
}

impl InstrMix {
    /// Total dynamic scalar op count.
    pub fn total(&self) -> u64 {
        self.fp.total() + self.int_ops + self.mem_ops
    }

    /// Scalar op count issued to one unit class.
    pub fn ops_for(&self, unit: UnitClass) -> u64 {
        match unit {
            UnitClass::Fpu => self.fp.fpu_total(),
            UnitClass::Sfu => self.fp.sfu_total(),
            UnitClass::Alu => self.int_ops,
            UnitClass::Lsu | UnitClass::Dram => self.mem_ops,
        }
    }

    /// Adds `times` copies of `other` to this mix: a launch credits
    /// `times` threads of one per-thread mix in one merge.
    pub fn add_scaled(&mut self, other: &InstrMix, times: u64) {
        for (op, c) in other.fp.iter() {
            self.fp.record(op, c * times);
        }
        self.int_ops += other.int_ops * times;
        self.mem_ops += other.mem_ops * times;
    }
}

/// A kernel launch as the timing model sees it: its dynamic
/// instruction mix and how divergent its warps are.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelLaunch {
    /// Total dynamic op mix across all threads.
    pub mix: InstrMix,
    /// Average fraction of active lanes per warp instruction (1.0 = no
    /// branch divergence). Divergent kernels issue the same useful work
    /// over more warp-instructions. Use [`KernelLaunch::with_warp_efficiency`]
    /// to override the default of 1.0.
    pub warp_efficiency: f64,
}

impl KernelLaunch {
    /// Creates a launch descriptor with full warp efficiency.
    pub fn new(mix: InstrMix) -> Self {
        KernelLaunch {
            mix,
            warp_efficiency: 1.0,
        }
    }

    /// Overrides the average warp efficiency (active-lane fraction).
    ///
    /// # Panics
    ///
    /// Panics unless the efficiency lies in `(0, 1]`.
    pub fn with_warp_efficiency(mut self, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "warp efficiency must lie in (0, 1]"
        );
        self.warp_efficiency = efficiency;
        self
    }
}

/// Result of a timing simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Kernel cycles (per-SM critical path).
    pub cycles: u64,
    /// Wall-clock kernel time in microseconds.
    pub time_us: f64,
    /// Total warp-instructions executed machine-wide.
    pub warp_instructions: u64,
    /// Machine-wide instructions per cycle.
    pub ipc: f64,
    /// Busy cycles of the bottleneck unit class.
    pub bottleneck_cycles: u64,
    /// Which unit bound the kernel.
    pub bottleneck: UnitClass,
}

/// The SIMT timing simulator.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    cfg: GpuConfig,
}

impl Simulator {
    /// Creates a simulator over the given machine.
    pub fn new(cfg: GpuConfig) -> Self {
        Simulator { cfg }
    }

    /// The machine description.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Issue interval in cycles for one warp-instruction on a unit.
    fn issue_interval(&self, unit: UnitClass) -> u64 {
        let w = self.cfg.warp_size as u64;
        match unit {
            UnitClass::Fpu => w / self.cfg.fpu_lanes_per_sm as u64,
            UnitClass::Sfu => w / self.cfg.sfu_units_per_sm as u64,
            UnitClass::Alu => w / self.cfg.fpu_lanes_per_sm as u64,
            UnitClass::Lsu => w / self.cfg.lsu_width_per_sm as u64,
            UnitClass::Dram => 1, // not an issue port; bandwidth-bounded
        }
        .max(1)
    }

    /// Warp-instruction counts per unit class for one kernel. Branch
    /// divergence inflates the count: with efficiency `e`, a warp
    /// instruction carries only `e·warp_size` useful lanes.
    fn warp_instrs(&self, k: &KernelLaunch) -> [(UnitClass, u64); 4] {
        let w = (self.cfg.warp_size as f64 * k.warp_efficiency).max(1.0) as u64;
        UnitClass::ALL.map(|u| (u, k.mix.ops_for(u).div_ceil(w)))
    }

    /// Throughput (issue-bound) timing model.
    ///
    /// With enough resident warps to hide latency, each SM's runtime is
    /// the busiest issue port's occupancy; SMs run an even share of the
    /// warp-instructions.
    pub fn simulate(&self, k: &KernelLaunch) -> SimStats {
        let per_class = self.warp_instrs(k);
        let sms = self.cfg.num_sms as u64;
        let mut bottleneck = UnitClass::Fpu;
        let mut worst = 0u64;
        let mut total_warp_instr = 0u64;
        for &(unit, n) in &per_class {
            total_warp_instr += n;
            let busy = n.div_ceil(sms) * self.issue_interval(unit);
            if busy > worst {
                worst = busy;
                bottleneck = unit;
            }
        }
        // Machine-wide DRAM bandwidth bound (not divided across SMs).
        let dram = self.cfg.memory.dram_bound_cycles(k.mix.mem_ops);
        if dram > worst {
            worst = dram;
            bottleneck = UnitClass::Dram;
        }
        let cycles = worst + self.cfg.pipeline_depth as u64;
        let time_us = cycles as f64 / (self.cfg.clock_ghz * 1e3);
        SimStats {
            cycles,
            time_us,
            warp_instructions: total_warp_instr,
            ipc: total_warp_instr as f64 / cycles as f64,
            bottleneck_cycles: worst,
            bottleneck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;

    fn kernel(fpu: u64, sfu: u64, alu: u64, mem: u64) -> KernelLaunch {
        let mut fp = OpCounts::new();
        fp.record(FpOp::Add, fpu / 2);
        fp.record(FpOp::Mul, fpu - fpu / 2);
        fp.record(FpOp::Rcp, sfu);
        KernelLaunch::new(InstrMix {
            fp,
            int_ops: alu,
            mem_ops: mem,
        })
    }

    #[test]
    fn fpu_bound_kernel() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let s = sim.simulate(&kernel(10_000_000, 1_000, 100_000, 50_000));
        assert_eq!(s.bottleneck, UnitClass::Fpu);
        assert!(s.cycles > 0 && s.time_us > 0.0);
    }

    #[test]
    fn sfu_bound_kernel() {
        // SFU issues 8× slower: a modest SFU count dominates.
        let sim = Simulator::new(GpuConfig::gtx480());
        let s = sim.simulate(&kernel(1_000_000, 2_000_000, 0, 0));
        assert_eq!(s.bottleneck, UnitClass::Sfu);
    }

    #[test]
    fn more_sms_is_faster() {
        let k = kernel(50_000_000, 100_000, 1_000_000, 500_000);
        let s15 = Simulator::new(GpuConfig::gtx480()).simulate(&k);
        let mut big = GpuConfig::gtx480();
        big.num_sms = 30;
        let s30 = Simulator::new(big).simulate(&k);
        assert!(s30.cycles < s15.cycles);
        assert!((s15.cycles as f64 / s30.cycles as f64) > 1.8);
    }

    #[test]
    fn time_matches_clock() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let s = sim.simulate(&kernel(7_000_000, 0, 0, 0));
        assert!((s.time_us - s.cycles as f64 / 700.0).abs() < 1e-9);
    }

    #[test]
    fn empty_kernel_costs_pipeline_depth() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let k = kernel(0, 0, 0, 0);
        let s = sim.simulate(&k);
        assert_eq!(s.cycles, GpuConfig::gtx480().pipeline_depth as u64);
    }

    #[test]
    fn instr_mix_accounting() {
        let k = kernel(100, 10, 20, 5);
        assert_eq!(k.mix.total(), 135);
        assert_eq!(k.mix.ops_for(UnitClass::Fpu), 100);
        assert_eq!(k.mix.ops_for(UnitClass::Sfu), 10);
        let mut sum = InstrMix::default();
        sum.add_scaled(&k.mix, 3);
        sum.add_scaled(&k.mix, 0);
        assert_eq!(sum, kernel(300, 30, 60, 15).mix);
    }

    #[test]
    fn divergence_inflates_cycles() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let full = kernel(10_000_000, 10_000, 100_000, 50_000);
        let divergent = full.clone().with_warp_efficiency(0.5);
        let s_full = sim.simulate(&full);
        let s_div = sim.simulate(&divergent);
        assert!(
            s_div.cycles > (s_full.cycles as f64 * 1.8) as u64,
            "50% efficiency ≈ 2x cycles: {} vs {}",
            s_div.cycles,
            s_full.cycles
        );
    }

    #[test]
    #[should_panic(expected = "warp efficiency must lie in (0, 1]")]
    fn warp_efficiency_validated() {
        let _ = kernel(1, 0, 0, 0).with_warp_efficiency(1.5);
    }

    #[test]
    fn dram_bound_memory_streaming_kernel() {
        // A kernel that is almost all memory traffic must be bound by the
        // machine-wide DRAM interface, not the LSU issue ports.
        let sim = Simulator::new(GpuConfig::gtx480());
        let s = sim.simulate(&kernel(1_000, 0, 1_000, 80_000_000));
        assert_eq!(s.bottleneck, UnitClass::Dram);
        // Perfect caches remove the DRAM bound.
        let mut cfg = GpuConfig::gtx480();
        cfg.memory.l1_hit_rate = 1.0;
        let s2 = Simulator::new(cfg).simulate(&kernel(1_000, 0, 1_000, 80_000_000));
        assert_eq!(s2.bottleneck, UnitClass::Lsu);
        assert!(s2.cycles < s.cycles);
    }

    #[test]
    fn simulate_pins_the_stock_mixes() {
        // Exact figures of the throughput model for the mixes above, so
        // a change to `issue_interval` or `warp_instrs` shows here.
        let sim = Simulator::new(GpuConfig::gtx480());
        let pin = |k: KernelLaunch| {
            let s = sim.simulate(&k);
            (
                s.cycles,
                s.warp_instructions,
                s.bottleneck,
                s.bottleneck_cycles,
            )
        };
        let fpu = kernel(10_000_000, 1_000, 100_000, 50_000);
        assert_eq!(pin(fpu), (20_858, 317_220, UnitClass::Fpu, 20_834));
        let sfu = kernel(1_000_000, 2_000_000, 0, 0);
        assert_eq!(pin(sfu), (33_360, 93_750, UnitClass::Sfu, 33_336));
        let dram = kernel(1_000, 0, 1_000, 80_000_000);
        assert_eq!(pin(dram), (910_696, 2_500_064, UnitClass::Dram, 910_672));
        let divergent = kernel(10_000_000, 10_000, 100_000, 50_000).with_warp_efficiency(0.5);
        assert_eq!(pin(divergent), (41_691, 635_000, UnitClass::Fpu, 41_667));
    }
}
