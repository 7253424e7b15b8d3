//! Trace-driven SIMT timing model — the performance-simulator substitute
//! for GPGPU-Sim (see DESIGN.md §3).
//!
//! The machine is a Fermi-like GPU (GTX480 defaults, as modelled by
//! GPUWattch): `num_sms` streaming multiprocessors, each with 32 FP32
//! lanes, 4 special function units, integer ALUs sharing the cores and a
//! 16-wide load/store unit, clocked at 700 MHz.
//!
//! Workloads execute functionally through [`crate::dispatch::FpCtx`]; the
//! resulting dynamic instruction mix replays here in two fidelity levels:
//!
//! * [`Simulator::simulate`] — a throughput (roofline-style) model: with
//!   enough resident warps, kernel runtime is bound by the busiest issue
//!   port; this is what the power framework consumes;
//! * [`Simulator::simulate_detailed`] — a cycle-driven warp scheduler
//!   with round-robin issue, per-unit occupancy and per-class latencies,
//!   used to validate the throughput model on small kernels.

use crate::memory::MemoryHierarchy;
use ihw_core::config::FpOp;
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
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Pipeline depth in cycles (fill/drain overhead per kernel).
    pub pipeline_depth: u32,
    /// Instructions issued per SM per cycle (Fermi: two warp schedulers).
    pub issue_width: u32,
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
            max_warps_per_sm: 48,
            pipeline_depth: 24,
            issue_width: 2,
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

    /// The port an FP operation class issues to.
    pub fn for_fp_op(op: FpOp) -> UnitClass {
        if op.is_sfu() {
            UnitClass::Sfu
        } else {
            UnitClass::Fpu
        }
    }
}

/// Total dynamic scalar operation mix of one kernel (all threads).
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
}

/// A kernel launch: grid geometry plus its dynamic instruction mix.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelLaunch {
    /// Kernel name (for reports).
    pub name: String,
    /// Number of thread blocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
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
    pub fn new(
        name: impl Into<String>,
        blocks: u32,
        threads_per_block: u32,
        mix: InstrMix,
    ) -> Self {
        KernelLaunch {
            name: name.into(),
            blocks,
            threads_per_block,
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

    /// Total thread count.
    pub fn threads(&self) -> u64 {
        self.blocks as u64 * self.threads_per_block as u64
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

    /// Result latency in cycles per unit class (for the detailed model).
    fn result_latency(&self, unit: UnitClass) -> u64 {
        match unit {
            UnitClass::Fpu => 18,
            UnitClass::Sfu => 22,
            UnitClass::Alu => 12,
            // Hierarchy-weighted load-to-use latency.
            UnitClass::Lsu | UnitClass::Dram => self.cfg.memory.avg_latency_cycles() as u64,
        }
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

    /// Cycle-driven warp-scheduler model (round-robin, in-order warps,
    /// per-unit occupancy). Intended for small kernels; complexity is
    /// `O(total warp-instructions + cycles)`.
    pub fn simulate_detailed(&self, k: &KernelLaunch) -> SimStats {
        // Build one representative SM: its share of warps and instructions.
        let sms = self.cfg.num_sms as u64;
        let per_class = self.warp_instrs(k);
        // Per-SM instruction queue, interleaved deterministically across
        // classes (largest-remainder round robin).
        let mut remaining: Vec<(UnitClass, u64)> = per_class
            .iter()
            .map(|&(u, n)| (u, n.div_ceil(sms)))
            .collect();
        let total: u64 = remaining.iter().map(|&(_, n)| n).sum();
        let mut queue = Vec::with_capacity(total as usize);
        while remaining.iter().any(|&(_, n)| n > 0) {
            for entry in remaining.iter_mut() {
                if entry.1 > 0 {
                    queue.push(entry.0);
                    entry.1 -= 1;
                }
            }
        }

        // Resident warps share the queue round-robin.
        let warps_resident = (k.threads().div_ceil(self.cfg.warp_size as u64) / sms)
            .clamp(1, self.cfg.max_warps_per_sm as u64) as usize;
        let mut warp_pc: Vec<usize> = (0..warps_resident).collect(); // next queue slot
        let mut warp_ready: Vec<u64> = vec![0; warps_resident];
        let mut unit_free: [u64; 4] = [0; 4];
        let unit_idx = |u: UnitClass| UnitClass::ALL.iter().position(|&x| x == u).expect("unit");

        let mut now = 0u64;
        let mut issued = 0u64;
        let mut rr = 0usize;
        let issue_width = self.cfg.issue_width.max(1) as usize;
        while issued < total {
            // Dual-issue (Fermi): up to issue_width instructions per cycle
            // from distinct ready warps.
            let mut issued_this_cycle = 0usize;
            let mut progressed = false;
            let mut i = 0usize;
            while i < warps_resident && issued_this_cycle < issue_width {
                let wi = (rr + i) % warps_resident;
                i += 1;
                let pc = warp_pc[wi];
                if pc >= queue.len() || warp_ready[wi] > now {
                    continue;
                }
                let unit = queue[pc];
                let ui = unit_idx(unit);
                if unit_free[ui] > now {
                    continue;
                }
                // Issue.
                unit_free[ui] = now + self.issue_interval(unit);
                warp_ready[wi] = now + self.result_latency(unit);
                warp_pc[wi] = pc + warps_resident; // strided queue sharing
                issued += 1;
                issued_this_cycle += 1;
                progressed = true;
            }
            if progressed {
                rr = (rr + i) % warps_resident;
            }
            now += 1;
            if !progressed {
                // Jump to the next interesting cycle to avoid idling.
                let next = warp_ready
                    .iter()
                    .chain(unit_free.iter())
                    .filter(|&&t| t > now)
                    .min()
                    .copied()
                    .unwrap_or(now);
                now = now.max(next);
            }
        }
        // Drain: last results complete.
        let cycles = warp_ready.iter().copied().max().unwrap_or(now).max(now)
            + self.cfg.pipeline_depth as u64;
        let total_warp_instr: u64 = per_class.iter().map(|&(_, n)| n).sum();
        let time_us = cycles as f64 / (self.cfg.clock_ghz * 1e3);
        // Bottleneck bookkeeping as in the throughput model.
        let t = self.simulate(k);
        SimStats {
            cycles,
            time_us,
            warp_instructions: total_warp_instr,
            ipc: total_warp_instr as f64 / cycles as f64,
            bottleneck_cycles: t.bottleneck_cycles,
            bottleneck: t.bottleneck,
        }
    }

    /// Trace-exact detailed simulation: replays an actual issue-port
    /// sequence captured by [`crate::dispatch::FpCtx::enable_trace`]
    /// through the warp scheduler, instead of a synthesized interleaving.
    /// One representative SM runs every `num_sms`-th trace entry;
    /// `threads` sets the resident-warp count.
    pub fn simulate_trace(&self, trace: &[UnitClass], threads: u64) -> SimStats {
        // The trace holds scalar ops from a sequential functional run; a
        // warp instruction covers `warp_size` lanes of the same op and
        // each SM runs a 1/num_sms share, so the representative SM's
        // warp-instruction queue strides by both factors.
        let stride = (self.cfg.num_sms * self.cfg.warp_size).max(1) as usize;
        let queue: Vec<UnitClass> = trace.iter().copied().step_by(stride).collect();
        let warps_resident = (threads.div_ceil(self.cfg.warp_size as u64) / self.cfg.num_sms as u64)
            .clamp(1, self.cfg.max_warps_per_sm as u64) as usize;
        let cycles = self.run_scheduler(&queue, warps_resident) + self.cfg.pipeline_depth as u64;
        let total_warp_instr = (trace.len() as u64)
            .div_ceil(self.cfg.warp_size as u64)
            .max(1);
        let mut per_unit = [0u64; 4];
        for &u in trace {
            if let Some(i) = UnitClass::ALL.iter().position(|&x| x == u) {
                per_unit[i] += 1;
            }
        }
        let (bi, _) = per_unit
            .iter()
            .enumerate()
            .max_by_key(|(_, &n)| n)
            .expect("four units");
        SimStats {
            cycles,
            time_us: cycles as f64 / (self.cfg.clock_ghz * 1e3),
            warp_instructions: total_warp_instr,
            ipc: total_warp_instr as f64 / cycles as f64,
            bottleneck_cycles: cycles - self.cfg.pipeline_depth as u64,
            bottleneck: UnitClass::ALL[bi],
        }
    }

    /// The shared warp-scheduler core: issues `queue` round-robin across
    /// `warps_resident` warps with per-unit occupancy and dual issue;
    /// returns the cycle the last result completes.
    fn run_scheduler(&self, queue: &[UnitClass], warps_resident: usize) -> u64 {
        let total = queue.len() as u64;
        if total == 0 {
            return 0;
        }
        let mut warp_pc: Vec<usize> = (0..warps_resident).collect();
        let mut warp_ready: Vec<u64> = vec![0; warps_resident];
        let mut unit_free: [u64; 4] = [0; 4];
        let unit_idx = |u: UnitClass| UnitClass::ALL.iter().position(|&x| x == u).expect("unit");
        let issue_width = self.cfg.issue_width.max(1) as usize;

        let mut now = 0u64;
        let mut issued = 0u64;
        let mut rr = 0usize;
        while issued < total {
            let mut issued_this_cycle = 0usize;
            let mut progressed = false;
            let mut i = 0usize;
            while i < warps_resident && issued_this_cycle < issue_width {
                let wi = (rr + i) % warps_resident;
                i += 1;
                let pc = warp_pc[wi];
                if pc >= queue.len() || warp_ready[wi] > now {
                    continue;
                }
                let unit = queue[pc];
                let ui = unit_idx(unit);
                if unit_free[ui] > now {
                    continue;
                }
                unit_free[ui] = now + self.issue_interval(unit);
                warp_ready[wi] = now + self.result_latency(unit);
                warp_pc[wi] = pc + warps_resident;
                issued += 1;
                issued_this_cycle += 1;
                progressed = true;
            }
            if progressed {
                rr = (rr + i) % warps_resident;
            }
            now += 1;
            if !progressed {
                let next = warp_ready
                    .iter()
                    .chain(unit_free.iter())
                    .filter(|&&t| t > now)
                    .min()
                    .copied()
                    .unwrap_or(now);
                now = now.max(next);
            }
        }
        warp_ready.iter().copied().max().unwrap_or(now).max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(fpu: u64, sfu: u64, alu: u64, mem: u64) -> KernelLaunch {
        let mut fp = OpCounts::new();
        fp.record(FpOp::Add, fpu / 2);
        fp.record(FpOp::Mul, fpu - fpu / 2);
        fp.record(FpOp::Rcp, sfu);
        KernelLaunch::new(
            "test",
            120,
            256,
            InstrMix {
                fp,
                int_ops: alu,
                mem_ops: mem,
            },
        )
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
    fn detailed_and_throughput_agree_when_latency_hidden() {
        // Plenty of warps: the detailed scheduler should land within 2× of
        // the issue bound (same order of magnitude).
        let sim = Simulator::new(GpuConfig::gtx480());
        let k = kernel(400_000, 10_000, 100_000, 40_000);
        let fast = sim.simulate(&k);
        let slow = sim.simulate_detailed(&k);
        assert!(slow.cycles >= fast.bottleneck_cycles, "detailed ≥ bound");
        assert!(
            (slow.cycles as f64) < 3.0 * fast.cycles as f64,
            "detailed {} vs throughput {}",
            slow.cycles,
            fast.cycles
        );
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
        assert_eq!(k.threads(), 120 * 256);
    }

    #[test]
    fn trace_replay_matches_mix_model_roughly() {
        // A captured trace and the synthesized interleaving of the same
        // mix must land in the same cycle regime.
        use crate::dispatch::FpCtx;
        use ihw_core::config::IhwConfig;
        let mut ctx = FpCtx::new(IhwConfig::precise());
        ctx.enable_trace();
        for i in 0..20_000u32 {
            let x = 1.0 + (i % 97) as f32 * 0.01;
            let _ = ctx.fma32(x, 1.1, 0.3);
            let _ = ctx.add32(x, 2.0);
            if i % 4 == 0 {
                let _ = ctx.rsqrt32(x);
            }
            ctx.mem_op(1);
        }
        let trace = ctx.take_trace();
        let sim = Simulator::new(GpuConfig::gtx480());
        let threads = 20_000u64;
        let replay = sim.simulate_trace(&trace, threads);
        let k = KernelLaunch::new(
            "traced",
            (threads as u32).div_ceil(256),
            256,
            InstrMix {
                fp: ctx.counts().clone(),
                int_ops: ctx.int_ops(),
                mem_ops: ctx.mem_ops(),
            },
        );
        let synth = sim.simulate_detailed(&k);
        assert!(replay.cycles > 0);
        let ratio = replay.cycles as f64 / synth.cycles as f64;
        assert!(
            (0.3..3.0).contains(&ratio),
            "replay {} vs synth {}",
            replay.cycles,
            synth.cycles
        );
    }

    #[test]
    fn trace_replay_empty_trace() {
        let sim = Simulator::new(GpuConfig::gtx480());
        let s = sim.simulate_trace(&[], 32);
        assert_eq!(s.cycles, GpuConfig::gtx480().pipeline_depth as u64);
    }

    #[test]
    fn dual_issue_beats_single_issue() {
        let k = kernel(600_000, 30_000, 300_000, 100_000);
        let mut single = GpuConfig::gtx480();
        single.issue_width = 1;
        let s1 = Simulator::new(single).simulate_detailed(&k);
        let s2 = Simulator::new(GpuConfig::gtx480()).simulate_detailed(&k);
        assert!(
            s2.cycles < s1.cycles,
            "dual issue must be faster: {} vs {}",
            s2.cycles,
            s1.cycles
        );
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
    fn unit_class_mapping() {
        assert_eq!(UnitClass::for_fp_op(FpOp::Add), UnitClass::Fpu);
        assert_eq!(UnitClass::for_fp_op(FpOp::Fma), UnitClass::Fpu);
        assert_eq!(UnitClass::for_fp_op(FpOp::Rsqrt), UnitClass::Sfu);
        assert_eq!(UnitClass::for_fp_op(FpOp::Div), UnitClass::Sfu);
    }
}
