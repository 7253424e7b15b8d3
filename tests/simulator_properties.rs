//! Property-based invariants of the SIMT timing model and the power
//! pipeline, over randomly generated instruction mixes.

use imprecise_gpgpu::core::config::FpOp;
use imprecise_gpgpu::power::OpCounts;
use imprecise_gpgpu::sim::{GpuConfig, InstrMix, KernelLaunch, Simulator, UnitClass, WattchModel};
use proptest::prelude::*;

fn arb_mix() -> impl Strategy<Value = InstrMix> {
    (
        0u64..5_000_000,
        0u64..5_000_000,
        0u64..2_000_000,
        0u64..3_000_000,
        0u64..3_000_000,
    )
        .prop_map(|(adds, muls, sfu, ints, mems)| {
            let mut fp = OpCounts::new();
            fp.record(FpOp::Add, adds);
            fp.record(FpOp::Mul, muls);
            fp.record(FpOp::Rsqrt, sfu);
            InstrMix {
                fp,
                int_ops: ints,
                mem_ops: mems,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cycles_monotone_in_every_op_class(mix in arb_mix()) {
        let sim = Simulator::new(GpuConfig::gtx480());
        let base = sim.simulate(&KernelLaunch::new(mix.clone()));
        // Doubling any class never reduces cycles.
        for class in [UnitClass::Fpu, UnitClass::Sfu, UnitClass::Alu, UnitClass::Lsu] {
            let mut bigger = mix.clone();
            match class {
                UnitClass::Fpu => bigger.fp.record(FpOp::Add, mix.fp.fpu_total().max(1)),
                UnitClass::Sfu => bigger.fp.record(FpOp::Rsqrt, mix.fp.sfu_total().max(1)),
                UnitClass::Alu => bigger.int_ops += mix.int_ops.max(1),
                UnitClass::Lsu => bigger.mem_ops += mix.mem_ops.max(1),
                UnitClass::Dram => unreachable!(),
            }
            let grown = sim.simulate(&KernelLaunch::new(bigger));
            prop_assert!(grown.cycles >= base.cycles, "{class:?}");
        }
    }

    #[test]
    fn time_consistent_with_clock(mix in arb_mix()) {
        let cfg = GpuConfig::gtx480();
        let stats = Simulator::new(cfg).simulate(&KernelLaunch::new(mix));
        let expect = stats.cycles as f64 / (cfg.clock_ghz * 1e3);
        prop_assert!((stats.time_us - expect).abs() < 1e-9);
    }

    #[test]
    fn divergence_never_speeds_up(mix in arb_mix()) {
        let sim = Simulator::new(GpuConfig::gtx480());
        let full = sim.simulate(&KernelLaunch::new(mix.clone()));
        let div = sim.simulate(&KernelLaunch::new(mix).with_warp_efficiency(0.5));
        prop_assert!(div.cycles >= full.cycles);
    }

    #[test]
    fn power_breakdown_shares_partition(mix in arb_mix()) {
        prop_assume!(mix.total() > 0);
        let stats = Simulator::new(GpuConfig::gtx480()).simulate(&KernelLaunch::new(mix.clone()));
        let b = WattchModel::gtx480().breakdown(&mix, &stats);
        let parts = b.fpu_w + b.sfu_w + b.alu_w + b.rf_w + b.mem_w + b.background_w;
        prop_assert!((parts - b.total_w()).abs() < 1e-9);
        prop_assert!(b.fpu_share() >= 0.0 && b.arithmetic_share() <= 1.0);
    }

    #[test]
    fn perfect_cache_lifts_dram_bottleneck(mix in arb_mix()) {
        prop_assume!(mix.mem_ops > 1_000_000);
        let mut cfg = GpuConfig::gtx480();
        cfg.memory.l1_hit_rate = 1.0;
        let stats = Simulator::new(cfg).simulate(&KernelLaunch::new(mix));
        prop_assert!(stats.bottleneck != UnitClass::Dram);
    }

    #[test]
    fn estimator_savings_within_unit_interval(mix in arb_mix()) {
        use imprecise_gpgpu::core::config::IhwConfig;
        use imprecise_gpgpu::power::{PowerShares, SystemPowerModel};
        let est = SystemPowerModel::new().estimate(
            &mix.fp,
            &IhwConfig::all_imprecise(),
            PowerShares::new(0.25, 0.13),
        );
        prop_assert!((0.0..=1.0).contains(&est.fpu_improvement));
        prop_assert!((-0.2..=1.0).contains(&est.sfu_improvement), "isqrt can cost power");
        prop_assert!(est.system_savings <= 0.38 + 1e-9, "bounded by the arithmetic share");
    }
}
