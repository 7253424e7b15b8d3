//! Bit-exact pins of the double-precision workloads: MD (435.gromacs),
//! ART (179.art) and Sphinx (482.sphinx3).
//!
//! Each pin holds one workload's outputs as raw bit patterns, its
//! per-opcode `OpCounts` and its integer and memory op totals, under the
//! Quick parameters and five configs: `precise`, `fp_tr0`, `lp_tr44`,
//! `bt_44` and `all_imprecise`. The imprecise adders and multipliers
//! round differently from the host, so reordering any counted sum, or
//! skipping or adding one op, moves an output bit or a count and fails
//! here.
//!
//! The values were recorded from the one-op-at-a-time implementation
//! that preceded the lane-batched `FpCtx` slice ops, so they prove the
//! lane rewrite bit-identical. On a mismatch the failure message prints
//! the whole table as it now computes, in this file's syntax.
//!
//! The paper-scale MD pin is `#[ignore]`d; run it in release mode
//! (`cargo test --release --test workload_pins -- --ignored`).

use imprecise_gpgpu::core::ac_multiplier::{AcMulConfig, MulPath};
use imprecise_gpgpu::core::config::{FpOp, IhwConfig, MulUnit};
use imprecise_gpgpu::core::truncated::TruncatedMul;
use imprecise_gpgpu::sim::dispatch::FpCtx;
use imprecise_gpgpu::workloads::{art, md, sphinx};

/// One workload run under one config: output bits, then the
/// `OpCounts` in `FpOp::ALL` order, then `int_ops` and `mem_ops`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pin {
    workload: &'static str,
    config: &'static str,
    output: Vec<u64>,
    counts: [u64; 9],
    int_ops: u64,
    mem_ops: u64,
}

/// The five pinned configs by their `repro` labels.
fn configs() -> [(&'static str, IhwConfig); 5] {
    let with_mul = |m| IhwConfig::precise().with_mul(m);
    [
        ("precise", IhwConfig::precise()),
        (
            "fp_tr0",
            with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Full, 0))),
        ),
        (
            "lp_tr44",
            with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 44))),
        ),
        ("bt_44", with_mul(MulUnit::Truncated(TruncatedMul::new(44)))),
        ("all_imprecise", IhwConfig::all_imprecise()),
    ]
}

fn pin(workload: &'static str, config: &'static str, output: Vec<u64>, ctx: &FpCtx) -> Pin {
    Pin {
        workload,
        config,
        output,
        counts: FpOp::ALL.map(|op| ctx.counts().get(op)),
        int_ops: ctx.int_ops(),
        mem_ops: ctx.mem_ops(),
    }
}

fn md_pin(config: &'static str, cfg: IhwConfig, params: &md::MdParams) -> Pin {
    let (out, ctx) = md::run_with_config(params, cfg);
    let bits = vec![out.avg_potential.to_bits(), out.avg_temperature.to_bits()];
    pin("md", config, bits, &ctx)
}

fn art_pin(config: &'static str, cfg: IhwConfig) -> Pin {
    let (out, ctx) = art::run_with_config(&art::ArtParams::default(), cfg);
    let bits = vec![
        out.category as u64,
        out.location.0 as u64,
        out.location.1 as u64,
        out.vigilance.to_bits(),
    ];
    pin("art", config, bits, &ctx)
}

/// Sphinx's predictions, then the bits of the first utterance's DTW
/// distance to every template (on a scratch context, so uncounted): the
/// predictions alone would not see a reordered frame-distance sum.
fn sphinx_pin(config: &'static str, cfg: IhwConfig) -> Pin {
    let params = sphinx::SphinxParams::default();
    let (out, ctx) = sphinx::run_with_config(&params, cfg);
    let vocab = sphinx::synth_vocabulary(&params);
    let utts = sphinx::synth_utterances(&params, &vocab);
    let mut scratch = FpCtx::new(cfg);
    let dists = vocab
        .iter()
        .map(|tpl| sphinx::dtw_distance(&mut scratch, &utts[0], tpl).to_bits());
    let bits = out
        .predictions
        .iter()
        .map(|&p| p as u64)
        .chain(dists)
        .collect();
    pin("sphinx", config, bits, &ctx)
}

/// Renders pins as the Rust source of an `expected` table.
fn render(pins: &[Pin]) -> String {
    let mut s = String::new();
    for p in pins {
        let output: Vec<String> = p.output.iter().map(|b| format!("{b:#x}")).collect();
        s += &format!(
            "        (\"{}\", \"{}\", &[{}], {:?}, {}, {}),\n",
            p.workload,
            p.config,
            output.join(", "),
            p.counts,
            p.int_ops,
            p.mem_ops
        );
    }
    s
}

type Expected = (
    &'static str,
    &'static str,
    &'static [u64],
    [u64; 9],
    u64,
    u64,
);

fn check(got: &[Pin], expected: &[Expected]) {
    let want: Vec<Pin> = expected
        .iter()
        .map(
            |&(workload, config, output, counts, int_ops, mem_ops)| Pin {
                workload,
                config,
                output: output.to_vec(),
                counts,
                int_ops,
                mem_ops,
            },
        )
        .collect();
    assert!(
        got == want.as_slice(),
        "workload pins moved; now computed:\n{}",
        render(got)
    );
}

#[test]
fn quick_scale_outputs_and_counts_are_pinned() {
    let params = md::MdParams::default();
    let mut got = Vec::new();
    for (label, cfg) in configs() {
        got.push(md_pin(label, cfg, &params));
        got.push(art_pin(label, cfg));
        got.push(sphinx_pin(label, cfg));
    }
    #[rustfmt::skip]
    let expected: &[Expected] = &[
        ("md", "precise", &[0xbff3297b23532f61, 0x3fc563edf5d5ee46], [821322, 594108, 0, 45762, 0, 0, 0, 0, 342096], 563232, 284496),
        ("art", "precise", &[0x0, 0xe, 0x16, 0x3fef8f35a4055160], [0, 3042, 0, 1521, 0, 1521, 0, 0, 456300], 9126, 152100),
        ("sphinx", "precise", &[0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0x3f18e97f04f32a7b, 0x3f331ef8bdc2d475, 0x40044d02c582c92c, 0x4004544aad02784c, 0x4002f315a9daddd3, 0x4002ee791ca10255, 0x400335f1c2e6b070, 0x400341fd87012ab4, 0x400431b12c1e428e, 0x4004292630c95cb9], [332800, 1672, 0, 0, 0, 0, 0, 0, 307200], 102400, 51200),
        ("md", "fp_tr0", &[0xbff326e19e41813f, 0x3fc556f70b626d01], [822762, 595708, 0, 45922, 0, 0, 0, 0, 342096], 563232, 284496),
        ("art", "fp_tr0", &[0x0, 0xe, 0x16, 0x3fef642cecd8b390], [0, 3042, 0, 1521, 0, 1521, 0, 0, 456300], 9126, 152100),
        ("sphinx", "fp_tr0", &[0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0x3f18ce52f6f7e5bf, 0x3f330bae37dbba57, 0x40043c66f65adca0, 0x400443ac1fb6f10f, 0x4002e0b9e4c32ef5, 0x4002dc36e9b4f0a6, 0x400325081e61636c, 0x4003309b75bec332, 0x40041f2bdd86fb91, 0x4004164bd50f8369], [332800, 1672, 0, 0, 0, 0, 0, 0, 307200], 102400, 51200),
        ("md", "lp_tr44", &[0xbff7337140000000, 0x3fc7daed9f2d2a4f], [875574, 654388, 0, 51790, 0, 0, 0, 0, 342096], 563232, 284496),
        ("art", "lp_tr44", &[0x0, 0xe, 0x16, 0x3feed00000000000], [0, 3042, 0, 1521, 0, 1521, 0, 0, 456300], 9126, 152100),
        ("sphinx", "lp_tr44", &[0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0x3f17de2ecc000000, 0x3f3268a49e000000, 0x4003562c1c9e4000, 0x40035bfb0fe80000, 0x400234e4ebfe0000, 0x400231a483fe0000, 0x400266d90961b400, 0x400272d9d9e1b400, 0x4003617bd3e80000, 0x4003580e3da80000], [332800, 1671, 0, 0, 0, 0, 0, 0, 307200], 102400, 51200),
        ("md", "bt_44", &[0xbff32994c9f49f4b, 0x3fc5634ef7d7e16b], [821322, 594108, 0, 45762, 0, 0, 0, 0, 342096], 563232, 284496),
        ("art", "bt_44", &[0x0, 0xe, 0x16, 0x3fef8cc000000000], [0, 3042, 0, 1521, 0, 1521, 0, 0, 456300], 9126, 152100),
        ("sphinx", "bt_44", &[0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0x3f18e8be80662000, 0x3f331d927f260000, 0x40044c9cddd34b10, 0x4004544785025000, 0x4002f21ff28a0000, 0x4002ee01036e0000, 0x400336fd35b95a59, 0x400343f2ac3d1a59, 0x400430f04ac62000, 0x400428bc4da89000], [332800, 1672, 0, 0, 0, 0, 0, 0, 307200], 102400, 51200),
        ("md", "all_imprecise", &[0xbfea08b33926b801, 0x3fb199e8036ec6d4], [919116, 702768, 0, 56628, 0, 0, 0, 0, 342096], 563232, 284496),
        ("art", "all_imprecise", &[0x0, 0xe, 0x16, 0x3feb7daea817553c], [0, 3042, 0, 1521, 0, 1521, 0, 0, 456300], 9126, 152100),
        ("sphinx", "all_imprecise", &[0x0, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0x3f1c11ea3e60e411, 0x3f33046db5b50d78, 0x4001fdc128a1b2b2, 0x4002034128a1b2b2, 0x4000a897fb9cb8df, 0x4000a8d7fb9cb8df, 0x400124ed48b4b9b3, 0x4001226d48b4b9b3, 0x4001d1638436de77, 0x4001bd238436de77], [332800, 1659, 0, 0, 0, 0, 0, 0, 307200], 102400, 51200),
    ];
    check(&got, expected);
}

#[test]
#[ignore = "paper-scale MD: run in release mode"]
fn paper_scale_md_is_pinned() {
    let params = md::MdParams::paper();
    let got: Vec<Pin> = configs()
        .into_iter()
        .map(|(label, cfg)| md_pin(label, cfg, &params))
        .collect();
    #[rustfmt::skip]
    let expected: &[Expected] = &[
        ("md", "precise", &[0xc010584db561adcf, 0x3fda773e1fe17057], [20606193, 14793088, 0, 1132051, 0, 0, 0, 0, 7722756], 14084712, 7074756),
        ("md", "fp_tr0", &[0xc01071bdee04da94, 0x3fdb267683c3d69a], [20657250, 14849818, 0, 1137724, 0, 0, 0, 0, 7722756], 14084712, 7074756),
        ("md", "lp_tr44", &[0xc010901ccb892a58, 0x3fda0fa32e1b7b44], [20933082, 15156298, 0, 1168372, 0, 0, 0, 0, 7722756], 14084712, 7074756),
        ("md", "bt_44", &[0xc01059cbafe9c009, 0x3fda771e804f3df7], [20606679, 14793628, 0, 1132105, 0, 0, 0, 0, 7722756], 14084712, 7074756),
        ("md", "all_imprecise", &[0xbffd59497433e759, 0x3ff6c4c36b3fbe5e], [19157985, 13183968, 0, 971139, 0, 0, 0, 0, 7722756], 14084712, 7074756),
    ];
    check(&got, expected);
}
