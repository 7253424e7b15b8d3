//! Canned kernel-IR programs: standard GPU micro-kernels expressed in
//! the [`crate::isa`] instruction set, for simulator validation and
//! benchmarking.

use crate::deps::footprints;
use crate::isa::{AddrMode, Instr, Program, Reg};

/// `y[i] = a·x[i] + y[i]` over buffers `0` (x) and `1` (y).
pub fn saxpy(a: f32) -> Program {
    Program::new(
        "saxpy",
        3,
        vec![
            Instr::Movi(Reg(0), a),
            Instr::Ld(Reg(1), 0, AddrMode::Tid),
            Instr::Ld(Reg(2), 1, AddrMode::Tid),
            Instr::Ffma(Reg(2), Reg(0), Reg(1), Reg(2)),
            Instr::St(1, AddrMode::Tid, Reg(2)),
        ],
    )
    .expect("saxpy is a valid program")
}

/// Per-element vector normalisation scale: `out[i] = 1/√(x[i]² + y[i]²)`
/// over buffers `0` (x), `1` (y) → `2` (out). Exercises the SFU.
pub fn rsqrt_norm() -> Program {
    Program::new(
        "rsqrt_norm",
        3,
        vec![
            Instr::Ld(Reg(0), 0, AddrMode::Tid),
            Instr::Ld(Reg(1), 1, AddrMode::Tid),
            Instr::Fmul(Reg(2), Reg(0), Reg(0)),
            Instr::Ffma(Reg(2), Reg(1), Reg(1), Reg(2)),
            Instr::Rsqrt(Reg(2), Reg(2)),
            Instr::St(2, AddrMode::Tid, Reg(2)),
        ],
    )
    .expect("rsqrt_norm is a valid program")
}

/// Per-thread partial dot product of a `chunk`-element strip:
/// `out[i] = Σ_j x[i+j]·y[i+j]` over buffers `0`, `1` → `2`.
///
/// The host reduces the partials; the kernel is the FMA chain.
pub fn dot_partial(chunk: usize) -> Program {
    let mut instrs = vec![Instr::Movi(Reg(2), 0.0)];
    for j in 0..chunk {
        instrs.push(Instr::Ld(Reg(0), 0, AddrMode::TidPlus(j as i64)));
        instrs.push(Instr::Ld(Reg(1), 1, AddrMode::TidPlus(j as i64)));
        instrs.push(Instr::Ffma(Reg(2), Reg(0), Reg(1), Reg(2)));
    }
    instrs.push(Instr::St(2, AddrMode::Tid, Reg(2)));
    Program::new("dot_partial", 3, instrs).expect("dot_partial is a valid program")
}

/// Error-free transformation of a sum (Knuth TwoSum, 6 flops): stores
/// the raw sum `s = a ⊕ b` to buffer `2` and the *compensated* sum
/// `s ⊕ e` — where `e = (a ⊖ (s ⊖ (s ⊖ a))) ⊕ (b ⊖ (s ⊖ a))` recovers
/// the rounding residual — to buffer `3`.
///
/// The correction chain subtracts highly correlated intermediates, so
/// the interval domain of `ihw-analyze` reports ⊤ on buffer `3` under
/// *any* config (the ideal ranges of `s ⊖ a` etc. straddle zero) while
/// the affine domain cancels the shared noise symbols and proves a
/// finite bound — the motivating case for the relational pass
/// (ROADMAP item 4, "Recycled Error Bits" / float-float operators).
pub fn two_sum() -> Program {
    crate::asm::assemble(
        "two_sum",
        "
        .buffers 4
        ld   r0, b0[tid]   # a
        ld   r1, b1[tid]   # b
        fadd r2, r0, r1    # s  = a (+) b
        fsub r3, r2, r0    # bb = s (-) a
        fsub r4, r2, r3    # aa = s (-) bb
        fsub r5, r0, r4    # da = a (-) aa
        fsub r6, r1, r3    # db = b (-) bb
        fadd r7, r5, r6    # e  = da (+) db
        st   b2[tid], r2   # raw sum
        fadd r8, r2, r7    # compensated sum s (+) e
        st   b3[tid], r8
        ",
    )
    .expect("two_sum is a valid program")
}

/// Error-free transformation of a product: stores `p = a ⊗ b` to buffer
/// `2` and the FMA residual `fma(a, b, −p)` to buffer `3`.
///
/// The residual's *ideal* value is exactly zero, so no relative bound
/// exists for buffer `3` in any domain — the kernel exercises the
/// negate-and-fma idiom (and the analyzer's far-magnitude `0 ⊖ p`
/// case) rather than the affine recovery path, which [`two_sum`] and
/// [`dot_compensated`] cover.
pub fn two_prod() -> Program {
    crate::asm::assemble(
        "two_prod",
        "
        .buffers 4
        ld   r0, b0[tid]     # a
        ld   r1, b1[tid]     # b
        fmul r2, r0, r1      # p = a (x) b
        movi r3, 0.0
        fsub r3, r3, r2      # -p
        ffma r4, r0, r1, r3  # residual a*b (+) (-p)
        st   b2[tid], r2
        st   b3[tid], r4
        ",
    )
    .expect("two_prod is a valid program")
}

/// Per-thread *compensated* (Kahan) partial dot product of a
/// `chunk`-element strip: `out[i] = Σ_j x[i+j]·y[i+j]` over buffers
/// `0`, `1` → `2`, with a running compensation term `c` correcting each
/// accumulation step.
///
/// The compensation chain `c = (t ⊖ sum) ⊖ y` cancels catastrophically
/// in the interval domain (⊤ from the first iteration on, even under
/// the precise config) while the affine domain tracks the correlation
/// and keeps the bound finite whenever only the adder is imprecise.
pub fn dot_compensated(chunk: usize) -> Program {
    let mut text = String::from(".buffers 3\nmovi r3, 0.0   # sum\nmovi r4, 0.0   # c\n");
    let (mut sum, mut t) = (3u8, 6u8);
    for j in 0..chunk {
        let idx = if j == 0 {
            "tid".to_string()
        } else {
            format!("tid+{j}")
        };
        text.push_str(&format!("ld   r0, b0[{idx}]\nld   r1, b1[{idx}]\n"));
        text.push_str("fmul r2, r0, r1      # p = x*y\n");
        text.push_str("fsub r5, r2, r4      # y = p (-) c\n");
        text.push_str(&format!("fadd r{t}, r{sum}, r5  # t = sum (+) y\n"));
        if j + 1 < chunk {
            text.push_str(&format!("fsub r7, r{t}, r{sum}  # t (-) sum\n"));
            text.push_str("fsub r4, r7, r5      # c = (t (-) sum) (-) y\n");
        }
        std::mem::swap(&mut sum, &mut t);
    }
    text.push_str(&format!("st   b2[tid], r{sum}\n"));
    crate::asm::assemble("dot_compensated", &text).expect("dot_compensated is a valid program")
}

/// One Jacobi sweep of the 1-D Poisson-style recurrence
/// `x'[i] = (b[i] + x[i−1] + x[i+1]) / 3` over buffers `0` (x, with
/// halo), `1` (b) → `2` (x', same layout). Thread `tid` owns interior
/// element `tid + 1`; elements `0` and `T+1` are Dirichlet boundary
/// cells that the host keeps fixed when it ping-pongs buffer `2` back
/// onto buffer `0` (declared by the feedback binding `2 → 0`).
///
/// The ideal per-sweep error-transfer factor is `2/3` (each output
/// depends on two neighbours with weight `1/3` each), the canonical
/// contraction subject for `ihw_analyze::contraction`: the static ρ
/// adds the configured adder/multiplier noise on top of `2/3`, so the
/// precise and TH = 8 configs certify while aggressive thresholds tip
/// ρ past 1.
pub fn jacobi_sweep() -> Program {
    Program::new(
        "jacobi_sweep",
        5,
        vec![
            Instr::Movi(Reg(0), 1.0 / 3.0),
            Instr::Ld(Reg(1), 1, AddrMode::TidPlus(1)), // b[i]
            Instr::Ld(Reg(2), 0, AddrMode::Tid),        // x[i-1]
            Instr::Ld(Reg(3), 0, AddrMode::TidPlus(2)), // x[i+1]
            Instr::Fadd(Reg(4), Reg(2), Reg(3)),
            Instr::Fadd(Reg(4), Reg(4), Reg(1)),
            Instr::Fmul(Reg(4), Reg(4), Reg(0)),
            Instr::St(2, AddrMode::TidPlus(1), Reg(4)),
        ],
    )
    .expect("jacobi_sweep is a valid program")
    .with_feedback(2, 0)
}

/// One explicit-Euler step of the 1-D heat equation with a source term:
/// `u'[i] = 0.5·u[i] + 0.2·(u[i−1] + u[i+1]) + 0.1·q[i]` over buffers
/// `0` (u, with halo), `1` (q) → `2` (u'). Same halo/feedback layout as
/// [`jacobi_sweep`]; the stencil weights sum to `0.9 + 0.1` so the
/// update maps `[0.5, 1]` inputs into themselves and the ideal
/// error-transfer factor is `0.5 + 2·0.2 = 0.9` — much closer to the
/// stability edge, so milder imprecision already de-certifies it.
pub fn heat_stencil() -> Program {
    Program::new(
        "heat_stencil",
        9,
        vec![
            Instr::Movi(Reg(0), 0.5),
            Instr::Movi(Reg(1), 0.2),
            Instr::Movi(Reg(2), 0.1),
            Instr::Ld(Reg(3), 0, AddrMode::TidPlus(1)), // u[i]
            Instr::Ld(Reg(4), 0, AddrMode::Tid),        // u[i-1]
            Instr::Ld(Reg(5), 0, AddrMode::TidPlus(2)), // u[i+1]
            Instr::Ld(Reg(6), 1, AddrMode::TidPlus(1)), // q[i]
            Instr::Fadd(Reg(7), Reg(4), Reg(5)),
            Instr::Fmul(Reg(7), Reg(7), Reg(1)),
            Instr::Fmul(Reg(8), Reg(3), Reg(0)),
            Instr::Fadd(Reg(7), Reg(7), Reg(8)),
            Instr::Fmul(Reg(8), Reg(6), Reg(2)),
            Instr::Fadd(Reg(7), Reg(7), Reg(8)),
            Instr::St(2, AddrMode::TidPlus(1), Reg(7)),
        ],
    )
    .expect("heat_stencil is a valid program")
    .with_feedback(2, 0)
}

/// A distance-to-origin kernel: `out[i] = √(x[i]² + y[i]²)` — the
/// mul/add/sqrt profile of the RayTracing intersection math.
pub fn distance() -> Program {
    Program::new(
        "distance",
        3,
        vec![
            Instr::Ld(Reg(0), 0, AddrMode::Tid),
            Instr::Ld(Reg(1), 1, AddrMode::Tid),
            Instr::Fmul(Reg(2), Reg(0), Reg(0)),
            Instr::Ffma(Reg(2), Reg(1), Reg(1), Reg(2)),
            Instr::Sqrt(Reg(2), Reg(2)),
            Instr::St(2, AddrMode::Tid, Reg(2)),
        ],
    )
    .expect("distance is a valid program")
}

/// Deterministic well-conditioned inputs for any kernel: every element
/// in `[0.5, 1)`, buffers sized by the kernel's own footprint
/// ([`crate::deps::Footprint::required_len`]) so strided reads stay in
/// bounds at any thread count.
pub fn seed_buffers(prog: &Program, threads: u32) -> Vec<Vec<f32>> {
    let fps = footprints(prog);
    let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
    (0..n_bufs)
        .map(|b| {
            let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
            (0..len)
                .map(|i| 0.5 + ((i * 37 + b * 11) % 512) as f32 / 1024.0)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::WarpInterpreter;
    use ihw_core::config::IhwConfig;

    #[test]
    fn seed_buffers_cover_strided_footprints() {
        let prog = dot_partial(4);
        let bufs = seed_buffers(&prog, 16);
        assert_eq!(bufs.len(), 3);
        assert_eq!(bufs[0].len(), 16 + 3, "x covers tid..tid+4 strips");
        assert_eq!(bufs[2].len(), 16);
        assert!(bufs[0].iter().all(|&v| (0.5..1.0).contains(&v)));
    }

    #[test]
    fn saxpy_matches_host() {
        let n = 64;
        let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let y: Vec<f32> = (0..n).map(|i| 100.0 - i as f32).collect();
        let mut bufs = vec![x.clone(), y.clone()];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp
            .launch(&saxpy(3.0), n as u32, &mut bufs)
            .expect("runs");
        for i in 0..n {
            assert_eq!(bufs[1][i], 3.0f32.mul_add(x[i], y[i]));
        }
    }

    #[test]
    fn rsqrt_norm_matches_host() {
        let mut bufs = vec![vec![3.0f32, 1.0], vec![4.0f32, 1.0], vec![0.0f32; 2]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&rsqrt_norm(), 2, &mut bufs).expect("runs");
        assert!((bufs[2][0] - 0.2).abs() < 1e-6);
        assert!((bufs[2][1] - 1.0 / 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn dot_partial_sums_strips() {
        let n = 8;
        let chunk = 4;
        // Buffers sized n + chunk so strided loads stay in bounds.
        let x: Vec<f32> = (0..n + chunk).map(|i| i as f32).collect();
        let y = vec![2.0f32; n + chunk];
        let mut bufs = vec![x, y, vec![0.0f32; n]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp
            .launch(&dot_partial(chunk), n as u32, &mut bufs)
            .expect("runs");
        for (i, &got) in bufs[2].iter().enumerate().take(n) {
            let expect: f32 = (i..i + chunk).map(|j| j as f32 * 2.0).sum();
            assert_eq!(got, expect, "thread {i}");
        }
    }

    #[test]
    fn stock_kernels_are_hygienic_and_thread_independent() {
        // Rule A007 (register hygiene) and the racecheck verdict, kept
        // clean at the source: no stock kernel reads an unwritten
        // register, leaves a dead store, or carries a cross-tid
        // dependence — so none needs an allow marker and the parallel
        // launch path applies to all of them.
        use crate::deps::{racecheck, Verdict};
        for prog in [
            saxpy(2.0),
            rsqrt_norm(),
            dot_partial(4),
            distance(),
            two_sum(),
            two_prod(),
            dot_compensated(4),
            jacobi_sweep(),
            heat_stencil(),
        ] {
            let report = racecheck(&prog);
            assert_eq!(
                report.verdict,
                Verdict::ThreadIndependent,
                "{} must stay embarrassingly parallel",
                prog.name()
            );
            assert!(
                report.uninit_reads.is_empty(),
                "{} reads an unwritten register",
                prog.name()
            );
            assert!(
                report.dead_stores.is_empty(),
                "{} leaves a dead store",
                prog.name()
            );
            assert!(report.oob.is_empty(), "{} is statically OOB", prog.name());
            assert!(
                prog.allows().is_empty(),
                "{} should not need suppressions",
                prog.name()
            );
        }
    }

    #[test]
    fn two_sum_recovers_the_exact_rounding_residual() {
        // Knuth's invariant under precise f32: s + e == a + b *exactly*,
        // so the compensated sum fl(s + e) rounds back to s, and e
        // matches the host TwoSum residual bit for bit.
        let a = [0.1f32, 1.0e-8, 3.25, 0.7];
        let b = [0.2f32, 1.0, -3.0, 0.55];
        let n = a.len();
        let mut bufs = vec![a.to_vec(), b.to_vec(), vec![0.0f32; n], vec![0.0f32; n]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp
            .launch(&two_sum(), n as u32, &mut bufs)
            .expect("runs");
        for i in 0..n {
            let s = a[i] + b[i];
            let bb = s - a[i];
            let e = (a[i] - (s - bb)) + (b[i] - bb);
            assert_eq!(bufs[2][i], s, "raw sum {i}");
            assert_eq!(bufs[3][i], s + e, "compensated sum {i}");
            assert_eq!(s + e, s, "|e| ≤ ulp(s)/2 rounds away");
        }
    }

    #[test]
    fn two_prod_residual_is_zero_for_decomposed_fma() {
        // The simulator's ffma is mul-then-add through the same units,
        // so fma(a, b, −(a⊗b)) reproduces the same product in both
        // stages and cancels bit-exactly — even under the imprecise
        // multiplier, as long as the *adder* stays precise (an imprecise
        // adder truncates the final p ⊕ (−p) instead of zeroing it).
        use ihw_core::config::MulUnit;
        for cfg in [
            IhwConfig::precise(),
            IhwConfig::precise().with_mul(MulUnit::Imprecise),
        ] {
            let a = [0.6f32, 0.9, 0.51];
            let b = [0.7f32, 0.52, 0.99];
            let n = a.len();
            let mut bufs = vec![a.to_vec(), b.to_vec(), vec![0.0f32; n], vec![0.0f32; n]];
            let mut interp = WarpInterpreter::new(cfg);
            interp
                .launch(&two_prod(), n as u32, &mut bufs)
                .expect("runs");
            for (i, r) in bufs[3].iter().enumerate() {
                assert_eq!(*r, 0.0, "residual {i}");
            }
        }
    }

    #[test]
    fn dot_compensated_matches_host_kahan() {
        let n = 8;
        let chunk = 4;
        let x: Vec<f32> = (0..n + chunk).map(|i| 0.5 + (i as f32) * 0.031).collect();
        let y: Vec<f32> = (0..n + chunk).map(|i| 1.0 - (i as f32) * 0.017).collect();
        let mut bufs = vec![x.clone(), y.clone(), vec![0.0f32; n]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp
            .launch(&dot_compensated(chunk), n as u32, &mut bufs)
            .expect("runs");
        for (i, got) in bufs[2].iter().enumerate() {
            let (mut sum, mut c) = (0.0f32, 0.0f32);
            for j in i..i + chunk {
                let yk = x[j] * y[j] - c;
                let t = sum + yk;
                c = (t - sum) - yk;
                sum = t;
            }
            assert_eq!(*got, sum, "thread {i}");
        }
    }

    #[test]
    fn jacobi_sweep_matches_host_recurrence() {
        let n = 6; // threads = interior points
        let x: Vec<f32> = (0..n + 2).map(|i| 0.5 + 0.05 * i as f32).collect();
        let b: Vec<f32> = (0..n + 2).map(|i| 0.6 + 0.02 * i as f32).collect();
        let mut bufs = vec![x.clone(), b.clone(), vec![0.0f32; n + 2]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp
            .launch(&jacobi_sweep(), n as u32, &mut bufs)
            .expect("runs");
        for i in 1..=n {
            let expect = (x[i - 1] + x[i + 1] + b[i]) * (1.0f32 / 3.0);
            assert_eq!(bufs[2][i], expect, "interior {i}");
        }
        assert_eq!(bufs[2][0], 0.0, "halo untouched");
        assert_eq!(bufs[2][n + 1], 0.0, "halo untouched");
        let fb = jacobi_sweep().feedback().expect("iterative kernel");
        assert_eq!((fb.from, fb.to), (2, 0));
    }

    #[test]
    fn heat_stencil_matches_host_stencil() {
        let n = 6;
        let u: Vec<f32> = (0..n + 2).map(|i| 1.0 - 0.04 * i as f32).collect();
        let q: Vec<f32> = (0..n + 2).map(|i| 0.55 + 0.03 * i as f32).collect();
        let mut bufs = vec![u.clone(), q.clone(), vec![0.0f32; n + 2]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp
            .launch(&heat_stencil(), n as u32, &mut bufs)
            .expect("runs");
        for i in 1..=n {
            let expect = (u[i - 1] + u[i + 1]) * 0.2 + u[i] * 0.5 + q[i] * 0.1;
            assert_eq!(bufs[2][i], expect, "interior {i}");
        }
        let fb = heat_stencil().feedback().expect("iterative kernel");
        assert_eq!((fb.from, fb.to), (2, 0));
    }

    #[test]
    fn distance_under_imprecise_sqrt() {
        let mut bufs = vec![vec![3.0f32], vec![4.0f32], vec![0.0f32]];
        let mut interp = WarpInterpreter::new(IhwConfig::all_imprecise());
        interp.launch(&distance(), 1, &mut bufs).expect("runs");
        let d = bufs[2][0] as f64;
        // 3-4-5 triangle through imprecise mul/sqrt: within the compounded
        // unit bounds.
        assert!((d - 5.0).abs() / 5.0 < 0.35, "distance {d}");
        assert!(d > 2.0, "not degenerate");
    }
}
