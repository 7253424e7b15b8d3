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

use gpu_sim::dispatch::{FpCtx, LANE_BLOCK};
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

/// Stack lane buffers for one block of `j` partners of particle `i`,
/// made once per run (no allocation per force evaluation or block).
struct PairBlock {
    /// Particle `i`'s coordinate on one axis, broadcast.
    pi: [f64; LANE_BLOCK],
    /// The partners' coordinates on that axis.
    pj: [f64; LANE_BLOCK],
    /// Minimum-image displacement per axis, then `r²` and its partial
    /// sums, for every pair.
    d: [[f64; LANE_BLOCK]; 3],
    xx: [f64; LANE_BLOCK],
    xy: [f64; LANE_BLOCK],
    r2: [f64; LANE_BLOCK],
    /// The pairs inside the cutoff, compacted: partner index,
    /// displacement and `r²`.
    j: [usize; LANE_BLOCK],
    cd: [[f64; LANE_BLOCK]; 3],
    cr2: [f64; LANE_BLOCK],
    /// Force-kernel temporaries, named by the value they hold.
    inv_r2: [f64; LANE_BLOCK],
    inv_r4: [f64; LANE_BLOCK],
    inv_r6: [f64; LANE_BLOCK],
    inv_r12: [f64; LANE_BLOCK],
    lj_diff: [f64; LANE_BLOCK],
    u: [f64; LANE_BLOCK],
    two_r12: [f64; LANE_BLOCK],
    f_term: [f64; LANE_BLOCK],
    f24: [f64; LANE_BLOCK],
    fmag: [f64; LANE_BLOCK],
    /// Pair force per axis, and partner `j`'s force before and after.
    f: [[f64; LANE_BLOCK]; 3],
    fj: [f64; LANE_BLOCK],
    fj_new: [f64; LANE_BLOCK],
}

/// The broadcast constant operands of the force kernel.
const FOUR: [f64; LANE_BLOCK] = [4.0; LANE_BLOCK];
const TWO: [f64; LANE_BLOCK] = [2.0; LANE_BLOCK];
const TWENTY_FOUR: [f64; LANE_BLOCK] = [24.0; LANE_BLOCK];

impl PairBlock {
    fn new() -> Self {
        let z = [0.0; LANE_BLOCK];
        PairBlock {
            pi: z,
            pj: z,
            d: [z; 3],
            xx: z,
            xy: z,
            r2: z,
            j: [0; LANE_BLOCK],
            cd: [z; 3],
            cr2: z,
            inv_r2: z,
            inv_r4: z,
            inv_r6: z,
            inv_r12: z,
            lj_diff: z,
            u: z,
            two_r12: z,
            f_term: z,
            f24: z,
            fmag: z,
            f: [z; 3],
            fj: z,
            fj_new: z,
        }
    }
}

/// Lennard-Jones forces and potential through the counted dispatcher:
/// r⁻² via rcp, r⁻⁶/r⁻¹² via multiplies. Overwrites `forces` and
/// returns the total potential.
///
/// Each pair's arithmetic is that of the one-pair-at-a-time kernel,
/// run op-major over blocks of [`LANE_BLOCK`] partners `j` of each `i`
/// with the `FpCtx` slice ops. The order-dependent sums, `potential`
/// and `forces[i]`, stay sequential in `j` order, so every value is
/// bit-identical to the per-pair loop; `forces[j]` takes one op per
/// pair, each on a distinct `j`, so it runs in lanes.
fn compute_forces(
    pos: &[[f64; 3]],
    forces: &mut [[f64; 3]],
    box_len: f64,
    blk: &mut PairBlock,
    ctx: &mut FpCtx,
) -> f64 {
    let cutoff2 = 2.5f64 * 2.5;
    let n = pos.len();
    forces.fill([0.0; 3]);
    let mut potential = 0.0f64;
    for i in 0..n {
        for j0 in (i + 1..n).step_by(LANE_BLOCK) {
            let m = LANE_BLOCK.min(n - j0);
            ctx.int_op(4 * m as u64);
            ctx.mem_op(2 * m as u64);
            for k in 0..3 {
                blk.pi[..m].fill(pos[i][k]);
                for (p, q) in blk.pj[..m].iter_mut().zip(&pos[j0..j0 + m]) {
                    *p = q[k];
                }
                ctx.sub64_lanes(&blk.pi[..m], &blk.pj[..m], &mut blk.d[k][..m]);
                for d in &mut blk.d[k][..m] {
                    *d = min_image(*d, box_len);
                }
            }
            let [dx, dy, dz] = &blk.d;
            ctx.mul64_lanes(&dx[..m], &dx[..m], &mut blk.xx[..m]);
            ctx.fma64_lanes(&dy[..m], &dy[..m], &blk.xx[..m], &mut blk.xy[..m]);
            ctx.fma64_lanes(&dz[..m], &dz[..m], &blk.xy[..m], &mut blk.r2[..m]);

            // Compact the pairs inside the cutoff. The test is the
            // per-pair kernel's `continue` negated, so a NaN r² still
            // takes the force path.
            let mut c = 0;
            for l in 0..m {
                let r2 = blk.r2[l];
                if r2 >= cutoff2 || r2 <= 1e-12 {
                    continue;
                }
                blk.j[c] = j0 + l;
                for k in 0..3 {
                    blk.cd[k][c] = blk.d[k][l];
                }
                blk.cr2[c] = r2;
                c += 1;
            }

            ctx.rcp64_lanes(&blk.cr2[..c], &mut blk.inv_r2[..c]);
            let inv_r2 = &blk.inv_r2[..c];
            ctx.mul64_lanes(inv_r2, inv_r2, &mut blk.inv_r4[..c]);
            ctx.mul64_lanes(&blk.inv_r4[..c], inv_r2, &mut blk.inv_r6[..c]);
            let inv_r6 = &blk.inv_r6[..c];
            ctx.mul64_lanes(inv_r6, inv_r6, &mut blk.inv_r12[..c]);
            let inv_r12 = &blk.inv_r12[..c];
            // U = 4(r⁻¹² − r⁻⁶); F·r = 24(2r⁻¹² − r⁻⁶)
            ctx.sub64_lanes(inv_r12, inv_r6, &mut blk.lj_diff[..c]);
            ctx.mul64_lanes(&FOUR[..c], &blk.lj_diff[..c], &mut blk.u[..c]);
            for &u in &blk.u[..c] {
                potential = ctx.add64(potential, u);
            }
            ctx.mul64_lanes(&TWO[..c], inv_r12, &mut blk.two_r12[..c]);
            ctx.sub64_lanes(&blk.two_r12[..c], inv_r6, &mut blk.f_term[..c]);
            ctx.mul64_lanes(&TWENTY_FOUR[..c], &blk.f_term[..c], &mut blk.f24[..c]);
            ctx.mul64_lanes(&blk.f24[..c], inv_r2, &mut blk.fmag[..c]);
            let mut fi = forces[i];
            for (k, fi_k) in fi.iter_mut().enumerate() {
                ctx.mul64_lanes(&blk.fmag[..c], &blk.cd[k][..c], &mut blk.f[k][..c]);
                for &f in &blk.f[k][..c] {
                    *fi_k = ctx.add64(*fi_k, f);
                }
                for (fj, &j) in blk.fj[..c].iter_mut().zip(&blk.j[..c]) {
                    *fj = forces[j][k];
                }
                ctx.sub64_lanes(&blk.fj[..c], &blk.f[k][..c], &mut blk.fj_new[..c]);
                for (&f, &j) in blk.fj_new[..c].iter().zip(&blk.j[..c]) {
                    forces[j][k] = f;
                }
            }
            forces[i] = fi;
        }
    }
    potential
}

/// Runs the MD simulation under the arithmetic configuration carried by
/// `ctx`.
pub fn run(params: &MdParams, ctx: &mut FpCtx) -> MdOutput {
    let n = params.particles;
    let (mut pos, mut vel) = init_state(params);
    let mut forces = vec![[0.0f64; 3]; n];
    let mut blk = PairBlock::new();
    let dt = params.dt;
    let half_dt = 0.5 * dt;

    let mut pot_acc = 0.0f64;
    let mut temp_acc = 0.0f64;

    // Initial force evaluation seeds the first half-kick.
    compute_forces(&pos, &mut forces, params.box_len, &mut blk, ctx);
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
        let potential = compute_forces(&pos, &mut forces, params.box_len, &mut blk, ctx);
        // Second half-kick + kinetic energy.
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] = ctx.fma64(half_dt, forces[i][k], vel[i][k]);
            }
        }
        let v = vel.as_flattened();
        let kinetic = ctx.fma64_fold(v, v, 0.0);
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

    /// The one-pair-at-a-time force kernel `compute_forces` replaced,
    /// kept as its oracle.
    fn per_pair_forces(
        pos: &[[f64; 3]],
        forces: &mut [[f64; 3]],
        box_len: f64,
        ctx: &mut FpCtx,
    ) -> f64 {
        let n = pos.len();
        let cutoff2 = 2.5f64 * 2.5;
        forces.fill([0.0; 3]);
        let mut potential = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                ctx.int_op(4);
                ctx.mem_op(2);
                let dx = min_image(ctx.sub64(pos[i][0], pos[j][0]), box_len);
                let dy = min_image(ctx.sub64(pos[i][1], pos[j][1]), box_len);
                let dz = min_image(ctx.sub64(pos[i][2], pos[j][2]), box_len);
                let xx = ctx.mul64(dx, dx);
                let yy = ctx.fma64(dy, dy, xx);
                let r2 = ctx.fma64(dz, dz, yy);
                if r2 >= cutoff2 || r2 <= 1e-12 {
                    continue;
                }
                let inv_r2 = ctx.rcp64(r2);
                let a = ctx.mul64(inv_r2, inv_r2);
                let inv_r6 = ctx.mul64(a, inv_r2);
                let inv_r12 = ctx.mul64(inv_r6, inv_r6);
                let lj_diff = ctx.sub64(inv_r12, inv_r6);
                let u = ctx.mul64(4.0, lj_diff);
                potential = ctx.add64(potential, u);
                let two_r12 = ctx.mul64(2.0, inv_r12);
                let f_term = ctx.sub64(two_r12, inv_r6);
                let f24 = ctx.mul64(24.0, f_term);
                let fmag = ctx.mul64(f24, inv_r2);
                let f = [
                    ctx.mul64(fmag, dx),
                    ctx.mul64(fmag, dy),
                    ctx.mul64(fmag, dz),
                ];
                for k in 0..3 {
                    forces[i][k] = ctx.add64(forces[i][k], f[k]);
                }
                for k in 0..3 {
                    forces[j][k] = ctx.sub64(forces[j][k], f[k]);
                }
            }
        }
        potential
    }

    #[test]
    fn blocked_forces_match_the_per_pair_kernel() {
        // More particles than one lane block, packed so that many pairs
        // pass the cutoff, plus the pairs the cutoff test must sort
        // right: two coincident particles (r² = 0, skipped) and a NaN
        // and an infinite coordinate (NaN r², which takes the force
        // path and poisons its partners' forces).
        let box_len = 6.0;
        let mut pos: Vec<[f64; 3]> = (0..LANE_BLOCK + 9)
            .map(|p| {
                let t = p as f64;
                [(t * 0.37) % box_len, (t * 0.61) % 2.0, (t * 0.23) % 1.5]
            })
            .collect();
        pos[5] = pos[4];
        pos[20][1] = f64::NAN;
        pos[LANE_BLOCK + 3][2] = f64::INFINITY;
        let canon = |x: f64| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        };
        let cfgs = [
            IhwConfig::precise(),
            IhwConfig::all_imprecise(),
            IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 44))),
        ];
        for cfg in cfgs {
            let mut blk = PairBlock::new();
            let (mut got_ctx, mut want_ctx) = (FpCtx::new(cfg), FpCtx::new(cfg));
            let mut got = vec![[0.0; 3]; pos.len()];
            let mut want = got.clone();
            let u = compute_forces(&pos, &mut got, box_len, &mut blk, &mut got_ctx);
            let w = per_pair_forces(&pos, &mut want, box_len, &mut want_ctx);
            assert_eq!(canon(u), canon(w), "potential under {cfg:?}");
            let flat = |f: &[[f64; 3]]| {
                f.as_flattened()
                    .iter()
                    .map(|&x| canon(x))
                    .collect::<Vec<_>>()
            };
            assert_eq!(flat(&got), flat(&want), "forces under {cfg:?}");
            assert!(
                want.iter().any(|f| f[0].is_nan()),
                "a NaN r² took the force path"
            );
            assert_eq!(
                got_ctx.counts(),
                want_ctx.counts(),
                "OpCounts under {cfg:?}"
            );
            assert_eq!(got_ctx.int_ops(), want_ctx.int_ops());
            assert_eq!(got_ctx.mem_ops(), want_ctx.mem_ops());
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
