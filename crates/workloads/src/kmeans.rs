//! KMeans clustering — a Rodinia data-mining benchmark, added to widen
//! the Figure 2 power-share study beyond the three §5.3.1 applications.
//!
//! Lloyd's algorithm: the GPU kernel assigns every point to its nearest
//! centroid (squared-distance multiply/accumulate chains — the FPU-heavy
//! part), then centroids are recomputed from the assignment (sums plus
//! one division per coordinate, exercising the SFU path). Quality is
//! evaluated as the fraction of points assigned to the same cluster as
//! the precise run, plus the centroid mean squared error.

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Feature dimensionality.
pub const DIMS: usize = 4;

/// KMeans workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmeansParams {
    /// Number of points.
    pub points: usize,
    /// Number of clusters.
    pub clusters: usize,
    /// Lloyd iterations.
    pub iterations: usize,
    /// Data generator seed.
    pub seed: u64,
}

impl Default for KmeansParams {
    fn default() -> Self {
        KmeansParams {
            points: 512,
            clusters: 5,
            iterations: 8,
            seed: 0x6b6d,
        }
    }
}

impl KmeansParams {
    /// Repro-scale instance.
    pub fn paper() -> Self {
        KmeansParams {
            points: 4096,
            clusters: 8,
            iterations: 12,
            ..Default::default()
        }
    }
}

/// Clustering result.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansOutput {
    /// Cluster index per point.
    pub assignments: Vec<usize>,
    /// Final centroids, `clusters × DIMS` row-major.
    pub centroids: Vec<f64>,
}

impl KmeansOutput {
    /// Fraction of points assigned to the same cluster as a reference run.
    ///
    /// # Panics
    ///
    /// Panics if the assignments differ in length.
    pub fn agreement_with(&self, reference: &KmeansOutput) -> f64 {
        assert_eq!(self.assignments.len(), reference.assignments.len());
        let same = self
            .assignments
            .iter()
            .zip(&reference.assignments)
            .filter(|(a, b)| a == b)
            .count();
        same as f64 / self.assignments.len() as f64
    }
}

/// Synthesizes `clusters` well-separated blobs of points.
pub fn synth_points(params: &KmeansParams) -> Vec<[f32; DIMS]> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let centers: Vec<[f32; DIMS]> = (0..params.clusters)
        .map(|_| std::array::from_fn(|_| rng.gen_range(-8.0f32..8.0)))
        .collect();
    (0..params.points)
        .map(|i| {
            let c = centers[i % params.clusters];
            std::array::from_fn(|d| c[d] + rng.gen_range(-1.2f32..1.2))
        })
        .collect()
}

/// Runs Lloyd's algorithm under the arithmetic configuration carried by
/// `ctx`.
pub fn run(params: &KmeansParams, points: &[[f32; DIMS]], ctx: &mut FpCtx) -> KmeansOutput {
    let k = params.clusters;
    // Initial centroids: the first k points (deterministic, standard).
    let mut centroids: Vec<[f32; DIMS]> = points.iter().take(k).copied().collect();
    let mut assignments = vec![0usize; points.len()];

    for _ in 0..params.iterations {
        // Assignment kernel: one thread per point.
        for (pi, p) in points.iter().enumerate() {
            ctx.int_op(4);
            ctx.mem_op(2);
            let mut best = (f32::INFINITY, 0usize);
            for (ci, c) in centroids.iter().enumerate() {
                ctx.int_op(1);
                let mut dist = 0.0f32;
                for d in 0..DIMS {
                    let diff = ctx.sub32(p[d], c[d]);
                    dist = ctx.fma32(diff, diff, dist);
                }
                if dist < best.0 {
                    best = (dist, ci);
                }
            }
            assignments[pi] = best.1;
        }
        // Update kernel: accumulate and divide.
        let mut sums = vec![[0.0f32; DIMS]; k];
        let mut counts = vec![0u32; k];
        for (pi, p) in points.iter().enumerate() {
            ctx.mem_op(1);
            let a = assignments[pi];
            counts[a] += 1;
            for d in 0..DIMS {
                sums[a][d] = ctx.add32(sums[a][d], p[d]);
            }
        }
        for (ci, c) in centroids.iter_mut().enumerate() {
            if counts[ci] == 0 {
                continue; // keep the empty cluster's centroid
            }
            for d in 0..DIMS {
                c[d] = ctx.div32(sums[ci][d], counts[ci] as f32);
            }
        }
    }

    KmeansOutput {
        assignments,
        centroids: centroids
            .iter()
            .flat_map(|c| c.iter().map(|&v| v as f64))
            .collect(),
    }
}

/// Convenience: synthesizes points, runs, returns output + context.
pub fn run_with_config(params: &KmeansParams, cfg: IhwConfig) -> (KmeansOutput, FpCtx) {
    let points = synth_points(params);
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &points, &mut ctx);
    (out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;
    use ihw_quality::metrics::mse;

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&KmeansParams::default(), IhwConfig::precise());
        let (b, _) = run_with_config(&KmeansParams::default(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn recovers_blob_structure() {
        // With well-separated blobs, each generated cluster must map to a
        // single recovered cluster for almost all points.
        let params = KmeansParams::default();
        let (out, _) = run_with_config(&params, IhwConfig::precise());
        let mut pure = 0usize;
        for blob in 0..params.clusters {
            // Points of blob `blob` are at indices ≡ blob (mod clusters).
            let mut votes = vec![0usize; params.clusters];
            let members = (0..params.points).filter(|i| i % params.clusters == blob);
            let mut total = 0;
            for i in members {
                votes[out.assignments[i]] += 1;
                total += 1;
            }
            pure += votes.iter().max().copied().unwrap_or(0);
            assert!(total > 0);
        }
        let purity = pure as f64 / params.points as f64;
        assert!(purity > 0.95, "cluster purity {purity}");
    }

    #[test]
    fn imprecise_assignments_mostly_agree() {
        let params = KmeansParams::default();
        let (precise, _) = run_with_config(&params, IhwConfig::precise());
        let (imprecise, _) = run_with_config(&params, IhwConfig::all_imprecise());
        let agreement = imprecise.agreement_with(&precise);
        assert!(agreement > 0.9, "agreement {agreement}");
        let e = mse(&precise.centroids, &imprecise.centroids);
        assert!(e < 1.0, "centroid MSE {e}");
    }

    #[test]
    fn mix_is_fma_heavy_with_divisions() {
        let (_, ctx) = run_with_config(&KmeansParams::default(), IhwConfig::precise());
        let c = ctx.counts();
        assert!(c.get(FpOp::Fma) > 0);
        assert!(c.get(FpOp::Div) > 0, "centroid updates divide");
        let fma_frac = c.get(FpOp::Fma) as f64 / c.total() as f64;
        assert!(fma_frac > 0.4, "distance kernels dominate: {fma_frac}");
    }

    #[test]
    fn agreement_metric() {
        let a = KmeansOutput {
            assignments: vec![0, 1, 2, 0],
            centroids: vec![],
        };
        let b = KmeansOutput {
            assignments: vec![0, 1, 1, 0],
            centroids: vec![],
        };
        assert!((b.agreement_with(&a) - 0.75).abs() < 1e-12);
    }
}
