//! 482.sphinx3 substitute — isolated-word voice recognition (Table 7).
//!
//! SPEC's 482.sphinx3 decodes raw audio with the Sphinx-3 recognizer; the
//! paper evaluates 5 AN4 utterances totalling 25 words and reports the
//! number of words correctly recognized per multiplier configuration.
//!
//! This substitute keeps the same computational core and quality metric:
//! a vocabulary of cepstral-feature word templates is matched against
//! time-warped noisy test utterances by dynamic time warping, with the
//! frame-distance computation (the double precision multiply/accumulate
//! kernel that dominates sphinx3's Gaussian scoring) routed through the
//! counted dispatcher. The vocabulary contains acoustically similar word
//! pairs, so small distance distortions from imprecise multiplication
//! flip close decisions — the same failure mode as the real recognizer.

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Feature dimensionality (cepstral coefficients per frame).
pub const FEATURE_DIM: usize = 12;

/// Sphinx workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SphinxParams {
    /// Vocabulary size = number of test words (paper: 25).
    pub words: usize,
    /// Template length in frames.
    pub frames: usize,
    /// Additive feature-noise amplitude, per mille.
    pub noise_milli: u32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for SphinxParams {
    /// Test-scale instance (10 words); the repro harness uses 25.
    fn default() -> Self {
        SphinxParams {
            words: 10,
            frames: 16,
            noise_milli: 2,
            seed: 0x5f1bc,
        }
    }
}

impl SphinxParams {
    /// The paper's 25-word AN4 subset analogue.
    pub fn paper() -> Self {
        SphinxParams {
            words: 25,
            frames: 20,
            noise_milli: 2,
            seed: 0x5f1bc,
        }
    }
}

/// A word template / utterance: `frames × FEATURE_DIM` features.
pub type Features = Vec<[f64; FEATURE_DIM]>;

/// Recognition result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SphinxOutput {
    /// Predicted word index per test utterance.
    pub predictions: Vec<usize>,
    /// Number of correctly recognized words.
    pub correct: usize,
}

/// Generates the vocabulary. Words come in acoustically similar pairs:
/// each even/odd pair shares a base trajectory with a small perturbation,
/// mimicking confusable words (e.g. "four"/"forty").
pub fn synth_vocabulary(params: &SphinxParams) -> Vec<Features> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut vocab = Vec::with_capacity(params.words);
    let mut base: Features = Vec::new();
    for w in 0..params.words {
        if w % 2 == 0 {
            // Fresh base word: smooth random trajectory through anchors.
            base = smooth_trajectory(&mut rng, params.frames);
            vocab.push(base.clone());
        } else {
            // Confusable sibling: the base plus a smooth "formant shift"
            // — a sinusoidal profile over time on a few feature
            // dimensions, with per-pair amplitude spreading the decision
            // margins from barely-separable to comfortable. Being smooth,
            // the difference survives the test utterances' time warping
            // undiluted, so the margin is controlled by `amp` alone.
            let mut sib = base.clone();
            let amp = 0.008 + 0.024 * (w % 5) as f64 / 4.0;
            let dirs: [f64; 4] =
                std::array::from_fn(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 });
            let len = sib.len();
            for (f, frame) in sib.iter_mut().enumerate() {
                let profile = (std::f64::consts::PI * (f as f64 + 0.5) / len as f64).sin();
                for (d, &dir) in dirs.iter().enumerate() {
                    frame[d] += amp * dir * profile;
                }
            }
            vocab.push(sib);
        }
    }
    vocab
}

/// Smooth random trajectory: linear interpolation between random anchors.
fn smooth_trajectory(rng: &mut StdRng, frames: usize) -> Features {
    let anchors = 4;
    let pts: Vec<[f64; FEATURE_DIM]> = (0..anchors)
        .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..1.0)))
        .collect();
    (0..frames)
        .map(|f| {
            let pos = f as f64 / (frames - 1).max(1) as f64 * (anchors - 1) as f64;
            let i = (pos.floor() as usize).min(anchors - 2);
            let t = pos - i as f64;
            std::array::from_fn(|d| pts[i][d] * (1.0 - t) + pts[i + 1][d] * t)
        })
        .collect()
}

/// Produces the test utterances: each vocabulary word time-warped and
/// noise-corrupted (the analogue of the an391–an395 recordings).
pub fn synth_utterances(params: &SphinxParams, vocab: &[Features]) -> Vec<Features> {
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xdead_beef);
    let noise = params.noise_milli as f64 / 1000.0;
    vocab
        .iter()
        .map(|tpl| {
            let out_len = (tpl.len() as f64 * rng.gen_range(1.0..1.0001))
                .round()
                .max(4.0) as usize;
            (0..out_len)
                .map(|f| {
                    // Sinusoidal time warp.
                    let u = f as f64 / (out_len - 1).max(1) as f64;
                    let warped = (u + 0.002 * (2.0 * u * std::f64::consts::PI).sin())
                        .clamp(0.0, 1.0)
                        * (tpl.len() - 1) as f64;
                    let i = (warped.floor() as usize).min(tpl.len() - 2);
                    let t = warped - i as f64;
                    std::array::from_fn(|d| {
                        tpl[i][d] * (1.0 - t) + tpl[i + 1][d] * t + rng.gen_range(-noise..noise)
                    })
                })
                .collect()
        })
        .collect()
}

/// Squared Euclidean frame distance through the counted dispatcher — the
/// hot double precision multiply/accumulate loop: the differences in
/// lanes, then their squares folded in dimension order.
fn frame_dist(ctx: &mut FpCtx, a: &[f64; FEATURE_DIM], b: &[f64; FEATURE_DIM]) -> f64 {
    let mut diff = [0.0f64; FEATURE_DIM];
    ctx.sub64_lanes(a, b, &mut diff);
    ctx.fma64_fold(&diff, &diff, 0.0)
}

/// DTW alignment cost between an utterance and a template, normalized by
/// path length.
pub fn dtw_distance(ctx: &mut FpCtx, utt: &Features, tpl: &Features) -> f64 {
    let (n, m) = (utt.len(), tpl.len());
    assert!(n > 0 && m > 0, "empty feature sequences");
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut cur = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        cur[0] = f64::INFINITY;
        for j in 1..=m {
            ctx.int_op(4);
            ctx.mem_op(2);
            let d = frame_dist(ctx, &utt[i - 1], &tpl[j - 1]);
            let best = prev[j].min(cur[j - 1]).min(prev[j - 1]);
            cur[j] = ctx.add64(d, best);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m] / (n + m) as f64
}

/// Gaussian variance of the acoustic model (`2σ²`).
const TWO_SIGMA_SQ: f64 = 0.02;

/// Acoustic likelihood score of an utterance against a word template:
/// Viterbi-style — a monotonic DTW alignment is found first, then the
/// Gaussian frame likelihoods `exp(−d/2σ²)` are multiplied along the
/// alignment path, mirroring sphinx3's GMM senone scoring inside the
/// Viterbi search. The likelihood product runs on the (im)precise double
/// precision multiplier, which is what makes the benchmark sensitive to
/// multiplier accuracy: relative errors compound multiplicatively across
/// frames instead of averaging out.
pub fn acoustic_score(ctx: &mut FpCtx, utt: &Features, tpl: &Features) -> f64 {
    let (n, m) = (utt.len(), tpl.len());
    assert!(n > 0 && m > 0, "empty feature sequences");
    // Frame distances and the DP cost matrix.
    let mut dmat = vec![0.0f64; n * m];
    let mut cost = vec![f64::INFINITY; n * m];
    for i in 0..n {
        for j in 0..m {
            ctx.int_op(4);
            ctx.mem_op(2);
            let d = frame_dist(ctx, &utt[i], &tpl[j]);
            dmat[i * m + j] = d;
            let best = if i == 0 && j == 0 {
                0.0
            } else {
                let up = if i > 0 {
                    cost[(i - 1) * m + j]
                } else {
                    f64::INFINITY
                };
                let left = if j > 0 {
                    cost[i * m + j - 1]
                } else {
                    f64::INFINITY
                };
                let diag = if i > 0 && j > 0 {
                    cost[(i - 1) * m + j - 1]
                } else {
                    f64::INFINITY
                };
                up.min(left).min(diag)
            };
            cost[i * m + j] = ctx.add64(d, best);
        }
    }
    // Backtrack the alignment path and multiply the likelihoods along it
    // (host-side exponential: a table lookup in the real decoder).
    let mut score = 1.0f64;
    let (mut i, mut j) = (n - 1, m - 1);
    loop {
        let lik = (-dmat[i * m + j] / TWO_SIGMA_SQ).exp();
        score = ctx.mul64(score, lik);
        if i == 0 && j == 0 {
            break;
        }
        let up = if i > 0 {
            cost[(i - 1) * m + j]
        } else {
            f64::INFINITY
        };
        let left = if j > 0 {
            cost[i * m + j - 1]
        } else {
            f64::INFINITY
        };
        let diag = if i > 0 && j > 0 {
            cost[(i - 1) * m + j - 1]
        } else {
            f64::INFINITY
        };
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    score
}

/// Runs the recognizer: every utterance against every template.
pub fn run(
    params: &SphinxParams,
    vocab: &[Features],
    utterances: &[Features],
    ctx: &mut FpCtx,
) -> SphinxOutput {
    assert_eq!(vocab.len(), params.words, "vocabulary size mismatch");
    let mut predictions = Vec::with_capacity(utterances.len());
    for utt in utterances {
        let mut best = (f64::NEG_INFINITY, 0usize);
        for (w, tpl) in vocab.iter().enumerate() {
            let s = acoustic_score(ctx, utt, tpl);
            if s > best.0 {
                best = (s, w);
            }
        }
        predictions.push(best.1);
    }
    let correct = predictions
        .iter()
        .enumerate()
        .filter(|&(i, &p)| p == i)
        .count();
    SphinxOutput {
        predictions,
        correct,
    }
}

/// Convenience: synthesizes everything, runs, returns output + context.
pub fn run_with_config(params: &SphinxParams, cfg: IhwConfig) -> (SphinxOutput, FpCtx) {
    let vocab = synth_vocabulary(params);
    let utts = synth_utterances(params, &vocab);
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &vocab, &utts, &mut ctx);
    (out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
    use ihw_core::config::{FpOp, MulUnit};
    use ihw_core::truncated::TruncatedMul;

    #[test]
    fn precise_recognizes_everything() {
        let (out, _) = run_with_config(&SphinxParams::default(), IhwConfig::precise());
        assert_eq!(
            out.correct,
            SphinxParams::default().words,
            "{:?}",
            out.predictions
        );
    }

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&SphinxParams::default(), IhwConfig::precise());
        let (b, _) = run_with_config(&SphinxParams::default(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn full_path_stays_accurate_under_heavy_truncation() {
        // Table 7: fp_tr44–48 miss at most one word.
        let params = SphinxParams::default();
        let cfg =
            IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Full, 44)));
        let (out, _) = run_with_config(&params, cfg);
        assert!(
            out.correct + 2 >= params.words,
            "full path tr44: {}/{}",
            out.correct,
            params.words
        );
    }

    #[test]
    fn log_path_worse_than_full_path() {
        // Table 7: the log path "does not perform very well in this
        // application compared to the other two".
        let params = SphinxParams::default();
        let full =
            IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Full, 44)));
        let log = IhwConfig::precise().with_mul(MulUnit::AcMul(AcMulConfig::new(MulPath::Log, 44)));
        let (f_out, _) = run_with_config(&params, full);
        let (l_out, _) = run_with_config(&params, log);
        assert!(
            l_out.correct <= f_out.correct,
            "log {} vs full {}",
            l_out.correct,
            f_out.correct
        );
    }

    #[test]
    fn moderate_bit_truncation_accurate() {
        // Table 7: bt_44–48 recognize 24–25 of 25.
        let params = SphinxParams::default();
        let cfg = IhwConfig::precise().with_mul(MulUnit::Truncated(TruncatedMul::new(44)));
        let (out, _) = run_with_config(&params, cfg);
        assert!(
            out.correct + 1 >= params.words,
            "bt_44: {}/{}",
            out.correct,
            params.words
        );
    }

    #[test]
    fn vocabulary_pairs_are_confusable_but_separable() {
        let params = SphinxParams::default();
        let vocab = synth_vocabulary(&params);
        let mut ctx = FpCtx::new(IhwConfig::precise());
        // Sibling distance much smaller than unrelated distance.
        let d_sib = dtw_distance(&mut ctx, &vocab[0], &vocab[1]);
        let d_other = dtw_distance(&mut ctx, &vocab[0], &vocab[2]);
        assert!(d_sib < d_other, "sibling {d_sib} vs unrelated {d_other}");
        assert!(d_sib > 0.0);
    }

    #[test]
    fn mix_is_fma_dominated() {
        let (_, ctx) = run_with_config(&SphinxParams::default(), IhwConfig::precise());
        let c = ctx.counts();
        assert!(c.get(FpOp::Fma) as f64 / c.total() as f64 > 0.4);
    }

    #[test]
    #[should_panic(expected = "vocabulary size mismatch")]
    fn validates_vocab() {
        let params = SphinxParams::default();
        let mut ctx = FpCtx::new(IhwConfig::precise());
        let _ = run(&params, &[], &[], &mut ctx);
    }
}
