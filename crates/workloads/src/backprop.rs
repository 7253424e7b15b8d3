//! Backprop — the Rodinia neural-network training benchmark (one of the
//! compute-intensive applications behind the Figure 2 power-share
//! average).
//!
//! A two-layer perceptron trained by stochastic gradient descent on a
//! synthetic binary classification task. The forward pass is dense
//! multiply/accumulate plus a sigmoid per unit — the sigmoid runs on the
//! SFU as `1/(1 + 2^(−x·log₂e))`, exercising both the `iexp2` extension
//! unit and the imprecise reciprocal; the backward pass is more
//! multiply/accumulate. Quality metric: classification accuracy on a
//! held-out set.

use gpu_sim::dispatch::FpCtx;
use ihw_core::config::IhwConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input dimensionality.
pub const INPUTS: usize = 8;
/// Hidden layer width.
pub const HIDDEN: usize = 12;

/// Backprop workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackpropParams {
    /// Training examples.
    pub train: usize,
    /// Held-out test examples.
    pub test: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Data/weights seed.
    pub seed: u64,
}

impl Default for BackpropParams {
    fn default() -> Self {
        BackpropParams {
            train: 240,
            test: 64,
            epochs: 80,
            learning_rate: 0.8,
            seed: 0xbac,
        }
    }
}

/// Training outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackpropOutput {
    /// Classification accuracy on the held-out set, in `[0, 1]`.
    pub accuracy: f64,
    /// Final training loss (mean squared error).
    pub train_loss: f64,
}

/// A labelled example.
type Example = ([f32; INPUTS], f32);

/// Synthesizes a nonlinearly separable task: label = 1 if the point lies
/// inside a hypersphere-ish region defined by two anchor directions.
fn synth_data(params: &BackpropParams) -> (Vec<Example>, Vec<Example>) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let w1: [f32; INPUTS] = std::array::from_fn(|_| rng.gen_range(-1.0f32..1.0));
    let w2: [f32; INPUTS] = std::array::from_fn(|_| rng.gen_range(-1.0f32..1.0));
    let mut make = |n: usize| -> Vec<Example> {
        (0..n)
            .map(|_| {
                let x: [f32; INPUTS] = std::array::from_fn(|_| rng.gen_range(-1.0f32..1.0));
                let a: f32 = x.iter().zip(&w1).map(|(v, w)| v * w).sum();
                let b: f32 = x.iter().zip(&w2).map(|(v, w)| v * w).sum();
                let label = if a * a + b * b > 0.55 { 1.0 } else { 0.0 };
                (x, label)
            })
            .collect()
    };
    (make(params.train), make(params.test))
}

/// Sigmoid through the counted SFU path: `1/(1 + 2^(−x·log₂e))`.
fn sigmoid(ctx: &mut FpCtx, x: f32) -> f32 {
    let scaled = ctx.mul32(x, std::f32::consts::LOG2_E);
    let e = ctx.exp2_32(-scaled); // sign flip is free in hardware
    let denom = ctx.add32(1.0, e);
    ctx.rcp32(denom)
}

struct Net {
    w1: Vec<f32>, // HIDDEN × INPUTS
    b1: Vec<f32>,
    w2: Vec<f32>, // HIDDEN
    b2: f32,
}

impl Net {
    fn init(rng: &mut StdRng) -> Net {
        Net {
            w1: (0..HIDDEN * INPUTS)
                .map(|_| rng.gen_range(-0.5f32..0.5))
                .collect(),
            b1: vec![0.0; HIDDEN],
            w2: (0..HIDDEN).map(|_| rng.gen_range(-0.5f32..0.5)).collect(),
            b2: 0.0,
        }
    }

    /// Forward pass: returns (hidden activations, output).
    fn forward(&self, ctx: &mut FpCtx, x: &[f32; INPUTS]) -> (Vec<f32>, f32) {
        let mut h = vec![0.0f32; HIDDEN];
        for (j, hj) in h.iter_mut().enumerate() {
            ctx.mem_op(1);
            let mut acc = self.b1[j];
            for (i, &xi) in x.iter().enumerate() {
                acc = ctx.fma32(self.w1[j * INPUTS + i], xi, acc);
            }
            *hj = sigmoid(ctx, acc);
        }
        let mut out = self.b2;
        for (j, &hj) in h.iter().enumerate() {
            out = ctx.fma32(self.w2[j], hj, out);
        }
        (h, sigmoid(ctx, out))
    }
}

/// Trains the network and evaluates held-out accuracy under the
/// arithmetic configuration carried by `ctx`.
pub fn run(params: &BackpropParams, ctx: &mut FpCtx) -> BackpropOutput {
    let (train, test) = synth_data(params);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x77);
    let mut net = Net::init(&mut rng);
    let lr = params.learning_rate;

    let mut loss = 0.0f64;
    for _ in 0..params.epochs {
        loss = 0.0;
        for (x, target) in &train {
            ctx.int_op(8);
            ctx.mem_op(4);
            let (h, y) = net.forward(ctx, x);
            let err = ctx.sub32(y, *target);
            loss += (err * err) as f64;
            // Output-layer gradient: δ = err · y · (1 − y).
            let one_minus_y = ctx.sub32(1.0, y);
            let err_y = ctx.mul32(err, y);
            let dy = ctx.mul32(err_y, one_minus_y);
            // Hidden-layer gradients and updates.
            for (j, &hj) in h.iter().enumerate() {
                let one_minus_h = ctx.sub32(1.0, hj);
                let hh = ctx.mul32(hj, one_minus_h);
                let dy_w2 = ctx.mul32(dy, net.w2[j]);
                let dj = ctx.mul32(dy_w2, hh);
                // w2 update uses the pre-update hidden activation.
                let lr_dy = ctx.mul32(lr, dy);
                let dw2 = ctx.mul32(lr_dy, hj);
                net.w2[j] = ctx.sub32(net.w2[j], dw2);
                let lr_dj = ctx.mul32(lr, dj);
                for (i, &xi) in x.iter().enumerate() {
                    let dw = ctx.mul32(lr_dj, xi);
                    let w = &mut net.w1[j * INPUTS + i];
                    *w = ctx.sub32(*w, dw);
                }
                net.b1[j] = ctx.sub32(net.b1[j], lr_dj);
            }
            let lr_dy = ctx.mul32(lr, dy);
            net.b2 = ctx.sub32(net.b2, lr_dy);
        }
        loss /= train.len() as f64;
    }

    let mut correct = 0usize;
    for (x, target) in &test {
        let (_, y) = net.forward(ctx, x);
        if (y >= 0.5) == (*target >= 0.5) {
            correct += 1;
        }
    }
    BackpropOutput {
        accuracy: correct as f64 / test.len() as f64,
        train_loss: loss,
    }
}

/// Convenience: runs under a fresh context.
pub fn run_with_config(params: &BackpropParams, cfg: IhwConfig) -> (BackpropOutput, FpCtx) {
    let mut ctx = FpCtx::new(cfg);
    let out = run(params, &mut ctx);
    (out, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;

    #[test]
    fn precise_training_learns() {
        let (out, _) = run_with_config(&BackpropParams::default(), IhwConfig::precise());
        assert!(out.accuracy > 0.8, "accuracy {}", out.accuracy);
        assert!(out.train_loss < 0.2, "loss {}", out.train_loss);
    }

    #[test]
    fn deterministic() {
        let (a, _) = run_with_config(&BackpropParams::default(), IhwConfig::precise());
        let (b, _) = run_with_config(&BackpropParams::default(), IhwConfig::precise());
        assert_eq!(a, b);
    }

    #[test]
    fn imprecise_training_still_learns() {
        // SGD is error tolerant: all-IHW training stays usable (the same
        // resiliency class as 179.art's network in the paper).
        let (precise, _) = run_with_config(&BackpropParams::default(), IhwConfig::precise());
        let (imprecise, _) =
            run_with_config(&BackpropParams::default(), IhwConfig::all_imprecise());
        assert!(
            imprecise.accuracy > precise.accuracy - 0.2,
            "imprecise {} vs precise {}",
            imprecise.accuracy,
            precise.accuracy
        );
        assert!(imprecise.accuracy > 0.6);
    }

    #[test]
    fn exercises_exp2_and_rcp() {
        let (_, ctx) = run_with_config(&BackpropParams::default(), IhwConfig::precise());
        let c = ctx.counts();
        assert!(c.get(FpOp::Exp2) > 0, "sigmoids use exp2");
        assert_eq!(c.get(FpOp::Exp2), c.get(FpOp::Rcp), "one rcp per sigmoid");
        assert!(c.get(FpOp::Fma) > c.get(FpOp::Exp2), "MACs dominate");
    }
}
