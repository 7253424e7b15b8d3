//! Seeded input generation. Every input a workload feeds the program is
//! drawn from here, so one `--seed` names one set of inputs.

use gpu_sim::deps::footprints;
use gpu_sim::isa::Program;

/// SplitMix64: small and fully specified, so a seed yields the same
/// stream on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed; distinct `stream`
    /// tags give independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0.5, 1)`: exponent fixed, 23 random mantissa bits.
    /// Inputs in this range keep every stock kernel finite and
    /// fault-free, so a failure always means a wrong output.
    pub fn unit_half(&mut self) -> f32 {
        f32::from_bits(0x3F00_0000 | (self.next_u64() >> 41) as u32)
    }
}

/// Input buffers for `threads` threads of `prog`, each sized by the
/// kernel's own footprint (as `racebench::seed_buffers` sizes them) and
/// filled from `rng`.
pub fn payload(prog: &Program, threads: u32, rng: &mut Rng) -> Vec<Vec<f32>> {
    let fps = footprints(prog);
    let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
    (0..n_bufs)
        .map(|b| {
            let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
            (0..len).map(|_| rng.unit_half()).collect()
        })
        .collect()
}

/// Bitwise equality of two buffer sets (`==` on `f32` would let
/// `-0.0 == 0.0` and reject equal NaNs).
pub fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let prog = gpu_sim::programs::dot_partial(4);
        let a = payload(&prog, 256, &mut Rng::new(7, 1));
        let b = payload(&prog, 256, &mut Rng::new(7, 1));
        let c = payload(&prog, 256, &mut Rng::new(8, 1));
        let d = payload(&prog, 256, &mut Rng::new(7, 2));
        assert!(same_bits(&a, &b));
        assert!(!same_bits(&a, &c));
        assert!(!same_bits(&a, &d));
    }

    #[test]
    fn values_stay_in_the_well_conditioned_range() {
        let mut rng = Rng::new(3, 0);
        for _ in 0..10_000 {
            let x = rng.unit_half();
            assert!((0.5..1.0).contains(&x), "{x}");
        }
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
