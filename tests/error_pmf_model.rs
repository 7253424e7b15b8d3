//! Model-based test of the windowed `ErrorPmf`.
//!
//! The reference is the map-backed implementation it replaced, kept here
//! verbatim apart from its derive list. Both record the same
//! seeded `(approx, exact)` streams — exact matches, zero references
//! (the `i32::MAX` bin), NaNs (bin 0), the smallest representable
//! relative errors, typical unit errors, and finite bins on both sides of
//! the dense window's top edge — and every rendering must match byte for
//! byte.

use imprecise_gpgpu::error::ErrorPmf;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

mod reference {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ErrorPmf {
        bins: BTreeMap<i32, u64>,
        exact_matches: u64,
        total: u64,
        max_err: f64,
        sum_err: f64,
        max_dist: f64,
        sum_dist: f64,
    }

    impl ErrorPmf {
        pub fn record(&mut self, approx: f64, exact: f64) {
            self.total += 1;
            let dist = (approx - exact).abs();
            self.sum_dist += dist;
            self.max_dist = self.max_dist.max(dist);
            if dist == 0.0 {
                self.exact_matches += 1;
                return;
            }
            let rel = if exact != 0.0 {
                dist / exact.abs()
            } else {
                f64::INFINITY
            };
            self.max_err = self.max_err.max(rel);
            self.sum_err += rel;
            let pct = rel * 100.0;
            let bin = pct.log2().ceil() as i32;
            *self.bins.entry(bin).or_insert(0) += 1;
        }

        pub fn merge(&mut self, other: &ErrorPmf) {
            for (&bin, &count) in &other.bins {
                *self.bins.entry(bin).or_insert(0) += count;
            }
            self.exact_matches += other.exact_matches;
            self.total += other.total;
            self.max_err = self.max_err.max(other.max_err);
            self.sum_err += other.sum_err;
            self.max_dist = self.max_dist.max(other.max_dist);
            self.sum_dist += other.sum_dist;
        }

        pub fn error_rate(&self) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                (self.total - self.exact_matches) as f64 / self.total as f64
            }
        }

        pub fn max_error_pct(&self) -> f64 {
            self.max_err * 100.0
        }

        pub fn mean_error_pct(&self) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                self.sum_err / self.total as f64 * 100.0
            }
        }

        pub fn med(&self) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                self.sum_dist / self.total as f64
            }
        }

        pub fn wed(&self) -> f64 {
            self.max_dist
        }

        pub fn bin_probability(&self, bin: i32) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                *self.bins.get(&bin).unwrap_or(&0) as f64 / self.total as f64
            }
        }

        pub fn iter(&self) -> impl Iterator<Item = (i32, f64)> + '_ {
            let total = self.total.max(1) as f64;
            self.bins.iter().map(move |(&b, &c)| (b, c as f64 / total))
        }

        pub fn mode_bin(&self) -> Option<i32> {
            self.bins.iter().max_by_key(|(_, &c)| c).map(|(&b, _)| b)
        }

        pub fn tail_probability(&self, threshold_pct: f64) -> f64 {
            if self.total == 0 {
                return 0.0;
            }
            let cut = threshold_pct.log2();
            let count: u64 = self
                .bins
                .iter()
                .filter(|(&b, _)| (b as f64) > cut)
                .map(|(_, &c)| c)
                .sum();
            count as f64 / self.total as f64
        }

        pub fn to_csv(&self, label: &str) -> String {
            use std::fmt::Write;
            let mut out = String::from("bin_log2_err_pct,probability\n");
            for (bin, p) in self.iter() {
                let _ = writeln!(out, "{bin},{p}");
            }
            let _ = writeln!(
                out,
                "# {label}: error_rate={} max_pct={} mean_pct={} med={} wed={}",
                self.error_rate(),
                self.max_error_pct(),
                self.mean_error_pct(),
                self.med(),
                self.wed()
            );
            out
        }

        pub fn to_ascii_chart(&self, label: &str) -> String {
            use std::fmt::Write;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{label}: error rate {:.2}%, max {:.3}%, mean {:.4}%",
                self.error_rate() * 100.0,
                self.max_error_pct(),
                self.mean_error_pct()
            );
            for (bin, p) in self.iter() {
                let bar = "#".repeat((p * 200.0).round() as usize);
                let _ = writeln!(out, "  2^{bin:>4} % | {bar} {:.3}%", p * 100.0);
            }
            out
        }
    }
}

/// A reference value with a random sign, mantissa and exponent in
/// `2^lo .. 2^hi`.
fn magnitude(rng: &mut StdRng, lo: i32, hi: i32) -> f64 {
    let m = rng.gen_range(1.0..2.0);
    let x = m * 2f64.powi(rng.gen_range(lo..hi));
    if rng.gen_bool(0.5) {
        -x
    } else {
        x
    }
}

/// One `(approx, exact)` pair from a mix of every binning regime.
/// `nan` allows NaN pairs, which make the float sums NaN.
fn sample(rng: &mut StdRng, nan: bool) -> (f64, f64) {
    let exact = magnitude(rng, -60, 60);
    match rng.gen_range(0..10u32) {
        // Exact match.
        0 => (exact, exact),
        // Zero reference: exact when the approximation is zero too,
        // otherwise the `i32::MAX` bin.
        1 => (
            if rng.gen_bool(0.2) {
                0.0
            } else {
                magnitude(rng, -20, 20)
            },
            0.0,
        ),
        // NaN on either side: bin 0.
        2 if nan => {
            if rng.gen_bool(0.5) {
                (f64::NAN, exact)
            } else {
                (exact, f64::NAN)
            }
        }
        // A few ulps off: the smallest relative errors an f64 can show
        // (bins around −46), at tiny, ordinary and huge magnitudes.
        3 => {
            let exact = magnitude(rng, -1070, 1020);
            let ulps = rng.gen_range(1..4u64);
            (f64::from_bits(exact.to_bits() + ulps), exact)
        }
        // An infinite approximation: infinite relative error.
        4 => (f64::INFINITY, exact),
        // Relative errors across the window's top edge (2^63 %).
        5 => {
            let rel = 2f64.powf(rng.gen_range(50.0..80.0));
            (exact * (1.0 + rel), exact)
        }
        // Far-out finite bins, up to relative errors whose percentage
        // overflows to the `i32::MAX` bin.
        6 => (1.0, magnitude(rng, -1022, -60)),
        // Typical unit errors, 2^-30 .. 2^10 relative.
        _ => {
            let rel = 2f64.powf(rng.gen_range(-30.0..10.0));
            (exact * (1.0 + rel), exact)
        }
    }
}

/// Relative errors that land exactly on window and bin edges.
fn edge_samples() -> Vec<(f64, f64)> {
    let mut v = Vec::new();
    for k in [
        -70, -64, -63, -47, -46, -1, 0, 1, 62, 63, 64, 65, 1000, 1023,
    ] {
        let pct = 2f64.powi(k);
        for scale in [1.0, 1.0 + f64::EPSILON, 1.0 - f64::EPSILON / 2.0] {
            let rel = pct * scale / 100.0;
            v.push((1.0 + rel, 1.0));
        }
    }
    v.push((f64::MAX, f64::from_bits(1)));
    v.push((f64::INFINITY, f64::INFINITY));
    v.push((f64::NEG_INFINITY, 1.0));
    v.push((-0.0, 0.0));
    v
}

const THRESHOLDS: [f64; 10] = [
    0.0,
    1e-12,
    0.01,
    1.0,
    8.0,
    100.0,
    9.2e18,
    1e300,
    f64::INFINITY,
    f64::NAN,
];

fn assert_same(new: &ErrorPmf, old: &reference::ErrorPmf) {
    let bits = |v: Vec<(i32, f64)>| -> Vec<(i32, u64)> {
        v.into_iter().map(|(b, p)| (b, p.to_bits())).collect()
    };
    let bins = bits(old.iter().collect());
    assert_eq!(bits(new.iter().collect()), bins);
    assert_eq!(new.mode_bin(), old.mode_bin());
    for &t in &THRESHOLDS {
        assert_eq!(
            new.tail_probability(t).to_bits(),
            old.tail_probability(t).to_bits(),
            "tail_probability({t})"
        );
    }
    let probes = bins
        .iter()
        .map(|&(b, _)| b)
        .chain([i32::MIN, -65, -64, -1, 0, 63, 64, i32::MAX]);
    for b in probes {
        assert_eq!(
            new.bin_probability(b).to_bits(),
            old.bin_probability(b).to_bits(),
            "bin_probability({b})"
        );
    }
    assert_eq!(new.to_csv("unit"), old.to_csv("unit"));
    assert_eq!(new.to_ascii_chart("unit"), old.to_ascii_chart("unit"));
    assert_eq!(format!("{new:?}"), format!("{old:?}"));
}

#[test]
fn windowed_pmf_matches_the_map_reference() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let nan = seed % 3 == 0;
        let mut pairs: Vec<(f64, f64)> = (0..rng.gen_range(0..3000usize))
            .map(|_| sample(&mut rng, nan))
            .collect();
        if seed % 4 == 1 {
            pairs.extend(edge_samples());
        }

        let (mut new, mut old) = (ErrorPmf::new(), reference::ErrorPmf::default());
        let (mut new_merged, mut old_merged) = (ErrorPmf::new(), reference::ErrorPmf::default());
        let chunk = 1 + (rng.next_u64() % 700) as usize;
        for part in pairs.chunks(chunk) {
            let (mut np, mut op) = (ErrorPmf::new(), reference::ErrorPmf::default());
            for &(a, e) in part {
                new.record(a, e);
                old.record(a, e);
                np.record(a, e);
                op.record(a, e);
            }
            assert_same(&np, &op);
            new_merged.merge(&np);
            old_merged.merge(&op);
        }
        assert_same(&new, &old);
        assert_same(&new_merged, &old_merged);
        assert_eq!(new_merged == new, old_merged == old, "seed {seed}");
    }
}

#[test]
fn equality_is_semantic() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut a = ErrorPmf::new();
    for _ in 0..2000 {
        let (x, e) = sample(&mut rng, false);
        a.record(x, e);
    }
    assert!(
        a.iter().any(|(b, _)| b > 63),
        "stream reaches the outlier map"
    );
    let mut b = ErrorPmf::new();
    b.merge(&a);
    assert_eq!(b, a);
    b.merge(&ErrorPmf::new());
    assert_eq!(b, a);
    b.record(1.5, 1.0);
    assert_ne!(b, a);
    let mut c = ErrorPmf::new();
    c.record(1.0, 1e-300);
    let mut d = ErrorPmf::new();
    d.record(1.0, 1e-200);
    assert_ne!(c, d, "outlier bins differ");
}

#[test]
fn mode_tie_breaks_to_the_highest_bin() {
    // One sample each in a window bin, an outlier bin and the `i32::MAX`
    // bin: the last maximum in ascending order wins, as with the map.
    let mut new = ErrorPmf::new();
    let mut old = reference::ErrorPmf::default();
    for (a, e) in [(1.5, 1.0), (1.0, 1e-300), (1.0, 0.0)] {
        new.record(a, e);
        old.record(a, e);
    }
    assert_eq!(new.mode_bin(), Some(i32::MAX));
    assert_same(&new, &old);
}
