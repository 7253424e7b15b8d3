//! The iterative quality tuning loop of Figure 10.
//!
//! §5.1: *"If the constraint is not met, the structural parameter is
//! adjusted or some imprecise components are disabled … The iterative
//! quality tuning process is complete once the quality constraint is
//! satisfied."*
//!
//! [`tune`] walks a caller-supplied sequence of candidate configurations
//! — ordered from most aggressive (lowest power) to least — evaluating
//! each against a fidelity constraint and returning the first acceptable
//! one together with the full evaluation history.

/// An application-specific fidelity constraint on a scalar quality metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityConstraint {
    /// Quality metric must be at least this value (SSIM, Pratt FOM,
    /// vigilance, recognition accuracy — higher is better).
    AtLeast(f64),
    /// Quality metric must be at most this value (MAE, WED, error
    /// percentage — lower is better).
    AtMost(f64),
}

impl QualityConstraint {
    /// Whether a measured quality value satisfies the constraint. A NaN
    /// quality never satisfies either direction: an evaluation that
    /// produced no number is a failed candidate, not an accepted one.
    pub fn satisfied_by(&self, quality: f64) -> bool {
        if quality.is_nan() {
            return false;
        }
        match *self {
            QualityConstraint::AtLeast(t) => quality >= t,
            QualityConstraint::AtMost(t) => quality <= t,
        }
    }
}

/// One evaluated candidate in the tuning loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningStep<C> {
    /// The candidate configuration.
    pub config: C,
    /// Measured quality under that configuration.
    pub quality: f64,
    /// Whether it met the constraint.
    pub accepted: bool,
}

/// Outcome of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome<C> {
    /// The accepted configuration, if any candidate satisfied the
    /// constraint.
    pub selected: Option<C>,
    /// Every evaluated candidate, in evaluation order.
    pub history: Vec<TuningStep<C>>,
}

impl<C> TuningOutcome<C> {
    /// Number of functional-simulation iterations the loop needed.
    pub fn iterations(&self) -> usize {
        self.history.len()
    }
}

/// Runs the Figure 10 loop over candidate configurations.
///
/// `candidates` should be ordered from most aggressive to least; the loop
/// stops at the first configuration whose evaluated quality satisfies
/// `constraint`. If none does, `selected` is `None` and the caller falls
/// back to the precise datapath.
///
/// The candidate sequence is the caller's pruning opportunity:
/// `ihw_analyze::autotune` feeds this loop the analyzer-pruned,
/// energy-ascending admissible configs (and, for ⊤-bound configs, uses
/// the same loop with a QMC-measured error evaluate), so the Figure 10
/// search and the static autotuner share one path.
///
/// ```
/// use gpu_sim::tuner::{tune, QualityConstraint};
///
/// // Pretend qualities improve as the knob backs off: 0.6, 0.8, 0.97.
/// let outcome = tune([3u32, 2, 1], |&k| 1.0 - 0.1 * (k * k) as f64,
///                    QualityConstraint::AtLeast(0.9));
/// assert_eq!(outcome.selected, Some(1));
/// assert_eq!(outcome.iterations(), 3);
/// ```
pub fn tune<C: Clone>(
    candidates: impl IntoIterator<Item = C>,
    mut evaluate: impl FnMut(&C) -> f64,
    constraint: QualityConstraint,
) -> TuningOutcome<C> {
    let mut history = Vec::new();
    for config in candidates {
        let quality = evaluate(&config);
        let accepted = constraint.satisfied_by(quality);
        history.push(TuningStep {
            config: config.clone(),
            quality,
            accepted,
        });
        if accepted {
            return TuningOutcome {
                selected: Some(config),
                history,
            };
        }
    }
    TuningOutcome {
        selected: None,
        history,
    }
}

/// Result of a per-site tuning run (see [`tune_sites`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteTuningOutcome {
    /// Final site mask: `true` = that multiplication site runs imprecise.
    pub enabled: Vec<bool>,
    /// Quality of the final mask.
    pub quality: f64,
    /// Number of functional evaluations performed.
    pub evaluations: usize,
}

impl SiteTuningOutcome {
    /// Fraction of sites running imprecise.
    pub fn imprecise_fraction(&self) -> f64 {
        if self.enabled.is_empty() {
            0.0
        } else {
            self.enabled.iter().filter(|&&e| e).count() as f64 / self.enabled.len() as f64
        }
    }
}

/// Automatic per-site quality tuning for *partially* error tolerant
/// applications — the thesis' Chapter 6 future-work item, built on the
/// dual-mode multiplier (`ihw_core::dual_mode`).
///
/// An application exposes `n_sites` multiplication sites (e.g. "surface
/// normal math" vs "shading math" in a ray tracer). Starting from the
/// all-precise mask, the loop greedily enables the imprecise mode one
/// site at a time, keeping each flip only while the evaluated quality
/// still satisfies the constraint, and stops when no further site can be
/// enabled. `evaluate` receives the candidate mask and returns the
/// application quality metric.
///
/// ```
/// use gpu_sim::tuner::{tune_sites, QualityConstraint};
///
/// // Site 1 is quality-critical, sites 0 and 2 are tolerant.
/// let outcome = tune_sites(3, |mask| if mask[1] { 0.5 } else { 0.95 },
///                          QualityConstraint::AtLeast(0.9));
/// assert_eq!(outcome.enabled, vec![true, false, true]);
/// ```
pub fn tune_sites(
    n_sites: usize,
    mut evaluate: impl FnMut(&[bool]) -> f64,
    constraint: QualityConstraint,
) -> SiteTuningOutcome {
    let mut enabled = vec![false; n_sites];
    let mut quality = evaluate(&enabled);
    let mut evaluations = 1;
    loop {
        let mut progressed = false;
        for site in 0..n_sites {
            if enabled[site] {
                continue;
            }
            enabled[site] = true;
            let q = evaluate(&enabled);
            evaluations += 1;
            if constraint.satisfied_by(q) {
                quality = q;
                progressed = true;
            } else {
                enabled[site] = false;
            }
        }
        if !progressed {
            break;
        }
    }
    SiteTuningOutcome {
        enabled,
        quality,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_directions() {
        assert!(QualityConstraint::AtLeast(0.9).satisfied_by(0.95));
        assert!(!QualityConstraint::AtLeast(0.9).satisfied_by(0.85));
        assert!(QualityConstraint::AtMost(1.25).satisfied_by(0.8));
        assert!(!QualityConstraint::AtMost(1.25).satisfied_by(2.0));
    }

    #[test]
    fn nan_quality_fails_both_directions() {
        // Regression: `NaN <= t` is false, but so is `!(NaN <= t)` — the
        // constraint must reject NaN explicitly rather than relying on
        // comparison semantics in each arm.
        assert!(!QualityConstraint::AtLeast(0.9).satisfied_by(f64::NAN));
        assert!(!QualityConstraint::AtMost(1.25).satisfied_by(f64::NAN));
        let outcome = tune(
            vec![1u32, 2],
            |&k| if k == 1 { f64::NAN } else { 0.5 },
            QualityConstraint::AtMost(1.0),
        );
        assert_eq!(outcome.selected, Some(2));
        assert!(!outcome.history[0].accepted, "NaN candidate must not win");
    }

    #[test]
    fn stops_at_first_acceptable() {
        let outcome = tune(
            vec![19u32, 15, 10, 0],
            |&t| 1.0 - t as f64 * 0.02, // quality improves as truncation drops
            QualityConstraint::AtLeast(0.75),
        );
        assert_eq!(outcome.selected, Some(10));
        assert_eq!(outcome.iterations(), 3);
        assert!(!outcome.history[0].accepted);
        assert!(outcome.history[2].accepted);
    }

    #[test]
    fn returns_none_when_unsatisfiable() {
        let outcome = tune(vec![1, 2, 3], |_| 0.1, QualityConstraint::AtLeast(0.99));
        assert_eq!(outcome.selected, None);
        assert_eq!(outcome.iterations(), 3);
        assert!(outcome.history.iter().all(|s| !s.accepted));
    }

    #[test]
    fn empty_candidates() {
        let outcome = tune(Vec::<u32>::new(), |_| 1.0, QualityConstraint::AtLeast(0.0));
        assert_eq!(outcome.selected, None);
        assert_eq!(outcome.iterations(), 0);
    }

    #[test]
    fn at_most_direction_for_error_metrics() {
        // gromacs-style: err% must be ≤ 1.25.
        let outcome = tune(
            vec![48u32, 44, 20],
            |&t| t as f64 / 20.0, // error shrinks with truncation
            QualityConstraint::AtMost(1.25),
        );
        assert_eq!(outcome.selected, Some(20));
    }

    #[test]
    fn site_tuning_enables_tolerant_sites_only() {
        // Quality = 1 − 0.02 per tolerant site − 0.5 per critical site.
        let critical = [1usize, 4];
        let outcome = tune_sites(
            6,
            |mask| {
                let mut q: f64 = 1.0;
                for (i, &on) in mask.iter().enumerate() {
                    if on {
                        q -= if critical.contains(&i) { 0.5 } else { 0.02 };
                    }
                }
                q
            },
            QualityConstraint::AtLeast(0.9),
        );
        assert_eq!(outcome.enabled, vec![true, false, true, true, false, true]);
        assert!((outcome.imprecise_fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert!(outcome.quality >= 0.9);
    }

    #[test]
    fn site_tuning_respects_budget_interactions() {
        // Each enabled site costs 0.3 — only three fit under the
        // constraint; the greedy loop must stop there.
        let outcome = tune_sites(
            10,
            |mask| 1.0 - 0.3 * mask.iter().filter(|&&e| e).count() as f64,
            QualityConstraint::AtLeast(0.05),
        );
        assert_eq!(outcome.enabled.iter().filter(|&&e| e).count(), 3);
    }

    #[test]
    fn site_tuning_all_critical() {
        let outcome = tune_sites(
            4,
            |mask| if mask.iter().any(|&e| e) { 0.0 } else { 1.0 },
            QualityConstraint::AtLeast(0.5),
        );
        assert!(outcome.enabled.iter().all(|&e| !e));
        assert_eq!(outcome.quality, 1.0);
    }

    #[test]
    fn site_tuning_zero_sites() {
        let outcome = tune_sites(0, |_| 1.0, QualityConstraint::AtLeast(0.5));
        assert!(outcome.enabled.is_empty());
        assert_eq!(outcome.imprecise_fraction(), 0.0);
        assert_eq!(outcome.evaluations, 1);
    }
}
