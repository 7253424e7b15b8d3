//! One module per group of paper artefacts.
//!
//! * [`units`] — unit-level results: Tables 1–4, Figures 8, 9, 13, 14;
//! * [`system`] — GPU system-level results: Figure 2, Figures 15–18,
//!   Table 5;
//! * [`apps`] — the §5.3.2 application studies: Table 6, Figures 19–21,
//!   Table 7.

pub mod apps;
pub mod ext;
pub mod system;
pub mod units;

/// Experiment scale: `Quick` finishes each experiment in seconds for CI
/// and criterion; `Paper` uses the publication-scale parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced input sizes / sample counts.
    Quick,
    /// The paper's input sizes (512×512 HotSpot, 25-word sphinx, …).
    Paper,
}

impl Scale {
    /// Characterization sample count for PMF experiments (the paper uses
    /// 200 million; the PMF shape converges far earlier).
    pub fn char_samples(self) -> u64 {
        match self {
            Scale::Quick => 200_000,
            Scale::Paper => 2_000_000,
        }
    }
}
