//! Memory hierarchy model: L1/L2 caches and DRAM with per-level hit
//! rates, energies and a global DRAM bandwidth bound.
//!
//! GPUWattch models the memory system per level; the earlier flat
//! per-access constant is now derived from this hierarchy, and the SIMT
//! timing model uses it for the machine-wide DRAM bandwidth ceiling that
//! binds memory-streaming kernels.

/// A two-level cache + DRAM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryHierarchy {
    /// Fraction of accesses hitting L1.
    pub l1_hit_rate: f64,
    /// Fraction of L1 misses hitting L2.
    pub l2_hit_rate: f64,
    /// Energy per L1 access, pJ.
    pub l1_energy_pj: f64,
    /// Energy per L2 access, pJ.
    pub l2_energy_pj: f64,
    /// Energy per DRAM access, pJ.
    pub dram_energy_pj: f64,
    /// Bytes moved per memory access (coalesced sector).
    pub access_bytes: f64,
    /// Machine-wide DRAM bandwidth in bytes per core cycle.
    pub dram_bytes_per_cycle: f64,
}

impl MemoryHierarchy {
    /// A GTX480-like hierarchy: 16/48 KB L1 per SM, 768 KB shared L2,
    /// GDDR5 at ≈177 GB/s against the 700 MHz core clock (≈253 B/cycle).
    pub fn fermi() -> Self {
        MemoryHierarchy {
            l1_hit_rate: 0.70,
            l2_hit_rate: 0.70,
            l1_energy_pj: 40.0,
            l2_energy_pj: 450.0,
            dram_energy_pj: 6000.0,
            access_bytes: 32.0,
            dram_bytes_per_cycle: 253.0,
        }
    }

    /// Validates the rates (used by property tests and builders).
    ///
    /// # Panics
    ///
    /// Panics if either hit rate is outside `[0, 1]` or any energy or
    /// bandwidth figure is non-positive.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.l1_hit_rate),
            "l1 hit rate out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.l2_hit_rate),
            "l2 hit rate out of range"
        );
        assert!(self.l1_energy_pj > 0.0 && self.l2_energy_pj > 0.0 && self.dram_energy_pj > 0.0);
        assert!(self.access_bytes > 0.0 && self.dram_bytes_per_cycle > 0.0);
    }

    /// Fraction of accesses that reach DRAM.
    pub fn dram_fraction(&self) -> f64 {
        (1.0 - self.l1_hit_rate) * (1.0 - self.l2_hit_rate)
    }

    /// Expected energy per access in pJ (every access touches L1; misses
    /// add the next level's cost).
    pub fn avg_energy_pj(&self) -> f64 {
        let l1_miss = 1.0 - self.l1_hit_rate;
        self.l1_energy_pj
            + l1_miss * (self.l2_energy_pj + (1.0 - self.l2_hit_rate) * self.dram_energy_pj)
    }

    /// Machine-wide cycles needed to move `mem_ops` accesses' DRAM
    /// traffic through the memory interface.
    pub fn dram_bound_cycles(&self, mem_ops: u64) -> u64 {
        let bytes = mem_ops as f64 * self.dram_fraction() * self.access_bytes;
        (bytes / self.dram_bytes_per_cycle).ceil() as u64
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::fermi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_validates() {
        MemoryHierarchy::fermi().validate();
    }

    #[test]
    fn derived_quantities() {
        let m = MemoryHierarchy::fermi();
        assert!((m.dram_fraction() - 0.09).abs() < 1e-12);
        // avg energy = 40 + 0.3·(450 + 0.3·6000) = 715 pJ.
        assert!((m.avg_energy_pj() - 715.0).abs() < 1e-9);
    }

    #[test]
    fn dram_bound_scales_with_traffic() {
        let m = MemoryHierarchy::fermi();
        let small = m.dram_bound_cycles(1_000);
        let big = m.dram_bound_cycles(1_000_000);
        assert!(big > small * 500);
    }

    #[test]
    fn perfect_cache_never_binds_dram() {
        let mut m = MemoryHierarchy::fermi();
        m.l1_hit_rate = 1.0;
        m.validate();
        assert_eq!(m.dram_bound_cycles(u32::MAX as u64), 0);
        assert_eq!(m.avg_energy_pj(), m.l1_energy_pj);
    }

    #[test]
    #[should_panic(expected = "hit rate out of range")]
    fn validation_rejects_bad_rates() {
        let mut m = MemoryHierarchy::fermi();
        m.l1_hit_rate = 1.5;
        m.validate();
    }
}
