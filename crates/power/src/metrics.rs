//! Non-functional metric records for synthesized arithmetic units.

/// Post-layout non-functional metrics of one synthesized unit (45 nm
/// FreePDK, as measured by the paper's HSIM flow — Figure 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitMetrics {
    /// Average switching power at full activity, in milliwatts.
    pub power_mw: f64,
    /// Critical path latency, in nanoseconds.
    pub latency_ns: f64,
    /// Cell area, in square micrometres (gate-equivalents scale the same).
    pub area_um2: f64,
}

impl UnitMetrics {
    /// Creates a metrics record.
    pub const fn new(power_mw: f64, latency_ns: f64, area_um2: f64) -> Self {
        UnitMetrics {
            power_mw,
            latency_ns,
            area_um2,
        }
    }

    /// Energy per operation in picojoules (`power × latency`).
    pub fn energy_pj(&self) -> f64 {
        self.power_mw * self.latency_ns
    }

    /// Energy-delay product in `pJ·ns`.
    pub fn edp(&self) -> f64 {
        self.energy_pj() * self.latency_ns
    }

    /// Normalizes against a baseline unit (Table 2 convention: lower is
    /// better, 1.0 means parity with the DesignWare IP).
    pub fn normalized_to(&self, baseline: &UnitMetrics) -> NormalizedMetrics {
        NormalizedMetrics {
            power: self.power_mw / baseline.power_mw,
            latency: self.latency_ns / baseline.latency_ns,
            area: self.area_um2 / baseline.area_um2,
            energy: self.energy_pj() / baseline.energy_pj(),
            edp: self.edp() / baseline.edp(),
        }
    }
}

/// Metrics of an IHW unit normalized against its DWIP baseline (the rows
/// of Table 2 / bars of Figure 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedMetrics {
    /// Power ratio.
    pub power: f64,
    /// Latency ratio.
    pub latency: f64,
    /// Area ratio.
    pub area: f64,
    /// Energy ratio.
    pub energy: f64,
    /// Energy-delay-product ratio.
    pub edp: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_and_edp_derived() {
        let m = UnitMetrics::new(2.0, 3.0, 100.0);
        assert_eq!(m.energy_pj(), 6.0);
        assert_eq!(m.edp(), 18.0);
    }

    #[test]
    fn normalization() {
        let ihw = UnitMetrics::new(1.0, 1.0, 50.0);
        let dw = UnitMetrics::new(4.0, 2.0, 100.0);
        let n = ihw.normalized_to(&dw);
        assert_eq!(n.power, 0.25);
        assert_eq!(n.latency, 0.5);
        assert_eq!(n.area, 0.5);
        assert_eq!(n.energy, 0.125);
        assert_eq!(n.edp, 0.0625);
    }
}
