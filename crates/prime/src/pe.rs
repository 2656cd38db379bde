//! The PRIME processing element.
//!
//! PRIME keeps the conventional mixed-signal peripherals: per-row DACs drive
//! analog input voltages, and the column currents are digitized by ADCs that
//! are *shared* across columns (the paper's Section 4.2 notes that such
//! sharing is what inflates latency — e.g. ISAAC shares one ADC across 128
//! columns). Weights are 8-bit values spliced across two 4-bit cells, and two
//! crossbars hold the positive/negative parts.

use fpsa_device::reram::CrossbarSpec;
use serde::{Deserialize, Serialize};

/// Published Table 2 values for the PRIME PE, for regression tests.
pub mod published {
    /// PRIME PE area in µm².
    pub const AREA_UM2: f64 = 34_802.204;
    /// PRIME PE latency for a 256x256, 8-bit-weight, 6-bit-I/O VMM in ns.
    pub const LATENCY_NS: f64 = 3_064.7;
    /// PRIME computational density in TOPS/mm².
    pub const DENSITY_TOPS_MM2: f64 = 1.229;
}

/// Component-level specification of a PRIME PE.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrimePeSpec {
    /// The crossbar geometry (per polarity).
    pub crossbar: CrossbarSpec,
    /// Cells spliced per weight.
    pub cells_per_weight: usize,
    /// Area of one DAC (per row) in µm².
    pub dac_area_um2: f64,
    /// Area of one ADC in µm².
    pub adc_area_um2: f64,
    /// Number of ADCs shared by all columns.
    pub adc_count: usize,
    /// Conversion latency of one ADC sample in ns.
    pub adc_conversion_ns: f64,
    /// Area of the shift-and-add, subtraction and activation logic in µm².
    pub digital_logic_area_um2: f64,
    /// Latency of the digital post-processing per column in ns.
    pub digital_latency_ns: f64,
    /// I/O precision in bits (inputs are applied bit-serially).
    pub io_bits: u32,
}

impl PrimePeSpec {
    /// The PRIME configuration used in the paper's comparison: a 256x256
    /// logical array (two 256x512-cell crossbars for splicing and polarity),
    /// per-row DACs, 8 shared ADCs and bit-serial 6-bit inputs. Component
    /// values are calibrated so the composition reproduces Table 2.
    pub fn prime_default() -> Self {
        PrimePeSpec {
            crossbar: CrossbarSpec::fpsa_256x512(),
            cells_per_weight: 2,
            dac_area_um2: 25.0,
            adc_area_um2: 1500.0,
            adc_count: 8,
            adc_conversion_ns: 7.0,
            digital_logic_area_um2: 14_279.0,
            digital_latency_ns: 0.98,
            io_bits: 6,
        }
    }

    /// Logical rows.
    pub fn logical_rows(&self) -> usize {
        self.crossbar.rows
    }

    /// Logical columns.
    pub fn logical_cols(&self) -> usize {
        self.crossbar.cols / 2
    }

    /// Total PE area in µm²: crossbars, per-row DACs, shared ADCs and the
    /// digital logic.
    pub fn area_um2(&self) -> f64 {
        let crossbars = self.crossbar.area_um2() * self.cells_per_weight as f64;
        let dacs = self.dac_area_um2 * self.crossbar.rows as f64;
        let adcs = self.adc_area_um2 * self.adc_count as f64;
        crossbars + dacs + adcs + self.digital_logic_area_um2
    }

    /// Latency of one full vector-matrix multiplication in ns.
    ///
    /// Inputs are applied bit-serially (`io_bits` phases); within each phase
    /// every column must be digitized through the shared ADCs, so the phase
    /// time is `columns / adc_count` conversions plus the digital
    /// post-processing.
    pub fn vmm_latency_ns(&self) -> f64 {
        let conversions_per_phase = self.crossbar.cols as f64 / self.adc_count as f64;
        let phase_ns = conversions_per_phase * self.adc_conversion_ns
            + self.digital_latency_ns * conversions_per_phase
            + self.crossbar.rc_delay_ns();
        self.io_bits as f64 * phase_ns
    }

    /// Operations per VMM.
    pub fn ops_per_vmm(&self) -> f64 {
        2.0 * self.logical_rows() as f64 * self.logical_cols() as f64
    }

    /// Computational density in TOPS/mm².
    pub fn density_tops_mm2(&self) -> f64 {
        let ops_per_s = self.ops_per_vmm() / (self.vmm_latency_ns() * 1e-9);
        ops_per_s * 1e-12 / (self.area_um2() * 1e-6)
    }
}

impl Default for PrimePeSpec {
    fn default() -> Self {
        Self::prime_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_matches_table2() {
        let pe = PrimePeSpec::prime_default();
        let err = (pe.area_um2() - published::AREA_UM2).abs() / published::AREA_UM2;
        assert!(
            err < 0.02,
            "area {} vs published {}",
            pe.area_um2(),
            published::AREA_UM2
        );
    }

    #[test]
    fn latency_matches_table2() {
        let pe = PrimePeSpec::prime_default();
        let err = (pe.vmm_latency_ns() - published::LATENCY_NS).abs() / published::LATENCY_NS;
        assert!(
            err < 0.05,
            "latency {} vs published {}",
            pe.vmm_latency_ns(),
            published::LATENCY_NS
        );
    }

    #[test]
    fn density_matches_table2() {
        let pe = PrimePeSpec::prime_default();
        let err = (pe.density_tops_mm2() - published::DENSITY_TOPS_MM2).abs()
            / published::DENSITY_TOPS_MM2;
        assert!(err < 0.06, "density {}", pe.density_tops_mm2());
    }

    #[test]
    fn fpsa_pe_improves_density_by_about_31x() {
        let prime = PrimePeSpec::prime_default();
        let fpsa = fpsa_device::pe::ProcessingElementSpec::fpsa_default();
        let improvement = fpsa.computational_density_tops_per_mm2() / prime.density_tops_mm2();
        assert!(
            improvement > 27.0 && improvement < 36.0,
            "improvement {improvement}"
        );
    }

    #[test]
    fn sharing_fewer_adcs_increases_latency() {
        let mut pe = PrimePeSpec::prime_default();
        let base = pe.vmm_latency_ns();
        pe.adc_count = 4;
        assert!(pe.vmm_latency_ns() > base);
    }

    #[test]
    fn prime_uses_the_splice_scheme() {
        let pe = PrimePeSpec::prime_default();
        // Two spliced 4-bit cells per 8-bit weight.
        assert_eq!(pe.cells_per_weight, 2);
        assert_eq!(pe.logical_rows(), 256);
        assert_eq!(pe.logical_cols(), 256);
    }
}
