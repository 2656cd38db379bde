//! The configurable logic block (CLB).
//!
//! CLBs provide the programmable control logic of the FPSA fabric: they
//! generate the reset/select/enable signals that sequence PEs and SMBs
//! through the schedule produced by the spatial-to-temporal mapper. Each CLB
//! bundles SRAM-based 6-input LUTs with flip-flops and multiplexers; the
//! paper integrates 128 LUTs per CLB so that a CLB's area and pin count are
//! comparable to one PE.

use crate::sram::SramMacro;
use serde::{Deserialize, Serialize};

/// Specification of one configurable logic block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigurableLogicBlockSpec {
    /// Number of 6-input LUTs in the block (128 in the paper's configuration).
    pub lut_count: usize,
    /// The SRAM macro backing each LUT (64 bits for a 6-input LUT).
    pub lut_sram: SramMacro,
    /// Area of the flip-flop + multiplexer logic attached to each LUT, in µm².
    pub per_lut_logic_area_um2: f64,
    /// LUT evaluation latency in ns.
    pub lut_latency_ns: f64,
    /// Dynamic energy per active cycle in pJ.
    pub cycle_energy_pj: f64,
}

impl ConfigurableLogicBlockSpec {
    /// The paper's 128-LUT CLB, calibrated to Table 1
    /// (5998.272 µm², 0.229 ns, 3.106 pJ).
    pub fn fpsa_128lut() -> Self {
        let lut_sram = SramMacro::lut64();
        let lut_count = 128;
        let per_lut_logic = (5998.272 - lut_count as f64 * lut_sram.area_um2()) / lut_count as f64;
        ConfigurableLogicBlockSpec {
            lut_count,
            lut_sram,
            per_lut_logic_area_um2: per_lut_logic,
            lut_latency_ns: 0.229,
            cycle_energy_pj: 3.106,
        }
    }

    /// Total CLB area in µm².
    pub fn area_um2(&self) -> f64 {
        self.lut_count as f64 * (self.lut_sram.area_um2() + self.per_lut_logic_area_um2)
    }

    /// Evaluation latency in ns.
    pub fn latency_ns(&self) -> f64 {
        self.lut_latency_ns
    }
}

impl Default for ConfigurableLogicBlockSpec {
    fn default() -> Self {
        Self::fpsa_128lut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clb_area_matches_table1() {
        let clb = ConfigurableLogicBlockSpec::fpsa_128lut();
        assert!((clb.area_um2() - 5998.272).abs() < 1e-6);
    }

    #[test]
    fn clb_latency_and_energy_match_table1() {
        let clb = ConfigurableLogicBlockSpec::fpsa_128lut();
        assert!((clb.latency_ns() - 0.229).abs() < 1e-12);
        assert!((clb.cycle_energy_pj - 3.106).abs() < 1e-12);
    }
}
