//! Technology node parameters.
//!
//! The FPSA paper evaluates everything under a 45 nm process and takes its
//! circuit characterization from NVSim (for ReRAM, SRAM, SMB and CLB) and
//! Synopsys Design Compiler (for the remaining peripheral circuits). This
//! module captures the per-node constants those tools would report so that the
//! rest of the stack can scale area/latency/energy consistently.

use serde::{Deserialize, Serialize};

/// The feature size and derived constants of an integrated-circuit process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechnologyNode {
    /// Feature size in nanometres (e.g. 45.0 for the paper's process).
    pub feature_nm: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Area of a 6T SRAM bit cell in square micrometres.
    pub sram_bit_area_um2: f64,
    /// Area of a 1T1R ReRAM cell in square micrometres (4F^2 device plus
    /// access transistor overhead).
    pub reram_cell_area_um2: f64,
    /// Per-millimetre wire delay in nanoseconds (repeated metal wire).
    pub wire_delay_ns_per_mm: f64,
    /// Per-millimetre, per-bit wire energy in picojoules.
    pub wire_energy_pj_per_mm_bit: f64,
}

impl TechnologyNode {
    /// The 45 nm node used throughout the paper's evaluation.
    ///
    /// The SRAM bit cell is the canonical 146 F² 6T cell; together with the
    /// sense-amplifier/decoder overhead modelled in `crate::sram` a 64-bit
    /// macro lands on the 35.129 µm² NVSim figure quoted in the paper. The
    /// ReRAM cell is a 4 F² cross-point device.
    pub fn n45() -> Self {
        TechnologyNode {
            feature_nm: 45.0,
            vdd: 1.0,
            sram_bit_area_um2: 146.0 * 0.045 * 0.045,
            reram_cell_area_um2: 4.0 * 0.045 * 0.045,
            wire_delay_ns_per_mm: 0.131,
            wire_energy_pj_per_mm_bit: 0.064,
        }
    }
}

impl Default for TechnologyNode {
    fn default() -> Self {
        Self::n45()
    }
}

/// Unit helpers used across the crate.
pub mod units {
    /// Convert square micrometres to square millimetres.
    pub fn um2_to_mm2(um2: f64) -> f64 {
        um2 * 1e-6
    }

    /// Convert nanoseconds to seconds.
    pub fn ns_to_s(ns: f64) -> f64 {
        ns * 1e-9
    }

    /// Convert operations-per-second to tera-operations-per-second.
    pub fn ops_to_tops(ops: f64) -> f64 {
        ops * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n45_cell_areas_are_physically_sensible() {
        let t = TechnologyNode::n45();
        // 146 F^2 SRAM bit cell and 4 F^2 ReRAM cell at 45 nm.
        assert!((t.sram_bit_area_um2 - 0.295_65).abs() < 1e-3);
        assert!((t.reram_cell_area_um2 - 0.0081).abs() < 1e-6);
        // An SRAM bit is more than an order of magnitude larger than ReRAM.
        assert!(t.sram_bit_area_um2 / t.reram_cell_area_um2 > 10.0);
    }

    #[test]
    fn default_is_45nm() {
        assert_eq!(TechnologyNode::default(), TechnologyNode::n45());
    }

    #[test]
    fn unit_conversions_round_trip() {
        use units::*;
        assert!((um2_to_mm2(123.0) - 123e-6).abs() < 1e-18);
        assert!((ns_to_s(1.0) - 1e-9).abs() < 1e-20);
        assert!((ops_to_tops(1e12) - 1.0).abs() < 1e-12);
    }
}
