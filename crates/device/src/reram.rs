//! ReRAM cell and crossbar models.
//!
//! A ReRAM (resistive RAM) cell stores information in its conductance. A
//! crossbar of such cells computes an analog vector-matrix multiplication in
//! place: an input voltage vector applied to the rows produces, on each
//! column, a current equal to the dot product of the inputs with that
//! column's conductances (`I = G V`, Figure 1 of the paper).
//!
//! The FPSA PE uses a 256x512 physical crossbar (two physical columns per
//! logical column for the positive/negative weight split) and stacks eight
//! 4-bit cells per weight, summed in parallel (the *add* method), to realise
//! an 8-bit weight with low effective variation.

use crate::tech::TechnologyNode;
use serde::{Deserialize, Serialize};

/// A multi-level ReRAM cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReramCell {
    /// Number of programmable conductance levels (16 for the paper's 4-bit cell).
    pub levels: u32,
    /// Minimum (off-state) conductance in siemens.
    pub g_min: f64,
    /// Maximum (on-state) conductance in siemens.
    pub g_max: f64,
    /// Write endurance in programming cycles (~1e12 for ReRAM, the reason the
    /// paper keeps SRAM for buffers).
    pub endurance_writes: f64,
}

impl ReramCell {
    /// The 4-bit (16 level) cell used by the FPSA configuration.
    pub fn four_bit() -> Self {
        ReramCell {
            levels: 16,
            g_min: 1.0 / 1_000_000.0,
            g_max: 1.0 / 10_000.0,
            endurance_writes: 1e12,
        }
    }
}

impl Default for ReramCell {
    fn default() -> Self {
        Self::four_bit()
    }
}

/// Geometry and cost model of an ReRAM crossbar array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossbarSpec {
    /// Number of rows (inputs).
    pub rows: usize,
    /// Number of physical columns (outputs).
    pub cols: usize,
    /// The cell technology used at every cross point.
    pub cell: ReramCell,
    /// Technology node for area scaling.
    pub tech: TechnologyNode,
}

impl CrossbarSpec {
    /// The paper's 256x512 physical crossbar at 45 nm with 4-bit cells.
    pub fn fpsa_256x512() -> Self {
        CrossbarSpec {
            rows: 256,
            cols: 512,
            cell: ReramCell::four_bit(),
            tech: TechnologyNode::n45(),
        }
    }

    /// Number of cells in the array.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Array area in µm² (cell-dominated; the peripherals are modelled
    /// separately in [`crate::circuits`]).
    pub fn area_um2(&self) -> f64 {
        self.cell_count() as f64 * self.tech.reram_cell_area_um2
    }

    /// Dynamic energy of one charging cycle over the whole array, in pJ.
    ///
    /// Calibrated so that the paper's 256x512 array dissipates 0.131 pJ per
    /// cycle (Table 1).
    pub fn cycle_energy_pj(&self) -> f64 {
        0.131 * self.cell_count() as f64 / (256.0 * 512.0)
    }

    /// The resistive-capacitive settling delay of the array in ns. The paper
    /// treats it as negligible (~10 ps for a 100x100 array); we scale it with
    /// the larger array dimension but it stays well below the neuron latency.
    pub fn rc_delay_ns(&self) -> f64 {
        0.01 * (self.rows.max(self.cols) as f64 / 100.0)
    }
}

impl Default for CrossbarSpec {
    fn default() -> Self {
        Self::fpsa_256x512()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_cell_has_16_levels_and_4_bits() {
        let c = ReramCell::four_bit();
        assert_eq!(c.levels, 16);
        assert_eq!(c.levels.ilog2(), 4);
    }

    #[test]
    fn fpsa_crossbar_area_matches_table1() {
        let xb = CrossbarSpec::fpsa_256x512();
        // Table 1: 1061.683 um^2 for a 256x512 array of 4F^2 cells.
        assert!((xb.area_um2() - 1061.683).abs() < 1.0);
    }

    #[test]
    fn crossbar_cycle_energy_matches_table1() {
        let xb = CrossbarSpec::fpsa_256x512();
        assert!((xb.cycle_energy_pj() - 0.131).abs() < 1e-9);
    }

    #[test]
    fn crossbar_rc_delay_is_negligible() {
        let xb = CrossbarSpec::fpsa_256x512();
        assert!(xb.rc_delay_ns() < 0.1);
    }
}
