//! The FPSA processing element (PE): composition and cost model.
//!
//! A PE is an ReRAM crossbar surrounded by the simplified spiking peripherals
//! of [`crate::circuits`]. Its logical function is a low-precision
//! vector-matrix multiplication followed by ReLU (Equation 6 of the paper):
//! the input spike counts are multiplied by the stored weight matrix, and the
//! spike subtracters clamp negative results to zero.
//!
//! The cost model composes per-component figures into the Table 1 PE row and
//! the Table 2 comparison against PRIME.

use crate::circuits::{ChargingUnit, CircuitCost, NeuronUnit, SpikeSubtracter};
use crate::reram::CrossbarSpec;
use crate::tech::units;
use serde::{Deserialize, Serialize};

/// Published Table 2 values, kept only for regression tests and reporting.
pub mod published {
    /// FPSA PE area in µm² (Table 2).
    pub const FPSA_PE_AREA_UM2: f64 = 22051.414;
    /// FPSA PE latency for an 8-bit-weight, 6-bit-I/O 256x256 VMM in ns.
    pub const FPSA_PE_LATENCY_NS: f64 = 156.4;
    /// FPSA computational density in TOPS/mm².
    pub const FPSA_DENSITY_TOPS_MM2: f64 = 38.004;
    /// PRIME PE area in µm² (Table 2).
    pub const PRIME_PE_AREA_UM2: f64 = 34802.204;
    /// PRIME PE latency in ns (Table 2).
    pub const PRIME_PE_LATENCY_NS: f64 = 3064.7;
    /// PRIME computational density in TOPS/mm².
    pub const PRIME_DENSITY_TOPS_MM2: f64 = 1.229;
}

/// Full specification of an FPSA processing element.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessingElementSpec {
    /// The physical crossbar geometry (rows x physical columns).
    pub crossbar: CrossbarSpec,
    /// Number of parallel crossbar slices stacked per weight (the *add*
    /// method uses 8 four-bit cells per 8-bit weight).
    pub cells_per_weight: usize,
    /// Row driver model.
    pub charging_unit: ChargingUnit,
    /// Column neuron model.
    pub neuron_unit: NeuronUnit,
    /// Output subtracter model.
    pub subtracter: SpikeSubtracter,
    /// Bits of I/O precision; the sampling window is `2^io_bits` cycles.
    pub io_bits: u32,
    /// Bits of weight precision.
    pub weight_bits: u32,
}

impl ProcessingElementSpec {
    /// The paper's default FPSA PE: 256x512 physical crossbar (256x256
    /// logical), 8 parallel 4-bit cells per weight, 6-bit I/O, 8-bit weights.
    pub fn fpsa_default() -> Self {
        ProcessingElementSpec {
            crossbar: CrossbarSpec::fpsa_256x512(),
            cells_per_weight: 8,
            charging_unit: ChargingUnit::n45(),
            neuron_unit: NeuronUnit::n45(),
            subtracter: SpikeSubtracter::n45(),
            io_bits: 6,
            weight_bits: 8,
        }
    }

    /// Logical rows (inputs) of the PE.
    pub fn logical_rows(&self) -> usize {
        self.crossbar.rows
    }

    /// Logical columns (outputs): two physical columns (positive/negative)
    /// form one logical column.
    pub fn logical_cols(&self) -> usize {
        self.crossbar.cols / 2
    }

    /// The sampling window Γ in cycles (`2^io_bits`).
    pub fn sampling_window(&self) -> u64 {
        1u64 << self.io_bits
    }

    /// The pipeline clock period in ns: the serial path through charging
    /// unit, crossbar RC settling, neuron integration and spike subtraction.
    pub fn clock_period_ns(&self) -> f64 {
        self.charging_unit.latency_ns
            + self.crossbar.rc_delay_ns().min(0.0) // RC delay is treated as negligible (paper §1)
            + self.neuron_unit.latency_ns
            + self.subtracter.latency_ns
    }

    /// Latency of one full vector-matrix multiplication in ns
    /// (sampling window x clock period).
    pub fn vmm_latency_ns(&self) -> f64 {
        self.sampling_window() as f64 * self.clock_period_ns()
    }

    /// Area breakdown of the PE, mirroring Table 1's rows.
    pub fn cost_breakdown(&self) -> PeCostBreakdown {
        let charging = self.charging_unit.cost().replicated(self.crossbar.rows);
        let crossbars = CircuitCost::new(
            self.crossbar.area_um2() * self.cells_per_weight as f64,
            self.crossbar.cycle_energy_pj() * self.cells_per_weight as f64,
            self.crossbar.rc_delay_ns(),
        );
        let neurons = self.neuron_unit.cost().replicated(self.crossbar.cols);
        let subtracters = self.subtracter.cost().replicated(self.crossbar.cols / 2);
        PeCostBreakdown {
            charging_units: charging,
            crossbars,
            neuron_units: neurons,
            subtracters,
        }
    }

    /// Total PE area in µm².
    pub fn area_um2(&self) -> f64 {
        self.cost_breakdown().total().area_um2
    }

    /// Total PE area in mm².
    pub fn area_mm2(&self) -> f64 {
        units::um2_to_mm2(self.area_um2())
    }

    /// Per-cycle dynamic energy in pJ.
    pub fn cycle_energy_pj(&self) -> f64 {
        self.cost_breakdown().total().energy_pj
    }

    /// Number of arithmetic operations performed by one VMM
    /// (a multiply and an add per logical cross point).
    pub fn ops_per_vmm(&self) -> f64 {
        2.0 * self.logical_rows() as f64 * self.logical_cols() as f64
    }

    /// Peak throughput of one PE in operations per second.
    pub fn peak_ops_per_second(&self) -> f64 {
        self.ops_per_vmm() / units::ns_to_s(self.vmm_latency_ns())
    }

    /// Computational density in TOPS per mm² — the headline Table 2 metric.
    pub fn computational_density_tops_per_mm2(&self) -> f64 {
        units::ops_to_tops(self.peak_ops_per_second()) / self.area_mm2()
    }
}

impl Default for ProcessingElementSpec {
    fn default() -> Self {
        Self::fpsa_default()
    }
}

/// The Table 1 style per-component breakdown of one PE.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeCostBreakdown {
    /// All charging units (one per row).
    pub charging_units: CircuitCost,
    /// All crossbar slices (one per cell of the add method).
    pub crossbars: CircuitCost,
    /// All neuron units (one per physical column).
    pub neuron_units: CircuitCost,
    /// All spike subtracters (one per logical column).
    pub subtracters: CircuitCost,
}

impl PeCostBreakdown {
    /// Aggregate cost of the whole PE. Areas and energies add; the latency is
    /// the serial path through one representative of each component.
    pub fn total(&self) -> CircuitCost {
        CircuitCost {
            area_um2: self.charging_units.area_um2
                + self.crossbars.area_um2
                + self.neuron_units.area_um2
                + self.subtracters.area_um2,
            energy_pj: self.charging_units.energy_pj
                + self.crossbars.energy_pj
                + self.neuron_units.energy_pj
                + self.subtracters.energy_pj,
            latency_ns: self.charging_units.latency_ns
                + self.neuron_units.latency_ns
                + self.subtracters.latency_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pe_geometry() {
        let pe = ProcessingElementSpec::fpsa_default();
        assert_eq!(pe.logical_rows(), 256);
        assert_eq!(pe.logical_cols(), 256);
        assert_eq!(pe.sampling_window(), 64);
    }

    #[test]
    fn clock_period_matches_table1() {
        let pe = ProcessingElementSpec::fpsa_default();
        assert!((pe.clock_period_ns() - 2.443).abs() < 1e-9);
    }

    #[test]
    fn vmm_latency_matches_table2() {
        let pe = ProcessingElementSpec::fpsa_default();
        let latency = pe.vmm_latency_ns();
        // 64 cycles x 2.443 ns = 156.35 ns; published as 156.4 ns.
        assert!((latency - published::FPSA_PE_LATENCY_NS).abs() < 0.5);
    }

    #[test]
    fn area_matches_table1_and_table2() {
        let pe = ProcessingElementSpec::fpsa_default();
        let area = pe.area_um2();
        assert!(
            (area - published::FPSA_PE_AREA_UM2).abs() / published::FPSA_PE_AREA_UM2 < 0.01,
            "area {area} should be within 1% of published {}",
            published::FPSA_PE_AREA_UM2
        );
    }

    #[test]
    fn computational_density_matches_table2() {
        let pe = ProcessingElementSpec::fpsa_default();
        let density = pe.computational_density_tops_per_mm2();
        assert!(
            (density - published::FPSA_DENSITY_TOPS_MM2).abs() / published::FPSA_DENSITY_TOPS_MM2
                < 0.02,
            "density {density} should be within 2% of published {}",
            published::FPSA_DENSITY_TOPS_MM2
        );
    }

    #[test]
    fn density_improvement_over_prime_is_about_31x() {
        let pe = ProcessingElementSpec::fpsa_default();
        let improvement =
            pe.computational_density_tops_per_mm2() / published::PRIME_DENSITY_TOPS_MM2;
        assert!(improvement > 28.0 && improvement < 34.0);
    }

    #[test]
    fn breakdown_totals_are_consistent() {
        let pe = ProcessingElementSpec::fpsa_default();
        let b = pe.cost_breakdown();
        let t = b.total();
        assert!((t.area_um2 - pe.area_um2()).abs() < 1e-9);
        assert!((t.energy_pj - pe.cycle_energy_pj()).abs() < 1e-9);
    }

    #[test]
    fn smaller_io_precision_reduces_latency_exponentially() {
        let mut pe = ProcessingElementSpec::fpsa_default();
        let l6 = pe.vmm_latency_ns();
        pe.io_bits = 4;
        let l4 = pe.vmm_latency_ns();
        assert!((l6 / l4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ops_per_vmm_counts_macs_as_two_ops() {
        let pe = ProcessingElementSpec::fpsa_default();
        assert!((pe.ops_per_vmm() - 2.0 * 256.0 * 256.0).abs() < 1e-9);
    }
}
