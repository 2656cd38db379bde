//! Peripheral circuit component models of the FPSA processing element.
//!
//! The FPSA PE replaces the DAC/ADC peripherals of prior ReRAM accelerators
//! with three much simpler circuits (Figure 4 of the paper):
//!
//! * a [`ChargingUnit`] per crossbar row — a single transistor that applies
//!   the charging voltage when the 1-bit input spike is high,
//! * a [`NeuronUnit`] per crossbar column — an analog integrate-and-fire
//!   neuron (capacitor, comparator, S-R latch and discharging path),
//! * a [`SpikeSubtracter`] per logical output — subtracts the spike train of
//!   the negative column from the positive column.
//!
//! Every component exposes its area (µm²), per-cycle dynamic energy (pJ) and
//! its contribution to the PE's pipeline clock period (ns). The aggregates of
//! Table 1 are recovered by composing these models in [`crate::pe`].

use serde::{Deserialize, Serialize};

/// Area/energy/latency triple reported by every circuit component.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CircuitCost {
    /// Silicon area in square micrometres.
    pub area_um2: f64,
    /// Dynamic energy per activation in picojoules.
    pub energy_pj: f64,
    /// Latency contribution in nanoseconds.
    pub latency_ns: f64,
}

impl CircuitCost {
    /// Create a new cost triple.
    pub fn new(area_um2: f64, energy_pj: f64, latency_ns: f64) -> Self {
        CircuitCost {
            area_um2,
            energy_pj,
            latency_ns,
        }
    }

    /// Replicate this component `n` times (areas and energies add, the
    /// latency stays that of a single instance because replicas operate in
    /// parallel).
    pub fn replicated(&self, n: usize) -> CircuitCost {
        CircuitCost {
            area_um2: self.area_um2 * n as f64,
            energy_pj: self.energy_pj * n as f64,
            latency_ns: self.latency_ns,
        }
    }
}

/// The single-transistor row driver of the FPSA PE.
///
/// Because the input spike is a 1-bit digital signal, the conventional DAC is
/// reduced to one pass transistor per row that connects the charging voltage
/// to the row wire while the spike is high.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargingUnit {
    /// Area in µm² (Synopsys DC characterization at 45 nm).
    pub area_um2: f64,
    /// Energy per charging pulse in pJ.
    pub energy_pj: f64,
    /// Switching latency contribution in ns.
    pub latency_ns: f64,
}

impl ChargingUnit {
    /// Per-unit parameters calibrated so that 256 charging units reproduce
    /// the Table 1 aggregate (600.704 µm², 0.229 pJ).
    pub fn n45() -> Self {
        ChargingUnit {
            area_um2: 600.704 / 256.0,
            energy_pj: 0.229 / 256.0,
            latency_ns: 0.070,
        }
    }

    /// Cost triple of one charging unit.
    pub fn cost(&self) -> CircuitCost {
        CircuitCost::new(self.area_um2, self.energy_pj, self.latency_ns)
    }
}

impl Default for ChargingUnit {
    fn default() -> Self {
        Self::n45()
    }
}

/// The analog integrate-and-fire neuron attached to each crossbar column.
///
/// It integrates the column current on a capacitor, fires a digital spike
/// (stored in an S-R latch) when the threshold voltage is reached and then
/// discharges back to the reset voltage. A reset signal clears the internal
/// state at the start of every sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeuronUnit {
    /// Area in µm².
    pub area_um2: f64,
    /// Energy per integrate-and-fire cycle in pJ.
    pub energy_pj: f64,
    /// Integrate + fire latency contribution in ns.
    pub latency_ns: f64,
}

impl NeuronUnit {
    /// Per-unit parameters from Table 1 (19.247 µm², 0.039 pJ, 1.463 ns).
    pub fn n45() -> Self {
        NeuronUnit {
            area_um2: 9854.342 / 512.0,
            energy_pj: 19.861 / 512.0,
            latency_ns: 1.463,
        }
    }

    /// Cost triple of one neuron unit.
    pub fn cost(&self) -> CircuitCost {
        CircuitCost::new(self.area_um2, self.energy_pj, self.latency_ns)
    }
}

impl Default for NeuronUnit {
    fn default() -> Self {
        Self::n45()
    }
}

/// The spike subtracter that merges a positive and a negative column.
///
/// Spikes arriving from the negative neuron block the next spike of the
/// positive neuron, so the output spike count is `max(Y+ - Y-, 0)` — exactly
/// the ReLU of the signed dot product (Equation 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikeSubtracter {
    /// Area in µm².
    pub area_um2: f64,
    /// Energy per subtraction event in pJ.
    pub energy_pj: f64,
    /// Latency contribution in ns.
    pub latency_ns: f64,
}

impl SpikeSubtracter {
    /// Per-unit parameters from Table 1 (12.121 µm², 0.031 pJ, 0.910 ns).
    pub fn n45() -> Self {
        SpikeSubtracter {
            area_um2: 3102.902 / 256.0,
            energy_pj: 8.945 / 256.0,
            latency_ns: 0.910,
        }
    }

    /// Cost triple of one subtracter.
    pub fn cost(&self) -> CircuitCost {
        CircuitCost::new(self.area_um2, self.energy_pj, self.latency_ns)
    }
}

impl Default for SpikeSubtracter {
    fn default() -> Self {
        Self::n45()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_scales_area_and_energy_only() {
        let c = CircuitCost::new(2.0, 0.5, 1.0).replicated(4);
        assert!((c.area_um2 - 8.0).abs() < 1e-12);
        assert!((c.energy_pj - 2.0).abs() < 1e-12);
        assert!((c.latency_ns - 1.0).abs() < 1e-12);
    }

    #[test]
    fn charging_units_aggregate_matches_table1() {
        let agg = ChargingUnit::n45().cost().replicated(256);
        assert!((agg.area_um2 - 600.704).abs() < 1e-6);
        assert!((agg.energy_pj - 0.229).abs() < 1e-6);
    }

    #[test]
    fn neuron_units_aggregate_matches_table1() {
        let agg = NeuronUnit::n45().cost().replicated(512);
        assert!((agg.area_um2 - 9854.342).abs() < 1e-6);
        assert!((agg.energy_pj - 19.861).abs() < 1e-6);
    }

    #[test]
    fn subtracters_aggregate_matches_table1() {
        let agg = SpikeSubtracter::n45().cost().replicated(256);
        assert!((agg.area_um2 - 3102.902).abs() < 1e-6);
        assert!((agg.energy_pj - 8.945).abs() < 1e-6);
    }

    #[test]
    fn pipeline_clock_components_sum_to_2_443ns() {
        let clock = ChargingUnit::n45().latency_ns
            + NeuronUnit::n45().latency_ns
            + SpikeSubtracter::n45().latency_ns;
        assert!((clock - 2.443).abs() < 1e-9);
    }
}
