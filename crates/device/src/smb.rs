//! The spiking memory block (SMB).
//!
//! SMBs are the on-chip buffers of the FPSA fabric. To keep the buffer area
//! small they store only spike *counts*; spike counters at the inputs and
//! spike generators at the outputs convert between spike trains on the
//! routing fabric and counts in the SRAM array. The internal memory is
//! bit-indexed so that any sampling-window size 2^n can be packed as n-bit
//! entries. SRAM (not ReRAM) is used because buffer traffic would exhaust
//! ReRAM's ~1e12 write endurance.

use crate::sram::SramMacro;
use serde::{Deserialize, Serialize};

/// Specification of one spiking memory block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikingMemoryBlockSpec {
    /// The backing SRAM macro.
    pub sram: SramMacro,
    /// Number of spike-counter / spike-generator port pairs.
    pub ports: usize,
    /// Area of one counter + generator pair in µm².
    pub port_circuit_area_um2: f64,
    /// Extra latency of the count/generate conversion in ns.
    pub port_latency_ns: f64,
    /// Energy of one buffered value (count write + spike regeneration) in pJ.
    pub access_energy_pj: f64,
}

impl SpikingMemoryBlockSpec {
    /// The paper's 16 Kb SMB. The port circuitry is calibrated so the block
    /// totals the Table 1 figures (5421.9 µm², 0.578 ns, 1.150 pJ).
    pub fn fpsa_16kb() -> Self {
        let sram = SramMacro::kb16();
        let ports = 4;
        let remaining_area = 5421.900 - sram.area_um2();
        SpikingMemoryBlockSpec {
            sram,
            ports,
            port_circuit_area_um2: remaining_area / ports as f64,
            port_latency_ns: 0.578 - sram.access_latency_ns(),
            access_energy_pj: 1.150,
        }
    }

    /// Total block area in µm².
    pub fn area_um2(&self) -> f64 {
        self.sram.area_um2() + self.ports as f64 * self.port_circuit_area_um2
    }

    /// Access latency in ns (SRAM access plus count/spike conversion).
    pub fn access_latency_ns(&self) -> f64 {
        self.sram.access_latency_ns() + self.port_latency_ns
    }
}

impl Default for SpikingMemoryBlockSpec {
    fn default() -> Self {
        Self::fpsa_16kb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smb_area_matches_table1() {
        let smb = SpikingMemoryBlockSpec::fpsa_16kb();
        assert!((smb.area_um2() - 5421.900).abs() < 1e-6);
    }

    #[test]
    fn smb_latency_matches_table1() {
        let smb = SpikingMemoryBlockSpec::fpsa_16kb();
        assert!((smb.access_latency_ns() - 0.578).abs() < 1e-9);
    }

    #[test]
    fn sram_macro_endurance_motivation_holds() {
        // ReRAM endurance is finite; SRAM is effectively unlimited for buffer
        // purposes — the block must therefore be SRAM-backed and its area
        // model must come from the SRAM macro model.
        let smb = SpikingMemoryBlockSpec::fpsa_16kb();
        let standalone = SramMacro::kb16();
        assert!(smb.area_um2() > standalone.area_um2());
    }
}
