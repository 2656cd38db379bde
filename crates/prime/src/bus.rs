//! The shared memory bus of PRIME.
//!
//! PRIME's PEs live inside a ReRAM main-memory chip and exchange activations
//! over the chip's hierarchical memory bus. All PEs share its bandwidth, so
//! once the per-PE compute time has been slashed by the crossbars, the bus
//! becomes the system bottleneck (Section 3 of the paper).

use serde::{Deserialize, Serialize};

/// A shared memory bus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBus {
    /// Aggregate bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Arbitration / protocol overhead per transfer in ns.
    pub arbitration_ns: f64,
}

impl MemoryBus {
    /// PRIME's internal memory bus as configured for the comparison.
    pub fn prime_default() -> Self {
        MemoryBus {
            bandwidth_gbps: 32.0,
            arbitration_ns: 10.0,
        }
    }

    /// Time to move `bytes` bytes across the bus, in ns, ignoring contention.
    pub fn transfer_ns(&self, bytes: f64) -> f64 {
        self.arbitration_ns + bytes / self.bandwidth_gbps
    }

    /// Time for the bus to carry one inference worth of activation traffic,
    /// in ns: `values` activations of `bits` bits each, written once and read
    /// once (producer to buffer, buffer to consumer).
    pub fn sample_transfer_ns(&self, values: f64, bits: u32) -> f64 {
        let bytes = values * bits as f64 / 8.0 * 2.0;
        self.transfer_ns(bytes)
    }
}

impl Default for MemoryBus {
    fn default() -> Self {
        Self::prime_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly_with_bytes() {
        let bus = MemoryBus::prime_default();
        let t1 = bus.transfer_ns(32.0);
        let t2 = bus.transfer_ns(64.0);
        assert!(t2 > t1);
        assert!((t2 - bus.arbitration_ns) / (t1 - bus.arbitration_ns) - 2.0 < 1e-9);
    }

    #[test]
    fn sample_transfer_counts_write_and_read() {
        let bus = MemoryBus {
            bandwidth_gbps: 1.0,
            arbitration_ns: 0.0,
        };
        // 1000 values x 8 bits = 1000 bytes, doubled = 2000 bytes at 1 GB/s.
        assert!((bus.sample_transfer_ns(1000.0, 8) - 2000.0).abs() < 1e-9);
    }
}
