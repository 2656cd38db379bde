//! The reconfigurable routing architecture.
//!
//! FPSA adopts the island-style FPGA routing architecture: every function
//! block connects to its neighbouring horizontal and vertical channels
//! through connection boxes (CBs), and channels connect at their crossings
//! through switch boxes (SBs). Following mrFPGA, the programmable switches
//! are ReRAM cells placed above the function blocks in metal layers M5–M9, so
//! the routing network adds configuration state and delay but almost no
//! silicon footprint.
//!
//! Unlike a bus or NoC, every signal gets its own statically configured
//! channel, so bandwidth scales with wiring and the worst-case latency is
//! known at configuration time.

use serde::{Deserialize, Serialize};

/// Parameters of the routing fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutingArchitecture {
    /// Number of tracks per routing channel.
    pub channel_width: usize,
    /// Wire segment length in blocks (1 = single-block segments).
    pub segment_length: usize,
    /// Delay of one ReRAM switch-box crossing in ns.
    pub switch_delay_ns: f64,
    /// Delay of a connection-box entry/exit in ns.
    pub connection_delay_ns: f64,
    /// Wire delay per block pitch in ns (driven by the block footprint and
    /// the per-mm wire delay of the technology).
    pub wire_delay_per_block_ns: f64,
}

impl RoutingArchitecture {
    /// The mrFPGA-style routing fabric used by FPSA, sized for the high
    /// fan-in/out of ReRAM PEs (512 pins per block).
    pub fn fpsa_default() -> Self {
        RoutingArchitecture {
            channel_width: 512,
            segment_length: 1,
            switch_delay_ns: 0.12,
            connection_delay_ns: 0.10,
            wire_delay_per_block_ns: 0.02,
        }
    }

    /// Per-hop delay (one segment plus one switch box) in ns.
    pub fn hop_delay_ns(&self) -> f64 {
        self.wire_delay_per_block_ns * self.segment_length as f64 + self.switch_delay_ns
    }

    /// Delay of a routed path with the given number of block hops, in ns:
    /// source connection box, `hops` segments/switches, sink connection box.
    pub fn path_delay_ns(&self, hops: usize) -> f64 {
        2.0 * self.connection_delay_ns + hops as f64 * self.hop_delay_ns()
    }

    /// Area of the per-tile routing circuitry that cannot be stacked above
    /// the block (the switch drivers), in µm². mrFPGA places the ReRAM
    /// switches in the metal stack; the remaining driver overhead is modelled as a
    /// small per-track cost.
    pub fn driver_area_um2_per_tile(&self) -> f64 {
        0.6 * self.channel_width as f64
    }
}

impl Default for RoutingArchitecture {
    fn default() -> Self {
        Self::fpsa_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sized_for_pe_fanout() {
        let r = RoutingArchitecture::fpsa_default();
        assert!(r.channel_width >= 512);
    }

    #[test]
    fn hop_delay_combines_wire_and_switch() {
        let r = RoutingArchitecture::fpsa_default();
        assert!((r.hop_delay_ns() - (r.wire_delay_per_block_ns + r.switch_delay_ns)).abs() < 1e-12);
    }

    #[test]
    fn path_delay_is_monotone_in_hops() {
        let r = RoutingArchitecture::fpsa_default();
        assert!(r.path_delay_ns(10) > r.path_delay_ns(5));
        assert!((r.path_delay_ns(0) - 2.0 * r.connection_delay_ns).abs() < 1e-12);
    }

    #[test]
    fn typical_critical_paths_are_nanoseconds_not_microseconds() {
        // Figure 7 reports per-value transfer latencies around 10 ns on the
        // routed fabric; a few tens of hops must land in that range.
        let r = RoutingArchitecture::fpsa_default();
        let d = r.path_delay_ns(60);
        assert!(d > 2.0 && d < 20.0, "path delay {d}");
    }

    #[test]
    fn driver_area_stays_small_relative_to_a_pe() {
        let r = RoutingArchitecture::fpsa_default();
        // A PE is ~22,000 um^2; the per-tile routing drivers must stay well
        // below that for the "routing stacked over blocks" assumption to hold.
        assert!(r.driver_area_um2_per_tile() < 2000.0);
    }
}
