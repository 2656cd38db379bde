//! The timing-driven physical-design engine for the FPSA fabric.
//!
//! The last step of the FPSA software stack (Section 5.3 of the paper) places
//! the function-block netlist onto physical fabric slots and configures the
//! connection and switch boxes so that every net gets a dedicated path. The
//! engine mirrors the mature FPGA tool-chain the paper adopts (mrVPR):
//!
//! * [`place`] — incremental simulated-annealing placer: cached per-net
//!   bounding boxes, criticality-weighted HPWL, adaptive cooling, and a
//!   [`PlacementQuality`] trajectory report.
//! * [`route`] — PathFinder negotiated-congestion router: iterative
//!   rip-up-and-reroute with history + present-congestion costs, per-net
//!   multicast routing trees, parallel route waves, and a
//!   minimum-channel-width search.
//! * [`timing`] — per-connection delay profiles of the routed design; the
//!   critical connection becomes the communication term of the pipeline
//!   clock.

pub mod place;
pub mod route;
pub mod timing;

pub use place::{AnnealStep, Placement, PlacementQuality, Placer, PlacerConfig, WarmStart};
pub use route::{Orientation, RouteEdge, Router, RouterConfig, RoutingResult, RoutingTree};
pub use timing::TimingReport;

use fpsa_arch::{ArchitectureConfig, Fabric};
use fpsa_mapper::Netlist;

/// The fabric a netlist needs: sized so that every block (PEs, SMBs and
/// CLBs) has a slot. This is the single sizing policy shared by the
/// standalone flow below and the compile pipeline's PlaceRoute stage.
pub fn fabric_for(netlist: &Netlist, config: &ArchitectureConfig) -> Fabric {
    let stats = netlist.stats();
    Fabric::with_pe_count(config.clone(), netlist.len().max(stats.pe_count).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_mapper::{AllocationPolicy, Mapper};
    use fpsa_nn::zoo;
    use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};

    #[test]
    fn full_flow_runs_on_lenet() {
        let graph = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(&zoo::lenet())
            .unwrap();
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&graph);
        let config = ArchitectureConfig::fpsa();
        let fabric = fabric_for(&mapping.netlist, &config);
        let placement = Placer::new(PlacerConfig::fast()).place(&mapping.netlist, &fabric);
        let routing = Router::with_config(config.routing, RouterConfig::negotiated())
            .route(&mapping.netlist, &placement);
        let timing = TimingReport::analyze(&routing, &config.routing);
        assert_eq!(placement.positions().len(), mapping.netlist.len());
        assert_eq!(routing.nets_routed, mapping.netlist.nets().len());
        assert!(timing.critical_delay_ns > 0.0);
        assert!(
            timing.critical_delay_ns < 100.0,
            "critical path should be nanoseconds"
        );
        assert_eq!(
            timing.connection_delays_ns.len(),
            mapping.netlist.connection_count()
        );
    }
}
