//! Timing analysis of a routed design.
//!
//! The routed trees combined with the routing-architecture delay model give a
//! **per-connection delay profile**: one delay per (net, sink) connection,
//! not just a single critical-hop scalar. The critical path (the slowest
//! connection) becomes the communication term of the pipeline clock — in
//! FPSA each transferred bit must traverse it once per cycle, so the
//! per-value communication latency is `bits_per_value × critical_delay` —
//! while the profile's mean feeds latency estimates and its quantiles
//! describe how balanced the routed fabric is.

use crate::route::RoutingResult;
use fpsa_arch::RoutingArchitecture;
use serde::{Deserialize, Serialize};

/// The timing summary of a routed netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Delay of every (net, sink) connection in ns, in routed order.
    pub connection_delays_ns: Vec<f64>,
    /// Longest connection in block hops.
    pub critical_hops: usize,
    /// Delay of the critical connection in ns.
    pub critical_delay_ns: f64,
    /// Mean over the per-connection delays in ns (not the delay of the
    /// rounded mean hop count — fractional hop averages stay fractional).
    pub average_delay_ns: f64,
    /// Whether the design routed within the channel capacity.
    pub routable: bool,
}

impl TimingReport {
    /// Analyze a routing result under a routing architecture.
    pub fn analyze(routing: &RoutingResult, arch: &RoutingArchitecture) -> Self {
        let connection_delays_ns: Vec<f64> = routing
            .connection_hops
            .iter()
            .map(|&hops| arch.path_delay_ns(hops))
            .collect();
        let critical_hops = routing.critical_hops();
        let average_delay_ns = if connection_delays_ns.is_empty() {
            arch.path_delay_ns(0)
        } else {
            connection_delays_ns.iter().sum::<f64>() / connection_delays_ns.len() as f64
        };
        TimingReport {
            critical_hops,
            critical_delay_ns: arch.path_delay_ns(critical_hops),
            average_delay_ns,
            connection_delays_ns,
            routable: routing.is_routable(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routing_with_hops(hops: Vec<usize>) -> RoutingResult {
        RoutingResult {
            connection_hops: hops,
            peak_channel_occupancy: 10,
            channel_width: 512,
            ..Default::default()
        }
    }

    #[test]
    fn critical_delay_uses_the_longest_connection() {
        let arch = RoutingArchitecture::fpsa_default();
        let report = TimingReport::analyze(&routing_with_hops(vec![3, 50, 10]), &arch);
        assert_eq!(report.critical_hops, 50);
        assert!((report.critical_delay_ns - arch.path_delay_ns(50)).abs() < 1e-12);
        assert!(report.average_delay_ns <= report.critical_delay_ns);
        assert!(report.routable);
    }

    #[test]
    fn average_delay_is_the_mean_of_the_profile_not_a_rounded_hop_count() {
        // Regression: hop counts [1, 2] average 1.5 hops; the old
        // implementation rounded that to path_delay_ns(2). The average delay
        // must be the mean over per-connection delays instead.
        let arch = RoutingArchitecture::fpsa_default();
        let report = TimingReport::analyze(&routing_with_hops(vec![1, 2]), &arch);
        let expected = (arch.path_delay_ns(1) + arch.path_delay_ns(2)) / 2.0;
        assert!(
            (report.average_delay_ns - expected).abs() < 1e-12,
            "average {} vs mean of profile {}",
            report.average_delay_ns,
            expected
        );
        let rounded = arch.path_delay_ns(2);
        assert!(
            (report.average_delay_ns - rounded).abs() > 1e-3,
            "average must not quantize to the rounded hop count"
        );
    }

    #[test]
    fn profile_has_one_delay_per_connection() {
        let arch = RoutingArchitecture::fpsa_default();
        let report = TimingReport::analyze(&routing_with_hops(vec![3, 7, 11, 2]), &arch);
        assert_eq!(report.connection_delays_ns.len(), 4);
        for (delay, hops) in report.connection_delays_ns.iter().zip([3usize, 7, 11, 2]) {
            assert!((delay - arch.path_delay_ns(hops)).abs() < 1e-12);
        }
    }

    #[test]
    fn unroutable_designs_are_flagged() {
        let arch = RoutingArchitecture::fpsa_default();
        let mut routing = routing_with_hops(vec![5]);
        routing.peak_channel_occupancy = 1000;
        let report = TimingReport::analyze(&routing, &arch);
        assert!(!report.routable);
    }

    #[test]
    fn empty_profiles_degrade_to_the_zero_hop_delay() {
        let arch = RoutingArchitecture::fpsa_default();
        let report = TimingReport::analyze(&routing_with_hops(vec![]), &arch);
        assert!((report.average_delay_ns - arch.path_delay_ns(0)).abs() < 1e-12);
        assert_eq!(report.critical_hops, 0);
    }
}
