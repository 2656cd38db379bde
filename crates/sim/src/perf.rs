//! The pipeline performance simulator.
//!
//! A mapped model runs as a pipeline of function blocks: each group's PE(s)
//! execute their core-ops in `iterations` back-to-back sampling windows, and
//! every produced value crosses the communication fabric to its consumers.
//! Throughput is bounded by the slowest pipeline stage; end-to-end latency is
//! the scheduled depth of the whole graph. This module turns a mapping plus a
//! communication estimate into the numbers reported by Figures 6–8 and
//! Table 3.

use fpsa_arch::{ArchitectureConfig, CommunicationStyle};
use fpsa_device::clb::ConfigurableLogicBlockSpec;
use fpsa_device::smb::SpikingMemoryBlockSpec;
use fpsa_mapper::Mapping;
use fpsa_placeroute::TimingReport;
use fpsa_synthesis::CoreOpGraph;
use serde::{Deserialize, Serialize};

/// How the per-value communication cost is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CommunicationEstimate {
    /// Values travel over the routed fabric whose per-connection delay
    /// profile is known (from real place & route or from the analytic wire
    /// model). The critical connection clocks the pipeline; the profile mean
    /// is what a typical value actually pays.
    Routed {
        /// Critical-path delay of one bit, in ns.
        critical_path_ns: f64,
        /// Mean per-connection delay of one bit, in ns.
        average_path_ns: f64,
    },
    /// Values share a memory bus of the given bandwidth.
    Bus {
        /// Aggregate bus bandwidth in GB/s.
        bandwidth_gbps: f64,
    },
    /// Communication is free (the "ideal" curves of Figures 2 and 6).
    Ideal,
}

impl CommunicationEstimate {
    /// Build the estimate from a real timing report: the full per-connection
    /// delay profile collapses to its max and mean.
    pub fn from_timing(timing: &TimingReport) -> Self {
        CommunicationEstimate::Routed {
            critical_path_ns: timing.critical_delay_ns,
            average_path_ns: timing.average_delay_ns,
        }
    }

    /// The analytic estimate used when running full place & route is not
    /// practical (ImageNet-scale netlists): the critical path scales with the
    /// perimeter of the fabric region occupied by the netlist, and a typical
    /// connection crosses about half the critical distance.
    pub fn analytic(config: &ArchitectureConfig, block_count: usize) -> Self {
        match config.communication {
            CommunicationStyle::MemoryBus { bandwidth_gbps } => {
                CommunicationEstimate::Bus { bandwidth_gbps }
            }
            CommunicationStyle::Routed { .. } => {
                let side = (block_count as f64).sqrt().ceil().max(1.0);
                // Routed nets span a fraction of the die; after placement the
                // critical net crosses roughly half the fabric side.
                let hops = (side * 0.5).ceil() as usize;
                CommunicationEstimate::Routed {
                    critical_path_ns: config.routing.path_delay_ns(hops),
                    average_path_ns: config.routing.path_delay_ns(hops.div_ceil(2)),
                }
            }
        }
    }
}

/// The output of the performance simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerformanceReport {
    /// Sustained throughput in samples per second.
    pub throughput_samples_per_s: f64,
    /// End-to-end latency of one sample in microseconds.
    pub latency_us: f64,
    /// Sustained performance in operations per second.
    pub ops_per_second: f64,
    /// Total silicon area in mm².
    pub area_mm2: f64,
    /// Computational density in OPS/mm².
    pub ops_per_mm2: f64,
    /// Average computation latency of one PE invocation in ns (Figure 7).
    pub compute_ns_per_vmm: f64,
    /// Communication latency of one PE invocation over the critical routed
    /// connection in ns (Figure 7; this is what clocks the pipeline).
    pub communication_ns_per_vmm: f64,
    /// Communication latency of one PE invocation over a *typical* routed
    /// connection in ns — the mean of the per-connection delay profile. This
    /// is the cost that end-to-end latency accumulates.
    pub communication_avg_ns_per_vmm: f64,
    /// Pipeline period in ns.
    pub pipeline_period_ns: f64,
    /// Number of PEs used.
    pub pe_count: usize,
}

/// The pipeline performance simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceSimulator {
    config: ArchitectureConfig,
}

impl PerformanceSimulator {
    /// Create a simulator for an architecture configuration.
    pub fn new(config: ArchitectureConfig) -> Self {
        PerformanceSimulator { config }
    }

    /// The architecture being simulated.
    pub fn config(&self) -> &ArchitectureConfig {
        &self.config
    }

    /// Evaluate a mapped model.
    pub fn evaluate(
        &self,
        graph: &CoreOpGraph,
        mapping: &Mapping,
        comm: CommunicationEstimate,
    ) -> PerformanceReport {
        let stats = mapping.netlist.stats();
        let pe_count = stats.pe_count.max(1);
        let total_ops = graph.total_ops() as f64;
        let total_core_ops = graph.total_core_ops().max(1) as f64;

        // Computation: one VMM per core-op.
        let compute_ns_per_vmm = self.config.pe.vmm_latency_ns;

        // Communication: per-value transfer cost, then per-VMM cost. The
        // critical connection clocks the pipeline; the profile mean is what a
        // typical value pays on its way through the fabric.
        let values_per_vmm = self.config.pe.cols as f64;
        let (communication_ns_per_vmm, communication_avg_ns_per_vmm) = match comm {
            CommunicationEstimate::Ideal => (0.0, 0.0),
            CommunicationEstimate::Routed {
                critical_path_ns,
                average_path_ns,
            } => {
                let bits = match self.config.communication {
                    CommunicationStyle::Routed { bits_per_value } => bits_per_value as f64,
                    CommunicationStyle::MemoryBus { .. } => self.config.io_bits as f64,
                };
                // All output values of a VMM leave on parallel routed wires;
                // the serialized bits of one value pay the path delay.
                (critical_path_ns * bits, average_path_ns * bits)
            }
            CommunicationEstimate::Bus { bandwidth_gbps } => {
                // Every value crosses the shared bus; PEs contend for it.
                let bytes_per_value = self.config.io_bits as f64 / 8.0;
                let traffic_per_sample = total_core_ops * values_per_vmm * bytes_per_value;
                let bus_time_per_sample_ns = traffic_per_sample / bandwidth_gbps;
                // Average bus time attributable to one VMM of one PE.
                let per_vmm = bus_time_per_sample_ns * pe_count as f64 / total_core_ops;
                (per_vmm, per_vmm)
            }
        };

        // Pipeline period: the bottleneck stage executes `max_iterations`
        // VMMs, each paying compute plus communication.
        let max_iterations = mapping.schedule.max_stage_iterations().max(1) as f64;
        let compute_period_ns = max_iterations * (compute_ns_per_vmm + communication_ns_per_vmm);
        let pipeline_period_ns = match comm {
            CommunicationEstimate::Bus { bandwidth_gbps } => {
                let bytes_per_value = self.config.io_bits as f64 / 8.0;
                let traffic_per_sample = total_core_ops * values_per_vmm * bytes_per_value;
                let bus_time_per_sample_ns = traffic_per_sample / bandwidth_gbps;
                compute_period_ns.max(bus_time_per_sample_ns)
            }
            _ => compute_period_ns,
        };

        let throughput = 1e9 / pipeline_period_ns;
        let ops_per_second = throughput * total_ops;

        // End-to-end latency: the scheduled span in sampling windows times
        // the per-window wall time. A sample crosses many connections of
        // varied length on its way through the pipeline, so the accumulated
        // communication term is the *average* routed delay, not the critical
        // one (the critical connection only clocks the steady-state period).
        let window = self.config.sampling_window() as f64;
        let wall_per_cycle_ns = (compute_ns_per_vmm + communication_avg_ns_per_vmm) / window;
        let latency_ns = mapping.schedule.latency_cycles() as f64 * wall_per_cycle_ns;

        // Area: every netlist block plus routing drivers.
        let smb_area = SpikingMemoryBlockSpec::fpsa_16kb().area_um2();
        let clb_area = ConfigurableLogicBlockSpec::fpsa_128lut().area_um2();
        let drivers = if self.config.kind.uses_reconfigurable_routing() {
            self.config.routing.driver_area_um2_per_tile()
                * (stats.pe_count + stats.smb_count + stats.clb_count) as f64
        } else {
            0.0
        };
        let area_mm2 = (stats.pe_count as f64 * self.config.pe.area_um2
            + stats.smb_count as f64 * smb_area
            + stats.clb_count as f64 * clb_area
            + drivers)
            * 1e-6;

        PerformanceReport {
            throughput_samples_per_s: throughput,
            latency_us: latency_ns * 1e-3,
            ops_per_second,
            area_mm2,
            ops_per_mm2: ops_per_second / area_mm2.max(1e-9),
            compute_ns_per_vmm,
            communication_ns_per_vmm,
            communication_avg_ns_per_vmm,
            pipeline_period_ns,
            pe_count: stats.pe_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_mapper::{AllocationPolicy, Mapper};
    use fpsa_nn::zoo;
    use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};

    fn mapped(model: fn() -> fpsa_nn::ComputationalGraph, dup: u64) -> (CoreOpGraph, Mapping) {
        let graph = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(&model())
            .unwrap();
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(dup)).map(&graph);
        (graph, mapping)
    }

    #[test]
    fn fpsa_beats_prime_on_the_same_model() {
        let (graph, mapping) = mapped(zoo::lenet, 1);
        let fpsa = PerformanceSimulator::new(ArchitectureConfig::fpsa()).evaluate(
            &graph,
            &mapping,
            CommunicationEstimate::Routed {
                critical_path_ns: 10.0,
                average_path_ns: 10.0,
            },
        );
        let prime = PerformanceSimulator::new(ArchitectureConfig::prime()).evaluate(
            &graph,
            &mapping,
            CommunicationEstimate::Bus {
                bandwidth_gbps: 32.0,
            },
        );
        // On a small model the gap is dominated by the PE speedup alone; the
        // 1000x headline requires the ImageNet-scale models where the bus
        // saturates (exercised by the Figure 6 experiment in fpsa-core).
        assert!(fpsa.throughput_samples_per_s > prime.throughput_samples_per_s * 3.0);
        assert!(fpsa.latency_us < prime.latency_us);
    }

    #[test]
    fn ideal_communication_upper_bounds_routed() {
        let (graph, mapping) = mapped(zoo::lenet, 1);
        let sim = PerformanceSimulator::new(ArchitectureConfig::fpsa());
        let ideal = sim.evaluate(&graph, &mapping, CommunicationEstimate::Ideal);
        let routed = sim.evaluate(
            &graph,
            &mapping,
            CommunicationEstimate::Routed {
                critical_path_ns: 10.0,
                average_path_ns: 10.0,
            },
        );
        assert!(ideal.throughput_samples_per_s > routed.throughput_samples_per_s);
        assert_eq!(routed.compute_ns_per_vmm, ideal.compute_ns_per_vmm);
        assert!(routed.communication_ns_per_vmm > 0.0);
        assert_eq!(ideal.communication_ns_per_vmm, 0.0);
    }

    #[test]
    fn duplication_improves_throughput_superlinearly_in_area_terms() {
        let (graph, m1) = mapped(zoo::lenet, 1);
        let (_, m16) = mapped(zoo::lenet, 16);
        let sim = PerformanceSimulator::new(ArchitectureConfig::fpsa());
        let comm = CommunicationEstimate::Routed {
            critical_path_ns: 10.0,
            average_path_ns: 10.0,
        };
        let r1 = sim.evaluate(&graph, &m1, comm);
        let r16 = sim.evaluate(&graph, &m16, comm);
        let speedup = r16.throughput_samples_per_s / r1.throughput_samples_per_s;
        let area_growth = r16.area_mm2 / r1.area_mm2;
        assert!(speedup > 4.0, "speedup {speedup}");
        assert!(
            area_growth < speedup,
            "area grew {area_growth}x for a {speedup}x speedup"
        );
    }

    #[test]
    fn bus_saturates_prime_at_high_duplication() {
        // Figure 2 / Figure 7: once compute is parallelized, PRIME's shared
        // bus becomes the bottleneck. At 64x duplication the CIFAR VGG's
        // compute period drops well below the per-sample bus time.
        let (graph, mapping) = mapped(zoo::cifar_vgg17, 64);
        let prime = PerformanceSimulator::new(ArchitectureConfig::prime()).evaluate(
            &graph,
            &mapping,
            CommunicationEstimate::Bus {
                bandwidth_gbps: 32.0,
            },
        );
        let ideal = PerformanceSimulator::new(ArchitectureConfig::prime()).evaluate(
            &graph,
            &mapping,
            CommunicationEstimate::Ideal,
        );
        assert!(
            prime.pipeline_period_ns > 2.0 * ideal.pipeline_period_ns,
            "bus-bound period {} should exceed the ideal period {}",
            prime.pipeline_period_ns,
            ideal.pipeline_period_ns
        );
    }

    #[test]
    fn spike_trains_cost_more_communication_than_counts() {
        let (graph, mapping) = mapped(zoo::lenet, 1);
        let comm = CommunicationEstimate::Routed {
            critical_path_ns: 10.0,
            average_path_ns: 10.0,
        };
        let fpsa =
            PerformanceSimulator::new(ArchitectureConfig::fpsa()).evaluate(&graph, &mapping, comm);
        let fp_prime = PerformanceSimulator::new(ArchitectureConfig::fp_prime())
            .evaluate(&graph, &mapping, comm);
        // FPSA serializes 64 bits per value, FP-PRIME only 6.
        assert!(
            (fpsa.communication_ns_per_vmm / fp_prime.communication_ns_per_vmm - 64.0 / 6.0).abs()
                < 1e-6
        );
        // But FPSA's computation is ~20x faster, so it still wins overall.
        assert!(fpsa.throughput_samples_per_s > fp_prime.throughput_samples_per_s);
    }

    #[test]
    fn analytic_estimate_matches_communication_style() {
        let routed = CommunicationEstimate::analytic(&ArchitectureConfig::fpsa(), 400);
        assert!(matches!(routed, CommunicationEstimate::Routed { .. }));
        let bus = CommunicationEstimate::analytic(&ArchitectureConfig::prime(), 400);
        assert!(matches!(bus, CommunicationEstimate::Bus { .. }));
        if let CommunicationEstimate::Routed {
            critical_path_ns,
            average_path_ns,
        } = routed
        {
            assert!(critical_path_ns > 0.0 && critical_path_ns < 100.0);
            assert!(average_path_ns > 0.0 && average_path_ns <= critical_path_ns);
        }
    }

    #[test]
    fn analytic_hop_count_grows_with_block_count() {
        let arch = ArchitectureConfig::fpsa();
        let delay = |blocks: usize| match CommunicationEstimate::analytic(&arch, blocks) {
            CommunicationEstimate::Routed {
                critical_path_ns, ..
            } => critical_path_ns,
            other => panic!("FPSA should produce a routed estimate, got {other:?}"),
        };
        // The critical path scales with the perimeter of the occupied fabric
        // region: never shrinking with block count, and clearly growing over
        // orders of magnitude.
        let sweep = [1usize, 4, 16, 256, 4_096, 65_536];
        for pair in sweep.windows(2) {
            assert!(
                delay(pair[1]) >= delay(pair[0]),
                "delay must not shrink: {} blocks -> {} ns, {} blocks -> {} ns",
                pair[0],
                delay(pair[0]),
                pair[1],
                delay(pair[1])
            );
        }
        assert!(delay(65_536) > delay(1), "delay must grow over the sweep");
    }

    #[test]
    fn analytic_estimate_degrades_gracefully_at_tiny_block_counts() {
        let arch = ArchitectureConfig::fpsa();
        let delay = |blocks: usize| match CommunicationEstimate::analytic(&arch, blocks) {
            CommunicationEstimate::Routed {
                critical_path_ns, ..
            } => critical_path_ns,
            other => panic!("FPSA should produce a routed estimate, got {other:?}"),
        };
        // Empty and single-block netlists clamp to one hop instead of
        // producing zero, negative or non-finite delays.
        for blocks in [0usize, 1] {
            let d = delay(blocks);
            assert!(d.is_finite() && d > 0.0, "{blocks} blocks gave {d} ns");
        }
        assert_eq!(delay(0), delay(1), "0 and 1 blocks share the one-hop floor");
        // The bus model is untouched by block count, including zero.
        match CommunicationEstimate::analytic(&ArchitectureConfig::prime(), 0) {
            CommunicationEstimate::Bus { bandwidth_gbps } => assert!(bandwidth_gbps > 0.0),
            other => panic!("PRIME should produce a bus estimate, got {other:?}"),
        }
    }

    #[test]
    fn latency_accumulates_the_average_delay_and_the_period_the_critical_one() {
        let (graph, mapping) = mapped(zoo::lenet, 1);
        let sim = PerformanceSimulator::new(ArchitectureConfig::fpsa());
        let balanced = sim.evaluate(
            &graph,
            &mapping,
            CommunicationEstimate::Routed {
                critical_path_ns: 10.0,
                average_path_ns: 10.0,
            },
        );
        let skewed = sim.evaluate(
            &graph,
            &mapping,
            CommunicationEstimate::Routed {
                critical_path_ns: 10.0,
                average_path_ns: 4.0,
            },
        );
        // Same critical path: the pipeline clock and throughput are equal.
        assert_eq!(balanced.pipeline_period_ns, skewed.pipeline_period_ns);
        assert_eq!(
            balanced.throughput_samples_per_s,
            skewed.throughput_samples_per_s
        );
        // But a sample accumulates the typical connection delay, so the
        // skewed profile finishes sooner end to end.
        assert!(skewed.latency_us < balanced.latency_us);
        assert!(skewed.communication_avg_ns_per_vmm < skewed.communication_ns_per_vmm);
    }

    #[test]
    fn report_densities_are_consistent() {
        let (graph, mapping) = mapped(zoo::mlp_500_100, 1);
        let report = PerformanceSimulator::new(ArchitectureConfig::fpsa()).evaluate(
            &graph,
            &mapping,
            CommunicationEstimate::Ideal,
        );
        assert!(report.area_mm2 > 0.0);
        assert!((report.ops_per_mm2 - report.ops_per_second / report.area_mm2).abs() < 1.0);
        assert!(
            report.ops_per_mm2 * 1e-12 < 40.0,
            "density cannot exceed the PE peak"
        );
    }
}
