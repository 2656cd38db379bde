//! The spatial-to-temporal mapper.
//!
//! The core-op graph produced by the neural synthesizer is purely spatial: it
//! has one core-op per output position, which would require an impractical
//! number of PEs if mapped one-to-one. The mapper (Section 5.2 of the paper)
//! folds that graph onto a finite fabric:
//!
//! * **Resource allocation** ([`allocation`]) — all core-ops sharing a weight
//!   tile form one group and are executed on the same PE(s) in
//!   time-division-multiplexed fashion. Groups with higher *reuse degree*
//!   (more core-ops per weight tile) receive more PE *duplicates* so that
//!   pipeline stages stay balanced; the duplication degree of the whole model
//!   is that of the group with the maximum reuse degree.
//! * **Scheduling** ([`schedule`]) — Algorithm 1 of the paper: a greedy
//!   topological pass that assigns start/end cycles under the resource
//!   conflict (RC), no-buffer dependency (NBD), buffered dependency (BD),
//!   buffer conflict (BC) and sampling window (SW) constraints, inserting SMB
//!   buffers wherever direct PE-to-PE chaining is impossible.
//! * **Netlist generation** ([`netlist`], [`control`]) — the allocation and
//!   schedule are materialized as a function-block netlist (PEs, SMBs, CLBs
//!   and the nets between them) ready for placement and routing.

pub mod allocation;
pub mod control;
pub mod netlist;
pub mod schedule;

pub use allocation::{Allocation, AllocationPolicy};
pub use netlist::{Net, NetIncidence, NetRef, Netlist, NetlistBlock, NetlistStats, Nets};
pub use schedule::{Schedule, ScheduleEntry, Scheduler};

use fpsa_synthesis::CoreOpGraph;
use serde::{Deserialize, Serialize};

/// End-to-end mapping result: allocation, schedule and netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// How many PEs each group received.
    pub allocation: Allocation,
    /// When each group executes and where buffers were inserted.
    pub schedule: Schedule,
    /// The function-block netlist handed to placement & routing.
    pub netlist: Netlist,
}

impl Mapping {
    /// Per-kind block demand of the mapped design as `(pes, smbs, clbs)` —
    /// the numbers a fabric (or a sharding capacity budget) must offer for
    /// this mapping to fit.
    pub fn block_demand(&self) -> (usize, usize, usize) {
        let stats = self.netlist.stats();
        (stats.pe_count, stats.smb_count, stats.clb_count)
    }
}

/// The spatial-to-temporal mapper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mapper {
    /// Sampling window Γ in cycles.
    pub sampling_window: u64,
    /// Allocation policy.
    pub policy: AllocationPolicy,
}

impl Mapper {
    /// Create a mapper with the given sampling window and policy.
    pub fn new(sampling_window: u64, policy: AllocationPolicy) -> Self {
        Mapper {
            sampling_window,
            policy,
        }
    }

    /// The paper's default: 64-cycle window, balanced duplication.
    pub fn fpsa_default() -> Self {
        Mapper {
            sampling_window: 64,
            policy: AllocationPolicy::DuplicationDegree(1),
        }
    }

    /// Map a core-op graph.
    pub fn map(&self, graph: &CoreOpGraph) -> Mapping {
        let allocation = Allocation::allocate(graph, self.policy);
        // One CSR adjacency serves both the scheduler and the netlist builder.
        let adjacency = graph.adjacency();
        let schedule = Scheduler::new(self.sampling_window).schedule(&adjacency, &allocation);
        let netlist = Netlist::build(graph, &adjacency, &allocation, &schedule);
        Mapping {
            allocation,
            schedule,
            netlist,
        }
    }
}

impl Default for Mapper {
    fn default() -> Self {
        Self::fpsa_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_nn::zoo;
    use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};

    fn core_graph(model: fn() -> fpsa_nn::ComputationalGraph) -> CoreOpGraph {
        NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(&model())
            .unwrap()
    }

    #[test]
    fn mapping_lenet_produces_consistent_artifacts() {
        let graph = core_graph(zoo::lenet);
        let mapping = Mapper::fpsa_default().map(&graph);
        assert_eq!(mapping.allocation.per_group.len(), graph.len());
        assert_eq!(mapping.schedule.entries.len(), graph.len());
        let stats = mapping.netlist.stats();
        assert_eq!(stats.pe_count, mapping.allocation.total_pes());
        assert!(stats.net_count > 0);
    }

    #[test]
    fn higher_duplication_uses_more_pes_and_fewer_iterations() {
        let graph = core_graph(zoo::lenet);
        let m1 = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&graph);
        let m4 = Mapper::new(64, AllocationPolicy::DuplicationDegree(4)).map(&graph);
        assert!(m4.allocation.total_pes() > m1.allocation.total_pes());
        assert!(m4.schedule.max_stage_iterations() < m1.schedule.max_stage_iterations());
    }

    #[test]
    fn mapper_handles_mlp_without_buffers_exploding() {
        let graph = core_graph(zoo::mlp_500_100);
        let mapping = Mapper::fpsa_default().map(&graph);
        // The MLP has no reuse, so every group executes exactly once.
        assert_eq!(mapping.schedule.max_stage_iterations(), 1);
        let stats = mapping.netlist.stats();
        assert!(stats.smb_count <= stats.pe_count);
    }
}
