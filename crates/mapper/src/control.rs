//! Control-logic planning.
//!
//! The CLBs generate the sequencing signals the schedule implies: per-PE
//! iteration counters and reset pulses, SMB address counters and port
//! selects. This module estimates how many LUTs (and therefore CLBs) a
//! mapped model needs, which feeds both the netlist and the area model.

use crate::allocation::Allocation;
use crate::schedule::Schedule;
use fpsa_device::clb::ConfigurableLogicBlockSpec;
use fpsa_synthesis::CoreOpGraph;
use serde::{Deserialize, Serialize};

/// The estimated control-logic requirement of a mapped model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlPlan {
    /// Total LUTs needed.
    pub lut_count: usize,
    /// CLBs needed at the configured LUTs-per-CLB.
    pub clb_count: usize,
    /// LUTs devoted to PE sequencing.
    pub pe_luts: usize,
    /// LUTs devoted to SMB addressing.
    pub smb_luts: usize,
}

impl ControlPlan {
    /// LUTs needed to sequence one PE executing `iterations` iterations: a
    /// counter wide enough for the iteration count, a comparator and the
    /// sampling-window reset pulse.
    pub fn luts_per_pe(iterations: u64) -> usize {
        let counter_bits = 64 - iterations.max(1).leading_zeros() as usize;
        // counter + comparator + reset/enable decode
        2 * counter_bits.max(1) + 4
    }

    /// LUTs needed to run one SMB buffer: read/write address counters and a
    /// port-select decoder.
    pub fn luts_per_smb() -> usize {
        24
    }

    /// Build the plan for an allocated, scheduled graph.
    pub fn for_schedule(graph: &CoreOpGraph, allocation: &Allocation, schedule: &Schedule) -> Self {
        let pe_luts: usize = graph
            .groups()
            .iter()
            .map(|g| {
                let dups = allocation.per_group.get(g.id).copied().unwrap_or(1) as usize;
                let iters = allocation.iterations.get(g.id).copied().unwrap_or(1);
                dups * Self::luts_per_pe(iters)
            })
            .sum();
        let smb_luts = schedule.buffer_count() * Self::luts_per_smb();
        let lut_count = pe_luts + smb_luts;
        let per_clb = ConfigurableLogicBlockSpec::fpsa_128lut().lut_count;
        ControlPlan {
            lut_count,
            clb_count: lut_count.div_ceil(per_clb).max(1),
            pe_luts,
            smb_luts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationPolicy;
    use crate::schedule::Scheduler;
    use fpsa_synthesis::{CoreOpGroup, CoreOpKind};

    fn graph(reuses: &[u64]) -> CoreOpGraph {
        let mut g = CoreOpGraph::new("m", 256, 256);
        let mut prev = None;
        for (i, &r) in reuses.iter().enumerate() {
            let id = g.add_group(CoreOpGroup {
                id: 0,
                name: format!("g{i}"),
                source_node: i,
                kind: CoreOpKind::Vmm,
                rows: 256,
                cols: 256,
                row_offset: 0,
                col_offset: 0,
                reuse_degree: r,
                relu: true,
                layer_depth: i,
            });
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        g
    }

    #[test]
    fn luts_per_pe_grow_with_iteration_count() {
        assert!(ControlPlan::luts_per_pe(1) < ControlPlan::luts_per_pe(1000));
        assert!(ControlPlan::luts_per_pe(1) >= 5);
    }

    #[test]
    fn plan_counts_pes_smbs_and_rounds_up_clbs() {
        let g = graph(&[100, 1]);
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let sched = Scheduler::new(64).schedule(&g.adjacency(), &alloc);
        let plan = ControlPlan::for_schedule(&g, &alloc, &sched);
        assert!(plan.pe_luts > 0);
        assert_eq!(plan.smb_luts, ControlPlan::luts_per_smb());
        assert_eq!(plan.lut_count, plan.pe_luts + plan.smb_luts);
        assert!(plan.clb_count >= 1);
    }

    #[test]
    fn more_duplicates_need_more_control() {
        let g = graph(&[64, 64]);
        let a1 = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let a8 = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(8));
        let s1 = Scheduler::new(64).schedule(&g.adjacency(), &a1);
        let s8 = Scheduler::new(64).schedule(&g.adjacency(), &a8);
        let p1 = ControlPlan::for_schedule(&g, &a1, &s1);
        let p8 = ControlPlan::for_schedule(&g, &a8, &s8);
        assert!(p8.pe_luts > p1.pe_luts);
    }

    #[test]
    fn empty_graph_still_reports_one_clb() {
        let g = CoreOpGraph::new("empty", 256, 256);
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let sched = Scheduler::new(64).schedule(&g.adjacency(), &alloc);
        let plan = ControlPlan::for_schedule(&g, &alloc, &sched);
        assert_eq!(plan.lut_count, 0);
        assert_eq!(plan.clb_count, 1);
    }
}
