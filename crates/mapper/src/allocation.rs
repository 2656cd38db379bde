//! PE resource allocation.
//!
//! Every core-op group needs at least one PE (its weight tile must be stored
//! somewhere). Groups with a high reuse degree execute many core-ops on that
//! one PE in sequence, so they dominate the pipeline period. The allocator
//! hands extra PEs (duplicates) to the groups with the most iterations until
//! the budget runs out or the pipeline is balanced — the mechanism behind the
//! super-linear scaling of Figure 8.

use fpsa_synthesis::CoreOpGraph;
use serde::{Deserialize, Serialize};

/// How the allocator decides the number of duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Give the group with the maximum reuse degree exactly `d` duplicates
    /// and balance every other group to the resulting iteration target.
    /// This is the paper's definition of an "n× duplication degree" design.
    DuplicationDegree(u64),
    /// Spend at most this many PEs in total, greedily reducing the largest
    /// per-group iteration count.
    PeBudget(usize),
}

/// The result of resource allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Number of PE duplicates per group (indexed by group id).
    pub per_group: Vec<u64>,
    /// Iterations each group needs per inference (`ceil(reuse / duplicates)`).
    pub iterations: Vec<u64>,
    /// The policy that produced this allocation.
    pub policy: AllocationPolicy,
}

impl Allocation {
    /// Run the allocator over a core-op graph.
    pub fn allocate(graph: &CoreOpGraph, policy: AllocationPolicy) -> Self {
        let reuse: Vec<u64> = graph
            .groups()
            .iter()
            .map(|g| g.reuse_degree.max(1))
            .collect();
        let per_group = match policy {
            AllocationPolicy::DuplicationDegree(d) => {
                let d = d.max(1);
                let max_reuse = reuse.iter().copied().max().unwrap_or(1);
                // The reference group gets `d` duplicates; everyone else gets
                // enough duplicates to finish within the same iteration count.
                let target_iterations = max_reuse.div_ceil(d).max(1);
                reuse
                    .iter()
                    .map(|&r| r.div_ceil(target_iterations).max(1).min(r))
                    .collect::<Vec<u64>>()
            }
            AllocationPolicy::PeBudget(budget) => {
                let mut dup: Vec<u64> = vec![1; reuse.len()];
                let minimum = reuse.len();
                let mut remaining = budget.saturating_sub(minimum);
                // Greedy: repeatedly duplicate the group with the largest
                // iteration count. A binary heap keyed by iteration count
                // keeps this O(n log n) per duplicate.
                use std::cmp::Reverse;
                use std::collections::BinaryHeap;
                let mut heap: BinaryHeap<(u64, Reverse<usize>)> = reuse
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| (r, Reverse(i)))
                    .collect();
                while remaining > 0 {
                    let Some((iters, Reverse(idx))) = heap.pop() else {
                        break;
                    };
                    if iters <= 1 {
                        break;
                    }
                    dup[idx] += 1;
                    remaining -= 1;
                    heap.push((reuse[idx].div_ceil(dup[idx]), Reverse(idx)));
                }
                dup
            }
        };
        let iterations = reuse
            .iter()
            .zip(&per_group)
            .map(|(&r, &d)| r.div_ceil(d).max(1))
            .collect();
        Allocation {
            per_group,
            iterations,
            policy,
        }
    }

    /// Total PEs consumed.
    pub fn total_pes(&self) -> usize {
        self.per_group.iter().map(|&d| d as usize).sum()
    }

    /// The largest per-group iteration count — the temporal bottleneck of the
    /// mapped pipeline.
    pub fn max_iterations(&self) -> u64 {
        self.iterations.iter().copied().max().unwrap_or(1)
    }

    /// The temporal utilization: average PE busy fraction if the pipeline
    /// runs at its bottleneck iteration count (Figure 8c's temporal bound).
    pub fn temporal_utilization(&self) -> f64 {
        let bottleneck = self.max_iterations() as f64;
        if bottleneck == 0.0 || self.per_group.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.iterations.iter().map(|&i| i as f64).sum();
        busy / (bottleneck * self.per_group.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_synthesis::{CoreOpGraph, CoreOpGroup, CoreOpKind};

    fn graph_with_reuse(reuse: &[u64]) -> CoreOpGraph {
        let mut g = CoreOpGraph::new("t", 256, 256);
        for (i, &r) in reuse.iter().enumerate() {
            g.add_group(CoreOpGroup {
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
        }
        g
    }

    #[test]
    fn minimum_allocation_gives_one_pe_per_group() {
        let g = graph_with_reuse(&[100, 10, 1]);
        let a = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        assert_eq!(a.per_group, vec![1, 1, 1]);
        assert_eq!(a.iterations, vec![100, 10, 1]);
        assert_eq!(a.total_pes(), 3);
        assert_eq!(a.max_iterations(), 100);
    }

    #[test]
    fn duplication_degree_scales_the_busiest_group() {
        let g = graph_with_reuse(&[100, 10, 1]);
        let a = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(4));
        assert_eq!(a.per_group[0], 4);
        assert_eq!(a.max_iterations(), 25);
        // The light groups do not get useless duplicates.
        assert_eq!(a.per_group[2], 1);
    }

    #[test]
    fn duplication_never_exceeds_reuse() {
        let g = graph_with_reuse(&[100, 10, 1]);
        let a = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1000));
        assert!(a
            .per_group
            .iter()
            .zip([100u64, 10, 1])
            .all(|(&d, r)| d <= r));
        assert_eq!(a.max_iterations(), 1);
    }

    #[test]
    fn pe_budget_reduces_the_bottleneck_greedily() {
        let g = graph_with_reuse(&[100, 10, 1]);
        let tight = Allocation::allocate(&g, AllocationPolicy::PeBudget(3));
        assert_eq!(tight.total_pes(), 3);
        let loose = Allocation::allocate(&g, AllocationPolicy::PeBudget(13));
        assert_eq!(loose.total_pes(), 13);
        assert!(loose.max_iterations() < tight.max_iterations());
        // The extra PEs must have gone to the heavy group.
        assert!(loose.per_group[0] > loose.per_group[1]);
    }

    #[test]
    fn pe_budget_stops_when_everything_is_balanced() {
        let g = graph_with_reuse(&[2, 2]);
        let a = Allocation::allocate(&g, AllocationPolicy::PeBudget(100));
        // Once every group reaches one iteration there is nothing to improve.
        assert_eq!(a.max_iterations(), 1);
        assert!(a.total_pes() <= 4);
    }

    #[test]
    fn temporal_utilization_improves_with_duplication() {
        let g = graph_with_reuse(&[1000, 10, 10, 10]);
        let u1 =
            Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1)).temporal_utilization();
        let u16 = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(16))
            .temporal_utilization();
        assert!(u16 > u1);
        assert!(u16 <= 1.0 + 1e-9);
    }

    #[test]
    fn balanced_workload_has_full_temporal_utilization() {
        let g = graph_with_reuse(&[5, 5, 5]);
        let a = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        assert!((a.temporal_utilization() - 1.0).abs() < 1e-12);
    }
}
