//! The core-op graph data model.
//!
//! A *core-op* is the single operation the FPSA PE supports: a vector-matrix
//! multiplication of at most crossbar size, optionally followed by ReLU. A
//! convolutional layer produces one core-op per output position and weight
//! tile; all core-ops sharing a weight tile form a [`CoreOpGroup`], and the
//! group's *reuse degree* is the number of such core-ops. Keeping the graph
//! in group form keeps even ImageNet-scale networks tractable (VGG16 has
//! millions of core-ops but only a few thousand groups).

use serde::{Deserialize, Serialize};

/// Identifier of a core-op group within one graph.
pub type GroupId = usize;

/// What a group of core-ops implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreOpKind {
    /// A weight tile of a fully connected or convolutional layer.
    Vmm,
    /// A partial-sum reduction tile (sums the outputs of several VMM tiles).
    Reduction,
    /// A pooling construct (average pooling matrix or max-pooling MLP).
    Pooling,
    /// An element-wise construct (residual addition).
    Eltwise,
}

/// A group of core-ops sharing one weight tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreOpGroup {
    /// Stable identifier (index into the graph's group list).
    pub id: GroupId,
    /// Human-readable name, derived from the source layer and tile indices.
    pub name: String,
    /// Source node id in the original computational graph.
    pub source_node: usize,
    /// What the group implements.
    pub kind: CoreOpKind,
    /// Rows of the weight tile (crossbar inputs used), ≤ crossbar rows.
    pub rows: usize,
    /// Columns of the weight tile (crossbar outputs used), ≤ crossbar columns.
    pub cols: usize,
    /// Row offset of the tile within its source construct: the first input
    /// index of the layer's logical input vector this tile consumes. Gives
    /// the tile *numeric* semantics — `fpsa_synthesis::weights` slices the
    /// layer's weight matrix at `[row_offset.., col_offset..]`. Zero for
    /// constructs without a row dimension (reductions, poolings).
    pub row_offset: usize,
    /// Column offset of the tile within its source construct's output
    /// vector: the first output feature (dense layers), output channel
    /// (convolutions) or channel-block start (poolings, element-wise adds)
    /// this tile produces.
    pub col_offset: usize,
    /// Number of core-ops that share this tile (1 for fully connected
    /// layers, `output_h x output_w` for convolutions).
    pub reuse_degree: u64,
    /// Whether ReLU is fused into the core-op.
    pub relu: bool,
    /// Pipeline depth position of the source layer (used for latency
    /// estimates; filled in by the synthesizer from the topological order).
    pub layer_depth: usize,
}

impl CoreOpGroup {
    /// Total core-ops represented by this group.
    pub fn core_op_count(&self) -> u64 {
        self.reuse_degree
    }

    /// Weight storage demand of the tile in weights.
    pub fn weight_count(&self) -> u64 {
        (self.rows * self.cols) as u64
    }

    /// Operations (multiply + add) performed by all core-ops of the group
    /// per network inference.
    pub fn ops(&self) -> u64 {
        2 * self.weight_count() * self.reuse_degree
    }
}

/// The synthesized graph of core-op groups.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CoreOpGraph {
    /// Model name, carried over from the computational graph.
    pub model: String,
    /// Crossbar rows the synthesizer targeted.
    pub crossbar_rows: usize,
    /// Logical crossbar columns the synthesizer targeted.
    pub crossbar_cols: usize,
    groups: Vec<CoreOpGroup>,
    edges: Vec<(GroupId, GroupId)>,
}

impl CoreOpGraph {
    /// Create an empty graph.
    pub fn new(model: impl Into<String>, crossbar_rows: usize, crossbar_cols: usize) -> Self {
        CoreOpGraph {
            model: model.into(),
            crossbar_rows,
            crossbar_cols,
            groups: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a group, assigning its id.
    pub fn add_group(&mut self, mut group: CoreOpGroup) -> GroupId {
        let id = self.groups.len();
        group.id = id;
        self.groups.push(group);
        id
    }

    /// Add a data dependency between two groups.
    pub fn add_edge(&mut self, from: GroupId, to: GroupId) {
        self.edges.push((from, to));
    }

    /// All groups.
    pub fn groups(&self) -> &[CoreOpGroup] {
        &self.groups
    }

    /// All dependency edges.
    pub fn edges(&self) -> &[(GroupId, GroupId)] {
        &self.edges
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the graph has no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The CSR adjacency of the current edge list, built in O(groups + edges).
    ///
    /// # Panics
    ///
    /// Panics if an edge names a group outside the graph, or if the graph
    /// has more than `u32::MAX` groups or edges.
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::build(self.groups.len(), &self.edges)
    }

    /// Total number of individual core-ops.
    pub fn total_core_ops(&self) -> u64 {
        self.groups.iter().map(CoreOpGroup::core_op_count).sum()
    }

    /// Total operations per inference.
    pub fn total_ops(&self) -> u64 {
        self.groups.iter().map(CoreOpGroup::ops).sum()
    }

    /// The maximum reuse degree over all groups (the paper's reference group
    /// for the model-level duplication degree).
    pub fn max_reuse_degree(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.reuse_degree)
            .max()
            .unwrap_or(1)
    }

    /// The spatial utilization: the compute-weighted fraction of crossbar
    /// cells actually used by the mapped tiles (Figure 8c's "Spatial
    /// Utilization Bound" relative to peak).
    pub fn spatial_utilization(&self) -> f64 {
        let capacity = (self.crossbar_rows * self.crossbar_cols) as f64;
        if capacity == 0.0 || self.groups.is_empty() {
            return 0.0;
        }
        let used: f64 = self
            .groups
            .iter()
            .map(|g| g.reuse_degree as f64 * (g.rows * g.cols) as f64)
            .sum();
        let allocated: f64 = self
            .groups
            .iter()
            .map(|g| g.reuse_degree as f64 * capacity)
            .sum();
        used / allocated
    }
}

/// One adjacency entry: the group on the other end of an edge, and that
/// edge's position in [`CoreOpGraph::edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Neighbor {
    group: u32,
    edge: u32,
}

impl Neighbor {
    /// The neighbouring group.
    pub fn group(&self) -> GroupId {
        self.group as GroupId
    }

    /// Index of the connecting edge in [`CoreOpGraph::edges`].
    pub fn edge(&self) -> usize {
        self.edge as usize
    }
}

/// Compressed-sparse-row adjacency of a [`CoreOpGraph`]: every group's
/// predecessors and successors as one contiguous slice each, in edge-list
/// order (parallel edges appear once per occurrence). This is the index the
/// mapper's scheduler and netlist builder and the executor's bind traverse;
/// it is a snapshot — edges added afterwards are not reflected.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Adjacency {
    pred_start: Vec<u32>,
    preds: Vec<Neighbor>,
    succ_start: Vec<u32>,
    succs: Vec<Neighbor>,
}

impl Adjacency {
    /// The "no pair" value of [`Adjacency::match_edges`].
    pub const UNMATCHED: u32 = u32::MAX;

    fn build(groups: usize, edges: &[(GroupId, GroupId)]) -> Self {
        assert!(
            u32::try_from(groups).is_ok() && u32::try_from(edges.len()).is_ok(),
            "core-op graph exceeds the u32 index space"
        );
        let mut pred_start = vec![0u32; groups + 1];
        let mut succ_start = vec![0u32; groups + 1];
        for (i, &(u, v)) in edges.iter().enumerate() {
            assert!(
                u < groups && v < groups,
                "edge {i} ({u} -> {v}) names a group outside the graph ({groups} groups)"
            );
            succ_start[u + 1] += 1;
            pred_start[v + 1] += 1;
        }
        for i in 0..groups {
            pred_start[i + 1] += pred_start[i];
            succ_start[i + 1] += succ_start[i];
        }
        // Counting sort: walking the edge list in order keeps every group's
        // slice in edge-list order.
        let blank = Neighbor { group: 0, edge: 0 };
        let mut preds = vec![blank; edges.len()];
        let mut succs = vec![blank; edges.len()];
        let mut pred_fill = pred_start.clone();
        let mut succ_fill = succ_start.clone();
        for (i, &(u, v)) in edges.iter().enumerate() {
            let edge = i as u32;
            preds[pred_fill[v] as usize] = Neighbor {
                group: u as u32,
                edge,
            };
            pred_fill[v] += 1;
            succs[succ_fill[u] as usize] = Neighbor {
                group: v as u32,
                edge,
            };
            succ_fill[u] += 1;
        }
        Adjacency {
            pred_start,
            preds,
            succ_start,
            succs,
        }
    }

    /// Number of groups indexed.
    pub fn len(&self) -> usize {
        self.pred_start.len().saturating_sub(1)
    }

    /// Whether the adjacency covers no groups.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges indexed.
    pub fn edge_count(&self) -> usize {
        self.preds.len()
    }

    /// Groups that feed `id`, in edge-list order.
    pub fn predecessors(&self, id: GroupId) -> &[Neighbor] {
        &self.preds[self.in_edge_slots(id)]
    }

    /// Groups fed by `id`, in edge-list order.
    pub fn successors(&self, id: GroupId) -> &[Neighbor] {
        &self.succs[self.succ_start[id] as usize..self.succ_start[id + 1] as usize]
    }

    /// For every edge, by its index in [`CoreOpGraph::edges`]: the index of
    /// the first of `pairs` equal to the edge's `(producer, consumer)`, or
    /// [`Adjacency::UNMATCHED`]. Parallel edges match alike; pairs naming no
    /// edge (or no group) match nothing. O(groups + pairs + edges) — the
    /// set-membership query "which edges are buffered" without hashing.
    pub fn match_edges(&self, pairs: &[(GroupId, GroupId)]) -> Vec<u32> {
        let n = self.len();
        assert!(
            u32::try_from(pairs.len()).is_ok_and(|len| len != Self::UNMATCHED),
            "pair list exceeds the u32 index space"
        );
        // Bucket the pairs by consumer (pairs outside the graph go to a spare
        // bucket nobody reads), then per consumer stamp its listed producers
        // and read the stamps back along its in-edges.
        let consumer = |&(u, v): &(GroupId, GroupId)| if u < n && v < n { v } else { n };
        let (bucket_start, bucket) = bucket_by_key(n + 1, pairs.iter().map(consumer));
        // `stamp[u] == v` while consumer `v` is being resolved and `(u, v)`
        // is listed; `first[u]` is then its first listing.
        let mut stamp = vec![Self::UNMATCHED; n];
        let mut first = vec![0u32; n];
        let mut matched = vec![Self::UNMATCHED; self.edge_count()];
        for v in 0..n {
            let listed = &bucket[bucket_start[v]..bucket_start[v + 1]];
            if listed.is_empty() {
                continue;
            }
            let tag = v as u32;
            for &i in listed {
                let u = pairs[i].0;
                if stamp[u] != tag {
                    stamp[u] = tag;
                    first[u] = i as u32;
                }
            }
            for p in self.predecessors(v) {
                if stamp[p.group()] == tag {
                    matched[p.edge()] = first[p.group()];
                }
            }
        }
        matched
    }

    /// The positions `predecessors(id)` occupies in the flat in-edge array
    /// (`0..edge_count()`): the key for per-in-edge side tables.
    pub fn in_edge_slots(&self, id: GroupId) -> std::ops::Range<usize> {
        self.pred_start[id] as usize..self.pred_start[id + 1] as usize
    }
}

/// Counting sort of the positions `0..keys.len()` by key (`< buckets`):
/// returns `(start, positions)` where `positions[start[k]..start[k + 1]]` are
/// the positions whose key is `k`, in ascending order. O(buckets + keys).
///
/// # Panics
///
/// Panics if a key is not below `buckets`.
pub fn bucket_by_key(
    buckets: usize,
    keys: impl Iterator<Item = usize> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0usize; buckets + 1];
    for key in keys.clone() {
        start[key + 1] += 1;
    }
    for k in 0..buckets {
        start[k + 1] += start[k];
    }
    let mut fill = start.clone();
    let mut positions = vec![0usize; start[buckets]];
    for (position, key) in keys.enumerate() {
        positions[fill[key]] = position;
        fill[key] += 1;
    }
    (start, positions)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CoreOpGraph {
        /// Total weights stored across all tiles.
        pub(crate) fn total_weights(&self) -> u64 {
            self.groups.iter().map(CoreOpGroup::weight_count).sum()
        }

        /// The minimum number of PEs needed to hold every weight tile once.
        pub(crate) fn minimum_pe_count(&self) -> usize {
            self.groups.len()
        }

        /// Fraction of groups (and therefore minimum PEs) devoted to a given
        /// kind of construct — reproduces the paper's observation that pooling
        /// occupies 67% of GoogLeNet's PEs after synthesis.
        pub(crate) fn group_share_of(&self, kind: CoreOpKind) -> f64 {
            if self.groups.is_empty() {
                return 0.0;
            }
            self.groups.iter().filter(|g| g.kind == kind).count() as f64 / self.groups.len() as f64
        }

        /// The number of pipeline levels (maximum layer depth + 1).
        pub(crate) fn pipeline_depth(&self) -> usize {
            self.groups
                .iter()
                .map(|g| g.layer_depth + 1)
                .max()
                .unwrap_or(0)
        }
    }

    fn group(kind: CoreOpKind, rows: usize, cols: usize, reuse: u64, depth: usize) -> CoreOpGroup {
        CoreOpGroup {
            id: 0,
            name: "g".into(),
            source_node: 0,
            kind,
            rows,
            cols,
            row_offset: 0,
            col_offset: 0,
            reuse_degree: reuse,
            relu: true,
            layer_depth: depth,
        }
    }

    fn sample_graph() -> CoreOpGraph {
        let mut g = CoreOpGraph::new("test", 256, 256);
        let a = g.add_group(group(CoreOpKind::Vmm, 256, 256, 100, 0));
        let b = g.add_group(group(CoreOpKind::Vmm, 128, 64, 1, 1));
        let c = g.add_group(group(CoreOpKind::Pooling, 32, 8, 100, 1));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g
    }

    #[test]
    fn ids_are_assigned_sequentially() {
        let g = sample_graph();
        assert_eq!(g.groups()[0].id, 0);
        assert_eq!(g.groups()[2].id, 2);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn adjacency_queries_work() {
        let g = sample_graph();
        let adj = g.adjacency();
        let groups = |ns: &[Neighbor]| ns.iter().map(Neighbor::group).collect::<Vec<_>>();
        assert_eq!(groups(adj.successors(0)), vec![1, 2]);
        assert_eq!(groups(adj.predecessors(2)), vec![0]);
        assert_eq!(adj.predecessors(2)[0].edge(), 1);
        assert!(adj.predecessors(0).is_empty());
        assert_eq!((adj.len(), adj.edge_count()), (3, 2));
    }

    #[test]
    fn bucketing_is_a_stable_counting_sort() {
        let keys = [2usize, 0, 2, 1, 0, 2];
        let (start, positions) = bucket_by_key(4, keys.iter().copied());
        assert_eq!(start, vec![0, 2, 3, 6, 6]);
        assert_eq!(positions, vec![1, 4, 3, 0, 2, 5]);
    }

    #[test]
    fn totals_aggregate_groups() {
        let g = sample_graph();
        assert_eq!(g.total_core_ops(), 100 + 1 + 100);
        assert_eq!(g.minimum_pe_count(), 3);
        assert_eq!(g.max_reuse_degree(), 100);
        assert_eq!(g.total_weights(), (256 * 256 + 128 * 64 + 32 * 8) as u64);
    }

    #[test]
    fn spatial_utilization_is_weighted_by_reuse() {
        let g = sample_graph();
        let cap = 256.0 * 256.0;
        let used = 100.0 * cap + 1.0 * (128.0 * 64.0) + 100.0 * (32.0 * 8.0);
        let alloc = 201.0 * cap;
        assert!((g.spatial_utilization() - used / alloc).abs() < 1e-12);
    }

    #[test]
    fn spatial_utilization_of_full_tiles_is_one() {
        let mut g = CoreOpGraph::new("full", 256, 256);
        g.add_group(group(CoreOpKind::Vmm, 256, 256, 10, 0));
        assert!((g.spatial_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn group_share_counts_kinds() {
        let g = sample_graph();
        assert!((g.group_share_of(CoreOpKind::Pooling) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(g.group_share_of(CoreOpKind::Reduction), 0.0);
    }

    #[test]
    fn pipeline_depth_is_max_layer_depth_plus_one() {
        let g = sample_graph();
        assert_eq!(g.pipeline_depth(), 2);
        assert_eq!(CoreOpGraph::new("e", 256, 256).pipeline_depth(), 0);
    }

    #[test]
    fn empty_graph_is_safe() {
        let g = CoreOpGraph::new("empty", 256, 256);
        assert!(g.is_empty());
        assert_eq!(g.spatial_utilization(), 0.0);
        assert_eq!(g.total_core_ops(), 0);
        assert_eq!(g.group_share_of(CoreOpKind::Vmm), 0.0);
    }
}
