//! Function-block netlist generation.
//!
//! The netlist is the hand-off artifact between the mapper and placement &
//! routing: a list of PE / SMB / CLB instances and the nets connecting them.
//! PEs are instantiated once per allocated duplicate, SMBs once per buffered
//! edge (grouped by capacity), and CLBs in proportion to the control state
//! the schedule requires.

use crate::allocation::Allocation;
use crate::control::ControlPlan;
use crate::schedule::Schedule;
use fpsa_synthesis::{Adjacency, CoreOpGraph, GroupId};
use serde::{Deserialize, Serialize};

/// The role a netlist block plays.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetlistBlock {
    /// A PE holding one duplicate of a group's weight tile.
    Pe {
        /// The core-op group stored on this PE.
        group: GroupId,
        /// Which duplicate (0-based) this PE is.
        duplicate: u64,
    },
    /// An SMB buffering the data crossing one buffered edge.
    Smb {
        /// Producer group of the buffered edge.
        from: GroupId,
        /// Consumer group of the buffered edge.
        to: GroupId,
    },
    /// A CLB generating control signals for a neighbourhood of blocks.
    Clb {
        /// Control region index.
        region: usize,
    },
}

impl NetlistBlock {
    /// Whether this block is a PE.
    pub fn is_pe(&self) -> bool {
        matches!(self, NetlistBlock::Pe { .. })
    }

    /// Whether this block is an SMB.
    pub fn is_smb(&self) -> bool {
        matches!(self, NetlistBlock::Smb { .. })
    }

    /// Whether this block is a CLB.
    pub fn is_clb(&self) -> bool {
        matches!(self, NetlistBlock::Clb { .. })
    }
}

/// An owned net from one source block to one or more sink blocks: the input
/// type of [`Netlist::from_parts`]. A built netlist stores its nets flat and
/// hands out [`NetRef`] views instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Index of the driving block.
    pub source: usize,
    /// Indices of the receiving blocks.
    pub sinks: Vec<usize>,
    /// Values transferred per producer execution (used by the traffic model).
    pub values_per_activation: u64,
}

/// A borrowed view of one net of a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetRef<'a> {
    source: u32,
    values: u32,
    sinks: &'a [u32],
}

impl<'a> NetRef<'a> {
    /// Index of the driving block.
    pub fn source(&self) -> usize {
        self.source as usize
    }

    /// Indices of the receiving blocks, in net order.
    pub fn sinks(&self) -> impl ExactSizeIterator<Item = usize> + Clone + 'a {
        self.sinks.iter().map(|&s| s as usize)
    }

    /// Values transferred per producer execution (used by the traffic model).
    pub fn values_per_activation(&self) -> u64 {
        u64::from(self.values)
    }

    /// An owned copy of the net.
    pub fn to_net(&self) -> Net {
        Net {
            source: self.source(),
            sinks: self.sinks().collect(),
            values_per_activation: self.values_per_activation(),
        }
    }
}

/// The nets of a [`Netlist`], stored flat: one `u32` source, value count and
/// sink-range end per net, and one shared `u32` sink array — no per-net heap
/// allocation, so an ImageNet-scale netlist (VGG16: 784 856 nets) is four
/// contiguous arrays.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Nets {
    source: Vec<u32>,
    values: Vec<u32>,
    /// `sinks[sink_end[i - 1]..sink_end[i]]` are net `i`'s sinks (from 0 for
    /// net 0).
    sink_end: Vec<u32>,
    sinks: Vec<u32>,
}

/// A block or sink-array position as stored in [`Nets`].
fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("netlist exceeds the u32 index space")
}

impl Nets {
    fn with_capacity(nets: usize, sinks: usize) -> Self {
        Nets {
            source: Vec::with_capacity(nets),
            values: Vec::with_capacity(nets),
            sink_end: Vec::with_capacity(nets),
            sinks: Vec::with_capacity(sinks),
        }
    }

    fn push(&mut self, source: usize, sinks: impl IntoIterator<Item = usize>, values: u64) {
        self.source.push(index_u32(source));
        self.values
            .push(u32::try_from(values).expect("values per activation fit u32"));
        self.sinks.extend(sinks.into_iter().map(index_u32));
        self.sink_end.push(index_u32(self.sinks.len()));
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// Whether there are no nets.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// Net `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> NetRef<'_> {
        let start = if i == 0 { 0 } else { self.sink_end[i - 1] };
        NetRef {
            source: self.source[i],
            values: self.values[i],
            sinks: &self.sinks[start as usize..self.sink_end[i] as usize],
        }
    }

    /// All nets in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NetRef<'_>> + Clone {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Owned copies of all nets (the shape [`Netlist::from_parts`] takes).
    pub fn to_vec(&self) -> Vec<Net> {
        self.iter().map(|net| net.to_net()).collect()
    }
}

/// Summary statistics of a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Number of PE instances.
    pub pe_count: usize,
    /// Number of SMB instances.
    pub smb_count: usize,
    /// Number of CLB instances.
    pub clb_count: usize,
    /// Number of nets.
    pub net_count: usize,
    /// Total number of (source, sink) connections.
    pub total_fanout: usize,
}

impl NetlistStats {
    /// Total function-block slots the netlist demands (the quantity the
    /// compiler's block limit and the sharding capacity budget bound).
    pub fn total_blocks(&self) -> usize {
        self.pe_count + self.smb_count + self.clb_count
    }
}

/// The net→block incidence index of a netlist: for every block, the indices
/// of the nets it touches (as source or sink).
///
/// Placement engines need this to evaluate moves incrementally — swapping two
/// blocks only perturbs the nets incident to them, so the cost delta is a sum
/// over `nets_of(a) ∪ nets_of(b)` instead of the whole netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetIncidence {
    nets_of_block: Vec<Vec<usize>>,
}

impl NetIncidence {
    /// Build the index for a netlist.
    fn build(netlist: &Netlist) -> Self {
        let mut nets_of_block: Vec<Vec<usize>> = vec![Vec::new(); netlist.len()];
        for (i, net) in netlist.nets().iter().enumerate() {
            nets_of_block[net.source()].push(i);
            for s in net.sinks() {
                if s != net.source() {
                    nets_of_block[s].push(i);
                }
            }
        }
        // A block can appear several times in one net's sink list (and nets
        // of a block must be unique for incremental delta sums).
        for nets in &mut nets_of_block {
            nets.sort_unstable();
            nets.dedup();
        }
        NetIncidence { nets_of_block }
    }

    /// Indices of the nets incident to one block.
    pub fn nets_of(&self, block: usize) -> &[usize] {
        &self.nets_of_block[block]
    }

    /// Number of blocks indexed.
    pub fn len(&self) -> usize {
        self.nets_of_block.len()
    }

    /// Whether the index covers no blocks.
    pub fn is_empty(&self) -> bool {
        self.nets_of_block.is_empty()
    }
}

/// The function-block netlist.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Netlist {
    /// Model name carried through the flow.
    pub model: String,
    blocks: Vec<NetlistBlock>,
    nets: Nets,
}

impl Netlist {
    /// Build the netlist from a core-op graph (and its adjacency), an
    /// allocation and a schedule, in O(groups + edges + nets): a PE block is
    /// found at its group's prefix offset plus the duplicate index, and every
    /// edge's SMB by one stamp pass per consumer
    /// ([`Adjacency::match_edges`]) — no hashing.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency was not taken from `graph`.
    pub fn build(
        graph: &CoreOpGraph,
        adjacency: &Adjacency,
        allocation: &Allocation,
        schedule: &Schedule,
    ) -> Self {
        let n = graph.len();
        let edges = graph.edges();
        assert_eq!(
            (adjacency.len(), adjacency.edge_count()),
            (n, edges.len()),
            "adjacency belongs to a different graph"
        );
        let duplicates = |g: GroupId| allocation.per_group.get(g).copied().unwrap_or(1);

        // One PE block per duplicate of every group: duplicate `d` of group
        // `g` is block `pe_base[g] + d`.
        let mut blocks = Vec::new();
        let mut pe_base = Vec::with_capacity(n);
        for g in graph.groups() {
            pe_base.push(blocks.len());
            for d in 0..duplicates(g.id) {
                blocks.push(NetlistBlock::Pe {
                    group: g.id,
                    duplicate: d,
                });
            }
        }

        // One SMB per distinct buffered edge, in schedule order; repeats of
        // a pair share the SMB of its first listing.
        let buffered = &schedule.buffered_edges;
        let mut by_pair: Vec<usize> = (0..buffered.len()).collect();
        by_pair.sort_unstable_by_key(|&i| (buffered[i], i));
        let mut first_listing = vec![false; buffered.len()];
        for run in by_pair.chunk_by(|&a, &b| buffered[a] == buffered[b]) {
            first_listing[run[0]] = true;
        }
        // Indexed by first listings only, which is what `match_edges` names.
        let mut smb_of = vec![0usize; buffered.len()];
        for (i, &(u, v)) in buffered.iter().enumerate() {
            if first_listing[i] {
                smb_of[i] = blocks.len();
                blocks.push(NetlistBlock::Smb { from: u, to: v });
            }
        }

        // Which buffered edge (if any) claims each graph edge, and from that
        // the exact net count: a buffered edge has one net per producer and
        // per consumer duplicate, a direct edge one per consumer duplicate,
        // each with a single sink.
        let claimed_by = adjacency.match_edges(buffered);
        let mut net_count = 0usize;
        for (&(u, v), &claim) in edges.iter().zip(&claimed_by) {
            net_count += duplicates(v) as usize;
            if claim != Adjacency::UNMATCHED {
                net_count += duplicates(u) as usize;
            }
        }
        let mut sink_count = net_count;

        // CLBs: one control region per `region_size` blocks, each driving the
        // blocks in its region.
        let control = ControlPlan::for_schedule(graph, allocation, schedule);
        let data_blocks = blocks.len();
        let region_size = (data_blocks / control.clb_count.max(1)).max(1);
        let region =
            |r: usize| (r * region_size).min(data_blocks)..((r + 1) * region_size).min(data_blocks);
        for r in 0..control.clb_count {
            if !region(r).is_empty() {
                net_count += 1;
                sink_count += region(r).len();
            }
        }

        // Nets: producer duplicates drive either the consumer duplicates
        // directly or the SMB of the buffered edge.
        let mut nets = Nets::with_capacity(net_count, sink_count);
        for (&(u, v), &claim) in edges.iter().zip(&claimed_by) {
            let du = duplicates(u) as usize;
            let dv = duplicates(v) as usize;
            let values = graph.groups()[u].cols as u64;
            if claim == Adjacency::UNMATCHED {
                for d in 0..dv {
                    nets.push(pe_base[u] + d % du, [pe_base[v] + d], values);
                }
            } else {
                let smb = smb_of[claim as usize];
                for d in 0..du {
                    nets.push(pe_base[u] + d, [smb], values);
                }
                for d in 0..dv {
                    nets.push(smb, [pe_base[v] + d], values);
                }
            }
        }
        for r in 0..control.clb_count {
            let clb = blocks.len();
            blocks.push(NetlistBlock::Clb { region: r });
            if !region(r).is_empty() {
                nets.push(clb, region(r), 1);
            }
        }

        Netlist {
            model: graph.model.clone(),
            blocks,
            nets,
        }
    }

    /// Assemble a netlist directly from blocks and nets.
    ///
    /// This is the constructor for synthetic netlists (tests, property-based
    /// fuzzing, hand-written examples); the compile pipeline goes through
    /// [`Netlist::build`].
    ///
    /// # Panics
    ///
    /// Panics if any net references a block index out of range.
    pub fn from_parts(model: impl Into<String>, blocks: Vec<NetlistBlock>, nets: Vec<Net>) -> Self {
        let mut flat = Nets::with_capacity(nets.len(), nets.iter().map(|n| n.sinks.len()).sum());
        for (i, net) in nets.iter().enumerate() {
            assert!(
                net.source < blocks.len(),
                "net {i} source {} out of range ({} blocks)",
                net.source,
                blocks.len()
            );
            for &s in &net.sinks {
                assert!(
                    s < blocks.len(),
                    "net {i} sink {s} out of range ({} blocks)",
                    blocks.len()
                );
            }
            flat.push(
                net.source,
                net.sinks.iter().copied(),
                net.values_per_activation,
            );
        }
        Netlist {
            model: model.into(),
            blocks,
            nets: flat,
        }
    }

    /// All blocks.
    pub fn blocks(&self) -> &[NetlistBlock] {
        &self.blocks
    }

    /// The net→block incidence index (which nets touch each block).
    pub fn incidence(&self) -> NetIncidence {
        NetIncidence::build(self)
    }

    /// Total number of (source, sink) connections across all nets.
    pub fn connection_count(&self) -> usize {
        self.nets.sinks.len()
    }

    /// All nets.
    pub fn nets(&self) -> &Nets {
        &self.nets
    }

    /// Net `i` (shorthand for `nets().get(i)`).
    pub fn net(&self, i: usize) -> NetRef<'_> {
        self.nets.get(i)
    }

    /// Summary statistics.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats {
            pe_count: self.blocks.iter().filter(|b| b.is_pe()).count(),
            smb_count: self.blocks.iter().filter(|b| b.is_smb()).count(),
            clb_count: self.blocks.iter().filter(|b| b.is_clb()).count(),
            net_count: self.nets.len(),
            total_fanout: self.connection_count(),
        }
    }

    /// Number of blocks of all kinds.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the netlist is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationPolicy;
    use crate::schedule::Scheduler;
    use fpsa_synthesis::{CoreOpGroup, CoreOpKind};

    fn group(reuse: u64, depth: usize) -> CoreOpGroup {
        CoreOpGroup {
            id: 0,
            name: "g".into(),
            source_node: 0,
            kind: CoreOpKind::Vmm,
            rows: 256,
            cols: 128,
            row_offset: 0,
            col_offset: 0,
            reuse_degree: reuse,
            relu: true,
            layer_depth: depth,
        }
    }

    fn build(reuses: &[u64], dup: u64) -> (CoreOpGraph, Netlist) {
        let mut g = CoreOpGraph::new("m", 256, 256);
        let mut prev = None;
        for (i, &r) in reuses.iter().enumerate() {
            let id = g.add_group(group(r, i));
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(dup));
        let adjacency = g.adjacency();
        let sched = Scheduler::new(64).schedule(&adjacency, &alloc);
        let netlist = Netlist::build(&g, &adjacency, &alloc, &sched);
        (g, netlist)
    }

    #[test]
    fn one_pe_block_per_duplicate() {
        let (_, n) = build(&[16, 16, 1], 4);
        let stats = n.stats();
        // Groups 0 and 1 get 4 duplicates each, group 2 gets 1.
        assert_eq!(stats.pe_count, 9);
    }

    #[test]
    fn buffered_edges_materialize_smbs_and_two_nets() {
        let (_, n) = build(&[100, 1], 1);
        let stats = n.stats();
        assert_eq!(stats.smb_count, 1);
        // producer -> SMB and SMB -> consumer (control nets from CLBs also
        // touch the SMB but are not data nets).
        let smb_nets = n
            .nets()
            .iter()
            .filter(|net| {
                !n.blocks()[net.source()].is_clb()
                    && (n.blocks()[net.source()].is_smb()
                        || net.sinks().any(|s| n.blocks()[s].is_smb()))
            })
            .count();
        assert_eq!(smb_nets, 2);
    }

    #[test]
    fn unbuffered_edges_connect_pes_directly() {
        let (_, n) = build(&[1, 1], 1);
        assert_eq!(n.stats().smb_count, 0);
        let pe_to_pe = n
            .nets()
            .iter()
            .filter(|net| {
                n.blocks()[net.source()].is_pe() && net.sinks().all(|s| n.blocks()[s].is_pe())
            })
            .count();
        assert!(pe_to_pe >= 1);
    }

    #[test]
    fn duplicates_are_wired_round_robin() {
        let (_, n) = build(&[4, 4], 4);
        // Every duplicate of the consumer must be driven by exactly one net.
        let consumer_pes: Vec<usize> = n
            .blocks()
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b, NetlistBlock::Pe { group: 1, .. }))
            .map(|(i, _)| i)
            .collect();
        for pe in consumer_pes {
            let drivers = n
                .nets()
                .iter()
                .filter(|net| net.sinks().any(|s| s == pe) && n.blocks()[net.source()].is_pe())
                .count();
            assert_eq!(drivers, 1);
        }
    }

    #[test]
    fn clbs_are_present_and_drive_control_nets() {
        let (_, n) = build(&[8, 8, 8, 8], 2);
        let stats = n.stats();
        assert!(stats.clb_count >= 1);
        let control_nets = n
            .nets()
            .iter()
            .filter(|net| n.blocks()[net.source()].is_clb())
            .count();
        assert_eq!(control_nets, stats.clb_count);
    }

    #[test]
    fn stats_fanout_counts_every_connection() {
        let (_, n) = build(&[2, 2], 1);
        let stats = n.stats();
        let manual: usize = n.nets().iter().map(|net| net.sinks().len()).sum();
        assert_eq!(stats.total_fanout, manual);
        assert_eq!(stats.net_count, n.nets().len());
        assert_eq!(stats.total_fanout, n.connection_count());
    }

    #[test]
    fn incidence_index_inverts_the_net_list() {
        let (_, n) = build(&[16, 16, 1], 4);
        let incidence = n.incidence();
        assert_eq!(incidence.len(), n.len());
        // Forward check: every net appears in the index of all its blocks.
        for (i, net) in n.nets().iter().enumerate() {
            assert!(incidence.nets_of(net.source()).contains(&i));
            for s in net.sinks() {
                assert!(incidence.nets_of(s).contains(&i));
            }
        }
        // Reverse check: every indexed net really touches the block.
        for block in 0..n.len() {
            for &net in incidence.nets_of(block) {
                let touches =
                    n.net(net).source() == block || n.net(net).sinks().any(|s| s == block);
                assert!(
                    touches,
                    "net {net} indexed for block {block} but not incident"
                );
            }
        }
    }

    #[test]
    fn incidence_entries_are_sorted_and_unique() {
        // A net listing the same sink twice must index it once.
        let blocks = vec![
            NetlistBlock::Pe {
                group: 0,
                duplicate: 0,
            },
            NetlistBlock::Pe {
                group: 1,
                duplicate: 0,
            },
        ];
        let nets = vec![Net {
            source: 0,
            sinks: vec![1, 1, 0],
            values_per_activation: 1,
        }];
        let n = Netlist::from_parts("dup-sinks", blocks, nets);
        let incidence = n.incidence();
        assert_eq!(incidence.nets_of(0), &[0]);
        assert_eq!(incidence.nets_of(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_dangling_net_indices() {
        let blocks = vec![NetlistBlock::Pe {
            group: 0,
            duplicate: 0,
        }];
        let nets = vec![Net {
            source: 0,
            sinks: vec![7],
            values_per_activation: 1,
        }];
        let _ = Netlist::from_parts("bad", blocks, nets);
    }
}
