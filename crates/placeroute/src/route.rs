//! PathFinder negotiated-congestion routing.
//!
//! Every net is routed as a **routing tree** over the channel grid: one trunk
//! shared by all sinks (real multicast) instead of independent per-sink
//! paths. The router runs the PathFinder negotiation loop: all nets are
//! ripped up and re-routed every iteration under a cost that combines the
//! base segment cost, a *present congestion* penalty that grows each
//! iteration, and a *history* term remembering which segments were fought
//! over in earlier iterations. Congestion is thereby negotiated away — nets
//! that can cheaply detour do, nets that genuinely need a contested segment
//! keep it — which is exactly the router model of the paper's mrVPR flow.
//!
//! Within an iteration nets route in **waves**: the congestion state is
//! frozen once per wave, every net of the wave searches against that frozen
//! snapshot in parallel (rayon), and the resulting trees are committed in
//! net order. Results are therefore bit-identical for any thread count: the
//! snapshot, the wave partition and the commit order are all independent of
//! scheduling.

use crate::place::Placement;
use fpsa_arch::RoutingArchitecture;
use fpsa_mapper::Netlist;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// Orientation of a routing channel segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Orientation {
    /// Connects tile `(r, c)` to `(r, c + 1)`.
    Horizontal,
    /// Connects tile `(r, c)` to `(r + 1, c)`.
    Vertical,
}

/// One channel segment used by a routing tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouteEdge {
    /// Segment orientation.
    pub orientation: Orientation,
    /// Row of the segment's lower-left tile.
    pub row: usize,
    /// Column of the segment's lower-left tile.
    pub col: usize,
}

impl RouteEdge {
    /// The two tiles this segment connects.
    pub fn endpoints(&self) -> ((usize, usize), (usize, usize)) {
        match self.orientation {
            Orientation::Horizontal => ((self.row, self.col), (self.row, self.col + 1)),
            Orientation::Vertical => ((self.row, self.col), (self.row + 1, self.col)),
        }
    }
}

/// The routed tree of one net: a set of channel segments connecting the
/// source tile to every sink tile, with trunk segments shared across sinks.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RoutingTree {
    /// Index of the net in the netlist.
    pub net: usize,
    /// Tile of the driving block.
    pub source: (usize, usize),
    /// Tile of every sink block, in net order.
    pub sinks: Vec<(usize, usize)>,
    /// The channel segments of the tree (each used once, shared by all sinks
    /// downstream of it).
    pub edges: Vec<RouteEdge>,
    /// Hops from the source to each sink along the tree, in `sinks` order.
    pub sink_hops: Vec<usize>,
}

impl RoutingTree {
    /// Number of channel segments the tree occupies.
    pub fn wirelength(&self) -> usize {
        self.edges.len()
    }

    /// Whether the source reaches every sink over the tree's edges.
    pub fn is_connected(&self) -> bool {
        use std::collections::{HashMap, HashSet, VecDeque};
        if self.sinks.iter().all(|&s| s == self.source) {
            return true;
        }
        let mut adjacency: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for edge in &self.edges {
            let (a, b) = edge.endpoints();
            adjacency.entry(a).or_default().push(b);
            adjacency.entry(b).or_default().push(a);
        }
        let mut reached: HashSet<(usize, usize)> = HashSet::new();
        let mut queue = VecDeque::from([self.source]);
        reached.insert(self.source);
        while let Some(node) = queue.pop_front() {
            for &next in adjacency.get(&node).into_iter().flatten() {
                if reached.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        self.sinks.iter().all(|s| reached.contains(s))
    }
}

/// Routing outcome for a whole netlist.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RoutingResult {
    /// One routing tree per net, in net order.
    pub trees: Vec<RoutingTree>,
    /// One entry per (net, sink) connection: hops from source to sink along
    /// the net's tree, flattened in net order.
    pub connection_hops: Vec<usize>,
    /// Peak channel occupancy observed (tracks used in the busiest channel).
    pub peak_channel_occupancy: usize,
    /// Channel capacity the router was given.
    pub channel_width: usize,
    /// Negotiation iterations until convergence (or the iteration cap).
    pub iterations: usize,
    /// Channels still above capacity when routing stopped.
    pub overused_channels: usize,
    /// Total channel segments occupied across all trees (the routed
    /// wirelength; trunk sharing makes this less than the sum of hops).
    pub total_channel_segments: usize,
    /// Number of nets routed.
    pub nets_routed: usize,
}

impl RoutingResult {
    /// Number of nets routed.
    pub fn routed_nets(&self) -> usize {
        self.nets_routed
    }

    /// The longest connection in block hops (drives the critical path).
    pub fn critical_hops(&self) -> usize {
        self.connection_hops.iter().copied().max().unwrap_or(0)
    }

    /// Average connection length in hops.
    pub fn average_hops(&self) -> f64 {
        if self.connection_hops.is_empty() {
            return 0.0;
        }
        self.connection_hops.iter().sum::<usize>() as f64 / self.connection_hops.len() as f64
    }

    /// Whether every channel stayed within its capacity.
    pub fn is_routable(&self) -> bool {
        self.peak_channel_occupancy <= self.channel_width
    }

    /// The channel width this design actually needs (the paper's mrVPR flow
    /// reports exactly this quantity).
    pub fn required_channel_width(&self) -> usize {
        self.peak_channel_occupancy
    }
}

/// PathFinder negotiation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Maximum rip-up-and-reroute iterations.
    pub max_iterations: usize,
    /// Present-congestion factor of the first iteration (0 routes every net
    /// on its unconstrained shortest path, the classic PathFinder opening).
    pub initial_present_factor: f64,
    /// Multiplier on the present-congestion factor per iteration.
    pub present_growth: f64,
    /// Weight of the accumulated history cost.
    pub history_weight: f64,
    /// Nets routed per parallel wave (the congestion snapshot refreshes
    /// between waves; 1 reproduces fully sequential negotiation).
    pub wave_width: usize,
    /// Evaluate waves with rayon (`false` forces sequential evaluation; the
    /// results are bit-identical either way).
    pub parallel: bool,
}

impl RouterConfig {
    /// The full negotiated-congestion configuration.
    pub fn negotiated() -> Self {
        RouterConfig {
            max_iterations: 32,
            initial_present_factor: 0.0,
            present_growth: 1.6,
            history_weight: 0.5,
            wave_width: 32,
            parallel: true,
        }
    }

    /// A single congestion-aware pass with no negotiation: every net routes
    /// once, sequentially, seeing the congestion of the nets before it. This
    /// is the strongest greedy baseline and exists for ablation.
    pub fn single_pass() -> Self {
        RouterConfig {
            max_iterations: 1,
            initial_present_factor: 0.5,
            present_growth: 1.0,
            history_weight: 0.0,
            wave_width: 1,
            parallel: false,
        }
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::negotiated()
    }
}

/// Congestion state of the channel grid, frozen per wave for the searches.
///
/// Segments are indexed `r * cols + c`: the horizontal segment
/// `(r, c) – (r, c + 1)` and the vertical segment `(r, c) – (r + 1, c)`.
#[derive(Debug, Clone)]
struct ChannelState {
    rows: usize,
    cols: usize,
    capacity: usize,
    hist_weight: f64,
    pres_fac: f64,
    occupancy_h: Vec<u32>,
    occupancy_v: Vec<u32>,
    history_h: Vec<f64>,
    history_v: Vec<f64>,
    /// The PathFinder cost of crossing each segment, kept current with its
    /// occupancy, its history and the present factor, so a search reads a
    /// cost instead of recomputing it for every tile it expands.
    cost_h: Vec<u64>,
    cost_v: Vec<u64>,
}

impl ChannelState {
    fn new(rows: usize, cols: usize, capacity: usize, hist_weight: f64) -> Self {
        let n = rows * cols;
        ChannelState {
            rows,
            cols,
            capacity,
            hist_weight,
            pres_fac: 0.0,
            occupancy_h: vec![0; n],
            occupancy_v: vec![0; n],
            history_h: vec![0.0; n],
            history_v: vec![0.0; n],
            cost_h: vec![0; n],
            cost_v: vec![0; n],
        }
    }

    fn occupy(&mut self, edge: RouteEdge, delta: i64) {
        let i = edge.row * self.cols + edge.col;
        let (occupancy, history, cost) = match edge.orientation {
            Orientation::Horizontal => (
                &mut self.occupancy_h[i],
                self.history_h[i],
                &mut self.cost_h[i],
            ),
            Orientation::Vertical => (
                &mut self.occupancy_v[i],
                self.history_v[i],
                &mut self.cost_v[i],
            ),
        };
        *occupancy = (*occupancy as i64 + delta).max(0) as u32;
        *cost = segment_cost(
            *occupancy,
            history,
            self.capacity,
            self.pres_fac,
            self.hist_weight,
        );
    }

    /// Set the present-congestion factor of the coming iteration and reprice
    /// every segment under it and the history accumulated so far.
    fn reprice(&mut self, pres_fac: f64) {
        self.pres_fac = pres_fac;
        let (capacity, hist_weight) = (self.capacity, self.hist_weight);
        let price = |(cost, (&occupancy, &history)): (&mut u64, (&u32, &f64))| {
            *cost = segment_cost(occupancy, history, capacity, pres_fac, hist_weight);
        };
        let horizontal = self.occupancy_h.iter().zip(&self.history_h);
        self.cost_h.iter_mut().zip(horizontal).for_each(price);
        let vertical = self.occupancy_v.iter().zip(&self.history_v);
        self.cost_v.iter_mut().zip(vertical).for_each(price);
    }

    /// Accumulate history cost on every currently overused segment and
    /// report (overused segment count, peak occupancy).
    fn accumulate_history(&mut self) -> (usize, usize) {
        let capacity = self.capacity;
        let mut overused = 0usize;
        let mut peak = 0usize;
        for (occ, hist) in self
            .occupancy_h
            .iter()
            .zip(self.history_h.iter_mut())
            .chain(self.occupancy_v.iter().zip(self.history_v.iter_mut()))
        {
            peak = peak.max(*occ as usize);
            if *occ as usize > capacity {
                overused += 1;
                *hist += (*occ as usize - capacity) as f64;
            }
        }
        (overused, peak)
    }
}

/// PathFinder cost of crossing one segment, scaled to an integer so the
/// Dijkstra heap has a total, platform-independent order.
fn segment_cost(
    occupancy: u32,
    history: f64,
    capacity: usize,
    pres_fac: f64,
    hist_weight: f64,
) -> u64 {
    let overuse = (occupancy as i64 + 1 - capacity as i64).max(0) as f64;
    let cost = (1.0 + hist_weight * history) * (1.0 + pres_fac * overuse);
    (cost * 1024.0).round().max(1.0) as u64
}

/// The router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Router {
    routing: RoutingArchitecture,
    config: RouterConfig,
}

impl Router {
    /// A negotiated-congestion router for the given routing architecture.
    pub fn new(routing: RoutingArchitecture) -> Self {
        Router {
            routing,
            config: RouterConfig::negotiated(),
        }
    }

    /// A router with explicit negotiation parameters.
    pub fn with_config(routing: RoutingArchitecture, config: RouterConfig) -> Self {
        Router { routing, config }
    }

    /// The negotiation parameters in use.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Route every net of a placed netlist with PathFinder negotiation.
    pub fn route(&self, netlist: &Netlist, placement: &Placement) -> RoutingResult {
        self.route_with_width(netlist, placement, self.routing.channel_width)
    }

    /// Route under an explicit channel capacity (the probe primitive of the
    /// minimum-channel-width search).
    pub fn route_with_width(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        channel_width: usize,
    ) -> RoutingResult {
        let rows = placement.dims.rows.max(1);
        let cols = placement.dims.cols.max(1);
        let capacity = channel_width.max(1);
        let mut state = ChannelState::new(rows, cols, capacity, self.config.history_weight);

        // The terminals of every net, fixed by the placement.
        type NetTerminals = ((usize, usize), Vec<(usize, usize)>);
        let terminals: Vec<NetTerminals> = netlist
            .nets()
            .iter()
            .map(|net| {
                (
                    placement.position(net.source()),
                    net.sinks().map(|s| placement.position(s)).collect(),
                )
            })
            .collect();

        // One search scratch per worker, reused by every net of every wave
        // and iteration: a wave is split into one contiguous share per
        // worker, and share `k` always searches in scratch `k`.
        let workers = if self.config.parallel {
            rayon::current_num_threads().max(1)
        } else {
            1
        };
        let scratches: Vec<Mutex<RouteScratch>> = (0..workers)
            .map(|_| Mutex::new(RouteScratch::new(rows * cols)))
            .collect();

        let mut trees: Vec<RoutingTree> = Vec::new();
        let mut pres_fac = self.config.initial_present_factor;
        let mut iterations = 0usize;
        let mut overused = 0usize;
        let mut peak = 0usize;

        for iteration in 0..self.config.max_iterations.max(1) {
            iterations = iteration + 1;
            state.reprice(pres_fac);
            let net_order: Vec<usize> = (0..terminals.len()).collect();
            let mut new_trees: Vec<RoutingTree> = Vec::with_capacity(terminals.len());
            for wave in net_order.chunks(self.config.wave_width.max(1)) {
                // Rip up the wave's previous-iteration routes so the frozen
                // snapshot prices only *other* nets' segments.
                if !trees.is_empty() {
                    for &net in wave {
                        for &edge in &trees[net].edges {
                            state.occupy(edge, -1);
                        }
                    }
                }
                let snapshot = &state;
                let route_share = |&(share, scratch): &(&[usize], &Mutex<RouteScratch>)| {
                    let mut scratch = scratch
                        .lock()
                        .expect("a routing worker panicked mid-search");
                    share
                        .iter()
                        .map(|&net| {
                            route_net(
                                net,
                                terminals[net].0,
                                &terminals[net].1,
                                snapshot,
                                &mut scratch,
                            )
                        })
                        .collect::<Vec<RoutingTree>>()
                };
                let shares: Vec<(&[usize], &Mutex<RouteScratch>)> = wave
                    .chunks(wave.len().div_ceil(workers))
                    .zip(&scratches)
                    .collect();
                let routed: Vec<Vec<RoutingTree>> = if self.config.parallel {
                    shares.par_iter().map(route_share).collect()
                } else {
                    shares.iter().map(route_share).collect()
                };
                for tree in routed.into_iter().flatten() {
                    for &edge in &tree.edges {
                        state.occupy(edge, 1);
                    }
                    new_trees.push(tree);
                }
            }
            trees = new_trees;

            let (over, pk) = state.accumulate_history();
            overused = over;
            peak = pk;
            if overused == 0 {
                break;
            }
            pres_fac = if pres_fac == 0.0 {
                1.0
            } else {
                pres_fac * self.config.present_growth
            };
        }

        let connection_hops: Vec<usize> = trees
            .iter()
            .flat_map(|t| t.sink_hops.iter().copied())
            .collect();
        let total_channel_segments = trees.iter().map(RoutingTree::wirelength).sum();
        RoutingResult {
            connection_hops,
            peak_channel_occupancy: peak,
            // The clamped capacity the router actually enforced, so the
            // result's routability fields stay self-consistent for width 0.
            channel_width: capacity,
            iterations,
            overused_channels: overused,
            total_channel_segments,
            nets_routed: trees.len(),
            trees,
        }
    }

    /// The minimum channel width the design routes in — the quantity the
    /// paper's mrVPR flow reports. Doubles the width until the design routes,
    /// then binary-searches down; returns the width and the routing at it.
    pub fn minimum_channel_width(
        &self,
        netlist: &Netlist,
        placement: &Placement,
    ) -> (usize, RoutingResult) {
        // Find a routable upper bound.
        let mut width = 1usize;
        let mut best = self.route_with_width(netlist, placement, width);
        while !best.is_routable() {
            // Peak occupancy at the failed width is a sound next probe: the
            // design certainly needs no more tracks than its worst overuse.
            width = best.peak_channel_occupancy.max(width * 2);
            best = self.route_with_width(netlist, placement, width);
            if width >= 1 << 20 {
                return (width, best);
            }
        }
        if width == 1 {
            return (1, best);
        }
        // Binary search for the smallest routable width in [lo, width];
        // width 1 already failed above, so the search floor is 2.
        let mut lo = 2usize;
        let mut hi = width;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let probe = self.route_with_width(netlist, placement, mid);
            if probe.is_routable() {
                hi = mid;
                best = probe;
            } else {
                lo = mid + 1;
            }
        }
        (hi, best)
    }
}

type SearchHeap = BinaryHeap<Reverse<(u64, usize)>>;

/// The search state one routing worker reuses across nets: per-tile arrays
/// that are invalidated in O(1) by bumping an epoch instead of being
/// reallocated or refilled, plus the heap and work lists that would otherwise
/// be allocated per sink.
struct RouteScratch {
    tiles: TileState,
    /// The tiles of the current tree in ascending order: the sources of the
    /// next search.
    tree_tiles: Vec<usize>,
    /// The tiles a search just added, sink end first.
    branch: Vec<usize>,
    heap: SearchHeap,
    sink_order: Vec<usize>,
}

/// Per-tile search state, epoch-stamped.
struct TileState {
    /// Bumped per sink search: `dist`/`prev` of a tile hold this search's
    /// values iff `reached[tile] == search`.
    search: u64,
    reached: Vec<u64>,
    dist: Vec<u64>,
    prev: Vec<usize>,
    /// Bumped per net: a tile is in the current net's tree (and `hops` holds
    /// its distance from the source along the tree) iff `in_tree[tile] == net`.
    net: u64,
    in_tree: Vec<u64>,
    hops: Vec<usize>,
}

impl RouteScratch {
    fn new(tiles: usize) -> Self {
        RouteScratch {
            tiles: TileState {
                search: 0,
                reached: vec![0; tiles],
                dist: vec![0; tiles],
                prev: vec![0; tiles],
                net: 0,
                in_tree: vec![0; tiles],
                hops: vec![0; tiles],
            },
            tree_tiles: Vec::new(),
            branch: Vec::new(),
            heap: BinaryHeap::new(),
            sink_order: Vec::new(),
        }
    }
}

impl TileState {
    fn in_tree(&self, tile: usize) -> bool {
        self.in_tree[tile] == self.net
    }

    /// Expand `node` (at distance `d`) into its four neighbours. Tree tiles
    /// are the search's sources at distance 0, so nothing improves on them.
    fn expand(&mut self, state: &ChannelState, node: usize, d: u64, heap: &mut SearchHeap) {
        let (rows, cols) = (state.rows, state.cols);
        let (r, c) = (node / cols, node % cols);
        let mut relax = |ni: usize, cost: u64| {
            if self.in_tree[ni] == self.net {
                return;
            }
            let nd = d + cost;
            if self.reached[ni] != self.search || nd < self.dist[ni] {
                self.reached[ni] = self.search;
                self.dist[ni] = nd;
                self.prev[ni] = node;
                heap.push(Reverse((nd, ni)));
            }
        };
        if r > 0 {
            relax(node - cols, state.cost_v[node - cols]);
        }
        if r + 1 < rows {
            relax(node + cols, state.cost_v[node]);
        }
        if c > 0 {
            relax(node - 1, state.cost_h[node - 1]);
        }
        if c + 1 < cols {
            relax(node + 1, state.cost_h[node]);
        }
    }
}

/// Route one net as a tree against a frozen congestion snapshot: sinks join
/// the tree one at a time via a multi-source Dijkstra whose wavefront starts
/// on every tile already in the tree, so later sinks reuse the trunk built
/// for earlier ones. A search costs O(tree tiles + tiles explored) and
/// allocates nothing: all of its state lives in `scratch`.
fn route_net(
    net: usize,
    source: (usize, usize),
    sinks: &[(usize, usize)],
    state: &ChannelState,
    scratch: &mut RouteScratch,
) -> RoutingTree {
    let cols = state.cols;
    let tile = |(r, c): (usize, usize)| r * cols + c;
    let RouteScratch {
        tiles,
        tree_tiles,
        branch,
        heap,
        sink_order,
    } = scratch;

    tiles.net += 1;
    tree_tiles.clear();
    tree_tiles.push(tile(source));
    tiles.in_tree[tile(source)] = tiles.net;
    tiles.hops[tile(source)] = 0;
    let mut tree_edges: Vec<RouteEdge> = Vec::new();

    // Deterministic sink order: nearest first, ties by net order. Routing
    // close sinks first grows the trunk outward, which later sinks reuse.
    sink_order.clear();
    sink_order.extend(0..sinks.len());
    sink_order.sort_by_key(|&i| {
        let (r, c) = sinks[i];
        (r.abs_diff(source.0) + c.abs_diff(source.1), i)
    });

    for &sink_index in sink_order.iter() {
        let target = tile(sinks[sink_index]);
        if tiles.in_tree(target) {
            continue;
        }

        tiles.search += 1;
        heap.clear();
        // A heap seeded with every tree tile at distance 0 would pop them
        // all, in ascending tile order, before any other entry (a segment
        // costs at least 1) — so expand them in that order directly and let
        // the heap hold only the tiles beyond the tree.
        for &node in tree_tiles.iter() {
            tiles.expand(state, node, 0, heap);
        }
        // Heap entries are `(cost, tile)` and totally ordered, so the pop
        // sequence depends only on which entries were pushed, never on the
        // order they were pushed in.
        while let Some(Reverse((d, node))) = heap.pop() {
            if d > tiles.dist[node] {
                continue;
            }
            if node == target {
                break;
            }
            tiles.expand(state, node, d, heap);
        }

        // Walk back from the sink until the existing tree, collecting the
        // new branch.
        debug_assert_eq!(
            tiles.reached[target], tiles.search,
            "grid searches always reach the sink"
        );
        branch.clear();
        let mut node = target;
        while !tiles.in_tree(node) {
            let p = tiles.prev[node];
            tree_edges.push(edge_between(
                (p / cols, p % cols),
                (node / cols, node % cols),
            ));
            branch.push(node);
            node = p;
        }
        // `node` is where the branch joins the tree; every tree edge costs
        // one hop, so hops count up from there towards the sink.
        let mut branch_hops = tiles.hops[node];
        for &joined in branch.iter().rev() {
            branch_hops += 1;
            tiles.in_tree[joined] = tiles.net;
            tiles.hops[joined] = branch_hops;
        }
        tree_tiles.extend_from_slice(branch);
        tree_tiles.sort_unstable();
    }

    let sink_hops = sinks
        .iter()
        .map(|&s| {
            debug_assert!(tiles.in_tree(tile(s)), "every sink is in its tree");
            tiles.hops[tile(s)]
        })
        .collect();
    RoutingTree {
        net,
        source,
        sinks: sinks.to_vec(),
        edges: tree_edges,
        sink_hops,
    }
}

/// The channel segment between two adjacent tiles.
fn edge_between(a: (usize, usize), b: (usize, usize)) -> RouteEdge {
    if a.0 == b.0 {
        RouteEdge {
            orientation: Orientation::Horizontal,
            row: a.0,
            col: a.1.min(b.1),
        }
    } else {
        RouteEdge {
            orientation: Orientation::Vertical,
            row: a.0.min(b.0),
            col: a.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{Placer, PlacerConfig};
    use fpsa_arch::{ArchitectureConfig, Fabric};
    use fpsa_mapper::{AllocationPolicy, Mapper, Net, NetlistBlock};
    use fpsa_nn::zoo;
    use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};

    fn lenet_placed() -> (Netlist, Placement, ArchitectureConfig) {
        let graph = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(&zoo::lenet())
            .unwrap();
        let netlist = Mapper::new(64, AllocationPolicy::DuplicationDegree(1))
            .map(&graph)
            .netlist;
        let config = ArchitectureConfig::fpsa();
        let fabric = Fabric::with_pe_count(config.clone(), netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        (netlist, placement, config)
    }

    fn routed_lenet() -> (Netlist, RoutingResult) {
        let (netlist, placement, config) = lenet_placed();
        let result = Router::new(config.routing).route(&netlist, &placement);
        (netlist, result)
    }

    #[test]
    fn every_net_is_routed() {
        let (netlist, result) = routed_lenet();
        assert_eq!(result.routed_nets(), netlist.nets().len());
        assert_eq!(result.connection_hops.len(), netlist.connection_count());
        assert_eq!(result.trees.len(), netlist.nets().len());
    }

    #[test]
    fn hop_counts_are_bounded_by_the_grid_perimeter() {
        let (_, result) = routed_lenet();
        // LeNet's fabric is small; no route should exceed a few dozen hops.
        assert!(result.critical_hops() < 200);
        assert!(result.average_hops() <= result.critical_hops() as f64);
    }

    #[test]
    fn routing_fits_the_fpsa_channel_width() {
        let (_, result) = routed_lenet();
        assert!(
            result.is_routable(),
            "peak occupancy {} exceeds channel width {}",
            result.peak_channel_occupancy,
            result.channel_width
        );
        assert_eq!(result.overused_channels, 0);
    }

    #[test]
    fn every_tree_is_connected_and_trunks_are_shared() {
        let (netlist, result) = routed_lenet();
        for tree in &result.trees {
            assert!(tree.is_connected(), "net {} tree is disconnected", tree.net);
        }
        // Multicast: the occupied segments are at most (and for high-fanout
        // CLB nets strictly fewer than) the sum of per-sink path lengths.
        let path_hop_sum: usize = result.connection_hops.iter().sum();
        assert!(result.total_channel_segments <= path_hop_sum);
        let high_fanout = netlist
            .nets()
            .iter()
            .position(|n| n.sinks().len() >= 4)
            .expect("LeNet has CLB control nets with fanout >= 4");
        let tree = &result.trees[high_fanout];
        let tree_path_sum: usize = tree.sink_hops.iter().sum();
        assert!(
            tree.wirelength() < tree_path_sum,
            "fanout-{} tree uses {} segments but {} path hops — no trunk sharing",
            tree.sinks.len(),
            tree.wirelength(),
            tree_path_sum
        );
    }

    #[test]
    fn negotiation_matches_or_beats_the_single_pass_width() {
        let (netlist, placement, config) = lenet_placed();
        let negotiated = Router::new(config.routing).route(&netlist, &placement);
        let single = Router::with_config(config.routing, RouterConfig::single_pass())
            .route(&netlist, &placement);
        assert!(
            negotiated.required_channel_width() <= single.required_channel_width(),
            "negotiated needs {} tracks, single pass {}",
            negotiated.required_channel_width(),
            single.required_channel_width()
        );
    }

    #[test]
    fn negotiation_resolves_a_contested_cut() {
        // Four nets crossing the same row on a 2-column grid: with capacity
        // 2 per channel, a one-shot shortest-path router piles them onto the
        // direct column; negotiation must spread them over both columns.
        let blocks: Vec<NetlistBlock> = (0..8)
            .map(|i| NetlistBlock::Pe {
                group: i,
                duplicate: 0,
            })
            .collect();
        let nets: Vec<Net> = (0..4)
            .map(|i| Net {
                source: i,
                sinks: vec![i + 4],
                values_per_activation: 1,
            })
            .collect();
        let netlist = Netlist::from_parts("cut", blocks, nets);
        let config = ArchitectureConfig::fpsa();
        let fabric = Fabric::with_pe_count(config.clone(), netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        let mut narrow = config.routing;
        narrow.channel_width = 2;
        let result = Router::new(narrow).route(&netlist, &placement);
        assert!(
            result.is_routable(),
            "peak {} with width 2 after {} iterations",
            result.peak_channel_occupancy,
            result.iterations
        );
    }

    #[test]
    fn routing_is_deterministic() {
        let (netlist, placement, config) = lenet_placed();
        let a = Router::new(config.routing).route(&netlist, &placement);
        let b = Router::new(config.routing).route(&netlist, &placement);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_waves_match_sequential_evaluation() {
        // The wave snapshot makes route computation a pure function of the
        // frozen congestion state, so parallel and sequential evaluation of
        // the same waves must agree bit for bit — which also means any rayon
        // thread count produces this same result.
        let (netlist, placement, config) = lenet_placed();
        let mut sequential_cfg = RouterConfig::negotiated();
        sequential_cfg.parallel = false;
        let parallel = Router::new(config.routing).route(&netlist, &placement);
        let sequential =
            Router::with_config(config.routing, sequential_cfg).route(&netlist, &placement);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn minimum_channel_width_is_tight() {
        let (netlist, placement, config) = lenet_placed();
        let router = Router::new(config.routing);
        let (width, result) = router.minimum_channel_width(&netlist, &placement);
        assert!(result.is_routable());
        assert_eq!(result.channel_width, width);
        assert!(width <= config.routing.channel_width);
        assert!(width >= 1);
        if width > 1 {
            let below = router.route_with_width(&netlist, &placement, width - 1);
            assert!(
                !below.is_routable(),
                "width {} already routes, {} is not minimal",
                width - 1,
                width
            );
        }
    }

    #[test]
    fn zero_hop_connections_are_free() {
        // A net whose sink is the source block itself costs nothing.
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
            sinks: vec![0],
            values_per_activation: 1,
        }];
        let netlist = Netlist::from_parts("self-loop", blocks, nets);
        let config = ArchitectureConfig::fpsa();
        let fabric = Fabric::with_pe_count(config.clone(), netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        let result = Router::new(config.routing).route(&netlist, &placement);
        assert_eq!(result.connection_hops, vec![0]);
        assert_eq!(result.total_channel_segments, 0);
        assert!(result.trees[0].is_connected());
    }
}
