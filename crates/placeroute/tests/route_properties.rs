//! Property-based invariants of the PathFinder router: whatever random
//! netlist it gets, a result that claims routability really fits every
//! channel, the reported occupancy matches the trees, and every routing
//! tree actually connects its source to all its sinks.

use fpsa_arch::{ArchitectureConfig, Fabric};
use fpsa_mapper::{Net, Netlist, NetlistBlock};
use fpsa_placeroute::{Placer, PlacerConfig, RouteEdge, Router, RoutingResult};
use fpsa_testgen::{cases, vec};
use rand::Rng;
use std::collections::HashMap;

/// Build a synthetic all-PE netlist from raw random draws: every inner
/// vector becomes one net (first element the source, the rest sinks), with
/// indices folded into the block range.
fn netlist_from(blocks: usize, raw_nets: &[Vec<usize>]) -> Netlist {
    let block_list: Vec<NetlistBlock> = (0..blocks)
        .map(|i| NetlistBlock::Pe {
            group: i,
            duplicate: 0,
        })
        .collect();
    let nets: Vec<Net> = raw_nets
        .iter()
        .map(|spec| {
            let source = spec[0] % blocks;
            let mut sinks: Vec<usize> = spec[1..].iter().map(|&s| s % blocks).collect();
            sinks.sort_unstable();
            sinks.dedup();
            Net {
                source,
                sinks,
                values_per_activation: 1,
            }
        })
        .collect();
    Netlist::from_parts("property", block_list, nets)
}

/// Recompute per-channel occupancy from the routing trees themselves.
fn occupancy_from_trees(result: &RoutingResult) -> HashMap<RouteEdge, usize> {
    let mut occupancy: HashMap<RouteEdge, usize> = HashMap::new();
    for tree in &result.trees {
        for &edge in &tree.edges {
            *occupancy.entry(edge).or_default() += 1;
        }
    }
    occupancy
}

/// Routed designs never claim `is_routable()` while any channel exceeds
/// its capacity, and the reported peak matches the trees exactly.
#[test]
fn routability_claims_match_the_trees() {
    cases("routability_claims_match_the_trees", 48, |rng| {
        let blocks = rng.gen_range(4usize..24);
        let raw_nets = vec(rng, 1..12, |r| vec(r, 2..6, |r| r.gen_range(0usize..1000)));
        let width = rng.gen_range(1usize..5);
        let netlist = netlist_from(blocks, &raw_nets);
        let config = ArchitectureConfig::fpsa();
        let fabric = Fabric::with_pe_count(config.clone(), netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        let mut routing_arch = config.routing;
        routing_arch.channel_width = width;
        let result = Router::new(routing_arch).route(&netlist, &placement);

        let occupancy = occupancy_from_trees(&result);
        let recomputed_peak = occupancy.values().copied().max().unwrap_or(0);
        assert_eq!(
            result.peak_channel_occupancy, recomputed_peak,
            "reported peak must match the trees"
        );
        let recomputed_overused = occupancy.values().filter(|&&o| o > width).count();
        assert_eq!(result.overused_channels, recomputed_overused);
        if result.is_routable() {
            for (edge, occupancy) in &occupancy {
                assert!(
                    *occupancy <= width,
                    "routable result but channel {:?} holds {} > {}",
                    edge,
                    occupancy,
                    width
                );
            }
        }
        let segments: usize = occupancy.values().sum();
        assert_eq!(result.total_channel_segments, segments);
    });
}

/// Every routing tree is connected: the source reaches all sinks.
#[test]
fn every_tree_connects_source_to_all_sinks() {
    cases("every_tree_connects_source_to_all_sinks", 48, |rng| {
        let blocks = rng.gen_range(4usize..24);
        let raw_nets = vec(rng, 1..12, |r| vec(r, 2..6, |r| r.gen_range(0usize..1000)));
        let netlist = netlist_from(blocks, &raw_nets);
        let config = ArchitectureConfig::fpsa();
        let fabric = Fabric::with_pe_count(config.clone(), netlist.len());
        let placement = Placer::new(PlacerConfig::fast()).place(&netlist, &fabric);
        let result = Router::new(config.routing).route(&netlist, &placement);

        assert_eq!(result.trees.len(), netlist.nets().len());
        assert_eq!(result.connection_hops.len(), netlist.connection_count());
        for tree in &result.trees {
            assert!(
                tree.is_connected(),
                "net {} tree with {} edges does not reach all sinks",
                tree.net,
                tree.edges.len()
            );
            // Hop profiles agree with the tree: zero exactly when the sink
            // shares the source tile.
            for (&sink, &hops) in tree.sinks.iter().zip(&tree.sink_hops) {
                assert_eq!(hops == 0, sink == tree.source);
            }
        }
    });
}
