//! Property-based correctness of warm-started placement.
//!
//! Whatever random netlist (and donor) the annealer is seeded from, the
//! warm-started result must be exactly as trustworthy as a cold one:
//!
//! * **legal** — every block sits on a distinct slot of its own kind (PEs on
//!   PE slots), inside the fabric;
//! * **routable input** — the deterministic router accepts the placement and
//!   produces connected trees, exactly as it does for cold placements;
//! * **deterministic** — the same (netlist, donor, seed) warm start
//!   reproduces the identical placement.

use fpsa_arch::{ArchitectureConfig, BlockKind, Fabric};
use fpsa_mapper::{Net, Netlist, NetlistBlock};
use fpsa_placeroute::{Placer, PlacerConfig, Router, WarmStart};
use fpsa_testgen::{cases, vec};
use rand::Rng;
use std::collections::HashSet;

/// Build a synthetic all-PE netlist from raw random draws (the same
/// folding scheme as the router property suite).
fn netlist_from(name: &str, blocks: usize, raw_nets: &[Vec<usize>]) -> Netlist {
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
    Netlist::from_parts(name, block_list, nets)
}

/// Every block on a distinct PE slot of the fabric.
fn assert_legal(netlist: &Netlist, fabric: &Fabric, positions: &[(usize, usize)]) {
    let pe_slots: HashSet<(usize, usize)> = fabric
        .slots_of(BlockKind::Pe)
        .into_iter()
        .map(|s| fabric.dims.coord(s))
        .collect();
    assert_eq!(positions.len(), netlist.len());
    let mut used = HashSet::new();
    for &pos in positions {
        assert!(pe_slots.contains(&pos), "{pos:?} is not a PE slot");
        assert!(used.insert(pos), "{pos:?} claimed twice");
    }
}

/// A warm start from a cold donor of the same netlist is legal, cheaper
/// than the cold anneal, routable, and deterministic.
#[test]
fn warm_starts_are_legal_routable_and_deterministic() {
    let name = "warm_starts_are_legal_routable_and_deterministic";
    cases(name, 32, |rng| {
        let blocks = rng.gen_range(4usize..24);
        let raw_nets = vec(rng, 1..12, |r| vec(r, 2..6, |r| r.gen_range(0usize..1000)));
        let netlist = netlist_from("warm-prop", blocks, &raw_nets);
        let config = ArchitectureConfig::fpsa();
        let fabric = Fabric::with_pe_count(config.clone(), netlist.len());
        let placer = Placer::new(PlacerConfig::fast());
        let cold = placer.place(&netlist, &fabric);

        let seed = WarmStart::from_placement(&netlist, &cold);
        let warm = placer.place_seeded(&netlist, &fabric, Some(&seed));
        assert!(warm.quality().warm_started);
        assert_eq!(warm.quality().seeded_blocks, netlist.len());
        assert!(warm.quality().moves_evaluated <= cold.quality().moves_evaluated);
        assert_legal(&netlist, &fabric, warm.positions());

        // The router accepts the warm placement exactly like a cold one.
        let routed = Router::new(config.routing).route(&netlist, &warm);
        assert_eq!(routed.trees.len(), netlist.nets().len());
        for tree in &routed.trees {
            assert!(tree.is_connected());
        }

        // Determinism: the same warm start reproduces the same placement.
        let again = placer.place_seeded(&netlist, &fabric, Some(&seed));
        assert_eq!(warm.positions(), again.positions());
        assert_eq!(warm.wirelength(), again.wirelength());
    });
}

/// A donor from an *edited* netlist (some blocks gone) still seeds the
/// surviving blocks and yields a legal, routable placement.
#[test]
fn donors_from_edited_netlists_seed_survivors_legally() {
    let name = "donors_from_edited_netlists_seed_survivors_legally";
    cases(name, 32, |rng| {
        let blocks = rng.gen_range(6usize..24);
        let raw_nets = vec(rng, 1..12, |r| vec(r, 2..6, |r| r.gen_range(0usize..1000)));
        let dropped = rng.gen_range(1usize..4);
        let netlist = netlist_from("edited-prop", blocks, &raw_nets);
        let config = ArchitectureConfig::fpsa();
        let fabric = Fabric::with_pe_count(config.clone(), netlist.len());
        let placer = Placer::new(PlacerConfig::fast());
        let cold = placer.place(&netlist, &fabric);
        let seed = WarmStart::from_placement(&netlist, &cold);

        // The edited netlist keeps a prefix of the blocks (groups keep their
        // identity, so the donor's positions still match them).
        let survivors = blocks - dropped.min(blocks - 2);
        let edited = netlist_from("edited-prop", survivors, &raw_nets);
        let warm = placer.place_seeded(&edited, &fabric, Some(&seed));
        assert!(warm.quality().warm_started);
        assert!(warm.quality().seeded_blocks >= survivors.min(blocks));
        assert_legal(&edited, &fabric, warm.positions());
        let routed = Router::new(config.routing).route(&edited, &warm);
        for tree in &routed.trees {
            assert!(tree.is_connected());
        }
    });
}
