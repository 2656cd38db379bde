//! Property-based invariants of the scheduler over arbitrary core-op DAGs.
//!
//! The compiled-model execution engine (`fpsa_sim::exec`) interprets
//! schedule entries in start-cycle order and refuses schedules that violate
//! dependency ordering — these properties pin the contract the scheduler
//! must uphold for *any* DAG, not just the zoo models:
//!
//! * **dependency order** — every edge's consumer starts strictly after its
//!   producer starts (NBD) or strictly after it ends (BD for buffered
//!   edges), so start-cycle order is a topological order;
//! * **no double-booking** — every PE hosts exactly one group, and the
//!   group's scheduled window is long enough for all of the PE's iterations
//!   (the RC constraint at group granularity);
//! * **sampling window** — every execution lasts at least Γ cycles.

use fpsa_mapper::{AllocationPolicy, Mapper, NetlistBlock};
use fpsa_synthesis::{CoreOpGraph, CoreOpGroup, CoreOpKind};
use fpsa_testgen::{cases, vec};
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Build a random DAG: `reuses[i]` is group `i`'s reuse degree; an edge
/// `i -> j` (i < j) exists where the corresponding bit is set.
fn dag(reuses: &[u64], edge_bits: &[u32]) -> CoreOpGraph {
    let mut g = CoreOpGraph::new("prop-dag", 256, 256);
    for (i, &reuse) in reuses.iter().enumerate() {
        g.add_group(CoreOpGroup {
            id: 0,
            name: format!("g{i}"),
            source_node: i,
            kind: CoreOpKind::Vmm,
            rows: 256,
            cols: 128,
            row_offset: 0,
            col_offset: 0,
            reuse_degree: reuse,
            relu: false,
            layer_depth: i,
        });
    }
    let mut bit = 0;
    for i in 0..reuses.len() {
        for j in (i + 1)..reuses.len() {
            if edge_bits.get(bit).copied().unwrap_or(0) == 1 {
                g.add_edge(i, j);
            }
            bit += 1;
        }
    }
    g
}

/// NBD/BD: schedule entries respect net dependencies, so sorting by
/// start cycle yields a valid (topological) execution order.
#[test]
fn entries_respect_net_dependencies() {
    cases("entries_respect_net_dependencies", 96, |rng| {
        let reuses = vec(rng, 2..10, |r| r.gen_range(1u64..200));
        let edge_bits = (0..45).map(|_| rng.gen_range(0u32..2)).collect::<Vec<_>>();
        let duplication = rng.gen_range(1u64..8);
        let graph = dag(&reuses, &edge_bits);
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(duplication)).map(&graph);
        let schedule = &mapping.schedule;
        let buffered: HashSet<_> = schedule.buffered_edges.iter().copied().collect();
        for &(u, v) in graph.edges() {
            let pu = schedule.entry(u).unwrap();
            let pv = schedule.entry(v).unwrap();
            if buffered.contains(&(u, v)) {
                assert!(
                    pv.start_cycle > pu.end_cycle,
                    "BD violated for ({u},{v}): {pu:?} -> {pv:?}"
                );
            } else {
                assert!(
                    pv.start_cycle > pu.start_cycle,
                    "NBD violated for ({u},{v}): {pu:?} -> {pv:?}"
                );
                assert!(
                    pv.end_cycle > pu.end_cycle,
                    "NBD end cover violated for ({u},{v}): {pu:?} -> {pv:?}"
                );
            }
        }
    });
}

/// RC: no PE is double-booked — each PE block hosts exactly one group,
/// and its group's scheduled window covers the PE's iteration count.
#[test]
fn no_pe_is_double_booked() {
    cases("no_pe_is_double_booked", 96, |rng| {
        let reuses = vec(rng, 2..10, |r| r.gen_range(1u64..200));
        let edge_bits = (0..45).map(|_| rng.gen_range(0u32..2)).collect::<Vec<_>>();
        let duplication = rng.gen_range(1u64..8);
        let graph = dag(&reuses, &edge_bits);
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(duplication)).map(&graph);
        let mut seen: HashMap<(usize, u64), usize> = HashMap::new();
        for (slot, block) in mapping.netlist.blocks().iter().enumerate() {
            if let NetlistBlock::Pe { group, duplicate } = *block {
                // A (group, duplicate) PE must exist exactly once.
                assert!(
                    seen.insert((group, duplicate), slot).is_none(),
                    "PE ({group},{duplicate}) instantiated twice"
                );
                let entry = mapping.schedule.entry(group).unwrap();
                let iterations = mapping.allocation.iterations[group];
                assert!(
                    entry.duration() >= iterations * mapping.schedule.sampling_window,
                    "PE ({group},{duplicate}) window {} too short for {} iterations",
                    entry.duration(),
                    iterations
                );
            }
        }
        assert_eq!(seen.len(), mapping.allocation.total_pes());
    });
}

/// SW: every execution lasts at least one sampling window.
#[test]
fn sampling_window_holds_for_arbitrary_dags() {
    cases("sampling_window_holds_for_arbitrary_dags", 96, |rng| {
        let reuses = vec(rng, 1..10, |r| r.gen_range(1u64..200));
        let edge_bits = (0..45).map(|_| rng.gen_range(0u32..2)).collect::<Vec<_>>();
        let graph = dag(&reuses, &edge_bits);
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&graph);
        for entry in &mapping.schedule.entries {
            assert!(entry.duration() >= 64, "SW violated: {entry:?}");
        }
    });
}
