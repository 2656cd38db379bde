//! Bind-time verification of the physical artifacts.
//!
//! The executor trusts nothing the mapper hands it: before any weight is
//! realized, [`Executor::bind`](super::Executor::bind) checks that every
//! group owns a PE, that the schedule orders every dependency, and that the
//! netlist carries every core-graph edge.

use super::{mismatch, ExecError};
use fpsa_mapper::{Mapping, NetlistBlock};
use fpsa_synthesis::{bucket_by_key, Adjacency, CoreOpGraph, GroupId};

/// Every group must own at least one PE duplicate: a zero-duplicate group
/// has no crossbar to realize weights on and no block to carry its edges
/// (and would divide by zero in the round-robin of [`verify_transport`]).
/// Once this holds, `per_group[g]` is a valid, non-zero index for every
/// group of `core`.
pub(super) fn verify_allocation(core: &CoreOpGraph, mapping: &Mapping) -> Result<(), ExecError> {
    let per_group = &mapping.allocation.per_group;
    if per_group.len() < core.len() {
        return Err(mismatch(format!(
            "allocation covers {} of the core graph's {} groups",
            per_group.len(),
            core.len()
        )));
    }
    match per_group[..core.len()].iter().position(|&d| d == 0) {
        Some(group) => Err(mismatch(format!(
            "group {group} is allocated zero PE duplicates"
        ))),
        None => Ok(()),
    }
}

/// Every dependency must execute strictly before its consumer under the
/// start-cycle interpretation the executor uses, and buffered edges must not
/// overlap their producer at all. `buffered` is the per-edge claim table of
/// [`Adjacency::match_edges`] over the schedule's buffered edges.
pub(super) fn verify_schedule_order(
    core: &CoreOpGraph,
    mapping: &Mapping,
    buffered: &[u32],
) -> Result<(), ExecError> {
    let schedule = &mapping.schedule;
    for (&(u, v), &claim) in core.edges().iter().zip(buffered) {
        let (Some(pu), Some(pv)) = (schedule.entry(u), schedule.entry(v)) else {
            return Err(mismatch(format!(
                "schedule misses entries for edge {u}->{v}"
            )));
        };
        let ordered = if claim != Adjacency::UNMATCHED {
            pv.start_cycle > pu.end_cycle
        } else {
            pv.start_cycle > pu.start_cycle
        };
        if !ordered {
            return Err(ExecError::ScheduleOrder {
                producer: u,
                consumer: v,
            });
        }
    }
    Ok(())
}

/// Every core-graph edge must be carried by netlist nets: direct PE→PE nets
/// covering every consumer duplicate (round-robin over producer duplicates),
/// or producer→SMB→consumer nets for buffered edges. The netlist is taken as
/// found (it may have been assembled by hand), so its blocks and connections
/// are indexed here rather than assumed to sit where `Netlist::build` puts
/// them: PE blocks by group offset then duplicate, SMBs by the edge they
/// buffer, connections as sorted rows per source block.
pub(super) fn verify_transport(
    core: &CoreOpGraph,
    adjacency: &Adjacency,
    mapping: &Mapping,
    buffered: &[u32],
) -> Result<(), ExecError> {
    let netlist = &mapping.netlist;
    let groups = core.len();

    // (group, duplicate) → block: PE blocks bucketed by group (anything else
    // in a spare bucket nobody reads), each group's row ordered by duplicate.
    let blocks = netlist.blocks();
    let group_of = |block: &NetlistBlock| match *block {
        NetlistBlock::Pe { group, .. } if group < groups => group,
        _ => groups,
    };
    let (pe_start, by_group) = bucket_by_key(groups + 1, blocks.iter().map(group_of));
    let mut pes: Vec<(u64, usize)> = by_group[..pe_start[groups]]
        .iter()
        .map(|&i| match blocks[i] {
            NetlistBlock::Pe { duplicate, .. } => (duplicate, i),
            _ => unreachable!("only PE blocks are bucketed below `groups`"),
        })
        .collect();
    for g in 0..groups {
        pes[pe_start[g]..pe_start[g + 1]].sort_unstable();
    }
    let pe_block = |group: GroupId, duplicate: u64| {
        let row = &pes[pe_start[group]..pe_start[group + 1]];
        row.binary_search_by_key(&duplicate, |&(d, _)| d)
            .ok()
            .map(|at| row[at].1)
    };

    // (from, to) → SMB block, per core-graph edge. Listing the SMBs last
    // first makes the last block of a repeated pair win, as a map would.
    let (smb_pairs, smb_blocks): (Vec<(GroupId, GroupId)>, Vec<usize>) = blocks
        .iter()
        .enumerate()
        .rev()
        .filter_map(|(i, block)| match *block {
            NetlistBlock::Smb { from, to } => Some(((from, to), i)),
            _ => None,
        })
        .unzip();
    let smb_of_edge = adjacency.match_edges(&smb_pairs);

    // (source block, sink block) membership: one sorted row per source.
    let mut row_start = vec![0usize; netlist.len() + 1];
    for net in netlist.nets().iter() {
        row_start[net.source() + 1] += net.sinks().len();
    }
    for b in 0..netlist.len() {
        row_start[b + 1] += row_start[b];
    }
    let mut row_fill = row_start.clone();
    let mut rows = vec![0usize; row_start[netlist.len()]];
    for net in netlist.nets().iter() {
        let at = &mut row_fill[net.source()];
        for sink in net.sinks() {
            rows[*at] = sink;
            *at += 1;
        }
    }
    for b in 0..netlist.len() {
        rows[row_start[b]..row_start[b + 1]].sort_unstable();
    }
    let connected = |source: usize, sink: usize| {
        rows[row_start[source]..row_start[source + 1]]
            .binary_search(&sink)
            .is_ok()
    };

    for (e, &(u, v)) in core.edges().iter().enumerate() {
        let (du, dv) = (
            mapping.allocation.per_group[u],
            mapping.allocation.per_group[v],
        );
        let missing = || ExecError::MissingTransport { from: u, to: v };
        if buffered[e] != Adjacency::UNMATCHED {
            let smb = match smb_of_edge[e] {
                Adjacency::UNMATCHED => return Err(missing()),
                listed => smb_blocks[listed as usize],
            };
            for d in 0..du {
                let pe = pe_block(u, d).ok_or_else(missing)?;
                if !connected(pe, smb) {
                    return Err(missing());
                }
            }
            for d in 0..dv {
                let pe = pe_block(v, d).ok_or_else(missing)?;
                if !connected(smb, pe) {
                    return Err(missing());
                }
            }
        } else {
            for d in 0..dv {
                let src = pe_block(u, d % du).ok_or_else(missing)?;
                let dst = pe_block(v, d).ok_or_else(missing)?;
                if !connected(src, dst) {
                    return Err(missing());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::compile;
    use super::super::{ExecError, Executor, Precision};
    use fpsa_device::variation::{CellVariation, WeightScheme};
    use fpsa_mapper::{AllocationPolicy, Mapper};
    use fpsa_nn::{zoo, GraphParameters};

    #[test]
    fn tampered_netlist_is_rejected_as_missing_transport() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (core, mut mapping) = compile(&graph, 1);
        // Drop the last PE→PE net.
        let blocks = mapping.netlist.blocks().to_vec();
        let mut nets = mapping.netlist.nets().to_vec();
        let dropped = nets
            .iter()
            .rposition(|n| {
                mapping.netlist.blocks()[n.source].is_pe()
                    && n.sinks.iter().all(|&s| mapping.netlist.blocks()[s].is_pe())
            })
            .expect("tiny MLP has PE→PE nets");
        nets.remove(dropped);
        mapping.netlist = fpsa_mapper::Netlist::from_parts("tampered", blocks, nets);
        let err = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap_err();
        assert!(matches!(err, ExecError::MissingTransport { .. }), "{err}");
    }

    #[test]
    fn tampered_schedule_is_rejected_as_order_violation() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (core, mut mapping) = compile(&graph, 1);
        // Force a consumer to start at cycle 0, tied with its producer.
        let consumer = core.edges()[0].1;
        mapping.schedule.entries[consumer].start_cycle = 0;
        let err = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap_err();
        assert!(matches!(err, ExecError::ScheduleOrder { .. }), "{err}");
    }

    #[test]
    fn a_cyclic_core_graph_maps_without_panic_and_is_rejected_at_bind() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (mut core, _) = compile(&graph, 1);
        // Close a 2-cycle over the first dependency.
        let (producer, consumer) = core.edges()[0];
        core.add_edge(consumer, producer);
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&core);
        assert_eq!(mapping.schedule.entries.len(), core.len());
        let err = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap_err();
        assert!(matches!(err, ExecError::ScheduleOrder { .. }), "{err}");
    }

    #[test]
    fn zero_or_missing_duplicate_allocations_are_typed_mismatches() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (core, mapping) = compile(&graph, 1);
        let producer = core.edges()[0].0;
        // A group without a PE used to divide by zero in the transport
        // round-robin, and under Noisy would realize no weights at all.
        let mut zeroed = mapping.clone();
        zeroed.allocation.per_group[producer] = 0;
        // An allocation shorter than the core graph used to default the
        // missing groups to one duplicate.
        let mut short = mapping.clone();
        short.allocation.per_group.truncate(core.len() - 1);
        let noisy = Precision::Noisy {
            scheme: WeightScheme::fpsa_add(),
            variation: CellVariation::measured(),
            seed: 1,
        };
        for tampered in [&zeroed, &short] {
            for precision in [&Precision::Float, &noisy] {
                let err = Executor::bind(&graph, &params, &core, tampered, precision).unwrap_err();
                assert!(matches!(err, ExecError::ModelMismatch { .. }), "{err}");
            }
        }
    }
}
