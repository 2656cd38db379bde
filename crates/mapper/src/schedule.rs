//! Algorithm 1: greedy scheduling of core-op groups.
//!
//! Every group executes its core-ops back-to-back on its PE(s); the schedule
//! assigns each group a start and end cycle so that the five constraints of
//! Section 5.2 hold:
//!
//! * **RC** (resource conflict) — core-ops mapped to the same PE never
//!   overlap; in the group-level model this is captured by a group's
//!   duration being `iterations x Γ`.
//! * **NBD** (no-buffer dependency) — a consumer chained directly to its
//!   producer must start one cycle after it and finish one cycle later, so
//!   the spike train can stream through.
//! * **BD** (buffered dependency) — if a buffer is inserted, the consumer
//!   starts only after the producer has finished.
//! * **BC** (buffer conflict) — consumers reading the same buffer port are
//!   separated by at least one sampling window.
//! * **SW** (sampling window) — every execution lasts at least Γ cycles.
//!
//! The greedy pass walks the graph in topological order and chains producers
//! and consumers without a buffer whenever their durations are compatible;
//! otherwise it marks the edge as buffered, which splits the circuit into
//! pipeline stages exactly as the paper describes.

use crate::allocation::Allocation;
use fpsa_synthesis::{bucket_by_key, Adjacency, GroupId};
use serde::{Deserialize, Serialize};

/// Scheduling result for one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// The group this entry describes.
    pub group: GroupId,
    /// First cycle of execution.
    pub start_cycle: u64,
    /// Last cycle of execution (exclusive).
    pub end_cycle: u64,
    /// Pipeline stage index (increments across buffered edges).
    pub stage: usize,
    /// Iterations executed on each PE of the group.
    pub iterations: u64,
}

impl ScheduleEntry {
    /// Execution duration in cycles.
    pub fn duration(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// The complete schedule of a mapped model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-group entries, indexed by group id.
    pub entries: Vec<ScheduleEntry>,
    /// Edges that required an SMB buffer.
    pub buffered_edges: Vec<(GroupId, GroupId)>,
    /// Sampling window Γ used.
    pub sampling_window: u64,
}

impl Schedule {
    /// The pipeline period in cycles: the slowest stage bounds the rate at
    /// which new samples can enter the pipeline.
    pub fn pipeline_period_cycles(&self) -> u64 {
        self.entries
            .iter()
            .map(ScheduleEntry::duration)
            .max()
            .unwrap_or(self.sampling_window)
    }

    /// The end-to-end latency of one sample in cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.end_cycle).max().unwrap_or(0)
    }

    /// Number of pipeline stages (1 + number of buffer levels).
    pub fn stage_count(&self) -> usize {
        self.entries.iter().map(|e| e.stage + 1).max().unwrap_or(0)
    }

    /// The bottleneck iteration count across all groups.
    pub fn max_stage_iterations(&self) -> u64 {
        self.entries.iter().map(|e| e.iterations).max().unwrap_or(1)
    }

    /// Number of buffered edges (each consumes SMB capacity).
    pub fn buffer_count(&self) -> usize {
        self.buffered_edges.len()
    }

    /// Look up the entry of a group.
    pub fn entry(&self, group: GroupId) -> Option<&ScheduleEntry> {
        self.entries.get(group)
    }
}

/// The greedy scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scheduler {
    /// Sampling window Γ in cycles.
    pub sampling_window: u64,
}

impl Scheduler {
    /// Create a scheduler for the given sampling window.
    pub fn new(sampling_window: u64) -> Self {
        Scheduler {
            sampling_window: sampling_window.max(1),
        }
    }

    /// Produce a schedule for an allocated core-op graph, given as its
    /// adjacency ([`fpsa_synthesis::CoreOpGraph::adjacency`]).
    pub fn schedule(&self, adjacency: &Adjacency, allocation: &Allocation) -> Schedule {
        self.schedule_counting_passes(adjacency, allocation).0
    }

    /// [`Scheduler::schedule`], also reporting how many BC/relaxation
    /// fixpoint passes ran (the last one changes nothing). The whole run is
    /// O(passes · edges): every pass is one sweep over the CSR in-edge array.
    pub fn schedule_counting_passes(
        &self,
        adjacency: &Adjacency,
        allocation: &Allocation,
    ) -> (Schedule, usize) {
        let n = adjacency.len();
        let order = topological_order(adjacency);
        let mut placed: Vec<Option<ScheduleEntry>> = vec![None; n];
        let mut buffered_edges = Vec::new();
        // One flag per in-edge slot of the adjacency: does the edge cross an
        // SMB buffer? Parallel edges classify alike, so the flag of a slot
        // is the membership of its (producer, consumer) pair.
        let mut buffered = vec![false; adjacency.edge_count()];

        for &v in &order {
            let iterations = allocation.iterations.get(v).copied().unwrap_or(1);
            let duration = iterations * self.sampling_window;
            let preds = adjacency.predecessors(v);

            let mut start = 0u64;
            let mut stage = 0usize;
            for (slot, p) in adjacency.in_edge_slots(v).zip(preds) {
                // Only a cyclic edge list leaves a predecessor unscheduled
                // here; such an edge constrains nothing in this pass.
                let Some(pu) = placed[p.group()] else {
                    continue;
                };
                // NBD is possible only when this group's execution can cover
                // the producer's (equal or longer duration); otherwise the
                // spike trains cannot stream and a buffer is required (BD).
                if duration < pu.duration() {
                    buffered[slot] = true;
                    buffered_edges.push((p.group(), v));
                    start = start.max(pu.end_cycle + 1);
                    stage = stage.max(pu.stage + 1);
                } else {
                    start = start.max(pu.start_cycle + 1);
                    stage = stage.max(pu.stage);
                }
            }
            // SW: duration is already >= Γ because iterations >= 1.
            let mut end = start + duration;
            // NBD end condition: cover every unbuffered producer's end.
            for p in preds {
                let Some(pu) = placed[p.group()] else {
                    continue;
                };
                if duration >= pu.duration() && end <= pu.end_cycle {
                    end = pu.end_cycle + 1;
                }
            }
            placed[v] = Some(ScheduleEntry {
                group: v,
                start_cycle: start,
                end_cycle: end,
                stage,
                iterations,
            });
        }
        let mut entries: Vec<ScheduleEntry> = placed
            .into_iter()
            .map(|e| e.expect("the order visits every group"))
            .collect();

        // BC: consumers of the same buffered producer must be separated by at
        // least one sampling window, and any BC shift must propagate to the
        // shifted group's own consumers (their NBD/BD starts were computed
        // against the pre-shift position). Alternate the BC serialization
        // pass with a dependency relaxation pass until a fixpoint: both
        // passes only move entries later, so the loop converges, and an
        // already-consistent schedule passes through unchanged.
        //
        // Buffered consumers bucketed by producer (counting sort, so each
        // bucket keeps `buffered_edges` order); producers are then visited in
        // ascending group id, which makes the fixpoint a function of the
        // inputs alone.
        let (bucket_start, bucket) = bucket_by_key(n, buffered_edges.iter().map(|&(u, _)| u));
        let consumers: Vec<GroupId> = bucket.iter().map(|&i| buffered_edges[i].1).collect();
        let mut sorted: Vec<GroupId> = Vec::new();

        // The cap is a safety net far above what any real schedule needs
        // (every pass moves at least one entry strictly later or stops);
        // any residual violation — a cyclic edge list never settles — is
        // still rejected by the execution engine's bind-time schedule
        // verification.
        let mut passes = 0usize;
        for _ in 0..10_000 {
            passes += 1;
            let mut changed = false;
            // BC serialization.
            for u in 0..n {
                let bucket = &consumers[bucket_start[u]..bucket_start[u + 1]];
                if bucket.len() < 2 {
                    continue;
                }
                sorted.clear();
                sorted.extend_from_slice(bucket);
                sorted.sort_by_key(|&v| entries[v].start_cycle);
                for pair in sorted.windows(2) {
                    let first_end = entries[pair[0]].end_cycle;
                    let e = &mut entries[pair[1]];
                    if e.end_cycle <= first_end + self.sampling_window && e.start_cycle <= first_end
                    {
                        let shift = first_end + 1 - e.start_cycle;
                        e.start_cycle += shift;
                        e.end_cycle += shift;
                        changed = true;
                    }
                }
            }
            // Dependency relaxation in topological order: re-enforce the
            // NBD/BD start constraints and the NBD end-cover condition.
            for &v in &order {
                let current = entries[v];
                let mut start = current.start_cycle;
                let mut end = current.end_cycle;
                let preds = adjacency.predecessors(v);
                let flags = &buffered[adjacency.in_edge_slots(v)];
                for (p, &is_buffered) in preds.iter().zip(flags) {
                    let pu = &entries[p.group()];
                    let required = if is_buffered {
                        pu.end_cycle + 1
                    } else {
                        pu.start_cycle + 1
                    };
                    if start < required {
                        end += required - start;
                        start = required;
                    }
                }
                for (p, &is_buffered) in preds.iter().zip(flags) {
                    // NBD end cover: an unbuffered consumer must finish
                    // after its producer. The edge was classified
                    // unbuffered because the consumer's base duration
                    // covers the producer's, so the cover is always
                    // required here — testing current (possibly inflated)
                    // durations instead would silently skip it.
                    let producer_end = entries[p.group()].end_cycle;
                    if !is_buffered && end <= producer_end {
                        end = producer_end + 1;
                    }
                }
                if (start, end) != (current.start_cycle, current.end_cycle) {
                    changed = true;
                    entries[v].start_cycle = start;
                    entries[v].end_cycle = end;
                }
            }
            if !changed {
                break;
            }
        }

        let schedule = Schedule {
            entries,
            buffered_edges,
            sampling_window: self.sampling_window,
        };
        (schedule, passes)
    }
}

/// Kahn topological order over the group graph; groups not reachable through
/// edges keep their id order.
fn topological_order(adjacency: &Adjacency) -> Vec<GroupId> {
    let n = adjacency.len();
    let mut indegree: Vec<usize> = (0..n).map(|v| adjacency.predecessors(v).len()).collect();
    // The order doubles as the Kahn queue: groups are appended once their
    // last producer has been visited.
    let mut order: Vec<GroupId> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for s in adjacency.successors(u) {
            let v = s.group();
            indegree[v] -= 1;
            if indegree[v] == 0 {
                order.push(v);
            }
        }
    }
    // Defensive: if the edge list had a cycle, the groups on or behind it
    // still have producers outstanding; append them so every group receives
    // a schedule entry.
    if order.len() != n {
        order.extend((0..n).filter(|&i| indegree[i] != 0));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationPolicy;
    use fpsa_synthesis::{CoreOpGraph, CoreOpGroup, CoreOpKind};

    fn group(reuse: u64, depth: usize) -> CoreOpGroup {
        CoreOpGroup {
            id: 0,
            name: "g".into(),
            source_node: 0,
            kind: CoreOpKind::Vmm,
            rows: 256,
            cols: 256,
            row_offset: 0,
            col_offset: 0,
            reuse_degree: reuse,
            relu: true,
            layer_depth: depth,
        }
    }

    fn chain(reuses: &[u64]) -> CoreOpGraph {
        let mut g = CoreOpGraph::new("chain", 256, 256);
        let mut prev: Option<GroupId> = None;
        for (i, &r) in reuses.iter().enumerate() {
            let id = g.add_group(group(r, i));
            if let Some(p) = prev {
                g.add_edge(p, id);
            }
            prev = Some(id);
        }
        g
    }

    fn schedule_chain(reuses: &[u64]) -> (CoreOpGraph, Schedule) {
        let g = chain(reuses);
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let s = Scheduler::new(64).schedule(&g.adjacency(), &alloc);
        (g, s)
    }

    #[test]
    fn equal_durations_chain_without_buffers() {
        let (_, s) = schedule_chain(&[1, 1, 1]);
        assert!(s.buffered_edges.is_empty());
        assert_eq!(s.stage_count(), 1);
        // NBD: each group starts one cycle after its producer.
        assert_eq!(s.entries[0].start_cycle, 0);
        assert_eq!(s.entries[1].start_cycle, 1);
        assert_eq!(s.entries[2].start_cycle, 2);
        // And ends after it.
        assert!(s.entries[1].end_cycle > s.entries[0].end_cycle);
    }

    #[test]
    fn shrinking_durations_need_buffers() {
        // A convolutional layer (many iterations) feeding a small layer:
        // the consumer cannot cover the producer, so a buffer is inserted.
        let (_, s) = schedule_chain(&[100, 1]);
        assert_eq!(s.buffered_edges, vec![(0, 1)]);
        assert_eq!(s.stage_count(), 2);
        // BD: the consumer starts strictly after the producer ends.
        assert!(s.entries[1].start_cycle > s.entries[0].end_cycle);
    }

    #[test]
    fn growing_durations_do_not_need_buffers() {
        let (_, s) = schedule_chain(&[1, 100]);
        assert!(s.buffered_edges.is_empty());
        assert!(s.entries[1].end_cycle > s.entries[0].end_cycle);
    }

    #[test]
    fn sampling_window_constraint_holds() {
        let (_, s) = schedule_chain(&[1, 4, 2]);
        for e in &s.entries {
            assert!(e.duration() >= 64, "SW violated: {e:?}");
        }
    }

    #[test]
    fn buffer_conflict_serializes_shared_buffer_consumers() {
        // One heavy producer feeding two light consumers through buffers.
        let mut g = CoreOpGraph::new("fanout", 256, 256);
        let p = g.add_group(group(10, 0));
        let a = g.add_group(group(1, 1));
        let b = g.add_group(group(1, 1));
        g.add_edge(p, a);
        g.add_edge(p, b);
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let s = Scheduler::new(64).schedule(&g.adjacency(), &alloc);
        assert_eq!(s.buffer_count(), 2);
        let (ea, eb) = (s.entries[a], s.entries[b]);
        let separated = ea.end_cycle + 64 <= eb.end_cycle || eb.end_cycle + 64 <= ea.end_cycle;
        assert!(separated, "BC violated: {ea:?} vs {eb:?}");
    }

    #[test]
    fn bc_shifts_propagate_to_downstream_consumers() {
        // A heavy producer feeding two light buffered consumers, both of
        // which feed a join group: the BC pass serializes the second
        // consumer *after* the join was scheduled against its old position,
        // so the shift must propagate or the join runs before its producer.
        let mut g = CoreOpGraph::new("bc-prop", 256, 256);
        let p = g.add_group(group(100, 0));
        let a = g.add_group(group(1, 1));
        let b = g.add_group(group(1, 1));
        let join = g.add_group(group(1, 2));
        g.add_edge(p, a);
        g.add_edge(p, b);
        g.add_edge(a, join);
        g.add_edge(b, join);
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let s = Scheduler::new(64).schedule(&g.adjacency(), &alloc);
        let buffered: std::collections::HashSet<_> = s.buffered_edges.iter().copied().collect();
        for &(u, v) in g.edges() {
            let (pu, pv) = (s.entries[u], s.entries[v]);
            if buffered.contains(&(u, v)) {
                assert!(pv.start_cycle > pu.end_cycle, "BD violated for ({u},{v})");
            } else {
                assert!(
                    pv.start_cycle > pu.start_cycle,
                    "NBD violated for ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn repeated_scheduling_of_shared_consumers_yields_one_schedule() {
        // Three heavy producers buffered into overlapping sets of six light
        // consumers: the BC pass serializes a consumer once per producer, so
        // the fixpoint depends on the order producers are visited in. That
        // order must be a function of the graph — visiting them in a
        // per-call hash order gave this graph several distinct schedules
        // within one process.
        let mut g = CoreOpGraph::new("shared", 256, 256);
        for reuse in [40, 48, 45] {
            g.add_group(group(reuse, 0));
        }
        for reuse in [4, 3, 4, 3, 2, 4] {
            g.add_group(group(reuse, 1));
        }
        let fanout: [&[GroupId]; 3] = [&[3, 4, 5, 6, 7, 8], &[3, 4, 6, 7], &[4, 5, 6, 7, 8]];
        for (producer, consumers) in fanout.iter().enumerate() {
            for &consumer in consumers.iter() {
                g.add_edge(producer, consumer);
            }
        }
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let scheduler = Scheduler::new(64);
        let first = scheduler.schedule(&g.adjacency(), &alloc);
        assert_eq!(first.buffer_count(), 15);
        for _ in 0..64 {
            assert_eq!(scheduler.schedule(&g.adjacency(), &alloc), first);
        }
    }

    #[test]
    fn a_cyclic_edge_list_still_schedules_every_group() {
        // Not a DAG, so no schedule can satisfy both edges — but scheduling
        // must hand every group an entry instead of panicking; the executor's
        // bind-time verification is what rejects the result.
        let mut g = chain(&[4, 4, 1]);
        g.add_edge(1, 0);
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let s = Scheduler::new(64).schedule(&g.adjacency(), &alloc);
        assert_eq!(s.entries.len(), 3);
        for (i, e) in s.entries.iter().enumerate() {
            assert_eq!(e.group, i);
            assert!(e.duration() >= 64);
        }
    }

    #[test]
    fn pipeline_period_is_bottleneck_duration() {
        let (_, s) = schedule_chain(&[100, 10, 1]);
        assert_eq!(s.pipeline_period_cycles(), 100 * 64);
        assert_eq!(s.max_stage_iterations(), 100);
    }

    #[test]
    fn duplication_shrinks_period_and_latency() {
        let g = chain(&[64, 64, 1]);
        let a1 = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let a16 = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(16));
        let s1 = Scheduler::new(64).schedule(&g.adjacency(), &a1);
        let s16 = Scheduler::new(64).schedule(&g.adjacency(), &a16);
        assert!(s16.pipeline_period_cycles() < s1.pipeline_period_cycles());
        assert!(s16.latency_cycles() < s1.latency_cycles());
    }

    #[test]
    fn resource_conflict_is_respected_within_a_group() {
        // RC at group level: a group's duration equals iterations x window,
        // so its PE is never double-booked.
        let (g, s) = schedule_chain(&[7]);
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        assert_eq!(
            s.entries[0].duration(),
            alloc.iterations[0] * s.sampling_window
        );
    }

    #[test]
    fn empty_graph_schedules_cleanly() {
        let g = CoreOpGraph::new("empty", 256, 256);
        let alloc = Allocation::allocate(&g, AllocationPolicy::DuplicationDegree(1));
        let s = Scheduler::new(64).schedule(&g.adjacency(), &alloc);
        assert!(s.entries.is_empty());
        assert_eq!(s.stage_count(), 0);
        assert_eq!(s.latency_cycles(), 0);
    }
}
