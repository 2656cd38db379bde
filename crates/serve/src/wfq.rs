//! Weighted-fair queueing across tenants: deficit round-robin over
//! per-tenant [`DynamicBatcher`] lanes.
//!
//! The fleet engine serves many tenants from one fabric, so admission needs
//! an arbiter between tenant queues that (a) keeps each tenant's stream
//! FIFO, (b) never starves anyone, and (c) skews service capacity by a
//! configured weight. [`WeightedFairBatcher`] is that arbiter: one
//! [`DynamicBatcher`] lane per tenant, scheduled by classic **deficit
//! round-robin** — each time the scan visits a lane that has a flushable
//! batch, the lane earns `weight` credits, and it may pop only when its
//! accumulated deficit covers the batch size. A lane that empties forfeits
//! its credit, so idle tenants cannot bank service.
//!
//! Like the underlying batcher, the machine is **pure and clock-free**:
//! time enters only as `now_us` arguments and the engine's load as an
//! `idle` flag (an idle engine makes every non-empty lane flushable; DRR
//! still chooses which one pops), no threads or `Instant` anywhere, so the
//! property suite (`tests/wfq_properties.rs`) can drive it through
//! arbitrary multi-tenant interleavings with a synthetic clock and check:
//!
//! * **lossless, duplicate-free** — concatenating every popped batch is a
//!   permutation-free interleaving of the per-tenant arrival sequences;
//! * **per-tenant FIFO** — each tenant's items pop in arrival order;
//! * **bounded deficit** — no lane's credit ever exceeds
//!   `max_batch + weight`, the DRR fairness bound;
//! * **deadline-keeping** — a non-empty machine is ready no later than
//!   [`WeightedFairBatcher::next_deadline_us`], and at once when `idle`.

use crate::batcher::{BatchPolicy, DynamicBatcher};

/// One tenant's queue plus its deficit-round-robin bookkeeping.
#[derive(Debug)]
struct Lane<T> {
    queue: DynamicBatcher<T>,
    /// Credits earned per scan visit; spending one unit serves one request.
    weight: u64,
    /// Accumulated unspent credit (reset when the lane drains empty).
    deficit: u64,
}

/// A multi-tenant batching queue under deficit round-robin (see the module
/// docs). Tenants are dense `u16` indices, matching `TraceEvent::tenant`;
/// lanes materialize lazily on first use with weight 1 unless configured
/// via [`WeightedFairBatcher::set_weight`].
#[derive(Debug)]
pub struct WeightedFairBatcher<T> {
    policy: BatchPolicy,
    lanes: Vec<Lane<T>>,
    /// The lane the next DRR scan starts from.
    cursor: usize,
    /// Whether the cursor's lane has already earned its quantum for the
    /// visit in progress (a lane keeps serving across `pop_ready` calls
    /// until its deficit runs dry; it must not re-earn per pop).
    visit_credited: bool,
    len: usize,
}

impl<T> WeightedFairBatcher<T> {
    /// An empty machine; every lane gets `policy` and weight 1 until
    /// configured otherwise.
    pub fn new(policy: BatchPolicy) -> Self {
        WeightedFairBatcher {
            policy: BatchPolicy::new(policy.max_batch, policy.window_us),
            lanes: Vec::new(),
            cursor: 0,
            visit_credited: false,
            len: 0,
        }
    }

    /// An empty machine with the listed `(tenant, weight)` shares set.
    pub fn with_weights(policy: BatchPolicy, weights: &[(u16, u64)]) -> Self {
        let mut queue = WeightedFairBatcher::new(policy);
        for &(tenant, weight) in weights {
            queue.set_weight(tenant, weight);
        }
        queue
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items queued for one tenant.
    pub fn tenant_len(&self, tenant: u16) -> usize {
        self.lanes
            .get(usize::from(tenant))
            .map_or(0, |lane| lane.queue.len())
    }

    /// Set `tenant`'s weight (clamped to at least 1): credits earned per
    /// scan visit, i.e. the tenant's relative share under contention.
    pub fn set_weight(&mut self, tenant: u16, weight: u64) {
        self.lane_mut(tenant).weight = weight.max(1);
    }

    /// `tenant`'s current unspent DRR credit (a fairness diagnostic; the
    /// property suite pins its bound).
    pub fn deficit(&self, tenant: u16) -> u64 {
        self.lanes
            .get(usize::from(tenant))
            .map_or(0, |lane| lane.deficit)
    }

    fn lane_mut(&mut self, tenant: u16) -> &mut Lane<T> {
        let index = usize::from(tenant);
        while self.lanes.len() <= index {
            self.lanes.push(Lane {
                queue: DynamicBatcher::new(self.policy),
                weight: 1,
                deficit: 0,
            });
        }
        &mut self.lanes[index]
    }

    /// Enqueue one item for `tenant`, observed at `now_us` (monotone stamps
    /// expected, exactly as for [`DynamicBatcher::push`]).
    pub fn push(&mut self, tenant: u16, item: T, now_us: u64) {
        self.lane_mut(tenant).queue.push(item, now_us);
        self.len += 1;
    }

    /// The earliest instant any lane's oldest item ages out (`None` when
    /// empty). Polling [`WeightedFairBatcher::pop_ready`] then is
    /// guaranteed to yield a batch.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.lanes
            .iter()
            .filter_map(|lane| lane.queue.next_deadline_us())
            .min()
    }

    /// Whether some lane has a flushable batch at `now_us` given `idle`.
    pub fn ready(&self, now_us: u64, idle: bool) -> bool {
        self.lanes.iter().any(|lane| lane.queue.ready(now_us, idle))
    }

    /// Pop the next batch under deficit round-robin if any lane is ready at
    /// `now_us` given `idle`, returning `(tenant, batch)`.
    ///
    /// Classic DRR visit semantics, spread across calls: when the scan
    /// reaches a ready lane it earns its `weight` quantum once, then keeps
    /// serving that lane (one batch per call, each pop paying its size)
    /// until the deficit no longer covers the next flushable batch — only
    /// then does the cursor move on. A lane that drains empty forfeits its
    /// remaining credit. Every full scan cycle re-credits each still-ready
    /// lane, so whenever [`Self::ready`] holds some lane is served within
    /// `max_batch` cycles — the call never spins.
    pub fn pop_ready(&mut self, now_us: u64, idle: bool) -> Option<(u16, Vec<T>)> {
        if !self.ready(now_us, idle) {
            return None;
        }
        let lanes = self.lanes.len();
        loop {
            let index = self.cursor % lanes;
            let lane = &mut self.lanes[index];
            if lane.queue.ready(now_us, idle) {
                if !self.visit_credited {
                    lane.deficit = lane.deficit.saturating_add(lane.weight);
                    self.visit_credited = true;
                }
                let cost = lane.queue.len().min(self.policy.max_batch) as u64;
                if lane.deficit >= cost {
                    let batch = lane
                        .queue
                        .pop_ready(now_us, idle)
                        .expect("lane checked ready");
                    lane.deficit -= batch.len() as u64;
                    if lane.queue.is_empty() {
                        lane.deficit = 0;
                    }
                    self.len -= batch.len();
                    // The cursor stays: the lane may spend its remaining
                    // credit on the next call before the scan moves on.
                    return Some((index as u16, batch));
                }
            } else {
                // A lane that cannot flush right now — empty, or all its
                // stragglers still inside a busy engine's window — is not
                // contending: it forfeits its credit like an idle lane in
                // classic DRR. Letting it bank credit across windows is
                // what would break the `max_batch + weight` deficit bound.
                lane.deficit = 0;
            }
            self.cursor = (index + 1) % lanes;
            self.visit_credited = false;
        }
    }

    /// Pop a batch unconditionally (the shutdown drain path): round-robin
    /// from the cursor, first non-empty lane, ignoring windows and
    /// deficits. `None` only when everything is empty.
    pub fn pop_now(&mut self) -> Option<(u16, Vec<T>)> {
        let lanes = self.lanes.len();
        for offset in 0..lanes {
            let index = (self.cursor + offset) % lanes;
            let lane = &mut self.lanes[index];
            let Some(batch) = lane.queue.pop_now() else {
                continue;
            };
            lane.deficit = 0;
            self.len -= batch.len();
            self.cursor = (index + 1) % lanes;
            self.visit_credited = false;
            return Some((index as u16, batch));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wfq(max_batch: usize, window_us: u64) -> WeightedFairBatcher<u32> {
        WeightedFairBatcher::new(BatchPolicy::new(max_batch, window_us))
    }

    #[test]
    fn single_tenant_degenerates_to_the_plain_batcher() {
        let mut q = wfq(3, 1_000);
        for i in 0..5u32 {
            q.push(0, i, 10);
        }
        assert_eq!(q.pop_ready(10, false), Some((0, vec![0, 1, 2])));
        assert_eq!(
            q.pop_ready(10, false),
            None,
            "stragglers wait out the window"
        );
        assert_eq!(q.pop_ready(1_010, false), Some((0, vec![3, 4])));
        assert!(q.is_empty());
    }

    #[test]
    fn round_robin_alternates_equal_weight_tenants() {
        let mut q = wfq(2, 0);
        for i in 0..4u32 {
            q.push(0, i, 0);
            q.push(1, 100 + i, 0);
        }
        let mut served = Vec::new();
        while let Some((tenant, batch)) = q.pop_ready(0, false) {
            served.push((tenant, batch));
        }
        assert_eq!(
            served,
            vec![
                (0, vec![0, 1]),
                (1, vec![100, 101]),
                (0, vec![2, 3]),
                (1, vec![102, 103]),
            ]
        );
    }

    #[test]
    fn weights_skew_service_proportionally() {
        // Tenant 1 at weight 3 should drain ~3x faster under contention.
        let mut q = wfq(1, 0);
        q.set_weight(1, 3);
        for i in 0..12u32 {
            q.push(0, i, 0);
            q.push(1, 100 + i, 0);
        }
        let first_eight: Vec<u16> = (0..8).map(|_| q.pop_ready(0, false).unwrap().0).collect();
        let heavy = first_eight.iter().filter(|&&t| t == 1).count();
        assert_eq!(heavy, 6, "weight-3 tenant got {heavy}/8 of early slots");
    }

    #[test]
    fn empty_lanes_forfeit_their_deficit() {
        let mut q = wfq(4, 0);
        q.set_weight(0, 100);
        q.push(0, 1u32, 0);
        assert_eq!(q.pop_ready(0, false), Some((0, vec![1])));
        assert_eq!(q.deficit(0), 0, "credit must not bank while idle");
    }

    #[test]
    fn deadlines_surface_the_oldest_lane() {
        let mut q: WeightedFairBatcher<char> = WeightedFairBatcher::new(BatchPolicy::new(8, 500));
        q.push(3, 'a', 400);
        q.push(1, 'b', 100);
        assert_eq!(q.next_deadline_us(), Some(600));
        assert!(!q.ready(599, false));
        assert!(q.ready(600, false));
        assert_eq!(q.pop_ready(600, false), Some((1, vec!['b'])));
    }

    #[test]
    fn an_idle_engine_serves_every_non_empty_lane_under_drr() {
        let mut q = wfq(8, u64::MAX);
        q.push(2, 7u32, 0);
        q.push(0, 1u32, 0);
        assert!(!q.ready(0, false), "a busy engine waits for company");
        assert_eq!(q.pop_ready(0, true), Some((0, vec![1])));
        assert_eq!(q.pop_ready(0, true), Some((2, vec![7])));
        assert!(!q.ready(0, true), "an empty machine is never ready");
    }

    #[test]
    fn pop_now_drains_everything_round_robin() {
        let mut q = wfq(2, u64::MAX);
        for i in 0..3u32 {
            q.push(0, i, 0);
            q.push(2, 100 + i, 0);
        }
        let mut drained = 0;
        while let Some((_, batch)) = q.pop_now() {
            assert!(batch.len() <= 2);
            drained += batch.len();
        }
        assert_eq!(drained, 6);
        assert!(q.is_empty());
    }

    #[test]
    fn sparse_tenant_ids_materialize_lazily() {
        let mut q = wfq(1, 0);
        q.push(40_000, 7u32, 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.tenant_len(40_000), 1);
        assert_eq!(q.pop_ready(0, false), Some((40_000, vec![7])));
    }
}
