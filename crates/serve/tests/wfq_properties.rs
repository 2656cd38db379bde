//! Property suite for the weighted-fair batcher.
//!
//! Mirrors `tests/batcher_properties.rs` one arbiter up: the machine is
//! still pure (time and the engine's idleness are arguments), so arbitrary
//! multi-tenant arrival/poll interleavings run under a synthetic clock and
//! drawn idle flags, and check the invariants the fleet engine's fairness
//! rests on:
//!
//! * no request is ever dropped or duplicated across tenants;
//! * each tenant's stream pops in arrival order (per-tenant FIFO);
//! * no batch exceeds `max_batch`, none is empty, and every popped batch
//!   holds one tenant only;
//! * a non-empty machine flushes within its deadline while the engine is
//!   busy, and at once while it is idle;
//! * no lane's unspent deficit ever reaches `max_batch + weight` — the
//!   classic DRR fairness bound, which is what makes the weight a real
//!   service-share guarantee rather than a hint.

use fpsa_serve::{BatchPolicy, WeightedFairBatcher};
use proptest::prelude::*;

/// Replay a multi-tenant schedule against one machine, checking the deficit
/// bound after every pop. Returns the popped `(tenant, batch)` sequence.
fn replay(
    policy: BatchPolicy,
    weights: &[u64],
    tenants: &[u16],
    gaps_us: &[u64],
    polls: &[bool],
    idle: &[bool],
) -> Vec<(u16, Vec<u32>)> {
    let mut q: WeightedFairBatcher<u32> = WeightedFairBatcher::new(policy);
    for (tenant, &weight) in weights.iter().enumerate() {
        q.set_weight(tenant as u16, weight);
    }
    let check_deficits = |q: &WeightedFairBatcher<u32>| {
        for (tenant, &weight) in weights.iter().enumerate() {
            let bound = policy.max_batch as u64 + weight.max(1);
            let deficit = q.deficit(tenant as u16);
            assert!(
                deficit < bound,
                "tenant {tenant} deficit {deficit} >= DRR bound {bound}"
            );
        }
    };
    let mut batches = Vec::new();
    let mut now = 0u64;
    let arrivals = tenants.iter().zip(gaps_us).zip(polls).zip(idle);
    for (i, (((&tenant, &gap), &poll), &idle)) in arrivals.enumerate() {
        now += gap;
        q.push(tenant, i as u32, now);
        if poll {
            if idle {
                assert!(q.ready(now, true), "an idle engine waited");
            }
            while let Some(popped) = q.pop_ready(now, idle) {
                batches.push(popped);
                check_deficits(&q);
            }
        }
    }
    // Final drain exactly like a worker of a busy engine: sleep to each
    // deadline, poll.
    while let Some(deadline) = q.next_deadline_us() {
        now = now.max(deadline);
        let popped = q
            .pop_ready(now, false)
            .expect("a non-empty machine must flush at its deadline");
        batches.push(popped);
        check_deficits(&q);
    }
    assert!(q.is_empty());
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lossless, duplicate-free, per-tenant FIFO, bounded, deficit-bounded.
    #[test]
    fn wfq_is_lossless_fifo_bounded_and_fair(
        max_batch in 1usize..10,
        window_us in 0u64..4_000,
        weights in proptest::collection::vec(1u64..6, 1..5),
        tenant_picks in proptest::collection::vec(0u32..5, 1..80),
        gaps_us in proptest::collection::vec(0u64..1_500, 1..80),
        poll_bits in proptest::collection::vec(0u32..2, 1..80),
        idle_bits in proptest::collection::vec(0u32..2, 80),
    ) {
        let n = tenant_picks.len().min(gaps_us.len()).min(poll_bits.len());
        let lanes = weights.len() as u32;
        let tenants: Vec<u16> = tenant_picks[..n].iter().map(|&t| (t % lanes) as u16).collect();
        let polls: Vec<bool> = poll_bits[..n].iter().map(|&b| b == 1).collect();
        let idle: Vec<bool> = idle_bits[..n].iter().map(|&b| b == 1).collect();
        let policy = BatchPolicy::new(max_batch, window_us);
        let batches = replay(policy, &weights, &tenants, &gaps_us[..n], &polls, &idle);

        for (_, batch) in &batches {
            prop_assert!(!batch.is_empty(), "the machine must never emit an empty batch");
            prop_assert!(batch.len() <= policy.max_batch);
        }

        // Lossless + duplicate-free: every item pops exactly once.
        let mut drained: Vec<u32> = batches.iter().flat_map(|(_, b)| b).copied().collect();
        drained.sort_unstable();
        let expected: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(&drained, &expected);

        // Single-tenant batches whose items really belong to that tenant,
        // and per-tenant FIFO: each tenant's drain order is its arrival
        // order (item ids are globally increasing, so FIFO within a lane
        // means strictly increasing ids in that lane's pop stream).
        let mut last_seen = vec![None::<u32>; lanes as usize];
        for (tenant, batch) in &batches {
            for &item in batch {
                prop_assert_eq!(
                    tenants[item as usize], *tenant,
                    "item {} popped from the wrong lane", item
                );
                let last = &mut last_seen[usize::from(*tenant)];
                prop_assert!(
                    last.is_none_or(|prev| prev < item),
                    "tenant {} reordered: {} after {:?}", tenant, item, last
                );
                *last = Some(item);
            }
        }
    }

    /// Under saturation, weights translate into proportional service: a
    /// weight-w tenant owns ~w/(sum w) of the served requests at every
    /// prefix of the drain (within one round's slack).
    #[test]
    fn weights_are_honored_under_saturation(
        per_tenant in 20usize..60,
        heavy_weight in 2u64..6,
    ) {
        let policy = BatchPolicy::new(1, 0);
        let mut q: WeightedFairBatcher<u32> = WeightedFairBatcher::new(policy);
        q.set_weight(1, heavy_weight);
        // Both lanes fully backlogged at t=0: pure DRR contention.
        for i in 0..per_tenant as u32 {
            q.push(0, i, 0);
            q.push(1, 1_000 + i, 0);
        }
        let mut heavy_served = 0u64;
        let mut total = 0u64;
        while let Some((tenant, batch)) = q.pop_ready(0, false) {
            heavy_served += u64::from(tenant) * batch.len() as u64;
            total += batch.len() as u64;
            // While both lanes still contend, the heavy tenant's share of
            // every served prefix sits within one DRR round of its weight
            // fraction. (Once either lane drains, the other mops up and
            // shares rightly diverge.)
            if q.tenant_len(0) > 0 && q.tenant_len(1) > 0 && total > heavy_weight {
                let expect = total as f64 * heavy_weight as f64 / (1.0 + heavy_weight as f64);
                prop_assert!(
                    (heavy_served as f64 - expect).abs() <= (1 + heavy_weight) as f64,
                    "heavy share {} of {} strays from {:.1} (weight {})",
                    heavy_served, total, expect, heavy_weight
                );
            }
        }
        prop_assert_eq!(total, 2 * per_tenant as u64);
    }
}
