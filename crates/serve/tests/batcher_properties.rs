//! Property suite for the dynamic batcher.
//!
//! The batcher is a pure state machine (time and the engine's idleness are
//! arguments), so these properties drive it through arbitrary arrival/poll
//! interleavings with a synthetic clock and drawn idle flags, and check the
//! invariants the serving engine relies on:
//!
//! * no request is ever dropped or duplicated;
//! * responses within a client stream are never reordered (the popped
//!   batches concatenate to the exact FIFO arrival sequence, so any
//!   subsequence — in particular one client's stream — stays in order);
//! * no batch exceeds the configured `max_batch` (or is empty);
//! * a non-empty queue always flushes within its deadline: polling a busy
//!   engine at `next_deadline_us` yields a batch, and after a final drain
//!   poll at the last deadline plus the window the queue is empty;
//! * an idle engine never waits: a non-empty queue polled idle is ready.

use fpsa_serve::{BatchPolicy, DynamicBatcher};
use fpsa_testgen::{cases, vec};
use rand::Rng;

/// Replay a schedule of arrivals (amid worker polls) against one batcher.
///
/// `gaps_us[i]` is the delay before arrival `i`; after each arrival the
/// worker polls with probability-like flag `polls[i]` (simulating a replica
/// grabbing work) while the engine is idle or busy per `idle[i]`, then time
/// advances. Returns the popped batches in pop order plus the clock after
/// the final drain.
fn replay(
    policy: BatchPolicy,
    gaps_us: &[u64],
    polls: &[bool],
    idle: &[bool],
) -> (Vec<Vec<u32>>, DynamicBatcher<u32>) {
    let mut batcher = DynamicBatcher::new(policy);
    let mut batches = Vec::new();
    let mut now = 0u64;
    for (i, ((&gap, &poll), &idle)) in gaps_us.iter().zip(polls).zip(idle).enumerate() {
        now += gap;
        batcher.push(i as u32, now);
        if poll {
            if idle {
                assert!(batcher.ready(now, true), "an idle engine waited");
            }
            while let Some(batch) = batcher.pop_ready(now, idle) {
                batches.push(batch);
            }
        }
    }
    // Final drain exactly like a worker of a busy engine: sleep to each
    // deadline, poll.
    while let Some(deadline) = batcher.next_deadline_us() {
        now = now.max(deadline);
        let batch = batcher
            .pop_ready(now, false)
            .expect("a non-empty queue must flush at its deadline");
        batches.push(batch);
    }
    (batches, batcher)
}

/// Lossless, duplicate-free, FIFO; bounded batches; deadline flush.
#[test]
fn batches_are_lossless_fifo_bounded_and_deadline_kept() {
    let name = "batches_are_lossless_fifo_bounded_and_deadline_kept";
    cases(name, 128, |rng| {
        let max_batch = rng.gen_range(1usize..12);
        let window_us = rng.gen_range(0u64..5_000);
        let gaps_us = vec(rng, 1..60, |r| r.gen_range(0u64..2_000));
        let poll_bits = vec(rng, 1..60, |r| r.gen_range(0u32..2));
        let idle_bits = (0..60).map(|_| rng.gen_range(0u32..2)).collect::<Vec<_>>();
        let n = gaps_us.len().min(poll_bits.len());
        let gaps = &gaps_us[..n];
        let polls: Vec<bool> = poll_bits[..n].iter().map(|&b| b == 1).collect();
        let idle: Vec<bool> = idle_bits[..n].iter().map(|&b| b == 1).collect();
        let policy = BatchPolicy::new(max_batch, window_us);
        let (batches, batcher) = replay(policy, gaps, &polls, &idle);

        // Fully drained: the queue is empty after the final deadline polls.
        assert!(batcher.is_empty());
        assert_eq!(batcher.next_deadline_us(), None);

        // Bounded and non-empty.
        for batch in &batches {
            assert!(
                !batch.is_empty(),
                "the batcher must never emit an empty batch"
            );
            assert!(
                batch.len() <= policy.max_batch,
                "batch of {} exceeds max_batch {}",
                batch.len(),
                policy.max_batch
            );
        }

        // Lossless + duplicate-free + FIFO: the concatenation of all popped
        // batches is exactly the arrival sequence 0..n. This subsumes the
        // per-client ordering guarantee: any client's subsequence of a
        // stream that is globally in order is itself in order.
        let drained: Vec<u32> = batches.iter().flatten().copied().collect();
        let expected: Vec<u32> = (0..n as u32).collect();
        assert_eq!(drained, expected);
    });
}

/// The deadline is exactly the oldest arrival plus the window, and a
/// busy engine's queue is never ready before it (unless full).
#[test]
fn deadlines_are_tight() {
    cases("deadlines_are_tight", 128, |rng| {
        let window_us = rng.gen_range(1u64..10_000);
        let first_arrival = rng.gen_range(0u64..1_000_000);
        let mut b = DynamicBatcher::new(BatchPolicy::new(4, window_us));
        assert_eq!(b.next_deadline_us(), None);
        b.push(0u32, first_arrival);
        let deadline = first_arrival + window_us;
        assert_eq!(b.next_deadline_us(), Some(deadline));
        assert!(
            !b.ready(deadline - 1, false),
            "ready strictly before the deadline"
        );
        assert!(b.ready(deadline, false), "not ready at the deadline");
        // A later straggler does not extend the oldest request's deadline.
        b.push(1u32, deadline - 1);
        assert_eq!(b.next_deadline_us(), Some(deadline));
    });
}

/// Filling the batch makes it ready immediately, at any clock value.
#[test]
fn full_batches_ignore_the_window() {
    cases("full_batches_ignore_the_window", 128, |rng| {
        let max_batch = rng.gen_range(1usize..9);
        let arrival = rng.gen_range(0u64..1_000);
        let mut b = DynamicBatcher::new(BatchPolicy::new(max_batch, u64::MAX));
        for i in 0..max_batch {
            assert!(!b.ready(arrival, false), "ready before the batch filled");
            b.push(i as u32, arrival);
        }
        assert!(b.ready(arrival, false));
        let batch = b.pop_ready(arrival, false).expect("full batch pops");
        assert_eq!(batch.len(), max_batch);
        assert!(b.is_empty());
    });
}

/// An idle engine pops whatever is queued at once — the oldest
/// `max_batch` items, FIFO — with the window far in the future.
#[test]
fn an_idle_engine_never_waits_for_company() {
    cases("an_idle_engine_never_waits_for_company", 128, |rng| {
        let max_batch = rng.gen_range(1usize..9);
        let queued = rng.gen_range(1usize..20);
        let arrival = rng.gen_range(0u64..1_000);
        let mut b = DynamicBatcher::new(BatchPolicy::new(max_batch, u64::MAX));
        for i in 0..queued {
            b.push(i as u32, arrival);
        }
        assert_eq!(b.ready(arrival, false), queued >= max_batch);
        let batch = b.pop_ready(arrival, true).expect("an idle engine pops");
        let expected: Vec<u32> = (0..queued.min(max_batch) as u32).collect();
        assert_eq!(batch, expected);
    });
}
