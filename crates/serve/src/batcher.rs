//! The dynamic batcher: a pure, clock-free state machine.
//!
//! The batcher owns the serving engine's admission discipline and nothing
//! else — no threads, no condvars, no `Instant`. Time enters exclusively as
//! `now_us` arguments and the engine's load as an `idle` flag, which is what
//! makes the machine exhaustively testable: the property suite
//! (`tests/batcher_properties.rs`) drives it with synthetic clocks and idle
//! flags through arbitrary arrival/poll interleavings and checks the
//! invariants the serving engine's correctness rests on:
//!
//! * **FIFO, lossless, duplicate-free** — the concatenation of every popped
//!   batch is exactly the arrival sequence;
//! * **bounded** — no batch exceeds `max_batch` (and none is empty);
//! * **deadline-keeping** — a non-empty queue is ready no later than
//!   `oldest arrival + window_us`, so a worker polling at
//!   [`DynamicBatcher::next_deadline_us`] always flushes it;
//! * **work-conserving** — a non-empty queue polled with `idle` is ready.
//!
//! A batch becomes ready when it *fills* (`max_batch` pending), when it
//! *ages out* (the oldest entry has waited `window_us`), or at once when
//! the caller reports the engine `idle` (no worker executing): waiting for
//! company only pays while the hardware is busy anyway. A zero window means
//! "never wait": any non-empty queue is ready, and batching then only
//! happens when requests arrive faster than workers drain them.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// When to flush a filling batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Hard upper bound on batch size (at least 1).
    pub max_batch: usize,
    /// How long the oldest request may wait before the batch is flushed
    /// part-full while the engine is busy, in microseconds (an idle engine
    /// serves a part-full batch at once).
    pub window_us: u64,
}

impl BatchPolicy {
    /// A policy flushing at `max_batch` (clamped to at least 1) or, while
    /// the engine is busy, after `window_us`, whichever comes first.
    pub fn new(max_batch: usize, window_us: u64) -> Self {
        BatchPolicy {
            max_batch: max_batch.max(1),
            window_us,
        }
    }
}

/// A FIFO queue that coalesces items into bounded batches under a
/// [`BatchPolicy`]. Generic over the payload so tests can drive it with
/// plain markers instead of full requests.
#[derive(Debug)]
pub struct DynamicBatcher<T> {
    policy: BatchPolicy,
    pending: VecDeque<(T, u64)>,
}

impl<T> DynamicBatcher<T> {
    /// An empty batcher under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        DynamicBatcher {
            policy: BatchPolicy::new(policy.max_batch, policy.window_us),
            pending: VecDeque::new(),
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueue one item observed at `now_us`. Timestamps are expected to be
    /// monotone (the engine stamps them under one lock from one clock);
    /// non-monotone stamps only make deadlines conservative, never unsafe.
    pub fn push(&mut self, item: T, now_us: u64) {
        self.pending.push_back((item, now_us));
    }

    /// The instant the oldest pending item ages out (`None` when empty).
    /// Polling [`DynamicBatcher::pop_ready`] at this time is guaranteed to
    /// yield a batch.
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.pending
            .front()
            .map(|&(_, arrived)| arrived.saturating_add(self.policy.window_us))
    }

    /// Whether a batch can be popped at `now_us`: the queue has filled a
    /// whole batch, the oldest entry's window has expired, or the engine is
    /// `idle` and anything is queued.
    pub fn ready(&self, now_us: u64, idle: bool) -> bool {
        (idle && !self.pending.is_empty())
            || self.pending.len() >= self.policy.max_batch
            || self
                .next_deadline_us()
                .is_some_and(|deadline| deadline <= now_us)
    }

    /// Pop the next batch if one is ready at `now_us` given `idle`: the
    /// oldest pending items, FIFO, at most `max_batch` of them.
    pub fn pop_ready(&mut self, now_us: u64, idle: bool) -> Option<Vec<T>> {
        if self.ready(now_us, idle) {
            self.pop_now()
        } else {
            None
        }
    }

    /// Pop a batch unconditionally (the shutdown drain path): the oldest
    /// pending items, FIFO, at most `max_batch`; `None` only when empty.
    pub fn pop_now(&mut self) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            return None;
        }
        let take = self.pending.len().min(self.policy.max_batch);
        Some(self.pending.drain(..take).map(|(item, _)| item).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_flush_immediately_and_keep_fifo_order() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(3, 1_000));
        for i in 0..5u32 {
            b.push(i, 10 + u64::from(i));
        }
        assert!(
            b.ready(12, false),
            "a full batch is ready regardless of the window"
        );
        assert_eq!(b.pop_ready(12, false), Some(vec![0, 1, 2]));
        assert!(
            !b.ready(12, false),
            "two stragglers inside the window are not"
        );
        assert_eq!(b.pop_ready(12, false), None);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn window_expiry_flushes_part_full_batches() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(8, 500));
        b.push('a', 100);
        b.push('b', 300);
        assert_eq!(b.next_deadline_us(), Some(600));
        assert!(!b.ready(599, false));
        assert!(b.ready(600, false));
        assert_eq!(b.pop_ready(600, false), Some(vec!['a', 'b']));
        assert_eq!(b.next_deadline_us(), None);
    }

    #[test]
    fn an_idle_engine_pops_a_part_full_batch_at_once() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(8, u64::MAX));
        assert!(!b.ready(0, true), "an empty queue is never ready");
        b.push('a', 5);
        b.push('b', 6);
        assert!(!b.ready(6, false), "a busy engine waits for company");
        assert_eq!(b.pop_ready(6, true), Some(vec!['a', 'b']));
    }

    #[test]
    fn zero_window_never_waits() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(4, 0));
        b.push(1u8, 7);
        assert!(b.ready(7, false));
        assert_eq!(b.pop_ready(7, false), Some(vec![1]));
    }

    #[test]
    fn pop_now_drains_in_bounded_fifo_chunks() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(2, u64::MAX));
        for i in 0..5u32 {
            b.push(i, 0);
        }
        assert_eq!(b.pop_now(), Some(vec![0, 1]));
        assert_eq!(b.pop_now(), Some(vec![2, 3]));
        assert_eq!(b.pop_now(), Some(vec![4]));
        assert_eq!(b.pop_now(), None);
    }

    #[test]
    fn max_batch_is_clamped_to_one() {
        let b: DynamicBatcher<()> = DynamicBatcher::new(BatchPolicy {
            max_batch: 0,
            window_us: 0,
        });
        assert_eq!(b.policy.max_batch, 1);
    }

    #[test]
    fn saturating_deadline_handles_infinite_windows() {
        let mut b = DynamicBatcher::new(BatchPolicy::new(4, u64::MAX));
        b.push(0u8, 123);
        assert_eq!(b.next_deadline_us(), Some(u64::MAX));
        assert!(!b.ready(u64::MAX - 1, false));
    }
}
