//! Executor profiling hooks: per-opcode retired-instruction and
//! sparsity-skip counters for the bytecode dispatch loop.
//!
//! The hooks are **compiled out entirely** unless the crate is built with
//! the `obs-profile` feature — the dispatch loop carries zero extra
//! instructions in a default build, which is what lets the obs overhead
//! bench pin the telemetry tax on the untraced hot path. With the feature
//! on, recording is additionally gated behind a runtime sampling flag
//! ([`set_sampling`]): counters accumulate into plain per-call registers
//! ([`SkipTally`]) and flush to the global atomics once per instruction,
//! so even a sampled run adds one relaxed `fetch_add` per retired
//! instruction, not per element.
//!
//! Counter semantics:
//!
//! * **retired** — executions of each opcode, counted per sample (a batch
//!   of `b` samples retires every instruction `b` times, matching the
//!   sequential execution it is bit-identical to).
//! * **skipped** — crossbar rows elided by the run-time sparsity skip in
//!   the MAC gather loops (a row whose activation is exactly zero never
//!   reaches the MAC kernel). Where a weight tile is shared by a block —
//!   the positions of a float convolution block, the samples of a dense
//!   batch group — one row is skipped, and counted once, only when *every*
//!   member of the block is zero on it (rows that are padding for the whole
//!   block were never candidates and are not counted). Block skip counts
//!   are therefore legitimately lower than per-position or sequential ones
//!   for the same inputs; the Integer MACs and a dense tile at batch 1
//!   still count per position.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of bytecode opcodes ([`OPCODE_NAMES`] is index-aligned with
/// `Inst::opcode`).
pub const NUM_OPCODES: usize = 19;

/// Display names, index-aligned with `Inst::opcode`.
pub const OPCODE_NAMES: [&str; NUM_OPCODES] = [
    "CopyF",
    "RescaleI",
    "RescaleI2",
    "DenseF",
    "DenseI",
    "ConvF",
    "ConvI",
    "ReduceF",
    "ReduceI",
    "AvgPoolF",
    "AvgPoolI",
    "GapF",
    "GapI",
    "MaxPoolF",
    "MaxPoolI",
    "MaxFwdF",
    "MaxFwdI",
    "EltwiseF",
    "EltwiseI",
];

/// Opcode indices of the four MAC instructions, for flush sites that do not
/// hold an `Inst` (the batch gather kernels).
pub(crate) const OP_DENSE_F: usize = 3;
pub(crate) const OP_DENSE_I: usize = 4;
pub(crate) const OP_CONV_F: usize = 5;
pub(crate) const OP_CONV_I: usize = 6;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static RETIRED: [AtomicU64; NUM_OPCODES] = [ZERO; NUM_OPCODES];
static SKIPPED: [AtomicU64; NUM_OPCODES] = [ZERO; NUM_OPCODES];
static SAMPLING: AtomicBool = AtomicBool::new(false);

/// Turn runtime sampling on or off. A no-op without the `obs-profile`
/// feature (the hooks it would gate are not compiled in).
pub fn set_sampling(enabled: bool) {
    SAMPLING.store(enabled, Ordering::Relaxed);
}

/// Whether the runtime sampling flag is set (regardless of whether the
/// `obs-profile` hooks are compiled in).
pub fn sampling_enabled() -> bool {
    SAMPLING.load(Ordering::Relaxed)
}

/// Whether the profiling hooks are compiled into this build.
pub const fn compiled_in() -> bool {
    cfg!(feature = "obs-profile")
}

/// Zero both counter banks (the sampling flag is left untouched).
pub fn reset() {
    for c in RETIRED.iter().chain(SKIPPED.iter()) {
        c.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of both counter banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Per-opcode retired instruction counts.
    pub retired: [u64; NUM_OPCODES],
    /// Per-opcode sparsity-skipped crossbar rows.
    pub skipped: [u64; NUM_OPCODES],
}

impl ProfileSnapshot {
    /// Total retired instructions across all opcodes.
    pub fn total_retired(&self) -> u64 {
        self.retired.iter().sum()
    }

    /// Total sparsity-skipped rows across all opcodes.
    pub fn total_skipped(&self) -> u64 {
        self.skipped.iter().sum()
    }

    /// `(name, retired, skipped)` rows for every opcode that recorded
    /// anything, in opcode order.
    pub fn rows(&self) -> Vec<(&'static str, u64, u64)> {
        (0..NUM_OPCODES)
            .filter(|&i| self.retired[i] != 0 || self.skipped[i] != 0)
            .map(|i| (OPCODE_NAMES[i], self.retired[i], self.skipped[i]))
            .collect()
    }
}

/// Read both counter banks.
pub fn snapshot() -> ProfileSnapshot {
    let mut s = ProfileSnapshot {
        retired: [0; NUM_OPCODES],
        skipped: [0; NUM_OPCODES],
    };
    for i in 0..NUM_OPCODES {
        s.retired[i] = RETIRED[i].load(Ordering::Relaxed);
        s.skipped[i] = SKIPPED[i].load(Ordering::Relaxed);
    }
    s
}

/// Count `n` retirements of `op`. Compiled out without `obs-profile`.
#[inline(always)]
#[allow(unused_variables)]
pub(crate) fn retire(op: usize, n: u64) {
    #[cfg(feature = "obs-profile")]
    if SAMPLING.load(Ordering::Relaxed) {
        RETIRED[op].fetch_add(n, Ordering::Relaxed);
    }
}

/// A per-instruction sparsity-skip tally: a plain register counter with
/// `obs-profile`, a zero-sized no-op otherwise, so gather loops can call
/// [`SkipTally::hit`] per elided row without touching the atomics (or,
/// without the feature, without emitting any code at all).
#[derive(Default)]
pub(crate) struct SkipTally {
    #[cfg(feature = "obs-profile")]
    n: u64,
}

impl SkipTally {
    #[inline(always)]
    pub fn new() -> SkipTally {
        SkipTally::default()
    }

    /// Record one sparsity-elided row.
    #[inline(always)]
    pub fn hit(&mut self) {
        #[cfg(feature = "obs-profile")]
        {
            self.n += 1;
        }
    }

    /// Fold the tally into the global bank for `op` (one relaxed
    /// `fetch_add`, and only when sampling is on and something was elided).
    #[inline(always)]
    #[allow(unused_variables)]
    pub fn flush(self, op: usize) {
        #[cfg(feature = "obs-profile")]
        if self.n != 0 && SAMPLING.load(Ordering::Relaxed) {
            SKIPPED[op].fetch_add(self.n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counter banks and sampling flag are process-global, so the tests
    // that mutate them must not interleave.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn snapshot_roundtrip_and_reset() {
        let _g = LOCK.lock().unwrap();
        reset();
        set_sampling(true);
        retire(OP_DENSE_F, 3);
        let mut t = SkipTally::new();
        t.hit();
        t.hit();
        t.flush(OP_DENSE_F);
        let s = snapshot();
        if compiled_in() {
            assert_eq!(s.retired[OP_DENSE_F], 3);
            assert_eq!(s.skipped[OP_DENSE_F], 2);
            assert_eq!(s.rows(), vec![("DenseF", 3, 2)]);
        } else {
            assert_eq!(s.total_retired(), 0);
            assert_eq!(s.total_skipped(), 0);
            assert!(s.rows().is_empty());
        }
        set_sampling(false);
        reset();
        assert_eq!(snapshot().total_retired(), 0);
    }

    #[cfg(feature = "obs-profile")]
    #[test]
    fn sampling_flag_gates_recording() {
        let _g = LOCK.lock().unwrap();
        reset();
        set_sampling(false);
        retire(OP_CONV_F, 10);
        let mut t = SkipTally::new();
        t.hit();
        t.flush(OP_CONV_F);
        assert_eq!(snapshot().total_retired(), 0);
        assert_eq!(snapshot().total_skipped(), 0);
    }
}
