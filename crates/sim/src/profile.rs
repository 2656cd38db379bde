//! Executor profiling hooks: per-opcode retired-instruction and
//! sparsity-skip counters for the bytecode dispatch loop.
//!
//! The hooks are **compiled out entirely** unless the crate is built with
//! the `obs-profile` feature — the dispatch loop carries zero extra
//! instructions in a default build, which is what lets the obs overhead
//! bench pin the telemetry tax on the untraced hot path. With the feature
//! on, recording is additionally gated behind a runtime sampling flag
//! ([`set_sampling`]): counters accumulate into plain per-call registers
//! (the private `SkipTally`) and flush to the global atomics once per instruction,
//! so even a sampled run adds one relaxed `fetch_add` per retired
//! instruction, not per element.
//!
//! Counter semantics:
//!
//! * **retired** — executions of each opcode, counted per sample (a batch
//!   of `b` samples retires every instruction `b` times, matching the
//!   sequential execution it is bit-identical to). Opcodes carry no numeric
//!   domain: a Float and an Integer dense tile both retire `Dense`.
//! * **skipped** — crossbar rows elided by the run-time sparsity skip in
//!   the MAC gather loops (a row whose activation is exactly zero never
//!   reaches the MAC kernel). Where a weight tile is shared by a block —
//!   the positions of a convolution block, the samples of a dense batch
//!   group, in either domain — one row is skipped, and counted once, only
//!   when *every* member of the block is zero on it (rows that are padding
//!   for the whole block were never candidates and are not counted). Block
//!   skip counts are therefore legitimately lower than per-position or
//!   sequential ones for the same inputs; only a dense tile at batch 1
//!   counts per sample. The Integer domain's per-member split of a block
//!   drops the remaining zeros without counting them.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The opcode table: one definition of the bytecode's opcodes from which
/// [`NUM_OPCODES`], [`OPCODE_NAMES`] and the `Op` enum the counters are
/// indexed by all follow, so they cannot drift apart.
macro_rules! opcodes {
    ($($op:ident),+ $(,)?) => {
        /// A bytecode opcode: `Inst::op` of every lowered instruction, and
        /// the index of its counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Op {
            $($op),+
        }

        /// Display names, index-aligned with `Op`.
        pub const OPCODE_NAMES: [&str; NUM_OPCODES] = [$(stringify!($op)),+];

        /// Number of bytecode opcodes.
        pub const NUM_OPCODES: usize = [$(Op::$op),+].len();
    };
}

opcodes!(Copy, CopySide, Dense, Conv, Reduce, AvgPool, Gap, MaxPool, MaxFwd, Eltwise);

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
pub(crate) fn retire(op: Op, n: u64) {
    #[cfg(feature = "obs-profile")]
    if SAMPLING.load(Ordering::Relaxed) {
        RETIRED[op as usize].fetch_add(n, Ordering::Relaxed);
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
    pub fn flush(self, op: Op) {
        #[cfg(feature = "obs-profile")]
        if self.n != 0 && SAMPLING.load(Ordering::Relaxed) {
            SKIPPED[op as usize].fetch_add(self.n, Ordering::Relaxed);
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
        retire(Op::Dense, 3);
        let mut t = SkipTally::new();
        t.hit();
        t.hit();
        t.flush(Op::Dense);
        let s = snapshot();
        if compiled_in() {
            assert_eq!(s.retired[Op::Dense as usize], 3);
            assert_eq!(s.skipped[Op::Dense as usize], 2);
            assert_eq!(s.rows(), vec![("Dense", 3, 2)]);
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
        retire(Op::Conv, 10);
        let mut t = SkipTally::new();
        t.hit();
        t.flush(Op::Conv);
        assert_eq!(snapshot().total_retired(), 0);
        assert_eq!(snapshot().total_skipped(), 0);
    }
}
