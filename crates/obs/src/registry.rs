//! The process-wide metrics registry: named monotone counters with
//! lock-free recording.
//!
//! # Sharding
//!
//! Recording must never serialize the engines' worker threads, so every
//! counter's storage is split across [`NUM_SHARDS`] preallocated banks of
//! atomics; a thread picks its bank once (by hashing its `ThreadId`) and
//! then records with single relaxed atomic RMWs — no lock, no allocation,
//! no cross-core cacheline ping-pong between workers that hash apart.
//! [`Registry::snapshot`] folds the banks back together; registration
//! (naming a metric) is the only locking operation and happens once per
//! metric per process.
//!
//! # Capacity
//!
//! Banks are preallocated so recording never reallocates under a running
//! engine: [`MAX_COUNTERS`] counters. Registrations beyond the capacity
//! all alias the final "overflow" slot (and the snapshot labels it
//! `_overflow`), trading per-name fidelity for never blocking the hot
//! path; the limit is far above what the stack registers.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Atomic counter banks (see the module docs).
pub const NUM_SHARDS: usize = 8;
/// Counter slots per bank.
pub const MAX_COUNTERS: usize = 128;

/// Handle to a registered monotone counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u32);

/// One bank of counter slots.
struct Shard {
    counters: Vec<AtomicU64>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: (0..MAX_COUNTERS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Name tables, behind the registry's only mutex.
#[derive(Default)]
struct Names {
    counters: Vec<String>,
}

/// A fold of every registered counter at one moment, sorted by name so the
/// rendering (and any test pinning it) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters: `(name, total)`.
    pub counters: Vec<(String, u64)>,
}

/// The metrics registry (see the module docs). Engines use
/// [`Registry::global`]; tests construct their own.
pub struct Registry {
    shards: Vec<Shard>,
    names: Mutex<Names>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// This thread's bank index, hashed once from its `ThreadId` and cached.
fn shard_index() -> usize {
    thread_local! {
        static SHARD: usize = {
            let mut hasher = DefaultHasher::new();
            std::thread::current().id().hash(&mut hasher);
            (hasher.finish() as usize) % NUM_SHARDS
        };
    }
    SHARD.with(|s| *s)
}

/// Register `name` in `table`, reusing an existing slot (registration is
/// idempotent by name) and aliasing the last slot once `capacity` is hit.
fn register(table: &mut Vec<String>, name: &str, capacity: usize) -> u32 {
    if let Some(index) = table.iter().position(|n| n == name) {
        return index as u32;
    }
    if table.len() + 1 >= capacity {
        if table.len() + 1 == capacity {
            table.push("_overflow".to_string());
        }
        return (capacity - 1) as u32;
    }
    table.push(name.to_string());
    (table.len() - 1) as u32
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry {
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            names: Mutex::new(Names::default()),
        }
    }

    /// The process-wide registry every engine records into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Register (or look up) a monotone counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut names = self.names.lock().expect("registry lock");
        Counter(register(&mut names.counters, name, MAX_COUNTERS))
    }

    /// Add `delta` to a counter: one relaxed RMW on this thread's bank.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.shards[shard_index()].counters[counter.0 as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Fold every bank into plain values, sorted by metric name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let names = self.names.lock().expect("registry lock");
        let mut counters: Vec<(String, u64)> = names
            .counters
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let total = self
                    .shards
                    .iter()
                    .map(|s| s.counters[i].load(Ordering::Relaxed))
                    .sum();
                (name.clone(), total)
            })
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn registration_is_idempotent_by_name() {
        let reg = Registry::new();
        let a = reg.counter("serve.requests");
        let b = reg.counter("serve.requests");
        assert_eq!(a, b);
    }

    #[test]
    fn counters_sum_across_threads() {
        let reg = Arc::new(Registry::new());
        let counter = reg.counter("work.items");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        reg.inc(counter);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("work.items".to_string(), 8000)]);
    }

    #[test]
    fn overflowing_the_name_table_aliases_the_overflow_slot() {
        let reg = Registry::new();
        let mut last = None;
        for i in 0..(MAX_COUNTERS + 10) {
            last = Some(reg.counter(&format!("c{i}")));
        }
        reg.add(last.unwrap(), 7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), MAX_COUNTERS);
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "_overflow" && *v == 7));
    }
}
