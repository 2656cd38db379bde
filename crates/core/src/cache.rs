//! The content-addressed compile cache.
//!
//! Compilation dominates every experiment now that execution is cheap
//! (ROADMAP item 5): P&R annealing is the long pole of sweeps, and identical
//! (model, config) points used to be recompiled once per driver. This module
//! makes compiled artifacts content-addressed and reusable:
//!
//! * [`CompileKey`] — a stable 128-bit structural hash of (graph +
//!   `Compiler` configuration). Two bit-identical rebuilds of a model hash
//!   equal; perturbing any shape or config field hashes different.
//! * [`CompileCache`] — a bounded, thread-safe, single-flight store of
//!   `CompileKey → Arc<CompiledModel>`. Concurrent requests for the same key
//!   run exactly one compile (the rest block and share the artifact), which
//!   is what lets the sweep-dedupe regression test count compiler
//!   invocations exactly.
//! * **Warm starts** (opt-in, [`CompileCache::with_warm_start`]) — on a
//!   miss, a completed entry for the *same architecture and P&R config* but
//!   a different (incrementally edited) graph donates its placement: blocks
//!   shared with the donor keep their slots and the annealer runs a short
//!   polish schedule instead of a cold anneal. Opt-in because the warm
//!   result is legal but not bit-identical to a cold anneal.
//!
//! Every outcome is recorded in [`CacheStats`] and stamped on the artifact's
//! [`StageTrace`](fpsa_sim::StageTrace) as a [`CacheInfo`], so performance
//! reports show amortized compile cost honestly.

use crate::compiler::{CompileError, CompiledModel, Compiler};
use fpsa_nn::ComputationalGraph;
use fpsa_placeroute::WarmStart;
use fpsa_sim::{CacheInfo, CacheOutcome, StageKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Version tag mixed into every key: bump to invalidate all cached
/// artifacts when the compile pipeline's semantics change.
const KEY_SCHEMA: &[u8] = b"fpsa-compile-key-v1";

/// Two-lane FNV-1a-style streaming hasher. Not cryptographic — the cache
/// key only has to be stable across processes and overwhelmingly unlikely
/// to collide within one workspace's model zoo.
#[derive(Debug, Clone)]
struct StableHasher {
    a: u64,
    b: u64,
}

impl StableHasher {
    fn new() -> Self {
        StableHasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            self.b = (self.b.rotate_left(23) ^ u64::from(byte)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        }
    }
}

/// A stable 128-bit content address for one compilation.
///
/// The hash covers the `Debug` rendering of the [`Compiler`] (architecture,
/// duplication degree and the full
/// [`PlaceRouteConfig`](crate::pipeline::PlaceRouteConfig), including
/// placer seed and effort) and of the
/// [`ComputationalGraph`] (name, operators, shapes, wiring). `Debug` is the
/// same canonical encoding the vendored serde facade serializes through, and
/// Rust renders floats shortest-roundtrip, so distinct values always render
/// — and hash — distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileKey {
    hi: u64,
    lo: u64,
}

impl CompileKey {
    /// The key of a structural compilation (no weights involved).
    pub fn for_compile(compiler: &Compiler, graph: &ComputationalGraph) -> Self {
        let mut h = StableHasher::new();
        h.write(KEY_SCHEMA);
        h.write(format!("{compiler:?}").as_bytes());
        h.write(b"/graph/");
        h.write(format!("{graph:?}").as_bytes());
        CompileKey { hi: h.a, lo: h.b }
    }

    /// A fingerprint of the compiler configuration alone (architecture,
    /// duplication, P&R config) — the compatibility class for warm-start
    /// donors: only entries compiled under the same fingerprint may donate
    /// a placement.
    pub fn arch_fingerprint(compiler: &Compiler) -> u64 {
        let mut h = StableHasher::new();
        h.write(KEY_SCHEMA);
        h.write(format!("{compiler:?}").as_bytes());
        h.a
    }

    /// Lowercase-hex rendering (32 digits).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Display for CompileKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// The cache's running counters. One of the three outcome counters is bumped
/// per [`CompileCache::compile`] request; `saved_wall_ns` accumulates the
/// wall-clock the cache avoided versus cold compiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Requests satisfied by an existing in-memory artifact (no stage ran).
    pub hits: u64,
    /// Requests that ran a full cold compile.
    pub misses: u64,
    /// Requests that ran the pipeline with a donor-seeded short anneal.
    pub warm_starts: u64,
    /// Completed entries dropped by LRU eviction.
    pub evictions: u64,
    /// Total wall-clock saved versus cold compiles, in nanoseconds.
    pub saved_wall_ns: f64,
}

impl CacheStats {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.warm_starts
    }

    /// Compiles that actually executed pipeline stages (everything but
    /// in-memory hits).
    pub fn compiles_executed(&self) -> u64 {
        self.misses + self.warm_starts
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} requests: {} hits, {} misses, {} warm-starts ({:.1} ms saved)",
            self.requests(),
            self.hits,
            self.misses,
            self.warm_starts,
            self.saved_wall_ns * 1e-6
        )
    }
}

type Slot = Arc<OnceLock<Result<Arc<CompiledModel>, CompileError>>>;

struct Entry {
    slot: Slot,
    arch_fp: u64,
    last_used: u64,
}

#[derive(Default)]
struct State {
    entries: HashMap<CompileKey, Entry>,
    stats: CacheStats,
    clock: u64,
}

/// A bounded, thread-safe, single-flight store of compiled models.
///
/// Shareable by reference across sweep workers (or as an `Arc` across
/// drivers via [`CompileCache::global`]). See the module docs for the
/// hit / warm-start semantics.
pub struct CompileCache {
    state: Mutex<State>,
    capacity: usize,
    warm_start: bool,
}

impl fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileCache")
            .field("capacity", &self.capacity)
            .field("warm_start", &self.warm_start)
            .field("stats", &self.stats())
            .finish()
    }
}

impl CompileCache {
    /// A cache retaining up to `capacity` completed artifacts (LRU beyond
    /// that). Warm starts are off by default.
    pub fn new(capacity: usize) -> Self {
        CompileCache {
            state: Mutex::default(),
            capacity: capacity.max(1),
            warm_start: false,
        }
    }

    /// Opt in to near-miss warm starts. The warm-started placement is legal
    /// and routed deterministically, but it is *not* bit-identical to a cold
    /// anneal of the same netlist — determinism suites comparing against
    /// cold compiles must leave this off.
    pub fn with_warm_start(mut self) -> Self {
        self.warm_start = true;
        self
    }

    /// The process-wide shared cache used by the experiment drivers, so
    /// repeated drivers (and repeated tests in one binary) stop recompiling
    /// the same models. Exact-key reuse only: no warm starts.
    pub fn global() -> Arc<CompileCache> {
        static GLOBAL: OnceLock<Arc<CompileCache>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Arc::new(CompileCache::new(16)))
            .clone()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock").entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The running counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().expect("cache lock").stats
    }

    /// Compile `graph` under `compiler`, reusing or seeding from cached
    /// artifacts where possible.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the underlying compile; errors are
    /// cached too (negative caching), so a failing key fails fast on reuse.
    pub fn compile(
        &self,
        compiler: &Compiler,
        graph: &ComputationalGraph,
    ) -> Result<Arc<CompiledModel>, CompileError> {
        self.compile_with_info(compiler, graph).map(|(m, _)| m)
    }

    /// [`CompileCache::compile`], additionally reporting how the cache
    /// satisfied this particular request (callers stamp it onto the trace
    /// of their performance report).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the underlying compile.
    pub fn compile_with_info(
        &self,
        compiler: &Compiler,
        graph: &ComputationalGraph,
    ) -> Result<(Arc<CompiledModel>, CacheInfo), CompileError> {
        let key = CompileKey::for_compile(compiler, graph);
        let arch_fp = CompileKey::arch_fingerprint(compiler);

        let (slot, donor) = {
            let mut state = self.state.lock().expect("cache lock");
            state.clock += 1;
            let clock = state.clock;
            if let Some(entry) = state.entries.get_mut(&key) {
                entry.last_used = clock;
                (entry.slot.clone(), None)
            } else {
                let donor = if self.warm_start {
                    Self::find_donor(&state, arch_fp)
                } else {
                    None
                };
                let slot: Slot = Arc::new(OnceLock::new());
                state.entries.insert(
                    key,
                    Entry {
                        slot: slot.clone(),
                        arch_fp,
                        last_used: clock,
                    },
                );
                self.evict_excess(&mut state);
                (slot, donor)
            }
        };

        // Single flight: exactly one thread initializes the slot; racers
        // block inside `get_or_init` and share the artifact.
        let mut ran: Option<CacheOutcome> = None;
        let result = slot.get_or_init(|| {
            let (model, outcome) = Self::compile_slot(compiler, graph, &key, donor);
            ran = Some(outcome);
            model.map(Arc::new)
        });

        let info = match ran {
            Some(outcome) => CacheInfo {
                outcome,
                key: key.hex(),
                saved_wall_ns: result
                    .as_ref()
                    .ok()
                    .map_or(0.0, |m| m.trace.cache_saved_wall_ns()),
            },
            None => CacheInfo {
                outcome: CacheOutcome::Hit,
                key: key.hex(),
                // A hit saves this artifact's whole recorded compile time.
                saved_wall_ns: result
                    .as_ref()
                    .ok()
                    .map_or(0.0, |m| m.trace.total_wall_ns()),
            },
        };

        {
            let mut state = self.state.lock().expect("cache lock");
            match info.outcome {
                CacheOutcome::Hit => state.stats.hits += 1,
                CacheOutcome::Miss => state.stats.misses += 1,
                CacheOutcome::WarmStart => state.stats.warm_starts += 1,
            }
            state.stats.saved_wall_ns += info.saved_wall_ns;
        }
        // Mirror the outcome into the process-wide metrics registry so a
        // run summary shows cache effectiveness next to the serving
        // counters. Compiles are rare events; the name lookup is fine here.
        let registry = fpsa_obs::Registry::global();
        let metric = registry.counter(match info.outcome {
            CacheOutcome::Hit => "compile.cache.hits",
            CacheOutcome::Miss => "compile.cache.misses",
            CacheOutcome::WarmStart => "compile.cache.warm_starts",
        });
        registry.inc(metric);

        match result {
            Ok(model) => Ok((model.clone(), info)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The compile that fills one slot: donor warm start if physical design
    /// runs and a donor exists, else cold. Stamps the outcome on the
    /// artifact's trace.
    fn compile_slot(
        compiler: &Compiler,
        graph: &ComputationalGraph,
        key: &CompileKey,
        donor: Option<Arc<CompiledModel>>,
    ) -> (Result<CompiledModel, CompileError>, CacheOutcome) {
        let (result, outcome, donor_pr_ns) =
            if let Some(donor) = donor.filter(|_| !compiler.place_route.skip) {
                let physical = donor
                    .physical
                    .as_ref()
                    .expect("donors are selected with physical designs");
                let warm = WarmStart::from_placement(&donor.mapping.netlist, &physical.placement);
                (
                    compiler.compile_warm(graph, Some(warm)),
                    CacheOutcome::WarmStart,
                    donor.trace.wall_ns(StageKind::PlaceRoute).unwrap_or(0.0),
                )
            } else {
                (compiler.compile(graph), CacheOutcome::Miss, 0.0)
            };

        let result = result.map(|mut model| {
            let saved_wall_ns = match outcome {
                CacheOutcome::Miss => 0.0,
                // Warm starts save the donor's anneal-dominated P&R time
                // minus the (short) P&R time they still paid.
                _ => (donor_pr_ns - model.trace.wall_ns(StageKind::PlaceRoute).unwrap_or(0.0))
                    .max(0.0),
            };
            model.trace.set_cache(CacheInfo {
                outcome,
                key: key.hex(),
                saved_wall_ns,
            });
            model
        });
        (result, outcome)
    }

    /// Most-recently-used completed entry compiled under the same compiler
    /// fingerprint with a physical design — the best available donor.
    fn find_donor(state: &State, arch_fp: u64) -> Option<Arc<CompiledModel>> {
        state
            .entries
            .values()
            .filter(|e| e.arch_fp == arch_fp)
            .filter_map(|e| {
                e.slot
                    .get()
                    .and_then(|r| r.as_ref().ok())
                    .filter(|m| m.physical.is_some())
                    .map(|m| (e.last_used, m.clone()))
            })
            .max_by_key(|(last_used, _)| *last_used)
            .map(|(_, m)| m)
    }

    /// Drop least-recently-used *completed* entries beyond capacity.
    /// In-flight entries are never dropped (a racer holds their slot).
    fn evict_excess(&self, state: &mut State) {
        while state.entries.len() > self.capacity {
            let victim = state
                .entries
                .iter()
                .filter(|(_, e)| e.slot.get().is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    state.entries.remove(&k);
                    state.stats.evictions += 1;
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_nn::zoo;

    #[test]
    fn identical_requests_hit_and_share_the_artifact() {
        let cache = CompileCache::new(4);
        let compiler = Compiler::fpsa();
        let graph = zoo::lenet();
        let (a, ia) = cache.compile_with_info(&compiler, &graph).unwrap();
        let (b, ib) = cache.compile_with_info(&compiler, &graph).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits share the artifact");
        assert_eq!(ia.outcome, CacheOutcome::Miss);
        assert_eq!(ib.outcome, CacheOutcome::Hit);
        assert_eq!(ia.key, ib.key);
        assert!(ib.saved_wall_ns > 0.0, "a hit saves the compile wall-clock");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn different_configs_key_apart() {
        let cache = CompileCache::new(8);
        let graph = zoo::lenet();
        cache.compile(&Compiler::fpsa(), &graph).unwrap();
        cache
            .compile(&Compiler::fpsa().with_duplication(4), &graph)
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (2, 0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = CompileCache::new(1);
        let compiler = Compiler::fpsa().without_place_and_route();
        cache.compile(&compiler, &zoo::lenet()).unwrap();
        cache.compile(&compiler, &zoo::mlp_500_100()).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 1);
        // The evicted model recompiles as a miss.
        cache.compile(&compiler, &zoo::lenet()).unwrap();
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn errors_are_cached_and_fail_fast() {
        let cache = CompileCache::new(4);
        let compiler = Compiler::fpsa();
        // AlexNet exceeds the block limit -> CapacityExceeded, twice, but
        // only one compile executes.
        let a = cache.compile(&compiler, &zoo::alexnet()).unwrap_err();
        let b = cache.compile(&compiler, &zoo::alexnet()).unwrap_err();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn warm_start_seeds_a_near_miss_from_a_donor() {
        let cache = CompileCache::new(4).with_warm_start();
        let compiler = Compiler::fpsa();
        let (donor, _) = cache.compile_with_info(&compiler, &zoo::lenet()).unwrap();
        assert!(donor.physical.is_some());
        // A different model under the same compiler warm-starts.
        let (warmed, info) = cache
            .compile_with_info(&compiler, &zoo::mlp_500_100())
            .unwrap();
        assert_eq!(info.outcome, CacheOutcome::WarmStart);
        let physical = warmed.physical.as_ref().unwrap();
        assert!(physical.placement.quality().warm_started);
        assert_eq!(cache.stats().warm_starts, 1);
        assert_eq!(
            warmed.trace.cache().unwrap().outcome,
            CacheOutcome::WarmStart
        );
    }
}
