//! The content-addressed compile cache.
//!
//! Compilation dominates every experiment now that execution is cheap
//! (ROADMAP item 5): P&R annealing is the long pole of sweeps, and identical
//! (model, config) points used to be recompiled once per driver. This module
//! makes compiled artifacts content-addressed and reusable:
//!
//! * [`CompileKey`] — a stable 128-bit structural hash of (graph +
//!   `Compiler` configuration), fed one `u64` word per field. Two
//!   bit-identical rebuilds of a model hash equal; perturbing any shape or
//!   config field hashes different.
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
//! Every request's [`CacheOutcome`] is returned by
//! [`CompileCache::compile_with_info`], counted in [`CacheStats`] and
//! mirrored into the global `fpsa_obs` metrics registry.

use crate::compiler::{CompileError, CompiledModel, Compiler};
use crate::pipeline::{ChannelWidthMode, OverLimitPolicy, PlaceRouteConfig};
use fpsa_arch::{
    ArchitectureConfig, ArchitectureKind, CommunicationStyle, PeModel, RoutingArchitecture,
};
use fpsa_nn::{ComputationalGraph, Node, Operator, TensorShape};
use fpsa_placeroute::{PlacerConfig, RouterConfig, WarmStart};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Version tag mixed into every key: bump it whenever the word encoding
/// below or the compile pipeline's semantics change, so no artifact cached
/// under the old meaning is ever served.
const KEY_SCHEMA: &str = "fpsa-compile-key-v2";

/// Two-lane FNV-1a-style streaming hasher over `u64` words. Not
/// cryptographic — the cache key only has to be stable across processes and
/// overwhelmingly unlikely to collide within one workspace's model zoo.
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

    fn word(&mut self, word: u64) {
        self.a = (self.a ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b.rotate_left(23) ^ word).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    }
}

/// A value's encoding as a fixed sequence of hasher words: integers widen to
/// `u64`, an `f64` is its bits, an enum is a fixed discriminant word then its
/// fields, and a slice or string is its length then its contents.
trait Words {
    fn words(&self, h: &mut StableHasher);
}

/// Integers and `bool` widen to one word.
macro_rules! widened_words {
    ($($ty:ty),+) => {$(
        impl Words for $ty {
            fn words(&self, h: &mut StableHasher) {
                h.word(*self as u64);
            }
        }
    )+};
}

widened_words!(u64, usize, u32, bool);

impl Words for f64 {
    fn words(&self, h: &mut StableHasher) {
        h.word(self.to_bits());
    }
}

impl Words for str {
    /// The length, then 8-byte little-endian chunks, the tail zero-padded.
    fn words(&self, h: &mut StableHasher) {
        self.len().words(h);
        for chunk in self.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h.word(u64::from_le_bytes(word));
        }
    }
}

impl<T: Words> Words for [T] {
    fn words(&self, h: &mut StableHasher) {
        self.len().words(h);
        for item in self {
            item.words(h);
        }
    }
}

/// Encodes each struct as its fields in the order listed. The destructure
/// names every field with no `..`, so a new field fails to compile until it
/// is listed here.
macro_rules! struct_words {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Words for $ty {
            fn words(&self, h: &mut StableHasher) {
                let $ty { $($field),+ } = self;
                $($field.words(h);)+
            }
        }
    )+};
}

struct_words! {
    Compiler { arch, duplication, place_route }
    ArchitectureConfig {
        kind, pe, io_bits, communication, routing, pes_per_smb, pes_per_clb
    }
    PeModel { area_um2, vmm_latency_ns, rows, cols }
    RoutingArchitecture {
        channel_width, segment_length, switch_delay_ns, connection_delay_ns,
        wire_delay_per_block_ns
    }
    PlaceRouteConfig { placer, router, channel_width, block_limit, over_limit, skip }
    PlacerConfig {
        seed, moves_per_temperature, max_temperature_steps, initial_temperature_fraction,
        timing_weight
    }
    RouterConfig {
        max_iterations, initial_present_factor, present_growth, history_weight, wave_width,
        parallel
    }
    Node { id, name, op, inputs }
}

/// Encodes each enum as the listed discriminant word, then the variant's
/// fields. The `match` has no `_` arm, so a new variant fails to compile
/// until it is listed here.
macro_rules! enum_words {
    ($($ty:ident {
        $($variant:ident $({ $($field:ident),+ })? $(($($item:ident),+))? = $tag:literal),+ $(,)?
    })+) => {$(
        impl Words for $ty {
            fn words(&self, h: &mut StableHasher) {
                match self {
                    $($ty::$variant $({ $($field),+ })? $(($($item),+))? => {
                        h.word($tag);
                        $($($field.words(h);)+)?
                        $($($item.words(h);)+)?
                    })+
                }
            }
        }
    )+};
}

enum_words! {
    ArchitectureKind { Prime = 0, FpPrime = 1, Fpsa = 2 }
    CommunicationStyle { MemoryBus { bandwidth_gbps } = 0, Routed { bits_per_value } = 1 }
    ChannelWidthMode { Architecture = 0, Minimize = 1 }
    OverLimitPolicy { Error = 0, AnalyticFallback = 1 }
    Operator {
        Input { shape } = 0,
        Conv2d { in_channels, out_channels, kernel, stride, padding, groups } = 1,
        Linear { in_features, out_features } = 2,
        Relu = 3,
        MaxPool2d { kernel, stride } = 4,
        AvgPool2d { kernel, stride } = 5,
        GlobalAvgPool = 6,
        Add = 7,
        Concat = 8,
        Flatten = 9,
        BatchNorm { channels } = 10,
        LocalResponseNorm = 11,
        Dropout = 12,
        Softmax = 13,
    }
    TensorShape { Features(elements) = 0, Chw { channels, height, width } = 1 }
}

impl Words for ComputationalGraph {
    fn words(&self, h: &mut StableHasher) {
        let (name, nodes) = self.parts();
        name.words(h);
        nodes.words(h);
    }
}

/// A stable 128-bit content address for one compilation.
///
/// The hash covers every field of the [`Compiler`] (architecture,
/// duplication degree and the full
/// [`PlaceRouteConfig`], including placer seed and effort) and of the
/// [`ComputationalGraph`] (name, operators, shapes, wiring), encoded as one
/// `u64` word per field behind a schema tag. Floats hash by their bits, and
/// strings and lists carry their length, so distinct inputs always feed
/// distinct word streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileKey {
    hi: u64,
    lo: u64,
}

impl CompileKey {
    /// The key of a structural compilation (no weights involved).
    pub fn for_compile(compiler: &Compiler, graph: &ComputationalGraph) -> Self {
        Self::with_arch_fingerprint(compiler, graph).0
    }

    /// The key, plus a fingerprint of the compiler configuration alone
    /// (architecture, duplication, P&R config) read off the hasher once the
    /// compiler's words are in — the compatibility class for warm-start
    /// donors: only entries compiled under the same fingerprint may donate
    /// a placement.
    fn with_arch_fingerprint(compiler: &Compiler, graph: &ComputationalGraph) -> (Self, u64) {
        let mut h = StableHasher::new();
        KEY_SCHEMA.words(&mut h);
        compiler.words(&mut h);
        let arch_fp = h.a;
        graph.words(&mut h);
        (CompileKey { hi: h.a, lo: h.b }, arch_fp)
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

/// How the compile cache satisfied one compile request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The key was absent: a full cold compile.
    Miss,
    /// The exact key was present in the in-memory store; the compiled
    /// artifact was reused without running any pipeline stage.
    Hit,
    /// The exact key missed, but a near-miss entry (same architecture and
    /// physical-design configuration, different graph) seeded the annealer
    /// with its mapped-forward placement — the pipeline ran, with a cut
    /// anneal budget.
    WarmStart,
}

impl CacheOutcome {
    /// Human-readable outcome name.
    pub fn name(&self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Hit => "hit",
            CacheOutcome::WarmStart => "warm-start",
        }
    }
}

/// The cache's running counters. One of the three outcome counters is bumped
/// per [`CompileCache::compile`] request.
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
            "{} requests: {} hits, {} misses, {} warm-starts",
            self.requests(),
            self.hits,
            self.misses,
            self.warm_starts
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
    /// satisfied this particular request.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the underlying compile.
    pub fn compile_with_info(
        &self,
        compiler: &Compiler,
        graph: &ComputationalGraph,
    ) -> Result<(Arc<CompiledModel>, CacheOutcome), CompileError> {
        let (key, arch_fp) = CompileKey::with_arch_fingerprint(compiler, graph);

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
            let (model, outcome) = Self::compile_slot(compiler, graph, donor);
            ran = Some(outcome);
            model.map(Arc::new)
        });
        let outcome = ran.unwrap_or(CacheOutcome::Hit);

        {
            let mut state = self.state.lock().expect("cache lock");
            match outcome {
                CacheOutcome::Hit => state.stats.hits += 1,
                CacheOutcome::Miss => state.stats.misses += 1,
                CacheOutcome::WarmStart => state.stats.warm_starts += 1,
            }
        }
        // Mirror the outcome into the process-wide metrics registry so a
        // run summary shows cache effectiveness next to the serving
        // counters.
        let registry = fpsa_obs::Registry::global();
        let metric = registry.counter(match outcome {
            CacheOutcome::Hit => "compile.cache.hits",
            CacheOutcome::Miss => "compile.cache.misses",
            CacheOutcome::WarmStart => "compile.cache.warm_starts",
        });
        registry.inc(metric);

        match result {
            Ok(model) => Ok((model.clone(), outcome)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The compile that fills one slot: donor warm start if physical design
    /// runs and a donor exists, else cold.
    fn compile_slot(
        compiler: &Compiler,
        graph: &ComputationalGraph,
        donor: Option<Arc<CompiledModel>>,
    ) -> (Result<CompiledModel, CompileError>, CacheOutcome) {
        match donor.filter(|_| !compiler.place_route.skip) {
            Some(donor) => {
                let physical = donor
                    .physical
                    .as_ref()
                    .expect("donors are selected with physical designs");
                let warm = WarmStart::from_placement(&donor.mapping.netlist, &physical.placement);
                (
                    compiler.compile_warm(graph, Some(warm)),
                    CacheOutcome::WarmStart,
                )
            }
            None => (compiler.compile(graph), CacheOutcome::Miss),
        }
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
        let (a, oa) = cache.compile_with_info(&compiler, &graph).unwrap();
        let (b, ob) = cache.compile_with_info(&compiler, &graph).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits share the artifact");
        assert_eq!(oa, CacheOutcome::Miss);
        assert_eq!(ob, CacheOutcome::Hit);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn the_lenet_key_is_pinned() {
        // The key of one fixed input, recorded once. Any change to the word
        // stream moves it, and so would an input that is not stable across
        // processes (an address, random state). Re-recording it requires
        // bumping `KEY_SCHEMA`.
        let key = CompileKey::for_compile(&Compiler::fpsa(), &zoo::lenet());
        assert_eq!(key.hex(), "459ac25cfb8bbf8d8cf7aa45c73e6113");
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
        let (warmed, outcome) = cache
            .compile_with_info(&compiler, &zoo::mlp_500_100())
            .unwrap();
        assert_eq!(outcome, CacheOutcome::WarmStart);
        let physical = warmed.physical.as_ref().unwrap();
        assert!(physical.placement.quality().warm_started);
        assert_eq!(cache.stats().warm_starts, 1);
    }
}
