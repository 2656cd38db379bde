//! The fleet engine: one request front door over many co-located models.
//!
//! A [`FleetEngine`] owns a packed [`FleetPlacement`] and configures the
//! serving core (`fpsa_serve::core`) one tier above `ServeEngine` — one
//! station and worker pool per fabric:
//!
//! * **routing** — a request for model *m* goes to whichever fabric hosting
//!   *m* has the shortest queue (ties to the lowest index), so replicated
//!   models absorb load wherever there is room;
//! * **weighted-fair admission** — each fabric queues requests in
//!   weighted-fair lanes, so tenants share a fabric by configured weight
//!   instead of racing FIFO;
//! * **bind-handle LRU** — executors are bound lazily per fabric and kept
//!   in a small LRU cache, so a cold model pays one bind and hot models
//!   never rebind;
//! * **per-tenant SLOs** — every tenant gets its own latency histogram;
//!   when a tenant's observed p99 exceeds its budget and its backlog is
//!   above the shed threshold, new requests are shed with the typed
//!   [`ServeError::Shed`] instead of deepening the violation.
//!
//! Throughput comes from placement and scheduling only — never from
//! changed arithmetic: fleet outputs are bit-identical to direct
//! `Executor::run` calls for every model, precision and interleaving
//! (`tests/fleet_determinism.rs`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fpsa_obs::Tracer;
use fpsa_serve::{BatchPolicy, Core, CoreConfig, Router, ServeError, ServeStats, Ticket, Tier};
use fpsa_sim::Executor;

use crate::packer::FleetPlacement;
use crate::registry::{ModelId, ModelRegistry};

/// A tenant's service-level objective: shed new work once the observed p99
/// latency exceeds `p99_budget_us` *and* the tenant's queued backlog across
/// the fabrics hosting the model has reached `shed_depth`
/// (`backlog >= shed_depth`). At `shed_depth = 0` a blown budget therefore
/// sheds even with an empty queue; a tenant that must always be able to
/// probe its way back under budget needs `shed_depth >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBudget {
    /// The tenant's p99 latency budget in microseconds.
    pub p99_budget_us: u64,
    /// Queued backlog at which a violating tenant's new requests are shed.
    pub shed_depth: usize,
}

/// Fleet-engine tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Worker threads per fabric.
    pub replicas_per_fabric: usize,
    /// Largest batch a worker claims at once (per tenant lane).
    pub max_batch: usize,
    /// How long a part-full batch may wait for company while some worker of
    /// the fleet is executing, in microseconds. An idle fleet serves a lone
    /// request at once.
    pub batch_window_us: u64,
    /// Bound-executor slots in each fabric's LRU cache (clamped ≥ 1).
    pub bind_cache: usize,
    /// Weighted-fair shares: `(tenant, weight)`; unlisted tenants weigh 1.
    pub tenant_weights: Vec<(u16, u64)>,
    /// Per-tenant SLO budgets; unlisted tenants are never shed.
    pub slos: Vec<(u16, SloBudget)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas_per_fabric: 2,
            max_batch: 8,
            batch_window_us: 200,
            bind_cache: 4,
            tenant_weights: Vec::new(),
            slos: Vec::new(),
        }
    }
}

impl FleetConfig {
    /// Set the worker count per fabric.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas_per_fabric = replicas;
        self
    }

    /// Set the batching policy.
    pub fn with_batching(mut self, max_batch: usize, window_us: u64) -> Self {
        self.max_batch = max_batch;
        self.batch_window_us = window_us;
        self
    }

    /// Give `tenant` a weighted-fair share.
    pub fn with_tenant_weight(mut self, tenant: u16, weight: u64) -> Self {
        self.tenant_weights.push((tenant, weight));
        self
    }

    /// Give `tenant` an SLO budget.
    pub fn with_slo(mut self, tenant: u16, slo: SloBudget) -> Self {
        self.slos.push((tenant, slo));
        self
    }
}

/// Hit/miss/eviction counters for the bind-handle LRU caches (summed
/// across fabrics in [`FleetStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BindCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to bind.
    pub misses: u64,
    /// Bound executors dropped to make room.
    pub evictions: u64,
}

/// One tenant's SLO standing, read out of [`FleetStats::slo_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSloStatus {
    /// The tenant.
    pub tenant: u16,
    /// Observed p99 latency in microseconds.
    pub p99_latency_us: u64,
    /// The configured budget, if any.
    pub budget_us: Option<u64>,
    /// Whether the observed p99 currently exceeds the budget.
    pub violating: bool,
    /// Requests shed so far under [`ServeError::Shed`].
    pub shed: u64,
}

/// Lifetime fleet counters: an aggregate [`ServeStats`] plus one per
/// tenant, shed counts, and the bind-cache totals.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// All tenants together.
    pub aggregate: ServeStats,
    /// Per-tenant counters, dense by tenant id.
    pub tenants: Vec<ServeStats>,
    /// Requests shed per tenant (subset of that tenant's `rejected`).
    pub sheds: Vec<u64>,
    /// Per-tenant p99 budgets (dense by tenant id; `None` = no SLO).
    pub budgets: Vec<Option<u64>>,
    /// Bind-handle LRU counters summed across fabrics.
    pub bind_cache: BindCacheStats,
}

impl FleetStats {
    /// Every tenant's SLO standing, dense by tenant id.
    pub fn slo_status(&self) -> Vec<TenantSloStatus> {
        (0..self.tenants.len())
            .map(|t| {
                let p99 = self.tenants[t].p99_latency_us();
                let budget = self.budgets.get(t).copied().flatten();
                TenantSloStatus {
                    tenant: t as u16,
                    p99_latency_us: p99,
                    budget_us: budget,
                    violating: budget.is_some_and(|b| p99 > b),
                    shed: self.sheds.get(t).copied().unwrap_or(0),
                }
            })
            .collect()
    }
}

/// A tiny LRU over bound executors: `capacity` live binds per fabric.
struct BindCache {
    capacity: usize,
    clock: u64,
    entries: Vec<(ModelId, Arc<Executor>, u64)>,
    stats: BindCacheStats,
}

impl BindCache {
    fn new(capacity: usize) -> Self {
        BindCache {
            capacity: capacity.max(1),
            clock: 0,
            entries: Vec::new(),
            stats: BindCacheStats::default(),
        }
    }

    /// The cached executor for `model`, refreshing its recency on a hit.
    /// A miss is counted here — the caller binds *outside* the cache lock
    /// (so a slow cold bind never blocks a sibling replica's hit lookups)
    /// and hands the result to [`BindCache::insert`].
    fn lookup(&mut self, model: ModelId) -> Option<Arc<Executor>> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|(id, _, _)| *id == model) {
            entry.2 = clock;
            self.stats.hits += 1;
            return Some(Arc::clone(&entry.1));
        }
        self.stats.misses += 1;
        None
    }

    /// Install a freshly bound executor, evicting the least-recently-used
    /// handle at capacity. If a racing worker bound `model` first, its
    /// entry wins (recency refreshed) so the cache never holds duplicates;
    /// the returned handle is the one the caller should run with.
    fn insert(&mut self, model: ModelId, executor: Arc<Executor>) -> Arc<Executor> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|(id, _, _)| *id == model) {
            entry.2 = clock;
            return Arc::clone(&entry.1);
        }
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(i, _)| i)
                .expect("cache non-empty at capacity");
            self.entries.swap_remove(lru);
            self.stats.evictions += 1;
        }
        self.entries.push((model, Arc::clone(&executor), clock));
        executor
    }
}

/// Telemetry names of the fleet tier.
const FLEET_TIER: Tier = Tier {
    name: "fleet",
    hop: "execute",
    station_arg: "fabric",
    depth_counter: "fleet.queue_depth",
};

/// What the executor resolver shares with the engine handle: the models
/// and one bind-handle LRU per fabric.
struct Binds {
    registry: ModelRegistry,
    caches: Vec<Mutex<BindCache>>,
}

impl Binds {
    /// The executor for `model` on `fabric` — the core's resolver. Cache
    /// lookup and insert each hold the fabric's bind mutex briefly; the
    /// bind itself runs unlocked, so a slow cold bind never stalls a
    /// sibling replica's cache hits on the same fabric.
    fn resolve(&self, fabric: usize, model: ModelId) -> Result<Arc<Executor>, ServeError> {
        let cache = &self.caches[fabric];
        if let Some(exec) = cache.lock().expect("bind cache lock").lookup(model) {
            return Ok(exec);
        }
        let spec = self.registry.get(model);
        let spec = spec.ok_or(ServeError::UnknownModel { model })?;
        let exec = spec
            .compiled
            .executor(&spec.graph, &spec.params, &spec.precision)
            .map_err(ServeError::Exec)?;
        let mut cache = cache.lock().expect("bind cache lock");
        Ok(cache.insert(model, Arc::new(exec)))
    }
}

/// One tenant's SLO: its budget and the requests shed under it so far.
struct Slo {
    budget: SloBudget,
    shed: AtomicU64,
}

/// A multi-tenant, multi-model serving engine over a packed fleet of
/// fabrics (see the module docs). In terms of `fpsa_serve::core`: one
/// station per fabric chosen by the shared [`Router`], one weighted-fair
/// lane per tenant, the bind-handle LRU as executor resolver, and SLO
/// shedding as the admission check.
pub struct FleetEngine {
    core: Core,
    binds: Arc<Binds>,
    router: Router,
    placement: FleetPlacement,
    config: FleetConfig,
    /// Dense by tenant id; `None` = no SLO, never shed.
    slos: Vec<Option<Slo>>,
    shed_counter: fpsa_obs::Counter,
}

impl fmt::Debug for FleetEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetEngine")
            .field("fabrics", &self.placement.fabrics())
            .field("models", &self.binds.registry.len())
            .finish()
    }
}

impl FleetEngine {
    /// Start serving the fleet. `placement` normally comes from
    /// [`FleetPlacement::pack`] over the same `registry`; a registered
    /// model its `hosted` lists omit is still served — routed across every
    /// fabric and bound lazily, exactly as the virtual twin routes it.
    pub fn start(
        registry: ModelRegistry,
        placement: FleetPlacement,
        config: FleetConfig,
    ) -> FleetEngine {
        let config = FleetConfig {
            replicas_per_fabric: config.replicas_per_fabric.max(1),
            max_batch: config.max_batch.max(1),
            ..config
        };
        let router = Router::new(&placement.hosted);
        let cache = || Mutex::new(BindCache::new(config.bind_cache));
        let binds = Arc::new(Binds {
            registry,
            caches: (0..router.stations()).map(|_| cache()).collect(),
        });
        let mut slos = Vec::new();
        for &(tenant, budget) in &config.slos {
            let index = usize::from(tenant);
            slos.resize_with(slos.len().max(index + 1), || None);
            let shed = AtomicU64::new(0);
            slos[index] = Some(Slo { budget, shed });
        }
        let resolver = Arc::clone(&binds);
        let core = Core::start(
            CoreConfig {
                tier: FLEET_TIER,
                stations: router.stations(),
                chain: false,
                replicas: config.replicas_per_fabric,
                policy: BatchPolicy::new(config.max_batch, config.batch_window_us),
                lane_weights: config.tenant_weights.clone(),
            },
            Box::new(move |fabric, model| resolver.resolve(fabric, model)),
        );
        FleetEngine {
            core,
            binds,
            router,
            placement,
            config,
            slos,
            shed_counter: fpsa_obs::Registry::global().counter("fleet.shed"),
        }
    }

    /// The (clamped) configuration the fleet runs with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The registry the fleet serves.
    pub fn registry(&self) -> &ModelRegistry {
        &self.binds.registry
    }

    /// Enqueue one request for `model` on behalf of `tenant`; never blocks
    /// on the model. Invalid inputs, unknown models, SLO sheds and
    /// post-shutdown submissions resolve the ticket immediately with the
    /// typed error instead of poisoning a batch.
    pub fn submit(&self, tenant: u16, model: ModelId, input: Vec<f32>) -> Ticket {
        let args = [("tenant", i64::from(tenant)), ("model", i64::from(model))];
        // The depth read is a heuristic — racing submitters may both pick
        // the same fabric — but admission order per fabric is serialized
        // by its queue lock.
        let route = |()| self.router.route(model, |f| self.core.queued(f, None));
        let fabric = self.admit(tenant, model, input.len()).map(route);
        self.core
            .submit(tenant, &args, fabric.map(|f| (f, model, input)))
    }

    /// The fleet's admission check: a known model, a well-formed input,
    /// and SLO control — a tenant past its p99 budget with a deep enough
    /// backlog on the model's fabrics is shed before it can queue.
    fn admit(&self, tenant: u16, model: ModelId, got: usize) -> Result<(), ServeError> {
        let spec = self.binds.registry.get(model);
        let spec = spec.ok_or(ServeError::UnknownModel { model })?;
        if let Some(want) = spec.input_len().filter(|&want| got != want) {
            return Err(ServeError::InputLength { got, want });
        }
        let Some(Some(slo)) = self.slos.get(usize::from(tenant)) else {
            return Ok(());
        };
        let budget_us = slo.budget.p99_budget_us;
        let p99_us = self.core.lane_p99_latency_us(tenant);
        if p99_us <= budget_us {
            return Ok(());
        }
        let queued = |&f: &usize| self.core.queued(f, Some(tenant));
        let backlog: usize = self.router.hosts(model).iter().map(queued).sum();
        if backlog < slo.budget.shed_depth {
            return Ok(());
        }
        // The typed-error telemetry hook: mark the decision on the
        // timeline and persist the flight-recorder postmortem (the last
        // queue-depth samples and spans before the shed).
        let tracer = Tracer::global();
        if tracer.enabled() {
            let who = ("tenant", i64::from(tenant));
            let depth = ("backlog", backlog as i64);
            tracer.instant("shed", "fleet", tracer.now_us(), &[who, depth]);
            let (p99, budget) = (("p99_us", p99_us as i64), ("budget_us", budget_us as i64));
            fpsa_obs::flight_dump_on_error("fleet.shed", &[who, p99, budget, depth]);
        }
        slo.shed.fetch_add(1, Ordering::Relaxed);
        fpsa_obs::Registry::global().inc(self.shed_counter);
        Err(ServeError::Shed {
            tenant,
            p99_us,
            budget_us,
        })
    }

    /// Submit one request and block for its output.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`], if it failed.
    pub fn infer(
        &self,
        tenant: u16,
        model: ModelId,
        input: Vec<f32>,
    ) -> Result<Vec<f32>, ServeError> {
        self.submit(tenant, model, input).wait()
    }

    /// A snapshot of the lifetime counters. Tenants are dense by id up to
    /// the highest one seen or given an SLO.
    pub fn stats(&self) -> FleetStats {
        let mut tenants = self.core.stats();
        let aggregate = ServeStats::merged(&tenants);
        tenants.resize(tenants.len().max(self.slos.len()), ServeStats::default());
        let slo = |tenant: usize| self.slos.get(tenant).and_then(Option::as_ref);
        let shed = |s: &Slo| s.shed.load(Ordering::Relaxed);
        let mut bind_cache = BindCacheStats::default();
        for cache in &self.binds.caches {
            let stats = cache.lock().expect("bind cache lock").stats;
            bind_cache.hits += stats.hits;
            bind_cache.misses += stats.misses;
            bind_cache.evictions += stats.evictions;
        }
        FleetStats {
            aggregate,
            sheds: (0..tenants.len()).map(|t| slo(t).map_or(0, shed)).collect(),
            budgets: (0..tenants.len())
                .map(|t| slo(t).map(|s| s.budget.p99_budget_us))
                .collect(),
            tenants,
            bind_cache,
        }
    }

    /// Stop admitting requests, drain every queue, join the workers and
    /// return the final counters.
    pub fn shutdown(mut self) -> FleetStats {
        self.core.shutdown_and_join();
        self.stats()
    }
}

impl fpsa_workload::RoutedReplayTarget for FleetEngine {
    fn submit_routed(&self, tenant: u16, model: u16, input: Vec<f32>) -> Ticket {
        FleetEngine::submit(self, tenant, model, input)
    }
    fn stats(&self) -> ServeStats {
        ServeStats::merged(&self.core.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_arch::FabricCapacity;
    use fpsa_core::{CompileCache, Compiler};
    use fpsa_nn::{zoo, GraphParameters};
    use fpsa_sim::Precision;

    fn zoo_registry() -> ModelRegistry {
        let cache = Arc::new(CompileCache::new(8));
        let mut registry = ModelRegistry::with_cache(Compiler::fpsa(), cache);
        for (name, graph, seed) in [("mlp", zoo::tiny_mlp(), 11), ("cnn", zoo::tiny_cnn(), 13)] {
            let params = GraphParameters::seeded(&graph, seed);
            registry
                .register(name, graph, params, Precision::Float)
                .unwrap();
        }
        registry
    }

    fn ample() -> FabricCapacity {
        FabricCapacity::new(100_000, 20_000, 20_000)
    }

    fn sample(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| ((seed + i as u64) % 10) as f32 * 0.1)
            .collect()
    }

    #[test]
    fn fleet_outputs_match_direct_execution_across_models() {
        let registry = zoo_registry();
        let direct: Vec<Vec<f32>> = (0..8)
            .map(|i| {
                let spec = registry.get((i % 2) as ModelId).unwrap();
                let exec = spec
                    .compiled
                    .executor(&spec.graph, &spec.params, &spec.precision)
                    .unwrap();
                exec.run(&sample(spec.input_len().unwrap(), i)).unwrap()
            })
            .collect();
        let placement = FleetPlacement::pack(&registry, 2, ample()).unwrap();
        let engine = FleetEngine::start(registry, placement, FleetConfig::default());
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                let model = (i % 2) as ModelId;
                let len = engine.registry().get(model).unwrap().input_len().unwrap();
                engine.submit((i % 3) as u16, model, sample(len, i))
            })
            .collect();
        let served: Vec<Vec<f32>> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(served, direct);
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.submitted, 8);
        assert_eq!(stats.aggregate.completed, 8);
        assert_eq!(stats.aggregate.failed + stats.aggregate.rejected, 0);
        assert_eq!(
            stats.tenants.iter().map(|t| t.completed).sum::<u64>(),
            8,
            "per-tenant counters partition the aggregate"
        );
    }

    #[test]
    fn bad_inputs_and_unknown_models_resolve_typed_errors() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        let engine = FleetEngine::start(registry, placement, FleetConfig::default());
        let err = engine.submit(0, 0, vec![0.0; 3]).wait().unwrap_err();
        assert_eq!(err, ServeError::InputLength { got: 3, want: 16 });
        let err = engine.submit(0, 99, vec![0.0; 16]).wait().unwrap_err();
        assert_eq!(err, ServeError::UnknownModel { model: 99 });
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.rejected, 2);
    }

    #[test]
    fn a_cold_bind_cache_rebinds_under_pressure() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        // One bind slot for two models forces an eviction per switch.
        let engine = FleetEngine::start(
            registry,
            placement,
            FleetConfig {
                bind_cache: 1,
                ..FleetConfig::default()
            }
            .with_replicas(1),
        );
        for i in 0..4u64 {
            let model = (i % 2) as ModelId;
            let len = engine.registry().get(model).unwrap().input_len().unwrap();
            engine.infer(0, model, sample(len, i)).unwrap();
        }
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.completed, 4);
        assert!(
            stats.bind_cache.misses >= 2,
            "both models must cold-bind at least once"
        );
        assert!(
            stats.bind_cache.evictions >= 1,
            "a single slot must evict on model switches"
        );
    }

    #[test]
    fn blown_slo_budgets_shed_with_the_typed_error() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        let engine = FleetEngine::start(
            registry,
            placement,
            FleetConfig::default().with_slo(
                0,
                SloBudget {
                    p99_budget_us: 0,
                    shed_depth: 0,
                },
            ),
        );
        // First request completes (no latency history yet, p99 = 0).
        engine.infer(0, 0, sample(16, 1)).unwrap();
        // Now p99 > 0 exceeds the 0us budget: the next submit sheds.
        let err = engine.submit(0, 0, sample(16, 2)).wait().unwrap_err();
        match err {
            ServeError::Shed {
                tenant, budget_us, ..
            } => {
                assert_eq!(tenant, 0);
                assert_eq!(budget_us, 0);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        // Tenant 1 has no SLO and is untouched.
        engine.infer(1, 0, sample(16, 3)).unwrap();
        let stats = engine.shutdown();
        assert_eq!(stats.sheds[0], 1);
        assert_eq!(stats.tenants[0].rejected, 1);
        assert_eq!(stats.tenants[1].rejected, 0);
        let status = stats.slo_status();
        assert!(status[0].violating);
        assert_eq!(status[0].budget_us, Some(0));
        assert_eq!(status[1].budget_us, None);
    }

    #[test]
    fn a_model_hosted_nowhere_is_served_across_every_fabric() {
        // A hand-built placement (`hosted` is a public field) that omits
        // the registered model 1. The front door used to panic on it
        // (`expect("hosts non-empty")`); the shared router degrades like
        // the virtual twin: route across every fabric, bind lazily.
        let registry = zoo_registry();
        let spec = registry.get(1).unwrap();
        let direct = spec
            .compiled
            .executor(&spec.graph, &spec.params, &spec.precision)
            .unwrap();
        let len = spec.input_len().unwrap();
        let expected: Vec<Vec<f32>> = (0..6)
            .map(|i| direct.run(&sample(len, i)).unwrap())
            .collect();
        let placement = FleetPlacement {
            capacity: ample(),
            hosted: vec![vec![0], vec![0]],
            residual: vec![ample(), ample()],
        };
        let engine = FleetEngine::start(registry, placement, FleetConfig::default());
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| engine.submit(0, 1, sample(len, i)))
            .collect();
        let served: Vec<Vec<f32>> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(served, expected);
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.completed, 6);
        assert_eq!(stats.aggregate.failed + stats.aggregate.rejected, 0);
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_queued_work() {
        let registry = zoo_registry();
        let placement = FleetPlacement::pack(&registry, 1, ample()).unwrap();
        let engine = FleetEngine::start(registry, placement, FleetConfig::default());
        engine.infer(0, 0, sample(16, 1)).unwrap();
        let stats = engine.shutdown();
        assert_eq!(stats.aggregate.completed, 1);
    }
}
