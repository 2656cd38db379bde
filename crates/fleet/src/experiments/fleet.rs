//! The fleet-serving comparison — beyond the paper.
//!
//! For a mixed model-zoo scenario (several models, several tenants, one
//! arrival stream) the driver compares two ways of spending the same
//! fabrics:
//!
//! * **co-located fleet** — [`FleetPlacement::pack`] puts every model on
//!   every fabric with room, and requests route to the shortest hosting
//!   queue under weighted-fair tenant admission;
//! * **dedicated fabrics** — the old one-model-per-engine layout: model
//!   *m*'s requests can only ever use model *m*'s fabric, however skewed
//!   the mix is.
//!
//! The headline numbers come from the **deterministic virtual clock**
//! (`fpsa_workload::simulate_fleet` vs per-model `simulate`), so the CI
//! pin in `BENCH_fleet.json` is scheduling arithmetic, not wall-clock
//! noise. The real [`FleetEngine`] replays the same trace too: its outputs
//! are asserted bit-identical to direct `Executor::run` per request, and
//! its wall-clock throughput is recorded as advisory context.

use std::time::Instant;

use fpsa_arch::{ArchitectureConfig, FabricCapacity};
use fpsa_core::compiler::PLACE_AND_ROUTE_BLOCK_LIMIT;
use fpsa_core::Compiler;
use fpsa_nn::{zoo, ComputationalGraph, GraphParameters};
use fpsa_serve::{ServeConfig, ServeEngine};
use fpsa_sim::Precision;
use fpsa_workload::{
    simulate, simulate_fleet, FleetPolicy, Scenario, Trace, TraceRecorder, TraceReplayer,
};
use serde::{Deserialize, Serialize};

use crate::{FleetConfig, FleetEngine, FleetPlacement, ModelRegistry};

/// One scenario's fleet-vs-dedicated comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetComparison {
    /// Scenario name.
    pub scenario: String,
    /// Requests in the trace.
    pub requests: usize,
    /// Trace identity (determinism pin).
    pub fingerprint: u64,
    /// Fabrics both layouts spend.
    pub fabrics: usize,
    /// Models in the zoo.
    pub models: Vec<String>,
    /// Tenants in the mix.
    pub tenants: usize,
    /// Model placements across the fleet (primaries + replicas).
    pub placements: usize,
    /// Aggregate virtual-clock throughput of the co-located fleet, rps.
    pub fleet_virtual_rps: f64,
    /// Aggregate virtual-clock throughput of dedicated fabrics, rps.
    pub dedicated_virtual_rps: f64,
    /// `fleet_virtual_rps / dedicated_virtual_rps` — the headline pin.
    pub virtual_speedup: f64,
    /// Fleet virtual makespan, first arrival to last completion, µs.
    pub fleet_makespan_us: u64,
    /// Dedicated virtual makespan over the same absolute time axis, µs.
    pub dedicated_makespan_us: u64,
    /// Per-tenant virtual p99 latency under the fleet, µs, dense by tenant.
    pub tenant_virtual_p99_us: Vec<u64>,
    /// Measured wall-clock throughput of the real fleet engine (advisory).
    pub fleet_measured_rps: f64,
    /// Whether every fleet output matched direct execution bit for bit.
    pub bit_identical: bool,
    /// Bind-handle cache hits over the measured replay.
    pub bind_hits: u64,
    /// Bind-handle cache misses (cold binds) over the measured replay.
    pub bind_misses: u64,
    /// Requests shed by SLO admission control (0 in the default config).
    pub sheds: u64,
}

/// The checked-in mixed-zoo scenario (`scenarios/fleet/fleet-zoo.scenario`
/// at the workspace root). It lives under `scenarios/fleet/` — not
/// `scenarios/` — because its arrival rate deliberately saturates a
/// dedicated single-model engine, while the workload scenarios bench
/// replays every file under `scenarios/` as an unsaturated workload.
///
/// # Panics
///
/// When the file is missing or fails to parse — both repo-integrity bugs.
pub fn checked_in_zoo() -> Scenario {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/fleet/fleet-zoo.scenario"
    );
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("{path} does not parse: {e}"))
}

/// The zoo graph a scenario model name refers to.
pub fn zoo_graph(name: &str) -> Option<ComputationalGraph> {
    match name {
        "tiny_mlp" => Some(zoo::tiny_mlp()),
        "tiny_wide_mlp" => Some(zoo::tiny_wide_mlp()),
        "tiny_cnn" => Some(zoo::tiny_cnn()),
        "tiny_avgpool_cnn" => Some(zoo::tiny_avgpool_cnn()),
        "tiny_resnet" => Some(zoo::tiny_resnet()),
        "tiny_concat" => Some(zoo::tiny_concat()),
        _ => None,
    }
}

/// Build the registry for a scenario's model mix: one registration per mix
/// entry, weights seeded from the scenario seed plus the mix position so
/// two entries of the same graph still carry distinct parameters.
///
/// # Panics
///
/// When a mix entry names no known tiny-zoo model, or a model fails to
/// compile — both harness bugs, not serving conditions.
pub fn registry_for(scenario: &Scenario) -> ModelRegistry {
    let mut registry = ModelRegistry::new(Compiler::fpsa());
    for (index, entry) in scenario.models.iter().enumerate() {
        let graph = zoo_graph(&entry.name)
            .unwrap_or_else(|| panic!("scenario model {:?} is not a tiny zoo model", entry.name));
        let params = GraphParameters::seeded(&graph, scenario.seed + index as u64);
        registry
            .register(&entry.name, graph, params, Precision::Float)
            .expect("tiny zoo models compile");
    }
    registry
}

/// The per-fabric capacity both layouts budget against: what one fabric at
/// the physical-design block limit offers.
pub fn fabric_capacity() -> FabricCapacity {
    FabricCapacity::within_block_budget(&ArchitectureConfig::fpsa(), PLACE_AND_ROUTE_BLOCK_LIMIT)
}

/// Weighted-fair tenant shares derived from the scenario's tenant mix
/// weights (rounded, clamped ≥ 1).
pub fn tenant_weights(scenario: &Scenario) -> Vec<(u16, u64)> {
    scenario
        .tenants
        .iter()
        .enumerate()
        .map(|(tenant, entry)| (tenant as u16, (entry.weight.round() as u64).max(1)))
        .collect()
}

/// Model `model`'s sub-trace with the original arrival times preserved —
/// the dedicated-fabric view of the shared stream. Not rebased: the
/// makespan fix in `simulate` measures from the first arrival, so the
/// absolute time axis stays comparable across sub-traces.
fn sub_trace(trace: &Trace, model: u16) -> Trace {
    Trace {
        scenario: trace.scenario.clone(),
        seed: trace.seed,
        events: trace
            .events
            .iter()
            .filter(|e| e.model == model)
            .copied()
            .collect(),
    }
}

/// Run the comparison for `scenario` on `fabrics` fabrics (see the module
/// docs). `fabrics` is typically the model count, so both layouts spend
/// the same silicon.
pub fn run(scenario: &Scenario, fabrics: usize) -> FleetComparison {
    let trace = TraceRecorder::new(scenario)
        .record()
        .expect("scenario is valid");
    let registry = registry_for(scenario);
    let placement = FleetPlacement::pack(&registry, fabrics, fabric_capacity())
        .expect("the tiny zoo fits the fleet");
    let weights = tenant_weights(scenario);

    // --- Virtual clock: the deterministic, CI-pinnable half. ---
    let fleet_policy = FleetPolicy {
        per_fabric: scenario.policy,
        hosted: placement.hosted.clone(),
        tenant_weights: weights.clone(),
    };
    let fleet_virtual = simulate_fleet(&trace, &fleet_policy, scenario.service);

    // Dedicated baseline: model m's requests on model m's fabric only,
    // same per-fabric policy, combined over the shared absolute time axis.
    let mut dedicated_first = u64::MAX;
    let mut dedicated_last = 0u64;
    for model in 0..registry.len() as u16 {
        let sub = sub_trace(&trace, model);
        if sub.is_empty() {
            continue;
        }
        let first_at = sub.events[0].at_us;
        let replay = simulate(&sub, scenario.policy, scenario.service);
        dedicated_first = dedicated_first.min(first_at);
        dedicated_last = dedicated_last.max(first_at + replay.makespan_us);
    }
    let dedicated_makespan_us = dedicated_last.saturating_sub(dedicated_first.min(dedicated_last));
    let dedicated_virtual_rps =
        trace.len() as f64 / (dedicated_makespan_us.max(1) as f64 / 1_000_000.0);

    // --- Real engine: bit-identity and advisory wall-clock throughput. ---
    let input_lens: Vec<usize> = registry
        .models()
        .iter()
        .map(|m| m.input_len().expect("zoo models have input nodes"))
        .collect();
    let direct: Vec<Vec<f32>> = trace
        .events
        .iter()
        .enumerate()
        .map(|(index, event)| {
            let spec = registry.get(event.model).expect("trace model registered");
            let exec = spec
                .compiled
                .executor(&spec.graph, &spec.params, &spec.precision)
                .expect("registered models bind");
            exec.run(&trace.input_for(index, input_lens[usize::from(event.model)]))
                .expect("direct execution succeeds")
        })
        .collect();

    let mut config = FleetConfig::default()
        .with_replicas(scenario.policy.replicas)
        .with_batching(scenario.policy.max_batch, scenario.policy.window_us);
    for &(tenant, weight) in &weights {
        config = config.with_tenant_weight(tenant, weight);
    }
    let engine = FleetEngine::start(registry, placement.clone(), config);
    let outcome = TraceReplayer::new(&trace, 0).replay_routed(&engine, &input_lens);
    let bit_identical = outcome.outputs == direct;
    let stats = engine.shutdown();

    FleetComparison {
        scenario: scenario.name.clone(),
        requests: trace.len(),
        fingerprint: trace.fingerprint(),
        fabrics: placement.fabrics(),
        models: scenario.models.iter().map(|m| m.name.clone()).collect(),
        tenants: scenario.tenants.len().max(1),
        placements: placement.replicas(),
        fleet_virtual_rps: fleet_virtual.aggregate.throughput_rps,
        dedicated_virtual_rps,
        virtual_speedup: fleet_virtual.aggregate.throughput_rps / dedicated_virtual_rps.max(1e-9),
        fleet_makespan_us: fleet_virtual.aggregate.makespan_us,
        dedicated_makespan_us,
        tenant_virtual_p99_us: fleet_virtual
            .per_tenant
            .iter()
            .map(|t| t.p99_latency_us())
            .collect(),
        fleet_measured_rps: outcome.throughput_rps(),
        bit_identical,
        bind_hits: stats.bind_cache.hits,
        bind_misses: stats.bind_cache.misses,
        sheds: stats.sheds.iter().sum(),
    }
}

/// Measure the dedicated real-engine baseline for context: one
/// [`ServeEngine`] per model, each replaying its sub-trace concurrently.
/// Returns aggregate wall-clock throughput in requests/s (advisory — wall
/// clock on a shared host, never pinned).
pub fn measure_dedicated(scenario: &Scenario) -> f64 {
    let trace = TraceRecorder::new(scenario)
        .record()
        .expect("scenario is valid");
    let registry = registry_for(scenario);
    let engines: Vec<(Trace, usize, ServeEngine)> = (0..registry.len() as u16)
        .map(|model| {
            let spec = registry.get(model).expect("model registered");
            let exec = spec
                .compiled
                .executor(&spec.graph, &spec.params, &spec.precision)
                .expect("registered models bind");
            let engine = ServeEngine::start(
                exec,
                ServeConfig {
                    replicas: scenario.policy.replicas,
                    max_batch: scenario.policy.max_batch,
                    batch_window_us: scenario.policy.window_us,
                },
            );
            let len = spec.input_len().expect("zoo models have input nodes");
            (sub_trace(&trace, model), len, engine)
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (sub, input_len, engine) in &engines {
            scope.spawn(move || {
                if !sub.is_empty() {
                    TraceReplayer::new(sub, *input_len).replay(engine);
                }
            });
        }
    });
    let wall_us = start.elapsed().as_micros().max(1) as f64;
    trace.len() as f64 / (wall_us / 1_000_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_workload::MixEntry;

    fn small_zoo() -> Scenario {
        let mut scenario = Scenario::steady("fleet-exp", "tiny_mlp", 0xF1EE7, 48);
        scenario.models = vec![
            MixEntry {
                name: "tiny_mlp".into(),
                weight: 4.0,
            },
            MixEntry {
                name: "tiny_cnn".into(),
                weight: 1.0,
            },
        ];
        scenario.tenants = vec![
            MixEntry {
                name: "free".into(),
                weight: 1.0,
            },
            MixEntry {
                name: "pro".into(),
                weight: 3.0,
            },
        ];
        scenario
    }

    #[test]
    fn the_comparison_is_bit_identical_and_virtual_numbers_are_deterministic() {
        let scenario = small_zoo();
        let a = run(&scenario, 2);
        assert!(a.bit_identical, "fleet outputs diverged from direct runs");
        assert_eq!(a.requests, 48);
        assert_eq!(a.models, vec!["tiny_mlp".to_string(), "tiny_cnn".into()]);
        let b = run(&scenario, 2);
        // Virtual numbers are clock arithmetic: identical across runs.
        assert_eq!(a.fleet_virtual_rps, b.fleet_virtual_rps);
        assert_eq!(a.dedicated_virtual_rps, b.dedicated_virtual_rps);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.tenant_virtual_p99_us, b.tenant_virtual_p99_us);
        assert_eq!(a.sheds, 0, "no SLO budgets configured, nothing sheds");
    }

    #[test]
    fn unknown_models_panic_with_a_named_culprit() {
        let mut scenario = small_zoo();
        scenario.models[0].name = "vgg1000".into();
        let err = std::panic::catch_unwind(|| registry_for(&scenario)).unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("vgg1000"),
            "panic names the model: {message}"
        );
    }
}
