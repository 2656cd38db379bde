//! The fleet-serving determinism suite.
//!
//! Mirrors `crates/workload/tests/determinism.rs`, one level up the stack:
//! a multi-model, multi-tenant trace replayed through the co-located
//! [`FleetEngine`] must yield outputs bit-identical to direct
//! `Executor::run` — across runs, replica counts, concurrent client
//! streams, tenant-weight configurations and all three numeric regimes.
//! Co-location, weighted-fair queueing and shortest-queue routing decide
//! *where and when* a request runs, never *what it computes*.
//!
//! The release build additionally pins the acceptance bar on the
//! checked-in `scenarios/fleet/fleet-zoo.scenario`: the co-located fleet
//! beats dedicated single-model engines on aggregate virtual-clock
//! throughput.

use fpsa_core::Compiler;
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_fleet::experiments::fleet::{checked_in_zoo, fabric_capacity, zoo_graph};
use fpsa_fleet::{FleetConfig, FleetEngine, FleetPlacement, ModelRegistry};
use fpsa_nn::reference::QuantizationPlan;
use fpsa_nn::GraphParameters;
use fpsa_sim::Precision;
use fpsa_workload::{
    simulate_fleet, FleetPolicy, MixEntry, Scenario, TraceRecorder, TraceReplayer,
};

const REQUESTS: usize = 32;

/// A small two-model, two-tenant zoo with a 3:1 popularity skew.
fn zoo_scenario() -> Scenario {
    let mut scenario = Scenario::steady("fleet-determinism", "tiny_mlp", 0xF1EE7D, REQUESTS);
    scenario.models = vec![
        MixEntry {
            name: "tiny_mlp".into(),
            weight: 3.0,
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

/// The three numeric regimes for `model`, integer calibrated on that
/// model's own share of the trace inputs.
fn precisions(name: &str, seed: u64, calibration: &[Vec<f32>]) -> Vec<Precision> {
    let graph = zoo_graph(name).expect("zoo model");
    let params = GraphParameters::seeded(&graph, seed);
    let plan =
        QuantizationPlan::calibrate(&graph, &params, calibration).expect("calibration succeeds");
    vec![
        Precision::Float,
        Precision::Integer(plan),
        Precision::Noisy {
            scheme: WeightScheme::fpsa_add(),
            variation: CellVariation::measured(),
            seed: 0xD07,
        },
    ]
}

#[test]
fn fleet_outputs_are_bit_identical_across_runs_replicas_clients_and_precisions() {
    let scenario = zoo_scenario();
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("valid scenario");

    // Per-model calibration inputs: each model's own events off the trace.
    let names = ["tiny_mlp", "tiny_cnn"];
    let input_lens: Vec<usize> = names
        .iter()
        .map(|n| zoo_graph(n).unwrap().input_elements())
        .collect();
    let calibrations: Vec<Vec<Vec<f32>>> = (0..names.len() as u16)
        .map(|model| {
            trace
                .events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.model == model)
                .map(|(i, _)| trace.input_for(i, input_lens[usize::from(model)]))
                .collect()
        })
        .collect();

    let regimes: Vec<Vec<Precision>> = names
        .iter()
        .enumerate()
        .map(|(m, name)| precisions(name, scenario.seed + m as u64, &calibrations[m]))
        .collect();

    // One pass per regime: both models registered at that regime's
    // precision, fleet replay checked against direct execution.
    for regime in [0, 1, 2] {
        let mut registry = ModelRegistry::new(Compiler::fpsa());
        for (m, name) in names.iter().enumerate() {
            let graph = zoo_graph(name).unwrap();
            let params = GraphParameters::seeded(&graph, scenario.seed + m as u64);
            registry
                .register(*name, graph, params, regimes[m][regime].clone())
                .expect("zoo models compile");
        }

        // Ground truth: direct single-threaded execution, per event.
        let direct: Vec<Vec<f32>> = trace
            .events
            .iter()
            .enumerate()
            .map(|(i, event)| {
                let spec = registry.get(event.model).expect("registered");
                spec.compiled
                    .executor(&spec.graph, &spec.params, &spec.precision)
                    .expect("models bind")
                    .run(&trace.input_for(i, input_lens[usize::from(event.model)]))
                    .expect("direct run succeeds")
            })
            .collect();

        let placement =
            FleetPlacement::pack(&registry, 2, fabric_capacity()).expect("the zoo fits");
        let replayer = TraceReplayer::new(&trace, 0);

        for replicas in [1, 2, 4] {
            let engine = FleetEngine::start(
                registry.clone(),
                placement.clone(),
                FleetConfig::default()
                    .with_replicas(replicas)
                    .with_batching(4, 300)
                    .with_tenant_weight(0, 1)
                    .with_tenant_weight(1, 3),
            );
            // Run 1: single client. Run 2: same engine, same trace. Run 3:
            // three concurrent client streams. All bit-identical to direct.
            let first = replayer.replay_routed(&engine, &input_lens);
            let second = replayer.replay_routed(&engine, &input_lens);
            let concurrent = replayer.replay_routed_concurrent(&engine, &input_lens, 3);
            assert_eq!(
                first.outputs, direct,
                "fleet replay diverged from direct (regime {regime}, {replicas} replicas)"
            );
            assert_eq!(first.outputs, second.outputs);
            assert_eq!(first.outputs, concurrent.outputs);

            let stats = engine.shutdown();
            assert_eq!(stats.aggregate.submitted, 3 * REQUESTS as u64);
            assert_eq!(stats.aggregate.completed, 3 * REQUESTS as u64);
            assert_eq!(stats.aggregate.failed + stats.aggregate.rejected, 0);
        }
    }
}

#[test]
fn tenant_weights_change_scheduling_but_never_outputs() {
    let scenario = zoo_scenario();
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("valid scenario");
    let input_lens: Vec<usize> = ["tiny_mlp", "tiny_cnn"]
        .iter()
        .map(|n| zoo_graph(n).unwrap().input_elements())
        .collect();

    let build_registry = || {
        let mut registry = ModelRegistry::new(Compiler::fpsa());
        for (m, name) in ["tiny_mlp", "tiny_cnn"].iter().enumerate() {
            let graph = zoo_graph(name).unwrap();
            let params = GraphParameters::seeded(&graph, scenario.seed + m as u64);
            registry
                .register(*name, graph, params, Precision::Float)
                .expect("zoo models compile");
        }
        registry
    };

    let mut outputs = Vec::new();
    for weights in [
        vec![(0u16, 1u64), (1, 1)],
        vec![(0, 1), (1, 7)],
        vec![(0, 5), (1, 2)],
    ] {
        let registry = build_registry();
        let placement =
            FleetPlacement::pack(&registry, 2, fabric_capacity()).expect("the zoo fits");
        let mut config = FleetConfig::default()
            .with_replicas(2)
            .with_batching(4, 200);
        for (tenant, weight) in weights {
            config = config.with_tenant_weight(tenant, weight);
        }
        let engine = FleetEngine::start(registry, placement, config);
        outputs.push(
            TraceReplayer::new(&trace, 0)
                .replay_routed(&engine, &input_lens)
                .outputs,
        );
        engine.shutdown();
    }
    assert_eq!(outputs[0], outputs[1], "weights perturbed outputs");
    assert_eq!(outputs[0], outputs[2], "weights perturbed outputs");
}

#[test]
fn fleet_virtual_stats_are_identical_across_runs_and_host_thread_counts() {
    let scenario = zoo_scenario();
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("valid scenario");
    let policy = FleetPolicy {
        per_fabric: scenario.policy,
        hosted: vec![vec![0, 1], vec![0, 1]],
        tenant_weights: vec![(0, 1), (1, 3)],
    };
    let baseline = simulate_fleet(&trace, &policy, scenario.service);
    assert_eq!(baseline.aggregate.stats.completed, REQUESTS as u64);

    // Re-running in this thread and in a pile of fresh threads must all
    // produce the identical stats — the virtual clock owes its determinism
    // to nothing about the host.
    assert_eq!(baseline, simulate_fleet(&trace, &policy, scenario.service));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let trace = &trace;
                let policy = &policy;
                let service = scenario.service;
                scope.spawn(move || simulate_fleet(trace, policy, service))
            })
            .collect();
        for handle in handles {
            assert_eq!(baseline, handle.join().expect("sim thread"));
        }
    });
}

/// The acceptance pin, release only (the 30k-request replay is too slow
/// under `debug_assertions`): on the checked-in mixed-zoo trace, the
/// co-located fleet beats dedicated single-model engines on aggregate
/// virtual-clock throughput, with bit-identical outputs and no sheds.
#[cfg(not(debug_assertions))]
#[test]
fn colocation_beats_dedicated_engines_on_the_checked_in_zoo() {
    let scenario = checked_in_zoo();
    assert_eq!(scenario.name, "fleet-zoo");
    assert!(scenario.models.len() >= 2, "mixed zoo needs >= 2 models");
    assert!(scenario.tenants.len() >= 2, "mixed zoo needs >= 2 tenants");

    let comparison = fpsa_fleet::experiments::fleet::run(&scenario, scenario.models.len());
    assert!(
        comparison.virtual_speedup > 1.0,
        "co-location must beat dedicated fabrics: fleet {:.0} rps vs dedicated {:.0} rps",
        comparison.fleet_virtual_rps,
        comparison.dedicated_virtual_rps
    );
    assert!(
        comparison.bit_identical,
        "fleet outputs diverged from direct execution"
    );
    assert_eq!(
        comparison.sheds, 0,
        "no SLO budgets configured, nothing sheds"
    );
    // The trace is a pure function of the scenario: pin its identity so a
    // silent recorder change cannot move the goalposts.
    let again = TraceRecorder::new(&scenario)
        .record()
        .expect("valid scenario");
    assert_eq!(comparison.fingerprint, again.fingerprint());
}

// `checked_in_zoo` is exercised by the release-gated pin above; keep the
// debug build honest about the file parsing and staying a mixed zoo.
#[test]
fn the_checked_in_zoo_scenario_parses_and_is_mixed() {
    let scenario = checked_in_zoo();
    assert_eq!(scenario.name, "fleet-zoo");
    assert!(scenario.models.len() >= 2);
    assert!(scenario.tenants.len() >= 2);
    assert!(scenario.requests >= 10_000);
}
