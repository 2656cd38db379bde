//! The sharded determinism suite: multi-fabric execution and serving must
//! be **bit-identical** to the unsharded single-fabric run.
//!
//! Grid: Float / Integer / Noisy precisions × 1–4 pipeline stages ×
//! direct `ShardedExecutor` chaining and pipeline-parallel `ShardedEngine`
//! serving under concurrent client streams. The reference in every
//! comparison is the plain `fpsa_core::Compiler` compilation of the whole
//! model on one (arbitrarily large) fabric, executed by `Executor::run` —
//! sharding must change *where* work happens, never *what* is computed.

use fpsa_core::validate::sample_inputs;
use fpsa_core::Compiler;
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_nn::params::mlp_graph;
use fpsa_nn::reference::QuantizationPlan;
use fpsa_nn::{ComputationalGraph, GraphParameters};
use fpsa_serve::ServeConfig;
use fpsa_shard::{FabricBudget, ShardCompiler, ShardedModel};
use fpsa_sim::{Executor, Precision};
use std::sync::Arc;

const SEED: u64 = 0xD5;

fn deep_mlp() -> ComputationalGraph {
    // Four Linear layers → up to four pipeline stages.
    mlp_graph("det-mlp", &[48, 40, 32, 24, 6])
}

fn unsharded(graph: &ComputationalGraph, params: &GraphParameters, p: &Precision) -> Executor {
    let compiled = Compiler::fpsa().compile(graph).expect("model compiles");
    compiled.executor(graph, params, p).expect("model binds")
}

fn sharded_into(graph: &ComputationalGraph, stages: usize) -> ShardedModel {
    ShardCompiler::fpsa(FabricBudget::with_pes(1))
        .compile_into_stages(graph, stages)
        .expect("model shards")
}

fn precisions(
    graph: &ComputationalGraph,
    params: &GraphParameters,
) -> Vec<(&'static str, Precision)> {
    let inputs = sample_inputs(graph, 4, SEED);
    let plan = QuantizationPlan::calibrate(graph, params, &inputs).expect("plan calibrates");
    vec![
        ("float", Precision::Float),
        ("integer", Precision::Integer(plan)),
        (
            "noisy",
            Precision::Noisy {
                scheme: WeightScheme::fpsa_add(),
                variation: CellVariation::measured(),
                seed: 0xBEEF,
            },
        ),
    ]
}

#[test]
fn sharded_execution_is_bit_identical_across_precisions_and_stage_counts() {
    let graph = deep_mlp();
    let params = GraphParameters::seeded(&graph, SEED);
    let inputs = sample_inputs(&graph, 5, SEED);
    for (name, precision) in precisions(&graph, &params) {
        let reference = unsharded(&graph, &params, &precision);
        // `run_checked` shadows the bytecode executor with the retired
        // interpreter per node, so the unsharded ground truth is itself
        // cross-checked in every precision regime.
        let want: Vec<Vec<f32>> = inputs
            .iter()
            .map(|x| reference.run_checked(x).expect("unsharded run succeeds"))
            .collect();
        for stages in 1..=4 {
            let sharded = sharded_into(&graph, stages);
            assert_eq!(sharded.stage_count(), stages);
            let exec = sharded
                .executor(&params, &precision)
                .unwrap_or_else(|e| panic!("{name}/{stages}: bind failed: {e}"));
            for (x, want) in inputs.iter().zip(&want) {
                let got = exec.run(x).expect("sharded run succeeds");
                assert_eq!(
                    &got, want,
                    "{name}: {stages}-stage output diverged from the unsharded run"
                );
            }
        }
    }
}

#[test]
fn sharded_serving_is_bit_identical_under_concurrent_client_streams() {
    let graph = deep_mlp();
    let params = GraphParameters::seeded(&graph, SEED);
    let inputs = sample_inputs(&graph, 8, SEED);
    for (name, precision) in precisions(&graph, &params) {
        let reference = unsharded(&graph, &params, &precision);
        let want: Arc<Vec<Vec<f32>>> = Arc::new(
            inputs
                .iter()
                .map(|x| reference.run(x).expect("unsharded run succeeds"))
                .collect(),
        );
        for stages in [2usize, 3] {
            let sharded = sharded_into(&graph, stages);
            let engine = Arc::new(
                sharded
                    .serve(
                        &params,
                        &precision,
                        ServeConfig {
                            replicas: 2,
                            max_batch: 4,
                            batch_window_us: 500,
                        },
                    )
                    .unwrap_or_else(|e| panic!("{name}/{stages}: serve failed: {e}")),
            );
            // Four concurrent client streams, each submitting the sample
            // pool in a different order.
            let clients: Vec<_> = (0..4)
                .map(|client| {
                    let engine = Arc::clone(&engine);
                    let inputs = inputs.clone();
                    let want = Arc::clone(&want);
                    std::thread::spawn(move || {
                        for round in 0..inputs.len() {
                            let i = (round * 3 + client * 5) % inputs.len();
                            let got = engine.infer(inputs[i].clone()).expect("request is served");
                            assert_eq!(got, want[i], "client {client} request {i} diverged");
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client threads succeed");
            }
            let engine = Arc::into_inner(engine).expect("all clients done");
            let stats = engine.shutdown();
            assert_eq!(stats.completed, 4 * inputs.len() as u64);
            assert_eq!(stats.failed + stats.rejected, 0);
        }
    }
}

/// Rayon-parallel per-stage compilation (the default) must produce a
/// sharded model bit-identical to the sequential loop: same placements,
/// routings, schedules and traces (equality ignores wall-clock only), and
/// the same outputs through both executors — with and without a shared
/// compile cache in the stage-compile path.
#[test]
fn parallel_stage_compilation_is_bit_identical_to_sequential() {
    let graph = deep_mlp();
    let params = GraphParameters::seeded(&graph, SEED);
    let inputs = sample_inputs(&graph, 4, SEED);
    for stages in 2..=4 {
        let parallel = ShardCompiler::fpsa(FabricBudget::with_pes(1))
            .compile_into_stages(&graph, stages)
            .expect("parallel stage compile");
        let sequential = ShardCompiler::fpsa(FabricBudget::with_pes(1))
            .with_sequential_stage_compile()
            .compile_into_stages(&graph, stages)
            .expect("sequential stage compile");
        assert_eq!(
            parallel, sequential,
            "{stages}-stage parallel compile diverged from sequential"
        );
        let cached = ShardCompiler::fpsa(FabricBudget::with_pes(1))
            .with_cache(std::sync::Arc::new(fpsa_core::CompileCache::new(8)))
            .compile_into_stages(&graph, stages)
            .expect("cached stage compile");
        assert_eq!(
            cached, sequential,
            "{stages}-stage cached compile diverged from sequential"
        );
        let a = parallel.executor(&params, &Precision::Float).unwrap();
        let b = sequential.executor(&params, &Precision::Float).unwrap();
        for x in &inputs {
            assert_eq!(a.run(x).unwrap(), b.run(x).unwrap());
        }
    }
}

/// The PR's acceptance bar, at debug-friendly scale: a model whose PE
/// demand exceeds one fabric auto-partitions onto ≥ 2 fabrics and executes
/// bit-identically to its single-large-fabric compilation.
#[test]
fn over_budget_models_auto_shard_and_stay_bit_identical() {
    let graph = deep_mlp();
    let params = GraphParameters::seeded(&graph, SEED);
    let sharder = ShardCompiler::fpsa(FabricBudget::with_pes(2));
    let sharded = sharder.compile_auto(&graph).expect("auto-sharding works");
    assert!(
        sharded.stage_count() >= 2,
        "a 2-PE fabric cannot hold the model"
    );
    let reference = unsharded(&graph, &params, &Precision::Float);
    let exec = sharded.executor(&params, &Precision::Float).unwrap();
    for x in sample_inputs(&graph, 6, SEED) {
        assert_eq!(exec.run(&x).unwrap(), reference.run(&x).unwrap());
    }
}

/// Release-only: the same acceptance bar on the paper's MLP-500-100
/// (debug-mode binds of the 443k-weight model are too slow for the default
/// test run; the sharding CI job runs this in --release).
#[cfg(not(debug_assertions))]
#[test]
fn mlp_500_100_shards_bit_identically_at_every_stage_count() {
    let graph = fpsa_nn::zoo::mlp_500_100();
    let params = GraphParameters::seeded(&graph, SEED);
    let inputs = sample_inputs(&graph, 3, SEED);
    let reference = unsharded(&graph, &params, &Precision::Float);
    let want: Vec<Vec<f32>> = inputs.iter().map(|x| reference.run(x).unwrap()).collect();
    for stages in 1..=3 {
        let sharded = sharded_into(&graph, stages);
        let exec = sharded.executor(&params, &Precision::Float).unwrap();
        for (x, want) in inputs.iter().zip(&want) {
            assert_eq!(&exec.run(x).unwrap(), want, "{stages}-stage run diverged");
        }
    }
}
