//! Sparsity properties for the bytecode executor.
//!
//! The lowering pass drops all-zero weight rows structurally and the
//! dispatch loop short-circuits zero-activation rows at run time. Both
//! skips must be *invisible*: for randomly zeroed weight tiles and
//! ReLU-dead activations, the bytecode stream has to stay bit-identical
//! to the retired interpreter in every precision regime
//! (`Executor::run_checked` panics on the first diverging node).

use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_mapper::{AllocationPolicy, Mapper};
use fpsa_nn::params::mlp_graph;
use fpsa_nn::reference::{QuantizationPlan, Reference};
use fpsa_nn::{seeds, ComputationalGraph, GraphParameters, Operator};
use fpsa_sim::{Executor, Precision};
use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};
use fpsa_testgen::cases;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn compile(graph: &ComputationalGraph) -> (fpsa_synthesis::CoreOpGraph, fpsa_mapper::Mapping) {
    let core = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
        .synthesize(graph)
        .expect("test models synthesize");
    let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&core);
    (core, mapping)
}

fn samples(graph: &ComputationalGraph, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let len = graph
        .nodes()
        .iter()
        .find_map(|node| match node.op {
            Operator::Input { shape } => Some(shape.elements()),
            _ => None,
        })
        .expect("graph has an input");
    (0..n)
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(seeds::derive(seed, seeds::STREAM_SAMPLES, i as u64));
            (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect()
        })
        .collect()
}

/// Seeded parameters with each weight independently zeroed with probability
/// `zero_pct`/100 — the random sparsity pattern under test.
fn sparse_params(graph: &ComputationalGraph, seed: u64, zero_pct: u32) -> GraphParameters {
    let dense = GraphParameters::seeded(graph, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AC5_AC5A);
    let tensors = (0..graph.len())
        .map(|node| {
            dense.weights(node).map(|w| {
                w.iter()
                    .map(|&v| {
                        if rng.gen_range(0u32..100) < zero_pct {
                            0.0
                        } else {
                            v
                        }
                    })
                    .collect()
            })
        })
        .collect();
    GraphParameters::from_parts(tensors)
}

/// The three numeric regimes, calibrated/seeded from the same model.
fn precisions(
    graph: &ComputationalGraph,
    params: &GraphParameters,
    inputs: &[Vec<f32>],
) -> Vec<Precision> {
    let plan = QuantizationPlan::calibrate(graph, params, inputs).expect("plan calibrates");
    vec![
        Precision::Float,
        Precision::Integer(plan),
        Precision::Noisy {
            scheme: WeightScheme::fpsa_add(),
            variation: CellVariation::measured(),
            seed: 0x5AD,
        },
    ]
}

/// Bind every precision and run the interpreter cross-check on each sample:
/// `run_checked` asserts per-node bit identity between the bytecode stream
/// and the retired interpreter, then we assert the checked path returns the
/// exact output the production path computes.
fn check_all_precisions(graph: &ComputationalGraph, params: &GraphParameters, seed: u64) {
    let (core, mapping) = compile(graph);
    let inputs = samples(graph, 3, seed);
    for precision in precisions(graph, params, &inputs) {
        let exec = Executor::bind(graph, params, &core, &mapping, &precision)
            .unwrap_or_else(|e| panic!("{}: bind failed: {e}", graph.name));
        for x in &inputs {
            let checked = exec.run_checked(x).expect("checked run succeeds");
            let plain = exec.run(x).expect("plain run succeeds");
            assert_eq!(
                checked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}: checked and production outputs diverged ({precision:?})",
                graph.name
            );
        }
    }
}

/// Randomly zeroed weight tiles execute bit-identically to the
/// interpreter across Float / Integer / Noisy. High zero rates make
/// all-zero rows (structurally dropped at lowering) near-certain.
#[test]
fn randomly_zeroed_weight_tiles_stay_bit_identical() {
    let name = "randomly_zeroed_weight_tiles_stay_bit_identical";
    cases(name, 12, |rng| {
        let seed = rng.gen_range(0u64..1_000_000);
        let zero_pct = rng.gen_range(0u32..96);
        let graph = mlp_graph("sparse-mlp", &[12, 10, 8, 4]);
        let params = sparse_params(&graph, seed, zero_pct);
        check_all_precisions(&graph, &params, seed);
    });
}

/// All-negative weights kill every ReLU after the first layer, so all
/// downstream activations are exactly zero — the run-time
/// zero-activation-row short circuit fires on every row and must not
/// change a single bit in any precision regime.
#[test]
fn relu_dead_activations_skip_bit_identically() {
    cases("relu_dead_activations_skip_bit_identically", 12, |rng| {
        let seed = rng.gen_range(0u64..1_000_000);
        let graph = mlp_graph("dead-mlp", &[10, 8, 6, 4]);
        let params = GraphParameters::seeded(&graph, seed).map_weights(|w| -w.abs());
        check_all_precisions(&graph, &params, seed);
    });
}

/// Regression: an all-zero weight tile must vanish at lowering — zero
/// instructions emitted for it, counted in `skipped_zero_tiles` — and the
/// memset-zeroed arena must reproduce the interpreter's zero activations.
#[test]
fn an_all_zero_tile_emits_zero_instructions() {
    let graph = mlp_graph("zero-mlp", &[8, 6, 4]);
    let (core, mapping) = compile(&graph);

    let dense = GraphParameters::seeded(&graph, 9);
    let dense_exec = Executor::bind(&graph, &dense, &core, &mapping, &Precision::Float).unwrap();
    let dense_stats = dense_exec.lowering_stats().clone();
    assert_eq!(dense_stats.skipped_zero_tiles, 0);
    assert!(dense_stats.mac_rows > 0);

    // Zero out the first Linear layer's whole tensor; keep the rest dense.
    let node = graph
        .nodes()
        .iter()
        .find(|n| matches!(n.op, Operator::Linear { .. }))
        .expect("MLP has a Linear node")
        .id;
    let tensors = (0..graph.len())
        .map(|i| {
            dense.weights(i).map(|w| {
                if i == node {
                    vec![0.0; w.len()]
                } else {
                    w.to_vec()
                }
            })
        })
        .collect();
    let zeroed = GraphParameters::from_parts(tensors);

    let exec = Executor::bind(&graph, &zeroed, &core, &mapping, &Precision::Float).unwrap();
    let stats = exec.lowering_stats();
    assert!(
        stats.skipped_zero_tiles >= 1,
        "the all-zero tile was not structurally skipped: {stats:?}"
    );
    assert!(
        stats.instructions < dense_stats.instructions,
        "dropping a whole tile must shrink the stream: {} vs {}",
        stats.instructions,
        dense_stats.instructions
    );

    // The skipped tile's activations come from the memset-zeroed arena and
    // must still match the golden reference and the interpreter bit for bit.
    let reference = Reference::new(&graph, &zeroed).unwrap();
    for x in samples(&graph, 3, 13) {
        let got = exec.run_checked(&x).unwrap();
        let want = reference.logits(&x).unwrap();
        assert_eq!(got.len(), want.len());
        for (&g, &w) in got.iter().zip(&want) {
            assert!((f64::from(g) - f64::from(w)).abs() < 1e-4);
        }
    }

    // A fully zero model lowers to a stream with no mac work at all.
    let all_zero = dense.map_weights(|_| 0.0);
    let exec = Executor::bind(&graph, &all_zero, &core, &mapping, &Precision::Float).unwrap();
    let stats = exec.lowering_stats();
    assert_eq!(stats.mac_rows, 0, "{stats:?}");
    assert_eq!(stats.row_runs, 0, "{stats:?}");
    let out = exec.run(&samples(&graph, 1, 17)[0]).unwrap();
    assert!(out.iter().all(|&v| v == 0.0), "zero weights → zero logits");
}
