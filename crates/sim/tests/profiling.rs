//! Integration test for the `obs-profile` executor profiling hooks.
//!
//! Lives in its own test binary (one process) because the counter banks are
//! process-global; everything runs in one test fn so nothing interleaves.
#![cfg(feature = "obs-profile")]

use fpsa_mapper::{AllocationPolicy, Mapper};
use fpsa_nn::params::mlp_graph;
use fpsa_nn::GraphParameters;
use fpsa_sim::{profile, Executor, Precision};
use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};

#[test]
fn profiling_counts_retires_and_sparsity_skips() {
    // All-negative weights kill every ReLU after the first layer, so the
    // run-time zero-activation skip fires on every downstream dense row.
    let graph = mlp_graph("profiled-mlp", &[10, 8, 6, 4]);
    let params = GraphParameters::seeded(&graph, 7).map_weights(|w| -w.abs());
    let core = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
        .synthesize(&graph)
        .unwrap();
    let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&core);
    let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
    let input = vec![0.5f32; 10];

    assert!(profile::compiled_in());

    // Sampling off: the hooks are compiled in but must record nothing.
    profile::reset();
    profile::set_sampling(false);
    exec.run(&input).unwrap();
    assert_eq!(profile::snapshot().total_retired(), 0);
    assert_eq!(profile::snapshot().total_skipped(), 0);

    // Sampling on, sequential run: every instruction retires once and the
    // dead activations show up as skipped Dense rows.
    profile::set_sampling(true);
    exec.run(&input).unwrap();
    let seq = profile::snapshot();
    profile::set_sampling(false);
    assert_eq!(
        seq.total_retired(),
        exec.lowering_stats().instructions as u64
    );
    let dense_f = fpsa_sim::OPCODE_NAMES.iter().position(|&n| n == "Dense");
    let dense_f = dense_f.expect("Dense opcode exists");
    assert!(seq.retired[dense_f] > 0, "{seq:?}");
    assert!(
        seq.skipped[dense_f] > 0,
        "dead ReLU rows must skip: {seq:?}"
    );
    assert_eq!(seq.rows().len(), {
        (0..fpsa_sim::NUM_OPCODES)
            .filter(|&i| seq.retired[i] != 0 || seq.skipped[i] != 0)
            .count()
    });

    // Batch run: per-sample retire counts (a batch of b retires every
    // instruction b times), and the group skip still fires because every
    // sample in the group has the same dead activations.
    profile::reset();
    profile::set_sampling(true);
    let inputs = vec![input.clone(); 4];
    let mut arena = exec.arena();
    let mut outputs = Vec::new();
    exec.run_batch_into(&inputs, &mut arena, &mut outputs)
        .unwrap();
    let batch = profile::snapshot();
    profile::set_sampling(false);
    assert_eq!(outputs.len(), 4);
    assert_eq!(
        batch.total_retired(),
        4 * exec.lowering_stats().instructions as u64
    );
    assert!(batch.skipped[dense_f] > 0, "{batch:?}");
}
