//! The dispatch loops are family-dependent (block sizes and kernels follow
//! the bind-time `Simd`), so the whole bind → run path is tested once per
//! family the host reports, not only under `Simd::detect`.

use super::testutil::{compile, samples, three_precisions};
use super::{ExecError, Executor, Precision};
use crate::kernels::Simd;
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_nn::reference::QuantizationPlan;
use fpsa_nn::{zoo, ComputationalGraph, GraphParameters, Operator, TensorShape};
use proptest::prelude::*;

fn bits(outputs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    outputs
        .iter()
        .map(|o| o.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Bind `graph` at `duplication` in every precision and, under every
/// family: each sample green against the oracle, every batch size
/// bit-identical to the per-sample runs, and all of it identical across
/// families.
fn check_every_family(
    graph: &ComputationalGraph,
    params: &GraphParameters,
    duplication: u64,
    n: usize,
) {
    let (core, mapping) = compile(graph, duplication);
    let inputs = samples(graph, n);
    for precision in three_precisions(graph, params, &inputs) {
        let mut across: Option<Vec<Vec<u32>>> = None;
        for simd in Simd::supported() {
            let exec = Executor::bind(graph, params, &core, &mapping, &precision)
                .unwrap_or_else(|e| panic!("{}: bind failed: {e}", graph.name))
                .with_family(simd);
            let direct: Vec<Vec<f32>> = inputs
                .iter()
                .map(|x| exec.run_checked(x).expect("checked run"))
                .collect();
            let direct = bits(&direct);
            let mut arena = exec.arena();
            let mut outputs = Vec::new();
            for batch in [1usize, 3, 8, 9] {
                exec.run_batch_into(&inputs[..batch], &mut arena, &mut outputs)
                    .expect("batched run");
                assert_eq!(
                    bits(&outputs),
                    direct[..batch],
                    "{} {simd:?} batch {batch} diverged from per-sample runs ({precision:?})",
                    graph.name
                );
            }
            match &across {
                None => across = Some(direct),
                Some(first) => assert_eq!(
                    first,
                    &direct,
                    "{} {simd:?} diverged from {:?} ({precision:?})",
                    graph.name,
                    Simd::supported()[0]
                ),
            }
        }
    }
}

/// Convolution, max-pool, residual and LeNet-scale streams under every
/// family; duplication 3 gives every Noisy conv tile three realizations, so
/// its position blocks stride by `dups`.
#[test]
fn zoo_models_run_checked_and_identically_under_every_family() {
    for graph in [zoo::tiny_cnn(), zoo::tiny_resnet(), zoo::lenet()] {
        let params = GraphParameters::seeded(&graph, 0xFA31);
        check_every_family(&graph, &params, 3, 9);
    }
}

/// `input(c, h, w) → conv(k, stride, pad) + ReLU → flatten → fc`.
fn conv_net(
    (c, h, w): (usize, usize, usize),
    out_channels: usize,
    (kernel, stride, padding): (usize, usize, usize),
) -> ComputationalGraph {
    let mut g = ComputationalGraph::new("conv-geometry");
    let input = g.add_input("input", TensorShape::chw(c, h, w));
    let conv = g.add_node(
        "conv",
        Operator::Conv2d {
            in_channels: c,
            out_channels,
            kernel,
            stride,
            padding,
            groups: 1,
        },
        vec![input],
    );
    let relu = g.add_node("relu", Operator::Relu, vec![conv]);
    let flat = g.add_node("flatten", Operator::Flatten, vec![relu]);
    let (oh, ow) = (
        (h + 2 * padding - kernel) / stride + 1,
        (w + 2 * padding - kernel) / stride + 1,
    );
    g.add_node(
        "fc",
        Operator::Linear {
            in_features: out_channels * oh * ow,
            out_features: 3,
        },
        vec![flat],
    );
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conv geometry the zoo does not reach: position counts that leave
    /// block tails, padding 0/1/2, stride 1/2, kernels 1/3/5, tile widths
    /// below one lane and not a lane multiple, and inputs deep enough
    /// (`c · k² > 256`) that the tile splits by rows and stores partials.
    /// About a third of the weights and activations are zeroed so whole
    /// block rows drop.
    #[test]
    fn conv_geometry_stays_bit_identical_under_every_family(
        c in 0usize..3,
        h in 5usize..10,
        w in 5usize..10,
        out_channels in 0usize..5,
        kernel in 0usize..3,
        stride in 1usize..3,
        padding in 0usize..3,
        duplication in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let (c, out_channels) = ([1, 3, 11][c], [1, 3, 5, 13, 20][out_channels]);
        let (kernel, duplication) = ([1, 3, 5][kernel], [1, 3][duplication]);
        let graph = conv_net((c, h, w), out_channels, (kernel, stride, padding));
        let mut state = seed;
        let params = GraphParameters::seeded(&graph, seed).map_weights(|v| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if state >> 61 < 3 { 0.0 } else { v }
        });
        check_every_family(&graph, &params, duplication, 9);
    }
}

/// The `±0.0` argument behind sample groups and position blocks holds only
/// for finite weights (`0 · inf` is `NaN`, not a term to drop), so a
/// non-finite realized weight is rejected at bind — on the parent it made
/// `run` and `run_batch_into` disagree silently.
#[test]
fn non_finite_weights_are_a_typed_bind_error() {
    let graph = zoo::tiny_mlp();
    let (core, mapping) = compile(&graph, 1);
    let mut k = 0usize;
    let poisoned = GraphParameters::seeded(&graph, 3).map_weights(|w| {
        k += 1;
        if k % 97 == 1 {
            f32::INFINITY
        } else {
            w
        }
    });
    for precision in [
        Precision::Float,
        Precision::QuantizedWeights,
        Precision::Noisy {
            scheme: WeightScheme::fpsa_add(),
            variation: CellVariation::measured(),
            seed: 7,
        },
    ] {
        let err = Executor::bind(&graph, &poisoned, &core, &mapping, &precision).unwrap_err();
        assert!(
            matches!(&err, ExecError::Unsupported { reason } if reason.contains("non-finite")),
            "{precision:?}: {err}"
        );
    }
    // Integer never multiplies by the float weights: an infinite range
    // quantizes every code of the layer to zero, the plan binds, and the
    // stream still agrees with the oracle (no panic, no divergence).
    let inputs = samples(&graph, 2);
    let plan = QuantizationPlan::calibrate(&graph, &poisoned, &inputs).expect("plan calibrates");
    let precision = Precision::Integer(plan);
    let exec = Executor::bind(&graph, &poisoned, &core, &mapping, &precision).expect("binds");
    exec.run_checked(&inputs[0]).expect("integer run");
}
