//! The dispatch loops are family-dependent (block sizes and kernels follow
//! the bind-time `Simd`), so the whole bind → run path is tested once per
//! family the host reports, not only under `Simd::detect`.

use super::testutil::{compile, samples, three_precisions};
use super::{ExecError, Executor, Precision};
use crate::kernels::Simd;
use crate::profile::{NUM_OPCODES, OPCODE_NAMES};
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_nn::reference::QuantizationPlan;
use fpsa_nn::{zoo, ComputationalGraph, GraphParameters, Operator, TensorShape};
use rand::Rng;

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

/// Conv geometry the zoo does not reach: position counts that leave block
/// tails, padding 0/1/2, stride 1/2, kernels 1/3/5, tile widths below one
/// lane and not a lane multiple, and inputs deep enough (`c · k² > 256`)
/// that the tile splits by rows and stores partials. About a third of the
/// weights and activations are zeroed so whole block rows drop.
#[test]
fn conv_geometry_stays_bit_identical_under_every_family() {
    let name = "conv_geometry_stays_bit_identical_under_every_family";
    fpsa_testgen::cases(name, 24, |rng| {
        let c = rng.gen_range(0usize..3);
        let h = rng.gen_range(5usize..10);
        let w = rng.gen_range(5usize..10);
        let out_channels = rng.gen_range(0usize..5);
        let kernel = rng.gen_range(0usize..3);
        let stride = rng.gen_range(1usize..3);
        let padding = rng.gen_range(0usize..3);
        let duplication = rng.gen_range(0usize..2);
        let seed = rng.gen_range(0u64..1_000_000);
        let (c, out_channels) = ([1, 3, 11][c], [1, 3, 5, 13, 20][out_channels]);
        let (kernel, duplication) = ([1, 3, 5][kernel], [1, 3][duplication]);
        let graph = conv_net((c, h, w), out_channels, (kernel, stride, padding));
        let mut state = seed;
        let params = GraphParameters::seeded(&graph, seed).map_weights(|v| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 61 < 3 {
                0.0
            } else {
                v
            }
        });
        check_every_family(&graph, &params, duplication, 9);
    });
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

/// `LowerStats` of `zoo::differential_suite()` × duplication {1, 4} ×
/// {Float, Integer, Noisy}, recorded before the float and integer opcode
/// twins were merged into one instruction set: `[instructions, row_runs,
/// mac_rows, skipped_zero_rows, skipped_zero_tiles, aliased_views,
/// copied_segments, value_slab, partial_slab, weight_slab]`.
#[rustfmt::skip]
const RECORDED_STATS: [(&str, u64, &str, [usize; 10]); 36] = [
    ("Tiny-MLP", 1, "Float", [3, 3, 56, 0, 0, 3, 0, 60, 0, 800]),
    ("Tiny-MLP", 1, "Integer", [3, 3, 56, 0, 0, 3, 0, 60, 0, 800]),
    ("Tiny-MLP", 1, "Noisy", [3, 3, 56, 0, 0, 3, 0, 60, 0, 800]),
    ("Tiny-MLP", 4, "Float", [3, 3, 56, 0, 0, 3, 0, 60, 0, 800]),
    ("Tiny-MLP", 4, "Integer", [3, 3, 56, 0, 0, 3, 0, 60, 0, 800]),
    ("Tiny-MLP", 4, "Noisy", [3, 3, 56, 0, 0, 3, 0, 60, 0, 800]),
    ("Tiny-WideMLP", 1, "Float", [14, 8, 1500, 0, 0, 2, 0, 910, 920, 183000]),
    ("Tiny-WideMLP", 1, "Integer", [14, 8, 1500, 0, 0, 2, 0, 910, 920, 183000]),
    ("Tiny-WideMLP", 1, "Noisy", [14, 8, 1500, 0, 0, 2, 0, 910, 920, 183000]),
    ("Tiny-WideMLP", 4, "Float", [14, 8, 1500, 0, 0, 2, 0, 910, 920, 183000]),
    ("Tiny-WideMLP", 4, "Integer", [14, 8, 1500, 0, 0, 2, 0, 910, 920, 183000]),
    ("Tiny-WideMLP", 4, "Noisy", [14, 8, 1500, 0, 0, 2, 0, 910, 920, 183000]),
    ("Tiny-CNN", 1, "Float", [5, 34, 291, 0, 0, 4, 0, 2074, 288, 3000]),
    ("Tiny-CNN", 1, "Integer", [5, 34, 291, 0, 0, 4, 0, 2074, 288, 3000]),
    ("Tiny-CNN", 1, "Noisy", [5, 34, 291, 0, 0, 4, 0, 2074, 288, 3000]),
    ("Tiny-CNN", 4, "Float", [5, 34, 291, 0, 0, 4, 0, 2074, 288, 3000]),
    ("Tiny-CNN", 4, "Integer", [5, 34, 291, 0, 0, 4, 0, 2074, 288, 3000]),
    ("Tiny-CNN", 4, "Noisy", [5, 34, 291, 0, 0, 4, 0, 2074, 288, 3648]),
    ("Tiny-AvgPoolCNN", 1, "Float", [5, 37, 116, 0, 0, 5, 0, 1037, 0, 904]),
    ("Tiny-AvgPoolCNN", 1, "Integer", [5, 37, 116, 0, 0, 5, 0, 1037, 0, 904]),
    ("Tiny-AvgPoolCNN", 1, "Noisy", [5, 37, 116, 0, 0, 5, 0, 1037, 0, 904]),
    ("Tiny-AvgPoolCNN", 4, "Float", [5, 37, 116, 0, 0, 5, 0, 1037, 0, 904]),
    ("Tiny-AvgPoolCNN", 4, "Integer", [5, 37, 116, 0, 0, 5, 0, 1037, 0, 904]),
    ("Tiny-AvgPoolCNN", 4, "Noisy", [5, 37, 116, 0, 0, 5, 0, 1037, 0, 1768]),
    ("Tiny-ResNet", 1, "Float", [6, 37, 116, 0, 0, 6, 0, 1804, 0, 896]),
    ("Tiny-ResNet", 1, "Integer", [7, 37, 116, 0, 0, 5, 1, 2316, 0, 896]),
    ("Tiny-ResNet", 1, "Noisy", [6, 37, 116, 0, 0, 6, 0, 1804, 0, 896]),
    ("Tiny-ResNet", 4, "Float", [6, 37, 116, 0, 0, 6, 0, 1804, 0, 896]),
    ("Tiny-ResNet", 4, "Integer", [7, 37, 116, 0, 0, 5, 1, 2316, 0, 896]),
    ("Tiny-ResNet", 4, "Noisy", [6, 37, 116, 0, 0, 6, 0, 1804, 0, 3488]),
    ("Tiny-Concat", 1, "Float", [7, 9, 110, 0, 0, 3, 2, 888, 90, 624]),
    ("Tiny-Concat", 1, "Integer", [7, 9, 110, 0, 0, 3, 2, 888, 90, 624]),
    ("Tiny-Concat", 1, "Noisy", [7, 9, 110, 0, 0, 3, 2, 888, 90, 624]),
    ("Tiny-Concat", 4, "Float", [7, 9, 110, 0, 0, 3, 2, 888, 90, 624]),
    ("Tiny-Concat", 4, "Integer", [7, 9, 110, 0, 0, 3, 2, 888, 90, 624]),
    ("Tiny-Concat", 4, "Noisy", [7, 9, 110, 0, 0, 3, 2, 888, 90, 876]),
];

/// The instruction bodies are written once over both numeric domains, so
/// the bit-identity suites prove them only for the opcodes they reach in
/// each domain. This pins that `zoo::differential_suite()` reaches every
/// opcode under Integer and every one but `CopySide` under Float (no float
/// side view of the suite has to be copied rather than aliased), and that
/// lowering is domain-neutral: the stream's shape per model and precision is
/// what it was before the merge.
#[test]
fn the_differential_suite_lowers_every_opcode_in_both_domains() {
    let mut recorded = RECORDED_STATS.iter();
    let (mut float_ops, mut integer_ops) = ([false; NUM_OPCODES], [false; NUM_OPCODES]);
    for graph in zoo::differential_suite() {
        let params = GraphParameters::seeded(&graph, 21);
        let inputs = samples(&graph, 2);
        for duplication in [1, 4] {
            let (core, mapping) = compile(&graph, duplication);
            for (name, precision) in ["Float", "Integer", "Noisy"]
                .into_iter()
                .zip(three_precisions(&graph, &params, &inputs))
            {
                let exec = Executor::bind(&graph, &params, &core, &mapping, &precision)
                    .unwrap_or_else(|e| panic!("{} x{duplication}: {e}", graph.name));
                let seen = if exec.is_integer() {
                    &mut integer_ops
                } else {
                    &mut float_ops
                };
                for inst in &exec.lowered.insts {
                    seen[inst.op() as usize] = true;
                }
                let s = exec.lowering_stats();
                let got = [
                    s.instructions,
                    s.row_runs,
                    s.mac_rows,
                    s.skipped_zero_rows,
                    s.skipped_zero_tiles,
                    s.aliased_views,
                    s.copied_segments,
                    s.value_slab,
                    s.partial_slab,
                    s.weight_slab,
                ];
                let want = recorded.next().expect("a recorded row per bind");
                assert_eq!(
                    (graph.name.as_str(), duplication, name, got),
                    *want,
                    "lowering stats moved"
                );
            }
        }
    }
    assert!(recorded.next().is_none(), "the suite lost a model");
    let missing = |seen: [bool; NUM_OPCODES]| -> Vec<&str> {
        (0..NUM_OPCODES)
            .filter(|&op| !seen[op])
            .map(|op| OPCODE_NAMES[op])
            .collect()
    };
    assert_eq!(missing(integer_ops), Vec::<&str>::new());
    assert_eq!(missing(float_ops), vec!["CopySide"]);
}
