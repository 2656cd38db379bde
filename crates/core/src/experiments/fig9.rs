//! Figure 9: normalized accuracy of the splice vs add weight representations
//! as a function of the number of 4-bit cells per weight, measured on the
//! configured fabric.
//!
//! The paper measures VGG16 on ImageNet; training an ImageNet network is far
//! outside the scope of a simulator repository, so (as documented in
//! DESIGN.md) the experiment trains a small MLP on a synthetic task and
//! pushes it through `Synthesize → Map → PlaceRoute`. Each Monte-Carlo trial
//! binds the compiled model with [`Precision::Noisy`]: every PE duplicate
//! programs its own noisy crossbar, seeded by the repository convention, and
//! the fabric runs the test set. Every point reports the analytic normalized
//! deviation of §7.2, the accuracy, and the logit distortion against the
//! noise-free float execution — the observable that shows the √cells effect,
//! since accuracy on a small task saturates. The shape reproduces the paper:
//! splice stays flat no matter how many cells are spent, while the add method
//! climbs toward full precision with √cells.
//!
//! The trained network is bias-free because the crossbar stores weight
//! matrices only; its weights are imported into the computational graph via
//! [`GraphParameters::from_mlp`].

use crate::compiler::Compiler;
use crate::report::format_table;
use crate::sweep::parallel_map;
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_nn::dataset::Dataset;
use fpsa_nn::mlp::{argmax, Mlp, TrainConfig};
use fpsa_nn::{mlp_graph, seeds, ComputationalGraph, GraphParameters};
use fpsa_sim::exec::Precision;
use serde::{Deserialize, Serialize};

/// One point of Figure 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure9Point {
    /// Representation method ("splice" or "add").
    pub method: String,
    /// Number of 4-bit cells per weight.
    pub cells: usize,
    /// Analytic normalized deviation (§7.2), for cross-reference.
    pub normalized_deviation: f64,
    /// Mean compiled-execution accuracy over the Monte-Carlo trials.
    pub mean_accuracy: f64,
    /// Accuracy normalized by the noise-free compiled accuracy.
    pub normalized_accuracy: f64,
    /// Mean squared difference between the noisy and the noise-free logits,
    /// over test samples × trials.
    pub logit_distortion: f64,
}

/// The Figure 9 data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure9 {
    /// Sweep points for both methods.
    pub points: Vec<Figure9Point>,
    /// Noise-free accuracy of the compiled model (float execution).
    pub compiled_accuracy: f64,
    /// Float-reference accuracy of the source network, for comparison.
    pub reference_accuracy: f64,
}

/// Train the bias-free reference network and build its graph + parameters.
pub fn reference_network() -> (ComputationalGraph, GraphParameters, Dataset) {
    let data = Dataset::gaussian_blobs(6, 80, 10, 0.85, 77);
    let (train, test) = data.split(0.8);
    let sizes = [10, 24, 6];
    let mut mlp = Mlp::new(&sizes, 17);
    mlp.train(
        &train,
        TrainConfig {
            learning_rate: 0.05,
            epochs: 60,
            seed: 23,
        },
    );
    let graph = mlp_graph("Compiled-MLP-10-24-6", &sizes);
    let params = GraphParameters::from_mlp(&graph, &mlp).expect("the MLP matches its graph");
    (graph, params, test)
}

/// Fraction of `logits` whose argmax is the label.
fn accuracy(logits: &[Vec<f32>], labels: &[usize]) -> f64 {
    // Unpaired labels would be zipped short and still divide by the label
    // count.
    assert_eq!(logits.len(), labels.len(), "one label per output");
    let correct = logits
        .iter()
        .zip(labels)
        .filter(|(l, &y)| argmax(l) == y)
        .count();
    correct as f64 / labels.len().max(1) as f64
}

/// Regenerate Figure 9 with the measured cell variation.
pub fn run() -> Figure9 {
    run_with(CellVariation::measured(), &[1, 2, 4, 8, 16], 5)
}

/// Regenerate for an arbitrary variation, cell counts and Monte-Carlo trial
/// count. Each (method, cells) point binds `trials` independently-seeded
/// executors (`seeds::derive(base, STREAM_TRIAL, trial)` base seeds, per-PE
/// streams below that), runs the test set once per trial, and fans out
/// through the unified sweep engine.
pub fn run_with(variation: CellVariation, cell_counts: &[usize], trials: usize) -> Figure9 {
    let (graph, params, test) = reference_network();
    let compiler = Compiler::fpsa();
    let compiled = compiler.compile(&graph).expect("MLP graphs compile");

    let clean_logits = compiled
        .executor(&graph, &params, &Precision::Float)
        .expect("compiled MLP binds")
        .run_batch(&test.samples)
        .expect("float execution succeeds");
    let compiled_accuracy = accuracy(&clean_logits, &test.labels);
    let reference = fpsa_nn::Reference::new(&graph, &params).expect("reference builds");
    let reference_logits: Vec<Vec<f32>> = test
        .samples
        .iter()
        .map(|x| reference.logits(x).expect("reference runs"))
        .collect();
    let reference_accuracy = accuracy(&reference_logits, &test.labels);

    let grid: Vec<(&'static str, WeightScheme, usize)> = cell_counts
        .iter()
        .flat_map(|&cells| {
            [
                (
                    "splice",
                    WeightScheme::Splice {
                        cells,
                        bits_per_cell: 4,
                    },
                    cells,
                ),
                (
                    "add",
                    WeightScheme::Add {
                        cells,
                        bits_per_cell: 4,
                    },
                    cells,
                ),
            ]
        })
        .collect();
    let points = parallel_map(&grid, |&(method, scheme, cells)| {
        let base = 0xF19_u64 + cells as u64;
        let trials = trials.max(1);
        let mut total_accuracy = 0.0;
        let mut squared_error = 0.0;
        let mut terms = 0usize;
        for trial in 0..trials {
            let logits = compiled
                .executor(
                    &graph,
                    &params,
                    &Precision::Noisy {
                        scheme,
                        variation,
                        seed: seeds::derive(base, seeds::STREAM_TRIAL, trial as u64),
                    },
                )
                .expect("noisy binding succeeds")
                .run_batch(&test.samples)
                .expect("noisy execution succeeds");
            total_accuracy += accuracy(&logits, &test.labels);
            for (noisy, clean) in logits.iter().zip(&clean_logits) {
                for (&n, &c) in noisy.iter().zip(clean) {
                    let d = f64::from(n) - f64::from(c);
                    squared_error += d * d;
                    terms += 1;
                }
            }
        }
        let mean_accuracy = total_accuracy / trials as f64;
        Figure9Point {
            method: method.to_string(),
            cells,
            normalized_deviation: scheme.normalized_deviation(variation),
            mean_accuracy,
            normalized_accuracy: mean_accuracy / compiled_accuracy.max(1e-9),
            logit_distortion: squared_error / terms.max(1) as f64,
        }
    });

    Figure9 {
        points,
        compiled_accuracy,
        reference_accuracy,
    }
}

/// Render the sweep as text.
pub fn to_table(fig: &Figure9) -> String {
    format_table(
        &[
            "method",
            "cells",
            "norm. deviation",
            "mean acc",
            "norm. acc",
            "logit distortion",
        ],
        &fig.points
            .iter()
            .map(|p| {
                vec![
                    p.method.clone(),
                    p.cells.to_string(),
                    format!("{:.4}", p.normalized_deviation),
                    format!("{:.3}", p.mean_accuracy),
                    format!("{:.3}", p.normalized_accuracy),
                    format!("{:.5}", p.logit_distortion),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point<'a>(fig: &'a Figure9, method: &str, cells: usize) -> &'a Figure9Point {
        fig.points
            .iter()
            .find(|p| p.method == method && p.cells == cells)
            .unwrap()
    }

    #[test]
    fn compiled_execution_preserves_trained_accuracy() {
        let fig = run_with(CellVariation::ideal(), &[8], 1);
        // Compiling and executing must not lose the trained accuracy, and
        // ideal devices must preserve it through the noisy path too.
        assert!(fig.reference_accuracy > 0.85, "{}", fig.reference_accuracy);
        assert!(
            (fig.compiled_accuracy - fig.reference_accuracy).abs() < 0.02,
            "compiled {} vs reference {}",
            fig.compiled_accuracy,
            fig.reference_accuracy
        );
        for p in &fig.points {
            assert!(p.normalized_accuracy > 0.95, "{p:?}");
        }
        assert!(!to_table(&fig).is_empty());
    }

    #[test]
    fn more_cells_reduce_distortion_for_the_add_method() {
        let fig = run_with(CellVariation::measured(), &[1, 16], 3);
        let (add_few, add_many) = (point(&fig, "add", 1), point(&fig, "add", 16));
        assert!(
            add_many.logit_distortion < add_few.logit_distortion,
            "16 cells ({}) should distort less than 1 cell ({})",
            add_many.logit_distortion,
            add_few.logit_distortion
        );
        // The analytic §7.2 deviation behind it: add falls with √cells while
        // splice stays flat.
        assert!(add_many.normalized_deviation < add_few.normalized_deviation / 3.0);
        let (splice_few, splice_many) = (point(&fig, "splice", 1), point(&fig, "splice", 16));
        let splice_change = (splice_many.normalized_deviation - splice_few.normalized_deviation)
            .abs()
            / splice_few.normalized_deviation;
        assert!(splice_change < 0.1, "splice deviation should barely move");
    }

    #[test]
    fn add_method_beats_splice_on_the_compiled_model_under_stress() {
        let stress = CellVariation { sigma_levels: 3.0 };
        let fig = run_with(stress, &[2, 8, 16], 2);
        let prime = point(&fig, "splice", 2);
        let fpsa = point(&fig, "add", 8);
        assert!(
            fpsa.normalized_accuracy >= prime.normalized_accuracy - 0.02,
            "add {} vs splice {}",
            fpsa.normalized_accuracy,
            prime.normalized_accuracy
        );
        assert!(fpsa.normalized_accuracy > 0.85, "{fpsa:?}");
        // 16 added cells are no worse than PRIME's splice and stay close to
        // full precision.
        let add16 = point(&fig, "add", 16);
        assert!(add16.normalized_accuracy >= prime.normalized_accuracy);
        assert!(add16.normalized_accuracy > 0.8, "{add16:?}");
    }

    /// Regression pin for Figure 9: the derived-seed convention makes these
    /// values a pure function of (variation, cells, trials), so any refactor
    /// that silently shifts the RNG streams, the bind or the kernels — and
    /// with them the published curve — fails here. The epsilon only absorbs
    /// libm ulp differences across platforms (the Box-Muller sampler calls
    /// `ln`/`cos`). The §7.2 ordering at the paper's configuration is checked
    /// on the same run, so it survives a re-pin.
    #[test]
    fn figure9_values_are_pinned_for_a_fixed_seed() {
        let fig = run_with(CellVariation::measured(), &[2, 8], 3);
        // PRIME uses 2 spliced cells; FPSA uses 8 added cells.
        let (prime, fpsa) = (point(&fig, "splice", 2), point(&fig, "add", 8));
        assert!(
            fpsa.logit_distortion < prime.logit_distortion,
            "add {} vs splice {}",
            fpsa.logit_distortion,
            prime.logit_distortion
        );
        assert!(fpsa.normalized_accuracy >= prime.normalized_accuracy - 0.02);
        assert!(fpsa.normalized_accuracy > 0.9, "{fpsa:?}");
        // Accuracies are correct answers out of 96 test samples × 3 trials.
        let pins = [
            ("splice", 2, 274.0 / 288.0, 0.888_845_786_831_869_8),
            ("add", 8, 276.0 / 288.0, 0.137_421_400_257_419_72),
        ];
        for (method, cells, accuracy, distortion) in pins {
            let p = point(&fig, method, cells);
            assert!(
                (p.mean_accuracy - accuracy).abs() < 1e-9,
                "{method}-{cells} accuracy drifted: {:.17}",
                p.mean_accuracy
            );
            assert!(
                (p.logit_distortion - distortion).abs() < 1e-9,
                "{method}-{cells} distortion drifted: {:.17}",
                p.logit_distortion
            );
        }
    }
}
