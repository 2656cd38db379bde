//! Figure 9 on *compiled* models: accuracy vs device variation, measured by
//! executing the full compile pipeline's output on the simulated fabric.
//!
//! The original Figure 9 driver ([`crate::experiments::fig9`]) perturbs a
//! bare MLP's weight matrices directly. This driver closes the remaining
//! gap to the paper's claim — that the *system stack* produces correct,
//! runnable configurations — by pushing a trained network through
//! `Synthesize → Map → PlaceRoute` and injecting the per-PE weight
//! programming noise into the **compiled** model via the execution engine
//! (`fpsa_sim::exec`): every PE duplicate programs its own noisy crossbar,
//! seeded by the repository convention, and classification accuracy is
//! measured by actually running the fabric on the test set.
//!
//! The trained network is bias-free ([`Mlp::train_without_bias`]) because
//! the crossbar stores weight matrices only; its weights are imported into
//! the computational graph via [`GraphParameters::from_mlp`].

use crate::compiler::Compiler;
use crate::report::format_table;
use crate::sweep::parallel_map;
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_nn::dataset::Dataset;
use fpsa_nn::mlp::{Mlp, TrainConfig};
use fpsa_nn::{mlp_graph, seeds, ComputationalGraph, GraphParameters};
use fpsa_sim::exec::Precision;
use serde::{Deserialize, Serialize};

/// One point of the compiled-model variation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledVariationPoint {
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
}

/// The compiled-model Figure 9 data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledFigure9 {
    /// Sweep points for both methods.
    pub points: Vec<CompiledVariationPoint>,
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
    mlp.train_without_bias(
        &train,
        TrainConfig {
            learning_rate: 0.05,
            epochs: 60,
            seed: 23,
        },
    );
    let graph = mlp_graph("Compiled-MLP-10-24-6", &sizes);
    let params = GraphParameters::from_mlp(&graph, &mlp)
        .expect("bias-free training keeps the MLP importable");
    (graph, params, test)
}

/// Regenerate for an arbitrary variation, cell counts and Monte-Carlo trial
/// count. Each (method, cells) point binds `trials` independently-seeded
/// executors (`seeds::derive(base, STREAM_TRIAL, trial)` base seeds, per-PE
/// streams below that) and fans out through the unified sweep engine.
pub fn run_with(variation: CellVariation, cell_counts: &[usize], trials: usize) -> CompiledFigure9 {
    let (graph, params, test) = reference_network();
    let compiler = Compiler::fpsa();
    let compiled = compiler.compile(&graph).expect("MLP graphs compile");

    let float_exec = compiled
        .executor(&graph, &params, &Precision::Float)
        .expect("compiled MLP binds");
    let compiled_accuracy = float_exec
        .accuracy(&test.samples, &test.labels)
        .expect("float execution succeeds");
    let reference = fpsa_nn::Reference::new(&graph, &params).expect("reference builds");
    let reference_accuracy = {
        let correct = test
            .samples
            .iter()
            .zip(&test.labels)
            .filter(|(x, &y)| fpsa_nn::mlp::argmax(&reference.logits(x).unwrap()) == y)
            .count();
        correct as f64 / test.len().max(1) as f64
    };

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
        let mut total = 0.0;
        for trial in 0..trials.max(1) {
            let exec = compiled
                .executor(
                    &graph,
                    &params,
                    &Precision::Noisy {
                        scheme,
                        variation,
                        seed: seeds::derive(base, seeds::STREAM_TRIAL, trial as u64),
                    },
                )
                .expect("noisy binding succeeds");
            total += exec
                .accuracy(&test.samples, &test.labels)
                .expect("noisy execution succeeds");
        }
        let mean_accuracy = total / trials.max(1) as f64;
        CompiledVariationPoint {
            method: method.to_string(),
            cells,
            normalized_deviation: scheme.normalized_deviation(variation),
            mean_accuracy,
            normalized_accuracy: mean_accuracy / compiled_accuracy.max(1e-9),
        }
    });

    CompiledFigure9 {
        points,
        compiled_accuracy,
        reference_accuracy,
    }
}

/// Render the sweep as text.
pub fn to_table(fig: &CompiledFigure9) -> String {
    format_table(
        &[
            "method",
            "cells",
            "norm. deviation",
            "mean acc",
            "norm. acc",
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
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn add_method_beats_splice_on_the_compiled_model_under_stress() {
        let stress = CellVariation { sigma_levels: 3.0 };
        let fig = run_with(stress, &[2, 8], 2);
        let find = |method: &str, cells: usize| {
            fig.points
                .iter()
                .find(|p| p.method == method && p.cells == cells)
                .unwrap()
        };
        let prime = find("splice", 2);
        let fpsa = find("add", 8);
        assert!(
            fpsa.normalized_accuracy >= prime.normalized_accuracy - 0.02,
            "add {} vs splice {}",
            fpsa.normalized_accuracy,
            prime.normalized_accuracy
        );
        assert!(
            fpsa.normalized_accuracy > 0.85,
            "{}",
            fpsa.normalized_accuracy
        );
    }
}
