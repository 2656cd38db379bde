//! Functional check of the spiking PE on a real (small) network.
//!
//! [`SpikingMlpRunner`] pushes a multi-layer perceptron through
//! cycle-accurate spiking PEs (Equations 1–6) and compares against the
//! floating-point reference. It draws no randomness: rate coding and the
//! spiking PE are fully deterministic.

use fpsa_device::spiking::{SpikeTrain, SpikingPe};
use fpsa_nn::dataset::Dataset;
use fpsa_nn::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// Runs an MLP through cycle-accurate spiking PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpikingMlpRunner {
    /// Sampling window Γ in cycles.
    pub window: usize,
}

impl SpikingMlpRunner {
    /// Create a runner with the given sampling window.
    pub fn new(window: usize) -> Self {
        SpikingMlpRunner { window }
    }

    /// Execute the network on one input vector using spiking PEs for every
    /// layer.
    ///
    /// Spike trains can only carry non-negative values, so layers whose input
    /// may be negative (in practice only the first layer — hidden activations
    /// are ReLU outputs) are fed a positive/negative split of the input, with
    /// the weight matrix duplicated and negated for the negative half; this
    /// is the standard signed-input encoding for rate-coded crossbars.
    /// Weights are scaled per layer to fit the PE's `[-1, 1]` range and the
    /// outputs are rescaled back.
    ///
    /// Returns the output activations (comparable to `mlp.forward` up to
    /// quantization noise).
    pub fn forward(&self, mlp: &Mlp, input: &[f32]) -> Vec<f32> {
        let mut activations: Vec<f64> = input.iter().map(|&x| f64::from(x)).collect();
        let layer_count = mlp.layers.len();
        for (li, layer) in mlp.layers.iter().enumerate() {
            let has_negative_inputs = activations.iter().any(|&a| a < 0.0);
            // Signed-input split: x -> [relu(x); relu(-x)], W -> [W, -W].
            let (split_inputs, weights_f64): (Vec<f64>, Vec<Vec<f64>>) = if has_negative_inputs {
                let mut split = Vec::with_capacity(activations.len() * 2);
                split.extend(activations.iter().map(|&a| a.max(0.0)));
                split.extend(activations.iter().map(|&a| (-a).max(0.0)));
                let w = layer
                    .weights
                    .iter()
                    .map(|row| {
                        let mut r: Vec<f64> = row.iter().map(|&w| f64::from(w)).collect();
                        r.extend(row.iter().map(|&w| -f64::from(w)));
                        r
                    })
                    .collect();
                (split, w)
            } else {
                (
                    activations.clone(),
                    layer
                        .weights
                        .iter()
                        .map(|row| row.iter().map(|&w| f64::from(w)).collect())
                        .collect(),
                )
            };

            // Scale activations into [0, 1] and weights so that no column's
            // accumulated charge can exceed one full sampling window (the
            // spike count would otherwise saturate at Γ).
            let a_scale = split_inputs.iter().fold(0.0f64, |m, &a| m.max(a)).max(1e-6);
            let norm_inputs: Vec<f64> = split_inputs.iter().map(|&a| a / a_scale).collect();
            let w_scale = weights_f64
                .iter()
                .map(|row| {
                    row.iter()
                        .zip(&norm_inputs)
                        .map(|(&w, &x)| w.abs() * x)
                        .sum::<f64>()
                })
                .fold(0.0f64, f64::max)
                .max(1e-6);
            let weights: Vec<Vec<f64>> = weights_f64
                .iter()
                .map(|row| row.iter().map(|&w| w / w_scale).collect())
                .collect();
            let pe = SpikingPe::new(weights, self.window);
            let inputs: Vec<SpikeTrain> = norm_inputs
                .iter()
                .map(|&a| SpikeTrain::encode(a.clamp(0.0, 1.0), self.window))
                .collect();
            let outputs = pe.run(&inputs);
            // Rescale: the spiking PE computed ReLU(W/w_scale * a/a_scale).
            activations = outputs
                .iter()
                .map(|train| {
                    let y = train.decode() * w_scale * a_scale;
                    if li + 1 == layer_count {
                        y
                    } else {
                        y.max(0.0)
                    }
                })
                .collect();
        }
        activations.iter().map(|&a| a as f32).collect()
    }

    /// Classification accuracy of the spiking execution on a dataset.
    pub fn accuracy(&self, mlp: &Mlp, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .samples
            .iter()
            .zip(&data.labels)
            .filter(|(x, &y)| {
                let out = self.forward(mlp, x);
                fpsa_nn::mlp::argmax(&out) == y
            })
            .count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_nn::mlp::TrainConfig;

    fn trained_network() -> (Mlp, Dataset) {
        let data = Dataset::gaussian_blobs(4, 60, 8, 0.25, 21);
        let (train, test) = data.split(0.8);
        let mut mlp = Mlp::new(&[8, 24, 4], 7);
        mlp.train(
            &train,
            TrainConfig {
                learning_rate: 0.05,
                epochs: 40,
                seed: 11,
            },
        );
        (mlp, test)
    }

    #[test]
    fn spiking_execution_matches_float_classification() {
        let (mlp, test) = trained_network();
        let float_acc = mlp.accuracy(&test);
        let spiking_acc = SpikingMlpRunner::new(64).accuracy(&mlp, &test);
        assert!(float_acc > 0.9);
        assert!(
            spiking_acc > float_acc - 0.15,
            "spiking accuracy {spiking_acc} too far below float {float_acc}"
        );
    }

    #[test]
    fn spiking_forward_usually_agrees_with_float_argmax() {
        let (mlp, test) = trained_network();
        let runner = SpikingMlpRunner::new(64);
        let n = test.len().min(40);
        let mut agree = 0usize;
        for x in test.samples.iter().take(n) {
            let float_out = mlp.forward(x);
            let spiking_out = runner.forward(&mlp, x);
            assert_eq!(float_out.len(), spiking_out.len());
            if fpsa_nn::mlp::argmax(&float_out) == fpsa_nn::mlp::argmax(&spiking_out) {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / n as f64 > 0.8,
            "only {agree}/{n} spiking predictions agree with the float network"
        );
    }
}
