//! A tiny trainable multi-layer perceptron.
//!
//! This is the "real network" behind the Figure 9 accuracy experiment: it is
//! trained with plain SGD on a synthetic dataset, imported into a
//! computational graph ([`crate::params::GraphParameters::from_mlp`]) and
//! compiled onto the fabric. Like the ReRAM crossbar and the graph IR, a
//! layer has no bias term: it holds a weight matrix only.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One dense layer: `y = relu(W x)` (the last layer omits the ReLU).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Weight matrix, `weights[o][i]`.
    pub weights: Vec<Vec<f32>>,
}

impl DenseLayer {
    /// Create a layer with small random weights.
    pub fn random(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / inputs as f32).sqrt();
        DenseLayer {
            weights: (0..outputs)
                .map(|_| (0..inputs).map(|_| rng.gen_range(-scale..scale)).collect())
                .collect(),
        }
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.weights.len()
    }

    /// Forward pass without activation.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.weights
            .iter()
            .map(|row| row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f32>())
            .collect()
    }
}

/// A multi-layer perceptron with ReLU activations between layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    /// The dense layers, input to output.
    pub layers: Vec<DenseLayer>,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.05,
            epochs: 60,
            seed: 0xF95A,
        }
    }
}

impl Mlp {
    /// Create an MLP with the given layer sizes (e.g. `[2, 32, 3]`).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| DenseLayer::random(w[0], w[1], &mut rng))
            .collect();
        Mlp { layers }
    }

    /// Logits for one sample.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut current = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            current = layer.forward(&current);
            if i + 1 != self.layers.len() {
                for v in &mut current {
                    *v = v.max(0.0);
                }
            }
        }
        current
    }

    /// Predicted class for one sample.
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.forward(x))
    }

    /// Classification accuracy on a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .samples
            .iter()
            .zip(&data.labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / data.len() as f64
    }

    /// Train with SGD + softmax cross-entropy.
    pub fn train(&mut self, data: &Dataset, config: TrainConfig) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = data.len();
        for _ in 0..config.epochs {
            for _ in 0..n {
                let idx = rng.gen_range(0..n);
                self.sgd_step(&data.samples[idx], data.labels[idx], config.learning_rate);
            }
        }
    }

    fn sgd_step(&mut self, x: &[f32], label: usize, lr: f32) {
        // Forward, keeping pre-activation inputs per layer.
        let mut inputs: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        let mut current = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            inputs.push(current.clone());
            let mut z = layer.forward(&current);
            if i + 1 != self.layers.len() {
                for v in &mut z {
                    *v = v.max(0.0);
                }
            }
            current = z;
        }
        // Softmax cross-entropy gradient at the output.
        let probs = softmax(&current);
        let mut delta: Vec<f32> = probs;
        delta[label] -= 1.0;
        // Backward.
        for i in (0..self.layers.len()).rev() {
            let input = &inputs[i];
            let mut next_delta = vec![0.0f32; input.len()];
            {
                let layer = &self.layers[i];
                for (o, row) in layer.weights.iter().enumerate() {
                    for (j, w) in row.iter().enumerate() {
                        next_delta[j] += w * delta[o];
                    }
                }
            }
            // ReLU derivative with respect to this layer's input applies to
            // the *previous* layer's output, i.e. when propagating further.
            let layer = &mut self.layers[i];
            for (o, row) in layer.weights.iter_mut().enumerate() {
                for (j, w) in row.iter_mut().enumerate() {
                    *w -= lr * delta[o] * input[j];
                }
            }
            if i > 0 {
                for (j, d) in next_delta.iter_mut().enumerate() {
                    if inputs[i][j] <= 0.0 {
                        *d = 0.0;
                    }
                }
                delta = next_delta;
            }
        }
    }
}

/// Index of the maximum element (0 for empty input).
pub fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter()
        .map(|e| e / sum.max(f32::MIN_POSITIVE))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Mlp {
        /// Total number of weights.
        pub(crate) fn weight_count(&self) -> usize {
            self.layers.iter().map(|l| l.outputs() * l.inputs()).sum()
        }
    }

    #[test]
    fn argmax_and_softmax_behave() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[]), 0);
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn forward_dimensions_follow_layer_sizes() {
        let mlp = Mlp::new(&[4, 8, 3], 1);
        let out = mlp.forward(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(out.len(), 3);
        assert_eq!(mlp.weight_count(), 4 * 8 + 8 * 3);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_layer_spec() {
        let _ = Mlp::new(&[4], 1);
    }

    #[test]
    fn training_learns_gaussian_blobs() {
        let data = Dataset::gaussian_blobs(3, 80, 6, 0.25, 11);
        let (train, test) = data.split(0.8);
        let mut mlp = Mlp::new(&[6, 24, 3], 5);
        let before = mlp.accuracy(&test);
        mlp.train(
            &train,
            TrainConfig {
                learning_rate: 0.05,
                epochs: 40,
                seed: 3,
            },
        );
        let after = mlp.accuracy(&test);
        assert!(
            after > before,
            "accuracy should improve ({before} -> {after})"
        );
        assert!(
            after > 0.9,
            "blobs should be almost perfectly separable, got {after}"
        );
    }

    #[test]
    fn accuracy_of_empty_dataset_is_zero() {
        let mlp = Mlp::new(&[2, 2], 0);
        let empty = Dataset {
            samples: vec![],
            labels: vec![],
            classes: 2,
        };
        assert_eq!(mlp.accuracy(&empty), 0.0);
    }
}
