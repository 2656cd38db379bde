//! Workload statistics derived from a computational graph.
//!
//! The FPSA performance model is driven almost entirely by three per-layer
//! quantities: the number of weights (which determines the minimum number of
//! PEs), the number of operations (which determines compute time), and the
//! weight-reuse degree (which determines how unbalanced the pipeline is and
//! how much duplication helps — the *temporal utilization* analysis of the
//! paper's Section 3).

use serde::{Deserialize, Serialize};

/// Statistics of one weight-bearing or compute-bearing layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Node id in the source graph.
    pub node_id: usize,
    /// Layer name.
    pub name: String,
    /// Operator mnemonic ("conv", "fc", ...).
    pub mnemonic: String,
    /// Number of trainable weights.
    pub weights: u64,
    /// Multiply-accumulate count per sample.
    pub macs: u64,
    /// Operation count per sample (2 x MACs).
    pub ops: u64,
    /// How many output positions reuse the same weights.
    pub reuse_degree: u64,
    /// Number of output elements produced per sample (used to size buffers
    /// and communication traffic).
    pub output_elements: u64,
}

/// Aggregate statistics of a whole model.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Model name.
    pub model: String,
    /// Per-layer statistics in graph order.
    pub layers: Vec<LayerStats>,
    /// Total trainable weights.
    pub total_weights: u64,
    /// Total operations per sample.
    pub total_ops: u64,
    /// Total MACs per sample.
    pub total_macs: u64,
    /// Total activation elements communicated between layers per sample.
    pub total_activations: u64,
}

impl WorkloadStats {
    /// Build the aggregate from per-layer entries.
    pub fn from_layers(model: String, layers: Vec<LayerStats>) -> Self {
        let total_weights = layers.iter().map(|l| l.weights).sum();
        let total_ops = layers.iter().map(|l| l.ops).sum();
        let total_macs = layers.iter().map(|l| l.macs).sum();
        let total_activations = layers.iter().map(|l| l.output_elements).sum();
        WorkloadStats {
            model,
            layers,
            total_weights,
            total_ops,
            total_macs,
            total_activations,
        }
    }

    /// Fraction of total weights held by layers whose mnemonic matches.
    pub fn weight_share_of(&self, mnemonic: &str) -> f64 {
        if self.total_weights == 0 {
            return 0.0;
        }
        let share: u64 = self
            .layers
            .iter()
            .filter(|l| l.mnemonic == mnemonic)
            .map(|l| l.weights)
            .sum();
        share as f64 / self.total_weights as f64
    }

    /// Fraction of total operations consumed by layers whose mnemonic matches.
    pub fn ops_share_of(&self, mnemonic: &str) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        let share: u64 = self
            .layers
            .iter()
            .filter(|l| l.mnemonic == mnemonic)
            .map(|l| l.ops)
            .sum();
        share as f64 / self.total_ops as f64
    }

    /// Fraction of weights and of operations contributed by the first `k`
    /// weight-bearing layers in graph order — the paper's observation that
    /// VGG16's first two convolutional layers hold 0.028% of the weights but
    /// 12.5% of the computation.
    pub fn front_layer_imbalance(&self, k: usize) -> (f64, f64) {
        if self.total_weights == 0 || self.total_ops == 0 {
            return (0.0, 0.0);
        }
        let w: u64 = self.layers.iter().take(k).map(|l| l.weights).sum();
        let o: u64 = self.layers.iter().take(k).map(|l| l.ops).sum();
        (
            w as f64 / self.total_weights as f64,
            o as f64 / self.total_ops as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WorkloadStats {
        /// The maximum reuse degree across all layers (the paper's duplication
        /// degree is defined relative to this group).
        pub(crate) fn max_reuse_degree(&self) -> u64 {
            self.layers
                .iter()
                .map(|l| l.reuse_degree)
                .max()
                .unwrap_or(1)
        }
    }

    fn layer(name: &str, mnemonic: &str, weights: u64, macs: u64, reuse: u64) -> LayerStats {
        LayerStats {
            node_id: 0,
            name: name.into(),
            mnemonic: mnemonic.into(),
            weights,
            macs,
            ops: 2 * macs,
            reuse_degree: reuse,
            output_elements: 10,
        }
    }

    #[test]
    fn aggregates_sum_layers() {
        let stats = WorkloadStats::from_layers(
            "m".into(),
            vec![
                layer("a", "conv", 100, 1000, 10),
                layer("b", "fc", 900, 900, 1),
            ],
        );
        assert_eq!(stats.total_weights, 1000);
        assert_eq!(stats.total_macs, 1900);
        assert_eq!(stats.total_ops, 3800);
        assert_eq!(stats.total_activations, 20);
        assert_eq!(stats.max_reuse_degree(), 10);
    }

    #[test]
    fn share_helpers_compute_fractions() {
        let stats = WorkloadStats::from_layers(
            "m".into(),
            vec![
                layer("a", "conv", 100, 1000, 10),
                layer("b", "fc", 900, 900, 1),
            ],
        );
        assert!((stats.weight_share_of("fc") - 0.9).abs() < 1e-12);
        assert!((stats.ops_share_of("conv") - 2000.0 / 3800.0).abs() < 1e-12);
        let (w, o) = stats.front_layer_imbalance(1);
        assert!((w - 0.1).abs() < 1e-12);
        assert!((o - 2000.0 / 3800.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let stats = WorkloadStats::from_layers("m".into(), vec![]);
        assert_eq!(stats.weight_share_of("fc"), 0.0);
        assert_eq!(stats.ops_share_of("conv"), 0.0);
        assert_eq!(stats.max_reuse_degree(), 1);
        assert_eq!(stats.front_layer_imbalance(3), (0.0, 0.0));
    }
}
