//! Numeric parameters for a computational graph.
//!
//! The graph IR ([`crate::graph`]) is purely structural — operators know
//! their shapes but carry no weight values. [`GraphParameters`] attaches an
//! actual weight tensor to every weighted node so the graph (and anything
//! compiled from it) can be *executed*, not just sized:
//!
//! * `Linear { in, out }` — a row-major `[out][in]` matrix
//!   (`w[o * in + i]`), with no bias term (the fabric stores weights only;
//!   biases would need a constant-input column).
//! * `Conv2d` — a `[out_channels][(in_channels/groups) * k * k]` matrix with
//!   the kernel flattened channel-major (`(c * k + ky) * k + kx`), matching
//!   the row layout the neural synthesizer tiles.
//! * `BatchNorm` — carried as *folded into the preceding layer* (inference
//!   mode); no tensor is generated and the reference executes it as
//!   identity, exactly like the synthesizer's lowering.
//!
//! Parameters are generated deterministically: node `n` of a graph seeded
//! with `base` draws from `StdRng(seeds::derive(base, STREAM_PARAMS, n))`,
//! so adding a node never reshuffles another node's weights.

use crate::graph::{ComputationalGraph, NodeId};
use crate::mlp::Mlp;
use crate::ops::Operator;
use crate::seeds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-node weight tensors for one computational graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphParameters {
    /// Flattened weight tensor per node id (`None` for weight-free nodes).
    tensors: Vec<Option<Vec<f32>>>,
}

/// The number of weights [`GraphParameters`] materializes for one operator
/// (`BatchNorm` folds to zero, unlike [`Operator::weight_count`] which
/// counts its parameters for capacity planning).
fn materialized_weight_count(op: &Operator) -> usize {
    match op {
        Operator::BatchNorm { .. } => 0,
        _ => op.weight_count(),
    }
}

impl GraphParameters {
    /// Deterministically initialize parameters for every weighted node of
    /// `graph`, He-scaled (`±sqrt(2 / fan_in)`) like [`crate::mlp::DenseLayer`].
    pub fn seeded(graph: &ComputationalGraph, base_seed: u64) -> Self {
        let tensors = graph
            .nodes()
            .iter()
            .map(|node| {
                let count = materialized_weight_count(&node.op);
                if count == 0 {
                    return None;
                }
                let fan_in = match node.op {
                    Operator::Linear { in_features, .. } => in_features,
                    Operator::Conv2d {
                        in_channels,
                        kernel,
                        groups,
                        ..
                    } => (in_channels / groups) * kernel * kernel,
                    _ => count,
                };
                let scale = (2.0 / fan_in.max(1) as f32).sqrt();
                let mut rng = StdRng::seed_from_u64(seeds::derive(
                    base_seed,
                    seeds::STREAM_PARAMS,
                    node.id as u64,
                ));
                Some((0..count).map(|_| rng.gen_range(-scale..scale)).collect())
            })
            .collect();
        GraphParameters { tensors }
    }

    /// Import the weights of a trained [`Mlp`] into parameters for `graph`,
    /// which must be the matching `Input → (Linear → Relu)* → Linear` chain
    /// (e.g. built by [`mlp_graph`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ShapeMismatch`] if the layer shapes do not
    /// line up.
    pub fn from_mlp(graph: &ComputationalGraph, mlp: &Mlp) -> Result<Self, crate::NnError> {
        let mismatch = |reason: String| crate::NnError::ShapeMismatch {
            node: graph.name.clone(),
            reason,
        };
        let mut layers = mlp.layers.iter();
        let mut tensors = Vec::with_capacity(graph.len());
        for node in graph.nodes() {
            match node.op {
                Operator::Linear {
                    in_features,
                    out_features,
                } => {
                    let layer = layers
                        .next()
                        .ok_or_else(|| mismatch("more Linear nodes than MLP layers".into()))?;
                    if layer.inputs() != in_features || layer.outputs() != out_features {
                        return Err(mismatch(format!(
                            "layer {}x{} does not match node {}x{}",
                            layer.inputs(),
                            layer.outputs(),
                            in_features,
                            out_features
                        )));
                    }
                    let mut w = Vec::with_capacity(in_features * out_features);
                    for row in &layer.weights {
                        w.extend_from_slice(row);
                    }
                    tensors.push(Some(w));
                }
                _ => tensors.push(None),
            }
        }
        if layers.next().is_some() {
            return Err(mismatch("more MLP layers than Linear nodes".into()));
        }
        Ok(GraphParameters { tensors })
    }

    /// Assemble parameters directly from per-node tensors (`None` for
    /// weight-free nodes), indexed by node id. This is the hook the
    /// multi-fabric sharder uses to slice one model's parameters into
    /// per-stage parameter sets without retraining or reseeding.
    pub fn from_parts(tensors: Vec<Option<Vec<f32>>>) -> Self {
        GraphParameters { tensors }
    }

    /// The weight tensor of a node, if it has one.
    pub fn weights(&self, node: NodeId) -> Option<&[f32]> {
        self.tensors.get(node).and_then(|t| t.as_deref())
    }

    /// Number of nodes covered (the graph's length at generation time).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether no node is covered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Apply a transformation to every weight (quantization, noise), keeping
    /// the structure.
    pub fn map_weights<F: FnMut(f32) -> f32>(&self, mut f: F) -> GraphParameters {
        GraphParameters {
            tensors: self
                .tensors
                .iter()
                .map(|t| t.as_ref().map(|w| w.iter().map(|&v| f(v)).collect()))
                .collect(),
        }
    }

    /// The largest absolute weight of one node (0 for weight-free nodes) —
    /// the per-layer symmetric quantization range.
    pub fn max_abs_weight(&self, node: NodeId) -> f32 {
        self.weights(node)
            .map(|w| w.iter().fold(0.0f32, |m, &v| m.max(v.abs())))
            .unwrap_or(0.0)
    }
}

/// Build the `Input → (Linear → Relu)* → Linear` computational graph matching
/// an MLP with the given layer sizes (no softmax; the executor and reference
/// compare logits).
///
/// # Panics
///
/// Panics if fewer than two sizes are given.
pub fn mlp_graph(name: impl Into<String>, sizes: &[usize]) -> ComputationalGraph {
    assert!(sizes.len() >= 2, "an MLP needs input and output sizes");
    let mut g = ComputationalGraph::new(name);
    let mut prev = g.add_input("input", crate::TensorShape::Features(sizes[0]));
    for (i, pair) in sizes.windows(2).enumerate() {
        let fc = g.add_node(
            format!("fc{}", i + 1),
            Operator::Linear {
                in_features: pair[0],
                out_features: pair[1],
            },
            vec![prev],
        );
        prev = if i + 2 == sizes.len() {
            fc
        } else {
            g.add_node(format!("fc{}_relu", i + 1), Operator::Relu, vec![fc])
        };
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    impl GraphParameters {
        /// Total number of materialized weights.
        pub(crate) fn weight_count(&self) -> usize {
            self.tensors
                .iter()
                .map(|t| t.as_ref().map_or(0, Vec::len))
                .sum()
        }
    }

    #[test]
    fn seeded_parameters_cover_every_weighted_node() {
        let g = zoo::lenet();
        let p = GraphParameters::seeded(&g, 7);
        assert_eq!(p.len(), g.len());
        for node in g.nodes() {
            let expected = materialized_weight_count(&node.op);
            assert_eq!(
                p.weights(node.id).map_or(0, <[f32]>::len),
                expected,
                "node {}",
                node.name
            );
        }
        assert_eq!(p.weight_count() as u64, g.statistics().total_weights);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let g = zoo::mlp_500_100();
        assert_eq!(
            GraphParameters::seeded(&g, 3),
            GraphParameters::seeded(&g, 3)
        );
        assert_ne!(
            GraphParameters::seeded(&g, 3),
            GraphParameters::seeded(&g, 4)
        );
    }

    #[test]
    fn map_weights_transforms_in_place() {
        let g = zoo::mlp_500_100();
        let p = GraphParameters::seeded(&g, 1);
        let doubled = p.map_weights(|w| 2.0 * w);
        let node = g.nodes().iter().find(|n| n.op.has_weights()).unwrap().id;
        assert_eq!(
            2.0 * p.weights(node).unwrap()[0],
            doubled.weights(node).unwrap()[0]
        );
        assert_eq!(doubled.max_abs_weight(node), 2.0 * p.max_abs_weight(node));
    }

    #[test]
    fn mlp_graph_round_trips_through_from_mlp() {
        let sizes = [6, 12, 4];
        let g = mlp_graph("tiny", &sizes);
        let mlp = Mlp::new(&sizes, 5);
        let p = GraphParameters::from_mlp(&g, &mlp).unwrap();
        // fc1 is node 1; its first row must match the MLP's first layer.
        assert_eq!(p.weights(1).unwrap()[..6], mlp.layers[0].weights[0][..]);
        assert_eq!(p.weight_count(), mlp.weight_count());
    }

    #[test]
    fn from_mlp_rejects_shape_mismatch() {
        let g = mlp_graph("tiny", &[6, 12, 4]);
        let wrong = Mlp::new(&[6, 13, 4], 5);
        assert!(GraphParameters::from_mlp(&g, &wrong).is_err());
    }
}
