//! The neural synthesizer driver.
//!
//! Walks a computational graph in topological order, lowers every node with
//! the rules in [`crate::lower`], fuses ReLU into producing tiles, assigns
//! pipeline depths, and wires group-level data dependencies.

use crate::coreop::{CoreOpGraph, GroupId};
use crate::lower::{lower_node, TileConstraints};
use fpsa_nn::{ComputationalGraph, NnError, Operator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the synthesis pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthesisConfig {
    /// Crossbar rows available per PE.
    pub crossbar_rows: usize,
    /// Logical crossbar columns available per PE.
    pub crossbar_cols: usize,
}

impl SynthesisConfig {
    /// The paper's configuration: a 256×256 logical crossbar.
    pub fn fpsa_default() -> Self {
        SynthesisConfig {
            crossbar_rows: 256,
            crossbar_cols: 256,
        }
    }
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self::fpsa_default()
    }
}

/// The neural synthesizer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NeuralSynthesizer {
    config: SynthesisConfig,
}

impl NeuralSynthesizer {
    /// Create a synthesizer with the given configuration.
    pub fn new(config: SynthesisConfig) -> Self {
        NeuralSynthesizer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> SynthesisConfig {
        self.config
    }

    /// Synthesize a computational graph into a core-op graph.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference and graph-structure errors from the source
    /// graph.
    pub fn synthesize(&self, graph: &ComputationalGraph) -> Result<CoreOpGraph, NnError> {
        let shapes = graph.infer_shapes()?;
        let order = graph.topological_order()?;
        let constraints = TileConstraints {
            rows: self.config.crossbar_rows,
            cols: self.config.crossbar_cols,
        };

        let mut out = CoreOpGraph::new(
            graph.name.clone(),
            self.config.crossbar_rows,
            self.config.crossbar_cols,
        );
        // For every source node: the groups that carry its output (for
        // pass-through nodes, the propagated producer groups), and its
        // pipeline depth.
        let mut node_outputs: HashMap<usize, Vec<GroupId>> = HashMap::new();
        let mut node_depth: HashMap<usize, usize> = HashMap::new();

        for id in order {
            let node = graph.node(id)?;
            let input_shapes: Vec<_> = node.inputs.iter().map(|i| shapes[i]).collect();
            let output_shape = shapes[&id];
            let fuse_relu = graph
                .consumers(id)
                .iter()
                .any(|&c| matches!(graph.node(c).map(|n| &n.op), Ok(Operator::Relu)));
            let input_depth = node
                .inputs
                .iter()
                .map(|i| node_depth.get(i).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);

            let mut lowered = lower_node(
                id,
                &node.name,
                &node.op,
                &input_shapes,
                output_shape,
                fuse_relu,
                constraints,
            );

            if lowered.is_empty() {
                // Pass-through: propagate the producers' groups and depth.
                let mut propagated = Vec::new();
                for input in &node.inputs {
                    propagated.extend(node_outputs.get(input).cloned().unwrap_or_default());
                }
                node_outputs.insert(id, propagated);
                node_depth.insert(id, input_depth);
                continue;
            }

            let depth = input_depth + 1;
            for g in &mut lowered.groups {
                g.layer_depth = depth - 1;
            }

            // Insert the groups, remembering local-index -> graph-id mapping.
            let input_range = lowered.input_range();
            let output_range = lowered.outputs.clone();
            let mut new_ids = Vec::with_capacity(lowered.groups.len());
            for g in lowered.groups {
                new_ids.push(out.add_group(g));
            }

            // Dependencies: every producer group of every input feeds every
            // input-stage group of this node; within the node, the lowering
            // rule already told us exactly which tiles feed which reduction
            // or second pooling stage.
            let first_stage: Vec<GroupId> = new_ids[input_range].to_vec();
            for input in &node.inputs {
                for &producer in node_outputs.get(input).into_iter().flatten() {
                    for &consumer in &first_stage {
                        out.add_edge(producer, consumer);
                    }
                }
            }
            for &(from, to) in &lowered.intra_edges {
                out.add_edge(new_ids[from], new_ids[to]);
            }

            node_outputs.insert(id, new_ids[output_range].to_vec());
            node_depth.insert(id, depth);
        }

        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coreop::CoreOpKind;
    use fpsa_nn::zoo;

    fn synth(graph: &ComputationalGraph) -> CoreOpGraph {
        NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(graph)
            .expect("synthesis succeeds on zoo models")
    }

    #[test]
    fn mlp_synthesis_preserves_operation_count() {
        let g = zoo::mlp_500_100();
        let stats = g.statistics();
        let core = synth(&g);
        // VMM tiles account for at least the original MACs; reductions add a
        // small overhead on top.
        let vmm_ops: u64 = core
            .groups()
            .iter()
            .filter(|gr| gr.kind == CoreOpKind::Vmm)
            .map(|gr| gr.ops())
            .sum();
        assert_eq!(vmm_ops, stats.total_ops);
        assert!(core.total_ops() >= stats.total_ops);
    }

    #[test]
    fn mlp_synthesis_reuse_degree_is_one() {
        let core = synth(&zoo::mlp_500_100());
        assert_eq!(core.max_reuse_degree(), 1);
    }

    #[test]
    fn lenet_synthesis_has_convolution_reuse() {
        let core = synth(&zoo::lenet());
        // conv1 runs over 24x24 output positions.
        assert_eq!(core.max_reuse_degree(), 576);
        assert!(core.total_core_ops() > core.len() as u64);
    }

    #[test]
    fn relu_is_fused_into_producing_tiles() {
        let core = synth(&zoo::mlp_500_100());
        // fc1 and fc2 are followed by ReLU, fc3 is not.
        let fused = core.groups().iter().filter(|g| g.relu).count();
        assert!(fused >= 2);
        assert!(core
            .groups()
            .iter()
            .filter(|g| g.name.starts_with("fc3"))
            .all(|g| !g.relu));
    }

    #[test]
    fn pipeline_depth_tracks_layer_count() {
        let core = synth(&zoo::mlp_500_100());
        // Three weight layers; reductions share their layer's depth.
        assert_eq!(core.pipeline_depth(), 3);
    }

    #[test]
    fn every_tile_fits_the_crossbar() {
        for graph in [zoo::lenet(), zoo::cifar_vgg17(), zoo::alexnet()] {
            let core = synth(&graph);
            assert!(core
                .groups()
                .iter()
                .all(|g| g.rows <= 256 && g.cols <= 256 && g.rows > 0 && g.cols > 0));
        }
    }

    #[test]
    fn edges_connect_consecutive_layers() {
        let core = synth(&zoo::mlp_500_100());
        // Every non-input group must have at least one predecessor.
        let depth0: Vec<_> = core
            .groups()
            .iter()
            .filter(|g| g.layer_depth > 0)
            .map(|g| g.id)
            .collect();
        let adjacency = core.adjacency();
        for id in depth0 {
            assert!(
                !adjacency.predecessors(id).is_empty(),
                "group {id} has no predecessors"
            );
        }
    }

    #[test]
    fn googlenet_pooling_dominates_pe_count() {
        let core = synth(&zoo::googlenet());
        let share = core.group_share_of(CoreOpKind::Pooling);
        // §7.3: after synthesis, pooling occupies ~67% of GoogLeNet's PEs.
        assert!(
            share > 0.55 && share < 0.80,
            "pooling share {share} out of expected band"
        );
    }

    #[test]
    fn vgg16_synthesis_is_compact_yet_complete() {
        let g = zoo::vgg16();
        let stats = g.statistics();
        let core = synth(&g);
        // Group count stays in the thousands even though there are millions
        // of core-ops.
        assert!(core.len() < 20_000, "groups = {}", core.len());
        // Hundreds of thousands of individual core-ops collapse into a few
        // thousand weight-sharing groups.
        assert!(core.total_core_ops() > 400_000);
        assert!(core.total_core_ops() > 50 * core.len() as u64);
        // The synthesized weight storage is at least the model's weights.
        assert!(core.total_weights() >= stats.total_weights / 2);
        // Spatial utilization is below 1 because tiles do not fill crossbars.
        let u = core.spatial_utilization();
        assert!(u > 0.3 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn resnet_synthesis_handles_residual_blocks() {
        let core = synth(&zoo::resnet152());
        assert!(core.group_share_of(CoreOpKind::Eltwise) > 0.0);
        assert!(core.pipeline_depth() > 100);
    }

    #[test]
    fn synthesizer_is_deterministic() {
        let g = zoo::lenet();
        let a = synth(&g);
        let b = synth(&g);
        assert_eq!(a, b);
    }
}
