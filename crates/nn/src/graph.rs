//! The computational-graph IR.
//!
//! A [`ComputationalGraph`] is a DAG of [`Node`]s, each holding an
//! [`Operator`] and the ids of its input nodes — the same abstraction used by
//! the deep-learning frameworks the paper targets (TensorFlow/PyTorch/MXNet).
//! The graph offers shape inference, topological ordering and the workload
//! statistics that drive the rest of the FPSA stack.

use crate::error::NnError;
use crate::ops::Operator;
use crate::shape::TensorShape;
use crate::stats::{LayerStats, WorkloadStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a node within one graph.
pub type NodeId = usize;

/// One operation instance in the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Stable identifier (index into the graph's node list).
    pub id: NodeId,
    /// Human readable name ("conv1_1", "fc6", ...).
    pub name: String,
    /// The operator this node applies.
    pub op: Operator,
    /// Ids of the nodes whose outputs feed this node.
    pub inputs: Vec<NodeId>,
}

/// A directed acyclic graph of tensor operations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ComputationalGraph {
    /// Model name (e.g. "VGG16").
    pub name: String,
    nodes: Vec<Node>,
}

impl ComputationalGraph {
    /// Create an empty graph with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        ComputationalGraph {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Append a node and return its id.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        op: Operator,
        inputs: Vec<NodeId>,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            name: name.into(),
            op,
            inputs,
        });
        id
    }

    /// Convenience: add an input node.
    pub fn add_input(&mut self, name: impl Into<String>, shape: TensorShape) -> NodeId {
        self.add_node(name, Operator::Input { shape }, vec![])
    }

    /// All nodes in insertion order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Every field of the graph: its name and its nodes. For encoders that
    /// must cover the whole graph (the compile-cache key); the exhaustive
    /// destructure makes a new field a compile error here.
    pub fn parts(&self) -> (&str, &[Node]) {
        let ComputationalGraph { name, nodes } = self;
        (name, nodes)
    }

    /// Element count of the graph's first `Input` tensor — the feature
    /// width a request vector must have — or 0 for input-less graphs.
    pub fn input_elements(&self) -> usize {
        self.nodes
            .iter()
            .find_map(|node| match node.op {
                Operator::Input { shape } => Some(shape.elements()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Look up a node by id.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownNode`] if the id is out of range.
    pub fn node(&self, id: NodeId) -> Result<&Node, NnError> {
        self.nodes.get(id).ok_or(NnError::UnknownNode { id })
    }

    /// Ids of nodes that consume the output of `id`.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// Ids of output nodes (nodes nobody consumes).
    pub fn outputs(&self) -> Vec<NodeId> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                if let Some(slot) = consumed.get_mut(i) {
                    *slot = true;
                }
            }
        }
        (0..self.nodes.len()).filter(|&i| !consumed[i]).collect()
    }

    /// Topological order of the node ids.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CyclicGraph`] if the graph has a cycle and
    /// [`NnError::UnknownNode`] if an edge references a missing node.
    pub fn topological_order(&self) -> Result<Vec<NodeId>, NnError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for node in &self.nodes {
            for &input in &node.inputs {
                if input >= n {
                    return Err(NnError::UnknownNode { id: input });
                }
                indegree[node.id] += 1;
            }
        }
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            for consumer in self.consumers(id) {
                indegree[consumer] -= 1;
                if indegree[consumer] == 0 {
                    queue.push(consumer);
                }
            }
        }
        if order.len() != n {
            return Err(NnError::CyclicGraph);
        }
        Ok(order)
    }

    /// Infer the output shape of every node.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference and graph-structure errors.
    pub fn infer_shapes(&self) -> Result<HashMap<NodeId, TensorShape>, NnError> {
        let order = self.topological_order()?;
        let mut shapes: HashMap<NodeId, TensorShape> = HashMap::with_capacity(self.nodes.len());
        for id in order {
            let node = self.node(id)?;
            let input_shapes: Vec<TensorShape> = node
                .inputs
                .iter()
                .map(|i| {
                    shapes
                        .get(i)
                        .copied()
                        .ok_or(NnError::UnknownNode { id: *i })
                })
                .collect::<Result<_, _>>()?;
            let out = node.op.infer_shape(&node.name, &input_shapes)?;
            shapes.insert(id, out);
        }
        Ok(shapes)
    }

    /// Compute per-layer and aggregate workload statistics.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference errors.
    pub fn try_statistics(&self) -> Result<WorkloadStats, NnError> {
        let shapes = self.infer_shapes()?;
        let mut layers = Vec::new();
        for node in &self.nodes {
            let output = shapes[&node.id];
            let weights = node.op.weight_count() as u64;
            let macs = node.op.mac_count(output);
            let reuse = node.op.reuse_degree(output);
            if weights > 0 || macs > 0 {
                layers.push(LayerStats {
                    node_id: node.id,
                    name: node.name.clone(),
                    mnemonic: node.op.mnemonic().to_string(),
                    weights,
                    macs,
                    ops: 2 * macs,
                    reuse_degree: reuse,
                    output_elements: output.elements() as u64,
                });
            }
        }
        Ok(WorkloadStats::from_layers(self.name.clone(), layers))
    }

    /// Compute workload statistics, panicking on malformed graphs.
    ///
    /// The model-zoo graphs are known to be well formed, so this is the
    /// convenient entry point for callers that construct graphs from
    /// [`crate::zoo`].
    ///
    /// # Panics
    ///
    /// Panics if shape inference fails.
    pub fn statistics(&self) -> WorkloadStats {
        self.try_statistics()
            .expect("graph statistics require a well-formed graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_mlp() -> ComputationalGraph {
        let mut g = ComputationalGraph::new("tiny");
        let input = g.add_input("input", TensorShape::Features(784));
        let fc1 = g.add_node(
            "fc1",
            Operator::Linear {
                in_features: 784,
                out_features: 100,
            },
            vec![input],
        );
        let relu = g.add_node("relu1", Operator::Relu, vec![fc1]);
        g.add_node(
            "fc2",
            Operator::Linear {
                in_features: 100,
                out_features: 10,
            },
            vec![relu],
        );
        g
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let g = small_mlp();
        let order = g.topological_order().unwrap();
        let pos: HashMap<NodeId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for node in g.nodes() {
            for &input in &node.inputs {
                assert!(pos[&input] < pos[&node.id]);
            }
        }
    }

    #[test]
    fn cyclic_graph_is_rejected() {
        let mut g = ComputationalGraph::new("cycle");
        let a = g.add_node("a", Operator::Relu, vec![1]);
        let _b = g.add_node("b", Operator::Relu, vec![a]);
        assert_eq!(g.topological_order(), Err(NnError::CyclicGraph));
    }

    #[test]
    fn unknown_input_is_rejected() {
        let mut g = ComputationalGraph::new("bad");
        g.add_node("a", Operator::Relu, vec![42]);
        assert!(matches!(
            g.topological_order(),
            Err(NnError::UnknownNode { id: 42 })
        ));
    }

    #[test]
    fn shapes_flow_through_the_graph() {
        let g = small_mlp();
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[&3], TensorShape::Features(10));
    }

    #[test]
    fn outputs_are_unconsumed_nodes() {
        let g = small_mlp();
        assert_eq!(g.outputs(), vec![3]);
    }

    #[test]
    fn statistics_count_weights_and_ops() {
        let g = small_mlp();
        let stats = g.statistics();
        assert_eq!(stats.total_weights, 784 * 100 + 100 * 10);
        assert_eq!(stats.total_ops, 2 * (784 * 100 + 100 * 10) as u64);
        assert_eq!(stats.layers.len(), 2);
    }

    #[test]
    fn consumers_are_reported() {
        let g = small_mlp();
        assert_eq!(g.consumers(1), vec![2]);
        assert!(g.consumers(3).is_empty());
    }

    #[test]
    fn node_lookup_errors_for_bad_id() {
        let g = small_mlp();
        assert!(g.node(99).is_err());
        assert_eq!(g.node(0).unwrap().name, "input");
    }

    #[test]
    fn empty_graph_behaves() {
        let g = ComputationalGraph::new("empty");
        assert!(g.is_empty());
        assert!(g.topological_order().unwrap().is_empty());
        assert!(g.outputs().is_empty());
    }
}
