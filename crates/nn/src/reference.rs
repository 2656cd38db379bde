//! The golden-model reference executor for computational graphs.
//!
//! This module gives [`ComputationalGraph`] + [`GraphParameters`] a numeric
//! forward pass at *layer* granularity — no tiling, no scheduling, no
//! netlist. It is the independent reference the compiled-model execution
//! engine (`fpsa_sim::exec`) is differentially tested against: the compiled
//! path computes the same function through synthesized tiles, mapped
//! schedules and routed nets, and must agree with this one.
//!
//! Two numeric domains are provided:
//!
//! * [`Reference::forward`] — floating point (f64 accumulation, f32
//!   storage at node boundaries). The compiled executor matches this within
//!   a small tolerance: both sides accumulate in f64 and round to f32 at
//!   the same node boundaries, so the only divergence is summation *order*
//!   (tiles sum partial products in tile order).
//! * [`Reference::quantized_forward`] — integer-code execution on a
//!   calibrated [`QuantizationPlan`]: weights as 8-bit codes, activations as
//!   6-bit codes (the fabric's 64-cycle sampling window), all accumulation
//!   in `i64`. Integer addition is associative, so tiling order cannot
//!   perturb results — the compiled executor matches this **bit for bit**.
//!
//! # Lowering-faithful semantics
//!
//! The reference intentionally mirrors the neural synthesizer's semantics
//! rather than idealized framework semantics, because that is the function
//! the fabric actually computes:
//!
//! * ReLU is *fused* into the producing compute node when any consumer is a
//!   `Relu` node, and only for operators whose lowering fuses it (dense,
//!   convolution, element-wise add — not poolings). The `Relu` node itself
//!   is transparent.
//! * `BatchNorm`, `LocalResponseNorm`, `Dropout` and `Softmax` are identity
//!   (inference-folded / evaluated off-accelerator), exactly as the
//!   synthesizer treats them. Comparisons therefore happen on logits.
//! * `Flatten` and `Concat` are wiring: consumers read their inputs through
//!   an [`InputView`] that resolves pass-through chains down to the compute
//!   nodes that actually produced values.

use crate::error::NnError;
use crate::graph::{ComputationalGraph, NodeId};
use crate::ops::Operator;
use crate::params::GraphParameters;
use crate::quant::{quantize_code, rescale_code};
use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One contiguous slice of a consumer's logical input vector, produced by a
/// value-producing ("compute") node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewSegment {
    /// The compute node whose buffer backs this segment.
    pub source: NodeId,
    /// Number of elements contributed.
    pub elements: usize,
}

/// The resolved logical input of a node: pass-through chains (ReLU, Flatten,
/// Concat, folded normalizations) collapsed into an ordered list of compute
/// node segments. Flattened-CHW concatenation is channel-major, so segment
/// concatenation reproduces `Concat` exactly.
pub type InputView = Vec<ViewSegment>;

/// Whether a node produces an activation buffer of its own (as opposed to
/// pass-through wiring).
pub fn is_compute_node(op: &Operator) -> bool {
    matches!(
        op,
        Operator::Input { .. }
            | Operator::Conv2d { .. }
            | Operator::Linear { .. }
            | Operator::MaxPool2d { .. }
            | Operator::AvgPool2d { .. }
            | Operator::GlobalAvgPool
            | Operator::Add
    )
}

/// Whether the lowering fuses a following ReLU into this operator's tiles.
/// Poolings never fuse (their constructs are fixed matrices), matching
/// `fpsa_synthesis::lower`.
pub fn fuses_relu(op: &Operator) -> bool {
    matches!(
        op,
        Operator::Conv2d { .. } | Operator::Linear { .. } | Operator::Add
    )
}

/// Resolve the logical input view of the given producer nodes.
///
/// # Errors
///
/// Propagates shape/graph errors from traversal.
pub fn resolve_view(
    graph: &ComputationalGraph,
    shapes: &HashMap<NodeId, TensorShape>,
    inputs: &[NodeId],
) -> Result<InputView, NnError> {
    let mut view = Vec::new();
    for &input in inputs {
        let node = graph.node(input)?;
        if is_compute_node(&node.op) {
            view.push(ViewSegment {
                source: input,
                elements: shapes[&input].elements(),
            });
        } else {
            let inner = resolve_view(graph, shapes, &node.inputs)?;
            view.extend(inner);
        }
    }
    Ok(view)
}

/// A symmetric uniform quantization plan for one graph: per-node weight and
/// activation ranges plus the bit widths of the fabric (8-bit weights via
/// the add representation, 6-bit activations from the 64-cycle sampling
/// window).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizationPlan {
    /// Weight bits including sign.
    pub weight_bits: u32,
    /// Activation bits including sign.
    pub activation_bits: u32,
    /// Per-node symmetric weight range (0 for weight-free nodes).
    pub weight_range: Vec<f32>,
    /// Per-node symmetric activation range, calibrated on sample data
    /// (0 for pass-through nodes).
    pub activation_range: Vec<f32>,
}

impl QuantizationPlan {
    /// Positive weight code levels (127 for 8 bits).
    pub fn weight_levels(&self) -> i64 {
        (1i64 << (self.weight_bits - 1)) - 1
    }

    /// Positive activation code levels (31 for 6 bits).
    pub fn activation_levels(&self) -> i64 {
        (1i64 << (self.activation_bits - 1)) - 1
    }

    /// The real value of one weight code step at a node.
    pub fn weight_step(&self, node: NodeId) -> f64 {
        f64::from(self.weight_range[node].max(1e-12)) / self.weight_levels() as f64
    }

    /// The real value of one activation code step at a node.
    pub fn activation_step(&self, node: NodeId) -> f64 {
        f64::from(self.activation_range[node].max(1e-12)) / self.activation_levels() as f64
    }

    /// The common step a consumer rescales its gathered inputs to: the step
    /// of the widest-range segment of its input view (so no gathered code
    /// can overflow the activation levels).
    pub fn gather_step(&self, view: &InputView) -> f64 {
        view.iter()
            .map(|s| self.activation_step(s.source))
            .fold(1e-12 / self.activation_levels() as f64, f64::max)
    }

    /// Calibrate a plan for `graph`/`params`: weight ranges from the
    /// parameters, activation ranges from float reference forward passes
    /// over `samples`.
    ///
    /// # Errors
    ///
    /// Propagates graph/shape errors; requires at least one sample.
    pub fn calibrate(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        samples: &[Vec<f32>],
    ) -> Result<Self, NnError> {
        let reference = Reference::new(graph, params)?;
        let mut activation_range = vec![0.0f32; graph.len()];
        for sample in samples {
            let buffers = reference.forward(sample)?;
            for (node, buffer) in buffers.iter().enumerate() {
                if let Some(values) = buffer {
                    let m = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                    activation_range[node] = activation_range[node].max(m);
                }
            }
        }
        let weight_range = (0..graph.len()).map(|n| params.max_abs_weight(n)).collect();
        Ok(QuantizationPlan {
            weight_bits: 8,
            activation_bits: 6,
            weight_range,
            activation_range,
        })
    }
}

/// Per-compute-node metadata resolved once per graph.
struct NodePlan {
    view: InputView,
    fused_relu: bool,
}

/// The golden-model reference executor.
pub struct Reference<'a> {
    graph: &'a ComputationalGraph,
    params: &'a GraphParameters,
    shapes: HashMap<NodeId, TensorShape>,
    order: Vec<NodeId>,
    plans: Vec<Option<NodePlan>>,
    output_view: InputView,
}

impl<'a> Reference<'a> {
    /// Prepare a reference executor (shape inference, topological order,
    /// input-view and ReLU-fusion resolution).
    ///
    /// # Errors
    ///
    /// Propagates graph and shape errors; requires exactly one output node.
    pub fn new(
        graph: &'a ComputationalGraph,
        params: &'a GraphParameters,
    ) -> Result<Self, NnError> {
        let shapes = graph.infer_shapes()?;
        let order = graph.topological_order()?;
        let mut plans: Vec<Option<NodePlan>> = Vec::with_capacity(graph.len());
        for node in graph.nodes() {
            if !is_compute_node(&node.op) {
                plans.push(None);
                continue;
            }
            let view = resolve_view(graph, &shapes, &node.inputs)?;
            let fused_relu = fuses_relu(&node.op)
                && graph
                    .consumers(node.id)
                    .iter()
                    .any(|&c| matches!(graph.node(c).map(|n| &n.op), Ok(Operator::Relu)));
            plans.push(Some(NodePlan { view, fused_relu }));
        }
        let outputs = graph.outputs();
        let [output] = outputs[..] else {
            return Err(NnError::ShapeMismatch {
                node: graph.name.clone(),
                reason: format!("reference execution needs one output node, got {outputs:?}"),
            });
        };
        let output_view = resolve_view(graph, &shapes, &[output])?;
        Ok(Reference {
            graph,
            params,
            shapes,
            order,
            plans,
            output_view,
        })
    }

    /// The inferred shape of every node.
    pub fn shapes(&self) -> &HashMap<NodeId, TensorShape> {
        &self.shapes
    }

    /// The resolved input view of a compute node (`None` for pass-through
    /// nodes).
    pub fn view(&self, node: NodeId) -> Option<&InputView> {
        self.plans
            .get(node)
            .and_then(|p| p.as_ref())
            .map(|p| &p.view)
    }

    /// Whether the lowering-faithful semantics fuse a ReLU into `node`.
    pub fn fused_relu(&self, node: NodeId) -> bool {
        self.plans
            .get(node)
            .and_then(|p| p.as_ref())
            .is_some_and(|p| p.fused_relu)
    }

    /// The output node's resolved view (for reading final logits).
    pub fn output_view(&self) -> &InputView {
        &self.output_view
    }

    /// Gather a node's logical input vector from the per-node buffers.
    fn gather<T: Copy>(view: &InputView, buffers: &[Option<Vec<T>>]) -> Vec<T> {
        let mut out = Vec::with_capacity(view.iter().map(|s| s.elements).sum());
        for segment in view {
            out.extend_from_slice(
                buffers[segment.source]
                    .as_deref()
                    .expect("topological order fills producer buffers"),
            );
        }
        out
    }

    /// Float forward pass: per-node activation buffers (index = node id,
    /// `None` for pass-through nodes). Accumulation in f64, storage in f32.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input length does not match
    /// the graph's input node.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<Option<Vec<f32>>>, NnError> {
        let mut buffers: Vec<Option<Vec<f32>>> = vec![None; self.graph.len()];
        for &id in &self.order {
            let node = self.graph.node(id)?;
            let Some(plan) = &self.plans[id] else {
                continue;
            };
            let out_shape = self.shapes[&id];
            let buffer = match &node.op {
                Operator::Input { shape } => {
                    if input.len() != shape.elements() {
                        return Err(NnError::ShapeMismatch {
                            node: node.name.clone(),
                            reason: format!(
                                "input has {} elements, graph expects {}",
                                input.len(),
                                shape.elements()
                            ),
                        });
                    }
                    input.to_vec()
                }
                Operator::Linear { in_features, .. } => {
                    let x = Self::gather(&plan.view, &buffers);
                    let w = self.params.weights(id).expect("linear node has weights");
                    dense_forward(w, &x, *in_features, plan.fused_relu)
                }
                Operator::Conv2d { .. } => {
                    let x = Self::gather(&plan.view, &buffers);
                    let w = self.params.weights(id).expect("conv node has weights");
                    let in_shape = self.shapes[&view_shape_node(node)?];
                    conv_forward(&node.op, w, &x, in_shape, out_shape, plan.fused_relu)
                }
                Operator::MaxPool2d { kernel, stride } => {
                    let x = Self::gather(&plan.view, &buffers);
                    let in_shape = self.shapes[&view_shape_node(node)?];
                    pool_forward(&x, in_shape, out_shape, *kernel, *stride, true)
                }
                Operator::AvgPool2d { kernel, stride } => {
                    let x = Self::gather(&plan.view, &buffers);
                    let in_shape = self.shapes[&view_shape_node(node)?];
                    pool_forward(&x, in_shape, out_shape, *kernel, *stride, false)
                }
                Operator::GlobalAvgPool => {
                    let x = Self::gather(&plan.view, &buffers);
                    let in_shape = self.shapes[&view_shape_node(node)?];
                    let (h, w) = in_shape.spatial();
                    let window = (h * w) as f64;
                    (0..in_shape.channels())
                        .map(|c| {
                            let sum: f64 = (0..h * w).map(|p| f64::from(x[c * h * w + p])).sum();
                            (sum / window) as f32
                        })
                        .collect()
                }
                Operator::Add => {
                    let elements = out_shape.elements();
                    let mut acc = vec![0.0f64; elements];
                    for &input_id in &node.inputs {
                        let segment_view = resolve_view(self.graph, &self.shapes, &[input_id])?;
                        let x = Self::gather(&segment_view, &buffers);
                        for (a, &v) in acc.iter_mut().zip(&x) {
                            *a += f64::from(v);
                        }
                    }
                    acc.iter()
                        .map(|&v| {
                            let v = if plan.fused_relu { v.max(0.0) } else { v };
                            v as f32
                        })
                        .collect()
                }
                _ => unreachable!("pass-through nodes have no plan"),
            };
            buffers[id] = Some(buffer);
        }
        Ok(buffers)
    }

    /// Float logits: the output node's view gathered from a forward pass.
    ///
    /// # Errors
    ///
    /// Propagates [`Reference::forward`] errors.
    pub fn logits(&self, input: &[f32]) -> Result<Vec<f32>, NnError> {
        let buffers = self.forward(input)?;
        Ok(Self::gather(&self.output_view, &buffers))
    }

    /// Integer-code forward pass on a calibrated plan: per-node code buffers.
    /// All accumulation is exact `i64` arithmetic; real-valued rescaling
    /// happens only at node boundaries through the shared helpers of
    /// [`crate::quant`], so a tiled executor performing the same per-element
    /// composition reproduces these codes bit for bit.
    ///
    /// # Errors
    ///
    /// Mirrors [`Reference::forward`].
    pub fn quantized_forward(
        &self,
        plan: &QuantizationPlan,
        input: &[f32],
    ) -> Result<Vec<Option<Vec<i64>>>, NnError> {
        let alevels = plan.activation_levels();
        let wlevels = plan.weight_levels();
        let mut buffers: Vec<Option<Vec<i64>>> = vec![None; self.graph.len()];
        for &id in &self.order {
            let node = self.graph.node(id)?;
            let Some(node_plan) = &self.plans[id] else {
                continue;
            };
            let out_step = plan.activation_step(id);
            let out_shape = self.shapes[&id];
            let relu = node_plan.fused_relu;
            let buffer = match &node.op {
                Operator::Input { shape } => {
                    if input.len() != shape.elements() {
                        return Err(NnError::ShapeMismatch {
                            node: node.name.clone(),
                            reason: format!(
                                "input has {} elements, graph expects {}",
                                input.len(),
                                shape.elements()
                            ),
                        });
                    }
                    input
                        .iter()
                        .map(|&v| quantize_code(f64::from(v), out_step, alevels))
                        .collect()
                }
                Operator::Linear { in_features, .. } => {
                    let x = self.gather_codes(&node_plan.view, &buffers, plan);
                    let w = self.params.weights(id).expect("linear node has weights");
                    let wstep = plan.weight_step(id);
                    let gstep = plan.gather_step(&node_plan.view);
                    let out_features = w.len() / in_features;
                    (0..out_features)
                        .map(|o| {
                            let mut acc = 0i64;
                            for (i, &xi) in x.iter().enumerate() {
                                let wq = quantize_code(
                                    f64::from(w[o * in_features + i]),
                                    wstep,
                                    wlevels,
                                );
                                acc += wq * xi;
                            }
                            requantize_mac(acc, wstep, gstep, relu, out_step, alevels)
                        })
                        .collect()
                }
                Operator::Conv2d {
                    in_channels,
                    out_channels,
                    kernel,
                    stride,
                    padding,
                    groups,
                } => {
                    let x = self.gather_codes(&node_plan.view, &buffers, plan);
                    let w = self.params.weights(id).expect("conv node has weights");
                    let wstep = plan.weight_step(id);
                    let gstep = plan.gather_step(&node_plan.view);
                    let in_shape = self.shapes[&view_shape_node(node)?];
                    let (ih, iw) = in_shape.spatial();
                    let (oh, ow) = out_shape.spatial();
                    let icg = in_channels / groups;
                    let ocg = out_channels / groups;
                    let mut out = vec![0i64; out_channels * oh * ow];
                    for o in 0..*out_channels {
                        let g = o / ocg;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut acc = 0i64;
                                for c in 0..icg {
                                    for ky in 0..*kernel {
                                        for kx in 0..*kernel {
                                            let y = (oy * stride + ky) as isize - *padding as isize;
                                            let xpos =
                                                (ox * stride + kx) as isize - *padding as isize;
                                            if y < 0
                                                || xpos < 0
                                                || y >= ih as isize
                                                || xpos >= iw as isize
                                            {
                                                continue;
                                            }
                                            let ci = g * icg + c;
                                            let xi =
                                                x[ci * ih * iw + y as usize * iw + xpos as usize];
                                            let wi = w[o * icg * kernel * kernel
                                                + (c * kernel + ky) * kernel
                                                + kx];
                                            acc +=
                                                quantize_code(f64::from(wi), wstep, wlevels) * xi;
                                        }
                                    }
                                }
                                out[o * oh * ow + oy * ow + ox] =
                                    requantize_mac(acc, wstep, gstep, relu, out_step, alevels);
                            }
                        }
                    }
                    out
                }
                Operator::MaxPool2d { kernel, stride } | Operator::AvgPool2d { kernel, stride } => {
                    let is_max = matches!(node.op, Operator::MaxPool2d { .. });
                    let x = self.gather_codes(&node_plan.view, &buffers, plan);
                    let gstep = plan.gather_step(&node_plan.view);
                    let in_shape = self.shapes[&view_shape_node(node)?];
                    let (ih, iw) = in_shape.spatial();
                    let (oh, ow) = out_shape.spatial();
                    let channels = in_shape.channels();
                    let mut out = vec![0i64; channels * oh * ow];
                    for c in 0..channels {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let real = pooled_window_real(
                                    &x, c, oy, ox, *kernel, *stride, ih, iw, gstep, is_max,
                                );
                                out[c * oh * ow + oy * ow + ox] =
                                    quantize_code(real, out_step, alevels);
                            }
                        }
                    }
                    out
                }
                Operator::GlobalAvgPool => {
                    let x = self.gather_codes(&node_plan.view, &buffers, plan);
                    let gstep = plan.gather_step(&node_plan.view);
                    let in_shape = self.shapes[&view_shape_node(node)?];
                    let (h, w) = in_shape.spatial();
                    (0..in_shape.channels())
                        .map(|c| {
                            let sum: i64 = (0..h * w).map(|p| x[c * h * w + p]).sum();
                            let real = sum as f64 * gstep / (h * w) as f64;
                            quantize_code(real, out_step, alevels)
                        })
                        .collect()
                }
                Operator::Add => {
                    let gstep = plan.gather_step(&node_plan.view);
                    let elements = out_shape.elements();
                    let mut acc = vec![0i64; elements];
                    for &input_id in &node.inputs {
                        let segment_view = resolve_view(self.graph, &self.shapes, &[input_id])?;
                        let x = self.gather_codes(&segment_view, &buffers, plan);
                        // Rescale each side to the *node's* gather step so the
                        // integer sum is exact and side-order independent.
                        let sstep = plan.gather_step(&segment_view);
                        for (a, &v) in acc.iter_mut().zip(&x) {
                            *a += rescale_code(v, sstep, gstep, alevels);
                        }
                    }
                    acc.iter()
                        .map(|&code| {
                            let code = if relu { code.max(0) } else { code };
                            rescale_code(code, gstep, out_step, alevels)
                        })
                        .collect()
                }
                _ => unreachable!("pass-through nodes have no plan"),
            };
            buffers[id] = Some(buffer);
        }
        Ok(buffers)
    }

    /// Integer logits: the output node's code buffer, dequantized.
    ///
    /// # Errors
    ///
    /// Mirrors [`Reference::quantized_forward`].
    pub fn quantized_logits(
        &self,
        plan: &QuantizationPlan,
        input: &[f32],
    ) -> Result<Vec<i64>, NnError> {
        let buffers = self.quantized_forward(plan, input)?;
        Ok(Self::gather(&self.output_view, &buffers))
    }

    /// Gather a node's logical input codes, rescaled to the view's common
    /// gather step (identical rule in the compiled executor).
    fn gather_codes(
        &self,
        view: &InputView,
        buffers: &[Option<Vec<i64>>],
        plan: &QuantizationPlan,
    ) -> Vec<i64> {
        let gstep = plan.gather_step(view);
        let alevels = plan.activation_levels();
        let mut out = Vec::with_capacity(view.iter().map(|s| s.elements).sum());
        for segment in view {
            let step = plan.activation_step(segment.source);
            let codes = buffers[segment.source]
                .as_deref()
                .expect("topological order fills producer buffers");
            out.extend(codes.iter().map(|&c| rescale_code(c, step, gstep, alevels)));
        }
        out
    }
}

/// The node whose shape describes a consumer's (single-tensor) input.
/// Multi-segment views of spatial operators concatenate channel-major, so
/// the *shape* is the consumer's declared input; we recover it from the
/// first declared input of the graph node.
fn view_shape_node(node: &crate::graph::Node) -> Result<NodeId, NnError> {
    node.inputs
        .first()
        .copied()
        .ok_or_else(|| NnError::ShapeMismatch {
            node: node.name.clone(),
            reason: "operator requires an input".into(),
        })
}

/// `y[o] = Σ_i w[o][i] x[i]` with optional fused ReLU; f64 accumulation.
fn dense_forward(w: &[f32], x: &[f32], in_features: usize, relu: bool) -> Vec<f32> {
    let out_features = w.len() / in_features;
    (0..out_features)
        .map(|o| {
            let mut acc = 0.0f64;
            for (i, &xi) in x.iter().enumerate() {
                acc += f64::from(w[o * in_features + i]) * f64::from(xi);
            }
            if relu {
                acc = acc.max(0.0);
            }
            acc as f32
        })
        .collect()
}

/// Standard direct convolution with zero padding; f64 accumulation.
fn conv_forward(
    op: &Operator,
    w: &[f32],
    x: &[f32],
    in_shape: TensorShape,
    out_shape: TensorShape,
    relu: bool,
) -> Vec<f32> {
    let Operator::Conv2d {
        in_channels,
        out_channels,
        kernel,
        stride,
        padding,
        groups,
    } = *op
    else {
        unreachable!("conv_forward requires a Conv2d operator");
    };
    let (ih, iw) = in_shape.spatial();
    let (oh, ow) = out_shape.spatial();
    let icg = in_channels / groups;
    let ocg = out_channels / groups;
    let mut out = vec![0.0f32; out_channels * oh * ow];
    for o in 0..out_channels {
        let g = o / ocg;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f64;
                for c in 0..icg {
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let y = (oy * stride + ky) as isize - padding as isize;
                            let xpos = (ox * stride + kx) as isize - padding as isize;
                            if y < 0 || xpos < 0 || y >= ih as isize || xpos >= iw as isize {
                                continue;
                            }
                            let ci = g * icg + c;
                            let xi = x[ci * ih * iw + y as usize * iw + xpos as usize];
                            let wi = w[o * icg * kernel * kernel + (c * kernel + ky) * kernel + kx];
                            acc += f64::from(wi) * f64::from(xi);
                        }
                    }
                }
                if relu {
                    acc = acc.max(0.0);
                }
                out[o * oh * ow + oy * ow + ox] = acc as f32;
            }
        }
    }
    out
}

/// Max or average pooling over CHW data (no padding, like the operator).
fn pool_forward(
    x: &[f32],
    in_shape: TensorShape,
    out_shape: TensorShape,
    kernel: usize,
    stride: usize,
    is_max: bool,
) -> Vec<f32> {
    let (ih, iw) = in_shape.spatial();
    let (oh, ow) = out_shape.spatial();
    let channels = in_shape.channels();
    let mut out = vec![0.0f32; channels * oh * ow];
    for c in 0..channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut max = f64::NEG_INFINITY;
                let mut sum = 0.0f64;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        let v =
                            f64::from(x[c * ih * iw + (oy * stride + ky) * iw + ox * stride + kx]);
                        max = max.max(v);
                        sum += v;
                    }
                }
                out[c * oh * ow + oy * ow + ox] = if is_max {
                    max as f32
                } else {
                    (sum / (kernel * kernel) as f64) as f32
                };
            }
        }
    }
    out
}

/// One pooled window in the integer domain, returned as a real value ready
/// for requantization. Shared composition with the compiled executor.
#[allow(clippy::too_many_arguments)]
pub fn pooled_window_real(
    codes: &[i64],
    channel: usize,
    oy: usize,
    ox: usize,
    kernel: usize,
    stride: usize,
    ih: usize,
    iw: usize,
    gather_step: f64,
    is_max: bool,
) -> f64 {
    let mut max = i64::MIN;
    let mut sum = 0i64;
    for ky in 0..kernel {
        for kx in 0..kernel {
            let v = codes[channel * ih * iw + (oy * stride + ky) * iw + ox * stride + kx];
            max = max.max(v);
            sum += v;
        }
    }
    if is_max {
        max as f64 * gather_step
    } else {
        sum as f64 * gather_step / (kernel * kernel) as f64
    }
}

/// The shared MAC requantization composition: `acc` integer codes at scale
/// `wstep * gather_step`, optional ReLU on the real value, requantized to
/// the producing node's activation step. The compiled executor must call
/// exactly this function so integer-mode results stay bit-identical.
#[inline]
pub fn requantize_mac(
    acc: i64,
    wstep: f64,
    gather_step: f64,
    relu: bool,
    out_step: f64,
    out_levels: i64,
) -> i64 {
    let mut real = acc as f64 * wstep * gather_step;
    if relu {
        real = real.max(0.0);
    }
    quantize_code(real, out_step, out_levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::mlp_graph;
    use crate::zoo;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect()
    }

    #[test]
    fn linear_reference_matches_hand_computation() {
        let g = mlp_graph("m", &[2, 2]);
        let mut p = GraphParameters::seeded(&g, 1);
        p = p.map_weights(|_| 0.5);
        let r = Reference::new(&g, &p).unwrap();
        let y = r.logits(&[1.0, 2.0]).unwrap();
        assert_eq!(y, vec![1.5, 1.5]);
    }

    #[test]
    fn relu_is_fused_into_the_producing_layer() {
        let g = mlp_graph("m", &[2, 2, 1]);
        let p = GraphParameters::seeded(&g, 9).map_weights(|_| -1.0);
        let r = Reference::new(&g, &p).unwrap();
        assert!(r.fused_relu(1), "hidden layer fuses its ReLU");
        assert!(!r.fused_relu(3), "output layer has no ReLU");
        let buffers = r.forward(&[1.0, 1.0]).unwrap();
        // Hidden activations are relu(-2) = 0 -> logits are exactly 0.
        assert_eq!(buffers[1].as_deref(), Some(&[0.0f32, 0.0][..]));
        assert_eq!(r.logits(&[1.0, 1.0]).unwrap(), vec![0.0]);
    }

    #[test]
    fn reference_mlp_matches_trained_mlp_forward() {
        let sizes = [8, 16, 4];
        let g = mlp_graph("m", &sizes);
        let mlp = crate::mlp::Mlp::new(&sizes, 3);
        let p = GraphParameters::from_mlp(&g, &mlp).unwrap();
        let r = Reference::new(&g, &p).unwrap();
        let x = sample(8, 0);
        let expected = mlp.forward(&x);
        let got = r.logits(&x).unwrap();
        for (a, b) in expected.iter().zip(&got) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn lenet_reference_runs_and_shapes_line_up() {
        let g = zoo::lenet();
        let p = GraphParameters::seeded(&g, 11);
        let r = Reference::new(&g, &p).unwrap();
        let y = r.logits(&sample(28 * 28, 1)).unwrap();
        assert_eq!(y.len(), 10);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn views_resolve_through_pass_through_chains() {
        let g = zoo::lenet();
        let p = GraphParameters::seeded(&g, 0);
        let r = Reference::new(&g, &p).unwrap();
        // fc1 reads through flatten down to pool2.
        let fc1 = g.nodes().iter().find(|n| n.name == "fc1").unwrap().id;
        let view = r.view(fc1).unwrap();
        assert_eq!(view.len(), 1);
        let pool2 = g.nodes().iter().find(|n| n.name == "pool2").unwrap().id;
        assert_eq!(view[0].source, pool2);
        assert_eq!(view[0].elements, 50 * 4 * 4);
    }

    #[test]
    fn quantized_forward_is_deterministic_and_close_to_float() {
        let g = mlp_graph("m", &[8, 16, 4]);
        let p = GraphParameters::seeded(&g, 5);
        let r = Reference::new(&g, &p).unwrap();
        let samples: Vec<Vec<f32>> = (0..4).map(|i| sample(8, i)).collect();
        let plan = QuantizationPlan::calibrate(&g, &p, &samples).unwrap();
        let a = r.quantized_logits(&plan, &samples[0]).unwrap();
        let b = r.quantized_logits(&plan, &samples[0]).unwrap();
        assert_eq!(a, b);
        // Dequantized codes land within a few activation steps of the float
        // reference.
        let float = r.logits(&samples[0]).unwrap();
        let out = g.outputs()[0];
        let step = plan.activation_step(r.output_view()[0].source);
        let _ = out;
        for (&code, &f) in a.iter().zip(&float) {
            let real = code as f64 * step;
            assert!(
                (real - f64::from(f)).abs() < 8.0 * step,
                "code {code} -> {real} vs float {f}"
            );
        }
    }

    #[test]
    fn calibration_records_weight_and_activation_ranges() {
        let g = mlp_graph("m", &[4, 8, 2]);
        let p = GraphParameters::seeded(&g, 2);
        let plan = QuantizationPlan::calibrate(&g, &p, &[sample(4, 0)]).unwrap();
        assert_eq!(plan.weight_levels(), 127);
        assert_eq!(plan.activation_levels(), 31);
        assert!(plan.weight_range[1] > 0.0);
        assert!(plan.activation_range[0] > 0.0, "input node calibrated");
        assert_eq!(plan.weight_range[0], 0.0, "input has no weights");
    }
}
