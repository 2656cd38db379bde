//! The compiled-model execution engine.
//!
//! Everything upstream of this module validates the compile pipeline
//! *structurally* — schedules satisfy their constraints, netlists connect,
//! routes converge. This engine closes the numeric loop: it takes the
//! artifacts of a compiled model (synthesized core-op graph, mapped
//! allocation + schedule + netlist) and actually *computes the network's
//! outputs on the simulated fabric*, so compilation can be differentially
//! tested against the golden-model reference of `fpsa_nn::reference`.
//!
//! # How a sample executes: bind → lower → execute
//!
//! 1. [`Executor::bind`] resolves every core-op group into a `TileProgram`:
//!    its crossbar weight matrix (sliced by `fpsa_synthesis::weights`, then
//!    realized exactly / quantized / programmed onto noisy simulated cells —
//!    one realization **per PE duplicate**, because every physical crossbar
//!    is programmed separately, all packed row-major into one shared weight
//!    slab), its gather geometry (dense rows, im2col convolution windows,
//!    pooling stencils) and its scatter target.
//!    Binding also *verifies the physical artifacts*: schedule entries must
//!    start strictly after every producer (buffered edges strictly after the
//!    producer finishes), and every core-graph edge must be backed by nets
//!    in the mapper's netlist (producer PE → consumer PE duplicates, or
//!    producer → SMB → consumer for buffered edges).
//! 2. Binding then **lowers** the programs ([`crate::lower`]) into a flat
//!    bytecode stream ([`crate::bytecode`]): every buffer becomes a fixed
//!    region of two flat arena slabs, every instruction carries preresolved
//!    absolute offsets, and structurally-zero crossbar rows are dropped.
//! 3. [`Executor::run`] is a single dispatch loop over that stream — no
//!    per-element op dispatch, no hash lookups, no shape math — with
//!    run-time skipping of exactly-zero activations. Outputs are
//!    bit-identical to the retired interpreter (kept behind the
//!    `shadow-interp` feature purely as the differential cross-check —
//!    see [`Executor::run_checked`]): per-accumulator f64/i64 term order is
//!    preserved, and sparsity only removes terms that are exactly zero.
//! 4. Batches fan out sample-parallel over rayon ([`Executor::run_batch`]).
//!    All weight realization (including noise) happens at bind time, so
//!    execution is pure and results are bit-identical for any thread count
//!    or batch chunking.
//! 5. Long-lived callers (the serving engine of `fpsa_serve`) bind once and
//!    keep an [`ExecArena`] per replica: [`Executor::run_into`] and
//!    [`Executor::run_batch_into`] reuse the arena's two flat slabs, whose
//!    peak demand is precomputed by lowering — reservation is O(1) per run
//!    and the steady-state hot path performs no scratch allocation.
//!
//! # Numeric domains ([`Precision`])
//!
//! * [`Precision::Float`] — f32 tile weights straight from the parameters,
//!   f64 accumulation, f32 at node boundaries: matches the float reference
//!   within summation-order tolerance (see DESIGN.md for the bound).
//! * [`Precision::QuantizedWeights`] — weights round-tripped through the
//!   8-bit [`Quantizer`] per layer; bit-for-bit the quantizer's reference
//!   values, float math otherwise.
//! * [`Precision::Integer`] — full integer-code execution on a calibrated
//!   [`QuantizationPlan`]: 8-bit weight codes, 6-bit activation codes, i64
//!   accumulation. Integer addition is associative, so tiling and transport
//!   cannot perturb results: outputs match
//!   `Reference::quantized_forward` **bit for bit**.
//! * [`Precision::Noisy`] — quantized weights programmed onto simulated
//!   ReRAM cells ([`WeightScheme`] + [`CellVariation`]), seeded per PE by
//!   the repository convention (`seeds::derive(seed, STREAM_PE_NOISE,
//!   pe_index(group, duplicate))`).

use crate::bytecode::{LowerStats, Lowered, Region};
use crate::lower::{self, LowerCtx};
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_mapper::{Mapping, NetlistBlock};
#[cfg(feature = "shadow-interp")]
use fpsa_nn::quant::rescale_code;
use fpsa_nn::quant::{quantize_code, Quantizer};
use fpsa_nn::reference::{self, InputView, QuantizationPlan};
#[cfg(feature = "shadow-interp")]
use fpsa_nn::reference::{pooled_window_real, requantize_mac};
use fpsa_nn::seeds;
use fpsa_nn::{ComputationalGraph, GraphParameters, NnError, NodeId, Operator, TensorShape};
use fpsa_obs::{SpanId, Tracer};
use fpsa_synthesis::{
    bucket_by_key, weights, Adjacency, CoreOpGraph, CoreOpKind, GroupId, Neighbor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The numeric domain a bound executor computes in.
#[derive(Debug, Clone, PartialEq)]
pub enum Precision {
    /// Full-precision f32 weights, f64 accumulation.
    Float,
    /// Weights round-tripped through the per-layer 8-bit quantizer
    /// (`Quantizer::weights_8bit(layer range)`), float math otherwise.
    QuantizedWeights,
    /// Integer-code execution on a calibrated plan; bit-for-bit against the
    /// quantized golden reference.
    Integer(QuantizationPlan),
    /// Quantized weights programmed onto simulated noisy cells, one
    /// independent realization per PE duplicate.
    Noisy {
        /// Cell composition scheme (splice or add).
        scheme: WeightScheme,
        /// Per-cell programming variation.
        variation: CellVariation,
        /// Base seed; per-PE RNGs derive from it via
        /// `seeds::derive(seed, STREAM_PE_NOISE, pe_index(group, dup))`.
        seed: u64,
    },
}

/// Why binding or execution failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The source graph is malformed (propagated from `fpsa_nn`).
    Graph(NnError),
    /// The model uses a construct the engine cannot evaluate numerically.
    Unsupported {
        /// What was encountered.
        reason: String,
    },
    /// Compiled artifacts disagree with the graph/parameters they are bound
    /// against.
    ModelMismatch {
        /// What disagreed.
        reason: String,
    },
    /// The schedule executes a consumer no later than one of its producers.
    ScheduleOrder {
        /// Producing group.
        producer: GroupId,
        /// Consuming group.
        consumer: GroupId,
    },
    /// A core-graph edge has no backing nets in the netlist.
    MissingTransport {
        /// Producing group.
        from: GroupId,
        /// Consuming group.
        to: GroupId,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Graph(e) => write!(f, "graph error: {e}"),
            ExecError::Unsupported { reason } => write!(f, "unsupported construct: {reason}"),
            ExecError::ModelMismatch { reason } => write!(f, "model mismatch: {reason}"),
            ExecError::ScheduleOrder { producer, consumer } => write!(
                f,
                "schedule orders consumer group {consumer} no later than its producer {producer}"
            ),
            ExecError::MissingTransport { from, to } => write!(
                f,
                "netlist carries no nets for core-graph edge {from} -> {to}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<NnError> for ExecError {
    fn from(e: NnError) -> Self {
        ExecError::Graph(e)
    }
}

fn mismatch(reason: impl Into<String>) -> ExecError {
    ExecError::ModelMismatch {
        reason: reason.into(),
    }
}

/// Geometry of a convolution gather.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvGeom {
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    pub ih: usize,
    pub iw: usize,
}

/// Geometry of a pooling gather.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolGeom {
    pub kernel: usize,
    pub stride: usize,
    pub ih: usize,
    pub iw: usize,
}

/// How one tile computes.
#[derive(Debug, Clone)]
pub(crate) enum ProgramKind {
    /// Dense VMM tile: rows `[row_offset, row_offset + rows)` of the node's
    /// flat input, one weight column per output.
    Dense,
    /// Convolution VMM tile: rows gathered through im2col windows.
    Conv(ConvGeom),
    /// Partial-sum reduction: sums slices of its predecessor tiles' raw
    /// accumulations. `(pred, pred_cols, slice_offset)` per source.
    Reduce(Vec<(GroupId, usize, usize)>),
    /// Average pooling over `kernel × kernel` windows for the tile's channel
    /// block.
    AvgPool(PoolGeom),
    /// Global average pooling over the full spatial extent.
    GlobalAvgPool {
        /// Spatial window (h · w).
        window: usize,
    },
    /// Max-pool construct stage 1: window maxima, handed to stage 2.
    MaxStage1(PoolGeom),
    /// Max-pool construct stage 2: forwards its stage-1 tile's values.
    MaxStage2 {
        /// The paired stage-1 group.
        source: GroupId,
    },
    /// Element-wise addition across the node's inputs; one resolved view per
    /// input (kept separate because, in integer mode, each side rescales
    /// from its own gather step exactly like the reference).
    Eltwise(Vec<InputView>),
}

/// One bound, executable tile.
#[derive(Debug, Clone)]
pub(crate) struct TileProgram {
    pub group: GroupId,
    pub node: NodeId,
    pub kind: ProgramKind,
    pub relu: bool,
    /// Whether this tile scatters into its node's activation buffer
    /// (otherwise it produces partial values consumed by another tile).
    pub writes_output: bool,
    /// Output positions of the node (spatial size, 1 for feature vectors);
    /// equals the group's reuse degree.
    pub positions: usize,
    /// Tile output width (`cols`) and channel/feature offset (`col_offset`).
    pub cols: usize,
    pub col_offset: usize,
    /// Dense/conv row span within the node's logical input.
    pub rows: usize,
    pub row_offset: usize,
    /// Float weight realizations as `(offset, len)` spans of the lowered
    /// weight slab, one per PE duplicate (length 1 when all duplicates share
    /// the exact same matrix; empty spans in Integer precision).
    pub w_f: Vec<(u32, u32)>,
    /// Integer weight code span (Integer precision only; always shared).
    pub w_q: (u32, u32),
    pub duplicates: u64,
}

/// Per-node geometry shared by the node's tiles.
#[derive(Debug, Clone)]
pub(crate) struct NodeInfo {
    pub view: InputView,
    pub elements: usize,
    pub positions: usize,
    /// Integer-mode steps (1.0 placeholders outside Integer precision).
    pub gather_step: f64,
    pub out_step: f64,
    pub weight_step: f64,
}

/// An epoch-stamped buffer pool: one growable buffer per slot, with validity
/// tracked per execution epoch. Interpreter-only — the bytecode path replaced
/// per-buffer bookkeeping with two flat slabs whose layout lowering fixed.
#[cfg(feature = "shadow-interp")]
#[derive(Debug, Default)]
struct Slab<T> {
    bufs: Vec<Vec<T>>,
    stamp: Vec<u64>,
}

#[cfg(feature = "shadow-interp")]
impl<T: Copy + Default> Slab<T> {
    fn ensure(&mut self, slots: usize) {
        if self.bufs.len() < slots {
            self.bufs.resize_with(slots, Vec::new);
            self.stamp.resize(slots, 0);
        }
    }

    /// Claim a slot for `epoch` as an empty buffer (capacity retained).
    fn claim(&mut self, slot: usize, epoch: u64) -> &mut Vec<T> {
        self.stamp[slot] = epoch;
        let buf = &mut self.bufs[slot];
        buf.clear();
        buf
    }

    /// Claim a slot for `epoch`, zero-filled to `len`.
    fn claim_zeroed(&mut self, slot: usize, len: usize, epoch: u64) {
        let buf = self.claim(slot, epoch);
        buf.resize(len, T::default());
    }

    /// Whether the slot was written during `epoch`.
    fn live(&self, slot: usize, epoch: u64) -> bool {
        self.stamp.get(slot).copied() == Some(epoch)
    }

    fn get(&self, slot: usize, epoch: u64) -> Option<&[T]> {
        self.live(slot, epoch).then(|| self.bufs[slot].as_slice())
    }

    fn get_mut(&mut self, slot: usize, epoch: u64) -> Option<&mut [T]> {
        self.live(slot, epoch)
            .then(|| self.bufs[slot].as_mut_slice())
    }
}

/// Reusable execution scratch for one executor replica.
///
/// The bytecode executor needs exactly two flat slabs per numeric domain —
/// the value slab (node activations, gathers, element-wise sides) and the
/// partial slab (raw tile accumulations) — whose peak demand lowering
/// precomputed ([`crate::bytecode`]). Reserving them is therefore O(1) per
/// run: one length check against the lowered `val_len`/`part_len`, then a
/// memset. After warm-up the steady-state hot path
/// ([`Executor::run_into`] / [`Executor::run_batch_into`]) performs **zero
/// scratch allocation** — the "bind once, serve forever" contract the
/// serving engine builds on: one arena per replica, reused for every batch.
///
/// An arena can even be reused across *different* executors: every run
/// re-reserves and re-zeroes the slab prefix it needs, so nothing can leak
/// between models or batches.
#[derive(Debug, Default)]
pub struct ExecArena {
    /// Bytecode value slab, float domains.
    val_f: Vec<f32>,
    /// Bytecode partial slab, float domains.
    part_f: Vec<f64>,
    /// Bytecode value slab, integer domain.
    val_i: Vec<i64>,
    /// Bytecode partial slab, integer domain.
    part_i: Vec<i64>,
    /// Kernel scratch: per-position row lists + output accumulator rows.
    mac: crate::bytecode::MacScratch,
    #[cfg(feature = "shadow-interp")]
    epoch: u64,
    #[cfg(feature = "shadow-interp")]
    node_f: Slab<f32>,
    #[cfg(feature = "shadow-interp")]
    gather_f: Slab<f32>,
    #[cfg(feature = "shadow-interp")]
    partial_f: Slab<f64>,
    #[cfg(feature = "shadow-interp")]
    node_i: Slab<i64>,
    #[cfg(feature = "shadow-interp")]
    gather_i: Slab<i64>,
    #[cfg(feature = "shadow-interp")]
    partial_i: Slab<i64>,
    #[cfg(feature = "shadow-interp")]
    acc_f: Vec<f64>,
    #[cfg(feature = "shadow-interp")]
    acc_i: Vec<i64>,
    #[cfg(feature = "shadow-interp")]
    eltwise_f: Vec<Vec<f32>>,
    #[cfg(feature = "shadow-interp")]
    eltwise_i: Vec<Vec<i64>>,
}

impl ExecArena {
    /// A fresh, empty arena; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        ExecArena::default()
    }
}

/// Reserve a bytecode slab at `len` elements, zero-filled. Capacity is
/// retained across runs, so the steady state is a pure memset: no allocation.
/// Whole-slab zeroing is what gives scatter targets their zeroed baseline
/// (the interpreter's `claim_zeroed`) before any instruction writes them.
fn grab<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    let s = &mut buf[..len];
    s.fill(T::default());
    s
}

/// The compiled-model executor: bound tile programs lowered to bytecode.
#[derive(Debug)]
pub struct Executor {
    programs: Vec<TileProgram>,
    #[cfg(feature = "shadow-interp")]
    nodes: Vec<Option<NodeInfo>>,
    graph_len: usize,
    #[cfg(feature = "shadow-interp")]
    group_count: usize,
    input: Option<(NodeId, usize)>,
    #[cfg(feature = "shadow-interp")]
    output_view: InputView,
    #[cfg(feature = "shadow-interp")]
    output_steps: Vec<f64>,
    precision_integer: bool,
    activation_levels: i64,
    node_steps: Vec<f64>,
    /// Widest tile output row (sizes the shadow arena's accumulator row).
    #[cfg(feature = "shadow-interp")]
    max_cols: usize,
    /// The lowered bytecode artifact every run dispatches over.
    lowered: Lowered,
    /// Output segments: value-slab region + integer dequantization step.
    out_regions: Vec<(Region, f64)>,
}

impl Executor {
    /// Bind compiled artifacts to numeric parameters, realizing tile weights
    /// in the chosen precision and verifying schedule order and net
    /// transport.
    ///
    /// # Errors
    ///
    /// * [`ExecError::Graph`] — malformed source graph;
    /// * [`ExecError::Unsupported`] — constructs without numeric semantics
    ///   (grouped convolutions share one weight tile across channel groups);
    /// * [`ExecError::ModelMismatch`] — artifacts disagree with the graph or
    ///   parameters;
    /// * [`ExecError::ScheduleOrder`] / [`ExecError::MissingTransport`] —
    ///   invalid compiled artifacts.
    pub fn bind(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        core: &CoreOpGraph,
        mapping: &Mapping,
        precision: &Precision,
    ) -> Result<Executor, ExecError> {
        Self::bind_with_noise_offset(graph, params, core, mapping, precision, 0)
    }

    /// [`Executor::bind`] with the group index of [`Precision::Noisy`]'s
    /// per-PE seed derivation shifted by `noise_group_offset`.
    ///
    /// This is the executor-chaining hook of the multi-fabric sharder: each
    /// pipeline stage re-synthesizes its subgraph, so its group ids restart
    /// at zero, but the physical crossbars it models are the *same* ones the
    /// unsharded compilation would program. Binding stage `k` with the
    /// number of groups synthesized for earlier stages as the offset makes
    /// every PE draw exactly the noise realization it draws in the unsharded
    /// bind (`seeds::pe_index(offset + local_gid, dup)`), which is what lets
    /// the sharded determinism suite demand bit-identical Noisy outputs.
    /// The offset is ignored by the noise-free precisions.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::bind`].
    pub fn bind_with_noise_offset(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        core: &CoreOpGraph,
        mapping: &Mapping,
        precision: &Precision,
        noise_group_offset: usize,
    ) -> Result<Executor, ExecError> {
        let tracer = Tracer::global();
        let span = if tracer.enabled() {
            tracer.enter_with(
                "bind",
                "exec",
                tracer.now_us(),
                SpanId::NONE,
                &[("groups", core.len() as i64)],
            )
        } else {
            fpsa_obs::Span::DISABLED
        };
        let result = Self::bind_inner(graph, params, core, mapping, precision, noise_group_offset);
        if !span.id.is_none() {
            let ts = tracer.now_us();
            if result.is_err() {
                tracer.record(&span, "failed", 1, ts);
            }
            tracer.exit(&span, ts);
        }
        result
    }

    /// The untraced body of [`Executor::bind_with_noise_offset`].
    fn bind_inner(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        core: &CoreOpGraph,
        mapping: &Mapping,
        precision: &Precision,
        noise_group_offset: usize,
    ) -> Result<Executor, ExecError> {
        let shapes = graph.infer_shapes()?;
        let groups = core.len();
        if core
            .edges()
            .iter()
            .any(|&(u, v)| u >= groups || v >= groups)
        {
            return Err(mismatch(
                "a core-graph edge names a group outside the graph",
            ));
        }
        let adjacency = core.adjacency();
        // Per core-graph edge: the buffered edge of the schedule that claims
        // it, or `Adjacency::UNMATCHED` for a direct PE→PE edge.
        let buffered = adjacency.match_edges(&mapping.schedule.buffered_edges);
        verify_schedule_order(core, mapping, &buffered)?;
        verify_transport(core, &adjacency, mapping, &buffered)?;

        let plan = match precision {
            Precision::Integer(plan) => {
                if plan.weight_range.len() != graph.len()
                    || plan.activation_range.len() != graph.len()
                {
                    return Err(mismatch("quantization plan covers a different graph"));
                }
                Some(plan)
            }
            _ => None,
        };

        // Per-node geometry for every node that produced groups.
        let mut nodes: Vec<Option<NodeInfo>> = vec![None; graph.len()];
        let mut node_kinds: HashMap<NodeId, HashSet<CoreOpKind>> = HashMap::new();
        for g in core.groups() {
            node_kinds.entry(g.source_node).or_default().insert(g.kind);
        }
        for (&node_id, _) in node_kinds.iter() {
            let node = graph.node(node_id)?;
            let out_shape = *shapes
                .get(&node_id)
                .ok_or_else(|| mismatch("missing shape"))?;
            let view = reference::resolve_view(graph, &shapes, &node.inputs)?;
            let (h, w) = out_shape.spatial();
            let positions = match out_shape {
                TensorShape::Features(_) => 1,
                TensorShape::Chw { .. } => h * w,
            };
            let (gather_step, out_step, weight_step) = match plan {
                Some(p) => (
                    p.gather_step(&view),
                    p.activation_step(node_id),
                    p.weight_step(node_id),
                ),
                None => (1.0, 1.0, 1.0),
            };
            nodes[node_id] = Some(NodeInfo {
                view,
                elements: out_shape.elements(),
                positions,
                gather_step,
                out_step,
                weight_step,
            });
        }

        // Which nodes keep their VMM tiles as partials (a reduction follows).
        let reduced_nodes: HashSet<NodeId> = core
            .groups()
            .iter()
            .filter(|g| g.kind == CoreOpKind::Reduction)
            .map(|g| g.source_node)
            .collect();

        let wlevels = Quantizer::weights_8bit(1.0).positive_levels();
        // Per-node |w|max cache: scanning a layer's weights once per *tile*
        // is quadratic (VGG16's fc6 alone is 25k tiles × 102M weights), and
        // only the quantizing precisions need the range at all.
        let mut weight_ranges: HashMap<NodeId, f32> = HashMap::new();
        let mut wslab_f: Vec<f32> = Vec::new();
        let mut wslab_q: Vec<i64> = Vec::new();
        let mut programs = Vec::with_capacity(core.len());
        let order = schedule_order(mapping);
        for &gid in &order {
            let g = &core.groups()[gid];
            let node = graph.node(g.source_node)?;
            let info = nodes[g.source_node]
                .as_ref()
                .ok_or_else(|| mismatch(format!("group {} has no node info", g.name)))?;
            // Report grouped convolutions as the documented unsupported
            // construct before any structural cross-check can trip over
            // their doubled reuse degree with a less actionable error.
            if let Operator::Conv2d { groups, .. } = &node.op {
                if *groups != 1 && g.kind == CoreOpKind::Vmm {
                    return Err(ExecError::Unsupported {
                        reason: format!(
                            "grouped convolution {} shares one weight tile across {} channel groups",
                            node.name, groups
                        ),
                    });
                }
            }
            if g.reuse_degree != info.positions as u64 {
                return Err(mismatch(format!(
                    "group {} reuse degree {} != node output positions {}",
                    g.name, g.reuse_degree, info.positions
                )));
            }
            let duplicates = mapping.allocation.per_group.get(gid).copied().unwrap_or(1);
            // Functional output width when it differs from the structural
            // tile width (max-pool stage-1 constructs).
            let mut functional_cols: Option<usize> = None;

            let (kind, writes_output, has_weights) = match (g.kind, &node.op) {
                (CoreOpKind::Vmm, Operator::Linear { .. }) => (
                    ProgramKind::Dense,
                    !reduced_nodes.contains(&g.source_node),
                    true,
                ),
                (
                    CoreOpKind::Vmm,
                    Operator::Conv2d {
                        groups,
                        kernel,
                        stride,
                        padding,
                        ..
                    },
                ) => {
                    if *groups != 1 {
                        return Err(ExecError::Unsupported {
                            reason: format!(
                                "grouped convolution {} shares one weight tile across {} channel groups",
                                node.name, groups
                            ),
                        });
                    }
                    let in_node = node
                        .inputs
                        .first()
                        .ok_or_else(|| mismatch("convolution without input"))?;
                    let (ih, iw) = shapes[in_node].spatial();
                    (
                        ProgramKind::Conv(ConvGeom {
                            kernel: *kernel,
                            stride: *stride,
                            padding: *padding,
                            ih,
                            iw,
                        }),
                        !reduced_nodes.contains(&g.source_node),
                        true,
                    )
                }
                (CoreOpKind::Reduction, _) => {
                    let mut sources = Vec::new();
                    for pred in adjacency.predecessors(gid).iter().map(Neighbor::group) {
                        let p = &core.groups()[pred];
                        if p.source_node != g.source_node {
                            return Err(mismatch(format!(
                                "reduction {} fed by foreign group {}",
                                g.name, p.name
                            )));
                        }
                        let slice = g
                            .col_offset
                            .checked_sub(p.col_offset)
                            .filter(|s| s + g.cols <= p.cols)
                            .ok_or_else(|| {
                                mismatch(format!(
                                    "reduction {} does not slice its partial tile {}",
                                    g.name, p.name
                                ))
                            })?;
                        sources.push((pred, p.cols, slice));
                    }
                    if sources.is_empty() {
                        return Err(mismatch(format!("reduction {} has no sources", g.name)));
                    }
                    (ProgramKind::Reduce(sources), true, false)
                }
                (CoreOpKind::Pooling, Operator::AvgPool2d { kernel, stride }) => {
                    let in_node = node.inputs.first().ok_or_else(|| mismatch("pool input"))?;
                    let (ih, iw) = shapes[in_node].spatial();
                    (
                        ProgramKind::AvgPool(PoolGeom {
                            kernel: *kernel,
                            stride: *stride,
                            ih,
                            iw,
                        }),
                        true,
                        false,
                    )
                }
                (CoreOpKind::Pooling, Operator::GlobalAvgPool) => {
                    let in_node = node.inputs.first().ok_or_else(|| mismatch("gap input"))?;
                    let (ih, iw) = shapes[in_node].spatial();
                    (ProgramKind::GlobalAvgPool { window: ih * iw }, true, false)
                }
                (CoreOpKind::Pooling, Operator::MaxPool2d { kernel, stride }) => {
                    // Stage 2 tiles have a same-node pooling predecessor.
                    let stage1 = adjacency
                        .predecessors(gid)
                        .iter()
                        .map(Neighbor::group)
                        .find(|&p| core.groups()[p].source_node == g.source_node);
                    match stage1 {
                        Some(source) => (ProgramKind::MaxStage2 { source }, true, false),
                        None => {
                            // The construct's structural width is 2·block
                            // (the approximation MLP), but its functional
                            // output is the paired stage-2 tile's block of
                            // window maxima.
                            let stage2 = adjacency
                                .successors(gid)
                                .iter()
                                .map(Neighbor::group)
                                .find(|&s| core.groups()[s].source_node == g.source_node)
                                .ok_or_else(|| {
                                    mismatch(format!(
                                        "max-pool stage-1 tile {} has no stage-2 consumer",
                                        g.name
                                    ))
                                })?;
                            functional_cols = Some(core.groups()[stage2].cols);
                            let in_node =
                                node.inputs.first().ok_or_else(|| mismatch("pool input"))?;
                            let (ih, iw) = shapes[in_node].spatial();
                            (
                                ProgramKind::MaxStage1(PoolGeom {
                                    kernel: *kernel,
                                    stride: *stride,
                                    ih,
                                    iw,
                                }),
                                false,
                                false,
                            )
                        }
                    }
                }
                (CoreOpKind::Eltwise, Operator::Add) => {
                    let mut views = Vec::new();
                    for &input in &node.inputs {
                        views.push(reference::resolve_view(graph, &shapes, &[input])?);
                    }
                    (ProgramKind::Eltwise(views), true, false)
                }
                (kind, op) => {
                    return Err(mismatch(format!(
                        "group {} of kind {:?} does not match operator {}",
                        g.name,
                        kind,
                        op.mnemonic()
                    )));
                }
            };

            // Realize the tile's weight matrix per precision.
            let (weights_f, weights_q) = if has_weights {
                let layer = params
                    .weights(g.source_node)
                    .ok_or_else(|| mismatch(format!("node {} has no parameters", node.name)))?;
                let input_dim = weights::weight_input_dim(&node.op)
                    .ok_or_else(|| mismatch("weighted group on weight-free operator"))?;
                if !weights::tile_fits(g, layer, input_dim) {
                    return Err(mismatch(format!(
                        "tile {} exceeds the parameters of node {}",
                        g.name, node.name
                    )));
                }
                let exact = weights::vmm_tile_matrix(g, layer, input_dim);
                let mut range = || {
                    *weight_ranges
                        .entry(g.source_node)
                        .or_insert_with(|| params.max_abs_weight(g.source_node).max(1e-6))
                };
                match precision {
                    Precision::Float => (vec![exact], Vec::new()),
                    Precision::QuantizedWeights => {
                        let q = Quantizer::weights_8bit(range());
                        (
                            vec![exact.iter().map(|&w| q.round_trip(w)).collect()],
                            Vec::new(),
                        )
                    }
                    Precision::Integer(plan) => {
                        let wstep = plan.weight_step(g.source_node);
                        let codes = exact
                            .iter()
                            .map(|&w| quantize_code(f64::from(w), wstep, wlevels))
                            .collect();
                        // Integer execution reads only the codes; keeping
                        // the float tiles too would double the bound
                        // model's weight memory for nothing.
                        (vec![Vec::new()], codes)
                    }
                    Precision::Noisy {
                        scheme,
                        variation,
                        seed,
                    } => {
                        let range = range();
                        let q = Quantizer::weights_8bit(range);
                        let per_dup = (0..duplicates)
                            .map(|dup| {
                                let mut rng = StdRng::seed_from_u64(seeds::derive(
                                    *seed,
                                    seeds::STREAM_PE_NOISE,
                                    seeds::pe_index(noise_group_offset + gid, dup),
                                ));
                                exact
                                    .iter()
                                    .map(|&w| {
                                        let rt = q.round_trip(w);
                                        let normalized = f64::from(rt) / f64::from(range);
                                        let realized = scheme.realize_signed_weight(
                                            normalized, *variation, &mut rng,
                                        );
                                        (realized * f64::from(range)) as f32
                                    })
                                    .collect()
                            })
                            .collect();
                        (per_dup, Vec::new())
                    }
                }
            } else {
                (vec![Vec::new()], Vec::new())
            };

            // Pack the realizations into the shared weight slabs; the program
            // keeps only `(offset, len)` spans.
            let mut w_f = Vec::with_capacity(weights_f.len());
            for m in weights_f {
                let off = u32::try_from(wslab_f.len())
                    .map_err(|_| mismatch("float weight slab exceeds u32 range"))?;
                let len = u32::try_from(m.len())
                    .map_err(|_| mismatch("weight tile exceeds u32 range"))?;
                wslab_f.extend_from_slice(&m);
                w_f.push((off, len));
            }
            let w_q = {
                let off = u32::try_from(wslab_q.len())
                    .map_err(|_| mismatch("integer weight slab exceeds u32 range"))?;
                let len = u32::try_from(weights_q.len())
                    .map_err(|_| mismatch("weight tile exceeds u32 range"))?;
                wslab_q.extend_from_slice(&weights_q);
                (off, len)
            };

            programs.push(TileProgram {
                group: gid,
                node: g.source_node,
                kind,
                relu: g.relu,
                writes_output,
                positions: info.positions,
                cols: functional_cols.unwrap_or(g.cols),
                col_offset: g.col_offset,
                rows: g.rows,
                row_offset: g.row_offset,
                w_f,
                w_q,
                duplicates: duplicates.max(1),
            });
        }

        let outputs = graph.outputs();
        let [output] = outputs[..] else {
            return Err(mismatch(format!(
                "execution needs one output node, got {outputs:?}"
            )));
        };
        let output_view = reference::resolve_view(graph, &shapes, &[output])?;
        let input_nodes: Vec<(NodeId, usize)> = graph
            .nodes()
            .iter()
            .filter_map(|n| match n.op {
                Operator::Input { shape } => Some((n.id, shape.elements())),
                _ => None,
            })
            .collect();
        let [input] = input_nodes[..] else {
            return Err(mismatch(format!(
                "execution needs one input node, got {}",
                input_nodes.len()
            )));
        };
        let (output_steps, node_steps, activation_levels) = match plan {
            Some(p) => (
                output_view
                    .iter()
                    .map(|s| p.activation_step(s.source))
                    .collect(),
                (0..graph.len()).map(|n| p.activation_step(n)).collect(),
                p.activation_levels(),
            ),
            None => (vec![1.0; output_view.len()], vec![1.0; graph.len()], 0),
        };

        #[cfg(feature = "shadow-interp")]
        let max_cols = programs.iter().map(|p| p.cols).max().unwrap_or(0);
        // Lower the bound programs into the bytecode stream the runs
        // dispatch over (see `crate::lower`); the weight slabs move into the
        // lowered artifact.
        let mut lowered = lower::lower(LowerCtx {
            programs: &programs,
            nodes: &nodes,
            graph_len: graph.len(),
            input,
            node_steps: &node_steps,
            integer: plan.is_some(),
            wslab_f,
            wslab_q,
        })?;
        // Pick the MAC kernel family once per bind; the dispatch loops just
        // match on the stored selector.
        lowered.simd = crate::kernels::Simd::detect();
        let out_regions = output_view
            .iter()
            .zip(&output_steps)
            .map(|(segment, &step)| {
                lowered.node_regions[segment.source]
                    .map(|region| (region, step))
                    .ok_or_else(|| mismatch("output node never executed"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Executor {
            programs,
            #[cfg(feature = "shadow-interp")]
            nodes,
            graph_len: graph.len(),
            #[cfg(feature = "shadow-interp")]
            group_count: core.len(),
            input: Some(input),
            #[cfg(feature = "shadow-interp")]
            output_view,
            #[cfg(feature = "shadow-interp")]
            output_steps,
            precision_integer: plan.is_some(),
            activation_levels,
            node_steps,
            #[cfg(feature = "shadow-interp")]
            max_cols,
            lowered,
            out_regions,
        })
    }

    /// Whether the executor runs in the integer-code domain.
    pub fn is_integer(&self) -> bool {
        self.precision_integer
    }

    /// The realized float weight matrix of a group's duplicate (`None` for
    /// weight-free tiles, and in [`Precision::Integer`] where only the
    /// codes are kept) — lets tests pin the realization bit for bit.
    pub fn tile_weights(&self, group: GroupId, duplicate: u64) -> Option<&[f32]> {
        self.programs
            .iter()
            .find(|p| p.group == group)
            .map(|p| {
                let (off, len) = p.w_f[(duplicate as usize) % p.w_f.len()];
                &self.lowered.wslab_f[off as usize..(off + len) as usize]
            })
            .filter(|w| !w.is_empty())
    }

    /// Human-readable disassembly of the first `limit` lowered bytecode
    /// instructions — the debug window into what [`Executor::bind`] compiled.
    pub fn disassemble(&self, limit: usize) -> String {
        self.lowered.disassemble(limit)
    }

    /// What lowering did to this model: instruction and row-run counts,
    /// structural sparsity skips, view aliasing, and flat slab sizes.
    pub fn lowering_stats(&self) -> &LowerStats {
        &self.lowered.stats
    }

    /// A fresh scratch arena sized for this executor (see [`ExecArena`]).
    pub fn arena(&self) -> ExecArena {
        ExecArena::new()
    }

    /// The element count the graph's input node expects.
    pub fn input_len(&self) -> Option<usize> {
        self.input.map(|(_, len)| len)
    }

    /// Execute one sample, returning the network logits.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ModelMismatch`] when the input length is wrong.
    pub fn run(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let tracer = Tracer::global();
        let span = if tracer.enabled() {
            tracer.enter("exec.run", "exec", tracer.now_us(), SpanId::NONE)
        } else {
            fpsa_obs::Span::DISABLED
        };
        let mut arena = ExecArena::new();
        let mut out = Vec::new();
        let result = self.run_into(input, &mut arena, &mut out);
        if !span.id.is_none() {
            let ts = tracer.now_us();
            if result.is_err() {
                tracer.record(&span, "failed", 1, ts);
            }
            tracer.exit(&span, ts);
        }
        result.map(|()| out)
    }

    /// Execute one sample into `out`, reusing `arena` for all scratch.
    ///
    /// Bit-identical to [`Executor::run`] (which is this call on a throwaway
    /// arena); the arena only changes where the intermediates live, never the
    /// arithmetic. `out` is cleared and refilled, retaining its capacity.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    pub fn run_into(
        &self,
        input: &[f32],
        arena: &mut ExecArena,
        out: &mut Vec<f32>,
    ) -> Result<(), ExecError> {
        out.clear();
        if self.precision_integer {
            self.run_integer_bc(input, arena)?;
        } else {
            self.run_float_bc(input, arena)?;
        }
        self.extract_output(arena, out);
        Ok(())
    }

    /// Copy the output nodes' lowered regions into `out` (dequantizing codes
    /// in the integer domain).
    fn extract_output(&self, arena: &ExecArena, out: &mut Vec<f32>) {
        if self.precision_integer {
            self.output_from_i(&arena.val_i, out);
        } else {
            self.output_from_f(&arena.val_f, out);
        }
    }

    /// Extract the float output segments from one value slab.
    fn output_from_f(&self, vals: &[f32], out: &mut Vec<f32>) {
        out.clear();
        for &(region, _) in &self.out_regions {
            out.extend_from_slice(&vals[region.range()]);
        }
    }

    /// Extract + dequantize the integer output segments from one value slab.
    fn output_from_i(&self, vals: &[i64], out: &mut Vec<f32>) {
        out.clear();
        for &(region, step) in &self.out_regions {
            out.extend(
                vals[region.range()]
                    .iter()
                    .map(|&c| (c as f64 * step) as f32),
            );
        }
    }

    /// Dispatch the float bytecode stream over the arena's flat slabs.
    fn run_float_bc(&self, input: &[f32], arena: &mut ExecArena) -> Result<(), ExecError> {
        let in_node = self.checked_input_node(input)?;
        let region = self.lowered.node_regions[in_node].expect("input region is lowered");
        let vals = grab(&mut arena.val_f, self.lowered.val_len);
        let parts = grab(&mut arena.part_f, self.lowered.part_len);
        vals[region.range()].copy_from_slice(input);
        self.lowered.exec_float(vals, parts, &mut arena.mac);
        Ok(())
    }

    /// Dispatch the integer bytecode stream: quantize the sample into the
    /// input node's region, then run the code-domain stream.
    fn run_integer_bc(&self, input: &[f32], arena: &mut ExecArena) -> Result<(), ExecError> {
        let in_node = self.checked_input_node(input)?;
        let region = self.lowered.node_regions[in_node].expect("input region is lowered");
        let step = self.node_steps[in_node];
        let alevels = self.activation_levels;
        let vals = grab(&mut arena.val_i, self.lowered.val_len);
        let parts = grab(&mut arena.part_i, self.lowered.part_len);
        for (dst, &v) in vals[region.range()].iter_mut().zip(input) {
            *dst = quantize_code(f64::from(v), step, alevels);
        }
        self.lowered
            .exec_integer(vals, parts, alevels, &mut arena.mac);
        Ok(())
    }

    /// Execute a batch of samples sequentially on one replica's arena,
    /// writing into `outputs` (resized to the batch, element capacity
    /// recycled). This is the serving engine's hot path: after warm-up the
    /// call performs zero scratch allocation, and results are bit-identical
    /// to per-sample [`Executor::run`] calls.
    ///
    /// Parallelism is deliberately left to the caller (one arena serves one
    /// thread); the rayon-backed [`Executor::run_batch`] fans out
    /// sample-parallel instead.
    ///
    /// # Errors
    ///
    /// The first per-sample error, if any; `outputs` is then truncated to
    /// the samples that completed, so it can never expose stale results
    /// from a previous batch.
    pub fn run_batch_into(
        &self,
        inputs: &[Vec<f32>],
        arena: &mut ExecArena,
        outputs: &mut Vec<Vec<f32>>,
    ) -> Result<(), ExecError> {
        let tracer = Tracer::global();
        if !tracer.enabled() {
            return self.run_batch_into_untraced(inputs, arena, outputs);
        }
        let span = tracer.enter_with(
            "exec.batch",
            "exec",
            tracer.now_us(),
            SpanId::NONE,
            &[("batch", inputs.len() as i64)],
        );
        let result = self.run_batch_into_untraced(inputs, arena, outputs);
        let ts = tracer.now_us();
        if result.is_err() {
            tracer.record(&span, "failed", 1, ts);
        }
        tracer.exit(&span, ts);
        result
    }

    /// [`Executor::run_batch_into`] minus the span bracket: the telemetry
    /// A/B baseline the obs overhead bench compares against. Not part of
    /// the public API contract.
    #[doc(hidden)]
    pub fn run_batch_into_untraced(
        &self,
        inputs: &[Vec<f32>],
        arena: &mut ExecArena,
        outputs: &mut Vec<Vec<f32>>,
    ) -> Result<(), ExecError> {
        // The instruction-major fast path needs every sample validated up
        // front; a batch with a malformed sample (or a single sample) takes
        // the sequential path, which preserves the documented truncation
        // contract exactly.
        let all_valid = inputs.iter().all(|i| self.checked_input_node(i).is_ok());
        if inputs.len() < 2 || !all_valid {
            outputs.resize_with(inputs.len(), Vec::new);
            for (i, input) in inputs.iter().enumerate() {
                if let Err(e) = self.run_into(input, arena, &mut outputs[i]) {
                    outputs.truncate(i);
                    return Err(e);
                }
            }
            return Ok(());
        }

        // Weight-stationary batch execution: all samples' slabs are laid out
        // back to back and the stream runs instruction-major, so each weight
        // tile streams from memory once per batch instead of once per
        // sample. Per-sample arithmetic and ordering are untouched —
        // bit-identical to sequential `run_into` calls.
        let b = inputs.len();
        let in_node = self.checked_input_node(&inputs[0])?;
        let region = self.lowered.node_regions[in_node].expect("input region is lowered");
        let (val_len, part_len) = (self.lowered.val_len, self.lowered.part_len);
        outputs.resize_with(b, Vec::new);
        if self.precision_integer {
            let step = self.node_steps[in_node];
            let alevels = self.activation_levels;
            let vals = grab(&mut arena.val_i, b * val_len);
            let parts = grab(&mut arena.part_i, b * part_len);
            for (s, input) in inputs.iter().enumerate() {
                let dst = s * val_len + region.off as usize;
                for (dst, &v) in vals[dst..dst + region.len as usize].iter_mut().zip(input) {
                    *dst = quantize_code(f64::from(v), step, alevels);
                }
            }
            self.lowered
                .exec_integer_batch(vals, parts, b, alevels, &mut arena.mac);
            for (s, out) in outputs.iter_mut().enumerate() {
                self.output_from_i(&arena.val_i[s * val_len..(s + 1) * val_len], out);
            }
        } else {
            let vals = grab(&mut arena.val_f, b * val_len);
            let parts = grab(&mut arena.part_f, b * part_len);
            for (s, input) in inputs.iter().enumerate() {
                let dst = s * val_len + region.off as usize;
                vals[dst..dst + region.len as usize].copy_from_slice(input);
            }
            self.lowered
                .exec_float_batch(vals, parts, b, &mut arena.mac);
            for (s, out) in outputs.iter_mut().enumerate() {
                self.output_from_f(&arena.val_f[s * val_len..(s + 1) * val_len], out);
            }
        }
        Ok(())
    }

    /// Execute one sample in the integer domain, returning the output codes
    /// (for bit-for-bit comparison with the quantized reference).
    ///
    /// # Errors
    ///
    /// [`ExecError::Unsupported`] outside [`Precision::Integer`].
    pub fn run_codes(&self, input: &[f32]) -> Result<Vec<i64>, ExecError> {
        if !self.precision_integer {
            return Err(ExecError::Unsupported {
                reason: "run_codes requires Precision::Integer".into(),
            });
        }
        let mut arena = ExecArena::new();
        self.run_integer_bc(input, &mut arena)?;
        let mut out = Vec::new();
        for &(region, _) in &self.out_regions {
            out.extend_from_slice(&arena.val_i[region.range()]);
        }
        Ok(out)
    }

    /// Execute one sample and return per-node activation buffers (dequantized
    /// in integer mode) — the hook for per-layer differential comparison.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    pub fn run_nodes(&self, input: &[f32]) -> Result<Vec<Option<Vec<f32>>>, ExecError> {
        let mut arena = ExecArena::new();
        if self.precision_integer {
            self.run_integer_bc(input, &mut arena)?;
            Ok((0..self.graph_len)
                .map(|node| {
                    self.lowered.node_regions[node].map(|region| {
                        arena.val_i[region.range()]
                            .iter()
                            .map(|&c| (c as f64 * self.node_steps[node]) as f32)
                            .collect()
                    })
                })
                .collect())
        } else {
            self.run_float_bc(input, &mut arena)?;
            Ok((0..self.graph_len)
                .map(|node| {
                    self.lowered.node_regions[node]
                        .map(|region| arena.val_f[region.range()].to_vec())
                })
                .collect())
        }
    }

    /// Execute one sample on the retired interpreter (the shadow reference
    /// the bytecode stream is differentially checked against).
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    #[cfg(feature = "shadow-interp")]
    pub fn run_interpreted(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let mut out = Vec::new();
        self.run_interpreted_into(input, &mut ExecArena::new(), &mut out)?;
        Ok(out)
    }

    /// [`Executor::run_interpreted`] with a caller-owned arena: the
    /// interpreter exactly as the pre-bytecode `run_into` hot path ran it,
    /// bind- and allocation-amortized. This is the baseline the forward-pass
    /// speedup bench measures the bytecode stream against.
    ///
    /// # Errors
    ///
    /// Same surface as [`Executor::run_into`].
    #[cfg(feature = "shadow-interp")]
    pub fn run_interpreted_into(
        &self,
        input: &[f32],
        arena: &mut ExecArena,
        out: &mut Vec<f32>,
    ) -> Result<(), ExecError> {
        out.clear();
        if self.precision_integer {
            self.run_integer_arena(input, arena)?;
        } else {
            self.run_float_arena(input, arena)?;
        }
        out.extend_from_slice(&self.interpreted_output(arena)?);
        Ok(())
    }

    /// Gather the interpreter arena's output nodes (dequantized in the
    /// integer domain) — the pre-bytecode `run_into` extraction.
    #[cfg(feature = "shadow-interp")]
    fn interpreted_output(&self, arena: &ExecArena) -> Result<Vec<f32>, ExecError> {
        let mut out = Vec::new();
        if self.precision_integer {
            for (segment, &step) in self.output_view.iter().zip(&self.output_steps) {
                let codes = arena
                    .node_i
                    .get(segment.source, arena.epoch)
                    .ok_or_else(|| mismatch("output node never executed"))?;
                out.extend(codes.iter().map(|&c| (c as f64 * step) as f32));
            }
        } else {
            for segment in &self.output_view {
                out.extend_from_slice(
                    arena
                        .node_f
                        .get(segment.source, arena.epoch)
                        .ok_or_else(|| mismatch("output node never executed"))?,
                );
            }
        }
        Ok(out)
    }

    /// Execute one sample on **both** the bytecode stream and the shadow
    /// interpreter, asserting bit-identical activations for every lowered
    /// node (`f32` bit patterns / `i64` codes) and bit-identical outputs,
    /// then return the bytecode output. This is the differential suite's
    /// cross-check: it is what lets the repo keep exactly one production
    /// executor.
    ///
    /// # Panics
    ///
    /// Panics when any node buffer or output diverges — a lowering bug.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    #[cfg(feature = "shadow-interp")]
    pub fn run_checked(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let mut bc = ExecArena::new();
        let mut shadow = ExecArena::new();
        if self.precision_integer {
            self.run_integer_bc(input, &mut bc)?;
            self.run_integer_arena(input, &mut shadow)?;
            for node in 0..self.graph_len {
                let Some(region) = self.lowered.node_regions[node] else {
                    continue;
                };
                let got = &bc.val_i[region.range()];
                let want = shadow
                    .node_i
                    .get(node, shadow.epoch)
                    .ok_or_else(|| mismatch("interpreter skipped a lowered node"))?;
                assert_eq!(
                    got, want,
                    "bytecode diverged from the interpreter at node {node}"
                );
            }
        } else {
            self.run_float_bc(input, &mut bc)?;
            self.run_float_arena(input, &mut shadow)?;
            for node in 0..self.graph_len {
                let Some(region) = self.lowered.node_regions[node] else {
                    continue;
                };
                let got = &bc.val_f[region.range()];
                let want = shadow
                    .node_f
                    .get(node, shadow.epoch)
                    .ok_or_else(|| mismatch("interpreter skipped a lowered node"))?;
                assert_eq!(got.len(), want.len(), "node {node} length diverged");
                for (i, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "bytecode diverged from the interpreter at node {node}[{i}]: {g} vs {w}"
                    );
                }
            }
        }
        let mut out = Vec::new();
        self.extract_output(&bc, &mut out);
        let interpreted = self.interpreted_output(&shadow)?;
        assert_eq!(out.len(), interpreted.len(), "output length diverged");
        for (i, (g, w)) in out.iter().zip(&interpreted).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "output[{i}] diverged: {g} vs {w}");
        }
        Ok(out)
    }

    /// Execute a batch of samples in parallel (rayon), preserving order.
    /// Weight noise is realized at bind time and per-sample execution is
    /// pure, so results are bit-identical to running samples sequentially,
    /// for any thread count or chunking.
    ///
    /// # Errors
    ///
    /// The first per-sample error, if any.
    pub fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ExecError> {
        let results: Vec<Result<Vec<f32>, ExecError>> =
            inputs.par_iter().map(|x| self.run(x)).collect();
        results.into_iter().collect()
    }

    /// Classification accuracy over a labelled sample set (argmax of logits).
    ///
    /// # Errors
    ///
    /// Propagates per-sample execution errors.
    pub fn accuracy(&self, samples: &[Vec<f32>], labels: &[usize]) -> Result<f64, ExecError> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let outputs = self.run_batch(samples)?;
        let correct = outputs
            .iter()
            .zip(labels)
            .filter(|(logits, &label)| fpsa_nn::mlp::argmax(logits) == label)
            .count();
        Ok(correct as f64 / samples.len() as f64)
    }

    /// Float-domain execution of all tile programs in schedule order, into
    /// the arena's epoch-stamped buffers.
    ///
    /// The Dense/Conv inner loops run column-major over the accumulator row
    /// (`for r { for c { acc[c] += w[r][c] * x[r] } }`): each output's f64
    /// accumulator still receives its terms in exactly the same `r` order as
    /// the classic `for c { for r { .. } }` nesting, so results are
    /// bit-identical — but the weight matrix is now read contiguously, which
    /// is what makes the serving hot path fast.
    #[cfg(feature = "shadow-interp")]
    fn run_float_arena(&self, input: &[f32], arena: &mut ExecArena) -> Result<(), ExecError> {
        arena.epoch += 1;
        let epoch = arena.epoch;
        let ExecArena {
            node_f,
            gather_f,
            partial_f,
            acc_f,
            eltwise_f,
            ..
        } = arena;
        node_f.ensure(self.graph_len);
        gather_f.ensure(self.graph_len);
        partial_f.ensure(self.group_count);
        acc_f.resize(self.max_cols, 0.0);

        let in_node = self.checked_input_node(input)?;
        node_f.claim(in_node, epoch).extend_from_slice(input);

        for prog in &self.programs {
            let info = self.nodes[prog.node].as_ref().expect("bound node info");
            if needs_gather(&prog.kind) && !gather_f.live(prog.node, epoch) {
                let dst = gather_f.claim(prog.node, epoch);
                dst.reserve(info.view.iter().map(|s| s.elements).sum());
                for segment in &info.view {
                    dst.extend_from_slice(
                        node_f
                            .get(segment.source, epoch)
                            .ok_or_else(|| mismatch("producer executed after consumer"))?,
                    );
                }
            }
            let positions = prog.positions;
            if prog.writes_output {
                if !node_f.live(prog.node, epoch) {
                    node_f.claim_zeroed(prog.node, info.elements, epoch);
                }
            } else {
                partial_f.claim_zeroed(prog.group, positions * prog.cols, epoch);
            }
            // Element-wise tiles read each Add side once per program.
            if let ProgramKind::Eltwise(views) = &prog.kind {
                if eltwise_f.len() < views.len() {
                    eltwise_f.resize_with(views.len(), Vec::new);
                }
                for (side, view) in eltwise_f.iter_mut().zip(views) {
                    side.clear();
                    for segment in view {
                        side.extend_from_slice(
                            node_f
                                .get(segment.source, epoch)
                                .ok_or_else(|| mismatch("producer executed after consumer"))?,
                        );
                    }
                }
            }

            let acc = &mut acc_f[..prog.cols];
            for p in 0..positions {
                match &prog.kind {
                    ProgramKind::Dense => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        let w = self.interp_weights(prog, p);
                        acc.fill(0.0);
                        for r in 0..prog.rows {
                            let xv = f64::from(x[prog.row_offset + r]);
                            let row = &w[r * prog.cols..(r + 1) * prog.cols];
                            for (a, &wv) in acc.iter_mut().zip(row) {
                                *a += f64::from(wv) * xv;
                            }
                        }
                    }
                    ProgramKind::Conv(geom) => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        let w = self.interp_weights(prog, p);
                        let (oy, ox) = (p / out_w(geom), p % out_w(geom));
                        acc.fill(0.0);
                        for r in 0..prog.rows {
                            if let Some(idx) = conv_input_index(geom, prog.row_offset + r, oy, ox) {
                                let xv = f64::from(x[idx]);
                                let row = &w[r * prog.cols..(r + 1) * prog.cols];
                                for (a, &wv) in acc.iter_mut().zip(row) {
                                    *a += f64::from(wv) * xv;
                                }
                            }
                        }
                    }
                    ProgramKind::Reduce(sources) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let mut sum = 0.0f64;
                            for &(pred, pred_cols, slice) in sources {
                                sum += partial_f.get(pred, epoch).ok_or_else(|| {
                                    mismatch("reduction ran before its partial tiles")
                                })?[p * pred_cols + slice + c];
                            }
                            *a = sum;
                        }
                    }
                    ProgramKind::AvgPool(geom) => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        let ow = out_w_pool(geom);
                        let (oy, ox) = (p / ow, p % ow);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut sum = 0.0f64;
                            for ky in 0..geom.kernel {
                                for kx in 0..geom.kernel {
                                    sum += f64::from(
                                        x[channel * geom.ih * geom.iw
                                            + (oy * geom.stride + ky) * geom.iw
                                            + ox * geom.stride
                                            + kx],
                                    );
                                }
                            }
                            *a = sum / (geom.kernel * geom.kernel) as f64;
                        }
                    }
                    ProgramKind::GlobalAvgPool { window } => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let sum: f64 = (0..*window)
                                .map(|i| f64::from(x[channel * window + i]))
                                .sum();
                            *a = sum / *window as f64;
                        }
                    }
                    ProgramKind::MaxStage1(geom) => {
                        let x = gather_f.get(prog.node, epoch).expect("gathered input");
                        let ow = out_w_pool(geom);
                        let (oy, ox) = (p / ow, p % ow);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut max = f64::NEG_INFINITY;
                            for ky in 0..geom.kernel {
                                for kx in 0..geom.kernel {
                                    max = max.max(f64::from(
                                        x[channel * geom.ih * geom.iw
                                            + (oy * geom.stride + ky) * geom.iw
                                            + ox * geom.stride
                                            + kx],
                                    ));
                                }
                            }
                            *a = max;
                        }
                    }
                    ProgramKind::MaxStage2 { source } => {
                        let stage1 = partial_f
                            .get(*source, epoch)
                            .ok_or_else(|| mismatch("max-pool stage 2 ran before stage 1"))?;
                        for (c, a) in acc.iter_mut().enumerate() {
                            *a = stage1[p * prog.cols + c];
                        }
                    }
                    ProgramKind::Eltwise(views) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut sum = 0.0f64;
                            for x in &eltwise_f[..views.len()] {
                                sum += f64::from(x[channel * positions + p]);
                            }
                            *a = sum;
                        }
                    }
                }
                // Scatter the accumulator row (fused ReLU at output
                // boundaries), exactly like the pre-arena store path.
                if prog.writes_output {
                    let buf = node_f.get_mut(prog.node, epoch).expect("allocated output");
                    for (c, &a) in acc.iter().enumerate() {
                        let a = if prog.relu { a.max(0.0) } else { a };
                        buf[(prog.col_offset + c) * positions + p] = a as f32;
                    }
                } else {
                    let out = partial_f
                        .get_mut(prog.group, epoch)
                        .expect("allocated partial");
                    for (c, &a) in acc.iter().enumerate() {
                        out[p * prog.cols + c] = a;
                    }
                }
            }
        }
        Ok(())
    }

    /// Integer-domain execution (see module docs; bit-for-bit against the
    /// quantized reference), into the arena's epoch-stamped buffers.
    #[cfg(feature = "shadow-interp")]
    fn run_integer_arena(&self, input: &[f32], arena: &mut ExecArena) -> Result<(), ExecError> {
        let alevels = self.activation_levels;
        arena.epoch += 1;
        let epoch = arena.epoch;
        let ExecArena {
            node_i,
            gather_i,
            partial_i,
            acc_i,
            eltwise_i,
            ..
        } = arena;
        node_i.ensure(self.graph_len);
        gather_i.ensure(self.graph_len);
        partial_i.ensure(self.group_count);
        acc_i.resize(self.max_cols, 0);

        let in_node = self.checked_input_node(input)?;
        let step = self.node_steps[in_node];
        let buf = node_i.claim(in_node, epoch);
        buf.extend(
            input
                .iter()
                .map(|&v| quantize_code(f64::from(v), step, alevels)),
        );

        for prog in &self.programs {
            let info = self.nodes[prog.node].as_ref().expect("bound node info");
            if needs_gather(&prog.kind) && !gather_i.live(prog.node, epoch) {
                // Gather the node's logical input codes at the view's gather
                // step — exactly the reference's rule.
                let dst = gather_i.claim(prog.node, epoch);
                for segment in &info.view {
                    let step = self.node_steps[segment.source];
                    let codes = node_i
                        .get(segment.source, epoch)
                        .ok_or_else(|| mismatch("producer executed after consumer"))?;
                    dst.extend(
                        codes
                            .iter()
                            .map(|&c| rescale_code(c, step, info.gather_step, alevels)),
                    );
                }
            }
            let positions = prog.positions;
            if prog.writes_output {
                if !node_i.live(prog.node, epoch) {
                    node_i.claim_zeroed(prog.node, info.elements, epoch);
                }
            } else {
                partial_i.claim_zeroed(prog.group, positions * prog.cols, epoch);
            }
            // Element-wise tiles: gather each Add side once, already
            // rescaled from the side's own gather step to the node's —
            // the reference's exact double-rescale composition.
            if let ProgramKind::Eltwise(views) = &prog.kind {
                if eltwise_i.len() < views.len() {
                    eltwise_i.resize_with(views.len(), Vec::new);
                }
                for (side, view) in eltwise_i.iter_mut().zip(views) {
                    side.clear();
                    let sstep = side_gather_step(&self.node_steps, view);
                    for segment in view {
                        let step = self.node_steps[segment.source];
                        let codes = node_i
                            .get(segment.source, epoch)
                            .ok_or_else(|| mismatch("producer executed after consumer"))?;
                        side.extend(codes.iter().map(|&c| {
                            let gathered = rescale_code(c, step, sstep, alevels);
                            rescale_code(gathered, sstep, info.gather_step, alevels)
                        }));
                    }
                }
            }

            // MAC-producing tiles requantize on store; the other kinds
            // compute their final code (or raw partial value) directly.
            let mac_store = matches!(
                prog.kind,
                ProgramKind::Dense | ProgramKind::Conv(_) | ProgramKind::Reduce(_)
            );
            let acc = &mut acc_i[..prog.cols];
            for p in 0..positions {
                match &prog.kind {
                    ProgramKind::Dense => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        let wq = self.interp_weights_q(prog);
                        acc.fill(0);
                        for r in 0..prog.rows {
                            let xv = x[prog.row_offset + r];
                            let row = &wq[r * prog.cols..(r + 1) * prog.cols];
                            for (a, &wv) in acc.iter_mut().zip(row) {
                                *a += wv * xv;
                            }
                        }
                    }
                    ProgramKind::Conv(geom) => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        let wq = self.interp_weights_q(prog);
                        let (oy, ox) = (p / out_w(geom), p % out_w(geom));
                        acc.fill(0);
                        for r in 0..prog.rows {
                            if let Some(idx) = conv_input_index(geom, prog.row_offset + r, oy, ox) {
                                let xv = x[idx];
                                let row = &wq[r * prog.cols..(r + 1) * prog.cols];
                                for (a, &wv) in acc.iter_mut().zip(row) {
                                    *a += wv * xv;
                                }
                            }
                        }
                    }
                    ProgramKind::Reduce(sources) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let mut sum = 0i64;
                            for &(pred, pred_cols, slice) in sources {
                                sum += partial_i.get(pred, epoch).ok_or_else(|| {
                                    mismatch("reduction ran before its partial tiles")
                                })?[p * pred_cols + slice + c];
                            }
                            *a = sum;
                        }
                    }
                    ProgramKind::AvgPool(geom) => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        let ow = out_w_pool(geom);
                        let (oy, ox) = (p / ow, p % ow);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let real = pooled_window_real(
                                x,
                                channel,
                                oy,
                                ox,
                                geom.kernel,
                                geom.stride,
                                geom.ih,
                                geom.iw,
                                info.gather_step,
                                false,
                            );
                            *a = quantize_code(real, info.out_step, alevels);
                        }
                    }
                    ProgramKind::GlobalAvgPool { window } => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let sum: i64 = (0..*window).map(|i| x[channel * window + i]).sum();
                            let real = sum as f64 * info.gather_step / *window as f64;
                            *a = quantize_code(real, info.out_step, alevels);
                        }
                    }
                    ProgramKind::MaxStage1(geom) => {
                        let x = gather_i.get(prog.node, epoch).expect("gathered input");
                        let ow = out_w_pool(geom);
                        let (oy, ox) = (p / ow, p % ow);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut max = i64::MIN;
                            for ky in 0..geom.kernel {
                                for kx in 0..geom.kernel {
                                    max = max.max(
                                        x[channel * geom.ih * geom.iw
                                            + (oy * geom.stride + ky) * geom.iw
                                            + ox * geom.stride
                                            + kx],
                                    );
                                }
                            }
                            *a = max;
                        }
                    }
                    ProgramKind::MaxStage2 { source } => {
                        let stage1 = partial_i
                            .get(*source, epoch)
                            .ok_or_else(|| mismatch("max-pool stage 2 ran before stage 1"))?;
                        for (c, a) in acc.iter_mut().enumerate() {
                            // Identical composition to the reference's
                            // max-pool path: real value, then requantize.
                            let real = stage1[p * prog.cols + c] as f64 * info.gather_step;
                            *a = quantize_code(real, info.out_step, alevels);
                        }
                    }
                    ProgramKind::Eltwise(views) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut sum = 0i64;
                            for x in &eltwise_i[..views.len()] {
                                sum += x[channel * positions + p];
                            }
                            let sum = if prog.relu { sum.max(0) } else { sum };
                            *a = rescale_code(sum, info.gather_step, info.out_step, alevels);
                        }
                    }
                }
                if prog.writes_output {
                    let buf = node_i.get_mut(prog.node, epoch).expect("allocated output");
                    for (c, &a) in acc.iter().enumerate() {
                        let code = if mac_store {
                            requantize_mac(
                                a,
                                info.weight_step,
                                info.gather_step,
                                prog.relu,
                                info.out_step,
                                alevels,
                            )
                        } else {
                            a
                        };
                        buf[(prog.col_offset + c) * positions + p] = code;
                    }
                } else {
                    // Partial tiles keep the raw accumulation (MAC partials
                    // awaiting a reduction, stage-1 window maxima).
                    let out = partial_i
                        .get_mut(prog.group, epoch)
                        .expect("allocated partial");
                    for (c, &a) in acc.iter().enumerate() {
                        out[p * prog.cols + c] = a;
                    }
                }
            }
        }
        Ok(())
    }

    /// The float weight matrix instance `i` of a tile executes on (the
    /// interpreter's per-position duplicate selection, reading the slab).
    #[cfg(feature = "shadow-interp")]
    fn interp_weights(&self, prog: &TileProgram, instance: usize) -> &[f32] {
        let dup = (instance as u64 % prog.duplicates) as usize;
        let (off, len) = prog.w_f[dup % prog.w_f.len()];
        &self.lowered.wslab_f[off as usize..(off + len) as usize]
    }

    /// A tile's integer weight codes (shared across duplicates).
    #[cfg(feature = "shadow-interp")]
    fn interp_weights_q(&self, prog: &TileProgram) -> &[i64] {
        let (off, len) = prog.w_q;
        &self.lowered.wslab_q[off as usize..(off + len) as usize]
    }

    /// The graph's single input node, after validating the sample length.
    fn checked_input_node(&self, input: &[f32]) -> Result<NodeId, ExecError> {
        let (node, len) = self.input_node()?;
        if input.len() != len {
            return Err(mismatch(format!(
                "input has {} elements, graph expects {}",
                input.len(),
                len
            )));
        }
        Ok(node)
    }

    /// `(node id, element count)` of the graph's single input node: every
    /// tile view ultimately reads from it, and the executor records it as
    /// the node every view segment may reference without a producing tile.
    fn input_node(&self) -> Result<(NodeId, usize), ExecError> {
        self.input
            .ok_or_else(|| mismatch("graph has no input node"))
    }
}

/// Views gather the node's logical input for these kinds.
#[cfg(feature = "shadow-interp")]
fn needs_gather(kind: &ProgramKind) -> bool {
    matches!(
        kind,
        ProgramKind::Dense
            | ProgramKind::Conv(_)
            | ProgramKind::AvgPool(_)
            | ProgramKind::GlobalAvgPool { .. }
            | ProgramKind::MaxStage1(_)
    )
}

/// Output width of a convolution node (positions are row-major `oy * ow + ox`).
#[cfg(feature = "shadow-interp")]
fn out_w(geom: &ConvGeom) -> usize {
    (geom.iw + 2 * geom.padding - geom.kernel) / geom.stride + 1
}

/// Output width of a pooling node.
#[cfg(feature = "shadow-interp")]
fn out_w_pool(geom: &PoolGeom) -> usize {
    (geom.iw - geom.kernel) / geom.stride + 1
}

/// The im2col input index of one (absolute row, output position), or `None`
/// for zero padding. Rows are `(channel * k + ky) * k + kx`.
#[cfg(feature = "shadow-interp")]
fn conv_input_index(geom: &ConvGeom, row: usize, oy: usize, ox: usize) -> Option<usize> {
    let k = geom.kernel;
    let channel = row / (k * k);
    let rem = row % (k * k);
    let (ky, kx) = (rem / k, rem % k);
    let y = (oy * geom.stride + ky) as isize - geom.padding as isize;
    let x = (ox * geom.stride + kx) as isize - geom.padding as isize;
    if y < 0 || x < 0 || y >= geom.ih as isize || x >= geom.iw as isize {
        return None;
    }
    Some(channel * geom.ih * geom.iw + y as usize * geom.iw + x as usize)
}

/// The gather step of one Add side's view — mirrors
/// `QuantizationPlan::gather_step` using the executor's cached steps.
pub(crate) fn side_gather_step(node_steps: &[f64], view: &InputView) -> f64 {
    view.iter()
        .map(|s| node_steps[s.source])
        .fold(f64::MIN_POSITIVE, f64::max)
}

/// Tile execution order: schedule entries sorted by start cycle (ties broken
/// by group id, though a valid schedule has none across dependencies).
fn schedule_order(mapping: &Mapping) -> Vec<GroupId> {
    let mut order: Vec<GroupId> = mapping.schedule.entries.iter().map(|e| e.group).collect();
    order.sort_by_key(|&g| {
        (
            mapping
                .schedule
                .entry(g)
                .map(|e| e.start_cycle)
                .unwrap_or(0),
            g,
        )
    });
    order
}

/// Every dependency must execute strictly before its consumer under the
/// start-cycle interpretation the executor uses, and buffered edges must not
/// overlap their producer at all. `buffered` is the per-edge claim table of
/// [`Adjacency::match_edges`] over the schedule's buffered edges.
fn verify_schedule_order(
    core: &CoreOpGraph,
    mapping: &Mapping,
    buffered: &[u32],
) -> Result<(), ExecError> {
    let schedule = &mapping.schedule;
    for (&(u, v), &claim) in core.edges().iter().zip(buffered) {
        let (Some(pu), Some(pv)) = (schedule.entry(u), schedule.entry(v)) else {
            return Err(mismatch(format!(
                "schedule misses entries for edge {u}->{v}"
            )));
        };
        let ordered = if claim != Adjacency::UNMATCHED {
            pv.start_cycle > pu.end_cycle
        } else {
            pv.start_cycle > pu.start_cycle
        };
        if !ordered {
            return Err(ExecError::ScheduleOrder {
                producer: u,
                consumer: v,
            });
        }
    }
    Ok(())
}

/// Every core-graph edge must be carried by netlist nets: direct PE→PE nets
/// covering every consumer duplicate (round-robin over producer duplicates),
/// or producer→SMB→consumer nets for buffered edges. The netlist is taken as
/// found (it may have been assembled by hand), so its blocks and connections
/// are indexed here rather than assumed to sit where `Netlist::build` puts
/// them: PE blocks by group offset then duplicate, SMBs by the edge they
/// buffer, connections as sorted rows per source block.
fn verify_transport(
    core: &CoreOpGraph,
    adjacency: &Adjacency,
    mapping: &Mapping,
    buffered: &[u32],
) -> Result<(), ExecError> {
    let netlist = &mapping.netlist;
    let groups = core.len();

    // (group, duplicate) → block: PE blocks bucketed by group (anything else
    // in a spare bucket nobody reads), each group's row ordered by duplicate.
    let blocks = netlist.blocks();
    let group_of = |block: &NetlistBlock| match *block {
        NetlistBlock::Pe { group, .. } if group < groups => group,
        _ => groups,
    };
    let (pe_start, by_group) = bucket_by_key(groups + 1, blocks.iter().map(group_of));
    let mut pes: Vec<(u64, usize)> = by_group[..pe_start[groups]]
        .iter()
        .map(|&i| match blocks[i] {
            NetlistBlock::Pe { duplicate, .. } => (duplicate, i),
            _ => unreachable!("only PE blocks are bucketed below `groups`"),
        })
        .collect();
    for g in 0..groups {
        pes[pe_start[g]..pe_start[g + 1]].sort_unstable();
    }
    let pe_block = |group: GroupId, duplicate: u64| {
        let row = &pes[pe_start[group]..pe_start[group + 1]];
        row.binary_search_by_key(&duplicate, |&(d, _)| d)
            .ok()
            .map(|at| row[at].1)
    };

    // (from, to) → SMB block, per core-graph edge. Listing the SMBs last
    // first makes the last block of a repeated pair win, as a map would.
    let (smb_pairs, smb_blocks): (Vec<(GroupId, GroupId)>, Vec<usize>) = blocks
        .iter()
        .enumerate()
        .rev()
        .filter_map(|(i, block)| match *block {
            NetlistBlock::Smb { from, to } => Some(((from, to), i)),
            _ => None,
        })
        .unzip();
    let smb_of_edge = adjacency.match_edges(&smb_pairs);

    // (source block, sink block) membership: one sorted row per source.
    let mut row_start = vec![0usize; netlist.len() + 1];
    for net in netlist.nets().iter() {
        row_start[net.source() + 1] += net.sinks().len();
    }
    for b in 0..netlist.len() {
        row_start[b + 1] += row_start[b];
    }
    let mut row_fill = row_start.clone();
    let mut rows = vec![0usize; row_start[netlist.len()]];
    for net in netlist.nets().iter() {
        let at = &mut row_fill[net.source()];
        for sink in net.sinks() {
            rows[*at] = sink;
            *at += 1;
        }
    }
    for b in 0..netlist.len() {
        rows[row_start[b]..row_start[b + 1]].sort_unstable();
    }
    let connected = |source: usize, sink: usize| {
        rows[row_start[source]..row_start[source + 1]]
            .binary_search(&sink)
            .is_ok()
    };

    for (e, &(u, v)) in core.edges().iter().enumerate() {
        let du = mapping.allocation.per_group.get(u).copied().unwrap_or(1);
        let dv = mapping.allocation.per_group.get(v).copied().unwrap_or(1);
        let missing = || ExecError::MissingTransport { from: u, to: v };
        if buffered[e] != Adjacency::UNMATCHED {
            let smb = match smb_of_edge[e] {
                Adjacency::UNMATCHED => return Err(missing()),
                listed => smb_blocks[listed as usize],
            };
            for d in 0..du {
                let pe = pe_block(u, d).ok_or_else(missing)?;
                if !connected(pe, smb) {
                    return Err(missing());
                }
            }
            for d in 0..dv {
                let pe = pe_block(v, d).ok_or_else(missing)?;
                if !connected(smb, pe) {
                    return Err(missing());
                }
            }
        } else {
            for d in 0..dv {
                let src = pe_block(u, d % du).ok_or_else(missing)?;
                let dst = pe_block(v, d).ok_or_else(missing)?;
                if !connected(src, dst) {
                    return Err(missing());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_mapper::{AllocationPolicy, Mapper};
    use fpsa_nn::reference::Reference;
    use fpsa_nn::zoo;
    use fpsa_synthesis::{NeuralSynthesizer, SynthesisConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn compile(graph: &ComputationalGraph, duplication: u64) -> (CoreOpGraph, Mapping) {
        let core = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(graph)
            .expect("zoo models synthesize");
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(duplication)).map(&core);
        (core, mapping)
    }

    fn samples(graph: &ComputationalGraph, n: usize) -> Vec<Vec<f32>> {
        let len = graph
            .nodes()
            .iter()
            .find_map(|node| match node.op {
                Operator::Input { shape } => Some(shape.elements()),
                _ => None,
            })
            .expect("graph has an input");
        (0..n)
            .map(|i| {
                let mut rng =
                    StdRng::seed_from_u64(seeds::derive(42, seeds::STREAM_SAMPLES, i as u64));
                (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect()
            })
            .collect()
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
        assert_eq!(a.len(), b.len(), "output lengths differ");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (f64::from(x) - f64::from(y)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn float_execution_matches_reference_on_every_tiny_model() {
        for graph in zoo::differential_suite() {
            let params = GraphParameters::seeded(&graph, 7);
            let (core, mapping) = compile(&graph, 1);
            let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float)
                .unwrap_or_else(|e| panic!("{}: {e}", graph.name));
            let reference = Reference::new(&graph, &params).unwrap();
            for x in samples(&graph, 3) {
                let got = exec.run(&x).unwrap();
                let want = reference.logits(&x).unwrap();
                let diff = max_abs_diff(&got, &want);
                assert!(diff < 1e-4, "{}: max abs diff {diff}", graph.name);
            }
        }
    }

    #[test]
    fn duplicated_mappings_compute_the_same_function() {
        let graph = zoo::tiny_cnn();
        let params = GraphParameters::seeded(&graph, 3);
        let (core, mapping) = compile(&graph, 8);
        assert!(mapping.allocation.total_pes() > core.len());
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let reference = Reference::new(&graph, &params).unwrap();
        let x = &samples(&graph, 1)[0];
        let diff = max_abs_diff(&exec.run(x).unwrap(), &reference.logits(x).unwrap());
        assert!(diff < 1e-4, "max abs diff {diff}");
    }

    #[test]
    fn integer_execution_is_bit_identical_to_the_quantized_reference() {
        for graph in zoo::differential_suite() {
            let params = GraphParameters::seeded(&graph, 11);
            let inputs = samples(&graph, 3);
            let plan = QuantizationPlan::calibrate(&graph, &params, &inputs).unwrap();
            let (core, mapping) = compile(&graph, 1);
            let exec = Executor::bind(
                &graph,
                &params,
                &core,
                &mapping,
                &Precision::Integer(plan.clone()),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", graph.name));
            let reference = Reference::new(&graph, &params).unwrap();
            for x in &inputs {
                let got = exec.run_codes(x).unwrap();
                let want = reference.quantized_logits(&plan, x).unwrap();
                assert_eq!(got, want, "{}: integer codes diverged", graph.name);
            }
        }
    }

    #[test]
    fn quantized_weights_match_the_quantizer_reference_bit_for_bit() {
        let graph = zoo::tiny_wide_mlp();
        let params = GraphParameters::seeded(&graph, 5);
        let (core, mapping) = compile(&graph, 1);
        let exec = Executor::bind(
            &graph,
            &params,
            &core,
            &mapping,
            &Precision::QuantizedWeights,
        )
        .unwrap();
        for g in core.groups().iter().filter(|g| g.kind == CoreOpKind::Vmm) {
            let bound = exec.tile_weights(g.id, 0).expect("VMM tiles carry weights");
            let layer = params.weights(g.source_node).unwrap();
            let input_dim =
                weights::weight_input_dim(&graph.node(g.source_node).unwrap().op).unwrap();
            let exact = weights::vmm_tile_matrix(g, layer, input_dim);
            let q = Quantizer::weights_8bit(params.max_abs_weight(g.source_node).max(1e-6));
            for (b, e) in bound.iter().zip(&exact) {
                assert_eq!(*b, q.round_trip(*e), "weight realization diverged");
            }
        }
    }

    #[test]
    fn batched_execution_is_bit_identical_to_sequential() {
        let graph = zoo::tiny_cnn();
        let params = GraphParameters::seeded(&graph, 1);
        let (core, mapping) = compile(&graph, 2);
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let inputs = samples(&graph, 8);
        let batched = exec.run_batch(&inputs).unwrap();
        let sequential: Vec<Vec<f32>> = inputs.iter().map(|x| exec.run(x).unwrap()).collect();
        assert_eq!(batched, sequential);
        // And chunked halves agree with the full batch (thread-count proxy).
        let (a, b) = inputs.split_at(3);
        let mut chunked = exec.run_batch(a).unwrap();
        chunked.extend(exec.run_batch(b).unwrap());
        assert_eq!(batched, chunked);
    }

    #[test]
    fn noisy_execution_is_seed_deterministic_and_ideal_noise_is_exact() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 2);
        let (core, mapping) = compile(&graph, 1);
        let noisy = |seed: u64, variation: CellVariation| {
            Executor::bind(
                &graph,
                &params,
                &core,
                &mapping,
                &Precision::Noisy {
                    scheme: WeightScheme::fpsa_add(),
                    variation,
                    seed,
                },
            )
            .unwrap()
        };
        let x = &samples(&graph, 1)[0];
        let a = noisy(9, CellVariation::measured()).run(x).unwrap();
        let b = noisy(9, CellVariation::measured()).run(x).unwrap();
        let c = noisy(10, CellVariation::measured()).run(x).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same realization");
        assert_ne!(a, c, "different seeds must program different cells");
        // Ideal devices realize the scheme's noiseless decode: outputs stay
        // within the quantization-error envelope of the float reference.
        let ideal = noisy(0, CellVariation::ideal()).run(x).unwrap();
        let reference = Reference::new(&graph, &params).unwrap();
        let diff = max_abs_diff(&ideal, &reference.logits(x).unwrap());
        assert!(diff < 0.05, "ideal-noise diff {diff} too large");
    }

    #[test]
    fn tampered_netlist_is_rejected_as_missing_transport() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (core, mut mapping) = compile(&graph, 1);
        // Drop the last PE→PE net.
        let blocks = mapping.netlist.blocks().to_vec();
        let mut nets = mapping.netlist.nets().to_vec();
        let dropped = nets
            .iter()
            .rposition(|n| {
                mapping.netlist.blocks()[n.source].is_pe()
                    && n.sinks.iter().all(|&s| mapping.netlist.blocks()[s].is_pe())
            })
            .expect("tiny MLP has PE→PE nets");
        nets.remove(dropped);
        mapping.netlist = fpsa_mapper::Netlist::from_parts("tampered", blocks, nets);
        let err = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap_err();
        assert!(matches!(err, ExecError::MissingTransport { .. }), "{err}");
    }

    #[test]
    fn tampered_schedule_is_rejected_as_order_violation() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (core, mut mapping) = compile(&graph, 1);
        // Force a consumer to start at cycle 0, tied with its producer.
        let consumer = core.edges()[0].1;
        mapping.schedule.entries[consumer].start_cycle = 0;
        let err = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap_err();
        assert!(matches!(err, ExecError::ScheduleOrder { .. }), "{err}");
    }

    #[test]
    fn a_cyclic_core_graph_maps_without_panic_and_is_rejected_at_bind() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (mut core, _) = compile(&graph, 1);
        // Close a 2-cycle over the first dependency.
        let (producer, consumer) = core.edges()[0];
        core.add_edge(consumer, producer);
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&core);
        assert_eq!(mapping.schedule.entries.len(), core.len());
        let err = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap_err();
        assert!(matches!(err, ExecError::ScheduleOrder { .. }), "{err}");
    }

    #[test]
    fn a_core_graph_edge_outside_the_graph_is_a_typed_mismatch() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (mut core, mapping) = compile(&graph, 1);
        core.add_edge(0, core.len());
        let err = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap_err();
        assert!(matches!(err, ExecError::ModelMismatch { .. }), "{err}");
    }

    /// The three numeric regimes the reuse tests cycle through.
    fn reuse_precisions(graph: &ComputationalGraph, inputs: &[Vec<f32>]) -> Vec<Precision> {
        let params = GraphParameters::seeded(graph, 13);
        let plan = QuantizationPlan::calibrate(graph, &params, inputs).unwrap();
        vec![
            Precision::Float,
            Precision::Integer(plan),
            Precision::Noisy {
                scheme: WeightScheme::fpsa_add(),
                variation: CellVariation::measured(),
                seed: 0xBEEF,
            },
        ]
    }

    #[test]
    fn arena_reuse_across_many_batches_matches_fresh_binds() {
        // Binding once and serving many batches through one arena must be
        // bit-identical to a fresh bind per sample: nothing may leak between
        // batches through the recycled buffers.
        let graph = zoo::tiny_cnn();
        let params = GraphParameters::seeded(&graph, 13);
        let (core, mapping) = compile(&graph, 2);
        let inputs = samples(&graph, 6);
        for precision in reuse_precisions(&graph, &inputs) {
            let bound_once = Executor::bind(&graph, &params, &core, &mapping, &precision).unwrap();
            let mut arena = bound_once.arena();
            let mut outputs = Vec::new();
            // Batches of varying size and content, revisiting samples so a
            // stale buffer from a previous batch would be caught.
            let batches: [&[Vec<f32>]; 4] =
                [&inputs[0..1], &inputs[1..4], &inputs[0..6], &inputs[2..3]];
            for batch in batches {
                bound_once
                    .run_batch_into(batch, &mut arena, &mut outputs)
                    .unwrap();
                assert_eq!(outputs.len(), batch.len());
                for (x, got) in batch.iter().zip(&outputs) {
                    let fresh = Executor::bind(&graph, &params, &core, &mapping, &precision)
                        .unwrap()
                        .run(x)
                        .unwrap();
                    assert_eq!(got, &fresh, "arena reuse diverged from a fresh bind");
                }
            }
        }
    }

    #[test]
    fn one_arena_can_serve_different_executors() {
        // Epoch stamping invalidates the whole arena per run, so even
        // migrating an arena between models cannot leak state.
        let mlp = zoo::tiny_mlp();
        let cnn = zoo::tiny_cnn();
        let mlp_params = GraphParameters::seeded(&mlp, 1);
        let cnn_params = GraphParameters::seeded(&cnn, 2);
        let (mlp_core, mlp_map) = compile(&mlp, 1);
        let (cnn_core, cnn_map) = compile(&cnn, 1);
        let a = Executor::bind(&mlp, &mlp_params, &mlp_core, &mlp_map, &Precision::Float).unwrap();
        let b = Executor::bind(&cnn, &cnn_params, &cnn_core, &cnn_map, &Precision::Float).unwrap();
        let xa = &samples(&mlp, 1)[0];
        let xb = &samples(&cnn, 1)[0];
        let mut arena = ExecArena::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            a.run_into(xa, &mut arena, &mut out).unwrap();
            assert_eq!(out, a.run(xa).unwrap());
            b.run_into(xb, &mut arena, &mut out).unwrap();
            assert_eq!(out, b.run(xb).unwrap());
        }
    }

    #[test]
    fn failed_batches_truncate_outputs_instead_of_exposing_stale_results() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 5);
        let (core, mapping) = compile(&graph, 1);
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let mut arena = exec.arena();
        let mut outputs = Vec::new();
        let good = samples(&graph, 3);
        exec.run_batch_into(&good, &mut arena, &mut outputs)
            .unwrap();
        assert_eq!(outputs.len(), 3);
        // Second batch fails on its middle sample: the outputs must shrink
        // to the completed prefix, not keep batch 1's results in the tail.
        let mixed = vec![good[0].clone(), vec![0.0; 2], good[2].clone()];
        let err = exec
            .run_batch_into(&mixed, &mut arena, &mut outputs)
            .unwrap_err();
        assert!(matches!(err, ExecError::ModelMismatch { .. }), "{err}");
        assert_eq!(outputs.len(), 1, "only the completed prefix survives");
        assert_eq!(outputs[0], exec.run(&good[0]).unwrap());
    }

    #[test]
    fn run_into_reports_wrong_input_lengths_and_leaves_out_cleared() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 5);
        let (core, mapping) = compile(&graph, 1);
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let mut arena = exec.arena();
        let mut out = vec![1.0f32];
        let err = exec.run_into(&[0.0; 3], &mut arena, &mut out).unwrap_err();
        assert!(matches!(err, ExecError::ModelMismatch { .. }), "{err}");
        assert!(out.is_empty(), "failed runs must not leave stale outputs");
        // And the arena stays usable afterwards.
        let x = &samples(&graph, 1)[0];
        exec.run_into(x, &mut arena, &mut out).unwrap();
        assert_eq!(out, exec.run(x).unwrap());
    }

    #[test]
    fn accuracy_counts_argmax_agreement() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 4);
        let (core, mapping) = compile(&graph, 1);
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let inputs = samples(&graph, 4);
        let reference = Reference::new(&graph, &params).unwrap();
        let labels: Vec<usize> = inputs
            .iter()
            .map(|x| fpsa_nn::mlp::argmax(&reference.logits(x).unwrap()))
            .collect();
        let acc = exec.accuracy(&inputs, &labels).unwrap();
        assert_eq!(acc, 1.0, "float executor must agree with its own labels");
    }
}
