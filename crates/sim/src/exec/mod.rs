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
//! 1. [`Executor::bind`] (`bind.rs`) resolves every core-op group into a
//!    `TileProgram`: its crossbar weight matrix (sliced by
//!    `fpsa_synthesis::weights`, then realized exactly / quantized /
//!    programmed onto noisy simulated cells — one realization **per PE
//!    duplicate**, because every physical crossbar is programmed separately,
//!    all packed row-major into one shared weight slab), its gather geometry
//!    (dense rows, im2col convolution windows, pooling stencils) and its
//!    scatter target.
//!    Binding also *verifies the physical artifacts* (`verify.rs`): every
//!    group owns at least one PE, schedule entries must start strictly after
//!    every producer (buffered edges strictly after the producer finishes),
//!    and every core-graph edge must be backed by nets in the mapper's
//!    netlist (producer PE → consumer PE duplicates, or producer → SMB →
//!    consumer for buffered edges).
//! 2. Binding then **lowers** the programs (the crate's private `lower`
//!    module) into a flat bytecode stream (`bytecode`): every buffer becomes
//!    a fixed region of two flat arena slabs, every instruction carries
//!    preresolved absolute offsets, and structurally-zero crossbar rows are
//!    dropped.
//! 3. [`Executor::run`] (`run.rs`) is a single dispatch loop over that
//!    stream — no per-element op dispatch, no hash lookups, no shape math —
//!    with run-time skipping of exactly-zero activations. The stream is the
//!    only thing [`Executor`]'s run paths and [`ExecArena`] know about. The
//!    tile programs themselves stay interpretable by the self-contained
//!    oracle of `oracle.rs`, the bit-exact reference
//!    [`Executor::run_checked`] compares every lowered node against:
//!    per-accumulator f64/i64 term order is preserved, and sparsity only
//!    removes terms that are exactly zero.
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
//! * [`Precision::Integer`] — full integer-code execution on a calibrated
//!   [`QuantizationPlan`]: weight codes at the plan's `weight_bits` (8 by
//!   default, one `i8` each in the bound slab), 6-bit activation codes, MAC
//!   accumulation in `i32` SIMD lanes widened to `i64` at every store. Bind
//!   rejects any plan whose deepest tile could overflow a lane (`rows ·
//!   weight_levels · activation_levels > i32::MAX`) or whose codes do not
//!   fit the slab, so the narrow datapath is exact; integer addition is
//!   associative, so tiling and transport cannot perturb results: outputs
//!   match `Reference::quantized_forward` **bit for bit**, and the oracle
//!   re-derives them in plain `i64`.
//! * [`Precision::Noisy`] — quantized weights programmed onto simulated
//!   ReRAM cells ([`WeightScheme`] + [`CellVariation`]), seeded per PE by
//!   the repository convention (`seeds::derive(seed, STREAM_PE_NOISE,
//!   pe_index(group, duplicate))`).

mod bind;
#[cfg(test)]
mod family_tests;
mod oracle;
mod run;
mod verify;

use crate::bytecode::{LowerStats, Lowered, Region};
use fpsa_device::variation::{CellVariation, WeightScheme};
use fpsa_nn::reference::{InputView, QuantizationPlan};
use fpsa_nn::{NnError, NodeId};
use fpsa_obs::{SpanId, Tracer};
use fpsa_synthesis::GroupId;
use std::fmt;

/// The numeric domain a bound executor computes in.
#[derive(Debug, Clone, PartialEq)]
pub enum Precision {
    /// Full-precision f32 weights, f64 accumulation.
    Float,
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

pub(crate) fn mismatch(reason: impl Into<String>) -> ExecError {
    ExecError::ModelMismatch {
        reason: reason.into(),
    }
}

/// Run `body` inside an `exec`-category span that records `failed` when it
/// returns `Err`; with tracing off this is just the call.
#[inline]
fn traced<T>(
    name: &'static str,
    args: &[(&'static str, i64)],
    body: impl FnOnce() -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    let tracer = Tracer::global();
    if !tracer.enabled() {
        return body();
    }
    let span = tracer.enter_with(name, "exec", tracer.now_us(), SpanId::NONE, args);
    let result = body();
    let ts = tracer.now_us();
    if result.is_err() {
        tracer.record(&span, "failed", 1, ts);
    }
    tracer.exit(&span, ts);
    result
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

impl ProgramKind {
    /// Whether tiles of this kind read the node's gathered input view (the
    /// other kinds read partial tiles or their own per-side views).
    pub(crate) fn gathers(&self) -> bool {
        matches!(
            self,
            ProgramKind::Dense
                | ProgramKind::Conv(_)
                | ProgramKind::AvgPool(_)
                | ProgramKind::GlobalAvgPool { .. }
                | ProgramKind::MaxStage1(_)
        )
    }
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
    /// Integer weight code span of the `i8` slab (Integer precision only;
    /// always shared).
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

/// Reusable execution scratch for one executor replica.
///
/// The bytecode executor needs exactly two flat slabs per numeric domain —
/// the value slab (node activations, gathers, element-wise sides) and the
/// partial slab (raw tile accumulations) — whose peak demand lowering
/// precomputed (the crate's private `bytecode` module). Reserving them is therefore O(1) per
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
    /// Bytecode value slab, float domain.
    pub(crate) val_f: Vec<f32>,
    /// Bytecode partial slab, float domain.
    pub(crate) part_f: Vec<f64>,
    /// Bytecode value slab, integer domain.
    pub(crate) val_i: Vec<i64>,
    /// Bytecode partial slab, integer domain.
    pub(crate) part_i: Vec<i64>,
    /// Kernel scratch: row lists, activation blocks, accumulator rows.
    pub(crate) mac: crate::bytecode::MacScratch,
}

impl ExecArena {
    /// A fresh, empty arena; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        ExecArena::default()
    }
}

/// The compiled-model executor: bound tile programs lowered to bytecode.
#[derive(Debug)]
pub struct Executor {
    /// The bound tile programs in schedule order, with their per-node
    /// geometry: what lowering compiled, and what the oracle interprets.
    programs: Vec<TileProgram>,
    nodes: Vec<Option<NodeInfo>>,
    input: Option<(NodeId, usize)>,
    precision_integer: bool,
    node_steps: Vec<f64>,
    /// The lowered bytecode artifact every run dispatches over.
    lowered: Lowered,
    /// Output segments: source node, its value-slab region and its integer
    /// dequantization step.
    outputs: Vec<(NodeId, Region, f64)>,
}

impl Executor {
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
}

#[cfg(test)]
impl Executor {
    /// Whether the executor runs in the integer-code domain.
    pub(crate) fn is_integer(&self) -> bool {
        self.precision_integer
    }

    /// Re-target the lowered stream at another kernel family. Block sizes
    /// and kernels follow the family at dispatch, so this is all it takes
    /// to run the whole stack as a narrower CPU would — for the crate's own
    /// tests only: production binds always take [`Simd::detect`].
    ///
    /// [`Simd::detect`]: crate::kernels::Simd::detect
    pub(crate) fn with_family(mut self, simd: crate::kernels::Simd) -> Self {
        assert!(crate::kernels::Simd::supported().contains(&simd));
        self.lowered.simd = simd;
        self
    }
}

/// The gather step of one Add side's view — mirrors
/// `QuantizationPlan::gather_step` using the executor's cached steps.
pub(crate) fn side_gather_step(node_steps: &[f64], view: &InputView) -> f64 {
    view.iter()
        .map(|s| node_steps[s.source])
        .fold(f64::MIN_POSITIVE, f64::max)
}

/// Compile/sample helpers shared by the unit tests of this module's files.
#[cfg(test)]
mod testutil {
    use super::Precision;
    use fpsa_device::variation::{CellVariation, WeightScheme};
    use fpsa_mapper::{AllocationPolicy, Mapper, Mapping};
    use fpsa_nn::reference::QuantizationPlan;
    use fpsa_nn::{seeds, ComputationalGraph, GraphParameters, Operator};
    use fpsa_synthesis::{CoreOpGraph, NeuralSynthesizer, SynthesisConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub fn compile(graph: &ComputationalGraph, duplication: u64) -> (CoreOpGraph, Mapping) {
        let core = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(graph)
            .expect("zoo models synthesize");
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(duplication)).map(&core);
        (core, mapping)
    }

    pub fn samples(graph: &ComputationalGraph, n: usize) -> Vec<Vec<f32>> {
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

    /// The three numeric regimes, the integer plan calibrated on `inputs`.
    pub fn three_precisions(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        inputs: &[Vec<f32>],
    ) -> Vec<Precision> {
        let plan = QuantizationPlan::calibrate(graph, params, inputs).unwrap();
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

    pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
        assert_eq!(a.len(), b.len(), "output lengths differ");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (f64::from(x) - f64::from(y)).abs())
            .fold(0.0, f64::max)
    }
}
