//! `fpsa_shard` — multi-fabric model-parallel sharding.
//!
//! The compile flow below this crate targets **one** reconfigurable fabric.
//! This crate scales it out: a model whose PE demand exceeds a single chip
//! is split into contiguous pipeline stages, each stage is compiled through
//! the existing `Synthesize → Map → PlaceRoute → Estimate` pipeline onto its
//! own fabric, and inference chains (or pipeline-parallel-serves) the stage
//! executors — each a bound `fpsa_sim` executor running its stage's
//! compiled bytecode stream — with an explicit chip-to-chip transport cost
//! in the performance model.
//!
//! ```text
//!  ComputationalGraph ── Partitioner ──► PartitionPlan (contiguous stages,
//!        │                               single-tensor boundaries, under a
//!        │                               per-fabric PE/SMB budget)
//!        ▼
//!  ShardCompiler ── per-stage fpsa_core::Compiler ──► ShardedModel
//!        │            (stage CompiledModels, netlist demand)
//!        ▼
//!  ShardedModel::executor ──► ShardedExecutor   (bit-identical to the
//!  ShardedModel::serve    ──► fpsa_serve::ShardedEngine      unsharded run)
//!  ShardedModel::performance ──► ShardedPerformanceReport
//!                                (per-chip reports + ChipLink transport)
//! ```
//!
//! Determinism is the contract everything rests on: stage boundaries pass
//! exactly the activation buffer the unsharded executor holds at the cut
//! node (f32 buffers in the float domains; codes round-trip losslessly
//! through the boundary dequantize/requantize in the integer domain; noisy
//! binds reuse the unsharded per-PE seed stream via
//! `Executor::bind_with_noise_offset`), so sharded outputs are bit-identical
//! to the single-large-fabric compilation — asserted by the sharded
//! determinism suite in `tests/`.
//!
//! # Quick start
//!
//! ```
//! use fpsa_nn::{params::mlp_graph, GraphParameters};
//! use fpsa_shard::{FabricBudget, ShardCompiler};
//! use fpsa_sim::Precision;
//!
//! let graph = mlp_graph("deep", &[64, 48, 32, 4]);
//! let params = GraphParameters::seeded(&graph, 7);
//! // Pretend a chip only offers 2 PEs: the model must spill across chips.
//! let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(2))
//!     .compile_auto(&graph)?;
//! assert!(sharded.stage_count() >= 2);
//! let exec = sharded.executor(&params, &Precision::Float)?;
//! let logits = exec.run(&vec![0.5; 64])?;
//! assert_eq!(logits.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod exec;
pub mod experiments;
pub mod model;
pub mod partition;

pub use exec::ShardedExecutor;
pub use model::{
    ChipLink, ShardCompiler, ShardStage, ShardedModel, ShardedPerformanceReport, TransportEstimate,
};
pub use partition::{FabricBudget, PartitionPlan, Partitioner, StagePlan};

use fpsa_arch::FabricCapacity;
use fpsa_core::CompileError;
use fpsa_nn::{NnError, NodeId};
use fpsa_sim::ExecError;
use std::fmt;

/// Why sharding failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// The source model is malformed.
    Model(NnError),
    /// A stage failed to compile on its fabric.
    Compile(CompileError),
    /// Binding a stage executor failed.
    Exec(ExecError),
    /// One node's tiles alone exceed a fabric: no partition can help.
    NodeExceedsFabric {
        /// The offending node.
        node: NodeId,
        /// Its name.
        name: String,
        /// PEs the node's tiles demand.
        required_pes: u64,
        /// PEs one fabric offers.
        budget_pes: usize,
    },
    /// An atomic span (no legal single-tensor boundary inside) exceeds the
    /// per-fabric budget.
    NoLegalCut {
        /// First compute node of the span.
        from: NodeId,
        /// Last compute node of the span.
        to: NodeId,
        /// PEs the span demands.
        required_pes: u64,
        /// PEs one fabric offers.
        budget_pes: usize,
    },
    /// A requested or derived cut is not a legal pipeline boundary.
    IllegalCut {
        /// The cut (or offending) node.
        at: NodeId,
        /// Why it is illegal.
        reason: String,
    },
    /// A compiled stage's realized netlist outgrew the fabric budget.
    StageOverCapacity {
        /// Which stage.
        stage: usize,
        /// Realized netlist demand.
        required: FabricCapacity,
        /// The per-fabric budget.
        budget: FabricBudget,
    },
    /// The model cannot be sharded at all (or artifacts disagree).
    Unshardable {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Model(e) => write!(f, "model error: {e}"),
            ShardError::Compile(e) => write!(f, "stage compilation failed: {e}"),
            ShardError::Exec(e) => write!(f, "stage binding failed: {e}"),
            ShardError::NodeExceedsFabric {
                node,
                name,
                required_pes,
                budget_pes,
            } => write!(
                f,
                "node {name} (id {node}) needs {required_pes} PEs but one fabric offers \
                 {budget_pes}; grow the per-fabric budget"
            ),
            ShardError::NoLegalCut {
                from,
                to,
                required_pes,
                budget_pes,
            } => write!(
                f,
                "nodes {from}..={to} form an atomic span needing {required_pes} PEs \
                 (fabric offers {budget_pes}) with no single-tensor boundary inside"
            ),
            ShardError::IllegalCut { at, reason } => {
                write!(f, "illegal cut at node {at}: {reason}")
            }
            ShardError::StageOverCapacity {
                stage,
                required,
                budget,
            } => write!(
                f,
                "stage {stage} mapped to {required}, exceeding the fabric budget of {budget}"
            ),
            ShardError::Unshardable { reason } => write!(f, "model is unshardable: {reason}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<NnError> for ShardError {
    fn from(e: NnError) -> Self {
        ShardError::Model(e)
    }
}

impl From<CompileError> for ShardError {
    fn from(e: CompileError) -> Self {
        ShardError::Compile(e)
    }
}

impl From<ExecError> for ShardError {
    fn from(e: ExecError) -> Self {
        ShardError::Exec(e)
    }
}
