//! The neural synthesizer: computational graph → core-op graph.
//!
//! The FPSA hardware executes exactly one operation efficiently: a
//! low-precision vector-matrix multiplication (≤ 256×256) followed by ReLU —
//! the *core-op*. The neural synthesizer (Section 5.1 of the paper, following
//! the NN-compiler line of work it cites) rewrites an arbitrary framework
//! computational graph into an equivalent graph of core-ops:
//!
//! * fully connected and convolutional layers are split into ≤ 256×256 weight
//!   tiles, with reduction core-ops summing partial results when the input
//!   dimension exceeds one crossbar;
//! * poolings, element-wise additions and global poolings are lowered to
//!   dedicated small matrices (max pooling via an MLP-style construct), which
//!   is why the paper observes pooling dominating PE counts in GoogLeNet;
//! * ReLU is fused into the producing core-op; normalization, dropout,
//!   softmax and reshapes disappear (folded or executed off-fabric).
//!
//! The synthesizer keeps the result in the compact *group* form: one
//! [`CoreOpGroup`] per distinct weight tile, annotated with its reuse degree
//! (how many per-position core-ops share those weights) and its
//! `row_offset`/`col_offset` coordinate inside the source layer. The
//! spatial-to-temporal mapper consumes the structure; the [`weights`] module
//! turns the coordinates into the actual crossbar matrices, giving core-ops
//! numeric evaluation semantics for the compiled-model execution engine.

pub mod coreop;
pub mod lower;
pub mod synthesizer;
pub mod weights;

pub use coreop::{
    bucket_by_key, Adjacency, CoreOp, CoreOpGraph, CoreOpGroup, CoreOpKind, GroupId, Neighbor,
};
pub use synthesizer::{NeuralSynthesizer, SynthesisConfig};
pub use weights::{vmm_tile_matrix, weight_input_dim};
