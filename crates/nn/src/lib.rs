//! Neural-network front end for the FPSA reproduction.
//!
//! The FPSA software stack consumes neural networks expressed as
//! *computational graphs* (the programming model of mainstream deep-learning
//! frameworks). This crate provides:
//!
//! * a framework-neutral computational-graph IR ([`graph::ComputationalGraph`])
//!   with shape inference and workload statistics (weights, operations,
//!   weight-reuse degrees) — the quantities the mapper and the performance
//!   bounds of the paper are driven by;
//! * a model zoo ([`zoo`]) with the seven benchmark networks of the paper's
//!   evaluation (MLP-500-100, LeNet, CIFAR-VGG17, AlexNet, VGG16, GoogLeNet,
//!   ResNet-152), reproducing the published weight and operation counts of
//!   Table 3;
//! * a tiny, dependency-free, bias-free training and inference engine
//!   ([`mlp`], [`dataset`]) whose trained network Figure 9 compiles onto the
//!   fabric to measure device-variation accuracy;
//! * quantization helpers ([`quant`]) for the 8-bit weights / 6-bit
//!   activations used on the accelerator;
//! * numeric graph parameters ([`params`]) and the golden-model reference
//!   executor ([`reference`](mod@reference)) — float and integer-exact forward passes that
//!   the compiled-model execution engine is differentially tested against;
//! * the repository-wide seeded-RNG convention ([`seeds`]).
//!
//! # Example
//!
//! ```
//! use fpsa_nn::zoo;
//!
//! let vgg16 = zoo::vgg16();
//! let stats = vgg16.statistics();
//! // Table 3 reports 138.3M weights and 30.9G operations for VGG16.
//! assert!((stats.total_weights as f64 - 138.3e6).abs() / 138.3e6 < 0.02);
//! assert!((stats.total_ops as f64 - 30.9e9).abs() / 30.9e9 < 0.05);
//! ```

pub mod dataset;
pub mod error;
pub mod graph;
pub mod mlp;
pub mod ops;
pub mod params;
pub mod quant;
pub mod reference;
pub mod seeds;
pub mod shape;
pub mod stats;
pub mod zoo;

pub use error::NnError;
pub use graph::{ComputationalGraph, Node, NodeId};
pub use ops::Operator;
pub use params::{mlp_graph, GraphParameters};
pub use reference::{QuantizationPlan, Reference};
pub use shape::TensorShape;
pub use stats::{LayerStats, WorkloadStats};
