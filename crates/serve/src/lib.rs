//! `fpsa_serve` — the in-process high-throughput serving engine.
//!
//! Everything below `fpsa_serve` computes one sample at a time:
//! `fpsa_sim::exec::Executor` binds a compiled model's artifacts to weights
//! (the expensive step — weight realization, schedule/transport
//! verification, lowering the tile programs to flat bytecode) and then runs
//! samples purely over the compiled instruction stream. This crate turns
//! that into a *request path* shaped like production inference serving:
//!
//! * **bind once, serve forever** — a [`ServeEngine`] owns one pre-bound
//!   executor shared read-only across a pool of replica worker threads, so
//!   no request ever pays the bind cost again;
//! * **dynamic batching** — while the engine is busy, queued requests
//!   coalesce FIFO up to a size / deadline window; an idle engine serves
//!   what is queued at once ([`DynamicBatcher`], a pure state machine with
//!   its own property suite);
//! * **replica sharding** — ready batches are claimed by whichever replica
//!   frees up first and executed outside the queue lock, pipelining
//!   consecutive batches across replicas; each replica recycles one
//!   `fpsa_sim::ExecArena`, so the hot path performs no scratch allocation.
//!
//! Throughput comes from amortization and parallelism only — never from
//! changed arithmetic: engine outputs are bit-identical to direct
//! `Executor::run` calls for every precision, batch interleaving and replica
//! count (see `tests/determinism.rs` and DESIGN.md's determinism argument).
//!
//! # Quick start
//!
//! ```
//! use fpsa_core::Compiler;
//! use fpsa_nn::{zoo, GraphParameters};
//! use fpsa_serve::{ServeConfig, ServeEngine};
//! use fpsa_sim::Precision;
//!
//! let graph = zoo::tiny_mlp();
//! let params = GraphParameters::seeded(&graph, 7);
//! let compiled = Compiler::fpsa().compile(&graph)?;
//! let executor = compiled.executor(&graph, &params, &Precision::Float)?;
//!
//! let engine = ServeEngine::start(executor, ServeConfig::default().with_replicas(2));
//! let logits = engine.infer(vec![0.5; 16]).expect("request is served");
//! assert_eq!(logits.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batcher;
pub mod core;
pub mod engine;
pub mod sharded;
pub mod wfq;

pub use batcher::{BatchPolicy, DynamicBatcher};
pub use core::{lane_mut, Core, CoreConfig, Decision, Resolver, Router, StationState, Tier};
pub use engine::{
    Engine, Response, ServeConfig, ServeEngine, ServeError, ServeStats, Ticket, STATS_BUCKETS,
};
pub use sharded::ShardedEngine;
pub use wfq::WeightedFairBatcher;
