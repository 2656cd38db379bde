//! The top of the FPSA reproduction stack.
//!
//! This crate ties the whole system together:
//!
//! * [`compiler`] — the end-to-end compilation flow that a user would run to
//!   deploy a network on the FPSA fabric;
//! * [`cache`] — the content-addressed compile cache: stable structural
//!   keys over (graph + compiler config), single-flight artifact reuse
//!   across sweep workers, and opt-in warm-started annealing from
//!   near-miss donors;
//! * [`pipeline`] — the stage pipeline beneath the compiler
//!   (`Synthesize → Map → PlaceRoute → Estimate`), each stage a typed
//!   artifact transform the compiler runs inside an `fpsa_obs` compile span;
//! * [`evaluator`] — the evaluation harness that compiles a benchmark on a
//!   chosen architecture (FPSA / FP-PRIME / PRIME), estimates or measures the
//!   communication critical path, and reports throughput, latency, area and
//!   utilization;
//! * [`sweep`] — the unified rayon-backed parallel sweep engine every
//!   experiment driver fans out through;
//! * [`validate`](mod@validate) — the differential validation path: compile a model, run
//!   it on the simulated fabric via `fpsa_sim::exec` and diff the outputs
//!   against the golden-model reference (float tolerance + integer
//!   bit-exactness);
//! * [`experiments`] — one driver per table and figure of the paper's
//!   evaluation section, each returning structured records that the
//!   benchmarks (JSON under `target/experiment-data/`) and examples
//!   regenerate.
//!
//! # Example
//!
//! ```
//! use fpsa_core::compiler::Compiler;
//! use fpsa_nn::zoo;
//!
//! let compiled = Compiler::fpsa().with_duplication(4).compile(&zoo::lenet())?;
//! let report = compiled.performance();
//! assert!(report.throughput_samples_per_s > 1_000.0);
//! # Ok::<(), fpsa_core::compiler::CompileError>(())
//! ```

pub mod cache;
pub mod compiler;
pub mod evaluator;
pub mod experiments;
pub mod pipeline;
pub mod report;
pub mod sweep;
pub mod validate;

pub use cache::{CacheOutcome, CacheStats, CompileCache, CompileKey};
pub use compiler::{CompileError, CompiledModel, Compiler};
pub use evaluator::{Evaluator, ModelEvaluation};
pub use sweep::{Sweep, SweepPoint};
pub use validate::{validate, ValidationConfig, ValidationReport};
