//! Simulation engines for the FPSA reproduction.
//!
//! Two complementary simulators live here:
//!
//! * [`perf`] — the pipeline performance simulator. Given a mapped model
//!   (allocation + schedule), an architecture configuration and a
//!   communication estimate (from real place & route or from the analytic
//!   model), it reports throughput, end-to-end latency, area and the
//!   computation/communication breakdown — the quantities behind Figures 6–8
//!   and Table 3 of the paper.
//! * [`functional`] — functional studies on real (small, trainable) networks:
//!   running a trained MLP through cycle-accurate spiking PEs to confirm the
//!   spiking schema computes the right function, and the device-variation
//!   accuracy study behind Figure 9 (splice vs add weight representation).
//! * [`exec`] — the compiled-model execution engine: at bind time it lowers
//!   every scheduled tile program into a flat bytecode stream ([`bytecode`],
//!   built by [`lower`]) with preresolved buffer offsets, structural
//!   sparsity skipping and precomputed arena demand, then executes samples
//!   with a single dispatch loop in float, integer-exact or noisy-device
//!   precision — the numeric proof that compilation preserves semantics,
//!   fast enough to sit under the serving and sharding engines. The bound
//!   tile programs stay interpretable by a self-contained oracle
//!   (`exec/oracle.rs`), the bit-exact reference `Executor::run_checked`
//!   compares the stream against node by node.
//!
//! The [`trace`] module carries compile-stage instrumentation: the compiler
//! in `fpsa-core` fills a [`StageTrace`] per compilation and attaches it to
//! the [`PerformanceReport`], so consumers see both runtime performance and
//! where compile time went.

mod bytecode;
pub mod exec;
pub mod functional;
mod kernels;
mod lower;
pub mod perf;
pub mod profile;
pub mod trace;

pub use bytecode::LowerStats;
pub use exec::{ExecArena, ExecError, Executor, Precision};
pub use functional::{SpikingMlpRunner, VariationStudy};
pub use perf::{CommunicationEstimate, PerformanceReport, PerformanceSimulator};
pub use profile::{ProfileSnapshot, NUM_OPCODES, OPCODE_NAMES};
pub use trace::{CacheInfo, CacheOutcome, StageKind, StageQuality, StageRecord, StageTrace};
