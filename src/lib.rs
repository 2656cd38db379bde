//! FPSA reproduction — umbrella crate.
//!
//! This crate re-exports the whole reproduction stack of *FPSA: A Full System
//! Stack Solution for Reconfigurable ReRAM-based NN Accelerator Architecture*
//! (ASPLOS 2019) so that examples and downstream users can depend on a single
//! crate:
//!
//! * [`device`] — ReRAM crossbars, spiking circuits, SRAM blocks, variation
//! * [`nn`] — computational graphs, the benchmark model zoo, a tiny trainer
//! * [`synthesis`] — the neural synthesizer (graph → core-ops)
//! * [`arch`] — the FPSA fabric and its routing architecture
//! * [`mapper`] — the spatial-to-temporal mapper
//! * [`placeroute`] — simulated-annealing placement and Dijkstra routing
//! * [`sim`] — performance and functional simulators
//! * [`prime`] — the PRIME baseline and the performance-bound model
//! * [`core`] — the compiler, evaluator and per-figure experiment drivers
//! * [`serve`] — the high-throughput serving engine (dynamic batching +
//!   replica sharding over pre-bound executors, plus the pipeline-parallel
//!   sharded engine)
//! * [`shard`] — multi-fabric model parallelism: partition, compile and
//!   pipeline-serve models across chips
//! * [`workload`] — declarative workload scenarios, deterministic trace
//!   record/replay on the real engines and under a virtual clock
//! * [`fleet`] — multi-tenant model-fleet serving: compile-once registry,
//!   co-location packing, weighted-fair tenant queues, per-tenant SLOs
//! * [`obs`] — unified telemetry: structured spans over wall or virtual
//!   clocks, the process-wide metrics registry, executor profiling hooks,
//!   Chrome-trace/flight-recorder export
//!
//! # Quick start
//!
//! ```
//! use fpsa::core::compiler::Compiler;
//! use fpsa::nn::zoo;
//!
//! let compiled = Compiler::fpsa().with_duplication(4).compile(&zoo::lenet())?;
//! let perf = compiled.performance();
//! println!("LeNet on FPSA: {:.0} samples/s on {:.2} mm^2",
//!          perf.throughput_samples_per_s, perf.area_mm2);
//! # Ok::<(), fpsa::core::CompileError>(())
//! ```

pub use fpsa_arch as arch;
pub use fpsa_core as core;
pub use fpsa_device as device;
pub use fpsa_fleet as fleet;
pub use fpsa_mapper as mapper;
pub use fpsa_nn as nn;
pub use fpsa_obs as obs;
pub use fpsa_placeroute as placeroute;
pub use fpsa_prime as prime;
pub use fpsa_serve as serve;
pub use fpsa_shard as shard;
pub use fpsa_sim as sim;
pub use fpsa_synthesis as synthesis;
pub use fpsa_workload as workload;
