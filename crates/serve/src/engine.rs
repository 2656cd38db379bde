//! The throughput engine: pre-bound executor replicas draining a shared
//! dynamic-batch queue.
//!
//! # Replica lifecycle
//!
//! [`ServeEngine::start`] takes a bound [`Executor`] — the expensive step
//! (weight realization, artifact verification) already paid exactly once —
//! and shares it read-only (`Arc`) across `replicas` worker threads of one
//! [`crate::core`] station, whose single lane is the FIFO dynamic batcher.
//! Each worker owns one [`fpsa_sim::ExecArena`] of recycled scratch buffers
//! plus a reusable output table, so the steady-state request path performs
//! no scratch allocation. Workers pop ready batches under the queue lock
//! and execute them *outside* it — which is what pipelines consecutive
//! batches across replicas: while one replica computes a batch, the next
//! batch fills and is claimed by another. A request that finds no replica
//! executing is served at once; the batch window only applies while one is.
//!
//! # Shutdown
//!
//! Dropping the engine (or calling [`ServeEngine::shutdown`]) flips the
//! shutdown flag and wakes every worker; workers then drain the queue
//! without waiting out the batch window and exit once it is empty. Requests
//! are therefore never dropped: every ticket resolves to an output or an
//! error.
//!
//! # Determinism
//!
//! Execution is pure (all randomness is realized when the executor binds),
//! every request is executed by [`Executor::run_into`] — bit-identical to
//! [`Executor::run`] by construction — and each response travels a
//! per-request channel, so neither batch composition, replica count, window
//! length, nor thread scheduling can change *what* a request computes or
//! *which* client receives it. The determinism suite
//! (`tests/determinism.rs`) pins this across all three precisions.

use crate::batcher::BatchPolicy;
use crate::core::{Core, CoreConfig, Tier};
use fpsa_obs::Histogram;
use fpsa_sim::exec::{ExecError, Executor};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;

/// How an engine batches and shards incoming requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Worker threads sharing the pre-bound executor (clamped to ≥ 1).
    pub replicas: usize,
    /// Largest batch one replica executes in one go (clamped to ≥ 1).
    pub max_batch: usize,
    /// How long a part-full batch may wait for stragglers while some worker
    /// of the engine is executing, in microseconds (0 = never wait). An idle
    /// engine serves a part-full batch at once, whatever the window.
    pub batch_window_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            replicas: 2,
            max_batch: 8,
            batch_window_us: 200,
        }
    }
}

impl ServeConfig {
    /// Set the replica count.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Set the maximum batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Set the batch window in microseconds.
    pub fn with_batch_window_us(mut self, window_us: u64) -> Self {
        self.batch_window_us = window_us;
        self
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The engine is shutting down and no longer admits requests.
    ShutDown,
    /// The input does not match the model's input width.
    InputLength {
        /// Elements submitted.
        got: usize,
        /// Elements the graph expects.
        want: usize,
    },
    /// The executor rejected the batch (propagated per request).
    Exec(ExecError),
    /// The serving thread disappeared before answering (engine panic).
    Canceled,
    /// Admission control shed the request: the tenant's observed p99
    /// latency exceeds its SLO budget and its backlog is above the shed
    /// threshold, so serving it would only deepen the violation.
    Shed {
        /// The tenant whose SLO budget is blown.
        tenant: u16,
        /// Observed p99 latency in microseconds at shed time.
        p99_us: u64,
        /// The tenant's configured p99 budget in microseconds.
        budget_us: u64,
    },
    /// The fleet tier knows no model registered under the submitted id.
    UnknownModel {
        /// The model id the request named.
        model: u16,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ShutDown => write!(f, "serving engine is shut down"),
            ServeError::InputLength { got, want } => {
                write!(f, "input has {got} elements, model expects {want}")
            }
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            ServeError::Canceled => write!(f, "request canceled before completion"),
            ServeError::Shed {
                tenant,
                p99_us,
                budget_us,
            } => write!(
                f,
                "request shed: tenant {tenant} p99 {p99_us}us exceeds SLO budget {budget_us}us"
            ),
            ServeError::UnknownModel { model } => {
                write!(f, "request names unknown model {model}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Number of power-of-two buckets in each [`ServeStats`] histogram.
/// An alias of [`fpsa_obs::HIST_BUCKETS`]: the serving stats were the
/// original home of the bucketed-percentile machinery, which now lives in
/// the shared [`fpsa_obs::Histogram`] every layer uses.
pub const STATS_BUCKETS: usize = fpsa_obs::HIST_BUCKETS;

/// Aggregate counters over an engine's lifetime.
///
/// Besides the plain counters, the stats carry three power-of-two-bucketed
/// [`Histogram`]s (executed batch sizes, queue depth observed at
/// submission, request latency) whose percentiles are exact up to bucket
/// granularity — an answer is never *under*-reported by more than one
/// bucket (2×), at any magnitude: each histogram tracks its true maximum
/// ([`ServeStats::largest_batch`], [`ServeStats::max_queue_depth`],
/// [`ServeStats::max_latency_us`]), percentile reads are capped at it, and
/// the saturated overflow bucket reports it outright instead of its
/// power-of-two upper bound (which tops out at `2^31 − 1` µs ≈ 36 min and
/// would under-report a multi-hour latency without the cap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests answered with an output.
    pub completed: u64,
    /// Requests answered with an error after admission.
    pub failed: u64,
    /// Requests rejected at submission (bad input length, shutdown).
    pub rejected: u64,
    /// Batches executed.
    pub batches: u64,
    /// Executed batch sizes: bucket `i ≥ 1` counts batches of size in
    /// `[2^(i-1), 2^i)`.
    pub batch_sizes: Histogram,
    /// Queue depth seen at each submission (after the request joined),
    /// same bucketing.
    pub queue_depth: Histogram,
    /// Submit-to-completion latency of every completed request in
    /// microseconds, same bucketing.
    pub latency_us: Histogram,
}

impl ServeStats {
    /// Mean executed batch size (0 when no batch ran yet).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / self.batches as f64
        }
    }

    /// Largest batch observed.
    pub fn largest_batch(&self) -> usize {
        self.batch_sizes.max() as usize
    }

    /// Deepest queue ever observed at a submission.
    pub fn max_queue_depth(&self) -> u64 {
        self.queue_depth.max()
    }

    /// Largest latency ever recorded, in microseconds.
    pub fn max_latency_us(&self) -> u64 {
        self.latency_us.max()
    }

    /// The `q`-quantile of completed-request latency in microseconds
    /// (bucket upper bound capped at the tracked maximum; 0 when nothing
    /// completed).
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        self.latency_us.percentile(q)
    }

    /// Median request latency in microseconds (see
    /// [`ServeStats::latency_percentile_us`]).
    pub fn p50_latency_us(&self) -> u64 {
        self.latency_percentile_us(0.50)
    }

    /// 99th-percentile request latency in microseconds.
    pub fn p99_latency_us(&self) -> u64 {
        self.latency_percentile_us(0.99)
    }

    /// The `q`-quantile of executed batch sizes.
    pub fn batch_size_percentile(&self, q: f64) -> u64 {
        self.batch_sizes.percentile(q)
    }

    /// The `q`-quantile of the queue depth observed at submission.
    pub fn queue_depth_percentile(&self, q: f64) -> u64 {
        self.queue_depth.percentile(q)
    }

    /// Count one executed batch (size, histogram, and the member requests
    /// as completed or failed). Public so external measurement substrates
    /// (the `fpsa_workload` virtual-time replay) can build stats with the
    /// engine's exact bucketing contract.
    pub fn record_batch(&mut self, size: usize, ok: bool) {
        self.batches += 1;
        self.batch_sizes.record(size as u64);
        if ok {
            self.completed += size as u64;
        } else {
            self.failed += size as u64;
        }
    }

    /// Record the queue depth a submission observed.
    pub fn record_queue_depth(&mut self, depth: usize) {
        self.queue_depth.record(depth as u64);
    }

    /// Record one completed request's latency.
    pub fn record_latency(&mut self, us: u64) {
        self.latency_us.record(us);
    }

    /// The aggregate of per-lane counters: counters add, histograms merge.
    pub fn merged(lanes: &[ServeStats]) -> ServeStats {
        let mut total = ServeStats::default();
        for lane in lanes {
            total.submitted += lane.submitted;
            total.completed += lane.completed;
            total.failed += lane.failed;
            total.rejected += lane.rejected;
            total.batches += lane.batches;
            total.batch_sizes.merge(&lane.batch_sizes);
            total.queue_depth.merge(&lane.queue_depth);
            total.latency_us.merge(&lane.latency_us);
        }
        total
    }
}

/// One response: the logits plus the request's queue-to-completion latency
/// in microseconds (stamped by the worker, not by the waiter).
pub type Response = Result<(Vec<f32>, u64), ServeError>;

/// The handle [`ServeEngine::submit`] returns: redeem it for the output.
/// Each ticket is answered exactly once; responses cannot cross between
/// requests because every ticket owns its own channel.
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// A fresh ticket plus the sender that resolves it: send one
    /// [`Response`], or drop the sender to cancel the ticket
    /// ([`Ticket::wait`] then yields [`ServeError::Canceled`]).
    pub(crate) fn channel() -> (mpsc::Sender<Response>, Ticket) {
        let (tx, rx) = mpsc::channel();
        (tx, Ticket { rx })
    }

    /// Block until the output is ready.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`], if it failed.
    pub fn wait(self) -> Result<Vec<f32>, ServeError> {
        self.wait_timed().map(|(out, _)| out)
    }

    /// Block until the output is ready, also returning the request's
    /// submit-to-completion latency in microseconds.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`], if it failed.
    pub fn wait_timed(self) -> Result<(Vec<f32>, u64), ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Canceled))
    }
}

/// Telemetry names of the single-fabric tier.
const SERVE_TIER: Tier = Tier {
    name: "serve",
    hop: "execute",
    station_arg: "",
    depth_counter: "serve.queue_depth",
};

/// The single-model front door over [`crate::core`]: a chain of stations,
/// one per stage executor, one lane, requests entering at stage 0 and
/// resolving at the last. Its two instantiations differ only in how they
/// start and in their telemetry tier: [`ServeEngine`] is the one-stage
/// case, [`crate::ShardedEngine`] (`CHAIN`) the pipeline.
pub struct Engine<const CHAIN: bool> {
    core: Core,
    stages: usize,
    input_len: Option<usize>,
    config: ServeConfig,
}

/// An in-process serving engine over one pre-bound executor: dynamic
/// batching in front, replica sharding behind (see the module docs).
pub type ServeEngine = Engine<false>;

impl<const CHAIN: bool> fmt::Debug for Engine<CHAIN> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(if CHAIN {
            "ShardedEngine"
        } else {
            "ServeEngine"
        })
        .field("config", &self.config)
        .field("stages", &self.stage_count())
        .finish()
    }
}

impl ServeEngine {
    /// Start serving: bind-once executor in, worker pool out.
    pub fn start(executor: Executor, config: ServeConfig) -> ServeEngine {
        Engine::start_stages(vec![executor], config, SERVE_TIER)
    }
}

impl<const CHAIN: bool> Engine<CHAIN> {
    /// Start one station per stage executor, each with `config.replicas`
    /// workers.
    pub(crate) fn start_stages(stages: Vec<Executor>, config: ServeConfig, tier: Tier) -> Self {
        let config = ServeConfig {
            replicas: config.replicas.max(1),
            max_batch: config.max_batch.max(1),
            ..config
        };
        let input_len = stages[0].input_len();
        let stages: Vec<Arc<Executor>> = stages.into_iter().map(Arc::new).collect();
        let stations = stages.len();
        let core = Core::start(
            CoreConfig {
                tier,
                stations,
                chain: true,
                replicas: config.replicas,
                policy: BatchPolicy::new(config.max_batch, config.batch_window_us),
                lane_weights: Vec::new(),
            },
            Box::new(move |stage, _| Ok(Arc::clone(&stages[stage]))),
        );
        Engine {
            core,
            stages: stations,
            input_len,
            config,
        }
    }

    /// The (clamped) configuration the engine runs with.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Number of pipeline stages (1 for the single-fabric engine).
    pub fn stage_count(&self) -> usize {
        self.stages
    }

    /// Enqueue one request; never blocks on the model. Invalid inputs and
    /// post-shutdown submissions resolve the ticket immediately with an
    /// error instead of poisoning a batch.
    pub fn submit(&self, input: Vec<f32>) -> Ticket {
        let got = input.len();
        let admitted = match self.input_len {
            Some(want) if got != want => Err(ServeError::InputLength { got, want }),
            _ => Ok((0, 0, input)),
        };
        self.core.submit(0, &[], admitted)
    }

    /// Submit one request and block for its output.
    ///
    /// # Errors
    ///
    /// The request's [`ServeError`], if it failed.
    pub fn infer(&self, input: Vec<f32>) -> Result<Vec<f32>, ServeError> {
        self.submit(input).wait()
    }

    /// Submit a whole batch and collect the outputs in submission order.
    ///
    /// # Errors
    ///
    /// The first failing request's [`ServeError`].
    pub fn serve_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        let tickets: Vec<Ticket> = inputs.iter().map(|x| self.submit(x.clone())).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// A snapshot of the lifetime counters. Batches are counted where they
    /// complete (the exit stage), so in a pipeline `batches` means "batches
    /// that crossed every stage".
    pub fn stats(&self) -> ServeStats {
        ServeStats::merged(&self.core.stats())
    }

    /// Stop admitting requests, drain every stage front to back, join the
    /// workers and return the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_and_join();
        self.stats()
    }

    pub(crate) fn shutdown_and_join(&mut self) {
        self.core.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_core::Compiler;
    use fpsa_nn::{zoo, GraphParameters};
    use fpsa_sim::Precision;

    impl ServeConfig {
        /// The no-coalescing configuration: one replica, batch size 1, no wait —
        /// the engine-shaped equivalent of calling `Executor::run` per request.
        pub(crate) fn direct() -> Self {
            ServeConfig {
                replicas: 1,
                max_batch: 1,
                batch_window_us: 0,
            }
        }
    }

    fn mlp_executor() -> Executor {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 7);
        let compiled = Compiler::fpsa().compile(&graph).unwrap();
        compiled
            .executor(&graph, &params, &Precision::Float)
            .unwrap()
    }

    fn sample(seed: u64) -> Vec<f32> {
        (0..16).map(|i| ((seed + i) % 10) as f32 * 0.1).collect()
    }

    #[test]
    fn served_outputs_match_direct_execution() {
        let exec = mlp_executor();
        let direct: Vec<Vec<f32>> = (0..6).map(|i| exec.run(&sample(i)).unwrap()).collect();
        let engine = ServeEngine::start(mlp_executor(), ServeConfig::default());
        let inputs: Vec<Vec<f32>> = (0..6).map(sample).collect();
        let served = engine.serve_batch(&inputs).unwrap();
        assert_eq!(served, direct);
        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed + stats.rejected, 0);
    }

    #[test]
    fn bad_input_lengths_are_rejected_without_poisoning_the_queue() {
        let engine = ServeEngine::start(mlp_executor(), ServeConfig::direct());
        let err = engine.infer(vec![0.0; 3]).unwrap_err();
        assert_eq!(err, ServeError::InputLength { got: 3, want: 16 });
        // A well-formed request right after still serves.
        assert_eq!(engine.infer(sample(1)).unwrap().len(), 4);
        let stats = engine.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn a_full_batch_flushes_before_its_window_expires() {
        // Window far beyond the test's patience: these four requests
        // complete promptly through the size trigger or because the lone
        // worker finds the engine idle — which one depends on when it wakes.
        // (`core`'s tests pin the size trigger on a busy engine.)
        let config = ServeConfig {
            replicas: 1,
            max_batch: 4,
            batch_window_us: 30_000_000,
        };
        let engine = ServeEngine::start(mlp_executor(), config);
        let tickets: Vec<Ticket> = (0..4).map(|i| engine.submit(sample(i))).collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 4);
        assert!((1..=4).contains(&stats.batches), "{stats:?}");
        assert!(stats.largest_batch() <= 4);
    }

    #[test]
    fn shutdown_drains_pending_requests_instead_of_dropping_them() {
        let config = ServeConfig {
            replicas: 2,
            max_batch: 8,
            batch_window_us: 30_000_000,
        };
        let engine = ServeEngine::start(mlp_executor(), config);
        // Three stragglers that would otherwise wait out a 30 s window.
        let tickets: Vec<Ticket> = (0..3).map(|i| engine.submit(sample(i))).collect();
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 3);
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().len(), 4);
        }
    }

    #[test]
    fn config_clamps_to_at_least_one_replica_and_batch() {
        let engine = ServeEngine::start(
            mlp_executor(),
            ServeConfig {
                replicas: 0,
                max_batch: 0,
                batch_window_us: 0,
            },
        );
        assert_eq!(engine.config().replicas, 1);
        assert_eq!(engine.config().max_batch, 1);
        assert_eq!(engine.infer(sample(0)).unwrap().len(), 4);
    }

    #[test]
    fn histograms_account_for_every_request_and_batch() {
        let engine = ServeEngine::start(mlp_executor(), ServeConfig::direct());
        for i in 0..5 {
            engine.infer(sample(i)).unwrap();
        }
        let stats = engine.shutdown();
        assert_eq!(stats.batch_sizes.count(), stats.batches);
        assert_eq!(stats.latency_us.count(), stats.completed);
        assert_eq!(
            stats.queue_depth.count(),
            stats.submitted,
            "every admitted request records the depth it observed"
        );
        // Direct mode executes batches of exactly one.
        assert_eq!(stats.batch_size_percentile(0.5), 1);
        assert_eq!(stats.batch_size_percentile(0.99), 1);
        assert!(stats.p50_latency_us() <= stats.p99_latency_us());
        assert!(stats.queue_depth_percentile(0.5) >= 1);
    }

    #[test]
    fn histogram_percentiles_use_bucket_upper_bounds_capped_at_the_maximum() {
        let mut stats = ServeStats::default();
        // 99 fast requests at 3 us (bucket [2,3]), one straggler at 1000 us.
        for _ in 0..99 {
            stats.record_latency(3);
        }
        stats.record_latency(1_000);
        assert_eq!(stats.p50_latency_us(), 3);
        assert_eq!(stats.p99_latency_us(), 3);
        // The top non-empty bucket's upper bound (1023) is capped at the
        // tracked maximum: the p100 answer is exact.
        assert_eq!(stats.latency_percentile_us(1.0), 1_000);
        assert_eq!(stats.max_latency_us(), 1_000);
        assert_eq!(ServeStats::default().p99_latency_us(), 0);
        // Zero values land in bucket zero.
        let mut zeros = ServeStats::default();
        zeros.record_queue_depth(0);
        assert_eq!(zeros.queue_depth_percentile(0.5), 0);
    }

    #[test]
    fn overflow_bucket_reports_the_tracked_maximum_not_its_saturated_bound() {
        // Regression: `stats_bucket` clamps to bucket 31, whose power-of-two
        // upper bound is 2^31 − 1 µs (~36 min). A multi-hour latency used to
        // be silently reported as ~36 min — a >5× under-report that broke
        // the documented "never under-reported by more than one bucket (2×)"
        // contract. The overflow bucket must answer with the true maximum.
        let four_hours_us: u64 = 4 * 3_600 * 1_000_000;
        assert!(four_hours_us > (1u64 << 31) - 1);
        let mut stats = ServeStats::default();
        stats.record_latency(four_hours_us);
        assert_eq!(stats.latency_us.buckets()[STATS_BUCKETS - 1], 1);
        assert_eq!(stats.p50_latency_us(), four_hours_us);
        assert_eq!(stats.p99_latency_us(), four_hours_us);
        assert_eq!(stats.latency_percentile_us(1.0), four_hours_us);

        // Mixed with fast traffic, the tail percentile still reports the
        // true maximum once its rank lands in the overflow bucket.
        let mut mixed = ServeStats::default();
        for _ in 0..9 {
            mixed.record_latency(100);
        }
        mixed.record_latency(four_hours_us);
        assert_eq!(mixed.p50_latency_us(), 127);
        assert_eq!(mixed.latency_percentile_us(0.95), four_hours_us);

        // The same contract holds for the queue-depth histogram.
        let mut deep = ServeStats::default();
        deep.record_queue_depth(usize::try_from(3u64 << 31).unwrap());
        assert_eq!(deep.queue_depth_percentile(0.99), 3u64 << 31);
    }

    #[test]
    fn stats_mean_batch_is_well_defined() {
        assert_eq!(ServeStats::default().mean_batch(), 0.0);
        let stats = ServeStats {
            completed: 6,
            batches: 2,
            ..ServeStats::default()
        };
        assert!((stats.mean_batch() - 3.0).abs() < 1e-12);
    }
}
