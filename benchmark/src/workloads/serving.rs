//! What the two `serve-*` workloads share: the served model's set-up, the
//! benchmark-owned scenario, and the `serve` layer's per-layer metrics.

use crate::common::{Pool, Served};
use crate::report::Outcome;
use crate::rng;
use crate::stats::quantile;
use fpsa::core::{CompiledModel, Compiler};
use fpsa::nn::{ComputationalGraph, GraphParameters};
use fpsa::serve::{ServeConfig, ServeEngine, ServeStats};
use fpsa::sim::Precision;
use fpsa::workload::{ArrivalProcess, Scenario, TraceRecorder};
use std::time::Instant;

/// Distinct inputs a serving workload cycles through.
const POOL: usize = 256;
/// Direct outputs checked against the golden reference.
const REFERENCE_CHECKS: usize = 16;

const STEADY_POISSON: &str = include_str!("../../scenarios/steady-poisson.scenario");

/// A compiled model with generated inputs and their expected outputs.
pub struct ServedModel {
    pub graph: ComputationalGraph,
    pub params: GraphParameters,
    pub compiled: CompiledModel,
    pub pool: Pool,
    pub graph_build_ms: f64,
    pub params_seed_ms: f64,
    pub bind_ms: f64,
    pub reference: (u64, u64),
}

impl ServedModel {
    /// Build, seed, compile and bind `build()`'s graph; `stream` keeps two
    /// models of one run on different parameter and input streams.
    pub fn setup(seed: u64, stream: u64, build: fn() -> ComputationalGraph) -> ServedModel {
        let start = Instant::now();
        let graph = build();
        let graph_build_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let params = GraphParameters::seeded(&graph, rng::params_seed(stream));
        let params_seed_ms = start.elapsed().as_secs_f64() * 1e3;
        let compiled = Compiler::fpsa()
            .compile(&graph)
            .expect("served model compiles");
        let start = Instant::now();
        let exec = compiled
            .executor(&graph, &params, &Precision::Float)
            .expect("served model binds");
        let bind_ms = start.elapsed().as_secs_f64() * 1e3;
        let pool = Pool::build(
            &exec,
            rng::inputs(seed, stream, POOL, graph.input_elements()),
        );
        let reference = pool.verify_float(&graph, &params, REFERENCE_CHECKS);
        ServedModel {
            graph,
            params,
            compiled,
            pool,
            graph_build_ms,
            params_seed_ms,
            bind_ms,
            reference,
        }
    }

    /// A fresh engine over a fresh bind, so each phase's `stats()` are its
    /// own.
    pub fn engine(&self, config: ServeConfig) -> ServeEngine {
        let exec = self
            .compiled
            .executor(&self.graph, &self.params, &Precision::Float)
            .expect("served model binds");
        ServeEngine::start(exec, config)
    }
}

/// The benchmark's copy of the steady-Poisson scenario, seeded from the run.
pub fn steady_scenario(seed: u64) -> Scenario {
    let mut scenario = Scenario::parse(STEADY_POISSON).expect("benchmark scenario parses");
    scenario.seed = rng::derive(seed, rng::STREAM_TRACE, 0);
    scenario
}

pub fn serve_config(scenario: &Scenario) -> ServeConfig {
    ServeConfig {
        replicas: scenario.policy.replicas,
        max_batch: scenario.policy.max_batch,
        batch_window_us: scenario.policy.window_us,
    }
}

pub fn scenario_rate(scenario: &Scenario) -> f64 {
    match scenario.arrival {
        ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
        _ => panic!("the benchmark's serving scenario is Poisson"),
    }
}

/// Poisson arrival times (µs) at `rate` for `seconds`, recorded by the
/// library's `TraceRecorder` from the scenario; also returns the host
/// time recording took per event, as events/s.
pub fn arrivals(scenario: &Scenario, rate: f64, seconds: f64) -> (Vec<u64>, f64) {
    let mut scenario = scenario
        .clone()
        .with_arrival(ArrivalProcess::Poisson { rate_per_s: rate });
    scenario.requests = ((rate * seconds) as usize).max(64);
    let start = Instant::now();
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("benchmark scenario records");
    let per_s = trace.len() as f64 / start.elapsed().as_secs_f64();
    (trace.events.iter().map(|e| e.at_us).collect(), per_s)
}

/// The `serve` layer's counters for one phase.
pub fn report_engine(out: &mut Outcome, stats: &ServeStats, served: &Served) {
    out.set("serve.mean_batch", stats.mean_batch());
    out.set("serve.batches", stats.batches as f64);
    out.set(
        "serve.queue_depth_p99",
        stats.queue_depth_percentile(0.99) as f64,
    );
    out.set("serve.rejected", stats.rejected as f64);
    out.set(
        "serve.engine_latency_p50_us",
        quantile(&served.engine_latency_us, 0.5),
    );
    out.set(
        "serve.engine_latency_p99_us",
        quantile(&served.engine_latency_us, 0.99),
    );
}
