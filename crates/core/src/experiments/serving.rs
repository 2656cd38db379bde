//! Serving throughput of the `fpsa_serve` engine — beyond the paper.
//!
//! The paper's evaluation reports per-sample fabric performance; this driver
//! measures the *system* question the ROADMAP's north star asks: how many
//! requests per second does a compiled model sustain once it is put behind a
//! real request path?
//!
//! Two request paths are compared on identical request streams:
//!
//! * **direct** — the status quo before `fpsa_serve` existed: every request
//!   pays `CompiledModel::executor` (a fresh `Executor::bind`: weight
//!   realization plus artifact verification) and then one `run`, exactly
//!   what calling the execution engine per request costs;
//! * **engine** — a [`ServeEngine`](fpsa_serve::ServeEngine) that binds once and serves forever,
//!   for every (replica count × batch config) point of the sweep grid.
//!
//! Outputs are required to be **bit-identical** between the two paths for
//! every request the driver compares — serving must change *when* work
//! happens, never *what* is computed. Requests/s, p50 and p99 latency land
//! in `BENCH_serving.json` via the `serving_throughput` bench target.

use crate::compiler::Compiler;
use crate::report::{format_table, nearest_rank_percentile};
use fpsa_nn::zoo::Benchmark;
use fpsa_nn::GraphParameters;
use fpsa_serve::ServeConfig;
use fpsa_sim::Precision;
use fpsa_workload::{Scenario, Trace, TraceRecorder, TraceReplayer};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Seed for the experiment's parameters and request stream.
const SEED: u64 = 0x5E4E;

/// How many leading requests have their outputs cross-checked bit-for-bit
/// against the direct path (bounds the memory the check keeps around).
const CHECKED_OUTPUTS: usize = 32;

/// One (replicas × batch config) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingPoint {
    /// Model served.
    pub model: String,
    /// Replica worker threads.
    pub replicas: usize,
    /// Maximum dynamic batch size.
    pub max_batch: usize,
    /// Batch window in microseconds.
    pub window_us: u64,
    /// Requests served during the timed phase.
    pub requests: usize,
    /// Sustained throughput.
    pub requests_per_s: f64,
    /// Median submit-to-completion latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile submit-to-completion latency, microseconds.
    pub p99_latency_us: f64,
    /// Mean executed batch size (how much coalescing actually happened).
    pub mean_batch: f64,
    /// Largest batch the engine executed.
    pub largest_batch: usize,
    /// Median latency from the engine's own `ServeStats` histogram, in
    /// microseconds (bucketed to powers of two — the engine-side view of
    /// `p50_latency_us`, which is measured exactly by the driver).
    pub engine_p50_us: u64,
    /// 99th-percentile latency from the engine's histogram, microseconds.
    pub engine_p99_us: u64,
    /// 99th-percentile queue depth observed at submission (engine
    /// histogram) — how deep the backlog ran under this batch policy.
    pub queue_depth_p99: u64,
    /// `requests_per_s` over the direct path's requests/s.
    pub speedup_vs_direct: f64,
}

/// The serving sweep for one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Model served.
    pub model: String,
    /// Direct-path (bind per request, batch size 1) throughput.
    pub direct_requests_per_s: f64,
    /// Direct-path median latency, microseconds.
    pub direct_p50_us: f64,
    /// Direct-path 99th-percentile latency, microseconds.
    pub direct_p99_us: f64,
    /// One point per grid entry.
    pub points: Vec<ServingPoint>,
}

/// Regenerate the default sweep: the two MNIST-scale benchmarks over
/// 1/2/4 replicas and three batch policies.
pub fn run() -> Vec<ServingReport> {
    run_with(
        &[Benchmark::Mlp500x100, Benchmark::LeNet],
        &[1, 2, 4],
        &[(1, 0), (8, 200), (32, 1_000)],
        160,
    )
}

/// The shared workload scenario every serving sweep replays: a recorded
/// steady stream of `requests` events whose input vectors regenerate from
/// the trace seed by index. Replacing the old hand-rolled "cycle a pool of
/// samples" loop with a scenario means the serving and sharding drivers (and
/// any future harness) replay the *same* workload definition instead of
/// re-implementing arrival loops.
fn sweep_scenario(model: &str, requests: usize) -> Scenario {
    Scenario::steady(format!("serving-sweep-{model}"), model, SEED, requests)
}

/// Regenerate for arbitrary models, replica counts, `(max_batch,
/// window_us)` policies and request count. Every engine point replays the
/// same recorded `requests`-long trace the direct path ran, and the leading
/// `CHECKED_OUTPUTS` (32) outputs are asserted bit-identical to it.
pub fn run_with(
    benchmarks: &[Benchmark],
    replicas: &[usize],
    batch_configs: &[(usize, u64)],
    requests: usize,
) -> Vec<ServingReport> {
    let requests = requests.max(1);
    benchmarks
        .iter()
        .map(|&benchmark| {
            let graph = benchmark.build();
            let params = GraphParameters::seeded(&graph, SEED);
            // An execution-throughput driver, not a physical-design gate:
            // over-limit models (VGG16-scale) keep serving via the explicit
            // analytic fallback instead of tripping CapacityExceeded.
            let compiled = Compiler::fpsa()
                .with_analytic_fallback()
                .compile(&graph)
                .expect("zoo benchmarks compile");

            let trace = TraceRecorder::new(&sweep_scenario(benchmark.name(), requests))
                .record()
                .expect("scenario is valid");
            let input_len = graph.input_elements();

            // Direct path: bind per request, run, one at a time.
            let mut direct_latencies = Vec::with_capacity(requests);
            let mut reference_outputs: Vec<Vec<f32>> = Vec::new();
            let direct_start = Instant::now();
            for i in 0..requests {
                let x = trace.input_for(i, input_len);
                let t = Instant::now();
                let exec = compiled
                    .executor(&graph, &params, &Precision::Float)
                    .expect("compiled benchmarks bind");
                let out = exec.run(&x).expect("direct execution succeeds");
                direct_latencies.push(t.elapsed().as_micros() as f64);
                if i < CHECKED_OUTPUTS {
                    reference_outputs.push(out);
                }
            }
            let direct_elapsed = direct_start.elapsed().as_secs_f64();
            let direct_requests_per_s = requests as f64 / direct_elapsed.max(1e-9);
            direct_latencies.sort_by(f64::total_cmp);

            let points = replicas
                .iter()
                .flat_map(|&r| batch_configs.iter().map(move |&(mb, w)| (r, mb, w)))
                .map(|(replica_count, max_batch, window_us)| {
                    measure_engine_point(
                        &compiled,
                        &graph,
                        &params,
                        benchmark.name(),
                        &trace,
                        input_len,
                        &reference_outputs,
                        direct_requests_per_s,
                        ServeConfig {
                            replicas: replica_count,
                            max_batch,
                            batch_window_us: window_us,
                        },
                    )
                })
                .collect();

            ServingReport {
                model: benchmark.name().to_string(),
                direct_requests_per_s,
                direct_p50_us: nearest_rank_percentile(&direct_latencies, 0.50),
                direct_p99_us: nearest_rank_percentile(&direct_latencies, 0.99),
                points,
            }
        })
        .collect()
}

/// Replay the recorded trace through one engine configuration and measure
/// it. The arrival loop itself lives in [`fpsa_workload::TraceReplayer`] —
/// shared with the sharding sweep and the workload bench, not re-rolled
/// per driver.
#[allow(clippy::too_many_arguments)]
fn measure_engine_point(
    compiled: &crate::compiler::CompiledModel,
    graph: &fpsa_nn::ComputationalGraph,
    params: &GraphParameters,
    model: &str,
    trace: &Trace,
    input_len: usize,
    reference_outputs: &[Vec<f32>],
    direct_requests_per_s: f64,
    config: ServeConfig,
) -> ServingPoint {
    let engine = compiled
        .serve(graph, params, &Precision::Float, config)
        .expect("compiled benchmarks serve");
    // Warm the replica arenas so the timed phase sees the steady state.
    // Sequential single requests (each waited out before the next) cannot
    // coalesce, so warm-up adds only batches of one; the snapshot below
    // subtracts them from the coalescing metrics.
    for _ in 0..2 {
        engine
            .infer(trace.input_for(0, input_len))
            .expect("warm-up requests are served");
    }
    let warm = engine.stats();

    let outcome = TraceReplayer::new(trace, input_len).replay(&engine);
    for (i, (out, want)) in outcome.outputs.iter().zip(reference_outputs).enumerate() {
        assert_eq!(
            out, want,
            "{model}: served output {i} diverged from the direct path"
        );
    }
    let stats = engine.shutdown();
    let mut latencies: Vec<f64> = outcome.latencies_us.iter().map(|&l| l as f64).collect();
    latencies.sort_by(f64::total_cmp);

    // Coalescing metrics over the timed phase only (warm-up subtracted).
    let timed_batches = stats.batches.saturating_sub(warm.batches);
    let timed_completed = stats.completed.saturating_sub(warm.completed);
    let mean_batch = if timed_batches == 0 {
        0.0
    } else {
        timed_completed as f64 / timed_batches as f64
    };

    let requests_per_s = outcome.throughput_rps();
    ServingPoint {
        model: model.to_string(),
        replicas: config.replicas,
        max_batch: config.max_batch,
        window_us: config.batch_window_us,
        requests: trace.len(),
        requests_per_s,
        p50_latency_us: nearest_rank_percentile(&latencies, 0.50),
        p99_latency_us: nearest_rank_percentile(&latencies, 0.99),
        mean_batch,
        largest_batch: stats.largest_batch(),
        engine_p50_us: stats.p50_latency_us(),
        engine_p99_us: stats.p99_latency_us(),
        queue_depth_p99: stats.queue_depth_percentile(0.99),
        speedup_vs_direct: requests_per_s / direct_requests_per_s.max(1e-9),
    }
}

/// Render the sweep as text.
pub fn to_table(reports: &[ServingReport]) -> String {
    let mut rows = Vec::new();
    for report in reports {
        rows.push(vec![
            report.model.clone(),
            "direct (bind/req)".to_string(),
            "1".to_string(),
            "-".to_string(),
            format!("{:.0}", report.direct_requests_per_s),
            format!("{:.0}", report.direct_p50_us),
            format!("{:.0}", report.direct_p99_us),
            "-".to_string(),
            "1.00".to_string(),
        ]);
        for p in &report.points {
            rows.push(vec![
                p.model.clone(),
                format!("{} replicas", p.replicas),
                p.max_batch.to_string(),
                format!("{}us", p.window_us),
                format!("{:.0}", p.requests_per_s),
                format!("{:.0}", p.p50_latency_us),
                format!("{:.0}", p.p99_latency_us),
                format!("<={}", p.queue_depth_p99),
                format!("{:.2}", p.speedup_vs_direct),
            ]);
        }
    }
    format_table(
        &[
            "model",
            "path",
            "max batch",
            "window",
            "req/s",
            "p50 us",
            "p99 us",
            "queue p99",
            "speedup",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_grid_and_outputs_stay_bit_identical() {
        // Output bit-identity between the direct and served paths is
        // asserted inside the driver for every compared request.
        let reports = run_with(&[Benchmark::Mlp500x100], &[1], &[(1, 0), (4, 500)], 6);
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.points.len(), 2);
        assert!(report.direct_requests_per_s > 0.0);
        for p in &report.points {
            assert_eq!(p.requests, 6);
            assert!(p.requests_per_s > 0.0);
            assert!(p.p50_latency_us <= p.p99_latency_us);
            assert!(p.speedup_vs_direct > 0.0);
            assert!(p.largest_batch >= 1);
            // The engine-histogram view of the same latencies (bucketed,
            // warm-up included) stays ordered and in the right ballpark.
            assert!(p.engine_p50_us <= p.engine_p99_us);
            assert!(p.queue_depth_p99 >= 1);
        }
        let table = to_table(&reports);
        assert!(table.contains("direct (bind/req)"));
        assert!(table.contains("MLP-500-100"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank_percentile(&sorted, 0.50), 2.0);
        assert_eq!(nearest_rank_percentile(&sorted, 0.99), 4.0);
        assert_eq!(nearest_rank_percentile(&[], 0.5), 0.0);
    }

    /// The PR's acceptance bar: on MLP-500-100, four pre-bound
    /// replicas with dynamic batching sustain at least 3× the requests/s of
    /// the 1-replica, batch-size-1, bind-per-request path — with
    /// bit-identical outputs (asserted inside the driver). Release-only:
    /// debug-build timings measure the optimizer, not the engine.
    #[cfg(not(debug_assertions))]
    #[test]
    fn four_replica_serving_sustains_3x_the_direct_path_on_mlp_500_100() {
        let reports = run_with(&[Benchmark::Mlp500x100], &[4], &[(8, 200)], 192);
        let report = &reports[0];
        let point = &report.points[0];
        assert!(
            point.speedup_vs_direct >= 3.0,
            "serving speedup {:.2} < 3.0 (engine {:.0} req/s vs direct {:.0} req/s)",
            point.speedup_vs_direct,
            point.requests_per_s,
            report.direct_requests_per_s
        );
    }
}
