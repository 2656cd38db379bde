//! `serve-steady`: an open loop, because independent users do not wait for
//! each other.
//!
//! One generator thread submits Poisson arrivals at the scenario's fixed
//! 5000 req/s (about 11% of saturation) to a `ServeEngine` on MLP-500-100
//! Float, 2 replicas, batches of up to 8, 200 µs window. At this rate
//! batches hold 1–2 requests and the median latency is set by the serve
//! layer's batch window, wake-up and respond path; the kernel is a small
//! part of it. Latency counts from the instant a request was *due*:
//! generator lag plus the worker-stamped latency.
//!
//! One operation is one request.

use super::serving::{
    arrivals, report_engine, scenario_rate, serve_config, steady_scenario, ServedModel,
};
use crate::common::{open_loop, timed_setup, Args, Served, LATENCY_WINDOW_S};
use crate::report::{Outcome, RoundStats};
use crate::span::Recorder;
use crate::stats::{mean, quantile};
use fpsa::nn::zoo;

const ROUNDS: usize = 9;
/// Share of the run spent warming the engine up, off the clock.
const WARM_UP: f64 = 0.05;
/// A ladder rate is within its limit when the 99th percentile from due time
/// is at most this and the backlog is not growing.
const SLO_P99_US: f64 = 2_000.0;
const LADDER: [(f64, &str); 3] = [
    (2_500.0, "serve.ladder_p99_us.r2500"),
    (10_000.0, "serve.ladder_p99_us.r10000"),
    (20_000.0, "serve.ladder_p99_us.r20000"),
];

/// Whether latency stayed level over the phase: the last quarter's mean is
/// not far above the first quarter's.
fn backlog_is_level(served: &Served) -> bool {
    let latencies = &served.engine_latency_us;
    let quarter = latencies.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = mean(&latencies[..quarter]);
    let last = mean(&latencies[latencies.len() - quarter..]);
    last <= 2.0 * first + 200.0
}

pub fn run(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let (mut model, setup_s) = timed_setup(|| ServedModel::setup(args.seed, 0, zoo::mlp_500_100));
    if args.corrupt {
        model.pool.corrupt();
    }
    let scenario = steady_scenario(args.seed);
    let config = serve_config(&scenario);
    let rate = scenario_rate(&scenario);

    let (all, record_per_s) = arrivals(&scenario, rate, args.seconds);
    let warm_up = (all.len() as f64 * WARM_UP) as usize;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |served: &Served| {
        attempted += served.attempted;
        failed += served.failed;
    };

    if !args.traced {
        let engine = model.engine(config);
        open_loop(rec, &engine, &model.pool, &all[..warm_up]);
        let per_round = (all.len() - warm_up) / ROUNDS;
        let mut rounds = RoundStats::default();
        let mut due_latency_us = Vec::new();
        for round in 0..ROUNDS {
            let from = warm_up + round * per_round;
            let served = open_loop(rec, &engine, &model.pool, &all[from..from + per_round]);
            tally(&served);
            rounds.rate(served.rps());
            due_latency_us.extend(served.due_latency_us());
        }
        engine.shutdown();
        rounds.latency_windows(&due_latency_us, (rate * LATENCY_WINDOW_S) as usize);
        out.end_to_end_from_rounds(setup_s, &rounds);
    } else {
        // 15% of the arrivals untraced, 30% traced, then the rate ladder.
        let untraced_n = (all.len() as f64 * 0.15) as usize;
        let traced_n = (all.len() as f64 * 0.30) as usize;
        let engine = model.engine(config);
        open_loop(rec, &engine, &model.pool, &all[..warm_up]);
        let from = warm_up;
        let untraced = open_loop(rec, &engine, &model.pool, &all[from..from + untraced_n]);
        tally(&untraced);
        engine.shutdown();

        let engine = model.engine(config);
        let from = from + untraced_n;
        let root = rec.open_root();
        let served = open_loop(rec, &engine, &model.pool, &all[from..from + traced_n]);
        rec.close_root(root);
        tally(&served);
        let stats = engine.shutdown();
        report_engine(out, &stats, &served);
        out.set("serve.submit_ns", rec.mean_ns("serve", "submit"));
        out.set("bench.generator_lag_p99_us", quantile(&served.lag_us, 0.99));
        // An open loop completes what is offered either way; what the spans
        // cost shows in the latency.
        out.set(
            "bench.trace_overhead_ratio",
            quantile(&served.due_latency_us(), 0.5) / quantile(&untraced.due_latency_us(), 0.5),
        );
        out.set("bench.layer_self_share", rec.layer_self_share());

        let mut within = Vec::new();
        if quantile(&served.due_latency_us(), 0.99) <= SLO_P99_US && backlog_is_level(&served) {
            within.push(rate);
        }
        for (ladder_rate, metric) in LADDER {
            let (at, _) = arrivals(&scenario, ladder_rate, args.seconds * 0.15);
            let engine = model.engine(config);
            let step = open_loop(rec, &engine, &model.pool, &at);
            engine.shutdown();
            tally(&step);
            let p99 = quantile(&step.due_latency_us(), 0.99);
            out.set(metric, p99);
            if p99 <= SLO_P99_US && backlog_is_level(&step) {
                within.push(ladder_rate);
            }
        }
        out.set(
            "serve.max_rate_within_slo_rps",
            within.into_iter().fold(0.0, f64::max),
        );
        out.set("workload.record_events_per_s", record_per_s);
        out.set("nn.graph_build_ms", model.graph_build_ms);
        out.set("nn.params_seed_ms", model.params_seed_ms);
        out.set("sim.bind_ms.float", model.bind_ms);
    }
    out.phase("requests", attempted, failed);
    out.phase("reference", model.reference.0, model.reference.1);
}
