//! `serve-saturate`: a closed loop on the same engine configuration and
//! model as `serve-steady`, used the opposite way.
//!
//! One client thread keeps 64 requests in flight, so batches are full, the
//! queue is never empty and about 95% of a request's cost is the kernel. A
//! serve-layer change that buys `serve-steady` latency by giving up batch
//! fill shows here; a kernel gain shows here and not in `serve-steady`. In
//! flight is bounded on purpose: a bounded queue in the engine must not
//! turn this workload into rejections.
//!
//! One operation is one request; latency is the worker-stamped
//! submit-to-completion time (with 64 in flight it follows throughput by
//! Little's law, and is reported for the tail).

use super::serving::{report_engine, serve_config, steady_scenario, ServedModel};
use crate::common::{closed_loop, kernel_us_per_sample, timed_setup, Args, Served, IN_FLIGHT};
use crate::report::{Outcome, RoundStats};
use crate::rng;
use crate::span::Recorder;
use crate::stats::quantile;
use fpsa::nn::{mlp_graph, zoo, GraphParameters};
use fpsa::obs::{Mode, Phase, Tracer};
use fpsa::serve::{ServeConfig, ServeEngine};
use fpsa::shard::{FabricBudget, ShardCompiler};
use fpsa::sim::Precision;
use fpsa::workload::{simulate, ArrivalProcess, TraceRecorder};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const ROUNDS: usize = 5;
/// Share of the run spent warming the engine up, off the clock.
const WARM_UP: f64 = 0.04;

fn drive(
    rec: &mut Recorder,
    engine: &ServeEngine,
    model: &ServedModel,
    duration: Duration,
) -> Served {
    let pool = &model.pool;
    closed_loop(
        rec,
        "serve",
        duration,
        |i| engine.submit(pool.inputs[i % pool.len()].clone()),
        |i| &pool.expected[i % pool.len()],
    )
}

/// Median duration in µs of the library's own spans named `name`, paired
/// begin to end by correlation id; 0 when the library records none.
fn library_span_p50_us(events: &[fpsa::obs::Event], name: &str) -> f64 {
    let mut open: HashMap<u64, u64> = HashMap::new();
    let mut durations = Vec::new();
    for event in events.iter().filter(|e| e.name == name) {
        match event.phase {
            Phase::SpanBegin => {
                open.insert(event.id, event.ts_us);
            }
            Phase::SpanEnd => {
                if let Some(begin) = open.remove(&event.id) {
                    durations.push(event.ts_us.saturating_sub(begin) as f64);
                }
            }
            _ => {}
        }
    }
    quantile(&durations, 0.5)
}

/// The closed loop through a `ShardedEngine` on the shard crate's sweep
/// model, auto-partitioned at 8 PEs per fabric.
fn shard_pipeline(args: &Args, rec: &mut Recorder, out: &mut Outcome, config: ServeConfig) {
    let graph = mlp_graph("MLP-300-280-260-10", &[300, 280, 260, 10]);
    let params = GraphParameters::seeded(&graph, rng::params_seed(9));
    let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(8))
        .with_sequential_stage_compile()
        .compile_auto(&graph)
        .expect("model shards at 8 PEs per fabric");
    let inputs = rng::inputs(args.seed, 9, 64, graph.input_elements());
    let direct = fpsa::core::Compiler::fpsa()
        .compile(&graph)
        .expect("unsharded model compiles")
        .executor(&graph, &params, &Precision::Float)
        .expect("unsharded model binds");
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| direct.run(x).expect("direct execution"))
        .collect();
    // One worker per stage keeps the pipeline within the host's cores.
    let engine = sharded
        .serve(&params, &Precision::Float, config.with_replicas(1))
        .expect("sharded model serves");
    let served = closed_loop(
        rec,
        "shard",
        args.slice(0.1),
        |i| engine.submit(inputs[i % inputs.len()].clone()),
        |i| &expected[i % inputs.len()],
    );
    engine.shutdown();
    out.set("shard.pipeline_rps", served.rps());
    out.set("shard.stages", sharded.stage_count() as f64);
    out.phase("shard-pipeline", served.attempted, served.failed);
}

pub fn run(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let (mut model, setup_s) = timed_setup(|| ServedModel::setup(args.seed, 0, zoo::mlp_500_100));
    if args.corrupt {
        model.pool.corrupt();
    }
    let scenario = steady_scenario(args.seed);
    let config = serve_config(&scenario);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |served: &Served| {
        attempted += served.attempted;
        failed += served.failed;
    };

    if !args.traced {
        let engine = model.engine(config);
        drive(rec, &engine, &model, args.slice(WARM_UP));
        let round = args.slice((1.0 - WARM_UP) / ROUNDS as f64);
        let mut rounds = RoundStats::default();
        for _ in 0..ROUNDS {
            let served = drive(rec, &engine, &model, round);
            tally(&served);
            rounds.rate(served.rps());
            rounds.latency_windows_whole_us(&served.engine_latency_us, served.latency_window());
        }
        engine.shutdown();
        out.end_to_end_from_rounds(setup_s, &rounds);
    } else {
        let exec = model
            .compiled
            .executor(&model.graph, &model.params, &Precision::Float)
            .expect("served model binds");
        let kernel_us = kernel_us_per_sample(&exec, &model.pool.inputs[..8], args.slice(0.05));

        let engine = model.engine(config);
        drive(rec, &engine, &model, args.slice(WARM_UP));
        let untraced = drive(rec, &engine, &model, args.slice(0.12));
        tally(&untraced);
        engine.shutdown();

        let engine = model.engine(config);
        let root = rec.open_root();
        let served = drive(rec, &engine, &model, args.slice(0.2));
        rec.close_root(root);
        tally(&served);
        let stats = engine.shutdown();
        report_engine(out, &stats, &served);
        out.set("serve.submit_ns", rec.mean_ns("serve", "submit"));
        out.set("bench.trace_overhead_ratio", untraced.rps() / served.rps());
        out.set("bench.layer_self_share", rec.layer_self_share());
        out.set(
            "serve.overhead_us_per_request",
            config.replicas as f64 * 1e6 / untraced.rps() - kernel_us,
        );
        out.set("sim.exec_us_per_sample.mlp-500-100.float.b8", kernel_us);

        let engine = model.engine(config.with_replicas(1));
        let one_replica = drive(rec, &engine, &model, args.slice(0.1));
        engine.shutdown();
        tally(&one_replica);
        out.set("serve.replica_scaling", untraced.rps() / one_replica.rps());

        let lenet = ServedModel::setup(args.seed, 1, zoo::lenet);
        let engine = lenet.engine(config);
        let lenet_served = drive(rec, &engine, &lenet, args.slice(0.12));
        engine.shutdown();
        tally(&lenet_served);
        out.set("serve.lenet_saturated_rps", lenet_served.rps());
        out.phase("reference-lenet", lenet.reference.0, lenet.reference.1);

        shard_pipeline(args, rec, out, config);

        // The library's own tracer, off then full, one extra round each.
        let tracer = Tracer::global();
        let engine = model.engine(config);
        let off = drive(rec, &engine, &model, args.slice(0.1));
        engine.shutdown();
        tracer.clear();
        tracer.set_mode(Mode::Full);
        let engine = model.engine(config);
        let full = drive(rec, &engine, &model, args.slice(0.1));
        engine.shutdown();
        tracer.set_mode(Mode::Off);
        let events = tracer.events();
        tracer.clear();
        tally(&off);
        tally(&full);
        out.set("obs.full_overhead_ratio", off.rps() / full.rps());
        out.set(
            "obs.events_per_request",
            events.len() as f64 / full.completed.max(1) as f64,
        );
        out.set("serve.queue_us_p50", library_span_p50_us(&events, "queue"));
        out.set(
            "serve.execute_us_p50",
            library_span_p50_us(&events, "execute"),
        );
        out.set(
            "serve.respond_us_p50",
            library_span_p50_us(&events, "respond"),
        );

        // The virtual clock's prediction for the same engine under a
        // saturating arrival stream, with the scenario's hand-set
        // `ServiceModel`.
        let mut saturating = scenario.clone().with_arrival(ArrivalProcess::Poisson {
            rate_per_s: 1_000_000.0,
        });
        saturating.requests = 20_000;
        let trace = TraceRecorder::new(&saturating)
            .record()
            .expect("benchmark scenario records");
        let start = Instant::now();
        let replay = simulate(&trace, scenario.policy, scenario.service);
        out.set(
            "workload.simulate_events_per_s",
            trace.len() as f64 / start.elapsed().as_secs_f64(),
        );
        out.set("workload.virtual_rps", replay.throughput_rps);
        out.set(
            "workload.virtual_vs_measured_err.serve-saturate",
            (replay.throughput_rps - untraced.rps()).abs() / untraced.rps(),
        );
        out.set("nn.graph_build_ms", model.graph_build_ms);
        out.set("nn.params_seed_ms", model.params_seed_ms);
        out.set("sim.bind_ms.float", model.bind_ms);
    }
    out.phase("requests", attempted, failed);
    out.phase("reference", model.reference.0, model.reference.1);
    debug_assert!(IN_FLIGHT >= config.max_batch * config.replicas);
}
