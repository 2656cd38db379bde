//! `exec-offline`: the `sim` kernels do all the work; no engine, one thread.
//!
//! `Executor::run_batch_into` on a reused arena over 9 rows — {MLP-500-100,
//! LeNet} × {Float, Integer} × batch {1, 8}, plus CIFAR-VGG17 × Float ×
//! batch 1 (333 M MACs and a 4.7 MB weight slab: the row whose working set
//! leaves cache). Float and Integer are different kernel paths and batch 1
//! and batch 8 different dispatch orders, so a gain on one that costs
//! another shows in its own row.
//!
//! One operation is one sample (`throughput_per_s`, geometric mean of the
//! rows' samples/s) and one batch-1 call on MLP-500-100 or LeNet
//! (`latency_*`, geometric mean over those four rows).

use crate::common::{timed_setup, Args, Pool};
use crate::report::{Outcome, RoundStats};
use crate::rng;
use crate::span::Recorder;
use crate::stats::{geomean, median};
use fpsa::core::Compiler;
use fpsa::nn::{mlp_graph, zoo, ComputationalGraph, GraphParameters, QuantizationPlan};
use fpsa::shard::{FabricBudget, ShardCompiler};
use fpsa::sim::{Executor, Precision};
use std::time::{Duration, Instant};

const ROUNDS: usize = 16;
/// Inputs per pool. Batches walk the pool in windows, so consecutive calls
/// see different samples.
const POOL: usize = 64;
const VGG_POOL: usize = 2;
/// Direct outputs checked against the golden reference per model/precision.
const REFERENCE_CHECKS: usize = 8;

const MODELS: [&str; 3] = ["mlp-500-100", "lenet", "cifar-vgg17"];

struct Model {
    graph: ComputationalGraph,
    float: Executor,
    float_pool: Pool,
    /// Integer executor with its pool (not for CIFAR-VGG17).
    integer: Option<(Executor, Pool)>,
    bind_ms: f64,
}

struct Setup {
    models: Vec<Model>,
    graph_build_ms: f64,
    params_seed_ms: f64,
    reference_attempted: u64,
    reference_failed: u64,
}

fn setup(seed: u64) -> Setup {
    let start = Instant::now();
    let graphs = [zoo::mlp_500_100(), zoo::lenet(), zoo::cifar_vgg17()];
    let graph_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut params_seed_ms = 0.0;
    let (mut reference_attempted, mut reference_failed) = (0, 0);
    let mut tally = |(attempted, failed): (u64, u64)| {
        reference_attempted += attempted;
        reference_failed += failed;
    };
    let models = graphs
        .into_iter()
        .enumerate()
        .map(|(m, graph)| {
            let start = Instant::now();
            let params = GraphParameters::seeded(&graph, rng::params_seed(m as u64));
            params_seed_ms += start.elapsed().as_secs_f64() * 1e3;
            let compiled = Compiler::fpsa()
                .compile(&graph)
                .expect("zoo model compiles");
            let big = m == 2;
            let inputs = rng::inputs(
                seed,
                m as u64,
                if big { VGG_POOL } else { POOL },
                graph.input_elements(),
            );
            let start = Instant::now();
            let float = compiled
                .executor(&graph, &params, &Precision::Float)
                .expect("float bind");
            let bind_ms = start.elapsed().as_secs_f64() * 1e3;
            let float_pool = Pool::build(&float, inputs.clone());
            tally(float_pool.verify_float(&graph, &params, if big { 1 } else { REFERENCE_CHECKS }));
            let integer = (!big).then(|| {
                let plan = QuantizationPlan::calibrate(&graph, &params, &inputs[..4])
                    .expect("calibration over generated inputs");
                let exec = compiled
                    .executor(&graph, &params, &Precision::Integer(plan.clone()))
                    .expect("integer bind");
                let pool = Pool::build(&exec, inputs);
                tally(pool.verify_integer(&exec, &graph, &params, &plan, REFERENCE_CHECKS));
                (exec, pool)
            });
            Model {
                graph,
                float,
                float_pool,
                integer,
                bind_ms,
            }
        })
        .collect();
    Setup {
        models,
        graph_build_ms,
        params_seed_ms,
        reference_attempted,
        reference_failed,
    }
}

struct Row<'a> {
    model: usize,
    integer: bool,
    batch: usize,
    exec: &'a Executor,
    pool: &'a Pool,
}

impl Row<'_> {
    fn name(&self) -> String {
        format!(
            "{}.{}.b{}",
            MODELS[self.model],
            if self.integer { "integer" } else { "float" },
            self.batch
        )
    }
}

fn rows(setup: &Setup) -> Vec<Row<'_>> {
    let mut rows = Vec::new();
    for (m, model) in setup.models.iter().enumerate() {
        let batches: &[usize] = if m == 2 { &[1] } else { &[1, 8] };
        for &batch in batches {
            rows.push(Row {
                model: m,
                integer: false,
                batch,
                exec: &model.float,
                pool: &model.float_pool,
            });
        }
        if let Some((exec, pool)) = &model.integer {
            for &batch in batches {
                rows.push(Row {
                    model: m,
                    integer: true,
                    batch,
                    exec,
                    pool,
                });
            }
        }
    }
    rows
}

/// Per row: samples/s of each round, the call-time percentiles of each
/// round, and every call's time in µs.
struct Measured {
    samples_per_s: Vec<Vec<f64>>,
    latency: Vec<RoundStats>,
    call_us: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
}

/// `ROUNDS` interleaved rounds over the rows, `seconds` in all; every
/// batched output is compared bit for bit with the direct run's.
fn measure(rows: &[Row<'_>], rec: &mut Recorder, seconds: f64) -> Measured {
    let slice = Duration::from_secs_f64(seconds / (ROUNDS * rows.len()) as f64);
    let mut measured = Measured {
        samples_per_s: vec![Vec::new(); rows.len()],
        latency: rows.iter().map(|_| RoundStats::default()).collect(),
        call_us: vec![Vec::new(); rows.len()],
        attempted: 0,
        failed: 0,
    };
    let mut arenas: Vec<_> = rows.iter().map(|row| row.exec.arena()).collect();
    let mut outputs: Vec<Vec<f32>> = Vec::new();
    for _ in 0..ROUNDS {
        for (r, row) in rows.iter().enumerate() {
            let windows = row.pool.len() / row.batch;
            let started = Instant::now();
            let first_call = measured.call_us[r].len();
            let mut call = 0usize;
            while call == 0 || started.elapsed() < slice {
                let at = (call % windows) * row.batch;
                let inputs = &row.pool.inputs[at..at + row.batch];
                let open = rec.enter("sim", "run_batch_into", 0);
                let start = Instant::now();
                let result = row
                    .exec
                    .run_batch_into(inputs, &mut arenas[r], &mut outputs);
                let took = start.elapsed();
                rec.exit(open);
                call += 1;
                measured.call_us[r].push(took.as_secs_f64() * 1e6);
                measured.attempted += 1;
                let matches =
                    result.is_ok() && outputs[..] == row.pool.expected[at..at + row.batch];
                measured.failed += u64::from(!matches);
            }
            // The round's median call, not its mean: a neighbour's burst on
            // the host slows a few calls a lot.
            let round_us = &measured.call_us[r][first_call..];
            measured.samples_per_s[r].push(row.batch as f64 * 1e6 / median(round_us));
            measured.latency[r].latencies(round_us);
        }
    }
    measured
}

fn row_rates(measured: &Measured) -> Vec<f64> {
    measured.samples_per_s.iter().map(|r| median(r)).collect()
}

/// `ShardedExecutor::run` against `Executor::run` on the model the shard
/// crate's own sweep uses, auto-partitioned at 8 PEs per fabric.
fn shard_chain(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let graph = mlp_graph("MLP-300-280-260-10", &[300, 280, 260, 10]);
    let params = GraphParameters::seeded(&graph, rng::params_seed(9));
    let inputs = rng::inputs(args.seed, 9, 16, graph.input_elements());
    let single = Compiler::fpsa()
        .compile(&graph)
        .expect("unsharded model compiles")
        .executor(&graph, &params, &Precision::Float)
        .expect("unsharded model binds");
    let (sharded, took) = rec.timed("shard", "compile_auto", 0, || {
        ShardCompiler::fpsa(FabricBudget::with_pes(8))
            .with_sequential_stage_compile()
            .compile_auto(&graph)
            .expect("model shards at 8 PEs per fabric")
    });
    out.set("shard.compile_ms", took.as_secs_f64() * 1e3);
    out.set("shard.stages", sharded.stage_count() as f64);
    let chain = sharded
        .executor(&params, &Precision::Float)
        .expect("sharded model binds");
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| single.run(x).expect("direct execution"))
        .collect();

    let slice = args.slice(0.08);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut time = |sharded_run: bool, rec: &mut Recorder| {
        let started = Instant::now();
        let (mut busy, mut calls) = (Duration::ZERO, 0u32);
        while calls == 0 || started.elapsed() < slice {
            let at = calls as usize % inputs.len();
            let x = &inputs[at];
            let (got, took) = if sharded_run {
                rec.timed("shard", "run", 0, || chain.run(x))
            } else {
                rec.timed("sim", "run", 0, || single.run(x))
            };
            busy += took;
            calls += 1;
            if sharded_run {
                attempted += 1;
                failed += u64::from(got.ok().as_ref() != Some(&expected[at]));
            }
        }
        busy.as_secs_f64() / f64::from(calls)
    };
    let single_s = time(false, rec);
    let sharded_s = time(true, rec);
    out.set("shard.chain_overhead_ratio", sharded_s / single_s);
    out.phase("shard-chain", attempted, failed);
}

pub fn run(args: &Args, rec: &mut Recorder, out: &mut Outcome) {
    let (mut setup, setup_s) = timed_setup(|| setup(args.seed));
    if args.corrupt {
        setup.models[0].float_pool.corrupt();
    }
    let rows = rows(&setup);
    let names: Vec<String> = rows.iter().map(Row::name).collect();

    if !args.traced {
        let measured = measure(&rows, rec, args.seconds);
        let rates = row_rates(&measured);
        let latency_rows: Vec<usize> = (0..rows.len())
            .filter(|&r| rows[r].batch == 1 && rows[r].model < 2)
            .collect();
        // A row's percentile is the median over its rounds: a burst of
        // host noise lengthens the tail of the rounds it falls in, not of
        // the median round.
        let latency = |of: fn(&RoundStats) -> f64| {
            geomean(
                &latency_rows
                    .iter()
                    .map(|&r| of(&measured.latency[r]))
                    .collect::<Vec<_>>(),
            )
        };
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", geomean(&rates));
        out.set("latency_p50_us", latency(RoundStats::p50_us));
        out.set("latency_p99_us", latency(RoundStats::p99_us));
        for (r, name) in names.iter().enumerate() {
            out.timing(
                format!("samples/s {name}"),
                "1/s",
                &measured.samples_per_s[r],
            );
        }
        for &r in &latency_rows {
            out.timing(format!("call {}", names[r]), "us", &measured.call_us[r]);
        }
        out.phase("batched-runs", measured.attempted, measured.failed);
    } else {
        let untraced = measure(&rows, rec, args.seconds * 0.2);
        let root = rec.open_root();
        let measured = measure(&rows, rec, args.seconds * 0.6);
        shard_chain(args, rec, out);
        rec.close_root(root);

        let rates = row_rates(&measured);
        let us_per_sample = |model: usize, integer: bool, batch: usize| {
            let r = rows
                .iter()
                .position(|row| row.model == model && row.integer == integer && row.batch == batch)
                .expect("row exists");
            1e6 / rates[r]
        };
        for (r, name) in names.iter().enumerate() {
            out.set(&format!("sim.exec_us_per_sample.{name}"), 1e6 / rates[r]);
        }
        let of_precision = |integer: bool| {
            geomean(
                &(0..rows.len())
                    .filter(|&r| rows[r].integer == integer)
                    .map(|r| rates[r])
                    .collect::<Vec<_>>(),
            )
        };
        out.set("samples_per_s_float", of_precision(false));
        out.set("samples_per_s_integer", of_precision(true));

        for (m, model) in setup.models.iter().enumerate() {
            let name = MODELS[m];
            // Counts, computed from the graph and the lowering report (not
            // measured): MACs per sample and bytes of realized f32 weights.
            let macs = model.graph.statistics().total_macs as f64;
            let stats = model.float.lowering_stats();
            out.set(&format!("sim.macs_per_sample.{name}"), macs);
            out.set(
                &format!("sim.weight_bytes.{name}"),
                stats.weight_slab as f64 * 4.0,
            );
            out.set(
                &format!("sim.lowered_instructions.{name}"),
                stats.instructions as f64,
            );
            out.set(
                &format!("sim.skipped_zero_rows.{name}"),
                stats.skipped_zero_rows as f64,
            );
            if model.integer.is_none() {
                continue;
            }
            for (integer, precision) in [(false, "float"), (true, "integer")] {
                out.set(
                    &format!("sim.batch_gain.{name}.{precision}"),
                    us_per_sample(m, integer, 1) / us_per_sample(m, integer, 8),
                );
            }
            out.set(
                &format!("sim.gmacs_per_s.{name}.float.b8"),
                macs / us_per_sample(m, false, 8) / 1e3,
            );
        }
        out.set("sim.bind_ms.float", setup.models[0].bind_ms);
        out.set("nn.graph_build_ms", setup.graph_build_ms);
        out.set("nn.params_seed_ms", setup.params_seed_ms);
        out.set(
            "bench.trace_overhead_ratio",
            geomean(&row_rates(&untraced)) / geomean(&rates),
        );
        out.set("bench.layer_self_share", rec.layer_self_share());
        out.phase(
            "batched-runs",
            measured.attempted + untraced.attempted,
            measured.failed + untraced.failed,
        );
    }
    out.phase(
        "reference",
        setup.reference_attempted,
        setup.reference_failed,
    );
}
