//! The telemetry overhead pin: `Executor::run_batch_into` (whose entry
//! carries the tracing bracket — one relaxed mode load and a branch when
//! tracing is off) vs `run_batch_into_untraced` (the same body with no
//! bracket at all), on the paper-scale MLP-500-100 forward pass.
//!
//! The contract from the observability design: **disabled** telemetry
//! costs at most 2% on the executor hot path. The two variants are timed
//! in interleaved rounds (so frequency scaling and cache state drift hit
//! both equally) and compared on medians, which a single descheduled
//! round cannot move.
//!
//! Emits `BENCH_obs.json` at the workspace root — the `obs` CI job pins
//! `overhead_ratio <= target_ratio`.

use criterion::{criterion_group, criterion_main, Criterion};
use fpsa_bench::{median, print_experiment, save_bench_artifact};
use fpsa_core::validate::sample_inputs;
use fpsa_core::Compiler;
use fpsa_nn::zoo;
use fpsa_obs::{Mode, Tracer};
use fpsa_sim::{ExecArena, Executor, Precision};
use std::fmt::Write as _;
use std::time::Instant;

const BATCH: usize = 8;
const ROUNDS: usize = 31;
const TARGET_RATIO: f64 = 1.02;

fn time_ns_per_sample<F: FnMut()>(n_samples: usize, mut run: F) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_nanos() as f64 / n_samples as f64
}

fn bench(c: &mut Criterion) {
    // The pin measures the *disabled* path: this is the mode every
    // latency-sensitive deployment runs in.
    assert_eq!(Tracer::global().mode(), Mode::Off);

    let graph = zoo::mlp_500_100();
    let params = fpsa_nn::GraphParameters::seeded(&graph, 0xE8EC);
    let compiled = Compiler::fpsa().compile(&graph).expect("MLP compiles");
    let exec: Executor = compiled
        .executor(&graph, &params, &Precision::Float)
        .expect("MLP binds");
    let inputs = sample_inputs(&graph, BATCH, 0xE8EC);

    let mut arena = ExecArena::default();
    let mut outs = Vec::new();
    // Warm-up grows the arena and output buffers; both paths then run
    // allocation-free.
    exec.run_batch_into(&inputs, &mut arena, &mut outs)
        .expect("warmup");

    let mut traced = Vec::with_capacity(ROUNDS);
    let mut untraced = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        untraced.push(time_ns_per_sample(BATCH, || {
            exec.run_batch_into_untraced(&inputs, &mut arena, &mut outs)
                .expect("untraced run");
        }));
        traced.push(time_ns_per_sample(BATCH, || {
            exec.run_batch_into(&inputs, &mut arena, &mut outs)
                .expect("traced run");
        }));
    }
    let traced_ns = median(&traced);
    let untraced_ns = median(&untraced);
    let ratio = traced_ns / untraced_ns;

    let mut table = String::from("| path | ns/sample |\n|---|---|\n");
    let _ = writeln!(table, "| no-obs baseline | {untraced_ns:.0} |");
    let _ = writeln!(table, "| obs disabled | {traced_ns:.0} |");
    let _ = writeln!(table, "| ratio | {ratio:.4} (target <= {TARGET_RATIO}) |");
    print_experiment(
        "Telemetry overhead: disabled tracing on the executor hot path",
        &table,
    );

    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"model\": \"{}\",", graph.name);
    let _ = writeln!(j, "  \"batch\": {BATCH},");
    let _ = writeln!(j, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(j, "  \"untraced_ns_per_sample\": {untraced_ns:.1},");
    let _ = writeln!(j, "  \"traced_off_ns_per_sample\": {traced_ns:.1},");
    let _ = writeln!(j, "  \"overhead_ratio\": {ratio:.4},");
    let _ = writeln!(j, "  \"target_ratio\": {TARGET_RATIO}");
    j.push_str("}\n");
    save_bench_artifact("BENCH_obs.json", &j);

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.bench_function("mlp_500_100_obs_disabled", |b| {
        b.iter(|| {
            exec.run_batch_into(&inputs, &mut arena, &mut outs)
                .expect("run");
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
