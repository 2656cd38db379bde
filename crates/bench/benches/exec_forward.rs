//! Per-sample forward-pass cost of the bytecode executor vs the
//! tile-program oracle (`Executor::run_interpreted`), bind-amortized on one
//! core, on the two deterministic paper models (MLP-500-100 and LeNet).
//!
//! Two bytecode numbers are reported: single-sample `run_into`, and the
//! serving hot path `run_batch_into`, whose instruction-major dispatch
//! streams each weight tile from memory once per batch. The acceptance
//! speedup is interpreter vs the batched path — both are bind-amortized
//! wall-clock on the same core, and the batched results are asserted
//! bit-identical to per-sample runs by the serving determinism suite.
//!
//! The Integer regime is measured next to Float on the same single-sample
//! path: `integer_vs_float` is Integer `run_into` ns over Float `run_into`
//! ns. The fabric's own arithmetic must not be the slow way to run a model —
//! before the i8/i32 SIMD datapath replaced the scalar i64 kernel this bench
//! read 2.98 (MLP-500-100) and 2.48 (LeNet), recorded per row as `parent_*`.
//!
//! Emits `BENCH_exec.json` at the **workspace root** — hand-rendered JSON so
//! the `exec-perf` CI job can parse it and pin `min_speedup >=
//! target_speedup` (3×) and `integer_vs_float <= max_integer_vs_float`
//! (1.25), giving the repo's perf trajectory a tracked execution datapoint.

use fpsa_bench::{print_experiment, save_bench_artifact, time};
use fpsa_core::validate::sample_inputs;
use fpsa_core::Compiler;
use fpsa_nn::{zoo, ComputationalGraph, GraphParameters, QuantizationPlan};
use fpsa_sim::{ExecArena, Executor, Precision};
use std::fmt::Write as _;
use std::time::Instant;

struct ExecRow {
    model: String,
    interpreter_ns_per_sample: f64,
    bytecode_ns_per_sample: f64,
    bytecode_batch_ns_per_sample: f64,
    speedup: f64,
    bytecode_integer_ns_per_sample: f64,
    integer_vs_float: f64,
    /// The same two numbers with the scalar i64 kernel this datapath
    /// replaced, measured by this bench on the same host class.
    parent_bytecode_integer_ns_per_sample: f64,
    parent_integer_vs_float: f64,
}

const BATCH: usize = 8;
const REPS: usize = 12;
const TARGET_SPEEDUP: f64 = 3.0;
const MAX_INTEGER_VS_FLOAT: f64 = 1.25;

/// Fastest batch over `REPS` repetitions, in ns per sample. Warm-up grows
/// the arena and output buffers first, so both paths run allocation-free.
fn best_ns_per_sample<F: FnMut(&[Vec<f32>])>(inputs: &[Vec<f32>], mut run: F) -> f64 {
    run(inputs);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        run(inputs);
        best = best.min(start.elapsed().as_nanos() as f64 / inputs.len() as f64);
    }
    best
}

/// `parent` is `(bytecode_integer_ns_per_sample, integer_vs_float)` of this
/// model at the parent of the i8/i32 datapath (scalar kernel, i64 slab).
fn measure(graph: &ComputationalGraph, parent: (f64, f64)) -> (ExecRow, Executor, Vec<Vec<f32>>) {
    let params = GraphParameters::seeded(graph, 0xE8EC);
    let compiled = Compiler::fpsa()
        .compile(graph)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", graph.name));
    let exec = compiled
        .executor(graph, &params, &Precision::Float)
        .unwrap_or_else(|e| panic!("{}: bind failed: {e}", graph.name));
    let inputs = sample_inputs(graph, BATCH, 0xE8EC);

    let mut arena = ExecArena::default();
    let mut out = Vec::new();
    let bytecode = best_ns_per_sample(&inputs, |xs| {
        for x in xs {
            exec.run_into(x, &mut arena, &mut out)
                .expect("bytecode run");
        }
    });
    let plan = QuantizationPlan::calibrate(graph, &params, &inputs)
        .unwrap_or_else(|e| panic!("{}: calibration failed: {e}", graph.name));
    let integer_exec = compiled
        .executor(graph, &params, &Precision::Integer(plan))
        .unwrap_or_else(|e| panic!("{}: integer bind failed: {e}", graph.name));
    let mut arena = ExecArena::default();
    let integer = best_ns_per_sample(&inputs, |xs| {
        for x in xs {
            integer_exec
                .run_into(x, &mut arena, &mut out)
                .expect("integer bytecode run");
        }
    });
    let mut arena = ExecArena::default();
    let mut outs = Vec::new();
    let batched = best_ns_per_sample(&inputs, |xs| {
        exec.run_batch_into(xs, &mut arena, &mut outs)
            .expect("batched run");
    });
    let interpreter = best_ns_per_sample(&inputs, |xs| {
        for x in xs {
            std::hint::black_box(exec.run_interpreted(x).expect("oracle run"));
        }
    });

    let row = ExecRow {
        model: graph.name.clone(),
        interpreter_ns_per_sample: interpreter,
        bytecode_ns_per_sample: bytecode,
        bytecode_batch_ns_per_sample: batched,
        speedup: interpreter / batched,
        bytecode_integer_ns_per_sample: integer,
        integer_vs_float: integer / bytecode,
        parent_bytecode_integer_ns_per_sample: parent.0,
        parent_integer_vs_float: parent.1,
    };
    (row, exec, inputs)
}

fn to_table(rows: &[ExecRow]) -> String {
    let mut t = String::from(
        "| model | interpreter ns/sample | bytecode ns/sample | batched ns/sample | speedup | integer ns/sample | integer/float (parent) |\n|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let _ = writeln!(
            t,
            "| {} | {:.0} | {:.0} | {:.0} | {:.2}x | {:.0} | {:.2} ({:.2}) |",
            r.model,
            r.interpreter_ns_per_sample,
            r.bytecode_ns_per_sample,
            r.bytecode_batch_ns_per_sample,
            r.speedup,
            r.bytecode_integer_ns_per_sample,
            r.integer_vs_float,
            r.parent_integer_vs_float
        );
    }
    t
}

/// Hand-rendered JSON report: the vendored serde shim serializes through
/// `Debug`, which jq cannot parse, so the CI-pinned artifact is formatted
/// explicitly here.
fn to_json(rows: &[ExecRow], min_speedup: f64) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"target_speedup\": {TARGET_SPEEDUP:.1},");
    let _ = writeln!(j, "  \"batch\": {BATCH},");
    let _ = writeln!(j, "  \"min_speedup\": {min_speedup:.4},");
    let _ = writeln!(j, "  \"max_integer_vs_float\": {MAX_INTEGER_VS_FLOAT:.2},");
    j.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"model\": \"{}\",", r.model);
        let _ = writeln!(
            j,
            "      \"interpreter_ns_per_sample\": {:.1},",
            r.interpreter_ns_per_sample
        );
        let _ = writeln!(
            j,
            "      \"bytecode_ns_per_sample\": {:.1},",
            r.bytecode_ns_per_sample
        );
        let _ = writeln!(
            j,
            "      \"bytecode_batch_ns_per_sample\": {:.1},",
            r.bytecode_batch_ns_per_sample
        );
        let _ = writeln!(j, "      \"speedup\": {:.4},", r.speedup);
        let _ = writeln!(
            j,
            "      \"bytecode_integer_ns_per_sample\": {:.1},",
            r.bytecode_integer_ns_per_sample
        );
        let _ = writeln!(j, "      \"integer_vs_float\": {:.4},", r.integer_vs_float);
        let _ = writeln!(
            j,
            "      \"parent_bytecode_integer_ns_per_sample\": {:.1},",
            r.parent_bytecode_integer_ns_per_sample
        );
        let _ = writeln!(
            j,
            "      \"parent_integer_vs_float\": {:.4}",
            r.parent_integer_vs_float
        );
        let _ = writeln!(j, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    j.push_str("  ]\n}\n");
    j
}

fn main() {
    let mut rows = Vec::new();
    let mut timed = Vec::new();
    for (graph, parent) in [
        (zoo::mlp_500_100(), (213_425.5, 2.98)),
        (zoo::lenet(), (1_211_171.0, 2.48)),
    ] {
        let (row, exec, inputs) = measure(&graph, parent);
        rows.push(row);
        timed.push((graph.name.clone(), exec, inputs));
    }
    print_experiment(
        "Forward-pass execution: bind-time bytecode vs tile-program interpreter",
        &to_table(&rows),
    );
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    save_bench_artifact("BENCH_exec.json", &to_json(&rows, min_speedup));

    for (name, exec, inputs) in &timed {
        let mut arena = ExecArena::default();
        let mut outs = Vec::new();
        time(&format!("exec_forward/{name}_bytecode_batch"), 10, || {
            exec.run_batch_into(inputs, &mut arena, &mut outs)
                .expect("run");
        });
    }
}
