//! The workload scenario suite: replay every checked-in scenario under the
//! virtual clock and write the per-scenario reports plus the CI-checked
//! `BENCH_workload.json`.
//!
//! Per scenario (`scenarios/*.scenario`): record the trace, replay it in
//! full under the deterministic virtual clock, then render markdown + JSON
//! reports into `target/experiment-data/workload/`. The root artifact
//! aggregates one row per scenario; the `workload` CI job checks that every
//! row carries its full-replay throughput.
//!
//! One real-engine smoke replay (MLP-500-100 behind a `ServeEngine`) keeps
//! the measured path exercised — its wall-clock throughput is recorded as
//! advisory context, never pinned.

use criterion::{criterion_group, criterion_main, Criterion};
use fpsa_bench::{print_experiment, save_bench_artifact, save_text, workspace_root};
use fpsa_core::Compiler;
use fpsa_nn::{zoo, GraphParameters};
use fpsa_serve::{ServeConfig, ServeEngine};
use fpsa_sim::Precision;
use fpsa_workload::{scenario_report, simulate, Scenario, TraceRecorder, TraceReplayer};
use std::fmt::Write as _;

struct ScenarioRow {
    name: String,
    requests: usize,
    fingerprint: u64,
    full_rps: f64,
    full_p50: u64,
    full_p99: u64,
}

fn load_scenarios() -> Vec<Scenario> {
    let dir = workspace_root().join("scenarios");
    let mut scenarios: Vec<Scenario> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().and_then(|e| e.to_str()) == Some("scenario")).then(|| {
                let text = std::fs::read_to_string(&path).expect("scenario file reads");
                Scenario::parse(&text)
                    .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()))
            })
        })
        .collect();
    scenarios.sort_by(|a, b| a.name.cmp(&b.name));
    scenarios
}

fn measure(scenario: &Scenario) -> ScenarioRow {
    let trace = TraceRecorder::new(scenario)
        .record()
        .expect("scenario is valid");
    let full = simulate(&trace, scenario.policy, scenario.service);

    let report = scenario_report(scenario, &trace, &full);
    save_text(&format!("workload/{}.md", scenario.name), &report.markdown);
    save_text(&format!("workload/{}.json", scenario.name), &report.json);

    ScenarioRow {
        name: scenario.name.clone(),
        requests: trace.len(),
        fingerprint: trace.fingerprint(),
        full_rps: full.throughput_rps,
        full_p50: full.stats.latency_percentile_us(0.5),
        full_p99: full.stats.latency_percentile_us(0.99),
    }
}

/// One measured replay through a real engine: advisory wall-clock context
/// for the virtual numbers, plus a standing end-to-end exercise of the
/// record → replay path against `ServeEngine`.
fn real_engine_smoke() -> (String, usize, f64) {
    let graph = zoo::mlp_500_100();
    let params = GraphParameters::seeded(&graph, 0xBE7C);
    let compiled = Compiler::fpsa().compile(&graph).expect("MLP compiles");
    let scenario = Scenario::steady("bench-smoke", "MLP-500-100", 0xBE7C, 256);
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("scenario is valid");
    let engine = ServeEngine::start(
        compiled
            .executor(&graph, &params, &Precision::Float)
            .expect("MLP binds"),
        ServeConfig {
            replicas: scenario.policy.replicas,
            max_batch: scenario.policy.max_batch,
            batch_window_us: scenario.policy.window_us,
        },
    );
    let outcome = TraceReplayer::new(&trace, graph.input_elements()).replay(&engine);
    engine.shutdown();
    (graph.name.clone(), trace.len(), outcome.throughput_rps())
}

fn to_table(rows: &[ScenarioRow]) -> String {
    let mut t =
        String::from("| scenario | requests | req/s | p50 us | p99 us |\n|---|---|---|---|---|\n");
    for r in rows {
        let _ = writeln!(
            t,
            "| {} | {} | {:.0} | {} | {} |",
            r.name, r.requests, r.full_rps, r.full_p50, r.full_p99
        );
    }
    t
}

/// Hand-rendered JSON (the vendored serde facade cannot produce strict
/// JSON), parsed and checked by the `workload` CI job.
fn to_json(rows: &[ScenarioRow], smoke: &(String, usize, f64)) -> String {
    let mut j = String::from("{\n");
    let _ = writeln!(
        j,
        "  \"real_engine_smoke\": {{\"model\": \"{}\", \"requests\": {}, \"throughput_rps\": {:.1}}},",
        smoke.0, smoke.1, smoke.2
    );
    j.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(j, "      \"requests\": {},", r.requests);
        let _ = writeln!(
            j,
            "      \"trace_fingerprint\": \"{:016x}\",",
            r.fingerprint
        );
        let _ = writeln!(j, "      \"full_throughput_rps\": {:.3},", r.full_rps);
        let _ = writeln!(j, "      \"full_p50_us\": {},", r.full_p50);
        let _ = writeln!(j, "      \"full_p99_us\": {}", r.full_p99);
        let _ = writeln!(j, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    j.push_str("  ]\n}\n");
    j
}

fn bench(c: &mut Criterion) {
    let scenarios = load_scenarios();
    assert!(
        !scenarios.is_empty(),
        "no scenarios found under <root>/scenarios/"
    );
    let rows: Vec<ScenarioRow> = scenarios.iter().map(measure).collect();
    let smoke = real_engine_smoke();
    print_experiment(
        "Workload scenarios: full-trace virtual replay",
        &to_table(&rows),
    );
    save_bench_artifact("BENCH_workload.json", &to_json(&rows, &smoke));

    // Criterion timing: the full virtual replay of the largest scenario.
    let largest = scenarios
        .iter()
        .max_by_key(|s| s.requests)
        .expect("non-empty");
    let trace = TraceRecorder::new(largest)
        .record()
        .expect("scenario is valid");
    let mut group = c.benchmark_group("workload_scenarios");
    group.sample_size(10);
    group.bench_function(format!("{}_full_sim", largest.name).as_str(), |b| {
        b.iter(|| simulate(&trace, largest.policy, largest.service))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
