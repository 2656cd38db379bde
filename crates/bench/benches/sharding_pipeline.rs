//! Multi-fabric sharding sweep: stage count × batch window versus the
//! single-fabric baseline (modeled pipeline throughput with chip-to-chip
//! transport, plus measured pipeline-parallel serving on the same stream).
//! Writes `target/experiment-data/BENCH_sharding.json`, whose every point the
//! `sharding` CI job checks for a positive `requests_per_s` and
//! `modeled_speedup_vs_single_fabric`.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_nn::params::mlp_graph;
use fpsa_shard::experiments::sharding::{self, ShardingReport};

/// `"field": value` pairs for the named fields of a record. `Debug` renders
/// numbers, lists of numbers and plain ASCII strings exactly as JSON does.
macro_rules! fields {
    ($record:expr; $($field:ident),+) => {
        [$(format!("\"{}\": {:?}", stringify!($field), $record.$field)),+].join(", ")
    };
}

/// Hand-rendered JSON (the vendored serde facade cannot produce strict
/// JSON): one object per model holding one line per sweep point.
fn to_json(reports: &[ShardingReport]) -> String {
    let reports: Vec<String> = reports
        .iter()
        .map(|r| {
            let points: Vec<String> = r
                .points
                .iter()
                .map(|p| {
                    let fields = fields!(p; model, stages, max_batch, window_us, requests,
                        requests_per_s, p50_latency_us, p99_latency_us,
                        modeled_throughput_samples_per_s, modeled_latency_us,
                        modeled_speedup_vs_single_fabric, per_chip_pes, per_chip_utilization,
                        transport_ns);
                    format!("{{{fields}}}")
                })
                .collect();
            let head = fields!(r; model, single_modeled_throughput_samples_per_s,
                single_modeled_latency_us, single_requests_per_s);
            let points = points.join(",\n      ");
            format!("    {{{head}, \"points\": [\n      {points}\n    ]}}")
        })
        .collect();
    format!("{{\"reports\": [\n{}\n]}}\n", reports.join(",\n"))
}

fn main() {
    let reports = sharding::run();
    print_experiment(
        "Multi-fabric sharding: pipeline stages vs the single fabric",
        &sharding::to_table(&reports),
    );
    print_experiment(
        "Sharding compile cache: process-wide statistics",
        &fpsa_core::CompileCache::global().stats().summary(),
    );
    save_text("BENCH_sharding.json", &to_json(&reports));

    let graph = mlp_graph("MLP-300-280-260-10", &[300, 280, 260, 10]);
    time("sharding/mlp_300_280_260_10_2stage_sweep_small", 10, || {
        sharding::run_with(&graph, &[2], &[(8, 200)], 32)
    });
}
