//! Serving throughput of the `fpsa_serve` engine: dynamic batching ×
//! replica sharding vs the bind-per-request direct path, on the MNIST-scale
//! zoo benchmarks. Writes `target/experiment-data/BENCH_serving.json`, whose
//! every point the `serving` CI job checks for a positive `requests_per_s`.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::serving::{self, ServingReport};
use fpsa_nn::zoo::Benchmark;

/// `"field": value` pairs for the named fields of a record. `Debug` renders
/// numbers and plain ASCII strings exactly as JSON does.
macro_rules! fields {
    ($record:expr; $($field:ident),+) => {
        [$(format!("\"{}\": {:?}", stringify!($field), $record.$field)),+].join(", ")
    };
}

/// Hand-rendered JSON (the vendored serde facade cannot produce strict
/// JSON): one object per model holding one line per sweep point.
fn to_json(reports: &[ServingReport]) -> String {
    let reports: Vec<String> = reports
        .iter()
        .map(|r| {
            let points: Vec<String> = r
                .points
                .iter()
                .map(|p| {
                    let fields = fields!(p; model, replicas, max_batch, window_us, requests,
                        requests_per_s, p50_latency_us, p99_latency_us, mean_batch, largest_batch,
                        engine_p50_us, engine_p99_us, queue_depth_p99, speedup_vs_direct);
                    format!("{{{fields}}}")
                })
                .collect();
            let head = fields!(r; model, direct_requests_per_s, direct_p50_us, direct_p99_us);
            let points = points.join(",\n      ");
            format!("    {{{head}, \"points\": [\n      {points}\n    ]}}")
        })
        .collect();
    format!("{{\"reports\": [\n{}\n]}}\n", reports.join(",\n"))
}

fn main() {
    let reports = serving::run();
    print_experiment(
        "Serving throughput: fpsa_serve vs bind-per-request direct path",
        &serving::to_table(&reports),
    );
    save_text("BENCH_serving.json", &to_json(&reports));

    time("serving/mlp_500_100_4x8_sweep_small", 10, || {
        serving::run_with(&[Benchmark::Mlp500x100], &[4], &[(8, 200)], 64)
    });
}
