//! Serve a compiled model at throughput: bind once, batch dynamically,
//! shard across replicas — and verify the served outputs are bit-identical
//! to direct execution.
//!
//! ```sh
//! cargo run --release --example serve_throughput
//! ```

use fpsa::core::experiments::serving;
use fpsa::core::Compiler;
use fpsa::nn::{zoo, GraphParameters};
use fpsa::serve::ServeConfig;
use fpsa::sim::Precision;

fn main() {
    // --- Quickstart: one model behind a serving engine. ---------------
    let graph = zoo::mlp_500_100();
    let params = GraphParameters::seeded(&graph, 42);
    let compiled = Compiler::fpsa().compile(&graph).expect("MLP compiles");
    let engine = compiled
        .serve(
            &graph,
            &params,
            &Precision::Float,
            ServeConfig::default().with_replicas(4).with_max_batch(8),
        )
        .expect("compiled model binds and serves");

    let request = vec![0.5f32; 784];
    let logits = engine.infer(request.clone()).expect("request is served");
    println!(
        "MLP-500-100 served: {} logits, argmax {}",
        logits.len(),
        fpsa::nn::mlp::argmax(&logits)
    );

    // Served outputs are bit-identical to direct execution.
    let direct = compiled
        .executor(&graph, &params, &Precision::Float)
        .expect("binds")
        .run(&request)
        .expect("runs");
    assert_eq!(logits, direct, "serving must not change the numbers");
    let stats = engine.shutdown();
    println!(
        "engine stats: {} submitted, {} completed, {} batches",
        stats.submitted, stats.completed, stats.batches
    );

    // --- The full sweep (also the `serving_throughput` bench target). --
    println!();
    let reports = serving::run();
    println!("{}", serving::to_table(&reports));
    for report in &reports {
        let best = report
            .points
            .iter()
            .max_by(|a, b| a.requests_per_s.total_cmp(&b.requests_per_s))
            .expect("sweep has points");
        println!(
            "{}: direct {:.0} req/s -> best engine point {:.0} req/s ({}x{} window {}us, {:.1}x)",
            report.model,
            report.direct_requests_per_s,
            best.requests_per_s,
            best.replicas,
            best.max_batch,
            best.window_us,
            best.speedup_vs_direct
        );
    }
}
