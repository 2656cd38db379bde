//! Record a declarative workload scenario into a deterministic trace and
//! replay it two ways: under the deterministic virtual clock (identical
//! `ServeStats`) and against a real `ServeEngine` (bit-identical outputs).
//!
//! ```sh
//! cargo run --release --example workload_replay
//! ```

use fpsa::core::Compiler;
use fpsa::nn::{zoo, GraphParameters};
use fpsa::serve::{ServeConfig, ServeEngine};
use fpsa::sim::Precision;
use fpsa::workload::{simulate, ArrivalProcess, Scenario, TraceRecorder, TraceReplayer};

fn main() {
    // --- 1. Describe the workload and record it into a trace. ---------
    let scenario = Scenario::steady("example-diurnal", "MLP-500-100", 42, 30_000)
        .with_arrival(ArrivalProcess::Diurnal {
            base_rate_per_s: 600.0,
            peak_rate_per_s: 8_000.0,
            period_us: 1_000_000,
        })
        .with_batch_mix(vec![(1, 0.7), (4, 0.3)]);
    let trace = TraceRecorder::new(&scenario)
        .record()
        .expect("scenario is valid");
    println!(
        "recorded `{}`: {} events over {:.2} virtual s, fingerprint {:016x}",
        scenario.name,
        trace.len(),
        trace.duration_us() as f64 / 1e6,
        trace.fingerprint()
    );

    // --- 2. Virtual replay: deterministic engine-contract stats. ------
    let full = simulate(&trace, scenario.policy, scenario.service);
    println!(
        "full virtual replay: {:.0} req/s, p50 {} us, p99 {} us ({} batches)",
        full.throughput_rps,
        full.stats.latency_percentile_us(0.5),
        full.stats.latency_percentile_us(0.99),
        full.stats.batches
    );
    // Same trace in, bit-identical stats out — every time.
    assert_eq!(full, simulate(&trace, scenario.policy, scenario.service));

    // --- 3. Real-engine replay: bit-identical outputs. ----------------
    let graph = zoo::mlp_500_100();
    let params = GraphParameters::seeded(&graph, 42);
    let compiled = Compiler::fpsa().compile(&graph).expect("MLP compiles");
    let mut short = scenario.clone();
    short.requests = 64;
    let short_trace = TraceRecorder::new(&short)
        .record()
        .expect("scenario is valid");
    let replayer = TraceReplayer::new(&short_trace, graph.input_elements());

    let engine = ServeEngine::start(
        compiled
            .executor(&graph, &params, &Precision::Float)
            .expect("MLP binds"),
        ServeConfig::default().with_replicas(2).with_max_batch(8),
    );
    let once = replayer.replay(&engine);
    let again = replayer.replay_concurrent(&engine, 4);
    assert_eq!(
        once.outputs, again.outputs,
        "same trace, same outputs — whatever the client threading"
    );
    let stats = engine.shutdown();
    println!(
        "real-engine replay: {} requests twice, {:.0} req/s wall, outputs bit-identical",
        once.outputs.len(),
        once.throughput_rps()
    );
    assert_eq!(stats.completed, 2 * short_trace.len() as u64);
}
