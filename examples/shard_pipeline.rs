//! Shard a model across multiple fabrics and pipeline-serve it: partition
//! under a per-chip PE budget, compile every stage through the ordinary
//! pipeline, chain the stage executors (bit-identical to the unsharded
//! run), and stream batches through the chips.
//!
//! ```sh
//! cargo run --release --example shard_pipeline
//! ```

use fpsa::core::Compiler;
use fpsa::nn::params::mlp_graph;
use fpsa::nn::GraphParameters;
use fpsa::serve::ServeConfig;
use fpsa::shard::experiments::sharding;
use fpsa::shard::{FabricBudget, ShardCompiler};
use fpsa::sim::Precision;

fn main() {
    // --- A model too big for one (small) fabric. ----------------------
    let graph = mlp_graph("MLP-300-280-260-10", &[300, 280, 260, 10]);
    let params = GraphParameters::seeded(&graph, 42);

    // Pretend each chip offers 8 PEs: the whole model needs 17, so the
    // auto-sharder must spill across chips.
    let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(8))
        .compile_auto(&graph)
        .expect("the model partitions under the budget");
    println!(
        "{} auto-partitioned onto {} fabrics:",
        sharded.model,
        sharded.stage_count()
    );
    for (i, stage) in sharded.stages.iter().enumerate() {
        println!(
            "  chip {i}: nodes {:?}, {} ({} boundary values out)",
            stage.nodes, stage.demand, stage.boundary_elements
        );
    }

    // --- Bit-identity: sharded execution == unsharded execution. ------
    let unsharded = Compiler::fpsa().compile(&graph).expect("compiles whole");
    let direct = unsharded
        .executor(&graph, &params, &Precision::Float)
        .expect("binds whole");
    let chained = sharded
        .executor(&params, &Precision::Float)
        .expect("binds sharded");
    let request = vec![0.25f32; 300];
    let want = direct.run(&request).expect("unsharded run");
    let got = chained.run(&request).expect("sharded run");
    assert_eq!(got, want, "sharding must never change the numbers");
    println!("sharded logits match the single-fabric run bit for bit");

    // --- Modeled pipeline performance with chip-to-chip transport. ----
    let perf = sharded.performance();
    println!(
        "modeled: {:.0} samples/s over {} chips (period {:.1} ns, latency {:.2} us)",
        perf.throughput_samples_per_s,
        perf.stages.len(),
        perf.pipeline_period_ns,
        perf.latency_us
    );
    for (i, t) in perf.transports.iter().enumerate() {
        println!(
            "  link {i}: {} bytes/sample, {:.1} ns",
            t.bytes, t.transfer_ns
        );
    }

    // --- Pipeline-parallel serving across the chips. -------------------
    let engine = sharded
        .serve(
            &params,
            &Precision::Float,
            ServeConfig::default()
                .with_max_batch(8)
                .with_batch_window_us(200),
        )
        .expect("sharded model serves");
    let served = engine.infer(request).expect("request is served");
    assert_eq!(served, want);
    let stats = engine.shutdown();
    println!(
        "served {} request(s) through the pipeline, p99 latency <= {} us",
        stats.completed,
        stats.p99_latency_us()
    );

    // --- The full sweep (also the `sharding_pipeline` bench target). ---
    let reports = sharding::run();
    println!("\n{}", sharding::to_table(&reports));
}
