//! The content-addressed compile cache and warm-started annealing.
//!
//! ```text
//! cargo run --release --example compile_cache
//! ```
//!
//! Walks the three tiers of compile reuse:
//!
//! 1. **exact hit** — recompiling an identical (graph, compiler config)
//!    returns the shared artifact in microseconds;
//! 2. **warm start** — compiling a one-layer-resized model through a
//!    warm-start-enabled cache seeds the annealer from the nearest donor's
//!    placement, cutting the move budget while matching the cold HPWL;
//! 3. **sweep dedup** — a repeated-config evaluation sweep compiles each
//!    distinct point once.

use fpsa::core::{CompileCache, CompileKey, Compiler, Evaluator};
use fpsa::nn::params::mlp_graph;
use fpsa::nn::zoo::{self, Benchmark};
use std::time::Instant;

fn main() {
    // 1. Exact hit: the second compile of MLP-500-100 is a lookup.
    let cache = CompileCache::new(8);
    let compiler = Compiler::fpsa();
    let graph = zoo::mlp_500_100();
    let start = Instant::now();
    let (_, outcome) = cache.compile_with_info(&compiler, &graph).unwrap();
    println!(
        "cold compile:    {:?} ({}, key {})",
        start.elapsed(),
        outcome.name(),
        CompileKey::for_compile(&compiler, &graph)
    );
    let start = Instant::now();
    let (_, outcome) = cache.compile_with_info(&compiler, &graph).unwrap();
    println!(
        "cached recompile: {:?} ({})",
        start.elapsed(),
        outcome.name()
    );

    // 2. Warm start: resize one hidden layer and recompile through a
    //    warm-start-enabled cache — the donor's placement seeds the anneal.
    let warm_cache = CompileCache::new(8).with_warm_start();
    let donor = mlp_graph("edited-mlp", &[512, 384, 256, 10]);
    let edited = mlp_graph("edited-mlp", &[512, 384, 288, 10]);
    warm_cache.compile(&compiler, &donor).unwrap();
    let (model, outcome) = warm_cache.compile_with_info(&compiler, &edited).unwrap();
    let quality = model
        .physical
        .as_ref()
        .expect("example models get full P&R")
        .placement
        .quality();
    println!(
        "\nresized-model compile: {} ({} of {} blocks seeded, {} anneal moves)",
        outcome.name(),
        quality.seeded_blocks,
        model.mapping.netlist.len(),
        quality.moves_evaluated,
    );

    // 3. Sweep dedup: six points, two distinct configs, two compiles.
    let sweep_cache = CompileCache::new(8);
    let evaluator = Evaluator::fpsa();
    for (benchmark, duplication) in [
        (Benchmark::Mlp500x100, 1),
        (Benchmark::LeNet, 4),
        (Benchmark::Mlp500x100, 1),
        (Benchmark::LeNet, 4),
        (Benchmark::Mlp500x100, 1),
        (Benchmark::LeNet, 4),
    ] {
        let eval = evaluator.evaluate_with_cache(benchmark, duplication, Some(&sweep_cache));
        println!(
            "{:>12} x{duplication}: {:.0} samples/s",
            eval.model, eval.performance.throughput_samples_per_s
        );
    }
    println!("\n{}", sweep_cache.stats().summary());
}
