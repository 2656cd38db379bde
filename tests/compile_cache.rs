//! Acceptance pins for the content-addressed compile cache and warm-started
//! annealing (the "compile-at-scale" PR).
//!
//! The wall-clock pins run in `--release` only (`cargo test --release`, the
//! `compile-perf` CI job): debug-build compile times are dominated by
//! unoptimized hashing and would make the ratios meaningless. The structural
//! smoke test runs in every profile.

use fpsa::core::CacheOutcome;
use fpsa::core::{CompileCache, Compiler};
use fpsa::nn::params::mlp_graph;
use std::sync::Arc;

#[cfg(not(debug_assertions))]
use {
    fpsa::core::compiler::PlaceRouteConfig,
    fpsa::core::evaluator::Evaluator,
    fpsa::nn::zoo::{self, Benchmark},
    fpsa::placeroute::WarmStart,
    std::time::Instant,
};

/// Debug-friendly smoke test: the second identical compile is a hit that
/// shares the artifact, and the cache reports the outcome.
#[test]
fn identical_compiles_share_one_artifact() {
    let cache = CompileCache::new(4);
    let graph = mlp_graph("cache-smoke", &[32, 24, 8]);
    let compiler = Compiler::fpsa();
    let (cold, outcome) = cache.compile_with_info(&compiler, &graph).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    let (hit, outcome) = cache.compile_with_info(&compiler, &graph).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit);
    assert!(Arc::ptr_eq(&cold, &hit));
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 1);
}

/// Pin: a cached recompile of MLP-500-100 is at least 10x faster than the
/// cold compile.
#[cfg(not(debug_assertions))]
#[test]
fn cached_recompile_is_ten_times_faster_than_cold() {
    let cache = CompileCache::new(4);
    let graph = zoo::mlp_500_100();
    let compiler = Compiler::fpsa();

    let start = Instant::now();
    let (cold, outcome) = cache.compile_with_info(&compiler, &graph).unwrap();
    let cold_wall = start.elapsed();
    assert_eq!(outcome, CacheOutcome::Miss);

    // Best of a few lookups (a hit is a hash + map probe; the first may
    // still pay allocator noise).
    let mut hit_wall = std::time::Duration::MAX;
    for _ in 0..5 {
        let start = Instant::now();
        let (hit, outcome) = cache.compile_with_info(&compiler, &graph).unwrap();
        hit_wall = hit_wall.min(start.elapsed());
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&cold, &hit));
    }
    assert!(
        hit_wall * 10 <= cold_wall,
        "cached recompile {hit_wall:?} not 10x faster than cold {cold_wall:?}"
    );
}

/// Pin: a repeated-config evaluation sweep through the cache takes at most
/// half the uncached wall-clock. Both sides run sequentially so the ratio is
/// independent of the host's core count.
#[cfg(not(debug_assertions))]
#[test]
fn cached_sweep_halves_the_uncached_wall_clock() {
    // VGG16's synthesis dominates the evaluation, so the ratio measures the
    // cache, not the fixed per-point overhead (graph build, estimation).
    let evaluator = Evaluator::fpsa();
    let points = [(Benchmark::Vgg16, 1u64); 6];

    let start = Instant::now();
    let uncached: Vec<_> = points
        .iter()
        .map(|&(b, d)| evaluator.evaluate(b, d))
        .collect();
    let uncached_wall = start.elapsed();

    let cache = CompileCache::new(4);
    let start = Instant::now();
    let cached: Vec<_> = points
        .iter()
        .map(|&(b, d)| evaluator.evaluate_with_cache(b, d, Some(&cache)))
        .collect();
    let cached_wall = start.elapsed();

    assert_eq!(cache.stats().misses, 1, "one compile for six points");
    assert_eq!(cache.stats().hits, 5);
    // Results are identical to the uncached sweep.
    assert_eq!(uncached, cached);
    assert!(
        cached_wall * 2 <= uncached_wall,
        "cached sweep {cached_wall:?} not half of uncached {uncached_wall:?}"
    );
}

/// Pin: warm-starting the annealer from a one-layer-resized donor reaches
/// equal-or-better HPWL than the cold anneal in at most half the move
/// evaluations.
#[cfg(not(debug_assertions))]
#[test]
fn warm_started_anneal_beats_cold_on_a_resized_model() {
    // The donor and the edited model differ in one hidden-layer width; the
    // other layers' netlist blocks keep their identity, so the donor seeds
    // them directly.
    let donor_graph = mlp_graph("warm-mlp", &[512, 384, 256, 10]);
    let edited_graph = mlp_graph("warm-mlp", &[512, 384, 288, 10]);
    let compiler = Compiler::fpsa().with_place_route(PlaceRouteConfig::quality());

    let donor = compiler.compile(&donor_graph).unwrap();
    let donor_physical = donor.physical.as_ref().expect("donor gets full P&R");
    let cold = compiler.compile(&edited_graph).unwrap();
    let cold_physical = cold.physical.as_ref().expect("edited model gets full P&R");

    let seed = WarmStart::from_placement(&donor.mapping.netlist, &donor_physical.placement);
    let warm = compiler.compile_warm(&edited_graph, Some(seed)).unwrap();
    let warm_physical = warm.physical.as_ref().expect("warm compile gets full P&R");

    let cold_q = cold_physical.placement.quality();
    let warm_q = warm_physical.placement.quality();
    assert!(warm_q.warm_started);
    assert!(warm_q.seeded_blocks > 0, "surviving blocks must seed");
    assert!(
        warm_q.moves_evaluated <= cold_q.moves_evaluated / 2,
        "warm anneal spent {} moves, cold {}",
        warm_q.moves_evaluated,
        cold_q.moves_evaluated
    );
    assert!(
        warm_physical.placement.wirelength() <= cold_physical.placement.wirelength(),
        "warm HPWL {} regressed past cold {}",
        warm_physical.placement.wirelength(),
        cold_physical.placement.wirelength()
    );
    // The warm-started design still routes.
    assert!(warm_physical.timing.routable);
}
