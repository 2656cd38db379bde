//! Regenerates Figure 8: scalability with the duplication degree.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::fig8;
use fpsa_core::CompileCache;

fn main() {
    // The full seven-model sweep is printed once; the timing covers the
    // three-model variant so a bench run stays short. The sweep compiles
    // through a shared cache whose hit/miss statistics are printed below.
    let cache = CompileCache::new(64);
    let fig = fig8::run_with_cache(&cache);
    let (p4, a4) = fig.geomean_scaling(4);
    let (p16, a16) = fig.geomean_scaling(16);
    let (p64, a64) = fig.geomean_scaling(64);
    print_experiment(
        &format!(
            "Figure 8: scalability (geomean speedup/area growth: 4x -> {p4:.2}x/{a4:.2}x, 16x -> {p16:.2}x/{a16:.2}x, 64x -> {p64:.2}x/{a64:.2}x)"
        ),
        &fig8::to_table(&fig),
    );
    print_experiment(
        "Figure 8 routing fabric: minimum channel width (mrVPR sweep)",
        &fig8::channel_width_table(&fig),
    );
    print_experiment(
        "Figure 8 compile cache: sweep-wide hit/miss statistics",
        &cache.stats().summary(),
    );
    save_text("fig8.txt", &format!("{fig:#?}"));
    time("fig8/scalability_small_models", 10, fig8::run_small);
}
