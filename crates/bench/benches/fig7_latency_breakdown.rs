//! Regenerates Figure 7: per-PE latency breakdown (computation vs
//! communication).

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::fig7;

fn main() {
    let fig = fig7::run();
    print_experiment(
        "Figure 7: per-PE latency breakdown for VGG16",
        &fig7::to_table(&fig),
    );
    print_experiment(
        "Figure 7 compile cache: process-wide statistics",
        &fpsa_core::CompileCache::global().stats().summary(),
    );
    save_text("fig7.txt", &format!("{fig:#?}"));
    time("fig7/latency_breakdown_vgg16", 10, fig7::run);
}
