//! Regenerates Figure 2: PRIME peak / ideal / real performance vs area.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::fig2;

fn main() {
    let fig = fig2::run();
    print_experiment(
        "Figure 2: PRIME bounds for VGG16 (peak / ideal / real)",
        &fig2::to_table(&fig),
    );
    save_text("fig2.txt", &format!("{fig:#?}"));
    time("fig2/prime_bounds_sweep", 20, fig2::run);
}
