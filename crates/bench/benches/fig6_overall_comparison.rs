//! Regenerates Figure 6: PRIME vs FP-PRIME vs FPSA for VGG16.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::fig6;

fn main() {
    let fig = fig6::run();
    print_experiment(
        &format!(
            "Figure 6: overall comparison for VGG16 (FPSA/PRIME speedup at max area: {:.0}x)",
            fig.speedup_at_max_area
        ),
        &fig6::to_table(&fig),
    );
    save_text("fig6.txt", &format!("{fig:#?}"));
    time("fig6/three_architecture_sweep", 20, fig6::run);
}
