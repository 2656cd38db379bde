//! Regenerates Figure 9: splice vs add accuracy under device variation,
//! measured on the compiled fabric.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::fig9;
use fpsa_device::variation::CellVariation;

fn main() {
    let fig = fig9::run();
    print_experiment(
        &format!(
            "Figure 9: splice vs add under measured variation (noise-free compiled accuracy {:.3})",
            fig.compiled_accuracy
        ),
        &fig9::to_table(&fig),
    );
    save_text("fig9.txt", &format!("{fig:#?}"));
    time("fig9/variation_sweep_small", 10, || {
        fig9::run_with(CellVariation::measured(), &[2, 8], 1)
    });
}
