//! Regenerates Table 3: overall FPSA performance for every benchmark model.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::table3;

fn main() {
    let cols = table3::run();
    print_experiment(
        "Table 3: overall FPSA performance (64x duplication)",
        &table3::to_table(&cols),
    );
    save_text("table3.txt", &format!("{cols:#?}"));
    time("table3/overall_low_duplication", 10, || {
        table3::run_with_duplication(1)
    });
}
