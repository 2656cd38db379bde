//! Regenerates Table 1: function-block parameters at 45 nm.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::table1;

fn main() {
    let rows = table1::run();
    print_experiment(
        "Table 1: function-block parameters (45 nm)",
        &table1::to_table(&rows),
    );
    save_text("table1.txt", &format!("{rows:#?}"));
    time("table1/function_block_models", 20, table1::run);
}
