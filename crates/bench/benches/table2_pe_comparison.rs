//! Regenerates Table 2: PE comparison between PRIME and FPSA.

use fpsa_bench::{print_experiment, save_text, time};
use fpsa_core::experiments::table2;

fn main() {
    let table = table2::run();
    print_experiment(
        "Table 2: PRIME vs FPSA processing element (256x256 VMM, 8-bit weights, 6-bit I/O)",
        &table2::to_table(&table),
    );
    save_text("table2.txt", &format!("{table:#?}"));
    time("table2/pe_comparison", 20, table2::run);
}
