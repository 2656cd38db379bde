//! Scalability study across the full benchmark zoo.
//!
//! ```text
//! cargo run --release --example scalability
//! ```
//!
//! Reproduces Figure 8 and Table 3: every benchmark model is compiled at
//! duplication degrees 1x / 4x / 16x / 64x and the resulting performance,
//! area and utilization bounds are reported, followed by the Table 3 summary
//! at 64x duplication.

use fpsa::core::experiments::{fig8, table3};

fn main() {
    println!("== Figure 8: scalability with the duplication degree ==\n");
    let fig = fig8::run();
    println!("{}", fig8::to_table(&fig));
    for dup in [4u64, 16, 64] {
        let (speedup, area) = fig.geomean_scaling(dup);
        println!(
            "geometric mean at {dup:>2}x duplication: {speedup:.2}x performance for {area:.2}x area"
        );
    }

    println!("\n== Table 3: overall FPSA performance (64x duplication) ==\n");
    let cols = table3::run();
    println!("{}", table3::to_table(&cols));
    println!("(The published throughput/area columns are included for side-by-side comparison.)");
}
