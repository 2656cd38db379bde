//! The headline experiment: how much faster is FPSA than PRIME on VGG16?
//!
//! ```text
//! cargo run --release --example vgg16_speedup
//! ```
//!
//! Reproduces Figures 2, 6 and 7: the PRIME performance bounds, the
//! three-architecture comparison (PRIME / FP-PRIME / FPSA) across chip areas,
//! and the per-PE latency breakdown that explains where the speedup comes
//! from.

use fpsa::core::experiments::{fig2, fig6, fig7};

fn main() {
    println!("== VGG16: PRIME vs FP-PRIME vs FPSA ==\n");

    println!("Figure 2 — PRIME bounds (peak / ideal / real) vs chip area:");
    println!("{}", fig2::to_table(&fig2::run()));

    let fig6_data = fig6::run();
    println!("Figure 6 — real performance of the three architectures vs area:");
    println!("{}", fig6::to_table(&fig6_data));
    println!(
        "FPSA / PRIME speedup at the largest evaluated area: {:.0}x\n",
        fig6_data.speedup_at_max_area
    );

    println!("Figure 7 — average per-PE latency breakdown:");
    let fig7_data = fig7::run();
    println!("{}", fig7::to_table(&fig7_data));
    let bars = &fig7_data.bars;
    println!(
        "Replacing the bus with the reconfigurable routing removes {:.1}% of PRIME's per-PE latency;",
        100.0 * (bars[0].total_ns() - bars[1].total_ns()) / bars[0].total_ns()
    );
    println!(
        "the spiking PE then cuts the remaining computation time by {:.1}x.",
        bars[1].compute_ns / bars[2].compute_ns
    );
}
