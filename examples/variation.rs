//! Device-variation study: the splice vs add weight representations.
//!
//! ```text
//! cargo run --release --example variation
//! ```
//!
//! Reproduces Figure 9: a trained network is compiled onto the fabric, every
//! PE's crossbar is programmed onto simulated ReRAM cells whose conductance
//! carries the measured Gaussian variation, and the fabric is evaluated with
//! both the conventional splice representation and the paper's add
//! representation for 1–16 cells per weight.

use fpsa::core::experiments::fig9;
use fpsa::device::variation::{CellVariation, WeightScheme};

fn main() {
    println!("== Figure 9: weight representation under ReRAM variation ==\n");

    println!("Analytic normalized deviation (Section 7.2):");
    let variation = CellVariation::measured();
    for cells in [1usize, 2, 4, 8, 16] {
        let splice = WeightScheme::Splice {
            cells,
            bits_per_cell: 4,
        }
        .normalized_deviation(variation);
        let add = WeightScheme::Add {
            cells,
            bits_per_cell: 4,
        }
        .normalized_deviation(variation);
        println!("  {cells:>2} cells:  splice {splice:.4}   add {add:.4}");
    }

    println!("\nMonte-Carlo accuracy study on a compiled, trained network:");
    let fig = fig9::run();
    println!("{}", fig9::to_table(&fig));
    println!(
        "noise-free compiled accuracy {:.3} (reference network {:.3})",
        fig.compiled_accuracy, fig.reference_accuracy
    );
    println!(
        "\nThe splice curve stays flat regardless of how many cells are spent, while the add\n\
         method's deviation falls with the square root of the cell count — the same shape as\n\
         the paper's Figure 9 (measured there on VGG16/ImageNet; see DESIGN.md for the\n\
         substitution rationale)."
    );
}
