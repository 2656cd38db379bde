//! Compile a network, execute it on the simulated fabric, and diff it
//! against the golden-model reference — the end-to-end numeric proof that
//! compilation preserves semantics. Also peeks inside the bind-time
//! bytecode: the lowering statistics (structural sparsity, slab sizes) and a
//! disassembly of the instruction stream the dispatch loop executes.
//!
//! ```sh
//! cargo run --release --example compile_execute
//! ```

use fpsa::core::experiments::fig9;
use fpsa::core::validate::{validate, ValidationConfig};
use fpsa::core::Compiler;
use fpsa::nn::{zoo, GraphParameters};
use fpsa::sim::Precision;

fn main() {
    let compiler = Compiler::fpsa();
    let config = ValidationConfig::default();

    // What `Executor::bind` compiled: every scheduled tile program is
    // lowered once into flat bytecode with preresolved slab offsets; the
    // stats record how much structural sparsity the lowering skipped.
    let graph = zoo::mlp_500_100();
    let params = GraphParameters::seeded(&graph, 0xD1FF);
    let compiled = compiler.compile(&graph).expect("compiles");
    let exec = compiled
        .executor(&graph, &params, &Precision::Float)
        .expect("binds");
    let stats = exec.lowering_stats();
    println!("bytecode lowering of {}:", graph.name);
    println!(
        "  {} instructions, {} row runs covering {} MAC rows",
        stats.instructions, stats.row_runs, stats.mac_rows
    );
    println!(
        "  skipped {} all-zero rows and {} all-zero tiles at lowering",
        stats.skipped_zero_rows, stats.skipped_zero_tiles
    );
    println!(
        "  value slab {} elems, partial slab {} elems, weight slab {} elems",
        stats.value_slab, stats.partial_slab, stats.weight_slab
    );
    println!("disassembly (first 8 instructions):");
    print!("{}", exec.disassemble(8));
    println!();

    println!("differential validation (compiled execution vs golden reference)");
    println!("model            float max|Δ|   integer   verdict");
    for graph in zoo::differential_suite() {
        let params = GraphParameters::seeded(&graph, 0xD1FF);
        let report = validate(&compiler, &graph, &params, &config).expect("validation runs");
        println!(
            "{:<16} {:>12.3e}   {}   {}",
            report.model,
            report.float_max_abs,
            if report.integer_bit_exact {
                "bit-exact"
            } else {
                "DIVERGED "
            },
            if report.passed() { "ok" } else { "FAIL" },
        );
    }

    println!();
    println!("Figure 9 on a compiled model (accuracy under per-PE programming noise):");
    let fig = fig9::run_with(
        fpsa::device::variation::CellVariation::measured(),
        &[1, 2, 8],
        2,
    );
    println!(
        "compiled accuracy {:.3} (reference {:.3})",
        fig.compiled_accuracy, fig.reference_accuracy
    );
    println!("{}", fig9::to_table(&fig));
}
