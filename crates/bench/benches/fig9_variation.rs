//! Regenerates Figure 9: splice vs add accuracy under device variation,
//! measured on the compiled fabric.

use criterion::{criterion_group, criterion_main, Criterion};
use fpsa_bench::{print_experiment, save_json};
use fpsa_core::experiments::fig9;
use fpsa_device::variation::CellVariation;

fn bench(c: &mut Criterion) {
    let fig = fig9::run();
    print_experiment(
        &format!(
            "Figure 9: splice vs add under measured variation (noise-free compiled accuracy {:.3})",
            fig.compiled_accuracy
        ),
        &fig9::to_table(&fig),
    );
    save_json("fig9", &fig);
    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);
    group.bench_function("variation_sweep_small", |b| {
        b.iter(|| fig9::run_with(CellVariation::measured(), &[2, 8], 1))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
