//! Regenerates Figure 7: per-PE latency breakdown (computation vs
//! communication).

use criterion::{criterion_group, criterion_main, Criterion};
use fpsa_bench::{print_experiment, save_json};
use fpsa_core::experiments::fig7;

fn bench(c: &mut Criterion) {
    let fig = fig7::run();
    print_experiment(
        "Figure 7: per-PE latency breakdown for VGG16",
        &fig7::to_table(&fig),
    );
    print_experiment(
        "Figure 7 compile cache: process-wide statistics",
        &fpsa_core::CompileCache::global().stats().summary(),
    );
    save_json("fig7", &fig);
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.bench_function("latency_breakdown_vgg16", |b| b.iter(fig7::run));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
