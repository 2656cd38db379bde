//! Ablation benchmarks for the software stack itself: the full LeNet compile
//! next to its synthesis and mapping stages run alone, and how the
//! duplication degree and channel width affect the result. These are the
//! design-choice ablations called out in DESIGN.md rather than paper figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpsa_core::compiler::Compiler;
use fpsa_core::pipeline::{CompileStage, MapStage, SynthesizeStage};
use fpsa_nn::zoo;
use fpsa_placeroute::Router;

fn bench(c: &mut Criterion) {
    let lenet = zoo::lenet();

    let compiled = Compiler::fpsa().compile(&lenet).unwrap();
    let arch = compiled.arch.clone();
    let synthesize = SynthesizeStage::for_architecture(&arch);
    let core = synthesize.run(&lenet).unwrap();

    let mut group = c.benchmark_group("compiler_stages");
    group.sample_size(20);
    group.bench_function("compile_lenet_full_pipeline", |b| {
        b.iter(|| Compiler::fpsa().compile(&lenet).unwrap())
    });
    group.bench_function("synthesize_lenet", |b| {
        b.iter(|| synthesize.run(&lenet).unwrap())
    });
    for dup in [1u64, 16] {
        group.bench_with_input(BenchmarkId::new("map_lenet_dup", dup), &dup, |b, &dup| {
            let map = MapStage::new(&arch, dup);
            b.iter(|| map.run(&core).unwrap())
        });
    }
    // Channel width is a routing-architecture knob beneath the PlaceRoute
    // stage; ablate it against the placement of the compiled model.
    let mapping = &compiled.mapping;
    let placement = &compiled
        .physical
        .as_ref()
        .expect("LeNet is small enough for P&R")
        .placement;
    for width in [128usize, 512] {
        group.bench_with_input(
            BenchmarkId::new("route_lenet_width", width),
            &width,
            |b, &w| {
                let mut routing = arch.routing;
                routing.channel_width = w;
                b.iter(|| Router::new(routing).route(&mapping.netlist, placement))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
