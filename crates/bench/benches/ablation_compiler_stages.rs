//! Ablation benchmarks for the software stack itself: the full LeNet compile
//! next to its synthesis and mapping stages run alone, and how the
//! duplication degree and channel width affect the result. These are the
//! design-choice ablations called out in DESIGN.md rather than paper figures.

use fpsa_bench::time;
use fpsa_core::compiler::Compiler;
use fpsa_core::pipeline::{CompileStage, MapStage, SynthesizeStage};
use fpsa_nn::zoo;
use fpsa_placeroute::Router;

fn main() {
    let lenet = zoo::lenet();

    let compiled = Compiler::fpsa().compile(&lenet).unwrap();
    let arch = compiled.arch.clone();
    let synthesize = SynthesizeStage::for_architecture(&arch);
    let core = synthesize.run(&lenet).unwrap();

    time("compiler_stages/compile_lenet_full_pipeline", 20, || {
        Compiler::fpsa().compile(&lenet).unwrap()
    });
    time("compiler_stages/synthesize_lenet", 20, || {
        synthesize.run(&lenet).unwrap()
    });
    for dup in [1u64, 16] {
        let map = MapStage::new(&arch, dup);
        time(&format!("compiler_stages/map_lenet_dup/{dup}"), 20, || {
            map.run(&core).unwrap()
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
        let mut routing = arch.routing;
        routing.channel_width = width;
        time(
            &format!("compiler_stages/route_lenet_width/{width}"),
            20,
            || Router::new(routing).route(&mapping.netlist, placement),
        );
    }
}
