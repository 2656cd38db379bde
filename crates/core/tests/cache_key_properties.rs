//! Property-based stability of the compile-cache content address.
//!
//! The cache's correctness rests on two sides of the same coin:
//!
//! * **stability** — rebuilding the same (graph, compiler configuration)
//!   from scratch derives the identical key, so the cache can be consulted
//!   across independently constructed inputs;
//! * **sensitivity** — perturbing any field that affects the compiled
//!   artifact (a layer width, the duplication degree, the placer seed, the
//!   P&R skip policy) derives a different key, so a stale artifact can
//!   never be returned for changed inputs.

use fpsa_core::compiler::PlaceRouteConfig;
use fpsa_core::{CompileKey, Compiler};
use fpsa_nn::params::mlp_graph;
use fpsa_testgen::{cases, vec};
use rand::Rng;

#[test]
fn bit_identical_rebuilds_hash_identically() {
    cases("bit_identical_rebuilds_hash_identically", 48, |rng| {
        let sizes = vec(rng, 2..5, |r| r.gen_range(2usize..64));
        let duplication = rng.gen_range(1u64..8);
        let graph_a = mlp_graph("prop", &sizes);
        let graph_b = mlp_graph("prop", &sizes);
        let compiler_a = Compiler::fpsa().with_duplication(duplication);
        let compiler_b = Compiler::fpsa().with_duplication(duplication);
        assert_eq!(
            CompileKey::for_compile(&compiler_a, &graph_a),
            CompileKey::for_compile(&compiler_b, &graph_b)
        );
    });
}

#[test]
fn perturbing_a_layer_width_changes_the_key() {
    cases("perturbing_a_layer_width_changes_the_key", 48, |rng| {
        let sizes = vec(rng, 2..5, |r| r.gen_range(2usize..64));
        let which = rng.gen_range(0usize..1024);
        let graph = mlp_graph("prop", &sizes);
        let mut wider = sizes.clone();
        let i = which % wider.len();
        wider[i] += 1;
        let graph_b = mlp_graph("prop", &wider);
        let compiler = Compiler::fpsa();
        assert_ne!(
            CompileKey::for_compile(&compiler, &graph),
            CompileKey::for_compile(&compiler, &graph_b)
        );
    });
}

#[test]
fn perturbing_the_compiler_config_changes_the_key() {
    let name = "perturbing_the_compiler_config_changes_the_key";
    cases(name, 48, |rng| {
        let sizes = vec(rng, 2..4, |r| r.gen_range(2usize..64));
        let duplication = rng.gen_range(1u64..8);
        let placer_seed = rng.gen_range(1u64..u64::MAX);
        let graph = mlp_graph("prop", &sizes);
        let base = Compiler::fpsa().with_duplication(duplication);
        let key = CompileKey::for_compile(&base, &graph);

        // A different duplication degree keys apart.
        let dup = Compiler::fpsa().with_duplication(duplication + 1);
        assert_ne!(key, CompileKey::for_compile(&dup, &graph));

        // A different placer seed keys apart.
        let mut pr = PlaceRouteConfig::fast();
        pr.placer.seed = pr.placer.seed.wrapping_add(placer_seed);
        let seeded = Compiler::fpsa()
            .with_duplication(duplication)
            .with_place_route(pr);
        assert_ne!(key, CompileKey::for_compile(&seeded, &graph));

        // Skipping physical design keys apart.
        let skipped = Compiler::fpsa()
            .with_duplication(duplication)
            .without_place_and_route();
        assert_ne!(key, CompileKey::for_compile(&skipped, &graph));
    });
}
