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
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bit_identical_rebuilds_hash_identically(
        sizes in proptest::collection::vec(2usize..64, 2..5),
        duplication in 1u64..8,
    ) {
        let graph_a = mlp_graph("prop", &sizes);
        let graph_b = mlp_graph("prop", &sizes);
        let compiler_a = Compiler::fpsa().with_duplication(duplication);
        let compiler_b = Compiler::fpsa().with_duplication(duplication);
        prop_assert_eq!(
            CompileKey::for_compile(&compiler_a, &graph_a),
            CompileKey::for_compile(&compiler_b, &graph_b)
        );
    }

    #[test]
    fn perturbing_a_layer_width_changes_the_key(
        sizes in proptest::collection::vec(2usize..64, 2..5),
        which in 0usize..1024,
    ) {
        let graph = mlp_graph("prop", &sizes);
        let mut wider = sizes.clone();
        let i = which % wider.len();
        wider[i] += 1;
        let graph_b = mlp_graph("prop", &wider);
        let compiler = Compiler::fpsa();
        prop_assert_ne!(
            CompileKey::for_compile(&compiler, &graph),
            CompileKey::for_compile(&compiler, &graph_b)
        );
    }

    #[test]
    fn perturbing_the_compiler_config_changes_the_key(
        sizes in proptest::collection::vec(2usize..64, 2..4),
        duplication in 1u64..8,
        placer_seed in 1u64..u64::MAX,
    ) {
        let graph = mlp_graph("prop", &sizes);
        let base = Compiler::fpsa().with_duplication(duplication);
        let key = CompileKey::for_compile(&base, &graph);

        // A different duplication degree keys apart.
        let dup = Compiler::fpsa().with_duplication(duplication + 1);
        prop_assert_ne!(key, CompileKey::for_compile(&dup, &graph));

        // A different placer seed keys apart.
        let mut pr = PlaceRouteConfig::fast();
        pr.placer.seed = pr.placer.seed.wrapping_add(placer_seed);
        let seeded = Compiler::fpsa()
            .with_duplication(duplication)
            .with_place_route(pr);
        prop_assert_ne!(key, CompileKey::for_compile(&seeded, &graph));

        // Skipping physical design keys apart.
        let skipped = Compiler::fpsa()
            .with_duplication(duplication)
            .without_place_and_route();
        prop_assert_ne!(key, CompileKey::for_compile(&skipped, &graph));
    }
}
