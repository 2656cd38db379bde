//! Property-based stability of the compile-cache content address.
//!
//! The cache's correctness rests on two sides of the same coin:
//!
//! * **stability** — rebuilding the same (graph, compiler configuration)
//!   from scratch derives the identical key, so the cache can be consulted
//!   across independently constructed inputs;
//! * **sensitivity** — perturbing any field that affects the compiled
//!   artifact (any scalar of the compiler configuration, a layer width, an
//!   operator, a node name, one wire of the graph) derives a different key,
//!   so a stale artifact can never be returned for changed inputs.

use fpsa_arch::{ArchitectureConfig, ArchitectureKind, CommunicationStyle};
use fpsa_core::compiler::PlaceRouteConfig;
use fpsa_core::pipeline::{ChannelWidthMode, OverLimitPolicy};
use fpsa_core::{CacheOutcome, CompileCache, CompileKey, Compiler};
use fpsa_nn::params::mlp_graph;
use fpsa_nn::{ComputationalGraph, Operator, TensorShape};
use fpsa_testgen::{cases, vec};
use rand::Rng;
use std::collections::HashMap;

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

/// The next representable float above `x`: the smallest change a float
/// field can make.
fn nudge(x: &mut f64) {
    *x = f64::from_bits(x.to_bits() + 1);
}

/// A named in-place edit of one compiler field.
type Edit = (&'static str, fn(&mut Compiler));

/// One edit per scalar of [`Compiler`], each the smallest that field allows.
const COMPILER_EDITS: &[Edit] = &[
    ("arch.kind", |c| {
        c.arch.kind = match c.arch.kind {
            ArchitectureKind::Prime => ArchitectureKind::FpPrime,
            ArchitectureKind::FpPrime => ArchitectureKind::Fpsa,
            ArchitectureKind::Fpsa => ArchitectureKind::Prime,
        }
    }),
    ("arch.pe.area_um2", |c| nudge(&mut c.arch.pe.area_um2)),
    ("arch.pe.vmm_latency_ns", |c| {
        nudge(&mut c.arch.pe.vmm_latency_ns)
    }),
    ("arch.pe.rows", |c| c.arch.pe.rows += 1),
    ("arch.pe.cols", |c| c.arch.pe.cols += 1),
    ("arch.io_bits", |c| c.arch.io_bits += 1),
    ("arch.communication value", |c| {
        match &mut c.arch.communication {
            CommunicationStyle::MemoryBus { bandwidth_gbps } => nudge(bandwidth_gbps),
            CommunicationStyle::Routed { bits_per_value } => *bits_per_value += 1,
        }
    }),
    ("arch.communication style", |c| {
        c.arch.communication = match c.arch.communication {
            CommunicationStyle::MemoryBus { .. } => {
                CommunicationStyle::Routed { bits_per_value: 64 }
            }
            CommunicationStyle::Routed { .. } => CommunicationStyle::MemoryBus {
                bandwidth_gbps: 64.0,
            },
        }
    }),
    ("arch.routing.channel_width", |c| {
        c.arch.routing.channel_width += 1
    }),
    ("arch.routing.segment_length", |c| {
        c.arch.routing.segment_length += 1
    }),
    ("arch.routing.switch_delay_ns", |c| {
        nudge(&mut c.arch.routing.switch_delay_ns)
    }),
    ("arch.routing.connection_delay_ns", |c| {
        nudge(&mut c.arch.routing.connection_delay_ns)
    }),
    ("arch.routing.wire_delay_per_block_ns", |c| {
        nudge(&mut c.arch.routing.wire_delay_per_block_ns)
    }),
    ("arch.pes_per_smb", |c| c.arch.pes_per_smb += 1),
    ("arch.pes_per_clb", |c| c.arch.pes_per_clb += 1),
    ("duplication", |c| c.duplication += 1),
    ("placer.seed", |c| c.place_route.placer.seed += 1),
    ("placer.moves_per_temperature", |c| {
        c.place_route.placer.moves_per_temperature += 1
    }),
    ("placer.max_temperature_steps", |c| {
        c.place_route.placer.max_temperature_steps += 1
    }),
    ("placer.initial_temperature_fraction", |c| {
        nudge(&mut c.place_route.placer.initial_temperature_fraction)
    }),
    ("placer.timing_weight", |c| {
        nudge(&mut c.place_route.placer.timing_weight)
    }),
    ("router.max_iterations", |c| {
        c.place_route.router.max_iterations += 1
    }),
    ("router.initial_present_factor", |c| {
        nudge(&mut c.place_route.router.initial_present_factor)
    }),
    ("router.present_growth", |c| {
        nudge(&mut c.place_route.router.present_growth)
    }),
    ("router.history_weight", |c| {
        nudge(&mut c.place_route.router.history_weight)
    }),
    ("router.wave_width", |c| {
        c.place_route.router.wave_width += 1
    }),
    ("router.parallel", |c| c.place_route.router.parallel ^= true),
    ("channel_width", |c| {
        c.place_route.channel_width = match c.place_route.channel_width {
            ChannelWidthMode::Architecture => ChannelWidthMode::Minimize,
            ChannelWidthMode::Minimize => ChannelWidthMode::Architecture,
        }
    }),
    ("block_limit", |c| c.place_route.block_limit += 1),
    ("over_limit", |c| {
        c.place_route.over_limit = match c.place_route.over_limit {
            OverLimitPolicy::Error => OverLimitPolicy::AnalyticFallback,
            OverLimitPolicy::AnalyticFallback => OverLimitPolicy::Error,
        }
    }),
    ("skip", |c| c.place_route.skip ^= true),
];

#[test]
fn every_compiler_scalar_keys_apart() {
    cases("every_compiler_scalar_keys_apart", 16, |rng| {
        let sizes = vec(rng, 2..5, |r| r.gen_range(2usize..64));
        let arch = match rng.gen_range(0..3) {
            0 => ArchitectureConfig::prime(),
            1 => ArchitectureConfig::fp_prime(),
            _ => ArchitectureConfig::fpsa(),
        };
        let graph = mlp_graph("prop", &sizes);
        let base = Compiler::for_architecture(arch).with_duplication(rng.gen_range(1u64..8));
        let mut seen = HashMap::from([(CompileKey::for_compile(&base, &graph), "base")]);
        for &(field, edit) in COMPILER_EDITS {
            let mut edited = base.clone();
            edit(&mut edited);
            let key = CompileKey::for_compile(&edited, &graph);
            if let Some(other) = seen.insert(key, field) {
                panic!("editing {field} keys equal to {other}");
            }
        }
    });
}

#[test]
fn max_and_average_pooling_key_apart() {
    cases("max_and_average_pooling_key_apart", 32, |rng| {
        let (kernel, stride) = (rng.gen_range(1usize..8), rng.gen_range(1usize..8));
        let pooled = |op: Operator| {
            let mut g = ComputationalGraph::new("pool");
            let input = g.add_input("input", TensorShape::chw(3, 32, 32));
            g.add_node("pool", op, vec![input]);
            g
        };
        let max = pooled(Operator::MaxPool2d { kernel, stride });
        let avg = pooled(Operator::AvgPool2d { kernel, stride });
        let compiler = Compiler::fpsa();
        assert_ne!(
            CompileKey::for_compile(&compiler, &max),
            CompileKey::for_compile(&compiler, &avg)
        );
    });
}

#[test]
fn moving_a_node_name_boundary_keys_apart() {
    cases("moving_a_node_name_boundary_keys_apart", 32, |rng| {
        // ("ab", "c") against ("a", "bc"), at lengths on both sides of the
        // 8-byte chunk boundary: the concatenated names are equal, so only
        // where the boundary falls tells the two graphs apart.
        let text: String = vec(rng, 3..24, |r| {
            char::from(b'a' + r.gen_range(0u32..26) as u8)
        })
        .into_iter()
        .collect();
        let split = rng.gen_range(1..text.len());
        let moved = rng.gen_range(1..text.len() - 1);
        let moved = if moved >= split { moved + 1 } else { moved };
        let named = |at: usize| {
            let mut g = ComputationalGraph::new("names");
            let input = g.add_input(&text[..at], TensorShape::Features(8));
            g.add_node(&text[at..], Operator::Relu, vec![input]);
            g
        };
        let compiler = Compiler::fpsa();
        assert_ne!(
            CompileKey::for_compile(&compiler, &named(split)),
            CompileKey::for_compile(&compiler, &named(moved))
        );
    });
}

#[test]
fn rewiring_one_edge_keys_apart() {
    cases("rewiring_one_edge_keys_apart", 32, |rng| {
        // A chain of ReLUs; one node's input moves to a different earlier
        // node.
        let len = rng.gen_range(3usize..12);
        let node = rng.gen_range(2..len);
        let source = rng.gen_range(0..node - 1);
        let chain = |rewired: bool| {
            let mut g = ComputationalGraph::new("chain");
            g.add_input("input", TensorShape::Features(8));
            for i in 1..len {
                let from = if rewired && i == node { source } else { i - 1 };
                g.add_node(format!("relu{i}"), Operator::Relu, vec![from]);
            }
            g
        };
        let compiler = Compiler::fpsa();
        assert_ne!(
            CompileKey::for_compile(&compiler, &chain(false)),
            CompileKey::for_compile(&compiler, &chain(true))
        );
    });
}

/// The warm-start fingerprint, observed through the donor choice: a second
/// graph under the same compiler finds the first as its donor, while a
/// compiler differing in one placer field finds none.
#[test]
fn warm_start_donors_share_the_compiler_fingerprint() {
    let cache = CompileCache::new(8).with_warm_start();
    let compiler = Compiler::fpsa();
    let outcome = |compiler: &Compiler, sizes: &[usize]| {
        cache
            .compile_with_info(compiler, &mlp_graph("warm", sizes))
            .unwrap()
            .1
    };
    assert_eq!(outcome(&compiler, &[16, 12, 4]), CacheOutcome::Miss);
    assert_eq!(outcome(&compiler, &[16, 10, 4]), CacheOutcome::WarmStart);
    let mut reseeded = compiler.clone();
    reseeded.place_route.placer.seed += 1;
    assert_eq!(outcome(&reseeded, &[16, 10, 4]), CacheOutcome::Miss);
}
