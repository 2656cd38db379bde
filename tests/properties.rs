//! Property-based tests over the core data structures and invariants of the
//! stack, spanning multiple crates.

use fpsa::device::spiking::{SpikeTrain, SpikingPe};
use fpsa::device::variation::{CellVariation, WeightScheme};
use fpsa::mapper::{AllocationPolicy, Mapper};
use fpsa::nn::quant::Quantizer;
use fpsa::nn::{ComputationalGraph, Operator, TensorShape};
use fpsa::synthesis::{CoreOpGraph, CoreOpGroup, CoreOpKind, NeuralSynthesizer, SynthesisConfig};
use fpsa_testgen::{cases, vec};
use rand::Rng;

fn arbitrary_mlp(sizes: Vec<usize>) -> ComputationalGraph {
    let mut g = ComputationalGraph::new("prop-mlp");
    let mut prev = g.add_input("input", TensorShape::Features(sizes[0]));
    for (i, pair) in sizes.windows(2).enumerate() {
        let fc = g.add_node(
            format!("fc{i}"),
            Operator::Linear {
                in_features: pair[0],
                out_features: pair[1],
            },
            vec![prev],
        );
        prev = g.add_node(format!("relu{i}"), Operator::Relu, vec![fc]);
    }
    g
}

fn chain_graph(reuses: &[u64]) -> CoreOpGraph {
    let mut g = CoreOpGraph::new("prop-chain", 256, 256);
    let mut prev = None;
    for (i, &r) in reuses.iter().enumerate() {
        let id = g.add_group(CoreOpGroup {
            id: 0,
            name: format!("g{i}"),
            source_node: i,
            kind: CoreOpKind::Vmm,
            rows: 256,
            cols: 256,
            row_offset: 0,
            col_offset: 0,
            reuse_degree: r,
            relu: true,
            layer_depth: i,
        });
        if let Some(p) = prev {
            g.add_edge(p, id);
        }
        prev = Some(id);
    }
    g
}

/// Spike-train encoding never loses more than one spike of precision.
#[test]
fn spike_encoding_error_is_bounded() {
    cases("spike_encoding_error_is_bounded", 64, |rng| {
        let value = rng.gen_range(0.0f64..1.0);
        let window = rng.gen_range(8usize..256);
        let train = SpikeTrain::encode(value, window);
        let err = (train.decode() - value).abs();
        assert!(err <= 1.0 / window as f64 + 1e-12);
        assert!(train.count() <= window);
    });
}

/// The spiking PE never produces more spikes than the sampling window and
/// never produces a negative-looking result (ReLU semantics).
#[test]
fn spiking_pe_output_is_bounded() {
    cases("spiking_pe_output_is_bounded", 64, |rng| {
        let weights: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
            .collect();
        let inputs: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0f64..1.0)).collect();
        let pe = SpikingPe::new(weights, 64);
        let trains: Vec<SpikeTrain> = inputs.iter().map(|&v| SpikeTrain::encode(v, 64)).collect();
        for out in pe.run(&trains) {
            assert!(out.count() <= 64);
        }
    });
}

/// Weight quantization round trips stay within half a step of the input.
#[test]
fn quantizer_round_trip_is_tight() {
    cases("quantizer_round_trip_is_tight", 64, |rng| {
        let value = rng.gen_range(-2.0f32..2.0);
        let bits = rng.gen_range(2u32..10);
        let q = Quantizer::new(bits, 2.0);
        let rt = q.round_trip(value);
        assert!((rt - value).abs() <= q.max_error() + 1e-6);
    });
}

/// Both weight-representation schemes decode exactly what they encoded in
/// the absence of variation, for any magnitude.
#[test]
fn weight_schemes_round_trip() {
    cases("weight_schemes_round_trip", 64, |rng| {
        let magnitude = rng.gen_range(0.0f64..1.0);
        let cells = rng.gen_range(1usize..16);
        for scheme in [
            WeightScheme::Splice {
                cells,
                bits_per_cell: 4,
            },
            WeightScheme::Add {
                cells,
                bits_per_cell: 4,
            },
        ] {
            let levels = scheme.encode(magnitude);
            assert_eq!(levels.len(), cells);
            let decoded = scheme.decode(&levels);
            assert!((decoded - magnitude).abs() <= 1.0 / scheme.max_value() as f64 + 1e-12);
        }
    });
}

/// The add method's analytic deviation is never worse than splice's for
/// the same cell budget.
#[test]
fn add_never_loses_to_splice() {
    cases("add_never_loses_to_splice", 64, |rng| {
        let cells = rng.gen_range(1usize..16);
        let sigma = rng.gen_range(0.01f64..2.0);
        let v = CellVariation {
            sigma_levels: sigma,
        };
        let add = WeightScheme::Add {
            cells,
            bits_per_cell: 4,
        }
        .normalized_deviation(v);
        let splice = WeightScheme::Splice {
            cells,
            bits_per_cell: 4,
        }
        .normalized_deviation(v);
        assert!(add <= splice + 1e-12);
    });
}

/// Synthesizing an arbitrary MLP preserves the operation count in the VMM
/// tiles and keeps every tile within the crossbar.
#[test]
fn synthesis_preserves_ops_for_mlps() {
    cases("synthesis_preserves_ops_for_mlps", 64, |rng| {
        let hidden = rng.gen_range(1usize..600);
        let output = rng.gen_range(1usize..300);
        let input = rng.gen_range(1usize..600);
        let graph = arbitrary_mlp(vec![input, hidden, output]);
        let stats = graph.statistics();
        let core = NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
            .synthesize(&graph)
            .unwrap();
        assert!(core.groups().iter().all(|g| g.rows <= 256 && g.cols <= 256));
        let vmm_ops: u64 = core
            .groups()
            .iter()
            .filter(|g| g.kind == CoreOpKind::Vmm)
            .map(|g| g.ops())
            .sum();
        assert_eq!(vmm_ops, stats.total_ops);
    });
}

/// The scheduler always respects the sampling-window constraint and the
/// buffered-dependency ordering, for arbitrary reuse chains.
#[test]
fn scheduler_invariants_hold() {
    cases("scheduler_invariants_hold", 64, |rng| {
        let reuses = vec(rng, 1..12, |r| r.gen_range(1u64..200));
        let graph = chain_graph(&reuses);
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(1)).map(&graph);
        let schedule = &mapping.schedule;
        for entry in &schedule.entries {
            assert!(entry.duration() >= 64);
        }
        for &(u, v) in &schedule.buffered_edges {
            let pu = schedule.entry(u).unwrap();
            let pv = schedule.entry(v).unwrap();
            assert!(pv.start_cycle > pu.end_cycle, "BD violated for ({u},{v})");
        }
        // Every PE the allocation granted appears exactly once in the netlist.
        assert_eq!(
            mapping.netlist.stats().pe_count,
            mapping.allocation.total_pes()
        );
    });
}

/// Allocation never wastes duplicates (no duplicate beyond the reuse
/// degree) and never starves a group (at least one PE each).
#[test]
fn allocation_is_sane() {
    cases("allocation_is_sane", 64, |rng| {
        let reuses = vec(rng, 1..20, |r| r.gen_range(1u64..5000));
        let duplication = rng.gen_range(1u64..128);
        let graph = chain_graph(&reuses);
        let mapping = Mapper::new(64, AllocationPolicy::DuplicationDegree(duplication)).map(&graph);
        for (i, (&dup, &reuse)) in mapping.allocation.per_group.iter().zip(&reuses).enumerate() {
            assert!(dup >= 1, "group {i} starved");
            assert!(dup <= reuse, "group {i} over-allocated: {dup} > {reuse}");
        }
    });
}
