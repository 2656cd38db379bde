//! Mapping artifacts are pinned bit for bit.
//!
//! The scheduler, the netlist builder and the netlist's storage may be
//! rewritten for speed, but what they produce may not move: every digest
//! below was recorded from the hashed (`HashMap`/`HashSet`) implementation
//! this one replaced, over the schedule entries, the buffered edges, the
//! blocks and the nets in order. The proptests pin the two index structures
//! the rewrite introduced against their naive definitions.

use fpsa_mapper::{AllocationPolicy, Mapper, Mapping, Net, Netlist, NetlistBlock};
use fpsa_nn::zoo::Benchmark;
use fpsa_synthesis::{CoreOpGraph, CoreOpGroup, CoreOpKind, NeuralSynthesizer, SynthesisConfig};
use proptest::prelude::*;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(mapping: &Mapping) -> u64 {
    let mut h = Fnv::new();
    let schedule = &mapping.schedule;
    h.word(schedule.entries.len() as u64);
    for e in &schedule.entries {
        h.word(e.group as u64);
        h.word(e.start_cycle);
        h.word(e.end_cycle);
        h.word(e.stage as u64);
        h.word(e.iterations);
    }
    h.word(schedule.buffered_edges.len() as u64);
    for &(u, v) in &schedule.buffered_edges {
        h.word(u as u64);
        h.word(v as u64);
    }
    let netlist = &mapping.netlist;
    h.word(netlist.blocks().len() as u64);
    for block in netlist.blocks() {
        let (tag, a, b) = match *block {
            NetlistBlock::Pe { group, duplicate } => (0, group as u64, duplicate),
            NetlistBlock::Smb { from, to } => (1, from as u64, to as u64),
            NetlistBlock::Clb { region } => (2, region as u64, 0),
        };
        h.word(tag);
        h.word(a);
        h.word(b);
    }
    h.word(netlist.nets().len() as u64);
    for net in netlist.nets().iter() {
        h.word(net.source() as u64);
        h.word(net.values_per_activation());
        h.word(net.sinks().len() as u64);
        for s in net.sinks() {
            h.word(s as u64);
        }
    }
    h.0
}

fn core_graph(benchmark: Benchmark) -> CoreOpGraph {
    NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
        .synthesize(&benchmark.build())
        .expect("zoo models synthesize")
}

fn map(core: &CoreOpGraph, duplication: u64) -> Mapping {
    Mapper::new(64, AllocationPolicy::DuplicationDegree(duplication)).map(core)
}

#[test]
fn small_model_mappings_match_the_recorded_digests() {
    let golden: [(Benchmark, [(u64, u64); 3]); 3] = [
        (
            Benchmark::Mlp500x100,
            [
                (1, 0xe29a_8262_6c87_f3d6),
                (16, 0xe29a_8262_6c87_f3d6),
                (64, 0xe29a_8262_6c87_f3d6),
            ],
        ),
        (
            Benchmark::LeNet,
            [
                (1, 0x0f84_1ff6_b3eb_9b56),
                (16, 0x9ee7_3f5e_227c_e934),
                (64, 0x3756_57f9_24ea_1ab6),
            ],
        ),
        (
            Benchmark::CifarVgg17,
            [
                (1, 0xee90_1c31_883d_4a64),
                (16, 0xa6c6_e1b6_3157_0201),
                (64, 0x713d_fda0_eb0d_70c9),
            ],
        ),
    ];
    for (benchmark, points) in golden {
        let core = core_graph(benchmark);
        for (duplication, expected) in points {
            assert_eq!(
                digest(&map(&core, duplication)),
                expected,
                "{benchmark:?} at duplication {duplication}"
            );
        }
    }
}

/// The ImageNet rows carry the whole cost of a cold compile; they are too
/// slow to map in a debug build.
#[cfg(not(debug_assertions))]
#[test]
fn imagenet_mappings_match_the_recorded_digests_and_sizes() {
    // (model, digest, groups, edges, blocks, nets, buffered edges)
    let golden = [
        (
            Benchmark::AlexNet,
            0xd32c_7bb3_1c8c_9b44_u64,
            [1_923, 200_779, 8_955, 207_811, 5_834],
        ),
        (
            Benchmark::Vgg16,
            0x1a1f_81b3_a9c2_b63a,
            [4_776, 768_890, 20_742, 784_856, 13_199],
        ),
        (
            Benchmark::GoogLeNet,
            0x6b7f_7bfb_aa72_4aaf,
            [958, 11_440, 8_887, 19_369, 6_576],
        ),
        (
            Benchmark::ResNet152,
            0x835f_b491_ec6a_c2d6,
            [2_568, 40_063, 11_419, 48_914, 7_166],
        ),
    ];
    for (benchmark, expected, sizes) in golden {
        let core = core_graph(benchmark);
        let mapping = map(&core, 1);
        assert_eq!(
            [
                core.len(),
                core.edges().len(),
                mapping.netlist.len(),
                mapping.netlist.nets().len(),
                mapping.schedule.buffered_edges.len(),
            ],
            sizes,
            "{benchmark:?} structure"
        );
        assert_eq!(digest(&mapping), expected, "{benchmark:?} digest");
    }
}

fn group(name: String) -> CoreOpGroup {
    CoreOpGroup {
        id: 0,
        name,
        source_node: 0,
        kind: CoreOpKind::Vmm,
        rows: 256,
        cols: 128,
        row_offset: 0,
        col_offset: 0,
        reuse_degree: 1,
        relu: false,
        layer_depth: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The CSR adjacency is the naive scan of `edges()`, slice for slice:
    /// same neighbours in edge-list order (parallel edges and self-loops
    /// included), each carrying the index of its edge.
    #[test]
    fn adjacency_equals_the_naive_edge_scan(
        groups in 1usize..12,
        endpoints in proptest::collection::vec(0usize..12, 0..120),
    ) {
        let mut graph = CoreOpGraph::new("multigraph", 256, 256);
        for i in 0..groups {
            graph.add_group(group(format!("g{i}")));
        }
        for pair in endpoints.chunks_exact(2) {
            graph.add_edge(pair[0] % groups, pair[1] % groups);
        }
        let adjacency = graph.adjacency();
        prop_assert_eq!(adjacency.len(), groups);
        prop_assert_eq!(adjacency.edge_count(), graph.edges().len());
        let mut slot = 0;
        for id in 0..groups {
            let naive_preds: Vec<(usize, usize)> = graph
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, &(_, t))| t == id)
                .map(|(i, &(f, _))| (f, i))
                .collect();
            let naive_succs: Vec<(usize, usize)> = graph
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, &(f, _))| f == id)
                .map(|(i, &(_, t))| (t, i))
                .collect();
            let pairs = |ns: &[fpsa_synthesis::Neighbor]| {
                ns.iter().map(|n| (n.group(), n.edge())).collect::<Vec<_>>()
            };
            prop_assert_eq!(pairs(adjacency.predecessors(id)), naive_preds);
            prop_assert_eq!(pairs(adjacency.successors(id)), naive_succs);
            let slots = adjacency.in_edge_slots(id);
            prop_assert_eq!(slots.start, slot);
            prop_assert_eq!(slots.len(), adjacency.predecessors(id).len());
            slot = slots.end;
        }
        prop_assert_eq!(slot, graph.edges().len());
    }

    /// Flat net storage round-trips the owned nets it was assembled from,
    /// and the incidence index over it is the per-block sorted, deduplicated
    /// list of touching nets.
    #[test]
    fn flat_nets_round_trip_and_index_like_the_owned_list(
        block_count in 1usize..10,
        raw_nets in proptest::collection::vec(
            proptest::collection::vec(0usize..1000, 2..8),
            0..24,
        ),
    ) {
        let blocks: Vec<NetlistBlock> = (0..block_count)
            .map(|i| NetlistBlock::Pe { group: i, duplicate: 0 })
            .collect();
        // Each raw net is [values, source, sinks...].
        let nets: Vec<Net> = raw_nets
            .iter()
            .map(|raw| Net {
                source: raw[1] % block_count,
                sinks: raw[2..].iter().map(|s| s % block_count).collect(),
                values_per_activation: raw[0] as u64,
            })
            .collect();
        let netlist = Netlist::from_parts("flat", blocks, nets.clone());
        prop_assert_eq!(netlist.nets().to_vec(), nets.clone());
        prop_assert_eq!(netlist.nets().len(), nets.len());
        prop_assert_eq!(
            netlist.connection_count(),
            nets.iter().map(|n| n.sinks.len()).sum::<usize>()
        );
        for (i, net) in nets.iter().enumerate() {
            prop_assert_eq!(netlist.net(i).to_net(), net.clone());
        }
        let incidence = netlist.incidence();
        prop_assert_eq!(incidence.len(), block_count);
        for block in 0..block_count {
            let naive: Vec<usize> = nets
                .iter()
                .enumerate()
                .filter(|(_, n)| n.source == block || n.sinks.contains(&block))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(incidence.nets_of(block), &naive[..]);
        }
    }
}
