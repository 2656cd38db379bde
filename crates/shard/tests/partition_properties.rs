//! Property-based invariants of the pipeline partitioner.
//!
//! For arbitrary MLP shapes and fabric budgets, every partition must
//! uphold the contract the sharded executor's bit-identity rests on:
//!
//! * **exact cover** — every original node (and therefore every synthesized
//!   core-op group) lands in exactly one stage;
//! * **forward edges** — every raw graph edge goes from stage `i` to stage
//!   `j` with `i ≤ j` (values only ever flow down the pipeline);
//! * **capacity** — every stage's estimated PE demand fits the fabric
//!   budget;
//! * **reconstruction** — re-synthesizing the stage subgraphs reproduces
//!   the full-model core-op graph: the concatenated per-stage groups equal
//!   the original groups positionally (same tile geometry, kind, reuse and
//!   fused-ReLU flags).

use fpsa_mapper::AllocationPolicy;
use fpsa_nn::params::mlp_graph;
use fpsa_nn::ComputationalGraph;
use fpsa_shard::{FabricBudget, Partitioner};
use fpsa_synthesis::{CoreOpGraph, NeuralSynthesizer, SynthesisConfig};
use fpsa_testgen::{cases, vec};
use rand::Rng;

fn synthesize(graph: &ComputationalGraph) -> CoreOpGraph {
    NeuralSynthesizer::new(SynthesisConfig::fpsa_default())
        .synthesize(graph)
        .expect("generated MLPs synthesize")
}

#[test]
fn auto_partitions_uphold_the_invariants() {
    cases("auto_partitions_uphold_the_invariants", 48, |rng| {
        let sizes = vec(rng, 3..7, |r| r.gen_range(4usize..400));
        let budget_divisor = rng.gen_range(1u64..6);
        let graph = mlp_graph("prop-mlp", &sizes);
        let core = synthesize(&graph);
        let partitioner =
            Partitioner::new(&graph, &core, AllocationPolicy::DuplicationDegree(1)).unwrap();
        let demands: Vec<u64> = partitioner
            .compute_nodes()
            .iter()
            .map(|&c| partitioner.demand_of(c))
            .collect();
        let max_node = demands.iter().copied().max().unwrap_or(1);
        let total: u64 = demands.iter().sum();
        // A budget between "largest single node" and "everything": always
        // feasible, often forcing several stages.
        let budget_pes = max_node.max(total / budget_divisor).max(1) as usize;
        let plan = partitioner
            .partition_auto(FabricBudget::with_pes(budget_pes))
            .unwrap();

        // Exact cover: every node in exactly one stage, consistently with
        // the stage_of_node index.
        assert_eq!(plan.stage_of_node.len(), graph.len());
        let mut seen = vec![false; graph.len()];
        for (s, stage) in plan.stages.iter().enumerate() {
            for &node in &stage.nodes {
                assert!(!seen[node], "node {} assigned twice", node);
                seen[node] = true;
                assert_eq!(plan.stage_of_node[node], s);
            }
        }
        assert!(seen.iter().all(|&covered| covered));

        // Forward edges only.
        for node in graph.nodes() {
            for &input in &node.inputs {
                assert!(
                    plan.stage_of_node[input] <= plan.stage_of_node[node.id],
                    "edge {} -> {} goes backwards",
                    input,
                    node.id
                );
            }
        }

        // Capacity: estimated stage demand within the budget.
        for stage in &plan.stages {
            assert!(stage.pe_demand <= budget_pes as u64);
        }

        // Reconstruction: concatenated per-stage synthesis equals the
        // full-model synthesis, group by group. This is exactly invariant
        // "every core-op node lands in exactly one stage" at the core-op
        // level, plus "nothing changed shape on the way".
        let mut offset = 0usize;
        for (s, stage) in plan.stages.iter().enumerate() {
            let stage_core = synthesize(&stage.graph);
            for (i, got) in stage_core.groups().iter().enumerate() {
                let want = &core.groups()[offset + i];
                assert_eq!(got.rows, want.rows, "stage {} group {}", s, i);
                assert_eq!(got.cols, want.cols, "stage {} group {}", s, i);
                assert_eq!(got.kind, want.kind, "stage {} group {}", s, i);
                assert_eq!(
                    got.reuse_degree, want.reuse_degree,
                    "stage {} group {}",
                    s, i
                );
                assert_eq!(got.relu, want.relu, "stage {} group {}", s, i);
                assert_eq!(got.row_offset, want.row_offset, "stage {} group {}", s, i);
                assert_eq!(got.col_offset, want.col_offset, "stage {} group {}", s, i);
            }
            offset += stage_core.len();
        }
        assert_eq!(offset, core.len());
    });
}

#[test]
fn every_legal_cut_builds_valid_pipeline_segments() {
    let name = "every_legal_cut_builds_valid_pipeline_segments";
    cases(name, 48, |rng| {
        let sizes = vec(rng, 3..6, |r| r.gen_range(4usize..200));
        let graph = mlp_graph("prop-cuts", &sizes);
        let core = synthesize(&graph);
        let partitioner =
            Partitioner::new(&graph, &core, AllocationPolicy::DuplicationDegree(1)).unwrap();
        for cut in partitioner.legal_cuts() {
            let plan = partitioner.partition_at(&[cut]).unwrap();
            assert_eq!(plan.stage_count(), 2);
            for stage in &plan.stages {
                // Self-contained: one input, one output, shapes infer.
                assert_eq!(stage.graph.outputs().len(), 1);
                assert!(stage.graph.infer_shapes().is_ok());
            }
            // The boundary tensor is the cut node's output width.
            assert_eq!(
                plan.stages[0].boundary_elements,
                graph.infer_shapes().unwrap()[&cut].elements()
            );
        }
    });
}

#[test]
fn balanced_cuts_never_exceed_the_requested_stage_count() {
    let name = "balanced_cuts_never_exceed_the_requested_stage_count";
    cases(name, 48, |rng| {
        let sizes = vec(rng, 2..7, |r| r.gen_range(4usize..300));
        let stages = rng.gen_range(1usize..6);
        let graph = mlp_graph("prop-balance", &sizes);
        let core = synthesize(&graph);
        let partitioner =
            Partitioner::new(&graph, &core, AllocationPolicy::DuplicationDegree(1)).unwrap();
        let cuts = partitioner.balanced_cuts(stages);
        assert!(cuts.len() < stages.max(1));
        let plan = partitioner.partition_at(&cuts).unwrap();
        assert_eq!(plan.stage_count(), cuts.len() + 1);
    });
}
