//! Per-stage compilation onto multiple fabrics and the sharded artifacts.
//!
//! [`ShardCompiler`] partitions a model (see [`crate::partition`]) and runs
//! the **existing** `fpsa_core::Compiler` on every stage subgraph — each
//! stage gets its own `Synthesize → Map → PlaceRoute → Estimate` run and
//! its own fabric-local communication estimate. The result is a
//! [`ShardedModel`]: per-chip `CompiledModel`s plus the inter-chip transport
//! cost ([`ChipLink`]: serialized activation bytes over a bandwidth + fixed
//! hop latency) that the aggregated [`ShardedPerformanceReport`] charges
//! between stages.
//!
//! A safety net runs at compile time: the per-stage synthesized groups are
//! cross-checked positionally against the full-model synthesis (same tile
//! geometry, kind, reuse and fused-ReLU flags, in the same global order), so
//! a partition that would change *what* is computed is rejected instead of
//! silently diverging.

use crate::exec::ShardedExecutor;
use crate::partition::{FabricBudget, PartitionPlan, Partitioner, StagePlan};
use crate::ShardError;
use fpsa_arch::FabricCapacity;
use fpsa_core::sweep::parallel_map;
use fpsa_core::{CompileCache, CompiledModel, Compiler};
use fpsa_mapper::AllocationPolicy;
use fpsa_nn::reference::QuantizationPlan;
use fpsa_nn::{ComputationalGraph, GraphParameters, NodeId};
use fpsa_serve::{ServeConfig, ShardedEngine};
use fpsa_sim::{Executor, PerformanceReport, Precision};
use fpsa_synthesis::{CoreOpGraph, NeuralSynthesizer};
use serde::{Deserialize, Serialize};

/// The chip-to-chip interconnect model: a point-to-point link with a fixed
/// per-hop latency plus a bandwidth term over the serialized activation
/// bytes. (1 GB/s transfers exactly one byte per nanosecond, which keeps the
/// arithmetic honest.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipLink {
    /// Link bandwidth in gigabytes per second.
    pub bandwidth_gbps: f64,
    /// Fixed per-transfer latency (SerDes + board trace) in nanoseconds.
    pub hop_latency_ns: f64,
}

impl Default for ChipLink {
    /// A conservative board-level link: 25 GB/s, 100 ns hop.
    fn default() -> Self {
        ChipLink {
            bandwidth_gbps: 25.0,
            hop_latency_ns: 100.0,
        }
    }
}

impl ChipLink {
    /// Time to move `bytes` across the link, in nanoseconds.
    pub fn transfer_ns(&self, bytes: f64) -> f64 {
        self.hop_latency_ns + bytes / self.bandwidth_gbps.max(1e-12)
    }
}

/// The cost of one stage boundary: what crosses and what it costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransportEstimate {
    /// Activation elements crossing the boundary per sample.
    pub elements: usize,
    /// Serialized bytes per sample (elements × the architecture's
    /// activation precision, rounded up to whole bytes).
    pub bytes: usize,
    /// Transfer time per sample over the configured [`ChipLink`], ns.
    pub transfer_ns: f64,
}

/// One compiled pipeline stage: a whole single-fabric compilation plus its
/// place in the pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStage {
    /// The stage subgraph (see [`StagePlan`]).
    pub graph: ComputationalGraph,
    /// Original node ids this stage owns.
    pub nodes: Vec<NodeId>,
    /// `(original id, local id)` mapping into `graph`.
    pub node_map: Vec<(NodeId, NodeId)>,
    /// The full single-fabric compilation of the stage (core-op graph,
    /// mapping, optional physical design and communication estimate).
    pub compiled: CompiledModel,
    /// Group-id offset of this stage within the full-model synthesis — the
    /// noise-seed hook for bit-identical `Precision::Noisy` binds.
    pub noise_group_offset: usize,
    /// Realized netlist demand of the stage.
    pub demand: FabricCapacity,
    /// Elements leaving this stage per sample (the final stage reports its
    /// logits width).
    pub boundary_elements: usize,
}

impl ShardStage {
    /// Slice the original model's parameters down to this stage (tensors
    /// re-indexed to the stage graph's local node ids).
    fn slice_params(&self, params: &GraphParameters) -> GraphParameters {
        let mut tensors: Vec<Option<Vec<f32>>> = vec![None; self.graph.len()];
        for &(orig, local) in &self.node_map {
            tensors[local] = params.weights(orig).map(<[f32]>::to_vec);
        }
        GraphParameters::from_parts(tensors)
    }
}

/// The aggregated performance of a sharded model: per-chip reports plus the
/// pipeline-level roll-up with inter-chip transport charged between stages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedPerformanceReport {
    /// One single-fabric report per stage (chip).
    pub stages: Vec<PerformanceReport>,
    /// One transport estimate per boundary (`stages.len() - 1`).
    pub transports: Vec<TransportEstimate>,
    /// Steady-state pipeline period: the slowest chip or link, ns.
    pub pipeline_period_ns: f64,
    /// Sustained pipeline throughput, samples per second.
    pub throughput_samples_per_s: f64,
    /// End-to-end latency of one sample: every chip plus every link, µs.
    pub latency_us: f64,
    /// Total silicon area across all chips, mm².
    pub total_area_mm2: f64,
    /// Total PEs across all chips.
    pub total_pes: usize,
    /// Per-chip PE utilization against the fabric budget.
    pub per_chip_utilization: Vec<f64>,
    /// Index of the stage (chip) that clocks the pipeline; `usize::MAX`
    /// when a link is the bottleneck.
    pub bottleneck_stage: usize,
}

/// A model compiled across multiple fabrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedModel {
    /// Model name.
    pub model: String,
    /// The compiled pipeline stages, in order.
    pub stages: Vec<ShardStage>,
    /// Transport cost per boundary.
    pub transports: Vec<TransportEstimate>,
    /// The interconnect the transports were costed on.
    pub link: ChipLink,
    /// The per-fabric budget the partition was packed under.
    pub budget: FabricBudget,
    /// The duplication degree the stages were compiled with.
    pub duplication: u64,
    /// Stage index per original node.
    pub stage_of_node: Vec<usize>,
    /// Boundary compute nodes (original ids), one per cut.
    pub cuts: Vec<NodeId>,
}

impl ShardedModel {
    /// Number of fabrics (pipeline stages).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Bind every stage to its slice of the model parameters, producing the
    /// chained [`ShardedExecutor`] (bit-identical to the unsharded bind —
    /// see the crate docs for the per-precision argument).
    ///
    /// # Errors
    ///
    /// * [`ShardError::Unshardable`] — `params` / an integer plan cover a
    ///   different graph;
    /// * [`ShardError::Exec`] — a stage bind failed.
    pub fn executor(
        &self,
        params: &GraphParameters,
        precision: &Precision,
    ) -> Result<ShardedExecutor, ShardError> {
        if params.len() != self.stage_of_node.len() {
            return Err(ShardError::Unshardable {
                reason: format!(
                    "parameters cover {} nodes, model has {}",
                    params.len(),
                    self.stage_of_node.len()
                ),
            });
        }
        // Per-group duplicate counts come from DuplicationDegree allocation,
        // which targets the *whole graph's* max reuse degree — a stage's
        // local allocation can differ at duplication > 1, and Noisy
        // realizations are drawn per duplicate. Refusing the combination is
        // the only way to keep the bit-identity guarantee honest.
        if matches!(precision, Precision::Noisy { .. }) && self.duplication > 1 {
            return Err(ShardError::Unshardable {
                reason: format!(
                    "Precision::Noisy is only bit-identical to the unsharded bind at \
                     duplication degree 1 (stage-local allocation would realize different \
                     per-group duplicate counts); this model was compiled at degree {}",
                    self.duplication
                ),
            });
        }
        let mut stage_execs = Vec::with_capacity(self.stages.len());
        for (index, stage) in self.stages.iter().enumerate() {
            let stage_params = stage.slice_params(params);
            let stage_precision = self.stage_precision(index, precision)?;
            let exec = Executor::bind_with_noise_offset(
                &stage.graph,
                &stage_params,
                &stage.compiled.core_graph,
                &stage.compiled.mapping,
                &stage_precision,
                stage.noise_group_offset,
            )?;
            stage_execs.push(exec);
        }
        Ok(ShardedExecutor::new(stage_execs))
    }

    /// Bind once and serve pipeline-parallel: each stage (chip) gets its own
    /// worker pool in a `fpsa_serve::ShardedEngine`; batches coalesce at the
    /// entry stage and stream through the chips.
    ///
    /// # Errors
    ///
    /// Mirrors [`ShardedModel::executor`].
    pub fn serve(
        &self,
        params: &GraphParameters,
        precision: &Precision,
        config: ServeConfig,
    ) -> Result<ShardedEngine, ShardError> {
        let exec = self.executor(params, precision)?;
        Ok(ShardedEngine::start(exec.into_stages(), config))
    }

    /// The numeric domain each stage binds in: shared precisions pass
    /// through, integer plans are re-indexed to the stage graph with the
    /// boundary node's activation range on the stage's input node (so the
    /// boundary requantization is the identity on in-range codes).
    fn stage_precision(
        &self,
        stage: usize,
        precision: &Precision,
    ) -> Result<Precision, ShardError> {
        let Precision::Integer(plan) = precision else {
            return Ok(precision.clone());
        };
        if plan.weight_range.len() != self.stage_of_node.len()
            || plan.activation_range.len() != self.stage_of_node.len()
        {
            return Err(ShardError::Unshardable {
                reason: "quantization plan covers a different graph".into(),
            });
        }
        let shard = &self.stages[stage];
        let mut weight_range = vec![0.0f32; shard.graph.len()];
        let mut activation_range = vec![0.0f32; shard.graph.len()];
        for &(orig, local) in &shard.node_map {
            weight_range[local] = plan.weight_range[orig];
            activation_range[local] = plan.activation_range[orig];
        }
        if stage > 0 {
            // The fresh input node (local id 0) carries the boundary node's
            // calibrated range, so its step matches the producing stage.
            let boundary = self.cuts[stage - 1];
            activation_range[0] = plan.activation_range[boundary];
        }
        Ok(Precision::Integer(QuantizationPlan {
            weight_bits: plan.weight_bits,
            activation_bits: plan.activation_bits,
            weight_range,
            activation_range,
        }))
    }

    /// Aggregate the per-chip performance reports and the link transports
    /// into the pipeline-level numbers.
    pub fn performance(&self) -> ShardedPerformanceReport {
        let stages: Vec<PerformanceReport> = self
            .stages
            .iter()
            .map(|s| s.compiled.performance())
            .collect();
        let mut pipeline_period_ns = 0.0f64;
        let mut bottleneck_stage = 0usize;
        for (i, report) in stages.iter().enumerate() {
            if report.pipeline_period_ns > pipeline_period_ns {
                pipeline_period_ns = report.pipeline_period_ns;
                bottleneck_stage = i;
            }
        }
        for transport in &self.transports {
            if transport.transfer_ns > pipeline_period_ns {
                pipeline_period_ns = transport.transfer_ns;
                bottleneck_stage = usize::MAX;
            }
        }
        let latency_ns: f64 = stages.iter().map(|r| r.latency_us * 1e3).sum::<f64>()
            + self.transports.iter().map(|t| t.transfer_ns).sum::<f64>();
        ShardedPerformanceReport {
            throughput_samples_per_s: 1e9 / pipeline_period_ns.max(1e-9),
            latency_us: latency_ns * 1e-3,
            total_area_mm2: stages.iter().map(|r| r.area_mm2).sum(),
            total_pes: stages.iter().map(|r| r.pe_count).sum(),
            per_chip_utilization: {
                let budget = FabricCapacity::new(self.budget.pes, self.budget.smbs, 0);
                self.stages
                    .iter()
                    .map(|s| budget.pe_utilization(&s.demand))
                    .collect()
            },
            pipeline_period_ns,
            bottleneck_stage,
            stages,
            transports: self.transports.clone(),
        }
    }
}

/// Compiles models across multiple fabrics.
#[derive(Debug, Clone)]
pub struct ShardCompiler {
    /// The single-fabric compiler every stage runs through (architecture,
    /// duplication degree, physical-design configuration).
    pub compiler: Compiler,
    /// The capacity of one fabric.
    pub budget: FabricBudget,
    /// The chip-to-chip interconnect.
    pub link: ChipLink,
    /// Whether stage subgraphs compile concurrently (the default; each
    /// stage is an independent single-fabric compile with a fixed seed, so
    /// results are bit-identical to a sequential loop).
    parallel_stages: bool,
    /// Optional shared compile cache for stage compiles.
    cache: Option<std::sync::Arc<CompileCache>>,
}

impl PartialEq for ShardCompiler {
    fn eq(&self, other: &Self) -> bool {
        // The attached cache is a performance detail, not configuration.
        self.compiler == other.compiler
            && self.budget == other.budget
            && self.link == other.link
            && self.parallel_stages == other.parallel_stages
    }
}

impl ShardCompiler {
    /// A sharding compiler over an arbitrary single-fabric compiler.
    pub fn new(compiler: Compiler, budget: FabricBudget) -> Self {
        ShardCompiler {
            compiler,
            budget,
            link: ChipLink::default(),
            parallel_stages: true,
            cache: None,
        }
    }

    /// A sharding compiler targeting the default FPSA architecture.
    pub fn fpsa(budget: FabricBudget) -> Self {
        Self::new(Compiler::fpsa(), budget)
    }

    /// Use an explicit chip-to-chip link model.
    pub fn with_link(mut self, link: ChipLink) -> Self {
        self.link = link;
        self
    }

    /// Compile stage subgraphs one at a time instead of concurrently. The
    /// result is bit-identical either way (fixed per-stage seeds); this
    /// exists for the determinism suite to prove exactly that, and as an
    /// escape hatch on memory-tight machines.
    pub fn with_sequential_stage_compile(mut self) -> Self {
        self.parallel_stages = false;
        self
    }

    /// Route every stage compile through a shared [`CompileCache`]:
    /// repeated stage subgraphs (across sweep points, chip counts or
    /// drivers) compile once and reuse the artifact.
    pub fn with_cache(mut self, cache: std::sync::Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Auto mode: partition into the minimum number of stages that fit the
    /// per-fabric budget and compile each stage.
    ///
    /// # Errors
    ///
    /// Partitioning errors ([`ShardError::NodeExceedsFabric`],
    /// [`ShardError::NoLegalCut`]) and per-stage compile/capacity errors.
    pub fn compile_auto(&self, graph: &ComputationalGraph) -> Result<ShardedModel, ShardError> {
        let core = self.synthesize_full(graph)?;
        let partitioner = self.partitioner(graph, &core)?;
        let plan = partitioner.partition_auto(self.budget)?;
        self.compile_plan(graph, &core, plan, self.budget)
    }

    /// Convenience for sweeps: split into (up to) `stages` demand-balanced
    /// stages, sizing the effective per-fabric budget to the largest stage
    /// (the configured budget still applies when it is larger).
    ///
    /// # Errors
    ///
    /// [`ShardError::IllegalCut`] for invalid boundaries, plus the compile
    /// and capacity errors of the stages.
    pub fn compile_into_stages(
        &self,
        graph: &ComputationalGraph,
        stages: usize,
    ) -> Result<ShardedModel, ShardError> {
        let core = self.synthesize_full(graph)?;
        let partitioner = self.partitioner(graph, &core)?;
        let cuts = partitioner.balanced_cuts(stages);
        let plan = partitioner.partition_at(&cuts)?;
        let max_demand = plan
            .stages
            .iter()
            .map(|s| s.pe_demand as usize)
            .max()
            .unwrap_or(1);
        let budget = if max_demand > self.budget.pes {
            FabricBudget::with_pes(max_demand)
        } else {
            self.budget
        };
        self.compile_plan(graph, &core, plan, budget)
    }

    /// The full-model synthesis the partitioner (and the group cross-check)
    /// works against — the same configuration the stage compiles tile with.
    fn synthesize_full(&self, graph: &ComputationalGraph) -> Result<CoreOpGraph, ShardError> {
        NeuralSynthesizer::new(fpsa_core::pipeline::synthesis_config_for(
            &self.compiler.arch,
        ))
        .synthesize(graph)
        .map_err(ShardError::Model)
    }

    fn partitioner<'g>(
        &self,
        graph: &'g ComputationalGraph,
        core: &CoreOpGraph,
    ) -> Result<Partitioner<'g>, ShardError> {
        Partitioner::new(
            graph,
            core,
            AllocationPolicy::DuplicationDegree(self.compiler.duplication),
        )
    }

    /// Compile every stage of a partition and assemble the sharded model.
    fn compile_plan(
        &self,
        graph: &ComputationalGraph,
        full_core: &CoreOpGraph,
        plan: PartitionPlan,
        budget: FabricBudget,
    ) -> Result<ShardedModel, ShardError> {
        let PartitionPlan {
            stages: stage_plans,
            stage_of_node,
            cuts,
        } = plan;
        // Group-id offsets within the full-model synthesis: groups are
        // emitted in topological order, so a contiguous node partition owns
        // a contiguous group range. Verified below, not assumed.
        let mut stage_group_count = vec![0usize; stage_plans.len()];
        for group in full_core.groups() {
            stage_group_count[stage_of_node[group.source_node]] += 1;
        }
        let mut offsets = vec![0usize; stage_plans.len()];
        for s in 1..stage_plans.len() {
            offsets[s] = offsets[s - 1] + stage_group_count[s - 1];
        }

        // Compile every stage subgraph — concurrently unless configured
        // sequential. Stages are independent compiles with fixed per-stage
        // seeds and `parallel_map` preserves order, so both modes produce
        // bit-identical sharded models (the determinism suite asserts it).
        // Errors keep sequential semantics: the lowest-index failure wins.
        let compile_stage = |stage_graph: &ComputationalGraph| match &self.cache {
            Some(cache) => cache
                .compile(&self.compiler, stage_graph)
                .map(|model| (*model).clone()),
            None => self.compiler.compile(stage_graph),
        };
        let compiled_stages: Vec<Result<CompiledModel, fpsa_core::CompileError>> =
            if self.parallel_stages {
                parallel_map(&stage_plans, |p| compile_stage(&p.graph))
            } else {
                stage_plans
                    .iter()
                    .map(|p| compile_stage(&p.graph))
                    .collect()
            };

        let io_bits = self.compiler.arch.io_bits as usize;
        let mut stages = Vec::with_capacity(stage_plans.len());
        let mut transports = Vec::new();
        let last = stage_plans.len() - 1;
        for (index, (stage_plan, compiled)) in
            stage_plans.into_iter().zip(compiled_stages).enumerate()
        {
            let StagePlan {
                nodes,
                graph: stage_graph,
                node_map,
                boundary: _,
                boundary_elements,
                pe_demand: _,
            } = stage_plan;
            let compiled = compiled?;
            verify_stage_groups(
                full_core,
                &compiled.core_graph,
                offsets[index],
                stage_group_count[index],
                index,
            )?;
            let stats = compiled.mapping.netlist.stats();
            let demand = FabricCapacity::new(stats.pe_count, stats.smb_count, stats.clb_count);
            if demand.pes > budget.pes || demand.smbs > budget.smbs {
                return Err(ShardError::StageOverCapacity {
                    stage: index,
                    required: demand,
                    budget,
                });
            }
            if index < last {
                let bytes = (boundary_elements * io_bits).div_ceil(8);
                transports.push(TransportEstimate {
                    elements: boundary_elements,
                    bytes,
                    transfer_ns: self.link.transfer_ns(bytes as f64),
                });
            }
            stages.push(ShardStage {
                graph: stage_graph,
                nodes,
                node_map,
                compiled,
                noise_group_offset: offsets[index],
                demand,
                boundary_elements,
            });
        }
        Ok(ShardedModel {
            model: graph.name.clone(),
            stages,
            transports,
            link: self.link,
            budget,
            duplication: self.compiler.duplication,
            stage_of_node,
            cuts,
        })
    }
}

/// The compile-time safety net: stage `index`'s synthesized groups must be
/// exactly the full-model groups `[offset, offset + expected)` — same group
/// *count* (a stage that fuses or drops a group is as wrong as one that
/// reshapes it), same tile geometry, kind, reuse and fused ReLU, in the
/// same order. Anything else means the partition changed what is computed.
fn verify_stage_groups(
    full: &CoreOpGraph,
    stage: &CoreOpGraph,
    offset: usize,
    expected: usize,
    index: usize,
) -> Result<(), ShardError> {
    let mismatch = |reason: String| ShardError::Unshardable { reason };
    if stage.len() != expected || offset + stage.len() > full.len() {
        return Err(mismatch(format!(
            "stage {index} synthesized {} groups at offset {offset}, expected {expected} \
             of the full model's {}",
            stage.len(),
            full.len()
        )));
    }
    for (i, got) in stage.groups().iter().enumerate() {
        let want = &full.groups()[offset + i];
        if got.rows != want.rows
            || got.cols != want.cols
            || got.kind != want.kind
            || got.reuse_degree != want.reuse_degree
            || got.relu != want.relu
            || got.row_offset != want.row_offset
            || got.col_offset != want.col_offset
        {
            return Err(mismatch(format!(
                "stage {index} group {i} ({}) diverges from full-model group {} ({})",
                got.name,
                offset + i,
                want.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ShardCompiler {
        /// Explicit mode: partition at the given boundary compute nodes.
        ///
        /// # Errors
        ///
        /// [`ShardError::IllegalCut`] for invalid boundaries, plus the compile
        /// and capacity errors of the stages.
        pub(crate) fn compile_with_cuts(
            &self,
            graph: &ComputationalGraph,
            cuts: &[NodeId],
        ) -> Result<ShardedModel, ShardError> {
            let core = self.synthesize_full(graph)?;
            let partitioner = self.partitioner(graph, &core)?;
            let plan = partitioner.partition_at(cuts)?;
            self.compile_plan(graph, &core, plan, self.budget)
        }
    }
    use fpsa_nn::params::mlp_graph;
    use fpsa_sim::CommunicationEstimate;

    #[test]
    fn chip_link_costs_latency_plus_bandwidth() {
        let link = ChipLink {
            bandwidth_gbps: 10.0,
            hop_latency_ns: 50.0,
        };
        // 1000 bytes at 10 GB/s = 100 ns on the wire, plus the 50 ns hop.
        assert!((link.transfer_ns(1000.0) - 150.0).abs() < 1e-9);
        assert!(ChipLink::default().transfer_ns(0.0) > 0.0);
    }

    #[test]
    fn auto_sharding_splits_an_over_budget_model() {
        let graph = mlp_graph("over", &[300, 280, 260, 10]);
        let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(8))
            .compile_auto(&graph)
            .unwrap();
        assert!(sharded.stage_count() >= 2, "8 PEs cannot hold the model");
        for stage in &sharded.stages {
            assert!(stage.demand.pes <= 8);
            assert!(stage.compiled.physical.is_some(), "tiny stages get P&R");
        }
        assert_eq!(sharded.transports.len(), sharded.stage_count() - 1);
        // Boundary 0 carries fc1's 280 activations as 6-bit values.
        assert_eq!(sharded.transports[0].elements, 280);
        assert_eq!(sharded.transports[0].bytes, (280 * 6usize).div_ceil(8));
    }

    #[test]
    fn single_stage_sharding_degenerates_to_the_plain_compile() {
        let graph = mlp_graph("small", &[40, 20, 4]);
        let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(64))
            .compile_auto(&graph)
            .unwrap();
        assert_eq!(sharded.stage_count(), 1);
        assert!(sharded.transports.is_empty());
        let direct = Compiler::fpsa().compile(&graph).unwrap();
        assert_eq!(
            sharded.stages[0].compiled.core_graph.len(),
            direct.core_graph.len()
        );
    }

    #[test]
    fn sharded_performance_charges_the_link_between_chips() {
        let graph = mlp_graph("perf", &[300, 280, 260, 10]);
        let compiler = ShardCompiler::fpsa(FabricBudget::with_pes(64));
        let single = compiler.compile_into_stages(&graph, 1).unwrap();
        let double = compiler.compile_into_stages(&graph, 2).unwrap();
        assert_eq!(single.stage_count(), 1);
        assert_eq!(double.stage_count(), 2);
        let single_perf = single.performance();
        let double_perf = double.performance();
        // Two chips: per-chip netlists are smaller, so each chip's routed
        // critical path — and with it the pipeline period — shrinks.
        assert!(double_perf.throughput_samples_per_s > single_perf.throughput_samples_per_s);
        // But a sample now also crosses the link, so end-to-end latency
        // includes every chip and every transport.
        let stage_latency: f64 = double_perf.stages.iter().map(|r| r.latency_us).sum();
        assert!(double_perf.latency_us > stage_latency);
        assert_eq!(double_perf.per_chip_utilization.len(), 2);
        for utilization in &double_perf.per_chip_utilization {
            assert!(*utilization > 0.0 && *utilization <= 1.0);
        }
        assert!(double_perf.total_area_mm2 > 0.0);
        assert!(double_perf.total_pes >= single_perf.total_pes);
    }

    #[test]
    fn a_slow_link_becomes_the_pipeline_bottleneck() {
        let graph = mlp_graph("slowlink", &[300, 280, 10]);
        let crawl = ChipLink {
            bandwidth_gbps: 1e-6,
            hop_latency_ns: 1e6,
        };
        let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(8))
            .with_link(crawl)
            .compile_auto(&graph)
            .unwrap();
        assert!(sharded.stage_count() >= 2);
        let perf = sharded.performance();
        assert_eq!(perf.bottleneck_stage, usize::MAX, "the link must clock it");
        assert!(perf.pipeline_period_ns >= 1e6);
    }

    #[test]
    fn noisy_binds_are_refused_above_duplication_degree_one() {
        use fpsa_device::variation::{CellVariation, WeightScheme};
        let graph = mlp_graph("dup", &[64, 48, 32, 4]);
        let params = fpsa_nn::GraphParameters::seeded(&graph, 3);
        let sharded = ShardCompiler::new(
            Compiler::fpsa().with_duplication(2),
            FabricBudget::with_pes(64),
        )
        .compile_into_stages(&graph, 2)
        .unwrap();
        let noisy = Precision::Noisy {
            scheme: WeightScheme::fpsa_add(),
            variation: CellVariation::measured(),
            seed: 1,
        };
        // Stage-local allocation can realize different duplicate counts
        // than the unsharded bind at duplication > 1, so a Noisy bind
        // cannot honor the bit-identity contract and must refuse.
        let err = sharded.executor(&params, &noisy).unwrap_err();
        assert!(matches!(err, ShardError::Unshardable { .. }), "{err}");
        // The noise-free precisions are unaffected (duplicates share one
        // exact weight matrix).
        assert!(sharded.executor(&params, &Precision::Float).is_ok());
    }

    #[test]
    fn stage_capacity_is_enforced_after_mapping() {
        // An explicit one-stage partition under a tiny budget: the realized
        // netlist cannot fit and the typed error says so.
        let graph = mlp_graph("tight", &[300, 280, 10]);
        let err = ShardCompiler::fpsa(FabricBudget::with_pes(1))
            .compile_with_cuts(&graph, &[])
            .unwrap_err();
        match err {
            ShardError::StageOverCapacity {
                stage,
                required,
                budget,
            } => {
                assert_eq!(stage, 0);
                assert!(required.pes > budget.pes);
            }
            other => panic!("expected StageOverCapacity, got {other:?}"),
        }
    }

    #[test]
    fn stage_estimates_route_on_their_own_fabric() {
        let graph = mlp_graph("routes", &[300, 280, 260, 10]);
        let sharded = ShardCompiler::fpsa(FabricBudget::with_pes(8))
            .compile_auto(&graph)
            .unwrap();
        for stage in &sharded.stages {
            assert!(matches!(
                stage.compiled.communication_estimate(),
                CommunicationEstimate::Routed { .. }
            ));
        }
    }
}
