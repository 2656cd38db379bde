//! The end-to-end compilation pipeline.
//!
//! `Compiler` drives the instrumented stage pipeline of [`crate::pipeline`]
//! through the three software-stack steps of the paper — neural synthesis
//! (computational graph → core-op graph), spatial-to-temporal mapping
//! (core-op graph → function-block netlist) and, when the netlist is small
//! enough for full physical design, placement & routing on the fabric —
//! followed by communication estimation. The result carries every
//! intermediate artifact plus a [`StageTrace`] of per-stage wall-clock time
//! and artifact sizes, so tools, tests and experiments can inspect any stage
//! and see where compile time went.

use crate::pipeline::{
    EstimateStage, InstrumentedPipeline, MapStage, PlaceRouteStage, SynthesizeStage,
};
use fpsa_arch::{ArchitectureConfig, Bitstream, FabricCapacity, SectionKind};
use fpsa_mapper::Mapping;
use fpsa_nn::{ComputationalGraph, NnError};
use fpsa_serve::{ServeConfig, ServeEngine};
use fpsa_sim::{
    CommunicationEstimate, ExecError, Executor, PerformanceReport, PerformanceSimulator, Precision,
    StageTrace,
};
use fpsa_synthesis::CoreOpGraph;
use serde::{Deserialize, Serialize};
use std::fmt;

pub use crate::pipeline::{ChannelWidthMode, OverLimitPolicy, PhysicalDesign, PlaceRouteConfig};

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The source model is malformed (graph or shape errors from synthesis).
    Model(NnError),
    /// The mapped netlist does not fit the physical-design capacity the
    /// compiler targets. This is the signal the auto-sharder in `fpsa_shard`
    /// consumes: the carried PE/SMB demand tells it how many fabrics the
    /// model needs. The pre-PR-5 behavior — silently falling back to the
    /// analytic wire model — is available as the explicit
    /// [`OverLimitPolicy::AnalyticFallback`] opt-in
    /// ([`Compiler::with_analytic_fallback`]).
    CapacityExceeded {
        /// Function blocks the mapped netlist demands.
        required: FabricCapacity,
        /// Function blocks a fabric at the block limit offers.
        available: FabricCapacity,
        /// Total netlist blocks.
        blocks: usize,
        /// The configured block limit that was exceeded.
        block_limit: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Model(e) => write!(f, "model error: {e}"),
            CompileError::CapacityExceeded {
                required,
                available,
                blocks,
                block_limit,
            } => write!(
                f,
                "netlist needs {required} ({blocks} blocks) but physical design caps at \
                 {available} ({block_limit} blocks); shard the model (fpsa_shard) or opt in \
                 to the analytic fallback"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<NnError> for CompileError {
    fn from(e: NnError) -> Self {
        CompileError::Model(e)
    }
}

impl CompileError {
    /// Adapt into the executor's error space (for callers like
    /// `fpsa_core::validate` whose public error type is [`ExecError`]).
    pub fn into_exec(self) -> ExecError {
        match self {
            CompileError::Model(e) => ExecError::Graph(e),
            other @ CompileError::CapacityExceeded { .. } => ExecError::Unsupported {
                reason: other.to_string(),
            },
        }
    }
}

/// Above this many netlist blocks the compiler skips full placement &
/// routing and uses the analytic wire model instead (documented in
/// DESIGN.md); the paper's mrVPR flow has the same practical limit.
pub const PLACE_AND_ROUTE_BLOCK_LIMIT: usize = 4_000;

/// The compiler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Compiler {
    /// Target architecture.
    pub arch: ArchitectureConfig,
    /// Model-level duplication degree (Section 5.2).
    pub duplication: u64,
    /// Physical-design configuration (placer effort, router negotiation,
    /// channel-width mode, block limit, skip policy).
    pub place_route: PlaceRouteConfig,
}

impl Compiler {
    /// A compiler targeting the default FPSA architecture.
    pub fn fpsa() -> Self {
        Compiler {
            arch: ArchitectureConfig::fpsa(),
            duplication: 1,
            place_route: PlaceRouteConfig::fast(),
        }
    }

    /// A compiler targeting an arbitrary architecture.
    pub fn for_architecture(arch: ArchitectureConfig) -> Self {
        Compiler {
            arch,
            duplication: 1,
            place_route: PlaceRouteConfig::fast(),
        }
    }

    /// Set the duplication degree.
    pub fn with_duplication(mut self, duplication: u64) -> Self {
        self.duplication = duplication.max(1);
        self
    }

    /// Use an explicit physical-design configuration.
    pub fn with_place_route(mut self, config: PlaceRouteConfig) -> Self {
        self.place_route = config;
        self
    }

    /// Skip physical design and always use the analytic communication model.
    pub fn without_place_and_route(mut self) -> Self {
        self.place_route.skip = true;
        self
    }

    /// Opt in to the pre-sharding behavior for over-limit netlists: instead
    /// of the typed [`CompileError::CapacityExceeded`], silently skip
    /// physical design and fall back to the analytic wire model.
    pub fn with_analytic_fallback(mut self) -> Self {
        self.place_route.over_limit = OverLimitPolicy::AnalyticFallback;
        self
    }

    /// Compile a computational graph through the instrumented stage pipeline
    /// `Synthesize → Map → PlaceRoute → Estimate`.
    ///
    /// # Errors
    ///
    /// * [`CompileError::Model`] — graph and shape errors from synthesis;
    /// * [`CompileError::CapacityExceeded`] — the mapped netlist exceeds the
    ///   physical-design block limit and the compiler was not told to fall
    ///   back ([`Compiler::with_analytic_fallback`]) or to skip physical
    ///   design ([`Compiler::without_place_and_route`]).
    pub fn compile(&self, graph: &ComputationalGraph) -> Result<CompiledModel, CompileError> {
        self.compile_warm(graph, None)
    }

    /// [`Compiler::compile`] with an optional warm start for the annealer:
    /// a prior placement (a compile-cache near-miss donor) handed to the
    /// PlaceRoute stage, which seeds matching
    /// blocks and runs a cut anneal schedule instead of a cold anneal. See
    /// [`fpsa_placeroute::WarmStart`] and `crate::cache::CompileCache`.
    ///
    /// # Errors
    ///
    /// Exactly as [`Compiler::compile`]; a warm start never introduces new
    /// failure modes (an inapplicable seed degrades to a cold start).
    pub fn compile_warm(
        &self,
        graph: &ComputationalGraph,
        warm: Option<fpsa_placeroute::WarmStart>,
    ) -> Result<CompiledModel, CompileError> {
        let mut pipeline = InstrumentedPipeline::new();
        let core_graph =
            pipeline.run_stage(&SynthesizeStage::for_architecture(&self.arch), graph)?;
        let mapping =
            pipeline.run_stage(&MapStage::new(&self.arch, self.duplication), &core_graph)?;
        let mut place_route_stage = PlaceRouteStage::new(self.arch.clone(), self.place_route);
        if let Some(warm) = warm {
            place_route_stage = place_route_stage.with_warm_start(warm);
        }
        let physical = pipeline.run_stage(&place_route_stage, &mapping)?;
        let communication = pipeline.run_stage(
            &EstimateStage::new(self.arch.clone()),
            (&mapping, physical.as_ref()),
        )?;
        Ok(CompiledModel {
            arch: self.arch.clone(),
            core_graph,
            mapping,
            physical,
            communication,
            trace: pipeline.finish(),
        })
    }
}

/// Everything the compiler produced for one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledModel {
    /// The architecture this model was compiled for.
    pub arch: ArchitectureConfig,
    /// The synthesized core-op graph.
    pub core_graph: CoreOpGraph,
    /// Allocation, schedule and netlist.
    pub mapping: Mapping,
    /// Placement/routing/timing, when physical design ran.
    pub physical: Option<PhysicalDesign>,
    /// The communication estimate picked by the pipeline's Estimate stage.
    pub communication: CommunicationEstimate,
    /// Per-stage wall-clock and artifact-size instrumentation.
    pub trace: StageTrace,
}

impl CompiledModel {
    /// The communication estimate to use for performance evaluation: the
    /// routed critical path when available, the analytic model otherwise
    /// (picked once by the pipeline's Estimate stage).
    pub fn communication_estimate(&self) -> CommunicationEstimate {
        self.communication
    }

    /// Bind this compiled model to numeric parameters, producing an
    /// [`Executor`] that computes the network's outputs on the simulated
    /// fabric (see `fpsa_sim::exec`). `graph` and `params` must be the
    /// computational graph this model was compiled from and its weights.
    ///
    /// # Errors
    ///
    /// Propagates binding errors (mismatched artifacts, unsupported
    /// constructs, invalid schedule or netlist transport).
    pub fn executor(
        &self,
        graph: &ComputationalGraph,
        params: &fpsa_nn::GraphParameters,
        precision: &Precision,
    ) -> Result<Executor, ExecError> {
        Executor::bind(graph, params, &self.core_graph, &self.mapping, precision)
    }

    /// Bind this compiled model once and put it behind a throughput engine:
    /// `config.replicas` worker threads share the pre-bound executor and
    /// coalesce queued requests into dynamic batches (see `fpsa_serve`).
    /// Engine outputs are bit-identical to [`CompiledModel::executor`] +
    /// `run` per request.
    ///
    /// # Errors
    ///
    /// Propagates binding errors, exactly like [`CompiledModel::executor`].
    pub fn serve(
        &self,
        graph: &ComputationalGraph,
        params: &fpsa_nn::GraphParameters,
        precision: &Precision,
        config: ServeConfig,
    ) -> Result<ServeEngine, ExecError> {
        let executor = self.executor(graph, params, precision)?;
        Ok(ServeEngine::start(executor, config))
    }

    /// Evaluate the performance of the compiled model. The report carries
    /// this compilation's [`StageTrace`].
    pub fn performance(&self) -> PerformanceReport {
        PerformanceSimulator::new(self.arch.clone())
            .evaluate(
                &self.core_graph,
                &self.mapping,
                self.communication_estimate(),
            )
            .with_compile_trace(self.trace.clone())
    }

    /// Emit the configuration bitstream: one weight section per PE, one LUT
    /// section per CLB and one routing section per placed block (switch
    /// settings are only known when physical design ran; otherwise the
    /// routing sections are omitted).
    pub fn bitstream(&self) -> Bitstream {
        let mut bitstream = Bitstream::new();
        let stats = self.mapping.netlist.stats();
        for (slot, block) in self.mapping.netlist.blocks().iter().enumerate() {
            match block {
                fpsa_mapper::NetlistBlock::Pe { group, .. } => {
                    let g = &self.core_graph.groups()[*group];
                    // One 4-bit level per cell; the weights themselves are
                    // trained values not carried through this flow, so the
                    // section records the tile geometry as placeholder levels.
                    // Odd cell counts round up — the trailing cell still
                    // needs its half-byte.
                    let levels = vec![0u8; (g.rows * g.cols).div_ceil(2)];
                    bitstream.push(
                        SectionKind::PeWeights,
                        slot as u32,
                        Bitstream::pack_levels(&levels),
                    );
                }
                fpsa_mapper::NetlistBlock::Clb { .. } => {
                    bitstream.push(SectionKind::ClbLuts, slot as u32, vec![0; 128 * 8]);
                }
                fpsa_mapper::NetlistBlock::Smb { .. } => {
                    bitstream.push(SectionKind::SmbConfig, slot as u32, vec![0; 8]);
                }
            }
        }
        if self.physical.is_some() {
            for slot in 0..stats.pe_count + stats.smb_count + stats.clb_count {
                bitstream.push(SectionKind::RoutingSwitches, slot as u32, vec![0; 64]);
            }
        }
        bitstream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_nn::zoo;
    use fpsa_sim::StageKind;

    #[test]
    fn compiling_lenet_runs_the_whole_flow() {
        let compiled = Compiler::fpsa().compile(&zoo::lenet()).unwrap();
        assert!(!compiled.core_graph.is_empty());
        assert!(compiled.mapping.netlist.stats().pe_count > 0);
        assert!(compiled.physical.is_some(), "LeNet is small enough for P&R");
        let report = compiled.performance();
        assert!(report.throughput_samples_per_s > 0.0);
        assert!(report.area_mm2 > 0.0);
    }

    #[test]
    fn compilation_records_a_full_stage_trace() {
        let compiled = Compiler::fpsa().compile(&zoo::lenet()).unwrap();
        let kinds: Vec<StageKind> = compiled.trace.records().iter().map(|r| r.stage).collect();
        assert_eq!(kinds, StageKind::ALL.to_vec());
        // Synthesis consumed the graph's nodes and produced the core groups.
        let synth = &compiled.trace.records()[0];
        assert_eq!(synth.items_out, compiled.core_graph.len());
        // Mapping produced the netlist.
        let map = &compiled.trace.records()[1];
        assert_eq!(map.items_out, compiled.mapping.netlist.len());
        // The trace rides on the performance report.
        let report = compiled.performance();
        let trace = report.compile.expect("compiled models report their trace");
        assert_eq!(trace, compiled.trace);
    }

    #[test]
    fn duplication_is_clamped_to_at_least_one() {
        let c = Compiler::fpsa().with_duplication(0);
        assert_eq!(c.duplication, 1);
    }

    #[test]
    fn over_limit_models_raise_the_typed_capacity_error_by_default() {
        let err = Compiler::fpsa()
            .with_duplication(1)
            .compile(&zoo::alexnet())
            .unwrap_err();
        match err {
            CompileError::CapacityExceeded {
                required,
                available,
                blocks,
                block_limit,
            } => {
                assert_eq!(block_limit, PLACE_AND_ROUTE_BLOCK_LIMIT);
                assert!(blocks > block_limit);
                assert_eq!(required.total_blocks(), blocks);
                assert!(!available.fits(&required), "{required} vs {available}");
                assert!(available.total_blocks() <= block_limit);
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
        // The error renders the actionable guidance.
        assert!(err.to_string().contains("shard the model"));
    }

    #[test]
    fn large_models_skip_physical_design_behind_the_explicit_fallback() {
        let compiled = Compiler::fpsa()
            .with_duplication(1)
            .with_analytic_fallback()
            .compile(&zoo::alexnet())
            .unwrap();
        assert!(compiled.physical.is_none());
        // The analytic communication estimate still applies.
        assert!(matches!(
            compiled.communication_estimate(),
            CommunicationEstimate::Routed { .. }
        ));
        assert!(compiled.performance().throughput_samples_per_s > 0.0);
        // The PlaceRoute stage still appears in the trace, with no output.
        let pr = &compiled.trace.records()[2];
        assert_eq!(pr.stage, StageKind::PlaceRoute);
        assert_eq!(pr.items_out, 0);
    }

    #[test]
    fn without_place_and_route_flag_is_respected() {
        let compiled = Compiler::fpsa()
            .without_place_and_route()
            .compile(&zoo::mlp_500_100())
            .unwrap();
        assert!(compiled.physical.is_none());
    }

    #[test]
    fn bitstream_has_a_section_per_block() {
        let compiled = Compiler::fpsa().compile(&zoo::mlp_500_100()).unwrap();
        let bitstream = compiled.bitstream();
        assert!(bitstream.sections().len() >= compiled.mapping.netlist.len());
        // And it survives a serialization round trip.
        let parsed = Bitstream::from_bytes(bitstream.to_bytes()).unwrap();
        assert_eq!(parsed.sections().len(), bitstream.sections().len());
    }

    #[test]
    fn odd_sized_tiles_keep_their_last_half_byte() {
        use fpsa_mapper::{AllocationPolicy, Mapper};
        use fpsa_synthesis::{CoreOpGraph, CoreOpGroup, CoreOpKind};

        // A single 3x3 weight tile: 9 cells is odd, so the weight section
        // must round the level count up instead of dropping the ninth cell.
        let mut graph = CoreOpGraph::new("odd-tile", 256, 256);
        graph.add_group(CoreOpGroup {
            id: 0,
            name: "odd".into(),
            source_node: 0,
            kind: CoreOpKind::Vmm,
            rows: 3,
            cols: 3,
            row_offset: 0,
            col_offset: 0,
            reuse_degree: 1,
            relu: false,
            layer_depth: 0,
        });
        let arch = ArchitectureConfig::fpsa();
        let mapping = Mapper::new(
            arch.sampling_window(),
            AllocationPolicy::DuplicationDegree(1),
        )
        .map(&graph);
        let compiled = CompiledModel {
            communication: CommunicationEstimate::analytic(&arch, mapping.netlist.len()),
            arch,
            core_graph: graph,
            mapping,
            physical: None,
            trace: StageTrace::new(),
        };

        let bitstream = compiled.bitstream();
        let weights = bitstream
            .sections()
            .iter()
            .find(|s| s.kind == SectionKind::PeWeights)
            .expect("the tile produced a weight section");
        // ceil(9 / 2) = 5 levels, packed two per byte -> 3 payload bytes.
        // The old `9 / 2` truncation produced 4 levels -> 2 bytes, losing
        // the last cell.
        let expected_levels = (3usize * 3).div_ceil(2);
        assert_eq!(weights.payload.len(), expected_levels.div_ceil(2));
        assert_eq!(weights.payload.len(), 3);
    }

    #[test]
    fn prime_target_compiles_too() {
        let compiled = Compiler::for_architecture(fpsa_arch::ArchitectureConfig::prime())
            .without_place_and_route()
            .compile(&zoo::lenet())
            .unwrap();
        assert!(matches!(
            compiled.communication_estimate(),
            CommunicationEstimate::Bus { .. }
        ));
    }
}
