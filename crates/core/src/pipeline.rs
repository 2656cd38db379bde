//! The instrumented compile pipeline.
//!
//! [`crate::compiler::Compiler::compile`] runs as four explicit stages —
//! `Synthesize → Map → PlaceRoute → Estimate` — each a [`CompileStage`] with
//! typed input and output artifacts. Stages borrow their inputs and produce
//! only the new artifact, so nothing is cloned between stages.
//! [`InstrumentedPipeline::run_stage`] wraps every stage with wall-clock
//! timing and artifact-size accounting and accumulates the measurements into
//! a [`StageTrace`] that travels on the compiled model (and from there into
//! `fpsa_sim::PerformanceReport`), so compile-time breakdowns come from real
//! instrumentation.
//!
//! The stage types are public: benchmarks (the compiler-stage ablation) and
//! tools can run any stage in isolation against its typed artifact.

use crate::compiler::CompileError;
use fpsa_arch::{ArchitectureConfig, FabricCapacity};
use fpsa_mapper::{AllocationPolicy, Mapper, Mapping};
use fpsa_nn::ComputationalGraph;
use fpsa_placeroute::{
    Placement, Placer, PlacerConfig, Router, RouterConfig, RoutingResult, TimingReport, WarmStart,
};
use fpsa_sim::{CommunicationEstimate, StageKind, StageQuality, StageRecord, StageTrace};
use fpsa_synthesis::{CoreOpGraph, NeuralSynthesizer, SynthesisConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One typed stage of the compile pipeline.
///
/// A stage borrows its input artifact (the lifetime-parameterized
/// [`CompileStage::Input`]) and produces the next artifact; the sizes
/// reported by [`CompileStage::items_in`] / [`CompileStage::items_out`] land
/// in the [`StageTrace`] next to the stage's wall-clock time.
pub trait CompileStage {
    /// The (usually borrowed) artifact the stage consumes.
    type Input<'a>;
    /// The artifact the stage produces.
    type Output;

    /// Which pipeline stage this is.
    fn kind(&self) -> StageKind;

    /// Execute the stage.
    ///
    /// # Errors
    ///
    /// Synthesis propagates graph and shape errors; PlaceRoute raises the
    /// typed [`CompileError::CapacityExceeded`] when the netlist exceeds the
    /// block limit without an explicit fallback opt-in.
    fn run(&self, input: Self::Input<'_>) -> Result<Self::Output, CompileError>;

    /// Size of the input artifact, in the stage's natural unit.
    fn items_in(input: &Self::Input<'_>) -> usize;

    /// Size of the output artifact, in the stage's natural unit.
    fn items_out(output: &Self::Output) -> usize;

    /// Deterministic quality metrics of the output, if the stage reports any
    /// (they land in the [`StageTrace`] next to the wall-clock cost).
    fn quality(output: &Self::Output) -> Option<StageQuality> {
        let _ = output;
        None
    }
}

/// Stage 1: neural synthesis (computational graph → core-op graph).
#[derive(Debug, Clone)]
pub struct SynthesizeStage {
    synthesizer: NeuralSynthesizer,
}

/// The synthesis configuration an architecture implies (its crossbar
/// geometry). The single source of truth shared by [`SynthesizeStage`] and
/// the sharding compiler's full-model synthesis, so the per-stage and
/// whole-model syntheses can never tile differently.
pub fn synthesis_config_for(arch: &ArchitectureConfig) -> SynthesisConfig {
    SynthesisConfig {
        crossbar_rows: arch.pe.rows,
        crossbar_cols: arch.pe.cols,
    }
}

impl SynthesizeStage {
    /// A synthesis stage tiling for the architecture's crossbar geometry.
    pub fn for_architecture(arch: &ArchitectureConfig) -> Self {
        SynthesizeStage {
            synthesizer: NeuralSynthesizer::new(synthesis_config_for(arch)),
        }
    }
}

impl CompileStage for SynthesizeStage {
    type Input<'a> = &'a ComputationalGraph;
    type Output = CoreOpGraph;

    fn kind(&self) -> StageKind {
        StageKind::Synthesize
    }

    fn run(&self, input: &ComputationalGraph) -> Result<CoreOpGraph, CompileError> {
        Ok(self.synthesizer.synthesize(input)?)
    }

    fn items_in(input: &&ComputationalGraph) -> usize {
        input.len()
    }

    fn items_out(output: &CoreOpGraph) -> usize {
        output.len()
    }
}

/// Stage 2: spatial-to-temporal mapping (core-op graph → netlist).
#[derive(Debug, Clone, Copy)]
pub struct MapStage {
    mapper: Mapper,
}

impl MapStage {
    /// A mapping stage for the architecture's sampling window and the given
    /// duplication degree.
    pub fn new(arch: &ArchitectureConfig, duplication: u64) -> Self {
        MapStage {
            mapper: Mapper::new(
                arch.sampling_window(),
                AllocationPolicy::DuplicationDegree(duplication),
            ),
        }
    }
}

impl CompileStage for MapStage {
    type Input<'a> = &'a CoreOpGraph;
    type Output = Mapping;

    fn kind(&self) -> StageKind {
        StageKind::Map
    }

    fn run(&self, input: &CoreOpGraph) -> Result<Mapping, CompileError> {
        Ok(self.mapper.map(input))
    }

    fn items_in(input: &&CoreOpGraph) -> usize {
        input.len()
    }

    fn items_out(output: &Mapping) -> usize {
        output.netlist.len()
    }
}

/// The physical-design artifacts (present when P&R ran).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalDesign {
    /// Block placement on the fabric.
    pub placement: Placement,
    /// Routed nets.
    pub routing: RoutingResult,
    /// Timing analysis of the routed design.
    pub timing: TimingReport,
}

/// How the PlaceRoute stage picks the routing channel width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChannelWidthMode {
    /// Route at the architecture's configured channel width.
    Architecture,
    /// Search for the minimum channel width that still routes — the paper's
    /// mrVPR minimum-channel-width sweep — and keep the routing found there.
    Minimize,
}

/// What the PlaceRoute stage does when the netlist exceeds its block limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverLimitPolicy {
    /// Fail compilation with the typed
    /// [`CompileError::CapacityExceeded`] carrying the required vs available
    /// PE/SMB counts — the signal the multi-fabric auto-sharder consumes.
    Error,
    /// The pre-sharding behavior: silently skip physical design and let the
    /// Estimate stage fall back to the analytic wire model. Kept as an
    /// explicit opt-in for whole-model sweeps of ImageNet-scale netlists.
    AnalyticFallback,
}

/// Configuration of the physical-design stage: effort presets for placement
/// and routing, the channel-width mode, and the skip policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaceRouteConfig {
    /// Annealing effort and seed.
    pub placer: PlacerConfig,
    /// PathFinder negotiation parameters.
    pub router: RouterConfig,
    /// Fixed-width routing or minimum-channel-width search.
    pub channel_width: ChannelWidthMode,
    /// Above this many netlist blocks the stage refuses physical design
    /// (see `over_limit` for what happens then).
    pub block_limit: usize,
    /// Whether an over-limit netlist is a typed error or an analytic-model
    /// fallback.
    pub over_limit: OverLimitPolicy,
    /// Force-skip physical design regardless of netlist size.
    pub skip: bool,
}

impl PlaceRouteConfig {
    /// The fast preset used by default compiles and tests.
    pub fn fast() -> Self {
        PlaceRouteConfig {
            placer: PlacerConfig::fast(),
            router: RouterConfig::negotiated(),
            channel_width: ChannelWidthMode::Architecture,
            block_limit: crate::compiler::PLACE_AND_ROUTE_BLOCK_LIMIT,
            over_limit: OverLimitPolicy::Error,
            skip: false,
        }
    }

    /// The quality preset used for final results.
    pub fn quality() -> Self {
        PlaceRouteConfig {
            placer: PlacerConfig::quality(),
            ..Self::fast()
        }
    }

    /// Switch to the minimum-channel-width search mode.
    pub fn minimize_channel_width(mut self) -> Self {
        self.channel_width = ChannelWidthMode::Minimize;
        self
    }

    /// Opt in to the silent analytic-model fallback for over-limit netlists.
    pub fn with_analytic_fallback(mut self) -> Self {
        self.over_limit = OverLimitPolicy::AnalyticFallback;
        self
    }
}

impl Default for PlaceRouteConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// Stage 3: placement & routing, skipped above the block limit.
#[derive(Debug, Clone)]
pub struct PlaceRouteStage {
    arch: ArchitectureConfig,
    config: PlaceRouteConfig,
    warm: Option<WarmStart>,
}

impl PlaceRouteStage {
    /// A physical-design stage for an architecture.
    pub fn new(arch: ArchitectureConfig, config: PlaceRouteConfig) -> Self {
        PlaceRouteStage {
            arch,
            config,
            warm: None,
        }
    }

    /// Seed the annealer from a prior placement (a compile-cache near-miss
    /// donor). See [`fpsa_placeroute::WarmStart`].
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.warm = Some(warm);
        self
    }

    /// The stage's configuration.
    pub fn config(&self) -> &PlaceRouteConfig {
        &self.config
    }

    /// Whether this stage would run physical design for a netlist size.
    pub fn would_run(&self, blocks: usize) -> bool {
        !self.config.skip && blocks <= self.config.block_limit
    }
}

impl CompileStage for PlaceRouteStage {
    type Input<'a> = &'a Mapping;
    type Output = Option<PhysicalDesign>;

    fn kind(&self) -> StageKind {
        StageKind::PlaceRoute
    }

    fn run(&self, input: &Mapping) -> Result<Option<PhysicalDesign>, CompileError> {
        if !self.would_run(input.netlist.len()) {
            let blocks = input.netlist.len();
            if !self.config.skip
                && blocks > self.config.block_limit
                && self.config.over_limit == OverLimitPolicy::Error
            {
                let (pes, smbs, clbs) = input.block_demand();
                // The typed-error telemetry hook: persist the flight
                // recorder's last moments alongside the capacity failure.
                fpsa_obs::flight_dump_on_error(
                    "compile.capacity_exceeded",
                    &[
                        ("blocks", blocks as i64),
                        ("block_limit", self.config.block_limit as i64),
                    ],
                );
                return Err(CompileError::CapacityExceeded {
                    required: FabricCapacity::new(pes, smbs, clbs),
                    available: FabricCapacity::within_block_budget(
                        &self.arch,
                        self.config.block_limit,
                    ),
                    blocks,
                    block_limit: self.config.block_limit,
                });
            }
            return Ok(None);
        }
        let netlist = &input.netlist;
        let fabric = fpsa_placeroute::fabric_for(netlist, &self.arch);
        let placement =
            Placer::new(self.config.placer).place_seeded(netlist, &fabric, self.warm.as_ref());
        let router = Router::with_config(self.arch.routing, self.config.router);
        let routing = match self.config.channel_width {
            ChannelWidthMode::Architecture => router.route(netlist, &placement),
            ChannelWidthMode::Minimize => router.minimum_channel_width(netlist, &placement).1,
        };
        let timing = TimingReport::analyze(&routing, &self.arch.routing);
        Ok(Some(PhysicalDesign {
            placement,
            routing,
            timing,
        }))
    }

    fn items_in(input: &&Mapping) -> usize {
        input.netlist.len()
    }

    fn items_out(output: &Option<PhysicalDesign>) -> usize {
        // Connections that went through physical design; 0 when the stage
        // fell back to the analytic model.
        match output {
            Some(physical) => physical.routing.connection_hops.len(),
            None => 0,
        }
    }

    fn quality(output: &Option<PhysicalDesign>) -> Option<StageQuality> {
        output.as_ref().map(|physical| StageQuality::PlaceRoute {
            placement_wirelength: physical.placement.quality().final_wirelength,
            placement_acceptance_rate: physical.placement.quality().acceptance_rate(),
            placement_moves: physical.placement.quality().moves_evaluated,
            warm_started: physical.placement.quality().warm_started,
            router_iterations: physical.routing.iterations,
            required_channel_width: physical.routing.required_channel_width(),
            critical_hops: physical.timing.critical_hops,
        })
    }
}

/// Stage 4: pick the communication estimate — the routed critical path when
/// physical design ran on a routed architecture, the analytic model (or the
/// bus model) otherwise.
#[derive(Debug, Clone)]
pub struct EstimateStage {
    arch: ArchitectureConfig,
}

impl EstimateStage {
    /// An estimation stage for the target architecture.
    pub fn new(arch: ArchitectureConfig) -> Self {
        EstimateStage { arch }
    }
}

impl CompileStage for EstimateStage {
    type Input<'a> = (&'a Mapping, Option<&'a PhysicalDesign>);
    type Output = CommunicationEstimate;

    fn kind(&self) -> StageKind {
        StageKind::Estimate
    }

    fn run(
        &self,
        input: (&Mapping, Option<&PhysicalDesign>),
    ) -> Result<Self::Output, CompileError> {
        let (mapping, physical) = input;
        Ok(match (physical, &self.arch.communication) {
            (Some(p), fpsa_arch::CommunicationStyle::Routed { .. }) => {
                CommunicationEstimate::from_timing(&p.timing)
            }
            _ => CommunicationEstimate::analytic(&self.arch, mapping.netlist.len()),
        })
    }

    fn items_in(input: &(&Mapping, Option<&PhysicalDesign>)) -> usize {
        input.0.netlist.len()
    }

    fn items_out(_output: &CommunicationEstimate) -> usize {
        1
    }
}

/// Runs stages in order, recording wall-clock time and artifact sizes.
#[derive(Debug, Clone, Default)]
pub struct InstrumentedPipeline {
    trace: StageTrace,
}

impl InstrumentedPipeline {
    /// A pipeline with an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run one stage, timing it and recording artifact sizes.
    ///
    /// # Errors
    ///
    /// Propagates the stage's error; nothing is recorded for a failed stage.
    pub fn run_stage<'a, S: CompileStage>(
        &mut self,
        stage: &S,
        input: S::Input<'a>,
    ) -> Result<S::Output, CompileError> {
        let items_in = S::items_in(&input);
        // Compile-stage spans ride the global tracer (wall clock); the
        // StageTrace keeps its own wall_ns so compile benchmarks need no
        // tracing enabled.
        let tracer = fpsa_obs::Tracer::global();
        let span = if tracer.enabled() {
            tracer.enter_with(
                stage.kind().name(),
                "compile",
                tracer.now_us(),
                fpsa_obs::SpanId::NONE,
                &[("items_in", items_in as i64)],
            )
        } else {
            fpsa_obs::Span::DISABLED
        };
        let start = Instant::now();
        let output = match stage.run(input) {
            Ok(output) => output,
            Err(e) => {
                // The span still closes on the error path, marked failed.
                if !span.id.is_none() {
                    let ts = tracer.now_us();
                    tracer.record(&span, "failed", 1, ts);
                    tracer.exit(&span, ts);
                }
                return Err(e);
            }
        };
        let wall_ns = start.elapsed().as_secs_f64() * 1e9;
        if !span.id.is_none() {
            let ts = tracer.now_us();
            tracer.record(&span, "items_out", S::items_out(&output) as i64, ts);
            tracer.exit(&span, ts);
        }
        self.trace.push(StageRecord {
            stage: stage.kind(),
            wall_ns,
            items_in,
            items_out: S::items_out(&output),
            quality: S::quality(&output),
        });
        Ok(output)
    }

    /// The measurements recorded so far.
    pub fn trace(&self) -> &StageTrace {
        &self.trace
    }

    /// Consume the pipeline, yielding the trace.
    pub fn finish(self) -> StageTrace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpsa_nn::zoo;

    #[test]
    fn stages_compose_into_the_compiler_flow() {
        let arch = ArchitectureConfig::fpsa();
        let graph = zoo::lenet();
        let mut pipeline = InstrumentedPipeline::new();
        let core = pipeline
            .run_stage(&SynthesizeStage::for_architecture(&arch), &graph)
            .unwrap();
        let mapping = pipeline.run_stage(&MapStage::new(&arch, 1), &core).unwrap();
        let physical = pipeline
            .run_stage(
                &PlaceRouteStage::new(arch.clone(), PlaceRouteConfig::fast()),
                &mapping,
            )
            .unwrap();
        assert!(physical.is_some(), "LeNet fits under the block limit");
        let communication = pipeline
            .run_stage(&EstimateStage::new(arch), (&mapping, physical.as_ref()))
            .unwrap();
        assert!(matches!(
            communication,
            CommunicationEstimate::Routed { .. }
        ));

        let trace = pipeline.finish();
        let kinds: Vec<StageKind> = trace.records().iter().map(|r| r.stage).collect();
        assert_eq!(kinds, StageKind::ALL.to_vec());
        assert!(trace.records().iter().all(|r| r.wall_ns >= 0.0));
        // The mapper folds the spatial core-op graph onto a netlist, so both
        // sides of every stage carry real sizes.
        assert!(trace.records().iter().all(|r| r.items_in > 0));
        // The PlaceRoute stage reports its quality metrics into the trace.
        match &trace.records()[2].quality {
            Some(StageQuality::PlaceRoute {
                placement_wirelength,
                placement_acceptance_rate,
                router_iterations,
                required_channel_width,
                ..
            }) => {
                assert!(*placement_wirelength > 0.0);
                assert!((0.0..=1.0).contains(placement_acceptance_rate));
                assert!(*router_iterations >= 1);
                assert!(*required_channel_width >= 1);
            }
            other => panic!("PlaceRoute must report quality, got {other:?}"),
        }
        // The other stages report none.
        assert!(trace.records()[0].quality.is_none());
        assert!(trace.records()[1].quality.is_none());
    }

    #[test]
    fn minimize_mode_finds_a_width_below_the_architecture_default() {
        let arch = ArchitectureConfig::fpsa();
        let graph = zoo::lenet();
        let mut pipeline = InstrumentedPipeline::new();
        let core = pipeline
            .run_stage(&SynthesizeStage::for_architecture(&arch), &graph)
            .unwrap();
        let mapping = pipeline.run_stage(&MapStage::new(&arch, 1), &core).unwrap();
        let stage = PlaceRouteStage::new(
            arch.clone(),
            PlaceRouteConfig::fast().minimize_channel_width(),
        );
        let physical = pipeline.run_stage(&stage, &mapping).unwrap().unwrap();
        assert!(physical.routing.is_routable());
        assert!(
            physical.routing.channel_width <= arch.routing.channel_width,
            "minimum width {} exceeds the architecture's {}",
            physical.routing.channel_width,
            arch.routing.channel_width
        );
        assert_eq!(
            physical.routing.channel_width,
            physical.routing.required_channel_width()
        );
    }

    #[test]
    fn skipping_place_and_route_records_an_empty_output() {
        let arch = ArchitectureConfig::fpsa();
        let graph = zoo::lenet();
        let mut pipeline = InstrumentedPipeline::new();
        let core = pipeline
            .run_stage(&SynthesizeStage::for_architecture(&arch), &graph)
            .unwrap();
        let mapping = pipeline.run_stage(&MapStage::new(&arch, 1), &core).unwrap();
        let physical = pipeline
            .run_stage(
                &PlaceRouteStage::new(
                    arch.clone(),
                    PlaceRouteConfig {
                        skip: true,
                        ..PlaceRouteConfig::fast()
                    },
                ),
                &mapping,
            )
            .unwrap();
        assert!(physical.is_none());
        let record = &pipeline.trace().records()[2];
        assert_eq!(record.stage, StageKind::PlaceRoute);
        assert_eq!(record.items_out, 0);
        assert!(record.items_in > 0);
        assert!(record.quality.is_none(), "skipped stages report no quality");
    }

    #[test]
    fn stage_errors_propagate_and_record_nothing() {
        use fpsa_nn::{Operator, TensorShape};

        let arch = ArchitectureConfig::fpsa();
        let mut pipeline = InstrumentedPipeline::new();
        // A node wired to a nonexistent input fails synthesis.
        let mut graph = ComputationalGraph::new("broken");
        graph.add_input("input", TensorShape::Features(8));
        graph.add_node(
            "dangling",
            Operator::Linear {
                in_features: 8,
                out_features: 4,
            },
            vec![999],
        );
        let result = pipeline.run_stage(&SynthesizeStage::for_architecture(&arch), &graph);
        assert!(result.is_err());
        assert!(pipeline.trace().is_empty());
    }
}
