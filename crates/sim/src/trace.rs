//! Compile-stage instrumentation.
//!
//! The compiler in `fpsa-core` runs as an explicit staged pipeline
//! (`Synthesize → Map → PlaceRoute → Estimate`, see DESIGN.md). Each stage
//! records its wall-clock time and artifact sizes into a [`StageTrace`] that
//! travels on the compiled model and into [`crate::PerformanceReport`], so
//! latency breakdowns (the Figure 7 bench and the compiler-stage ablation
//! bench) read real measurements instead of re-deriving them.
//!
//! The trace lives in `fpsa-sim` rather than `fpsa-core` because the
//! performance report is the public carrier: everything that consumes a
//! report can see where compile time went without depending on the compiler.

use serde::{Deserialize, Serialize};

/// The four stages of the compile pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// Neural synthesis: computational graph → core-op graph.
    Synthesize,
    /// Spatial-to-temporal mapping: core-op graph → allocation/schedule/netlist.
    Map,
    /// Physical design: netlist → placement, routing and timing.
    PlaceRoute,
    /// Communication estimation: routed timing or the analytic wire model.
    Estimate,
}

impl StageKind {
    /// All stages in pipeline order.
    pub const ALL: [StageKind; 4] = [
        StageKind::Synthesize,
        StageKind::Map,
        StageKind::PlaceRoute,
        StageKind::Estimate,
    ];

    /// Human-readable stage name.
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::Synthesize => "synthesize",
            StageKind::Map => "map",
            StageKind::PlaceRoute => "place&route",
            StageKind::Estimate => "estimate",
        }
    }
}

/// Deterministic quality metrics a stage attaches to its record — the
/// *result* quality next to the wall-clock cost, so a trace answers both
/// "where did compile time go" and "what did that time buy".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StageQuality {
    /// Physical-design quality from the PlaceRoute stage.
    PlaceRoute {
        /// Final unweighted HPWL of the placement.
        placement_wirelength: f64,
        /// Overall annealing acceptance rate, 0..=1.
        placement_acceptance_rate: f64,
        /// Annealing moves the placer evaluated (the budget a warm start
        /// cuts — see [`CacheOutcome::WarmStart`]).
        placement_moves: u64,
        /// Whether the placement was seeded from a prior placement instead
        /// of annealing from a cold initial assignment.
        warm_started: bool,
        /// PathFinder negotiation iterations until convergence.
        router_iterations: usize,
        /// Minimum channel width the routed design needs.
        required_channel_width: usize,
        /// Longest routed connection in block hops.
        critical_hops: usize,
    },
}

/// How the compile cache satisfied (or didn't satisfy) one compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// No cache was involved, or the key was absent: a full cold compile.
    Miss,
    /// The exact key was present in the in-memory store; the compiled
    /// artifact was reused without running any pipeline stage.
    Hit,
    /// The exact key missed, but a near-miss entry (same architecture and
    /// physical-design configuration, different graph) seeded the annealer
    /// with its mapped-forward placement — the pipeline ran, with a cut
    /// anneal budget.
    WarmStart,
}

impl CacheOutcome {
    /// Human-readable outcome name.
    pub fn name(&self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Hit => "hit",
            CacheOutcome::WarmStart => "warm-start",
        }
    }
}

/// Cache provenance of one compilation, carried on its [`StageTrace`].
///
/// Like `wall_ns`, this is a *measurement of how the artifact was obtained*,
/// not part of the artifact's structure: two compilations of the same model
/// — one cold, one served from the cache — produce equal traces. It is
/// therefore excluded from [`StageTrace`] equality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheInfo {
    /// How the cache satisfied the compilation.
    pub outcome: CacheOutcome,
    /// Hex rendering of the content-addressed compile key.
    pub key: String,
    /// Wall-clock the cache saved versus a cold compile, in nanoseconds:
    /// the cached entry's full recorded compile time for a [`CacheOutcome::Hit`],
    /// the donor's PlaceRoute time minus the warm-started PlaceRoute time
    /// for a [`CacheOutcome::WarmStart`] (clamped at zero), and `0` for a
    /// miss.
    pub saved_wall_ns: f64,
}

/// One stage's measurements.
///
/// Equality deliberately ignores `wall_ns`: two compilations of the same
/// model produce *structurally* identical traces but can never produce
/// identical timings, and results of parallel and sequential sweeps must
/// compare equal. Quality metrics are deterministic, so they *do* take part
/// in equality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageRecord {
    /// Which stage ran.
    pub stage: StageKind,
    /// Wall-clock time the stage took, in nanoseconds.
    pub wall_ns: f64,
    /// Number of artifact items the stage consumed (graph nodes, core-op
    /// groups, netlist blocks — whatever the stage's input is measured in).
    pub items_in: usize,
    /// Number of artifact items the stage produced.
    pub items_out: usize,
    /// Deterministic quality metrics of the stage's result, if it reports
    /// any (today only PlaceRoute does).
    pub quality: Option<StageQuality>,
}

impl PartialEq for StageRecord {
    fn eq(&self, other: &Self) -> bool {
        self.stage == other.stage
            && self.items_in == other.items_in
            && self.items_out == other.items_out
            && self.quality == other.quality
    }
}

/// The ordered per-stage measurements of one compilation.
///
/// Equality compares the stage records only: cache provenance, like
/// wall-clock, describes how this particular compilation went, not what it
/// produced — a cache hit must compare equal to the cold compile it reused.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StageTrace {
    records: Vec<StageRecord>,
    cache: Option<CacheInfo>,
}

impl PartialEq for StageTrace {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl StageTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one stage's record (stages arrive in execution order).
    pub fn push(&mut self, record: StageRecord) {
        self.records.push(record);
    }

    /// The recorded stages in execution order.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Wall-clock time of one stage, if it ran.
    pub fn wall_ns(&self, stage: StageKind) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.stage == stage)
            .map(|r| r.wall_ns)
    }

    /// Total wall-clock time across all recorded stages.
    pub fn total_wall_ns(&self) -> f64 {
        self.records.iter().map(|r| r.wall_ns).sum()
    }

    /// One stage's share of the total wall-clock time, in `0..=1`.
    pub fn share(&self, stage: StageKind) -> Option<f64> {
        let total = self.total_wall_ns();
        if total <= 0.0 {
            return None;
        }
        self.wall_ns(stage).map(|ns| ns / total)
    }

    /// Record how the compile cache satisfied this compilation.
    pub fn set_cache(&mut self, info: CacheInfo) {
        self.cache = Some(info);
    }

    /// Cache provenance of this compilation, if a cache was consulted.
    pub fn cache(&self) -> Option<&CacheInfo> {
        self.cache.as_ref()
    }

    /// Wall-clock the compile cache saved versus a cold compile, in ns.
    pub fn cache_saved_wall_ns(&self) -> f64 {
        self.cache.as_ref().map_or(0.0, |c| c.saved_wall_ns)
    }

    /// Render the trace as an aligned plain-text table.
    pub fn to_table(&self) -> String {
        let mut out = String::from("stage        | wall (ms) | share | items in -> out\n");
        out.push_str("-------------|-----------|-------|----------------\n");
        for r in &self.records {
            let share = self.share(r.stage).unwrap_or(0.0);
            out.push_str(&format!(
                "{:<12} | {:>9.3} | {:>4.0}% | {} -> {}\n",
                r.stage.name(),
                r.wall_ns * 1e-6,
                share * 100.0,
                r.items_in,
                r.items_out
            ));
        }
        out.push_str(&format!(
            "total        | {:>9.3} |  100% |\n",
            self.total_wall_ns() * 1e-6
        ));
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                "cache: {} (saved {:.3} ms, key {})\n",
                cache.outcome.name(),
                cache.saved_wall_ns * 1e-6,
                cache.key
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(stage: StageKind, wall_ns: f64) -> StageRecord {
        StageRecord {
            stage,
            wall_ns,
            items_in: 10,
            items_out: 20,
            quality: None,
        }
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let mut a = StageTrace::new();
        let mut b = StageTrace::new();
        a.push(record(StageKind::Synthesize, 1_000.0));
        b.push(record(StageKind::Synthesize, 9_999.0));
        assert_eq!(a, b);
        // But not the structure.
        b.push(record(StageKind::Map, 1.0));
        assert_ne!(a, b);
    }

    #[test]
    fn equality_compares_quality_metrics() {
        let quality = StageQuality::PlaceRoute {
            placement_wirelength: 120.0,
            placement_acceptance_rate: 0.4,
            placement_moves: 6_000,
            warm_started: false,
            router_iterations: 3,
            required_channel_width: 9,
            critical_hops: 14,
        };
        let mut a = record(StageKind::PlaceRoute, 1.0);
        let mut b = record(StageKind::PlaceRoute, 2.0);
        a.quality = Some(quality.clone());
        b.quality = Some(quality);
        assert_eq!(a, b);
        b.quality = None;
        assert_ne!(a, b, "quality metrics are deterministic, so they compare");
    }

    #[test]
    fn equality_ignores_cache_provenance() {
        let mut cold = StageTrace::new();
        let mut cached = StageTrace::new();
        cold.push(record(StageKind::Synthesize, 1_000.0));
        cached.push(record(StageKind::Synthesize, 12.0));
        cached.set_cache(CacheInfo {
            outcome: CacheOutcome::Hit,
            key: "deadbeef".into(),
            saved_wall_ns: 988.0,
        });
        assert_eq!(
            cold, cached,
            "cache provenance is a measurement, not structure"
        );
        assert_eq!(cached.cache().unwrap().outcome, CacheOutcome::Hit);
        assert_eq!(cached.cache_saved_wall_ns(), 988.0);
        assert_eq!(cold.cache_saved_wall_ns(), 0.0);
        assert!(cached.to_table().contains("cache: hit"));
    }

    #[test]
    fn totals_and_shares_add_up() {
        let mut trace = StageTrace::new();
        trace.push(record(StageKind::Synthesize, 300.0));
        trace.push(record(StageKind::Map, 700.0));
        assert_eq!(trace.total_wall_ns(), 1_000.0);
        assert_eq!(trace.share(StageKind::Map), Some(0.7));
        assert_eq!(trace.wall_ns(StageKind::PlaceRoute), None);
        assert_eq!(trace.share(StageKind::PlaceRoute), None);
    }

    #[test]
    fn empty_trace_has_no_shares() {
        let trace = StageTrace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.share(StageKind::Synthesize), None);
    }

    #[test]
    fn table_lists_every_stage_plus_total() {
        let mut trace = StageTrace::new();
        for stage in StageKind::ALL {
            trace.push(record(stage, 100.0));
        }
        let table = trace.to_table();
        assert_eq!(table.lines().count(), 2 + 4 + 1);
        for stage in StageKind::ALL {
            assert!(table.contains(stage.name()), "{table}");
        }
    }
}
