//! The unified parallel sweep engine.
//!
//! Every experiment driver used to hand-roll its own loop. This module
//! replaces all of that with one rayon-backed engine:
//!
//! * [`Sweep`] — the typed grid of (model × architecture × duplication)
//!   points behind Figure 8 and Table 3;
//! * [`parallel_map`] — the order-preserving parallel primitive under
//!   [`Sweep::run`], shared by drivers whose grids are not model-shaped
//!   (area sweeps, per-architecture bars, variation trials);
//! * [`log_space`] — the log-spaced axis used by the area sweeps of
//!   Figures 2 and 6.
//!
//! Points are embarrassingly parallel: every evaluation compiles its own
//! model and shares nothing, so the engine guarantees output order matches
//! input order and nothing else.

use crate::cache::CompileCache;
use crate::evaluator::{Evaluator, ModelEvaluation};
use fpsa_arch::ArchitectureConfig;
use fpsa_nn::zoo::Benchmark;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Map `f` over `items` in parallel, preserving input order.
///
/// This is the single parallel primitive of the repository: the sweep grid,
/// the experiment drivers and the benches all fan out through it.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    items.par_iter().map(f).collect()
}

/// `points` log-spaced values over `[min, max]`, inclusive of both ends.
///
/// Matches the axis the paper's area sweeps use (and the spacing the old
/// `PerformanceBounds::sweep` produced): clamped below at `1e-3`.
pub fn log_space(min: f64, max: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "a sweep needs at least two points");
    let log_min = min.max(1e-3).ln();
    let log_max = max.max(min).ln();
    (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            (log_min + t * (log_max - log_min)).exp()
        })
        .collect()
}

/// One (model, architecture, duplication) evaluation point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Which benchmark to compile.
    pub benchmark: Benchmark,
    /// Target architecture.
    pub architecture: ArchitectureConfig,
    /// Model-level duplication degree.
    pub duplication: u64,
}

/// A grid of evaluation points, executed in parallel by [`Sweep::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    points: Vec<SweepPoint>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full cartesian grid models × architectures × duplications.
    pub fn cartesian(
        benchmarks: &[Benchmark],
        architectures: &[ArchitectureConfig],
        duplications: &[u64],
    ) -> Self {
        let mut sweep = Sweep::new();
        for &benchmark in benchmarks {
            for architecture in architectures {
                for &duplication in duplications {
                    sweep = sweep.point(benchmark, architecture.clone(), duplication);
                }
            }
        }
        sweep
    }

    /// Append one point.
    pub fn point(
        mut self,
        benchmark: Benchmark,
        architecture: ArchitectureConfig,
        duplication: u64,
    ) -> Self {
        self.points.push(SweepPoint {
            benchmark,
            architecture,
            duplication,
        });
        self
    }

    /// Evaluate every point in parallel; results keep the point order.
    ///
    /// Compilation goes through a per-run [`CompileCache`]: grids whose
    /// axes repeat a (model, architecture, duplication) combination compile
    /// it once and share the artifact across workers (the single-flight
    /// store ensures exactly one compile per distinct point even under
    /// parallel racers).
    pub fn run(&self) -> Vec<ModelEvaluation> {
        self.run_with_cache(&CompileCache::new(self.points.len().max(1)))
    }

    /// [`Sweep::run`] against a caller-owned cache, so several sweeps (or a
    /// sweep plus direct [`Evaluator`] calls) can share compiled artifacts
    /// and so drivers can report the hit/miss statistics afterwards.
    pub fn run_with_cache(&self, cache: &CompileCache) -> Vec<ModelEvaluation> {
        parallel_map(&self.points, |point| {
            Evaluator::new(point.architecture.clone()).evaluate_with_cache(
                point.benchmark,
                point.duplication,
                Some(cache),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Sweep {
        /// Explicit (model, duplication) pairs on one architecture.
        pub(crate) fn over_points(
            architecture: &ArchitectureConfig,
            pairs: &[(Benchmark, u64)],
        ) -> Self {
            let mut sweep = Sweep::new();
            for &(benchmark, duplication) in pairs {
                sweep = sweep.point(benchmark, architecture.clone(), duplication);
            }
            sweep
        }

        /// The points in evaluation order.
        pub(crate) fn points(&self) -> &[SweepPoint] {
            &self.points
        }

        /// Number of points.
        pub(crate) fn len(&self) -> usize {
            self.points.len()
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let squares = parallel_map(&items, |&x| x * x);
        assert_eq!(squares.len(), items.len());
        for (i, &sq) in squares.iter().enumerate() {
            assert_eq!(sq, i * i);
        }
    }

    #[test]
    fn log_space_matches_the_legacy_sweep_axis() {
        let axis = log_space(10.0, 10_000.0, 12);
        assert_eq!(axis.len(), 12);
        assert!((axis[0] - 10.0).abs() < 1e-9);
        assert!((axis[11] - 10_000.0).abs() < 1e-6);
        for pair in axis.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        // Log spacing: constant ratio between neighbours.
        let r0 = axis[1] / axis[0];
        let r9 = axis[10] / axis[9];
        assert!((r0 - r9).abs() < 1e-9);
    }

    #[test]
    fn cartesian_grids_enumerate_every_combination() {
        let sweep = Sweep::cartesian(
            &[Benchmark::Mlp500x100, Benchmark::LeNet],
            &[ArchitectureConfig::fpsa()],
            &[1, 4],
        );
        assert_eq!(sweep.len(), 4);
        let dups: Vec<u64> = sweep.points().iter().map(|p| p.duplication).collect();
        assert_eq!(dups, vec![1, 4, 1, 4]);
    }

    #[test]
    fn repeated_points_compile_exactly_once() {
        // The same (model, arch, duplication) point three times, plus one
        // distinct point: exactly two compiler invocations, two hits.
        let arch = ArchitectureConfig::fpsa();
        let sweep = Sweep::over_points(
            &arch,
            &[
                (Benchmark::Mlp500x100, 1),
                (Benchmark::Mlp500x100, 1),
                (Benchmark::LeNet, 4),
                (Benchmark::Mlp500x100, 1),
            ],
        );
        let cache = CompileCache::new(sweep.len());
        let results = sweep.run_with_cache(&cache);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "one compile per distinct point");
        assert_eq!(stats.hits, 2, "duplicates reuse the cached artifact");
        // Duplicates are bit-identical evaluations.
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[3]);
    }

    #[test]
    fn sweep_results_match_direct_evaluation() {
        let arch = ArchitectureConfig::fpsa();
        let sweep = Sweep::over_points(&arch, &[(Benchmark::Mlp500x100, 1), (Benchmark::LeNet, 4)]);
        let results = sweep.run();
        assert_eq!(results.len(), 2);
        let direct = Evaluator::new(arch).evaluate(Benchmark::LeNet, 4);
        assert_eq!(results[1], direct);
    }
}
