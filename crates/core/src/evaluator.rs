//! The evaluation harness.
//!
//! `Evaluator` compiles a benchmark for a chosen architecture and duplication
//! degree and collects everything the paper's figures report: the measured
//! performance, the peak and the spatial/temporal utilization bounds, and the
//! compute/communication latency breakdown. Evaluations of independent
//! (model, duplication) points are embarrassingly parallel and fan out
//! through the unified [`crate::sweep::Sweep`] engine.

use crate::cache::CompileCache;
use crate::compiler::{CompiledModel, Compiler};
use fpsa_arch::ArchitectureConfig;
use fpsa_nn::zoo::Benchmark;
use fpsa_sim::PerformanceReport;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything measured for one (model, architecture, duplication) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelEvaluation {
    /// Which benchmark was evaluated.
    pub model: String,
    /// Architecture display name.
    pub architecture: String,
    /// Requested duplication degree.
    pub duplication: u64,
    /// Measured performance.
    pub performance: PerformanceReport,
    /// Spatial utilization bound (crossbar fill), 0..1.
    pub spatial_utilization: f64,
    /// Temporal utilization bound (pipeline balance), 0..1.
    pub temporal_utilization: f64,
    /// Published weight count for cross-checking (from Table 3).
    pub published_weights: f64,
    /// Measured weight count.
    pub measured_weights: u64,
    /// Measured operation count per sample.
    pub measured_ops: u64,
}

impl ModelEvaluation {
    /// The real computational density in OPS/mm².
    pub fn density_ops_mm2(&self) -> f64 {
        self.performance.ops_per_mm2
    }
}

/// The evaluation harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluator {
    /// Architecture under evaluation.
    pub arch: ArchitectureConfig,
}

impl Evaluator {
    /// An evaluator for the FPSA architecture.
    pub fn fpsa() -> Self {
        Evaluator {
            arch: ArchitectureConfig::fpsa(),
        }
    }

    /// An evaluator for an arbitrary architecture.
    pub fn new(arch: ArchitectureConfig) -> Self {
        Evaluator { arch }
    }

    /// Evaluate one benchmark at one duplication degree.
    pub fn evaluate(&self, benchmark: Benchmark, duplication: u64) -> ModelEvaluation {
        self.evaluate_with_cache(benchmark, duplication, None)
    }

    /// [`Evaluator::evaluate`], compiling through a [`CompileCache`] when
    /// one is given: identical (model, config) points reuse the cached
    /// artifact and the report's compile trace carries the cache outcome.
    /// Results are equal to an uncached evaluation (trace equality ignores
    /// cache provenance, like wall-clock).
    pub fn evaluate_with_cache(
        &self,
        benchmark: Benchmark,
        duplication: u64,
        cache: Option<&CompileCache>,
    ) -> ModelEvaluation {
        let graph = benchmark.build();
        let stats = graph.statistics();
        let compiler = Compiler::for_architecture(self.arch.clone())
            .with_duplication(duplication)
            .without_place_and_route();
        let (compiled, info): (Arc<CompiledModel>, _) = match cache {
            Some(cache) => {
                let (model, info) = cache
                    .compile_with_info(&compiler, &graph)
                    .expect("zoo models are well formed");
                (model, Some(info))
            }
            None => (
                Arc::new(
                    compiler
                        .compile(&graph)
                        .expect("zoo models are well formed"),
                ),
                None,
            ),
        };
        let mut performance = compiled.performance();
        // Stamp how the cache satisfied *this* request (the shared artifact
        // records only how it was first produced). Excluded from equality,
        // like wall-clock.
        if let (Some(info), Some(trace)) = (info, performance.compile.as_mut()) {
            trace.set_cache(info);
        }
        ModelEvaluation {
            model: benchmark.name().to_string(),
            architecture: self.arch.kind.name().to_string(),
            duplication,
            performance,
            spatial_utilization: compiled.core_graph.spatial_utilization(),
            temporal_utilization: compiled.mapping.allocation.temporal_utilization(),
            published_weights: benchmark.published_weights(),
            measured_weights: stats.total_weights,
            measured_ops: stats.total_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluating_the_mlp_is_fast_and_consistent() {
        let eval = Evaluator::fpsa().evaluate(Benchmark::Mlp500x100, 1);
        assert_eq!(eval.model, "MLP-500-100");
        assert_eq!(eval.measured_weights, 443_000);
        assert!(eval.performance.throughput_samples_per_s > 0.0);
        assert!(eval.spatial_utilization > 0.0 && eval.spatial_utilization <= 1.0);
        assert!(eval.temporal_utilization > 0.0 && eval.temporal_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn duplication_raises_throughput_for_cnns() {
        let evaluator = Evaluator::fpsa();
        let d1 = evaluator.evaluate(Benchmark::LeNet, 1);
        let d16 = evaluator.evaluate(Benchmark::LeNet, 16);
        assert!(
            d16.performance.throughput_samples_per_s
                > 4.0 * d1.performance.throughput_samples_per_s
        );
        // The MLP has no reuse, so duplication does not help it.
        let m1 = evaluator.evaluate(Benchmark::Mlp500x100, 1);
        let m16 = evaluator.evaluate(Benchmark::Mlp500x100, 16);
        assert!(
            (m16.performance.throughput_samples_per_s / m1.performance.throughput_samples_per_s)
                < 1.5
        );
    }

    #[test]
    fn fpsa_density_exceeds_prime_density_on_the_same_model() {
        let fpsa = Evaluator::fpsa().evaluate(Benchmark::LeNet, 4);
        let prime = Evaluator::new(ArchitectureConfig::prime()).evaluate(Benchmark::LeNet, 4);
        assert!(fpsa.density_ops_mm2() > prime.density_ops_mm2() * 5.0);
    }
}
