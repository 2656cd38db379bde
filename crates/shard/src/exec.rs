//! Chained execution of the sharded stages.
//!
//! A [`ShardedExecutor`] owns one bound `fpsa_sim::Executor` per fabric and
//! runs a sample by piping each stage's output buffer into the next stage's
//! input. Because a stage boundary carries exactly the activation buffer the
//! unsharded executor holds at the cut node (see the crate docs), chaining
//! is bit-identical to the single-fabric run — there is no arithmetic at the
//! boundary in the float domains, and the integer boundary round-trip is the
//! identity on in-range codes.

use fpsa_sim::exec::{ExecError, Executor};

/// Pre-bound stage executors, chained in pipeline order.
#[derive(Debug)]
pub struct ShardedExecutor {
    stages: Vec<Executor>,
}

impl ShardedExecutor {
    /// Chain bound stage executors (produced by
    /// `fpsa_shard::ShardedModel::executor`).
    pub fn new(stages: Vec<Executor>) -> Self {
        assert!(!stages.is_empty(), "a sharded pipeline needs >= 1 stage");
        ShardedExecutor { stages }
    }

    /// Consume the chain, yielding the stage executors — the form
    /// `fpsa_serve::ShardedEngine::start` takes (each stage becomes a worker
    /// pool of the pipeline-parallel engine).
    pub fn into_stages(self) -> Vec<Executor> {
        self.stages
    }

    /// Execute one sample through every stage, returning the final logits.
    ///
    /// # Errors
    ///
    /// The first stage's input-length mismatch or any stage's execution
    /// error.
    pub fn run(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let mut value = self.stages[0].run(input)?;
        for stage in &self.stages[1..] {
            value = stage.run(&value)?;
        }
        Ok(value)
    }
}
