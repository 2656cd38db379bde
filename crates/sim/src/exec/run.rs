//! Running a bound executor: the bytecode dispatch entry points, and the
//! oracle cross-check over the same bound programs.

use super::oracle::Oracle;
use super::{mismatch, traced, ExecArena, ExecError, Executor};
use crate::domain::{Domain, Float, Integer};
use fpsa_nn::NodeId;
use rayon::prelude::*;
use std::fmt::Debug;

/// Reserve a bytecode slab at `len` elements, zero-filled. Capacity is
/// retained across runs, so the steady state is a pure memset: no allocation.
/// Whole-slab zeroing is what gives scatter targets their zeroed baseline
/// before any instruction writes them.
fn grab<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    let s = &mut buf[..len];
    s.fill(T::default());
    s
}

impl Executor {
    /// Execute one sample, returning the network logits.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::ModelMismatch`] when the input length is wrong.
    pub fn run(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        traced("exec.run", &[], || {
            let mut out = Vec::new();
            self.run_into(input, &mut ExecArena::new(), &mut out)?;
            Ok(out)
        })
    }

    /// Execute one sample into `out`, reusing `arena` for all scratch.
    ///
    /// Bit-identical to [`Executor::run`] (which is this call on a throwaway
    /// arena); the arena only changes where the intermediates live, never the
    /// arithmetic. `out` is cleared and refilled, retaining its capacity.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    pub fn run_into(
        &self,
        input: &[f32],
        arena: &mut ExecArena,
        out: &mut Vec<f32>,
    ) -> Result<(), ExecError> {
        out.clear();
        if self.precision_integer {
            self.run_bc::<Integer>(input, arena, out)
        } else {
            self.run_bc::<Float>(input, arena, out)
        }
    }

    /// Dispatch the bytecode stream in domain `D` over the arena's flat
    /// slabs: load the sample into the input node's region, run the stream,
    /// then read the output segments.
    fn run_bc<D: Domain>(
        &self,
        input: &[f32],
        arena: &mut ExecArena,
        out: &mut Vec<f32>,
    ) -> Result<(), ExecError> {
        let in_node = self.checked_input_node(input)?;
        let region = self.lowered.node_regions[in_node].expect("input region is lowered");
        let (vals, parts, mac) = D::arena(arena);
        let vals = grab(vals, self.lowered.val_len);
        let parts = grab(parts, self.lowered.part_len);
        self.load_input::<D>(in_node, input, &mut vals[region.range()]);
        self.lowered.exec::<D>(vals, parts, mac);
        self.read_output::<D>(vals, out);
        Ok(())
    }

    fn load_input<D: Domain>(&self, in_node: NodeId, input: &[f32], dst: &mut [D::Val]) {
        let (simd, alevels) = (self.lowered.simd, self.lowered.alevels);
        D::load_input(simd, self.node_steps[in_node], alevels, input, dst);
    }

    /// Extract the (dequantized) output segments from one value slab.
    fn read_output<D: Domain>(&self, vals: &[D::Val], out: &mut Vec<f32>) {
        out.clear();
        for &(_, region, step) in &self.outputs {
            out.extend(vals[region.range()].iter().map(|&v| D::real(v, step)));
        }
    }

    /// Execute a batch of samples sequentially on one replica's arena,
    /// writing into `outputs` (resized to the batch, element capacity
    /// recycled). This is the serving engine's hot path: after warm-up the
    /// call performs zero scratch allocation, and results are bit-identical
    /// to per-sample [`Executor::run`] calls.
    ///
    /// Parallelism is deliberately left to the caller (one arena serves one
    /// thread); the rayon-backed [`Executor::run_batch`] fans out
    /// sample-parallel instead.
    ///
    /// # Errors
    ///
    /// The first per-sample error, if any; `outputs` is then truncated to
    /// the samples that completed, so it can never expose stale results
    /// from a previous batch.
    pub fn run_batch_into(
        &self,
        inputs: &[Vec<f32>],
        arena: &mut ExecArena,
        outputs: &mut Vec<Vec<f32>>,
    ) -> Result<(), ExecError> {
        traced("exec.batch", &[("batch", inputs.len() as i64)], || {
            self.run_batch_into_untraced(inputs, arena, outputs)
        })
    }

    /// [`Executor::run_batch_into`] minus the span bracket: the telemetry
    /// A/B baseline the obs overhead bench compares against. Not part of
    /// the public API contract.
    #[doc(hidden)]
    pub fn run_batch_into_untraced(
        &self,
        inputs: &[Vec<f32>],
        arena: &mut ExecArena,
        outputs: &mut Vec<Vec<f32>>,
    ) -> Result<(), ExecError> {
        // The instruction-major fast path needs every sample validated up
        // front; a batch with a malformed sample (or a single sample) takes
        // the sequential path, which preserves the documented truncation
        // contract exactly.
        let all_valid = inputs.iter().all(|i| self.checked_input_node(i).is_ok());
        if inputs.len() < 2 || !all_valid {
            outputs.resize_with(inputs.len(), Vec::new);
            for (i, input) in inputs.iter().enumerate() {
                if let Err(e) = self.run_into(input, arena, &mut outputs[i]) {
                    outputs.truncate(i);
                    return Err(e);
                }
            }
            return Ok(());
        }

        if self.precision_integer {
            self.run_batch_bc::<Integer>(inputs, arena, outputs)
        } else {
            self.run_batch_bc::<Float>(inputs, arena, outputs)
        }
    }

    /// Weight-stationary batch execution: all samples' slabs are laid out
    /// back to back and the stream runs instruction-major, so each weight
    /// tile streams from memory once per batch instead of once per sample.
    /// Per-sample arithmetic and ordering are untouched — bit-identical to
    /// sequential `run_into` calls.
    fn run_batch_bc<D: Domain>(
        &self,
        inputs: &[Vec<f32>],
        arena: &mut ExecArena,
        outputs: &mut Vec<Vec<f32>>,
    ) -> Result<(), ExecError> {
        let b = inputs.len();
        let in_node = self.checked_input_node(&inputs[0])?;
        let region = self.lowered.node_regions[in_node].expect("input region is lowered");
        let (val_len, part_len) = (self.lowered.val_len, self.lowered.part_len);
        outputs.resize_with(b, Vec::new);
        let (vals, parts, mac) = D::arena(arena);
        let vals = grab(vals, b * val_len);
        let parts = grab(parts, b * part_len);
        for (s, input) in inputs.iter().enumerate() {
            let dst = s * val_len + region.off as usize;
            self.load_input::<D>(in_node, input, &mut vals[dst..dst + region.len as usize]);
        }
        self.lowered.exec_batch::<D>(vals, parts, b, mac);
        for (s, out) in outputs.iter_mut().enumerate() {
            self.read_output::<D>(&vals[s * val_len..(s + 1) * val_len], out);
        }
        Ok(())
    }

    /// Execute one sample in the integer domain, returning the output codes
    /// (for bit-for-bit comparison with the quantized reference).
    ///
    /// # Errors
    ///
    /// [`ExecError::Unsupported`] outside [`crate::Precision::Integer`].
    pub fn run_codes(&self, input: &[f32]) -> Result<Vec<i64>, ExecError> {
        if !self.precision_integer {
            return Err(ExecError::Unsupported {
                reason: "run_codes requires Precision::Integer".into(),
            });
        }
        let mut arena = ExecArena::new();
        self.run_bc::<Integer>(input, &mut arena, &mut Vec::new())?;
        let mut out = Vec::new();
        for &(_, region, _) in &self.outputs {
            out.extend_from_slice(&arena.val_i[region.range()]);
        }
        Ok(out)
    }

    /// Execute one sample and return per-node activation buffers (dequantized
    /// in integer mode) — the hook for per-layer differential comparison.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    pub fn run_nodes(&self, input: &[f32]) -> Result<Vec<Option<Vec<f32>>>, ExecError> {
        if self.precision_integer {
            self.nodes_of::<Integer>(input)
        } else {
            self.nodes_of::<Float>(input)
        }
    }

    fn nodes_of<D: Domain>(&self, input: &[f32]) -> Result<Vec<Option<Vec<f32>>>, ExecError> {
        let mut arena = ExecArena::new();
        self.run_bc::<D>(input, &mut arena, &mut Vec::new())?;
        let vals = D::arena(&mut arena).0;
        Ok((0..self.nodes.len())
            .map(|node| {
                let step = self.node_steps[node];
                self.lowered.node_regions[node].map(|region| {
                    vals[region.range()]
                        .iter()
                        .map(|&v| D::real(v, step))
                        .collect()
                })
            })
            .collect())
    }

    /// Execute one sample on the tile-program oracle (`oracle.rs`) instead of
    /// the bytecode stream — the baseline the `exec_forward` bench measures
    /// the stream against. Every call owns its scratch.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    pub fn run_interpreted(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let oracle = self.oracle(self.checked_input_node(input)?);
        let missing = || mismatch("output node never executed");
        let mut out = Vec::new();
        if self.precision_integer {
            let nodes = oracle.run_integer(input)?;
            for &(node, _, step) in &self.outputs {
                let codes = nodes[node].as_deref().ok_or_else(missing)?;
                out.extend(codes.iter().map(|&c| (c as f64 * step) as f32));
            }
        } else {
            let nodes = oracle.run_float(input)?;
            for &(node, _, _) in &self.outputs {
                out.extend_from_slice(nodes[node].as_deref().ok_or_else(missing)?);
            }
        }
        Ok(out)
    }

    /// Execute one sample on **both** the bytecode stream and the oracle,
    /// asserting bit-identical activations for every lowered node (`f32` bit
    /// patterns / `i64` codes), then return the bytecode output (a pure
    /// gather of those node regions). This is the differential suite's
    /// cross-check: it is what lets the repo keep exactly one production
    /// executor.
    ///
    /// # Panics
    ///
    /// Panics when any node buffer diverges — a lowering bug.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::run`].
    pub fn run_checked(&self, input: &[f32]) -> Result<Vec<f32>, ExecError> {
        let oracle = self.oracle(self.checked_input_node(input)?);
        let mut arena = ExecArena::new();
        let mut out = Vec::new();
        self.run_into(input, &mut arena, &mut out)?;
        if self.precision_integer {
            self.assert_nodes(&arena.val_i, &oracle.run_integer(input)?, |g, w| g == w);
        } else {
            let want = oracle.run_float(input)?;
            self.assert_nodes(&arena.val_f, &want, |g, w| g.to_bits() == w.to_bits());
        }
        Ok(out)
    }

    /// Panic unless every lowered node's region of the value slab `got`
    /// holds exactly the oracle's buffer for that node.
    fn assert_nodes<T: Debug>(
        &self,
        got: &[T],
        want: &[Option<Vec<T>>],
        same: impl Fn(&T, &T) -> bool,
    ) {
        for (node, region) in self.lowered.node_regions.iter().enumerate() {
            let Some(region) = region else { continue };
            let got = &got[region.range()];
            let want = want[node]
                .as_deref()
                .unwrap_or_else(|| panic!("the oracle never wrote lowered node {node}"));
            assert_eq!(got.len(), want.len(), "node {node} length diverged");
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert!(
                    same(g, w),
                    "bytecode diverged from the oracle at node {node}[{i}]: {g:?} vs {w:?}"
                );
            }
        }
    }

    /// The oracle over this executor's bound programs and weight slabs.
    fn oracle(&self, input_node: NodeId) -> Oracle<'_> {
        Oracle {
            programs: &self.programs,
            nodes: &self.nodes,
            input_node,
            node_steps: &self.node_steps,
            activation_levels: self.lowered.alevels,
            wslab_f: &self.lowered.wslab_f,
            wslab_q: &self.lowered.wslab_q,
        }
    }

    /// Execute a batch of samples in parallel (rayon), preserving order.
    /// Weight noise is realized at bind time and per-sample execution is
    /// pure, so results are bit-identical to running samples sequentially,
    /// for any thread count or chunking.
    ///
    /// # Errors
    ///
    /// The first per-sample error, if any.
    pub fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ExecError> {
        let results: Vec<Result<Vec<f32>, ExecError>> =
            inputs.par_iter().map(|x| self.run(x)).collect();
        results.into_iter().collect()
    }

    /// The graph's single input node, after validating the sample length.
    fn checked_input_node(&self, input: &[f32]) -> Result<NodeId, ExecError> {
        let (node, len) = self.input_node()?;
        if input.len() != len {
            return Err(mismatch(format!(
                "input has {} elements, graph expects {}",
                input.len(),
                len
            )));
        }
        Ok(node)
    }

    /// `(node id, element count)` of the graph's single input node: every
    /// tile view ultimately reads from it, and the executor records it as
    /// the node every view segment may reference without a producing tile.
    fn input_node(&self) -> Result<(NodeId, usize), ExecError> {
        self.input
            .ok_or_else(|| mismatch("graph has no input node"))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{compile, max_abs_diff, samples, three_precisions};
    use super::super::Precision;
    use super::*;
    use fpsa_nn::reference::{QuantizationPlan, Reference};
    use fpsa_nn::{zoo, GraphParameters};

    #[test]
    fn float_execution_matches_reference_on_every_tiny_model() {
        for graph in zoo::differential_suite() {
            let params = GraphParameters::seeded(&graph, 7);
            let (core, mapping) = compile(&graph, 1);
            let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float)
                .unwrap_or_else(|e| panic!("{}: {e}", graph.name));
            let reference = Reference::new(&graph, &params).unwrap();
            for x in samples(&graph, 3) {
                let got = exec.run(&x).unwrap();
                let want = reference.logits(&x).unwrap();
                let diff = max_abs_diff(&got, &want);
                assert!(diff < 1e-4, "{}: max abs diff {diff}", graph.name);
            }
        }
    }

    #[test]
    fn duplicated_mappings_compute_the_same_function() {
        let graph = zoo::tiny_cnn();
        let params = GraphParameters::seeded(&graph, 3);
        let (core, mapping) = compile(&graph, 8);
        assert!(mapping.allocation.total_pes() > core.len());
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let reference = Reference::new(&graph, &params).unwrap();
        let x = &samples(&graph, 1)[0];
        let diff = max_abs_diff(&exec.run(x).unwrap(), &reference.logits(x).unwrap());
        assert!(diff < 1e-4, "max abs diff {diff}");
    }

    #[test]
    fn integer_execution_is_bit_identical_to_the_quantized_reference() {
        for graph in zoo::differential_suite() {
            let params = GraphParameters::seeded(&graph, 11);
            let inputs = samples(&graph, 3);
            let plan = QuantizationPlan::calibrate(&graph, &params, &inputs).unwrap();
            let (core, mapping) = compile(&graph, 1);
            let exec = Executor::bind(
                &graph,
                &params,
                &core,
                &mapping,
                &Precision::Integer(plan.clone()),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", graph.name));
            let reference = Reference::new(&graph, &params).unwrap();
            for x in &inputs {
                let got = exec.run_codes(x).unwrap();
                let want = reference.quantized_logits(&plan, x).unwrap();
                assert_eq!(got, want, "{}: integer codes diverged", graph.name);
            }
        }
    }

    /// The invariant the integer MAC's `i64 → i32` gather rests on: every
    /// value-slab writer clamps its codes to ±`activation_levels`, even on
    /// inputs far outside the calibrated range (which saturate, not escape).
    #[test]
    fn integer_value_slab_codes_stay_within_the_activation_levels() {
        for graph in zoo::differential_suite() {
            let params = GraphParameters::seeded(&graph, 11);
            let calibration = samples(&graph, 3);
            let plan = QuantizationPlan::calibrate(&graph, &params, &calibration).unwrap();
            let (core, mapping) = compile(&graph, 1);
            let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Integer(plan))
                .unwrap_or_else(|e| panic!("{}: {e}", graph.name));
            let mut inputs = calibration.clone();
            inputs.extend(
                calibration
                    .iter()
                    .map(|x| x.iter().map(|v| 8.0 * v - 3.0).collect()),
            );
            let mut arena = exec.arena();
            let mut outputs = Vec::new();
            exec.run_batch_into(&inputs, &mut arena, &mut outputs)
                .unwrap();
            let slab = &arena.val_i[..inputs.len() * exec.lowered.val_len];
            let alevels = exec.lowered.alevels;
            assert!(slab.iter().any(|c| c.abs() == alevels), "{}", graph.name);
            assert!(slab.iter().all(|c| c.abs() <= alevels), "{}", graph.name);
        }
    }

    #[test]
    fn batched_execution_is_bit_identical_to_sequential() {
        let graph = zoo::tiny_cnn();
        let params = GraphParameters::seeded(&graph, 1);
        let (core, mapping) = compile(&graph, 2);
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let inputs = samples(&graph, 8);
        let batched = exec.run_batch(&inputs).unwrap();
        let sequential: Vec<Vec<f32>> = inputs.iter().map(|x| exec.run(x).unwrap()).collect();
        assert_eq!(batched, sequential);
        // And chunked halves agree with the full batch (thread-count proxy).
        let (a, b) = inputs.split_at(3);
        let mut chunked = exec.run_batch(a).unwrap();
        chunked.extend(exec.run_batch(b).unwrap());
        assert_eq!(batched, chunked);
    }

    #[test]
    fn arena_reuse_across_many_batches_matches_fresh_binds() {
        // Binding once and serving many batches through one arena must be
        // bit-identical to a fresh bind per sample: nothing may leak between
        // batches through the recycled buffers.
        let graph = zoo::tiny_cnn();
        let params = GraphParameters::seeded(&graph, 13);
        let (core, mapping) = compile(&graph, 2);
        let inputs = samples(&graph, 6);
        for precision in three_precisions(&graph, &params, &inputs) {
            let bound_once = Executor::bind(&graph, &params, &core, &mapping, &precision).unwrap();
            let mut arena = bound_once.arena();
            let mut outputs = Vec::new();
            // Batches of varying size and content, revisiting samples so a
            // stale buffer from a previous batch would be caught.
            let batches: [&[Vec<f32>]; 4] =
                [&inputs[0..1], &inputs[1..4], &inputs[0..6], &inputs[2..3]];
            for batch in batches {
                bound_once
                    .run_batch_into(batch, &mut arena, &mut outputs)
                    .unwrap();
                assert_eq!(outputs.len(), batch.len());
                for (x, got) in batch.iter().zip(&outputs) {
                    let fresh = Executor::bind(&graph, &params, &core, &mapping, &precision)
                        .unwrap()
                        .run(x)
                        .unwrap();
                    assert_eq!(got, &fresh, "arena reuse diverged from a fresh bind");
                }
            }
        }
    }

    #[test]
    fn one_arena_can_serve_different_executors() {
        // Every run re-zeroes the slab prefix it needs, so even migrating
        // an arena between models cannot leak state.
        let mlp = zoo::tiny_mlp();
        let cnn = zoo::tiny_cnn();
        let mlp_params = GraphParameters::seeded(&mlp, 1);
        let cnn_params = GraphParameters::seeded(&cnn, 2);
        let (mlp_core, mlp_map) = compile(&mlp, 1);
        let (cnn_core, cnn_map) = compile(&cnn, 1);
        let a = Executor::bind(&mlp, &mlp_params, &mlp_core, &mlp_map, &Precision::Float).unwrap();
        let b = Executor::bind(&cnn, &cnn_params, &cnn_core, &cnn_map, &Precision::Float).unwrap();
        let xa = &samples(&mlp, 1)[0];
        let xb = &samples(&cnn, 1)[0];
        let mut arena = ExecArena::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            a.run_into(xa, &mut arena, &mut out).unwrap();
            assert_eq!(out, a.run(xa).unwrap());
            b.run_into(xb, &mut arena, &mut out).unwrap();
            assert_eq!(out, b.run(xb).unwrap());
        }
    }

    #[test]
    fn failed_batches_truncate_outputs_instead_of_exposing_stale_results() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 5);
        let (core, mapping) = compile(&graph, 1);
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let mut arena = exec.arena();
        let mut outputs = Vec::new();
        let good = samples(&graph, 3);
        exec.run_batch_into(&good, &mut arena, &mut outputs)
            .unwrap();
        assert_eq!(outputs.len(), 3);
        // Second batch fails on its middle sample: the outputs must shrink
        // to the completed prefix, not keep batch 1's results in the tail.
        let mixed = vec![good[0].clone(), vec![0.0; 2], good[2].clone()];
        let err = exec
            .run_batch_into(&mixed, &mut arena, &mut outputs)
            .unwrap_err();
        assert!(matches!(err, ExecError::ModelMismatch { .. }), "{err}");
        assert_eq!(outputs.len(), 1, "only the completed prefix survives");
        assert_eq!(outputs[0], exec.run(&good[0]).unwrap());
    }

    #[test]
    fn run_into_reports_wrong_input_lengths_and_leaves_out_cleared() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 5);
        let (core, mapping) = compile(&graph, 1);
        let exec = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap();
        let mut arena = exec.arena();
        let mut out = vec![1.0f32];
        let err = exec.run_into(&[0.0; 3], &mut arena, &mut out).unwrap_err();
        assert!(matches!(err, ExecError::ModelMismatch { .. }), "{err}");
        assert!(out.is_empty(), "failed runs must not leave stale outputs");
        // And the arena stays usable afterwards.
        let x = &samples(&graph, 1)[0];
        exec.run_into(x, &mut arena, &mut out).unwrap();
        assert_eq!(out, exec.run(x).unwrap());
    }
}
