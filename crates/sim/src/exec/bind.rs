//! Binding: compiled artifacts + parameters → tile programs → bytecode.
//!
//! See the [module docs](super) for where binding sits; this file owns the
//! resolution of every scheduled core-op group into a [`TileProgram`], the
//! per-precision weight realization, and the hand-off to [`crate::lower`].

use super::verify::{verify_allocation, verify_schedule_order, verify_transport};
use super::{
    mismatch, traced, ConvGeom, ExecError, Executor, NodeInfo, PoolGeom, Precision, ProgramKind,
    TileProgram,
};
use crate::lower::{self, LowerCtx};
use fpsa_mapper::Mapping;
use fpsa_nn::quant::{quantize_code, Quantizer};
use fpsa_nn::reference::{self, QuantizationPlan};
use fpsa_nn::seeds;
use fpsa_nn::{ComputationalGraph, GraphParameters, NodeId, Operator, TensorShape};
use fpsa_synthesis::{weights, CoreOpGraph, CoreOpKind, GroupId, Neighbor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

impl Executor {
    /// Bind compiled artifacts to numeric parameters, realizing tile weights
    /// in the chosen precision and verifying the allocation, schedule order
    /// and net transport.
    ///
    /// # Errors
    ///
    /// * [`ExecError::Graph`] — malformed source graph;
    /// * [`ExecError::Unsupported`] — constructs without numeric semantics
    ///   (grouped convolutions share one weight tile across channel groups),
    ///   or a [`Precision::Integer`] plan outside the integer datapath:
    ///   weight codes wider than the `i8` slab, or a deepest tile whose
    ///   `rows · weight_levels · activation_levels` could overflow the MAC
    ///   kernels' `i32` lanes; or a float-domain weight that realizes as
    ///   `±inf` / `NaN` (the kernels' zero-term skipping is exact only over
    ///   finite weights);
    /// * [`ExecError::ModelMismatch`] — artifacts disagree with the graph or
    ///   parameters;
    /// * [`ExecError::ScheduleOrder`] / [`ExecError::MissingTransport`] —
    ///   invalid compiled artifacts.
    pub fn bind(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        core: &CoreOpGraph,
        mapping: &Mapping,
        precision: &Precision,
    ) -> Result<Executor, ExecError> {
        Self::bind_with_noise_offset(graph, params, core, mapping, precision, 0)
    }

    /// [`Executor::bind`] with the group index of [`Precision::Noisy`]'s
    /// per-PE seed derivation shifted by `noise_group_offset`.
    ///
    /// This is the executor-chaining hook of the multi-fabric sharder: each
    /// pipeline stage re-synthesizes its subgraph, so its group ids restart
    /// at zero, but the physical crossbars it models are the *same* ones the
    /// unsharded compilation would program. Binding stage `k` with the
    /// number of groups synthesized for earlier stages as the offset makes
    /// every PE draw exactly the noise realization it draws in the unsharded
    /// bind (`seeds::pe_index(offset + local_gid, dup)`), which is what lets
    /// the sharded determinism suite demand bit-identical Noisy outputs.
    /// The offset is ignored by the noise-free precisions.
    ///
    /// # Errors
    ///
    /// Mirrors [`Executor::bind`].
    pub fn bind_with_noise_offset(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        core: &CoreOpGraph,
        mapping: &Mapping,
        precision: &Precision,
        noise_group_offset: usize,
    ) -> Result<Executor, ExecError> {
        traced("bind", &[("groups", core.len() as i64)], || {
            Self::bind_inner(graph, params, core, mapping, precision, noise_group_offset)
        })
    }

    /// The untraced body of [`Executor::bind_with_noise_offset`].
    fn bind_inner(
        graph: &ComputationalGraph,
        params: &GraphParameters,
        core: &CoreOpGraph,
        mapping: &Mapping,
        precision: &Precision,
        noise_group_offset: usize,
    ) -> Result<Executor, ExecError> {
        let shapes = graph.infer_shapes()?;
        let groups = core.len();
        if core
            .edges()
            .iter()
            .any(|&(u, v)| u >= groups || v >= groups)
        {
            return Err(mismatch(
                "a core-graph edge names a group outside the graph",
            ));
        }
        verify_allocation(core, mapping)?;
        let adjacency = core.adjacency();
        // Per core-graph edge: the buffered edge of the schedule that claims
        // it, or `Adjacency::UNMATCHED` for a direct PE→PE edge.
        let buffered = adjacency.match_edges(&mapping.schedule.buffered_edges);
        verify_schedule_order(core, mapping, &buffered)?;
        verify_transport(core, &adjacency, mapping, &buffered)?;

        let plan = match precision {
            Precision::Integer(plan) => {
                if plan.weight_range.len() != graph.len()
                    || plan.activation_range.len() != graph.len()
                {
                    return Err(mismatch("quantization plan covers a different graph"));
                }
                check_integer_datapath(plan, core)?;
                Some(plan)
            }
            _ => None,
        };

        // Per-node geometry for every node that produced groups.
        let mut nodes: Vec<Option<NodeInfo>> = vec![None; graph.len()];
        for g in core.groups() {
            let node_id = g.source_node;
            let node = graph.node(node_id)?;
            if nodes[node_id].is_some() {
                continue;
            }
            let out_shape = *shapes
                .get(&node_id)
                .ok_or_else(|| mismatch("missing shape"))?;
            let view = reference::resolve_view(graph, &shapes, &node.inputs)?;
            let (h, w) = out_shape.spatial();
            let positions = match out_shape {
                TensorShape::Features(_) => 1,
                TensorShape::Chw { .. } => h * w,
            };
            let (gather_step, out_step, weight_step) = match plan {
                Some(p) => (
                    p.gather_step(&view),
                    p.activation_step(node_id),
                    p.weight_step(node_id),
                ),
                None => (1.0, 1.0, 1.0),
            };
            nodes[node_id] = Some(NodeInfo {
                view,
                elements: out_shape.elements(),
                positions,
                gather_step,
                out_step,
                weight_step,
            });
        }

        // Which nodes keep their VMM tiles as partials (a reduction follows).
        let reduced_nodes: HashSet<NodeId> = core
            .groups()
            .iter()
            .filter(|g| g.kind == CoreOpKind::Reduction)
            .map(|g| g.source_node)
            .collect();

        // Per-node |w|max cache: scanning a layer's weights once per *tile*
        // is quadratic (VGG16's fc6 alone is 25k tiles × 102M weights), and
        // only the quantizing precisions need the range at all.
        let mut weight_ranges: HashMap<NodeId, f32> = HashMap::new();
        let mut wslab_f: Vec<f32> = Vec::new();
        let mut wslab_q: Vec<i8> = Vec::new();
        let mut programs = Vec::with_capacity(core.len());
        let order = schedule_order(mapping);
        for &gid in &order {
            let g = &core.groups()[gid];
            let node = graph.node(g.source_node)?;
            let info = nodes[g.source_node]
                .as_ref()
                .ok_or_else(|| mismatch(format!("group {} has no node info", g.name)))?;
            // Report grouped convolutions as the documented unsupported
            // construct before any structural cross-check can trip over
            // their doubled reuse degree with a less actionable error.
            if let Operator::Conv2d { groups, .. } = &node.op {
                if *groups != 1 && g.kind == CoreOpKind::Vmm {
                    return Err(ExecError::Unsupported {
                        reason: format!(
                            "grouped convolution {} shares one weight tile across {} channel groups",
                            node.name, groups
                        ),
                    });
                }
            }
            if g.reuse_degree != info.positions as u64 {
                return Err(mismatch(format!(
                    "group {} reuse degree {} != node output positions {}",
                    g.name, g.reuse_degree, info.positions
                )));
            }
            let duplicates = mapping.allocation.per_group[gid];
            // Spatial extent of the node's (first) input: what the conv and
            // pooling geometries gather from.
            let input_spatial = || match node.inputs.first() {
                Some(in_node) => Ok(shapes[in_node].spatial()),
                None => Err(mismatch(format!("{} has no input", node.name))),
            };
            // Functional output width when it differs from the structural
            // tile width (max-pool stage-1 constructs).
            let mut functional_cols: Option<usize> = None;

            let (kind, writes_output, has_weights) = match (g.kind, &node.op) {
                (CoreOpKind::Vmm, Operator::Linear { .. }) => (
                    ProgramKind::Dense,
                    !reduced_nodes.contains(&g.source_node),
                    true,
                ),
                (
                    CoreOpKind::Vmm,
                    Operator::Conv2d {
                        kernel,
                        stride,
                        padding,
                        ..
                    },
                ) => {
                    let (ih, iw) = input_spatial()?;
                    (
                        ProgramKind::Conv(ConvGeom {
                            kernel: *kernel,
                            stride: *stride,
                            padding: *padding,
                            ih,
                            iw,
                        }),
                        !reduced_nodes.contains(&g.source_node),
                        true,
                    )
                }
                (CoreOpKind::Reduction, _) => {
                    let mut sources = Vec::new();
                    for pred in adjacency.predecessors(gid).iter().map(Neighbor::group) {
                        let p = &core.groups()[pred];
                        if p.source_node != g.source_node {
                            return Err(mismatch(format!(
                                "reduction {} fed by foreign group {}",
                                g.name, p.name
                            )));
                        }
                        let slice = g
                            .col_offset
                            .checked_sub(p.col_offset)
                            .filter(|s| s + g.cols <= p.cols)
                            .ok_or_else(|| {
                                mismatch(format!(
                                    "reduction {} does not slice its partial tile {}",
                                    g.name, p.name
                                ))
                            })?;
                        sources.push((pred, p.cols, slice));
                    }
                    if sources.is_empty() {
                        return Err(mismatch(format!("reduction {} has no sources", g.name)));
                    }
                    (ProgramKind::Reduce(sources), true, false)
                }
                (CoreOpKind::Pooling, Operator::AvgPool2d { kernel, stride }) => {
                    let (ih, iw) = input_spatial()?;
                    (
                        ProgramKind::AvgPool(PoolGeom {
                            kernel: *kernel,
                            stride: *stride,
                            ih,
                            iw,
                        }),
                        true,
                        false,
                    )
                }
                (CoreOpKind::Pooling, Operator::GlobalAvgPool) => {
                    let (ih, iw) = input_spatial()?;
                    (ProgramKind::GlobalAvgPool { window: ih * iw }, true, false)
                }
                (CoreOpKind::Pooling, Operator::MaxPool2d { kernel, stride }) => {
                    // Stage 2 tiles have a same-node pooling predecessor.
                    let stage1 = adjacency
                        .predecessors(gid)
                        .iter()
                        .map(Neighbor::group)
                        .find(|&p| core.groups()[p].source_node == g.source_node);
                    match stage1 {
                        Some(source) => (ProgramKind::MaxStage2 { source }, true, false),
                        None => {
                            // The construct's structural width is 2·block
                            // (the approximation MLP), but its functional
                            // output is the paired stage-2 tile's block of
                            // window maxima.
                            let stage2 = adjacency
                                .successors(gid)
                                .iter()
                                .map(Neighbor::group)
                                .find(|&s| core.groups()[s].source_node == g.source_node)
                                .ok_or_else(|| {
                                    mismatch(format!(
                                        "max-pool stage-1 tile {} has no stage-2 consumer",
                                        g.name
                                    ))
                                })?;
                            functional_cols = Some(core.groups()[stage2].cols);
                            let (ih, iw) = input_spatial()?;
                            (
                                ProgramKind::MaxStage1(PoolGeom {
                                    kernel: *kernel,
                                    stride: *stride,
                                    ih,
                                    iw,
                                }),
                                false,
                                false,
                            )
                        }
                    }
                }
                (CoreOpKind::Eltwise, Operator::Add) => {
                    let mut views = Vec::new();
                    for &input in &node.inputs {
                        views.push(reference::resolve_view(graph, &shapes, &[input])?);
                    }
                    (ProgramKind::Eltwise(views), true, false)
                }
                (kind, op) => {
                    return Err(mismatch(format!(
                        "group {} of kind {:?} does not match operator {}",
                        g.name,
                        kind,
                        op.mnemonic()
                    )));
                }
            };

            // Realize the tile's weight matrix per precision.
            let (weights_f, weights_q) = if has_weights {
                let layer = params
                    .weights(g.source_node)
                    .ok_or_else(|| mismatch(format!("node {} has no parameters", node.name)))?;
                let input_dim = weights::weight_input_dim(&node.op)
                    .ok_or_else(|| mismatch("weighted group on weight-free operator"))?;
                if !weights::tile_fits(g, layer, input_dim) {
                    return Err(mismatch(format!(
                        "tile {} exceeds the parameters of node {}",
                        g.name, node.name
                    )));
                }
                let exact = weights::vmm_tile_matrix(g, layer, input_dim);
                // Fallible: `Quantizer::new` asserts a finite range.
                let mut range = || {
                    let range = *weight_ranges
                        .entry(g.source_node)
                        .or_insert_with(|| params.max_abs_weight(g.source_node).max(1e-6));
                    if range.is_finite() {
                        Ok(range)
                    } else {
                        Err(non_finite_weight(&g.name, &node.name))
                    }
                };
                match precision {
                    Precision::Float => (vec![exact], Vec::new()),
                    Precision::Integer(plan) => {
                        let wstep = plan.weight_step(g.source_node);
                        let wlevels = plan.weight_levels();
                        let codes = exact
                            .iter()
                            .map(|&w| {
                                i8::try_from(quantize_code(f64::from(w), wstep, wlevels))
                                    .expect("codes clamp to ±weight_levels, checked to fit i8")
                            })
                            .collect();
                        // Integer execution reads only the codes; keeping
                        // the float tiles too would double the bound
                        // model's weight memory for nothing.
                        (vec![Vec::new()], codes)
                    }
                    Precision::Noisy {
                        scheme,
                        variation,
                        seed,
                    } => {
                        let range = range()?;
                        let q = Quantizer::weights_8bit(range);
                        let per_dup = (0..duplicates)
                            .map(|dup| {
                                let mut rng = StdRng::seed_from_u64(seeds::derive(
                                    *seed,
                                    seeds::STREAM_PE_NOISE,
                                    seeds::pe_index(noise_group_offset + gid, dup),
                                ));
                                exact
                                    .iter()
                                    .map(|&w| {
                                        let rt = q.round_trip(w);
                                        let normalized = f64::from(rt) / f64::from(range);
                                        let realized = scheme.realize_signed_weight(
                                            normalized, *variation, &mut rng,
                                        );
                                        (realized * f64::from(range)) as f32
                                    })
                                    .collect()
                            })
                            .collect();
                        (per_dup, Vec::new())
                    }
                }
            } else {
                (vec![Vec::new()], Vec::new())
            };

            // The dispatch loop drops `0 · w` terms and adds others as
            // `±0.0` (sample groups, position blocks); the two agree only
            // while every realized weight is finite.
            if weights_f.iter().flatten().any(|w| !w.is_finite()) {
                return Err(non_finite_weight(&g.name, &node.name));
            }
            // Pack the realizations into the shared weight slabs; the program
            // keeps only `(offset, len)` spans.
            let w_f = weights_f
                .iter()
                .map(|tile| pack(&mut wslab_f, tile))
                .collect::<Result<Vec<_>, _>>()?;
            let w_q = pack(&mut wslab_q, &weights_q)?;

            programs.push(TileProgram {
                group: gid,
                node: g.source_node,
                kind,
                relu: g.relu,
                writes_output,
                positions: info.positions,
                cols: functional_cols.unwrap_or(g.cols),
                col_offset: g.col_offset,
                rows: g.rows,
                row_offset: g.row_offset,
                w_f,
                w_q,
                duplicates,
            });
        }

        let outputs = graph.outputs();
        let [output] = outputs[..] else {
            return Err(mismatch(format!(
                "execution needs one output node, got {outputs:?}"
            )));
        };
        let output_view = reference::resolve_view(graph, &shapes, &[output])?;
        let input_nodes: Vec<(NodeId, usize)> = graph
            .nodes()
            .iter()
            .filter_map(|n| match n.op {
                Operator::Input { shape } => Some((n.id, shape.elements())),
                _ => None,
            })
            .collect();
        let [input] = input_nodes[..] else {
            return Err(mismatch(format!(
                "execution needs one input node, got {}",
                input_nodes.len()
            )));
        };
        let (node_steps, activation_levels): (Vec<f64>, i64) = match plan {
            Some(p) => (
                (0..graph.len()).map(|n| p.activation_step(n)).collect(),
                p.activation_levels(),
            ),
            None => (vec![1.0; graph.len()], 0),
        };

        // Lower the bound programs into the bytecode stream the runs
        // dispatch over (see `crate::lower`); the weight slabs move into the
        // lowered artifact.
        let mut lowered = lower::lower(LowerCtx {
            programs: &programs,
            nodes: &nodes,
            input,
            node_steps: &node_steps,
            integer: plan.is_some(),
            wslab_f,
            wslab_q,
        })?;
        // Pick the MAC kernel family once per bind; the dispatch loop just
        // matches on the stored selector.
        lowered.simd = crate::kernels::Simd::detect();
        lowered.alevels = activation_levels;
        let outputs = output_view
            .iter()
            .map(|segment| {
                lowered.node_regions[segment.source]
                    .map(|region| (segment.source, region, node_steps[segment.source]))
                    .ok_or_else(|| mismatch("output node never executed"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Executor {
            programs,
            nodes,
            input: Some(input),
            precision_integer: plan.is_some(),
            node_steps,
            lowered,
            outputs,
        })
    }
}

/// The integer datapath's contract with a plan, checked before anything is
/// realized: weight codes must fit the one-byte slab, and the deepest VMM
/// tile must not be able to overflow an `i32` accumulator lane of
/// [`crate::kernels::mac_i`] — `rows · weight_levels · activation_levels ≤
/// i32::MAX` bounds every partial sum, since weight codes are clamped to
/// ±`weight_levels` here and activation codes to ±`activation_levels` by
/// every value-slab writer. The default 8/6-bit plan leaves ~545k rows of
/// headroom over a 256-row crossbar.
fn check_integer_datapath(plan: &QuantizationPlan, core: &CoreOpGraph) -> Result<(), ExecError> {
    let unsupported = |reason: String| Err(ExecError::Unsupported { reason });
    if !(2..=8).contains(&plan.weight_bits) {
        return unsupported(format!(
            "{}-bit weight codes do not fit the integer datapath's i8 weight slab (2..=8 bits)",
            plan.weight_bits
        ));
    }
    if !(2..=32).contains(&plan.activation_bits) {
        return unsupported(format!(
            "{}-bit activation codes do not fit the integer datapath's i32 lanes (2..=32 bits)",
            plan.activation_bits
        ));
    }
    let rows = core
        .groups()
        .iter()
        .filter(|g| g.kind == CoreOpKind::Vmm)
        .map(|g| g.rows)
        .max()
        .unwrap_or(0);
    let (wlevels, alevels) = (plan.weight_levels(), plan.activation_levels());
    if rows as i128 * i128::from(wlevels * alevels) > i128::from(i32::MAX) {
        return unsupported(format!(
            "a {rows}-row tile at ±{wlevels} weight and ±{alevels} activation codes \
             can overflow the integer datapath's i32 accumulator lanes"
        ));
    }
    Ok(())
}

fn non_finite_weight(tile: &str, node: &str) -> ExecError {
    ExecError::Unsupported {
        reason: format!("tile {tile} of node {node} realizes a non-finite weight"),
    }
}

/// Append one realized tile to a weight slab, returning its `(offset, len)`
/// span.
fn pack<T: Copy>(slab: &mut Vec<T>, tile: &[T]) -> Result<(u32, u32), ExecError> {
    let off = u32::try_from(slab.len()).map_err(|_| mismatch("weight slab exceeds u32 range"))?;
    let len = u32::try_from(tile.len()).map_err(|_| mismatch("weight tile exceeds u32 range"))?;
    slab.extend_from_slice(tile);
    Ok((off, len))
}

/// Tile execution order: schedule entries sorted by start cycle (ties broken
/// by group id, though a valid schedule has none across dependencies).
fn schedule_order(mapping: &Mapping) -> Vec<GroupId> {
    let mut order: Vec<GroupId> = mapping.schedule.entries.iter().map(|e| e.group).collect();
    order.sort_by_key(|&g| {
        (
            mapping
                .schedule
                .entry(g)
                .map(|e| e.start_cycle)
                .unwrap_or(0),
            g,
        )
    });
    order
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{compile, max_abs_diff, samples};
    use super::*;
    use fpsa_device::variation::{CellVariation, WeightScheme};
    use fpsa_nn::reference::Reference;
    use fpsa_nn::zoo;

    #[test]
    fn noisy_execution_is_seed_deterministic_and_ideal_noise_is_exact() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 2);
        let (core, mapping) = compile(&graph, 1);
        let noisy = |seed: u64, variation: CellVariation| {
            Executor::bind(
                &graph,
                &params,
                &core,
                &mapping,
                &Precision::Noisy {
                    scheme: WeightScheme::fpsa_add(),
                    variation,
                    seed,
                },
            )
            .unwrap()
        };
        let x = &samples(&graph, 1)[0];
        let a = noisy(9, CellVariation::measured()).run(x).unwrap();
        let b = noisy(9, CellVariation::measured()).run(x).unwrap();
        let c = noisy(10, CellVariation::measured()).run(x).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same realization");
        assert_ne!(a, c, "different seeds must program different cells");
        // Ideal devices realize the scheme's noiseless decode: outputs stay
        // within the quantization-error envelope of the float reference.
        let ideal = noisy(0, CellVariation::ideal()).run(x).unwrap();
        let reference = Reference::new(&graph, &params).unwrap();
        let diff = max_abs_diff(&ideal, &reference.logits(x).unwrap());
        assert!(diff < 0.05, "ideal-noise diff {diff} too large");
    }

    #[test]
    fn integer_bind_honours_the_plans_bit_widths_or_rejects_them() {
        let graph = zoo::tiny_cnn();
        let params = GraphParameters::seeded(&graph, 17);
        let inputs = samples(&graph, 3);
        let calibrated = QuantizationPlan::calibrate(&graph, &params, &inputs).unwrap();
        let (core, mapping) = compile(&graph, 1);
        let bind = |weight_bits: u32, activation_bits: u32| {
            let plan = QuantizationPlan {
                weight_bits,
                activation_bits,
                ..calibrated.clone()
            };
            let precision = Precision::Integer(plan.clone());
            let bound = Executor::bind(&graph, &params, &core, &mapping, &precision);
            (bound, plan)
        };

        // The weight clamp is `plan.weight_levels()`, like the reference's —
        // not a hard-coded 8-bit ±127, which a narrower plan never reaches
        // and a wider one silently saturates at on a step sized for more.
        let (exec, plan) = bind(4, 6);
        let exec = exec.unwrap();
        let reference = Reference::new(&graph, &params).unwrap();
        for x in &inputs {
            assert_eq!(
                exec.run_codes(x).unwrap(),
                reference.quantized_logits(&plan, x).unwrap()
            );
            exec.run_checked(x).unwrap();
        }

        // Outside the datapath: 10-bit codes (±511) do not fit the i8 slab;
        // 24-bit activations (±8.4M) times ±127 overflow an i32 lane within
        // three rows; 1-bit plans have no levels at all.
        for (weight_bits, activation_bits) in [(10, 6), (9, 6), (8, 24), (8, 40), (1, 6), (8, 0)] {
            let err = bind(weight_bits, activation_bits).0.unwrap_err();
            assert!(
                matches!(err, ExecError::Unsupported { .. }),
                "{weight_bits}/{activation_bits} bits: {err}"
            );
        }
        // The widest plan the lanes do admit binds: ±127 · ±32767 · rows.
        bind(8, 16).0.unwrap();
    }

    #[test]
    fn a_core_graph_edge_outside_the_graph_is_a_typed_mismatch() {
        let graph = zoo::tiny_mlp();
        let params = GraphParameters::seeded(&graph, 0);
        let (mut core, mapping) = compile(&graph, 1);
        core.add_edge(0, core.len());
        let err = Executor::bind(&graph, &params, &core, &mapping, &Precision::Float).unwrap_err();
        assert!(matches!(err, ExecError::ModelMismatch { .. }), "{err}");
    }
}
