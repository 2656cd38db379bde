//! The tile-program oracle: the bit-exact reference the bytecode stream is
//! differentially checked against.
//!
//! [`Oracle`] is a function from what binding produced — the tile programs
//! in schedule order, their per-node geometry and the shared weight slabs —
//! and one input sample to one buffer per graph node. It interprets each
//! program the way the hardware schedule reads: gather the node's logical
//! input at the first tile that needs it, accumulate every output position
//! in ascending row order, scatter into the node's activation buffer (or a
//! partial tile awaiting its reduction). It shares no code with
//! [`crate::lower`] / [`crate::bytecode`], performs no sparsity skipping and
//! selects Noisy duplicates per position directly from the programs, which
//! is what makes agreement with the stream evidence rather than tautology.
//!
//! The Dense/Conv inner loops run column-major over the accumulator row
//! (`for r { for c { acc[c] += w[r][c] * x[r] } }`): each output's f64/i64
//! accumulator receives its terms in exactly the `r` order of the classic
//! `for c { for r { .. } }` nesting — the order the kernels must preserve.
//!
//! Nothing here is on a hot path, so every call owns its scratch as plain
//! `Vec`s.

use super::{
    mismatch, side_gather_step, ConvGeom, ExecError, NodeInfo, PoolGeom, ProgramKind, TileProgram,
};
use fpsa_nn::quant::{quantize_code, rescale_code};
use fpsa_nn::reference::{pooled_window_real, requantize_mac, InputView};
use fpsa_nn::NodeId;

/// One buffer per graph node (or per group); `None` until first written.
type Buffers<T> = Vec<Option<Vec<T>>>;

/// Everything the oracle reads, borrowed from a bound executor.
pub(super) struct Oracle<'a> {
    pub programs: &'a [TileProgram],
    pub nodes: &'a [Option<NodeInfo>],
    pub input_node: NodeId,
    /// Integer-mode activation steps per node (1.0 placeholders otherwise).
    pub node_steps: &'a [f64],
    pub activation_levels: i64,
    pub wslab_f: &'a [f32],
    pub wslab_q: &'a [i8],
}

impl Oracle<'_> {
    /// Float-domain execution of all tile programs in schedule order.
    pub fn run_float(&self, input: &[f32]) -> Result<Buffers<f32>, ExecError> {
        let mut nodes: Buffers<f32> = vec![None; self.nodes.len()];
        let mut gathers: Buffers<f32> = vec![None; self.nodes.len()];
        let mut partials: Buffers<f64> = vec![None; self.group_slots()];
        let mut acc = vec![0.0f64; self.max_cols()];
        nodes[self.input_node] = Some(input.to_vec());

        for prog in self.programs {
            let info = self.nodes[prog.node].as_ref().expect("bound node info");
            if prog.kind.gathers() && gathers[prog.node].is_none() {
                gathers[prog.node] = Some(gather(&nodes, &info.view, |_, v| v)?);
            }
            claim(prog, info, &mut nodes, &mut partials);
            // Element-wise tiles read each Add side once per program.
            let sides = match &prog.kind {
                ProgramKind::Eltwise(views) => views
                    .iter()
                    .map(|view| gather(&nodes, view, |_, v| v))
                    .collect::<Result<Vec<_>, _>>()?,
                _ => Vec::new(),
            };
            let x = gathers[prog.node].as_deref().unwrap_or_default();
            let positions = prog.positions;
            let acc = &mut acc[..prog.cols];
            for p in 0..positions {
                match &prog.kind {
                    ProgramKind::Dense | ProgramKind::Conv(_) => {
                        // The realization of the duplicate this position
                        // executes on (positions round-robin over duplicates).
                        let dup = (p as u64 % prog.duplicates) as usize;
                        let (off, len) = prog.w_f[dup % prog.w_f.len()];
                        let w = &self.wslab_f[off as usize..(off + len) as usize];
                        acc.fill(0.0);
                        mac(prog, p, x, w, acc, |a, wv, xv| {
                            *a += f64::from(wv) * f64::from(xv)
                        });
                    }
                    ProgramKind::Reduce(sources) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let mut sum = 0.0f64;
                            for &(pred, pred_cols, slice) in sources {
                                sum += partial(&partials, pred)?[p * pred_cols + slice + c];
                            }
                            *a = sum;
                        }
                    }
                    ProgramKind::AvgPool(geom) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let mut sum = 0.0f64;
                            for i in pool_window(geom, prog.col_offset + c, p) {
                                sum += f64::from(x[i]);
                            }
                            *a = sum / (geom.kernel * geom.kernel) as f64;
                        }
                    }
                    ProgramKind::GlobalAvgPool { window } => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let sum: f64 = (0..*window)
                                .map(|i| f64::from(x[channel * window + i]))
                                .sum();
                            *a = sum / *window as f64;
                        }
                    }
                    ProgramKind::MaxStage1(geom) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            *a = pool_window(geom, prog.col_offset + c, p)
                                .fold(f64::NEG_INFINITY, |max, i| max.max(f64::from(x[i])));
                        }
                    }
                    ProgramKind::MaxStage2 { source } => {
                        let stage1 = partial(&partials, *source)?;
                        acc.copy_from_slice(&stage1[p * prog.cols..(p + 1) * prog.cols]);
                    }
                    ProgramKind::Eltwise(_) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut sum = 0.0f64;
                            for side in &sides {
                                sum += f64::from(side[channel * positions + p]);
                            }
                            *a = sum;
                        }
                    }
                }
                // Fused ReLU + f32 cast at output boundaries.
                scatter(prog, p, acc, &mut nodes, &mut partials, |a| {
                    (if prog.relu { a.max(0.0) } else { a }) as f32
                });
            }
        }
        Ok(nodes)
    }

    /// Integer-domain execution: every rescale and requantization is the
    /// quantized reference's own composition, so codes match it bit for bit.
    pub fn run_integer(&self, input: &[f32]) -> Result<Buffers<i64>, ExecError> {
        let (steps, alevels) = (self.node_steps, self.activation_levels);
        let mut nodes: Buffers<i64> = vec![None; self.nodes.len()];
        let mut gathers: Buffers<i64> = vec![None; self.nodes.len()];
        let mut partials: Buffers<i64> = vec![None; self.group_slots()];
        let mut acc = vec![0i64; self.max_cols()];
        let in_step = steps[self.input_node];
        let codes = input
            .iter()
            .map(|&v| quantize_code(f64::from(v), in_step, alevels));
        nodes[self.input_node] = Some(codes.collect());

        for prog in self.programs {
            let info = self.nodes[prog.node].as_ref().expect("bound node info");
            let (gstep, ostep) = (info.gather_step, info.out_step);
            if prog.kind.gathers() && gathers[prog.node].is_none() {
                // The node's logical input codes at the view's gather step —
                // exactly the reference's rule.
                gathers[prog.node] = Some(gather(&nodes, &info.view, |src, c| {
                    rescale_code(c, steps[src], gstep, alevels)
                })?);
            }
            claim(prog, info, &mut nodes, &mut partials);
            // Element-wise tiles: gather each Add side once, already
            // rescaled from the side's own gather step to the node's —
            // the reference's exact double-rescale composition.
            let sides = match &prog.kind {
                ProgramKind::Eltwise(views) => views
                    .iter()
                    .map(|view| {
                        let sstep = side_gather_step(steps, view);
                        gather(&nodes, view, |src, c| {
                            let gathered = rescale_code(c, steps[src], sstep, alevels);
                            rescale_code(gathered, sstep, gstep, alevels)
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => Vec::new(),
            };
            // MAC-producing tiles requantize on store; the other kinds
            // compute their final code (or raw partial value) directly.
            let mac_store = matches!(
                prog.kind,
                ProgramKind::Dense | ProgramKind::Conv(_) | ProgramKind::Reduce(_)
            );
            let x = gathers[prog.node].as_deref().unwrap_or_default();
            let positions = prog.positions;
            let acc = &mut acc[..prog.cols];
            for p in 0..positions {
                match &prog.kind {
                    ProgramKind::Dense | ProgramKind::Conv(_) => {
                        // Codes are shared across duplicates. Widened per
                        // term and accumulated in i64: the independent
                        // check on the kernels' i32 lanes.
                        let (off, len) = prog.w_q;
                        let wq = &self.wslab_q[off as usize..(off + len) as usize];
                        acc.fill(0);
                        mac(prog, p, x, wq, acc, |a, wv, xv| *a += i64::from(wv) * xv);
                    }
                    ProgramKind::Reduce(sources) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let mut sum = 0i64;
                            for &(pred, pred_cols, slice) in sources {
                                sum += partial(&partials, pred)?[p * pred_cols + slice + c];
                            }
                            *a = sum;
                        }
                    }
                    ProgramKind::AvgPool(geom) => {
                        let ow = out_w_pool(geom);
                        for (c, a) in acc.iter_mut().enumerate() {
                            let real = pooled_window_real(
                                x,
                                prog.col_offset + c,
                                p / ow,
                                p % ow,
                                geom.kernel,
                                geom.stride,
                                geom.ih,
                                geom.iw,
                                gstep,
                                false,
                            );
                            *a = quantize_code(real, ostep, alevels);
                        }
                    }
                    ProgramKind::GlobalAvgPool { window } => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let sum: i64 = (0..*window).map(|i| x[channel * window + i]).sum();
                            let real = sum as f64 * gstep / *window as f64;
                            *a = quantize_code(real, ostep, alevels);
                        }
                    }
                    ProgramKind::MaxStage1(geom) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            *a = pool_window(geom, prog.col_offset + c, p)
                                .fold(i64::MIN, |max, i| max.max(x[i]));
                        }
                    }
                    ProgramKind::MaxStage2 { source } => {
                        let stage1 = partial(&partials, *source)?;
                        for (c, a) in acc.iter_mut().enumerate() {
                            // Identical composition to the reference's
                            // max-pool path: real value, then requantize.
                            let real = stage1[p * prog.cols + c] as f64 * gstep;
                            *a = quantize_code(real, ostep, alevels);
                        }
                    }
                    ProgramKind::Eltwise(_) => {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let channel = prog.col_offset + c;
                            let mut sum = 0i64;
                            for side in &sides {
                                sum += side[channel * positions + p];
                            }
                            let sum = if prog.relu { sum.max(0) } else { sum };
                            *a = rescale_code(sum, gstep, ostep, alevels);
                        }
                    }
                }
                // Partial tiles keep the raw accumulation (MAC partials
                // awaiting a reduction, stage-1 window maxima).
                scatter(prog, p, acc, &mut nodes, &mut partials, |a| {
                    if mac_store {
                        requantize_mac(a, info.weight_step, gstep, prog.relu, ostep, alevels)
                    } else {
                        a
                    }
                });
            }
        }
        Ok(nodes)
    }

    /// Partial-tile slots: one per group id the programs name.
    fn group_slots(&self) -> usize {
        self.programs.iter().map(|p| p.group + 1).max().unwrap_or(0)
    }

    /// Widest tile output row (sizes the accumulator row).
    fn max_cols(&self) -> usize {
        self.programs.iter().map(|p| p.cols).max().unwrap_or(0)
    }
}

/// Concatenate a view's source buffers as they stand *now* (a snapshot: later
/// tiles of a half-written producer do not show), mapping every element with
/// its source node.
fn gather<T: Copy>(
    nodes: &Buffers<T>,
    view: &InputView,
    map: impl Fn(NodeId, T) -> T,
) -> Result<Vec<T>, ExecError> {
    let mut out = Vec::with_capacity(view.iter().map(|s| s.elements).sum());
    for segment in view {
        let src = nodes[segment.source]
            .as_deref()
            .ok_or_else(|| mismatch("producer executed after consumer"))?;
        out.extend(src.iter().map(|&v| map(segment.source, v)));
    }
    Ok(out)
}

/// Allocate a tile's zeroed scatter target: the node's activation buffer at
/// its first output-writing tile, a fresh partial buffer otherwise.
fn claim<A: Clone + Default, T: Clone + Default>(
    prog: &TileProgram,
    info: &NodeInfo,
    nodes: &mut Buffers<T>,
    partials: &mut Buffers<A>,
) {
    if prog.writes_output {
        nodes[prog.node].get_or_insert_with(|| vec![T::default(); info.elements]);
    } else {
        partials[prog.group] = Some(vec![A::default(); prog.positions * prog.cols]);
    }
}

/// Scatter position `p`'s accumulator row: through `store` into the node's
/// `out[(col_offset + c) · positions + p]` stripe, or raw into the tile's
/// partial buffer (`part[p · cols + c]`).
fn scatter<A: Copy, T>(
    prog: &TileProgram,
    p: usize,
    acc: &[A],
    nodes: &mut Buffers<T>,
    partials: &mut Buffers<A>,
    store: impl Fn(A) -> T,
) {
    if prog.writes_output {
        let buf = nodes[prog.node].as_mut().expect("claimed output");
        for (c, &a) in acc.iter().enumerate() {
            buf[(prog.col_offset + c) * prog.positions + p] = store(a);
        }
    } else {
        let buf = partials[prog.group].as_mut().expect("claimed partial");
        buf[p * prog.cols..(p + 1) * prog.cols].copy_from_slice(acc);
    }
}

/// A predecessor tile's partial buffer.
fn partial<A>(partials: &Buffers<A>, group: usize) -> Result<&[A], ExecError> {
    partials[group]
        .as_deref()
        .ok_or_else(|| mismatch("tile ran before the partial tiles it reads"))
}

/// One output position's VMM: `madd(acc[c], w[r][c], x[..])` for every tile
/// row `r` in ascending order (`for r { for c { .. } }`, so each accumulator
/// receives its terms in `r` order), skipping the convolution rows position
/// `p` finds in the zero padding.
fn mac<X: Copy, W: Copy, A>(
    prog: &TileProgram,
    p: usize,
    x: &[X],
    w: &[W],
    acc: &mut [A],
    madd: impl Fn(&mut A, W, X),
) {
    let conv = match &prog.kind {
        ProgramKind::Conv(geom) => {
            let ow = (geom.iw + 2 * geom.padding - geom.kernel) / geom.stride + 1;
            Some((geom, p / ow, p % ow))
        }
        _ => None,
    };
    for r in 0..prog.rows {
        let row = prog.row_offset + r;
        let idx = match conv {
            Some((geom, oy, ox)) => match conv_input_index(geom, row, oy, ox) {
                Some(idx) => idx,
                None => continue,
            },
            None => row,
        };
        let xv = x[idx];
        for (a, &wv) in acc.iter_mut().zip(&w[r * prog.cols..(r + 1) * prog.cols]) {
            madd(a, wv, xv);
        }
    }
}

/// The im2col input index of one (absolute row, output position), or `None`
/// for zero padding. Rows are `(channel * k + ky) * k + kx`.
fn conv_input_index(geom: &ConvGeom, row: usize, oy: usize, ox: usize) -> Option<usize> {
    let k = geom.kernel;
    let channel = row / (k * k);
    let rem = row % (k * k);
    let (ky, kx) = (rem / k, rem % k);
    let y = (oy * geom.stride + ky) as isize - geom.padding as isize;
    let x = (ox * geom.stride + kx) as isize - geom.padding as isize;
    if y < 0 || x < 0 || y >= geom.ih as isize || x >= geom.iw as isize {
        return None;
    }
    Some(channel * geom.ih * geom.iw + y as usize * geom.iw + x as usize)
}

/// Output width of a pooling node (positions are row-major `oy * ow + ox`).
fn out_w_pool(geom: &PoolGeom) -> usize {
    (geom.iw - geom.kernel) / geom.stride + 1
}

/// The input indices of one channel's `kernel × kernel` window at output
/// position `p`, `ky`-major.
fn pool_window(geom: &PoolGeom, channel: usize, p: usize) -> impl Iterator<Item = usize> {
    let (k, iw) = (geom.kernel, geom.iw);
    let ow = out_w_pool(geom);
    let origin = channel * geom.ih * iw + (p / ow) * geom.stride * iw + (p % ow) * geom.stride;
    (0..k).flat_map(move |ky| (0..k).map(move |kx| origin + ky * iw + kx))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{compile, max_abs_diff, samples, three_precisions};
    use super::super::{Executor, Precision};
    use crate::bytecode::{Inst, Lowered, RowRun};
    use fpsa_nn::reference::Reference;
    use fpsa_nn::{zoo, ComputationalGraph, GraphParameters};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn the_stream_matches_the_oracle_in_every_precision_and_duplication() {
        // Duplication > 1 is where Noisy conv tiles select a different
        // weight realization per output position — the one behaviour only
        // the oracle can check, since no reference models per-PE noise.
        let mut selected_duplicates = false;
        for graph in zoo::differential_suite() {
            let params = GraphParameters::seeded(&graph, 21);
            let inputs = samples(&graph, 2);
            for duplication in [1, 4] {
                let (core, mapping) = compile(&graph, duplication);
                for precision in three_precisions(&graph, &params, &inputs) {
                    let exec = Executor::bind(&graph, &params, &core, &mapping, &precision)
                        .unwrap_or_else(|e| panic!("{} x{duplication}: {e}", graph.name));
                    selected_duplicates |= exec.lowered.insts.iter().any(
                        |inst| matches!(inst, Inst::Conv { wsel, positions, .. } if wsel.1 > 1 && *positions > 1),
                    );
                    for x in &inputs {
                        let checked = exec.run_checked(x).unwrap();
                        assert_eq!(checked, exec.run(x).unwrap());
                        assert_eq!(checked, exec.run_interpreted(x).unwrap());
                    }
                }
            }
        }
        assert!(selected_duplicates, "no conv tile had duplicates to select");
    }

    /// Tiny-MLP parameters whose first layer has one structurally zero
    /// crossbar row (splitting its tile into two row runs) and one row of
    /// small-but-non-zero weights.
    const ZERO_ROW: usize = 8;
    const SMALL_ROW: usize = 5;
    fn crafted_mlp_params(graph: &ComputationalGraph) -> GraphParameters {
        let seeded = GraphParameters::seeded(graph, 33);
        let first = (0..graph.len()).find(|&n| seeded.weights(n).is_some());
        let tensors = (0..graph.len())
            .map(|node| {
                seeded.weights(node).map(|w| {
                    let mut w = w.to_vec();
                    if Some(node) == first {
                        // `[out][in]` layout: crossbar row `r` is input `r`.
                        for out in w.chunks_mut(16) {
                            out[ZERO_ROW] = 0.0;
                            out[SMALL_ROW] = 1e-5;
                        }
                    }
                    w
                })
            })
            .collect();
        GraphParameters::from_parts(tensors)
    }

    /// The `n`-th dense instruction's row-run span, mutably.
    fn dense_runs(lowered: &mut Lowered, n: usize) -> &mut (u32, u32) {
        let mut dense = lowered.insts.iter_mut().filter_map(|inst| match inst {
            Inst::Dense { runs, .. } => Some(runs),
            _ => None,
        });
        dense.nth(n).expect("dense instruction")
    }

    /// One way a lowering bug could corrupt the stream.
    struct Corruption {
        name: &'static str,
        /// Applied to Tiny-CNN bound Noisy at duplication 4 instead of the
        /// crafted Tiny-MLP bound Float.
        noisy_cnn: bool,
        apply: fn(&mut Lowered),
        /// Whether comparing logits to the golden reference at the suite's
        /// tolerance (1e-4 float, the 0.5 device envelope for Noisy) would
        /// have caught it without the oracle.
        reference_catches: bool,
    }

    const CORRUPTIONS: [Corruption; 5] = [
        Corruption {
            name: "gather region offset off by one",
            noisy_cnn: false,
            apply: |l| {
                let (start, _) = *dense_runs(l, 1);
                l.dense_runs[start as usize].x += 1;
            },
            reference_catches: true,
        },
        Corruption {
            name: "dropped row run",
            noisy_cnn: false,
            apply: |l| dense_runs(l, 0).1 -= 1,
            reference_catches: true,
        },
        Corruption {
            name: "flipped relu flag",
            noisy_cnn: false,
            apply: |l| {
                let last = l.insts.last_mut().expect("instructions");
                let Inst::Dense { store, .. } = last else {
                    panic!("the MLP ends in a dense tile");
                };
                store.relu = !store.relu;
            },
            reference_catches: true,
        },
        Corruption {
            name: "sparsity skip drops a small non-zero row",
            noisy_cnn: false,
            // Re-run the first tile's rows around SMALL_ROW, as a skip with a
            // magnitude threshold instead of `== 0` would.
            apply: |l| {
                let (start, _) = *dense_runs(l, 0);
                let head = l.dense_runs[start as usize];
                let tail = l.dense_runs[start as usize + 1];
                let at = l.dense_runs.len() as u32;
                let cut = SMALL_ROW as u32;
                let resumed = RowRun {
                    x: head.x + cut + 1,
                    r: cut + 1,
                    n: head.n - cut - 1,
                };
                l.dense_runs
                    .extend([RowRun { n: cut, ..head }, resumed, tail]);
                *dense_runs(l, 0) = (at, 3);
            },
            reference_catches: false,
        },
        Corruption {
            name: "wrong duplicate weight base",
            noisy_cnn: true,
            apply: |l| {
                let conv = l.insts.iter().find_map(|inst| match inst {
                    Inst::Conv { wsel, .. } if wsel.1 > 1 => Some(wsel.0 as usize),
                    _ => None,
                });
                let first = conv.expect("duplicated conv tile");
                l.dup_bases.swap(first, first + 1);
            },
            reference_catches: false,
        },
    ];

    /// `run_checked` must catch every corruption; `reference_catches` pins
    /// the table DESIGN.md reproduces of what the oracle buys over the
    /// reference check.
    #[test]
    fn corrupted_streams_are_caught_by_the_oracle_and_not_all_by_the_reference() {
        for corruption in &CORRUPTIONS {
            let name = corruption.name;
            let (graph, params, precision, duplication, tolerance) = if corruption.noisy_cnn {
                let graph = zoo::tiny_cnn();
                let params = GraphParameters::seeded(&graph, 33);
                let noisy = three_precisions(&graph, &params, &samples(&graph, 1)).remove(2);
                (graph, params, noisy, 4, 0.5)
            } else {
                let graph = zoo::tiny_mlp();
                let params = crafted_mlp_params(&graph);
                (graph, params, Precision::Float, 1, 1e-4)
            };
            let (core, mapping) = compile(&graph, duplication);
            let mut exec = Executor::bind(&graph, &params, &core, &mapping, &precision).unwrap();
            let reference = Reference::new(&graph, &params).unwrap();
            let x = &samples(&graph, 1)[0];
            let want = reference.logits(x).unwrap();
            let clean = exec.run_checked(x).expect("the uncorrupted stream checks");
            assert!(max_abs_diff(&clean, &want) < tolerance, "{name}: clean run");

            (corruption.apply)(&mut exec.lowered);
            let checked = catch_unwind(AssertUnwindSafe(|| exec.run_checked(x)));
            assert!(checked.is_err(), "{name}: the oracle missed the corruption");
            let corrupted = exec.run(x).unwrap();
            assert_ne!(corrupted, clean, "{name}: corruption changed no logit");
            assert_eq!(
                max_abs_diff(&corrupted, &want) >= tolerance,
                corruption.reference_catches,
                "{name}: reference-with-tolerance verdict moved (update DESIGN.md's table)"
            );
        }
    }
}
