//! Bind-time lowering: tile programs → bytecode.
//!
//! [`lower`] walks the bound [`TileProgram`]s in schedule order exactly once
//! and produces the [`Lowered`] artifact the dispatch loops of
//! [`crate::bytecode`] execute:
//!
//! 1. **Layout** — every node activation buffer, gather view, element-wise
//!    side buffer and partial tile is assigned a fixed region of the flat
//!    value/partial slabs, so arena reservation is O(1) per run (resize to
//!    `val_len`/`part_len`, then memset) instead of per-buffer bookkeeping.
//! 2. **View resolution** — gathers and element-wise sides resolve to either
//!    an *alias* of the producer's region (single-segment views whose
//!    producers have all executed, and — in the integer domain — whose
//!    rescale is the lossless equal-step clamp of already-clamped codes) or
//!    explicit copy/rescale instructions placed at the same stream position
//!    the interpreter gathered at, replicating its snapshot semantics.
//! 3. **Sparsity** — crossbar rows whose realized weights are exactly zero
//!    in *every* duplicate realization are dropped structurally while
//!    building the row runs; a tile whose rows are all zero emits no
//!    instruction at all (the zeroed slab already holds its exact output).
//! 4. **Verification** — read-before-write orderings the interpreter only
//!    detected at run time ("producer executed after consumer") are caught
//!    here, at bind time, so dispatch itself is infallible.

use crate::bytecode::{
    ConvRun, Inst, Lowered, MacStore, PoolLoop, PosWin, ReduceSrc, Region, Requant, RowRun, Span,
};
use crate::exec::{
    mismatch, side_gather_step, ConvGeom, ExecError, NodeInfo, ProgramKind, TileProgram,
};
use fpsa_nn::reference::InputView;
use fpsa_nn::NodeId;
use std::collections::HashMap;

/// Everything [`lower`] needs from the bind phase.
pub(crate) struct LowerCtx<'a> {
    pub programs: &'a [TileProgram],
    /// Per-graph-node geometry (`None` for nodes no tile computes).
    pub nodes: &'a [Option<NodeInfo>],
    pub input: (NodeId, usize),
    /// Integer-mode activation steps per node (1.0 placeholders otherwise).
    pub node_steps: &'a [f64],
    pub integer: bool,
    /// Realized weight slabs, moved in from binding (row-major, one span per
    /// duplicate realization — see [`TileProgram::w_f`]).
    pub wslab_f: Vec<f32>,
    pub wslab_q: Vec<i8>,
}

struct LowerPass<'a> {
    ctx: LowerCtx<'a>,
    out: Lowered,
    val_cur: u32,
    part_cur: u32,
    node_regions: Vec<Option<Region>>,
    /// Output-writing programs per node: total vs already lowered.
    writers_total: Vec<u32>,
    writers_done: Vec<u32>,
    /// Resolved gather-view base per node (first consumer resolves it).
    gathers: HashMap<NodeId, u32>,
    /// Resolved element-wise sides per node (reused only once complete).
    eltwise_sides: HashMap<NodeId, Span>,
    /// Partial region per producing group id.
    partials: HashMap<usize, Region>,
    /// Convolution window table span per node.
    conv_wins: HashMap<NodeId, Span>,
}

/// Lower bound tile programs (in schedule order) into a bytecode stream.
pub(crate) fn lower(ctx: LowerCtx<'_>) -> Result<Lowered, ExecError> {
    let graph_len = ctx.nodes.len();
    let mut pass = LowerPass {
        ctx,
        out: Lowered::default(),
        val_cur: 0,
        part_cur: 0,
        node_regions: vec![None; graph_len],
        writers_total: vec![0; graph_len],
        writers_done: vec![0; graph_len],
        gathers: HashMap::new(),
        eltwise_sides: HashMap::new(),
        partials: HashMap::new(),
        conv_wins: HashMap::new(),
    };
    pass.run()?;
    let mut out = pass.out;
    out.wslab_f = pass.ctx.wslab_f;
    out.wslab_q = pass.ctx.wslab_q;
    out.val_len = pass.val_cur as usize;
    out.part_len = pass.part_cur as usize;
    out.node_regions = pass.node_regions;
    out.stats.instructions = out.insts.len();
    out.stats.row_runs = out.dense_runs.len() + out.conv_runs.len();
    out.stats.value_slab = out.val_len;
    out.stats.partial_slab = out.part_len;
    out.stats.weight_slab = out.wslab_f.len().max(out.wslab_q.len());
    Ok(out)
}

impl<'a> LowerPass<'a> {
    fn alloc_val(&mut self, len: usize) -> Result<Region, ExecError> {
        let off = self.val_cur;
        let len = u32::try_from(len).map_err(|_| mismatch("value buffer exceeds u32 range"))?;
        self.val_cur = off
            .checked_add(len)
            .ok_or_else(|| mismatch("value slab exceeds u32 range"))?;
        Ok(Region { off, len })
    }

    fn alloc_part(&mut self, len: usize) -> Result<Region, ExecError> {
        let off = self.part_cur;
        let len = u32::try_from(len).map_err(|_| mismatch("partial buffer exceeds u32 range"))?;
        self.part_cur = off
            .checked_add(len)
            .ok_or_else(|| mismatch("partial slab exceeds u32 range"))?;
        Ok(Region { off, len })
    }

    /// The node's activation region, or a bind-time mismatch if no tile has
    /// written it yet — the interpreter's run-time "producer executed after
    /// consumer" check, moved to lowering.
    fn source_region(&self, node: NodeId) -> Result<Region, ExecError> {
        self.node_regions[node]
            .filter(|_| self.source_started(node))
            .ok_or_else(|| mismatch("producer executed after consumer"))
    }

    /// Whether at least one output-writing tile of `node` has lowered (the
    /// interpreter's liveness rule: the buffer exists from the first write).
    fn source_started(&self, node: NodeId) -> bool {
        node == self.ctx.input.0 || self.writers_done[node] > 0
    }

    /// Whether *every* output-writing tile of `node` has lowered.
    fn source_complete(&self, node: NodeId) -> bool {
        node == self.ctx.input.0
            || (self.writers_total[node] > 0 && self.writers_done[node] == self.writers_total[node])
    }

    fn run(&mut self) -> Result<(), ExecError> {
        // The input node's buffer leads the value slab; `run_into` copies
        // (float) or quantizes (integer) the sample into it before dispatch.
        let (input_node, input_len) = self.ctx.input;
        let region = self.alloc_val(input_len)?;
        self.node_regions[input_node] = Some(region);

        for prog in self.ctx.programs {
            if prog.writes_output {
                self.writers_total[prog.node] += 1;
            }
        }

        let programs = self.ctx.programs;
        for prog in programs {
            self.lower_program(prog)?;
        }
        Ok(())
    }

    fn lower_program(&mut self, prog: &'a TileProgram) -> Result<(), ExecError> {
        let info = self.ctx.nodes[prog.node]
            .as_ref()
            .ok_or_else(|| mismatch("program on a node without geometry"))?;

        // Resolve the node's gathered input view (first consumer only) or
        // this program's element-wise sides (re-resolved per program until
        // the sources are complete, like the interpreter re-gathers).
        let gather = if prog.kind.gathers() {
            Some(self.resolve_gather(prog.node, info)?)
        } else {
            None
        };
        let sides = if let ProgramKind::Eltwise(views) = &prog.kind {
            Some(self.resolve_eltwise_sides(prog.node, info, views)?)
        } else {
            None
        };

        // Output target: the node's activation region (allocated at its
        // first writer, zeroed by the per-run memset) or a partial region.
        let store = if prog.writes_output {
            if self.node_regions[prog.node].is_none() {
                let region = self.alloc_val(info.elements)?;
                self.node_regions[prog.node] = Some(region);
            }
            let region = self.node_regions[prog.node].expect("just allocated");
            MacStore {
                dst: region.off + (prog.col_offset * prog.positions) as u32,
                output: true,
                relu: prog.relu,
            }
        } else {
            debug_assert!(matches!(
                prog.kind,
                ProgramKind::Dense | ProgramKind::Conv(_) | ProgramKind::MaxStage1(_)
            ));
            let region = self.alloc_part(prog.positions * prog.cols)?;
            self.partials.insert(prog.group, region);
            MacStore {
                dst: region.off,
                output: false,
                relu: prog.relu,
            }
        };

        let rq = Requant {
            wstep: info.weight_step,
            gstep: info.gather_step,
            ostep: info.out_step,
        };
        let cols = prog.cols as u32;
        let positions = prog.positions as u32;

        let inst = match &prog.kind {
            ProgramKind::Dense => {
                let x0 = gather.expect("dense gathers") + prog.row_offset as u32;
                let runs = self.dense_runs(prog, x0);
                if runs.1 == 0 {
                    self.out.stats.skipped_zero_tiles += 1;
                    self.finish_program(prog);
                    return Ok(());
                }
                // Dense tiles have one position, so realization 0 is the
                // only one the oracle ever selects.
                let w = self.weight_bases(prog)[0];
                Inst::Dense {
                    runs,
                    w,
                    cols,
                    store,
                    rq,
                }
            }
            ProgramKind::Conv(geom) => {
                let x0 = gather.expect("conv gathers");
                let wins = self.conv_windows(prog.node, geom, prog.positions)?;
                let runs = self.conv_runs(prog, geom)?;
                if runs.1 == 0 {
                    self.out.stats.skipped_zero_tiles += 1;
                    self.finish_program(prog);
                    return Ok(());
                }
                let start = self.out.dup_bases.len() as u32;
                let bases = self.weight_bases(prog);
                let wsel = (start, bases.len() as u32, prog.duplicates as u32);
                self.out.dup_bases.extend(bases);
                Inst::Conv {
                    runs,
                    wins,
                    x0,
                    wsel,
                    cols,
                    positions,
                    store,
                    rq,
                }
            }
            ProgramKind::Reduce(sources) => {
                let start = self.out.reduce_srcs.len() as u32;
                for &(pred, pred_cols, slice) in sources {
                    let region = self
                        .partials
                        .get(&pred)
                        .copied()
                        .ok_or_else(|| mismatch("reduction ran before its partial tiles"))?;
                    self.out.reduce_srcs.push(ReduceSrc {
                        base: region.off + slice as u32,
                        stride: pred_cols as u32,
                    });
                }
                Inst::Reduce {
                    srcs: (start, sources.len() as u32),
                    cols,
                    positions,
                    store,
                    rq,
                }
            }
            ProgramKind::AvgPool(g) => Inst::AvgPool {
                x0: gather.expect("pools gather") + (prog.col_offset * g.ih * g.iw) as u32,
                geom: pool_loop(g, cols, positions),
                store,
                rq,
            },
            ProgramKind::GlobalAvgPool { window } => Inst::Gap {
                x0: gather.expect("pools gather") + (prog.col_offset * window) as u32,
                cols,
                positions,
                window: *window as u32,
                store,
                rq,
            },
            ProgramKind::MaxStage1(g) => Inst::MaxPool {
                x0: gather.expect("pools gather") + (prog.col_offset * g.ih * g.iw) as u32,
                geom: pool_loop(g, cols, positions),
                store,
            },
            ProgramKind::MaxStage2 { source } => Inst::MaxFwd {
                src: self
                    .partials
                    .get(source)
                    .copied()
                    .ok_or_else(|| mismatch("max-pool stage 2 ran before stage 1"))?
                    .off,
                cols,
                positions,
                store,
                rq,
            },
            ProgramKind::Eltwise(_) => Inst::Eltwise {
                sides: sides.expect("eltwise resolves sides"),
                x_off: (prog.col_offset * prog.positions) as u32,
                cols,
                positions,
                store,
                rq,
            },
        };
        self.out.insts.push(inst);
        self.finish_program(prog);
        Ok(())
    }

    fn finish_program(&mut self, prog: &TileProgram) {
        if prog.writes_output {
            self.writers_done[prog.node] += 1;
        }
    }

    /// Resolve a node's gathered input view: alias the producer's region
    /// when that is provably identical to the interpreter's copied gather,
    /// otherwise emit copy/rescale instructions at this stream position.
    fn resolve_gather(&mut self, node: NodeId, info: &'a NodeInfo) -> Result<u32, ExecError> {
        if let Some(&base) = self.gathers.get(&node) {
            return Ok(base);
        }
        let view = &info.view;
        let base = if let [segment] = view[..] {
            let region = self.source_region(segment.source)?;
            let from = self.ctx.node_steps[segment.source];
            let lossless = !self.ctx.integer || from == info.gather_step;
            if self.source_complete(segment.source) && lossless {
                self.out.stats.aliased_views += 1;
                region.off
            } else {
                self.copy_view(view, info.gather_step, CopyKind::Gather)?
            }
        } else {
            self.copy_view(view, info.gather_step, CopyKind::Gather)?
        };
        self.gathers.insert(node, base);
        Ok(base)
    }

    /// Resolve one element-wise program's side views. The interpreter
    /// re-gathers sides for every program of the node, so a cached
    /// resolution is reused only when every source had executed (later
    /// programs then observe identical values); otherwise each program
    /// captures its own snapshot, exactly like the interpreter.
    fn resolve_eltwise_sides(
        &mut self,
        node: NodeId,
        info: &'a NodeInfo,
        views: &'a [InputView],
    ) -> Result<Span, ExecError> {
        if let Some(&span) = self.eltwise_sides.get(&node) {
            return Ok(span);
        }
        let mut all_complete = true;
        let mut bases = Vec::with_capacity(views.len());
        for view in views {
            let sstep = side_gather_step(self.ctx.node_steps, view);
            let complete = view.iter().all(|s| self.source_complete(s.source));
            all_complete &= complete;
            let base = if let [segment] = view[..] {
                let region = self.source_region(segment.source)?;
                let from = self.ctx.node_steps[segment.source];
                let lossless = !self.ctx.integer || (from == sstep && sstep == info.gather_step);
                if complete && lossless {
                    self.out.stats.aliased_views += 1;
                    region.off
                } else {
                    self.copy_view(view, info.gather_step, CopyKind::Side { sstep })?
                }
            } else {
                self.copy_view(view, info.gather_step, CopyKind::Side { sstep })?
            };
            bases.push(base);
        }
        let start = self.out.side_bases.len() as u32;
        let span = (start, bases.len() as u32);
        self.out.side_bases.extend(bases);
        if all_complete {
            self.eltwise_sides.insert(node, span);
        }
        Ok(span)
    }

    /// Materialize a view into a fresh region via copy instructions at the
    /// current stream position (rescaling in the integer domain), returning
    /// the region's base.
    fn copy_view(
        &mut self,
        view: &InputView,
        gather_step: f64,
        kind: CopyKind,
    ) -> Result<u32, ExecError> {
        let mut len = 0usize;
        for segment in view.iter() {
            len += self.source_region(segment.source)?.len as usize;
        }
        let region = self.alloc_val(len)?;
        let mut dst = region.off;
        for segment in view.iter() {
            let src = self.source_region(segment.source)?;
            let from = self.ctx.node_steps[segment.source];
            let inst = match kind {
                CopyKind::Gather => Inst::Copy {
                    src: src.off,
                    dst,
                    len: src.len,
                    from,
                    to: gather_step,
                },
                CopyKind::Side { sstep } => Inst::CopySide {
                    src: src.off,
                    dst,
                    len: src.len,
                    from,
                    side: sstep,
                    to: gather_step,
                },
            };
            self.out.insts.push(inst);
            self.out.stats.copied_segments += 1;
            dst += src.len;
        }
        Ok(region.off)
    }

    /// The weight-slab bases a MAC instruction reads, one per realization:
    /// the shared code span in the integer domain, every duplicate's float
    /// realization otherwise.
    fn weight_bases(&self, prog: &TileProgram) -> Vec<u32> {
        if self.ctx.integer {
            vec![prog.w_q.0]
        } else {
            prog.w_f.iter().map(|span| span.0).collect()
        }
    }

    /// Whether tile row `r` is exactly zero in every realization the tile
    /// can execute on (so dropping it removes only zero terms everywhere).
    fn row_is_zero(&self, prog: &TileProgram, r: usize) -> bool {
        let cols = prog.cols;
        if self.ctx.integer {
            let (off, _) = prog.w_q;
            let row = &self.ctx.wslab_q[off as usize + r * cols..][..cols];
            row.iter().all(|&w| w == 0)
        } else {
            prog.w_f.iter().all(|&(off, _)| {
                let row = &self.ctx.wslab_f[off as usize + r * cols..][..cols];
                row.iter().all(|&w| w == 0.0)
            })
        }
    }

    /// Dense row runs: consecutive non-zero rows, x and r advancing in step.
    fn dense_runs(&mut self, prog: &TileProgram, x0: u32) -> Span {
        let start = self.out.dense_runs.len() as u32;
        let mut open: Option<RowRun> = None;
        for r in 0..prog.rows {
            if self.row_is_zero(prog, r) {
                self.out.stats.skipped_zero_rows += 1;
                if let Some(run) = open.take() {
                    self.out.dense_runs.push(run);
                }
                continue;
            }
            self.out.stats.mac_rows += 1;
            match &mut open {
                Some(run) => run.n += 1,
                None => {
                    open = Some(RowRun {
                        x: x0 + r as u32,
                        r: r as u32,
                        n: 1,
                    });
                }
            }
        }
        if let Some(run) = open {
            self.out.dense_runs.push(run);
        }
        (start, self.out.dense_runs.len() as u32 - start)
    }

    /// Convolution row runs: maximal stretches of one (channel, ky) kernel
    /// row, split at structurally-zero rows.
    fn conv_runs(&mut self, prog: &TileProgram, geom: &ConvGeom) -> Result<Span, ExecError> {
        let k = geom.kernel;
        if k > u8::MAX as usize {
            return Err(mismatch("convolution kernel exceeds bytecode range"));
        }
        let start = self.out.conv_runs.len() as u32;
        let mut open: Option<(ConvRun, usize)> = None;
        for r in 0..prog.rows {
            let abs = prog.row_offset + r;
            let channel = abs / (k * k);
            let rem = abs % (k * k);
            let (ky, kx) = (rem / k, rem % k);
            if self.row_is_zero(prog, r) {
                self.out.stats.skipped_zero_rows += 1;
                if let Some((run, _)) = open.take() {
                    self.out.conv_runs.push(run);
                }
                continue;
            }
            self.out.stats.mac_rows += 1;
            match &mut open {
                Some((run, run_channel))
                    if *run_channel == channel
                        && run.ky as usize == ky
                        && run.kx_hi as usize == kx =>
                {
                    run.kx_hi += 1;
                }
                _ => {
                    if let Some((run, _)) = open.take() {
                        self.out.conv_runs.push(run);
                    }
                    open = Some((
                        ConvRun {
                            x_rel: (channel * geom.ih * geom.iw + ky * geom.iw) as u32,
                            r0: r as u32,
                            ky: ky as u8,
                            kx_lo: kx as u8,
                            kx_hi: kx as u8 + 1,
                        },
                        channel,
                    ));
                }
            }
        }
        if let Some((run, _)) = open {
            self.out.conv_runs.push(run);
        }
        Ok((start, self.out.conv_runs.len() as u32 - start))
    }

    /// The per-position window table of a convolution node (shared by all
    /// its tiles): base offsets and clip ranges, row-major `oy · ow + ox`.
    fn conv_windows(
        &mut self,
        node: NodeId,
        geom: &ConvGeom,
        positions: usize,
    ) -> Result<Span, ExecError> {
        if let Some(&span) = self.conv_wins.get(&node) {
            return Ok(span);
        }
        let (k, s, pad) = (geom.kernel as i64, geom.stride as i64, geom.padding as i64);
        let (ih, iw) = (geom.ih as i64, geom.iw as i64);
        let ow = ((iw + 2 * pad - k) / s + 1) as usize;
        if ow == 0 || !positions.is_multiple_of(ow) {
            return Err(mismatch("convolution positions do not tile its output"));
        }
        let oh = positions / ow;
        let start = self.out.wins.len() as u32;
        for oy in 0..oh as i64 {
            let y0 = oy * s - pad;
            let ky0 = (-y0).clamp(0, k);
            let ky1 = (ih - y0).clamp(ky0, k);
            for ox in 0..ow as i64 {
                let x0 = ox * s - pad;
                let kx0 = (-x0).clamp(0, k);
                let kx1 = (iw - x0).clamp(kx0, k);
                self.out.wins.push(PosWin {
                    base: i32::try_from(y0 * iw + x0)
                        .map_err(|_| mismatch("convolution window exceeds bytecode range"))?,
                    ky0: ky0 as u8,
                    ky1: ky1 as u8,
                    kx0: kx0 as u8,
                    kx1: kx1 as u8,
                });
            }
        }
        let span = (start, (self.out.wins.len() as u32) - start);
        self.conv_wins.insert(node, span);
        Ok(span)
    }
}

/// What a copied view feeds (the integer domain rescales side views twice).
#[derive(Clone, Copy)]
enum CopyKind {
    Gather,
    Side { sstep: f64 },
}

fn pool_loop(geom: &crate::exec::PoolGeom, cols: u32, positions: u32) -> PoolLoop {
    PoolLoop {
        cols,
        positions,
        ow: ((geom.iw - geom.kernel) / geom.stride + 1) as u32,
        k: geom.kernel as u32,
        stride: geom.stride as u32,
        iw: geom.iw as u32,
        chan: (geom.ih * geom.iw) as u32,
    }
}
