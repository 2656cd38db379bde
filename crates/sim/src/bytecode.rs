//! The bind-time tile-program bytecode and its dispatch loop.
//!
//! [`crate::exec::Executor::bind`] used to *interpret* bound tile programs:
//! every schedule entry re-dispatched on its program kind, re-resolved its
//! buffers through per-node hash/slab lookups and re-derived im2col indices
//! per element. This module is the compiled replacement — in the spirit of
//! JITSPMM's just-in-time instruction generation, every bound program is
//! lowered **once** (see [`crate::lower`]) into a flat [`Inst`] stream whose
//! operands are *preresolved absolute offsets* into two flat arena slabs:
//!
//! * the **value slab** — every node activation buffer, gather buffer and
//!   element-wise side buffer, laid out back to back (`f32` in the float
//!   domain, `i64` codes in the integer domain);
//! * the **partial slab** — raw tile accumulations awaiting a reduction or a
//!   max-pool stage 2 (`f64` / `i64`).
//!
//! There is one instruction set. The numeric domain is not a property of an
//! instruction but the type parameter of the dispatch loop
//! ([`Lowered::exec`] / [`Lowered::exec_batch`] over a
//! [`crate::domain::Domain`]): every instruction body is written once, and
//! monomorphization — not a second loop — produces the float and integer
//! executors. What differs between domains (slab element types, the output
//! map of each store, the MAC kernels) is the domain's to supply; the only
//! per-domain operand an instruction carries is its node's [`Requant`]
//! steps, which the float domain ignores.
//!
//! Executing a sample is a single dispatch loop over the stream — no hash
//! lookups, no op-kind matches per element, no shape math. VMM work is
//! encoded as *row runs* ([`RowRun`] / [`ConvRun`]): maximal stretches of
//! consecutive crossbar rows that survive lowering. Sparsity enters in two
//! places, both exactness-preserving:
//!
//! * **structural** — rows whose realized weights are all exactly zero are
//!   dropped at lowering time (an all-zero tile emits no instruction at
//!   all), and
//! * **dynamic** — a row whose activation is exactly `0.0` (or code `0`) is
//!   skipped at run time; where a weight tile is shared by a *block* (the
//!   positions of a convolution, the samples of a dense batch), a row is
//!   skipped when the whole block is zero on it.
//!
//! Both skips remove only terms that are exactly zero in the same f64/i64
//! arithmetic the oracle performs (`0 · x` and `w · 0` with finite operands
//! — bind rejects non-finite float weights), so every accumulator still
//! receives exactly the same sequence of non-zero terms in the same order —
//! outputs are bit-identical to the tile-program oracle, which the
//! differential suite asserts per node.
//!
//! A VMM tile is the paper's weight-stationary crossbar: programmed once,
//! reused by every output position of its layer. The dispatch mirrors that
//! reuse instead of re-streaming the tile per position. A convolution runs
//! by **blocks of positions** ([`Lowered::conv`]): up to [`Simd::block`]
//! positions that share a weight realization gather their im2col windows
//! once — window clipping is two bit tables per block, not a test per
//! element — into a row-major activation block over the tile's surviving
//! rows. A dense tile has one position, so its block is the *samples* of a
//! batch in the float domain ([`Lowered::exec_batch`]); at batch 1, and in
//! the integer domain, it is a plain GEMV per sample. Batched
//! entry points run instruction-major over a batch of slabs, so a tile is
//! also cache-resident across the samples it cannot block.
//!
//! The float domain hands a block to the 2-D register-blocked kernel
//! ([`kernels::mac_f_block`]), which loads each weight row once for the whole
//! block. None of this touches per-accumulator summation order: terms arrive
//! in ascending row order whatever the blocking, a block member's own zero
//! contributes a `±0.0` that cannot move an accumulator, and multiplies and
//! adds stay unfused.
//!
//! The integer domain keeps `i64` everywhere a caller can see — value slab,
//! partial slab, accumulator row, `requantize_mac` — but its MAC datapath is
//! narrow: the weight slab holds one `i8` per code, the block carries `i32`
//! activation codes, and [`kernels::mac_i`] accumulates in `i32` lanes,
//! widening at the store. That is exact because value-slab codes are clamped
//! to ±`activation_levels` by every writer and bind rejects any plan whose
//! deepest tile could overflow a lane. It splits a block into one GEMV per
//! member (the `i32` multiply is the limiter, not weight traffic), and every
//! requantizing store runs the reference's own `requantize_mac` /
//! `quantize_code` through [`kernels::map_store`], instantiated for the
//! bind-time family so `round` is an instruction, not a libm call.

use crate::domain::Domain;
use crate::kernels::{self, Simd};
use crate::profile::{self, Op, SkipTally};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One domain's reusable MAC scratch: the surviving-row list the GEMV
/// kernels take, the row list and activation block of a blocked pass, and
/// the accumulator rows output-carrying stores compute into before
/// scattering (partial stores accumulate straight into their slab stripe).
#[derive(Debug, Default)]
pub(crate) struct Scratch<L, A> {
    pub rows: Vec<(u32, L)>,
    /// Blocked-MAC row list: weight-row offsets of the rows that survive
    /// the whole-block zero check.
    pub woffs: Vec<u32>,
    /// Blocked-MAC activation block: `b` positions' / samples' activations
    /// per surviving row, row-major (see [`kernels::mac_f_block`]).
    pub xb: Vec<L>,
    pub acc: Vec<A>,
}

/// Reusable MAC scratch of both domains. All buffers grow to their
/// high-water mark on the first run and are reused allocation-free
/// afterwards.
#[derive(Debug, Default)]
pub(crate) struct MacScratch {
    pub f: Scratch<f64, f64>,
    pub i: Scratch<i32, i64>,
}

/// Ensure `buf` exposes `len` elements (growing once; steady state is a
/// no-op) and return them. Contents are overwritten by every kernel call, so
/// no zeroing is needed.
pub(crate) fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// A contiguous region of a lowered slab (element offset + length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Region {
    pub off: u32,
    pub len: u32,
}

impl Region {
    pub fn range(self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

/// A span into one of the side tables (`(offset, len)`).
pub(crate) type Span = (u32, u32);

/// The slice of side table `table` a span names.
fn span<T>(table: &[T], span: Span) -> &[T] {
    &table[span.0 as usize..(span.0 + span.1) as usize]
}

/// One dense MAC row run: `n` consecutive tile rows, reading activations at
/// absolute value-slab indices `x, x+1, …` and weight rows `r, r+1, …` of
/// the owning tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRun {
    pub x: u32,
    pub r: u32,
    pub n: u32,
}

/// One convolution row run: the tile rows of kernel row `ky` of one input
/// channel, covering kernel columns `[kx_lo, kx_hi)`. `x_rel` is the
/// gather-relative index of the window element at `kx = 0`
/// (`channel·ih·iw + ky·iw`); `r0` is the tile row at `kx = kx_lo`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvRun {
    pub x_rel: u32,
    pub r0: u32,
    pub ky: u8,
    pub kx_lo: u8,
    pub kx_hi: u8,
}

/// Per-output-position convolution window: the gather-relative base offset
/// of the window origin (negative in the padded border) and the kernel
/// ranges that fall inside the input (`ky ∈ [ky0, ky1)`, `kx ∈ [kx0, kx1)`).
/// Rows clipped by them are exactly the rows the oracle's
/// `conv_input_index` rejects as zero padding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PosWin {
    pub base: i32,
    pub ky0: u8,
    pub ky1: u8,
    pub kx0: u8,
    pub kx1: u8,
}

/// One reduction source: absolute partial-slab base and per-position stride
/// (the predecessor tile's column count), plus the column slice offset
/// already folded into `base`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReduceSrc {
    pub base: u32,
    pub stride: u32,
}

/// Where an instruction's outputs go.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MacStore {
    /// Absolute base of the output stripe: `node_region + col_offset ·
    /// positions` for output-carrying tiles, the tile's partial region
    /// otherwise.
    pub dst: u32,
    /// `true` → value slab (the domain's output map applies); `false` →
    /// raw accumulation into the partial slab, which only MAC tiles ahead
    /// of a reduction and max-pool stage 1 do.
    pub output: bool,
    /// The tile's fused ReLU, applied by the domain's output map.
    pub relu: bool,
}

/// The producing node's quantization steps: weight, gather and output.
/// The integer domain's output maps compose the reference's quantization
/// functions over them; the float domain binds them as `1.0` and ignores
/// them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Requant {
    pub wstep: f64,
    pub gstep: f64,
    pub ostep: f64,
}

/// Geometry of a pooling instruction's position loop. All shape math is
/// resolved here at lowering time; the run-time loop only increments.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolLoop {
    pub cols: u32,
    pub positions: u32,
    pub ow: u32,
    pub k: u32,
    pub stride: u32,
    pub iw: u32,
    /// Channel stride `ih · iw`.
    pub chan: u32,
}

/// One lowered instruction, in no particular numeric domain: the stream
/// executes in whichever domain [`Lowered::exec`] is instantiated for, and
/// each variant's [`Op`] is its profiling index.
// The MAC variants carry their full preresolved operand set inline — boxing
// them would put a pointer chase in the dispatch loop, which is exactly what
// this module exists to remove.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Inst {
    /// Gather segment copy within the value slab, rescaled from the
    /// producer's step to the gather step.
    Copy {
        src: u32,
        dst: u32,
        len: u32,
        from: f64,
        to: f64,
    },
    /// Element-wise side segment copy: the reference's double rescale
    /// through the side's own gather step.
    CopySide {
        src: u32,
        dst: u32,
        len: u32,
        from: f64,
        side: f64,
        to: f64,
    },
    /// Dense VMM tile (feature vectors: exactly one output position).
    Dense {
        runs: Span,
        w: u32,
        cols: u32,
        store: MacStore,
        rq: Requant,
    },
    /// Convolution VMM tile: loops its output positions over the node's
    /// precomputed windows, round-robin over duplicate weight realizations.
    Conv {
        runs: Span,
        wins: Span,
        x0: u32,
        /// Weight bases: span into `dup_bases` + duplicate count (one base
        /// when every duplicate shares the realization).
        wsel: (u32, u32, u32),
        cols: u32,
        positions: u32,
        store: MacStore,
        rq: Requant,
    },
    /// Partial-sum reduction over predecessor tiles.
    Reduce {
        srcs: Span,
        cols: u32,
        positions: u32,
        store: MacStore,
        rq: Requant,
    },
    /// Average pooling over `k × k` windows.
    AvgPool {
        x0: u32,
        geom: PoolLoop,
        store: MacStore,
        rq: Requant,
    },
    /// Global average pooling over the full spatial window.
    Gap {
        x0: u32,
        cols: u32,
        positions: u32,
        window: u32,
        store: MacStore,
        rq: Requant,
    },
    /// Max-pool stage 1: raw window maxima into the partial slab.
    MaxPool {
        x0: u32,
        geom: PoolLoop,
        store: MacStore,
    },
    /// Max-pool stage 2: forward the stage-1 tile's partial values.
    MaxFwd {
        src: u32,
        cols: u32,
        positions: u32,
        store: MacStore,
        rq: Requant,
    },
    /// Element-wise addition across the node's gathered sides.
    Eltwise {
        sides: Span,
        x_off: u32,
        cols: u32,
        positions: u32,
        store: MacStore,
        rq: Requant,
    },
}

impl Inst {
    /// The instruction's opcode: its index in the profiling counters.
    pub(crate) fn op(&self) -> Op {
        match self {
            Inst::Copy { .. } => Op::Copy,
            Inst::CopySide { .. } => Op::CopySide,
            Inst::Dense { .. } => Op::Dense,
            Inst::Conv { .. } => Op::Conv,
            Inst::Reduce { .. } => Op::Reduce,
            Inst::AvgPool { .. } => Op::AvgPool,
            Inst::Gap { .. } => Op::Gap,
            Inst::MaxPool { .. } => Op::MaxPool,
            Inst::MaxFwd { .. } => Op::MaxFwd,
            Inst::Eltwise { .. } => Op::Eltwise,
        }
    }
}

/// What lowering did to a bound model — the observability hook for the
/// sparsity regression tests and the `BENCH_exec` lowering columns.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct LowerStats {
    /// Instructions in the stream.
    pub instructions: usize,
    /// MAC row runs emitted (dense + convolution).
    pub row_runs: usize,
    /// Crossbar rows kept in MAC runs.
    pub mac_rows: usize,
    /// Crossbar rows dropped because every realized weight was exactly zero.
    pub skipped_zero_rows: usize,
    /// VMM tiles that lowered to no instruction at all (all-zero weights).
    pub skipped_zero_tiles: usize,
    /// Gather/side views aliased straight to their producer's region.
    pub aliased_views: usize,
    /// Gather/side segments that still copy (multi-segment views or integer
    /// rescale steps).
    pub copied_segments: usize,
    /// Value-slab length in elements.
    pub value_slab: usize,
    /// Partial-slab length in elements.
    pub partial_slab: usize,
    /// Weight-slab length in **elements**, not bytes: one element per
    /// realized weight (per duplicate, in the noisy domain). An element is a
    /// 4-byte `f32` in the float domain and a 1-byte `i8` code in the
    /// integer domain.
    pub weight_slab: usize,
}

/// A fully lowered model: the instruction stream, its side tables, the
/// realized weight slabs and the flat arena layout. Everything the dispatch
/// loop touches per sample lives behind preresolved offsets in here.
#[derive(Debug, Default)]
pub(crate) struct Lowered {
    pub insts: Vec<Inst>,
    pub dense_runs: Vec<RowRun>,
    pub conv_runs: Vec<ConvRun>,
    pub wins: Vec<PosWin>,
    pub reduce_srcs: Vec<ReduceSrc>,
    pub side_bases: Vec<u32>,
    pub dup_bases: Vec<u32>,
    /// Row-major realized float weights of every tile duplicate.
    pub wslab_f: Vec<f32>,
    /// Row-major integer weight codes (Integer precision): one byte per
    /// code, which is all an up-to-8-bit plan needs (bind rejects wider).
    pub wslab_q: Vec<i8>,
    /// Value-slab length (f32 floats or i64 codes).
    pub val_len: usize,
    /// Partial-slab length (f64 floats or i64 codes).
    pub part_len: usize,
    /// Per-graph-node activation region in the value slab.
    pub node_regions: Vec<Option<Region>>,
    /// MAC kernel family selected once at bind time for this CPU.
    pub simd: Simd,
    /// Integer activation clamp `±alevels` (0 outside Integer precision).
    pub alevels: i64,
    pub stats: LowerStats,
}

impl Lowered {
    /// Execute the stream in domain `D` over the arena's flat slabs. The
    /// input node's region must already hold the sample; slabs must be
    /// zeroed (the executor's `run_into` does both).
    pub fn exec<D: Domain>(&self, vals: &mut [D::Val], parts: &mut [D::Acc], mac: &mut MacScratch) {
        for inst in &self.insts {
            self.step::<D>(inst, vals, parts, mac);
        }
    }

    /// Execute the stream over a *batch* of `batch` samples laid out back
    /// to back in the slabs, instruction-major: every instruction sweeps all
    /// samples while its weight tile is cache-resident, which is what
    /// amortizes weight streaming across the batch. Each sample still sees
    /// exactly the per-sample instruction order (samples are independent),
    /// so results are bit-identical to `batch` sequential
    /// [`Lowered::exec`] calls.
    ///
    /// In a domain whose kernel shares weight loads across a block
    /// ([`Domain::BLOCKS_SAMPLES`]), dense tiles additionally block
    /// *samples* ([`Lowered::dense_batch`]): groups of up to
    /// [`Simd::block`] samples share one gather of the tile's rows and one
    /// pass of the block kernel over them. A sample whose activation is zero on a row another group
    /// member keeps contributes a `±0.0` product, which cannot change an
    /// accumulator that starts at `+0.0` (exact cancellation rounds to
    /// `+0.0` under round-to-nearest, so the accumulator is never `-0.0`;
    /// bind rejects non-finite weights, the one case where `0 · w` is not
    /// `±0.0`) — bits stay identical to the per-sample skip path.
    /// Convolution tiles already reuse their weights across the *positions*
    /// of one sample (see [`Lowered::conv`]), so a conv batch is just that,
    /// per sample.
    pub fn exec_batch<D: Domain>(
        &self,
        vals: &mut [D::Val],
        parts: &mut [D::Acc],
        batch: usize,
        mac: &mut MacScratch,
    ) {
        for inst in &self.insts {
            if let Inst::Dense {
                runs,
                w,
                cols,
                store,
                rq,
            } = *inst
            {
                if D::BLOCKS_SAMPLES {
                    profile::retire(Op::Dense, batch as u64);
                    let cols = cols as usize;
                    self.dense_batch::<D>(runs, w, cols, store, rq, vals, parts, batch, mac);
                    continue;
                }
            }
            for s in 0..batch {
                let v = &mut vals[s * self.val_len..(s + 1) * self.val_len];
                let p = &mut parts[s * self.part_len..(s + 1) * self.part_len];
                self.step::<D>(inst, v, p, mac);
            }
        }
    }

    fn step<D: Domain>(
        &self,
        inst: &Inst,
        vals: &mut [D::Val],
        parts: &mut [D::Acc],
        mac: &mut MacScratch,
    ) {
        profile::retire(inst.op(), 1);
        let (simd, alevels) = (self.simd, self.alevels);
        match *inst {
            Inst::Copy {
                src,
                dst,
                len,
                from,
                to,
            } => {
                for i in 0..len as usize {
                    let v = vals[src as usize + i];
                    vals[dst as usize + i] = D::rescale(v, from, to, alevels);
                }
            }
            Inst::CopySide {
                src,
                dst,
                len,
                from,
                side,
                to,
            } => {
                for i in 0..len as usize {
                    let gathered = D::rescale(vals[src as usize + i], from, side, alevels);
                    vals[dst as usize + i] = D::rescale(gathered, side, to, alevels);
                }
            }
            Inst::Dense {
                runs,
                w,
                cols,
                store,
                rq,
            } => {
                let runs = span(&self.dense_runs, runs);
                let cols = cols as usize;
                let s = D::scratch(mac);
                let rows = grow(&mut s.rows, dense_rows(runs));
                let mut skips = SkipTally::new();
                let mut n = 0usize;
                for run in runs {
                    let src = &vals[run.x as usize..(run.x + run.n) as usize];
                    let woff = w + run.r * cols as u32;
                    keep_rows(rows, &mut n, src, woff, cols as u32, &mut skips, |v| {
                        D::lane(v, alevels)
                    });
                }
                skips.flush(Op::Dense);
                if store.output {
                    let acc = grow(&mut s.acc, cols);
                    D::gemv(self, cols, &rows[..n], acc);
                    let map = D::mac_map(rq, store.relu, alevels);
                    D::store_row(simd, vals, store.dst as usize, acc, 1, map);
                } else {
                    // Partial stripes are per-tile-unique and written
                    // exactly once, so the kernel's overwrite is the
                    // oracle's scatter.
                    let dst = store.dst as usize;
                    D::gemv(self, cols, &rows[..n], &mut parts[dst..dst + cols]);
                }
            }
            Inst::Conv {
                runs,
                wins,
                x0,
                wsel,
                cols,
                positions,
                store,
                rq,
            } => self.conv::<D>(
                runs,
                wins,
                x0,
                wsel,
                cols as usize,
                positions as usize,
                store,
                rq,
                vals,
                parts,
                mac,
            ),
            Inst::Reduce {
                srcs,
                cols,
                positions,
                store,
                rq,
            } => {
                let srcs = span(&self.reduce_srcs, srcs);
                let (cols, positions) = (cols as usize, positions as usize);
                let map = D::mac_map(rq, store.relu, alevels);
                let acc = grow(&mut D::scratch(mac).acc, cols);
                for p in 0..positions {
                    acc.fill(D::Acc::default());
                    for s in srcs {
                        let src = s.base as usize + p * s.stride as usize;
                        for (a, &part) in acc.iter_mut().zip(&parts[src..src + cols]) {
                            *a += part;
                        }
                    }
                    D::store_row(simd, vals, store.dst as usize + p, acc, positions, map);
                }
            }
            Inst::AvgPool {
                x0,
                geom,
                store,
                rq,
            } => {
                let positions = geom.positions as usize;
                let map = D::avg_map(rq, store.relu, f64::from(geom.k * geom.k), alevels);
                let acc = grow(&mut D::scratch(mac).acc, geom.cols as usize);
                pool_loop(geom, |p, base| {
                    for (c, a) in acc.iter_mut().enumerate() {
                        let x = x0 as usize + c * geom.chan as usize + base;
                        let mut sum = D::Acc::default();
                        for ky in 0..geom.k as usize {
                            let row = x + ky * geom.iw as usize;
                            for kx in 0..geom.k as usize {
                                sum += D::Acc::from(vals[row + kx]);
                            }
                        }
                        *a = sum;
                    }
                    D::store_row(simd, vals, store.dst as usize + p, acc, positions, map);
                });
            }
            Inst::Gap {
                x0,
                cols,
                positions,
                window,
                store,
                rq,
            } => {
                let map = D::avg_map(rq, store.relu, f64::from(window), alevels);
                let (positions, window) = (positions as usize, window as usize);
                let acc = grow(&mut D::scratch(mac).acc, cols as usize);
                for p in 0..positions {
                    for (c, a) in acc.iter_mut().enumerate() {
                        let x = x0 as usize + c * window;
                        *a = vals[x..x + window].iter().map(|&v| D::Acc::from(v)).sum();
                    }
                    D::store_row(simd, vals, store.dst as usize + p, acc, positions, map);
                }
            }
            Inst::MaxPool { x0, geom, store } => {
                // Stage 1 hands raw maxima to stage 2 through the partial
                // slab.
                debug_assert!(!store.output);
                let cols = geom.cols as usize;
                pool_loop(geom, |p, base| {
                    for c in 0..cols {
                        let x = x0 as usize + c * geom.chan as usize + base;
                        let mut max = D::MAX_IDENTITY;
                        for ky in 0..geom.k as usize {
                            let row = x + ky * geom.iw as usize;
                            for kx in 0..geom.k as usize {
                                max = D::max(max, D::Acc::from(vals[row + kx]));
                            }
                        }
                        parts[store.dst as usize + p * cols + c] = max;
                    }
                });
            }
            Inst::MaxFwd {
                src,
                cols,
                positions,
                store,
                rq,
            } => {
                let (cols, positions) = (cols as usize, positions as usize);
                let map = D::max_map(rq, store.relu, alevels);
                for p in 0..positions {
                    let row = &parts[src as usize + p * cols..][..cols];
                    D::store_row(simd, vals, store.dst as usize + p, row, positions, map);
                }
            }
            Inst::Eltwise {
                sides,
                x_off,
                cols,
                positions,
                store,
                rq,
            } => {
                let sides = span(&self.side_bases, sides);
                let positions = positions as usize;
                let map = D::eltwise_map(rq, store.relu, alevels);
                let acc = grow(&mut D::scratch(mac).acc, cols as usize);
                for p in 0..positions {
                    for (c, a) in acc.iter_mut().enumerate() {
                        let idx = x_off as usize + c * positions + p;
                        let mut sum = D::Acc::default();
                        for &side in sides {
                            sum += D::Acc::from(vals[side as usize + idx]);
                        }
                        *a = sum;
                    }
                    D::store_row(simd, vals, store.dst as usize + p, acc, positions, map);
                }
            }
        }
    }

    /// A dense tile over a whole batch: sample groups of up to
    /// [`Simd::block`] gather their activations row-major (a row survives
    /// if *any* sample of the group drives it) and share one blocked pass
    /// over the tile.
    #[allow(clippy::too_many_arguments)]
    fn dense_batch<D: Domain>(
        &self,
        runs: Span,
        w: u32,
        cols: usize,
        store: MacStore,
        rq: Requant,
        vals: &mut [D::Val],
        parts: &mut [D::Acc],
        batch: usize,
        mac: &mut MacScratch,
    ) {
        let runs = span(&self.dense_runs, runs);
        let (val_len, part_len, alevels) = (self.val_len, self.part_len, self.alevels);
        let s = D::scratch(mac);
        let rows = dense_rows(runs);
        let woffs = grow(&mut s.woffs, rows);
        let xb = grow(&mut s.xb, rows * self.simd.block());
        let map = D::mac_map(rq, store.relu, alevels);
        let mut skips = SkipTally::new();
        let mut s0 = 0usize;
        while s0 < batch {
            let sb = (batch - s0).min(self.simd.block());
            let mut n = 0usize;
            for run in runs {
                let mut woff = w + run.r * cols as u32;
                for x in run.x..run.x + run.n {
                    let mut any = false;
                    for (j, xs) in xb[n * sb..(n + 1) * sb].iter_mut().enumerate() {
                        let xv = vals[(s0 + j) * val_len + x as usize];
                        any |= xv != D::Val::default();
                        *xs = D::lane(xv, alevels);
                    }
                    woffs[n] = woff;
                    if any {
                        n += 1;
                    } else {
                        skips.hit();
                    }
                    woff += cols as u32;
                }
            }
            let (woffs, xb) = (&woffs[..n], &xb[..n * sb]);
            if store.output {
                let acc = grow(&mut s.acc, sb * cols);
                D::block_mac(self, cols, woffs, xb, sb, &mut s.rows, acc, cols);
                for (j, row) in acc.chunks_exact(cols).enumerate() {
                    let dst = (s0 + j) * val_len + store.dst as usize;
                    D::store_row(self.simd, vals, dst, row, 1, map);
                }
            } else {
                // Each sample's partial stripe is a row of the block, one
                // partial slab apart.
                let dst = s0 * part_len + store.dst as usize;
                let out = &mut parts[dst..dst + (sb - 1) * part_len + cols];
                D::block_mac(self, cols, woffs, xb, sb, &mut s.rows, out, part_len);
            }
            s0 += sb;
        }
        skips.flush(Op::Dense);
    }

    /// A convolution tile over one sample, by **blocks of positions**: up to
    /// [`Simd::block`] output positions that execute on the same weight
    /// realization — consecutive positions when the tile has one, positions
    /// `p ≡ r (mod dups)` under Noisy duplicates — gather their windows
    /// once into the row-major activation block (a clipped entry is the
    /// zero padding it stands for; a tile row survives if *any* position
    /// of the block drives it) and share one blocked MAC over the surviving
    /// rows. The crossbar the paper reuses across a layer's positions is
    /// thereby gathered once per block, not once per position; every
    /// accumulator still sees exactly its own non-zero terms in ascending
    /// row order (the `±0.0` argument of [`Lowered::exec_batch`]).
    #[allow(clippy::too_many_arguments)]
    fn conv<D: Domain>(
        &self,
        runs: Span,
        wins: Span,
        x0: u32,
        wsel: (u32, u32, u32),
        cols: usize,
        positions: usize,
        store: MacStore,
        rq: Requant,
        vals: &mut [D::Val],
        parts: &mut [D::Acc],
        mac: &mut MacScratch,
    ) {
        let runs = span(&self.conv_runs, runs);
        let wins = &self.wins[wins.0 as usize..wins.0 as usize + positions];
        let bases = span(&self.dup_bases, (wsel.0, wsel.1));
        // The oracle's round-robin is `bases[(p % dups) % bases.len()]`.
        let pstride = if bases.len() == 1 { 1 } else { wsel.2 as usize };
        let alevels = self.alevels;
        let s = D::scratch(mac);
        let rows = conv_rows(runs);
        let woffs = grow(&mut s.woffs, rows);
        let xb = grow(&mut s.xb, rows * self.simd.block());
        let map = D::mac_map(rq, store.relu, alevels);
        let mut skips = SkipTally::new();
        for class in 0..pstride.min(positions) {
            let wbase = bases[class % bases.len()];
            let mut p0 = class;
            while p0 < positions {
                let b = (positions - p0).div_ceil(pstride).min(self.simd.block());
                // Window clipping runs once per block, not per element:
                // bit `j` of `kym[ky]` / `kxm[kx]` says position `j` keeps
                // that kernel row / column (the rest is the zero padding
                // the oracle's `conv_input_index` rejects).
                let (mut kym, mut kxm) = ([0u8; 256], [0u8; 256]);
                let mut xbase = [0i64; kernels::MAX_BLOCK];
                for j in 0..b {
                    let win = &wins[p0 + j * pstride];
                    xbase[j] = i64::from(x0) + i64::from(win.base);
                    for m in &mut kym[usize::from(win.ky0)..usize::from(win.ky1)] {
                        *m |= 1 << j;
                    }
                    for m in &mut kxm[usize::from(win.kx0)..usize::from(win.kx1)] {
                        *m |= 1 << j;
                    }
                }
                let full = u8::MAX >> (8 - b);
                let contiguous = xbase[..b].windows(2).all(|x| x[1] == x[0] + 1);
                let zero = D::Val::default();
                let mut n = 0usize;
                for run in runs {
                    let keeps_ky = kym[usize::from(run.ky)];
                    if keeps_ky == 0 {
                        continue;
                    }
                    let mut woff = wbase + run.r0 * cols as u32;
                    for kx in run.kx_lo..run.kx_hi {
                        let keeps = keeps_ky & kxm[usize::from(kx)];
                        // A window origin alone can sit in the padded
                        // border (negative); only a kept element is a valid
                        // index, so stay in i64 until then.
                        let at = i64::from(run.x_rel) + i64::from(kx);
                        let xrow = &mut xb[n * b..(n + 1) * b];
                        let mut any = false;
                        if keeps == full && contiguous {
                            let x = (xbase[0] + at) as usize;
                            for (xs, &xv) in xrow.iter_mut().zip(&vals[x..x + b]) {
                                any |= xv != zero;
                                *xs = D::lane(xv, alevels);
                            }
                        } else {
                            for (j, xs) in xrow.iter_mut().enumerate() {
                                let xv = if keeps >> j & 1 != 0 {
                                    vals[(xbase[j] + at) as usize]
                                } else {
                                    zero
                                };
                                any |= xv != zero;
                                *xs = D::lane(xv, alevels);
                            }
                        }
                        woffs[n] = woff;
                        if any {
                            n += 1;
                        } else if keeps != 0 {
                            skips.hit();
                        }
                        woff += cols as u32;
                    }
                }
                let (woffs, xb) = (&woffs[..n], &xb[..n * b]);
                if store.output {
                    let acc = grow(&mut s.acc, b * cols);
                    D::block_mac(self, cols, woffs, xb, b, &mut s.rows, acc, cols);
                    // The block's positions are `pstride` apart in the
                    // node's `out[(col_offset + c) · positions + p]` stripe.
                    let (dst, strides) = (store.dst as usize + p0, (positions, pstride));
                    D::store_block(self.simd, vals, dst, acc, cols, strides, map);
                } else {
                    // Partial stripes are per-tile-unique and written
                    // exactly once, so the kernel's overwrite of
                    // `part[p · cols ..]` is the oracle's scatter.
                    let (dst, stride) = (store.dst as usize + p0 * cols, pstride * cols);
                    let out = &mut parts[dst..dst + (b - 1) * stride + cols];
                    D::block_mac(self, cols, woffs, xb, b, &mut s.rows, out, stride);
                }
                p0 += b * pstride;
            }
        }
        skips.flush(Op::Conv);
    }

    /// Human-readable dump of the first `limit` instructions.
    pub fn disassemble(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let shown = self.insts.len().min(limit);
        for (i, inst) in self.insts.iter().take(limit).enumerate() {
            let _ = writeln!(out, "{i:>5}  {inst}");
        }
        if shown < self.insts.len() {
            let _ = writeln!(
                out,
                "  ...  ({} more instructions)",
                self.insts.len() - shown
            );
        }
        out
    }
}

/// Iterate a pooling instruction's output positions without any run-time
/// shape math: `body(p, base)` with `base` walking the window origins
/// incrementally.
#[inline(always)]
fn pool_loop(geom: PoolLoop, mut body: impl FnMut(usize, usize)) {
    let (positions, ow) = (geom.positions as usize, geom.ow as usize);
    let (stride, iw) = (geom.stride as usize, geom.iw as usize);
    let mut p = 0;
    let mut row_base = 0usize;
    'outer: loop {
        let mut base = row_base;
        for _ in 0..ow {
            body(p, base);
            p += 1;
            if p >= positions {
                break 'outer;
            }
            base += stride;
        }
        row_base += stride * iw;
    }
}

/// Tile rows a dense instruction's runs cover: the most a gather can keep.
fn dense_rows(runs: &[RowRun]) -> usize {
    runs.iter().map(|run| run.n as usize).sum()
}

/// Tile rows a convolution instruction's runs cover (before any window
/// clipping): the most a gather can keep.
fn conv_rows(runs: &[ConvRun]) -> usize {
    runs.iter()
        .map(|run| usize::from(run.kx_hi - run.kx_lo))
        .sum()
}

/// Compact one run of consecutive tile rows into a position's surviving-row
/// list: `rows[*n..]` receives `(weight offset, activation)` for every row
/// of `src` whose activation is non-zero (the run-time sparsity skip).
/// Branch-free — every row is written and the cursor only advances past a
/// kept one — because which post-ReLU activations are zero is not
/// predictable. `rows` must hold one slot per row of the tile.
#[inline(always)]
fn keep_rows<T: Copy + PartialEq + Default, X>(
    rows: &mut [(u32, X)],
    n: &mut usize,
    src: &[T],
    mut woff: u32,
    cols: u32,
    skips: &mut SkipTally,
    lane: impl Fn(T) -> X,
) {
    for &xv in src {
        rows[*n] = (woff, lane(xv));
        let keep = xv != T::default();
        *n += usize::from(keep);
        if !keep {
            skips.hit();
        }
        woff += cols;
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn st(s: &MacStore) -> String {
            format!(
                "{}[{}]{}",
                if s.output { "val" } else { "part" },
                s.dst,
                if s.relu { " relu" } else { "" }
            )
        }
        match self {
            Inst::Copy {
                src,
                dst,
                len,
                from,
                to,
            } => write!(
                f,
                "copy       val[{src}..+{len}] -> val[{dst}]  step {from:.3e}->{to:.3e}"
            ),
            Inst::CopySide {
                src,
                dst,
                len,
                from,
                side,
                to,
            } => write!(
                f,
                "copy.side  val[{src}..+{len}] -> val[{dst}]  step {from:.3e}->{side:.3e}->{to:.3e}"
            ),
            Inst::Dense {
                runs,
                w,
                cols,
                store,
                ..
            } => write!(
                f,
                "mac.dense  runs {}+{} w[{w}] cols {cols} -> {}",
                runs.0,
                runs.1,
                st(store)
            ),
            Inst::Conv {
                runs,
                wins,
                x0,
                wsel,
                cols,
                positions,
                store,
                ..
            } => write!(
                f,
                "mac.conv   runs {}+{} wins {}+{} x0 {x0} dups {} cols {cols} pos {positions} -> {}",
                runs.0, runs.1, wins.0, wins.1, wsel.2, st(store)
            ),
            Inst::Reduce {
                srcs,
                cols,
                positions,
                store,
                ..
            } => write!(
                f,
                "reduce     srcs {}+{} cols {cols} pos {positions} -> {}",
                srcs.0,
                srcs.1,
                st(store)
            ),
            Inst::AvgPool {
                x0, geom, store, ..
            } => write!(
                f,
                "avgpool    x0 {x0} k {} cols {} pos {} -> {}",
                geom.k,
                geom.cols,
                geom.positions,
                st(store)
            ),
            Inst::Gap {
                x0,
                cols,
                positions,
                window,
                store,
                ..
            } => write!(
                f,
                "gap        x0 {x0} window {window} cols {cols} pos {positions} -> {}",
                st(store)
            ),
            Inst::MaxPool { x0, geom, store } => write!(
                f,
                "maxpool    x0 {x0} k {} cols {} pos {} -> {}",
                geom.k,
                geom.cols,
                geom.positions,
                st(store)
            ),
            Inst::MaxFwd {
                src,
                cols,
                positions,
                store,
                ..
            } => write!(
                f,
                "maxfwd     part[{src}] cols {cols} pos {positions} -> {}",
                st(store)
            ),
            Inst::Eltwise {
                sides,
                x_off,
                cols,
                positions,
                store,
                ..
            } => write!(
                f,
                "eltwise    sides {}+{} x_off {x_off} cols {cols} pos {positions} -> {}",
                sides.0,
                sides.1,
                st(store)
            ),
        }
    }
}
