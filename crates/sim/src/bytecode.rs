//! The bind-time tile-program bytecode and its dispatch loops.
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
//!   domains, `i64` codes in the integer domain);
//! * the **partial slab** — raw tile accumulations awaiting a reduction or a
//!   max-pool stage 2 (`f64` / `i64`).
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
//!   positions of a float convolution, the samples of a dense batch), a row
//!   is skipped when the whole block is zero on it.
//!
//! Both skips remove only terms that are exactly zero in the same f64/i64
//! arithmetic the oracle performs (`0 · x` and `w · 0` with finite operands
//! — bind rejects non-finite float weights), so every accumulator still
//! receives exactly the same sequence of non-zero terms in the same order —
//! outputs are bit-identical to the tile-program oracle, which the
//! differential suite asserts per node.
//!
//! A VMM tile is the paper's weight-stationary crossbar: programmed once,
//! reused by every output position of its layer. The float dispatch mirrors
//! that reuse instead of re-streaming the tile per position. A convolution
//! runs by **blocks of positions** ([`Lowered::conv_f`]): up to
//! [`Simd::block`] positions that share a weight realization gather their
//! im2col windows once — window clipping is two bit tables per block, not a
//! test per element — into a row-major activation block, and one pass of the
//! 2-D register-blocked kernel ([`kernels::mac_f_block`]) over the tile's
//! surviving rows produces all their outputs, stored `b` contiguous values
//! per column. A dense tile has one position, so its block is the *samples*
//! of a batch ([`Lowered::exec_float_batch`]); at batch 1 it is a plain GEMV
//! ([`kernels::mac_f`]). Batched entry points run instruction-major over a
//! batch of slabs, so a tile is also cache-resident across the samples it
//! cannot block. None of this touches per-accumulator summation order: terms
//! arrive in ascending row order whatever the blocking, a block member's
//! own zero contributes a `±0.0` that cannot move an accumulator, and
//! multiplies and adds stay unfused.
//!
//! The integer domain keeps `i64` everywhere a caller can see — value slab,
//! partial slab, accumulator row, `requantize_mac` — but its MAC datapath is
//! narrow: the weight slab holds one `i8` per code, the surviving-row list
//! carries `i32` activation codes, and [`kernels::mac_i`] accumulates in
//! `i32` lanes, widening at the store. That is exact because value-slab
//! codes are clamped to ±`activation_levels` by every writer and bind
//! rejects any plan whose deepest tile could overflow a lane. Its MAC stays
//! one GEMV per position (the `i32` multiply is the limiter, not weight
//! traffic); what it shares with the float side is the *store*: every
//! requantizing store runs the reference's own `requantize_mac` /
//! `quantize_code` through [`kernels::map_store`], instantiated for the
//! bind-time family so `round` is an instruction, not a libm call.

use crate::kernels::{self, RowF, RowI, Simd};
use crate::profile::{self, SkipTally};
use fpsa_nn::quant::{quantize_code, rescale_code};
use fpsa_nn::reference::requantize_mac;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reusable MAC scratch: the per-position surviving-row lists the GEMV
/// kernels take, the row list and activation block the blocked kernel takes,
/// and the f64/i64 accumulators that output-carrying stores compute into
/// before scattering (partial stores accumulate straight into their slab
/// stripe). All buffers grow to their high-water mark on the first run and
/// are reused allocation-free afterwards.
#[derive(Debug, Default)]
pub(crate) struct MacScratch {
    pub acc_f: Vec<f64>,
    pub acc_i: Vec<i64>,
    pub rows_f: Vec<RowF>,
    pub rows_i: Vec<RowI>,
    /// Blocked-MAC row list: weight-row offsets of the rows that survive
    /// the whole-block zero check.
    pub woffs: Vec<u32>,
    /// Blocked-MAC activation block: `b` positions' / samples' activations
    /// per surviving row, row-major (see [`kernels::mac_f_block`]).
    pub xb: Vec<f64>,
}

/// Ensure `buf` exposes `len` elements (growing once; steady state is a
/// no-op) and return them. Contents are overwritten by every kernel call, so
/// no zeroing is needed.
fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
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
    /// `true` → value slab (f32 cast / integer requantization applies);
    /// `false` → raw accumulation into the partial slab.
    pub output: bool,
    /// Fused ReLU at the output boundary (float store path).
    pub relu: bool,
}

/// Integer MAC requantization constants of the producing node.
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

/// One lowered instruction. Float and integer domains get separate variants
/// because their store paths differ (f32 cast + fused ReLU vs `requantize_mac`
/// / `rescale_code` compositions); an executor stream only ever contains the
/// variants of its bound domain.
// The MAC variants carry their full preresolved operand set inline — boxing
// them would put a pointer chase in the dispatch loop, which is exactly what
// this module exists to remove.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Inst {
    /// Float gather/eltwise segment copy within the value slab.
    CopyF { src: u32, dst: u32, len: u32 },
    /// Integer gather segment: `dst[i] = rescale_code(v[src+i], from, to)`.
    RescaleI {
        src: u32,
        dst: u32,
        len: u32,
        from: f64,
        to: f64,
    },
    /// Integer eltwise side segment: the reference's double rescale through
    /// the side's own gather step.
    RescaleI2 {
        src: u32,
        dst: u32,
        len: u32,
        from: f64,
        side: f64,
        to: f64,
    },
    /// Dense VMM tile (feature vectors: exactly one output position).
    DenseF {
        runs: Span,
        w: u32,
        cols: u32,
        store: MacStore,
    },
    /// Integer dense VMM tile.
    DenseI {
        runs: Span,
        w: u32,
        cols: u32,
        store: MacStore,
        rq: Requant,
    },
    /// Convolution VMM tile: loops its output positions over the node's
    /// precomputed windows, round-robin over duplicate weight realizations.
    ConvF {
        runs: Span,
        wins: Span,
        x0: u32,
        /// Duplicate weight bases: span into `dup_bases` + duplicate count.
        wsel: (u32, u32, u32),
        cols: u32,
        positions: u32,
        store: MacStore,
    },
    /// Integer convolution VMM tile (codes are shared across duplicates).
    ConvI {
        runs: Span,
        wins: Span,
        x0: u32,
        w: u32,
        cols: u32,
        positions: u32,
        store: MacStore,
        rq: Requant,
    },
    /// Partial-sum reduction over predecessor tiles.
    ReduceF {
        srcs: Span,
        cols: u32,
        positions: u32,
        store: MacStore,
    },
    /// Integer partial-sum reduction.
    ReduceI {
        srcs: Span,
        cols: u32,
        positions: u32,
        store: MacStore,
        rq: Requant,
    },
    /// Average pooling over `k × k` windows.
    AvgPoolF {
        x0: u32,
        geom: PoolLoop,
        store: MacStore,
        div: f64,
    },
    /// Integer average pooling (window sum → real → requantize).
    AvgPoolI {
        x0: u32,
        geom: PoolLoop,
        store: MacStore,
        gstep: f64,
        ostep: f64,
    },
    /// Global average pooling over the full spatial window.
    GapF {
        x0: u32,
        cols: u32,
        positions: u32,
        window: u32,
        store: MacStore,
        div: f64,
    },
    /// Integer global average pooling.
    GapI {
        x0: u32,
        cols: u32,
        positions: u32,
        window: u32,
        store: MacStore,
        gstep: f64,
        ostep: f64,
    },
    /// Max-pool stage 1: window maxima into the partial slab.
    MaxPoolF {
        x0: u32,
        geom: PoolLoop,
        store: MacStore,
    },
    /// Integer max-pool stage 1 (raw code maxima).
    MaxPoolI {
        x0: u32,
        geom: PoolLoop,
        store: MacStore,
    },
    /// Max-pool stage 2: forward the stage-1 tile's partial values.
    MaxFwdF {
        src: u32,
        cols: u32,
        positions: u32,
        store: MacStore,
    },
    /// Integer max-pool stage 2 (real value → requantize).
    MaxFwdI {
        src: u32,
        cols: u32,
        positions: u32,
        store: MacStore,
        gstep: f64,
        ostep: f64,
    },
    /// Element-wise addition across the node's gathered sides.
    EltwiseF {
        sides: Span,
        x_off: u32,
        cols: u32,
        positions: u32,
        store: MacStore,
    },
    /// Integer element-wise addition (code-domain ReLU, then rescale).
    EltwiseI {
        sides: Span,
        x_off: u32,
        cols: u32,
        positions: u32,
        store: MacStore,
        gstep: f64,
        ostep: f64,
    },
}

impl Inst {
    /// Stable opcode index, aligned with [`profile::OPCODE_NAMES`].
    pub(crate) fn opcode(&self) -> usize {
        match self {
            Inst::CopyF { .. } => 0,
            Inst::RescaleI { .. } => 1,
            Inst::RescaleI2 { .. } => 2,
            Inst::DenseF { .. } => 3,
            Inst::DenseI { .. } => 4,
            Inst::ConvF { .. } => 5,
            Inst::ConvI { .. } => 6,
            Inst::ReduceF { .. } => 7,
            Inst::ReduceI { .. } => 8,
            Inst::AvgPoolF { .. } => 9,
            Inst::AvgPoolI { .. } => 10,
            Inst::GapF { .. } => 11,
            Inst::GapI { .. } => 12,
            Inst::MaxPoolF { .. } => 13,
            Inst::MaxPoolI { .. } => 14,
            Inst::MaxFwdF { .. } => 15,
            Inst::MaxFwdI { .. } => 16,
            Inst::EltwiseF { .. } => 17,
            Inst::EltwiseI { .. } => 18,
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
    /// 4-byte `f32` in the float domains and a 1-byte `i8` code in the
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
    pub stats: LowerStats,
}

impl Lowered {
    /// Execute the float-domain stream over the arena's flat slabs. The
    /// input node's region must already hold the sample; slabs must be
    /// zeroed (the executor's `run_into` does both).
    pub fn exec_float(&self, vals: &mut [f32], parts: &mut [f64], mac: &mut MacScratch) {
        for inst in &self.insts {
            self.exec_float_inst(inst, vals, parts, mac);
        }
    }

    /// Execute the float stream over a *batch* of `batch` samples laid out
    /// back to back in the slabs, instruction-major: every instruction
    /// sweeps all samples while its weight tile is cache-resident, which is
    /// what amortizes weight streaming across the batch. Each sample still
    /// sees exactly the per-sample instruction order (samples are
    /// independent), so results are bit-identical to `batch` sequential
    /// [`Lowered::exec_float`] calls.
    ///
    /// Dense tiles additionally block *samples* through the 2-D register
    /// kernel ([`kernels::mac_f_block`]): groups of up to
    /// [`Simd::block`] samples share every weight-row load, so the tile is
    /// not just cache-resident but loaded once per group. A sample whose
    /// activation is zero on a row another group member keeps contributes a
    /// `±0.0` product, which cannot change an accumulator that starts at
    /// `+0.0` (exact cancellation rounds to `+0.0` under round-to-nearest,
    /// so the accumulator is never `-0.0`; bind rejects non-finite weights,
    /// the one case where `0 · w` is not `±0.0`) — bits stay identical to
    /// the per-sample skip path. Convolution tiles already reuse their
    /// weights across the *positions* of one sample (see
    /// [`Lowered::conv_f`]), so a conv batch is just that, per sample.
    pub fn exec_float_batch(
        &self,
        vals: &mut [f32],
        parts: &mut [f64],
        batch: usize,
        mac: &mut MacScratch,
    ) {
        for inst in &self.insts {
            if let Inst::DenseF {
                runs,
                w,
                cols,
                store,
            } = *inst
            {
                profile::retire(inst.opcode(), batch as u64);
                self.dense_f_batch(runs, w, cols as usize, store, vals, parts, batch, mac);
                continue;
            }
            for s in 0..batch {
                let v = &mut vals[s * self.val_len..(s + 1) * self.val_len];
                let p = &mut parts[s * self.part_len..(s + 1) * self.part_len];
                self.exec_float_inst(inst, v, p, mac);
            }
        }
    }

    /// A dense tile over a whole batch: sample groups of up to
    /// [`Simd::block`] gather their activations row-major (a row survives
    /// if *any* sample of the group drives it) and share one blocked pass
    /// over the tile.
    #[allow(clippy::too_many_arguments)]
    fn dense_f_batch(
        &self,
        runs: Span,
        w: u32,
        cols: usize,
        store: MacStore,
        vals: &mut [f32],
        parts: &mut [f64],
        batch: usize,
        mac: &mut MacScratch,
    ) {
        let runs = &self.dense_runs[runs.0 as usize..(runs.0 + runs.1) as usize];
        let (val_len, part_len) = (self.val_len, self.part_len);
        let rows = dense_rows(runs);
        let woffs = grow(&mut mac.woffs, rows);
        let xb = grow(&mut mac.xb, rows * self.simd.block());
        let mut skips = SkipTally::new();
        let mut s0 = 0usize;
        while s0 < batch {
            let sb = (batch - s0).min(self.simd.block());
            let mut n = 0usize;
            for run in runs {
                let mut woff = w + run.r * cols as u32;
                for x in run.x..run.x + run.n {
                    let mut any = false;
                    for (s, xs) in xb[n * sb..(n + 1) * sb].iter_mut().enumerate() {
                        let xv = vals[(s0 + s) * val_len + x as usize];
                        any |= xv != 0.0;
                        *xs = f64::from(xv);
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
                let acc = grow(&mut mac.acc_f, sb * cols);
                kernels::mac_f_block(self.simd, &self.wslab_f, cols, woffs, xb, sb, acc, cols);
                for (s, row) in acc.chunks_exact(cols).enumerate() {
                    let vo = (s0 + s) * val_len;
                    scatter_out_f(&mut vals[vo..vo + val_len], store, row, 1, 0);
                }
            } else {
                // Each sample's partial stripe is a row of the block, one
                // partial slab apart.
                let dst = s0 * part_len + store.dst as usize;
                let out = &mut parts[dst..dst + (sb - 1) * part_len + cols];
                kernels::mac_f_block(self.simd, &self.wslab_f, cols, woffs, xb, sb, out, part_len);
            }
            s0 += sb;
        }
        skips.flush(profile::OP_DENSE_F);
    }

    /// A convolution tile over one sample, by **blocks of positions**: up to
    /// [`Simd::block`] output positions that execute on the same weight
    /// realization — consecutive positions when the tile has one, positions
    /// `p ≡ r (mod dups)` under Noisy duplicates — gather their windows
    /// once into the row-major activation block (a clipped entry is the
    /// `+0.0` padding it stands for; a tile row survives if *any* position
    /// of the block drives it), share one blocked pass over the surviving
    /// rows and store `b` outputs per column. The crossbar the paper reuses
    /// across a layer's positions is thereby streamed once per block, not
    /// once per position; every accumulator still sees exactly its own
    /// non-zero terms in ascending row order (the `±0.0` argument of
    /// [`Lowered::exec_float_batch`]).
    #[allow(clippy::too_many_arguments)]
    fn conv_f(
        &self,
        runs: Span,
        wins: Span,
        x0: u32,
        wsel: (u32, u32, u32),
        cols: usize,
        positions: usize,
        store: MacStore,
        vals: &mut [f32],
        parts: &mut [f64],
        mac: &mut MacScratch,
    ) {
        let runs = &self.conv_runs[runs.0 as usize..(runs.0 + runs.1) as usize];
        let wins = &self.wins[wins.0 as usize..wins.0 as usize + positions];
        let bases = &self.dup_bases[wsel.0 as usize..(wsel.0 + wsel.1) as usize];
        // The oracle's round-robin is `bases[(p % dups) % bases.len()]`.
        let pstride = if bases.len() == 1 { 1 } else { wsel.2 as usize };
        let rows = conv_rows(runs);
        let woffs = grow(&mut mac.woffs, rows);
        let xb = grow(&mut mac.xb, rows * self.simd.block());
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
                                any |= xv != 0.0;
                                *xs = f64::from(xv);
                            }
                        } else {
                            for (j, xs) in xrow.iter_mut().enumerate() {
                                let xv = if keeps >> j & 1 != 0 {
                                    vals[(xbase[j] + at) as usize]
                                } else {
                                    0.0
                                };
                                any |= xv != 0.0;
                                *xs = f64::from(xv);
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
                    let acc = grow(&mut mac.acc_f, b * cols);
                    kernels::mac_f_block(self.simd, &self.wslab_f, cols, woffs, xb, b, acc, cols);
                    // Per column, the block's positions are `pstride` apart
                    // in the node's `out[(col_offset + c) · positions + p]`
                    // stripe: contiguous when the tile has one realization.
                    for c in 0..cols {
                        let base = store.dst as usize + c * positions + p0;
                        for j in 0..b {
                            let a = acc[j * cols + c];
                            let a = if store.relu { a.max(0.0) } else { a };
                            vals[base + j * pstride] = a as f32;
                        }
                    }
                } else {
                    // Partial stripes are per-tile-unique and written
                    // exactly once, so the kernel's overwrite of
                    // `part[p · cols ..]` is the oracle's scatter.
                    let (dst, stride) = (store.dst as usize + p0 * cols, pstride * cols);
                    let out = &mut parts[dst..dst + (b - 1) * stride + cols];
                    kernels::mac_f_block(self.simd, &self.wslab_f, cols, woffs, xb, b, out, stride);
                }
                p0 += b * pstride;
            }
        }
        skips.flush(profile::OP_CONV_F);
    }

    fn exec_float_inst(
        &self,
        inst: &Inst,
        vals: &mut [f32],
        parts: &mut [f64],
        mac: &mut MacScratch,
    ) {
        profile::retire(inst.opcode(), 1);
        {
            match *inst {
                Inst::CopyF { src, dst, len } => {
                    vals.copy_within(src as usize..(src + len) as usize, dst as usize);
                }
                Inst::DenseF {
                    runs,
                    w,
                    cols,
                    store,
                } => {
                    let runs = &self.dense_runs[runs.0 as usize..(runs.0 + runs.1) as usize];
                    let cols = cols as usize;
                    let rows = grow(&mut mac.rows_f, dense_rows(runs));
                    let mut skips = SkipTally::new();
                    let mut n = 0usize;
                    for run in runs {
                        let src = &vals[run.x as usize..(run.x + run.n) as usize];
                        let woff = w + run.r * cols as u32;
                        keep_rows(rows, &mut n, src, woff, cols as u32, &mut skips, f64::from);
                    }
                    skips.flush(profile::OP_DENSE_F);
                    if store.output {
                        let acc = grow(&mut mac.acc_f, cols);
                        kernels::mac_f(self.simd, &self.wslab_f, cols, &rows[..n], acc);
                        scatter_out_f(vals, store, acc, 1, 0);
                    } else {
                        // Partial stripes are per-tile-unique and written
                        // exactly once, so the kernel's overwrite is the
                        // oracle's scatter.
                        let dst = store.dst as usize;
                        let out = &mut parts[dst..dst + cols];
                        kernels::mac_f(self.simd, &self.wslab_f, cols, &rows[..n], out);
                    }
                }
                Inst::ConvF {
                    runs,
                    wins,
                    x0,
                    wsel,
                    cols,
                    positions,
                    store,
                } => self.conv_f(
                    runs,
                    wins,
                    x0,
                    wsel,
                    cols as usize,
                    positions as usize,
                    store,
                    vals,
                    parts,
                    mac,
                ),
                Inst::ReduceF {
                    srcs,
                    cols,
                    positions,
                    store,
                } => {
                    let srcs = &self.reduce_srcs[srcs.0 as usize..(srcs.0 + srcs.1) as usize];
                    let (cols, positions) = (cols as usize, positions as usize);
                    for p in 0..positions {
                        for c in 0..cols {
                            let mut sum = 0.0f64;
                            for s in srcs {
                                sum += parts[s.base as usize + p * s.stride as usize + c];
                            }
                            store_one_f(vals, parts, store, c, sum, positions, p, cols);
                        }
                    }
                }
                Inst::AvgPoolF {
                    x0,
                    geom,
                    store,
                    div,
                } => {
                    let (cols, positions) = (geom.cols as usize, geom.positions as usize);
                    pool_loop(geom, |p, base| {
                        for c in 0..cols {
                            let x = x0 as usize + c * geom.chan as usize + base;
                            let mut sum = 0.0f64;
                            for ky in 0..geom.k as usize {
                                let row = x + ky * geom.iw as usize;
                                for kx in 0..geom.k as usize {
                                    sum += f64::from(vals[row + kx]);
                                }
                            }
                            store_one_f(vals, parts, store, c, sum / div, positions, p, cols);
                        }
                    });
                }
                Inst::GapF {
                    x0,
                    cols,
                    positions,
                    window,
                    store,
                    div,
                } => {
                    let (cols, positions, window) =
                        (cols as usize, positions as usize, window as usize);
                    for p in 0..positions {
                        for c in 0..cols {
                            let x = x0 as usize + c * window;
                            let sum: f64 = vals[x..x + window].iter().map(|&v| f64::from(v)).sum();
                            store_one_f(vals, parts, store, c, sum / div, positions, p, cols);
                        }
                    }
                }
                Inst::MaxPoolF { x0, geom, store } => {
                    let (cols, positions) = (geom.cols as usize, geom.positions as usize);
                    pool_loop(geom, |p, base| {
                        for c in 0..cols {
                            let x = x0 as usize + c * geom.chan as usize + base;
                            let mut max = f64::NEG_INFINITY;
                            for ky in 0..geom.k as usize {
                                let row = x + ky * geom.iw as usize;
                                for kx in 0..geom.k as usize {
                                    max = max.max(f64::from(vals[row + kx]));
                                }
                            }
                            store_one_f(vals, parts, store, c, max, positions, p, cols);
                        }
                    });
                }
                Inst::MaxFwdF {
                    src,
                    cols,
                    positions,
                    store,
                } => {
                    let (cols, positions) = (cols as usize, positions as usize);
                    for p in 0..positions {
                        for c in 0..cols {
                            let a = parts[src as usize + p * cols + c];
                            store_one_f(vals, parts, store, c, a, positions, p, cols);
                        }
                    }
                }
                Inst::EltwiseF {
                    sides,
                    x_off,
                    cols,
                    positions,
                    store,
                } => {
                    let sides = &self.side_bases[sides.0 as usize..(sides.0 + sides.1) as usize];
                    let (cols, positions) = (cols as usize, positions as usize);
                    for p in 0..positions {
                        for c in 0..cols {
                            let idx = x_off as usize + c * positions + p;
                            let mut sum = 0.0f64;
                            for &side in sides {
                                sum += f64::from(vals[side as usize + idx]);
                            }
                            store_one_f(vals, parts, store, c, sum, positions, p, cols);
                        }
                    }
                }
                // Integer variants never appear in a float stream.
                _ => unreachable!("integer instruction in a float stream"),
            }
        }
    }

    /// Execute the integer-domain stream over the arena's flat slabs.
    pub fn exec_integer(
        &self,
        vals: &mut [i64],
        parts: &mut [i64],
        alevels: i64,
        mac: &mut MacScratch,
    ) {
        for inst in &self.insts {
            self.exec_integer_inst(inst, vals, parts, alevels, mac);
        }
    }

    /// Instruction-major integer batch execution (see
    /// [`Lowered::exec_float_batch`] for the layout and identity argument).
    pub fn exec_integer_batch(
        &self,
        vals: &mut [i64],
        parts: &mut [i64],
        batch: usize,
        alevels: i64,
        mac: &mut MacScratch,
    ) {
        for inst in &self.insts {
            for s in 0..batch {
                let v = &mut vals[s * self.val_len..(s + 1) * self.val_len];
                let p = &mut parts[s * self.part_len..(s + 1) * self.part_len];
                self.exec_integer_inst(inst, v, p, alevels, mac);
            }
        }
    }

    fn exec_integer_inst(
        &self,
        inst: &Inst,
        vals: &mut [i64],
        parts: &mut [i64],
        alevels: i64,
        mac: &mut MacScratch,
    ) {
        profile::retire(inst.opcode(), 1);
        let simd = self.simd;
        {
            match *inst {
                Inst::RescaleI {
                    src,
                    dst,
                    len,
                    from,
                    to,
                } => {
                    for i in 0..len as usize {
                        let c = vals[src as usize + i];
                        vals[dst as usize + i] = rescale_code(c, from, to, alevels);
                    }
                }
                Inst::RescaleI2 {
                    src,
                    dst,
                    len,
                    from,
                    side,
                    to,
                } => {
                    for i in 0..len as usize {
                        let gathered = rescale_code(vals[src as usize + i], from, side, alevels);
                        vals[dst as usize + i] = rescale_code(gathered, side, to, alevels);
                    }
                }
                Inst::DenseI {
                    runs,
                    w,
                    cols,
                    store,
                    rq,
                } => {
                    let runs = &self.dense_runs[runs.0 as usize..(runs.0 + runs.1) as usize];
                    let cols = cols as usize;
                    let rows = grow(&mut mac.rows_i, dense_rows(runs));
                    let mut skips = SkipTally::new();
                    let mut n = 0usize;
                    for run in runs {
                        let src = &vals[run.x as usize..(run.x + run.n) as usize];
                        let woff = w + run.r * cols as u32;
                        keep_rows(rows, &mut n, src, woff, cols as u32, &mut skips, |c| {
                            lane_code(c, alevels)
                        });
                    }
                    skips.flush(profile::OP_DENSE_I);
                    if store.output {
                        let acc = grow(&mut mac.acc_i, cols);
                        kernels::mac_i(simd, &self.wslab_q, cols, &rows[..n], acc);
                        let code = requant(rq, store.relu, alevels);
                        store_codes_i(simd, vals, store, acc, 1, 0, code);
                    } else {
                        let dst = store.dst as usize;
                        let out = &mut parts[dst..dst + cols];
                        kernels::mac_i(simd, &self.wslab_q, cols, &rows[..n], out);
                    }
                }
                Inst::ConvI {
                    runs,
                    wins,
                    x0,
                    w,
                    cols,
                    positions,
                    store,
                    rq,
                } => {
                    let runs = &self.conv_runs[runs.0 as usize..(runs.0 + runs.1) as usize];
                    let (cols, positions) = (cols as usize, positions as usize);
                    let wins = &self.wins[wins.0 as usize..wins.0 as usize + positions];
                    let rows = grow(&mut mac.rows_i, conv_rows(runs));
                    let acc = grow(&mut mac.acc_i, cols);
                    let code = requant(rq, store.relu, alevels);
                    let mut skips = SkipTally::new();
                    // One GEMV per position: the `i32` lanes are
                    // multiply-bound, so blocking positions buys them
                    // nothing (PR 15's measurement).
                    for (p, win) in wins.iter().enumerate() {
                        let xbase = i64::from(x0) + i64::from(win.base);
                        let mut n = 0usize;
                        for run in runs {
                            // Rows clipped here are exactly the rows the
                            // oracle's `conv_input_index` rejects as zero
                            // padding.
                            if run.ky < win.ky0 || run.ky >= win.ky1 {
                                continue;
                            }
                            let lo = run.kx_lo.max(win.kx0);
                            let hi = run.kx_hi.min(win.kx1);
                            if lo >= hi {
                                continue;
                            }
                            // The run base alone can sit in the padded
                            // border (negative); only base + kx is a valid
                            // index, so stay in i64 until then.
                            let xrun = xbase + i64::from(run.x_rel);
                            let src =
                                &vals[(xrun + i64::from(lo)) as usize..][..usize::from(hi - lo)];
                            let woff = w + (run.r0 + u32::from(lo - run.kx_lo)) * cols as u32;
                            keep_rows(rows, &mut n, src, woff, cols as u32, &mut skips, |c| {
                                lane_code(c, alevels)
                            });
                        }
                        if store.output {
                            kernels::mac_i(simd, &self.wslab_q, cols, &rows[..n], acc);
                            store_codes_i(simd, vals, store, acc, positions, p, code);
                        } else {
                            let dst = store.dst as usize + p * cols;
                            let out = &mut parts[dst..dst + cols];
                            kernels::mac_i(simd, &self.wslab_q, cols, &rows[..n], out);
                        }
                    }
                    skips.flush(profile::OP_CONV_I);
                }
                Inst::ReduceI {
                    srcs,
                    cols,
                    positions,
                    store,
                    rq,
                } => {
                    let srcs = &self.reduce_srcs[srcs.0 as usize..(srcs.0 + srcs.1) as usize];
                    let (cols, positions) = (cols as usize, positions as usize);
                    let code = requant(rq, store.relu, alevels);
                    let acc = grow(&mut mac.acc_i, cols);
                    for p in 0..positions {
                        acc.fill(0);
                        for s in srcs {
                            let src = s.base as usize + p * s.stride as usize;
                            for (a, &part) in acc.iter_mut().zip(&parts[src..src + cols]) {
                                *a += part;
                            }
                        }
                        if store.output {
                            store_codes_i(simd, vals, store, acc, positions, p, code);
                        } else {
                            let dst = store.dst as usize + p * cols;
                            parts[dst..dst + cols].copy_from_slice(acc);
                        }
                    }
                }
                Inst::AvgPoolI {
                    x0,
                    geom,
                    store,
                    gstep,
                    ostep,
                } => {
                    let div = f64::from(geom.k * geom.k);
                    let (cols, positions) = (geom.cols as usize, geom.positions as usize);
                    // Identical composition to `pooled_window_real`.
                    let code =
                        move |sum: i64| quantize_code(sum as f64 * gstep / div, ostep, alevels);
                    let acc = grow(&mut mac.acc_i, cols);
                    pool_loop(geom, |p, base| {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let x = x0 as usize + c * geom.chan as usize + base;
                            let mut sum = 0i64;
                            for ky in 0..geom.k as usize {
                                let row = x + ky * geom.iw as usize;
                                for kx in 0..geom.k as usize {
                                    sum += vals[row + kx];
                                }
                            }
                            *a = sum;
                        }
                        store_codes_i(simd, vals, store, acc, positions, p, code);
                    });
                }
                Inst::GapI {
                    x0,
                    cols,
                    positions,
                    window,
                    store,
                    gstep,
                    ostep,
                } => {
                    let (cols, positions, window) =
                        (cols as usize, positions as usize, window as usize);
                    let code = move |sum: i64| {
                        quantize_code(sum as f64 * gstep / window as f64, ostep, alevels)
                    };
                    let acc = grow(&mut mac.acc_i, cols);
                    for p in 0..positions {
                        for (c, a) in acc.iter_mut().enumerate() {
                            let x = x0 as usize + c * window;
                            *a = vals[x..x + window].iter().sum();
                        }
                        store_codes_i(simd, vals, store, acc, positions, p, code);
                    }
                }
                Inst::MaxPoolI { x0, geom, store } => {
                    // Stage 1 hands raw code maxima to stage 2 through the
                    // partial slab.
                    debug_assert!(!store.output);
                    let cols = geom.cols as usize;
                    pool_loop(geom, |p, base| {
                        for c in 0..cols {
                            let x = x0 as usize + c * geom.chan as usize + base;
                            let mut max = i64::MIN;
                            for ky in 0..geom.k as usize {
                                let row = x + ky * geom.iw as usize;
                                for kx in 0..geom.k as usize {
                                    max = max.max(vals[row + kx]);
                                }
                            }
                            parts[store.dst as usize + p * cols + c] = max;
                        }
                    });
                }
                Inst::MaxFwdI {
                    src,
                    cols,
                    positions,
                    store,
                    gstep,
                    ostep,
                } => {
                    let (cols, positions) = (cols as usize, positions as usize);
                    let code = move |max: i64| quantize_code(max as f64 * gstep, ostep, alevels);
                    for p in 0..positions {
                        let row = &parts[src as usize + p * cols..][..cols];
                        store_codes_i(simd, vals, store, row, positions, p, code);
                    }
                }
                Inst::EltwiseI {
                    sides,
                    x_off,
                    cols,
                    positions,
                    store,
                    gstep,
                    ostep,
                } => {
                    debug_assert!(store.output);
                    let sides = &self.side_bases[sides.0 as usize..(sides.0 + sides.1) as usize];
                    let (cols, positions) = (cols as usize, positions as usize);
                    for p in 0..positions {
                        for c in 0..cols {
                            let idx = x_off as usize + c * positions + p;
                            let mut sum = 0i64;
                            for &side in sides {
                                sum += vals[side as usize + idx];
                            }
                            let sum = if store.relu { sum.max(0) } else { sum };
                            vals[store.dst as usize + c * positions + p] =
                                rescale_code(sum, gstep, ostep, alevels);
                        }
                    }
                }
                _ => unreachable!("float instruction in an integer stream"),
            }
        }
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

/// Narrow a value-slab activation code to the MAC kernels' `i32` lane width.
/// Lossless: every value-slab writer (input quantization, `rescale_code`,
/// `requantize_mac`, `quantize_code`) clamps to ±`alevels`, and bind rejects
/// plans whose `alevels` does not fit the lane bound.
#[inline(always)]
fn lane_code(code: i64, alevels: i64) -> i32 {
    debug_assert!(
        code.abs() <= alevels,
        "value-slab code {code} escaped ±{alevels}"
    );
    code as i32
}

/// Store one float result: fused ReLU + f32 cast at output boundaries
/// (`out[(col_offset + c) · positions + p]`), raw f64 into the partial slab
/// (`part[p · cols + c]`) otherwise — exactly the interpreter's store paths.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn store_one_f(
    vals: &mut [f32],
    parts: &mut [f64],
    store: MacStore,
    c: usize,
    a: f64,
    positions: usize,
    p: usize,
    cols: usize,
) {
    if store.output {
        let a = if store.relu { a.max(0.0) } else { a };
        vals[store.dst as usize + c * positions + p] = a as f32;
    } else {
        parts[store.dst as usize + p * cols + c] = a;
    }
}

/// Scatter a MAC output row into the value slab: fused ReLU + f32 cast into
/// the node's `out[(col_offset + c) · positions + p]` stripe — exactly the
/// interpreter's output store.
#[inline(always)]
fn scatter_out_f(vals: &mut [f32], store: MacStore, acc: &[f64], positions: usize, p: usize) {
    let base = store.dst as usize + p;
    if store.relu {
        for (c, &a) in acc.iter().enumerate() {
            vals[base + c * positions] = a.max(0.0) as f32;
        }
    } else {
        for (c, &a) in acc.iter().enumerate() {
            vals[base + c * positions] = a as f32;
        }
    }
}

/// Store one position's integer output row into the node's
/// `out[(col_offset + c) · positions + p]` stripe, each raw value through
/// `code` — a composition of the reference's own quantization functions,
/// instantiated for the bind-time family by [`kernels::map_store`].
#[inline(always)]
fn store_codes_i(
    simd: Simd,
    vals: &mut [i64],
    store: MacStore,
    row: &[i64],
    positions: usize,
    p: usize,
    code: impl Fn(i64) -> i64,
) {
    debug_assert!(store.output);
    kernels::map_store(
        simd,
        row,
        &mut vals[store.dst as usize + p..],
        positions,
        code,
    );
}

/// The Integer MAC store's requantization: the reference's own
/// `requantize_mac` composition over the producing node's constants.
#[inline(always)]
fn requant(rq: Requant, relu: bool, alevels: i64) -> impl Fn(i64) -> i64 + Copy {
    move |a| requantize_mac(a, rq.wstep, rq.gstep, relu, rq.ostep, alevels)
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
            Inst::CopyF { src, dst, len } => {
                write!(f, "copy.f      val[{src}..+{len}] -> val[{dst}]")
            }
            Inst::RescaleI { src, dst, len, from, to } => write!(
                f,
                "rescale.i   val[{src}..+{len}] -> val[{dst}]  step {from:.3e}->{to:.3e}"
            ),
            Inst::RescaleI2 {
                src,
                dst,
                len,
                from,
                side,
                to,
            } => write!(
                f,
                "rescale2.i  val[{src}..+{len}] -> val[{dst}]  step {from:.3e}->{side:.3e}->{to:.3e}"
            ),
            Inst::DenseF { runs, w, cols, store } => write!(
                f,
                "mac.dense.f runs {}+{} w[{w}] cols {cols} -> {}",
                runs.0,
                runs.1,
                st(store)
            ),
            Inst::DenseI { runs, w, cols, store, .. } => write!(
                f,
                "mac.dense.i runs {}+{} w[{w}] cols {cols} -> {}",
                runs.0,
                runs.1,
                st(store)
            ),
            Inst::ConvF {
                runs,
                wins,
                x0,
                wsel,
                cols,
                positions,
                store,
            } => write!(
                f,
                "mac.conv.f  runs {}+{} wins {}+{} x0 {x0} dups {} cols {cols} pos {positions} -> {}",
                runs.0, runs.1, wins.0, wins.1, wsel.2, st(store)
            ),
            Inst::ConvI {
                runs,
                wins,
                x0,
                w,
                cols,
                positions,
                store,
                ..
            } => write!(
                f,
                "mac.conv.i  runs {}+{} wins {}+{} x0 {x0} w[{w}] cols {cols} pos {positions} -> {}",
                runs.0, runs.1, wins.0, wins.1, st(store)
            ),
            Inst::ReduceF { srcs, cols, positions, store } => write!(
                f,
                "reduce.f    srcs {}+{} cols {cols} pos {positions} -> {}",
                srcs.0,
                srcs.1,
                st(store)
            ),
            Inst::ReduceI { srcs, cols, positions, store, .. } => write!(
                f,
                "reduce.i    srcs {}+{} cols {cols} pos {positions} -> {}",
                srcs.0,
                srcs.1,
                st(store)
            ),
            Inst::AvgPoolF { x0, geom, store, .. } => write!(
                f,
                "avgpool.f   x0 {x0} k {} cols {} pos {} -> {}",
                geom.k,
                geom.cols,
                geom.positions,
                st(store)
            ),
            Inst::AvgPoolI { x0, geom, store, .. } => write!(
                f,
                "avgpool.i   x0 {x0} k {} cols {} pos {} -> {}",
                geom.k,
                geom.cols,
                geom.positions,
                st(store)
            ),
            Inst::GapF { x0, cols, positions, window, store, .. } => write!(
                f,
                "gap.f       x0 {x0} window {window} cols {cols} pos {positions} -> {}",
                st(store)
            ),
            Inst::GapI { x0, cols, positions, window, store, .. } => write!(
                f,
                "gap.i       x0 {x0} window {window} cols {cols} pos {positions} -> {}",
                st(store)
            ),
            Inst::MaxPoolF { x0, geom, store } => write!(
                f,
                "maxpool.f   x0 {x0} k {} cols {} pos {} -> {}",
                geom.k,
                geom.cols,
                geom.positions,
                st(store)
            ),
            Inst::MaxPoolI { x0, geom, store } => write!(
                f,
                "maxpool.i   x0 {x0} k {} cols {} pos {} -> {}",
                geom.k,
                geom.cols,
                geom.positions,
                st(store)
            ),
            Inst::MaxFwdF { src, cols, positions, store } => write!(
                f,
                "maxfwd.f    part[{src}] cols {cols} pos {positions} -> {}",
                st(store)
            ),
            Inst::MaxFwdI { src, cols, positions, store, .. } => write!(
                f,
                "maxfwd.i    part[{src}] cols {cols} pos {positions} -> {}",
                st(store)
            ),
            Inst::EltwiseF { sides, x_off, cols, positions, store } => write!(
                f,
                "eltwise.f   sides {}+{} x_off {x_off} cols {cols} pos {positions} -> {}",
                sides.0,
                sides.1,
                st(store)
            ),
            Inst::EltwiseI { sides, x_off, cols, positions, store, .. } => write!(
                f,
                "eltwise.i   sides {}+{} x_off {x_off} cols {cols} pos {positions} -> {}",
                sides.0,
                sides.1,
                st(store)
            ),
        }
    }
}
