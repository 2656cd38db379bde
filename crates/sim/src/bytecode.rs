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
//!   skipped at run time.
//!
//! Both skips remove only terms that are exactly zero in the same f64/i64
//! arithmetic the interpreter performs (`0 · x` and `w · 0` with finite
//! operands), so every accumulator still receives exactly the same sequence
//! of non-zero terms in the same order — outputs are bit-identical to the
//! tile-program oracle, which the differential suite asserts per node.
//!
//! Per output position, the dispatch loop prefilters the surviving rows —
//! conv window clipping and the zero-activation check both run once per
//! position, not per element — and hands the whole position to a full-width
//! MAC kernel ([`crate::kernels`]): one contiguous sweep over the tile's
//! weight rows, with column accumulators register-blocked in the widest
//! vector unit the CPU offers (detected once at bind). Per-accumulator
//! summation order is untouched (terms arrive in ascending row order
//! regardless of column blocking, and multiplies and adds stay unfused),
//! which is what keeps the f64 results bit-identical. Batched entry points
//! run instruction-major over a batch of slabs so a weight tile streams
//! from memory once per batch instead of once per sample.
//!
//! The integer domain keeps `i64` everywhere a caller can see — value slab,
//! partial slab, accumulator row, `requantize_mac` — but its MAC datapath is
//! narrow: the weight slab holds one `i8` per code, the surviving-row list
//! carries `i32` activation codes, and [`kernels::mac_i`] accumulates in
//! `i32` lanes, widening at the store. That is exact because value-slab
//! codes are clamped to ±`activation_levels` by every writer and bind
//! rejects any plan whose deepest tile could overflow a lane.

use crate::kernels::{self, RowF, RowI, Simd};
use crate::profile::{self, SkipTally};
use fpsa_nn::quant::{quantize_code, rescale_code};
use fpsa_nn::reference::requantize_mac;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reusable MAC scratch: the per-position surviving-row lists the dispatch
/// loop hands to the kernels, and the f64/i64 accumulator row that
/// output-carrying stores compute into before scattering (partial stores
/// accumulate straight into their slab stripe and need neither), plus the
/// batched-MAC gather buffers. All buffers grow to their high-water mark on
/// the first run and are reused allocation-free afterwards.
#[derive(Debug, Default)]
pub(crate) struct MacScratch {
    pub acc_f: Vec<f64>,
    pub acc_i: Vec<i64>,
    pub rows_f: Vec<RowF>,
    pub rows_i: Vec<RowI>,
    /// Batched-MAC row list: weight-row offsets of rows that survive the
    /// whole-group zero check.
    pub woffs: Vec<u32>,
    /// Batched-MAC activation block: `sb` samples' activations per surviving
    /// row, row-major (see [`kernels::mac_f_batch`]).
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
/// Rows clipped here are exactly the rows the interpreter's
/// `conv_input_index` rejected as zero padding.
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
    /// VMM instructions additionally run a *sample-blocked* kernel
    /// ([`kernels::mac_f_batch`]): groups of up to 8 samples share every
    /// weight-row load, so the tile is not just cache-resident but loaded
    /// once per group. A sample whose activation is zero on a row another
    /// group member keeps contributes a `±0.0` product, which cannot change
    /// an accumulator that starts at `+0.0` (exact cancellation rounds to
    /// `+0.0` under round-to-nearest, so the accumulator is never `-0.0`) —
    /// bits stay identical to the per-sample skip path.
    pub fn exec_float_batch(
        &self,
        vals: &mut [f32],
        parts: &mut [f64],
        batch: usize,
        mac: &mut MacScratch,
    ) {
        for inst in &self.insts {
            match *inst {
                Inst::DenseF {
                    runs,
                    w,
                    cols,
                    store,
                } => {
                    profile::retire(inst.opcode(), batch as u64);
                    self.dense_f_batch(runs, w, cols as usize, store, vals, parts, batch, mac);
                }
                Inst::ConvF {
                    runs,
                    wins,
                    x0,
                    wsel,
                    cols,
                    positions,
                    store,
                } => {
                    profile::retire(inst.opcode(), batch as u64);
                    self.conv_f_batch(
                        runs,
                        wins,
                        x0,
                        wsel,
                        cols as usize,
                        positions,
                        store,
                        vals,
                        parts,
                        batch,
                        mac,
                    );
                }
                _ => {
                    for s in 0..batch {
                        let v = &mut vals[s * self.val_len..(s + 1) * self.val_len];
                        let p = &mut parts[s * self.part_len..(s + 1) * self.part_len];
                        self.exec_float_inst(inst, v, p, mac);
                    }
                }
            }
        }
    }

    /// Gather one sample group's activations for a MAC row: push `sb`
    /// activations (as f64) and keep the row only if any is non-zero.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn gather_group_row(
        &self,
        vals: &[f32],
        s0: usize,
        sb: usize,
        x: usize,
        woff: u32,
        mac: &mut MacScratch,
        skips: &mut SkipTally,
    ) {
        let base = mac.xb.len();
        let mut any = false;
        for s in 0..sb {
            let xv = vals[(s0 + s) * self.val_len + x];
            any |= xv != 0.0;
            mac.xb.push(f64::from(xv));
        }
        if any {
            mac.woffs.push(woff);
        } else {
            mac.xb.truncate(base);
            skips.hit();
        }
    }

    /// Store one sample group's accumulator rows (output scatter or partial
    /// stripe copy — same bits as the per-sample kernels writing in place).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn store_group(
        &self,
        vals: &mut [f32],
        parts: &mut [f64],
        store: MacStore,
        cols: usize,
        positions: usize,
        p: usize,
        s0: usize,
        sb: usize,
        mac: &MacScratch,
    ) {
        for s in 0..sb {
            let row = &mac.acc_f[s * cols..(s + 1) * cols];
            if store.output {
                let vo = (s0 + s) * self.val_len;
                scatter_out_f(&mut vals[vo..vo + self.val_len], store, row, positions, p);
            } else {
                let dst = (s0 + s) * self.part_len + store.dst as usize + p * cols;
                parts[dst..dst + cols].copy_from_slice(row);
            }
        }
    }

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
        let mut skips = SkipTally::new();
        let mut s0 = 0usize;
        while s0 < batch {
            let sb = (batch - s0).min(8);
            mac.woffs.clear();
            mac.xb.clear();
            for run in runs {
                let mut woff = w + run.r * cols as u32;
                for x in run.x..run.x + run.n {
                    self.gather_group_row(vals, s0, sb, x as usize, woff, mac, &mut skips);
                    woff += cols as u32;
                }
            }
            let acc = grow(&mut mac.acc_f, sb * cols);
            kernels::mac_f_batch(self.simd, &self.wslab_f, cols, &mac.woffs, &mac.xb, sb, acc);
            self.store_group(vals, parts, store, cols, 1, 0, s0, sb, mac);
            s0 += sb;
        }
        skips.flush(profile::OP_DENSE_F);
    }

    #[allow(clippy::too_many_arguments)]
    fn conv_f_batch(
        &self,
        runs: Span,
        wins: Span,
        x0: u32,
        wsel: (u32, u32, u32),
        cols: usize,
        positions: u32,
        store: MacStore,
        vals: &mut [f32],
        parts: &mut [f64],
        batch: usize,
        mac: &mut MacScratch,
    ) {
        let runs = &self.conv_runs[runs.0 as usize..(runs.0 + runs.1) as usize];
        let wins = &self.wins[wins.0 as usize..(wins.0 + wins.1) as usize];
        let bases = &self.dup_bases[wsel.0 as usize..(wsel.0 + wsel.1) as usize];
        let dups = wsel.2 as usize;
        let mut skips = SkipTally::new();
        for (p, win) in wins.iter().enumerate().take(positions as usize) {
            let wbase = bases[(p % dups) % bases.len()];
            let xbase = i64::from(x0) + i64::from(win.base);
            let mut s0 = 0usize;
            while s0 < batch {
                let sb = (batch - s0).min(8);
                mac.woffs.clear();
                mac.xb.clear();
                for run in runs {
                    if run.ky < win.ky0 || run.ky >= win.ky1 {
                        continue;
                    }
                    let lo = run.kx_lo.max(win.kx0);
                    let hi = run.kx_hi.min(win.kx1);
                    if lo >= hi {
                        continue;
                    }
                    let xrun = xbase + i64::from(run.x_rel);
                    let r = run.r0 + u32::from(lo - run.kx_lo);
                    let mut woff = wbase + r * cols as u32;
                    for kx in lo..hi {
                        let x = (xrun + i64::from(kx)) as usize;
                        self.gather_group_row(vals, s0, sb, x, woff, mac, &mut skips);
                        woff += cols as u32;
                    }
                }
                let acc = grow(&mut mac.acc_f, sb * cols);
                kernels::mac_f_batch(self.simd, &self.wslab_f, cols, &mac.woffs, &mac.xb, sb, acc);
                self.store_group(vals, parts, store, cols, positions as usize, p, s0, sb, mac);
                s0 += sb;
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
                    let mut skips = SkipTally::new();
                    mac.rows_f.clear();
                    for run in runs {
                        let mut woff = w + run.r * cols as u32;
                        for x in run.x..run.x + run.n {
                            let xv = vals[x as usize];
                            if xv != 0.0 {
                                mac.rows_f.push((woff, f64::from(xv)));
                            } else {
                                skips.hit();
                            }
                            woff += cols as u32;
                        }
                    }
                    skips.flush(profile::OP_DENSE_F);
                    if store.output {
                        let acc = grow(&mut mac.acc_f, cols);
                        kernels::mac_f(self.simd, &self.wslab_f, cols, &mac.rows_f, acc);
                        scatter_out_f(vals, store, &mac.acc_f[..cols], 1, 0);
                    } else {
                        // Partial stripes are per-tile-unique and written
                        // exactly once, so the kernel's overwrite is the
                        // interpreter's scatter.
                        let dst = store.dst as usize;
                        kernels::mac_f(
                            self.simd,
                            &self.wslab_f,
                            cols,
                            &mac.rows_f,
                            &mut parts[dst..dst + cols],
                        );
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
                } => {
                    let runs = &self.conv_runs[runs.0 as usize..(runs.0 + runs.1) as usize];
                    let wins = &self.wins[wins.0 as usize..(wins.0 + wins.1) as usize];
                    let bases = &self.dup_bases[wsel.0 as usize..(wsel.0 + wsel.1) as usize];
                    let dups = wsel.2 as usize;
                    let cols = cols as usize;
                    let mut skips = SkipTally::new();
                    for (p, win) in wins.iter().enumerate().take(positions as usize) {
                        let wbase = bases[(p % dups) % bases.len()];
                        let xbase = i64::from(x0) + i64::from(win.base);
                        // Window clipping runs once per position (the
                        // interpreter re-derived it per element).
                        mac.rows_f.clear();
                        for run in runs {
                            if run.ky < win.ky0 || run.ky >= win.ky1 {
                                continue;
                            }
                            let lo = run.kx_lo.max(win.kx0);
                            let hi = run.kx_hi.min(win.kx1);
                            if lo >= hi {
                                continue;
                            }
                            // The row base alone can sit in the padded
                            // border (negative); only base + kx is a
                            // valid index, so stay in i64 until then.
                            let xrun = xbase + i64::from(run.x_rel);
                            let r = run.r0 + u32::from(lo - run.kx_lo);
                            let mut woff = wbase + r * cols as u32;
                            for kx in lo..hi {
                                let xv = vals[(xrun + i64::from(kx)) as usize];
                                if xv != 0.0 {
                                    mac.rows_f.push((woff, f64::from(xv)));
                                } else {
                                    skips.hit();
                                }
                                woff += cols as u32;
                            }
                        }
                        if store.output {
                            let acc = grow(&mut mac.acc_f, cols);
                            kernels::mac_f(self.simd, &self.wslab_f, cols, &mac.rows_f, acc);
                            scatter_out_f(vals, store, &mac.acc_f[..cols], positions as usize, p);
                        } else {
                            let dst = store.dst as usize + p * cols;
                            kernels::mac_f(
                                self.simd,
                                &self.wslab_f,
                                cols,
                                &mac.rows_f,
                                &mut parts[dst..dst + cols],
                            );
                        }
                    }
                    skips.flush(profile::OP_CONV_F);
                }
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
                    pool_loop(geom, |p, c, base| {
                        let x = x0 as usize + c * geom.chan as usize + base;
                        let mut sum = 0.0f64;
                        for ky in 0..geom.k as usize {
                            let row = x + ky * geom.iw as usize;
                            for kx in 0..geom.k as usize {
                                sum += f64::from(vals[row + kx]);
                            }
                        }
                        store_one_f(
                            vals,
                            parts,
                            store,
                            c,
                            sum / div,
                            geom.positions as usize,
                            p,
                            geom.cols as usize,
                        );
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
                    pool_loop(geom, |p, c, base| {
                        let x = x0 as usize + c * geom.chan as usize + base;
                        let mut max = f64::NEG_INFINITY;
                        for ky in 0..geom.k as usize {
                            let row = x + ky * geom.iw as usize;
                            for kx in 0..geom.k as usize {
                                max = max.max(f64::from(vals[row + kx]));
                            }
                        }
                        store_one_f(
                            vals,
                            parts,
                            store,
                            c,
                            max,
                            geom.positions as usize,
                            p,
                            geom.cols as usize,
                        );
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
                    let mut skips = SkipTally::new();
                    mac.rows_i.clear();
                    for run in runs {
                        let mut woff = w + run.r * cols as u32;
                        for x in run.x..run.x + run.n {
                            let xv = vals[x as usize];
                            if xv != 0 {
                                mac.rows_i.push((woff, lane_code(xv, alevels)));
                            } else {
                                skips.hit();
                            }
                            woff += cols as u32;
                        }
                    }
                    skips.flush(profile::OP_DENSE_I);
                    if store.output {
                        let acc = grow(&mut mac.acc_i, cols);
                        kernels::mac_i(self.simd, &self.wslab_q, cols, &mac.rows_i, acc);
                        scatter_out_i(vals, store, rq, alevels, &mac.acc_i[..cols], 1, 0);
                    } else {
                        let dst = store.dst as usize;
                        kernels::mac_i(
                            self.simd,
                            &self.wslab_q,
                            cols,
                            &mac.rows_i,
                            &mut parts[dst..dst + cols],
                        );
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
                    let wins = &self.wins[wins.0 as usize..(wins.0 + wins.1) as usize];
                    let cols = cols as usize;
                    let mut skips = SkipTally::new();
                    for (p, win) in wins.iter().enumerate().take(positions as usize) {
                        let xbase = i64::from(x0) + i64::from(win.base);
                        mac.rows_i.clear();
                        for run in runs {
                            if run.ky < win.ky0 || run.ky >= win.ky1 {
                                continue;
                            }
                            let lo = run.kx_lo.max(win.kx0);
                            let hi = run.kx_hi.min(win.kx1);
                            if lo >= hi {
                                continue;
                            }
                            let xrun = xbase + i64::from(run.x_rel);
                            let r = run.r0 + u32::from(lo - run.kx_lo);
                            let mut woff = w + r * cols as u32;
                            for kx in lo..hi {
                                let xv = vals[(xrun + i64::from(kx)) as usize];
                                if xv != 0 {
                                    mac.rows_i.push((woff, lane_code(xv, alevels)));
                                } else {
                                    skips.hit();
                                }
                                woff += cols as u32;
                            }
                        }
                        if store.output {
                            let acc = grow(&mut mac.acc_i, cols);
                            kernels::mac_i(self.simd, &self.wslab_q, cols, &mac.rows_i, acc);
                            scatter_out_i(
                                vals,
                                store,
                                rq,
                                alevels,
                                &mac.acc_i[..cols],
                                positions as usize,
                                p,
                            );
                        } else {
                            let dst = store.dst as usize + p * cols;
                            kernels::mac_i(
                                self.simd,
                                &self.wslab_q,
                                cols,
                                &mac.rows_i,
                                &mut parts[dst..dst + cols],
                            );
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
                    for p in 0..positions {
                        for c in 0..cols {
                            let mut sum = 0i64;
                            for s in srcs {
                                sum += parts[s.base as usize + p * s.stride as usize + c];
                            }
                            store_one_i(
                                vals,
                                parts,
                                store,
                                Some(rq),
                                alevels,
                                c,
                                sum,
                                positions,
                                p,
                                cols,
                            );
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
                    pool_loop(geom, |p, c, base| {
                        let x = x0 as usize + c * geom.chan as usize + base;
                        let mut sum = 0i64;
                        for ky in 0..geom.k as usize {
                            let row = x + ky * geom.iw as usize;
                            for kx in 0..geom.k as usize {
                                sum += vals[row + kx];
                            }
                        }
                        // Identical composition to `pooled_window_real`.
                        let real = sum as f64 * gstep / div;
                        let code = quantize_code(real, ostep, alevels);
                        store_one_i(
                            vals,
                            parts,
                            store,
                            None,
                            alevels,
                            c,
                            code,
                            geom.positions as usize,
                            p,
                            geom.cols as usize,
                        );
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
                    for p in 0..positions {
                        for c in 0..cols {
                            let x = x0 as usize + c * window;
                            let sum: i64 = vals[x..x + window].iter().sum();
                            let real = sum as f64 * gstep / window as f64;
                            let code = quantize_code(real, ostep, alevels);
                            store_one_i(
                                vals, parts, store, None, alevels, c, code, positions, p, cols,
                            );
                        }
                    }
                }
                Inst::MaxPoolI { x0, geom, store } => {
                    pool_loop(geom, |p, c, base| {
                        let x = x0 as usize + c * geom.chan as usize + base;
                        let mut max = i64::MIN;
                        for ky in 0..geom.k as usize {
                            let row = x + ky * geom.iw as usize;
                            for kx in 0..geom.k as usize {
                                max = max.max(vals[row + kx]);
                            }
                        }
                        store_one_i(
                            vals,
                            parts,
                            store,
                            None,
                            alevels,
                            c,
                            max,
                            geom.positions as usize,
                            p,
                            geom.cols as usize,
                        );
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
                    for p in 0..positions {
                        for c in 0..cols {
                            let real = parts[src as usize + p * cols + c] as f64 * gstep;
                            let code = quantize_code(real, ostep, alevels);
                            store_one_i(
                                vals, parts, store, None, alevels, c, code, positions, p, cols,
                            );
                        }
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
                            let code = rescale_code(sum, gstep, ostep, alevels);
                            store_one_i(
                                vals, parts, store, None, alevels, c, code, positions, p, cols,
                            );
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
/// shape math: `base` walks the window origins incrementally.
#[inline(always)]
fn pool_loop(geom: PoolLoop, mut body: impl FnMut(usize, usize, usize)) {
    let (positions, ow) = (geom.positions as usize, geom.ow as usize);
    let (stride, iw) = (geom.stride as usize, geom.iw as usize);
    let mut p = 0;
    let mut row_base = 0usize;
    'outer: loop {
        let mut base = row_base;
        for _ in 0..ow {
            for c in 0..geom.cols as usize {
                body(p, c, base);
            }
            p += 1;
            if p >= positions {
                break 'outer;
            }
            base += stride;
        }
        row_base += stride * iw;
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

/// Store one integer result. MAC outputs (`rq = Some`) requantize through
/// `requantize_mac`; non-MAC stores receive an already-final code. Partial
/// stores keep the raw accumulation.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn store_one_i(
    vals: &mut [i64],
    parts: &mut [i64],
    store: MacStore,
    rq: Option<Requant>,
    alevels: i64,
    c: usize,
    a: i64,
    positions: usize,
    p: usize,
    cols: usize,
) {
    if store.output {
        let code = match rq {
            Some(rq) => requantize_mac(a, rq.wstep, rq.gstep, store.relu, rq.ostep, alevels),
            None => a,
        };
        vals[store.dst as usize + c * positions + p] = code;
    } else {
        parts[store.dst as usize + p * cols + c] = a;
    }
}

/// Scatter an integer MAC output row: `requantize_mac` per column into the
/// node's value-slab stripe, like the interpreter's store.
#[inline(always)]
fn scatter_out_i(
    vals: &mut [i64],
    store: MacStore,
    rq: Requant,
    alevels: i64,
    acc: &[i64],
    positions: usize,
    p: usize,
) {
    let base = store.dst as usize + p;
    for (c, &a) in acc.iter().enumerate() {
        vals[base + c * positions] =
            requantize_mac(a, rq.wstep, rq.gstep, store.relu, rq.ostep, alevels);
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
