//! Register-blocked MAC kernels behind one-time CPU feature dispatch.
//!
//! Dense and convolution instructions both reduce, per output position, to
//! the same primitive: `out[c] = Σ_rows w[woff + c] · x_row` with the terms
//! of every accumulator taken in ascending row order. The dispatch loops in
//! [`crate::bytecode`] prefilter the surviving rows (dynamic sparsity:
//! activations that are exactly zero are dropped — they only ever
//! contribute `w · 0` terms) and hand them to one of the kernels here:
//!
//! * [`mac_f_block`] — the float kernel: a **2-D register block** of `B`
//!   accumulator rows (the positions of a convolution block, or the samples
//!   of a dense batch — whatever shares the weight tile) × `K` column
//!   vectors. Every weight vector is loaded and widened once per tile row
//!   and reused by all `B` accumulator rows while the rows stream by once —
//!   JITSPMM's column sweep with the dense operand held across the block.
//!   `B` and `K` are constants of the family ([`Simd::block`]), sized to
//!   its register file.
//! * [`mac_f`] — its `B = 1` case for a dense tile at batch 1, where there
//!   is nothing to reuse a weight across: up to 8 column vectors in flight
//!   to cover the add latency of a single accumulator row.
//! * [`mac_i`] — the integer regime's narrow datapath (below).
//!
//! The kernels differ only in how many accumulator lanes they keep in
//! registers while sweeping rows; none of them changes the order in which
//! terms reach an individual accumulator, which is the bit-identity
//! contract. Vectorizing *across columns* is always exact: each f64
//! accumulator still receives the same `w·x` products in the same sequence,
//! and Rust never contracts the separate multiply and add into a fused
//! multiply-add. The differential suite re-checks this against the
//! tile-program oracle on every `run_checked` call.
//!
//! The integer regime runs the same register-blocked column sweep on a
//! narrow datapath ([`mac_i`]): `i8` weight codes (one byte moved per MAC)
//! sign-extended into `i32` lanes, `i32` accumulators held in registers,
//! widened to the `i64` accumulator row only at the store. Integer adds are
//! associative, so blocking cannot perturb a sum; what has to be *proved* is
//! that no `i32` lane overflows, and that is a bind-time bound
//! (`tile rows · weight_levels · activation_levels ≤ i32::MAX`, rejected
//! with a typed error otherwise) over codes every value-slab writer clamps.
//! Its requantizing stores go through [`map_store`], which instantiates the
//! reference's own quantization functions for the bind-time family.
//!
//! Feature detection happens once at bind time ([`Simd::detect`]); the
//! resulting selector is stored in the lowered artifact so the hot loop is a
//! plain match, not a per-call `cpuid`. This module is the crate's only
//! home of `unsafe`.

/// The most accumulator rows any family's register block holds
/// ([`Simd::block`]); sizes the dispatch loops' per-block stack tables.
pub(crate) const MAX_BLOCK: usize = 8;

/// Which MAC kernel family the lowered artifact dispatches to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// Portable full-width sweep (also the non-x86 fallback).
    #[default]
    Scalar,
    /// 256-bit lanes: GEMV sweeps of 8 registers of 4 f64 / 8 i32
    /// accumulators, float blocks of 4 rows × 3 vectors.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit lanes: GEMV sweeps of 8 registers of 8 f64 / 16 i32
    /// accumulators, float blocks of 8 rows × 3 vectors.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Simd {
    /// Every kernel family this CPU can run, narrowest first.
    pub fn supported() -> Vec<Self> {
        let mut families = vec![Simd::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                families.push(Simd::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                families.push(Simd::Avx512);
            }
        }
        families
    }

    /// Pick the widest kernel family this CPU supports.
    pub fn detect() -> Self {
        *Self::supported()
            .last()
            .expect("scalar is always supported")
    }

    /// Accumulator rows of the family's 2-D register block
    /// ([`mac_f_block`]): how many output positions of a convolution, or
    /// samples of a dense batch, share one pass over a tile's rows. A
    /// constant of the family (sized to its register file), not an option.
    pub fn block(self) -> usize {
        match self {
            Simd::Scalar => 8,
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => 4,
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 => 8,
        }
    }
}

/// One surviving MAC row of an output position: absolute weight-slab offset
/// of the row's first column, and the (nonzero) activation driving it.
pub(crate) type RowF = (u32, f64);

/// Integer-domain counterpart of [`RowF`]: the activation code, already
/// narrowed to the `i32` lane width (codes are clamped to
/// ±`activation_levels` by every value-slab writer).
pub(crate) type RowI = (u32, i32);

/// `out[c] = Σ_rows w[woff + c] · x` over `cols` columns, f64, terms in row
/// order. `out[..cols]` is fully overwritten (zeros when `rows` is empty).
#[inline]
pub(crate) fn mac_f(simd: Simd, w: &[f32], cols: usize, rows: &[RowF], out: &mut [f64]) {
    debug_assert!(rows.iter().all(|&(o, _)| o as usize + cols <= w.len()));
    let out = &mut out[..cols];
    match simd {
        Simd::Scalar => mac_f_scalar(w, cols, rows, out),
        // SAFETY: `Avx2` is only ever selected when `Simd::supported`
        // observed the feature on this CPU, and lowering guarantees every
        // row offset stays inside the weight slab.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { mac_f_avx2(w, cols, rows, out) },
        // SAFETY: as above, for `avx512f`.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { mac_f_avx512(w, cols, rows, out) },
    }
}

/// Integer-domain MAC: `out[c] = Σ_rows w[woff + c] · x` over `i8` weight
/// codes and `i32` activation codes; `out[..cols]` is fully overwritten.
///
/// The blocked families accumulate in `i32` lanes and widen to `i64` at the
/// store, which is exact under the bound [`crate::exec::Executor::bind`]
/// enforces: `rows · weight_levels · activation_levels ≤ i32::MAX` bounds
/// every partial sum of every lane, whatever the order (integer adds are
/// associative, so blocking strategy is immaterial to the result).
#[inline]
pub(crate) fn mac_i(simd: Simd, w: &[i8], cols: usize, rows: &[RowI], out: &mut [i64]) {
    debug_assert!(rows.iter().all(|&(o, _)| o as usize + cols <= w.len()));
    let out = &mut out[..cols];
    match simd {
        Simd::Scalar => mac_i_scalar(w, cols, rows, out),
        // SAFETY: `Avx2` is only ever selected when `Simd::supported`
        // observed the feature on this CPU, and lowering guarantees every
        // row offset stays inside the weight slab.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { mac_i_avx2(w, cols, rows, out) },
        // SAFETY: as above, for `avx512f`.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { mac_i_avx512(w, cols, rows, out) },
    }
}

fn mac_f_scalar(w: &[f32], cols: usize, rows: &[RowF], out: &mut [f64]) {
    out.fill(0.0);
    for &(woff, xv) in rows {
        let row = &w[woff as usize..woff as usize + cols];
        for (o, &wv) in out.iter_mut().zip(row) {
            *o += f64::from(wv) * xv;
        }
    }
}

/// The portable integer sweep, accumulating straight into the `i64` row (no
/// bound needed) — also the reference the blocked families are tested
/// against.
fn mac_i_scalar(w: &[i8], cols: usize, rows: &[RowI], out: &mut [i64]) {
    out.fill(0);
    for &(woff, xv) in rows {
        let row = &w[woff as usize..woff as usize + cols];
        for (o, &wv) in out.iter_mut().zip(row) {
            *o += i64::from(wv) * i64::from(xv);
        }
    }
}

/// Columns `c0..cols` one accumulator at a time (tail of the blocked
/// kernels). Per-column sweeps keep row order per accumulator untouched.
fn mac_f_tail(w: &[f32], rows: &[RowF], out: &mut [f64], c0: usize) {
    for (c, o) in out.iter_mut().enumerate().skip(c0) {
        let mut a = 0.0f64;
        for &(woff, xv) in rows {
            a += f64::from(w[woff as usize + c]) * xv;
        }
        *o = a;
    }
}

/// The column-stripe driver every blocked kernel shares: cover `cols`
/// columns (`cols ≥ $lane`) with `$sweep::<K>` register sweeps of `K ≤ 8`
/// vectors of `$lane` columns each — full 8-register stripes first, then one
/// sweep with exactly the registers the remaining whole lanes need, then an
/// *overlapped* final lane recomputing columns `cols − $lane ..`. The
/// overlapping columns receive the exact same term sequence, so the
/// overwrite is bit-identical.
#[cfg(target_arch = "x86_64")]
macro_rules! sweep_stripes {
    ($sweep:ident, $lane:expr, $w:expr, $cols:expr, $rows:expr, $out:expr) => {{
        let (lane, cols): (usize, usize) = ($lane, $cols);
        let mut c0 = 0usize;
        while c0 < cols {
            let lanes = (cols - c0) / lane;
            match lanes {
                0 => {
                    $sweep::<1>($w, $rows, $out, cols - lane);
                    break;
                }
                1 => $sweep::<1>($w, $rows, $out, c0),
                2 => $sweep::<2>($w, $rows, $out, c0),
                3 => $sweep::<3>($w, $rows, $out, c0),
                4 => $sweep::<4>($w, $rows, $out, c0),
                5 => $sweep::<5>($w, $rows, $out, c0),
                6 => $sweep::<6>($w, $rows, $out, c0),
                7 => $sweep::<7>($w, $rows, $out, c0),
                _ => $sweep::<8>($w, $rows, $out, c0),
            }
            c0 += lanes.min(8) * lane;
        }
    }};
}

/// One register sweep of `K` 256-bit accumulators over columns
/// `c0 .. c0 + 4K`: the whole stripe stays in ymm registers while the rows
/// stream by once.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2<const K: usize>(w: &[f32], rows: &[RowF], out: &mut [f64], c0: usize) {
    use std::arch::x86_64::*;
    let mut a = [_mm256_setzero_pd(); K];
    for &(woff, xv) in rows {
        let xb = _mm256_set1_pd(xv);
        let base = w.as_ptr().add(woff as usize + c0);
        for (j, aj) in a.iter_mut().enumerate() {
            let wd = _mm256_cvtps_pd(_mm_loadu_ps(base.add(j * 4)));
            *aj = _mm256_add_pd(*aj, _mm256_mul_pd(wd, xb));
        }
    }
    for (j, aj) in a.iter().enumerate() {
        _mm256_storeu_pd(out.as_mut_ptr().add(c0 + j * 4), *aj);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mac_f_avx2(w: &[f32], cols: usize, rows: &[RowF], out: &mut [f64]) {
    if cols < 4 {
        return mac_f_tail(w, rows, out, 0);
    }
    sweep_stripes!(sweep_avx2, 4, w, cols, rows, out);
}

/// One register sweep of `K` 512-bit accumulators over columns
/// `c0 .. c0 + 8K`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sweep_avx512<const K: usize>(w: &[f32], rows: &[RowF], out: &mut [f64], c0: usize) {
    use std::arch::x86_64::*;
    let mut a = [_mm512_setzero_pd(); K];
    for &(woff, xv) in rows {
        let xb = _mm512_set1_pd(xv);
        let base = w.as_ptr().add(woff as usize + c0);
        for (j, aj) in a.iter_mut().enumerate() {
            let wd = _mm512_cvtps_pd(_mm256_loadu_ps(base.add(j * 8)));
            *aj = _mm512_add_pd(*aj, _mm512_mul_pd(wd, xb));
        }
    }
    for (j, aj) in a.iter().enumerate() {
        _mm512_storeu_pd(out.as_mut_ptr().add(c0 + j * 8), *aj);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mac_f_avx512(w: &[f32], cols: usize, rows: &[RowF], out: &mut [f64]) {
    if cols < 8 {
        return mac_f_tail(w, rows, out, 0);
    }
    sweep_stripes!(sweep_avx512, 8, w, cols, rows, out);
}

/// One register sweep of `K` 256-bit `i32` accumulators over columns
/// `c0 .. c0 + 8K`: sign-extend 8 weight codes per load, multiply by the
/// broadcast activation code, add — and widen to the `i64` row only once,
/// at the store.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_i_avx2<const K: usize>(w: &[i8], rows: &[RowI], out: &mut [i64], c0: usize) {
    use std::arch::x86_64::*;
    let mut a = [_mm256_setzero_si256(); K];
    for &(woff, xv) in rows {
        let xb = _mm256_set1_epi32(xv);
        let base = w.as_ptr().add(woff as usize + c0);
        for (j, aj) in a.iter_mut().enumerate() {
            let wd = _mm256_cvtepi8_epi32(_mm_loadl_epi64(base.add(j * 8).cast()));
            *aj = _mm256_add_epi32(*aj, _mm256_mullo_epi32(wd, xb));
        }
    }
    for (j, aj) in a.iter().enumerate() {
        let dst = out.as_mut_ptr().add(c0 + j * 8);
        let (lo, hi) = (
            _mm256_castsi256_si128(*aj),
            _mm256_extracti128_si256::<1>(*aj),
        );
        _mm256_storeu_si256(dst.cast(), _mm256_cvtepi32_epi64(lo));
        _mm256_storeu_si256(dst.add(4).cast(), _mm256_cvtepi32_epi64(hi));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mac_i_avx2(w: &[i8], cols: usize, rows: &[RowI], out: &mut [i64]) {
    if cols < 8 {
        return mac_i_scalar(w, cols, rows, out);
    }
    sweep_stripes!(sweep_i_avx2, 8, w, cols, rows, out);
}

/// One register sweep of `K` 512-bit `i32` accumulators over columns
/// `c0 .. c0 + 16K` (see [`sweep_i_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sweep_i_avx512<const K: usize>(w: &[i8], rows: &[RowI], out: &mut [i64], c0: usize) {
    use std::arch::x86_64::*;
    let mut a = [_mm512_setzero_si512(); K];
    for &(woff, xv) in rows {
        let xb = _mm512_set1_epi32(xv);
        let base = w.as_ptr().add(woff as usize + c0);
        for (j, aj) in a.iter_mut().enumerate() {
            let wd = _mm512_cvtepi8_epi32(_mm_loadu_si128(base.add(j * 16).cast()));
            *aj = _mm512_add_epi32(*aj, _mm512_mullo_epi32(wd, xb));
        }
    }
    for (j, aj) in a.iter().enumerate() {
        let dst = out.as_mut_ptr().add(c0 + j * 16);
        let (lo, hi) = (
            _mm512_castsi512_si256(*aj),
            _mm512_extracti64x4_epi64::<1>(*aj),
        );
        _mm512_storeu_si512(dst.cast(), _mm512_cvtepi32_epi64(lo));
        _mm512_storeu_si512(dst.add(8).cast(), _mm512_cvtepi32_epi64(hi));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mac_i_avx512(w: &[i8], cols: usize, rows: &[RowI], out: &mut [i64]) {
    if cols < 16 {
        return mac_i_scalar(w, cols, rows, out);
    }
    sweep_stripes!(sweep_i_avx512, 16, w, cols, rows, out);
}

/// The 2-D register-blocked MAC: `b` accumulator rows share one pass over a
/// tile's surviving rows — `out[j · stride + c] = Σ_i w[woffs[i] + c] ·
/// xb[i · b + j]` for `j < b`, `c < cols`, terms in row order per
/// accumulator. Every `out[j · stride ..][..cols]` is fully overwritten
/// (zeros when `woffs` is empty); nothing between the rows is touched, so a
/// caller can aim `out` straight at a strided slab stripe.
///
/// The `b ≤ simd.block()` rows are whatever shares the tile's weights: the
/// output positions of one convolution sample, or the samples of a dense
/// batch. Each weight vector is loaded and widened once per row and reused
/// by all `b` accumulator rows, so the tile streams once per *block*. The
/// caller pre-gathers activations into `xb` (row-major, `b` per surviving
/// row) with rows that are zero across the whole block already dropped; a
/// block member whose own activation is zero (or zero padding, gathered as
/// `+0.0`) still contributes a `±0.0` product, which never changes an
/// accumulator that starts at `+0.0` and only ever sums finite products
/// (exact cancellation rounds to `+0.0`, never `-0.0`) — bind rejects
/// non-finite weights for exactly this reason — so results stay
/// bit-identical to `b` independent [`mac_f`] sweeps over each member's own
/// non-zero rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mac_f_block(
    simd: Simd,
    w: &[f32],
    cols: usize,
    woffs: &[u32],
    xb: &[f64],
    b: usize,
    out: &mut [f64],
    stride: usize,
) {
    // The blocked families read and write through raw pointers: these
    // bounds are what their safety rests on (the row scan is one compare
    // per `b · cols` multiply-adds).
    assert!((1..=simd.block()).contains(&b) && cols >= 1);
    assert!(xb.len() == woffs.len() * b && out.len() >= (b - 1) * stride + cols);
    assert!(woffs
        .iter()
        .max()
        .is_none_or(|&o| o as usize + cols <= w.len()));
    match simd {
        Simd::Scalar => mac_f_block_scalar(w, cols, woffs, xb, b, out, stride),
        // SAFETY: selector implies `avx2` (see `mac_f`), `B` is `b ≤ 4`, and
        // the operand bounds `block_avx2` requires were asserted above.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe {
            match b {
                1 => block_avx2::<1>(w, cols, woffs, xb, out, stride),
                2 => block_avx2::<2>(w, cols, woffs, xb, out, stride),
                3 => block_avx2::<3>(w, cols, woffs, xb, out, stride),
                _ => block_avx2::<4>(w, cols, woffs, xb, out, stride),
            }
        },
        // SAFETY: as above, for `avx512f` and `b ≤ 8`.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe {
            match b {
                1 => block_avx512::<1>(w, cols, woffs, xb, out, stride),
                2 => block_avx512::<2>(w, cols, woffs, xb, out, stride),
                3 => block_avx512::<3>(w, cols, woffs, xb, out, stride),
                4 => block_avx512::<4>(w, cols, woffs, xb, out, stride),
                5 => block_avx512::<5>(w, cols, woffs, xb, out, stride),
                6 => block_avx512::<6>(w, cols, woffs, xb, out, stride),
                7 => block_avx512::<7>(w, cols, woffs, xb, out, stride),
                _ => block_avx512::<8>(w, cols, woffs, xb, out, stride),
            }
        },
    }
}

/// The portable block sweep (and the sub-lane fallback of the blocked
/// families). Skipping a member's zero activation drops only `±0.0` terms.
fn mac_f_block_scalar(
    w: &[f32],
    cols: usize,
    woffs: &[u32],
    xb: &[f64],
    b: usize,
    out: &mut [f64],
    stride: usize,
) {
    for j in 0..b {
        out[j * stride..j * stride + cols].fill(0.0);
    }
    for (&woff, xrow) in woffs.iter().zip(xb.chunks_exact(b)) {
        let row = &w[woff as usize..woff as usize + cols];
        for (j, &xv) in xrow.iter().enumerate() {
            if xv != 0.0 {
                let arow = &mut out[j * stride..j * stride + cols];
                for (a, &wv) in arow.iter_mut().zip(row) {
                    *a += f64::from(wv) * xv;
                }
            }
        }
    }
}

/// One blocked family: `$sweep::<B, K>` keeps `B × K` accumulator vectors of
/// `$lane` columns in registers while the rows stream by once, widening each
/// of the `K` weight vectors once per row for all `B` accumulator rows;
/// `$block::<B>` covers `cols` with stripes of `K ≤ 3` vectors — `B · K ≤
/// 24` leaves the weight vectors, the broadcast and the product their
/// registers among 32 zmm, `≤ 12` among 16 ymm. A stripe's last vector sits
/// at `tail`, which for the final stripe is `cols − $lane`: like
/// [`sweep_stripes!`]'s overlapped final lane, the columns it shares with
/// its neighbour receive the exact same term sequence twice, so the
/// overwrite is bit-identical — and a sub-lane remainder costs no extra
/// pass over the rows.
#[cfg(target_arch = "x86_64")]
macro_rules! block_family {
    ($block:ident, $sweep:ident, $feature:literal, $lane:literal,
     $vec:ident, $zero:ident, $loadw:ident, $widen:ident, $set1:ident, $mul:ident, $add:ident,
     $store:ident) => {
        /// # Safety
        ///
        /// The CPU must support the family's target feature; `xb` must hold
        /// `B` values per entry of `woffs`; with `end` one lane past the
        /// stripe's last vector (`tail`), every `woffs[i] + end` must lie
        /// inside `w` and `(B − 1) · stride + end` inside `out`.
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $sweep<const B: usize, const K: usize>(
            w: &[f32],
            woffs: &[u32],
            xb: &[f64],
            out: &mut [f64],
            stride: usize,
            c0: usize,
            tail: usize,
        ) {
            use std::arch::x86_64::*;
            let at = |k: usize| if k == K - 1 { tail } else { c0 + k * $lane };
            let mut a: [[$vec; K]; B] = [[$zero(); K]; B];
            let mut x = xb.as_ptr();
            for &woff in woffs {
                let base = w.as_ptr().add(woff as usize);
                let mut wd: [$vec; K] = [$zero(); K];
                for (k, wk) in wd.iter_mut().enumerate() {
                    *wk = $widen($loadw(base.add(at(k))));
                }
                for (j, aj) in a.iter_mut().enumerate() {
                    let xv = $set1(*x.add(j));
                    for (ajk, wk) in aj.iter_mut().zip(&wd) {
                        *ajk = $add(*ajk, $mul(*wk, xv));
                    }
                }
                x = x.add(B);
            }
            for (j, aj) in a.iter().enumerate() {
                for (k, ajk) in aj.iter().enumerate() {
                    $store(out.as_mut_ptr().add(j * stride + at(k)), *ajk);
                }
            }
        }

        /// # Safety
        ///
        /// The CPU must support the family's target feature;
        /// `xb.len() == woffs.len() · B`,
        /// every `woffs[i] + cols ≤ w.len()` and `out.len() ≥ (B − 1) ·
        /// stride + cols` ([`mac_f_block`] asserts all three).
        #[target_feature(enable = $feature)]
        unsafe fn $block<const B: usize>(
            w: &[f32],
            cols: usize,
            woffs: &[u32],
            xb: &[f64],
            out: &mut [f64],
            stride: usize,
        ) {
            if cols < $lane {
                return mac_f_block_scalar(w, cols, woffs, xb, B, out, stride);
            }
            let vectors = cols.div_ceil($lane);
            let mut v = 0usize;
            while v < vectors {
                let k = (vectors - v).min(3);
                let c0 = v * $lane;
                let tail = (c0 + (k - 1) * $lane).min(cols - $lane);
                match k {
                    1 => $sweep::<B, 1>(w, woffs, xb, out, stride, c0, tail),
                    2 => $sweep::<B, 2>(w, woffs, xb, out, stride, c0, tail),
                    _ => $sweep::<B, 3>(w, woffs, xb, out, stride, c0, tail),
                }
                v += k;
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
block_family!(
    block_avx2,
    block_sweep_avx2,
    "avx2",
    4,
    __m256d,
    _mm256_setzero_pd,
    _mm_loadu_ps,
    _mm256_cvtps_pd,
    _mm256_set1_pd,
    _mm256_mul_pd,
    _mm256_add_pd,
    _mm256_storeu_pd
);

#[cfg(target_arch = "x86_64")]
block_family!(
    block_avx512,
    block_sweep_avx512,
    "avx512f",
    8,
    __m512d,
    _mm512_setzero_pd,
    _mm256_loadu_ps,
    _mm512_cvtps_pd,
    _mm512_set1_pd,
    _mm512_mul_pd,
    _mm512_add_pd,
    _mm512_storeu_pd
);

/// `dst[i · stride] = f(src[i])` for every `i`, with `f` compiled for the
/// bind-time family's instruction set.
///
/// This is the Integer regime's store: its closures are compositions of
/// `fpsa_nn`'s `requantize_mac` / `quantize_code` (both `#[inline]`), so the
/// *same source and the same IEEE operations* — `round`, divide, clamp —
/// are instantiated inside a `#[target_feature]` body, where the AVX
/// families lower `f64::round` to an inline `vroundsd` sequence instead of
/// the libm call the baseline x86-64 target has to make per output. No
/// result can differ: only instruction selection does.
#[inline]
pub(crate) fn map_store<S: Copy, D>(
    simd: Simd,
    src: &[S],
    dst: &mut [D],
    stride: usize,
    f: impl Fn(S) -> D,
) {
    assert!(stride >= 1 && (src.is_empty() || dst.len() > (src.len() - 1) * stride));
    match simd {
        Simd::Scalar => map_store_body(src, dst, stride, f),
        // SAFETY: `Avx2` is only ever selected when `Simd::supported`
        // observed the feature on this CPU; the body is safe code.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { map_store_avx2(src, dst, stride, f) },
        // SAFETY: as above, for `avx512f`.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { map_store_avx512(src, dst, stride, f) },
    }
}

#[inline(always)]
fn map_store_body<S: Copy, D>(src: &[S], dst: &mut [D], stride: usize, f: impl Fn(S) -> D) {
    for (d, &s) in dst.iter_mut().step_by(stride).zip(src) {
        *d = f(s);
    }
}

/// # Safety
///
/// The CPU must support `avx2` (the body itself is safe code).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_store_avx2<S: Copy, D>(src: &[S], dst: &mut [D], stride: usize, f: impl Fn(S) -> D) {
    map_store_body(src, dst, stride, f)
}

/// # Safety
///
/// The CPU must support `avx512f` (the body itself is safe code).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn map_store_avx512<S: Copy, D>(
    src: &[S],
    dst: &mut [D],
    stride: usize,
    f: impl Fn(S) -> D,
) {
    map_store_body(src, dst, stride, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Widths that exercise full 8-register stripes, partial stripes,
    /// overlapped final lanes and the sub-lane fallbacks of every family.
    const WIDTHS: [usize; 18] = [
        1, 3, 4, 7, 8, 15, 16, 17, 20, 31, 32, 50, 64, 93, 100, 128, 244, 256,
    ];

    /// Worst-case code magnitudes of the default plan (8-bit weights, 6-bit
    /// activations), and the deepest tile the bind-time bound admits at them.
    const WLEVELS: i32 = 127;
    const ALEVELS: i32 = 31;
    const BOUND_ROWS: usize = (i32::MAX / (WLEVELS * ALEVELS)) as usize;

    fn fixture(cols: usize) -> (Vec<f32>, Vec<RowF>) {
        let rows = 37usize;
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 2654435761) % 1997) as f32 / 1997.0 - 0.5)
            .collect();
        let rows: Vec<RowF> = (0..rows)
            .map(|r| ((r * cols) as u32, f64::from((r % 13) as f32 / 13.0 + 0.01)))
            .collect();
        (w, rows)
    }

    fn fixture_i(cols: usize) -> (Vec<i8>, Vec<RowI>) {
        let rows = 37usize;
        let w: Vec<i8> = (0..rows * cols)
            .map(|i| (((i * 2654435761) % 255) as i32 - WLEVELS) as i8)
            .collect();
        let rows: Vec<RowI> = (0..rows)
            .map(|r| {
                (
                    (r * cols) as u32,
                    (r as i32 * 7) % (2 * ALEVELS + 1) - ALEVELS,
                )
            })
            .collect();
        (w, rows)
    }

    /// `mac_i` in every family the CPU reports equals the `i64` scalar
    /// sweep, which is returned.
    fn assert_mac_i_matches_i64(w: &[i8], cols: usize, rows: &[RowI]) -> Vec<i64> {
        let mut want = vec![0i64; cols];
        mac_i_scalar(w, cols, rows, &mut want);
        for simd in Simd::supported() {
            let mut got = vec![i64::MIN; cols];
            mac_i(simd, w, cols, rows, &mut got);
            assert_eq!(want, got, "cols={cols} rows={} simd={simd:?}", rows.len());
        }
        want
    }

    /// Every kernel family the CPU reports must agree bit-for-bit with the
    /// scalar sweep, in both domains (`Simd::detect` alone would leave the
    /// AVX2 family unexecuted on an AVX-512 host).
    #[test]
    fn kernel_families_are_bit_identical() {
        assert_eq!(Simd::supported().last(), Some(&Simd::detect()));
        for cols in WIDTHS {
            let (w, rows) = fixture(cols);
            let mut want = vec![0.0f64; cols];
            mac_f_scalar(&w, cols, &rows, &mut want);
            for simd in Simd::supported() {
                let mut got = vec![1.0f64; cols];
                mac_f(simd, &w, cols, &rows, &mut got);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "cols={cols} simd={simd:?}"
                );
            }
            let (w, rows) = fixture_i(cols);
            assert_mac_i_matches_i64(&w, cols, &rows);
        }
    }

    /// The bind-time bound is tight: with every weight at ±127 and every
    /// activation at ±31, a full crossbar of rows — and the deepest tile the
    /// bound admits, one row short of overflowing an `i32` lane — still
    /// equals the `i64` sum in every family.
    #[test]
    fn worst_case_magnitudes_do_not_overflow_the_i32_lanes() {
        let bound = BOUND_ROWS as i64 * i64::from(WLEVELS * ALEVELS);
        assert!(bound <= i64::from(i32::MAX));
        assert!(bound + i64::from(WLEVELS * ALEVELS) > i64::from(i32::MAX));
        // The deepest tile only at one width that takes a full lane plus an
        // overlapped lane in both blocked families (it is 545k rows deep).
        for (cols, depth) in [
            (7usize, 256usize),
            (16, 256),
            (50, 256),
            (256, 256),
            (17, BOUND_ROWS),
        ] {
            for (wv, xv) in [
                (WLEVELS, ALEVELS),
                (-WLEVELS, ALEVELS),
                (WLEVELS, -ALEVELS),
                (-WLEVELS, -ALEVELS),
            ] {
                // Every row re-reads the same slab row: depth without a
                // `depth × cols` slab.
                let w = vec![wv as i8; cols];
                let rows = vec![(0u32, xv); depth];
                let out = assert_mac_i_matches_i64(&w, cols, &rows);
                let sum = depth as i64 * i64::from(wv) * i64::from(xv);
                assert!(out.iter().all(|&o| o == sum), "cols={cols} depth={depth}");
            }
        }
    }

    /// Random sparse tiles (most weights zero, rows dropped at random, as
    /// lowering and the zero-activation skip leave them) agree with the
    /// `i64` reference in every family.
    #[test]
    fn random_sparse_integer_tiles_match_the_i64_reference() {
        let name = "random_sparse_integer_tiles_match_the_i64_reference";
        fpsa_testgen::cases(name, 64, |rng| {
            let cols = rng.gen_range(1usize..70);
            let depth = rng.gen_range(0usize..300);
            let zero_pct = rng.gen_range(0i32..100);
            let codes: Vec<i32> = (0..300 * 70)
                .map(|_| rng.gen_range(-WLEVELS..WLEVELS + 1))
                .collect();
            let dice: Vec<i32> = (0..300 * 70).map(|_| rng.gen_range(0i32..100)).collect();
            let acts: Vec<i32> = (0..300)
                .map(|_| rng.gen_range(-ALEVELS..ALEVELS + 1))
                .collect();
            let w: Vec<i8> = codes[..depth * cols]
                .iter()
                .zip(&dice)
                .map(|(&c, &d)| if d < zero_pct { 0 } else { c as i8 })
                .collect();
            let rows: Vec<RowI> = (0..depth)
                .filter(|&r| acts[r] != 0)
                .map(|r| ((r * cols) as u32, acts[r]))
                .collect();
            assert_mac_i_matches_i64(&w, cols, &rows);
        });
    }

    /// An empty row list must fully overwrite the output with zeros.
    #[test]
    fn empty_row_list_zeroes_the_output() {
        let (w, _) = fixture(20);
        let (wq, _) = fixture_i(20);
        for simd in Simd::supported() {
            let mut out = vec![42.0f64; 20];
            mac_f(simd, &w, 20, &[], &mut out);
            assert!(out.iter().all(|&v| v == 0.0));
            let mut out = vec![7i64; 20];
            mac_i(simd, &wq, 20, &[], &mut out);
            assert!(out.iter().all(|&v| v == 0));
            for b in 1..=simd.block() {
                let mut out = vec![42.0f64; b * 20];
                mac_f_block(simd, &w, 20, &[], &[], b, &mut out, 20);
                assert!(out.iter().all(|&v| v.to_bits() == 0), "b={b} simd={simd:?}");
            }
        }
    }

    /// The 2-D register block in every family × width × block height, over
    /// row lists with dropped rows, `+0.0` / `-0.0` padded activations and
    /// negative weights, against `b` *independent* scalar sweeps that each
    /// see only their own member's non-zero rows — the per-position /
    /// per-sample computation the block stands for. `out` is strided, and
    /// the gaps between its rows must stay untouched.
    #[test]
    fn block_kernel_equals_independent_sweeps_over_each_members_own_rows() {
        const SENTINEL: f64 = 1234.5;
        for cols in WIDTHS {
            let (w, rows) = fixture(cols);
            let stride = cols + 3;
            for simd in Simd::supported() {
                for b in 1..=simd.block() {
                    let member = |i: usize, j: usize, xv: f64| match (i * 7 + j * 3) % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        _ if (i + j).is_multiple_of(2) => xv * (j + 1) as f64,
                        _ => -xv * (j + 1) as f64,
                    };
                    // The caller's gather: every fourth tile row is dropped
                    // outright, and so is a row no member drives.
                    let (mut woffs, mut xb) = (Vec::new(), Vec::new());
                    for (i, &(woff, xv)) in rows.iter().enumerate() {
                        let xrow: Vec<f64> = (0..b).map(|j| member(i, j, xv)).collect();
                        if i % 4 != 3 && xrow.iter().any(|&x| x != 0.0) {
                            woffs.push(woff);
                            xb.extend(xrow);
                        }
                    }
                    let mut got = vec![SENTINEL; (b - 1) * stride + cols + 5];
                    mac_f_block(simd, &w, cols, &woffs, &xb, b, &mut got, stride);
                    for j in 0..b {
                        let own: Vec<RowF> = rows
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % 4 != 3)
                            .map(|(i, &(woff, xv))| (woff, member(i, j, xv)))
                            .filter(|&(_, x)| x != 0.0)
                            .collect();
                        let mut want = vec![0.0f64; cols];
                        mac_f_scalar(&w, cols, &own, &mut want);
                        assert_eq!(
                            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            got[j * stride..j * stride + cols]
                                .iter()
                                .map(|v| v.to_bits())
                                .collect::<Vec<_>>(),
                            "cols={cols} b={b} member={j} simd={simd:?}"
                        );
                    }
                    let gaps = (0..got.len()).filter(|i| i % stride >= cols || i / stride >= b);
                    assert!(
                        gaps.clone().all(|i| got[i] == SENTINEL),
                        "cols={cols} b={b} simd={simd:?}: wrote between the block's rows"
                    );
                }
            }
        }
    }

    /// `map_store` changes instruction selection, never results: in every
    /// family the Integer stores equal `requantize_mac` / `quantize_code` as
    /// this (baseline-compiled) test calls them, bit for bit — over every
    /// accumulator a full crossbar can produce at the default plan
    /// (`±rows · wlevels · alevels`), at power-of-two steps that put every
    /// odd accumulator exactly on a rounding tie, at ordinary and at
    /// saturating steps, with the fused ReLU on and off — and on the
    /// half-way values themselves, including the largest double below 0.5.
    #[test]
    fn family_compiled_integer_stores_equal_the_reference_bit_for_bit() {
        use fpsa_nn::quant::quantize_code;
        use fpsa_nn::reference::requantize_mac;
        let alevels = i64::from(ALEVELS);
        let bound = 256 * i64::from(WLEVELS) * alevels;
        let accs: Vec<i64> = (-bound..=bound).collect();
        for (wstep, gstep, ostep) in [
            (1.0, 1.0, 2.0),
            (0.5, 0.25, 4096.0),
            (0.0031, 0.017, 0.09),
            (0.0031, 0.017, 1e-7),
        ] {
            for relu in [false, true] {
                let code = move |a| requantize_mac(a, wstep, gstep, relu, ostep, alevels);
                let want: Vec<i64> = accs.iter().map(|&a| code(a)).collect();
                for simd in Simd::supported() {
                    let mut got = vec![i64::MIN; accs.len()];
                    map_store(simd, &accs, &mut got, 1, code);
                    assert!(
                        want == got,
                        "steps {wstep}/{gstep}/{ostep} relu={relu} {simd:?}"
                    );
                }
            }
        }
        let ties = [
            0.5,
            -0.5,
            0.49999999999999994,
            -0.49999999999999994,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.0,
            -0.0,
            30.5,
            -30.5,
            31.5,
            1e300,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for step in [1.0, 0.5, 0.1] {
            let values: Vec<f64> = ties.iter().map(|t| t * step).collect();
            let code = move |v| quantize_code(v, step, alevels);
            let want: Vec<i64> = values.iter().map(|&v| code(v)).collect();
            for simd in Simd::supported() {
                // Strided, as the value-slab stores are.
                let mut got = vec![i64::MIN; values.len() * 3];
                map_store(simd, &values, &mut got, 3, code);
                for (i, &w) in want.iter().enumerate() {
                    assert_eq!(got[i * 3], w, "{} / {step} {simd:?}", values[i]);
                    assert_eq!(got[i * 3 + 1], i64::MIN);
                }
            }
        }
        assert_eq!(quantize_code(0.49999999999999994, 1.0, alevels), 0);
        assert_eq!(quantize_code(-0.5, 1.0, alevels), -1);
    }
}
