//! Register-blocked MAC kernels behind one-time CPU feature dispatch.
//!
//! Dense and convolution instructions both reduce, per output position, to
//! the same primitive: `out[c] = Σ_rows w[woff + c] · x_row` with the terms
//! of every accumulator taken in ascending row order. The dispatch loops in
//! [`crate::bytecode`] prefilter each position's surviving rows (dynamic
//! sparsity: activations that are exactly zero are dropped — they only ever
//! contribute `w · 0` terms) into a flat `(weight offset, activation)` list,
//! then hand the whole position to one of the kernels here.
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
//!
//! Feature detection happens once at bind time ([`Simd::detect`]); the
//! resulting selector is stored in the lowered artifact so the hot loop is a
//! plain match, not a per-call `cpuid`.

/// Which MAC kernel family the lowered artifact dispatches to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// Portable full-width sweep (also the non-x86 fallback).
    #[default]
    Scalar,
    /// 256-bit lanes: 8 registers of 4 f64 / 8 i32 accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit lanes: 8 registers of 8 f64 / 16 i32 accumulators.
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

/// Batched MAC over `sb` samples at once: `acc[s · cols + c] = Σ_i
/// w[woffs[i] + c] · xb[i · sb + s]`, terms in row order per accumulator.
///
/// One weight-row load drives every sample's accumulators, so a weight tile
/// streams from memory once per batch instead of once per sample — the
/// bandwidth amortization behind `run_batch_into`. The caller pre-gathers
/// activations into `xb` (row-major, `sb` samples per row) with rows whose
/// activations are zero across the *whole* group already dropped; a sample
/// whose individual activation is zero still contributes a `±0.0` product,
/// which never changes an accumulator that starts at `+0.0` and only ever
/// sums finite products (exact cancellation rounds to `+0.0`, never `-0.0`),
/// so results stay bit-identical to the per-sample kernels.
pub(crate) fn mac_f_batch(
    simd: Simd,
    w: &[f32],
    cols: usize,
    woffs: &[u32],
    xb: &[f64],
    sb: usize,
    acc: &mut [f64],
) {
    debug_assert_eq!(xb.len(), woffs.len() * sb);
    debug_assert!(acc.len() >= sb * cols);
    match simd {
        Simd::Scalar => mac_f_batch_scalar(w, cols, woffs, xb, sb, acc),
        // SAFETY: selector implies `avx2` (see `mac_f`); offsets are
        // in-slab by lowering.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { mac_f_batch_avx2_sb(w, cols, woffs, xb, sb, acc) },
        // SAFETY: as above, for `avx512f`.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { mac_f_batch_avx512_sb(w, cols, woffs, xb, sb, acc) },
    }
}

fn mac_f_batch_scalar(
    w: &[f32],
    cols: usize,
    woffs: &[u32],
    xb: &[f64],
    sb: usize,
    acc: &mut [f64],
) {
    acc[..sb * cols].fill(0.0);
    for (i, &woff) in woffs.iter().enumerate() {
        let row = &w[woff as usize..woff as usize + cols];
        for s in 0..sb {
            let xv = xb[i * sb + s];
            if xv != 0.0 {
                let arow = &mut acc[s * cols..(s + 1) * cols];
                for (a, &wv) in arow.iter_mut().zip(row) {
                    *a += f64::from(wv) * xv;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mac_f_batch_avx512_sb(
    w: &[f32],
    cols: usize,
    woffs: &[u32],
    xb: &[f64],
    sb: usize,
    acc: &mut [f64],
) {
    match sb {
        1 => mac_f_batch_avx512::<1>(w, cols, woffs, xb, acc),
        2 => mac_f_batch_avx512::<2>(w, cols, woffs, xb, acc),
        3 => mac_f_batch_avx512::<3>(w, cols, woffs, xb, acc),
        4 => mac_f_batch_avx512::<4>(w, cols, woffs, xb, acc),
        5 => mac_f_batch_avx512::<5>(w, cols, woffs, xb, acc),
        6 => mac_f_batch_avx512::<6>(w, cols, woffs, xb, acc),
        7 => mac_f_batch_avx512::<7>(w, cols, woffs, xb, acc),
        _ => mac_f_batch_avx512::<8>(w, cols, woffs, xb, acc),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mac_f_batch_avx512<const SB: usize>(
    w: &[f32],
    cols: usize,
    woffs: &[u32],
    xb: &[f64],
    acc: &mut [f64],
) {
    use std::arch::x86_64::*;
    if cols < 8 {
        return mac_f_batch_scalar(w, cols, woffs, xb, SB, acc);
    }
    let mut c0 = 0usize;
    loop {
        let rem = cols - c0;
        if rem == 0 {
            return;
        }
        // Sub-lane remainder: recompute an overlapped final lane
        // (bit-identical, see `mac_f_avx512`).
        let last = rem < 8;
        if last {
            c0 = cols - 8;
        }
        let mut a = [_mm512_setzero_pd(); SB];
        for (i, &woff) in woffs.iter().enumerate() {
            let wd = _mm512_cvtps_pd(_mm256_loadu_ps(w.as_ptr().add(woff as usize + c0)));
            let xrow = xb.as_ptr().add(i * SB);
            for (s, asl) in a.iter_mut().enumerate() {
                let xv = _mm512_set1_pd(*xrow.add(s));
                *asl = _mm512_add_pd(*asl, _mm512_mul_pd(wd, xv));
            }
        }
        for (s, asl) in a.iter().enumerate() {
            _mm512_storeu_pd(acc.as_mut_ptr().add(s * cols + c0), *asl);
        }
        if last {
            return;
        }
        c0 += 8;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mac_f_batch_avx2_sb(
    w: &[f32],
    cols: usize,
    woffs: &[u32],
    xb: &[f64],
    sb: usize,
    acc: &mut [f64],
) {
    match sb {
        1 => mac_f_batch_avx2::<1>(w, cols, woffs, xb, acc),
        2 => mac_f_batch_avx2::<2>(w, cols, woffs, xb, acc),
        3 => mac_f_batch_avx2::<3>(w, cols, woffs, xb, acc),
        4 => mac_f_batch_avx2::<4>(w, cols, woffs, xb, acc),
        5 => mac_f_batch_avx2::<5>(w, cols, woffs, xb, acc),
        6 => mac_f_batch_avx2::<6>(w, cols, woffs, xb, acc),
        7 => mac_f_batch_avx2::<7>(w, cols, woffs, xb, acc),
        _ => mac_f_batch_avx2::<8>(w, cols, woffs, xb, acc),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mac_f_batch_avx2<const SB: usize>(
    w: &[f32],
    cols: usize,
    woffs: &[u32],
    xb: &[f64],
    acc: &mut [f64],
) {
    use std::arch::x86_64::*;
    if cols < 4 {
        return mac_f_batch_scalar(w, cols, woffs, xb, SB, acc);
    }
    let mut c0 = 0usize;
    loop {
        let rem = cols - c0;
        if rem == 0 {
            return;
        }
        let last = rem < 4;
        if last {
            c0 = cols - 4;
        }
        let mut a = [_mm256_setzero_pd(); SB];
        for (i, &woff) in woffs.iter().enumerate() {
            let wd = _mm256_cvtps_pd(_mm_loadu_ps(w.as_ptr().add(woff as usize + c0)));
            let xrow = xb.as_ptr().add(i * SB);
            for (s, asl) in a.iter_mut().enumerate() {
                let xv = _mm256_set1_pd(*xrow.add(s));
                *asl = _mm256_add_pd(*asl, _mm256_mul_pd(wd, xv));
            }
        }
        for (s, asl) in a.iter().enumerate() {
            _mm256_storeu_pd(acc.as_mut_ptr().add(s * cols + c0), *asl);
        }
        if last {
            return;
        }
        c0 += 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sparse tiles (most weights zero, rows dropped at random,
        /// as lowering and the zero-activation skip leave them) agree with
        /// the `i64` reference in every family.
        #[test]
        fn random_sparse_integer_tiles_match_the_i64_reference(
            cols in 1usize..70,
            depth in 0usize..300,
            zero_pct in 0i32..100,
            codes in collection::vec(-WLEVELS..WLEVELS + 1, 300 * 70),
            dice in collection::vec(0i32..100, 300 * 70),
            acts in collection::vec(-ALEVELS..ALEVELS + 1, 300),
        ) {
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
        }
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
        }
    }
}
