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
//! Feature detection happens once at bind time ([`Simd::detect`]); the
//! resulting selector is stored in the lowered artifact so the hot loop is a
//! plain match, not a per-call `cpuid`.

/// Which MAC kernel family the lowered artifact dispatches to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// Portable full-width sweep (also the non-x86 fallback).
    #[default]
    Scalar,
    /// 256-bit lanes: 8 × 4 f64 accumulators in registers.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit lanes: 8 × 8 f64 accumulators in registers.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Simd {
    /// Pick the widest kernel family this CPU supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Simd::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Simd::Avx2;
            }
        }
        Simd::Scalar
    }
}

/// One surviving MAC row of an output position: absolute weight-slab offset
/// of the row's first column, and the (nonzero) activation driving it.
pub(crate) type RowF = (u32, f64);

/// Integer-domain counterpart of [`RowF`].
pub(crate) type RowI = (u32, i64);

/// `out[c] = Σ_rows w[woff + c] · x` over `cols` columns, f64, terms in row
/// order. `out[..cols]` is fully overwritten (zeros when `rows` is empty).
#[inline]
pub(crate) fn mac_f(simd: Simd, w: &[f32], cols: usize, rows: &[RowF], out: &mut [f64]) {
    debug_assert!(rows.iter().all(|&(o, _)| o as usize + cols <= w.len()));
    let out = &mut out[..cols];
    match simd {
        Simd::Scalar => mac_f_scalar(w, cols, rows, out),
        // SAFETY: the selector is only ever `Avx2`/`Avx512` when
        // `Simd::detect` observed the feature on this CPU, and lowering
        // guarantees every row offset stays inside the weight slab.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { mac_f_avx2(w, cols, rows, out) },
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => unsafe { mac_f_avx512(w, cols, rows, out) },
    }
}

/// Integer-domain MAC: `out[c] = Σ_rows w[woff + c] · x`, exact i64 adds in
/// row order (associative, so blocking strategy is immaterial here; a single
/// full-width sweep keeps the weight traffic contiguous).
pub(crate) fn mac_i(w: &[i64], cols: usize, rows: &[RowI], out: &mut [i64]) {
    let out = &mut out[..cols];
    out.fill(0);
    for &(woff, xv) in rows {
        let row = &w[woff as usize..woff as usize + cols];
        for (o, &wv) in out.iter_mut().zip(row) {
            *o += wv * xv;
        }
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
    let mut c0 = 0usize;
    loop {
        match cols - c0 {
            0 => return,
            32.. => {
                sweep_avx2::<8>(w, rows, out, c0);
                c0 += 32;
            }
            rem @ 4..=31 => {
                // One sweep with exactly the registers the stripe needs.
                match rem / 4 {
                    1 => sweep_avx2::<1>(w, rows, out, c0),
                    2 => sweep_avx2::<2>(w, rows, out, c0),
                    3 => sweep_avx2::<3>(w, rows, out, c0),
                    4 => sweep_avx2::<4>(w, rows, out, c0),
                    5 => sweep_avx2::<5>(w, rows, out, c0),
                    6 => sweep_avx2::<6>(w, rows, out, c0),
                    _ => sweep_avx2::<7>(w, rows, out, c0),
                }
                c0 += (rem / 4) * 4;
            }
            // Sub-lane remainder: recompute an overlapped final lane. The
            // overlapping columns receive the exact same term sequence, so
            // the overwrite is bit-identical.
            _ => {
                sweep_avx2::<1>(w, rows, out, cols - 4);
                return;
            }
        }
    }
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
    let mut c0 = 0usize;
    loop {
        match cols - c0 {
            0 => return,
            64.. => {
                sweep_avx512::<8>(w, rows, out, c0);
                c0 += 64;
            }
            rem @ 8..=63 => {
                match rem / 8 {
                    1 => sweep_avx512::<1>(w, rows, out, c0),
                    2 => sweep_avx512::<2>(w, rows, out, c0),
                    3 => sweep_avx512::<3>(w, rows, out, c0),
                    4 => sweep_avx512::<4>(w, rows, out, c0),
                    5 => sweep_avx512::<5>(w, rows, out, c0),
                    6 => sweep_avx512::<6>(w, rows, out, c0),
                    _ => sweep_avx512::<7>(w, rows, out, c0),
                }
                c0 += (rem / 8) * 8;
            }
            // Sub-lane remainder: overlapped final lane (see the AVX2 path).
            _ => {
                sweep_avx512::<1>(w, rows, out, cols - 8);
                return;
            }
        }
    }
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
        // SAFETY: selector implies the feature (see `mac_f`); offsets are
        // in-slab by lowering.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => unsafe { mac_f_batch_avx2_sb(w, cols, woffs, xb, sb, acc) },
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

    /// Every kernel family must agree bit-for-bit with the scalar sweep on
    /// widths that exercise full blocks, partial blocks, and scalar tails.
    #[test]
    fn kernel_families_are_bit_identical() {
        for cols in [1usize, 3, 4, 7, 8, 20, 31, 32, 50, 64, 93, 100, 244, 256] {
            let (w, rows) = fixture(cols);
            let mut want = vec![0.0f64; cols];
            mac_f_scalar(&w, cols, &rows, &mut want);
            for simd in [Simd::detect(), Simd::Scalar] {
                let mut got = vec![1.0f64; cols];
                mac_f(simd, &w, cols, &rows, &mut got);
                assert_eq!(
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "cols={cols} simd={simd:?}"
                );
            }
        }
    }

    /// An empty row list must fully overwrite the output with zeros.
    #[test]
    fn empty_row_list_zeroes_the_output() {
        let (w, _) = fixture(20);
        let mut out = vec![42.0f64; 20];
        mac_f(Simd::detect(), &w, 20, &[], &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
        let mut out = vec![7i64; 20];
        mac_i(&[0i64; 400], 20, &[], &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }
}
