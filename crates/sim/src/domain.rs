//! The numeric domains the bytecode stream executes in.
//!
//! One lowered [`crate::bytecode::Inst`] stream runs in whichever domain the
//! executor was bound in; the domain is the type parameter of
//! [`crate::bytecode::Lowered::exec`], so monomorphization produces one
//! dispatch loop per domain from one source. A domain supplies exactly what
//! differs between them:
//!
//! * the slab element types — activation [`Domain::Val`], accumulator and
//!   partial [`Domain::Acc`], MAC lane [`Domain::Lane`] — and the max
//!   operation the pooling bodies are written with;
//! * the output maps of every store (MAC requantization, pool / GAP
//!   divide-then-quantize, max-pool forwarding, element-wise rescale) and
//!   the row store that applies them;
//! * the gather-copy rescale, the input load and the output read;
//! * the two MAC kernels: a per-member GEMV and the shared-weight block
//!   pass.
//!
//! [`Float`] serves [`crate::Precision::Float`] and
//! [`crate::Precision::Noisy`]: f32 values, f64 accumulation, fused ReLU and
//! an f32 cast at node boundaries. [`Integer`] serves
//! [`crate::Precision::Integer`]: `i64` codes whose every store is the
//! quantized reference's own composition, run through
//! [`kernels::map_store`] so it is instantiated for the bind-time family.

use crate::bytecode::{Lowered, MacScratch, Requant, Scratch};
use crate::exec::ExecArena;
use crate::kernels::{self, Simd};
use fpsa_nn::quant::{quantize_code, rescale_code};
use fpsa_nn::reference::requantize_mac;
use std::iter::Sum;
use std::ops::AddAssign;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Float {}
    impl Sealed for super::Integer {}
}

/// The float domain (Float and Noisy precisions).
pub(crate) struct Float;

/// The integer-code domain (Integer precision).
pub(crate) struct Integer;

/// A numeric domain of the bytecode stream. Sealed: the executor binds to
/// exactly these two.
pub(crate) trait Domain: sealed::Sealed {
    /// Value-slab element: node activations, gathers, element-wise sides.
    type Val: Copy + Default + PartialEq;
    /// Accumulator and partial-slab element, which every value widens to.
    type Acc: Copy + Default + AddAssign + Sum + From<Self::Val>;
    /// Activation lane of a MAC row list.
    type Lane: Copy + Default + PartialEq;
    /// The identity of [`Domain::max`].
    const MAX_IDENTITY: Self::Acc;
    /// Whether a batch runs its dense tiles by blocks of samples: the float
    /// kernel shares every weight-row load across a block; the integer
    /// kernel is multiply-bound, so it runs a dense batch per sample.
    const BLOCKS_SAMPLES: bool;

    fn max(a: Self::Acc, b: Self::Acc) -> Self::Acc;
    /// Narrow a value-slab activation to the MAC lane.
    fn lane(v: Self::Val, alevels: i64) -> Self::Lane;
    /// Move a gathered value from step `from` to step `to`.
    fn rescale(v: Self::Val, from: f64, to: f64, alevels: i64) -> Self::Val;

    /// The MAC and reduction store: a raw accumulation to a node output.
    fn mac_map(rq: Requant, relu: bool, alevels: i64) -> impl Fn(Self::Acc) -> Self::Val + Copy;
    /// The average-pool and GAP store: a window sum over `div` elements.
    fn avg_map(
        rq: Requant,
        relu: bool,
        div: f64,
        alevels: i64,
    ) -> impl Fn(Self::Acc) -> Self::Val + Copy;
    /// The max-pool stage-2 store: a stage-1 window maximum.
    fn max_map(rq: Requant, relu: bool, alevels: i64) -> impl Fn(Self::Acc) -> Self::Val + Copy;
    /// The element-wise store: a sum of the gathered sides.
    fn eltwise_map(rq: Requant, relu: bool, alevels: i64)
        -> impl Fn(Self::Acc) -> Self::Val + Copy;
    /// Store a row-major block of output rows, `cols` per member, through
    /// `map`: with `strides = (positions, member)`, member `j`'s column `c`
    /// goes to `vals[dst + j · member + c · positions]`.
    fn store_block(
        simd: Simd,
        vals: &mut [Self::Val],
        dst: usize,
        rows: &[Self::Acc],
        cols: usize,
        strides: (usize, usize),
        map: impl Fn(Self::Acc) -> Self::Val + Copy,
    );

    /// `vals[dst + c · positions] = map(row[c])` for every column `c`.
    #[inline(always)]
    fn store_row(
        simd: Simd,
        vals: &mut [Self::Val],
        dst: usize,
        row: &[Self::Acc],
        positions: usize,
        map: impl Fn(Self::Acc) -> Self::Val + Copy,
    ) {
        Self::store_block(simd, vals, dst, row, row.len(), (positions, 0), map);
    }

    /// Load one sample into the input node's region at activation `step`.
    fn load_input(simd: Simd, step: f64, alevels: i64, input: &[f32], dst: &mut [Self::Val]);
    /// The real value of a value-slab element at activation `step`.
    fn real(v: Self::Val, step: f64) -> f32;
    /// This domain's slabs and MAC scratch in `arena`.
    fn arena(arena: &mut ExecArena) -> (&mut Vec<Self::Val>, &mut Vec<Self::Acc>, &mut MacScratch);
    fn scratch(mac: &mut MacScratch) -> &mut Scratch<Self::Lane, Self::Acc>;

    /// `out[..cols] = Σ_rows w[woff + c] · x` over one member's row list.
    fn gemv(l: &Lowered, cols: usize, rows: &[(u32, Self::Lane)], out: &mut [Self::Acc]);
    /// The same sum for each of the `b` members of a row-major activation
    /// block over the shared rows `woffs`, member `j`'s outputs at
    /// `out[j · stride..][..cols]`.
    #[allow(clippy::too_many_arguments)]
    fn block_mac(
        l: &Lowered,
        cols: usize,
        woffs: &[u32],
        xb: &[Self::Lane],
        b: usize,
        rows: &mut Vec<(u32, Self::Lane)>,
        out: &mut [Self::Acc],
        stride: usize,
    );
}

#[inline(always)]
fn relu_f(a: f64, relu: bool) -> f64 {
    if relu {
        a.max(0.0)
    } else {
        a
    }
}

impl Domain for Float {
    type Val = f32;
    type Acc = f64;
    type Lane = f64;
    const MAX_IDENTITY: f64 = f64::NEG_INFINITY;
    const BLOCKS_SAMPLES: bool = true;

    #[inline(always)]
    fn max(a: f64, b: f64) -> f64 {
        a.max(b)
    }

    #[inline(always)]
    fn lane(v: f32, _: i64) -> f64 {
        f64::from(v)
    }

    /// A real value carries no step: rescaling is a copy.
    #[inline(always)]
    fn rescale(v: f32, _: f64, _: f64, _: i64) -> f32 {
        v
    }

    #[inline(always)]
    fn mac_map(_: Requant, relu: bool, _: i64) -> impl Fn(f64) -> f32 + Copy {
        move |a| relu_f(a, relu) as f32
    }

    #[inline(always)]
    fn avg_map(_: Requant, relu: bool, div: f64, _: i64) -> impl Fn(f64) -> f32 + Copy {
        move |sum| relu_f(sum / div, relu) as f32
    }

    #[inline(always)]
    fn max_map(_: Requant, relu: bool, _: i64) -> impl Fn(f64) -> f32 + Copy {
        move |a| relu_f(a, relu) as f32
    }

    #[inline(always)]
    fn eltwise_map(_: Requant, relu: bool, _: i64) -> impl Fn(f64) -> f32 + Copy {
        move |a| relu_f(a, relu) as f32
    }

    /// Column-major over the block: a convolution's column stride is a
    /// whole position plane, so each column's members share a cache line
    /// (and a page).
    #[inline(always)]
    fn store_block(
        _: Simd,
        vals: &mut [f32],
        dst: usize,
        rows: &[f64],
        cols: usize,
        (positions, member): (usize, usize),
        map: impl Fn(f64) -> f32 + Copy,
    ) {
        let members = rows.len() / cols;
        for c in 0..cols {
            for j in 0..members {
                vals[dst + j * member + c * positions] = map(rows[j * cols + c]);
            }
        }
    }

    /// A plain loop: through [`Domain::store_block`], a single row would
    /// pay a member loop per column.
    #[inline(always)]
    fn store_row(
        _: Simd,
        vals: &mut [f32],
        dst: usize,
        row: &[f64],
        positions: usize,
        map: impl Fn(f64) -> f32 + Copy,
    ) {
        for (c, &a) in row.iter().enumerate() {
            vals[dst + c * positions] = map(a);
        }
    }

    #[inline(always)]
    fn load_input(_: Simd, _: f64, _: i64, input: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(input);
    }

    #[inline(always)]
    fn real(v: f32, _: f64) -> f32 {
        v
    }

    #[inline(always)]
    fn arena(arena: &mut ExecArena) -> (&mut Vec<f32>, &mut Vec<f64>, &mut MacScratch) {
        (&mut arena.val_f, &mut arena.part_f, &mut arena.mac)
    }

    #[inline(always)]
    fn scratch(mac: &mut MacScratch) -> &mut Scratch<f64, f64> {
        &mut mac.f
    }

    #[inline(always)]
    fn gemv(l: &Lowered, cols: usize, rows: &[(u32, f64)], out: &mut [f64]) {
        kernels::mac_f(l.simd, &l.wslab_f, cols, rows, out);
    }

    #[inline(always)]
    fn block_mac(
        l: &Lowered,
        cols: usize,
        woffs: &[u32],
        xb: &[f64],
        b: usize,
        _: &mut Vec<(u32, f64)>,
        out: &mut [f64],
        stride: usize,
    ) {
        kernels::mac_f_block(l.simd, &l.wslab_f, cols, woffs, xb, b, out, stride);
    }
}

impl Domain for Integer {
    type Val = i64;
    type Acc = i64;
    type Lane = i32;
    const MAX_IDENTITY: i64 = i64::MIN;
    const BLOCKS_SAMPLES: bool = false;

    #[inline(always)]
    fn max(a: i64, b: i64) -> i64 {
        a.max(b)
    }

    /// Lossless: every value-slab writer (input quantization,
    /// `rescale_code`, `requantize_mac`, `quantize_code`) clamps to
    /// ±`alevels`, and bind rejects plans whose `alevels` does not fit the
    /// lane bound.
    #[inline(always)]
    fn lane(code: i64, alevels: i64) -> i32 {
        debug_assert!(
            code.abs() <= alevels,
            "value-slab code {code} escaped ±{alevels}"
        );
        code as i32
    }

    #[inline(always)]
    fn rescale(code: i64, from: f64, to: f64, alevels: i64) -> i64 {
        rescale_code(code, from, to, alevels)
    }

    #[inline(always)]
    fn mac_map(rq: Requant, relu: bool, alevels: i64) -> impl Fn(i64) -> i64 + Copy {
        move |a| requantize_mac(a, rq.wstep, rq.gstep, relu, rq.ostep, alevels)
    }

    /// Identical composition to `pooled_window_real`.
    #[inline(always)]
    fn avg_map(rq: Requant, _: bool, div: f64, alevels: i64) -> impl Fn(i64) -> i64 + Copy {
        move |sum| quantize_code(sum as f64 * rq.gstep / div, rq.ostep, alevels)
    }

    #[inline(always)]
    fn max_map(rq: Requant, _: bool, alevels: i64) -> impl Fn(i64) -> i64 + Copy {
        move |max| quantize_code(max as f64 * rq.gstep, rq.ostep, alevels)
    }

    /// Code-domain ReLU, then the rescale to the output step.
    #[inline(always)]
    fn eltwise_map(rq: Requant, relu: bool, alevels: i64) -> impl Fn(i64) -> i64 + Copy {
        move |sum| {
            let sum = if relu { sum.max(0) } else { sum };
            rescale_code(sum, rq.gstep, rq.ostep, alevels)
        }
    }

    #[inline(always)]
    fn store_block(
        simd: Simd,
        vals: &mut [i64],
        dst: usize,
        rows: &[i64],
        cols: usize,
        (positions, member): (usize, usize),
        map: impl Fn(i64) -> i64 + Copy,
    ) {
        for (j, row) in rows.chunks_exact(cols).enumerate() {
            kernels::map_store(simd, row, &mut vals[dst + j * member..], positions, map);
        }
    }

    /// An Integer store like any other, so it runs through the
    /// family-compiled [`kernels::map_store`].
    #[inline(always)]
    fn load_input(simd: Simd, step: f64, alevels: i64, input: &[f32], dst: &mut [i64]) {
        kernels::map_store(simd, input, dst, 1, move |v| {
            quantize_code(f64::from(v), step, alevels)
        });
    }

    #[inline(always)]
    fn real(code: i64, step: f64) -> f32 {
        (code as f64 * step) as f32
    }

    #[inline(always)]
    fn arena(arena: &mut ExecArena) -> (&mut Vec<i64>, &mut Vec<i64>, &mut MacScratch) {
        (&mut arena.val_i, &mut arena.part_i, &mut arena.mac)
    }

    #[inline(always)]
    fn scratch(mac: &mut MacScratch) -> &mut Scratch<i32, i64> {
        &mut mac.i
    }

    #[inline(always)]
    fn gemv(l: &Lowered, cols: usize, rows: &[(u32, i32)], out: &mut [i64]) {
        kernels::mac_i(l.simd, &l.wslab_q, cols, rows, out);
    }

    /// One GEMV per member: the `i32` lanes are multiply-bound, so sharing
    /// weight loads across a block buys them nothing. Each member's row
    /// list is its non-zero column of the block (a clipped entry is a zero).
    #[inline(always)]
    fn block_mac(
        l: &Lowered,
        cols: usize,
        woffs: &[u32],
        xb: &[i32],
        b: usize,
        rows: &mut Vec<(u32, i32)>,
        out: &mut [i64],
        stride: usize,
    ) {
        let rows = crate::bytecode::grow(rows, woffs.len());
        for j in 0..b {
            let mut n = 0usize;
            for (&woff, x) in woffs.iter().zip(xb.chunks_exact(b)) {
                rows[n] = (woff, x[j]);
                n += usize::from(x[j] != 0);
            }
            kernels::mac_i(l.simd, &l.wslab_q, cols, &rows[..n], &mut out[j * stride..]);
        }
    }
}
