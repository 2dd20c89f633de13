//! Int8 symmetric per-row quantization for inference.
//!
//! The student serving path (DESIGN.md §13) trades a bounded amount of
//! precision for integer arithmetic: each *row* of an activation matrix
//! (and each *output column* of a weight matrix) is scaled by its own
//! `max|x| / 127` factor and rounded to `i8`; the matmul then runs on
//! `i8 × i8 → i32` integer dot products and converts back to `f32` once
//! per output element via `scale_row × scale_col`.
//!
//! # Determinism class
//!
//! Unlike the f32 GEMM (tolerance-bounded under FMA/reassociation, see
//! `simd`), the quantized matmul is **integer-exact**: addition of `i32`
//! partial products is associative, so the SIMD lane, the scalar lane,
//! and every thread count produce the *same bits*. Goldens may pin the
//! int8 path directly without `force_scalar`.
//!
//! # Edge cases (pinned by tests)
//!
//! * An all-zero row (or one with no finite element) gets `scale = 0`
//!   and quantizes to all-zero; dequantization maps it back to exact
//!   zeros rather than dividing by zero.
//! * Non-finite inputs saturate: `NaN → 0`, `+Inf → 127`, `-Inf → -127`
//!   (the scale is computed over *finite* elements only, so one bad cell
//!   cannot zero out the information in the rest of the row).
//! * Quantized values are clamped to `[-127, 127]` — `-128` is never
//!   produced, keeping the code symmetric and the `i16` widening in the
//!   AVX2 lane overflow-free.

use crate::tensor::Tensor;

/// Largest representable magnitude after quantization.
pub const QMAX: f32 = 127.0;

/// A row-major `i8` matrix with one symmetric scale per row.
///
/// `value[r][c] ≈ data[r * cols + c] as f32 * scales[r]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// Row-major quantized values, `rows * cols` of them.
    pub data: Vec<i8>,
    /// Per-row dequantization scales (`0.0` for all-zero rows).
    pub scales: Vec<f32>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// `data` in the layout the AVX2 matmul streams its weight operand in
    /// ([`pack_pairs`]). [`quantize_cols`] fills it, since a weight is
    /// quantized once and multiplied many times; it is empty on activation
    /// matrices, and a function of `data` wherever it is present.
    packed: Vec<PairTile>,
}

/// Eight output columns' weights for one pair of inner indices,
/// `[w(j, 2p), w(j, 2p + 1)]` for `j` in the tile, widened to `i16`: one
/// 256-bit vector, aligned so that no load of it straddles a cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
struct PairTile([i16; 16]);

/// `max|finite x|` over a row: the quantity both the scale and the
/// quantization step derive from (`0.0` for an empty/all-non-finite row).
/// Branch-free select on `is_finite` so the scan auto-vectorizes.
#[inline]
fn row_absmax(row: &[f32]) -> f32 {
    // Eight independent accumulators so the reduction vectorizes (a
    // single running `max` is a loop-carried dependence the compiler
    // won't reassociate). `max` over a set is order-independent, and the
    // select has already replaced non-finite elements with 0.0, so the
    // result is value-exact on every lane.
    let mut lanes = [0.0f32; 8];
    let mut chunks = row.chunks_exact(8);
    for c in chunks.by_ref() {
        for (m, &v) in lanes.iter_mut().zip(c) {
            let a = if v.is_finite() { v.abs() } else { 0.0 };
            *m = m.max(a);
        }
    }
    let mut max = lanes.iter().fold(0.0f32, |x, &y| x.max(y));
    for &v in chunks.remainder() {
        let a = if v.is_finite() { v.abs() } else { 0.0 };
        max = max.max(a);
    }
    max
}

/// The symmetric scale for one row: `max|finite x| / 127`, or `0.0` when
/// the row is empty, all-zero, or has no finite element.
pub fn row_scale(row: &[f32]) -> f32 {
    let max = row_absmax(row);
    if max == 0.0 {
        0.0
    } else {
        max / QMAX
    }
}

/// Quantizes one row into `out` given its absmax, returning the
/// dequantization scale. The quantization step multiplies by the
/// reciprocal step (`127 / max`) rather than dividing per element — one
/// division per row, and the branch-free body auto-vectorizes.
#[inline]
fn quantize_row_into(on: bool, row: &[f32], max: f32, out: &mut [i8]) -> f32 {
    if max == 0.0 {
        out.fill(0);
        return 0.0;
    }
    let inv = QMAX / max;
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        // Bit-identical to the scalar loop below (see the kernel's doc
        // comment), so the lane-exactness claim survives the routing.
        unsafe { avx::quantize_row(row, inv, out) };
        return max / QMAX;
    }
    let _ = on;
    for (slot, &v) in out.iter_mut().zip(row) {
        // NaN survives rounding and clamp() and then casts to 0; ±Inf
        // clamp to ±127 (the clamp keeps -128 out). Ties round to even —
        // the hardware rounding direction — matching the AVX lane's
        // `cvtps` exactly.
        *slot = (v * inv).round_ties_even().clamp(-QMAX, QMAX) as i8;
    }
    max / QMAX
}

/// Quantizes a 2-D tensor row by row.
pub fn quantize_rows(x: &Tensor) -> QuantizedMatrix {
    assert_eq!(x.ndim(), 2, "quantize_rows wants [rows, cols]");
    let (rows, cols) = (x.dim(0), x.dim(1));
    let mut data = vec![0i8; rows * cols];
    let mut scales = Vec::with_capacity(rows);
    let on = crate::simd::active();
    for (r, out) in data.chunks_mut(cols.max(1)).enumerate().take(rows) {
        let row = x.row(r);
        scales.push(quantize_row_into(on, row, row_absmax(row), out));
    }
    QuantizedMatrix {
        data,
        scales,
        rows,
        cols,
        packed: Vec::new(),
    }
}

/// The weight operand `bt: [m, k]` as the AVX2 kernel wants it: for every
/// pair of inner indices `(2p, 2p + 1)`, the [`PairTile`]s of all output
/// columns (`m` padded to a multiple of 8, `k` to a multiple of 2, both with
/// zeros). `madd_epi16` of one tile against a broadcast activation pair adds
/// both products into eight columns' `i32` sums — no widening and no
/// horizontal reduction left in the inner loop.
fn pack_pairs(data: &[i8], m: usize, k: usize) -> Vec<PairTile> {
    let tiles = m.div_ceil(8);
    let mut packed = vec![PairTile([0; 16]); k.div_ceil(2) * tiles];
    for (j, row) in data.chunks(k.max(1)).enumerate().take(m) {
        for (c, &w) in row.iter().enumerate() {
            packed[(c / 2) * tiles + j / 8].0[(j % 8) * 2 + c % 2] = w as i16;
        }
    }
    packed
}

/// Quantizes a weight matrix `w: [d_in, d_out]` per *output column*,
/// storing it transposed (`rows = d_out`, `cols = d_in`) so the matmul
/// reads both operands sequentially.
pub fn quantize_cols(w: &Tensor) -> QuantizedMatrix {
    assert_eq!(w.ndim(), 2, "quantize_cols wants [d_in, d_out]");
    let (d_in, d_out) = (w.dim(0), w.dim(1));
    let wd = w.data();
    let mut col = vec![0.0f32; d_in];
    let mut data = vec![0i8; d_in * d_out];
    let mut scales = Vec::with_capacity(d_out);
    let on = crate::simd::active();
    for (c, out) in data.chunks_mut(d_in.max(1)).enumerate().take(d_out) {
        for (r, slot) in col.iter_mut().enumerate() {
            *slot = wd[r * d_out + c];
        }
        scales.push(quantize_row_into(on, &col, row_absmax(&col), out));
    }
    // Only the AVX2 kernel reads the packed form.
    let packed = if cfg!(all(feature = "simd", target_arch = "x86_64")) {
        pack_pairs(&data, d_out, d_in)
    } else {
        Vec::new()
    };
    QuantizedMatrix {
        packed,
        data,
        scales,
        rows: d_out,
        cols: d_in,
    }
}

impl QuantizedMatrix {
    /// One quantized row.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Maps back to `f32` (lossy inverse of quantization; exact zeros for
    /// `scale = 0` rows).
    pub fn dequantize(&self) -> Tensor {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            let s = self.scales[r];
            for &q in self.row(r) {
                out.push(q as f32 * s);
            }
        }
        Tensor::from_vec(out, &[self.rows, self.cols])
    }
}

/// Integer dot product of two quantized rows; `on` routes to the AVX2
/// lane exactly like the `simd` kernels (callers capture
/// [`crate::simd::active()`] once). Both lanes are bit-identical — the
/// accumulation is exact `i32` arithmetic either way.
#[inline]
pub fn dot_i8(on: bool, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::dot_i8(a, b) };
    }
    let _ = on;
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// Quantized matmul: activations `a` (`[n, k]`, per-row scales) times a
/// per-column-quantized weight `bt` (stored transposed, `[m, k]`),
/// yielding `f32` `[n, m]` with one scale multiply per output element.
pub fn matmul_q8(on: bool, a: &QuantizedMatrix, bt: &QuantizedMatrix) -> Tensor {
    assert_eq!(
        a.cols, bt.cols,
        "quantized matmul inner dims: a is [n,{}], w^t is [m,{}]",
        a.cols, bt.cols
    );
    let (n, m) = (a.rows, bt.rows);
    let mut out = vec![0.0f32; n * m];
    // Partitioned over activation rows like the f32 GEMM; every output
    // element is one exact i32 dot regardless of the partition, so the
    // result is bit-identical for any thread count.
    let threads = crate::grain::threads_for_units(
        crate::grain::Work::Madds(n.saturating_mul(a.cols).saturating_mul(m)),
        n,
        1,
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let repacked;
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let packed: &[PairTile] = if on && bt.packed.is_empty() {
        repacked = pack_pairs(&bt.data, m, bt.cols);
        &repacked
    } else {
        &bt.packed
    };
    crate::par::for_chunks(&mut out, m.max(1), threads, |i0, chunk| {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if on {
            return unsafe { avx::matmul_rows(a, i0, bt, packed, chunk) };
        }
        for (i, orow) in chunk
            .chunks_mut(m.max(1))
            .enumerate()
            .map(|(k, c)| (i0 + k, c))
        {
            let (ar, asc) = (a.row(i), a.scales[i]);
            for (j, slot) in orow.iter_mut().enumerate() {
                let acc = dot_i8(on, ar, bt.row(j));
                *slot = acc as f32 * (asc * bt.scales[j]);
            }
        }
    });
    ntr_obs::quant::record_matmul(n as u64);
    Tensor::from_vec(out, &[n, m])
}

/// Quantize-then-matmul convenience for one activation tensor against a
/// pre-quantized weight: `x: [n, k]` × `wq` (from [`quantize_cols`]).
pub fn matmul_quantized(on: bool, x: &Tensor, wq: &QuantizedMatrix) -> Tensor {
    let xq = quantize_rows(x);
    ntr_obs::quant::record_rows(xq.rows as u64);
    matmul_q8(on, &xq, wq)
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    //! AVX2 lane: `i8` widened to `i16` (16 at a time in `dot_i8`, once
    //! per weight in `pack_pairs` for the matmul) and multiply-added
    //! pairwise into `i32` lanes (`_mm256_madd_epi16`). Products are
    //! `≤ 127² = 16129`, so the pairwise `i16×i16+i16×i16 → i32` step
    //! cannot overflow; the `i32` lane accumulator is exact for any
    //! realistic `k` (overflow needs `k > 2²⁶`).

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        use core::arch::x86_64::*;
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
            let wa = _mm256_cvtepi8_epi16(va);
            let wb = _mm256_cvtepi8_epi16(vb);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
            i += 16;
        }
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256(acc, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        let mut sum = _mm_cvtsi128_si32(s);
        while i < n {
            sum += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
            i += 1;
        }
        sum
    }

    /// Quantizes one row: `out[i] = clamp(rte(row[i]·inv), ±127)` with
    /// `NaN → 0`, bit-identical to the scalar loop in
    /// `quantize_row_into`: `mulps` rounds like the scalar multiply,
    /// `cvtps` rounds to nearest-even exactly like `round_ties_even`,
    /// and clamping *before* the convert agrees with rounding before the
    /// clamp because the ±127 bounds are exactly representable.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_row(row: &[f32], inv: f32, out: &mut [i8]) {
        use core::arch::x86_64::*;
        let n = row.len();
        let vinv = _mm256_set1_ps(inv);
        let lo = _mm256_set1_ps(-super::QMAX);
        let hi = _mm256_set1_ps(super::QMAX);
        let quantize8 = |i: usize| {
            let t = _mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(i)), vinv);
            // NaN → 0 via the ordered-compare mask (±Inf is ordered and
            // passes through), then the clamp saturates ±Inf to ±127.
            let t = _mm256_and_ps(t, _mm256_cmp_ps(t, t, _CMP_ORD_Q));
            _mm256_cvtps_epi32(_mm256_max_ps(_mm256_min_ps(t, hi), lo))
        };
        let mut i = 0;
        // 32 at a time: the two packs interleave their operands per 128-bit
        // half (values are already inside ±127, so they never saturate),
        // and one cross-lane permute puts the bytes back in order.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        while i + 32 <= n {
            let lo16 = _mm256_packs_epi32(quantize8(i), quantize8(i + 8));
            let hi16 = _mm256_packs_epi32(quantize8(i + 16), quantize8(i + 24));
            let bytes = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(lo16, hi16), order);
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, bytes);
            i += 32;
        }
        let mut buf = [0i32; 8];
        while i + 8 <= n {
            _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, quantize8(i));
            for (slot, &q) in out.get_unchecked_mut(i..i + 8).iter_mut().zip(&buf) {
                *slot = q as i8;
            }
            i += 8;
        }
        while i < n {
            let v = *row.get_unchecked(i);
            *out.get_unchecked_mut(i) =
                (v * inv).round_ties_even().clamp(-super::QMAX, super::QMAX) as i8;
            i += 1;
        }
    }

    /// Rows `i0..` of the quantized matmul into `out` (`[rows, m]`):
    /// `out[i][j] = (a[i] · bt[j]) · a.scale[i]·bt.scale[j]`, with `bt` read
    /// through `packed` ([`super::pack_pairs`]). All-integer accumulation,
    /// so still bit-identical to [`super::dot_i8`]'s scalar lane.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_rows(
        a: &super::QuantizedMatrix,
        i0: usize,
        bt: &super::QuantizedMatrix,
        packed: &[super::PairTile],
        out: &mut [f32],
    ) {
        let (k, m) = (a.cols, bt.rows);
        if m == 0 {
            return;
        }
        let n_tiles = m.div_ceil(8);
        assert_eq!(packed.len(), k.div_ceil(2) * n_tiles, "packed weights");
        let mut pairs = vec![0i32; k.div_ceil(2)];
        for (r, orow) in out.chunks_mut(m).enumerate() {
            // The row as (even, odd) `i16` pairs, one per broadcast; an odd
            // last element pairs with zero.
            let pair = |even: i8, odd: i8| (even as u16 as u32 | (odd as i16 as u32) << 16) as i32;
            let ar = a.row(i0 + r);
            for (slot, c) in pairs.iter_mut().zip(ar.chunks_exact(2)) {
                *slot = pair(c[0], c[1]);
            }
            if k % 2 == 1 {
                pairs[k / 2] = pair(ar[k - 1], 0);
            }
            let asc = a.scales[i0 + r];
            let mut t = 0;
            while t < n_tiles {
                let (w, sc, dst) = (
                    packed.as_ptr().add(t),
                    &bt.scales[8 * t..],
                    &mut orow[8 * t..],
                );
                t += match n_tiles - t {
                    8.. => tiles::<8>(&pairs, w, n_tiles, asc, sc, dst),
                    4.. => tiles::<4>(&pairs, w, n_tiles, asc, sc, dst),
                    2.. => tiles::<2>(&pairs, w, n_tiles, asc, sc, dst),
                    _ => tiles::<1>(&pairs, w, n_tiles, asc, sc, dst),
                };
            }
        }
    }

    /// `T` tiles of eight output columns for one activation row — the first
    /// `8·T` of `dst` and `scales`, or all of them when the last tile is
    /// ragged; returns `T`. Every pair broadcasts once and multiply-adds
    /// into all `T` accumulators, which stay in registers for the whole
    /// inner dimension. `packed` points at the first tile of the first
    /// pair, `stride` tiles separate one pair from the next. The epilogue
    /// is the scalar lane's `dot as f32 · (scale_a · scale_b)`, same two
    /// roundings in its order.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::needless_range_loop)]
    unsafe fn tiles<const T: usize>(
        pairs: &[i32],
        packed: *const super::PairTile,
        stride: usize,
        asc: f32,
        scales: &[f32],
        dst: &mut [f32],
    ) -> usize {
        use core::arch::x86_64::*;
        let mut acc = [_mm256_setzero_si256(); T];
        for (p, &pair) in pairs.iter().enumerate() {
            let av = _mm256_set1_epi32(pair);
            let w = packed.add(p * stride) as *const __m256i;
            for t in 0..T {
                acc[t] =
                    _mm256_add_epi32(acc[t], _mm256_madd_epi16(av, _mm256_load_si256(w.add(t))));
            }
        }
        let asc = _mm256_set1_ps(asc);
        let finish = |scales: *const f32, dst: *mut f32| {
            for t in 0..T {
                let scale = _mm256_mul_ps(asc, _mm256_loadu_ps(scales.add(8 * t)));
                _mm256_storeu_ps(
                    dst.add(8 * t),
                    _mm256_mul_ps(_mm256_cvtepi32_ps(acc[t]), scale),
                );
            }
        };
        if dst.len() >= 8 * T {
            finish(scales.as_ptr(), dst.as_mut_ptr());
        } else {
            // A ragged last tile goes through padded scratch, so it is
            // eight lanes wide like the others.
            let (mut sc, mut res) = ([[0.0f32; 8]; T], [[0.0f32; 8]; T]);
            sc.as_flattened_mut()[..dst.len()].copy_from_slice(&scales[..dst.len()]);
            finish(sc.as_ptr().cast(), res.as_mut_ptr().cast());
            dst.copy_from_slice(&res.as_flattened()[..dst.len()]);
        }
        T
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn all_zero_row_gets_scale_zero_and_round_trips_to_zero() {
        let x = t(&[0.0, 0.0, 0.0, 1.0, -2.0, 3.0], &[2, 3]);
        let q = quantize_rows(&x);
        assert_eq!(q.scales[0], 0.0);
        assert_eq!(&q.data[..3], &[0, 0, 0]);
        let back = q.dequantize();
        assert_eq!(&back.data()[..3], &[0.0, 0.0, 0.0]);
        // The non-zero row keeps its extremes exactly.
        assert_eq!(back.at(&[1, 2]), 3.0);
    }

    #[test]
    fn non_finite_inputs_saturate_without_poisoning_the_scale() {
        let x = t(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 4.0], &[1, 4]);
        let q = quantize_rows(&x);
        // Scale comes from the finite 4.0 alone.
        assert_eq!(q.scales[0], 4.0 / QMAX);
        assert_eq!(q.data, vec![0, 127, -127, 127]);
    }

    #[test]
    fn row_with_no_finite_elements_is_all_zero() {
        let x = t(&[f32::NAN, f32::INFINITY], &[1, 2]);
        let q = quantize_rows(&x);
        assert_eq!(q.scales[0], 0.0);
        assert_eq!(q.data, vec![0, 0]);
    }

    #[test]
    fn clamp_is_symmetric_minus_128_never_appears() {
        // -1.0 is the row max by magnitude, so it maps to exactly -127.
        let x = t(&[-1.0, 0.999, 1.0], &[1, 3]);
        let q = quantize_rows(&x);
        assert!(q.data.iter().all(|&v| v >= -127));
        assert_eq!(q.data[0], -127);
        assert_eq!(q.data[2], 127);
    }

    #[test]
    fn quantized_matmul_tracks_f32_within_tolerance() {
        let x = Tensor::from_fn(&[5, 16], |i| ((i * 37 % 23) as f32 - 11.0) / 7.0);
        let w = Tensor::from_fn(&[16, 8], |i| ((i * 17 % 19) as f32 - 9.0) / 5.0);
        let exact = x.matmul(&w);
        let approx = matmul_quantized(simd::active(), &x, &quantize_cols(&w));
        for (e, a) in exact.data().iter().zip(approx.data()) {
            // Per-element error bound: k * (sa/2) * (sb/2) + cross terms —
            // generous 2% of the max magnitude here.
            assert!(
                (e - a).abs() <= 0.02 * 16.0,
                "quantized {a} too far from exact {e}"
            );
        }
    }

    use crate::simd;

    #[test]
    fn simd_and_scalar_lanes_are_bit_identical() {
        let x = Tensor::from_fn(&[7, 33], |i| ((i * 13 % 31) as f32 - 15.0) / 3.0);
        let w = Tensor::from_fn(&[33, 9], |i| ((i * 29 % 17) as f32 - 8.0) / 4.0);
        let wq = quantize_cols(&w);
        let fast = matmul_quantized(simd::active(), &x, &wq);
        let slow = simd::force_scalar(|| matmul_quantized(simd::active(), &x, &wq));
        assert_eq!(
            fast.data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>(),
            slow.data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>(),
            "int8 matmul must be integer-exact across lanes"
        );
    }

    #[test]
    fn quantize_lanes_are_bit_identical() {
        // 103 elements exercises both the 8-wide body and the tail; the
        // planted max of 127.0 makes `inv = 1.0`, so the 2.5/3.5/-2.5
        // entries hit exact ties (nearest-even: 2, 4, -2) in both lanes.
        let mut vals: Vec<f32> = (0..103)
            .map(|i| ((i * 29 % 41) as f32 - 20.0) / 3.0)
            .collect();
        vals[3] = f32::NAN;
        vals[17] = f32::INFINITY;
        vals[31] = f32::NEG_INFINITY;
        vals[40] = 127.0;
        vals[41] = 2.5;
        vals[42] = 3.5;
        vals[43] = -2.5;
        let x = Tensor::from_vec(vals, &[1, 103]);
        let fast = quantize_rows(&x);
        let slow = simd::force_scalar(|| quantize_rows(&x));
        assert_eq!(fast, slow, "quantization must be lane-exact");
        assert_eq!(fast.data[41], 2, "ties must round to even");
        assert_eq!(fast.data[42], 4, "ties must round to even");
        assert_eq!(fast.data[43], -2, "ties must round to even");
    }

    #[test]
    fn dot_i8_handles_every_tail_length() {
        for n in 0..40usize {
            let a: Vec<i8> = (0..n).map(|i| (i as i32 % 255 - 127) as i8).collect();
            let b: Vec<i8> = (0..n).map(|i| ((i * 7) as i32 % 255 - 127) as i8).collect();
            let reference: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
            assert_eq!(dot_i8(simd::active(), &a, &b), reference, "n={n}");
            assert_eq!(dot_i8(false, &a, &b), reference, "n={n} scalar");
        }
    }

    #[test]
    fn extreme_magnitude_dot_does_not_overflow() {
        // 4096 × (-127 × 127) = -66 064 384, far inside i32.
        let a = vec![127i8; 4096];
        let b = vec![-127i8; 4096];
        assert_eq!(dot_i8(simd::active(), &a, &b), 4096 * -127 * 127);
    }
}
