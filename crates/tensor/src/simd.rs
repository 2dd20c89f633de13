//! Explicit SIMD micro-kernels (`core::arch`) behind the `simd` feature.
//!
//! Compiled out entirely unless the crate is built with
//! `--features simd`. At runtime the accelerated paths additionally
//! require CPU support (AVX2 + FMA on x86_64, checked once; NEON on
//! aarch64 is baseline) and can be vetoed by `NTR_SIMD=0` or, per thread,
//! by [`force_scalar`]. Every public helper here takes an explicit `on:
//! bool` — callers capture [`active`] **once per kernel invocation** and
//! pass it down, so the thread-local veto taken on the dispatching thread
//! propagates correctly into pool-worker chunk closures.
//!
//! ## Determinism policy
//!
//! Helpers fall into two classes, and every scalar fallback replicates the
//! exact operation order of the pre-SIMD code so that default builds and
//! `NTR_SIMD=0` runs stay bit-identical to the PR-1 kernels:
//!
//! * **Bit-identical** — element-wise maps with one independent output per
//!   input lane (`add_assign`, `mul_assign`, `axpy`, `shift_scale`,
//!   `affine`, `div_assign_scalar`, `sub_assign_scalar`, row-`max`,
//!   [`gelu_fast`]): vector lanes perform the same single rounding as the
//!   scalar loop, so SIMD on/off produces the same bits. (`axpy`, `affine`
//!   and `gelu_fast` deliberately use separate multiply + add, not FMA, to
//!   preserve this.) [`transpose`] only moves floats.
//! * **Tolerance-bounded** — reductions and the GEMM micro-kernel (`sum`,
//!   `sum_sq`, `sq_dev_sum`, `sum_and_dot`, `dot`, [`gemm_block`]): lane
//!   accumulators reassociate the sum, and the GEMM uses FMA (one rounding
//!   where the scalar path has two). Results differ from scalar in the
//!   last ulps; the `simd_equivalence` proptest suite bounds the error.
//!   The transcendental row kernels ([`exp_sub_assign`], [`exp_sub_sum`],
//!   [`gelu`], [`gelu_grad_mul`]) are in this class too: their scalar arm
//!   calls libm, their vector arm one polynomial `exp` (see "The vector
//!   `exp`" below).
//!   Within one build+flag configuration they remain bit-identical across
//!   thread counts, because each output element's operation sequence
//!   depends only on shapes, never on the partition.
//!
//! Golden tests that pin scalar fingerprints wrap themselves in
//! [`force_scalar`]; that is the documented determinism boundary.
//!
//! ## The vector `exp`
//!
//! One AVX2/FMA `exp` (x86_64 only; aarch64 keeps the scalar arm, as
//! [`gemm_block`] does) serves softmax, log-softmax, the cross-entropy
//! gradient and GELU. Cephes-style: `n = round(x·log₂e)`, `r = x − n·ln 2`
//! with `ln 2` split in two constants, a degree-5 polynomial in `r`, and
//! `2ⁿ` built in the exponent bits. Measured against the `f64` `exp`
//! rounded to `f32`: at most 1 ulp over `[−87.3, 88.7]` (`simd_equivalence`
//! holds ≤ 2); GELU and its gradient stay within `1e-6·max(1, |x|)` of the
//! `f64` reference over `[−10, 10]`. The contract at the ends: `x < −87.3`
//! and `−inf` give exactly `0` (no subnormal results, so a masked softmax
//! entry is exactly `0`), `x > 88.7` and `+inf` give `+inf`, and **NaN
//! gives NaN** — a poisoned logit must still poison the loss, or the
//! training supervisor's anomaly detection goes blind.
//!
//! An element's result never depends on where it sits in a slice: the tail
//! of a row or chunk runs the *same* vector code on a zero-padded 8-lane
//! load, never a second scalar polynomial, and [`exp_sub_assign`] /
//! [`exp_sub_sum`] add their lanes in an order fixed by the slice length.
//! That is what keeps "bit-identical for any thread count" and "batched ==
//! sequential" true on the vector lane, where chunk boundaries move with
//! the partition.

#![allow(clippy::missing_safety_doc)]

use crate::View;
use std::cell::Cell;

thread_local! {
    /// Thread-local scalar veto depth (tests, golden fingerprints).
    static FORCE_SCALAR: Cell<u32> = const { Cell::new(0) };
}

/// True when the crate was built with the `simd` feature.
#[inline]
pub fn compiled() -> bool {
    cfg!(feature = "simd")
}

/// Whether the accelerated paths may run on this thread right now:
/// compiled in, CPU-supported, not vetoed by `NTR_SIMD=0`/`off`, and not
/// inside a [`force_scalar`] scope. Capture once per kernel call and pass
/// the result into chunk closures.
#[inline]
pub fn active() -> bool {
    supported() && env_enabled() && FORCE_SCALAR.with(|c| c.get()) == 0
}

/// True when the current thread is inside a [`force_scalar`] scope.
/// Dispatchers capture this so pool workers inherit the veto.
#[inline]
pub(crate) fn vetoed() -> bool {
    FORCE_SCALAR.with(|c| c.get()) > 0
}

/// Runs `f` with [`active`] forced to `false` on the current thread
/// (restored on exit, including unwind; nests). Used by tests comparing
/// SIMD against scalar in one process and by golden tests pinning scalar
/// fingerprints.
pub fn force_scalar<R>(f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SCALAR.with(|c| c.set(c.get() - 1));
        }
    }
    FORCE_SCALAR.with(|c| c.set(c.get() + 1));
    let _restore = Restore;
    f()
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn supported() -> bool {
    static SUPPORTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SUPPORTED.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
#[inline]
fn supported() -> bool {
    true // NEON is baseline for aarch64.
}

#[cfg(not(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64"))))]
#[inline]
fn supported() -> bool {
    false
}

#[inline]
fn env_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("NTR_SIMD").as_deref().map(str::trim),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

// ---------------------------------------------------------------------
// Bit-identical element-wise kernels
// ---------------------------------------------------------------------

/// `a[i] += b[i]`.
#[inline]
pub fn add_assign(on: bool, a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::add_assign(a, b) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if on {
        return unsafe { neon::add_assign(a, b) };
    }
    let _ = on;
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// `a[i] *= b[i]`.
#[inline]
pub fn mul_assign(on: bool, a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::mul_assign(a, b) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if on {
        return unsafe { neon::mul_assign(a, b) };
    }
    let _ = on;
    for (x, &y) in a.iter_mut().zip(b) {
        *x *= y;
    }
}

/// `a[i] += s·b[i]` (separate multiply + add — bit-identical to scalar).
#[inline]
pub fn axpy(on: bool, a: &mut [f32], s: f32, b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::axpy(a, s, b) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if on {
        return unsafe { neon::axpy(a, s, b) };
    }
    let _ = on;
    for (x, &y) in a.iter_mut().zip(b) {
        *x += s * y;
    }
}

/// `dst[i] = (src[i] - sub) · scale` — the layernorm normalize pass.
#[inline]
pub fn shift_scale(on: bool, dst: &mut [f32], src: &[f32], sub: f32, scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::shift_scale(dst, src, sub, scale) };
    }
    let _ = on;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (v - sub) * scale;
    }
}

/// `out[i] = g[i]·x[i] + b[i]` — the layernorm affine pass (separate
/// multiply + add — bit-identical to scalar).
#[inline]
pub fn affine(on: bool, out: &mut [f32], x: &[f32], g: &[f32], b: &[f32]) {
    debug_assert!(out.len() == x.len() && x.len() == g.len() && g.len() == b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::affine(out, x, g, b) };
    }
    let _ = on;
    for i in 0..out.len() {
        out[i] = g[i] * x[i] + b[i];
    }
}

/// `dst[i] = a[i]·b[i]`.
#[inline]
pub fn mul_into(on: bool, dst: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert!(dst.len() == a.len() && a.len() == b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::mul_into(dst, a, b) };
    }
    let _ = on;
    for i in 0..dst.len() {
        dst[i] = a[i] * b[i];
    }
}

/// `x[i] /= d` — the softmax normalize pass.
#[inline]
pub fn div_assign_scalar(on: bool, xs: &mut [f32], d: f32) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::div_assign_scalar(xs, d) };
    }
    let _ = on;
    for x in xs.iter_mut() {
        *x /= d;
    }
}

/// `x[i] -= s` — the log-softmax shift pass.
#[inline]
pub fn sub_assign_scalar(on: bool, xs: &mut [f32], s: f32) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::sub_assign_scalar(xs, s) };
    }
    let _ = on;
    for x in xs.iter_mut() {
        *x -= s;
    }
}

/// `dst[i] = s·(dyh[i] - m1 - xh[i]·m2)` — the layernorm input-gradient
/// row (same op order as the scalar loop).
#[inline]
pub fn ln_dx_row(on: bool, dst: &mut [f32], dyh: &[f32], xh: &[f32], s: f32, m1: f32, m2: f32) {
    debug_assert!(dst.len() == dyh.len() && dyh.len() == xh.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::ln_dx_row(dst, dyh, xh, s, m1, m2) };
    }
    let _ = on;
    for i in 0..dst.len() {
        dst[i] = s * (dyh[i] - m1 - xh[i] * m2);
    }
}

/// Row maximum with `f32::max` NaN-skipping semantics: a NaN input never
/// becomes the result. Returns `-inf` for an empty or all-NaN slice.
/// Bit-identical to the scalar fold.
#[inline]
pub fn max(on: bool, xs: &[f32]) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::max(xs) };
    }
    let _ = on;
    xs.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

// ---------------------------------------------------------------------
// Tolerance-bounded reductions
// ---------------------------------------------------------------------

/// Sequential-order sum (scalar) / 4-lane-vector reassociated sum (SIMD).
#[inline]
pub fn sum(on: bool, xs: &[f32]) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::sum(xs) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if on {
        return unsafe { neon::sum(xs) };
    }
    let _ = on;
    xs.iter().sum()
}

/// `Σ x[i]²` (scalar fallback is the sequential `map(x·x).sum()` order).
#[inline]
pub fn sum_sq(on: bool, xs: &[f32]) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::sum_sq(xs) };
    }
    let _ = on;
    xs.iter().map(|&x| x * x).sum()
}

/// `Σ (x[i] - mean)²` — the layernorm variance numerator.
#[inline]
pub fn sq_dev_sum(on: bool, xs: &[f32], mean: f32) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::sq_dev_sum(xs, mean) };
    }
    let _ = on;
    xs.iter().map(|&v| (v - mean) * (v - mean)).sum()
}

/// `(Σ a[i], Σ a[i]·b[i])` in one pass — the layernorm backward row
/// moments (scalar fallback replicates the original fused loop exactly).
#[inline]
pub fn sum_and_dot(on: bool, a: &[f32], b: &[f32]) -> (f32, f32) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::sum_and_dot(a, b) };
    }
    let _ = on;
    let (mut s, mut d) = (0.0f32, 0.0f32);
    for i in 0..a.len() {
        s += a[i];
        d += a[i] * b[i];
    }
    (s, d)
}

/// Dot product. The scalar fallback is the crate's original manually
/// 4-way-unrolled loop; the SIMD path uses 8-lane FMA.
#[inline]
pub fn dot(on: bool, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::dot(a, b) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if on {
        return unsafe { neon::dot(a, b) };
    }
    let _ = on;
    scalar_dot(a, b)
}

/// The original 4-accumulator unrolled dot: reliable autovectorization
/// without `unsafe`, and the pinned scalar reference order.
pub(crate) fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

// ---------------------------------------------------------------------
// Transcendental row kernels (tolerance-bounded; `gelu_fast` bit-identical)
// ---------------------------------------------------------------------

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;
/// `gelu_fast` clamps its `tanh` argument to where the Padé form is accurate.
const GELU_FAST_CLAMP: f32 = 4.97;

/// GELU (tanh approximation, as used by BERT):
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`. The scalar arm of [`gelu`].
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).tanh())
}

/// Derivative of [`gelu_scalar`]. The scalar arm of [`gelu_grad_mul`].
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = u.tanh();
    let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// Fast GELU for the int8 inference path: `tanh` is replaced by its
/// `[7/6]` Padé approximant, clamped to the range where it is accurate
/// (absolute error < 5e-5, far below the ~0.4% noise the int8 quantization
/// itself introduces). Every operation is a separately rounded
/// multiply, add, divide, min or max, so the vector arm of [`gelu_fast`]
/// repeats it bit for bit. Training and f32 inference keep the exact
/// [`gelu_scalar`] / [`gelu`].
#[inline]
pub fn gelu_fast_scalar(x: f32) -> f32 {
    let u = (SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).clamp(-GELU_FAST_CLAMP, GELU_FAST_CLAMP);
    let s = u * u;
    let p = u * (135135.0 + s * (17325.0 + s * (378.0 + s)));
    let q = 135135.0 + s * (62370.0 + s * (3150.0 + s * 28.0));
    let t = (p / q).clamp(-1.0, 1.0);
    0.5 * x * (1.0 + t)
}

/// `x[i] = e^(x[i] − sub)` in place, returning `Σ x[i]` of the results —
/// the softmax numerator pass (`sub` is the row maximum) and, with
/// `sub = 0`, a plain row `exp`.
#[inline]
pub fn exp_sub_assign(on: bool, xs: &mut [f32], sub: f32) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::exp_sub_assign(xs, sub) };
    }
    let _ = on;
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - sub).exp();
        sum += *x;
    }
    sum
}

/// `Σ e^(x[i] − sub)` without writing — the log-sum-exp of log-softmax.
#[inline]
pub fn exp_sub_sum(on: bool, xs: &[f32], sub: f32) -> f32 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::exp_sub_sum(xs, sub) };
    }
    let _ = on;
    xs.iter().map(|&x| (x - sub).exp()).sum()
}

/// `dst[i] = gelu(src[i])` ([`gelu_scalar`]; `tanh` through the vector
/// `exp` when `on`).
#[inline]
pub fn gelu(on: bool, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::gelu::<false>(dst, src) };
    }
    let _ = on;
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = gelu_scalar(x);
    }
}

/// `dst[i] = gelu_fast(src[i])` ([`gelu_fast_scalar`]); bit-identical on
/// both arms.
#[inline]
pub fn gelu_fast(on: bool, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::gelu::<true>(dst, src) };
    }
    let _ = on;
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = gelu_fast_scalar(x);
    }
}

/// `x[i] = gelu'(x[i]) · dy[i]` in place — the GELU backward pass over the
/// cached input ([`gelu_grad_scalar`]).
#[inline]
pub fn gelu_grad_mul(on: bool, x: &mut [f32], dy: &[f32]) {
    debug_assert_eq!(x.len(), dy.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        return unsafe { avx::gelu_grad_mul(x, dy) };
    }
    let _ = on;
    for (v, &g) in x.iter_mut().zip(dy) {
        *v = gelu_grad_scalar(*v) * g;
    }
}

// ---------------------------------------------------------------------
// GEMM micro-kernel
// ---------------------------------------------------------------------

/// Whether [`gemm_block`] has an accelerated implementation for this
/// build/arch (the aarch64 port covers element-wise kernels only).
#[inline]
pub fn has_gemm() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

/// FMA-accelerated GEMM core: `out: [rows, n] += a: [rows, k] · b: [k, n]`,
/// `a` read through its strides and `b` with unit column stride (or one
/// column), k blocked into `KC` panels, `MR = 4` rows per pass, 16/8-wide
/// column tiles with an `f32::mul_add` column tail. Every output element is
/// accumulated k-sequentially with fused multiply-adds, so results are
/// invariant to row partitioning, tile placement and operand strides
/// (bit-identical for any thread count) while differing from the unfused
/// scalar path in the last ulps.
///
/// Caller must have verified [`active`]`()` (which implies CPU support).
pub fn gemm_block(out: &mut [f32], a: View, b: View) {
    let (k, n) = (b.rows, b.cols);
    assert!(a.cols == k && out.len() == a.rows * n && (b.cs == 1 || n == 1));
    assert!(
        a.in_bounds() && b.in_bounds(),
        "gemm_block: a view outside its data"
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        // SAFETY: the kernel touches `out[i·n + j]`, `A (i, p)` and `B (p, j)`
        // for `i < rows`, `p < k`, `j < n` alone, which the asserts above put
        // inside `out` and the two views' data; `active()` checked the CPU.
        unsafe { avx::gemm_block(out, a, b) }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (out, a, b);
        unreachable!("simd::gemm_block called without an accelerated implementation");
    }
}

/// `dst: [cols, rows] = srcᵀ` for `src: [rows, cols]` with row stride `ld`:
/// the one transpose behind [`crate::Tensor::transpose`] and every packed
/// matmul operand. It only moves floats, so both lanes give the same bits;
/// the vector lane moves 8×8 tiles through registers.
pub fn transpose(on: bool, dst: &mut [f32], src: &[f32], rows: usize, cols: usize, ld: usize) {
    assert_eq!(dst.len(), rows * cols, "transpose: destination size");
    if rows == 0 || cols == 0 {
        return;
    }
    let fits = cols <= ld && (rows - 1) * ld + cols <= src.len();
    assert!(fits, "transpose: source too short");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if on {
        // SAFETY: the kernel reads `src[r·ld + c]` and writes `dst[c·rows + r]`
        // for `r < rows`, `c < cols` alone, in bounds by the asserts above.
        return unsafe { avx::transpose(dst, src, rows, cols, ld) };
    }
    let _ = on;
    for (c, col) in dst.chunks_exact_mut(rows).enumerate() {
        for (r, x) in col.iter_mut().enumerate() {
            *x = src[r * ld + c];
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    //! AVX2/FMA implementations. All `unsafe fn`s here require AVX2 (+FMA
    //! for `dot`/`gemm_block`), guaranteed by `supported()` before any
    //! call; slices are read/written only in-bounds.

    use crate::View;
    use core::arch::x86_64::*;

    /// k-panel length, matching the scalar GEMM's cache blocking.
    const KC: usize = 256;

    #[inline]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps(d, d, 1));
        _mm_cvtss_f32(s)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign(a: &mut [f32], b: &[f32]) {
        let n = a.len();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let y = _mm256_loadu_ps(b.as_ptr().add(i));
            _mm256_storeu_ps(a.as_mut_ptr().add(i), _mm256_add_ps(x, y));
            i += 8;
        }
        while i < n {
            a[i] += b[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_assign(a: &mut [f32], b: &[f32]) {
        let n = a.len();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let y = _mm256_loadu_ps(b.as_ptr().add(i));
            _mm256_storeu_ps(a.as_mut_ptr().add(i), _mm256_mul_ps(x, y));
            i += 8;
        }
        while i < n {
            a[i] *= b[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(a: &mut [f32], s: f32, b: &[f32]) {
        let n = a.len();
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let y = _mm256_loadu_ps(b.as_ptr().add(i));
            // mul then add (not FMA): same two roundings as the scalar path.
            let r = _mm256_add_ps(x, _mm256_mul_ps(sv, y));
            _mm256_storeu_ps(a.as_mut_ptr().add(i), r);
            i += 8;
        }
        while i < n {
            a[i] += s * b[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn shift_scale(dst: &mut [f32], src: &[f32], sub: f32, scale: f32) {
        let n = dst.len();
        let sv = _mm256_set1_ps(sub);
        let cv = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(src.as_ptr().add(i));
            let r = _mm256_mul_ps(_mm256_sub_ps(x, sv), cv);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), r);
            i += 8;
        }
        while i < n {
            dst[i] = (src[i] - sub) * scale;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn affine(out: &mut [f32], x: &[f32], g: &[f32], b: &[f32]) {
        let n = out.len();
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let gv = _mm256_loadu_ps(g.as_ptr().add(i));
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            let r = _mm256_add_ps(_mm256_mul_ps(gv, xv), bv);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
            i += 8;
        }
        while i < n {
            out[i] = g[i] * x[i] + b[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_into(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let y = _mm256_loadu_ps(b.as_ptr().add(i));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_mul_ps(x, y));
            i += 8;
        }
        while i < n {
            dst[i] = a[i] * b[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn div_assign_scalar(xs: &mut [f32], d: f32) {
        let n = xs.len();
        let dv = _mm256_set1_ps(d);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(xs.as_mut_ptr().add(i), _mm256_div_ps(x, dv));
            i += 8;
        }
        while i < n {
            xs[i] /= d;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sub_assign_scalar(xs: &mut [f32], s: f32) {
        let n = xs.len();
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(xs.as_ptr().add(i));
            _mm256_storeu_ps(xs.as_mut_ptr().add(i), _mm256_sub_ps(x, sv));
            i += 8;
        }
        while i < n {
            xs[i] -= s;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn ln_dx_row(dst: &mut [f32], dyh: &[f32], xh: &[f32], s: f32, m1: f32, m2: f32) {
        let n = dst.len();
        let sv = _mm256_set1_ps(s);
        let m1v = _mm256_set1_ps(m1);
        let m2v = _mm256_set1_ps(m2);
        let mut i = 0;
        while i + 8 <= n {
            let dy = _mm256_loadu_ps(dyh.as_ptr().add(i));
            let xv = _mm256_loadu_ps(xh.as_ptr().add(i));
            // s·(dyh − m1 − xh·m2), multiplies unfused to mirror scalar.
            let inner = _mm256_sub_ps(_mm256_sub_ps(dy, m1v), _mm256_mul_ps(xv, m2v));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_mul_ps(sv, inner));
            i += 8;
        }
        while i < n {
            dst[i] = s * (dyh[i] - m1 - xh[i] * m2);
            i += 1;
        }
    }

    /// `f32::max`-fold semantics: a lane only replaces the accumulator on
    /// a strict ordered greater-than, so NaN never enters the result.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max(xs: &[f32]) -> f32 {
        let n = xs.len();
        let mut acc = f32::NEG_INFINITY;
        let mut i = 0;
        if n >= 8 {
            let mut accv = _mm256_set1_ps(f32::NEG_INFINITY);
            while i + 8 <= n {
                let x = _mm256_loadu_ps(xs.as_ptr().add(i));
                let gt = _mm256_cmp_ps(x, accv, _CMP_GT_OQ);
                accv = _mm256_blendv_ps(accv, x, gt);
                i += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), accv);
            for l in lanes {
                acc = acc.max(l);
            }
        }
        while i < n {
            acc = acc.max(xs[i]);
            i += 1;
        }
        acc
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sum(xs: &[f32]) -> f32 {
        let n = xs.len();
        let mut i = 0;
        let mut total = 0.0f32;
        if n >= 32 {
            let mut acc = [_mm256_setzero_ps(); 4];
            while i + 32 <= n {
                for (l, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_loadu_ps(xs.as_ptr().add(i + 8 * l)));
                }
                i += 32;
            }
            let v = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
            total = hsum(v);
        }
        while i < n {
            total += xs[i];
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sum_sq(xs: &[f32]) -> f32 {
        let n = xs.len();
        let mut i = 0;
        let mut total = 0.0f32;
        if n >= 8 {
            let mut acc = _mm256_setzero_ps();
            while i + 8 <= n {
                let x = _mm256_loadu_ps(xs.as_ptr().add(i));
                acc = _mm256_fmadd_ps(x, x, acc);
                i += 8;
            }
            total = hsum(acc);
        }
        while i < n {
            total += xs[i] * xs[i];
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sq_dev_sum(xs: &[f32], mean: f32) -> f32 {
        let n = xs.len();
        let mv = _mm256_set1_ps(mean);
        let mut i = 0;
        let mut total = 0.0f32;
        if n >= 8 {
            let mut acc = _mm256_setzero_ps();
            while i + 8 <= n {
                let d = _mm256_sub_ps(_mm256_loadu_ps(xs.as_ptr().add(i)), mv);
                acc = _mm256_fmadd_ps(d, d, acc);
                i += 8;
            }
            total = hsum(acc);
        }
        while i < n {
            let d = xs[i] - mean;
            total += d * d;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sum_and_dot(a: &[f32], b: &[f32]) -> (f32, f32) {
        let n = a.len();
        let mut i = 0;
        let (mut s, mut d) = (0.0f32, 0.0f32);
        if n >= 8 {
            let mut sv = _mm256_setzero_ps();
            let mut dv = _mm256_setzero_ps();
            while i + 8 <= n {
                let av = _mm256_loadu_ps(a.as_ptr().add(i));
                let bv = _mm256_loadu_ps(b.as_ptr().add(i));
                sv = _mm256_add_ps(sv, av);
                dv = _mm256_fmadd_ps(av, bv, dv);
                i += 8;
            }
            s = hsum(sv);
            d = hsum(dv);
        }
        while i < n {
            s += a[i];
            d += a[i] * b[i];
            i += 1;
        }
        (s, d)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut i = 0;
        let mut total = 0.0f32;
        if n >= 16 {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            while i + 16 <= n {
                let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
                let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
                let a1 = _mm256_loadu_ps(a.as_ptr().add(i + 8));
                let b1 = _mm256_loadu_ps(b.as_ptr().add(i + 8));
                acc0 = _mm256_fmadd_ps(a0, b0, acc0);
                acc1 = _mm256_fmadd_ps(a1, b1, acc1);
                i += 16;
            }
            total = hsum(_mm256_add_ps(acc0, acc1));
        }
        while i < n {
            total += a[i] * b[i];
            i += 1;
        }
        total
    }

    /// Inputs below this give exactly `0`: `e^-87.3` is the last result
    /// that is still a normal `f32`. [`exp_ps`] relies on both limits to
    /// keep `2ⁿ` inside the exponent field.
    const EXP_LO: f32 = -87.3;
    /// Inputs above this give `+inf` (`e^88.7` is within 3 % of `f32::MAX`).
    const EXP_HI: f32 = 88.7;
    /// `ln 2 = LN2_HI + LN2_LO`; `LN2_HI` has nine significant bits, so
    /// `n·LN2_HI` is exact for every `|n| ≤ 128`.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    /// Cephes `expf`: `(e^r − 1 − r) / r²` on `|r| ≤ ln 2 / 2`, highest
    /// degree first.
    #[allow(clippy::excessive_precision)]
    const EXP_POLY: [f32; 6] = [
        1.987_569_150_0e-4,
        1.398_199_950_7e-3,
        8.333_451_907_3e-3,
        4.166_579_589_4e-2,
        1.666_666_545_9e-1,
        5.000_000_120_1e-1,
    ];

    /// `e^x`, eight lanes (Cephes `expf`): `n = round(x·log₂e)`,
    /// `r = x − n·ln 2` with `ln 2` split in two constants so the first
    /// product is exact, a degree-5 polynomial for `(e^r − 1 − r) / r²`,
    /// and `2ⁿ` built in the exponent bits. See the module docs for the
    /// bound and the contract at the ends.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let lo = _mm256_set1_ps(EXP_LO);
        let hi = _mm256_set1_ps(EXP_HI);
        // min/max return their second operand when either is NaN: with the
        // constant first a NaN lane stays NaN through every step below.
        let xc = _mm256_min_ps(hi, _mm256_max_ps(lo, x));
        let n = _mm256_round_ps(
            _mm256_mul_ps(xc, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), xc);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for c in &EXP_POLY[1..] {
            p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(*c));
        }
        let y = _mm256_add_ps(
            _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r),
            _mm256_set1_ps(1.0),
        );
        // `y·2ⁿ` by adding `n` to `y`'s exponent field. `y` is in
        // [0.70, 1.42], `n` in [−126, 128], and the two limits are placed
        // so that the sum always fits: at `n = 128` (x above 88.38) `r` is
        // at most `EXP_HI − 128·ln 2 < 0`, so `y < 1` and the field is
        // 126 + 128; at `n = −126` `r` is at least `EXP_LO + 126·ln 2 > 0`,
        // so `y > 1` and the field is 127 − 126. A NaN lane converts to
        // `i32::MIN`, which shifts to zero and leaves the NaN alone.
        let n = _mm256_slli_epi32(_mm256_cvtps_epi32(n), 23);
        let y = _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), n));
        let y = _mm256_blendv_ps(
            y,
            _mm256_set1_ps(f32::INFINITY),
            _mm256_cmp_ps(x, hi, _CMP_GT_OQ),
        );
        _mm256_andnot_ps(_mm256_cmp_ps(x, lo, _CMP_LT_OQ), y)
    }

    /// `tanh(u)` as `1 − 2/(e^{2u} + 1)`: saturates to `±1` where `e^{2u}`
    /// overflows or underflows, NaN stays NaN.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tanh_ps(u: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let e = exp_ps(_mm256_add_ps(u, u));
        _mm256_sub_ps(
            one,
            _mm256_div_ps(_mm256_set1_ps(2.0), _mm256_add_ps(e, one)),
        )
    }

    /// `√(2/π)·(x + 0.044715·x³)`, in [`super::gelu_scalar`]'s operation
    /// order with every product and sum rounded separately.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gelu_arg_ps(x: __m256) -> __m256 {
        let c = _mm256_set1_ps(super::GELU_C);
        let x3c = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(c, x), x), x);
        _mm256_mul_ps(_mm256_set1_ps(super::SQRT_2_OVER_PI), _mm256_add_ps(x, x3c))
    }

    /// [`super::gelu_scalar`] with [`tanh_ps`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gelu_ps(x: __m256) -> __m256 {
        let t = tanh_ps(gelu_arg_ps(x));
        _mm256_mul_ps(
            _mm256_mul_ps(_mm256_set1_ps(0.5), x),
            _mm256_add_ps(_mm256_set1_ps(1.0), t),
        )
    }

    /// [`super::gelu_fast_scalar`], operation for operation: unfused
    /// multiplies and adds, a true divide, and clamps with the constant as
    /// first operand so that NaN propagates as `f32::clamp` does.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gelu_fast_ps(x: __m256) -> __m256 {
        let k = |v: f32| _mm256_set1_ps(v);
        let clamp = |v, b: f32| _mm256_min_ps(k(b), _mm256_max_ps(k(-b), v));
        let mad = |a, s, b| _mm256_add_ps(a, _mm256_mul_ps(s, b));
        let u = clamp(gelu_arg_ps(x), super::GELU_FAST_CLAMP);
        let s = _mm256_mul_ps(u, u);
        let p = _mm256_mul_ps(
            u,
            mad(
                k(135135.0),
                s,
                mad(k(17325.0), s, _mm256_add_ps(k(378.0), s)),
            ),
        );
        let q = mad(
            k(135135.0),
            s,
            mad(k(62370.0), s, mad(k(3150.0), s, k(28.0))),
        );
        let t = clamp(_mm256_div_ps(p, q), 1.0);
        _mm256_mul_ps(_mm256_mul_ps(k(0.5), x), _mm256_add_ps(k(1.0), t))
    }

    /// [`super::gelu_grad_scalar`] with [`tanh_ps`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gelu_grad_ps(x: __m256) -> __m256 {
        let k = |v: f32| _mm256_set1_ps(v);
        let t = tanh_ps(gelu_arg_ps(x));
        let xx = _mm256_mul_ps(x, x);
        let du = _mm256_mul_ps(
            k(super::SQRT_2_OVER_PI),
            _mm256_fmadd_ps(k(3.0 * super::GELU_C), xx, k(1.0)),
        );
        let half_x = _mm256_mul_ps(k(0.5), x);
        let sech2 = _mm256_fnmadd_ps(t, t, k(1.0));
        _mm256_fmadd_ps(
            _mm256_mul_ps(half_x, sech2),
            du,
            _mm256_mul_ps(k(0.5), _mm256_add_ps(k(1.0), t)),
        )
    }

    /// Lane mask selecting the first `rem < 8` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        const LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        debug_assert!(rem < 8);
        _mm256_loadu_si256(LANES.as_ptr().add(8 - rem).cast())
    }

    /// `e^(x − sub)` over `n` floats at `p`, written back when `STORE`;
    /// returns the sum of the results. One accumulator, then [`hsum`]: the
    /// order of the additions depends on `n` alone.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn exp_sub<const STORE: bool>(p: *mut f32, n: usize, sub: f32) -> f32 {
        let sv = _mm256_set1_ps(sub);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), sv));
            if STORE {
                _mm256_storeu_ps(p.add(i), e);
            }
            acc = _mm256_add_ps(acc, e);
            i += 8;
        }
        if i < n {
            // Masked-off lanes load as zero and are neither stored nor summed.
            let m = tail_mask(n - i);
            let e = exp_ps(_mm256_sub_ps(_mm256_maskload_ps(p.add(i), m), sv));
            if STORE {
                _mm256_maskstore_ps(p.add(i), m, e);
            }
            acc = _mm256_add_ps(acc, _mm256_and_ps(e, _mm256_castsi256_ps(m)));
        }
        hsum(acc)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp_sub_assign(xs: &mut [f32], sub: f32) -> f32 {
        exp_sub::<true>(xs.as_mut_ptr(), xs.len(), sub)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp_sub_sum(xs: &[f32], sub: f32) -> f32 {
        // Never written through: `STORE` is false.
        exp_sub::<false>(xs.as_ptr().cast_mut(), xs.len(), sub)
    }

    /// `dst = gelu(src)`, or `gelu_fast(src)` when `FAST`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gelu<const FAST: bool>(dst: &mut [f32], src: &[f32]) {
        let f = |x| if FAST { gelu_fast_ps(x) } else { gelu_ps(x) };
        let (n, d, s) = (dst.len(), dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(d.add(i), f(_mm256_loadu_ps(s.add(i))));
            i += 8;
        }
        if i < n {
            let m = tail_mask(n - i);
            _mm256_maskstore_ps(d.add(i), m, f(_mm256_maskload_ps(s.add(i), m)));
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gelu_grad_mul(x: &mut [f32], dy: &[f32]) {
        let (n, xp, dp) = (x.len(), x.as_mut_ptr(), dy.as_ptr());
        let mut i = 0;
        while i + 8 <= n {
            let g = gelu_grad_ps(_mm256_loadu_ps(xp.add(i)));
            _mm256_storeu_ps(xp.add(i), _mm256_mul_ps(g, _mm256_loadu_ps(dp.add(i))));
            i += 8;
        }
        if i < n {
            let m = tail_mask(n - i);
            let g = gelu_grad_ps(_mm256_maskload_ps(xp.add(i), m));
            let d = _mm256_maskload_ps(dp.add(i), m);
            _mm256_maskstore_ps(xp.add(i), m, _mm256_mul_ps(g, d));
        }
    }

    /// See [`super::gemm_block`], which checks the shapes.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_block(out: &mut [f32], a: View, b: View) {
        let (k, n) = (b.rows, b.cols);
        if n == 0 || k == 0 {
            return;
        }
        let rows = out.len() / n;
        let op = out.as_mut_ptr();
        for kb in (0..k).step_by(KC) {
            let kc = KC.min(k - kb);
            let mut i = 0;
            // 4-row register blocks.
            while i + 4 <= rows {
                gemm_rows::<4>(op, a, b, i, kb, kc);
                i += 4;
            }
            // Row tail: identical per-element FMA order, one row at a time.
            while i < rows {
                gemm_rows::<1>(op, a, b, i, kb, kc);
                i += 1;
            }
        }
    }

    /// One `R`-row pass over a k-panel: 16-wide, then 8-wide, then scalar
    /// `mul_add` column tiles. Each output element sees one fused
    /// multiply-add per k step, in k order, regardless of tile width.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::needless_range_loop)]
    unsafe fn gemm_rows<const R: usize>(
        op: *mut f32,
        a: View,
        b: View,
        i: usize,
        kb: usize,
        kc: usize,
    ) {
        let (ap, bp, brs, n) = (a.data.as_ptr(), b.data.as_ptr(), b.rs, b.cols);
        // `A (i, p)` at `i·rs + p·cs`, `B (p, j)` at `p·brs + j`.
        let a_at = |r: usize, off: usize| ap.add((i + r) * a.rs + (kb + off) * a.cs);
        let mut jb = 0;
        while jb + 16 <= n {
            let mut acc0 = [_mm256_setzero_ps(); R];
            let mut acc1 = [_mm256_setzero_ps(); R];
            for r in 0..R {
                acc0[r] = _mm256_loadu_ps(op.add((i + r) * n + jb));
                acc1[r] = _mm256_loadu_ps(op.add((i + r) * n + jb + 8));
            }
            for off in 0..kc {
                let brow = bp.add((kb + off) * brs + jb);
                let b0 = _mm256_loadu_ps(brow);
                let b1 = _mm256_loadu_ps(brow.add(8));
                for r in 0..R {
                    let av = _mm256_set1_ps(*a_at(r, off));
                    acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
                    acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
                }
            }
            for r in 0..R {
                _mm256_storeu_ps(op.add((i + r) * n + jb), acc0[r]);
                _mm256_storeu_ps(op.add((i + r) * n + jb + 8), acc1[r]);
            }
            jb += 16;
        }
        while jb + 8 <= n {
            let mut acc = [_mm256_setzero_ps(); R];
            for r in 0..R {
                acc[r] = _mm256_loadu_ps(op.add((i + r) * n + jb));
            }
            for off in 0..kc {
                let b0 = _mm256_loadu_ps(bp.add((kb + off) * brs + jb));
                for r in 0..R {
                    let av = _mm256_set1_ps(*a_at(r, off));
                    acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
                }
            }
            for r in 0..R {
                _mm256_storeu_ps(op.add((i + r) * n + jb), acc[r]);
            }
            jb += 8;
        }
        while jb < n {
            for r in 0..R {
                let mut acc = *op.add((i + r) * n + jb);
                for off in 0..kc {
                    let bv = *bp.add((kb + off) * brs + jb);
                    acc = (*a_at(r, off)).mul_add(bv, acc);
                }
                *op.add((i + r) * n + jb) = acc;
            }
            jb += 1;
        }
    }

    /// See [`super::transpose`], which checks the bounds: 8×8 tiles a
    /// column block at a time, so each output row is written sequentially,
    /// and a scalar copy of the edges.
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose(dst: &mut [f32], src: &[f32], rows: usize, cols: usize, ld: usize) {
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let (r8, c8) = (rows / 8 * 8, cols / 8 * 8);
        let copy = |r: usize, c: usize| *dp.add(c * rows + r) = *sp.add(r * ld + c);
        for c in (0..c8).step_by(8) {
            for r in (0..r8).step_by(8) {
                tile8(sp.add(r * ld + c), ld, dp.add(c * rows + r), rows);
            }
            for r in r8..rows {
                (c..c + 8).for_each(|c| copy(r, c));
            }
        }
        for c in c8..cols {
            (0..rows).for_each(|r| copy(r, c));
        }
    }

    /// Transposes the 8×8 tile at `s` (row stride `ld`) into `d` (row
    /// stride `ldd`): pairwise unpacks give `t[0] = a00 a10 a01 a11 | a04
    /// a14 a05 a15`, 4-lane shuffles `u[0] = a00 a10 a20 a30 | a04 a14 a24
    /// a34`, and 128-bit lane swaps the columns.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::needless_range_loop)]
    unsafe fn tile8(s: *const f32, ld: usize, d: *mut f32, ldd: usize) {
        let [mut r, mut t, mut u] = [[_mm256_setzero_ps(); 8]; 3];
        for i in 0..8 {
            r[i] = _mm256_loadu_ps(s.add(i * ld));
        }
        for i in (0..8).step_by(2) {
            t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
            t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
        }
        for i in (0..8).step_by(4) {
            u[i] = _mm256_shuffle_ps::<0x44>(t[i], t[i + 2]);
            u[i + 1] = _mm256_shuffle_ps::<0xEE>(t[i], t[i + 2]);
            u[i + 2] = _mm256_shuffle_ps::<0x44>(t[i + 1], t[i + 3]);
            u[i + 3] = _mm256_shuffle_ps::<0xEE>(t[i + 1], t[i + 3]);
        }
        for j in 0..4 {
            _mm256_storeu_ps(
                d.add(j * ldd),
                _mm256_permute2f128_ps::<0x20>(u[j], u[j + 4]),
            );
            _mm256_storeu_ps(
                d.add((j + 4) * ldd),
                _mm256_permute2f128_ps::<0x31>(u[j], u[j + 4]),
            );
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    //! NEON port of the element-wise basics (the GEMM micro-kernel falls
    //! back to scalar on aarch64 — see [`super::has_gemm`]).

    use core::arch::aarch64::*;

    pub unsafe fn add_assign(a: &mut [f32], b: &[f32]) {
        let n = a.len();
        let mut i = 0;
        while i + 4 <= n {
            let x = vld1q_f32(a.as_ptr().add(i));
            let y = vld1q_f32(b.as_ptr().add(i));
            vst1q_f32(a.as_mut_ptr().add(i), vaddq_f32(x, y));
            i += 4;
        }
        while i < n {
            a[i] += b[i];
            i += 1;
        }
    }

    pub unsafe fn mul_assign(a: &mut [f32], b: &[f32]) {
        let n = a.len();
        let mut i = 0;
        while i + 4 <= n {
            let x = vld1q_f32(a.as_ptr().add(i));
            let y = vld1q_f32(b.as_ptr().add(i));
            vst1q_f32(a.as_mut_ptr().add(i), vmulq_f32(x, y));
            i += 4;
        }
        while i < n {
            a[i] *= b[i];
            i += 1;
        }
    }

    pub unsafe fn axpy(a: &mut [f32], s: f32, b: &[f32]) {
        let n = a.len();
        let sv = vdupq_n_f32(s);
        let mut i = 0;
        while i + 4 <= n {
            let x = vld1q_f32(a.as_ptr().add(i));
            let y = vld1q_f32(b.as_ptr().add(i));
            // Unfused mul + add to stay bit-identical with scalar.
            vst1q_f32(a.as_mut_ptr().add(i), vaddq_f32(x, vmulq_f32(sv, y)));
            i += 4;
        }
        while i < n {
            a[i] += s * b[i];
            i += 1;
        }
    }

    pub unsafe fn sum(xs: &[f32]) -> f32 {
        let n = xs.len();
        let mut i = 0;
        let mut total = 0.0f32;
        if n >= 4 {
            let mut acc = vdupq_n_f32(0.0);
            while i + 4 <= n {
                acc = vaddq_f32(acc, vld1q_f32(xs.as_ptr().add(i)));
                i += 4;
            }
            total = vaddvq_f32(acc);
        }
        while i < n {
            total += xs[i];
            i += 1;
        }
        total
    }

    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut i = 0;
        let mut total = 0.0f32;
        if n >= 4 {
            let mut acc = vdupq_n_f32(0.0);
            while i + 4 <= n {
                acc = vfmaq_f32(
                    acc,
                    vld1q_f32(a.as_ptr().add(i)),
                    vld1q_f32(b.as_ptr().add(i)),
                );
                i += 4;
            }
            total = vaddvq_f32(acc);
        }
        while i < n {
            total += a[i] * b[i];
            i += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_nests_and_restores() {
        let outer = active();
        force_scalar(|| {
            assert!(!active());
            force_scalar(|| assert!(!active()));
            assert!(!active());
        });
        assert_eq!(active(), outer);
    }

    #[test]
    fn scalar_fallbacks_match_reference_loops() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.3 - 4.0).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        let mut x = a.clone();
        add_assign(false, &mut x, &b);
        for i in 0..a.len() {
            assert_eq!(x[i], a[i] + b[i]);
        }
        assert_eq!(sum(false, &a), a.iter().sum::<f32>());
        assert_eq!(dot(false, &a, &b), scalar_dot(&a, &b));
        assert_eq!(
            max(false, &a),
            a.iter().copied().fold(f32::NEG_INFINITY, f32::max)
        );
        assert_eq!(max(false, &[]), f32::NEG_INFINITY);
    }

    // The on/off equivalence of every kernel (including NaN/Inf payloads
    // and non-multiple-of-lane lengths) is covered by the
    // `simd_equivalence` proptest suite in `tests/`.
    #[test]
    fn simd_elementwise_bit_identical_when_available() {
        if !active() {
            return; // scalar build or vetoed — nothing to compare.
        }
        let a: Vec<f32> = (0..1031).map(|i| (i as f32).sin() * 3.0).collect();
        let b: Vec<f32> = (0..1031).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut fast = a.clone();
        let mut slow = a.clone();
        axpy(true, &mut fast, 0.37, &b);
        axpy(false, &mut slow, 0.37, &b);
        assert_eq!(fast, slow, "axpy must be bit-identical");
        assert_eq!(max(true, &a), max(false, &a));
        let (rs, rd) = sum_and_dot(true, &a, &b);
        let (ss, sd) = sum_and_dot(false, &a, &b);
        assert!((rs - ss).abs() <= 1e-3 + ss.abs() * 1e-5);
        assert!((rd - sd).abs() <= 1e-3 + sd.abs() * 1e-5);
    }
}
