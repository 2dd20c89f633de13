//! Element-wise arithmetic and matrix-multiplication kernels.
//!
//! The three matmul variants (`matmul`, `matmul_tn`, `matmul_nt`) exist
//! because hand-derived backward passes in `ntr-nn` need products with
//! either operand transposed; computing them directly avoids materializing
//! transposed copies in the training hot path.
//!
//! # Kernel structure
//!
//! Every variant, at every size, funnels into one cache-blocked GEMM
//! ([`gemm_into`]) that computes `C = A · B` with both operands in row-major
//! `[rows, k]` / `[k, cols]` layout. A transposed operand is packed into that
//! layout once per call ([`pack_transpose`]), so the innermost loop is always
//! unit-stride over `B` and `C` regardless of variant. The GEMM tiles the k
//! dimension into panels that stay L1/L2-resident across row blocks and
//! updates `MR = 4` output rows per pass through a panel.
//!
//! Each output element is one k-ordered chain of `a[i][k]·b[k][j]` terms
//! added to a `+0` start: unfused on the scalar lane, one FMA per term on
//! the SIMD lane. The chain is the same in the 4-row blocks and the row
//! tail, in every column tile width and across k-panels, so an element's
//! bits depend only on its own row of `A` and column of `B` — not on how
//! many rows or columns share the product, nor on how rows are partitioned
//! across threads (**bit-identical for any thread count**). A subset of
//! rows is therefore multiplied with a plain `matmul` of those rows. How
//! wide to partition is decided by the [`crate::grain`] cost model (serial
//! below the grain threshold, capped fan-out above it).
//!
//! With the `simd` feature active ([`crate::simd::active`], captured once
//! per kernel call), the element-wise kernels and the GEMM core dispatch to
//! explicit AVX2/FMA micro-kernels. Element-wise SIMD is bit-identical to
//! scalar; the FMA GEMM is tolerance-bounded against scalar.

use crate::{grain, par, simd, Tensor};

/// Don't give a GEMM worker thread fewer output rows than this.
const MIN_ROWS_PER_THREAD: usize = 8;
/// k-panel length: `KC · n` floats of `B` stay cache-hot across row blocks.
const KC: usize = 256;
/// Output rows updated per pass through a k-panel (register block height).
const MR: usize = 4;
/// Output columns per micro-kernel tile (register block width): the
/// `MR × NR` accumulator block lives in registers for a whole k-panel.
const NR: usize = 8;

impl Tensor {
    // ------------------------------------------------------------------
    // Element-wise ops
    // ------------------------------------------------------------------

    /// Element-wise sum. Shapes must match exactly.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference. Shapes must match exactly.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product. Shapes must match exactly.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.par_map(|x| x * s)
    }

    /// Applies `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.data().iter().map(|&x| f(x)).collect(), self.shape())
    }

    /// [`map`](Self::map) that runs chunks on the thread pool for large
    /// tensors; `f` must be `Sync` so threads can share it.
    pub fn par_map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        self.par_map_chunks(|dst, src| {
            for (o, &x) in dst.iter_mut().zip(src) {
                *o = f(x);
            }
        })
    }

    /// [`par_map`](Self::par_map) a slice at a time: `f(dst, src)` fills
    /// `dst` from the equally long `src`, so a SIMD kernel can take whole
    /// chunks. Where the chunks are cut depends on the thread count; `f`
    /// must give each element the same result wherever it falls.
    pub fn par_map_chunks(&self, f: impl Fn(&mut [f32], &[f32]) + Sync) -> Tensor {
        let src = self.data();
        let mut out = vec![0.0f32; src.len()];
        par::for_chunks(&mut out, 1, elem_threads(src.len(), 8), |start, chunk| {
            let end = start + chunk.len();
            f(chunk, &src[start..end]);
        });
        Tensor::from_vec(out, self.shape())
    }

    /// In-place [`map`](Self::map), avoiding the output allocation. Used by
    /// activation backward passes and other train-loop element-wise work.
    pub fn map_mut(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let threads = elem_threads(self.numel(), 8);
        par::for_chunks(self.data_mut(), 1, threads, |_, chunk| {
            for x in chunk.iter_mut() {
                *x = f(*x);
            }
        });
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        let on = simd::active();
        self.zip_chunks_mut(other, "add_assign", |a, b| simd::add_assign(on, a, b));
    }

    /// In-place Hadamard product `self *= other`.
    pub fn mul_assign(&mut self, other: &Tensor) {
        let on = simd::active();
        self.zip_chunks_mut(other, "mul_assign", |a, b| simd::mul_assign(on, a, b));
    }

    /// In-place `self += s * other`, the AXPY primitive used by optimizers.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        let on = simd::active();
        self.zip_chunks_mut(other, "axpy", |a, b| simd::axpy(on, a, s, b));
    }

    /// Runs `f(self_chunk, other_chunk)` over aligned chunks of two tensors
    /// of one shape, in parallel for large tensors: the in-place binary
    /// element-wise op. As with [`par_map_chunks`](Self::par_map_chunks),
    /// `f` must not depend on where the chunks are cut.
    pub fn zip_chunks_mut(
        &mut self,
        other: &Tensor,
        op: &str,
        f: impl Fn(&mut [f32], &[f32]) + Sync,
    ) {
        assert_eq!(self.shape(), other.shape(), "{op}: shape mismatch");
        let o = other.data();
        par::for_chunks(
            self.data_mut(),
            1,
            elem_threads(o.len(), 12),
            |start, chunk| {
                let end = start + chunk.len();
                f(chunk, &o[start..end]);
            },
        );
    }

    /// Adds a 1-D bias of length `cols` to every row of a 2-D tensor, in
    /// the tensor's own buffer.
    pub fn add_row_broadcast(mut self, bias: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "add_row_broadcast requires a 2-D tensor");
        assert_eq!(
            bias.numel(),
            self.dim(1),
            "bias length {} does not match column count {}",
            bias.numel(),
            self.dim(1)
        );
        let cols = self.dim(1);
        let b = bias.data();
        let threads = elem_threads(self.numel(), 12);
        par::for_chunks(self.data_mut(), cols.max(1), threads, |_, chunk| {
            for row in chunk.chunks_mut(cols.max(1)) {
                for (x, &bv) in row.iter_mut().zip(b) {
                    *x += bv;
                }
            }
        });
        self
    }

    fn zip_with(&self, other: &Tensor, op: &str, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Tensor::from_vec(
            self.data()
                .iter()
                .zip(other.data())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.shape(),
        )
    }

    // ------------------------------------------------------------------
    // Matrix multiplication kernels (2-D)
    // ------------------------------------------------------------------

    /// `C = A · B` for `A: [m, k]`, `B: [k, n]`.
    ///
    /// `B` is already in the `[k, n]` layout the GEMM core consumes, so no
    /// copy is needed for this variant.
    pub fn matmul(&self, b: &Tensor) -> Tensor {
        let (m, k) = dims2(self, "matmul lhs");
        let (kb, n) = dims2(b, "matmul rhs");
        assert_eq!(k, kb, "matmul: inner dims differ ({k} vs {kb})");
        let mut out = vec![0.0f32; m * n];
        gemm_into(&mut out, self.data(), b.data(), m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` — gradient w.r.t. weights.
    ///
    /// `A` is packed to `[m, k]` once so the panel walk is unit-stride.
    pub fn matmul_tn(&self, b: &Tensor) -> Tensor {
        let (k, m) = dims2(self, "matmul_tn lhs");
        let (kb, n) = dims2(b, "matmul_tn rhs");
        assert_eq!(k, kb, "matmul_tn: leading dims differ ({k} vs {kb})");
        let at = pack_transpose(self.data(), k, m);
        let mut out = vec![0.0f32; m * n];
        gemm_into(&mut out, &at, b.data(), m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` — attention scores and
    /// gradient w.r.t. inputs.
    ///
    /// `B` is packed to `[k, n]` once so the inner loop streams `B` and `C`
    /// contiguously instead of striding down `B`'s rows.
    pub fn matmul_nt(&self, b: &Tensor) -> Tensor {
        let (m, k) = dims2(self, "matmul_nt lhs");
        let (n, kb) = dims2(b, "matmul_nt rhs");
        assert_eq!(k, kb, "matmul_nt: inner dims differ ({k} vs {kb})");
        let bt = pack_transpose(b.data(), n, k);
        let mut out = vec![0.0f32; m * n];
        gemm_into(&mut out, self.data(), &bt, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Dot product of two 1-D tensors (or any equal-length tensors, flattened).
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.numel(),
            other.numel(),
            "dot: element counts differ ({} vs {})",
            self.numel(),
            other.numel()
        );
        dot(self.data(), other.data())
    }
}

pub(crate) fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.ndim(), 2, "{what} must be 2-D, got shape {:?}", t.shape());
    (t.dim(0), t.dim(1))
}

/// Thread count for a flat element-wise op over `len` floats touching
/// `bytes_per_elem` bytes of memory per element (reads + writes).
fn elem_threads(len: usize, bytes_per_elem: usize) -> usize {
    grain::threads_for(grain::Work::StreamBytes(len.saturating_mul(bytes_per_elem)))
}

/// Thread count for an `m·k·n` GEMM with `m` output rows: grain-capped
/// fan-out, never fewer than [`MIN_ROWS_PER_THREAD`] rows per worker.
fn gemm_threads(m: usize, k: usize, n: usize) -> usize {
    let madds = m.saturating_mul(k).saturating_mul(n);
    grain::threads_for_units(grain::Work::Madds(madds), m, MIN_ROWS_PER_THREAD)
}

/// Row-major transpose: `src: [rows, cols]` → returned `[cols, rows]`.
///
/// Walked in 32×32 blocks so both the strided reads and the strided writes
/// stay within a few cache lines per block.
fn pack_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    const B: usize = 32;
    let mut dst = vec![0.0f32; src.len()];
    for rb in (0..rows).step_by(B) {
        let rend = (rb + B).min(rows);
        for cb in (0..cols).step_by(B) {
            let cend = (cb + B).min(cols);
            for r in rb..rend {
                for c in cb..cend {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
    dst
}

/// `C += A · B` into a zeroed `out`, with `A: [m, k]`, `B: [k, n]` row-major.
/// Partitions output rows across the pool; each row's accumulation order is
/// partition-independent, so the result is bit-identical for any thread count.
fn gemm_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    // Captured on the calling thread: the per-thread SIMD veto must govern
    // the chunks that pool workers run on its behalf.
    let on = simd::active() && simd::has_gemm();
    par::for_chunks(out, n.max(1), gemm_threads(m, k, n), |r0, chunk| {
        let rows = chunk.len() / n.max(1);
        let a_rows = &a[r0 * k..(r0 + rows) * k];
        if on {
            simd::gemm_block(chunk, a_rows, b, k, n);
        } else {
            gemm_block(chunk, a_rows, b, k, n);
        }
    });
}

/// The serial GEMM core: `out: [rows, n] += a: [rows, k] · b: [k, n]`.
///
/// k is blocked into [`KC`]-length panels; for each panel, [`MR`] = 4 output
/// rows are updated per pass so the panel's `B` rows are reused from cache
/// four times per load, with 4 independent accumulation streams for the
/// vectorizer. Tail rows (< MR) use the identical per-row operation order,
/// which keeps row results bit-identical however rows are grouped.
fn gemm_block(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    if n == 0 || k == 0 {
        return;
    }
    let rows = out.len() / n;
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let mut i = 0;
        while i + MR <= rows {
            let block = &mut out[i * n..(i + MR) * n];
            let ar = [
                &a[i * k + kb..i * k + kb + kc],
                &a[(i + 1) * k + kb..(i + 1) * k + kb + kc],
                &a[(i + 2) * k + kb..(i + 2) * k + kb + kc],
                &a[(i + 3) * k + kb..(i + 3) * k + kb + kc],
            ];
            let mut jb = 0;
            while jb + NR <= n {
                micro_kernel::<NR>(block, ar, b, kb, jb, kc, n);
                jb += NR;
            }
            if jb < n {
                micro_kernel_tail(block, ar, b, kb, jb, kc, n);
            }
            i += MR;
        }
        while i < rows {
            let crow = &mut out[i * n..(i + 1) * n];
            let arow = &a[i * k + kb..i * k + kb + kc];
            for (off, &av) in arow.iter().enumerate() {
                let brow = &b[(kb + off) * n..(kb + off) * n + n];
                for j in 0..n {
                    crow[j] += av * brow[j];
                }
            }
            i += 1;
        }
    }
}

/// `MR × W` register tile: loads the current partial sums, accumulates one
/// whole k-panel with k innermost, stores once. Per output element the adds
/// stay k-sequential, so this is bit-identical to the single-row tail path
/// (and hence invariant to how rows are partitioned across threads).
#[inline]
fn micro_kernel<const W: usize>(
    block: &mut [f32],
    ar: [&[f32]; MR],
    b: &[f32],
    kb: usize,
    jb: usize,
    kc: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; W]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r.copy_from_slice(&block[r * n + jb..r * n + jb + W]);
    }
    for off in 0..kc {
        let brow = &b[(kb + off) * n + jb..(kb + off) * n + jb + W];
        for (acc_r, a_r) in acc.iter_mut().zip(&ar) {
            let x = a_r[off];
            for (c, &bv) in acc_r.iter_mut().zip(brow) {
                *c += x * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        block[r * n + jb..r * n + jb + W].copy_from_slice(acc_r);
    }
}

/// Column remainder (`n mod NR`) of the `MR`-row block, same accumulation
/// order as [`micro_kernel`] but with a runtime tile width.
#[inline]
fn micro_kernel_tail(
    block: &mut [f32],
    ar: [&[f32]; MR],
    b: &[f32],
    kb: usize,
    jb: usize,
    kc: usize,
    n: usize,
) {
    let nr = n - jb;
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r[..nr].copy_from_slice(&block[r * n + jb..r * n + jb + nr]);
    }
    for off in 0..kc {
        let brow = &b[(kb + off) * n + jb..(kb + off) * n + jb + nr];
        for (acc_r, a_r) in acc.iter_mut().zip(&ar) {
            let x = a_r[off];
            for (c, &bv) in acc_r[..nr].iter_mut().zip(brow) {
                *c += x * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        block[r * n + jb..r * n + jb + nr].copy_from_slice(&acc_r[..nr]);
    }
}

#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    // Scalar path is the crate's original 4-way unroll (in `simd`);
    // AVX2/FMA when active.
    simd::dot(simd::active(), a, b)
}

#[cfg(test)]
mod tests {
    use crate::{allclose, par, Tensor};

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_assign_and_axpy() {
        let mut a = t(&[1.0, 1.0], &[2]);
        a.add_assign(&t(&[2.0, 3.0], &[2]));
        assert_eq!(a.data(), &[3.0, 4.0]);
        a.axpy(-0.5, &t(&[2.0, 2.0], &[2]));
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn map_mut_and_mul_assign_match_out_of_place() {
        let mut a = t(&[1.0, -2.0, 3.0], &[3]);
        let expect = a.map(|x| x * x);
        a.map_mut(|x| x * x);
        assert_eq!(a, expect);
        let mut b = t(&[2.0, 3.0, 4.0], &[3]);
        let expect = b.mul(&a);
        b.mul_assign(&a);
        assert_eq!(b, expect);
    }

    #[test]
    fn par_map_matches_map() {
        let a = Tensor::from_fn(&[513], |i| i as f32 - 100.0);
        par::with_threads(4, || {
            assert_eq!(a.par_map(|x| x.abs()), a.map(|x| x.abs()));
        });
    }

    #[test]
    fn bias_broadcast_adds_per_column() {
        let x = t(&[0.0, 0.0, 1.0, 1.0], &[2, 2]);
        let b = t(&[10.0, 20.0], &[2]);
        assert_eq!(x.add_row_broadcast(&b).data(), &[10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn tiled_matmul_identity_is_noop() {
        // 64 rows fill whole 4-row blocks and 8-wide column tiles.
        let a = Tensor::from_fn(&[64, 64], |i| (i % 97) as f32 * 0.01 - 1.0);
        let c = a.matmul(&Tensor::eye(64));
        assert!(allclose(c.data(), a.data(), 1e-6, 1e-6));
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = t(&[1.0, -2.0, 0.5, 3.0, 4.0, -1.0], &[3, 2]);
        let b = t(&[2.0, 0.0, 1.0, -1.0, 3.0, 2.0], &[3, 2]);
        // Aᵀ·B : [2,3]·[3,2]
        let tn = a.matmul_tn(&b);
        let expect = a.transpose().matmul(&b);
        assert!(allclose(tn.data(), expect.data(), 1e-6, 1e-6));
        // A·Bᵀ with compatible shapes: a is [3,2], b is [3,2] → a·bᵀ = [3,3]
        let nt = a.matmul_nt(&b);
        let expect = a.matmul(&b.transpose());
        assert!(allclose(nt.data(), expect.data(), 1e-6, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_rejects_dim_mismatch() {
        let _ = Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn dot_handles_non_multiple_of_four() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0], &[5]);
        let b = t(&[1.0, 1.0, 1.0, 1.0, 1.0], &[5]);
        assert_eq!(a.dot(&b), 15.0);
    }

    #[test]
    fn pack_transpose_round_trips() {
        let rows = 37;
        let cols = 53;
        let src: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        let tr = super::pack_transpose(&src, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(tr[c * rows + r], src[r * cols + c]);
            }
        }
        assert_eq!(super::pack_transpose(&tr, cols, rows), src);
    }
}
