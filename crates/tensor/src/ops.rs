//! Element-wise arithmetic and matrix-multiplication kernels.
//!
//! The three matmul variants (`matmul`, `matmul_tn`, `matmul_nt`) exist
//! because hand-derived backward passes in `ntr-nn` need products with
//! either operand transposed. All three are [`View::matmul`], as is every
//! product of column or row slices (one attention head's columns).
//!
//! # Kernel structure
//!
//! Every product, at every size, funnels into one cache-blocked GEMM
//! ([`gemm_into`]) that computes `C = A · B`. `A` is read where it lies,
//! through a (row, k) stride pair, so `matmul_tn` copies nothing. `B` is
//! read a row at a time with unit column stride; a transposed `B`
//! (`matmul_nt`) is packed once per call by the one transpose routine
//! ([`crate::simd::transpose`]). The GEMM tiles the k dimension into
//! panels that stay L1/L2-resident across row blocks and updates `MR = 4`
//! output rows per pass through a panel.
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
//! scalar; the FMA GEMM is tolerance-bounded against scalar. A strided read
//! changes where a term's operands come from, never which terms are chained
//! or in what order, so a view multiplies to the bits of its dense copy.

use crate::{grain, par, simd, Tensor};
use std::ops::Range;

/// Don't give a GEMM worker thread fewer output rows than this.
const MIN_ROWS_PER_THREAD: usize = 8;
/// k-panel length: `KC · n` floats of `B` stay cache-hot across row blocks.
const KC: usize = 256;
/// Output rows updated per pass through a k-panel (register block height).
const MR: usize = 4;
/// Output columns per tile (register block width): the `MR × NR`
/// accumulator block lives in registers for a whole k-panel.
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
    pub fn matmul(&self, b: &Tensor) -> Tensor {
        self.view().matmul(b.view())
    }

    /// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` — gradient w.r.t. weights.
    /// `Aᵀ` is read in place, through strides.
    pub fn matmul_tn(&self, b: &Tensor) -> Tensor {
        self.view().t().matmul(b.view())
    }

    /// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` — attention scores and
    /// gradient w.r.t. inputs. `Bᵀ` is packed once.
    pub fn matmul_nt(&self, b: &Tensor) -> Tensor {
        self.view().matmul(b.view().t())
    }

    /// The 2-D tensor as a [`View`] — the operand every matmul reads.
    pub fn view(&self) -> View<'_> {
        let (rows, cols) = dims2(self, "view");
        View::new(self.data(), rows, cols, cols, 1)
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

/// A 2-D operand read where it lies: `rows × cols` elements, element
/// `(i, j)` at `data[i·rs + j·cs]`. [`Tensor::view`] is the dense
/// row-major layout (`rs = cols`, `cs = 1`); [`View::row_slice`] and
/// [`View::col_slice`] narrow it without a copy (one head's columns of a
/// projection), and [`View::t`] transposes it by swapping the strides, so
/// one of the two strides is always 1.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) rs: usize,
    pub(crate) cs: usize,
}

impl<'a> View<'a> {
    fn new(data: &'a [f32], rows: usize, cols: usize, rs: usize, cs: usize) -> Self {
        View {
            data,
            rows,
            cols,
            rs,
            cs,
        }
    }

    /// Rows `[start, end)`, read in place.
    pub fn row_slice(self, start: usize, end: usize) -> View<'a> {
        let fits = start <= end && end <= self.rows;
        assert!(fits, "rows {start}..{end} out of bounds");
        let data = self.data.get(start * self.rs..).unwrap_or_default();
        View::new(data, end - start, self.cols, self.rs, self.cs)
    }

    /// Columns `[start, end)`, read in place.
    pub fn col_slice(self, start: usize, end: usize) -> View<'a> {
        let fits = start <= end && end <= self.cols;
        assert!(fits, "columns {start}..{end} out of bounds");
        let data = self.data.get(start * self.cs..).unwrap_or_default();
        View::new(data, self.rows, end - start, self.rs, self.cs)
    }

    /// The transpose, read in place: rows and columns swap their strides.
    pub fn t(self) -> View<'a> {
        View::new(self.data, self.cols, self.rows, self.cs, self.rs)
    }

    /// Every element lies inside `data` (each constructor keeps it so).
    pub(crate) fn in_bounds(&self) -> bool {
        let last = (self.rows.max(1) - 1) * self.rs + (self.cols.max(1) - 1) * self.cs;
        self.rows == 0 || self.cols == 0 || last < self.data.len()
    }

    /// A dense `[rows, cols]` copy; a transposed view goes through the one
    /// transpose routine.
    pub fn to_tensor(self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        if self.cs == 1 {
            for (i, row) in out.chunks_exact_mut(self.cols.max(1)).enumerate() {
                row.copy_from_slice(&self.data[i * self.rs..][..self.cols]);
            }
        } else {
            let on = simd::active();
            simd::transpose(on, &mut out, self.data, self.cols, self.rows, self.cs);
        }
        Tensor::from_vec(out, &[self.rows, self.cols])
    }

    /// `C = self · b`, both read where they lie. A `b` whose columns are
    /// strided (a transposed view) is packed dense first.
    pub fn matmul(self, b: View<'_>) -> Tensor {
        let (m, k, n) = (self.rows, self.cols, b.cols);
        assert_eq!(k, b.rows, "matmul: inner dims differ ({k} vs {})", b.rows);
        let packed;
        let b = if b.cs == 1 || n == 1 {
            b
        } else {
            packed = b.to_tensor();
            packed.view()
        };
        let mut out = vec![0.0f32; m * n];
        gemm_into(&mut out, self, b);
        Tensor::from_vec(out, &[m, n])
    }
}

/// `out = A · B` into a zeroed `out: [m, n]`, `B` read with unit column
/// stride. Partitions output rows across the pool; each row's accumulation
/// order is partition-independent, so the result is bit-identical for any
/// thread count.
fn gemm_into(out: &mut [f32], a: View, b: View) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(out.len(), m * n);
    // Captured on the calling thread: the per-thread SIMD veto must govern
    // the chunks that pool workers run on its behalf.
    let on = simd::active() && simd::has_gemm();
    par::for_chunks(out, n.max(1), gemm_threads(m, k, n), |r0, chunk| {
        let a = a.row_slice(r0, r0 + chunk.len() / n.max(1));
        if on {
            simd::gemm_block(chunk, a, b);
        } else {
            gemm_block(chunk, a, b);
        }
    });
}

/// The serial GEMM core: `out: [rows, n] += a: [rows, k] · b: [k, n]`,
/// `a` read through its strides, `b` a row at a time.
///
/// k is blocked into [`KC`]-length panels; for each panel, [`MR`] = 4 output
/// rows are updated per pass so the panel's `B` rows are reused from cache
/// four times per load, with 4 independent accumulation streams for the
/// vectorizer. Tail rows (< MR) take the same pass one row at a time.
fn gemm_block(out: &mut [f32], a: View, b: View) {
    let (k, n) = (b.rows, b.cols);
    if n == 0 || k == 0 {
        return;
    }
    let rows = out.len() / n;
    for kb in (0..k).step_by(KC) {
        let ks = kb..kb + KC.min(k - kb);
        let mut i = 0;
        while i + MR <= rows {
            gemm_rows::<MR>(out, a, i, b, ks.clone());
            i += MR;
        }
        while i < rows {
            gemm_rows::<1>(out, a, i, b, ks.clone());
            i += 1;
        }
    }
}

/// Rows `i..i + R` over the k-panel `ks`, in [`NR`]-wide column tiles (the
/// last one narrower): each tile's `R × NR` accumulators load the partial
/// sums, add the panel's terms k-sequentially and are stored once. An
/// element's chain is the same whatever `R`, its tile or the partition, so
/// rows are bit-identical however they are grouped across threads.
fn gemm_rows<const R: usize>(out: &mut [f32], a: View, i: usize, b: View, ks: Range<usize>) {
    let n = b.cols;
    for jb in (0..n).step_by(NR) {
        let w = NR.min(n - jb);
        let mut acc = [[0.0f32; NR]; R];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r[..w].copy_from_slice(&out[(i + r) * n + jb..][..w]);
        }
        for p in ks.clone() {
            let brow = &b.data[p * b.rs + jb..][..w];
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let x = a.data[(i + r) * a.rs + p * a.cs];
                for (c, &bv) in acc_r[..w].iter_mut().zip(brow) {
                    *c += x * bv;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[(i + r) * n + jb..][..w].copy_from_slice(&acc_r[..w]);
        }
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
    fn transpose_round_trips_on_both_lanes() {
        let (rows, cols) = (37, 53);
        let t = Tensor::from_fn(&[rows, cols], |i| i as f32);
        let check = || {
            let tr = t.transpose();
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(tr.at(&[c, r]), t.at(&[r, c]));
                }
            }
            assert_eq!(tr.transpose(), t);
        };
        check();
        crate::simd::force_scalar(check);
    }
}
