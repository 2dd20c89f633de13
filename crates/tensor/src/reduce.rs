//! Reductions and normalizations: softmax, log-softmax, argmax, sums, norms.
//!
//! The softmax family operates row-wise on 2-D tensors because that is the
//! only pattern transformers need (attention rows, logit rows). All variants
//! subtract the row max first for numerical stability, and rows that are
//! entirely `-inf` (fully masked attention rows) produce a uniform
//! distribution instead of NaN — a deliberate choice that keeps padded
//! sequences finite end-to-end.

use crate::{grain, par, simd, Tensor};

/// Thread count for a row-wise reduction over `rows · cols` floats: rows are
/// independent, so any partition gives bit-identical results. The grain model
/// prices each element at a transcendental (`exp` dominates the softmax
/// family) and never fans out wider than the row count.
fn rowwise_threads(rows: usize, numel: usize) -> usize {
    grain::threads_for_units(grain::Work::Transcendental(numel), rows, 1)
}

impl Tensor {
    /// Row-wise numerically-stable softmax of a 2-D tensor.
    ///
    /// Rows are normalized fully in place (no per-row temporaries) and
    /// partitioned across the thread pool for large matrices.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        let on = simd::active();
        out.for_rows_mut("softmax_rows", |_, row| softmax_in_place(on, row));
        out
    }

    /// `softmax(scale · self + mask)` row by row, in place: attention's
    /// probability pass over the raw `Q·Kᵀ` scores. Each element sees the
    /// operations of `self.scale(scale).add(mask).softmax_rows()` in the
    /// same order, without that chain's three `[n_q, n_k]` temporaries.
    pub fn scale_mask_softmax_rows(&mut self, scale: f32, mask: Option<&Tensor>) {
        if let Some(m) = mask {
            assert_eq!(
                self.shape(),
                m.shape(),
                "scale_mask_softmax_rows: shape mismatch"
            );
        }
        let on = simd::active();
        self.for_rows_mut("scale_mask_softmax_rows", |r, row| {
            for x in row.iter_mut() {
                *x *= scale;
            }
            if let Some(m) = mask {
                simd::add_assign(on, row, m.row(r));
            }
            softmax_in_place(on, row);
        });
    }

    /// Row-wise log-softmax of a 2-D tensor (stable: max-shift + log-sum-exp).
    pub fn log_softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        let on = simd::active();
        out.for_rows_mut("log_softmax_rows", |_, row| log_softmax_in_place(on, row));
        out
    }

    /// Runs `f(row_index, row)` on every row of a 2-D tensor, rows
    /// partitioned across the pool as a transcendental reduction.
    fn for_rows_mut(&mut self, what: &str, f: impl Fn(usize, &mut [f32]) + Sync) {
        assert_eq!(self.ndim(), 2, "{what} requires a 2-D tensor");
        let cols = self.dim(1).max(1);
        let threads = rowwise_threads(self.dim(0), self.numel());
        par::for_chunks(self.data_mut(), cols, threads, |r0, chunk| {
            for (i, row) in chunk.chunks_mut(cols).enumerate() {
                f(r0 + i, row);
            }
        });
    }

    /// Index of the maximum element in each row of a 2-D tensor.
    /// Ties break toward the lower index.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows requires a 2-D tensor");
        let cols = self.dim(1);
        self.data()
            .chunks(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        simd::sum(simd::active(), self.data())
    }

    /// Mean of all elements. Returns 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Sum over rows of a 2-D tensor, producing a 1-D tensor of length `cols`
    /// — the bias-gradient reduction.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "sum_rows requires a 2-D tensor");
        let cols = self.dim(1);
        let mut out = vec![0.0f32; cols];
        let on = simd::active();
        // Row-by-row accumulation in row order: the SIMD add is the same
        // single rounding per element, so this stays bit-identical.
        for row in self.data().chunks(cols.max(1)) {
            simd::add_assign(on, &mut out, row);
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        simd::sum_sq(simd::active(), self.data()).sqrt()
    }

    /// Cosine similarity between two tensors of equal element count.
    /// Returns 0.0 when either vector has zero norm.
    pub fn cosine(&self, other: &Tensor) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Mean of the rows of a 2-D tensor: mean pooling over a token span.
    pub fn mean_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "mean_rows requires a 2-D tensor");
        let rows = self.dim(0).max(1) as f32;
        self.sum_rows().scale(1.0 / rows)
    }
}

/// In-place stable softmax over one row; fully-masked rows become uniform.
/// Every pass takes its `on` arm from [`simd`]: with `on = false` this is
/// the plain sequential loop, bit for bit; with `on = true` the vector
/// `exp` and the lane-ordered sum make it tolerance-bounded against that,
/// but still bit-identical across thread counts (rows are independent).
pub(crate) fn softmax_in_place(on: bool, row: &mut [f32]) {
    let max = simd::max(on, row);
    if max == f32::NEG_INFINITY {
        let u = 1.0 / row.len() as f32;
        row.fill(u);
        return;
    }
    let sum = simd::exp_sub_assign(on, row, max);
    simd::div_assign_scalar(on, row, sum);
}

/// In-place stable log-softmax over one row; fully-masked rows become the log
/// of the uniform distribution, matching [`softmax_in_place`].
pub(crate) fn log_softmax_in_place(on: bool, row: &mut [f32]) {
    let max = simd::max(on, row);
    if max == f32::NEG_INFINITY {
        let u = -(row.len() as f32).ln();
        row.fill(u);
        return;
    }
    let lse = simd::exp_sub_sum(on, row, max).ln() + max;
    simd::sub_assign_scalar(on, row, lse);
}

#[cfg(test)]
mod tests {
    use crate::{allclose, Tensor};

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.at(&[r, 2]) > s.at(&[r, 1]));
            assert!(s.at(&[r, 1]) > s.at(&[r, 0]));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).softmax_rows();
        let b = Tensor::from_vec(vec![1001.0, 1002.0, 1003.0], &[1, 3]).softmax_rows();
        assert!(allclose(a.data(), b.data(), 1e-5, 1e-6));
    }

    #[test]
    fn fully_masked_softmax_row_is_uniform_not_nan() {
        let t = Tensor::full(&[1, 4], f32::NEG_INFINITY).softmax_rows();
        for &x in t.data() {
            assert!((x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.0], &[2, 2]);
        let ls = t.log_softmax_rows();
        let s = t.softmax_rows().map(f32::ln);
        assert!(allclose(ls.data(), s.data(), 1e-5, 1e-6));
    }

    #[test]
    fn log_softmax_fully_masked_row_is_uniform() {
        let t = Tensor::full(&[1, 4], f32::NEG_INFINITY).log_softmax_rows();
        for &x in t.data() {
            assert!((x - (0.25f32).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_rows_breaks_ties_low() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.0, -1.0, -1.0], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.sum_rows().data(), &[4.0, 6.0]);
        assert_eq!(t.mean_rows().data(), &[2.0, 3.0]);
        assert!((t.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let b = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        assert!(a.cosine(&b).abs() < 1e-6);
        assert_eq!(a.cosine(&Tensor::zeros(&[2])), 0.0);
    }
}
