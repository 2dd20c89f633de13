//! The [`Tensor`] type: a contiguous, row-major `f32` buffer with a shape.

use std::fmt;

/// A dense, row-major, contiguous `f32` tensor.
///
/// All data lives in a single `Vec<f32>`; the shape describes how that buffer
/// is interpreted. Strides are implicit (row-major) — slicing that would
/// require non-contiguous views instead copies, which keeps every downstream
/// kernel simple and cache-friendly at the scales this workspace targets.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a tensor from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "Tensor::from_vec: buffer of {} elements cannot have shape {shape:?} ({numel} elements)",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor by calling `f(flat_index)` for each element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(&mut f).collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    /// Panics if `d >= self.ndim()`.
    pub fn dim(&self, d: usize) -> usize {
        self.shape[d]
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row-major flat index for a multi-dimensional index.
    ///
    /// # Panics
    /// Panics when `idx` has the wrong arity or an index is out of bounds.
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index arity {} does not match tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut flat = 0;
        for (d, (&i, &s)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            flat = flat * s + i;
        }
        flat
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.flat_index(idx);
        self.data[flat] = value;
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterprets the buffer with a new shape of equal element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.data.len(),
            "reshape: cannot view {:?} ({} elements) as {shape:?} ({numel} elements)",
            self.shape,
            self.data.len()
        );
        Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Borrowed row `r` of a 2-D tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D or `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(
            self.ndim(),
            2,
            "row() requires a 2-D tensor, got {:?}",
            self.shape
        );
        let cols = self.shape[1];
        assert!(
            r < self.shape[0],
            "row {r} out of bounds ({} rows)",
            self.shape[0]
        );
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a 2-D tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(
            self.ndim(),
            2,
            "row_mut() requires a 2-D tensor, got {:?}",
            self.shape
        );
        let cols = self.shape[1];
        assert!(
            r < self.shape[0],
            "row {r} out of bounds ({} rows)",
            self.shape[0]
        );
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies rows `[start, end)` of a 2-D tensor into a new tensor.
    pub fn rows(&self, start: usize, end: usize) -> Self {
        assert_eq!(
            self.ndim(),
            2,
            "rows() requires a 2-D tensor, got {:?}",
            self.shape
        );
        assert!(
            start <= end && end <= self.shape[0],
            "row range {start}..{end} out of bounds ({} rows)",
            self.shape[0]
        );
        let cols = self.shape[1];
        Self {
            shape: vec![end - start, cols],
            data: self.data[start * cols..end * cols].to_vec(),
        }
    }

    /// Copies the rows `idx` of a 2-D tensor, in that order, into a new
    /// `[idx.len(), cols]` tensor.
    pub fn gather_rows(&self, idx: &[usize]) -> Self {
        let mut out = Tensor::zeros(&[idx.len(), self.dim(1)]);
        for (k, &r) in idx.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(r));
        }
        out
    }

    /// The adjoint of [`Tensor::gather_rows`]: a zero `[n, cols]` tensor
    /// whose row `idx[k]` is row `k` of `self` (`idx` distinct).
    pub fn scatter_rows(&self, idx: &[usize], n: usize) -> Self {
        assert_eq!(self.dim(0), idx.len(), "scatter_rows: one index per row");
        let mut out = Tensor::zeros(&[n, self.dim(1)]);
        for (k, &r) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(k));
        }
        out
    }

    /// Writes `src` into columns starting at `start` — the inverse of
    /// [`View::col_slice`](crate::View::col_slice).
    ///
    /// # Panics
    /// Panics on rank/row/width mismatches.
    pub fn set_cols(&mut self, start: usize, src: &Tensor) {
        assert_eq!(self.ndim(), 2, "set_cols() requires a 2-D tensor");
        assert_eq!(src.ndim(), 2, "set_cols() source must be 2-D");
        assert_eq!(self.shape[0], src.shape[0], "set_cols: row count mismatch");
        let width = src.shape[1];
        assert!(
            start + width <= self.shape[1],
            "set_cols: columns {start}..{} out of bounds ({} cols)",
            start + width,
            self.shape[1]
        );
        let cols = self.shape[1];
        for r in 0..self.shape[0] {
            self.data[r * cols + start..r * cols + start + width]
                .copy_from_slice(&src.data[r * width..(r + 1) * width]);
        }
    }

    /// Transpose of a 2-D tensor (copies).
    pub fn transpose(&self) -> Self {
        self.view().t().to_tensor()
    }

    /// Vertically stacks 2-D tensors with equal column counts.
    ///
    /// # Panics
    /// Panics when `parts` is empty or column counts disagree.
    pub fn vstack(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty(), "vstack of zero tensors");
        let cols = parts[0].dim(1);
        let mut rows = 0;
        let mut data = Vec::new();
        for p in parts {
            assert_eq!(p.ndim(), 2, "vstack requires 2-D tensors");
            assert_eq!(p.dim(1), cols, "vstack: column count mismatch");
            rows += p.dim(0);
            data.extend_from_slice(p.data());
        }
        Self {
            shape: vec![rows, cols],
            data,
        }
    }

    /// Horizontally concatenates 2-D tensors with equal row counts.
    pub fn hstack(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty(), "hstack of zero tensors");
        let rows = parts[0].dim(0);
        let total_cols: usize = parts
            .iter()
            .map(|p| {
                assert_eq!(p.ndim(), 2, "hstack requires 2-D tensors");
                assert_eq!(p.dim(0), rows, "hstack: row count mismatch");
                p.dim(1)
            })
            .sum();
        let mut data = Vec::with_capacity(rows * total_cols);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(r));
            }
        }
        Self {
            shape: vec![rows, total_cols],
            data,
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:?}... ({} elements)]",
                &self.data[..8.min(self.data.len())],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn gather_and_scatter_rows_are_adjoint() {
        let t = Tensor::from_fn(&[4, 2], |i| i as f32 + 1.0);
        let g = t.gather_rows(&[1, 3]);
        assert_eq!(g.data(), &[3.0, 4.0, 7.0, 8.0]);
        let s = g.scatter_rows(&[1, 3], 4);
        assert_eq!(s.data(), &[0.0, 0.0, 3.0, 4.0, 0.0, 0.0, 7.0, 8.0]);
        assert_eq!(t.gather_rows(&[]).shape(), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_rejects_shape_mismatch() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn set_and_flat_index_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4, 5]);
        t.set(&[2, 1, 3], 7.5);
        assert_eq!(t.at(&[2, 1, 3]), 7.5);
        assert_eq!(t.flat_index(&[2, 1, 3]), 2 * 20 + 5 + 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_rejects_out_of_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[0, 2]);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_swaps_dims() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 0]), 3.0);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = t.reshape(&[4]);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn rows_slices_copy() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let mid = t.rows(1, 3);
        assert_eq!(mid.shape(), &[2, 3]);
        assert_eq!(mid.data(), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn cols_and_set_cols_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let mid = t.view().col_slice(1, 3).to_tensor();
        assert_eq!(mid.shape(), &[3, 2]);
        assert_eq!(mid.data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        let mut out = Tensor::zeros(&[3, 4]);
        out.set_cols(1, &mid);
        assert_eq!(out.view().col_slice(1, 3).to_tensor(), mid);
        assert_eq!(out.at(&[0, 0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cols_rejects_bad_range() {
        let _ = Tensor::zeros(&[2, 3]).view().col_slice(1, 4);
    }

    #[test]
    fn vstack_and_hstack() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        let v = Tensor::vstack(&[&a, &b]);
        assert_eq!(v.shape(), &[2, 2]);
        assert_eq!(v.data(), &[1.0, 2.0, 3.0, 4.0]);
        let h = Tensor::hstack(&[&a, &b]);
        assert_eq!(h.shape(), &[1, 4]);
        assert_eq!(h.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_fn_uses_flat_index() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
