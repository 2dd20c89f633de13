//! Lookup-table embeddings with scatter-add backward.

use crate::init::SeededInit;
use crate::{Cx, Layer, Name, Param};
use ntr_tensor::Tensor;

/// An embedding table mapping ids `0..vocab` to `d`-dimensional vectors.
///
/// Table-aware models sum several of these per token (word + position +
/// segment + row + column…, see `ntr-models`); each table's backward
/// scatter-adds the output gradient into the rows of the ids it looked up,
/// which are its tape.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table, shape `[vocab, d]`.
    pub weight: Param,
}

impl Embedding {
    /// A new table of `vocab` rows of dimension `d`, N(0, 0.02)-initialized
    /// (the BERT convention).
    pub fn new(vocab: usize, d: usize, init: &mut SeededInit) -> Self {
        Self {
            weight: Param::new(init.normal(&[vocab, d], 0.02)),
        }
    }

    /// Number of rows in the table.
    pub fn vocab(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.value.dim(1)
    }

    /// Looks up `ids`, producing `[ids.len(), d]`.
    ///
    /// # Panics
    /// Panics when an id is out of range.
    pub fn lookup(&self, ids: &[usize]) -> Tensor {
        let d = self.dim();
        let vocab = self.vocab();
        let mut data = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            assert!(id < vocab, "embedding id {id} out of range (vocab {vocab})");
            data.extend_from_slice(self.weight.value.row(id));
        }
        Tensor::from_vec(data, &[ids.len(), d])
    }

    /// Scatter-adds `dy` rows into the gradient rows of the `ids` the
    /// lookup took.
    ///
    /// Embeddings are graph sources, so there is no input gradient to return.
    ///
    /// # Panics
    /// Panics on a `dy` shape that does not match `ids`.
    pub fn backward(&self, ids: &[usize], dy: &Tensor, cx: &mut Cx) {
        assert_eq!(
            dy.shape(),
            &[ids.len(), self.dim()],
            "Embedding::backward: dy shape {:?} does not match {} ids of dim {}",
            dy.shape(),
            ids.len(),
            self.dim()
        );
        let d = self.dim();
        let grad = cx.grads.of_mut(&self.weight);
        for (pos, &id) in ids.iter().enumerate() {
            for (g, s) in grad[id * d..(id + 1) * d].iter_mut().zip(dy.row(pos)) {
                *g += s;
            }
        }
    }
}

impl Layer for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        f(&Name::new("weight"), &mut self.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_gathers_rows() {
        let e = Embedding::new(4, 3, &mut SeededInit::new(1));
        let out = e.lookup(&[2, 0, 2]);
        assert_eq!(out.shape(), &[3, 3]);
        assert_eq!(out.row(0), e.weight.value.row(2));
        assert_eq!(out.row(1), e.weight.value.row(0));
        assert_eq!(out.row(0), out.row(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn forward_rejects_bad_id() {
        let e = Embedding::new(4, 3, &mut SeededInit::new(1));
        let _ = e.lookup(&[4]);
    }

    #[test]
    fn backward_scatter_adds_repeated_ids() {
        let mut e = Embedding::new(4, 2, &mut SeededInit::new(2));
        let mut cx = Cx::new(&mut e);
        let dy = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0, 5.0, 6.0], &[3, 2]);
        e.backward(&[1, 1, 3], &dy, &mut cx);
        let grad = cx.grads.of(&e.weight);
        assert_eq!(&grad[2..4], &[11.0, 22.0]); // row 1 summed
        assert_eq!(&grad[6..8], &[5.0, 6.0]); // row 3
        assert_eq!(&grad[0..2], &[0.0, 0.0]); // untouched rows
    }

    #[test]
    fn empty_lookup_is_empty() {
        let e = Embedding::new(4, 2, &mut SeededInit::new(3));
        let out = e.lookup(&[]);
        assert_eq!(out.shape(), &[0, 2]);
    }
}
