//! Lookup-table embeddings with scatter-add backward.

use crate::init::SeededInit;
use crate::{Layer, Name, Param};
use ntr_tensor::Tensor;

/// An embedding table mapping ids `0..vocab` to `d`-dimensional vectors.
///
/// Table-aware models sum several of these per token (word + position +
/// segment + row + column…, see `ntr-models`); each table independently
/// caches the ids it saw and scatter-adds the output gradient into its rows.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table, shape `[vocab, d]`.
    pub weight: Param,
    cache_ids: Option<Vec<usize>>,
}

impl Embedding {
    /// A new table of `vocab` rows of dimension `d`, N(0, 0.02)-initialized
    /// (the BERT convention).
    pub fn new(vocab: usize, d: usize, init: &mut SeededInit) -> Self {
        Self {
            weight: Param::new(init.normal(&[vocab, d], 0.02)),
            cache_ids: None,
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

    /// Looks up `ids`, producing `[ids.len(), d]`; caches ids for backward.
    ///
    /// # Panics
    /// Panics when an id is out of range.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        let out = self.lookup(ids);
        self.cache_ids = Some(ids.to_vec());
        out
    }

    /// Lookup without caching, for inference paths.
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

    /// A single row of the table (e.g. an entity embedding), shape `[1, d]`.
    pub fn row(&self, id: usize) -> Tensor {
        self.lookup(&[id])
    }

    /// Scatter-adds `dy` rows into the rows of the table gradient.
    ///
    /// Embeddings are graph sources, so there is no input gradient to return.
    ///
    /// # Panics
    /// Panics if called before `forward` or with a mismatched `dy` shape.
    pub fn backward(&mut self, dy: &Tensor) {
        let ids = self
            .cache_ids
            .take()
            .expect("Embedding::backward called without a cached forward");
        assert_eq!(
            dy.shape(),
            &[ids.len(), self.dim()],
            "Embedding::backward: dy shape {:?} does not match {} ids of dim {}",
            dy.shape(),
            ids.len(),
            self.dim()
        );
        let d = self.dim();
        for (pos, &id) in ids.iter().enumerate() {
            let src = dy.row(pos).to_vec();
            let dst = &mut self.weight.grad.data_mut()[id * d..(id + 1) * d];
            for (g, s) in dst.iter_mut().zip(src) {
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
        let mut e = Embedding::new(4, 3, &mut SeededInit::new(1));
        let out = e.forward(&[2, 0, 2]);
        assert_eq!(out.shape(), &[3, 3]);
        assert_eq!(out.row(0), e.weight.value.row(2));
        assert_eq!(out.row(1), e.weight.value.row(0));
        assert_eq!(out.row(0), out.row(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn forward_rejects_bad_id() {
        let mut e = Embedding::new(4, 3, &mut SeededInit::new(1));
        let _ = e.forward(&[4]);
    }

    #[test]
    fn backward_scatter_adds_repeated_ids() {
        let mut e = Embedding::new(4, 2, &mut SeededInit::new(2));
        let _ = e.forward(&[1, 1, 3]);
        let dy = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0, 5.0, 6.0], &[3, 2]);
        e.backward(&dy);
        assert_eq!(&e.weight.grad.data()[2..4], &[11.0, 22.0]); // row 1 summed
        assert_eq!(&e.weight.grad.data()[6..8], &[5.0, 6.0]); // row 3
        assert_eq!(&e.weight.grad.data()[0..2], &[0.0, 0.0]); // untouched rows
    }

    #[test]
    fn empty_lookup_is_empty() {
        let e = Embedding::new(4, 2, &mut SeededInit::new(3));
        let out = e.lookup(&[]);
        assert_eq!(out.shape(), &[0, 2]);
    }
}
