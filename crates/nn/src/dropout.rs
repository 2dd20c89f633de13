//! Inverted dropout with an explicit, seedable mask source.

use crate::encoder::Rows;
use crate::Name;
use ntr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: at train time each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1−p)`, so inference is a no-op.
///
/// The layer owns its RNG (seeded at construction) so training runs are
/// reproducible; `forward(x, train=false)` bypasses masking entirely.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    cache_mask: Option<Tensor>,
}

impl Dropout {
    /// A dropout layer with drop probability `p ∈ [0, 1)`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1), got {p}"
        );
        Self {
            p,
            rng: StdRng::seed_from_u64(seed),
            cache_mask: None,
        }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Visits this layer's RNG state under `name` — the building block the
    /// owning layers' [`crate::Layer::visit_rng_state`] impls forward to.
    pub fn visit_rng(&mut self, name: &str, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        let mut s = self.rng.state();
        f(&Name::new(name), &mut s);
        self.rng.set_state(s);
    }

    /// Applies dropout when `train` is true; identity otherwise.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            self.cache_mask = None;
            return x.clone();
        }
        self.forward_train(x, x.dim(0), Rows::All)
    }

    /// Training dropout of `rows` of an `n`-row activation, `x` holding
    /// those rows alone. The mask is drawn for all `n` rows in row-major
    /// order and cut to `rows`, so the stream and each kept row's mask are
    /// those of [`Rows::All`].
    pub fn forward_train(&mut self, x: &Tensor, n: usize, rows: Rows) -> Tensor {
        if self.p == 0.0 {
            self.cache_mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut shape = x.shape().to_vec();
        shape[0] = n;
        let mut mask = Tensor::from_fn(&shape, |_| {
            if self.rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            }
        });
        if let Rows::Only(rows) = rows {
            mask = mask.gather_rows(rows);
        }
        let y = x.mul(&mask);
        self.cache_mask = Some(mask);
        y
    }

    /// Propagates the gradient through the same mask used in `forward`.
    /// If the last forward was an inference pass, this is the identity.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        match self.cache_mask.take() {
            Some(mask) => dy.mul(&mask),
            None => dy.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(d.forward(&x, false), x);
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    fn zero_probability_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 1);
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(d.forward(&x, true), x);
    }

    #[test]
    fn train_mask_zeroes_and_rescales() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[32, 32]);
        let y = d.forward(&x, true);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept = y.data().iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(zeros + kept, 1024, "values must be 0 or 1/(1-p)");
        // With p=0.5 over 1024 elements, both counts are overwhelmingly in (300, 724).
        assert!(zeros > 300 && zeros < 724, "zeros={zeros}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[8, 8]);
        let y = d.forward(&x, true);
        let dx = d.backward(&Tensor::ones(&[8, 8]));
        // Gradient must be zero exactly where the activation was dropped.
        for (a, g) in y.data().iter().zip(dx.data()) {
            assert_eq!(*a == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn same_seed_same_mask_sequence() {
        let x = Tensor::ones(&[4, 4]);
        let a = Dropout::new(0.5, 9).forward(&x, true);
        let b = Dropout::new(0.5, 9).forward(&x, true);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
