//! Inverted dropout with an explicit, seedable mask source.

use crate::encoder::Rows;
use crate::param::UNBOUND;
use crate::Cx;
use ntr_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dropout tape: the mask a training forward drew, `None` at `p = 0`.
pub type Mask = Option<Tensor>;

/// Inverted dropout: at train time each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1−p)`, so inference is a no-op.
///
/// A training forward draws its mask from the example's [`Cx`], from the
/// stream [`crate::Grads::new`] bound this layer to, so any number of
/// examples train through one `&self` at once. The layer's own RNG state
/// (seeded at construction) is where that stream stands at step start: the
/// training supervisor derives each example's stream from it and advances
/// it once per step, and checkpoints save and restore it.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    state: [u64; 4],
    pub(crate) at: usize,
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
            state: StdRng::seed_from_u64(seed).state(),
            at: UNBOUND,
        }
    }

    /// The state of this layer's own stream (see [`Dropout`]).
    pub fn state(&self) -> [u64; 4] {
        self.state
    }

    /// Restores a state read by [`Dropout::state`].
    pub fn set_state(&mut self, s: [u64; 4]) {
        self.state = s;
    }

    /// Training dropout of `rows` of an `n`-row activation, `x` holding
    /// those rows alone, and the mask the backward needs (`None` at
    /// `p = 0`). The mask is drawn for all `n` rows in row-major order and
    /// cut to `rows`, so the stream and each kept row's mask are those of
    /// [`Rows::All`].
    ///
    /// # Panics
    /// Panics if no visit bound this layer to one of `cx`'s streams.
    pub fn forward_train(&self, x: &Tensor, n: usize, rows: Rows, cx: &mut Cx) -> (Tensor, Mask) {
        let rng = cx.stream(self.at);
        if self.p == 0.0 {
            return (x.clone(), None);
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut shape = x.shape().to_vec();
        shape[0] = n;
        let mut mask = Tensor::from_fn(
            &shape,
            |_| {
                if rng.gen::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            },
        );
        if let Rows::Only(rows) = rows {
            mask = mask.gather_rows(rows);
        }
        (x.mul(&mask), Some(mask))
    }

    /// Propagates the gradient through the training forward's `mask`.
    pub fn backward(mask: Mask, dy: &Tensor) -> Tensor {
        match mask {
            Some(mask) => dy.mul(&mask),
            None => dy.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    /// A one-dropout model, bound to a context of its own.
    fn bound(p: f32, seed: u64) -> (Dropout, Cx) {
        struct One(Dropout);
        impl Layer for One {
            fn visit_params(&mut self, _: &mut dyn FnMut(&crate::Name, &mut crate::Param)) {}
            fn visit_rng_state(&mut self, f: &mut dyn FnMut(&crate::Name, &mut Dropout)) {
                f(&crate::Name::new("d"), &mut self.0);
            }
        }
        let mut one = One(Dropout::new(p, seed));
        let cx = Cx::new(&mut one);
        (one.0, cx)
    }

    fn train(p: f32, seed: u64, x: &Tensor) -> (Tensor, Option<Tensor>) {
        let (d, mut cx) = bound(p, seed);
        d.forward_train(x, x.dim(0), Rows::All, &mut cx)
    }

    #[test]
    fn zero_probability_is_identity_even_in_train() {
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(train(0.0, 1, &x), (x, None));
    }

    #[test]
    fn train_mask_zeroes_and_rescales() {
        let x = Tensor::ones(&[32, 32]);
        let (y, _) = train(0.5, 7, &x);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept = y.data().iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(zeros + kept, 1024, "values must be 0 or 1/(1-p)");
        // With p=0.5 over 1024 elements, both counts are overwhelmingly in (300, 724).
        assert!(zeros > 300 && zeros < 724, "zeros={zeros}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let x = Tensor::ones(&[8, 8]);
        let (y, mask) = train(0.5, 3, &x);
        let dx = Dropout::backward(mask, &Tensor::ones(&[8, 8]));
        // Gradient must be zero exactly where the activation was dropped.
        for (a, g) in y.data().iter().zip(dx.data()) {
            assert_eq!(*a == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn same_seed_same_mask_sequence() {
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(train(0.5, 9, &x), train(0.5, 9, &x));
    }

    /// A dropout no visit reached has no stream to draw from, even at
    /// `p = 0`: it panics instead of training on a private stream.
    #[test]
    #[should_panic(expected = "a dropout was never bound to a stream")]
    fn an_unbound_dropout_panics() {
        let (_, mut cx) = bound(0.5, 1);
        let x = Tensor::ones(&[2, 2]);
        let _ = Dropout::new(0.0, 1).forward_train(&x, 2, Rows::All, &mut cx);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1)")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
