//! Element-wise activations and their backward passes.

use ntr_tensor::{simd, Tensor};

/// The scalar GELU function, its derivative and the Padé fast form — the
/// element-wise definitions behind [`Gelu`], kept beside their vector
/// kernels in [`ntr_tensor::simd`].
pub use ntr_tensor::simd::{
    gelu_fast_scalar as gelu_fast, gelu_grad_scalar as gelu_grad, gelu_scalar as gelu,
};

/// GELU activation (tanh approximation, as used by BERT).
///
/// `gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`
///
/// Every pass captures [`simd::active`] once on the calling thread and hands
/// whole chunks to the [`ntr_tensor::simd`] kernels: with SIMD off they are
/// the scalar functions above applied per element, with SIMD on `tanh` goes
/// through the vector `exp` (tolerance-bounded; [`gelu_fast`] stays
/// bit-identical). The training forward is [`Gelu::forward`], and its tape
/// is the input.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gelu;

impl Gelu {
    /// Applies GELU element-wise.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let on = simd::active();
        x.par_map_chunks(|dst, src| simd::gelu(on, dst, src))
    }

    /// Forward with the fast approximate GELU ([`gelu_fast`]), for the
    /// int8 path where quantization noise already dwarfs the
    /// approximation error.
    pub fn forward_approx(&self, x: &Tensor) -> Tensor {
        let on = simd::active();
        x.par_map_chunks(|dst, src| simd::gelu_fast(on, dst, src))
    }

    /// Returns `dy ⊙ gelu'(x)` from the training forward's input `x`,
    /// computed in `x`'s buffer.
    pub fn backward(&self, mut x: Tensor, dy: &Tensor) -> Tensor {
        let on = simd::active();
        x.zip_chunks_mut(dy, "gelu backward", |x, dy| simd::gelu_grad_mul(on, x, dy));
        x
    }
}

/// Tanh activation (used for pooler heads). The training forward is
/// [`Tanh::forward`], and its tape is the output.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tanh;

impl Tanh {
    /// Applies `tanh` element-wise.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.par_map(f32::tanh)
    }

    /// Returns `dy ⊙ (1 − y²)` from the training forward's output `y`.
    pub fn backward(&self, mut y: Tensor, dy: &Tensor) -> Tensor {
        y.map_mut(|v| 1.0 - v * v);
        y.mul_assign(dy);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, numeric_grad};

    #[test]
    fn fast_gelu_tracks_exact_gelu() {
        let mut worst = 0.0f32;
        for i in -8000..=8000 {
            let x = i as f32 * 1e-3;
            worst = worst.max((gelu_fast(x) - gelu(x)).abs());
        }
        assert!(worst < 1e-3, "gelu_fast deviates by {worst}");
        // Exactly identity-like in the saturated tails, like the real thing.
        assert!((gelu_fast(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_fast(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_known_values() {
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // GELU is asymptotically identity for large x, ~0 for very negative x.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_gradcheck() {
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.5, 2.0], &[1, 5]);
        let dx = Gelu.backward(x.clone(), &Tensor::ones(&[1, 5]));
        let num = numeric_grad(&x, 1e-3, |x| x.map(gelu).sum());
        assert_close(&dx, &num, 1e-2, "gelu");
    }

    #[test]
    fn tanh_gradcheck() {
        let x = Tensor::from_vec(vec![-1.5, 0.0, 0.7], &[1, 3]);
        let dx = Tanh.backward(Tanh.forward(&x), &Tensor::ones(&[1, 3]));
        let num = numeric_grad(&x, 1e-3, |x| x.map(f32::tanh).sum());
        assert_close(&dx, &num, 1e-2, "tanh");
    }
}
