//! Element-wise activations with cached backward passes.

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
/// bit-identical).
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache_x: Option<Tensor>,
}

impl Gelu {
    /// Applies GELU element-wise; caches the input.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_x = Some(x.clone());
        self.forward_inference(x)
    }

    /// Forward without caching, for inference paths.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
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

    /// Returns `dy ⊙ gelu'(x)`, consuming the cached input in place.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut x = self
            .cache_x
            .take()
            .expect("Gelu::backward called without a cached forward");
        let on = simd::active();
        x.zip_chunks_mut(dy, "gelu backward", |x, dy| simd::gelu_grad_mul(on, x, dy));
        x
    }
}

/// ReLU activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cache_x: Option<Tensor>,
}

impl Relu {
    /// Applies `max(0, x)` element-wise; caches the input.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_x = Some(x.clone());
        x.par_map(|v| v.max(0.0))
    }

    /// Returns `dy ⊙ 1[x > 0]`, consuming the cached input in place.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut x = self
            .cache_x
            .take()
            .expect("Relu::backward called without a cached forward");
        x.map_mut(|v| if v > 0.0 { 1.0 } else { 0.0 });
        x.mul_assign(dy);
        x
    }
}

/// Tanh activation (used for pooler heads).
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cache_y: Option<Tensor>,
}

impl Tanh {
    /// Applies `tanh` element-wise; caches the output.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = x.par_map(f32::tanh);
        self.cache_y = Some(y.clone());
        y
    }

    /// Returns `dy ⊙ (1 − y²)`, consuming the cached output in place.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut y = self
            .cache_y
            .take()
            .expect("Tanh::backward called without a cached forward");
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
        let mut g = Gelu::default();
        let _ = g.forward(&x);
        let dx = g.backward(&Tensor::ones(&[1, 5]));
        let num = numeric_grad(&x, 1e-3, |x| x.map(gelu).sum());
        assert_close(&dx, &num, 1e-2, "gelu");
    }

    #[test]
    fn relu_masks_negative() {
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]);
        let mut r = Relu::default();
        assert_eq!(r.forward(&x).data(), &[0.0, 2.0]);
        let dx = r.backward(&Tensor::from_vec(vec![5.0, 5.0], &[1, 2]));
        assert_eq!(dx.data(), &[0.0, 5.0]);
    }

    #[test]
    fn tanh_gradcheck() {
        let x = Tensor::from_vec(vec![-1.5, 0.0, 0.7], &[1, 3]);
        let mut t = Tanh::default();
        let _ = t.forward(&x);
        let dx = t.backward(&Tensor::ones(&[1, 3]));
        let num = numeric_grad(&x, 1e-3, |x| x.map(f32::tanh).sum());
        assert_close(&dx, &num, 1e-2, "tanh");
    }
}
