//! Layer normalization over the feature dimension, with learned scale/shift.

use crate::{Layer, Name, Param};
use ntr_tensor::{simd, Tensor};

/// LayerNorm: per-row normalization of a `[n, d]` tensor followed by a
/// learned affine transform `γ·x̂ + β`.
///
/// The backward pass uses the standard closed form
/// `dx = (γ/σ) · (dŷ − mean(dŷ) − x̂·mean(dŷ·x̂))` where `dŷ = dy·γ`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale, shape `[d]`, initialized to ones.
    pub gamma: Param,
    /// Shift, shape `[d]`, initialized to zeros.
    pub beta: Param,
    eps: f32,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// A new LayerNorm over `d` features with ε = 1e-5.
    pub fn new(d: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones(&[d])),
            beta: Param::new(Tensor::zeros(&[d])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature count this layer normalizes over.
    pub fn dim(&self) -> usize {
        self.gamma.value.numel()
    }

    /// Normalizes each row of `x: [n, d]`; caches normalized activations.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (out, xhat, inv_std) = self.compute(x);
        self.cache = Some(Cache { xhat, inv_std });
        out
    }

    /// Forward without caching, for inference paths.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        self.compute(x).0
    }

    fn compute(&self, x: &Tensor) -> (Tensor, Tensor, Vec<f32>) {
        assert_eq!(x.ndim(), 2, "LayerNorm expects [n, d], got {:?}", x.shape());
        let d = self.dim();
        assert_eq!(x.dim(1), d, "LayerNorm dim mismatch: {} vs {d}", x.dim(1));
        let n = x.dim(0);
        let mut xhat = Tensor::zeros(&[n, d]);
        let mut out = Tensor::zeros(&[n, d]);
        let mut inv_std = Vec::with_capacity(n);
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        // SIMD captured once for the whole call; the scalar fallbacks of
        // these helpers replicate the original loops' operation order, so
        // default builds stay bit-identical to the pre-SIMD kernel.
        let on = simd::active();
        for r in 0..n {
            let row = x.row(r);
            let mean = simd::sum(on, row) / d as f32;
            let var = simd::sq_dev_sum(on, row, mean) / d as f32;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.push(istd);
            simd::shift_scale(on, xhat.row_mut(r), row, mean, istd);
            simd::affine(on, out.row_mut(r), xhat.row(r), gamma, beta);
        }
        (out, xhat, inv_std)
    }

    /// Accumulates γ/β grads and returns `d loss / d x`.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let Cache { xhat, inv_std } = self
            .cache
            .take()
            .expect("LayerNorm::backward called without a cached forward");
        let (n, d) = (xhat.dim(0), xhat.dim(1));
        assert_eq!(
            dy.shape(),
            xhat.shape(),
            "LayerNorm::backward shape mismatch"
        );

        // Parameter grads.
        self.gamma.accumulate(&dy.mul(&xhat).sum_rows());
        self.beta.accumulate(&dy.sum_rows());

        // Input grad. (Same SIMD policy as `compute`: scalar fallbacks are
        // the original loops, the fused pass included.)
        let mut dx = Tensor::zeros(&[n, d]);
        let gamma = self.gamma.value.data();
        let on = simd::active();
        let mut dyh = vec![0.0f32; d];
        for (r, &istd) in inv_std.iter().enumerate().take(n) {
            let dyr = dy.row(r);
            let xhr = xhat.row(r);
            simd::mul_into(on, &mut dyh, dyr, gamma);
            let (sum_dyh, dot_dyh_xh) = simd::sum_and_dot(on, &dyh, xhr);
            let mean_dyh = sum_dyh / d as f32;
            let mean_dyh_xh = dot_dyh_xh / d as f32;
            simd::ln_dx_row(on, dx.row_mut(r), &dyh, xhr, istd, mean_dyh, mean_dyh_xh);
        }
        dx
    }
}

impl Layer for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        f(&Name::new("gamma"), &mut self.gamma);
        f(&Name::new("beta"), &mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, numeric_grad};
    use crate::init::SeededInit;

    #[test]
    fn output_rows_are_normalized() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0], &[2, 4]);
        let y = ln.forward(&x);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn affine_params_apply() {
        let mut ln = LayerNorm::new(2);
        ln.gamma.value.data_mut().copy_from_slice(&[2.0, 2.0]);
        ln.beta.value.data_mut().copy_from_slice(&[1.0, 1.0]);
        let y = ln.forward(&Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]));
        // x̂ = [-1, 1] (up to eps), so y ≈ [-1, 3].
        assert!((y.at(&[0, 0]) + 1.0).abs() < 1e-2);
        assert!((y.at(&[0, 1]) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn gradcheck_input_and_params() {
        let mut init = SeededInit::new(4);
        let mut ln = LayerNorm::new(5);
        ln.gamma.value = init.uniform(&[5], 0.5, 1.5);
        ln.beta.value = init.uniform(&[5], -0.5, 0.5);
        let x = init.uniform(&[3, 5], -2.0, 2.0);

        let _ = ln.forward(&x);
        // Weighted-sum loss keeps the check sensitive to all directions.
        let dy = init.uniform(&[3, 5], -1.0, 1.0);
        let dx = ln.backward(&dy);

        let gamma = ln.gamma.value.clone();
        let beta = ln.beta.value.clone();
        let dyc = dy.clone();
        let num_dx = numeric_grad(&x, 1e-2, |x| {
            let mut probe = LayerNorm::new(5);
            probe.gamma.value = gamma.clone();
            probe.beta.value = beta.clone();
            probe.forward_inference(x).mul(&dyc).sum()
        });
        assert_close(&dx, &num_dx, 2e-2, "layernorm dx");

        let xc = x.clone();
        let betac = beta.clone();
        let num_dg = numeric_grad(&gamma, 1e-2, |g| {
            let mut probe = LayerNorm::new(5);
            probe.gamma.value = g.clone();
            probe.beta.value = betac.clone();
            probe.forward_inference(&xc).mul(&dyc).sum()
        });
        assert_close(&ln.gamma.grad, &num_dg, 2e-2, "layernorm dgamma");
    }

    #[test]
    fn constant_row_does_not_produce_nan() {
        let mut ln = LayerNorm::new(3);
        let y = ln.forward(&Tensor::full(&[1, 3], 5.0));
        assert!(y.data().iter().all(|x| x.is_finite()));
        let dx = ln.backward(&Tensor::ones(&[1, 3]));
        assert!(dx.data().iter().all(|x| x.is_finite()));
    }
}
