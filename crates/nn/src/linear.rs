//! Fully-connected layer `y = x·W + b` with cached-activation backward,
//! plus an int8 inference snapshot ([`QuantizedLinear`]).

use crate::init::SeededInit;
use crate::{Layer, Name, Param};
use ntr_tensor::quant::{self, QuantizedMatrix};
use ntr_tensor::Tensor;

/// An affine transformation from `d_in` to `d_out` features.
///
/// Forward caches the input so [`Linear::backward`] can compute
/// `dW = xᵀ·dy`, `db = Σ_rows dy`, and return `dx = dy·Wᵀ`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, shape `[d_in, d_out]`.
    pub w: Param,
    /// Bias vector, shape `[d_out]`.
    pub b: Param,
    /// The training forward's input.
    cache: Option<Tensor>,
}

impl Linear {
    /// A new Xavier-initialized layer.
    pub fn new(d_in: usize, d_out: usize, init: &mut SeededInit) -> Self {
        Self {
            w: Param::new(init.xavier(d_in, d_out)),
            b: Param::new(Tensor::zeros(&[d_out])),
            cache: None,
        }
    }

    /// Input feature count.
    pub fn d_in(&self) -> usize {
        self.w.value.dim(0)
    }

    /// Output feature count.
    pub fn d_out(&self) -> usize {
        self.w.value.dim(1)
    }

    /// `y = x·W + b` for `x: [n, d_in]`; caches `x` for the backward pass.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.forward_inference(x);
        self.cache = Some(x.clone());
        y
    }

    /// Same as [`forward`](Self::forward) but without caching — for
    /// inference paths that will never call `backward`. Each output row
    /// depends on its own input row alone, so some of the rows of an input
    /// give the bits of those rows of the whole input's forward.
    pub fn forward_inference(&self, x: &Tensor) -> Tensor {
        x.matmul(&self.w.value).add_row_broadcast(&self.b.value)
    }

    /// Accumulates parameter grads and returns `d loss / d x`.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cache
            .take()
            .expect("Linear::backward called without a cached forward");
        self.w.accumulate(&x.matmul_tn(dy));
        self.b.accumulate(&dy.sum_rows());
        dy.matmul_nt(&self.w.value)
    }
}

impl Layer for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        f(&Name::new("w"), &mut self.w);
        f(&Name::new("b"), &mut self.b);
    }
}

/// An immutable int8 snapshot of a [`Linear`] for quantized inference:
/// the weight is quantized per *output column* (`ntr_tensor::quant`,
/// symmetric, scale = `max|w| / 127`) and the bias stays exact f32.
///
/// Scales are a pure function of the f32 weights — they are *not*
/// checkpointed; a reloaded checkpoint re-derives a bit-identical
/// snapshot (pinned by `ntr-models`' student round-trip test).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLinear {
    /// Per-output-column quantized weight, stored transposed `[d_out, d_in]`.
    pub wq: QuantizedMatrix,
    /// Exact f32 bias, shape `[d_out]`.
    pub b: Tensor,
}

impl QuantizedLinear {
    /// `y ≈ x·W + b` with activations quantized per row on the fly; `on`
    /// routes the integer dot products to the AVX2 lane (both lanes are
    /// bit-identical — the accumulation is exact `i32` math).
    pub fn forward(&self, on: bool, x: &Tensor) -> Tensor {
        quant::matmul_quantized(on, x, &self.wq).add_row_broadcast(&self.b)
    }

    /// Output feature count.
    pub fn d_out(&self) -> usize {
        self.wq.rows
    }
}

impl Linear {
    /// Snapshots this layer for the int8 inference path.
    pub fn quantized(&self) -> QuantizedLinear {
        QuantizedLinear {
            wq: quant::quantize_cols(&self.w.value),
            b: self.b.value.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, numeric_grad};

    fn make() -> Linear {
        Linear::new(3, 2, &mut SeededInit::new(11))
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = make();
        l.b.value.data_mut().copy_from_slice(&[1.0, -1.0]);
        let y = l.forward(&Tensor::zeros(&[4, 3]));
        assert_eq!(y.shape(), &[4, 2]);
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn gradcheck_input() {
        let mut l = make();
        let x = SeededInit::new(5).uniform(&[4, 3], -1.0, 1.0);
        let y = l.forward(&x);
        let dy = Tensor::ones(y.shape());
        let dx = l.backward(&dy);
        let w = l.w.value.clone();
        let b = l.b.value.clone();
        let num = numeric_grad(&x, 1e-2, |x| x.matmul(&w).add_row_broadcast(&b).sum());
        assert_close(&dx, &num, 1e-2, "linear dx");
    }

    #[test]
    fn gradcheck_weights_and_bias() {
        let mut l = make();
        let x = SeededInit::new(6).uniform(&[4, 3], -1.0, 1.0);
        let _ = l.forward(&x);
        let _ = l.backward(&Tensor::ones(&[4, 2]));
        let b = l.b.value.clone();
        let numw = numeric_grad(&l.w.value, 1e-2, |w| {
            x.matmul(w).add_row_broadcast(&b).sum()
        });
        assert_close(&l.w.grad, &numw, 1e-2, "linear dw");
        let w = l.w.value.clone();
        let numb = numeric_grad(&l.b.value, 1e-2, |b| {
            x.matmul(&w).add_row_broadcast(b).sum()
        });
        assert_close(&l.b.grad, &numb, 1e-2, "linear db");
    }

    #[test]
    fn grads_accumulate_across_calls() {
        let mut l = make();
        let x = Tensor::ones(&[1, 3]);
        for _ in 0..2 {
            let _ = l.forward(&x);
            let _ = l.backward(&Tensor::ones(&[1, 2]));
        }
        // db after two backward passes of all-ones dy = 2.
        assert_eq!(l.b.grad.data(), &[2.0, 2.0]);
        l.zero_grad();
        assert_eq!(l.b.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn backward_without_forward_panics() {
        let mut l = make();
        let _ = l.backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn quantized_snapshot_tracks_f32_and_rederives_identically() {
        let l = Linear::new(16, 8, &mut SeededInit::new(3));
        let x = SeededInit::new(4).uniform(&[5, 16], -2.0, 2.0);
        let exact = l.forward_inference(&x);
        let q = l.quantized();
        let approx = q.forward(ntr_tensor::simd::active(), &x);
        assert_eq!(approx.shape(), exact.shape());
        for (e, a) in exact.data().iter().zip(approx.data()) {
            assert!((e - a).abs() < 0.05, "int8 {a} too far from f32 {e}");
        }
        // Scales are derived, not stored: a second snapshot is identical.
        assert_eq!(q, l.quantized());
    }

    #[test]
    fn visit_params_order() {
        let mut l = make();
        let mut names = Vec::new();
        l.visit_params(&mut |n, _| names.push(n.to_string()));
        assert_eq!(names, vec!["w", "b"]);
        assert_eq!(l.num_params(), 3 * 2 + 2);
    }
}
