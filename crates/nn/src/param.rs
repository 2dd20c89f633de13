//! Trainable parameters: a value tensor plus an accumulated gradient.

use ntr_tensor::Tensor;

/// A trainable tensor with its gradient accumulator.
///
/// Layers accumulate into `grad` during `backward`; optimizers read `grad`
/// and write `value`. A parameter carries no identity: optimizer state is
/// positional, at the parameter's offset in [`crate::Layer::visit_params`]
/// order (see [`crate::optim::Adam`]).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient, same shape as `value`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initialized tensor as a trainable parameter.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Accumulates `g` into the gradient.
    ///
    /// # Panics
    /// Panics if `g` has a different shape than the parameter.
    pub fn accumulate(&mut self, g: &Tensor) {
        self.grad.add_assign(g);
    }

    /// Replaces the values while keeping the gradient's shape.
    ///
    /// # Panics
    /// Panics if the new values have a different shape.
    pub fn load(&mut self, value: Tensor) {
        assert_eq!(
            self.value.shape(),
            value.shape(),
            "Param::load: shape mismatch {:?} vs {:?}",
            self.value.shape(),
            value.shape()
        );
        self.value = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let a = Param::new(Tensor::ones(&[2, 2]));
        assert!(a.grad.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn accumulate_then_zero() {
        let mut p = Param::new(Tensor::zeros(&[3]));
        p.accumulate(&Tensor::ones(&[3]));
        p.accumulate(&Tensor::ones(&[3]));
        assert_eq!(p.grad.data(), &[2.0, 2.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn load_replaces_values() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.load(Tensor::ones(&[2]));
        assert_eq!(p.value.data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn load_rejects_shape_change() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.load(Tensor::ones(&[3]));
    }
}
