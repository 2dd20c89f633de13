//! Trainable parameters: a value tensor and where its gradient lies.

use ntr_tensor::Tensor;

/// The offset of a parameter (or the stream index of a dropout) that no
/// [`crate::Grads::new`] visit has bound.
pub(crate) const UNBOUND: usize = usize::MAX;

/// A trainable tensor.
///
/// Optimizers write `value`. The gradient lives outside the layer, in a
/// flat [`crate::Grads`] buffer: `at` is the parameter's offset there, in
/// [`crate::Layer::visit_params`] order, bound once per model by
/// [`crate::Grads::new`]. A layer's backward writes its parameters'
/// gradients through [`crate::Grads::add`], which panics on a parameter
/// that was never bound.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    pub(crate) at: usize,
}

impl Param {
    /// Wraps an initialized tensor as a trainable parameter.
    pub fn new(value: Tensor) -> Self {
        Self { value, at: UNBOUND }
    }

    /// Replaces the values.
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
