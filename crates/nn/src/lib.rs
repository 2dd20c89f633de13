//! # ntr-nn
//!
//! Neural-network layers, losses, optimizers and weight serialization for the
//! `ntr` workspace, built on [`ntr_tensor`].
//!
//! ## Architecture
//!
//! Every layer is a plain struct owning its [`Param`]s; it keeps no state
//! between calls, and both paths run through `&self`:
//!
//! * **Inference** is `forward` (`infer` on the encoder blocks): it records
//!   nothing and applies no dropout, so one set of weights serves any
//!   number of threads at once. [`Rows`] says which output rows a caller
//!   reads, in inference and in training alike: [`Rows::CLS`] runs the
//!   last layer for the `[CLS]` row alone, bit-identical to row 0 of
//!   [`Rows::All`].
//! * **Training** goes through an example's context [`Cx`], which holds its
//!   flat gradient buffer ([`Grads`]) and its dropout streams:
//!   1. `forward_train(&self, x, ..)` computes the output and returns it
//!      with the layer's *tape*, the activations its backward needs;
//!   2. `backward(&self, tape, dy, cx)` consumes the tape, **accumulates**
//!      parameter gradients into `cx.grads` at each parameter's offset, and
//!      returns the gradient with respect to the layer input;
//!   3. [`optim::Adam::step`] updates every parameter from the gradients
//!      in visit order, after which the caller zeroes them.
//!
//!   [`Grads::new`] binds a model once: each parameter to its offset and
//!   each [`Dropout`] to its stream, in [`Layer::visit_params`] and
//!   [`Layer::visit_rng_state`] order. A parameter or dropout the visits
//!   do not reach panics on first use instead of training on the side.
//!
//! Both paths run the same kernels in the same order, so an inference
//! output is bit-identical to the training forward's with dropout off.
//!
//! Backward passes are hand-derived rather than generic autodiff: the
//! model zoo in `ntr-models` only needs a fixed set of blocks, and explicit
//! code is easier to verify. Every layer's gradient is pinned by a
//! finite-difference check in its unit tests (see [`gradcheck`]).
//!
//! Sequences are processed unbatched (`[seq_len, d_model]` matrices), which
//! keeps shapes two-dimensional and the kernels auditable; a batch's
//! examples train on contexts of their own whose gradients [`merge_grads`]
//! folds in order.
//!
//! ## Example: one training step of a tiny MLP
//!
//! ```
//! use ntr_nn::{encoder::FeedForward, loss::softmax_cross_entropy, optim::Adam, Cx};
//! use ntr_tensor::Tensor;
//!
//! // 4 → 8 → GELU → 4: paths "lin1/w", "lin1/b", "lin2/w", "lin2/b".
//! let mut mlp = FeedForward::new(4, 8, &mut ntr_nn::init::SeededInit::new(1));
//! let mut cx = Cx::new(&mut mlp);
//! let mut adam = Adam::new(1e-2);
//!
//! let (logits, tape) = mlp.forward_train(Tensor::ones(&[2, 4]));
//! let (loss, dlogits) = softmax_cross_entropy(&logits, &[0, 2], None);
//! assert!(loss.is_finite());
//! mlp.backward(tape, &dlogits, &mut cx);
//! adam.step(&mut mlp, &cx.grads);
//! cx.grads.zero();
//! ```

pub mod activation;
pub mod attention;
pub mod decoder;
pub mod dropout;
pub mod embedding;
pub mod encoder;
mod grads;
pub mod init;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod optim;
pub mod param;
pub mod serialize;

pub use activation::{Gelu, Tanh};
pub use attention::{AttnMask, MultiHeadAttention};
pub use decoder::{Decoder, DecoderLayer};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use encoder::{Encoder, EncoderLayer, Rows};
pub use grads::{merge_grads, Cx, Grads};
pub use layernorm::LayerNorm;
pub use linear::{Linear, QuantizedLinear};
pub use param::Param;

/// A parameter's or RNG stream's `/`-separated path, such as
/// `encoder/layer0/attn/wq/w`, held as segments borrowed on the visiting
/// stack: it is formatted only when displayed, so a visit whose callback
/// ignores names allocates nothing for them. `to_string()` gives the path
/// that [`serialize`] keys files by.
#[derive(Debug, Clone, Copy)]
pub struct Name<'a> {
    head: Segment<'a>,
    tail: Option<&'a Name<'a>>,
}

/// One segment of a [`Name`]: a field, or `layer{i}` for the `i`-th layer
/// of a stack.
#[derive(Debug, Clone, Copy)]
pub enum Segment<'a> {
    /// A named child or leaf.
    Field(&'a str),
    /// The `i`-th layer of a stack, displayed as `layer{i}`.
    Layer(usize),
}

impl<'a> From<&'a str> for Segment<'a> {
    fn from(s: &'a str) -> Self {
        Segment::Field(s)
    }
}

impl<'a> Name<'a> {
    /// The one-segment name of a leaf parameter or RNG stream.
    pub fn new(leaf: &'a str) -> Self {
        Self {
            head: Segment::Field(leaf),
            tail: None,
        }
    }
}

impl std::fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.head {
            Segment::Field(s) => f.write_str(s)?,
            Segment::Layer(i) => write!(f, "layer{i}")?,
        }
        match self.tail {
            Some(tail) => write!(f, "/{tail}"),
            None => Ok(()),
        }
    }
}

/// Visitation interface over a layer's trainable parameters and dropouts.
///
/// The [`Name`] passed to the visitor is a `/`-separated path that uniquely
/// identifies the parameter within the layer; composite layers prefix the
/// names of their children with [`visit_child`]. Paths are the keys used by
/// [`serialize`]; in memory, training state is positional (visit order).
pub trait Layer {
    /// Calls `f` once per trainable parameter, in a deterministic order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param));

    /// Total number of trainable scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, p| n += p.value.numel());
        n
    }

    /// Calls `f` once per [`Dropout`] (a mask stream), in a deterministic
    /// order, with a path like [`Layer::visit_params`] uses. Checkpoints
    /// capture *and* restore each stream's state through it, and
    /// [`Grads::new`] binds each dropout to its stream in a [`Cx`].
    ///
    /// Layers without dropout inherit this no-op default; composite layers
    /// must forward to children that override it, or training panics at
    /// the first dropout left unbound.
    fn visit_rng_state(&mut self, _f: &mut dyn FnMut(&Name, &mut Dropout)) {}
}

/// The visitor a composite layer hands a child: it passes `f` each of the
/// child's parameters or RNG streams under `prefix/`, e.g.
/// `self.attn.visit_params(&mut visit_child("attn", f))`.
pub fn visit_child<'f, T>(
    prefix: impl Into<Segment<'f>>,
    f: &'f mut dyn FnMut(&Name, &mut T),
) -> impl FnMut(&Name, &mut T) + 'f {
    let head = prefix.into();
    move |name: &Name, x: &mut T| {
        let tail = Some(name);
        f(&Name { head, tail }, x)
    }
}

/// Finite-difference gradient checking utilities shared by layer tests.
pub mod gradcheck {
    use crate::{Grads, Param};
    use ntr_tensor::Tensor;

    /// `p`'s gradient in `grads`, as a tensor of `p`'s shape.
    pub fn grad(grads: &Grads, p: &Param) -> Tensor {
        Tensor::from_vec(grads.of(p).to_vec(), p.value.shape())
    }

    /// Numerically estimates `d loss / d x` for a scalar-valued function by
    /// central differences with step `eps`.
    pub fn numeric_grad(x: &Tensor, eps: f32, mut loss: impl FnMut(&Tensor) -> f32) -> Tensor {
        let mut g = Tensor::zeros(x.shape());
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            g.data_mut()[i] = (loss(&xp) - loss(&xm)) / (2.0 * eps);
        }
        g
    }

    /// Asserts that `analytic` and `numeric` agree within a relative
    /// tolerance appropriate for f32 central differences.
    pub fn assert_close(analytic: &Tensor, numeric: &Tensor, tol: f32, what: &str) {
        assert_eq!(analytic.shape(), numeric.shape(), "{what}: shape mismatch");
        for i in 0..analytic.numel() {
            let a = analytic.data()[i];
            let n = numeric.data()[i];
            let denom = a.abs().max(n.abs()).max(1.0);
            assert!(
                (a - n).abs() / denom < tol,
                "{what}: gradient mismatch at {i}: analytic={a} numeric={n}"
            );
        }
    }
}
