//! # ntr-nn
//!
//! Neural-network layers, losses, optimizers and weight serialization for the
//! `ntr` workspace, built on [`ntr_tensor`].
//!
//! ## Architecture
//!
//! Every layer is a plain struct owning its [`Param`]s and an activation
//! cache. Inference and training are two paths over the same weights:
//!
//! * **Inference** is `&self`: [`Linear::forward_inference`],
//!   [`LayerNorm::forward_inference`], [`Gelu::forward_inference`],
//!   [`Embedding::lookup`] and the `infer` methods of
//!   [`MultiHeadAttention`], [`encoder::FeedForward`], [`EncoderLayer`] and
//!   [`Encoder`] record nothing and apply no dropout, so one set of weights
//!   can serve any number of threads at once. `forward(.., train = false)`
//!   on the encoder blocks *is* `infer`; it leaves nothing for a backward
//!   pass, and a `backward` after it panics ("without a cached forward").
//!   [`Rows`] says which output rows a caller reads, in inference and in
//!   training alike: [`Rows::CLS`] runs the last layer for the `[CLS]` row
//!   alone, bit-identical to row 0 of [`Rows::All`].
//! * **Training** follows the classic three-step contract:
//!   1. `forward(&mut self, x, ..)` (with `train = true` where the layer
//!      takes the flag) computes the output **and records the activations**
//!      needed by the backward pass;
//!   2. `backward(&mut self, grad_out)` consumes the cache, **accumulates**
//!      parameter gradients into each `Param`, and returns the gradient with
//!      respect to the layer input;
//!   3. [`optim::Adam::step`] visits all parameters via
//!      [`Layer::visit_params`] and updates each at its offset in Adam's
//!      flat moment buffers, after which `zero_grad` resets accumulators.
//!
//! Both paths run the same kernels in the same order, so an inference
//! output is bit-identical to the training forward's with dropout off.
//!
//! Backward passes are hand-derived rather than taped: the model zoo in
//! `ntr-models` only needs a fixed set of blocks, and explicit code is easier
//! to verify. Every layer's gradient is pinned by a finite-difference check in
//! its unit tests (see [`gradcheck`]).
//!
//! Sequences are processed unbatched (`[seq_len, d_model]` matrices), which
//! keeps shapes two-dimensional and the kernels auditable; a batch's examples
//! train on per-worker clones whose gradients [`merge_grads`] folds in order.
//!
//! ## Example: one training step of a tiny MLP
//!
//! ```
//! use ntr_nn::{encoder::FeedForward, loss::softmax_cross_entropy, optim::Adam, Layer};
//! use ntr_tensor::Tensor;
//!
//! // 4 → 8 → GELU → 4: paths "lin1/w", "lin1/b", "lin2/w", "lin2/b".
//! let mut mlp = FeedForward::new(4, 8, &mut ntr_nn::init::SeededInit::new(1));
//! let mut adam = Adam::new(1e-2);
//!
//! let logits = mlp.forward(&Tensor::ones(&[2, 4]));
//! let (loss, dlogits) = softmax_cross_entropy(&logits, &[0, 2], None);
//! assert!(loss.is_finite());
//! mlp.backward(&dlogits);
//! adam.step(&mut mlp);
//! mlp.zero_grad();
//! ```

pub mod activation;
pub mod attention;
pub mod decoder;
pub mod dropout;
pub mod embedding;
pub mod encoder;
pub mod init;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod optim;
pub mod param;
pub mod serialize;

pub use activation::{Gelu, Relu, Tanh};
pub use attention::{AttnMask, MultiHeadAttention};
pub use decoder::{Decoder, DecoderLayer};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use encoder::{Encoder, EncoderLayer, Rows};
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

/// Visitation interface over a layer's trainable parameters.
///
/// The [`Name`] passed to the visitor is a `/`-separated path that uniquely
/// identifies the parameter within the layer; composite layers prefix the
/// names of their children with [`visit_child`]. Paths are the keys used by
/// [`serialize`]; in memory, training state is positional (visit order).
pub trait Layer {
    /// Calls `f` once per trainable parameter, in a deterministic order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param));

    /// Sets all parameter gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, p| p.zero_grad());
    }

    /// Total number of trainable scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, p| n += p.value.numel());
        n
    }

    /// Calls `f` once per internal RNG (dropout mask sources), in a
    /// deterministic order, with a path like [`Layer::visit_params`] uses.
    /// The visitor receives the raw state words and may mutate them, which
    /// is how checkpoints capture *and* restore the exact mask stream
    /// across a kill/resume boundary.
    ///
    /// Layers without stochastic state inherit this no-op default;
    /// composite layers must forward to children that override it.
    fn visit_rng_state(&mut self, _f: &mut dyn FnMut(&Name, &mut [u64; 4])) {}
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

/// A copy of a layer's gradients in visit order: one set for [`merge_grads`].
pub fn grads_of(layer: &mut dyn Layer) -> Vec<ntr_tensor::Tensor> {
    let mut grads = Vec::new();
    layer.visit_params(&mut |_, p| grads.push(p.grad.clone()));
    grads
}

/// Adds gradient sets (one tensor per parameter, in visit order) into the
/// master's gradients, set after set, and zeroes them: the sum depends on
/// the sets' order alone. TaBERT, bi-encoder retrieval and the training
/// supervisor fold their clones' and examples' gradients with it.
///
/// # Panics
/// Panics when a set does not match the master's parameters.
pub fn merge_grads(master: &mut dyn Layer, sets: &mut [Vec<ntr_tensor::Tensor>]) {
    // Small blocks keep the master's slice in L1 across the sets and skip
    // a set's untouched (+0.0) rows, such as most of an embedding table.
    const BLOCK: usize = 64;
    let mut i = 0;
    master.visit_params(&mut |name, p| {
        for set in sets.iter() {
            assert_eq!(set[i].shape(), p.grad.shape(), "gradient set at {name}");
        }
        for (b, block) in p.grad.data_mut().chunks_mut(BLOCK).enumerate() {
            for set in sets.iter_mut() {
                let src = &mut set[i].data_mut()[b * BLOCK..][..block.len()];
                if src.iter().fold(0, |bits, s| bits | s.to_bits()) != 0 {
                    for (g, s) in block.iter_mut().zip(src) {
                        *g += std::mem::take(s);
                    }
                }
            }
        }
        i += 1;
    });
    assert!(sets.iter().all(|s| s.len() == i), "gradient set length");
}

/// Finite-difference gradient checking utilities shared by layer tests.
pub mod gradcheck {
    use ntr_tensor::Tensor;

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
