//! Output heads: the survey's "output level" extension point — "manifested
//! mostly by the addition of classification layers" (§2.3).

use ntr_nn::init::SeededInit;
use ntr_nn::layernorm::LayerNormTape;
use ntr_nn::{visit_child, Cx, Gelu, Layer, LayerNorm, Linear, Name, Param, Tanh};
use ntr_tensor::Tensor;
use std::ops::Range;

/// Masked-token prediction head: `Linear → GELU → LayerNorm → Linear(vocab)`
/// (the BERT MLM head shape). Also serves as TURL's MER head with the
/// entity vocabulary as its label space, and as TAPEX's generation head.
#[derive(Debug, Clone)]
pub struct MlmHead {
    transform: Linear,
    ln: LayerNorm,
    decoder: Linear,
}

/// What [`MlmHead::backward`] needs of a training forward: the states, the
/// GELU's input, the LayerNorm's tape and the decoder's input.
#[derive(Debug)]
pub struct MlmHeadTape(Tensor, Tensor, LayerNormTape, Tensor);

impl MlmHead {
    /// New head mapping `d_model` states to `vocab` logits.
    pub fn new(d_model: usize, vocab: usize, init: &mut SeededInit) -> Self {
        Self {
            transform: Linear::new(d_model, d_model, &mut init.fork()),
            ln: LayerNorm::new(d_model),
            decoder: Linear::new(d_model, vocab, &mut init.fork()),
        }
    }

    /// Label-space size.
    pub fn vocab(&self) -> usize {
        self.decoder.d_out()
    }

    /// `[m, d] → [m, vocab]` logits for inference, each row from its own
    /// state: an evaluation hands it the states of the rows it scores alone
    /// ([`SequenceEncoder::infer`](crate::SequenceEncoder::infer)).
    pub fn forward(&self, states: &Tensor) -> Tensor {
        let h = self.transform.forward(states);
        self.decoder.forward(&self.ln.forward(&Gelu.forward(&h)))
    }

    /// [`MlmHead::forward`] and its tape. An MLM step hands it the loss
    /// rows' states alone
    /// ([`SequenceEncoder::encode_train`](crate::SequenceEncoder::encode_train)).
    pub fn forward_train(&self, states: &Tensor) -> (Tensor, MlmHeadTape) {
        let h = self.transform.forward(states);
        let (normed, ln) = self.ln.forward_train(&Gelu.forward(&h));
        let logits = self.decoder.forward(&normed);
        (logits, MlmHeadTape(states.clone(), h, ln, normed))
    }

    /// Backward; returns `d/d states`.
    pub fn backward(&self, tape: MlmHeadTape, dlogits: &Tensor, cx: &mut Cx) -> Tensor {
        let MlmHeadTape(states, h, ln, normed) = tape;
        let dg = self
            .ln
            .backward(ln, &self.decoder.backward(&normed, dlogits, cx), cx);
        self.transform.backward(&states, &Gelu.backward(h, &dg), cx)
    }

    /// Rows of the decoder weight, used as output-space embeddings (e.g.
    /// TURL entity embeddings for linking): shape `[vocab, d]` transposed
    /// view of the `[d, vocab]` weight.
    pub fn label_embedding(&self, label: usize) -> Tensor {
        let w = &self.decoder.w.value; // [d, vocab]
        let d = w.dim(0);
        let mut out = Tensor::zeros(&[1, d]);
        for i in 0..d {
            out.data_mut()[i] = w.at(&[i, label]);
        }
        out
    }
}

impl Layer for MlmHead {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.transform
            .visit_params(&mut visit_child("transform", f));
        self.ln.visit_params(&mut visit_child("ln", f));
        self.decoder.visit_params(&mut visit_child("decoder", f));
    }
}

/// Sequence-classification head: pooled `[CLS]` state → `Tanh` pooler →
/// logits (BERT's sentence-classification shape). Used for NLI, aggregate
/// prediction, and CTA.
#[derive(Debug, Clone)]
pub struct ClassifierHead {
    pooler: Linear,
    out: Linear,
}

/// What [`ClassifierHead::backward`] needs of a training forward: the
/// pooled state and the pooler's output.
#[derive(Debug)]
pub struct ClassifierHeadTape(Tensor, Tensor);

impl ClassifierHead {
    /// New head with `n_classes` outputs.
    pub fn new(d_model: usize, n_classes: usize, init: &mut SeededInit) -> Self {
        Self {
            pooler: Linear::new(d_model, d_model, &mut init.fork()),
            out: Linear::new(d_model, n_classes, &mut init.fork()),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.out.d_out()
    }

    /// `[1, d]` pooled state → `[1, n_classes]` logits, for inference.
    pub fn forward(&self, pooled: &Tensor) -> Tensor {
        self.out
            .forward(&Tanh.forward(&self.pooler.forward(pooled)))
    }

    /// [`ClassifierHead::forward`] and its tape.
    pub fn forward_train(&self, pooled: &Tensor) -> (Tensor, ClassifierHeadTape) {
        let h = Tanh.forward(&self.pooler.forward(pooled));
        (self.out.forward(&h), ClassifierHeadTape(pooled.clone(), h))
    }

    /// Backward; returns `d/d pooled`.
    pub fn backward(&self, tape: ClassifierHeadTape, dlogits: &Tensor, cx: &mut Cx) -> Tensor {
        let ClassifierHeadTape(pooled, h) = tape;
        let dh = self.out.backward(&h, dlogits, cx);
        self.pooler.backward(&pooled, &Tanh.backward(h, &dh), cx)
    }
}

impl Layer for ClassifierHead {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.pooler.visit_params(&mut visit_child("pooler", f));
        self.out.visit_params(&mut visit_child("out", f));
    }
}

/// Per-token scoring head (one logit per token) — TAPAS-style cell
/// selection scores cells by mean token score.
#[derive(Debug, Clone)]
pub struct TokenScoreHead {
    score: Linear,
}

impl TokenScoreHead {
    /// New single-logit head.
    pub fn new(d_model: usize, init: &mut SeededInit) -> Self {
        Self {
            score: Linear::new(d_model, 1, &mut init.fork()),
        }
    }

    /// `[n, d] → [n, 1]` per-token logits, for inference.
    pub fn forward(&self, states: &Tensor) -> Tensor {
        self.score.forward(states)
    }

    /// Backward from the training forward's input `states` (its tape, as
    /// for [`Linear`]); returns `d/d states`.
    pub fn backward(&self, states: &Tensor, dlogits: &Tensor, cx: &mut Cx) -> Tensor {
        self.score.backward(states, dlogits, cx)
    }
}

impl Layer for TokenScoreHead {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.score.visit_params(&mut visit_child("score", f));
    }
}

/// Mean-pools token states over a span: `[n, d] → [1, d]`.
///
/// # Panics
/// Panics on an empty or out-of-bounds span.
pub fn pool_mean(states: &Tensor, span: &Range<usize>) -> Tensor {
    assert!(
        !span.is_empty() && span.end <= states.dim(0),
        "pool_mean: bad span {span:?} for {} tokens",
        states.dim(0)
    );
    states
        .rows(span.start, span.end)
        .mean_rows()
        .reshape(&[1, states.dim(1)])
}

/// Distributes a pooled gradient back over the span (the backward of
/// [`pool_mean`]): each token receives `d_pooled / span_len`.
pub fn pool_mean_backward(d_pooled: &Tensor, span: &Range<usize>, seq_len: usize) -> Tensor {
    let d = d_pooled.numel();
    let mut out = Tensor::zeros(&[seq_len, d]);
    let scale = 1.0 / span.len() as f32;
    for i in span.clone() {
        for j in 0..d {
            out.data_mut()[i * d + j] = d_pooled.data()[j] * scale;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_nn::gradcheck::{assert_close, numeric_grad};

    #[test]
    fn mlm_head_shapes_and_gradcheck() {
        let mut h = MlmHead::new(8, 20, &mut SeededInit::new(1));
        let mut cx = Cx::new(&mut h);
        let x = SeededInit::new(2).uniform(&[3, 8], -1.0, 1.0);
        let (logits, tape) = h.forward_train(&x);
        assert_eq!(logits.shape(), &[3, 20]);
        assert_eq!(logits, h.forward(&x));
        let dy = SeededInit::new(3).uniform(&[3, 20], -0.1, 0.1);
        let dx = h.backward(tape, &dy, &mut cx);
        let num = numeric_grad(&x, 5e-3, |x| h.forward(x).mul(&dy).sum());
        assert_close(&dx, &num, 3e-2, "mlm head dx");
    }

    #[test]
    fn label_embedding_matches_decoder_column() {
        let h = MlmHead::new(4, 6, &mut SeededInit::new(4));
        let e = h.label_embedding(2);
        assert_eq!(e.shape(), &[1, 4]);
        for i in 0..4 {
            assert_eq!(e.data()[i], h.decoder.w.value.at(&[i, 2]));
        }
    }

    #[test]
    fn classifier_head_gradcheck() {
        let mut h = ClassifierHead::new(6, 3, &mut SeededInit::new(5));
        let mut cx = Cx::new(&mut h);
        let x = SeededInit::new(6).uniform(&[1, 6], -1.0, 1.0);
        let (logits, tape) = h.forward_train(&x);
        assert_eq!(logits.shape(), &[1, 3]);
        let dx = h.backward(tape, &Tensor::ones(&[1, 3]), &mut cx);
        let num = numeric_grad(&x, 5e-3, |x| h.forward(x).sum());
        assert_close(&dx, &num, 3e-2, "cls head dx");
    }

    #[test]
    fn token_score_head_is_one_logit_per_token() {
        let h = TokenScoreHead::new(4, &mut SeededInit::new(7));
        let x = Tensor::ones(&[5, 4]);
        assert_eq!(h.forward(&x).shape(), &[5, 1]);
    }

    #[test]
    fn pool_mean_and_backward_are_adjoint() {
        let states = SeededInit::new(8).uniform(&[6, 4], -1.0, 1.0);
        let span = 2..5;
        let pooled = pool_mean(&states, &span);
        assert_eq!(pooled.shape(), &[1, 4]);
        // Numeric check of the backward.
        let dp = SeededInit::new(9).uniform(&[1, 4], -1.0, 1.0);
        let dx = pool_mean_backward(&dp, &span, 6);
        let dpc = dp.clone();
        let num = numeric_grad(&states, 1e-2, |s| pool_mean(s, &span).mul(&dpc).sum());
        assert_close(&dx, &num, 1e-2, "pool_mean backward");
    }

    #[test]
    #[should_panic(expected = "bad span")]
    fn pool_mean_rejects_empty_span() {
        let _ = pool_mean(&Tensor::ones(&[3, 2]), &(1..1));
    }
}
