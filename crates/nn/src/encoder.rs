//! Transformer encoder: feed-forward block, pre-LN encoder layer, stack.

use crate::activation::Gelu;
use crate::attention::{AttentionTape, AttnMask, MultiHeadAttention};
use crate::dropout::{Dropout, Mask};
use crate::init::SeededInit;
use crate::layernorm::{LayerNorm, LayerNormTape};
use crate::linear::Linear;
use crate::{visit_child, Cx, Layer, Name, Param, Segment};
use ntr_tensor::Tensor;
use std::borrow::Cow;

/// Which rows of its output a pass produces: the survey's output
/// granularity, chosen by the caller instead of computed in full and cut.
/// Inference and training narrow the same way: every layer but the last
/// runs in full (its rows are the next layer's keys and values), and the
/// last computes LN1, keys and values over every row and the rest for the
/// selected rows alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rows<'a> {
    /// Every row, `[n, d]`: what cell, row and column pooling and token
    /// heads read.
    All,
    /// These rows, ascending and distinct (the order a loss sums them in):
    /// `[m, d]`, each row with the bits of that row of [`Rows::All`].
    Only(&'a [usize]),
}

impl<'a> Rows<'a> {
    /// The table-level representation alone: the `[CLS]` row, `[1, d]`.
    pub const CLS: Rows<'static> = Rows::Only(&[0]);

    /// The selected rows of an `n`-row tensor, `None` for all of them.
    fn only(self, n: usize) -> Option<&'a [usize]> {
        let Rows::Only(rows) = self else {
            return None;
        };
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]) && rows.last().is_none_or(|&r| r < n),
            "Rows::Only({rows:?}) must be ascending, distinct and below {n}"
        );
        Some(rows)
    }

    /// These rows of `x`, borrowed when that is all of `x`.
    pub fn of<'t>(self, x: &'t Tensor) -> Cow<'t, Tensor> {
        match self.only(x.dim(0)) {
            None => Cow::Borrowed(x),
            Some(rows) => Cow::Owned(x.gather_rows(rows)),
        }
    }

    /// `g`, the gradient of these rows of an `n`-row tensor, as the whole
    /// tensor's gradient: `+0` on every row the selection skips.
    pub fn scatter(self, g: Tensor, n: usize) -> Tensor {
        match self.only(n) {
            None => g,
            Some(rows) => g.scatter_rows(rows, n),
        }
    }

    /// An owned copy for a training forward to record, `None` for every
    /// row; [`Rows::from`] reads it back.
    pub fn record(self) -> Option<Vec<usize>> {
        match self {
            Rows::All => None,
            Rows::Only(rows) => Some(rows.to_vec()),
        }
    }
}

impl<'a> From<Option<&'a [usize]>> for Rows<'a> {
    fn from(rows: Option<&'a [usize]>) -> Self {
        rows.map_or(Rows::All, Rows::Only)
    }
}

/// Position-wise feed-forward block: `Linear → GELU → Linear`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
}

/// What [`FeedForward::backward`] needs: the inputs of its three steps.
#[derive(Debug)]
pub struct FeedForwardTape(Tensor, Tensor, Tensor);

impl FeedForward {
    /// New block expanding `d_model` to `d_ff` and back.
    pub fn new(d_model: usize, d_ff: usize, init: &mut SeededInit) -> Self {
        Self {
            lin1: Linear::new(d_model, d_ff, &mut init.fork()),
            lin2: Linear::new(d_ff, d_model, &mut init.fork()),
        }
    }

    /// Inference forward. Rows are independent: some of the rows of a
    /// sequence give the bits of those rows of the whole sequence's forward.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.lin2.forward(&Gelu.forward(&self.lin1.forward(x)))
    }

    /// [`FeedForward::forward`] and its tape, which keeps `x`.
    pub fn forward_train(&self, x: Tensor) -> (Tensor, FeedForwardTape) {
        let h = self.lin1.forward(&x);
        let g = Gelu.forward(&h);
        (self.lin2.forward(&g), FeedForwardTape(x, h, g))
    }

    /// Backward; returns the input gradient.
    pub fn backward(&self, tape: FeedForwardTape, dy: &Tensor, cx: &mut Cx) -> Tensor {
        let FeedForwardTape(x, h, g) = tape;
        let dh = Gelu.backward(h, &self.lin2.backward(&g, dy, cx));
        self.lin1.backward(&x, &dh, cx)
    }
}

impl Layer for FeedForward {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.lin1.visit_params(&mut visit_child("lin1", f));
        self.lin2.visit_params(&mut visit_child("lin2", f));
    }
}

/// One pre-LayerNorm transformer encoder layer:
///
/// ```text
/// x ── LN1 ── MHA ── dropout ──(+)── LN2 ── FFN ── dropout ──(+)── out
///  └──────────────────────────────┘ └──────────────────────────┘
/// ```
///
/// Pre-LN (rather than BERT's post-LN) is used throughout the workspace
/// because it trains stably from scratch without long warmups — a documented
/// deviation that does not change any of the table-structure mechanisms the
/// paper surveys.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    drop1: Dropout,
    ln2: LayerNorm,
    ffn: FeedForward,
    drop2: Dropout,
}

/// What [`EncoderLayer::backward`] needs of a training forward: LN1's,
/// attention's, dropout 1's, LN2's, the FFN's and dropout 2's tapes.
#[derive(Debug)]
pub struct EncoderLayerTape(
    LayerNormTape,
    AttentionTape,
    Mask,
    LayerNormTape,
    FeedForwardTape,
    Mask,
);

impl EncoderLayer {
    /// New encoder layer.
    pub fn new(
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
        dropout: f32,
        init: &mut SeededInit,
    ) -> Self {
        let seed_base = init.uniform(&[1], 0.0, 1e9).data()[0] as u64;
        Self {
            ln1: LayerNorm::new(d_model),
            attn: MultiHeadAttention::new(d_model, n_heads, init),
            drop1: Dropout::new(dropout, seed_base),
            ln2: LayerNorm::new(d_model),
            ffn: FeedForward::new(d_model, d_ff, init),
            drop2: Dropout::new(dropout, seed_base.wrapping_add(1)),
        }
    }

    /// Inference over every row: [`EncoderLayer::infer`] with [`Rows::All`].
    ///
    /// # Panics
    /// Panics if `train` is set: training runs through
    /// [`EncoderLayer::forward_train`].
    pub fn forward(&self, x: &Tensor, mask: Option<&AttnMask>, train: bool) -> Tensor {
        assert!(
            !train,
            "EncoderLayer::forward is inference; train through forward_train"
        );
        self.infer(x, mask, Rows::All)
    }

    /// Training forward of the output rows `rows` and the tape
    /// [`EncoderLayer::backward`] needs; it computes what
    /// [`EncoderLayer::infer`] does, with dropout. Both dropouts draw their
    /// masks for every row, so their streams advance as under [`Rows::All`].
    pub fn forward_train(
        &self,
        x: &Tensor,
        mask: Option<&AttnMask>,
        rows: Rows,
        cx: &mut Cx,
    ) -> (Tensor, EncoderLayerTape) {
        let n = x.dim(0);
        let (h, ln1) = self.ln1.forward_train(x);
        let (h, attn) = self.attn.forward_train(&h, rows, mask);
        // The residual sums land in the branch outputs' buffers; addition
        // commutes exactly, so the bits are those of `x + branch`.
        let (mut x1, drop1) = self.drop1.forward_train(&h, n, rows, cx);
        x1.add_assign(&rows.of(x));
        let (h2, ln2) = self.ln2.forward_train(&x1);
        let (h2, ffn) = self.ffn.forward_train(h2);
        let (mut out, drop2) = self.drop2.forward_train(&h2, n, rows, cx);
        out.add_assign(&x1);
        (out, EncoderLayerTape(ln1, attn, drop1, ln2, ffn, drop2))
    }

    /// Inference forward of the output rows `rows`: no tape, no dropout,
    /// `&self`. LN1, keys and values run over every row of `x` (the rows
    /// attend to all of them), everything else for `rows` alone; `mask`
    /// covers every row. Each selected row has the bits of that row of
    /// [`Rows::All`].
    pub fn infer(&self, x: &Tensor, mask: Option<&AttnMask>, rows: Rows) -> Tensor {
        self.infer_keep(x, mask, rows, false).0
    }

    /// [`EncoderLayer::infer`], and its heads' attention probabilities
    /// when `keep` (else none).
    fn infer_keep(
        &self,
        x: &Tensor,
        mask: Option<&AttnMask>,
        rows: Rows,
        keep: bool,
    ) -> (Tensor, Vec<Tensor>) {
        let h = self.ln1.forward(x);
        // The residual sums land in the branch outputs' buffers; addition
        // commutes exactly, so the bits are those of `x + branch`.
        let (probs, mut x1) = self.attn.infer_keep(&h, rows, mask, keep);
        x1.add_assign(&rows.of(x));
        let mut out = self.ffn.forward(&self.ln2.forward(&x1));
        out.add_assign(&x1);
        (out, probs)
    }

    /// Backward pass from the gradient of the rows the training forward
    /// produced; returns the gradient of every input row.
    pub fn backward(&self, tape: EncoderLayerTape, dy: &Tensor, cx: &mut Cx) -> Tensor {
        let EncoderLayerTape(ln1, attn, drop1, ln2, ffn, drop2) = tape;
        // Residual 2: dy flows both into the FFN branch and straight through.
        let dffn = self.ffn.backward(ffn, &Dropout::backward(drop2, dy), cx);
        let dx1 = dy.add(&self.ln2.backward(ln2, &dffn, cx));
        let dh = Dropout::backward(drop1, &dx1);
        // Residual 1: a row no output reads gets `+0` plus its K/V gradient.
        let dx = attn.scatter_queries(dx1);
        let dattn = self.attn.backward_self(attn, &dh, cx);
        dx.add(&self.ln1.backward(ln1, &dattn, cx))
    }
}

impl Layer for EncoderLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.ln1.visit_params(&mut visit_child("ln1", f));
        self.attn.visit_params(&mut visit_child("attn", f));
        self.ln2.visit_params(&mut visit_child("ln2", f));
        self.ffn.visit_params(&mut visit_child("ffn", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
        f(&Name::new("drop1"), &mut self.drop1);
        f(&Name::new("drop2"), &mut self.drop2);
    }
}

/// A stack of [`EncoderLayer`]s with a final LayerNorm (pre-LN convention).
#[derive(Debug, Clone)]
pub struct Encoder {
    layers: Vec<EncoderLayer>,
    final_ln: LayerNorm,
}

/// What [`Encoder::backward`] needs: every layer's tape, then the final
/// LayerNorm's.
#[derive(Debug)]
pub struct EncoderTape(Vec<EncoderLayerTape>, LayerNormTape);

impl Encoder {
    /// New encoder with `n_layers` layers.
    pub fn new(
        n_layers: usize,
        d_model: usize,
        n_heads: usize,
        d_ff: usize,
        dropout: f32,
        init: &mut SeededInit,
    ) -> Self {
        Self {
            layers: (0..n_layers)
                .map(|_| EncoderLayer::new(d_model, n_heads, d_ff, dropout, init))
                .collect(),
            final_ln: LayerNorm::new(d_model),
        }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.final_ln.dim()
    }

    /// Inference over every row: [`Encoder::infer`] with [`Rows::All`].
    ///
    /// # Panics
    /// Panics if `train` is set: training runs through
    /// [`Encoder::forward_train`].
    pub fn forward(&self, x: &Tensor, mask: Option<&AttnMask>, train: bool) -> Tensor {
        assert!(
            !train,
            "Encoder::forward is inference; train through forward_train"
        );
        self.infer(x, mask, Rows::All)
    }

    /// Training forward, the same `mask` at every layer, returning the
    /// states of `rows` and the tape [`Encoder::backward`] needs. `rows`
    /// narrows the last layer only, as in [`Encoder::infer`]; narrowing an
    /// encoder with no layer panics.
    pub fn forward_train(
        &self,
        x: &Tensor,
        mask: Option<&AttnMask>,
        rows: Rows,
        cx: &mut Cx,
    ) -> (Tensor, EncoderTape) {
        assert!(rows == Rows::All || !self.layers.is_empty());
        let last = self.layers.len().saturating_sub(1);
        let mut h: Option<Tensor> = None;
        let mut layers = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let r = if i == last { rows } else { Rows::All };
            let (y, tape) = layer.forward_train(h.as_ref().unwrap_or(x), mask, r, cx);
            layers.push(tape);
            h = Some(y);
        }
        let (y, final_ln) = self.final_ln.forward_train(h.as_ref().unwrap_or(x));
        (y, EncoderTape(layers, final_ln))
    }

    /// Inference through all layers: no tape, no dropout, `&self`, so one
    /// encoder can serve any number of threads at once. `rows` narrows the
    /// last layer only, and the final LayerNorm runs on what it returns.
    pub fn infer(&self, x: &Tensor, mask: Option<&AttnMask>, rows: Rows) -> Tensor {
        let last = self.layers.len().saturating_sub(1);
        let mut h: Option<Tensor> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let r = if i == last { rows } else { Rows::All };
            h = Some(layer.infer(h.as_ref().unwrap_or(x), mask, r));
        }
        match &h {
            Some(h) => self.final_ln.forward(h),
            None => self.final_ln.forward(&rows.of(x)),
        }
    }

    /// Backward through all layers in reverse, from the gradient of the
    /// rows the training forward returned to that of every input row.
    pub fn backward(&self, tape: EncoderTape, dy: &Tensor, cx: &mut Cx) -> Tensor {
        let EncoderTape(layers, final_ln) = tape;
        let mut g = self.final_ln.backward(final_ln, dy, cx);
        for (layer, tape) in self.layers.iter().zip(layers).rev() {
            g = layer.backward(tape, &g, cx);
        }
        g
    }

    /// Per-layer, per-head attention maps of an inference pass over `x`:
    /// `maps[layer][head]` is `[n, n]`. Computed for this call and returned;
    /// no forward keeps them. Each layer runs once, keeping its heads'
    /// probabilities and feeding its output to the next.
    pub fn attention_maps(&self, x: &Tensor, mask: Option<&AttnMask>) -> Vec<Vec<Tensor>> {
        let mut maps = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for layer in &self.layers {
            let probs;
            (h, probs) = layer.infer_keep(&h, mask, Rows::All, true);
            maps.push(probs);
        }
        maps
    }
}

impl Layer for Encoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_params(&mut visit_child(Segment::Layer(i), f));
        }
        self.final_ln.visit_params(&mut visit_child("final_ln", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_rng_state(&mut visit_child(Segment::Layer(i), f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, numeric_grad};

    #[test]
    fn ffn_gradcheck() {
        let mut f = FeedForward::new(4, 8, &mut SeededInit::new(1));
        let mut cx = Cx::new(&mut f);
        let x = SeededInit::new(2).uniform(&[3, 4], -1.0, 1.0);
        let dy = SeededInit::new(3).uniform(&[3, 4], -1.0, 1.0);
        let (_, tape) = f.forward_train(x.clone());
        let dx = f.backward(tape, &dy, &mut cx);
        let num = numeric_grad(&x, 5e-3, |x| f.forward(x).mul(&dy).sum());
        assert_close(&dx, &num, 2e-2, "ffn dx");
    }

    #[test]
    fn encoder_layer_preserves_shape() {
        let l = EncoderLayer::new(8, 2, 16, 0.0, &mut SeededInit::new(4));
        let x = SeededInit::new(5).uniform(&[6, 8], -1.0, 1.0);
        let y = l.forward(&x, None, false);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn encoder_layer_gradcheck() {
        let mut l = EncoderLayer::new(6, 2, 12, 0.0, &mut SeededInit::new(6));
        let mut cx = Cx::new(&mut l);
        let x = SeededInit::new(7).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(8).uniform(&[3, 6], -1.0, 1.0);
        let (_, tape) = l.forward_train(&x, None, Rows::All, &mut cx);
        let dx = l.backward(tape, &dy, &mut cx);
        let num = numeric_grad(&x, 5e-3, |x| l.forward(x, None, false).mul(&dy).sum());
        assert_close(&dx, &num, 3e-2, "encoder layer dx");
    }

    #[test]
    fn encoder_stack_gradcheck() {
        let mut enc = Encoder::new(2, 6, 2, 12, 0.0, &mut SeededInit::new(9));
        let mut cx = Cx::new(&mut enc);
        let x = SeededInit::new(10).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(11).uniform(&[3, 6], -1.0, 1.0);
        let (_, tape) = enc.forward_train(&x, None, Rows::All, &mut cx);
        let dx = enc.backward(tape, &dy, &mut cx);
        let num = numeric_grad(&x, 5e-3, |x| enc.forward(x, None, false).mul(&dy).sum());
        assert_close(&dx, &num, 3e-2, "encoder dx");
    }

    /// The rows path's input gradient, by finite differences: with one
    /// layer, rows 0 and 2 reach the selected rows' loss through keys and
    /// values alone.
    #[test]
    fn encoder_rows_gradcheck() {
        let mut enc = Encoder::new(1, 6, 2, 12, 0.0, &mut SeededInit::new(22));
        let mut cx = Cx::new(&mut enc);
        let x = SeededInit::new(23).uniform(&[4, 6], -0.5, 0.5);
        let dy = SeededInit::new(24).uniform(&[2, 6], -1.0, 1.0);
        let rows = Rows::Only(&[1, 3]);
        let mask = AttnMask::causal(4);
        let (_, tape) = enc.forward_train(&x, Some(&mask), rows, &mut cx);
        let dx = enc.backward(tape, &dy, &mut cx);
        assert!(dx.row(0).iter().chain(dx.row(2)).any(|&g| g != 0.0));
        let num = numeric_grad(&x, 5e-3, |x| enc.infer(x, Some(&mask), rows).mul(&dy).sum());
        assert_close(&dx, &num, 3e-2, "encoder rows dx");
    }

    #[test]
    fn encoder_exposes_attention_maps() {
        let enc = Encoder::new(2, 8, 2, 16, 0.0, &mut SeededInit::new(12));
        let x = SeededInit::new(13).uniform(&[4, 8], -1.0, 1.0);
        let maps = enc.attention_maps(&x, None);
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].len(), 2);
        assert_eq!(maps[0][0].shape(), &[4, 4]);
        // Each layer's maps are its attention's on its LN1 input, bit for bit.
        let mask = AttnMask::causal(4);
        let mut h = x.clone();
        for (layer, maps) in enc.layers.iter().zip(enc.attention_maps(&x, Some(&mask))) {
            let expected = layer
                .attn
                .attention_probs(&layer.ln1.forward(&h), Some(&mask));
            assert_eq!(maps, expected);
            h = layer.infer(&h, Some(&mask), Rows::All);
        }
    }

    /// `infer` is the training forward minus its tape: bit-identical to it
    /// with dropout 0.
    #[test]
    fn infer_matches_the_training_forward_bit_for_bit() {
        let mut enc = Encoder::new(2, 8, 2, 16, 0.0, &mut SeededInit::new(15));
        let mut cx = Cx::new(&mut enc);
        let x = SeededInit::new(16).uniform(&[5, 8], -1.0, 1.0);
        let mask = AttnMask::causal(5);
        assert_eq!(
            enc.infer(&x, Some(&mask), Rows::All),
            enc.forward_train(&x, Some(&mask), Rows::All, &mut cx).0
        );
        assert_eq!(enc.infer(&x, None, Rows::All), enc.forward(&x, None, false));
        let ffn = FeedForward::new(8, 16, &mut SeededInit::new(17));
        assert_eq!(ffn.forward(&x), ffn.forward_train(x.clone()).0);
    }

    /// The inference spelling of the training forward panics and names it.
    #[test]
    #[should_panic(expected = "train through forward_train")]
    fn forward_with_train_set_panics() {
        let enc = Encoder::new(1, 8, 2, 16, 0.0, &mut SeededInit::new(18));
        let _ = enc.forward(&Tensor::ones(&[3, 8]), None, true);
    }

    /// [`Rows::CLS`] is row 0 of [`Rows::All`], bit for bit, at every depth
    /// (zero layers included), with and without a mask.
    #[test]
    fn table_is_row_zero_of_all() {
        let x = SeededInit::new(20).uniform(&[9, 8], -1.0, 1.0);
        for n_layers in [0, 1, 2] {
            let enc = Encoder::new(n_layers, 8, 2, 16, 0.0, &mut SeededInit::new(21));
            for mask in [None, Some(AttnMask::causal(9))] {
                let all = enc.infer(&x, mask.as_ref(), Rows::All);
                let table = enc.infer(&x, mask.as_ref(), Rows::CLS);
                assert_eq!(table.shape(), &[1, 8]);
                assert_eq!(table, all.rows(0, 1), "{n_layers} layers");
            }
        }
    }

    /// A selection out of order, repeated or out of range is caught before
    /// it reaches a kernel, in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be ascending, distinct and below 3")]
    fn an_unordered_row_selection_panics() {
        let x = Tensor::ones(&[3, 2]);
        for rows in [[0, 3].as_slice(), &[1, 1]] {
            let caught = std::panic::catch_unwind(|| Rows::Only(rows).of(&x));
            assert!(caught.is_err(), "{rows:?}");
        }
        let _ = Rows::Only(&[2, 1]).of(&x);
    }

    #[test]
    fn param_count_is_deterministic() {
        let mut a = Encoder::new(2, 8, 2, 16, 0.1, &mut SeededInit::new(14));
        let mut b = Encoder::new(2, 8, 2, 16, 0.1, &mut SeededInit::new(14));
        assert_eq!(a.num_params(), b.num_params());
        assert!(a.num_params() > 0);
    }
}
