//! Transformer decoder (causal self-attention + cross-attention), used by
//! the TAPEX-style encoder–decoder model in `ntr-models`.

use crate::attention::{AttentionTape, AttnMask, MultiHeadAttention};
use crate::dropout::{Dropout, Mask};
use crate::encoder::{FeedForward, FeedForwardTape, Rows};
use crate::init::SeededInit;
use crate::layernorm::{LayerNorm, LayerNormTape};
use crate::{visit_child, Cx, Layer, Name, Param, Segment};
use ntr_tensor::Tensor;

/// One pre-LN decoder layer:
/// causal self-attention → cross-attention over encoder memory → FFN,
/// each wrapped in a residual connection.
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    ln1: LayerNorm,
    self_attn: MultiHeadAttention,
    drop1: Dropout,
    ln2: LayerNorm,
    cross_attn: MultiHeadAttention,
    drop2: Dropout,
    ln3: LayerNorm,
    ffn: FeedForward,
    drop3: Dropout,
}

/// What [`DecoderLayer::backward`] needs of a training forward: the tapes
/// of each residual branch's LayerNorm, block and dropout, in order.
#[derive(Debug)]
pub struct DecoderLayerTape(
    (LayerNormTape, AttentionTape, Mask),
    (LayerNormTape, AttentionTape, Mask),
    (LayerNormTape, FeedForwardTape, Mask),
);

impl DecoderLayer {
    /// New decoder layer.
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
            self_attn: MultiHeadAttention::new(d_model, n_heads, init),
            drop1: Dropout::new(dropout, seed_base),
            ln2: LayerNorm::new(d_model),
            cross_attn: MultiHeadAttention::new(d_model, n_heads, init),
            drop2: Dropout::new(dropout, seed_base.wrapping_add(1)),
            ln3: LayerNorm::new(d_model),
            ffn: FeedForward::new(d_model, d_ff, init),
            drop3: Dropout::new(dropout, seed_base.wrapping_add(2)),
        }
    }

    /// Inference over target states `x: [t, d]` attending to encoder
    /// `memory: [s, d]`. A causal mask over `x` is always applied.
    pub fn forward(&self, x: &Tensor, memory: &Tensor) -> Tensor {
        let causal = AttnMask::causal(x.dim(0));
        let x1 = x.add(
            &self
                .self_attn
                .forward_self(&self.ln1.forward(x), Some(&causal)),
        );
        let h2 = self
            .cross_attn
            .forward_cross(&self.ln2.forward(&x1), memory, None);
        let x2 = x1.add(&h2);
        x2.add(&self.ffn.forward(&self.ln3.forward(&x2)))
    }

    /// [`DecoderLayer::forward`] with dropout, and its tape.
    pub fn forward_train(
        &self,
        x: &Tensor,
        memory: &Tensor,
        cx: &mut Cx,
    ) -> (Tensor, DecoderLayerTape) {
        let n = x.dim(0);
        let causal = AttnMask::causal(n);
        let (h1, ln1) = self.ln1.forward_train(x);
        let (h1, self_attn) = self.self_attn.forward_train(&h1, Rows::All, Some(&causal));
        let (h1, drop1) = self.drop1.forward_train(&h1, n, Rows::All, cx);
        let x1 = x.add(&h1);
        let (h2, ln2) = self.ln2.forward_train(&x1);
        let (h2, cross_attn) = self.cross_attn.forward_cross_train(h2, memory, None);
        let (h2, drop2) = self.drop2.forward_train(&h2, n, Rows::All, cx);
        let x2 = x1.add(&h2);
        let (h3, ln3) = self.ln3.forward_train(&x2);
        let (h3, ffn) = self.ffn.forward_train(h3);
        let (h3, drop3) = self.drop3.forward_train(&h3, n, Rows::All, cx);
        let tape = (
            (ln1, self_attn, drop1),
            (ln2, cross_attn, drop2),
            (ln3, ffn, drop3),
        );
        (x2.add(&h3), DecoderLayerTape(tape.0, tape.1, tape.2))
    }

    /// Backward; returns `(d/d x, d/d memory)`.
    pub fn backward(&self, tape: DecoderLayerTape, dy: &Tensor, cx: &mut Cx) -> (Tensor, Tensor) {
        let DecoderLayerTape((ln1, self_attn, drop1), (ln2, cross_attn, drop2), (ln3, ffn, drop3)) =
            tape;
        let dffn = self.ffn.backward(ffn, &Dropout::backward(drop3, dy), cx);
        let dx2 = dy.add(&self.ln3.backward(ln3, &dffn, cx));
        let dh2 = Dropout::backward(drop2, &dx2);
        let (dq, dmem) = self.cross_attn.backward_cross(cross_attn, &dh2, cx);
        let dx1 = dx2.add(&self.ln2.backward(ln2, &dq, cx));
        let dh1 = Dropout::backward(drop1, &dx1);
        let dself = self.self_attn.backward_self(self_attn, &dh1, cx);
        (dx1.add(&self.ln1.backward(ln1, &dself, cx)), dmem)
    }
}

impl Layer for DecoderLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.ln1.visit_params(&mut visit_child("ln1", f));
        self.self_attn
            .visit_params(&mut visit_child("self_attn", f));
        self.ln2.visit_params(&mut visit_child("ln2", f));
        self.cross_attn
            .visit_params(&mut visit_child("cross_attn", f));
        self.ln3.visit_params(&mut visit_child("ln3", f));
        self.ffn.visit_params(&mut visit_child("ffn", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
        f(&Name::new("drop1"), &mut self.drop1);
        f(&Name::new("drop2"), &mut self.drop2);
        f(&Name::new("drop3"), &mut self.drop3);
    }
}

/// A stack of [`DecoderLayer`]s with a final LayerNorm.
#[derive(Debug, Clone)]
pub struct Decoder {
    layers: Vec<DecoderLayer>,
    final_ln: LayerNorm,
}

/// What [`Decoder::backward`] needs: every layer's tape, then the final
/// LayerNorm's.
#[derive(Debug)]
pub struct DecoderTape(Vec<DecoderLayerTape>, LayerNormTape);

impl Decoder {
    /// New decoder with `n_layers` layers.
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
                .map(|_| DecoderLayer::new(d_model, n_heads, d_ff, dropout, init))
                .collect(),
            final_ln: LayerNorm::new(d_model),
        }
    }

    /// Inference through all layers.
    pub fn forward(&self, x: &Tensor, memory: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward(&h, memory);
        }
        self.final_ln.forward(&h)
    }

    /// [`Decoder::forward`] with dropout, and its tape.
    pub fn forward_train(&self, x: &Tensor, memory: &Tensor, cx: &mut Cx) -> (Tensor, DecoderTape) {
        let mut h = x.clone();
        let mut layers = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (y, tape) = layer.forward_train(&h, memory, cx);
            layers.push(tape);
            h = y;
        }
        let (y, final_ln) = self.final_ln.forward_train(&h);
        (y, DecoderTape(layers, final_ln))
    }

    /// Backward; returns `(d/d x, d/d memory)` with memory gradients summed
    /// over layers.
    pub fn backward(&self, tape: DecoderTape, dy: &Tensor, cx: &mut Cx) -> (Tensor, Tensor) {
        let DecoderTape(layers, final_ln) = tape;
        let mut g = self.final_ln.backward(final_ln, dy, cx);
        let mut dmem_total: Option<Tensor> = None;
        for (layer, tape) in self.layers.iter().zip(layers).rev() {
            let (dx, dmem) = layer.backward(tape, &g, cx);
            g = dx;
            dmem_total = Some(match dmem_total {
                Some(t) => t.add(&dmem),
                None => dmem,
            });
        }
        (g, dmem_total.expect("decoder must have at least one layer"))
    }
}

impl Layer for Decoder {
    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_rng_state(&mut visit_child(Segment::Layer(i), f));
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_params(&mut visit_child(Segment::Layer(i), f));
        }
        self.final_ln.visit_params(&mut visit_child("final_ln", f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, numeric_grad};

    #[test]
    fn decoder_layer_shapes() {
        let l = DecoderLayer::new(8, 2, 16, 0.0, &mut SeededInit::new(1));
        let x = SeededInit::new(2).uniform(&[3, 8], -1.0, 1.0);
        let mem = SeededInit::new(3).uniform(&[5, 8], -1.0, 1.0);
        let y = l.forward(&x, &mem);
        assert_eq!(y.shape(), &[3, 8]);
    }

    #[test]
    fn decoder_layer_gradcheck_x_and_memory() {
        let mut l = DecoderLayer::new(6, 2, 12, 0.0, &mut SeededInit::new(4));
        let mut cx = Cx::new(&mut l);
        let x = SeededInit::new(5).uniform(&[2, 6], -0.5, 0.5);
        let mem = SeededInit::new(6).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(7).uniform(&[2, 6], -1.0, 1.0);
        let (y, tape) = l.forward_train(&x, &mem, &mut cx);
        assert_eq!(
            y,
            l.forward(&x, &mem),
            "inference is the dropout-free training forward"
        );
        let (dx, dmem) = l.backward(tape, &dy, &mut cx);

        let num_x = numeric_grad(&x, 5e-3, |x| l.forward(x, &mem).mul(&dy).sum());
        assert_close(&dx, &num_x, 3e-2, "decoder dx");

        let num_m = numeric_grad(&mem, 5e-3, |m| l.forward(&x, m).mul(&dy).sum());
        assert_close(&dmem, &num_m, 3e-2, "decoder dmem");
    }

    #[test]
    fn decoder_stack_accumulates_memory_grad() {
        let mut d = Decoder::new(2, 6, 2, 12, 0.0, &mut SeededInit::new(8));
        let mut cx = Cx::new(&mut d);
        let x = SeededInit::new(9).uniform(&[2, 6], -0.5, 0.5);
        let mem = SeededInit::new(10).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(11).uniform(&[2, 6], -1.0, 1.0);
        let (_, tape) = d.forward_train(&x, &mem, &mut cx);
        let (dx, dmem) = d.backward(tape, &dy, &mut cx);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dmem.shape(), mem.shape());

        let num_m = numeric_grad(&mem, 5e-3, |m| d.forward(&x, m).mul(&dy).sum());
        assert_close(&dmem, &num_m, 3e-2, "decoder stack dmem");
    }

    #[test]
    fn causality_first_position_ignores_later_targets() {
        // Changing x[2] must not change y[0] or y[1].
        let d = Decoder::new(1, 8, 2, 16, 0.0, &mut SeededInit::new(12));
        let mem = SeededInit::new(13).uniform(&[4, 8], -1.0, 1.0);
        let mut x = SeededInit::new(14).uniform(&[3, 8], -1.0, 1.0);
        let y1 = d.forward(&x, &mem);
        // Perturb a single element (a uniform row shift would sit in
        // LayerNorm's null space and be invisible by design).
        x.row_mut(2)[0] += 10.0;
        let y2 = d.forward(&x, &mem);
        for j in 0..8 {
            assert!((y1.at(&[0, j]) - y2.at(&[0, j])).abs() < 1e-5);
            assert!((y1.at(&[1, j]) - y2.at(&[1, j])).abs() < 1e-5);
        }
        // ...but y[2] does change.
        let mut changed = false;
        for j in 0..8 {
            if (y1.at(&[2, j]) - y2.at(&[2, j])).abs() > 1e-4 {
                changed = true;
            }
        }
        assert!(changed);
    }
}
