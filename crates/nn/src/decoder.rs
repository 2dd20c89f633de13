//! Transformer decoder (causal self-attention + cross-attention), used by
//! the TAPEX-style encoder–decoder model in `ntr-models`.

use crate::attention::{AttnMask, MultiHeadAttention};
use crate::dropout::Dropout;
use crate::encoder::FeedForward;
use crate::init::SeededInit;
use crate::layernorm::LayerNorm;
use crate::{visit_child, Layer, Name, Param, Segment};
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

    /// Forward over target states `x: [t, d]` attending to encoder `memory:
    /// [s, d]`. A causal mask over `x` is always applied.
    pub fn forward(&mut self, x: &Tensor, memory: &Tensor, train: bool) -> Tensor {
        let causal = AttnMask::causal(x.dim(0));
        let h1 = self.drop1.forward(
            &self
                .self_attn
                .forward_self(&self.ln1.forward(x), Some(&causal)),
            train,
        );
        let x1 = x.add(&h1);
        let h2 = self.drop2.forward(
            &self
                .cross_attn
                .forward_cross(&self.ln2.forward(&x1), memory, None),
            train,
        );
        let x2 = x1.add(&h2);
        let h3 = self
            .drop3
            .forward(&self.ffn.forward(&self.ln3.forward(&x2)), train);
        x2.add(&h3)
    }

    /// Backward; returns `(d/d x, d/d memory)`.
    pub fn backward(&mut self, dy: &Tensor) -> (Tensor, Tensor) {
        let dffn = self
            .ln3
            .backward(&self.ffn.backward(&self.drop3.backward(dy)));
        let dx2 = dy.add(&dffn);
        let (dq, dmem) = self.cross_attn.backward_cross(&self.drop2.backward(&dx2));
        let dx1 = dx2.add(&self.ln2.backward(&dq));
        let dself = self
            .ln1
            .backward(&self.self_attn.backward_self(&self.drop1.backward(&dx1)));
        (dx1.add(&dself), dmem)
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

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        self.drop1.visit_rng("drop1", f);
        self.drop2.visit_rng("drop2", f);
        self.drop3.visit_rng("drop3", f);
    }
}

/// A stack of [`DecoderLayer`]s with a final LayerNorm.
#[derive(Debug, Clone)]
pub struct Decoder {
    layers: Vec<DecoderLayer>,
    final_ln: LayerNorm,
}

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

    /// Forward through all layers.
    pub fn forward(&mut self, x: &Tensor, memory: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, memory, train);
        }
        self.final_ln.forward(&h)
    }

    /// Backward; returns `(d/d x, d/d memory)` with memory gradients summed
    /// over layers.
    pub fn backward(&mut self, dy: &Tensor) -> (Tensor, Tensor) {
        let mut g = self.final_ln.backward(dy);
        let mut dmem_total: Option<Tensor> = None;
        for layer in self.layers.iter_mut().rev() {
            let (dx, dmem) = layer.backward(&g);
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
    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
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
        let mut l = DecoderLayer::new(8, 2, 16, 0.0, &mut SeededInit::new(1));
        let x = SeededInit::new(2).uniform(&[3, 8], -1.0, 1.0);
        let mem = SeededInit::new(3).uniform(&[5, 8], -1.0, 1.0);
        let y = l.forward(&x, &mem, false);
        assert_eq!(y.shape(), &[3, 8]);
    }

    #[test]
    fn decoder_layer_gradcheck_x_and_memory() {
        let mut l = DecoderLayer::new(6, 2, 12, 0.0, &mut SeededInit::new(4));
        let x = SeededInit::new(5).uniform(&[2, 6], -0.5, 0.5);
        let mem = SeededInit::new(6).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(7).uniform(&[2, 6], -1.0, 1.0);
        let _ = l.forward(&x, &mem, true);
        let (dx, dmem) = l.backward(&dy);

        let mut probe = l.clone();
        let (memc, dyc) = (mem.clone(), dy.clone());
        let num_x = numeric_grad(&x, 5e-3, |x| probe.forward(x, &memc, false).mul(&dyc).sum());
        assert_close(&dx, &num_x, 3e-2, "decoder dx");

        let mut probe = l.clone();
        let (xc, dyc) = (x.clone(), dy.clone());
        let num_m = numeric_grad(&mem, 5e-3, |m| probe.forward(&xc, m, false).mul(&dyc).sum());
        assert_close(&dmem, &num_m, 3e-2, "decoder dmem");
    }

    #[test]
    fn decoder_stack_accumulates_memory_grad() {
        let mut d = Decoder::new(2, 6, 2, 12, 0.0, &mut SeededInit::new(8));
        let x = SeededInit::new(9).uniform(&[2, 6], -0.5, 0.5);
        let mem = SeededInit::new(10).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(11).uniform(&[2, 6], -1.0, 1.0);
        let _ = d.forward(&x, &mem, true);
        let (dx, dmem) = d.backward(&dy);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dmem.shape(), mem.shape());

        let mut probe = d.clone();
        let (xc, dyc) = (x.clone(), dy.clone());
        let num_m = numeric_grad(&mem, 5e-3, |m| probe.forward(&xc, m, false).mul(&dyc).sum());
        assert_close(&dmem, &num_m, 3e-2, "decoder stack dmem");
    }

    #[test]
    fn causality_first_position_ignores_later_targets() {
        // Changing x[2] must not change y[0] or y[1].
        let mut d = Decoder::new(1, 8, 2, 16, 0.0, &mut SeededInit::new(12));
        let mem = SeededInit::new(13).uniform(&[4, 8], -1.0, 1.0);
        let mut x = SeededInit::new(14).uniform(&[3, 8], -1.0, 1.0);
        let y1 = d.forward(&x, &mem, false);
        // Perturb a single element (a uniform row shift would sit in
        // LayerNorm's null space and be invisible by design).
        x.row_mut(2)[0] += 10.0;
        let y2 = d.forward(&x, &mem, false);
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
