//! The vanilla-BERT baseline: the serialized table is treated as plain
//! text (word + position + segment embeddings, full attention, MLM head).
//!
//! This is the model the hands-on §3.1 starts from — "we programmatically
//! linearize the raw table header and values into sequences compatible with
//! BERT" — and the baseline every structure-aware extension is compared to.

use crate::config::ModelConfig;
use crate::embeddings::{EmbeddingFlags, TableEmbeddings};
use crate::heads::MlmHead;
use crate::input::EncoderInput;
use crate::SequenceEncoder;
use ntr_nn::init::SeededInit;
use ntr_nn::{visit_child, Encoder, Layer, Name, Param, Rows};
use ntr_tensor::Tensor;

/// BERT-style text encoder with an MLM head.
#[derive(Debug, Clone)]
pub struct VanillaBert {
    /// Input embeddings (word + position + segment).
    pub embeddings: TableEmbeddings,
    /// Transformer encoder stack.
    pub encoder: Encoder,
    /// Masked-language-modeling head.
    pub mlm: MlmHead,
    cfg: ModelConfig,
}

impl VanillaBert {
    /// Builds the model from a config.
    pub fn new(cfg: &ModelConfig) -> Self {
        cfg.validate();
        let mut init = SeededInit::new(cfg.seed);
        Self {
            embeddings: TableEmbeddings::new(cfg, EmbeddingFlags::text_only(), &mut init),
            encoder: Encoder::new(
                cfg.n_layers,
                cfg.d_model,
                cfg.n_heads,
                cfg.d_ff,
                cfg.dropout,
                &mut init,
            ),
            mlm: MlmHead::new(cfg.d_model, cfg.vocab_size, &mut init.fork()),
            cfg: *cfg,
        }
    }

    /// The model's config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }
}

impl SequenceEncoder for VanillaBert {
    fn d_model(&self) -> usize {
        self.cfg.d_model
    }

    fn vocab_size(&self) -> usize {
        self.cfg.vocab_size
    }

    fn infer(&self, input: &EncoderInput, rows: Rows) -> Tensor {
        self.encoder
            .infer(&self.embeddings.infer(input), None, rows)
    }

    fn encode_train(&mut self, input: &EncoderInput, rows: Rows) -> Tensor {
        let x = self.embeddings.forward(input, true);
        self.encoder.forward_train(&x, None, rows)
    }

    fn backward(&mut self, d_states: &Tensor) {
        let dx = self.encoder.backward(d_states);
        self.embeddings.backward(&dx);
    }

    fn family(&self) -> &'static str {
        "bert"
    }
}

impl Layer for VanillaBert {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.embeddings
            .visit_params(&mut visit_child("embeddings", f));
        self.encoder.visit_params(&mut visit_child("encoder", f));
        self.mlm.visit_params(&mut visit_child("mlm", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        self.embeddings
            .visit_rng_state(&mut visit_child("embeddings", f));
        self.encoder.visit_rng_state(&mut visit_child("encoder", f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{encoded_sample, input_sample};
    use ntr_nn::loss::softmax_cross_entropy;

    #[test]
    fn encode_shape_and_determinism() {
        let cfg = ModelConfig::tiny(300);
        let mut a = VanillaBert::new(&cfg);
        let mut b = VanillaBert::new(&cfg);
        let inp = input_sample();
        let x = a.encode(&inp, false);
        assert_eq!(x.shape(), &[inp.len(), cfg.d_model]);
        assert_eq!(x, b.encode(&inp, false));
    }

    #[test]
    fn row_ids_do_not_affect_bert() {
        // The baseline is structure-blind by construction.
        let cfg = ModelConfig::tiny(300);
        let mut m = VanillaBert::new(&cfg);
        let inp = input_sample();
        let mut moved = inp.clone();
        for r in &mut moved.rows {
            *r = 0;
        }
        for c in &mut moved.cols {
            *c = 0;
        }
        assert_eq!(m.encode(&inp, false), m.encode(&moved, false));
    }

    #[test]
    fn one_training_step_reduces_mlm_loss() {
        let cfg = ModelConfig::tiny(300);
        let mut m = VanillaBert::new(&cfg);
        let e = encoded_sample();
        let masked = ntr_table::masking::mask_mlm(
            &e,
            &ntr_table::masking::MlmConfig::bert(cfg.vocab_size),
            3,
        );
        let inp = EncoderInput::from_masked(&e, &masked);
        let (rows, targets) = masked.positions();
        let mut adam = ntr_nn::optim::Adam::new(5e-3);
        let mut losses = Vec::new();
        for _ in 0..12 {
            let states = m.encode_train(&inp, Rows::Only(&rows));
            let logits = m.mlm.forward(&states);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &targets, None);
            losses.push(loss);
            let dstates = m.mlm.backward(&dlogits);
            SequenceEncoder::backward(&mut m, &dstates);
            adam.step(&mut m);
            m.zero_grad();
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.7),
            "loss did not drop: {losses:?}"
        );
    }

    #[test]
    fn checkpoint_roundtrip() {
        let cfg = ModelConfig::tiny(120);
        let mut a = VanillaBert::new(&cfg);
        let mut buf = Vec::new();
        ntr_nn::serialize::save_to(&mut a, &mut buf).unwrap();
        let mut b = VanillaBert::new(&ModelConfig { seed: 999, ..cfg });
        ntr_nn::serialize::load_from(&mut b, &mut buf.as_slice()).unwrap();
        let inp = input_sample();
        assert_eq!(a.encode(&inp, false), b.encode(&inp, false));
    }
}
