//! TAPAS-style model: structural embeddings plus cell-selection and
//! aggregation heads.
//!
//! The survey's input-level exemplar: "Herzig et al. add extra dimensions
//! to the embedding vector to account for cell, row, and column positions"
//! (§2.3). On top of the structure-aware encoder sit the weak-supervision
//! QA heads: a per-token score head whose cell-level means select answer
//! cells, and a `[CLS]` classifier choosing an aggregation operator.

use crate::config::ModelConfig;
use crate::embeddings::{EmbeddingFlags, TableEmbeddings};
use crate::heads::{ClassifierHead, MlmHead, TokenScoreHead};
use crate::input::EncoderInput;
use crate::SequenceEncoder;
use ntr_nn::init::SeededInit;
use ntr_nn::{visit_child, Encoder, Layer, Name, Param, Rows};
use ntr_table::EncodedTable;
use ntr_tensor::Tensor;

/// Aggregation operators TAPAS can predict (NONE = pick the cell itself).
pub const AGG_OPS: [&str; 4] = ["none", "count", "sum", "average"];

/// TAPAS-style encoder with QA heads.
#[derive(Debug, Clone)]
pub struct Tapas {
    /// Structure-aware input embeddings.
    pub embeddings: TableEmbeddings,
    /// Transformer encoder.
    pub encoder: Encoder,
    /// Per-token cell-selection scores.
    pub cell_head: TokenScoreHead,
    /// `[CLS]` aggregation-operator classifier.
    pub agg_head: ClassifierHead,
    /// Masked-language-modeling head (TAPAS pretrains with MLM over
    /// Wikipedia tables before its QA fine-tuning).
    pub mlm: MlmHead,
    cfg: ModelConfig,
}

impl Tapas {
    /// Builds the model from a config (full structural embeddings).
    pub fn new(cfg: &ModelConfig) -> Self {
        Self::with_embeddings(cfg, EmbeddingFlags::structural())
    }

    /// Builds the model with explicit embedding flags — the hook the
    /// structural-embedding ablation (E14) uses to strip row/column/kind
    /// tables while keeping everything else identical.
    pub fn with_embeddings(cfg: &ModelConfig, flags: EmbeddingFlags) -> Self {
        cfg.validate();
        let mut init = SeededInit::new(cfg.seed ^ 0x7A9A5);
        Self {
            embeddings: TableEmbeddings::new(cfg, flags, &mut init),
            encoder: Encoder::new(
                cfg.n_layers,
                cfg.d_model,
                cfg.n_heads,
                cfg.d_ff,
                cfg.dropout,
                &mut init,
            ),
            cell_head: TokenScoreHead::new(cfg.d_model, &mut init.fork()),
            agg_head: ClassifierHead::new(cfg.d_model, AGG_OPS.len(), &mut init.fork()),
            mlm: MlmHead::new(cfg.d_model, cfg.vocab_size, &mut init.fork()),
            cfg: *cfg,
        }
    }

    /// The model's config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Scores every encoded cell of `e` by the mean of its token logits in
    /// `token_scores: [n, 1]`; returns `((row, col), score)` pairs in grid
    /// order.
    pub fn cell_scores(
        &self,
        e: &EncodedTable,
        token_scores: &Tensor,
    ) -> Vec<((usize, usize), f32)> {
        e.cells()
            .map(|(coord, span)| {
                let mean =
                    span.clone().map(|i| token_scores.at(&[i, 0])).sum::<f32>() / span.len() as f32;
                (coord, mean)
            })
            .collect()
    }
}

impl SequenceEncoder for Tapas {
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
        "tapas"
    }
}

impl Layer for Tapas {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.embeddings
            .visit_params(&mut visit_child("embeddings", f));
        self.encoder.visit_params(&mut visit_child("encoder", f));
        self.cell_head
            .visit_params(&mut visit_child("cell_head", f));
        self.agg_head.visit_params(&mut visit_child("agg_head", f));
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

    #[test]
    fn structural_ids_change_encoding_unlike_bert() {
        let cfg = ModelConfig::tiny(300);
        let mut m = Tapas::new(&cfg);
        let inp = input_sample();
        let mut flat = inp.clone();
        for r in &mut flat.rows {
            *r = 0;
        }
        for c in &mut flat.cols {
            *c = 0;
        }
        assert_ne!(m.encode(&inp, false), m.encode(&flat, false));
    }

    #[test]
    fn cell_scores_cover_all_cells() {
        let cfg = ModelConfig::tiny(300);
        let mut m = Tapas::new(&cfg);
        let e = encoded_sample();
        let inp = EncoderInput::from_encoded(&e);
        let states = m.encode(&inp, false);
        let scores = m.cell_head.forward(&states);
        let cells = m.cell_scores(&e, &scores);
        assert_eq!(cells.len(), 6, "2 rows × 3 cols");
        for ((r, c), s) in cells {
            assert!(r < 2 && c < 3);
            assert!(s.is_finite());
        }
    }

    #[test]
    fn aggregation_head_has_four_ops() {
        let cfg = ModelConfig::tiny(300);
        let mut m = Tapas::new(&cfg);
        let inp = input_sample();
        let states = m.encode(&inp, false);
        let pooled = states.rows(0, 1);
        let logits = m.agg_head.forward(&pooled);
        assert_eq!(logits.shape(), &[1, AGG_OPS.len()]);
    }

    #[test]
    fn full_backward_accumulates_grads_everywhere() {
        let cfg = ModelConfig::tiny(300);
        let mut m = Tapas::new(&cfg);
        let inp = input_sample();
        let states = m.encode(&inp, true);
        let scores = m.cell_head.forward(&states);
        let d = m.cell_head.backward(&Tensor::ones(scores.shape()));
        SequenceEncoder::backward(&mut m, &d);
        let mut zero_params = Vec::new();
        m.visit_params(&mut |n, p| {
            // Heads not used in this pass legitimately have zero grads.
            if n.to_string().starts_with("agg_head") {
                return;
            }
            if p.grad.data().iter().all(|&g| g == 0.0) {
                zero_params.push(n.to_string());
            }
        });
        // Structural embedding tables may have zero grad only if unused ids
        // dominate; the encoder itself must always receive gradient.
        assert!(
            !zero_params.iter().any(|n| n.starts_with("encoder/layer")),
            "zero grads in {zero_params:?}"
        );
    }
}
