//! TURL-style model: visibility-matrix attention plus the two pretraining
//! heads the paper's hands-on §3.3 demonstrates — masked language modeling
//! (MLM) and masked entity recovery (MER).
//!
//! The survey's internal-level exemplar: TURL constrains self-attention so
//! each grid token only attends to *structurally related* tokens. Here the
//! visibility matrix is derived from linearizer metadata and applied as a
//! shared additive attention mask:
//!
//! * context / special / template tokens are globally visible (and see all);
//! * grid tokens (headers, cells) see each other iff they share a row or a
//!   column (headers live in row 0, so all headers are mutually visible and
//!   each header sees its column).

use crate::config::ModelConfig;
use crate::embeddings::{EmbeddingFlags, TableEmbeddings};
use crate::heads::MlmHead;
use crate::input::EncoderInput;
use ntr_nn::init::SeededInit;
use ntr_nn::{visit_child, AttnMask, Dropout, Encoder, Layer, Name, Param};
use ntr_tensor::Tensor;

/// TURL-style encoder with MLM and MER heads.
#[derive(Debug, Clone)]
pub struct Turl {
    /// Structure-aware input embeddings.
    pub embeddings: TableEmbeddings,
    /// Transformer encoder (visibility-masked).
    pub encoder: Encoder,
    /// Masked-language-modeling head (word vocabulary).
    pub mlm: MlmHead,
    /// Masked-entity-recovery head (entity vocabulary).
    pub mer: MlmHead,
    cfg: ModelConfig,
}

impl Turl {
    /// Builds the model. Requires `cfg.n_entities > 0` (the MER label
    /// space).
    ///
    /// # Panics
    /// Panics when `cfg.n_entities == 0`.
    pub fn new(cfg: &ModelConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.n_entities > 0,
            "TURL requires an entity vocabulary (cfg.n_entities)"
        );
        let mut init = SeededInit::new(cfg.seed ^ 0x70421);
        Self {
            embeddings: TableEmbeddings::new(cfg, EmbeddingFlags::structural(), &mut init),
            encoder: Encoder::new(
                cfg.n_layers,
                cfg.d_model,
                cfg.n_heads,
                cfg.d_ff,
                cfg.dropout,
                &mut init,
            ),
            mlm: MlmHead::new(cfg.d_model, cfg.vocab_size, &mut init.fork()),
            mer: MlmHead::new(cfg.d_model, cfg.n_entities, &mut init.fork()),
            cfg: *cfg,
        }
    }

    /// The model's config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Builds the visibility matrix for an input as an additive mask.
    pub fn visibility_mask(input: &EncoderInput) -> AttnMask {
        let n = input.len();
        let mut m = Tensor::zeros(&[n, n]);
        let is_global = |i: usize| {
            // kinds: 0 special, 1 context, 2 header, 3 cell, 4 template
            matches!(input.kinds[i], 0 | 1 | 4)
        };
        for i in 0..n {
            for j in 0..n {
                if i == j || is_global(i) || is_global(j) {
                    continue;
                }
                let same_row = input.rows[i] == input.rows[j];
                let same_col = input.cols[i] == input.cols[j];
                if !(same_row || same_col) {
                    m.set(&[i, j], f32::NEG_INFINITY);
                }
            }
        }
        AttnMask::Shared(m)
    }

    /// Per-layer, per-head attention maps of an inference encode of `input`
    /// under the visibility matrix (`maps[layer][head]` is `[n, n]`) — the
    /// §3.3 inspection view, computed on request.
    pub fn attention_maps(&self, input: &EncoderInput) -> Vec<Vec<Tensor>> {
        let mask = Self::visibility_mask(input);
        self.encoder
            .attention_maps(&self.embeddings.infer(input), Some(&mask))
    }

    /// Entity embedding for linking tasks: the MER decoder's column for the
    /// entity, shape `[1, d]`.
    pub fn entity_embedding(&self, entity: u32) -> Tensor {
        self.mer.label_embedding(entity as usize)
    }
}

impl Layer for Turl {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.embeddings
            .visit_params(&mut visit_child("embeddings", f));
        self.encoder.visit_params(&mut visit_child("encoder", f));
        self.mlm.visit_params(&mut visit_child("mlm", f));
        self.mer.visit_params(&mut visit_child("mer", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
        self.embeddings
            .visit_rng_state(&mut visit_child("embeddings", f));
        self.encoder.visit_rng_state(&mut visit_child("encoder", f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{encoded_sample, input_sample};
    use crate::{EncoderInput, SequenceEncoder};

    fn cfg() -> ModelConfig {
        ModelConfig {
            n_entities: 10,
            ..ModelConfig::tiny(300)
        }
    }

    #[test]
    fn visibility_blocks_unrelated_cells() {
        let e = encoded_sample();
        let inp = input_sample();
        let AttnMask::Shared(m) = Turl::visibility_mask(&inp) else {
            panic!("expected shared mask")
        };
        // Cell (0,0) and cell (1,1) share neither row nor column → blocked.
        let a = e.cell_span(0, 0).unwrap().start;
        let b = e.cell_span(1, 1).unwrap().start;
        assert_eq!(m.at(&[a, b]), f32::NEG_INFINITY);
        assert_eq!(m.at(&[b, a]), f32::NEG_INFINITY);
        // Same row → visible.
        let c = e.cell_span(0, 1).unwrap().start;
        assert_eq!(m.at(&[a, c]), 0.0);
        // Same column → visible.
        let d = e.cell_span(1, 0).unwrap().start;
        assert_eq!(m.at(&[a, d]), 0.0);
        // Header of column 0 sees its cells.
        let h = e.header_span(0).unwrap().start;
        assert_eq!(m.at(&[h, a]), 0.0);
        // CLS (position 0) is global.
        assert_eq!(m.at(&[0, b]), 0.0);
        assert_eq!(m.at(&[b, 0]), 0.0);
    }

    #[test]
    fn encode_respects_visibility() {
        // Perturbing a structurally unrelated cell must not change a cell's
        // encoding in a single-layer model (no multi-hop leakage).
        let one_layer = ModelConfig {
            n_layers: 1,
            n_entities: 10,
            dropout: 0.0,
            ..ModelConfig::tiny(300)
        };
        let m = Turl::new(&one_layer);
        let e = encoded_sample();
        let inp = EncoderInput::from_encoded(&e);
        let a_span = e.cell_span(0, 0).unwrap();
        let b_span = e.cell_span(1, 1).unwrap();

        let states1 = m.encode(&inp, false);
        let mut corrupted = inp.clone();
        for i in b_span.clone() {
            corrupted.ids[i] = (corrupted.ids[i] + 1) % 300;
        }
        let states2 = m.encode(&corrupted, false);
        for i in a_span {
            for j in 0..m.d_model() {
                let x = states1.at(&[i, j]);
                let y = states2.at(&[i, j]);
                assert!(
                    (x - y).abs() < 1e-5,
                    "cell (0,0) token {i} leaked info from unrelated cell"
                );
            }
        }
        // But a same-row cell does see the change... verify sensitivity via
        // the corrupted cell itself.
        let bi = b_span.start;
        assert_ne!(states1.row(bi), states2.row(bi));
    }

    #[test]
    fn requires_entity_vocab() {
        let result = std::panic::catch_unwind(|| Turl::new(&ModelConfig::tiny(300)));
        assert!(result.is_err());
    }

    #[test]
    fn mer_head_and_entity_embeddings() {
        let m = Turl::new(&cfg());
        let inp = input_sample();
        let states = m.encode(&inp, false);
        let logits = m.mer.forward(&states.rows(0, 2));
        assert_eq!(logits.shape(), &[2, 10]);
        let emb = m.entity_embedding(3);
        assert_eq!(emb.shape(), &[1, m.d_model()]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Turl::new(&cfg());
        let b = Turl::new(&cfg());
        let inp = input_sample();
        assert_eq!(a.encode(&inp, false), b.encode(&inp, false));
    }
}
