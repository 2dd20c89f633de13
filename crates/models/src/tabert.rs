//! TaBERT-style model: each row is encoded separately together with the
//! NL context, then **vertical self-attention** layers run across the rows
//! of each column to fuse information — the survey's internal-level
//! exemplar "Yin et al. use vertical self-attention layers" (§2.3).
//!
//! ## Weight sharing across rows/columns
//!
//! The row encoder processes every row with the *same* weights, and the
//! vertical encoder every column with the same weights. Layers in `ntr-nn`
//! keep one activation cache each, so sharing is implemented by cloning
//! the master block per row/column for the forward pass and merging the
//! clones' accumulated gradients back into the master during backward
//! (clone order is deterministic, so the pairing is exact). This is the
//! standard unrolled-weight-sharing construction; the finite-difference
//! test below pins its correctness end-to-end.

use crate::config::ModelConfig;
use crate::embeddings::{EmbeddingFlags, TableEmbeddings};
use crate::heads::{pool_mean, pool_mean_backward};
use crate::input::EncoderInput;
use ntr_nn::init::SeededInit;
use ntr_nn::{grads_of, merge_grads, visit_child, Encoder, Layer, Name, Param};
use ntr_table::{Linearizer, LinearizerOptions, RowMajorLinearizer, Table};
use ntr_tensor::Tensor;
use ntr_tokenizer::WordPieceTokenizer;
use std::ops::Range;

/// Output of one TaBERT table encoding.
#[derive(Debug, Clone)]
pub struct TabertOutput {
    /// Per-cell representations, shape `[n_rows * n_cols, d]`, row-major
    /// over the grid.
    pub cells: Tensor,
    /// Per-column summaries (mean over rows of the vertical outputs),
    /// shape `[n_cols, d]`.
    pub columns: Tensor,
    /// Grid rows encoded.
    pub n_rows: usize,
    /// Grid columns.
    pub n_cols: usize,
}

impl TabertOutput {
    /// The `[1, d]` representation of cell `(r, c)`.
    pub fn cell(&self, r: usize, c: usize) -> Tensor {
        let idx = r * self.n_cols + c;
        self.cells.rows(idx, idx + 1)
    }
}

struct RowPass {
    embeddings: TableEmbeddings,
    encoder: Encoder,
    spans: Vec<Option<Range<usize>>>, // per column
    seq_len: usize,
}

struct ColPass {
    encoder: Encoder,
}

struct Cache {
    rows: Vec<RowPass>,
    cols: Vec<ColPass>,
    n_rows: usize,
    n_cols: usize,
}

/// TaBERT-style encoder.
pub struct TaBert {
    /// Master input embeddings (shared across rows).
    pub embeddings: TableEmbeddings,
    /// Master horizontal (per-row) encoder.
    pub row_encoder: Encoder,
    /// Master vertical (per-column, across rows) encoder.
    pub vertical: Encoder,
    cfg: ModelConfig,
    max_tokens_per_row: usize,
    cache: Option<Cache>,
}

impl TaBert {
    /// Builds the model. The vertical stack uses a single layer (TaBERT
    /// uses few vertical layers; one keeps the unrolled backward cheap).
    pub fn new(cfg: &ModelConfig) -> Self {
        cfg.validate();
        let mut init = SeededInit::new(cfg.seed ^ 0x7AB7);
        Self {
            embeddings: TableEmbeddings::new(cfg, EmbeddingFlags::structural(), &mut init),
            row_encoder: Encoder::new(
                cfg.n_layers,
                cfg.d_model,
                cfg.n_heads,
                cfg.d_ff,
                cfg.dropout,
                &mut init,
            ),
            vertical: Encoder::new(
                1,
                cfg.d_model,
                cfg.n_heads,
                cfg.d_ff,
                cfg.dropout,
                &mut init,
            ),
            cfg: *cfg,
            max_tokens_per_row: cfg.max_seq,
            cache: None,
        }
    }

    /// The model's config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.cfg.d_model
    }

    /// Encodes a table: every row is linearized with the context and
    /// encoded by the shared row encoder; cell vectors are mean-pooled
    /// spans; the shared vertical encoder then attends across rows within
    /// each column.
    pub fn encode_table(
        &mut self,
        table: &Table,
        context: &str,
        tok: &WordPieceTokenizer,
        train: bool,
    ) -> TabertOutput {
        let n_rows = table.n_rows();
        let n_cols = table.n_cols();
        assert!(
            n_rows > 0 && n_cols > 0,
            "TaBert cannot encode an empty table"
        );
        let d = self.cfg.d_model;
        let opts = LinearizerOptions {
            max_tokens: self.max_tokens_per_row,
            ..Default::default()
        };

        // Horizontal passes (one clone of the shared blocks per row).
        let mut rows = Vec::with_capacity(n_rows);
        let mut cell_vecs = Tensor::zeros(&[n_rows * n_cols, d]);
        for r in 0..n_rows {
            let row_table = table.select_rows(&[r]);
            let encoded = RowMajorLinearizer.linearize(&row_table, context, tok, &opts);
            let input = EncoderInput::from_encoded(&encoded);
            let mut embeddings = self.embeddings.clone();
            let mut encoder = self.row_encoder.clone();
            embeddings.zero_grad();
            encoder.zero_grad();
            let states = encoder.forward(&embeddings.forward(&input, train), None, train);
            let mut spans = Vec::with_capacity(n_cols);
            for c in 0..n_cols {
                let span = encoded.cell_span(0, c);
                if let Some(span) = &span {
                    let pooled = pool_mean(&states, span);
                    cell_vecs
                        .row_mut(r * n_cols + c)
                        .copy_from_slice(pooled.data());
                }
                spans.push(span);
            }
            rows.push(RowPass {
                embeddings,
                encoder,
                spans,
                seq_len: states.dim(0),
            });
        }

        // Vertical passes (one clone per column) + column summaries.
        let mut cols = Vec::with_capacity(n_cols);
        let mut out_cells = Tensor::zeros(&[n_rows * n_cols, d]);
        let mut columns = Tensor::zeros(&[n_cols, d]);
        for c in 0..n_cols {
            let mut col_seq = Tensor::zeros(&[n_rows, d]);
            for r in 0..n_rows {
                col_seq
                    .row_mut(r)
                    .copy_from_slice(cell_vecs.row(r * n_cols + c));
            }
            let mut encoder = self.vertical.clone();
            encoder.zero_grad();
            let fused = encoder.forward(&col_seq, None, train);
            for r in 0..n_rows {
                out_cells
                    .row_mut(r * n_cols + c)
                    .copy_from_slice(fused.row(r));
            }
            let summary = fused.mean_rows();
            columns.row_mut(c).copy_from_slice(summary.data());
            cols.push(ColPass { encoder });
        }

        self.cache = Some(Cache {
            rows,
            cols,
            n_rows,
            n_cols,
        });
        TabertOutput {
            cells: out_cells,
            columns,
            n_rows,
            n_cols,
        }
    }

    /// Backpropagates through the last [`TaBert::encode_table`] call.
    ///
    /// `d_cells` is the gradient w.r.t. [`TabertOutput::cells`]
    /// (`[n_rows*n_cols, d]`); `d_columns` optionally adds gradient w.r.t.
    /// the column summaries (`[n_cols, d]`).
    ///
    /// # Panics
    /// Panics if called without a cached forward or with bad shapes.
    pub fn backward(&mut self, d_cells: &Tensor, d_columns: Option<&Tensor>) {
        let mut cache = self
            .cache
            .take()
            .expect("TaBert::backward without a cached encode_table");
        let (n_rows, n_cols) = (cache.n_rows, cache.n_cols);
        let d = self.cfg.d_model;
        assert_eq!(d_cells.shape(), &[n_rows * n_cols, d], "d_cells shape");
        if let Some(dc) = d_columns {
            assert_eq!(dc.shape(), &[n_cols, d], "d_columns shape");
        }

        // Vertical backward per column → gradient on pooled cell vectors.
        let mut d_cell_vecs = Tensor::zeros(&[n_rows * n_cols, d]);
        for (c, col) in cache.cols.iter_mut().enumerate() {
            let mut d_fused = Tensor::zeros(&[n_rows, d]);
            for r in 0..n_rows {
                let src = d_cells.row(r * n_cols + c);
                d_fused.row_mut(r).copy_from_slice(src);
            }
            if let Some(dc) = d_columns {
                // Column summary was a mean over rows.
                let scale = 1.0 / n_rows as f32;
                for r in 0..n_rows {
                    let row = d_fused.row_mut(r);
                    for (x, &g) in row.iter_mut().zip(dc.row(c)) {
                        *x += g * scale;
                    }
                }
            }
            let d_in = col.encoder.backward(&d_fused);
            for r in 0..n_rows {
                d_cell_vecs
                    .row_mut(r * n_cols + c)
                    .copy_from_slice(d_in.row(r));
            }
            merge_grads(&mut self.vertical, &mut [grads_of(&mut col.encoder)]);
        }

        // Horizontal backward per row.
        for (r, row) in cache.rows.iter_mut().enumerate() {
            let mut d_states = Tensor::zeros(&[row.seq_len, d]);
            for (c, span) in row.spans.iter().enumerate() {
                let Some(span) = span else { continue };
                let d_pooled = d_cell_vecs.rows(r * n_cols + c, r * n_cols + c + 1);
                d_states.add_assign(&pool_mean_backward(&d_pooled, span, row.seq_len));
            }
            let dx = row.encoder.backward(&d_states);
            row.embeddings.backward(&dx);
            merge_grads(&mut self.row_encoder, &mut [grads_of(&mut row.encoder)]);
            merge_grads(&mut self.embeddings, &mut [grads_of(&mut row.embeddings)]);
        }
    }
}

impl Layer for TaBert {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.embeddings
            .visit_params(&mut visit_child("embeddings", f));
        self.row_encoder
            .visit_params(&mut visit_child("row_encoder", f));
        self.vertical.visit_params(&mut visit_child("vertical", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        self.embeddings
            .visit_rng_state(&mut visit_child("embeddings", f));
        self.row_encoder
            .visit_rng_state(&mut visit_child("row_encoder", f));
        self.vertical
            .visit_rng_state(&mut visit_child("vertical", f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{sample_table, tokenizer};
    use ntr_nn::gradcheck::numeric_grad;
    use ntr_nn::optim::Adam;

    fn cfg() -> ModelConfig {
        ModelConfig {
            dropout: 0.0,
            ..ModelConfig::tiny(300)
        }
    }

    #[test]
    fn output_shapes() {
        let mut m = TaBert::new(&cfg());
        let t = sample_table();
        let tok = tokenizer();
        let out = m.encode_table(&t, &t.caption, &tok, false);
        assert_eq!(out.n_rows, 2);
        assert_eq!(out.n_cols, 3);
        assert_eq!(out.cells.shape(), &[6, 16]);
        assert_eq!(out.columns.shape(), &[3, 16]);
        assert_eq!(out.cell(1, 2).shape(), &[1, 16]);
    }

    #[test]
    fn vertical_attention_mixes_rows() {
        // Changing a cell in row 1 must change row 0's representation of
        // the same column (via vertical attention) — the whole point of
        // TaBERT over per-row BERT.
        let mut m = TaBert::new(&cfg());
        let tok = tokenizer();
        let t = sample_table();
        let out1 = m.encode_table(&t, "", &tok, false);
        let mut t2 = t.clone();
        *t2.cell_mut(1, 2) = ntr_table::Cell::new("999.9");
        let out2 = m.encode_table(&t2, "", &tok, false);
        let a = out1.cell(0, 2);
        let b = out2.cell(0, 2);
        assert_ne!(a, b, "row 0 must see row 1 through vertical attention");
    }

    #[test]
    fn deterministic() {
        let mut a = TaBert::new(&cfg());
        let mut b = TaBert::new(&cfg());
        let t = sample_table();
        let tok = tokenizer();
        assert_eq!(
            a.encode_table(&t, &t.caption, &tok, false).cells,
            b.encode_table(&t, &t.caption, &tok, false).cells
        );
    }

    /// End-to-end finite-difference check of the shared-weight backward:
    /// gradient w.r.t. the vertical encoder's final LayerNorm γ and the
    /// row encoder's final LayerNorm γ.
    #[test]
    fn gradcheck_shared_weight_merging() {
        let mut m = TaBert::new(&cfg());
        let tok = tokenizer();
        let t = sample_table();
        let dy = SeededInit::new(5).uniform(&[6, 16], -1.0, 1.0);

        let _ = m.encode_table(&t, "ctx", &tok, true);
        m.zero_grad();
        let _ = m.encode_table(&t, "ctx", &tok, true);
        m.backward(&dy, None);

        for target in ["vertical/final_ln/gamma", "row_encoder/final_ln/gamma"] {
            let mut analytic = None;
            let mut value = None;
            m.visit_params(&mut |n, p| {
                if n.to_string() == target {
                    analytic = Some(p.grad.clone());
                    value = Some(p.value.clone());
                }
            });
            let analytic = analytic.expect("param exists");
            let value = value.expect("param exists");

            let dyc = dy.clone();
            let tc = t.clone();
            let tokc = tok.clone();
            let num = numeric_grad(&value, 1e-2, |gamma| {
                let mut probe = TaBert::new(&cfg());
                probe.visit_params(&mut |n, p| {
                    if n.to_string() == target {
                        p.value = gamma.clone();
                    }
                });
                let out = probe.encode_table(&tc, "ctx", &tokc, false);
                out.cells.mul(&dyc).sum()
            });
            ntr_nn::gradcheck::assert_close(&analytic, &num, 5e-2, target);
        }
    }

    #[test]
    fn trains_toward_a_target() {
        // Minimize MSE between column summaries and a fixed target; loss
        // must drop, proving the merged gradients point downhill.
        let mut m = TaBert::new(&cfg());
        let tok = tokenizer();
        let t = sample_table();
        let target = SeededInit::new(9).uniform(&[3, 16], -0.5, 0.5);
        let mut adam = Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..10 {
            let out = m.encode_table(&t, &t.caption, &tok, true);
            let (loss, dcols) = ntr_nn::loss::mse(&out.columns, &target);
            first.get_or_insert(loss);
            last = loss;
            m.backward(&Tensor::zeros(&[6, 16]), Some(&dcols));
            adam.step(&mut m);
            m.zero_grad();
        }
        assert!(last < first.unwrap() * 0.8, "{first:?} → {last}");
    }

    #[test]
    #[should_panic(expected = "without a cached encode_table")]
    fn backward_requires_forward() {
        let mut m = TaBert::new(&cfg());
        m.backward(&Tensor::zeros(&[1, 16]), None);
    }
}
