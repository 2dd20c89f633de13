//! TaBERT-style model: each row is encoded separately together with the
//! NL context, then **vertical self-attention** layers run across the rows
//! of each column to fuse information — the survey's internal-level
//! exemplar "Yin et al. use vertical self-attention layers" (§2.3).
//!
//! ## Weight sharing across rows/columns
//!
//! The row encoder processes every row with the *same* weights, and the
//! vertical encoder every column with the same weights. Layers in `ntr-nn`
//! train through `&self` and keep nothing between calls, so each row and
//! column pass runs on the shared blocks with a context of its own
//! ([`Cx::fork`]: zeroed gradients, the example's dropout streams), and the
//! backward folds each pass's gradients into the example's in pass order
//! ([`merge_grads`]). This is the standard unrolled-weight-sharing
//! construction; the finite-difference test below pins its correctness
//! end-to-end.

use crate::config::ModelConfig;
use crate::embeddings::{EmbeddingFlags, EmbeddingsTape, TableEmbeddings};
use crate::heads::{pool_mean, pool_mean_backward};
use crate::input::EncoderInput;
use ntr_nn::encoder::EncoderTape;
use ntr_nn::init::SeededInit;
use ntr_nn::{merge_grads, visit_child, Cx, Dropout, Encoder, Layer, Name, Param, Rows};
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

/// One row's training pass: its context, its embeddings' and encoder's
/// tapes, each column's cell span and the row's sequence length.
struct RowPass(
    Cx,
    EmbeddingsTape,
    EncoderTape,
    Vec<Option<Range<usize>>>,
    usize,
);

/// What [`TaBert::backward`] needs of [`TaBert::encode_table_train`]:
/// every row pass, then every column pass's context and tape, in order.
pub struct TabertTape(Vec<RowPass>, Vec<(Cx, EncoderTape)>);

/// TaBERT-style encoder.
pub struct TaBert {
    /// Input embeddings (shared across rows).
    pub embeddings: TableEmbeddings,
    /// Horizontal (per-row) encoder.
    pub row_encoder: Encoder,
    /// Vertical (per-column, across rows) encoder.
    pub vertical: Encoder,
    cfg: ModelConfig,
    max_tokens_per_row: usize,
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

    /// Encodes a table for inference: every row is linearized with the
    /// context and encoded by the shared row encoder; cell vectors are
    /// mean-pooled spans; the shared vertical encoder then attends across
    /// rows within each column.
    pub fn encode_table(
        &self,
        table: &Table,
        context: &str,
        tok: &WordPieceTokenizer,
    ) -> TabertOutput {
        self.encode(table, context, tok, None).0
    }

    /// [`TaBert::encode_table`] with dropout, and the tape
    /// [`TaBert::backward`] needs. Every pass draws its masks from `cx`'s
    /// streams as they stand, on a context of its own.
    pub fn encode_table_train(
        &self,
        table: &Table,
        context: &str,
        tok: &WordPieceTokenizer,
        cx: &Cx,
    ) -> (TabertOutput, TabertTape) {
        self.encode(table, context, tok, Some(cx))
    }

    /// The row and column passes of an encoding. With `cx`, each pass
    /// trains on a fork of it and leaves its tape.
    fn encode(
        &self,
        table: &Table,
        context: &str,
        tok: &WordPieceTokenizer,
        cx: Option<&Cx>,
    ) -> (TabertOutput, TabertTape) {
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

        // Horizontal passes, one per row.
        let mut tape = TabertTape(Vec::new(), Vec::new());
        let mut cell_vecs = Tensor::zeros(&[n_rows * n_cols, d]);
        for r in 0..n_rows {
            let row_table = table.select_rows(&[r]);
            let encoded = RowMajorLinearizer.linearize(&row_table, context, tok, &opts);
            let spans: Vec<_> = (0..n_cols).map(|c| encoded.cell_span(0, c)).collect();
            let input = EncoderInput::from_encoded(&encoded);
            let states = match cx.map(Cx::fork) {
                None => (self.row_encoder).infer(&self.embeddings.infer(&input), None, Rows::All),
                Some(mut pass) => {
                    let (x, emb) = self.embeddings.forward_train(&input, &mut pass);
                    let (states, enc) =
                        (self.row_encoder).forward_train(&x, None, Rows::All, &mut pass);
                    tape.0
                        .push(RowPass(pass, emb, enc, spans.clone(), states.dim(0)));
                    states
                }
            };
            for (c, span) in spans.iter().enumerate() {
                if let Some(span) = span {
                    let pooled = pool_mean(&states, span);
                    cell_vecs
                        .row_mut(r * n_cols + c)
                        .copy_from_slice(pooled.data());
                }
            }
        }

        // Vertical passes, one per column, and column summaries.
        let mut out_cells = Tensor::zeros(&[n_rows * n_cols, d]);
        let mut columns = Tensor::zeros(&[n_cols, d]);
        for c in 0..n_cols {
            let mut col_seq = Tensor::zeros(&[n_rows, d]);
            for r in 0..n_rows {
                col_seq
                    .row_mut(r)
                    .copy_from_slice(cell_vecs.row(r * n_cols + c));
            }
            let fused = match cx.map(Cx::fork) {
                None => self.vertical.infer(&col_seq, None, Rows::All),
                Some(mut pass) => {
                    let (fused, enc) =
                        (self.vertical).forward_train(&col_seq, None, Rows::All, &mut pass);
                    tape.1.push((pass, enc));
                    fused
                }
            };
            for r in 0..n_rows {
                out_cells
                    .row_mut(r * n_cols + c)
                    .copy_from_slice(fused.row(r));
            }
            let summary = fused.mean_rows();
            columns.row_mut(c).copy_from_slice(summary.data());
        }

        let out = TabertOutput {
            cells: out_cells,
            columns,
            n_rows,
            n_cols,
        };
        (out, tape)
    }

    /// Backpropagates through [`TaBert::encode_table_train`], folding each
    /// pass's gradients into `cx`'s: the columns in order, then the rows.
    ///
    /// `d_cells` is the gradient w.r.t. [`TabertOutput::cells`]
    /// (`[n_rows*n_cols, d]`); `d_columns` optionally adds gradient w.r.t.
    /// the column summaries (`[n_cols, d]`).
    ///
    /// # Panics
    /// Panics on bad shapes.
    pub fn backward(
        &self,
        tape: TabertTape,
        d_cells: &Tensor,
        d_columns: Option<&Tensor>,
        cx: &mut Cx,
    ) {
        let TabertTape(rows, cols) = tape;
        let (n_rows, n_cols) = (rows.len(), cols.len());
        let d = self.cfg.d_model;
        assert_eq!(d_cells.shape(), &[n_rows * n_cols, d], "d_cells shape");
        if let Some(dc) = d_columns {
            assert_eq!(dc.shape(), &[n_cols, d], "d_columns shape");
        }

        // Vertical backward per column → gradient on pooled cell vectors.
        let mut d_cell_vecs = Tensor::zeros(&[n_rows * n_cols, d]);
        for (c, (mut pass, col)) in cols.into_iter().enumerate() {
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
            let d_in = self.vertical.backward(col, &d_fused, &mut pass);
            for r in 0..n_rows {
                d_cell_vecs
                    .row_mut(r * n_cols + c)
                    .copy_from_slice(d_in.row(r));
            }
            merge_grads(&mut cx.grads, std::slice::from_mut(&mut pass));
        }

        // Horizontal backward per row.
        for (r, RowPass(mut pass, emb, enc, spans, seq_len)) in rows.into_iter().enumerate() {
            let mut d_states = Tensor::zeros(&[seq_len, d]);
            for (c, span) in spans.iter().enumerate() {
                let Some(span) = span else { continue };
                let d_pooled = d_cell_vecs.rows(r * n_cols + c, r * n_cols + c + 1);
                d_states.add_assign(&pool_mean_backward(&d_pooled, span, seq_len));
            }
            let dx = self.row_encoder.backward(enc, &d_states, &mut pass);
            self.embeddings.backward(emb, &dx, &mut pass);
            merge_grads(&mut cx.grads, std::slice::from_mut(&mut pass));
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

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
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
        let m = TaBert::new(&cfg());
        let t = sample_table();
        let tok = tokenizer();
        let out = m.encode_table(&t, &t.caption, &tok);
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
        let m = TaBert::new(&cfg());
        let tok = tokenizer();
        let t = sample_table();
        let out1 = m.encode_table(&t, "", &tok);
        let mut t2 = t.clone();
        *t2.cell_mut(1, 2) = ntr_table::Cell::new("999.9");
        let out2 = m.encode_table(&t2, "", &tok);
        let a = out1.cell(0, 2);
        let b = out2.cell(0, 2);
        assert_ne!(a, b, "row 0 must see row 1 through vertical attention");
    }

    #[test]
    fn deterministic() {
        let a = TaBert::new(&cfg());
        let b = TaBert::new(&cfg());
        let t = sample_table();
        let tok = tokenizer();
        assert_eq!(
            a.encode_table(&t, &t.caption, &tok).cells,
            b.encode_table(&t, &t.caption, &tok).cells
        );
    }

    /// End-to-end finite-difference check of the shared-weight backward:
    /// gradient w.r.t. the vertical encoder's final LayerNorm γ and the
    /// row encoder's final LayerNorm γ.
    #[test]
    fn gradcheck_shared_weight_merging() {
        let mut m = TaBert::new(&cfg());
        let mut cx = Cx::new(&mut m);
        let tok = tokenizer();
        let t = sample_table();
        let dy = SeededInit::new(5).uniform(&[6, 16], -1.0, 1.0);

        let (out, tape) = m.encode_table_train(&t, "ctx", &tok, &cx);
        assert_eq!(out.cells, m.encode_table(&t, "ctx", &tok).cells);
        m.backward(tape, &dy, None, &mut cx);

        for target in ["vertical/final_ln/gamma", "row_encoder/final_ln/gamma"] {
            let mut analytic = None;
            let mut value = None;
            m.visit_params(&mut |n, p| {
                if n.to_string() == target {
                    analytic = Some(ntr_nn::gradcheck::grad(&cx.grads, p));
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
                let out = probe.encode_table(&tc, "ctx", &tokc);
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
        let mut cx = Cx::new(&mut m);
        let mut adam = Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..10 {
            let (out, tape) = m.encode_table_train(&t, &t.caption, &tok, &cx);
            let (loss, dcols) = ntr_nn::loss::mse(&out.columns, &target);
            first.get_or_insert(loss);
            last = loss;
            m.backward(tape, &Tensor::zeros(&[6, 16]), Some(&dcols), &mut cx);
            adam.step(&mut m, &cx.grads);
            cx.grads.zero();
        }
        assert!(last < first.unwrap() * 0.8, "{first:?} → {last}");
    }

    /// One training `encode_table` and its backward, at dropout 0.1: the
    /// gradient bits in visit order, then the output cells' bits.
    fn train_pass_bits(m: &mut TaBert, t: &Table, tok: &WordPieceTokenizer) -> Vec<u8> {
        let d_cells = SeededInit::new(41).uniform(&[6, 16], -1.0, 1.0);
        let d_columns = SeededInit::new(42).uniform(&[3, 16], -1.0, 1.0);
        let mut cx = Cx::new(m);
        let (out, tape) = m.encode_table_train(t, &t.caption, tok, &cx);
        m.backward(tape, &d_cells, Some(&d_columns), &mut cx);
        let mut bytes = Vec::new();
        bytes.extend(
            cx.grads
                .data()
                .iter()
                .flat_map(|g| g.to_bits().to_le_bytes()),
        );
        bytes.extend(
            out.cells
                .data()
                .iter()
                .flat_map(|g| g.to_bits().to_le_bytes()),
        );
        bytes
    }

    /// Pins the shared-weight training pass bit for bit: every row and
    /// column pass draws its dropout masks from the same starting streams,
    /// and each pass's gradients fold into the model's in pass order.
    #[test]
    fn training_pass_is_pinned() {
        let mut m = TaBert::new(&ModelConfig {
            dropout: 0.1,
            ..ModelConfig::tiny(300)
        });
        let t = sample_table();
        let bits = ntr_tensor::simd::force_scalar(|| train_pass_bits(&mut m, &t, &tokenizer()));
        assert_eq!(ntr_tensor::io::crc32(&bits), 2_528_125_801);
    }
}
