//! # ntr-models
//!
//! The model zoo: the transformer architecture families the paper surveys
//! (§2.3), each built from the shared `ntr-nn` blocks and differing exactly
//! where the survey says they differ — input embeddings, attention
//! structure, and output heads.
//!
//! | Model | Survey exemplar | Structural mechanism |
//! |---|---|---|
//! | [`VanillaBert`] | BERT | none: serialized table is just text |
//! | [`Tapas`] | TaPas (Herzig et al.) | extra row/column/segment embeddings + cell-selection head |
//! | [`TaBert`] | TaBERT (Yin et al.) | per-row encoding + **vertical self-attention** across rows |
//! | [`Turl`] | TURL (Deng et al.) | **visibility matrix** attention + entity embeddings + MER |
//! | [`Mate`] | MATE (Eisenschlos et al.) | per-head **row/column sparse attention** |
//! | [`Tapex`] | TAPEX (Liu et al.) | encoder–decoder pretrained as a neural SQL executor |
//!
//! All models share [`EncoderInput`] (token ids + structural metadata from
//! `ntr-table`'s linearizers) and implement [`SequenceEncoder`], so the
//! fine-tuning heads in `ntr-tasks` are generic over the family. A caller
//! names the rows it reads with [`Rows`] — [`Rows::CLS`] for the table
//! level, the masked rows for an MLM loss or its evaluation — and the last
//! encoder layer computes those alone.

mod config;
mod embeddings;
mod heads;
mod input;

mod bert;
mod mate;
mod row_student;
mod tabert;
mod tapas;
mod tapex;
mod turl;

pub use bert::VanillaBert;
pub use config::{ModelConfig, QuantSpec};
pub use embeddings::EmbeddingFlags;
pub use embeddings::TableEmbeddings;
pub use heads::{pool_mean, pool_mean_backward, ClassifierHead, MlmHead, TokenScoreHead};
pub use input::EncoderInput;
pub use mate::{sparse_attention, sparse_attention_flops, Mate, SparseAxis, SparsePattern};
pub use row_student::RowStudent;
pub use tabert::TaBert;
pub use tapas::Tapas;
pub use tapex::Tapex;
pub use turl::Turl;

pub use ntr_nn::Rows;

use ntr_nn::Layer;
use ntr_tensor::Tensor;

/// Common interface of the encoder-style models: turn an [`EncoderInput`]
/// into per-token hidden states `[seq, d_model]`, or into the [`Rows`] of
/// them the caller consumes.
///
/// [`SequenceEncoder::infer`] is the one inference path: `&self`, no caches,
/// no dropout, so one model is shared by every thread that encodes with it
/// (hence the `Send + Sync` bound). [`SequenceEncoder::encode_train`] is the
/// one training forward: it enables dropout and records caches, and
/// [`SequenceEncoder::backward`] then propagates the gradient of the rows it
/// returned and accumulates parameter gradients. A `backward` after an
/// inference encode has no caches to consume and panics.
pub trait SequenceEncoder: Layer + Send + Sync {
    /// Model width.
    fn d_model(&self) -> usize;

    /// WordPiece vocabulary size the embedding table was built for. Input
    /// ids must be `< vocab_size()`; callers (e.g. the serving pipeline)
    /// check this up front so a tokenizer/model mismatch surfaces as a
    /// typed error instead of an embedding-lookup panic.
    fn vocab_size(&self) -> usize;

    /// Encodes an input for inference, recording nothing: the states of
    /// `rows` — `[seq, d_model]` for [`Rows::All`], the `[1, d_model]`
    /// `[CLS]` state for [`Rows::CLS`] — each bit-identical to that row of
    /// [`Rows::All`], the last layer computing only what they need.
    fn infer(&self, input: &EncoderInput, rows: Rows) -> Tensor;

    /// Every token's hidden states: [`SequenceEncoder::encode_train`] with
    /// `train`, [`SequenceEncoder::infer`] without.
    fn encode(&mut self, input: &EncoderInput, train: bool) -> Tensor {
        if !train {
            return self.infer(input, Rows::All);
        }
        self.encode_train(input, Rows::All)
    }

    /// The training forward of [`SequenceEncoder::infer`]: the states of
    /// the rows a loss reads, recording what `backward` needs.
    fn encode_train(&mut self, input: &EncoderInput, rows: Rows) -> Tensor;

    /// Backpropagates the gradient of what `encode_train` returned.
    fn backward(&mut self, d_states: &Tensor);

    /// Short, stable model-family name for reports.
    fn family(&self) -> &'static str;
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for model tests: a small tokenizer, a linearized
    //! sample table, and the corresponding encoder input.

    use crate::input::EncoderInput;
    use ntr_table::{EncodedTable, Linearizer, LinearizerOptions, RowMajorLinearizer, Table};
    use ntr_tokenizer::{train::WordPieceTrainer, WordPieceTokenizer};

    pub fn tokenizer() -> WordPieceTokenizer {
        let corpus = [
            "country capital population france paris australia canberra japan tokyo",
            "row 1 2 3 : | ; is col population in million by country",
            "67.8 25.69 125.7 which what of the",
        ];
        WordPieceTokenizer::new(WordPieceTrainer::new(280).train(corpus.iter().copied()))
    }

    pub fn sample_table() -> Table {
        let mut t = Table::from_strings(
            "t",
            &["Country", "Capital", "Population"],
            &[
                &["France", "Paris", "67.8"],
                &["Australia", "Canberra", "25.69"],
            ],
        )
        .with_caption("Population in Million by Country");
        t.cell_mut(0, 0).entity = Some(1);
        t.cell_mut(0, 1).entity = Some(2);
        t.cell_mut(1, 0).entity = Some(3);
        t.cell_mut(1, 1).entity = Some(4);
        t
    }

    pub fn encoded_sample() -> EncodedTable {
        let tok = tokenizer();
        let t = sample_table();
        RowMajorLinearizer.linearize(
            &t,
            &t.caption,
            &tok,
            &LinearizerOptions {
                max_tokens: 64,
                ..Default::default()
            },
        )
    }

    pub fn input_sample() -> EncoderInput {
        EncoderInput::from_encoded(&encoded_sample())
    }
}
