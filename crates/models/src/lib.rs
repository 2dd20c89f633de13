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
pub use embeddings::{EmbeddingFlags, EmbeddingsTape, TableEmbeddings};
pub use heads::{
    pool_mean, pool_mean_backward, ClassifierHead, ClassifierHeadTape, MlmHead, MlmHeadTape,
    TokenScoreHead,
};
pub use input::EncoderInput;
pub use mate::{sparse_attention, sparse_attention_flops, Mate, SparseAxis, SparsePattern};
pub use row_student::RowStudent;
pub use tabert::TaBert;
pub use tapas::Tapas;
pub use tapex::Tapex;
pub use turl::Turl;

pub use ntr_nn::Rows;

use ntr_nn::encoder::EncoderTape;
use ntr_nn::{AttnMask, Cx, Layer};
use ntr_tensor::Tensor;
use std::any::Any;

/// Common interface of the encoder-style models: turn an [`EncoderInput`]
/// into per-token hidden states `[seq, d_model]`, or into the [`Rows`] of
/// them the caller consumes.
///
/// Both paths are `&self`, so one model is shared by every thread that
/// encodes or trains with it (hence the `Send + Sync` bound).
/// [`SequenceEncoder::infer`] is the one inference path: no tape, no
/// dropout. [`SequenceEncoder::encode_train`] is the one training forward:
/// it draws dropout from the example's [`Cx`] and returns a [`Tape`], which
/// [`SequenceEncoder::backward`] consumes to propagate the gradient of the
/// rows it returned into the context's gradients.
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

    /// Every token's hidden states, for inference:
    /// [`SequenceEncoder::infer`] over [`Rows::All`].
    ///
    /// # Panics
    /// Panics if `train` is set: training runs through
    /// [`SequenceEncoder::encode_train`].
    fn encode(&self, input: &EncoderInput, train: bool) -> Tensor {
        assert!(
            !train,
            "SequenceEncoder::encode is inference; train through encode_train"
        );
        self.infer(input, Rows::All)
    }

    /// The training forward of [`SequenceEncoder::infer`]: the states of
    /// the rows a loss reads, and the tape `backward` needs.
    fn encode_train(&self, input: &EncoderInput, rows: Rows, cx: &mut Cx) -> (Tensor, Tape);

    /// Backpropagates the gradient of what `encode_train` returned.
    fn backward(&self, tape: Tape, d_states: &Tensor, cx: &mut Cx);

    /// Short, stable model-family name for reports.
    fn family(&self) -> &'static str;
}

/// What [`SequenceEncoder::backward`] needs of
/// [`SequenceEncoder::encode_train`], opaque across families: each family
/// boxes its own tape and downcasts it back.
pub type Tape = Box<dyn Any>;

/// The [`SequenceEncoder`] of an encoder-only family: its embeddings, then
/// its encoder under the attention mask that `|model, input| mask` gives.
macro_rules! encoder_family {
    ($model:ty, $family:literal, |$m:pat_param, $input:ident| $mask:expr) => {
        impl SequenceEncoder for $model {
            fn d_model(&self) -> usize {
                self.config().d_model
            }

            fn vocab_size(&self) -> usize {
                self.config().vocab_size
            }

            fn infer(&self, input: &EncoderInput, rows: Rows) -> Tensor {
                let ($m, $input) = (self, input);
                let mask: Option<AttnMask> = $mask;
                let x = self.embeddings.infer(input);
                self.encoder.infer(&x, mask.as_ref(), rows)
            }

            fn encode_train(
                &self,
                input: &EncoderInput,
                rows: Rows,
                cx: &mut Cx,
            ) -> (Tensor, Tape) {
                let ($m, $input) = (self, input);
                let mask: Option<AttnMask> = $mask;
                let (x, emb) = self.embeddings.forward_train(input, cx);
                let (states, enc) = self.encoder.forward_train(&x, mask.as_ref(), rows, cx);
                (states, Box::new((emb, enc)))
            }

            fn backward(&self, tape: Tape, d_states: &Tensor, cx: &mut Cx) {
                let tape = tape.downcast::<(EmbeddingsTape, EncoderTape)>();
                let (emb, enc) = *tape.expect("a tape of this family");
                let dx = self.encoder.backward(enc, d_states, cx);
                self.embeddings.backward(emb, &dx, cx);
            }

            fn family(&self) -> &'static str {
                $family
            }
        }
    };
}

encoder_family!(VanillaBert, "bert", |_, _input| None);
encoder_family!(Tapas, "tapas", |_, _input| None);
encoder_family!(Turl, "turl", |_, input| Some(Turl::visibility_mask(input)));
encoder_family!(Mate, "mate", |m, input| Some(m.head_masks(input)));

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
