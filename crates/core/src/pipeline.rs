//! The end-to-end pipeline: tokenizer + linearizer + encoder → table
//! representations at every granularity the survey discusses (cell, row,
//! column, table).

use crate::zoo::{build_encoder, EncoderSpec, ModelKind};
use ntr_models::{EncoderInput, ModelConfig, Rows, SequenceEncoder};
use ntr_nn::serialize::{self as checkpoint, CheckpointError};
use ntr_nn::Layer;
use ntr_table::{EncodedTable, Linearizer, LinearizerKind, LinearizerOptions, Table, TokenKind};
use ntr_tensor::{par, Tensor};
use ntr_tokenizer::{train::WordPieceTrainer, WordPieceTokenizer};
use std::path::Path;

/// Typed failure of pipeline construction or encoding — the error surface
/// the serving layer turns into structured error responses instead of
/// panics or dropped connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The tokenizer cannot produce usable ids (e.g. its vocabulary is
    /// empty apart from the special tokens, so every input collapses to
    /// `[UNK]`).
    TokenizeFailed {
        /// What went wrong.
        detail: String,
    },
    /// The table cannot fit the token budget: not even one data row
    /// survives truncation.
    TableTooLarge {
        /// The offending table's id.
        table_id: String,
        /// The budget that was exceeded.
        max_tokens: usize,
    },
    /// The requested model cannot serve this pipeline's requests: unknown
    /// family name, or an embedding table smaller than the tokenizer's
    /// vocabulary (ids would be out of range).
    BadModelChoice {
        /// What went wrong.
        detail: String,
    },
    /// The serving layer shed this request before it reached the
    /// micro-batcher: the bounded submit queue was full (admission
    /// control under overload). The request did no work; retrying after
    /// backoff is safe.
    Overloaded {
        /// Queue depth observed at rejection time.
        queue_depth: usize,
        /// The configured queue capacity.
        queue_cap: usize,
    },
    /// An internal fault (a panic in the batcher or a worker replica)
    /// was isolated while this request was in flight. The request may
    /// or may not have done work; the service itself recovered
    /// (quarantined the replica, restarted the batcher) and retrying is
    /// safe.
    Internal {
        /// What faulted (panic payload or supervision context).
        detail: String,
    },
    /// The request's deadline elapsed before a result could be
    /// delivered — at admission, while queued, or after the batch ran
    /// but too late. No partial result is returned.
    DeadlineExceeded {
        /// The deadline budget that was exceeded, in milliseconds.
        timeout_ms: u64,
    },
    /// The service is in cache-only degraded mode (circuit breaker open
    /// after repeated internal faults): cache hits are still served,
    /// but this request missed and was rejected without queueing.
    /// Retrying after backoff is safe; the breaker probes itself back
    /// to healthy.
    Degraded,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TokenizeFailed { detail } => write!(f, "tokenize failed: {detail}"),
            EncodeError::TableTooLarge {
                table_id,
                max_tokens,
            } => write!(
                f,
                "table {table_id:?} too large: no data row fits the {max_tokens}-token budget"
            ),
            EncodeError::BadModelChoice { detail } => write!(f, "bad model choice: {detail}"),
            EncodeError::Overloaded {
                queue_depth,
                queue_cap,
            } => write!(
                f,
                "server overloaded: submit queue full ({queue_depth}/{queue_cap}); retry after backoff"
            ),
            EncodeError::Internal { detail } => {
                write!(f, "internal serve fault (isolated): {detail}")
            }
            EncodeError::DeadlineExceeded { timeout_ms } => write!(
                f,
                "deadline exceeded: request missed its {timeout_ms}ms budget"
            ),
            EncodeError::Degraded => write!(
                f,
                "service degraded: cache-only mode while recovering from internal faults; retry after backoff"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

impl EncodeError {
    /// Stable machine-readable kind name (the server's `error.kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            EncodeError::TokenizeFailed { .. } => "TokenizeFailed",
            EncodeError::TableTooLarge { .. } => "TableTooLarge",
            EncodeError::BadModelChoice { .. } => "BadModelChoice",
            EncodeError::Overloaded { .. } => "Overloaded",
            EncodeError::Internal { .. } => "Internal",
            EncodeError::DeadlineExceeded { .. } => "DeadlineExceeded",
            EncodeError::Degraded => "Degraded",
        }
    }
}

/// One unit of encode work: a table plus its natural-language context —
/// the element type of the batch-first [`Pipeline::encode_batch`] API.
#[derive(Debug, Clone)]
pub struct EncodeRequest {
    /// The table to encode.
    pub table: Table,
    /// Caption / question / claim accompanying it (may be empty).
    pub context: String,
}

impl EncodeRequest {
    /// A request carrying the table's own caption as context.
    pub fn captioned(table: Table) -> Self {
        let context = table.caption.clone();
        Self { table, context }
    }
}

/// A configured encode pipeline (the paper's "Input Processing" module
/// plus model invocation).
pub struct Pipeline {
    tokenizer: WordPieceTokenizer,
    linearizer: Box<dyn Linearizer + Send + Sync>,
    opts: LinearizerOptions,
    encoder: EncoderSpec,
}

/// Builder for [`Pipeline`].
pub struct PipelineBuilder {
    vocab_docs: Vec<String>,
    vocab_size: usize,
    linearizer: LinearizerKind,
    opts: LinearizerOptions,
    encoder: EncoderSpec,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self {
            vocab_docs: Vec::new(),
            vocab_size: 2000,
            linearizer: LinearizerKind::RowMajor,
            opts: LinearizerOptions::default(),
            encoder: EncoderSpec::f32(ModelKind::Tapas),
        }
    }
}

impl PipelineBuilder {
    /// Adds tables whose text trains the WordPiece vocabulary.
    pub fn vocab_from_tables(mut self, tables: &[Table]) -> Self {
        for t in tables {
            self.vocab_docs.push(ntr_corpus::vocab::table_text(t));
        }
        // Structural symbols and digits must always be known.
        self.vocab_docs.extend(std::iter::repeat_n(
            "| : ; , . ? row col is the of what 0 1 2 3 4 5 6 7 8 9".to_string(),
            8,
        ));
        self
    }

    /// Adds free-text documents (questions, claims) to vocabulary training.
    pub fn vocab_from_texts(mut self, texts: &[String]) -> Self {
        self.vocab_docs.extend_from_slice(texts);
        self
    }

    /// Uses an already-trained tokenizer instead of training one. The
    /// tokenizer is taken as-is (even with an empty vocabulary), so this
    /// path cannot fail.
    pub fn build_with_tokenizer(self, tokenizer: WordPieceTokenizer) -> Pipeline {
        Pipeline {
            tokenizer,
            linearizer: self.linearizer.into_boxed(),
            opts: self.opts,
            encoder: self.encoder,
        }
    }

    /// Sets the encoder spec (family + serving precision) that
    /// [`Pipeline::build_default_encoder`] constructs (default
    /// `tapas@f32`). The spec is validated at build time, so an int8
    /// request for a family with no int8 path fails here, not at first
    /// encode.
    pub fn encoder(mut self, spec: EncoderSpec) -> Self {
        self.encoder = spec;
        self
    }

    /// Target vocabulary size (default 2000).
    pub fn vocab_size(mut self, size: usize) -> Self {
        self.vocab_size = size;
        self
    }

    /// Overrides the serialization strategy (default
    /// [`LinearizerKind::RowMajor`]); out-of-tree strategies go through
    /// [`LinearizerKind::Custom`].
    pub fn linearizer(mut self, kind: LinearizerKind) -> Self {
        self.linearizer = kind;
        self
    }

    /// Overrides linearizer options (token budget, context position).
    pub fn options(mut self, opts: LinearizerOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Trains the vocabulary and finalizes the pipeline.
    ///
    /// Fails with [`EncodeError::TokenizeFailed`] when vocabulary training
    /// produced nothing beyond the special tokens (no
    /// `vocab_from_tables`/`vocab_from_texts` input) — historically this
    /// silently built a pipeline that tokenized everything to `[UNK]`.
    pub fn build(self) -> Result<Pipeline, EncodeError> {
        self.encoder.validate()?;
        let vocab = WordPieceTrainer::new(self.vocab_size)
            .train(self.vocab_docs.iter().map(String::as_str));
        if vocab.is_empty() {
            return Err(EncodeError::TokenizeFailed {
                detail: "trained vocabulary is empty (no vocab_from_tables/vocab_from_texts \
                         input); every token would map to [UNK]"
                    .to_string(),
            });
        }
        Ok(Pipeline {
            tokenizer: WordPieceTokenizer::new(vocab),
            linearizer: self.linearizer.into_boxed(),
            opts: self.opts,
            encoder: self.encoder,
        })
    }
}

impl Pipeline {
    /// Starts a builder.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// The tokenizer.
    pub fn tokenizer(&self) -> &WordPieceTokenizer {
        &self.tokenizer
    }

    /// The linearizer options in use.
    pub fn options(&self) -> &LinearizerOptions {
        &self.opts
    }

    /// The serialization strategy in use (its [`Linearizer::name`] is part
    /// of the serving layer's cache key).
    pub fn linearizer(&self) -> &(dyn Linearizer + Send + Sync) {
        self.linearizer.as_ref()
    }

    /// A model config matched to this pipeline's vocabulary.
    pub fn default_config(&self) -> ModelConfig {
        ModelConfig {
            vocab_size: self.tokenizer.vocab_size(),
            ..ModelConfig::default()
        }
    }

    /// The encoder spec this pipeline was built for (see
    /// [`PipelineBuilder::encoder`]).
    pub fn encoder_spec(&self) -> EncoderSpec {
        self.encoder
    }

    /// Constructs the pipeline's configured encoder, sized to its
    /// vocabulary: [`build_encoder`] over [`Pipeline::encoder_spec`] and
    /// [`Pipeline::default_config`].
    pub fn build_default_encoder(&self) -> Result<Box<dyn SequenceEncoder + Send>, EncodeError> {
        build_encoder(self.encoder, &self.default_config())
    }

    /// Serializes (without encoding) — the §3.2 inspection step. Never
    /// fails: a table that overflows the budget is truncated (possibly to
    /// its header skeleton). See [`Pipeline::try_serialize`] for the
    /// validating variant.
    pub fn serialize(&self, table: &Table, context: &str) -> EncodedTable {
        self.linearizer
            .linearize(table, context, &self.tokenizer, &self.opts)
    }

    /// Serializes with validation: fails with
    /// [`EncodeError::TokenizeFailed`] on an empty vocabulary (only
    /// reachable through [`PipelineBuilder::build_with_tokenizer`]) and
    /// with [`EncodeError::TableTooLarge`] when the table has data rows
    /// but not one of them fits the token budget.
    pub fn try_serialize(&self, table: &Table, context: &str) -> Result<EncodedTable, EncodeError> {
        if self.tokenizer.vocab().is_empty() {
            return Err(EncodeError::TokenizeFailed {
                detail: "tokenizer vocabulary is empty; every token would map to [UNK]".to_string(),
            });
        }
        let encoded = self.serialize(table, context);
        if table.n_rows() > 0 && encoded.n_rows_encoded() == 0 {
            return Err(EncodeError::TableTooLarge {
                table_id: table.id.clone(),
                max_tokens: self.opts.max_tokens,
            });
        }
        Ok(encoded)
    }

    /// Checks that `model` can embed every id this pipeline's tokenizer
    /// produces. The serving layer runs this once per model instead of
    /// letting an oversized id panic inside the embedding lookup.
    pub fn check_model(&self, model: &dyn SequenceEncoder) -> Result<(), EncodeError> {
        let need = self.tokenizer.vocab_size();
        let have = model.vocab_size();
        if need > have {
            return Err(EncodeError::BadModelChoice {
                detail: format!(
                    "model embeds {have} ids but the tokenizer produces up to {need}; \
                     build the model from this pipeline's default_config()"
                ),
            });
        }
        Ok(())
    }

    /// Runs the model over an already-serialized table and packages the
    /// states of `rows` — the single compute core shared by
    /// [`Pipeline::encode`], [`Pipeline::try_encode`] and
    /// [`Pipeline::encode_batch`], which is what makes their outputs
    /// bit-identical (a [`Rows::CLS`] encoding's one row is row 0 of the
    /// [`Rows::All`] one). Inference is [`SequenceEncoder::infer`]: the
    /// model is only read.
    pub fn encode_serialized(
        &self,
        model: &dyn SequenceEncoder,
        encoded: EncodedTable,
        rows: Rows,
    ) -> TableEncoding {
        let input = EncoderInput::from_encoded(&encoded);
        let states = model.infer(&input, rows);
        TableEncoding { encoded, states }
    }

    /// Validating single encode: [`Pipeline::try_serialize`] +
    /// [`Pipeline::check_model`] + the shared compute core, every token's
    /// state.
    pub fn try_encode(
        &self,
        model: &dyn SequenceEncoder,
        table: &Table,
        context: &str,
    ) -> Result<TableEncoding, EncodeError> {
        self.check_model(model)?;
        let encoded = self.try_serialize(table, context)?;
        Ok(self.encode_serialized(model, encoded, Rows::All))
    }

    /// Batch-first table embedding: validates the model once, then
    /// serializes and encodes the requests in parallel across the
    /// `ntr_tensor::par` pool, each through the same compute core as
    /// [`Pipeline::encode`] with [`Rows::CLS`]: every result holds the
    /// `[1, d]` `[CLS]` state ([`TableEncoding::table_embedding`]), which is
    /// all an index consumes, and none of the token-level states. Results
    /// come back in request order, bit-identical to row 0 of `reqs` encoded
    /// one at a time, at any thread count. Fails with the error of the
    /// first invalid request in request order.
    ///
    /// Every task reads the one shared model ([`SequenceEncoder::infer`] is
    /// `&self`); kernels a task calls see a thread budget of
    /// `max_threads / tasks`, so they do not fan out a second time.
    pub fn encode_batch(
        &self,
        model: &dyn SequenceEncoder,
        reqs: &[EncodeRequest],
    ) -> Result<Vec<TableEncoding>, EncodeError> {
        self.check_model(model)?;
        par::map_tasks(reqs.len(), par::max_threads(), |i| {
            let encoded = self.try_serialize(&reqs[i].table, &reqs[i].context)?;
            Ok(self.encode_serialized(model, encoded, Rows::CLS))
        })
        .into_iter()
        .collect()
    }

    /// Saves a model's weights to `path` crash-safely: the `NTRW` v2 file
    /// is written to a temp sibling, `fsync`ed, and atomically renamed, so
    /// an interrupted save never leaves a corrupt checkpoint behind.
    pub fn save_model(&self, model: &mut dyn Layer, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::save(model, path)
    }

    /// Loads a checkpoint (`NTRW` v1 or v2) into a model, strict on
    /// parameter names and shapes.
    pub fn load_model(&self, model: &mut dyn Layer, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::load(model, path)
    }

    /// Full encode: serialize, run the model, package the representations
    /// at every granularity.
    ///
    /// The legacy infallible wrapper around the shared compute core: it
    /// skips the validation of [`Pipeline::try_encode`] (so degenerate
    /// inputs encode to whatever survives truncation, exactly as before
    /// that API existed) but runs the identical serialization and model
    /// invocation.
    pub fn encode(
        &self,
        model: &dyn SequenceEncoder,
        table: &Table,
        context: &str,
    ) -> TableEncoding {
        let encoded = self.serialize(table, context);
        self.encode_serialized(model, encoded, Rows::All)
    }
}

/// The output representations of one table encoding (the survey's "Output
/// Model Representation" dimension): every granularity for a
/// [`Rows::All`] encoding, the table level alone for a [`Rows::CLS`] one.
pub struct TableEncoding {
    /// The serialized table (ids + structural metadata + spans).
    pub encoded: EncodedTable,
    /// Hidden states: `[seq_len, d_model]` for every token, or `[1,
    /// d_model]` — the `[CLS]` state alone — from [`Rows::CLS`].
    pub states: Tensor,
}

impl TableEncoding {
    /// Table-level representation: the `[CLS]` state, `[1, d]`.
    pub fn table_embedding(&self) -> Tensor {
        self.states.rows(0, 1)
    }

    /// Whether `states` holds a row per token, which the cell, row and
    /// column accessors pool over; a table-level encoding does not.
    fn has_token_states(&self) -> bool {
        self.states.dim(0) == self.encoded.len()
    }

    /// Cell-level representation (mean over the cell's tokens), if the
    /// cell survived truncation and the encoding holds token states.
    pub fn cell_embedding(&self, row: usize, col: usize) -> Option<Tensor> {
        if !self.has_token_states() {
            return None;
        }
        let span = self.encoded.cell_span(row, col)?;
        Some(ntr_models::pool_mean(&self.states, &span))
    }

    /// Row-level representation: mean over the row's cell tokens (`None`
    /// without token states).
    pub fn row_embedding(&self, row: usize) -> Option<Tensor> {
        self.pool_where(|m| m.row == row + 1 && m.kind == TokenKind::Cell)
    }

    /// Column-level representation: mean over the column's cell tokens
    /// (`None` without token states).
    pub fn column_embedding(&self, col: usize) -> Option<Tensor> {
        self.pool_where(|m| m.col == col + 1 && m.kind == TokenKind::Cell)
    }

    fn pool_where(&self, keep: impl Fn(&ntr_table::TokenMeta) -> bool) -> Option<Tensor> {
        if !self.has_token_states() {
            return None;
        }
        let d = self.states.dim(1);
        let mut sum = Tensor::zeros(&[1, d]);
        let mut n = 0usize;
        for (i, m) in self.encoded.meta().iter().enumerate() {
            if keep(m) {
                for j in 0..d {
                    sum.data_mut()[j] += self.states.at(&[i, j]);
                }
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum.scale(1.0 / n as f32))
        }
    }

    /// Cosine similarity between two cells' representations (`None` when
    /// either is).
    pub fn cell_similarity(&self, a: (usize, usize), b: (usize, usize)) -> Option<f32> {
        Some(
            self.cell_embedding(a.0, a.1)?
                .cosine(&self.cell_embedding(b.0, b.1)?),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build_encoder, EncoderSpec, ModelKind};
    use ntr_table::ContextPosition;

    fn sample() -> Table {
        Table::from_strings(
            "t",
            &["Country", "Capital", "Population"],
            &[
                &["France", "Paris", "67.8"],
                &["Australia", "Canberra", "25.69"],
            ],
        )
        .with_caption("Population in Million by Country")
    }

    fn pipeline() -> Pipeline {
        Pipeline::builder()
            .vocab_from_tables(&[sample()])
            .vocab_size(600)
            .build()
            .unwrap()
    }

    #[test]
    fn encode_produces_all_granularities() {
        let p = pipeline();
        let t = sample();
        let mut model =
            build_encoder(EncoderSpec::f32(ModelKind::Tapas), &p.default_config()).unwrap();
        let enc = p.encode(model.as_mut(), &t, &t.caption);
        assert_eq!(enc.table_embedding().shape(), &[1, 64]);
        assert!(enc.cell_embedding(0, 0).is_some());
        assert!(enc.cell_embedding(9, 9).is_none());
        assert!(enc.row_embedding(1).is_some());
        assert!(enc.column_embedding(2).is_some());
        assert!(enc.cell_similarity((0, 0), (1, 0)).unwrap().is_finite());
    }

    /// A batch encoding holds the table level alone: the `[CLS]` row of the
    /// full encode, and `None` — not a panic or a pool over the wrong rows —
    /// from every token-level accessor.
    #[test]
    fn table_level_encodings_answer_only_the_table_level() {
        let p = pipeline();
        let t = sample();
        let model = build_encoder(EncoderSpec::f32(ModelKind::Tapas), &p.default_config()).unwrap();
        let full = p.encode(model.as_ref(), &t, &t.caption);
        let batch = p
            .encode_batch(model.as_ref(), &[EncodeRequest::captioned(t.clone())])
            .unwrap();
        let table = &batch[0];
        assert_eq!(table.states.shape(), &[1, 64]);
        assert_eq!(table.encoded.len(), full.encoded.len());
        assert_eq!(table.table_embedding(), full.table_embedding());
        assert!(full.cell_embedding(0, 0).is_some());
        assert!(table.cell_embedding(0, 0).is_none());
        assert!(table.row_embedding(1).is_none());
        assert!(table.column_embedding(2).is_none());
        assert!(table.cell_similarity((0, 0), (1, 0)).is_none());
    }

    #[test]
    fn builder_options_apply() {
        let p = Pipeline::builder()
            .vocab_from_tables(&[sample()])
            .vocab_size(500)
            .linearizer(LinearizerKind::ColumnMajor)
            .options(LinearizerOptions {
                max_tokens: 40,
                context_position: ContextPosition::Before,
            })
            .build()
            .unwrap();
        let e = p.serialize(&sample(), "ctx");
        assert!(e.len() <= 40);
        assert_eq!(e.linearizer(), "column-major");
    }

    #[test]
    fn save_and_load_model_roundtrip_through_pipeline() {
        let p = pipeline();
        let t = sample();
        let dir = std::env::temp_dir().join("ntr_pipeline_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tapas.ntrw");
        let mut a = build_encoder(EncoderSpec::f32(ModelKind::Tapas), &p.default_config()).unwrap();
        p.save_model(a.as_mut(), &path).unwrap();
        // A differently-seeded model starts from different weights; loading
        // must overwrite all of them.
        let other_cfg = ModelConfig {
            seed: 0xDEAD,
            ..p.default_config()
        };
        let mut b = build_encoder(EncoderSpec::f32(ModelKind::Tapas), &other_cfg).unwrap();
        p.load_model(b.as_mut(), &path).unwrap();
        let ea = p.encode(a.as_mut(), &t, &t.caption);
        let eb = p.encode(b.as_mut(), &t, &t.caption);
        assert_eq!(
            ea.states.data(),
            eb.states.data(),
            "loaded model must encode bit-identically"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn builder_encoder_spec_round_trips_and_validates() {
        let p = Pipeline::builder()
            .vocab_from_tables(&[sample()])
            .vocab_size(500)
            .encoder(EncoderSpec::int8(ModelKind::RowStudent))
            .build()
            .unwrap();
        assert_eq!(p.encoder_spec(), EncoderSpec::int8(ModelKind::RowStudent));
        let mut m = p.build_default_encoder().unwrap();
        let enc = p.encode(m.as_mut(), &sample(), "");
        assert_eq!(enc.table_embedding().shape(), &[1, 64]);
        // An invalid family/precision pair fails at build(), not at encode.
        let err = Pipeline::builder()
            .vocab_from_tables(&[sample()])
            .encoder(EncoderSpec::int8(ModelKind::Mate))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, EncodeError::BadModelChoice { .. }), "{err}");
    }

    #[test]
    fn same_build_is_deterministic() {
        let t = sample();
        let a = pipeline().serialize(&t, &t.caption);
        let b = pipeline().serialize(&t, &t.caption);
        assert_eq!(a.ids(), b.ids());
    }
}
