//! Structure-aware input embeddings.
//!
//! The survey's "input level" extension point (§2.3): TAPAS-style models
//! *add extra dimensions to the embedding vector to account for cell, row,
//! and column positions*. [`TableEmbeddings`] is that mechanism — the sum
//! of word, absolute-position, and any enabled structural embeddings
//! (segment, row, column, token-kind), followed by LayerNorm.

use crate::config::ModelConfig;
use crate::input::EncoderInput;
use ntr_nn::init::SeededInit;
use ntr_nn::layernorm::LayerNormTape;
use ntr_nn::{visit_child, Cx, Dropout, Embedding, Layer, LayerNorm, Name, Param, Rows};
use ntr_tensor::Tensor;
use std::borrow::Cow;

/// Which structural embedding tables a model enables.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingFlags {
    /// Segment (context vs. table).
    pub segments: bool,
    /// Row ids.
    pub rows: bool,
    /// Column ids.
    pub cols: bool,
    /// Token kinds (special/context/header/cell/template).
    pub kinds: bool,
    /// Numeric ranks (TAPAS's rank embeddings).
    pub ranks: bool,
}

impl EmbeddingFlags {
    /// BERT: words + positions + segments only.
    pub fn text_only() -> Self {
        Self {
            segments: true,
            rows: false,
            cols: false,
            kinds: false,
            ranks: false,
        }
    }

    /// TAPAS/TURL/MATE: everything.
    pub fn structural() -> Self {
        Self {
            segments: true,
            rows: true,
            cols: true,
            kinds: true,
            ranks: true,
        }
    }
}

/// Sum-of-tables input embedding with LayerNorm and dropout.
#[derive(Debug, Clone)]
pub struct TableEmbeddings {
    word: Embedding,
    position: Embedding,
    segment: Option<Embedding>,
    row: Option<Embedding>,
    col: Option<Embedding>,
    kind: Option<Embedding>,
    rank: Option<Embedding>,
    ln: LayerNorm,
    dropout: Dropout,
    max_seq: usize,
    max_rows: usize,
    max_cols: usize,
}

impl TableEmbeddings {
    /// Builds the embedding stack for `cfg` with the given flags.
    pub fn new(cfg: &ModelConfig, flags: EmbeddingFlags, init: &mut SeededInit) -> Self {
        cfg.validate();
        let d = cfg.d_model;
        Self {
            word: Embedding::new(cfg.vocab_size, d, &mut init.fork()),
            position: Embedding::new(cfg.max_seq, d, &mut init.fork()),
            segment: flags
                .segments
                .then(|| Embedding::new(2, d, &mut init.fork())),
            row: flags
                .rows
                .then(|| Embedding::new(cfg.max_rows, d, &mut init.fork())),
            col: flags
                .cols
                .then(|| Embedding::new(cfg.max_cols, d, &mut init.fork())),
            kind: flags.kinds.then(|| Embedding::new(5, d, &mut init.fork())),
            rank: flags
                .ranks
                .then(|| Embedding::new(cfg.max_rows, d, &mut init.fork())),
            ln: LayerNorm::new(d),
            dropout: Dropout::new(cfg.dropout, cfg.seed ^ 0xE88),
            max_seq: cfg.max_seq,
            max_rows: cfg.max_rows,
            max_cols: cfg.max_cols,
        }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.word.dim()
    }

    /// Inference embedding: [`TableEmbeddings::infer`].
    ///
    /// # Panics
    /// Panics if `train` is set: training runs through
    /// [`TableEmbeddings::forward_train`].
    pub fn forward(&self, input: &EncoderInput, train: bool) -> Tensor {
        assert!(
            !train,
            "TableEmbeddings::forward is inference; train through forward_train"
        );
        self.infer(input)
    }

    /// Embeds an input for inference: the sum of the enabled tables, then
    /// LayerNorm, with no dropout.
    ///
    /// Sequence positions, row ids and column ids beyond the configured
    /// maxima are clamped to the last bucket rather than panicking, so
    /// oversized tables degrade gracefully.
    pub fn infer(&self, input: &EncoderInput) -> Tensor {
        self.ln.forward(&self.sum(&self.ids(input)))
    }

    /// [`TableEmbeddings::infer`] followed by dropout, and the tape
    /// [`TableEmbeddings::backward`] needs.
    pub fn forward_train(&self, input: &EncoderInput, cx: &mut Cx) -> (Tensor, EmbeddingsTape) {
        let ids = self.ids(input);
        let (x, ln) = self.ln.forward_train(&self.sum(&ids));
        let (y, dropout) = self.dropout.forward_train(&x, x.dim(0), Rows::All, cx);
        (y, EmbeddingsTape(ids.map(Cow::into_owned), ln, dropout))
    }

    /// The ids each table looks up, clamped to its size, in summation order:
    /// word, position, segment, row, column, kind, rank.
    fn ids<'i>(&self, input: &'i EncoderInput) -> [Cow<'i, [usize]>; 7] {
        let clamp = |ids: &[usize], max: usize| ids.iter().map(|&i| i.min(max - 1)).collect();
        [
            Cow::Borrowed(&input.ids[..]),
            Cow::Owned((0..input.len()).map(|i| i.min(self.max_seq - 1)).collect()),
            Cow::Borrowed(&input.segments[..]),
            Cow::Owned(clamp(&input.rows, self.max_rows)),
            Cow::Owned(clamp(&input.cols, self.max_cols)),
            Cow::Borrowed(&input.kinds[..]),
            Cow::Owned(clamp(&input.ranks, self.max_rows)),
        ]
    }

    /// The tables in summation order, `None` where disabled.
    fn tables(&self) -> [Option<&Embedding>; 7] {
        [
            Some(&self.word),
            Some(&self.position),
            self.segment.as_ref(),
            self.row.as_ref(),
            self.col.as_ref(),
            self.kind.as_ref(),
            self.rank.as_ref(),
        ]
    }

    /// Sums the lookups of every enabled table, in order.
    fn sum(&self, ids: &[Cow<'_, [usize]>; 7]) -> Tensor {
        let mut sum: Option<Tensor> = None;
        for (table, ids) in self.tables().into_iter().zip(ids) {
            if let Some(table) = table {
                let x = table.lookup(ids);
                match &mut sum {
                    None => sum = Some(x),
                    Some(sum) => sum.add_assign(&x),
                }
            }
        }
        sum.expect("the word table is always enabled")
    }

    /// Backpropagates into every enabled table. Embeddings are sources, so
    /// nothing is returned.
    pub fn backward(&self, tape: EmbeddingsTape, dy: &Tensor, cx: &mut Cx) {
        let EmbeddingsTape(ids, ln, dropout) = tape;
        let dx = self.ln.backward(ln, &Dropout::backward(dropout, dy), cx);
        // The sum distributes the same gradient to every table.
        for (table, ids) in self.tables().into_iter().zip(&ids) {
            if let Some(table) = table {
                table.backward(ids, &dx, cx);
            }
        }
    }
}

/// What [`TableEmbeddings::backward`] needs: each table's ids, the
/// LayerNorm's tape and the dropout mask.
#[derive(Debug)]
pub struct EmbeddingsTape([Vec<usize>; 7], LayerNormTape, Option<Tensor>);

impl Layer for TableEmbeddings {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.word.visit_params(&mut visit_child("word", f));
        self.position.visit_params(&mut visit_child("position", f));
        if let Some(e) = &mut self.segment {
            e.visit_params(&mut visit_child("segment", f));
        }
        if let Some(e) = &mut self.row {
            e.visit_params(&mut visit_child("row", f));
        }
        if let Some(e) = &mut self.col {
            e.visit_params(&mut visit_child("col", f));
        }
        if let Some(e) = &mut self.kind {
            e.visit_params(&mut visit_child("kind", f));
        }
        if let Some(e) = &mut self.rank {
            e.visit_params(&mut visit_child("rank", f));
        }
        self.ln.visit_params(&mut visit_child("ln", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
        f(&Name::new("dropout"), &mut self.dropout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(n: usize) -> EncoderInput {
        EncoderInput {
            ids: (0..n).map(|i| 7 + (i % 5)).collect(),
            rows: (0..n).map(|i| i % 4).collect(),
            cols: (0..n).map(|i| i % 3).collect(),
            segments: (0..n).map(|i| usize::from(i > n / 2)).collect(),
            kinds: vec![3; n],
            ranks: (0..n).map(|i| i % 3).collect(),
        }
    }

    fn cfg() -> ModelConfig {
        ModelConfig::tiny(64)
    }

    #[test]
    fn forward_shape_and_determinism() {
        let a = TableEmbeddings::new(
            &cfg(),
            EmbeddingFlags::structural(),
            &mut SeededInit::new(1),
        );
        let b = TableEmbeddings::new(
            &cfg(),
            EmbeddingFlags::structural(),
            &mut SeededInit::new(1),
        );
        let x = a.forward(&input(10), false);
        let y = b.forward(&input(10), false);
        assert_eq!(x.shape(), &[10, 16]);
        assert_eq!(x, y);
    }

    #[test]
    fn structural_ids_change_the_embedding() {
        let e = TableEmbeddings::new(
            &cfg(),
            EmbeddingFlags::structural(),
            &mut SeededInit::new(2),
        );
        let base = input(6);
        let mut moved = base.clone();
        moved.rows[3] = (base.rows[3] + 1) % 4;
        let a = e.forward(&base, false);
        let b = e.forward(&moved, false);
        assert_ne!(a.row(3), b.row(3), "row id must matter");
        assert_eq!(a.row(0), b.row(0), "untouched positions unchanged");
    }

    #[test]
    fn text_only_ignores_rows_and_cols() {
        let e = TableEmbeddings::new(&cfg(), EmbeddingFlags::text_only(), &mut SeededInit::new(3));
        let base = input(6);
        let mut moved = base.clone();
        moved.rows[2] = 0;
        moved.cols[2] = 0;
        assert_eq!(e.forward(&base, false), e.forward(&moved, false));
    }

    #[test]
    fn out_of_range_ids_clamp_not_panic() {
        let e = TableEmbeddings::new(
            &cfg(),
            EmbeddingFlags::structural(),
            &mut SeededInit::new(4),
        );
        let mut big = input(70); // longer than max_seq=64
        big.rows[0] = 999;
        big.cols[0] = 999;
        big.ranks[0] = 999;
        let out = e.forward(&big, false);
        assert_eq!(out.shape(), &[70, 16]);
    }

    #[test]
    fn backward_accumulates_word_grads_per_id() {
        let mut e = TableEmbeddings::new(
            &cfg(),
            EmbeddingFlags::structural(),
            &mut SeededInit::new(5),
        );
        let mut cx = Cx::new(&mut e);
        let (_, tape) = e.forward_train(&input(8), &mut cx);
        e.backward(tape, &Tensor::ones(&[8, 16]), &mut cx);
        assert!(cx.grads.of(&e.word.weight).iter().any(|&g| g != 0.0));
    }

    #[test]
    fn param_names_are_unique() {
        let mut e = TableEmbeddings::new(
            &cfg(),
            EmbeddingFlags::structural(),
            &mut SeededInit::new(6),
        );
        let mut names = Vec::new();
        e.visit_params(&mut |n, _| names.push(n.to_string()));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.iter().any(|n| n == "row/weight"));
    }
}
