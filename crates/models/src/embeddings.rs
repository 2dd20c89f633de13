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
use ntr_nn::{visit_child, Dropout, Embedding, Layer, LayerNorm, Name, Param};
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

    /// Embeds an input: sum of enabled tables → LayerNorm → dropout. With
    /// `train = false` this is [`TableEmbeddings::infer`].
    ///
    /// Sequence positions, row ids and column ids beyond the configured
    /// maxima are clamped to the last bucket rather than panicking, so
    /// oversized tables degrade gracefully.
    pub fn forward(&mut self, input: &EncoderInput, train: bool) -> Tensor {
        if !train {
            return self.infer(input);
        }
        let ids = self.ids(input);
        let x = sum_lookups(self.tables_mut(), ids, |e, ids| e.forward(ids));
        self.dropout.forward(&self.ln.forward(&x), true)
    }

    /// The inference embedding: the same sum and LayerNorm as
    /// [`TableEmbeddings::forward`], with no caches and no dropout.
    pub fn infer(&self, input: &EncoderInput) -> Tensor {
        let tables = [
            Some(&self.word),
            Some(&self.position),
            self.segment.as_ref(),
            self.row.as_ref(),
            self.col.as_ref(),
            self.kind.as_ref(),
            self.rank.as_ref(),
        ];
        let x = sum_lookups(tables, self.ids(input), |e, ids| e.lookup(ids));
        self.ln.forward_inference(&x)
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

    fn tables_mut(&mut self) -> [Option<&mut Embedding>; 7] {
        [
            Some(&mut self.word),
            Some(&mut self.position),
            self.segment.as_mut(),
            self.row.as_mut(),
            self.col.as_mut(),
            self.kind.as_mut(),
            self.rank.as_mut(),
        ]
    }

    /// Backpropagates into every enabled table. Embeddings are sources, so
    /// nothing is returned.
    pub fn backward(&mut self, dy: &Tensor) {
        let dx = self.ln.backward(&self.dropout.backward(dy));
        // The sum distributes the same gradient to every table.
        self.word.backward(&dx);
        self.position.backward(&dx);
        if let Some(seg) = &mut self.segment {
            seg.backward(&dx);
        }
        if let Some(row) = &mut self.row {
            row.backward(&dx);
        }
        if let Some(col) = &mut self.col {
            col.backward(&dx);
        }
        if let Some(kind) = &mut self.kind {
            kind.backward(&dx);
        }
        if let Some(rank) = &mut self.rank {
            rank.backward(&dx);
        }
    }
}

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

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        self.dropout.visit_rng("dropout", f);
    }
}

/// Sums the lookups of every enabled table, in order; `lookup` is the
/// caching `forward` for training or the read-only `lookup` for inference.
fn sum_lookups<E>(
    tables: [Option<E>; 7],
    ids: [Cow<'_, [usize]>; 7],
    mut lookup: impl FnMut(E, &[usize]) -> Tensor,
) -> Tensor {
    let mut sum: Option<Tensor> = None;
    for (table, ids) in tables.into_iter().zip(ids) {
        if let Some(table) = table {
            let x = lookup(table, &ids);
            match &mut sum {
                None => sum = Some(x),
                Some(sum) => sum.add_assign(&x),
            }
        }
    }
    sum.expect("the word table is always enabled")
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
        let mut a = TableEmbeddings::new(
            &cfg(),
            EmbeddingFlags::structural(),
            &mut SeededInit::new(1),
        );
        let mut b = TableEmbeddings::new(
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
        let mut e = TableEmbeddings::new(
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
        let mut e =
            TableEmbeddings::new(&cfg(), EmbeddingFlags::text_only(), &mut SeededInit::new(3));
        let base = input(6);
        let mut moved = base.clone();
        moved.rows[2] = 0;
        moved.cols[2] = 0;
        assert_eq!(e.forward(&base, false), e.forward(&moved, false));
    }

    #[test]
    fn out_of_range_ids_clamp_not_panic() {
        let mut e = TableEmbeddings::new(
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
        let inp = input(8);
        let _ = e.forward(&inp, true);
        e.backward(&Tensor::ones(&[8, 16]));
        let mut any = 0.0;
        e.visit_params(&mut |name, p| {
            if name.to_string().starts_with("word/") {
                any += p.grad.data().iter().map(|g| g.abs()).sum::<f32>();
            }
        });
        assert!(any > 0.0);
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
