//! Representation-consistency probes — the paper's §2.4 calls for "a new
//! family of data-driven basic tests … to measure the consistency of the
//! data representation". These probes are that family:
//!
//! * **row-order invariance** — a relation is a *set* of tuples, so a good
//!   table representation should barely move when rows are permuted;
//! * **column-order invariance** — likewise for attribute order;
//! * **header sensitivity** — replacing descriptive headers with `col0…`
//!   removes real information, so the representation *should* move.
//!
//! Each probe reports the mean cosine similarity between the `[CLS]` table
//! embedding before and after the perturbation.

use crate::retrieval::{embed, table_input};
use ntr_corpus::tables::TableCorpus;
use ntr_models::SequenceEncoder;
use ntr_table::{Column, LinearizerOptions, Table};
use ntr_tensor::Tensor;
use ntr_tokenizer::WordPieceTokenizer;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Results of the three consistency probes for one model.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Mean cosine between original and row-permuted embeddings (↑ better).
    pub row_order_invariance: f64,
    /// Mean cosine between original and column-permuted embeddings (↑ better).
    pub col_order_invariance: f64,
    /// Mean cosine between original and header-stripped embeddings
    /// (**lower** means the model actually uses headers).
    pub header_similarity: f64,
    /// Tables probed.
    pub n: usize,
}

fn permuted_rows(t: &Table, rng: &mut StdRng) -> Table {
    let mut idx: Vec<usize> = (0..t.n_rows()).collect();
    idx.shuffle(rng);
    t.select_rows(&idx)
}

fn permuted_cols(t: &Table, rng: &mut StdRng) -> Table {
    let mut idx: Vec<usize> = (0..t.n_cols()).collect();
    idx.shuffle(rng);
    t.select_columns(&idx)
}

fn stripped_headers(t: &Table) -> Table {
    let columns: Vec<Column> = (0..t.n_cols())
        .map(|i| Column::new(format!("col{i}")))
        .collect();
    Table::new(t.id.clone(), columns, t.rows().to_vec())
        .expect("same shape")
        .with_caption(t.caption.clone())
}

/// Runs all three probes over a corpus.
///
/// Similarities use **centered** cosine: transformer `[CLS]` embeddings are
/// notoriously anisotropic (everything is cosine ≈ 0.99 to everything
/// else), so the corpus-mean embedding is subtracted from both sides
/// first. After centering, 1.0 still means "perturbation invisible" and
/// values near 0 mean "perturbation moved the representation as much as
/// switching to a different table".
pub fn consistency<M: SequenceEncoder + ?Sized>(
    model: &mut M,
    corpus: &TableCorpus,
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
    seed: u64,
) -> ConsistencyReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let cls = |t: &Table| embed(&*model, &table_input(t, tok, opts));
    let mut quads: Vec<[Tensor; 4]> = Vec::new();
    for t in &corpus.tables {
        if t.n_rows() < 2 || t.n_cols() < 2 {
            continue;
        }
        quads.push([
            cls(t),
            cls(&permuted_rows(t, &mut rng)),
            cls(&permuted_cols(t, &mut rng)),
            cls(&stripped_headers(t)),
        ]);
    }
    let n = quads.len();
    if n == 0 {
        return ConsistencyReport::default();
    }
    // Corpus-mean of the unperturbed embeddings, for anisotropy centering.
    let d = quads[0][0].numel();
    let mut mean = Tensor::zeros(&[1, d]);
    for q in &quads {
        mean.add_assign(&q[0]);
    }
    let mean = mean.scale(1.0 / n as f32);
    let centered = |t: &Tensor| t.sub(&mean);

    let mut sums = [0.0f64; 3];
    for q in &quads {
        let base = centered(&q[0]);
        for (k, s) in sums.iter_mut().enumerate() {
            *s += base.cosine(&centered(&q[k + 1])) as f64;
        }
    }
    ConsistencyReport {
        row_order_invariance: sums[0] / n as f64,
        col_order_invariance: sums[1] / n as f64,
        header_similarity: sums[2] / n as f64,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_corpus::tables::CorpusConfig;
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::{ModelConfig, Tapas, VanillaBert};

    fn setup() -> (TableCorpus, WordPieceTokenizer) {
        let w = World::generate(WorldConfig {
            n_countries: 8,
            n_people: 8,
            n_films: 6,
            n_clubs: 4,
            seed: 71,
        });
        let corpus = TableCorpus::generate(
            &w,
            &CorpusConfig {
                n_tables: 8,
                min_rows: 3,
                max_rows: 4,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 72,
            },
        );
        let tok = ntr_corpus::vocab::train_tokenizer(&corpus, &[], 1200);
        (corpus, tok)
    }

    #[test]
    fn probes_produce_bounded_similarities() {
        let (corpus, tok) = setup();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let mut model = VanillaBert::new(&cfg);
        let report = consistency(&mut model, &corpus, &tok, &LinearizerOptions::default(), 1);
        assert!(report.n > 0);
        for v in [
            report.row_order_invariance,
            report.col_order_invariance,
            report.header_similarity,
        ] {
            assert!((-1.0..=1.0).contains(&v), "{report:?}");
        }
    }

    #[test]
    fn perturbations_actually_change_something() {
        let (corpus, tok) = setup();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let mut model = Tapas::new(&cfg);
        let report = consistency(&mut model, &corpus, &tok, &LinearizerOptions::default(), 2);
        // An untrained model still produces non-identical embeddings under
        // permutation (position embeddings differ), so similarity < 1.
        assert!(report.row_order_invariance < 1.0 - 1e-6, "{report:?}");
        assert!(report.header_similarity < 1.0 - 1e-6, "{report:?}");
    }

    #[test]
    fn probe_helpers_preserve_content() {
        let (corpus, _) = setup();
        let t = &corpus.tables[0];
        let mut rng = StdRng::seed_from_u64(3);
        let p = permuted_rows(t, &mut rng);
        assert_eq!(p.n_rows(), t.n_rows());
        let q = permuted_cols(t, &mut rng);
        assert_eq!(q.n_cols(), t.n_cols());
        let s = stripped_headers(t);
        assert!(s.is_headerless());
        assert_eq!(s.cell(0, 0), t.cell(0, 0));
    }
}
