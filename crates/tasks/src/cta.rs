//! Column type annotation ("table metadata prediction", §2.1): predict a
//! column's logical name from its values — headers are hidden.

use crate::metrics::{accuracy, macro_f1};
use crate::supervisor::fit;
use crate::trainer::TrainConfig;
use ntr_corpus::datasets::CtaDataset;
use ntr_corpus::Split;
use ntr_models::{ClassifierHead, EncoderInput, SequenceEncoder};
use ntr_nn::init::SeededInit;
use ntr_nn::loss::softmax_cross_entropy;
use ntr_nn::{visit_child, Layer, Name, Param};
use ntr_table::{EncodedTable, Linearizer, LinearizerOptions, RowMajorLinearizer};
use ntr_tensor::Tensor;
use ntr_tokenizer::WordPieceTokenizer;

/// A column classifier: encoder + label head over the mean of the target
/// column's cell tokens.
#[derive(Clone)]
pub struct ColumnAnnotator<M: SequenceEncoder> {
    /// The encoder.
    pub encoder: M,
    /// Label head (one logit per header label).
    pub head: ClassifierHead,
}

impl<M: SequenceEncoder> ColumnAnnotator<M> {
    /// Wraps an encoder with a fresh head over `n_labels` classes.
    pub fn new(encoder: M, n_labels: usize, seed: u64) -> Self {
        let d = encoder.d_model();
        Self {
            encoder,
            head: ClassifierHead::new(d, n_labels, &mut SeededInit::new(seed)),
        }
    }
}

impl<M: SequenceEncoder> Layer for ColumnAnnotator<M> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.encoder.visit_params(&mut visit_child("encoder", f));
        self.head.visit_params(&mut visit_child("head", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        self.encoder.visit_rng_state(&mut visit_child("encoder", f));
    }
}

/// Positions of cell tokens in column `col` (0-based).
fn column_positions(encoded: &EncodedTable, col: usize) -> Vec<usize> {
    encoded
        .meta()
        .iter()
        .enumerate()
        .filter(|(_, m)| m.col == col + 1 && m.kind == ntr_table::TokenKind::Cell)
        .map(|(i, _)| i)
        .collect()
}

fn pool_positions(states: &Tensor, positions: &[usize]) -> Tensor {
    let d = states.dim(1);
    let mut out = Tensor::zeros(&[1, d]);
    for &p in positions {
        for j in 0..d {
            out.data_mut()[j] += states.at(&[p, j]);
        }
    }
    out.scale(1.0 / positions.len().max(1) as f32)
}

fn scatter_positions(d_pooled: &Tensor, positions: &[usize], seq_len: usize) -> Tensor {
    let d = d_pooled.numel();
    let mut out = Tensor::zeros(&[seq_len, d]);
    let scale = 1.0 / positions.len().max(1) as f32;
    for &p in positions {
        for j in 0..d {
            out.data_mut()[p * d + j] = d_pooled.data()[j] * scale;
        }
    }
    out
}

fn prepare(
    ds: &CtaDataset,
    idx: &[usize],
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
) -> Vec<(EncoderInput, Vec<usize>, usize)> {
    idx.iter()
        .filter_map(|&i| {
            let ex = &ds.examples[i];
            let encoded = RowMajorLinearizer.linearize(&ex.table, "", tok, opts);
            let positions = column_positions(&encoded, ex.col);
            if positions.is_empty() {
                return None;
            }
            Some((EncoderInput::from_encoded(&encoded), positions, ex.label))
        })
        .collect()
}

/// Fine-tunes the annotator on the training split; returns each step's loss.
pub fn finetune<M: SequenceEncoder + Clone>(
    model: &mut ColumnAnnotator<M>,
    ds: &CtaDataset,
    tok: &WordPieceTokenizer,
    cfg: &TrainConfig,
    opts: &LinearizerOptions,
) -> Vec<f32> {
    let prepared = prepare(ds, &ds.indices(Split::Train), tok, opts);
    fit(model, cfg, &prepared, |model, (input, cells, label), _| {
        let states = model.encoder.encode(input, true);
        let pooled = pool_positions(&states, cells);
        let logits = model.head.forward(&pooled);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &[*label], None);
        let d_pooled = model.head.backward(&dlogits);
        let dstates = scatter_positions(&d_pooled, cells, states.dim(0));
        model.encoder.backward(&dstates);
        loss
    })
}

/// CTA evaluation: accuracy + macro-F1 over the label space.
#[derive(Debug, Clone, Default)]
pub struct CtaEval {
    /// Exact label accuracy.
    pub accuracy: f64,
    /// Macro-averaged F1.
    pub macro_f1: f64,
    /// Examples evaluated.
    pub n: usize,
}

/// Evaluates the annotator on a split.
pub fn evaluate<M: SequenceEncoder>(
    model: &mut ColumnAnnotator<M>,
    ds: &CtaDataset,
    split: Split,
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
) -> CtaEval {
    let prepared = prepare(ds, &ds.indices(split), tok, opts);
    let mut pred = Vec::with_capacity(prepared.len());
    let mut gold = Vec::with_capacity(prepared.len());
    for (input, positions, label) in &prepared {
        let states = model.encoder.encode(input, false);
        let pooled = pool_positions(&states, positions);
        let logits = model.head.forward(&pooled);
        pred.push(logits.argmax_rows()[0]);
        gold.push(*label);
    }
    CtaEval {
        accuracy: accuracy(&pred, &gold),
        macro_f1: macro_f1(&pred, &gold, ds.labels.len()),
        n: pred.len(),
    }
}

/// Majority-class baseline (most frequent training label).
pub fn baseline_majority(ds: &CtaDataset, split: Split) -> CtaEval {
    let train = ds.indices(Split::Train);
    let mut counts = vec![0usize; ds.labels.len()];
    for &i in &train {
        counts[ds.examples[i].label] += 1;
    }
    let majority = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let idx = ds.indices(split);
    let pred: Vec<usize> = vec![majority; idx.len()];
    let gold: Vec<usize> = idx.iter().map(|&i| ds.examples[i].label).collect();
    CtaEval {
        accuracy: accuracy(&pred, &gold),
        macro_f1: macro_f1(&pred, &gold, ds.labels.len()),
        n: idx.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_corpus::tables::{CorpusConfig, TableCorpus};
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::{ModelConfig, Tapas};

    fn setup() -> (CtaDataset, WordPieceTokenizer) {
        let w = World::generate(WorldConfig {
            n_countries: 8,
            n_people: 8,
            n_films: 6,
            n_clubs: 4,
            seed: 31,
        });
        let corpus = TableCorpus::generate(
            &w,
            &CorpusConfig {
                n_tables: 12,
                min_rows: 3,
                max_rows: 4,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 32,
            },
        );
        let tok = ntr_corpus::vocab::train_tokenizer(&corpus, &[], 1200);
        (CtaDataset::build(&corpus, 33), tok)
    }

    #[test]
    fn column_positions_find_only_that_column() {
        let (ds, tok) = setup();
        let ex = &ds.examples[0];
        let encoded =
            RowMajorLinearizer.linearize(&ex.table, "", &tok, &LinearizerOptions::default());
        let positions = column_positions(&encoded, ex.col);
        assert!(!positions.is_empty());
        for &p in &positions {
            assert_eq!(encoded.meta()[p].col, ex.col + 1);
        }
    }

    #[test]
    fn finetuning_beats_majority_baseline_on_train_fit() {
        let (ds, tok) = setup();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let opts = LinearizerOptions {
            max_tokens: 128,
            ..Default::default()
        };
        let mut model = ColumnAnnotator::new(Tapas::new(&cfg), ds.labels.len(), 3);
        finetune(
            &mut model,
            &ds,
            &tok,
            &TrainConfig {
                epochs: 5,
                lr: 3e-3,
                batch_size: 4,
                warmup_frac: 0.1,
                seed: 4,
            },
            &opts,
        );
        let fit = evaluate(&mut model, &ds, Split::Train, &tok, &opts);
        let majority = baseline_majority(&ds, Split::Train);
        assert!(fit.n > 0);
        assert!(
            fit.accuracy > majority.accuracy,
            "CTA training must beat majority: {fit:?} vs {majority:?}"
        );
    }

    #[test]
    fn majority_baseline_bounds() {
        let (ds, _) = setup();
        let eval = baseline_majority(&ds, Split::Test);
        assert!(eval.n > 0);
        // A constant predictor over a ~20-label space is weak; it may even
        // score 0 on a small test split.
        assert!((0.0..0.9).contains(&eval.accuracy), "{eval:?}");
        assert!(
            eval.macro_f1 <= eval.accuracy + 1e-9,
            "majority macro-F1 is weak"
        );
    }
}
