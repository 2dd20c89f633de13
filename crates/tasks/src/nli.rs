//! Tabular natural-language inference / fact verification (the paper's
//! §2.1 "text entailment, including fact-checking"): claim + table →
//! supported / refuted, TabFact-style.

use crate::metrics::{accuracy, binary_prf, Prf};
use crate::supervisor::fit;
use crate::trainer::TrainConfig;
use ntr_corpus::datasets::NliDataset;
use ntr_corpus::Split;
use ntr_models::{ClassifierHead, EncoderInput, Rows, SequenceEncoder};
use ntr_nn::init::SeededInit;
use ntr_nn::loss::softmax_cross_entropy;
use ntr_nn::{visit_child, Layer, Name, Param};
use ntr_table::{Linearizer, LinearizerOptions, RowMajorLinearizer};
use ntr_tokenizer::WordPieceTokenizer;

/// A claim-verification model: encoder + binary classifier over `[CLS]`.
#[derive(Clone)]
pub struct FactVerifier<M: SequenceEncoder> {
    /// The encoder.
    pub encoder: M,
    /// Binary (refuted=0 / supported=1) head.
    pub head: ClassifierHead,
}

impl<M: SequenceEncoder> FactVerifier<M> {
    /// Wraps an encoder with a fresh binary head.
    pub fn new(encoder: M, seed: u64) -> Self {
        let d = encoder.d_model();
        Self {
            encoder,
            head: ClassifierHead::new(d, 2, &mut SeededInit::new(seed)),
        }
    }

    /// The head's logits on the `[CLS]` state, the one row it reads.
    fn logits(&mut self, input: &EncoderInput, train: bool) -> ntr_tensor::Tensor {
        let pooled = if train {
            self.encoder.encode_train(input, Rows::CLS)
        } else {
            self.encoder.infer(input, Rows::CLS)
        };
        self.head.forward(&pooled)
    }
}

impl<M: SequenceEncoder> Layer for FactVerifier<M> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.encoder.visit_params(&mut visit_child("encoder", f));
        self.head.visit_params(&mut visit_child("head", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        self.encoder.visit_rng_state(&mut visit_child("encoder", f));
    }
}

fn encode(
    ds: &NliDataset,
    idx: &[usize],
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
) -> Vec<(EncoderInput, usize)> {
    idx.iter()
        .map(|&i| {
            let ex = &ds.examples[i];
            let e = RowMajorLinearizer.linearize(&ex.table, &ex.claim, tok, opts);
            (EncoderInput::from_encoded(&e), usize::from(ex.label))
        })
        .collect()
}

/// Fine-tunes a verifier on the training split.
pub fn finetune<M: SequenceEncoder + Clone>(
    model: &mut FactVerifier<M>,
    ds: &NliDataset,
    tok: &WordPieceTokenizer,
    cfg: &TrainConfig,
    opts: &LinearizerOptions,
) {
    let prepared = encode(ds, &ds.indices(Split::Train), tok, opts);
    fit(model, cfg, &prepared, |model, (input, label), _| {
        let logits = model.logits(input, true);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &[*label], None);
        let d_pooled = model.head.backward(&dlogits);
        model.encoder.backward(&d_pooled);
        loss
    });
}

/// NLI evaluation: accuracy plus P/R/F1 with "supported" as positive.
#[derive(Debug, Clone, Default)]
pub struct NliEval {
    /// Classification accuracy.
    pub accuracy: f64,
    /// Precision/recall/F1 for the "supported" class.
    pub prf: Prf,
    /// Examples evaluated.
    pub n: usize,
}

impl NliEval {
    fn from_preds(pred: &[bool], gold: &[bool]) -> Self {
        Self {
            accuracy: accuracy(pred, gold),
            prf: binary_prf(pred, gold),
            n: pred.len(),
        }
    }
}

/// Evaluates a verifier on a split.
pub fn evaluate<M: SequenceEncoder>(
    model: &mut FactVerifier<M>,
    ds: &NliDataset,
    split: Split,
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
) -> NliEval {
    let prepared = encode(ds, &ds.indices(split), tok, opts);
    let mut pred = Vec::with_capacity(prepared.len());
    let mut gold = Vec::with_capacity(prepared.len());
    for (input, label) in &prepared {
        let logits = model.logits(input, false);
        pred.push(logits.argmax_rows()[0] == 1);
        gold.push(*label == 1);
    }
    NliEval::from_preds(&pred, &gold)
}

/// Symbolic baseline: a cell-fact claim "the {attr} of {subject} is
/// {value}" is checked literally against the table; comparison claims and
/// unparsable claims fall back to "supported" (the majority-ish guess).
pub fn baseline_lookup(ds: &NliDataset, split: Split) -> NliEval {
    let mut pred = Vec::new();
    let mut gold = Vec::new();
    for &i in &ds.indices(split) {
        let ex = &ds.examples[i];
        gold.push(ex.label);
        pred.push(check_claim(ex));
    }
    NliEval::from_preds(&pred, &gold)
}

fn check_claim(ex: &ntr_corpus::datasets::NliExample) -> bool {
    let Some(rest) = ex.claim.strip_prefix("the ") else {
        return true;
    };
    // Comparison claims: "the {attr} of {a} is higher than the {attr} of {b}"
    if let Some((head, tail)) = rest.split_once(" is higher than the ") {
        let (attr, a) = match head.split_once(" of ") {
            Some(x) => x,
            None => return true,
        };
        let (_, b) = match tail.split_once(" of ") {
            Some(x) => x,
            None => return true,
        };
        let t = &ex.table;
        let (Some(col), Some(ra), Some(rb)) = (
            t.column_index(attr),
            (0..t.n_rows()).find(|&r| t.cell(r, 0).text() == a),
            (0..t.n_rows()).find(|&r| t.cell(r, 0).text() == b),
        ) else {
            return true;
        };
        return match (
            t.cell(ra, col).value.as_number(),
            t.cell(rb, col).value.as_number(),
        ) {
            (Some(x), Some(y)) => x > y,
            _ => true,
        };
    }
    // Cell facts: "the {attr} of {subject} is {value}"
    let Some((attr, tail)) = rest.split_once(" of ") else {
        return true;
    };
    let Some((subject, value)) = tail.split_once(" is ") else {
        return true;
    };
    let t = &ex.table;
    let (Some(col), Some(row)) = (
        t.column_index(attr),
        (0..t.n_rows()).find(|&r| t.cell(r, 0).text() == subject),
    ) else {
        return true;
    };
    t.cell(row, col).text() == value
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_corpus::tables::{CorpusConfig, TableCorpus};
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::{ModelConfig, VanillaBert};

    fn setup() -> (NliDataset, WordPieceTokenizer) {
        let w = World::generate(WorldConfig {
            n_countries: 8,
            n_people: 8,
            n_films: 6,
            n_clubs: 4,
            seed: 21,
        });
        let corpus = TableCorpus::generate(
            &w,
            &CorpusConfig {
                n_tables: 12,
                min_rows: 3,
                max_rows: 4,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 22,
            },
        );
        let extra = vec!["the of is higher than".to_string()];
        let tok = ntr_corpus::vocab::train_tokenizer(&corpus, &extra, 1200);
        (NliDataset::build(&corpus, 4, 23), tok)
    }

    #[test]
    fn baseline_lookup_is_near_perfect_on_cell_facts() {
        let (ds, _) = setup();
        let eval = baseline_lookup(&ds, Split::Test);
        assert!(eval.n > 0);
        // The symbolic checker decides cell facts exactly and only guesses
        // on claims it cannot parse, so it should be strong.
        assert!(eval.accuracy > 0.7, "{eval:?}");
    }

    #[test]
    fn finetuning_beats_chance() {
        let (ds, tok) = setup();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let opts = LinearizerOptions {
            max_tokens: 128,
            ..Default::default()
        };
        let mut model = FactVerifier::new(VanillaBert::new(&cfg), 8);
        finetune(
            &mut model,
            &ds,
            &tok,
            &TrainConfig {
                epochs: 10,
                lr: 3e-3,
                batch_size: 4,
                warmup_frac: 0.1,
                seed: 2,
            },
            &opts,
        );
        // Evaluate on train split: the model must at least be able to fit
        // its training claims well above chance.
        let eval = evaluate(&mut model, &ds, Split::Train, &tok, &opts);
        assert!(eval.n > 0);
        assert!(eval.accuracy > 0.6, "{eval:?}");
    }

    #[test]
    fn evaluate_reports_consistent_counts() {
        let (ds, tok) = setup();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let opts = LinearizerOptions::default();
        let mut model = FactVerifier::new(VanillaBert::new(&cfg), 8);
        let eval = evaluate(&mut model, &ds, Split::Test, &tok, &opts);
        assert_eq!(eval.n, ds.indices(Split::Test).len());
    }
}
