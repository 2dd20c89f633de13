//! Data imputation (the paper's hands-on §3.4): fine-tune a pretrained
//! model to recover blanked cells, evaluate with standard metrics, and
//! slice the failures the paper highlights (numeric tables, tables without
//! descriptive headers).
//!
//! ## Method
//!
//! The blanked cell (a single `[EMPTY]` token after linearization) is
//! expanded into `K = 4` `[MASK]` positions. Fine-tuning does MLM at those
//! positions against the first `K` tokens of the gold value (padded with
//! `[SEP]`). At prediction time, each candidate value is scored by the mean
//! log-probability of its (padded) first `K` tokens at those positions —
//! one encoder pass scores every candidate.
//!
//! Candidates come from a per-header pool built on the training split
//! (the usual candidate-generation step for imputation); the gold value is
//! injected when absent so every example is solvable and models compete on
//! ranking, not pool luck.

use crate::metrics::{accuracy, macro_f1};
use crate::pretrain::MlmModel;
use crate::supervisor::{mean_loss, run_supervised, SupervisorConfig, TrainError};
use crate::trainer::{TrainConfig, TrainerOptions};
use ntr_corpus::datasets::{ImputationDataset, ImputationExample};
use ntr_corpus::Split;
use ntr_models::{EncoderInput, Rows};
use ntr_nn::loss::softmax_cross_entropy;
use ntr_table::{Linearizer, LinearizerOptions, RowMajorLinearizer};
use ntr_tokenizer::{SpecialToken, WordPieceTokenizer};
use std::collections::{BTreeMap, BTreeSet};

/// Number of `[MASK]` slots the blank expands to.
pub const MASK_SLOTS: usize = 4;

/// Per-header candidate pools built from the training split.
#[derive(Debug, Clone)]
pub struct CandidatePools {
    pools: BTreeMap<String, Vec<String>>,
    /// Most frequent value per header (the mode baseline's prediction).
    modes: BTreeMap<String, String>,
}

impl CandidatePools {
    /// Collects distinct column values (and their modes) per lowercased
    /// header over the given split.
    pub fn build(ds: &ImputationDataset, split: Split) -> Self {
        let mut values: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        for &i in &ds.indices(split) {
            let ex = &ds.examples[i];
            for (c, col) in ex.table.columns().iter().enumerate() {
                let header = col.name.to_lowercase();
                for r in 0..ex.table.n_rows() {
                    let text = ex.table.cell(r, c).text();
                    if !text.is_empty() {
                        *values
                            .entry(header.clone())
                            .or_default()
                            .entry(text.to_string())
                            .or_insert(0) += 1;
                    }
                }
            }
        }
        let mut pools = BTreeMap::new();
        let mut modes = BTreeMap::new();
        for (header, counts) in values {
            let mode = counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(v, _)| v.clone())
                .expect("non-empty counts");
            pools.insert(header.clone(), counts.into_keys().collect());
            modes.insert(header, mode);
        }
        Self { pools, modes }
    }

    /// Candidates for one example: the header pool plus local column
    /// values, with the gold injected; capped at 64, gold always kept.
    pub fn candidates(&self, ex: &ImputationExample) -> Vec<String> {
        let header = ex.table.columns()[ex.coord.1].name.to_lowercase();
        let mut set: BTreeSet<String> = BTreeSet::new();
        if let Some(pool) = self.pools.get(&header) {
            set.extend(pool.iter().cloned());
        }
        for r in 0..ex.table.n_rows() {
            let v = ex.table.cell(r, ex.coord.1).text();
            if !v.is_empty() {
                set.insert(v.to_string());
            }
        }
        set.insert(ex.target_text.clone());
        let mut out: Vec<String> = set.into_iter().take(64).collect();
        if !out.contains(&ex.target_text) {
            out.pop();
            out.push(ex.target_text.clone());
        }
        out
    }

    /// The mode baseline's prediction for an example.
    pub fn mode_prediction(&self, ex: &ImputationExample) -> Option<&str> {
        let header = ex.table.columns()[ex.coord.1].name.to_lowercase();
        self.modes.get(&header).map(String::as_str)
    }
}

/// Builds the masked encoder input for an example: linearizes the
/// corrupted table and expands the blank's `[EMPTY]` token into
/// [`MASK_SLOTS`] `[MASK]` positions. Returns `None` when the blank was
/// truncated away.
pub fn masked_input(
    ex: &ImputationExample,
    tok: &WordPieceTokenizer,
    max_tokens: usize,
) -> Option<(EncoderInput, Vec<usize>)> {
    let opts = LinearizerOptions {
        max_tokens,
        ..Default::default()
    };
    let encoded = RowMajorLinearizer.linearize(&ex.table, &ex.table.caption, tok, &opts);
    let span = encoded.cell_span(ex.coord.0, ex.coord.1)?;
    let p = span.start;
    let base = EncoderInput::from_encoded(&encoded);

    let mut input = EncoderInput {
        ids: Vec::with_capacity(base.len() + MASK_SLOTS - 1),
        rows: Vec::with_capacity(base.len() + MASK_SLOTS - 1),
        cols: Vec::with_capacity(base.len() + MASK_SLOTS - 1),
        segments: Vec::with_capacity(base.len() + MASK_SLOTS - 1),
        kinds: Vec::with_capacity(base.len() + MASK_SLOTS - 1),
        ranks: Vec::with_capacity(base.len() + MASK_SLOTS - 1),
    };
    let mut positions = Vec::with_capacity(MASK_SLOTS);
    for i in 0..base.len() {
        if i == p {
            for _ in 0..MASK_SLOTS {
                positions.push(input.ids.len());
                input.ids.push(SpecialToken::Mask.id());
                input.rows.push(base.rows[i]);
                input.cols.push(base.cols[i]);
                input.segments.push(base.segments[i]);
                input.kinds.push(base.kinds[i]);
                input.ranks.push(base.ranks[i]);
            }
        } else {
            input.ids.push(base.ids[i]);
            input.rows.push(base.rows[i]);
            input.cols.push(base.cols[i]);
            input.segments.push(base.segments[i]);
            input.kinds.push(base.kinds[i]);
            input.ranks.push(base.ranks[i]);
        }
    }
    Some((input, positions))
}

/// First [`MASK_SLOTS`] token ids of a value, `[SEP]`-padded.
pub fn value_slots(value: &str, tok: &WordPieceTokenizer) -> Vec<usize> {
    let mut ids = tok.encode(value);
    ids.truncate(MASK_SLOTS);
    while ids.len() < MASK_SLOTS {
        ids.push(SpecialToken::Sep.id());
    }
    ids
}

/// Fine-tunes a model on the imputation training split.
pub fn finetune<M: MlmModel>(
    model: &mut M,
    ds: &ImputationDataset,
    tok: &WordPieceTokenizer,
    cfg: &TrainConfig,
    max_tokens: usize,
) {
    finetune_supervised(
        model,
        ds,
        tok,
        cfg,
        max_tokens,
        &TrainerOptions::default(),
        &SupervisorConfig::default(),
    )
    .expect("no checkpoint, resume or supervisor is configured, so the run cannot fail");
}

/// Fine-tuning with checkpoint/resume per `topts` and, per `scfg`, the
/// self-healing supervisor (gradient clipping, anomaly detection,
/// rollback/retry, fault drills). Returns the mean training loss per
/// optimizer step this invocation ran.
pub fn finetune_supervised<M: MlmModel>(
    model: &mut M,
    ds: &ImputationDataset,
    tok: &WordPieceTokenizer,
    cfg: &TrainConfig,
    max_tokens: usize,
    topts: &TrainerOptions,
    scfg: &SupervisorConfig,
) -> Result<Vec<f32>, TrainError> {
    let train_idx = ds.indices(Split::Train);
    let prepared: Vec<(EncoderInput, Vec<usize>, Vec<usize>)> = train_idx
        .iter()
        .filter_map(|&i| {
            let ex = &ds.examples[i];
            let (input, positions) = masked_input(ex, tok, max_tokens)?;
            let targets = value_slots(&ex.target_text, tok);
            Some((input, positions, targets))
        })
        .collect();
    run_supervised(
        model,
        cfg,
        prepared.len(),
        topts,
        scfg,
        |loss: &f32| *loss,
        |model, item, cx| {
            let (input, positions, slot_targets) = &prepared[item.index];
            let (states, tape) = model.encode_train(input, Rows::Only(positions), cx);
            let (logits, head) = model.mlm_head().forward_train(&states);
            let (loss, dlogits) = softmax_cross_entropy(&logits, slot_targets, None);
            let dstates = model.mlm_head().backward(head, &dlogits, cx);
            model.backward(tape, &dstates, cx);
            (input.len(), loss)
        },
        mean_loss,
    )
}

/// Imputation evaluation results, with the §3.4 failure-case slices.
#[derive(Debug, Clone, Default)]
pub struct ImputationEval {
    /// Exact-match accuracy over all evaluated examples.
    pub accuracy: f64,
    /// Macro-F1 over the predicted/gold value vocabulary.
    pub macro_f1: f64,
    /// Examples evaluated.
    pub n: usize,
    /// Accuracy on mostly-numeric tables (§3.4 failure slice).
    pub numeric_accuracy: f64,
    /// Accuracy on non-numeric tables.
    pub text_accuracy: f64,
    /// Accuracy on headerless tables (§3.4 failure slice).
    pub headerless_accuracy: f64,
    /// Accuracy on tables with descriptive headers.
    pub headered_accuracy: f64,
}

/// Per-example outcome: (correct, numeric-table, headerless-table).
type Outcome = (bool, bool, bool);

fn sliced(outcomes: &[Outcome]) -> ImputationEval {
    let n = outcomes.len();
    let acc_of = |pred: &dyn Fn(&Outcome) -> bool| -> f64 {
        let subset: Vec<&Outcome> = outcomes.iter().filter(|o| pred(o)).collect();
        if subset.is_empty() {
            return 0.0;
        }
        subset.iter().filter(|o| o.0).count() as f64 / subset.len() as f64
    };
    ImputationEval {
        accuracy: acc_of(&|_| true),
        macro_f1: 0.0,
        n,
        numeric_accuracy: acc_of(&|o| o.1),
        text_accuracy: acc_of(&|o| !o.1),
        headerless_accuracy: acc_of(&|o| o.2),
        headered_accuracy: acc_of(&|o| !o.2),
    }
}

/// Evaluates a model on one split by candidate ranking.
pub fn evaluate<M: MlmModel>(
    model: &M,
    ds: &ImputationDataset,
    split: Split,
    pools: &CandidatePools,
    tok: &WordPieceTokenizer,
    max_tokens: usize,
) -> ImputationEval {
    let mut outcomes = Vec::new();
    let mut pred_labels = Vec::new();
    let mut gold_labels = Vec::new();
    let mut label_space: BTreeMap<String, usize> = BTreeMap::new();

    for &i in &ds.indices(split) {
        let ex = &ds.examples[i];
        let Some((input, positions)) = masked_input(ex, tok, max_tokens) else {
            continue;
        };
        // `masked_input`'s mask slots are consecutive: ascending and
        // distinct, as `Rows::Only` requires.
        let states = model.infer(&input, Rows::Only(&positions));
        let log_probs = model.mlm_head().forward(&states).log_softmax_rows();
        let candidates = pools.candidates(ex);
        let mut best: Option<(f32, &str)> = None;
        for cand in &candidates {
            let slots = value_slots(cand, tok);
            let mut score = 0.0;
            for (k, &slot) in slots.iter().enumerate() {
                score += log_probs.at(&[k, slot]);
            }
            score /= positions.len() as f32;
            if best.is_none() || score > best.as_ref().expect("set").0 {
                best = Some((score, cand));
            }
        }
        let predicted = best.map(|(_, c)| c.to_string()).unwrap_or_default();
        let correct = predicted == ex.target_text;
        outcomes.push((
            correct,
            ex.table.is_mostly_numeric(),
            ex.table.is_headerless(),
        ));
        pred_labels.push(intern(&predicted, &mut label_space));
        gold_labels.push(intern(&ex.target_text, &mut label_space));
    }
    let mut eval = sliced(&outcomes);
    eval.macro_f1 = macro_f1(&pred_labels, &gold_labels, label_space.len());
    debug_assert!((eval.accuracy - accuracy(&pred_labels, &gold_labels)).abs() < 1e-9);
    eval
}

/// The non-neural mode baseline: always predict the header's most frequent
/// training value.
pub fn baseline_mode(
    ds: &ImputationDataset,
    split: Split,
    pools: &CandidatePools,
) -> ImputationEval {
    let mut outcomes = Vec::new();
    let mut pred_labels = Vec::new();
    let mut gold_labels = Vec::new();
    let mut label_space: BTreeMap<String, usize> = BTreeMap::new();
    for &i in &ds.indices(split) {
        let ex = &ds.examples[i];
        let predicted = pools.mode_prediction(ex).unwrap_or("").to_string();
        outcomes.push((
            predicted == ex.target_text,
            ex.table.is_mostly_numeric(),
            ex.table.is_headerless(),
        ));
        pred_labels.push(intern(&predicted, &mut label_space));
        gold_labels.push(intern(&ex.target_text, &mut label_space));
    }
    let mut eval = sliced(&outcomes);
    eval.macro_f1 = macro_f1(&pred_labels, &gold_labels, label_space.len());
    eval
}

fn intern(s: &str, space: &mut BTreeMap<String, usize>) -> usize {
    let next = space.len();
    *space.entry(s.to_string()).or_insert(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_corpus::tables::{CorpusConfig, TableCorpus};
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::{ModelConfig, VanillaBert};

    fn setup() -> (ImputationDataset, WordPieceTokenizer) {
        let w = World::generate(WorldConfig {
            n_countries: 8,
            n_people: 8,
            n_films: 6,
            n_clubs: 4,
            seed: 2,
        });
        let corpus = TableCorpus::generate_entity_only(
            &w,
            &CorpusConfig {
                n_tables: 12,
                min_rows: 3,
                max_rows: 5,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 3,
            },
        );
        let tok = ntr_corpus::vocab::train_tokenizer(&corpus, &[], 1200);
        let ds = ImputationDataset::build(&corpus, 2, 4);
        (ds, tok)
    }

    #[test]
    fn masked_input_expands_blank_to_mask_slots() {
        let (ds, tok) = setup();
        let ex = &ds.examples[0];
        let (input, positions) = masked_input(ex, &tok, 128).unwrap();
        assert_eq!(positions.len(), MASK_SLOTS);
        for &p in &positions {
            assert_eq!(input.ids[p], SpecialToken::Mask.id());
            assert_eq!(input.rows[p], ex.coord.0 + 1);
            assert_eq!(input.cols[p], ex.coord.1 + 1);
        }
        for w in positions.windows(2) {
            assert_eq!(w[1], w[0] + 1, "mask positions must be consecutive");
        }
    }

    #[test]
    fn value_slots_pad_and_truncate() {
        let (_, tok) = setup();
        assert_eq!(value_slots("France", &tok).len(), MASK_SLOTS);
        assert_eq!(
            value_slots("France Germany Italy Spain Portugal", &tok).len(),
            MASK_SLOTS
        );
        let empty = value_slots("", &tok);
        assert_eq!(empty, vec![SpecialToken::Sep.id(); MASK_SLOTS]);
    }

    #[test]
    fn candidate_pool_always_contains_gold() {
        let (ds, _) = setup();
        let pools = CandidatePools::build(&ds, Split::Train);
        for ex in &ds.examples {
            let cands = pools.candidates(ex);
            assert!(
                cands.contains(&ex.target_text),
                "gold missing for {:?}",
                ex.coord
            );
            assert!(cands.len() <= 64);
        }
    }

    #[test]
    fn finetuning_beats_untrained_model() {
        let (ds, tok) = setup();
        let pools = CandidatePools::build(&ds, Split::Train);
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let mut model = VanillaBert::new(&cfg);
        let before = evaluate(&model, &ds, Split::Train, &pools, &tok, 128);
        finetune(
            &mut model,
            &ds,
            &tok,
            &TrainConfig {
                epochs: 8,
                lr: 3e-3,
                batch_size: 4,
                warmup_frac: 0.1,
                seed: 9,
            },
            128,
        );
        let after = evaluate(&model, &ds, Split::Train, &pools, &tok, 128);
        assert!(after.n > 0);
        assert!(
            after.accuracy > before.accuracy,
            "fine-tuning must fit its training split: {} → {}",
            before.accuracy,
            after.accuracy
        );
    }

    #[test]
    fn baseline_mode_runs_and_reports_slices() {
        let (ds, _) = setup();
        let pools = CandidatePools::build(&ds, Split::Train);
        let eval = baseline_mode(&ds, Split::Test, &pools);
        assert!(eval.n > 0);
        assert!(eval.accuracy >= 0.0 && eval.accuracy <= 1.0);
        assert!(eval.macro_f1 >= 0.0 && eval.macro_f1 <= 1.0);
    }
}
