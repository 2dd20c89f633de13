//! Pretraining objectives (the paper's hands-on §3.3): masked language
//! modeling, TURL's joint MLM + masked entity recovery, and TAPEX's
//! neural-SQL-executor objective.

use crate::supervisor::{mean_loss, run_supervised, SupervisorConfig, TrainError};
use crate::trainer::{TrainConfig, TrainerOptions};
use ntr_corpus::tables::TableCorpus;
use ntr_models::{
    pool_mean, pool_mean_backward, EncoderInput, Mate, MlmHead, Rows, SequenceEncoder, Tapas,
    Tapex, Turl, VanillaBert,
};
use ntr_nn::loss::softmax_cross_entropy;
use ntr_sql::gen::{GenConfig, QueryGenerator};
use ntr_table::masking::{mask_entities, mask_mlm, MaskedExample, MlmConfig};
use ntr_table::{
    Linearizer, LinearizerOptions, RowMajorLinearizer, TapexLinearizer, TurlLinearizer,
};
use ntr_tensor::Tensor;
use ntr_tokenizer::{SpecialToken, WordPieceTokenizer};

/// A model that exposes an MLM head — the requirement for generic MLM
/// pretraining.
pub trait MlmModel: SequenceEncoder {
    /// The masked-language-modeling head.
    fn mlm_head(&mut self) -> &mut MlmHead;

    /// The same head, for `&self` inference.
    fn mlm_head_ref(&self) -> &MlmHead;

    /// A boxed copy: what makes `Box<dyn MlmModel + Send>` `Clone`.
    fn clone_box(&self) -> Box<dyn MlmModel + Send>;
}

macro_rules! mlm_model {
    ($($model:ty),*) => {$(
        impl MlmModel for $model {
            fn mlm_head(&mut self) -> &mut MlmHead {
                &mut self.mlm
            }

            fn mlm_head_ref(&self) -> &MlmHead {
                &self.mlm
            }

            fn clone_box(&self) -> Box<dyn MlmModel + Send> {
                Box::new(self.clone())
            }
        }
    )*};
}

mlm_model!(VanillaBert, Turl, Tapas, Mate);

// Boxed MLM models train through the same generic loops as concrete ones;
// this is what lets `ntr::zoo::build_mlm_model` return one registry type
// that `TrainRun::mlm` and the checkpoint machinery accept directly.
impl ntr_nn::Layer for Box<dyn MlmModel + Send> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&ntr_nn::Name, &mut ntr_nn::Param)) {
        self.as_mut().visit_params(f)
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&ntr_nn::Name, &mut [u64; 4])) {
        self.as_mut().visit_rng_state(f)
    }
}

impl SequenceEncoder for Box<dyn MlmModel + Send> {
    fn d_model(&self) -> usize {
        self.as_ref().d_model()
    }

    fn vocab_size(&self) -> usize {
        self.as_ref().vocab_size()
    }

    fn infer(&self, input: &EncoderInput, rows: Rows) -> Tensor {
        self.as_ref().infer(input, rows)
    }

    fn encode_train(&mut self, input: &EncoderInput, rows: Rows) -> Tensor {
        self.as_mut().encode_train(input, rows)
    }

    fn backward(&mut self, d_states: &Tensor) {
        self.as_mut().backward(d_states)
    }

    fn family(&self) -> &'static str {
        self.as_ref().family()
    }
}

impl MlmModel for Box<dyn MlmModel + Send> {
    fn mlm_head(&mut self) -> &mut MlmHead {
        self.as_mut().mlm_head()
    }

    fn mlm_head_ref(&self) -> &MlmHead {
        self.as_ref().mlm_head_ref()
    }

    fn clone_box(&self) -> Box<dyn MlmModel + Send> {
        self.as_ref().clone_box()
    }
}

impl Clone for Box<dyn MlmModel + Send> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
    }
}

/// How many rows of `logits` have their target as the argmax.
fn argmax_hits(logits: &Tensor, targets: &[usize]) -> usize {
    let preds = logits.argmax_rows();
    preds.iter().zip(targets).filter(|(p, t)| p == t).count()
}

/// Mean loss per example and recovery accuracy over a batch's per-example
/// `(loss, targets recovered, targets)`, summed in example order.
fn recovery<'a>(batch: impl ExactSizeIterator<Item = &'a (f32, usize, usize)>) -> (f32, f32) {
    let n = batch.len() as f32;
    let (loss, hits, targets) = batch.fold((0.0, 0, 0), |a, r| (a.0 + r.0, a.1 + r.1, a.2 + r.2));
    (loss / n, hits as f32 / targets.max(1) as f32)
}

/// Loss/accuracy trajectory of a pretraining run (one point per optimizer
/// step) — the curves the E3 experiment plots.
#[derive(Debug, Clone, Default)]
pub struct PretrainReport {
    /// Mean MLM loss per step.
    pub mlm_loss: Vec<f32>,
    /// Masked-token recovery accuracy per step.
    pub mlm_acc: Vec<f32>,
    /// Mean MER loss per step (empty for MLM-only runs).
    pub mer_loss: Vec<f32>,
    /// Masked-entity recovery accuracy per step (empty for MLM-only runs).
    pub mer_acc: Vec<f32>,
}

/// One configured pretraining run: the single entry point for MLM, TURL,
/// TAPEX and distillation training.
///
/// Every optional concern — serialization strategy, checkpoint/resume,
/// the self-healing supervisor, observability (carried inside
/// [`TrainerOptions`]) — is a builder field with a default, so the
/// shortest run is
///
/// ```ignore
/// TrainRun::new(cfg).max_tokens(96).mlm(&mut model, &corpus, &tok)?
/// ```
///
/// The terminal methods ([`TrainRun::mlm`], [`TrainRun::turl`],
/// [`TrainRun::tapex`], [`TrainRun::distill`]) take `&self`, so one
/// configured run can train several models under identical settings.
pub struct TrainRun<'a> {
    pub(crate) cfg: TrainConfig,
    pub(crate) max_tokens: usize,
    pub(crate) linearizer: &'a dyn Linearizer,
    pub(crate) topts: TrainerOptions,
    pub(crate) scfg: SupervisorConfig,
    queries_per_table: usize,
}

impl Default for TrainRun<'static> {
    fn default() -> Self {
        Self::new(TrainConfig::default())
    }
}

impl<'a> TrainRun<'a> {
    /// A run with `cfg` hyperparameters and every optional feature off:
    /// row-major serialization, 128-token budget, no checkpointing, no
    /// supervision, no observability, 2 SQL queries per table (TAPEX).
    pub fn new(cfg: TrainConfig) -> Self {
        Self {
            cfg,
            max_tokens: 128,
            linearizer: &RowMajorLinearizer,
            topts: TrainerOptions::default(),
            scfg: SupervisorConfig::default(),
            queries_per_table: 2,
        }
    }

    /// Token budget for table serialization (default 128).
    pub fn max_tokens(mut self, n: usize) -> Self {
        self.max_tokens = n;
        self
    }

    /// Serialization strategy for [`TrainRun::mlm`] (default row-major).
    /// [`TrainRun::turl`] and [`TrainRun::tapex`] ignore it: those
    /// objectives are defined on their own linearizations.
    pub fn linearizer(mut self, lin: &'a dyn Linearizer) -> Self {
        self.linearizer = lin;
        self
    }

    /// Checkpoint/resume/halt/observability knobs (default all off).
    pub fn trainer(mut self, topts: &TrainerOptions) -> Self {
        self.topts = topts.clone();
        self
    }

    /// Self-healing supervisor knobs (default all off — bit-identical to
    /// the unsupervised loop).
    pub fn supervisor(mut self, scfg: &SupervisorConfig) -> Self {
        self.scfg = scfg.clone();
        self
    }

    /// Generated SQL queries per corpus table for [`TrainRun::tapex`]
    /// (default 2).
    pub fn queries_per_table(mut self, n: usize) -> Self {
        self.queries_per_table = n;
        self
    }

    /// MLM pretraining of `model` over `corpus`.
    pub fn mlm<M: MlmModel + Clone>(
        &self,
        model: &mut M,
        corpus: &TableCorpus,
        tok: &WordPieceTokenizer,
    ) -> Result<PretrainReport, TrainError> {
        let opts = LinearizerOptions {
            max_tokens: self.max_tokens,
            ..Default::default()
        };
        let mlm_cfg = MlmConfig::bert(tok.vocab_size());
        let encoded: Vec<_> = corpus
            .tables
            .iter()
            .map(|t| self.linearizer.linearize(t, &t.caption, tok, &opts))
            .collect();

        let seed = self.cfg.seed;
        let steps = run_supervised(
            model,
            &self.cfg,
            encoded.len(),
            &self.topts,
            &self.scfg,
            |r: &(f32, f32)| r.0,
            |model, item| {
                let e = &encoded[item.index];
                let masked = mask_mlm(e, &mlm_cfg, seed ^ ((item.epoch * 31 + item.pos) as u64));
                let (rows, targets) = masked.positions();
                let input = EncoderInput::from_masked(e, &masked);
                let states = model.encode_train(&input, Rows::Only(&rows));
                let logits = model.mlm_head().forward(&states);
                let (loss, dlogits) = softmax_cross_entropy(&logits, &targets, None);
                let dstates = model.mlm_head().backward(&dlogits);
                model.backward(&dstates);
                (
                    e.ids().len(),
                    (loss, argmax_hits(&logits, &targets), targets.len()),
                )
            },
            |examples, _, obs| {
                obs.count_tokens(examples.iter().map(|e| e.0 as u64).sum());
                recovery(examples.iter().map(|e| &e.1))
            },
        )?;
        let mut report = PretrainReport::default();
        for (loss, acc) in steps {
            report.mlm_loss.push(loss);
            report.mlm_acc.push(acc);
        }
        Ok(report)
    }
}

impl TrainRun<'_> {
    /// TURL joint pretraining: MER masks whole entity cells, MLM masks
    /// remaining tokens; both objectives backpropagate through one
    /// encoding. Always uses the TURL linearization; the anomaly detector
    /// watches the combined MLM + MER loss.
    pub fn turl(
        &self,
        model: &mut Turl,
        corpus: &TableCorpus,
        tok: &WordPieceTokenizer,
    ) -> Result<PretrainReport, TrainError> {
        let opts = LinearizerOptions {
            max_tokens: self.max_tokens,
            ..Default::default()
        };
        let mlm_cfg = MlmConfig::bert(tok.vocab_size());
        let encoded: Vec<_> = corpus
            .tables
            .iter()
            .map(|t| TurlLinearizer.linearize(t, &t.caption, tok, &opts))
            .collect();

        let base_seed = self.cfg.seed;
        let steps = run_supervised(
            model,
            &self.cfg,
            encoded.len(),
            &self.topts,
            &self.scfg,
            |r: &(f32, f32, f32, f32)| r.0 + r.1,
            |model, item| {
                let e = &encoded[item.index];
                let seed = base_seed ^ ((item.epoch * 131 + item.pos) as u64);
                // 1. MER corruption (whole entity cells → [MASK]).
                let (mer_ids, masked_entities) = mask_entities(e, 0.3, seed);
                // 2. MLM corruption on top, skipping positions MER already took.
                let mut mlm = mask_mlm(e, &mlm_cfg, seed ^ 0xA5A5);
                let mut input_ids = mer_ids;
                for (pos, id) in input_ids.iter_mut().enumerate() {
                    if masked_entities.iter().any(|m| m.positions.contains(&pos)) {
                        mlm.targets[pos] = MaskedExample::IGNORE;
                    } else if mlm.targets[pos] != MaskedExample::IGNORE {
                        *id = mlm.input_ids[pos];
                    }
                }
                let input = EncoderInput::from_encoded_with_ids(e, input_ids);
                // The encoder computes the rows either loss reads, ascending:
                // the MLM positions and the masked cells' tokens.
                let (mlm_rows, targets) = mlm.positions();
                let mut rows = mlm_rows.clone();
                rows.extend(masked_entities.iter().flat_map(|m| &m.positions));
                rows.sort_unstable();
                let at = |p: usize| rows.binary_search(&p).expect("a loss row");
                let states = model.encode_train(&input, Rows::Only(&rows));
                let (m, d) = (rows.len(), states.dim(1));

                // MLM objective.
                let mlm_at: Vec<usize> = mlm_rows.iter().map(|&p| at(p)).collect();
                let logits = model.mlm.forward(&states.gather_rows(&mlm_at));
                let (mlm_loss, dlogits) = softmax_cross_entropy(&logits, &targets, None);
                let mlm_rec = (mlm_loss, argmax_hits(&logits, &targets), targets.len());
                let mut dstates = model.mlm.backward(&dlogits).scatter_rows(&mlm_at, m);

                // MER objective: pool each masked cell, classify over entities.
                let mut mer_rec = (0.0, 0, 0);
                let spans: Vec<_> = (masked_entities.iter())
                    .map(|m| at(m.positions[0])..at(m.positions[m.positions.len() - 1]) + 1)
                    .collect();
                if !masked_entities.is_empty() {
                    let mut pooled = Tensor::zeros(&[spans.len(), d]);
                    for (k, span) in spans.iter().enumerate() {
                        pooled
                            .row_mut(k)
                            .copy_from_slice(pool_mean(&states, span).data());
                    }
                    let mer_logits = model.mer.forward(&pooled);
                    let targets: Vec<usize> =
                        masked_entities.iter().map(|m| m.entity as usize).collect();
                    let (loss, dmer_logits) = softmax_cross_entropy(&mer_logits, &targets, None);
                    mer_rec = (loss, argmax_hits(&mer_logits, &targets), targets.len());
                    let d_pooled = model.mer.backward(&dmer_logits);
                    for (k, span) in spans.iter().enumerate() {
                        let dp = d_pooled.rows(k, k + 1);
                        dstates.add_assign(&pool_mean_backward(&dp, span, m));
                    }
                }

                model.backward(&dstates);
                (e.ids().len(), mlm_rec, mer_rec)
            },
            |examples, _, obs| {
                obs.count_tokens(examples.iter().map(|e| e.0 as u64).sum());
                let (mlm_loss, mlm_acc) = recovery(examples.iter().map(|e| &e.1));
                let (mer_loss, mer_acc) = recovery(examples.iter().map(|e| &e.2));
                (mlm_loss, mer_loss, mlm_acc, mer_acc)
            },
        )?;
        let mut report = PretrainReport::default();
        for (mlm_loss, mer_loss, mlm_acc, mer_acc) in steps {
            report.mlm_loss.push(mlm_loss);
            report.mer_loss.push(mer_loss);
            report.mlm_acc.push(mlm_acc);
            report.mer_acc.push(mer_acc);
        }
        Ok(report)
    }
}

/// Builds the TAPEX encoder input for `(sql, table)` and the target ids
/// for the answer denotation.
pub fn tapex_example(
    table: &ntr_table::Table,
    sql: &ntr_sql::Query,
    answer: &ntr_sql::Answer,
    tok: &WordPieceTokenizer,
    max_tokens: usize,
) -> (EncoderInput, Vec<usize>) {
    let opts = LinearizerOptions {
        max_tokens,
        ..Default::default()
    };
    let encoded = TapexLinearizer.linearize(table, &sql.to_string(), tok, &opts);
    let input = EncoderInput::from_encoded(&encoded);
    let mut target = tok.encode(&answer.denotation().join(" ; "));
    target.truncate(24);
    target.push(SpecialToken::Sep.id());
    (input, target)
}

impl TrainRun<'_> {
    /// TAPEX pretraining: teach the encoder–decoder to *execute*
    /// [`TrainRun::queries_per_table`] generated SQL queries over each
    /// corpus table (always the TAPEX linearization). Returns per-step
    /// losses.
    pub fn tapex(
        &self,
        model: &mut Tapex,
        corpus: &TableCorpus,
        tok: &WordPieceTokenizer,
    ) -> Result<Vec<f32>, TrainError> {
        // Materialize (input, target) pairs once.
        let mut pairs = Vec::new();
        for (ti, table) in corpus.tables.iter().enumerate() {
            let mut gen = QueryGenerator::new(self.cfg.seed ^ (ti as u64), GenConfig::default());
            for (sql, answer) in gen.generate_n(table, self.queries_per_table) {
                pairs.push(tapex_example(table, &sql, &answer, tok, self.max_tokens));
            }
        }
        run_supervised(
            model,
            &self.cfg,
            pairs.len(),
            &self.topts,
            &self.scfg,
            |loss: &f32| *loss,
            |model, item| {
                let (input, target) = &pairs[item.index];
                (input.len() + target.len(), model.train_step(input, target))
            },
            mean_loss,
        )
    }
}

/// Held-out MLM evaluation: masks each table once (seeded) and measures
/// masked-token recovery accuracy, without touching the model's weights.
pub fn eval_mlm<M: MlmModel>(
    model: &M,
    tables: &[ntr_table::Table],
    tok: &WordPieceTokenizer,
    max_tokens: usize,
    linearizer: &dyn Linearizer,
    seed: u64,
) -> f64 {
    let opts = LinearizerOptions {
        max_tokens,
        ..Default::default()
    };
    let mlm_cfg = MlmConfig::bert(tok.vocab_size());
    let mut hits = 0usize;
    let mut total = 0usize;
    for (i, t) in tables.iter().enumerate() {
        let e = linearizer.linearize(t, &t.caption, tok, &opts);
        let masked = mask_mlm(&e, &mlm_cfg, seed ^ i as u64);
        // `positions()` is ascending and distinct, as `Rows::Only` requires.
        let (rows, targets) = masked.positions();
        let states = model.infer(&EncoderInput::from_masked(&e, &masked), Rows::Only(&rows));
        total += targets.len();
        hits += argmax_hits(&model.mlm_head_ref().infer(&states), &targets);
    }
    hits as f64 / total.max(1) as f64
}

/// Evaluates TAPEX as a neural executor: greedy-generate the answer for
/// each (sql, table) pair and compare denotation strings. Returns accuracy.
pub fn eval_tapex_execution(
    model: &mut Tapex,
    pairs: &[(ntr_table::Table, ntr_sql::Query, ntr_sql::Answer)],
    tok: &WordPieceTokenizer,
    max_tokens: usize,
) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let mut hits = 0;
    for (table, sql, answer) in pairs {
        let (input, target) = tapex_example(table, sql, answer, tok, max_tokens);
        let generated = model.generate(&input, 26);
        // Compare in decoded-token space so sub-word segmentation (e.g.
        // "25.69" → "25 . 69") cancels out on both sides.
        let text = tok.decode(&generated);
        let gold = tok.decode(&target[..target.len() - 1]);
        if text == gold {
            hits += 1;
        }
    }
    hits as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_corpus::tables::CorpusConfig;
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::ModelConfig;

    fn small_world() -> (World, TableCorpus, WordPieceTokenizer) {
        let w = World::generate(WorldConfig {
            n_countries: 8,
            n_people: 10,
            n_films: 8,
            n_clubs: 6,
            seed: 5,
        });
        let corpus = TableCorpus::generate_entity_only(
            &w,
            &CorpusConfig {
                n_tables: 10,
                min_rows: 3,
                max_rows: 5,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 6,
            },
        );
        let tok = ntr_corpus::vocab::train_tokenizer(&corpus, &[], 1200);
        (w, corpus, tok)
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            lr: 3e-3,
            batch_size: 4,
            warmup_frac: 0.1,
            seed: 1,
        }
    }

    #[test]
    fn mlm_pretraining_reduces_loss() {
        let (_, corpus, tok) = small_world();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let mut model = VanillaBert::new(&cfg);
        let report = TrainRun::new(quick_cfg())
            .max_tokens(96)
            .mlm(&mut model, &corpus, &tok)
            .unwrap();
        assert!(report.mlm_loss.len() >= 6);
        let first = report.mlm_loss[..2].iter().sum::<f32>() / 2.0;
        let n = report.mlm_loss.len();
        let last = report.mlm_loss[n - 2..].iter().sum::<f32>() / 2.0;
        assert!(last < first, "MLM loss should drop: {first} → {last}");
    }

    #[test]
    fn turl_pretraining_improves_both_objectives() {
        let (w, corpus, tok) = small_world();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            n_entities: w.n_entities(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let mut model = Turl::new(&cfg);
        // The MER objective's per-batch loss is a high-variance estimate (a
        // handful of masked entities classified over the full entity set), so
        // it needs more epochs than MLM before the trend beats the noise.
        let tc = TrainConfig {
            epochs: 24,
            ..quick_cfg()
        };
        let report = TrainRun::new(tc)
            .max_tokens(96)
            .turl(&mut model, &corpus, &tok)
            .unwrap();
        assert!(!report.mer_loss.is_empty());
        let first = report.mer_loss[..2].iter().sum::<f32>() / 2.0;
        let n = report.mer_loss.len();
        let last = report.mer_loss[n - 2..].iter().sum::<f32>() / 2.0;
        assert!(last < first, "MER loss should drop: {first} → {last}");
        let first = report.mlm_loss[..2].iter().sum::<f32>() / 2.0;
        let last = report.mlm_loss[n - 2..].iter().sum::<f32>() / 2.0;
        assert!(last < first, "MLM loss should drop: {first} → {last}");
    }

    #[test]
    fn tapex_pretraining_loss_drops() {
        let (_, corpus, tok) = small_world();
        let small = TableCorpus {
            tables: corpus.tables[..4].to_vec(),
            kinds: corpus.kinds[..4].to_vec(),
        };
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let mut model = Tapex::new(&cfg);
        let losses = TrainRun::new(quick_cfg())
            .max_tokens(96)
            .queries_per_table(2)
            .tapex(&mut model, &small, &tok)
            .unwrap();
        assert!(losses.len() >= 3);
        assert!(
            losses.last().unwrap() < &losses[0],
            "TAPEX loss should drop: {losses:?}"
        );
    }
}
