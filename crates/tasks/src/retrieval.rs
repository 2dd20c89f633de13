//! Table retrieval (§2.1): rank a table pool for a natural-language query.
//!
//! Two systems, as in the survey's comparison of neural vs. traditional:
//!
//! * **dense bi-encoder** — one shared [`SequenceEncoder`] embeds queries
//!   and tables ( `[CLS]` state); cosine similarity ranks. Optional
//!   contrastive fine-tuning (in-batch negatives) uses clone-and-merge
//!   weight sharing (`ntr_nn::merge_grads`);
//! * **lexical tf-idf baseline** — classic bag-of-words cosine.

use crate::metrics::{hits_at_k, mrr, ndcg_at_k, rank_of};
use crate::supervisor::fit;
use crate::trainer::TrainConfig;
use ntr_corpus::datasets::RetrievalDataset;
use ntr_corpus::Split;
use ntr_models::{EncoderInput, Rows, SequenceEncoder};
use ntr_nn::loss::softmax_cross_entropy;
use ntr_nn::{grads_of, merge_grads};
use ntr_table::{Linearizer, LinearizerOptions, RowMajorLinearizer, Table};
use ntr_tensor::Tensor;
use ntr_tokenizer::{SpecialToken, WordPieceTokenizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Builds the query-side encoder input: `[CLS] query-tokens`.
pub fn query_input(query: &str, tok: &WordPieceTokenizer) -> EncoderInput {
    let mut ids = vec![SpecialToken::Cls.id()];
    ids.extend(tok.encode(query));
    EncoderInput::from_text_ids(ids)
}

/// Builds the table-side encoder input (caption + row-major content).
pub fn table_input(
    table: &Table,
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
) -> EncoderInput {
    let e = RowMajorLinearizer.linearize(table, &table.caption, tok, opts);
    EncoderInput::from_encoded(&e)
}

/// Embeds an input as its `[CLS]` state, shape `[1, d]`.
pub fn embed<M: SequenceEncoder + ?Sized>(model: &M, input: &EncoderInput) -> Tensor {
    model.infer(input, Rows::CLS)
}

/// Retrieval quality over a split.
#[derive(Debug, Clone, Default)]
pub struct RetrievalEval {
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// NDCG@5.
    pub ndcg5: f64,
    /// Hits@1.
    pub hits1: f64,
    /// Queries evaluated.
    pub n: usize,
}

fn eval_from_ranks(ranks: &[Option<usize>]) -> RetrievalEval {
    RetrievalEval {
        mrr: mrr(ranks),
        ndcg5: ndcg_at_k(ranks, 5),
        hits1: hits_at_k(ranks, 1),
        n: ranks.len(),
    }
}

/// Dense retrieval evaluation: embeds the full pool once, then ranks each
/// query by cosine.
pub fn evaluate_dense<M: SequenceEncoder>(
    model: &mut M,
    ds: &RetrievalDataset,
    split: Split,
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
) -> RetrievalEval {
    let table_embs: Vec<Tensor> = ds
        .corpus
        .tables
        .iter()
        .map(|t| embed(model, &table_input(t, tok, opts)))
        .collect();
    let mut ranks = Vec::new();
    for &qi in &ds.indices(split) {
        let q = &ds.queries[qi];
        let q_emb = embed(model, &query_input(&q.text, tok));
        let scores: Vec<f64> = table_embs.iter().map(|t| q_emb.cosine(t) as f64).collect();
        ranks.push(rank_of(&scores, q.positive));
    }
    eval_from_ranks(&ranks)
}

/// Contrastive fine-tuning: for each training query, score the positive
/// against `n_negatives` sampled tables and apply cross-entropy over the
/// cosine logits (temperature-scaled). The shared encoder is cloned per
/// sequence and the gradients merged (`ntr_nn::merge_grads`).
pub fn finetune_contrastive<M: SequenceEncoder + Clone>(
    model: &mut M,
    ds: &RetrievalDataset,
    tok: &WordPieceTokenizer,
    cfg: &TrainConfig,
    opts: &LinearizerOptions,
    n_negatives: usize,
) {
    const TEMPERATURE: f32 = 10.0; // scales cosine logits into a useful range
    let train_idx = ds.indices(Split::Train);
    fit(model, cfg, &train_idx, |model, &qi, item| {
        let q = &ds.queries[qi];
        // Negatives come from this example's own stream, like MLM masks.
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ 0x8E ^ ((item.epoch * 31 + item.pos) as u64));
        // Candidates: positive first, then sampled negatives.
        let mut cand_ids = vec![q.positive];
        while cand_ids.len() < n_negatives + 1 {
            let t = rng.gen_range(0..ds.corpus.len());
            if t != q.positive {
                cand_ids.push(t);
            }
        }

        // Clone-per-sequence forward.
        let q_input = query_input(&q.text, tok);
        let mut q_clone = model.clone();
        q_clone.zero_grad();
        // Only the `[CLS]` rows reach the loss.
        let q_emb = q_clone.encode_train(&q_input, Rows::CLS);

        let mut t_clones = Vec::with_capacity(cand_ids.len());
        let mut t_embs = Vec::with_capacity(cand_ids.len());
        for &ti in &cand_ids {
            let input = table_input(&ds.corpus.tables[ti], tok, opts);
            let mut c = model.clone();
            c.zero_grad();
            t_embs.push(c.encode_train(&input, Rows::CLS));
            t_clones.push(c);
        }

        // Cosine logits and CE (positive is class 0).
        let d = q_emb.numel();
        let qn = q_emb.norm().max(1e-6);
        let mut logits = Tensor::zeros(&[1, cand_ids.len()]);
        for (k, t_emb) in t_embs.iter().enumerate() {
            logits.data_mut()[k] = TEMPERATURE * q_emb.cosine(t_emb);
        }
        let (loss, dlogits) = softmax_cross_entropy(&logits, &[0], None);

        // Backward through the cosine: for u·v/(|u||v|),
        // d/du = v/(|u||v|) − cos·u/|u|².
        let mut d_q = Tensor::zeros(&[1, d]);
        for (k, t_emb) in t_embs.iter().enumerate() {
            let g = dlogits.data()[k] * TEMPERATURE;
            if g == 0.0 {
                continue;
            }
            let tn = t_emb.norm().max(1e-6);
            let cos = q_emb.cosine(t_emb);
            // d/d q_emb
            let mut dq = t_emb.scale(1.0 / (qn * tn));
            dq.axpy(-cos / (qn * qn), &q_emb);
            d_q.axpy(g, &dq);
            // d/d t_emb
            let mut dt = q_emb.scale(1.0 / (qn * tn));
            dt.axpy(-cos / (tn * tn), t_emb);
            t_clones[k].backward(&dt.scale(g));
        }
        q_clone.backward(&d_q);

        // Merge clone grads into the master.
        let mut sets = vec![grads_of(&mut q_clone)];
        sets.extend(t_clones.iter_mut().map(|c| grads_of(c)));
        merge_grads(model, &mut sets);
        loss
    });
}

/// Lexical tf-idf retrieval baseline.
pub struct TfIdfIndex {
    doc_vectors: Vec<HashMap<String, f64>>,
    idf: HashMap<String, f64>,
}

impl TfIdfIndex {
    /// Indexes the corpus (caption + headers + cell text per table).
    pub fn build(ds: &RetrievalDataset) -> Self {
        let docs: Vec<Vec<String>> = ds.corpus.tables.iter().map(tokenize_table).collect();
        let n = docs.len() as f64;
        let mut df: HashMap<String, usize> = HashMap::new();
        for doc in &docs {
            let mut seen: Vec<&String> = doc.iter().collect();
            seen.sort_unstable();
            seen.dedup();
            for w in seen {
                *df.entry(w.clone()).or_insert(0) += 1;
            }
        }
        let idf: HashMap<String, f64> = df
            .into_iter()
            .map(|(w, c)| (w, (n / c as f64).ln() + 1.0))
            .collect();
        let doc_vectors = docs
            .iter()
            .map(|doc| {
                let mut v: HashMap<String, f64> = HashMap::new();
                for w in doc {
                    *v.entry(w.clone()).or_insert(0.0) += 1.0;
                }
                for (w, x) in v.iter_mut() {
                    *x *= idf.get(w).copied().unwrap_or(1.0);
                }
                v
            })
            .collect();
        Self { doc_vectors, idf }
    }

    fn score(&self, query: &str, doc: usize) -> f64 {
        let dv = &self.doc_vectors[doc];
        let mut qv: HashMap<String, f64> = HashMap::new();
        for w in tokenize_text(query) {
            *qv.entry(w).or_insert(0.0) += 1.0;
        }
        let mut dot = 0.0;
        let mut qn = 0.0;
        for (w, x) in qv.iter_mut() {
            *x *= self.idf.get(w).copied().unwrap_or(1.0);
            qn += *x * *x;
            dot += *x * dv.get(w).copied().unwrap_or(0.0);
        }
        let dn: f64 = dv.values().map(|x| x * x).sum();
        if qn == 0.0 || dn == 0.0 {
            0.0
        } else {
            dot / (qn.sqrt() * dn.sqrt())
        }
    }

    /// Evaluates the baseline on a split.
    pub fn evaluate(&self, ds: &RetrievalDataset, split: Split) -> RetrievalEval {
        let mut ranks = Vec::new();
        for &qi in &ds.indices(split) {
            let q = &ds.queries[qi];
            let scores: Vec<f64> = (0..ds.corpus.len())
                .map(|t| self.score(&q.text, t))
                .collect();
            ranks.push(rank_of(&scores, q.positive));
        }
        eval_from_ranks(&ranks)
    }
}

fn tokenize_text(s: &str) -> Vec<String> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .collect()
}

fn tokenize_table(t: &Table) -> Vec<String> {
    let mut words = tokenize_text(&t.caption);
    for c in t.columns() {
        words.extend(tokenize_text(&c.name));
    }
    for row in t.rows() {
        for cell in row {
            words.extend(tokenize_text(cell.text()));
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_corpus::tables::{CorpusConfig, TableCorpus};
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::{ModelConfig, VanillaBert};

    fn setup() -> (RetrievalDataset, WordPieceTokenizer) {
        let w = World::generate(WorldConfig {
            n_countries: 8,
            n_people: 8,
            n_films: 6,
            n_clubs: 4,
            seed: 41,
        });
        let corpus = TableCorpus::generate(
            &w,
            &CorpusConfig {
                n_tables: 10,
                min_rows: 3,
                max_rows: 4,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 42,
            },
        );
        let tok = ntr_corpus::vocab::train_tokenizer(&corpus, &[], 1200);
        (RetrievalDataset::build(corpus, 2, 43), tok)
    }

    #[test]
    fn tfidf_baseline_finds_positives() {
        let (ds, _) = setup();
        let index = TfIdfIndex::build(&ds);
        let eval = index.evaluate(&ds, Split::Train);
        assert!(eval.n > 0);
        // Queries mention subjects unique to their table; tf-idf should be
        // strong — that is the bar for the dense model.
        assert!(eval.mrr > 0.5, "{eval:?}");
    }

    #[test]
    fn dense_eval_runs_and_bounds() {
        let (ds, tok) = setup();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let mut model = VanillaBert::new(&cfg);
        let eval = evaluate_dense(
            &mut model,
            &ds,
            Split::Train,
            &tok,
            &LinearizerOptions::default(),
        );
        assert!(eval.n > 0);
        assert!(eval.mrr >= 0.0 && eval.mrr <= 1.0);
        assert!(eval.hits1 <= eval.mrr + 1e-9);
    }

    #[test]
    fn contrastive_finetuning_improves_mrr() {
        let (ds, tok) = setup();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let opts = LinearizerOptions {
            max_tokens: 96,
            ..Default::default()
        };
        let mut model = VanillaBert::new(&cfg);
        let before = evaluate_dense(&mut model, &ds, Split::Train, &tok, &opts);
        finetune_contrastive(
            &mut model,
            &ds,
            &tok,
            &TrainConfig {
                epochs: 3,
                lr: 2e-3,
                batch_size: 2,
                warmup_frac: 0.1,
                seed: 5,
            },
            &opts,
            3,
        );
        let after = evaluate_dense(&mut model, &ds, Split::Train, &tok, &opts);
        assert!(
            after.mrr > before.mrr,
            "contrastive training must help on train: {before:?} → {after:?}"
        );
    }
}
