//! Aggregation question answering — TAPAS's weak-supervision setting: for
//! questions like *"what is the average population?"* the model predicts an
//! **aggregation operator** (from the `[CLS]` state, via
//! [`ntr_models::Tapas::agg_head`]) and a **target column** (pointer over
//! pooled column representations); the answer is the operator applied to
//! the column. Evaluated by denotation through the real SQL executor.

use crate::metrics::accuracy;
use crate::supervisor::fit;
use crate::trainer::TrainConfig;
use ntr_corpus::datasets::render_question;
use ntr_corpus::split_three;
use ntr_corpus::tables::TableCorpus;
use ntr_corpus::Split;
use ntr_models::{EncoderInput, SequenceEncoder, Tapas};
use ntr_nn::init::SeededInit;
use ntr_nn::loss::softmax_cross_entropy;
use ntr_nn::{visit_child, Layer, Linear, Name, Param};
use ntr_sql::gen::{GenConfig, QueryGenerator};
use ntr_sql::{execute, Agg, Answer, Query};
use ntr_table::{
    EncodedTable, Linearizer, LinearizerOptions, RowMajorLinearizer, Table, TokenKind,
};
use ntr_tensor::Tensor;
use ntr_tokenizer::WordPieceTokenizer;

/// The operator label space (TAPAS's choice): NONE means "return the
/// column's cells as-is".
pub const OPS: [&str; 4] = ["none", "count", "sum", "average"];

fn op_of(agg: Option<Agg>) -> Option<usize> {
    match agg {
        None => Some(0),
        Some(Agg::Count) => Some(1),
        Some(Agg::Sum) => Some(2),
        Some(Agg::Avg) => Some(3),
        Some(Agg::Min | Agg::Max) => None, // outside TAPAS's op set
    }
}

fn op_to_agg(op: usize) -> Option<Agg> {
    match op {
        1 => Some(Agg::Count),
        2 => Some(Agg::Sum),
        3 => Some(Agg::Avg),
        _ => None,
    }
}

/// One aggregation-QA example.
#[derive(Debug, Clone)]
pub struct AggQaExample {
    /// The table.
    pub table: Table,
    /// Natural-language question.
    pub question: String,
    /// Gold operator index into [`OPS`].
    pub op: usize,
    /// Gold target column.
    pub column: usize,
    /// Gold answer (executed).
    pub answer: Answer,
}

/// Aggregation-QA dataset with splits.
#[derive(Debug, Clone)]
pub struct AggQaDataset {
    /// All examples.
    pub examples: Vec<AggQaExample>,
    /// Split per example.
    pub splits: Vec<Split>,
}

impl AggQaDataset {
    /// Builds condition-free aggregate questions over every headered table.
    pub fn build(corpus: &TableCorpus, per_table: usize, seed: u64) -> Self {
        let mut examples = Vec::new();
        for (ti, table) in corpus.tables.iter().enumerate() {
            if table.is_headerless() || table.n_rows() == 0 {
                continue;
            }
            let mut gen = QueryGenerator::new(
                seed ^ (ti as u64).wrapping_mul(0x9E1),
                GenConfig {
                    agg_prob: 0.75,
                    max_conditions: 0,
                    require_nonempty: true,
                },
            );
            let mut taken = 0;
            for (sql, answer) in gen.generate_n(table, per_table * 3) {
                let Some(op) = op_of(sql.agg) else { continue };
                let Some(column) = table.column_index(&sql.column) else {
                    continue;
                };
                examples.push(AggQaExample {
                    table: table.clone(),
                    question: render_question(&sql),
                    op,
                    column,
                    answer,
                });
                taken += 1;
                if taken == per_table {
                    break;
                }
            }
        }
        let splits = split_three(examples.len(), 0.1, 0.2, seed ^ 0xA99A);
        Self { examples, splits }
    }

    /// Indices of one split.
    pub fn indices(&self, split: Split) -> Vec<usize> {
        ntr_corpus::split::indices_of(&self.splits, split)
    }
}

/// The model: a TAPAS encoder, its built-in aggregation head, and a
/// question→column pointer.
#[derive(Clone)]
pub struct AggregationQa {
    /// The TAPAS encoder (with `agg_head`).
    pub tapas: Tapas,
    /// Question-side pointer projection.
    pub wq: Linear,
    /// Column-side pointer projection.
    pub wk: Linear,
}

impl AggregationQa {
    /// Wraps a TAPAS model with fresh column-pointer projections.
    pub fn new(tapas: Tapas, seed: u64) -> Self {
        let d = tapas.d_model();
        let mut init = SeededInit::new(seed);
        Self {
            tapas,
            wq: Linear::new(d, d, &mut init.fork()),
            wk: Linear::new(d, d, &mut init.fork()),
        }
    }
}

impl Layer for AggregationQa {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.tapas.visit_params(&mut visit_child("tapas", f));
        self.wq.visit_params(&mut visit_child("wq", f));
        self.wk.visit_params(&mut visit_child("wk", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        self.tapas.visit_rng_state(&mut visit_child("tapas", f));
    }
}

/// Positions of each column's cell tokens.
fn column_positions(encoded: &EncodedTable, n_cols: usize) -> Vec<Vec<usize>> {
    let mut cols = vec![Vec::new(); n_cols];
    for (i, m) in encoded.meta().iter().enumerate() {
        if m.kind == TokenKind::Cell && m.col > 0 && m.col <= n_cols {
            cols[m.col - 1].push(i);
        }
    }
    cols
}

fn pool(states: &Tensor, positions: &[usize]) -> Tensor {
    let d = states.dim(1);
    let mut out = Tensor::zeros(&[1, d]);
    for &p in positions {
        for j in 0..d {
            out.data_mut()[j] += states.at(&[p, j]);
        }
    }
    out.scale(1.0 / positions.len().max(1) as f32)
}

struct Prepared {
    input: EncoderInput,
    col_positions: Vec<Vec<usize>>,
    op: usize,
    column: usize,
}

fn prepare(
    ds: &AggQaDataset,
    idx: &[usize],
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
) -> Vec<Prepared> {
    idx.iter()
        .filter_map(|&i| {
            let ex = &ds.examples[i];
            let encoded = RowMajorLinearizer.linearize(&ex.table, &ex.question, tok, opts);
            let col_positions = column_positions(&encoded, ex.table.n_cols());
            if col_positions.iter().any(Vec::is_empty) {
                return None; // truncated column: skip for clean supervision
            }
            Some(Prepared {
                input: EncoderInput::from_encoded(&encoded),
                col_positions,
                op: ex.op,
                column: ex.column,
            })
        })
        .collect()
}

/// Fine-tunes operator and column prediction jointly.
pub fn finetune(
    model: &mut AggregationQa,
    ds: &AggQaDataset,
    tok: &WordPieceTokenizer,
    cfg: &TrainConfig,
    opts: &LinearizerOptions,
) {
    let prepared = prepare(ds, &ds.indices(Split::Train), tok, opts);
    fit(model, cfg, &prepared, |model, p, _| {
        let states = model.tapas.encode(&p.input, true);
        let (seq_len, d) = (states.dim(0), states.dim(1));
        let scale = 1.0 / (d as f32).sqrt();

        // Operator loss on [CLS].
        let cls = states.rows(0, 1);
        let op_logits = model.tapas.agg_head.forward(&cls);
        let (op_loss, d_op_logits) = softmax_cross_entropy(&op_logits, &[p.op], None);
        let d_cls = model.tapas.agg_head.backward(&d_op_logits);

        // Column pointer loss.
        let pooled: Vec<Tensor> = p.col_positions.iter().map(|ps| pool(&states, ps)).collect();
        let q = model.wq.forward(&cls);
        let pooled_mat = Tensor::vstack(&pooled.iter().collect::<Vec<_>>());
        let k = model.wk.forward(&pooled_mat);
        let col_logits = k.matmul_nt(&q).scale(scale).transpose(); // [1, n_cols]
        let (col_loss, d_col_logits) = softmax_cross_entropy(&col_logits, &[p.column], None);
        let d_col = d_col_logits.transpose(); // [n_cols, 1]
        let dk = d_col.matmul(&q).scale(scale);
        let dq = d_col.matmul_tn(&k).scale(scale);
        let d_pooled = model.wk.backward(&dk);
        let d_cls2 = model.wq.backward(&dq);

        // Assemble the state gradient.
        let mut dstates = Tensor::zeros(&[seq_len, d]);
        for j in 0..d {
            dstates.row_mut(0)[j] = d_cls.data()[j] + d_cls2.data()[j];
        }
        for (c, ps) in p.col_positions.iter().enumerate() {
            let w = 1.0 / ps.len().max(1) as f32;
            for &pos in ps {
                for j in 0..d {
                    dstates.row_mut(pos)[j] += d_pooled.at(&[c, j]) * w;
                }
            }
        }
        model.tapas.backward(&dstates);
        op_loss + col_loss
    });
}

/// Aggregation-QA evaluation.
#[derive(Debug, Clone, Default)]
pub struct AggQaEval {
    /// Operator accuracy.
    pub op_accuracy: f64,
    /// Column accuracy.
    pub col_accuracy: f64,
    /// Denotation accuracy of `apply(predicted op, predicted column)`.
    pub denotation_accuracy: f64,
    /// Examples evaluated.
    pub n: usize,
}

/// Evaluates by executing the predicted (op, column) program.
pub fn evaluate(
    model: &mut AggregationQa,
    ds: &AggQaDataset,
    split: Split,
    tok: &WordPieceTokenizer,
    opts: &LinearizerOptions,
) -> AggQaEval {
    let idx = ds.indices(split);
    let mut op_pred = Vec::new();
    let mut op_gold = Vec::new();
    let mut col_pred = Vec::new();
    let mut col_gold = Vec::new();
    let mut denot_hits = 0usize;
    for &i in &idx {
        let ex = &ds.examples[i];
        // Prepare per example so a skipped (truncated) example can never be
        // paired with a neighbour's encoding.
        let Some(p) = prepare(ds, &[i], tok, opts).pop() else {
            continue;
        };
        let states = model.tapas.encode(&p.input, false);
        let d = states.dim(1) as f32;
        let cls = states.rows(0, 1);
        let op = model.tapas.agg_head.forward(&cls).argmax_rows()[0];
        let pooled: Vec<Tensor> = p.col_positions.iter().map(|ps| pool(&states, ps)).collect();
        let q = model.wq.forward_inference(&cls);
        let k = model
            .wk
            .forward_inference(&Tensor::vstack(&pooled.iter().collect::<Vec<_>>()));
        let col = k
            .matmul_nt(&q)
            .scale(1.0 / d.sqrt())
            .transpose()
            .argmax_rows()[0];
        op_pred.push(op);
        op_gold.push(ex.op);
        col_pred.push(col);
        col_gold.push(ex.column);

        // Execute the predicted program.
        let mut query = Query::select(ex.table.columns()[col].name.clone());
        query.agg = op_to_agg(op);
        if let Ok(ans) = execute(&query, &ex.table) {
            if ans.same_denotation(&ex.answer) {
                denot_hits += 1;
            }
        }
    }
    AggQaEval {
        op_accuracy: accuracy(&op_pred, &op_gold),
        col_accuracy: accuracy(&col_pred, &col_gold),
        denotation_accuracy: denot_hits as f64 / op_pred.len().max(1) as f64,
        n: op_pred.len(),
    }
}

/// Keyword baseline: "how many" → COUNT, "total" → SUM, "average" → AVG,
/// else NONE; column = the header mentioned in the question.
pub fn baseline_keyword(ds: &AggQaDataset, split: Split) -> AggQaEval {
    let mut op_pred = Vec::new();
    let mut op_gold = Vec::new();
    let mut col_pred = Vec::new();
    let mut col_gold = Vec::new();
    let mut denot_hits = 0usize;
    for &i in &ds.indices(split) {
        let ex = &ds.examples[i];
        let q = ex.question.to_lowercase();
        let op = if q.contains("how many") {
            1
        } else if q.contains("total") {
            2
        } else if q.contains("average") {
            3
        } else {
            0
        };
        let col = (0..ex.table.n_cols())
            .find(|&c| q.contains(&ex.table.columns()[c].name.to_lowercase()))
            .unwrap_or(0);
        op_pred.push(op);
        op_gold.push(ex.op);
        col_pred.push(col);
        col_gold.push(ex.column);
        let mut query = Query::select(ex.table.columns()[col].name.clone());
        query.agg = op_to_agg(op);
        if let Ok(ans) = execute(&query, &ex.table) {
            if ans.same_denotation(&ex.answer) {
                denot_hits += 1;
            }
        }
    }
    AggQaEval {
        op_accuracy: accuracy(&op_pred, &op_gold),
        col_accuracy: accuracy(&col_pred, &col_gold),
        denotation_accuracy: denot_hits as f64 / op_pred.len().max(1) as f64,
        n: op_pred.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_corpus::tables::CorpusConfig;
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::ModelConfig;

    fn setup() -> (AggQaDataset, WordPieceTokenizer) {
        let w = World::generate(WorldConfig::default());
        let corpus = TableCorpus::generate(
            &w,
            &CorpusConfig {
                n_tables: 18,
                min_rows: 3,
                max_rows: 5,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 0xAA1,
            },
        );
        let ds = AggQaDataset::build(&corpus, 4, 0xAA2);
        let extra: Vec<String> = ds.examples.iter().map(|e| e.question.clone()).collect();
        let tok = ntr_corpus::vocab::train_tokenizer(&corpus, &extra, 1500);
        (ds, tok)
    }

    #[test]
    fn dataset_covers_all_ops_with_valid_answers() {
        let (ds, _) = setup();
        assert!(ds.examples.len() > 20);
        let mut seen = [false; 4];
        for ex in &ds.examples {
            seen[ex.op] = true;
            assert!(ex.column < ex.table.n_cols());
            // Gold answers re-execute to themselves.
            let mut q = Query::select(ex.table.columns()[ex.column].name.clone());
            q.agg = op_to_agg(ex.op);
            let ans = execute(&q, &ex.table).expect("gold re-executes");
            assert!(ans.same_denotation(&ex.answer), "{}", ex.question);
        }
        assert!(seen.iter().filter(|&&s| s).count() >= 3, "{seen:?}");
    }

    #[test]
    fn keyword_baseline_is_strong_on_templates() {
        let (ds, _) = setup();
        let eval = baseline_keyword(&ds, Split::Test);
        assert!(eval.n > 0);
        assert!(eval.op_accuracy > 0.6, "{eval:?}");
    }

    #[test]
    fn training_improves_operator_and_column_fit() {
        let (ds, tok) = setup();
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            d_ff: 64,
            dropout: 0.0,
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let opts = LinearizerOptions {
            max_tokens: 128,
            ..Default::default()
        };
        let mut model = AggregationQa::new(Tapas::new(&cfg), 0xAA3);
        let before = evaluate(&mut model, &ds, Split::Train, &tok, &opts);
        finetune(
            &mut model,
            &ds,
            &tok,
            &TrainConfig {
                epochs: 8,
                lr: 2e-3,
                batch_size: 4,
                warmup_frac: 0.1,
                seed: 0xAA4,
            },
            &opts,
        );
        let after = evaluate(&mut model, &ds, Split::Train, &tok, &opts);
        assert!(after.n > 0);
        assert!(
            after.op_accuracy + after.col_accuracy > before.op_accuracy + before.col_accuracy,
            "agg-QA training must fit: {before:?} → {after:?}"
        );
    }
}
