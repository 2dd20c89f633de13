//! Text-to-SQL semantic parsing (§2.1): generate SQL from a natural-
//! language question + table with a TAPEX-style encoder–decoder, and
//! evaluate by **denotation accuracy** (does the predicted query execute to
//! the gold answer?).

use crate::supervisor::fit;
use crate::trainer::TrainConfig;
use ntr_corpus::datasets::Text2SqlDataset;
use ntr_corpus::Split;
use ntr_models::{EncoderInput, Tapex};
use ntr_sql::{execute, parse_query};
use ntr_table::{Linearizer, LinearizerOptions, TapexLinearizer};
use ntr_tokenizer::{SpecialToken, WordPieceTokenizer};

fn example_io(
    ex: &ntr_corpus::datasets::Text2SqlExample,
    tok: &WordPieceTokenizer,
    max_tokens: usize,
) -> (EncoderInput, Vec<usize>) {
    let opts = LinearizerOptions {
        max_tokens,
        ..Default::default()
    };
    let encoded = TapexLinearizer.linearize(&ex.table, &ex.question, tok, &opts);
    let input = EncoderInput::from_encoded(&encoded);
    let mut target = tok.encode(&ex.sql.to_string());
    target.truncate(40);
    target.push(SpecialToken::Sep.id());
    (input, target)
}

/// Trains the parser with teacher forcing on the training split.
pub fn finetune(
    model: &mut Tapex,
    ds: &Text2SqlDataset,
    tok: &WordPieceTokenizer,
    cfg: &TrainConfig,
    max_tokens: usize,
) -> Vec<f32> {
    let prepared: Vec<(EncoderInput, Vec<usize>)> = ds
        .indices(Split::Train)
        .iter()
        .map(|&i| example_io(&ds.examples[i], tok, max_tokens))
        .collect();
    fit(model, cfg, &prepared, |model, (input, target), _| {
        model.train_step(input, target)
    })
}

/// Repairs tokenizer-decoded SQL so it re-parses: WordPiece decoding
/// spaces out punctuation (`67.8` → `67 . 8`, `>=` → `> =`,
/// `'France'` → `' france '`); this undoes exactly those splits.
pub fn repair_decoded_sql(text: &str) -> String {
    let mut s = text.to_string();
    for (from, to) in [("> =", ">="), ("< =", "<="), ("! =", "!="), ("< >", "<>")] {
        s = s.replace(from, to);
    }
    // Rejoin decimal numbers: digit ' . ' digit.
    let chars: Vec<char> = s.chars().collect();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == ' '
            && i + 2 < chars.len()
            && chars[i + 1] == '.'
            && chars[i + 2] == ' '
            && i > 0
            && chars[i - 1].is_ascii_digit()
            && i + 3 < chars.len()
            && chars[i + 3].is_ascii_digit()
        {
            out.push('.');
            i += 3;
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    // Reattach quotes: "' france '" → "'france'". Segments alternate
    // outside/inside quotes; inside segments get trimmed.
    let mut repaired = String::with_capacity(out.len());
    for (i, part) in out.split('\'').enumerate() {
        if i > 0 {
            repaired.push('\'');
        }
        if i % 2 == 1 {
            repaired.push_str(part.trim());
        } else {
            repaired.push_str(part);
        }
    }
    repaired
}

/// Text-to-SQL evaluation.
#[derive(Debug, Clone, Default)]
pub struct Text2SqlEval {
    /// Fraction of predictions that parse as SQL at all.
    pub parse_rate: f64,
    /// Fraction whose execution matches the gold denotation.
    pub denotation_accuracy: f64,
    /// Fraction exactly matching the gold SQL string (case-insensitive).
    pub exact_match: f64,
    /// Examples evaluated.
    pub n: usize,
}

/// Evaluates the parser by generating SQL and executing it.
pub fn evaluate(
    model: &mut Tapex,
    ds: &Text2SqlDataset,
    split: Split,
    tok: &WordPieceTokenizer,
    max_tokens: usize,
) -> Text2SqlEval {
    let idx = ds.indices(split);
    if idx.is_empty() {
        return Text2SqlEval::default();
    }
    let mut parsed = 0usize;
    let mut denot = 0usize;
    let mut exact = 0usize;
    for &i in &idx {
        let ex = &ds.examples[i];
        let (input, _) = example_io(ex, tok, max_tokens);
        let generated = model.generate(&input, 44);
        let text = repair_decoded_sql(&tok.decode(&generated));
        if text.eq_ignore_ascii_case(&ex.sql.to_string()) {
            exact += 1;
        }
        let Ok(query) = parse_query(&text) else {
            continue;
        };
        parsed += 1;
        if let Ok(ans) = execute(&query, &ex.table) {
            if ans.same_denotation(&ex.answer) {
                denot += 1;
            }
        }
    }
    let n = idx.len();
    Text2SqlEval {
        parse_rate: parsed as f64 / n as f64,
        denotation_accuracy: denot as f64 / n as f64,
        exact_match: exact as f64 / n as f64,
        n,
    }
}

/// Trivial baseline: always predict `SELECT <first column> FROM t`.
pub fn baseline_first_column(ds: &Text2SqlDataset, split: Split) -> Text2SqlEval {
    let idx = ds.indices(split);
    if idx.is_empty() {
        return Text2SqlEval::default();
    }
    let mut denot = 0;
    for &i in &idx {
        let ex = &ds.examples[i];
        let q = ntr_sql::Query::select(ex.table.columns()[0].name.clone());
        if let Ok(ans) = execute(&q, &ex.table) {
            if ans.same_denotation(&ex.answer) {
                denot += 1;
            }
        }
    }
    Text2SqlEval {
        parse_rate: 1.0,
        denotation_accuracy: denot as f64 / idx.len() as f64,
        exact_match: 0.0,
        n: idx.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_corpus::tables::{CorpusConfig, TableCorpus};
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::ModelConfig;

    #[test]
    fn repair_fixes_decoded_operators_and_numbers() {
        assert_eq!(
            repair_decoded_sql("select a from t where b > = 3"),
            "select a from t where b >= 3"
        );
        assert_eq!(
            repair_decoded_sql("select a from t where b = 67 . 8"),
            "select a from t where b = 67.8"
        );
        assert_eq!(
            repair_decoded_sql("select a from t where b = ' france '"),
            "select a from t where b = 'france'"
        );
        // Idempotent on already-clean SQL.
        let clean = "select sum population from t where country = 'france'";
        assert_eq!(repair_decoded_sql(clean), clean);
    }

    #[test]
    fn repaired_roundtrip_through_tokenizer_parses() {
        let corpus_text = [
            "select sum avg count min max from t where and population country 67.8 25.69",
            "' | : ; > < = ! . 0 1 2 3 4 5 6 7 8 9",
        ];
        let tok = ntr_tokenizer::WordPieceTokenizer::new(
            ntr_tokenizer::train::WordPieceTrainer::new(400).train(corpus_text.iter().copied()),
        );
        for sql in [
            "SELECT population FROM t",
            "SELECT SUM population FROM t WHERE country = 'france'",
            "SELECT COUNT country FROM t WHERE population >= 25.69",
        ] {
            let ids = tok.encode(sql);
            let text = repair_decoded_sql(&tok.decode(&ids));
            let parsed = parse_query(&text);
            assert!(parsed.is_ok(), "{sql:?} → {text:?}: {parsed:?}");
        }
    }

    #[test]
    fn training_reduces_loss_and_eval_is_consistent() {
        let w = World::generate(WorldConfig {
            n_countries: 6,
            n_people: 6,
            n_films: 4,
            n_clubs: 4,
            seed: 61,
        });
        let corpus = TableCorpus::generate(
            &w,
            &CorpusConfig {
                n_tables: 6,
                min_rows: 3,
                max_rows: 3,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 62,
            },
        );
        let ds = Text2SqlDataset::build(&corpus, 2, 63);
        let extra: Vec<String> = ds
            .examples
            .iter()
            .flat_map(|e| [e.question.clone(), e.sql.to_string().to_lowercase()])
            .collect();
        let tok = ntr_corpus::vocab::train_tokenizer(&corpus, &extra, 1500);
        let cfg = ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::tiny(tok.vocab_size())
        };
        let mut model = Tapex::new(&cfg);
        let losses = finetune(
            &mut model,
            &ds,
            &tok,
            &TrainConfig {
                epochs: 3,
                lr: 3e-3,
                batch_size: 4,
                warmup_frac: 0.1,
                seed: 7,
            },
            96,
        );
        assert!(losses.len() >= 2);
        assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
        let eval = evaluate(&mut model, &ds, Split::Test, &tok, 96);
        assert!(eval.n > 0);
        assert!(eval.denotation_accuracy <= eval.parse_rate + 1e-9);
        let base = baseline_first_column(&ds, Split::Test);
        assert_eq!(base.n, eval.n);
    }
}
