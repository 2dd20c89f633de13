//! Text-to-SQL and neural SQL execution — the paper's §2.1 "Semantic
//! Parsing: Text-to-SQL" plus the TAPEX pretraining objective:
//!
//! 1. pretrain a TAPEX-style encoder–decoder to *execute* SQL against
//!    tables (supervision from the real `ntr-sql` executor);
//! 2. fine-tune a second model to *parse* questions into SQL;
//! 3. evaluate both by denotation.
//!
//! Run with: `cargo run --release --example text_to_sql`

use ntr::corpus::datasets::Text2SqlDataset;
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{Split, World, WorldConfig};
use ntr::models::{ModelConfig, Tapex};
use ntr::sql::gen::{GenConfig, QueryGenerator};
use ntr::tasks::pretrain::eval_tapex_execution;
use ntr::tasks::text2sql::{baseline_first_column, evaluate, finetune};
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

fn main() {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 60,
            min_rows: 3,
            max_rows: 5,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 51,
        },
    );

    // Vocabulary must cover questions and SQL renderings.
    let ds = Text2SqlDataset::build(&corpus, 4, 52);
    let extra: Vec<String> = ds
        .examples
        .iter()
        .flat_map(|e| [e.question.clone(), e.sql.to_string().to_lowercase()])
        .collect();
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &extra, 2500);
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        ..ModelConfig::default()
    };

    // ------------------------------------------------------------------
    // Part A: TAPEX as a neural SQL executor.
    // ------------------------------------------------------------------
    println!("Part A — pretraining a neural SQL executor (TAPEX objective)");
    let mut executor = Tapex::new(&cfg);
    let losses = TrainRun::new(TrainConfig {
        epochs: 12,
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 53,
    })
    .queries_per_table(3)
    .max_tokens(160)
    .tapex(&mut executor, &corpus, &tok)
    .expect("infallible: no checkpointing configured");
    println!(
        "  loss: {:.3} -> {:.3} over {} steps",
        losses.first().copied().unwrap_or(0.0),
        losses.last().copied().unwrap_or(0.0),
        losses.len()
    );
    // Held-out (table, sql, answer) triples with a fresh generator seed.
    let mut held_out = Vec::new();
    for table in corpus.tables.iter().take(8) {
        let mut g = QueryGenerator::new(0xEE7, GenConfig::default());
        for (q, a) in g.generate_n(table, 2) {
            held_out.push((table.clone(), q, a));
        }
    }
    let exec_acc = eval_tapex_execution(&executor, &held_out, &tok, 160);
    println!(
        "  neural execution accuracy on {} held-out queries: {:.3}",
        held_out.len(),
        exec_acc
    );
    println!("  (the real executor is exact by construction: 1.000)");

    // ------------------------------------------------------------------
    // Part B: text-to-SQL semantic parsing.
    // ------------------------------------------------------------------
    println!("\nPart B — text-to-SQL parsing, evaluated by denotation");
    println!(
        "  dataset: {} questions ({} train / {} test)",
        ds.examples.len(),
        ds.indices(Split::Train).len(),
        ds.indices(Split::Test).len()
    );
    let mut parser = Tapex::new(&ModelConfig { seed: 99, ..cfg });
    let losses = finetune(
        &mut parser,
        &ds,
        &tok,
        &TrainConfig {
            epochs: 30,
            lr: 3e-3,
            batch_size: 8,
            warmup_frac: 0.1,
            seed: 54,
        },
        160,
    );
    println!(
        "  loss: {:.3} -> {:.3} over {} steps",
        losses.first().copied().unwrap_or(0.0),
        losses.last().copied().unwrap_or(0.0),
        losses.len()
    );
    let eval = evaluate(&mut parser, &ds, Split::Test, &tok, 160);
    let base = baseline_first_column(&ds, Split::Test);
    println!("\n                      | parse rate | denotation acc | exact match");
    println!(
        "  tapex parser        |   {:.3}    |     {:.3}      |   {:.3}",
        eval.parse_rate, eval.denotation_accuracy, eval.exact_match
    );
    println!(
        "  first-column guess  |   1.000    |     {:.3}      |   0.000",
        base.denotation_accuracy
    );
}
