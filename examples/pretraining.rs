//! Pretraining — the paper's hands-on §3.3 ("Pretraining and Output
//! Encoding"): pretrain TURL with its two objectives (masked language
//! modeling + masked entity recovery) on a synthetic entity-table corpus,
//! watch both losses fall, then inspect attention weights.
//!
//! Run with: `cargo run --release --example pretraining`

use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::{EncoderInput, ModelConfig, Turl};
use ntr::table::{Linearizer, LinearizerOptions, TurlLinearizer};
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

fn main() {
    // 1. A synthetic world and an entity-table corpus (WikiTables stand-in).
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate_entity_only(
        &world,
        &CorpusConfig {
            n_tables: 60,
            min_rows: 3,
            max_rows: 6,
            null_prob: 0.02,
            headerless_prob: 0.0,
            seed: 11,
        },
    );
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 2000);
    println!(
        "world: {} entities | corpus: {} tables | vocab: {} tokens",
        world.n_entities(),
        corpus.len(),
        tok.vocab_size()
    );

    // 2. Pretrain TURL jointly on MLM + MER.
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: world.n_entities(),
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        dropout: 0.1,
        ..ModelConfig::default()
    };
    let mut model = Turl::new(&cfg);
    let train_cfg = TrainConfig {
        epochs: 12,
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 12,
    };
    println!("\npretraining TURL (MLM + MER)...");
    let report = TrainRun::new(train_cfg)
        .max_tokens(160)
        .turl(&mut model, &corpus, &tok)
        .expect("infallible: no checkpointing configured");

    println!("\n step | mlm loss | mlm acc | mer loss | mer acc");
    let n = report.mlm_loss.len();
    for i in (0..n).step_by((n / 12).max(1)) {
        println!(
            " {:>4} | {:>8.4} | {:>7.3} | {:>8.4} | {:>7.3}",
            i, report.mlm_loss[i], report.mlm_acc[i], report.mer_loss[i], report.mer_acc[i]
        );
    }
    println!(
        " {:>4} | {:>8.4} | {:>7.3} | {:>8.4} | {:>7.3}  (final)",
        n - 1,
        report.mlm_loss[n - 1],
        report.mlm_acc[n - 1],
        report.mer_loss[n - 1],
        report.mer_acc[n - 1]
    );

    // 3. Inspect attention weights on one table (visibility structure).
    let t = &corpus.tables[0];
    let e = TurlLinearizer.linearize(t, &t.caption, &tok, &LinearizerOptions::default());
    let input = EncoderInput::from_encoded(&e);
    let maps = model.attention_maps(&input);
    println!(
        "\nattention inspection: {} layers x {} heads, map shape {:?}",
        maps.len(),
        maps[0].len(),
        maps[0][0].shape()
    );
    // Show where the first data cell's first token attends.
    if let Some(span) = e.cell_span(0, 0) {
        let q = span.start;
        let probs = &maps[0][0];
        let mut top: Vec<(usize, f32)> =
            (0..probs.dim(1)).map(|j| (j, probs.at(&[q, j]))).collect();
        top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        println!("cell (0,0) token attends most to:");
        for (j, p) in top.iter().take(5) {
            println!(
                "  {:<14} row={} col={} p={:.3}",
                tok.vocab().token_of(e.ids()[*j]),
                e.meta()[*j].row,
                e.meta()[*j].col,
                p
            );
        }
    }
    println!("\nTake-away: both objectives improve; visibility-masked attention");
    println!("only distributes mass over structurally related tokens.");
}
