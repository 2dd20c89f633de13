//! Table QA demo — the paper's §2.1 live demo (HuggingFace TAPAS) as a
//! local program: fine-tune a TAPAS-style cell selector and answer
//! natural-language questions over a table, like the Fig. 1 example
//! ("question about France population" → highlighted cell).
//!
//! Run with: `cargo run --release --example qa_demo`

use ntr::corpus::datasets::QaDataset;
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{Split, World, WorldConfig};
use ntr::models::{EncoderInput, ModelConfig, SequenceEncoder, Tapas};
use ntr::table::LinearizerOptions;
use ntr::tasks::qa::{
    baseline_lexical, encode_qa, evaluate, finetune, snapshot_dataset, CellSelector,
};
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

fn main() {
    // 1. Dataset of (table, question, answer-cell) triples.
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 120,
            min_rows: 4,
            max_rows: 6,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 31,
        },
    );
    // Input processing (the paper's "data retrieval and filtering"):
    // TaBERT-style content snapshots keep the 2 rows most relevant to the
    // question. Without this step, a from-scratch model at this scale only
    // memorizes training questions (we measured ~0.03 test accuracy).
    let ds = snapshot_dataset(&QaDataset::build(&corpus, 6, 32), 2);
    let extra: Vec<String> = ds.examples.iter().map(|e| e.question.clone()).collect();
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &extra, 2200);
    println!(
        "QA dataset: {} questions ({} train / {} test)",
        ds.examples.len(),
        ds.indices(Split::Train).len(),
        ds.indices(Split::Test).len()
    );

    // 2. Fine-tune the TAPAS-style selector.
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        ..ModelConfig::default()
    };
    let opts = LinearizerOptions {
        max_tokens: 192,
        ..Default::default()
    };
    // Pretrain the encoder with MLM first — the paper's pipeline (1) —
    // then fine-tune the cell-selection head — pipeline (2).
    let mut encoder = Tapas::new(&cfg);
    println!("pretraining encoder (MLM)...");
    TrainRun::new(TrainConfig {
        epochs: 10,
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 30,
    })
    .max_tokens(192)
    .mlm(&mut encoder, &corpus, &tok)
    .expect("infallible: no checkpointing configured");
    let mut model = CellSelector::new(encoder, 33);
    println!("fine-tuning cell selection...");
    finetune(
        &mut model,
        &ds,
        &tok,
        &TrainConfig {
            epochs: 15,
            lr: 1e-3,
            batch_size: 8,
            warmup_frac: 0.1,
            seed: 34,
        },
        &opts,
    );

    // 3. Evaluate vs. the lexical baseline.
    let neural = evaluate(&mut model, &ds, Split::Test, &tok, &opts);
    let lexical = baseline_lexical(&ds, Split::Test);
    println!("\n                | coord acc | denotation acc");
    println!(
        "  tapas (tuned) |   {:.3}   |     {:.3}",
        neural.coord_accuracy, neural.denotation_accuracy
    );
    println!(
        "  lexical match |   {:.3}   |     {:.3}",
        lexical.coord_accuracy, lexical.denotation_accuracy
    );

    // 4. Interactive-style demo on a few test questions.
    println!("\ndemo answers:");
    for &i in ds.indices(Split::Test).iter().take(5) {
        let ex = &ds.examples[i];
        let encoded = encode_qa(ex, &tok, &opts);
        let input = EncoderInput::from_encoded(&encoded);
        let states = model.encoder.encode(&input, false);
        let scores = model.head_forward(&states);
        let mut best: Option<((usize, usize), f32)> = None;
        for (coord, span) in encoded.cells() {
            let s = span.clone().map(|p| scores.at(&[p, 0])).sum::<f32>() / span.len() as f32;
            if best.is_none() || s > best.expect("set").1 {
                best = Some((coord, s));
            }
        }
        let (coord, _) = best.expect("cells exist");
        let predicted = ex.table.cell(coord.0, coord.1).text();
        let mark = if predicted == ex.answer_text {
            "OK "
        } else {
            "MISS"
        };
        println!(
            "  [{mark}] Q: {:<46} A: {predicted:<14} (gold: {})",
            ex.question, ex.answer_text
        );
    }
}
