//! Data imputation — the paper's hands-on §3.4 ("Fine-tuning and
//! Analysis"): **pretrain** on a table corpus, **fine-tune** for cell
//! population, evaluate with F1/accuracy on a hold-out set, compare against
//! the mode baseline, and zoom in on the failure slices the paper
//! discusses (numeric tables, headerless tables).
//!
//! Run with: `cargo run --release --example imputation`

use ntr::corpus::datasets::ImputationDataset;
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{Split, World, WorldConfig};
use ntr::models::{ModelConfig, VanillaBert};
use ntr::tasks::imputation::{baseline_mode, evaluate, finetune, CandidatePools};
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;

fn main() {
    // 1. Corpus: entity tables plus GitTables-style typed tables, with a
    //    slice of headerless tables (the §3.4 failure case). World facts
    //    are consistent across tables, so pretraining can learn them.
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 60,
            min_rows: 4,
            max_rows: 7,
            null_prob: 0.0,
            headerless_prob: 0.15,
            seed: 21,
        },
    );
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 2000);
    let ds = ImputationDataset::build(&corpus, 3, 22);
    let pools = CandidatePools::build(&ds, Split::Train);
    println!(
        "imputation dataset: {} examples ({} train / {} test)",
        ds.examples.len(),
        ds.indices(Split::Train).len(),
        ds.indices(Split::Test).len()
    );

    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        ..ModelConfig::default()
    };
    let mut model = VanillaBert::new(&cfg);
    let untrained = evaluate(&model, &ds, Split::Test, &pools, &tok, 192);

    // 2. Pretrain with MLM over the corpus (the paper's pipeline (1)).
    println!("pretraining (MLM over the corpus)...");
    let report = TrainRun::new(TrainConfig {
        epochs: 40,
        lr: 3e-3,
        batch_size: 8,
        warmup_frac: 0.1,
        seed: 7,
    })
    .max_tokens(192)
    .mlm(&mut model, &corpus, &tok)
    .expect("infallible: no checkpointing configured");
    println!(
        "  mlm loss {:.3} -> {:.3}",
        report.mlm_loss.first().copied().unwrap_or(0.0),
        report.mlm_loss.last().copied().unwrap_or(0.0)
    );
    let pretrained = evaluate(&model, &ds, Split::Test, &pools, &tok, 192);

    // 3. Fine-tune for imputation (the paper's pipeline (2)). With ~100
    //    training cells a small model overfits within a couple of epochs,
    //    so we select the epoch count on the validation split.
    println!(
        "fine-tuning ({} train examples)...",
        ds.indices(Split::Train).len()
    );
    let mut checkpoint = Vec::new();
    ntr::nn::serialize::save_to(&mut model, &mut checkpoint).expect("in-memory save");
    let mut best: Option<(f64, usize, Vec<u8>)> = None;
    for epochs in [1usize, 2, 3] {
        let mut candidate = VanillaBert::new(&cfg);
        ntr::nn::serialize::load_from(&mut candidate, &mut checkpoint.as_slice())
            .expect("in-memory load");
        finetune(
            &mut candidate,
            &ds,
            &tok,
            &TrainConfig {
                epochs,
                lr: 3e-4,
                batch_size: 8,
                warmup_frac: 0.1,
                seed: 23,
            },
            192,
        );
        let val = evaluate(&candidate, &ds, Split::Val, &pools, &tok, 192);
        println!("  epochs={epochs}: val acc {:.3}", val.accuracy);
        if best.as_ref().is_none_or(|(b, _, _)| val.accuracy > *b) {
            let mut buf = Vec::new();
            ntr::nn::serialize::save_to(&mut candidate, &mut buf).expect("save");
            best = Some((val.accuracy, epochs, buf));
        }
    }
    let (_, best_epochs, weights) = best.expect("grid is non-empty");
    println!("  selected epochs={best_epochs}");
    ntr::nn::serialize::load_from(&mut model, &mut weights.as_slice()).expect("load");
    let tuned = evaluate(&model, &ds, Split::Test, &pools, &tok, 192);
    let baseline = baseline_mode(&ds, Split::Test, &pools);

    println!("\n                     |  acc  |  f1");
    println!(
        "  untrained          | {:.3} | {:.3}",
        untrained.accuracy, untrained.macro_f1
    );
    println!(
        "  pretrained only    | {:.3} | {:.3}",
        pretrained.accuracy, pretrained.macro_f1
    );
    println!(
        "  pretrained + tuned | {:.3} | {:.3}",
        tuned.accuracy, tuned.macro_f1
    );
    println!(
        "  mode baseline      | {:.3} | {:.3}",
        baseline.accuracy, baseline.macro_f1
    );

    // 4. Failure-case analysis (§3.4's closing discussion).
    println!("\nfailure slices (fine-tuned model):");
    println!("  text tables       : acc {:.3}", tuned.text_accuracy);
    println!(
        "  numeric tables    : acc {:.3}   <- numbers are hard for LMs",
        tuned.numeric_accuracy
    );
    println!("  headered tables   : acc {:.3}", tuned.headered_accuracy);
    println!(
        "  headerless tables : acc {:.3}   <- headers carry signal",
        tuned.headerless_accuracy
    );
}
