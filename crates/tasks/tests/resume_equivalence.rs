//! The headline checkpointing guarantee, end to end: training 2N steps
//! straight versus training N steps, "crashing", and resuming for N more
//! must produce **bit-identical** parameters, optimizer moments, and loss
//! traces — for TURL pretraining and imputation fine-tuning, with dropout
//! active so the checkpointed RNG streams are load-bearing.
//!
//! These tests are run under `NTR_THREADS=1` and `NTR_THREADS=4` in CI; the
//! guarantee must hold regardless of the thread count.

use ntr_corpus::datasets::ImputationDataset;
use ntr_corpus::tables::{CorpusConfig, TableCorpus};
use ntr_corpus::{World, WorldConfig};
use ntr_models::{ModelConfig, Tapas, Turl, VanillaBert};
use ntr_nn::serialize::TrainCheckpoint;
use ntr_nn::Layer;
use ntr_tasks::imputation::finetune_supervised;
use ntr_tasks::supervisor::SupervisorConfig;
use ntr_tasks::trainer::{TrainConfig, TrainerOptions};
use ntr_tasks::TrainRun;
use ntr_tensor::par;
use ntr_tokenizer::WordPieceTokenizer;
use std::path::PathBuf;

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
            n_tables: 8,
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

fn ckpt_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ntr_resume_equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Bit patterns of every parameter, keyed by name.
fn param_bits(model: &mut dyn Layer) -> Vec<(String, Vec<u32>)> {
    TrainCheckpoint::capture(model)
        .params
        .into_iter()
        .map(|(n, t)| (n, t.data().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn turl_pretraining_resume_is_bit_identical() {
    let (w, corpus, tok) = small_world();
    let mcfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: w.n_entities(),
        dropout: 0.1, // dropout ON: the RNG streams must survive the resume
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let tcfg = TrainConfig {
        epochs: 2,
        lr: 3e-3,
        batch_size: 4,
        warmup_frac: 0.1,
        seed: 42,
    };
    let path = ckpt_path("turl.ntrw");

    // Reference: one uninterrupted run.
    let mut straight = Turl::new(&mcfg);
    let full = TrainRun::new(tcfg)
        .max_tokens(64)
        .trainer(&TrainerOptions::default())
        .turl(&mut straight, &corpus, &tok)
        .unwrap();
    assert!(full.mlm_loss.len() >= 4, "need ≥4 steps to halt mid-run");
    let halt_at = (full.mlm_loss.len() / 2) as u64;

    // "Crashed" run: checkpoint every step, stop halfway.
    let mut crashed = Turl::new(&mcfg);
    let head = TrainRun::new(tcfg)
        .max_tokens(64)
        .trainer(&TrainerOptions {
            checkpoint: Some((path.clone(), 1)),
            resume: None,
            halt_after: Some(halt_at),
            obs: Default::default(),
        })
        .turl(&mut crashed, &corpus, &tok)
        .unwrap();
    assert_eq!(head.mlm_loss.len() as u64, halt_at);

    // Resume into a *differently initialized* model: every weight, moment,
    // and RNG stream must come from the checkpoint, not the constructor.
    let mut resumed = Turl::new(&ModelConfig {
        seed: 0xDEAD,
        ..mcfg
    });
    let tail = TrainRun::new(tcfg)
        .max_tokens(64)
        .trainer(&TrainerOptions {
            checkpoint: None,
            resume: Some(path.clone()),
            halt_after: None,
            obs: Default::default(),
        })
        .turl(&mut resumed, &corpus, &tok)
        .unwrap();

    // Loss traces: head ++ tail == full, bit for bit, on both objectives.
    let stitched_mlm: Vec<u32> = bits(&head.mlm_loss)
        .into_iter()
        .chain(bits(&tail.mlm_loss))
        .collect();
    assert_eq!(stitched_mlm, bits(&full.mlm_loss), "MLM loss trace differs");
    let stitched_mer: Vec<u32> = bits(&head.mer_loss)
        .into_iter()
        .chain(bits(&tail.mer_loss))
        .collect();
    assert_eq!(stitched_mer, bits(&full.mer_loss), "MER loss trace differs");

    // Final parameters bit-identical.
    assert_eq!(
        param_bits(&mut straight),
        param_bits(&mut resumed),
        "final parameters differ after resume"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn imputation_finetune_resume_is_bit_identical() {
    let (_, corpus, tok) = small_world();
    let ds = ImputationDataset::build(&corpus, 2, 4);
    let mcfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        dropout: 0.1,
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let tcfg = TrainConfig {
        epochs: 2,
        lr: 3e-3,
        batch_size: 4,
        warmup_frac: 0.1,
        seed: 9,
    };
    let path = ckpt_path("imputation.ntrw");

    let mut straight = VanillaBert::new(&mcfg);
    let full = finetune_supervised(
        &mut straight,
        &ds,
        &tok,
        &tcfg,
        96,
        &TrainerOptions::default(),
        &SupervisorConfig::default(),
    )
    .unwrap();
    assert!(full.len() >= 4, "need ≥4 steps to halt mid-run");
    let halt_at = (full.len() / 2) as u64;

    let mut crashed = VanillaBert::new(&mcfg);
    let head = finetune_supervised(
        &mut crashed,
        &ds,
        &tok,
        &tcfg,
        96,
        &TrainerOptions {
            checkpoint: Some((path.clone(), 1)),
            resume: None,
            halt_after: Some(halt_at),
            obs: Default::default(),
        },
        &SupervisorConfig::default(),
    )
    .unwrap();

    let mut resumed = VanillaBert::new(&ModelConfig {
        seed: 0xDEAD,
        ..mcfg
    });
    let tail = finetune_supervised(
        &mut resumed,
        &ds,
        &tok,
        &tcfg,
        96,
        &TrainerOptions {
            checkpoint: None,
            resume: Some(path.clone()),
            halt_after: None,
            obs: Default::default(),
        },
        &SupervisorConfig::default(),
    )
    .unwrap();

    let stitched: Vec<u32> = bits(&head).into_iter().chain(bits(&tail)).collect();
    assert_eq!(stitched, bits(&full), "fine-tuning loss trace differs");
    assert_eq!(
        param_bits(&mut straight),
        param_bits(&mut resumed),
        "final parameters differ after resume"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mlm_resume_with_dropout_on_two_threads_retraces_the_single_thread_run() {
    // A batch's examples train on per-worker replicas, each on dropout
    // streams derived from the master's: the checkpointed master streams
    // still determine the run, whatever the pool size.
    let (_, corpus, tok) = small_world();
    let mcfg = ModelConfig {
        dropout: 0.1,
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let tcfg = TrainConfig {
        epochs: 2,
        lr: 3e-3,
        batch_size: 4,
        warmup_frac: 0.1,
        seed: 11,
    };
    let path = ckpt_path("mlm_two_threads.ntrw");
    let run = |model: &mut Tapas, topts: TrainerOptions| {
        TrainRun::new(tcfg)
            .max_tokens(64)
            .trainer(&topts)
            .mlm(model, &corpus, &tok)
            .unwrap()
            .mlm_loss
    };

    let mut single = Tapas::new(&mcfg);
    let full = par::with_threads(1, || run(&mut single, TrainerOptions::default()));
    assert!(full.len() >= 4, "need ≥4 steps to halt mid-run");
    let halt_at = (full.len() / 2) as u64;
    let (stitched, mut resumed) = par::with_threads(2, || {
        let head = run(
            &mut Tapas::new(&mcfg),
            TrainerOptions {
                checkpoint: Some((path.clone(), 1)),
                halt_after: Some(halt_at),
                ..Default::default()
            },
        );
        let mut resumed = Tapas::new(&ModelConfig {
            seed: 0xDEAD,
            ..mcfg
        });
        let tail = run(
            &mut resumed,
            TrainerOptions {
                resume: Some(path.clone()),
                ..Default::default()
            },
        );
        let stitched: Vec<u32> = bits(&head).into_iter().chain(bits(&tail)).collect();
        (stitched, resumed)
    });
    assert_eq!(stitched, bits(&full), "MLM loss trace differs");
    assert_eq!(
        param_bits(&mut single),
        param_bits(&mut resumed),
        "final parameters differ after resume"
    );
    let _ = std::fs::remove_file(&path);
}
