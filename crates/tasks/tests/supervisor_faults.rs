//! Fault drills for the self-healing supervisor: every injected fault
//! class — NaN gradients, a panicking pool worker, a simulated hard kill,
//! a corrupted checkpoint — must end in either a finite, complete training
//! run (`Ok`) or a typed [`TrainError`] after the retry budget, and
//! **never** a panic or abort. Runs under `NTR_THREADS={1,4}` ×
//! `NTR_FAULTS` on/off in CI.

use ntr_corpus::tables::{CorpusConfig, TableCorpus};
use ntr_corpus::{World, WorldConfig};
use ntr_models::{ModelConfig, VanillaBert};
use ntr_nn::init::SeededInit;
use ntr_nn::serialize::load_checkpoint;
use ntr_nn::Linear;
use ntr_table::RowMajorLinearizer;
use ntr_tasks::supervisor::{run_supervised, SupervisorConfig, TrainError};
use ntr_tasks::trainer::{TrainConfig, TrainerOptions};
use ntr_tasks::TrainRun;
use ntr_tensor::faults::FaultPlan;
use ntr_tensor::par;
use ntr_tokenizer::WordPieceTokenizer;
use std::path::PathBuf;

fn small_world() -> (TableCorpus, WordPieceTokenizer) {
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
    (corpus, tok)
}

fn tiny_model(tok: &WordPieceTokenizer) -> VanillaBert {
    VanillaBert::new(&ModelConfig {
        vocab_size: tok.vocab_size(),
        ..ModelConfig::tiny(tok.vocab_size())
    })
}

fn drill_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        lr: 3e-3,
        batch_size: 4,
        warmup_frac: 0.1,
        seed: 11,
    }
}

/// Rollback-enabled supervisor with the given fault plan and no clipping
/// (anomalies are detected through the unclipped global gradient norm).
fn healing(plan: &str, max_retries: u32) -> SupervisorConfig {
    SupervisorConfig {
        clip_norm: None,
        rollback: true,
        max_retries,
        spike_factor: 0.0, // drills target injected faults, not EMA noise
        ema_alpha: 0.1,
        lr_backoff: 0.5,
        snapshot_every: 1,
        faults: Some(FaultPlan::parse(plan).unwrap()),
    }
}

fn ckpt_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ntr_supervisor_faults");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn nan_fault_rolls_back_and_skips_the_poisoned_batch() {
    let (corpus, tok) = small_world();
    let mut baseline = tiny_model(&tok);
    let reference = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions::default())
        .mlm(&mut baseline, &corpus, &tok)
        .unwrap();
    assert!(reference.mlm_loss.len() >= 4);

    let mut model = tiny_model(&tok);
    let report = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions::default())
        .supervisor(&healing("nan@2", 3))
        .mlm(&mut model, &corpus, &tok)
        .unwrap();

    // One batch window was skipped; every surviving loss is finite, and the
    // pre-fault prefix is bit-identical to the unsupervised baseline.
    assert_eq!(report.mlm_loss.len(), reference.mlm_loss.len() - 1);
    assert!(report.mlm_loss.iter().all(|l| l.is_finite()));
    assert_eq!(
        bits(&report.mlm_loss[..2]),
        bits(&reference.mlm_loss[..2]),
        "healthy steps before the fault must match the baseline"
    );
}

#[test]
fn worker_panic_fault_recovers_under_four_threads() {
    let (corpus, tok) = small_world();
    for threads in [1usize, 4] {
        par::with_threads(threads, || {
            let mut model = tiny_model(&tok);
            let report = TrainRun::new(drill_cfg())
                .max_tokens(48)
                .linearizer(&RowMajorLinearizer)
                .trainer(&TrainerOptions::default())
                .supervisor(&healing("panic@1", 3))
                .mlm(&mut model, &corpus, &tok)
                .unwrap();
            assert!(
                report.mlm_loss.iter().all(|l| l.is_finite()),
                "threads={threads}"
            );
            assert!(!report.mlm_loss.is_empty(), "threads={threads}");
        });
    }
}

#[test]
fn crash_fault_resumes_from_disk_and_stays_bit_identical() {
    let (corpus, tok) = small_world();
    let mut baseline = tiny_model(&tok);
    let reference = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions::default())
        .mlm(&mut baseline, &corpus, &tok)
        .unwrap();

    // Checkpoint every step: the simulated kill at step 3 restores the
    // exact pre-kill state, so the full loss trace matches the
    // uninterrupted run bit for bit.
    let path = ckpt_path("crash_drill.ntrw");
    let mut model = tiny_model(&tok);
    let report = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions {
            checkpoint: Some((path.clone(), 1)),
            resume: None,
            halt_after: None,
            obs: Default::default(),
        })
        .supervisor(&healing("crash@3", 0))
        .mlm(&mut model, &corpus, &tok)
        .unwrap();
    assert_eq!(bits(&report.mlm_loss), bits(&reference.mlm_loss));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_ckpt_fault_leaves_a_detectably_broken_file() {
    let (corpus, tok) = small_world();
    let path = ckpt_path("corrupt_drill.ntrw");
    let mut model = tiny_model(&tok);
    TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions {
            checkpoint: Some((path.clone(), 2)),
            resume: None,
            halt_after: Some(2),
            obs: Default::default(),
        })
        .supervisor(&healing("corrupt-ckpt@2", 0))
        .mlm(&mut model, &corpus, &tok)
        .unwrap();
    // The checkpoint written at step 2 was bit-flipped; the CRC-checked
    // loader must reject it with a typed error, not garbage weights.
    assert!(path.exists());
    assert!(load_checkpoint(&path).is_err());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_with_corrupt_checkpoint_falls_back_to_initial_state() {
    let (corpus, tok) = small_world();
    let mut baseline = tiny_model(&tok);
    let reference = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions::default())
        .mlm(&mut baseline, &corpus, &tok)
        .unwrap();
    assert!(reference.mlm_loss.len() >= 6);

    // The step-3 checkpoint is corrupted, then the kill hits at step 4
    // (before step 6 would write a fresh one). Recovery falls back to the
    // initial state and deterministically replays, so the final trace is
    // still bit-identical to the uninterrupted run.
    let path = ckpt_path("corrupt_crash_drill.ntrw");
    let mut model = tiny_model(&tok);
    let report = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions {
            checkpoint: Some((path.clone(), 3)),
            resume: None,
            halt_after: None,
            obs: Default::default(),
        })
        .supervisor(&healing("corrupt-ckpt@3,crash@4", 0))
        .mlm(&mut model, &corpus, &tok)
        .unwrap();
    assert_eq!(bits(&report.mlm_loss), bits(&reference.mlm_loss));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exhausted_retries_abort_with_a_typed_error() {
    let (corpus, tok) = small_world();
    let mut model = tiny_model(&tok);
    // Four NaN faults all due from step 1 on; two retries allowed. The
    // third anomaly must abort with RetriesExhausted — not a panic.
    let err = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions::default())
        .supervisor(&healing("nan@1,nan@1,nan@1,nan@1", 2))
        .mlm(&mut model, &corpus, &tok)
        .unwrap_err();
    match err {
        TrainError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 2),
        other => panic!("expected RetriesExhausted, got: {other}"),
    }
}

#[test]
fn anomaly_without_rollback_is_a_typed_error() {
    let (corpus, tok) = small_world();
    let mut model = tiny_model(&tok);
    let err = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions::default())
        .supervisor(&SupervisorConfig {
            clip_norm: Some(1.0),
            rollback: false,
            faults: Some(FaultPlan::parse("nan@0").unwrap()),
            ..SupervisorConfig::default()
        })
        .mlm(&mut model, &corpus, &tok)
        .unwrap_err();
    match err {
        TrainError::Anomaly { step, ref anomaly } => {
            assert_eq!(step, 0);
            assert!(anomaly.contains("gradient norm"), "{anomaly}");
        }
        other => panic!("expected Anomaly, got: {other}"),
    }
}

#[test]
fn loss_spike_is_rolled_back_and_skipped() {
    // Synthetic driver: a scripted loss of 50.0 at batch (epoch 0, pos 2)
    // against a baseline of 1.0 must trip the 4× EMA detector; the window
    // is skipped and every surviving loss is the baseline.
    let mut model = Linear::new(2, 2, &mut SeededInit::new(7));
    let cfg = TrainConfig {
        epochs: 2,
        lr: 1e-3,
        batch_size: 2,
        warmup_frac: 0.0,
        seed: 3,
    };
    let scfg = SupervisorConfig {
        rollback: true,
        max_retries: 3,
        spike_factor: 4.0,
        ema_alpha: 0.1,
        lr_backoff: 0.5,
        ..SupervisorConfig::default()
    };
    let out = run_supervised(
        &mut model,
        &cfg,
        8,
        &TrainerOptions::default(),
        &scfg,
        |l: &f32| *l,
        |_, _| (),
        |_, batch, _obs| {
            if batch[0].epoch == 0 && batch[0].pos == 2 {
                50.0
            } else {
                1.0
            }
        },
    )
    .unwrap();
    assert_eq!(out.len(), 7, "one of 8 batch windows is skipped");
    assert!(out.iter().all(|&l| l == 1.0));
}

#[test]
fn env_fault_plan_drill_survives_any_schedule() {
    // The CI fault-matrix leg sets NTR_FAULTS; locally the drill uses a
    // default schedule. Whatever the plan says, a rollback-enabled run
    // with checkpointing must end Ok with finite losses.
    let plan = match FaultPlan::from_env() {
        Ok(Some(p)) => p,
        Ok(None) => FaultPlan::parse("nan@1,crash@3,panic@4").unwrap(),
        Err(e) => panic!("malformed NTR_FAULTS: {e}"),
    };
    let (corpus, tok) = small_world();
    let path = ckpt_path("env_drill.ntrw");
    let mut model = tiny_model(&tok);
    let scfg = SupervisorConfig {
        faults: Some(plan),
        ..SupervisorConfig::resilient()
    };
    let report = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions {
            checkpoint: Some((path.clone(), 2)),
            resume: None,
            halt_after: None,
            obs: Default::default(),
        })
        .supervisor(&scfg)
        .mlm(&mut model, &corpus, &tok)
        .unwrap();
    assert!(!report.mlm_loss.is_empty());
    assert!(report.mlm_loss.iter().all(|l| l.is_finite()));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disabled_supervisor_is_bit_identical_to_resumable() {
    let (corpus, tok) = small_world();
    let mut a = tiny_model(&tok);
    let ra = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions::default())
        .mlm(&mut a, &corpus, &tok)
        .unwrap();
    let mut b = tiny_model(&tok);
    let rb = TrainRun::new(drill_cfg())
        .max_tokens(48)
        .linearizer(&RowMajorLinearizer)
        .trainer(&TrainerOptions::default())
        .supervisor(&SupervisorConfig::default())
        .mlm(&mut b, &corpus, &tok)
        .unwrap();
    assert_eq!(bits(&ra.mlm_loss), bits(&rb.mlm_loss));
    assert_eq!(bits(&ra.mlm_acc), bits(&rb.mlm_acc));
}
