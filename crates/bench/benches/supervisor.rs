//! Overhead of the self-healing training supervisor on a healthy run.
//!
//! Three arms over an identical short MLM pretraining run:
//!
//! - `baseline`  — `TrainRun::mlm` with no supervisor configured.
//! - `disabled`  — the same run with `.supervisor(&SupervisorConfig::default())`
//!   (every feature off; must be the literal baseline loop).
//! - `armed`     — clipping + rollback + spike detection on, but no faults,
//!   so the supervisor does its per-step anomaly checks and snapshot
//!   captures without ever triggering.
//! - `armed_cadence8` — same, but rollback snapshots are captured every 8th
//!   good step (`snapshot_every: 8`) instead of after every step; measures
//!   the win from the cadence-snapshot fix.
//! - `armed_traced` — `armed` plus live JSONL tracing and a metrics
//!   registry; measures full observability overhead.
//!
//! Targets: `disabled` within noise of `baseline`, `armed` < 2% over it,
//! `armed_traced` ≤ 5% over `armed`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::vocab::train_tokenizer;
use ntr::corpus::{World, WorldConfig};
use ntr::models::{ModelConfig, VanillaBert};
use ntr::table::RowMajorLinearizer;
use ntr::tasks::supervisor::SupervisorConfig;
use ntr::tasks::trainer::TrainerOptions;
use ntr::tasks::TrainConfig;
use ntr::tasks::TrainRun;
use std::hint::black_box;

fn bench_supervisor(c: &mut Criterion) {
    let world = World::generate(WorldConfig {
        n_countries: 8,
        n_people: 10,
        n_films: 8,
        n_clubs: 6,
        seed: 5,
    });
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 6,
            min_rows: 3,
            max_rows: 5,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 6,
        },
    );
    let tok = train_tokenizer(&corpus, &[], 1200);
    let mcfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let cfg = TrainConfig {
        epochs: 2,
        lr: 3e-3,
        batch_size: 4,
        warmup_frac: 0.1,
        seed: 11,
    };
    let topts = TrainerOptions::default();
    let armed = SupervisorConfig {
        clip_norm: Some(1.0),
        rollback: true,
        max_retries: 3,
        spike_factor: 4.0,
        ema_alpha: 0.1,
        lr_backoff: 0.5,
        snapshot_every: 1,
        faults: None,
    };
    let armed_cadence8 = SupervisorConfig {
        snapshot_every: 8,
        ..armed.clone()
    };
    let obs_dir = std::env::temp_dir().join("ntr_bench_supervisor");
    std::fs::create_dir_all(&obs_dir).unwrap();
    let traced_topts = TrainerOptions {
        obs: ntr::obs::ObsOptions {
            trace: Some(obs_dir.join("bench_trace.jsonl")),
            metrics: Some(obs_dir.join("bench_metrics.json")),
        },
        ..Default::default()
    };

    let mut group = c.benchmark_group("supervised_mlm_run");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("baseline"), &(), |b, _| {
        b.iter(|| {
            let mut model = VanillaBert::new(&mcfg);
            black_box(
                TrainRun::new(cfg)
                    .max_tokens(64)
                    .linearizer(&RowMajorLinearizer)
                    .trainer(&topts)
                    .mlm(&mut model, &corpus, &tok)
                    .unwrap(),
            )
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("disabled"), &(), |b, _| {
        b.iter(|| {
            let mut model = VanillaBert::new(&mcfg);
            black_box(
                TrainRun::new(cfg)
                    .max_tokens(64)
                    .linearizer(&RowMajorLinearizer)
                    .trainer(&topts)
                    .supervisor(&SupervisorConfig::default())
                    .mlm(&mut model, &corpus, &tok)
                    .unwrap(),
            )
        })
    });
    group.bench_with_input(BenchmarkId::from_parameter("armed"), &(), |b, _| {
        b.iter(|| {
            let mut model = VanillaBert::new(&mcfg);
            black_box(
                TrainRun::new(cfg)
                    .max_tokens(64)
                    .linearizer(&RowMajorLinearizer)
                    .trainer(&topts)
                    .supervisor(&armed)
                    .mlm(&mut model, &corpus, &tok)
                    .unwrap(),
            )
        })
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("armed_cadence8"),
        &(),
        |b, _| {
            b.iter(|| {
                let mut model = VanillaBert::new(&mcfg);
                black_box(
                    TrainRun::new(cfg)
                        .max_tokens(64)
                        .linearizer(&RowMajorLinearizer)
                        .trainer(&topts)
                        .supervisor(&armed_cadence8)
                        .mlm(&mut model, &corpus, &tok)
                        .unwrap(),
                )
            })
        },
    );
    group.bench_with_input(BenchmarkId::from_parameter("armed_traced"), &(), |b, _| {
        b.iter(|| {
            let mut model = VanillaBert::new(&mcfg);
            black_box(
                TrainRun::new(cfg)
                    .max_tokens(64)
                    .linearizer(&RowMajorLinearizer)
                    .trainer(&traced_topts)
                    .supervisor(&armed)
                    .mlm(&mut model, &corpus, &tok)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_supervisor);
criterion_main!(benches);
