//! Checkpoint-path benchmarks: serializing/parsing an `NTRW` v2 file
//! (parameters + full training state) in memory, and the crash-safe
//! atomic save to disk.

use criterion::{criterion_group, criterion_main, Criterion};
use ntr_models::{ModelConfig, Tapas};
use ntr_nn::optim::{Adam, WarmupLinearSchedule};
use ntr_nn::serialize::{parse_checkpoint, write_checkpoint_to, TrainCheckpoint, TrainCursor};
use ntr_nn::Layer;
use std::hint::black_box;

fn train_checkpoint() -> TrainCheckpoint {
    let mut model = Tapas::new(&ModelConfig::tiny(800));
    let mut adam = Adam::new(1e-3).with_weight_decay(0.01);
    // One real optimizer step so the moments are materialized.
    model.visit_params(&mut |_, p| {
        let g = ntr_tensor::Tensor::ones(p.value.shape());
        p.grad = g;
    });
    adam.step(&mut model);
    model.zero_grad();
    let schedule = WarmupLinearSchedule {
        peak_lr: 1e-3,
        warmup: 10,
        total: 100,
    };
    let cursor = TrainCursor {
        epoch: 1,
        example: 7,
        seed: 0xF17E,
    };
    TrainCheckpoint::capture_train(&mut model, &adam, &schedule, cursor)
}

fn bench_checkpoint(c: &mut Criterion) {
    let ckpt = train_checkpoint();
    let mut bytes = Vec::new();
    write_checkpoint_to(&ckpt, &mut bytes).unwrap();

    c.bench_function("checkpoint_write", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(bytes.len());
            write_checkpoint_to(black_box(&ckpt), &mut buf).unwrap();
            black_box(buf)
        })
    });

    c.bench_function("checkpoint_parse", |b| {
        b.iter(|| black_box(parse_checkpoint(black_box(&bytes)).unwrap()))
    });

    let dir = std::env::temp_dir().join("ntr_bench_checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.ntrw");
    c.bench_function("checkpoint_atomic_save", |b| {
        b.iter(|| ntr_nn::serialize::save_checkpoint(black_box(&ckpt), &path).unwrap())
    });
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
