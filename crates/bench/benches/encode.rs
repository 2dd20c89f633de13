//! E1's timing companion: single-table encode latency per model family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::{EncoderInput, ModelConfig, TaBert};
use ntr::table::{Linearizer, LinearizerOptions, RowMajorLinearizer};
use ntr::zoo::{build_encoder, EncoderSpec, ModelKind};
use std::hint::black_box;

fn bench_encode(c: &mut Criterion) {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 4,
            min_rows: 6,
            max_rows: 6,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 2,
        },
    );
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 1500);
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: world.n_entities(),
        ..ModelConfig::default()
    };
    let table = &corpus.tables[0];
    let encoded =
        RowMajorLinearizer.linearize(table, &table.caption, &tok, &LinearizerOptions::default());
    let input = EncoderInput::from_encoded(&encoded);

    let mut group = c.benchmark_group("encode");
    for kind in ModelKind::ALL {
        let model = build_encoder(EncoderSpec::f32(kind), &cfg).expect("f32 spec");
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &input,
            |b, inp| b.iter(|| black_box(model.encode(inp, false))),
        );
    }
    let tabert = TaBert::new(&cfg);
    group.bench_function("tabert", |b| {
        b.iter(|| black_box(tabert.encode_table(table, &table.caption, &tok)))
    });
    group.finish();
}

criterion_group!(benches, bench_encode);
criterion_main!(benches);
