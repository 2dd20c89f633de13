//! E3's timing companion: cost of one MLM training step (the forward's last
//! layer, the head and loss on the masked rows, backward) per model family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::{EncoderInput, Mate, ModelConfig, Rows, Tapas, Turl, VanillaBert};
use ntr::nn::loss::softmax_cross_entropy;
use ntr::nn::Cx;
use ntr::table::masking::{mask_mlm, MlmConfig};
use ntr::table::{Linearizer, LinearizerOptions, RowMajorLinearizer};
use ntr::tasks::pretrain::MlmModel;
use std::hint::black_box;

fn step<M: MlmModel>(
    model: &M,
    cx: &mut Cx,
    input: &EncoderInput,
    rows: &[usize],
    targets: &[usize],
) -> f32 {
    let (states, tape) = model.encode_train(input, Rows::Only(rows), cx);
    let (logits, head) = model.mlm_head().forward_train(&states);
    let (loss, dlogits) = softmax_cross_entropy(&logits, targets, None);
    let dstates = model.mlm_head().backward(head, &dlogits, cx);
    model.backward(tape, &dstates, cx);
    cx.grads.zero();
    loss
}

fn bench_step(c: &mut Criterion) {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 2,
            min_rows: 6,
            max_rows: 6,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 3,
        },
    );
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 1500);
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: world.n_entities(),
        ..ModelConfig::default()
    };
    let t = &corpus.tables[0];
    let e = RowMajorLinearizer.linearize(t, &t.caption, &tok, &LinearizerOptions::default());
    let masked = mask_mlm(&e, &MlmConfig::bert(tok.vocab_size()), 1);
    let input = EncoderInput::from_masked(&e, &masked);
    let (rows, targets) = masked.positions();

    let mut group = c.benchmark_group("mlm_train_step");
    group.sample_size(20);
    let mut bert = VanillaBert::new(&cfg);
    group.bench_with_input(BenchmarkId::from_parameter("bert"), &(), |b, _| {
        let mut cx = Cx::new(&mut bert);
        b.iter(|| black_box(step(&bert, &mut cx, &input, &rows, &targets)))
    });
    let mut tapas = Tapas::new(&cfg);
    group.bench_with_input(BenchmarkId::from_parameter("tapas"), &(), |b, _| {
        let mut cx = Cx::new(&mut tapas);
        b.iter(|| black_box(step(&tapas, &mut cx, &input, &rows, &targets)))
    });
    let mut turl = Turl::new(&cfg);
    group.bench_with_input(BenchmarkId::from_parameter("turl"), &(), |b, _| {
        let mut cx = Cx::new(&mut turl);
        b.iter(|| black_box(step(&turl, &mut cx, &input, &rows, &targets)))
    });
    let mut mate = Mate::new(&cfg);
    group.bench_with_input(BenchmarkId::from_parameter("mate"), &(), |b, _| {
        let mut cx = Cx::new(&mut mate);
        b.iter(|| black_box(step(&mate, &mut cx, &input, &rows, &targets)))
    });
    group.finish();
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
