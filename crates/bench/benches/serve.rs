//! Throughput of the batched embedding service across the full
//! load × batch-size matrix, plus a cache arm.
//!
//! The matrix arms are `in-flight {1, 8} × max_batch {1, 8}`, all with
//! 4 workers and the cache disabled so every request pays a real forward
//! pass (the two knobs under test are load and coalescing, not caching):
//!
//! - `serve/inflight1_mb1` — no batching, no concurrency: the raw
//!   single-request latency floor.
//! - `serve/inflight1_mb8` — the production config with one request in
//!   flight: the batcher never lingers, so a lone request is flushed at
//!   once and this arm sits on the `inflight1_mb1` floor.
//! - `serve/inflight8_mb1` — concurrent load with batching disabled:
//!   eight flushes of one, so one replica works and three idle.
//! - `serve/inflight8_mb8` — concurrent load with coalescing: what is
//!   queued leaves in one flush over the replicas. One iter = 8 requests,
//!   so per-request cost is `ns / 8` and the parallelism ratio is
//!   `ns(inflight8_mb1) / ns(inflight8_mb8)`.
//!
//! `serve/cached` re-runs the `inflight1_mb8` shape with the content-hash
//! LRU enabled: after the first pass over the table set every request is a
//! hit, so this arm tracks the cache short-circuit path.
//!
//! Every arm is annotated with `requests_per_iter` and the service's
//! cumulative `cache_hits` / `cache_misses` counters at the end of the
//! arm, so `BENCH_serve.json` records the cache behaviour alongside the
//! timing and stays comparable across PRs.
//!
//! Run `cargo bench -p ntr-bench --bench serve -- --json BENCH_serve.json`
//! to regenerate the perf baseline CI uploads.

use criterion::{criterion_group, criterion_main, Criterion};
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::ModelConfig;
use ntr::table::{LinearizerOptions, Table};
use ntr::zoo::ModelKind;
use ntr::Pipeline;
use ntr_serve::{EmbeddingService, ServeConfig, ServeRequest};
use std::hint::black_box;

fn fixture() -> (Vec<Table>, Pipeline, ModelConfig) {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 8,
            min_rows: 4,
            max_rows: 6,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 11,
        },
    );
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(1500)
        .options(LinearizerOptions {
            max_tokens: 64,
            ..Default::default()
        })
        .build()
        .expect("vocab is non-empty");
    let cfg = ModelConfig {
        vocab_size: pipeline.tokenizer().vocab_size(),
        d_model: 32,
        n_heads: 2,
        n_layers: 1,
        d_ff: 64,
        max_seq: 64,
        dropout: 0.0,
        ..ModelConfig::default()
    };
    (corpus.tables, pipeline, cfg)
}

fn requests(tables: &[Table]) -> Vec<ServeRequest> {
    tables
        .iter()
        .enumerate()
        .map(|(i, t)| ServeRequest::new(ModelKind::Bert, t.clone(), format!("request {i}")))
        .collect()
}

fn start_service(max_batch: usize, cache_bytes: usize) -> EmbeddingService {
    let (_, pipeline, cfg) = fixture();
    EmbeddingService::start(
        pipeline,
        ServeConfig {
            max_batch,
            n_workers: 4,
            cache_bytes,
            queue_cap: 0, // unbounded: the bench drives load, never sheds
            model_config: Some(cfg),
            ..ServeConfig::default()
        },
        ntr_obs::Obs::disabled(),
    )
    .expect("spawn service")
}

/// Runs one matrix arm against a fresh service and annotates the recorded
/// measurement with the arm's request fan-out and cache counters.
fn run_arm(
    group: &mut criterion::BenchmarkGroup<'_>,
    reqs: &[ServeRequest],
    name: &str,
    in_flight: usize,
    max_batch: usize,
    cache_bytes: usize,
) {
    let service = start_service(max_batch, cache_bytes);
    let handle = service.handle();
    let mut i = 0usize;
    group.bench_function(name, |b| {
        b.iter(|| {
            if in_flight <= 1 {
                let req = reqs[i % reqs.len()].clone();
                i += 1;
                black_box(handle.submit(req).recv().unwrap().unwrap());
            } else {
                let rxs: Vec<_> = reqs
                    .iter()
                    .cycle()
                    .skip(i % reqs.len())
                    .take(in_flight)
                    .map(|r| handle.submit(r.clone()))
                    .collect();
                i += in_flight;
                for rx in rxs {
                    black_box(rx.recv().unwrap().unwrap());
                }
            }
        })
    });
    let stats = service.stats();
    group
        .annotate("requests_per_iter", in_flight)
        .annotate("cache_hits", stats.cache.hits)
        .annotate("cache_misses", stats.cache.misses);
    drop(handle);
    service.shutdown();
}

fn bench_serve(c: &mut Criterion) {
    let (tables, _, _) = fixture();
    let reqs = requests(&tables);
    let mut group = c.benchmark_group("serve");

    // The load × coalescing matrix, cache off: every request pays a real
    // forward pass.
    run_arm(&mut group, &reqs, "inflight1_mb1", 1, 1, 0);
    run_arm(&mut group, &reqs, "inflight1_mb8", 1, 8, 0);
    run_arm(&mut group, &reqs, "inflight8_mb1", 8, 1, 0);
    run_arm(&mut group, &reqs, "inflight8_mb8", 8, 8, 0);

    // Cache arm: same shape as inflight1_mb8 but with the LRU enabled; the
    // 8-table working set fits, so steady state is all hits.
    run_arm(&mut group, &reqs, "cached", 1, 8, 32 << 20);

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
