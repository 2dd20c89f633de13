//! The bit-identity contract of the serving stack, checked three ways:
//!
//! 1. `Pipeline::encode_batch` output must equal the table-level row of
//!    per-request `Pipeline::encode` output bit-for-bit (property-tested
//!    over random table shapes and batch compositions);
//! 2. the full [`EmbeddingService`] — micro-batcher, length bucketing,
//!    worker replicas — must also reproduce that row of sequential `encode`
//!    exactly, at every batch size and worker count, and hold nothing else;
//! 3. the cache must answer duplicate content with the *same* encoding
//!    (same `Arc`, same bits) and count hits/misses/evictions correctly.
//!
//! Plus the typed error paths end to end: `TableTooLarge` and
//! `BadModelChoice` must come back through the response channel, never as
//! a panic.

use ntr::{
    build_encoder, EncodeError, EncodeRequest, EncoderSpec, ModelKind, Pipeline, TableEncoding,
};
use ntr_models::ModelConfig;
use ntr_serve::{EmbeddingService, ServeConfig, ServeRequest};
use ntr_table::{LinearizerOptions, Table};
use proptest::prelude::*;

/// A deterministic table whose shape and cell text vary with `seed`.
fn table(seed: u64, n_rows: usize, n_cols: usize) -> Table {
    let headers: Vec<String> = (0..n_cols).map(|c| format!("h{c}")).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let cells: Vec<Vec<String>> = (0..n_rows)
        .map(|r| {
            (0..n_cols)
                .map(|c| format!("v{}", (seed + 7 * r as u64 + 3 * c as u64) % 23))
                .collect()
        })
        .collect();
    let row_refs: Vec<Vec<&str>> = cells
        .iter()
        .map(|row| row.iter().map(String::as_str).collect())
        .collect();
    let slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
    Table::from_strings(&format!("t{seed}"), &header_refs, &slices)
        .with_caption(format!("caption {seed}"))
}

/// A pipeline whose vocabulary covers every table `table()` can produce.
/// `max_tokens` stays within `ModelConfig::tiny`'s `max_seq` of 64.
fn pipeline() -> Pipeline {
    let vocab_tables: Vec<Table> = (0..23).map(|s| table(s, 4, 4)).collect();
    Pipeline::builder()
        .vocab_from_tables(&vocab_tables)
        .vocab_size(400)
        .options(LinearizerOptions {
            max_tokens: 48,
            ..Default::default()
        })
        .build()
        .expect("vocab is non-empty")
}

fn tiny_cfg(p: &Pipeline) -> ModelConfig {
    ModelConfig::tiny(p.tokenizer().vocab_size())
}

/// The table-level row of an encoding: what a batch or a reply holds, and
/// what it is compared with in a sequential encode.
fn bits(enc: &TableEncoding) -> Vec<u32> {
    enc.table_embedding()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Sequential ground truth: a fresh model per request, exactly what a
/// client calling `Pipeline::encode` in a loop would see.
fn sequential(
    p: &Pipeline,
    cfg: &ModelConfig,
    reqs: &[(EncoderSpec, Table, String)],
) -> Vec<Vec<u32>> {
    reqs.iter()
        .map(|(spec, t, ctx)| {
            let mut model = build_encoder(*spec, cfg).unwrap();
            bits(&p.encode(model.as_mut(), t, ctx))
        })
        .collect()
}

/// Cycles through every family at f32, plus the student at int8 — the
/// one quantized spec the registry serves.
fn spec_for(i: u64) -> EncoderSpec {
    let n = ModelKind::ALL.len();
    match (i as usize) % (n + 1) {
        j if j < n => EncoderSpec::f32(ModelKind::ALL[j]),
        _ => EncoderSpec::int8(ModelKind::RowStudent),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `encode_batch` == sequential `encode`, bit for bit, over random
    /// table shapes and batch sizes.
    #[test]
    fn encode_batch_matches_sequential(
        seed in 0u64..1000,
        n_rows in 1usize..4,
        n_cols in 1usize..4,
        batch in 1usize..7,
    ) {
        let p = pipeline();
        let cfg = tiny_cfg(&p);
        let reqs: Vec<(EncoderSpec, Table, String)> = (0..batch as u64)
            .map(|i| {
                (
                    EncoderSpec::f32(ModelKind::Bert),
                    table(seed + i, n_rows, n_cols),
                    format!("q {i}"),
                )
            })
            .collect();
        let expected = sequential(&p, &cfg, &reqs);

        let mut model = build_encoder(EncoderSpec::f32(ModelKind::Bert), &cfg).unwrap();
        let batch_reqs: Vec<EncodeRequest> = reqs
            .iter()
            .map(|(_, t, ctx)| EncodeRequest { table: t.clone(), context: ctx.clone() })
            .collect();
        let got = p.encode_batch(model.as_mut(), &batch_reqs).unwrap();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.states.shape(), &[1, cfg.d_model]);
            prop_assert_eq!(&bits(g), e);
        }
    }

    /// The full service — batcher, buckets, replicas — reproduces
    /// sequential `encode` bit-exactly at every worker count and batch
    /// size, across model families.
    #[test]
    fn service_matches_sequential(
        seed in 0u64..1000,
        n_rows in 1usize..4,
        n_cols in 1usize..4,
        batch in 1usize..9,
        workers_pick in 0usize..2,
        max_batch_pick in 0usize..3,
    ) {
        let n_workers = [1usize, 4][workers_pick];
        let max_batch = [1usize, 3, 8][max_batch_pick];
        let p = pipeline();
        let cfg = tiny_cfg(&p);
        let reqs: Vec<(EncoderSpec, Table, String)> = (0..batch as u64)
            .map(|i| (spec_for(i), table(seed + i, n_rows, n_cols), format!("q {i}")))
            .collect();
        let expected = sequential(&p, &cfg, &reqs);

        let service = EmbeddingService::start(
            pipeline(),
            ServeConfig {
                max_batch,
                n_workers,
                cache_bytes: 0, // cache off: every request must hit the batch path
                queue_cap: 0,
                model_config: Some(cfg),
                ..ServeConfig::default()
            },
            ntr_obs::Obs::disabled(),
        )
        .expect("spawn service");
        let handle = service.handle();
        // Submit everything before receiving anything, so requests
        // actually coalesce into multi-request batches.
        let rxs: Vec<_> = reqs
            .iter()
            .map(|(spec, t, ctx)| {
                handle.submit(ServeRequest::with_spec(*spec, t.clone(), ctx.clone()))
            })
            .collect();
        for (rx, e) in rxs.into_iter().zip(&expected) {
            let reply = rx.recv().unwrap().unwrap();
            prop_assert!(!reply.cached);
            prop_assert_eq!(reply.encoding.states.shape(), &[1, cfg.d_model]);
            prop_assert_eq!(&bits(&reply.encoding), e);
        }
        drop(handle);
        let stats = service.shutdown();
        prop_assert_eq!(stats.requests, batch as u64);
        prop_assert_eq!(stats.errors, 0);
        prop_assert!(stats.batches >= 1);
    }
}

/// Duplicate content is answered from the cache: same bits, shared
/// storage, and hit/miss counters that add up.
#[test]
fn cache_returns_identical_encoding() {
    let p = pipeline();
    let cfg = tiny_cfg(&p);
    let service = EmbeddingService::start(
        pipeline(),
        ServeConfig {
            max_batch: 4,
            n_workers: 2,
            cache_bytes: 32 << 20,
            queue_cap: 0,
            model_config: Some(cfg),
            ..ServeConfig::default()
        },
        ntr_obs::Obs::disabled(),
    )
    .expect("spawn service");
    let handle = service.handle();
    let req = || ServeRequest::new(ModelKind::Tapas, table(5, 3, 2), "same question");

    let first = handle.submit(req()).recv().unwrap().unwrap();
    assert!(!first.cached, "first submission must miss");
    let second = handle.submit(req()).recv().unwrap().unwrap();
    assert!(second.cached, "identical content must hit the cache");
    assert!(
        std::sync::Arc::ptr_eq(&first.encoding, &second.encoding),
        "cache hits share the stored encoding"
    );
    assert_eq!(bits(&first.encoding), bits(&second.encoding));

    // Different content must miss.
    let other = handle
        .submit(ServeRequest::new(
            ModelKind::Tapas,
            table(5, 3, 2),
            "different question",
        ))
        .recv()
        .unwrap()
        .unwrap();
    assert!(!other.cached);

    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 2);
    assert_eq!(stats.cache.entries, 2);
}

/// Invalid requests come back as typed errors on the response channel —
/// the service never panics and other requests in the batch still answer.
#[test]
fn errors_are_typed_and_isolated() {
    // max_tokens so small that no data row fits -> TableTooLarge.
    let vocab_tables: Vec<Table> = (0..23).map(|s| table(s, 4, 4)).collect();
    let p = Pipeline::builder()
        .vocab_from_tables(&vocab_tables)
        .vocab_size(400)
        .options(LinearizerOptions {
            max_tokens: 3,
            ..Default::default()
        })
        .build()
        .expect("vocab is non-empty");
    let cfg = ModelConfig::tiny(p.tokenizer().vocab_size());
    let service = EmbeddingService::start(
        p,
        ServeConfig {
            max_batch: 4,
            n_workers: 2,
            cache_bytes: 0,
            queue_cap: 0,
            model_config: Some(cfg),
            ..ServeConfig::default()
        },
        ntr_obs::Obs::disabled(),
    )
    .expect("spawn service");
    let handle = service.handle();
    // A huge table (every row overflows) and an empty table (header
    // skeleton is valid) submitted together: one typed error, one success.
    let bad = handle.submit(ServeRequest::new(ModelKind::Bert, table(1, 3, 3), ""));
    let good = handle.submit(ServeRequest::new(ModelKind::Bert, table(2, 0, 2), ""));
    match bad.recv().unwrap() {
        Err(EncodeError::TableTooLarge { max_tokens, .. }) => assert_eq!(max_tokens, 3),
        Err(e) => panic!("expected TableTooLarge, got {e}"),
        Ok(_) => panic!("expected TableTooLarge, got a successful encoding"),
    }
    assert!(
        good.recv().unwrap().is_ok(),
        "valid request in the same batch must still answer"
    );

    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 1);
}

/// `Pipeline::encode_batch` rejects a model that cannot embed the
/// tokenizer's ids with `BadModelChoice` instead of panicking.
#[test]
fn encode_batch_rejects_undersized_model() {
    let p = pipeline();
    let mut small =
        build_encoder(EncoderSpec::f32(ModelKind::Bert), &ModelConfig::tiny(8)).unwrap();
    let req = EncodeRequest {
        table: table(0, 2, 2),
        context: String::new(),
    };
    match p.encode_batch(small.as_mut(), std::slice::from_ref(&req)) {
        Err(EncodeError::BadModelChoice { .. }) => {}
        Err(e) => panic!("expected BadModelChoice, got {e}"),
        Ok(_) => panic!("expected BadModelChoice, got successful encodings"),
    }
}
