//! Serving the distilled row student at int8 end to end (DESIGN.md §13):
//!
//! * a cache miss through `ModelKind::RowStudent` at `QuantSpec::Int8`
//!   answers with exactly the bits of the table-level row a sequential
//!   `Pipeline::encode` of the same spec produces, and holds that row alone;
//! * those bits are identical with SIMD forced off — the int8 matmul
//!   accumulates in integer arithmetic, so lane width (and, with the CI
//!   `NTR_THREADS={1,4}` legs running this test, thread count) cannot
//!   change them;
//! * an int8 request for a family with no int8 path is a typed
//!   `BadModelChoice` on the response channel, never a worker panic.

use ntr::{EncodeError, EncoderSpec, ModelKind, Pipeline, QuantSpec, TableEncoding};
use ntr_models::ModelConfig;
use ntr_serve::{EmbeddingService, ServeConfig, ServeRequest};
use ntr_table::{LinearizerOptions, Table};

fn table(seed: u64) -> Table {
    let cells: Vec<Vec<String>> = (0..3)
        .map(|r| {
            (0..3)
                .map(|c| format!("v{}", (seed + 5 * r + c) % 17))
                .collect()
        })
        .collect();
    let row_refs: Vec<Vec<&str>> = cells
        .iter()
        .map(|row| row.iter().map(String::as_str).collect())
        .collect();
    let slices: Vec<&[&str]> = row_refs.iter().map(Vec::as_slice).collect();
    Table::from_strings(&format!("t{seed}"), &["a", "b", "c"], &slices)
}

fn pipeline(spec: EncoderSpec) -> Pipeline {
    let vocab: Vec<Table> = (0..17).map(table).collect();
    Pipeline::builder()
        .vocab_from_tables(&vocab)
        .vocab_size(400)
        .encoder(spec)
        .options(LinearizerOptions {
            max_tokens: 48,
            ..Default::default()
        })
        .build()
        .expect("vocab is non-empty")
}

/// The table-level row an encoding answers with — all a reply holds.
fn bits(enc: &TableEncoding) -> Vec<u32> {
    enc.table_embedding()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn serve_one(spec: EncoderSpec, cfg: ModelConfig, n_workers: usize) -> Vec<u32> {
    let service = EmbeddingService::start(
        pipeline(spec),
        ServeConfig {
            max_batch: 4,
            n_workers,
            cache_bytes: 0, // every request is a cache miss
            queue_cap: 0,
            model_config: Some(cfg),
            ..ServeConfig::default()
        },
        ntr_obs::Obs::disabled(),
    )
    .expect("spawn service");
    let handle = service.handle();
    let reply = handle
        .submit(ServeRequest::with_spec(spec, table(3), "quantized"))
        .recv()
        .unwrap()
        .unwrap();
    assert!(!reply.cached, "cache is disabled; this must be a miss");
    assert_eq!(reply.encoding.states.shape(), &[1, cfg.d_model]);
    let out = bits(&reply.encoding);
    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
    out
}

#[test]
fn int8_student_cache_miss_is_bit_identical_to_sequential_encode() {
    let spec = EncoderSpec::new(ModelKind::RowStudent, QuantSpec::Int8);
    let p = pipeline(spec);
    let cfg = ModelConfig::tiny(p.tokenizer().vocab_size());
    // Sequential ground truth, from the same config the replicas use.
    let mut model = ntr::build_encoder(p.encoder_spec(), &cfg).unwrap();
    let expected = bits(&p.encode(model.as_mut(), &table(3), "quantized"));

    // The same bits must come out of the full serving stack, at one
    // worker and at several, and with SIMD lanes forced off — the int8
    // kernel is integer-exact, so neither may perturb a bit.
    assert_eq!(serve_one(spec, cfg, 1), expected);
    assert_eq!(serve_one(spec, cfg, 4), expected);
    let scalar = ntr_tensor::simd::force_scalar(|| serve_one(spec, cfg, 2));
    assert_eq!(scalar, expected);
}

#[test]
fn int8_and_f32_student_do_not_share_cache_entries() {
    let int8 = EncoderSpec::new(ModelKind::RowStudent, QuantSpec::Int8);
    let p = pipeline(int8);
    let cfg = ModelConfig::tiny(p.tokenizer().vocab_size());
    let service = EmbeddingService::start(
        pipeline(int8),
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
    let first = handle
        .submit(ServeRequest::with_spec(int8, table(7), "q"))
        .recv()
        .unwrap()
        .unwrap();
    assert!(!first.cached);
    // Same table at f32: the precision is part of the cache key, so this
    // must miss and re-encode rather than answer with int8 bits.
    let f32_reply = handle
        .submit(ServeRequest::new(ModelKind::RowStudent, table(7), "q"))
        .recv()
        .unwrap()
        .unwrap();
    assert!(!f32_reply.cached, "precision change must miss the cache");
    // And the int8 entry is still live for its own spec.
    let again = handle
        .submit(ServeRequest::with_spec(int8, table(7), "q"))
        .recv()
        .unwrap()
        .unwrap();
    assert!(again.cached);
    assert_eq!(bits(&first.encoding), bits(&again.encoding));

    drop(handle);
    service.shutdown();
}

#[test]
fn int8_on_a_teacher_family_is_a_typed_rejection() {
    let spec = EncoderSpec::f32(ModelKind::Tapas);
    let p = pipeline(spec);
    let cfg = ModelConfig::tiny(p.tokenizer().vocab_size());
    let service = EmbeddingService::start(
        pipeline(spec),
        ServeConfig {
            model_config: Some(cfg),
            ..ServeConfig::default()
        },
        ntr_obs::Obs::disabled(),
    )
    .expect("spawn service");
    let handle = service.handle();
    let bad = EncoderSpec::new(ModelKind::Tapas, QuantSpec::Int8);
    match handle
        .submit(ServeRequest::with_spec(bad, table(1), ""))
        .recv()
        .unwrap()
    {
        Err(EncodeError::BadModelChoice { detail }) => {
            assert!(detail.contains("int8"), "{detail}")
        }
        Err(e) => panic!("expected BadModelChoice, got {e}"),
        Ok(_) => panic!("int8 tapas must be rejected at admission"),
    }
    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.errors, 1);
}
