//! Cross-crate integration: CSV → pipeline → every model family →
//! representations → checkpoints.

use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::{EncoderInput, ModelConfig, Rows, SequenceEncoder};
use ntr::pipeline::{EncodeError, EncodeRequest, Pipeline, TableEncoding};
use ntr::table::{LinearizerOptions, Table};
use ntr::tensor::{par, simd, Tensor};
use ntr::zoo::{build_encoder, EncoderSpec, ModelKind};

// Every thread that encodes shares one model: inference is `&self`.
const _: fn() = || {
    fn assert_sync<T: Sync + ?Sized>() {}
    assert_sync::<dyn SequenceEncoder>();
};

fn sample_csv() -> &'static str {
    "Country,Capital,Population\nFrance,Paris,67.8\nAustralia,Canberra,25.69\nJapan,Tokyo,125.7\n"
}

fn pipeline_for(table: &Table) -> Pipeline {
    Pipeline::builder()
        .vocab_from_tables(std::slice::from_ref(table))
        .vocab_size(800)
        .build()
        .expect("vocab is non-empty")
}

#[test]
fn csv_to_embeddings_for_every_family() {
    let table = Table::from_csv_str("countries", sample_csv(), true)
        .expect("csv parses")
        .with_caption("Population in Million by Country");
    let pipeline = pipeline_for(&table);
    let cfg = pipeline.default_config();

    for kind in ModelKind::ALL {
        let mut model = build_encoder(EncoderSpec::f32(kind), &cfg).expect("f32 spec");
        let enc = pipeline.encode(model.as_mut(), &table, &table.caption);
        assert_eq!(
            enc.states.shape(),
            &[enc.encoded.len(), cfg.d_model],
            "{}",
            kind.name()
        );
        // All three data rows and columns reachable.
        for r in 0..3 {
            for c in 0..3 {
                let cell = enc
                    .cell_embedding(r, c)
                    .unwrap_or_else(|| panic!("{}: missing cell ({r},{c})", kind.name()));
                assert!(cell.data().iter().all(|x| x.is_finite()));
            }
        }
        assert!(enc.row_embedding(0).is_some());
        assert!(enc.column_embedding(2).is_some());
    }
}

#[test]
fn encoding_is_deterministic_per_seed_and_sensitive_to_content() {
    let table = Table::from_csv_str("t", sample_csv(), true).expect("csv parses");
    let pipeline = pipeline_for(&table);
    let cfg = pipeline.default_config();

    let mut a = build_encoder(EncoderSpec::f32(ModelKind::Tapas), &cfg).expect("f32 spec");
    let mut b = build_encoder(EncoderSpec::f32(ModelKind::Tapas), &cfg).expect("f32 spec");
    let ea = pipeline.encode(a.as_mut(), &table, "ctx");
    let eb = pipeline.encode(b.as_mut(), &table, "ctx");
    assert_eq!(ea.states, eb.states);

    // Changing one cell changes the encoding.
    let mut changed = table.clone();
    *changed.cell_mut(0, 1) = ntr::table::Cell::new("Lyon");
    let ec = pipeline.encode(a.as_mut(), &changed, "ctx");
    assert_ne!(ea.states, ec.states);
}

#[test]
fn encode_matches_try_encode_bit_for_bit() {
    // `encode` skips the validation of `try_encode` and nothing else.
    let table = Table::from_csv_str("t", sample_csv(), true).expect("csv parses");
    let pipeline = pipeline_for(&table);
    let cfg = pipeline.default_config();
    let mut a = build_encoder(EncoderSpec::f32(ModelKind::Bert), &cfg).expect("f32 spec");
    let mut b = build_encoder(EncoderSpec::f32(ModelKind::Bert), &cfg).expect("f32 spec");
    let via_encode = pipeline.encode(a.as_mut(), &table, "ctx");
    let via_try = pipeline
        .try_encode(b.as_mut(), &table, "ctx")
        .expect("valid request");
    let bits = |t: &ntr::tensor::Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&via_encode.states), bits(&via_try.states));
}

#[test]
fn tapas_encode_agrees_across_simd_lanes_within_1e4() {
    // The end-to-end number of DESIGN §9's tolerance class: one encode on
    // the active lane (the AVX2 kernels, vector `exp` included, on a `simd`
    // build) against the same encode on the scalar lane. Without the
    // feature both sides are scalar and agree exactly.
    let table = Table::from_csv_str("t", sample_csv(), true).expect("csv parses");
    let pipeline = pipeline_for(&table);
    let cfg = pipeline.default_config();
    let mut model = build_encoder(EncoderSpec::f32(ModelKind::Tapas), &cfg).expect("f32 spec");
    let active = pipeline
        .try_encode(model.as_mut(), &table, "ctx")
        .expect("valid request");
    let scalar = ntr::tensor::simd::force_scalar(|| {
        pipeline
            .try_encode(model.as_mut(), &table, "ctx")
            .expect("valid request")
    });
    assert_eq!(active.states.shape(), scalar.states.shape());
    let worst = (active.states.data().iter())
        .zip(scalar.states.data())
        .map(|(a, s)| (a - s).abs())
        .fold(0.0f32, f32::max);
    assert!(worst <= 1e-4, "lanes differ by {worst}");
    if !ntr::tensor::simd::active() {
        assert_eq!(active.states, scalar.states);
    }
}

#[test]
fn checkpoints_transfer_between_fresh_models() {
    let table = Table::from_csv_str("t", sample_csv(), true).expect("csv parses");
    let pipeline = pipeline_for(&table);
    let cfg = pipeline.default_config();

    let mut original = build_encoder(EncoderSpec::f32(ModelKind::Turl), &cfg).expect("f32 spec");
    let before = pipeline.encode(original.as_mut(), &table, "x").states;

    let dir = std::env::temp_dir().join("ntr_integration_ckpt");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("turl.ntrw");
    ntr::nn::serialize::save(original.as_mut(), &path).expect("save");

    let mut restored = build_encoder(
        EncoderSpec::f32(ModelKind::Turl),
        &ntr::models::ModelConfig { seed: 4242, ..cfg },
    )
    .expect("f32 spec");
    let different = pipeline.encode(restored.as_mut(), &table, "x").states;
    assert_ne!(before, different, "different seeds must differ pre-load");

    ntr::nn::serialize::load(restored.as_mut(), &path).expect("load");
    let after = pipeline.encode(restored.as_mut(), &table, "x").states;
    assert_eq!(before, after, "checkpoint must restore behaviour exactly");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn headerless_csv_flows_through() {
    let table = Table::from_csv_str("h", "1,2\n3,4\n5,6\n", false).expect("csv parses");
    assert!(table.is_headerless());
    let pipeline = pipeline_for(&table);
    let mut model = build_encoder(
        EncoderSpec::f32(ModelKind::Bert),
        &pipeline.default_config(),
    )
    .expect("f32 spec");
    let enc = pipeline.encode(model.as_mut(), &table, "");
    assert!(enc.cell_embedding(2, 1).is_some());
}

#[test]
fn model_parameter_counts_are_stable() {
    // Regression guard: architecture drift shows up as parameter-count
    // changes, which silently invalidates recorded experiments.
    let table = Table::from_csv_str("t", sample_csv(), true).expect("csv parses");
    let pipeline = pipeline_for(&table);
    let cfg = pipeline.default_config();
    for kind in ModelKind::ALL {
        let mut m = build_encoder(EncoderSpec::f32(kind), &cfg).expect("f32 spec");
        let params = m.num_params();
        // The distilled student is an order of magnitude smaller than the
        // full-context families by design — no attention stacks.
        let floor = if kind == ModelKind::RowStudent {
            20_000
        } else {
            50_000
        };
        assert!(
            params > floor && params < 3_000_000,
            "{}: {params} parameters looks wrong",
            kind.name()
        );
    }
}

/// Token budget of the batch fixture.
const BATCH_MAX_TOKENS: usize = 96;

/// 24 generated tables as captioned requests, and a pipeline whose budget
/// fits each of them but not [`too_large`].
fn batch_fixture() -> (Pipeline, Vec<EncodeRequest>) {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 24,
            min_rows: 2,
            max_rows: 4,
            seed: 0xE0B,
            ..CorpusConfig::default()
        },
    );
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(800)
        .options(LinearizerOptions {
            max_tokens: BATCH_MAX_TOKENS,
            ..LinearizerOptions::default()
        })
        .build()
        .expect("vocab is non-empty");
    let reqs = corpus
        .tables
        .into_iter()
        .map(EncodeRequest::captioned)
        .collect();
    (pipeline, reqs)
}

/// A table whose only row overflows the fixture's budget on its own.
fn too_large(id: &str) -> EncodeRequest {
    let long = vec!["population"; 4 * BATCH_MAX_TOKENS].join(" ");
    EncodeRequest::captioned(Table::from_strings(
        id,
        &["Country", "Notes"],
        &[&["France", &long]],
    ))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn embedding_bits(encodings: &[TableEncoding]) -> Vec<Vec<u32>> {
    encodings
        .iter()
        .map(|e| bits(&e.table_embedding()))
        .collect()
}

#[test]
fn encode_batch_fails_on_the_first_invalid_request_at_every_thread_count() {
    let (pipeline, mut reqs) = batch_fixture();
    reqs[5] = too_large("huge5");
    reqs[20] = too_large("huge20");
    let model = pipeline.build_default_encoder().expect("default spec");
    for threads in [1, 2, 4] {
        let err = par::with_threads(threads, || pipeline.encode_batch(&*model, &reqs))
            .map(|encodings| encodings.len())
            .expect_err("two requests are too large");
        assert_eq!(
            err,
            EncodeError::TableTooLarge {
                table_id: "huge5".to_string(),
                max_tokens: BATCH_MAX_TOKENS,
            },
            "threads={threads}"
        );
    }
}

/// A batch holds table-level encodings: the `[CLS]` row of `try_encode`'s
/// full states, bit for bit, and nothing else.
#[test]
fn encode_batch_is_bit_identical_across_thread_counts_and_to_try_encode() {
    let (pipeline, reqs) = batch_fixture();
    let model = pipeline.build_default_encoder().expect("default spec");
    let one_at_a_time: Vec<TableEncoding> = reqs
        .iter()
        .map(|r| {
            pipeline
                .try_encode(&*model, &r.table, &r.context)
                .expect("every fixture table fits")
        })
        .collect();
    let expected = embedding_bits(&one_at_a_time);
    for threads in [1, 2, 4] {
        let batch = par::with_threads(threads, || pipeline.encode_batch(&*model, &reqs))
            .expect("every fixture table fits");
        assert_eq!(embedding_bits(&batch), expected, "threads={threads}");
        for enc in &batch {
            assert_eq!(enc.states.shape(), &[1, model.d_model()]);
        }
    }
    let empty = pipeline.encode_batch(&*model, &[]).expect("an empty batch");
    assert!(empty.is_empty());
}

/// Every spec the registry serves: each family at f32, the student at int8.
fn every_spec() -> Vec<EncoderSpec> {
    let f32_specs = ModelKind::ALL.iter().map(|&kind| EncoderSpec::f32(kind));
    f32_specs
        .chain([EncoderSpec::int8(ModelKind::RowStudent)])
        .collect()
}

/// A synthetic `n`-token input: `[CLS]`, seven context tokens, then cells
/// in 12-token rows of four columns — enough structure for TURL's
/// visibility matrix, MATE's row and column heads and the student's
/// row-mean mix to matter.
fn synthetic_input(n: usize) -> EncoderInput {
    let kind = |i: usize| match i {
        0 => 0,
        1..=7 => 1,
        _ => 3,
    };
    EncoderInput {
        ids: (0..n).map(|i| 7 + (i * 31) % 250).collect(),
        rows: (0..n)
            .map(|i| if i < 8 { 0 } else { 1 + (i - 8) / 12 })
            .collect(),
        cols: (0..n).map(|i| if i < 8 { 0 } else { 1 + i % 4 }).collect(),
        segments: (0..n).map(|i| usize::from(i >= 8)).collect(),
        kinds: (0..n).map(kind).collect(),
        ranks: (0..n).map(|i| i % 5).collect(),
    }
}

/// Every row selection is those rows of [`Rows::All`], bit for bit, for
/// every spec (TURL's visibility mask and MATE's per-head masks included),
/// at sequence lengths on both sides of the kernels' naive cutoff, on both
/// SIMD lanes and at any thread count: the claim the serve replies, the
/// index, `encode_batch` ([`Rows::CLS`]) and evaluation (the masked rows)
/// rest on. The last selection lists every row, so it is `All` itself.
#[test]
fn table_level_infer_is_row_zero_of_the_full_infer_for_every_spec() {
    let cfg = ModelConfig {
        vocab_size: 300,
        ..ModelConfig::default()
    };
    for spec in every_spec() {
        let model = build_encoder(spec, &cfg).expect("registry spec");
        for n in [1, 2, 7, 9, 33, 107, 128] {
            let input = synthetic_input(n);
            let mut ends = vec![0, n - 1];
            ends.dedup();
            let scattered: Vec<usize> = (0..n).filter(|r| r % 5 == 2 || r % 7 == 3).collect();
            let every: Vec<usize> = (0..n).collect();
            let selections: [&[usize]; 6] = [&[0], &[], &[n - 1], &ends, &scattered, &every];
            for scalar in [false, true] {
                let run = |rows: Rows| {
                    if scalar {
                        simd::force_scalar(|| model.infer(&input, rows))
                    } else {
                        model.infer(&input, rows)
                    }
                };
                let all = run(Rows::All);
                assert_eq!(all.shape(), &[n, cfg.d_model], "{spec} n={n}");
                for threads in [1, 2, 4] {
                    for rows in selections {
                        let part = par::with_threads(threads, || run(Rows::Only(rows)));
                        assert_eq!(
                            bits(&part),
                            bits(&all.gather_rows(rows)),
                            "{spec} n={n} rows={rows:?} scalar={scalar} threads={threads}"
                        );
                    }
                }
            }
        }
    }
}
