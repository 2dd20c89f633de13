//! Golden-snapshot tests: the tokenizer, every serialization strategy, each
//! model family's first forward pass, and the bytes of the three persisted
//! file kinds are pinned against checked-in fixtures under `tests/golden/`. Any unintended change to tokenization,
//! linearization, initialization, or kernel numerics shows up as a diff
//! here — including ones that would silently invalidate old checkpoints.
//!
//! To bless new goldens after an *intentional* change:
//!
//! ```text
//! NTR_BLESS=1 cargo test --test golden_snapshots
//! ```
//!
//! then commit the updated files.

use ntr::pipeline::Pipeline;
use ntr::tasks::TrainRun;
use ntr_models::{
    EncoderInput, Mate, ModelConfig, QuantSpec, RowStudent, SequenceEncoder, Tapas, Turl,
    VanillaBert,
};
use ntr_table::{
    ColumnMajorLinearizer, Linearizer, LinearizerOptions, RowMajorLinearizer, Table,
    TapexLinearizer, TemplateLinearizer, TurlLinearizer,
};
use ntr_tensor::io::crc32;
use ntr_tensor::Tensor;
use ntr_tokenizer::SpecialToken;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` against the checked-in golden, or rewrites the golden
/// when `NTR_BLESS` is set.
fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("NTR_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun `NTR_BLESS=1 cargo test --test golden_snapshots` to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden {name} drifted; if the change is intentional, re-bless with \
         `NTR_BLESS=1 cargo test --test golden_snapshots` and commit the diff"
    );
}

/// The fixed table every snapshot derives from.
fn sample() -> Table {
    Table::from_strings(
        "countries",
        &["Country", "Capital", "Population"],
        &[
            &["France", "Paris", "67.8"],
            &["Australia", "Canberra", "25.69"],
            &["Japan", "Tokyo", "124.5"],
        ],
    )
    .with_caption("Population in Million by Country")
}

fn pipeline() -> Pipeline {
    Pipeline::builder()
        .vocab_from_tables(&[sample()])
        .vocab_size(600)
        .build()
        .expect("vocab is non-empty")
}

#[test]
fn tokenizer_output_is_pinned() {
    let p = pipeline();
    let tok = p.tokenizer();
    let inputs = [
        "France Paris 67.8",
        "Population in Million by Country",
        "what is the capital of australia ?",
        "unseenwordpiece 12345",
    ];
    let mut out = String::new();
    for text in inputs {
        let ids = tok.encode(text);
        let id_list = ids
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        writeln!(out, "{text} => [{id_list}] => {}", tok.decode(&ids)).unwrap();
    }
    check("tokenizer.txt", &out);
}

#[test]
fn every_serialization_strategy_is_pinned() {
    let p = pipeline();
    let tok = p.tokenizer();
    let t = sample();
    let opts = LinearizerOptions::default();
    let linearizers: [&dyn Linearizer; 5] = [
        &RowMajorLinearizer,
        &ColumnMajorLinearizer,
        &TemplateLinearizer,
        &TapexLinearizer,
        &TurlLinearizer,
    ];
    let mut out = String::new();
    for lin in linearizers {
        let e = lin.linearize(&t, &t.caption, tok, &opts);
        writeln!(out, "== {} ==", e.linearizer()).unwrap();
        writeln!(out, "text: {}", tok.decode(e.ids())).unwrap();
        let fmt = |xs: &[usize]| {
            xs.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        writeln!(out, "ids:  {}", fmt(e.ids())).unwrap();
        writeln!(out, "rows: {}", fmt(&e.row_ids())).unwrap();
        writeln!(out, "cols: {}", fmt(&e.col_ids())).unwrap();
    }
    check("linearizers.txt", &out);
}

/// Shape, CRC-32 of the little-endian f32 bit pattern, and the first 8
/// values (as hex bit patterns) of a logits tensor — enough to pin the
/// numerics exactly without checking in megabytes.
fn logits_fingerprint(name: &str, logits: &Tensor) -> String {
    let head = logits
        .data()
        .iter()
        .take(8)
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ");
    format!(
        "{name}: shape={:?} crc32={:08x} head=[{head}]\n",
        logits.shape(),
        crc32_f32(logits.data())
    )
}

/// CRC-32 over the little-endian bit patterns of `values`.
fn crc32_f32<'a>(values: impl IntoIterator<Item = &'a f32>) -> u32 {
    let bytes: Vec<u8> = values.into_iter().flat_map(|v| v.to_le_bytes()).collect();
    crc32(&bytes)
}

#[test]
fn first_forward_pass_logits_are_pinned() {
    // Golden float fingerprints pin the *scalar* kernels; force the
    // scalar path so `--features simd` builds check the same reference
    // (DESIGN.md §9, determinism boundary).
    ntr_tensor::simd::force_scalar(first_forward_pass_logits_are_pinned_impl)
}

fn first_forward_pass_logits_are_pinned_impl() {
    let p = pipeline();
    let tok = p.tokenizer();
    let t = sample();
    let e = RowMajorLinearizer.linearize(&t, &t.caption, tok, &LinearizerOptions::default());
    let input = EncoderInput::from_encoded(&e);
    let cfg = ModelConfig {
        vocab_size: tok.vocab_size(),
        n_entities: 8,
        ..ModelConfig::tiny(tok.vocab_size())
    };
    let mut out = String::new();

    let bert = VanillaBert::new(&cfg);
    let states = bert.encode(&input, false);
    out.push_str(&logits_fingerprint("bert/mlm", &bert.mlm.forward(&states)));

    let tapas = Tapas::new(&cfg);
    let states = tapas.encode(&input, false);
    out.push_str(&logits_fingerprint(
        "tapas/mlm",
        &tapas.mlm.forward(&states),
    ));

    let turl = Turl::new(&cfg);
    let states = turl.encode(&input, false);
    out.push_str(&logits_fingerprint("turl/mlm", &turl.mlm.forward(&states)));

    let mate = Mate::new(&cfg);
    let states = mate.encode(&input, false);
    out.push_str(&logits_fingerprint("mate/mlm", &mate.mlm.forward(&states)));

    // TAPEX: encode the (query, table) pair, then take the lm-head logits
    // of the first decoder step (input = [BOS]).
    let tapex = ntr_models::Tapex::new(&cfg);
    let te = TapexLinearizer.linearize(
        &t,
        "select Capital from countries",
        tok,
        &LinearizerOptions::default(),
    );
    let tinput = EncoderInput::from_encoded(&te);
    let memory = tapex
        .encoder
        .forward(&tapex.embeddings.forward(&tinput, false), None, false);
    let dec_inp = EncoderInput::from_text_ids(vec![SpecialToken::Bos.id()]);
    let states = tapex
        .decoder
        .forward(&tapex.dec_embeddings.forward(&dec_inp, false), &memory);
    out.push_str(&logits_fingerprint(
        "tapex/lm_head",
        &tapex.lm_head.forward(&states),
    ));

    // The distilled student has no head of its own: pin its states, at both
    // serving precisions.
    let mut student = RowStudent::new(&cfg);
    let states = student.encode(&input, false);
    out.push_str(&logits_fingerprint("row-student/f32", &states));
    student.set_precision(QuantSpec::Int8);
    let states = student.encode(&input, false);
    out.push_str(&logits_fingerprint("row-student/int8", &states));

    out.push_str(&encode_batch_fingerprint());
    check("logits.txt", &out);
}

/// CRC-32 of the table embeddings `Pipeline::encode_batch` returns for 32
/// generated tables under the pipeline's default teacher — pins the batched
/// path, which may fan requests out across threads, to fixed bits.
fn encode_batch_fingerprint() -> String {
    use ntr::corpus::tables::{CorpusConfig, TableCorpus};
    use ntr::corpus::{World, WorldConfig};
    use ntr::pipeline::EncodeRequest;

    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 32,
            min_rows: 2,
            max_rows: 5,
            seed: 0xBA7C,
            ..CorpusConfig::default()
        },
    );
    let p = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(800)
        .build()
        .expect("vocab is non-empty");
    let mut model = p.build_default_encoder().expect("default spec is valid");
    let reqs: Vec<EncodeRequest> = corpus
        .tables
        .iter()
        .cloned()
        .map(EncodeRequest::captioned)
        .collect();
    let encodings = p
        .encode_batch(model.as_mut(), &reqs)
        .expect("generated tables fit the budget");
    let embeddings: Vec<Tensor> = encodings.iter().map(|e| e.table_embedding()).collect();
    format!(
        "pipeline/encode_batch: tables={} crc32={:08x}\n",
        embeddings.len(),
        crc32_f32(embeddings.iter().flat_map(|t| t.data()))
    )
}

/// Short MLM training run used by the supervisor no-op golden: the sample
/// table sharded into overlapping 2-row slices so a few optimizer steps
/// exist.
fn mlm_noop_trace(scfg: &ntr::tasks::supervisor::SupervisorConfig) -> (Vec<f32>, String) {
    mlm_noop_trace_with(scfg, &ntr::tasks::trainer::TrainerOptions::default())
}

fn mlm_noop_trace_with(
    scfg: &ntr::tasks::supervisor::SupervisorConfig,
    topts: &ntr::tasks::trainer::TrainerOptions,
) -> (Vec<f32>, String) {
    let p = pipeline();
    let tok = p.tokenizer();
    let t = sample();
    let tables: Vec<Table> = (0..t.n_rows())
        .map(|r| t.select_rows(&[r, (r + 1) % t.n_rows()]))
        .collect();
    let corpus = ntr::corpus::tables::TableCorpus {
        kinds: vec![ntr::corpus::tables::TableKind::Employees; tables.len()],
        tables,
    };
    let cfg = ntr::tasks::TrainConfig {
        epochs: 4,
        lr: 3e-3,
        batch_size: 2,
        warmup_frac: 0.1,
        seed: 17,
    };
    let mut model = VanillaBert::new(&ModelConfig {
        vocab_size: tok.vocab_size(),
        ..ModelConfig::tiny(tok.vocab_size())
    });
    let report = TrainRun::new(cfg)
        .max_tokens(64)
        .linearizer(&RowMajorLinearizer)
        .trainer(topts)
        .supervisor(scfg)
        .mlm(&mut model, &corpus, tok)
        .expect("no faults configured");

    let mut out = String::new();
    for (i, l) in report.mlm_loss.iter().enumerate() {
        writeln!(out, "step {i}: loss_bits={:08x}", l.to_bits()).unwrap();
    }
    writeln!(out, "params_crc32={:08x}", params_crc32(&mut model)).unwrap();
    (report.mlm_loss, out)
}

/// [`crc32_f32`] over every parameter, in name order.
fn params_crc32(model: &mut dyn ntr::nn::Layer) -> u32 {
    let params = ntr::nn::serialize::state_dict(model);
    crc32_f32(params.values().flat_map(|t| t.data()))
}

#[test]
fn supervised_noop_training_trace_is_pinned() {
    // Pins scalar-kernel bits; see first_forward_pass_logits_are_pinned.
    ntr_tensor::simd::force_scalar(supervised_noop_training_trace_is_pinned_impl)
}

fn supervised_noop_training_trace_is_pinned_impl() {
    // With every supervisor feature disabled, the short MLM run's loss
    // trace and final parameters are pinned bit-exactly — the supervisor
    // must be a true no-op against the pre-supervisor baseline.
    let (disabled_losses, fingerprint) =
        mlm_noop_trace(&ntr::tasks::supervisor::SupervisorConfig::default());
    check("mlm_noop.txt", &fingerprint);

    // And a rollback-armed supervisor that never fires (no faults, huge
    // clip threshold, spike detection off) must also reproduce the same
    // loss trace: supervision only changes runs that actually go wrong.
    let quiet = ntr::tasks::supervisor::SupervisorConfig {
        clip_norm: Some(f32::INFINITY),
        rollback: true,
        max_retries: 3,
        spike_factor: 0.0,
        ema_alpha: 0.1,
        lr_backoff: 0.5,
        snapshot_every: 1,
        faults: None,
    };
    let (quiet_losses, _) = mlm_noop_trace(&quiet);
    let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&disabled_losses),
        bits(&quiet_losses),
        "an armed-but-idle supervisor must not perturb training"
    );

    // Armed observability (trace + metrics sinks active) must observe the
    // run without perturbing it: same loss bits and parameter fingerprint
    // as the sink-free baseline above.
    let dir = std::env::temp_dir().join("ntr_golden_obs");
    std::fs::create_dir_all(&dir).unwrap();
    let topts = ntr::tasks::trainer::TrainerOptions {
        obs: ntr::obs::ObsOptions {
            trace: Some(dir.join("noop_trace.jsonl")),
            metrics: Some(dir.join("noop_metrics.json")),
        },
        ..Default::default()
    };
    let (traced_losses, traced_fingerprint) = mlm_noop_trace_with(&quiet, &topts);
    assert_eq!(
        bits(&disabled_losses),
        bits(&traced_losses),
        "armed tracing must not perturb training"
    );
    check("mlm_noop.txt", &traced_fingerprint);
    // And the trace it wrote must be schema-valid.
    let text = std::fs::read_to_string(dir.join("noop_trace.jsonl")).unwrap();
    ntr::obs::trace::schema::validate_trace(&text).unwrap();
    assert!(dir.join("noop_metrics.json").exists());
}

#[test]
fn finetune_streams_are_pinned() {
    // Pins scalar-kernel bits; see first_forward_pass_logits_are_pinned.
    ntr_tensor::simd::force_scalar(finetune_streams_are_pinned_impl)
}

/// Every fine-tune and every `TrainRun` objective on a few examples: the
/// trained weights (and the loss traces the drivers return) pin the example
/// stream, step count, warmup and accumulation of the one training loop.
fn finetune_streams_are_pinned_impl() {
    use ntr::corpus::datasets::{
        CtaDataset, ImputationDataset, LinkingDataset, NliDataset, QaDataset, RetrievalDataset,
        Text2SqlDataset,
    };
    use ntr::corpus::tables::{CorpusConfig, TableCorpus};
    use ntr::corpus::{Split, World, WorldConfig};
    use ntr::tasks::{aggqa, cta, imputation, linking, nli, qa, retrieval, text2sql};

    let world = World::generate(WorldConfig {
        n_countries: 6,
        n_people: 6,
        n_films: 4,
        n_clubs: 3,
        seed: 0xF5,
    });
    let ccfg = CorpusConfig {
        n_tables: 4,
        min_rows: 2,
        max_rows: 3,
        null_prob: 0.0,
        headerless_prob: 0.0,
        seed: 0xF6,
    };
    let corpus = TableCorpus::generate(&world, &ccfg);
    let entity_corpus = TableCorpus::generate_entity_only(&world, &ccfg);

    let nli_ds = NliDataset::build(&corpus, 2, 1);
    let qa_ds = QaDataset::build(&corpus, 2, 2);
    let agg_ds = aggqa::AggQaDataset::build(&corpus, 4, 3);
    let sql_ds = Text2SqlDataset::build(&corpus, 2, 4);
    let mut extra: Vec<String> = nli_ds.examples.iter().map(|e| e.claim.clone()).collect();
    extra.extend(qa_ds.examples.iter().map(|e| e.question.clone()));
    extra.extend(agg_ds.examples.iter().map(|e| e.question.clone()));
    extra.extend(
        sql_ds
            .examples
            .iter()
            .flat_map(|e| [e.question.clone(), e.sql.to_string().to_lowercase()]),
    );
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &extra, 900);
    let entity_tok = ntr::corpus::vocab::train_tokenizer(&entity_corpus, &[], 900);
    let mcfg = ModelConfig::tiny(tok.vocab_size());
    let entity_mcfg = ModelConfig {
        n_entities: world.n_entities(),
        ..ModelConfig::tiny(entity_tok.vocab_size())
    };
    let opts = LinearizerOptions {
        max_tokens: 64,
        ..Default::default()
    };
    // Two epochs at the smallest batch size that does not divide both (so
    // the last batch is partial) and therefore not one either (so a batch
    // straddles the epoch boundary).
    let tcfg = |n: usize| {
        let batch_size = (2..n)
            .find(|b| !(2 * n).is_multiple_of(*b))
            .expect("at least four training examples");
        ntr::tasks::TrainConfig {
            epochs: 2,
            lr: 3e-3,
            batch_size,
            warmup_frac: 0.25,
            seed: 0xF7,
        }
    };
    let bits = |xs: &[f32]| {
        xs.iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut out = String::new();
    let mut line = |name: &str, cfg: &ntr::tasks::TrainConfig, losses: &[f32], crc: u32| {
        write!(out, "{name}: batch={}", cfg.batch_size).unwrap();
        if !losses.is_empty() {
            write!(out, " loss_bits=[{}]", bits(losses)).unwrap();
        }
        writeln!(out, " params_crc32={crc:08x}").unwrap();
    };

    let ds = CtaDataset::build(&corpus, 5);
    let cfg = tcfg(ds.indices(Split::Train).len());
    let mut m = cta::ColumnAnnotator::new(Tapas::new(&mcfg), ds.labels.len(), 6);
    cta::finetune(&mut m, &ds, &tok, &cfg, &opts);
    line("cta", &cfg, &[], params_crc32(&mut m));

    let cfg = tcfg(nli_ds.indices(Split::Train).len());
    let mut m = nli::FactVerifier::new(VanillaBert::new(&mcfg), 7);
    nli::finetune(&mut m, &nli_ds, &tok, &cfg, &opts);
    line("nli", &cfg, &[], params_crc32(&mut m));

    let cfg = tcfg(qa_ds.indices(Split::Train).len());
    let mut m = qa::CellSelector::new(Tapas::new(&mcfg), 8);
    qa::finetune(&mut m, &qa_ds, &tok, &cfg, &opts);
    line("qa", &cfg, &[], params_crc32(&mut m));

    let cfg = tcfg(agg_ds.indices(Split::Train).len());
    let mut m = aggqa::AggregationQa::new(Tapas::new(&mcfg), 9);
    aggqa::finetune(&mut m, &agg_ds, &tok, &cfg, &opts);
    line("aggqa", &cfg, &[], params_crc32(&mut m));

    let ds = LinkingDataset::build(&world, &entity_corpus, 3, 10);
    let cfg = tcfg(ds.indices(Split::Train).len());
    let mut m = Turl::new(&entity_mcfg);
    linking::finetune(&mut m, &ds, &entity_tok, &cfg, &opts);
    line("linking", &cfg, &[], params_crc32(&mut m));

    let cfg = tcfg(sql_ds.indices(Split::Train).len());
    let mut m = ntr_models::Tapex::new(&mcfg);
    let losses = text2sql::finetune(&mut m, &sql_ds, &tok, &cfg, 64);
    line("text2sql", &cfg, &losses, params_crc32(&mut m));

    let ds = RetrievalDataset::build(corpus.clone(), 2, 11);
    let cfg = tcfg(ds.indices(Split::Train).len());
    let mut m = VanillaBert::new(&mcfg);
    retrieval::finetune_contrastive(&mut m, &ds, &tok, &cfg, &opts, 2);
    line("retrieval", &cfg, &[], params_crc32(&mut m));

    let ds = ImputationDataset::build(&entity_corpus, 2, 12);
    let cfg = tcfg(ds.indices(Split::Train).len());
    let mut m = Turl::new(&entity_mcfg);
    imputation::finetune(&mut m, &ds, &entity_tok, &cfg, 64);
    line("imputation", &cfg, &[], params_crc32(&mut m));

    let cfg = tcfg(corpus.tables.len());
    let run = TrainRun::new(cfg).max_tokens(64);
    let mut m = Tapas::new(&mcfg);
    let r = run.mlm(&mut m, &corpus, &tok).unwrap();
    line("mlm", &cfg, &r.mlm_loss, params_crc32(&mut m));

    let mut m = Turl::new(&entity_mcfg);
    let r = run.turl(&mut m, &entity_corpus, &entity_tok).unwrap();
    let summed: Vec<f32> = r
        .mlm_loss
        .iter()
        .zip(&r.mer_loss)
        .map(|(a, b)| a + b)
        .collect();
    line("turl", &cfg, &summed, params_crc32(&mut m));

    let mut m = ntr_models::Tapex::new(&mcfg);
    let losses = run.tapex(&mut m, &corpus, &tok).unwrap();
    line("tapex", &cfg, &losses, params_crc32(&mut m));

    let teacher = Tapas::new(&mcfg);
    let mut m = ntr_models::RowStudent::new(&ModelConfig { seed: 13, ..mcfg });
    let r = run.distill(&mut m, &teacher, 0.5, &corpus, &tok).unwrap();
    line("distill", &cfg, &r.loss, params_crc32(&mut m));

    check("finetune_streams.txt", &out);
}

#[test]
fn trace_schema_is_pinned() {
    // The JSONL trace schema is a stability contract: adding, removing, or
    // reordering fields must show up as a golden diff and a DESIGN.md §7
    // update, never as a silent change.
    check("trace_schema.txt", &ntr::obs::trace::schema::render());
}

/// `name: len=<bytes> crc32=<image minus its last 4 bytes>` of one persisted
/// artefact. The last 4 bytes are the file's own CRC, and the CRC-32 of any
/// image that ends in its own CRC is the same constant.
fn file_fingerprint(name: &str, path: &std::path::Path) -> String {
    let bytes = std::fs::read(path).unwrap();
    let body = &bytes[..bytes.len() - 4];
    format!("{name}: len={} crc32={:08x}\n", bytes.len(), crc32(body))
}

#[test]
fn ntrw_container_bytes_are_pinned() {
    // Round-trip tests pass when writer and reader drift together; this
    // pins the bytes on disk of all three artefacts. The inputs are literal
    // values (no kernel arithmetic), so the golden holds with and without
    // `--features simd`.
    use ntr::nn::optim::WarmupLinearSchedule;
    use ntr::nn::serialize::{save_checkpoint, TrainCheckpoint, TrainCursor, TrainState};
    use ntr_index::{EmbeddingStore, IvfConfig, IvfIndex};

    let dir = std::env::temp_dir().join(format!("ntr_golden_bytes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let w = Tensor::from_vec(vec![0.5, -1.25, 2.0, 0.0, 3.5, -0.125], &[3, 2]);
    let b = Tensor::from_vec(vec![0.25, -0.75], &[2]);
    let ckpt = TrainCheckpoint {
        params: [("w".to_string(), w.clone()), ("b".to_string(), b.clone())].into(),
        state: Some(TrainState {
            steps: 7,
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            moments: [
                ("w".to_string(), (w.clone(), w)),
                ("b".to_string(), (b.clone(), b)),
            ]
            .into(),
            schedule: WarmupLinearSchedule {
                peak_lr: 1e-3,
                warmup: 2,
                total: 9,
            },
            cursor: TrainCursor {
                epoch: 1,
                example: 3,
                seed: 0xF17E,
            },
            rngs: [("encoder/layer0/drop1".to_string(), [1, 2, 3, 4])].into(),
        }),
    };
    let ckpt_path = dir.join("tiny.ntrw");
    save_checkpoint(&ckpt, &ckpt_path).unwrap();

    let mut store = EmbeddingStore::new(4);
    store.set_meta("model", "tapas");
    store.set_meta("precision", "f32");
    for (id, v) in [
        ("tbl_a", [1.0, 0.0, -2.0, 0.5]),
        ("tbl_b", [0.0, 4.0, 0.25, -1.0]),
        ("tbl_c", [-3.0, 1.5, 0.0, 8.0]),
    ] {
        store.push(id, &v).unwrap();
    }
    let store_path = dir.join(ntr_index::SearchIndex::STORE_FILE);
    store.save(&store_path).unwrap();
    let ivf = IvfIndex::build(
        &store,
        &IvfConfig {
            nlist: 2,
            ..IvfConfig::default()
        },
    )
    .unwrap();
    let ivf_path = dir.join(ntr_index::SearchIndex::IVF_FILE);
    ivf.save(&ivf_path).unwrap();

    let mut out = String::new();
    out.push_str(&file_fingerprint("checkpoint_v2_full_state", &ckpt_path));
    out.push_str(&file_fingerprint("store.ntrs", &store_path));
    out.push_str(&file_fingerprint("index.ntri", &ivf_path));
    let _ = std::fs::remove_dir_all(&dir);
    check("ntrw_bytes.txt", &out);
}
