//! Measured operations that more than one workload or probe performs: the
//! index life cycle, one short training run, and the check of sampled
//! replies against a benchmark-side encode.

use crate::api::{
    self, BoxedEncoder, EmbeddingStore, EncodeRequest, IvfConfig, IvfIndex, ObsOptions, Pipeline,
    SearchIndex, SequenceEncoder, SupervisorConfig, Table, TableCorpus, Tapas,
};
use crate::client;
use crate::load::{EncodeSample, SearchSample};
use crate::report::{check, Check, LayerMetrics};
use crate::spans::Trace;
use crate::stack::Offline;
use crate::stats::median;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Tables per `Pipeline::encode_batch` call of the offline path.
pub const CHUNK: usize = 32;

/// Encodes `tables` under their own captions in chunks of [`CHUNK`] and
/// pushes the table embeddings; returns the seconds each chunk took.
pub fn embed_into(
    pipeline: &Pipeline,
    teacher: &mut dyn SequenceEncoder,
    tables: &[Table],
    store: &mut EmbeddingStore,
    trace: &mut Trace,
) -> io::Result<Vec<f64>> {
    let mut chunk_s = Vec::with_capacity(tables.len().div_ceil(CHUNK));
    for (n, chunk) in tables.chunks(CHUNK).enumerate() {
        let reqs: Vec<EncodeRequest> = chunk
            .iter()
            .map(|t| EncodeRequest::captioned(t.clone()))
            .collect();
        let t0 = Instant::now();
        let encodings = pipeline.encode_batch(teacher, &reqs).map_err(other)?;
        let t1 = Instant::now();
        chunk_s.push((t1 - t0).as_secs_f64());
        let span = trace.record("core.encode_batch", t0, t1, None, n as u64);
        trace.time("index.push", span, n as u64, || {
            for (t, enc) in chunk.iter().zip(&encodings) {
                store
                    .push(t.id.clone(), enc.table_embedding().data())
                    .map_err(other)?;
            }
            io::Result::Ok(())
        })?;
    }
    Ok(chunk_s)
}

/// `IvfIndex::build` then `save` of store and index into `dir`.
pub fn build_index(
    store: &EmbeddingStore,
    dir: &Path,
    trace: &mut Trace,
    out: &mut LayerMetrics,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let t0 = Instant::now();
    let ivf = IvfIndex::build(store, &IvfConfig::default()).map_err(other)?;
    let t1 = Instant::now();
    let bytes = store
        .save(&dir.join(SearchIndex::STORE_FILE))
        .map_err(other)?;
    ivf.save(&dir.join(SearchIndex::IVF_FILE)).map_err(other)?;
    let t2 = Instant::now();
    trace.record("index.build", t0, t1, None, 0);
    trace.record("index.save", t1, t2, None, 0);
    out.insert("index.build_s", (t1 - t0).as_secs_f64());
    out.insert("index.save_s", (t2 - t1).as_secs_f64());
    out.insert("index.store_bytes", bytes as f64);
    Ok(())
}

/// `SearchIndex::open` on `dir`, then `n_queries` held-in queries (stored
/// vectors, evenly spread) through the index and through the exact scan.
/// Returns recall@10 of the index against the exact scan.
pub fn query_index(
    dir: &Path,
    n_queries: usize,
    trace: &mut Trace,
    out: &mut LayerMetrics,
) -> io::Result<f64> {
    const K: usize = 10;
    let t0 = Instant::now();
    let index = SearchIndex::open(dir).map_err(other)?;
    let t1 = Instant::now();
    trace.record("index.open", t0, t1, None, 0);
    out.insert("index.open_s", (t1 - t0).as_secs_f64());

    let n = index.store.len();
    let n_queries = n_queries.clamp(1, n);
    let (mut search_us, mut brute_us) = (Vec::new(), Vec::new());
    let (mut scanned, mut found) = (0usize, 0usize);
    for q in 0..n_queries {
        let query = index.store.vector(q * n / n_queries).to_vec();
        let t0 = Instant::now();
        let approx = index.search(&query, K, None).map_err(other)?;
        let t1 = Instant::now();
        let exact = index.store.brute_force_topk(&query, K).map_err(other)?;
        let t2 = Instant::now();
        trace.record("index.search", t0, t1, None, q as u64);
        trace.record("index.brute", t1, t2, None, q as u64);
        search_us.push((t1 - t0).as_secs_f64() * 1e6);
        brute_us.push((t2 - t1).as_secs_f64() * 1e6);
        scanned += approx.scanned;
        found += exact
            .iter()
            .filter(|(row, _)| approx.hits.iter().any(|(r, _)| r == row))
            .count();
    }
    let recall = found as f64 / (n_queries * K) as f64;
    let per_query = scanned as f64 / n_queries as f64;
    out.insert("index.search_us", median(&search_us));
    out.insert("index.brute_us", median(&brute_us));
    out.insert("index.scanned_per_query", per_query);
    out.insert("index.scan_share", per_query / n as f64);
    out.insert("index.recall_at_10", recall);
    Ok(recall)
}

/// Tables per training run: four optimizer steps at batch 8.
pub const TRAIN_SLICE: usize = 32;
pub const STEPS_PER_RUN: usize = TRAIN_SLICE / 8;

/// The training corpus cut into slices of [`TRAIN_SLICE`] tables, with the
/// token count of each slice.
pub struct TrainSlices {
    pub slices: Vec<TableCorpus>,
    pub tokens: Vec<u64>,
}

impl TrainSlices {
    pub fn new(off: &Offline) -> Self {
        let slices = api::corpus_slices(&off.corpus, TRAIN_SLICE);
        let tokens = slices
            .iter()
            .map(|c| {
                c.tables
                    .iter()
                    .map(|t| off.pipeline.serialize(t, &t.caption).len() as u64)
                    .sum()
            })
            .collect();
        TrainSlices { slices, tokens }
    }
}

pub fn fresh_tapas(off: &Offline) -> Tapas {
    Tapas::new(&off.pipeline.default_config())
}

/// One `TrainRun::mlm` of one epoch over slice `n`: [`STEPS_PER_RUN`]
/// optimizer steps that go on training `model`. Returns the seconds it took
/// and the loss of each step.
pub fn train_run(
    off: &Offline,
    slices: &TrainSlices,
    n: usize,
    model: &mut Tapas,
    supervisor: &SupervisorConfig,
    obs: ObsOptions,
) -> io::Result<(f64, Vec<f32>)> {
    let corpus = &slices.slices[n % slices.slices.len()];
    let t0 = Instant::now();
    let report = api::train_run(supervisor, obs)
        .mlm(model, corpus, off.pipeline.tokenizer())
        .map_err(|e| other(format!("{e:?}")))?;
    Ok((t0.elapsed().as_secs_f64(), report.mlm_loss))
}

/// Compares every sampled encode reply bit for bit with
/// `Pipeline::try_encode` on a model built from the same configuration: the
/// server's "bit-identical to sequential" claim.
pub fn verify_encodes(off: &mut Offline, samples: &[EncodeSample]) -> Check {
    let mut student: Option<BoxedEncoder> = None;
    let mut expected: HashMap<&str, Vec<u32>> = HashMap::new();
    let mut wrong = Vec::new();
    for s in samples {
        if !expected.contains_key(s.body.as_str()) {
            let line = format!("{{\"id\": 0, {}", s.body);
            let Some(req) = api::decode_encode(&line) else {
                wrong.push(format!("request does not parse back: {line}"));
                continue;
            };
            let model = if req.spec == api::student_int8() {
                student.get_or_insert_with(|| api::encoder(req.spec, &off.pipeline))
            } else {
                &mut off.teacher
            };
            match off
                .pipeline
                .try_encode(model.as_mut(), &req.table, &req.context)
            {
                Ok(enc) => {
                    let embedding = enc.table_embedding();
                    let bits = embedding.data().iter().map(|v| v.to_bits());
                    expected.insert(&s.body, bits.collect());
                }
                Err(e) => {
                    wrong.push(format!("benchmark-side encode failed: {e}"));
                    continue;
                }
            }
        }
        if client::reply_embedding_bits(&s.reply).as_ref() != expected.get(s.body.as_str()) {
            wrong.push(format!(
                "reply differs from a sequential encode: {}",
                s.reply
            ));
        }
    }
    check(
        "encode replies are bit-identical to Pipeline::try_encode",
        wrong.is_empty() && !samples.is_empty(),
        format!(
            "{} sampled, {} wrong{}",
            samples.len(),
            wrong.len(),
            wrong.first().map_or(String::new(), |w| format!(": {w}"))
        ),
    )
}

/// Every sampled search asked for a table of the index under its own
/// caption and must have got that table back first.
pub fn verify_searches(samples: &[SearchSample]) -> Check {
    let wrong: Vec<&SearchSample> = samples
        .iter()
        .filter(|s| client::reply_top_table_id(&s.reply) != Some(s.expect_table.as_str()))
        .collect();
    check(
        "a search for an indexed table returns it at rank 0",
        wrong.is_empty() && !samples.is_empty(),
        format!(
            "{} sampled, {} wrong{}",
            samples.len(),
            wrong.len(),
            wrong.first().map_or(String::new(), |s| format!(
                ": wanted {} in {}",
                s.expect_table, s.reply
            ))
        ),
    )
}
