//! The only file that names items of the workspace. Everything the
//! benchmark measures it reaches through these public items, so a change to
//! the library that keeps them keeps the benchmark compiling.
//!
//! Configuration structs are filled with `..Default::default()` and name only
//! `max_batch`, `max_wait`, `n_workers`, `cache_bytes` and `queue_cap`; the
//! model configuration is the pipeline's own default (d=64, 4 heads, 2
//! layers, d_ff=128, seed 42), which server and benchmark therefore share.

use std::sync::Arc;
use std::time::Duration;

use ntr::corpus::tables::CorpusConfig;
use ntr::corpus::{World, WorldConfig};
use ntr::table::{EncodedTable, LinearizerOptions};
use ntr::tasks::trainer::TrainerOptions;
use ntr::tasks::TrainConfig;
use ntr::{build_encoder, EncoderSpec, ModelKind};
use ntr_serve::wire::WireRequest;
use ntr_serve::{content_key, ServeStats};

pub use ntr::corpus::tables::TableCorpus;
pub use ntr::models::{EmbeddingFlags, EncoderInput, SequenceEncoder, TableEmbeddings, Tapas};
pub use ntr::nn::encoder::FeedForward;
pub use ntr::nn::init::SeededInit;
pub use ntr::nn::{Encoder, EncoderLayer, LayerNorm, MultiHeadAttention};
pub use ntr::obs::{Obs, ObsOptions};
pub use ntr::pipeline::{EncodeRequest, TableEncoding};
pub use ntr::table::Table;
pub use ntr::tasks::supervisor::SupervisorConfig;
pub use ntr::tasks::TrainRun;
pub use ntr::tensor::{par, quant, simd, Tensor};
pub use ntr::Pipeline;
pub use ntr_index::{EmbeddingStore, IvfConfig, IvfIndex, SearchIndex};
pub use ntr_serve::poller::{Event as PollEvent, Interest, Poller};
pub use ntr_serve::wire::{ok_response, parse_request};
pub use ntr_serve::{EmbeddingCache, EmbeddingService, ServeRequest, Server, ServerStats};

pub type BoxedEncoder = Box<dyn SequenceEncoder + Send>;

/// Token budget of every serialization in the benchmark.
pub const MAX_TOKENS: usize = 128;
/// Replicas of the service; the reference box has two cores.
pub const N_WORKERS: usize = 2;

pub fn teacher_f32() -> EncoderSpec {
    EncoderSpec::f32(ModelKind::Tapas)
}

pub fn student_f32() -> EncoderSpec {
    EncoderSpec::f32(ModelKind::RowStudent)
}

pub fn student_int8() -> EncoderSpec {
    EncoderSpec::int8(ModelKind::RowStudent)
}

pub fn world(seed: u64) -> World {
    World::generate(WorldConfig {
        seed,
        ..WorldConfig::default()
    })
}

/// Tables of 6 to 12 rows: about 108 tokens at the median under
/// [`MAX_TOKENS`].
pub fn corpus(world: &World, n_tables: usize, seed: u64) -> TableCorpus {
    TableCorpus::generate(
        world,
        &CorpusConfig {
            n_tables,
            min_rows: 6,
            max_rows: 12,
            seed,
            ..CorpusConfig::default()
        },
    )
}

fn linearizer_options() -> LinearizerOptions {
    LinearizerOptions {
        max_tokens: MAX_TOKENS,
        ..LinearizerOptions::default()
    }
}

/// Trains the WordPiece vocabulary on `vocab_tables` and builds the pipeline.
pub fn pipeline(vocab_tables: &[Table]) -> Pipeline {
    Pipeline::builder()
        .vocab_from_tables(vocab_tables)
        .options(linearizer_options())
        .build()
        .expect("a corpus of generated tables trains a non-empty vocabulary")
}

/// A second pipeline over the same trained tokenizer (the server owns one,
/// the benchmark checks replies against the other).
pub fn pipeline_like(p: &Pipeline) -> Pipeline {
    Pipeline::builder()
        .options(linearizer_options())
        .build_with_tokenizer(p.tokenizer().clone())
}

pub fn encoder(spec: EncoderSpec, p: &Pipeline) -> BoxedEncoder {
    build_encoder(spec, &p.default_config()).expect("the three benchmark specs are valid")
}

fn serve_config() -> ntr_serve::ServeConfig {
    ntr_serve::ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        n_workers: N_WORKERS,
        cache_bytes: 64 << 20,
        queue_cap: 256,
        ..ntr_serve::ServeConfig::default()
    }
}

/// The server under test: loopback TCP, default batching, two workers, a
/// 64 MiB cache, observability off.
pub fn start_server(p: Pipeline, index: Option<Arc<SearchIndex>>) -> std::io::Result<Server> {
    Server::start_with_index(
        p,
        serve_config(),
        ntr_serve::ServerConfig::default(),
        0,
        Obs::disabled(),
        index,
    )
}

/// The same service without the socket layer.
pub fn start_service(p: Pipeline, obs: Obs) -> std::io::Result<EmbeddingService> {
    EmbeddingService::start(p, serve_config(), obs)
}

/// The counters of a service over its whole life that the report reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub requests: u64,
    pub batches: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    pub internal: u64,
}

pub fn serve_counters(s: &ServeStats) -> ServeCounters {
    ServeCounters {
        requests: s.requests,
        batches: s.batches,
        hits: s.cache.hits,
        misses: s.cache.misses,
        evictions: s.cache.evictions,
        shed: s.shed,
        deadline_exceeded: s.deadline_exceeded,
        internal: s.internal,
    }
}

/// Parses an encode request line the way the server does.
pub fn decode_encode(line: &str) -> Option<ServeRequest> {
    match parse_request(line) {
        Ok(WireRequest::Encode { req, .. }) => Some(req),
        _ => None,
    }
}

/// An empty store stamped the way `ntr index build` stamps it, so that the
/// server resolves a search's model and precision from it.
pub fn teacher_store(d_model: usize) -> EmbeddingStore {
    let mut store = EmbeddingStore::new(d_model);
    store.set_meta("model", teacher_f32().kind.name());
    store.set_meta("precision", teacher_f32().precision.name());
    store
}

/// `corpus` cut into corpora of `len` tables each.
pub fn corpus_slices(corpus: &TableCorpus, len: usize) -> Vec<TableCorpus> {
    corpus
        .tables
        .chunks_exact(len)
        .zip(corpus.kinds.chunks_exact(len))
        .map(|(tables, kinds)| TableCorpus {
            tables: tables.to_vec(),
            kinds: kinds.to_vec(),
        })
        .collect()
}

/// Trace and metrics both on, written under `dir`.
pub fn obs_armed(dir: &std::path::Path, stem: &str) -> ObsOptions {
    ObsOptions {
        trace: Some(dir.join(format!("obs-{stem}-trace.jsonl"))),
        metrics: Some(dir.join(format!("obs-{stem}-metrics.json"))),
    }
}

/// Packages hidden states the way `Pipeline::encode_serialized` does.
pub fn table_encoding(encoded: EncodedTable, states: Tensor) -> TableEncoding {
    TableEncoding { encoded, states }
}

/// What the server's cache hashes for a request.
pub fn cache_key(p: &Pipeline, req: &ServeRequest) -> u64 {
    content_key(
        req.spec,
        p.linearizer().name(),
        p.options(),
        &req.table,
        &req.context,
    )
}

/// One epoch at batch 8 under `supervisor`, with `obs`.
pub fn train_run(supervisor: &SupervisorConfig, obs: ObsOptions) -> TrainRun<'static> {
    TrainRun::new(TrainConfig {
        epochs: 1,
        batch_size: 8,
        ..TrainConfig::default()
    })
    .max_tokens(MAX_TOKENS)
    .trainer(&TrainerOptions {
        obs,
        ..TrainerOptions::default()
    })
    .supervisor(supervisor)
}
