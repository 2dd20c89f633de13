//! End-to-end `{"cmd": "search"}` wire-verb suite: a server started with an
//! IVF index over real synthetic-KB embeddings answers ranked ANN queries,
//! and the typed failure paths (`IndexNotLoaded`, `BadK`) stay typed.

use ntr::corpus::{CorpusConfig, TableCorpus, World, WorldConfig};
use ntr::table::{LinearizerOptions, Table};
use ntr::{build_encoder, EncoderSpec, ModelKind, Pipeline};
use ntr_serve::json::{self, Json};
use ntr_serve::{IvfConfig, IvfIndex, SearchIndex, ServeConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const MAX_TOKENS: usize = 48;

struct Fixture {
    server: Server,
    tables: Vec<Table>,
    dir: PathBuf,
}

/// Encodes a synthetic-KB corpus, persists store + index, and starts a
/// server over them with the exact same pipeline/model configuration (the
/// repo's bit-identical-encode guarantee makes the spaces line up).
fn start_with_index(n_tables: usize) -> Fixture {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables,
            headerless_prob: 0.0,
            ..CorpusConfig::default()
        },
    );
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(400)
        .options(LinearizerOptions {
            max_tokens: MAX_TOKENS,
            ..LinearizerOptions::default()
        })
        .build()
        .expect("vocab");
    let model_cfg = ntr_models::ModelConfig::tiny(pipeline.tokenizer().vocab_size());

    let mut model = build_encoder(EncoderSpec::f32(ModelKind::Bert), &model_cfg).expect("f32 spec");
    let mut store = ntr_serve::EmbeddingStore::new(model_cfg.d_model);
    for t in &corpus.tables {
        let enc = pipeline.encode(model.as_mut(), t, "");
        store
            .push(t.id.clone(), enc.table_embedding().data())
            .unwrap();
    }
    store.set_meta("model", ModelKind::Bert.name());
    let ivf = IvfIndex::build(&store, &IvfConfig::default()).unwrap();

    let dir =
        std::env::temp_dir().join(format!("ntr_search_verb_{}_{n_tables}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    store.save(&dir.join(SearchIndex::STORE_FILE)).unwrap();
    ivf.save(&dir.join(SearchIndex::IVF_FILE)).unwrap();
    let index = SearchIndex::open(&dir).unwrap();

    let cfg = ServeConfig {
        max_batch: 4,
        n_workers: 2,
        model_config: Some(model_cfg),
        ..ServeConfig::default()
    };
    let server = Server::start_with_index(
        pipeline,
        cfg,
        ServerConfig::default(),
        0,
        ntr_obs::Obs::disabled(),
        Some(Arc::new(index)),
    )
    .expect("bind ephemeral port");
    Fixture {
        server,
        tables: corpus.tables,
        dir,
    }
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    (
        BufReader::new(stream.try_clone().expect("clone stream")),
        stream,
    )
}

fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    stream: &mut TcpStream,
    line: &str,
) -> Json<'static> {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    json::parse(resp.trim()).expect("response is JSON")
}

/// Renders a search request line for `table`, escaping every string.
fn search_line(id: u64, table: &Table, extra: &str) -> String {
    let mut out = format!("{{\"cmd\": \"search\", \"id\": {id}{extra}, \"columns\": [");
    for (i, col) in table.columns().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(&mut out, &col.name);
    }
    out.push_str("], \"rows\": [");
    for r in 0..table.n_rows() {
        if r > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for c in 0..table.n_cols() {
            if c > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, &table.cell(r, c).raw);
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

#[test]
fn search_returns_the_query_table_at_rank_zero() {
    let fx = start_with_index(80);
    let (mut reader, mut stream) = connect(fx.server.addr());

    for (id, t_idx) in [(1u64, 5usize), (2, 33), (3, 77)] {
        let table = &fx.tables[t_idx];
        let doc = roundtrip(
            &mut reader,
            &mut stream,
            &search_line(id, table, ", \"k\": 3"),
        );
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(id));
        assert_eq!(doc.get("k").and_then(Json::as_u64), Some(3));
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 3);
        // The stored table itself: its own centroid is always the top
        // probe, so rank 0 at distance 0 is guaranteed, not probabilistic.
        assert_eq!(
            results[0].get("table_id").and_then(Json::as_str),
            Some(fx.tables[t_idx].id.as_str())
        );
        let scanned = doc.get("scanned").and_then(Json::as_u64).unwrap();
        assert!(scanned > 0 && scanned <= fx.tables.len() as u64);
    }

    // The model field is optional (falls back to the index's build model)
    // but an explicit matching choice works too.
    let doc = roundtrip(
        &mut reader,
        &mut stream,
        &search_line(9, &fx.tables[5], ", \"k\": 1, \"model\": \"bert\""),
    );
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");

    fx.server.stop();
    fx.server.wait();
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn bad_k_is_typed() {
    let fx = start_with_index(40);
    let (mut reader, mut stream) = connect(fx.server.addr());

    for (id, k) in [(1u64, "0"), (2, "100000")] {
        let doc = roundtrip(
            &mut reader,
            &mut stream,
            &search_line(id, &fx.tables[0], &format!(", \"k\": {k}")),
        );
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{doc:?}");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(id));
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("BadK"));
    }

    // The connection stays usable after typed rejections.
    let doc = roundtrip(
        &mut reader,
        &mut stream,
        &search_line(3, &fx.tables[0], ", \"k\": 2"),
    );
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");

    fx.server.stop();
    fx.server.wait();
    let _ = std::fs::remove_dir_all(&fx.dir);
}

#[test]
fn search_without_an_index_is_index_not_loaded() {
    let table = Table::from_strings("q", &["a", "b"], &[&["1", "2"]]);
    let pipeline = Pipeline::builder()
        .vocab_from_tables(std::slice::from_ref(&table))
        .vocab_size(300)
        .build()
        .expect("vocab");
    let cfg = ServeConfig {
        n_workers: 1,
        model_config: Some(ntr_models::ModelConfig::tiny(
            pipeline.tokenizer().vocab_size(),
        )),
        ..ServeConfig::default()
    };
    let server = Server::start_with(
        pipeline,
        cfg,
        ServerConfig::default(),
        0,
        ntr_obs::Obs::disabled(),
    )
    .expect("bind");
    let (mut reader, mut stream) = connect(server.addr());
    let doc = roundtrip(&mut reader, &mut stream, &search_line(7, &table, ""));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{doc:?}");
    let err = doc.get("error").unwrap();
    assert_eq!(
        err.get("kind").and_then(Json::as_str),
        Some("IndexNotLoaded")
    );
    // Plain encode still works on the same connection.
    let doc = roundtrip(
        &mut reader,
        &mut stream,
        r#"{"id": 8, "model": "bert", "columns": ["a", "b"], "rows": [["1", "2"]]}"#,
    );
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
    server.stop();
    server.wait();
}
