//! Tier-1 smoke over the crates the root package does not otherwise build:
//! `cargo test -q` must not be green while `ntr-serve` or `ntr-index` is
//! red. One pass each over the persisted-file paths (checkpoint resume,
//! store + index save/open), the in-process serving path, and the
//! server's cache-hit path over a socket. Seconds, not
//! minutes; the thorough suites stay in the crates.

use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::{ModelConfig, VanillaBert};
use ntr::tasks::trainer::TrainerOptions;
use ntr::tasks::{TrainConfig, TrainRun};
use ntr::{EncoderSpec, ModelKind, Pipeline};
use ntr_index::{EmbeddingStore, IvfConfig, IvfIndex, SearchIndex};
use ntr_serve::{EmbeddingService, ServeConfig, ServeRequest, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntr_smoke_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn corpus() -> TableCorpus {
    let world = World::generate(WorldConfig {
        n_countries: 8,
        n_people: 8,
        n_films: 6,
        n_clubs: 4,
        seed: 0x5A0,
    });
    TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 8,
            min_rows: 2,
            max_rows: 4,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 0x5A1,
        },
    )
}

#[test]
fn training_resumes_from_a_saved_checkpoint() {
    let corpus = corpus();
    let tok = ntr::corpus::vocab::train_tokenizer(&corpus, &[], 600);
    let mcfg = ModelConfig::tiny(tok.vocab_size());
    let tcfg = TrainConfig {
        epochs: 2,
        lr: 2e-3,
        batch_size: 4,
        warmup_frac: 0.1,
        seed: 0x5A2,
    };
    let dir = scratch("resume");
    let path = dir.join("mlm.ntrw");
    let run = |model: &mut VanillaBert, topts: &TrainerOptions| {
        TrainRun::new(tcfg)
            .max_tokens(48)
            .trainer(topts)
            .mlm(model, &corpus, &tok)
            .expect("training succeeds")
            .mlm_loss
    };

    let full = run(&mut VanillaBert::new(&mcfg), &TrainerOptions::default());
    let halt_at = full.len() / 2;
    assert!(halt_at >= 1, "need at least two steps");
    let head = run(
        &mut VanillaBert::new(&mcfg),
        &TrainerOptions {
            checkpoint: Some((path.clone(), 1)),
            halt_after: Some(halt_at as u64),
            ..TrainerOptions::default()
        },
    );
    // A differently seeded model: every weight must come from the file.
    let tail = run(
        &mut VanillaBert::new(&ModelConfig {
            seed: 0xDEAD,
            ..mcfg
        }),
        &TrainerOptions {
            resume: Some(path),
            ..TrainerOptions::default()
        },
    );
    let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&[head, tail].concat()), bits(&full));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_encodes_and_the_saved_index_finds_the_table() {
    let corpus = corpus();
    let pipeline = || {
        Pipeline::builder()
            .vocab_from_tables(&corpus.tables)
            .vocab_size(600)
            .build()
            .expect("vocab is non-empty")
    };
    let service = EmbeddingService::start(
        pipeline(),
        ServeConfig {
            n_workers: 1,
            ..ServeConfig::default()
        },
        ntr::obs::Obs::disabled(),
    )
    .expect("service starts");
    let spec = EncoderSpec::f32(ModelKind::Tapas);
    let p = pipeline();
    let dir = scratch("index");
    {
        let handle = service.handle();
        let embed = |i: usize| {
            let req = ServeRequest::with_spec(spec, corpus.tables[i].clone(), "");
            let reply = handle.submit(req).recv().unwrap().expect("encode succeeds");
            reply.encoding.table_embedding()
        };

        // Encode: the service answers with the bits of a direct pipeline call.
        let mut model = ntr::build_encoder(spec, &p.default_config()).expect("f32 spec");
        let direct = p.encode(model.as_mut(), &corpus.tables[0], "");
        assert_eq!(embed(0).data(), direct.table_embedding().data());

        // Search: store + index go to disk and come back through the codec.
        let mut store = EmbeddingStore::new(p.default_config().d_model);
        for i in 0..corpus.tables.len() {
            store.push(format!("tbl_{i}"), embed(i).data()).unwrap();
        }
        let ivf = IvfIndex::build(&store, &IvfConfig::default()).unwrap();
        store.save(&dir.join(SearchIndex::STORE_FILE)).unwrap();
        ivf.save(&dir.join(SearchIndex::IVF_FILE)).unwrap();
        let index = SearchIndex::open(&dir).expect("saved index opens");
        let nlist = index.ivf.nlist();
        let hits = index.search(embed(3).data(), 1, Some(nlist)).unwrap().hits;
        assert_eq!(index.store.id(hits[0].0 as usize), "tbl_3");
        assert_eq!(hits[0].1, 0.0);
    }
    // The batcher exits once every handle is gone.
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The event loop answers a repeated table from the cache: the second
/// request spells a cell with a `\u` escape, keys to the same entry, and
/// gets the first reply's bytes with only `cached` flipped.
#[test]
fn a_repeated_table_is_answered_from_the_cache_over_the_wire() {
    let corpus = corpus();
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(600)
        .build()
        .expect("vocab is non-empty");
    let cfg = ServeConfig {
        n_workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(pipeline, cfg, 0, ntr::obs::Obs::disabled()).expect("server starts");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| {
        writeln!(&stream, "{line}").expect("write request");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read reply");
        resp
    };
    let head = r#"{"id": 7, "model": "tapas", "context": "capitals", "columns": ["Country", "Capital"], "rows": [["France", "#;
    let first = ask(&format!(r#"{head}"Paris"], ["Japan", "Tokyo"]]}}"#));
    let second = ask(&format!(r#"{head}"Par\u0069s"], ["Japan", "Tokyo"]]}}"#));
    assert!(first.contains("\"ok\": true, \"cached\": false"), "{first}");
    assert!(second.contains("\"cached\": true"), "{second}");
    assert_eq!(
        second.replacen("\"cached\": true", "\"cached\": false", 1),
        first
    );
    ask(r#"{"cmd": "shutdown"}"#);
    let stats = server.wait().service;
    assert_eq!(
        (stats.requests, stats.cache.hits, stats.cache.misses),
        (2, 1, 1)
    );
}
