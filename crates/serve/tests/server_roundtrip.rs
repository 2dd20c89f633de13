//! In-process TCP roundtrip: a real [`Server`] on an ephemeral port,
//! exercised over the NDJSON wire protocol — success responses, typed
//! error responses, cache hits across connections, and the shutdown
//! handshake.

use ntr::Pipeline;
use ntr_serve::json::{self, Json};
use ntr_serve::{ServeConfig, Server};
use ntr_table::{LinearizerOptions, Table};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn sample() -> Table {
    Table::from_strings(
        "countries",
        &["Country", "Capital"],
        &[&["France", "Paris"], &["Japan", "Tokyo"]],
    )
}

fn start_server() -> Server {
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&[sample()])
        .vocab_size(300)
        .options(LinearizerOptions {
            max_tokens: 48,
            ..Default::default()
        })
        .build()
        .expect("vocab is non-empty");
    let cfg = ServeConfig {
        max_batch: 4,
        n_workers: 2,
        cache_bytes: 32 << 20,
        queue_cap: 256,
        model_config: Some(ntr_models::ModelConfig::tiny(
            pipeline.tokenizer().vocab_size(),
        )),
        ..ServeConfig::default()
    };
    Server::start(pipeline, cfg, 0, ntr_obs::Obs::disabled()).expect("bind ephemeral port")
}

fn roundtrip(stream: &mut (BufReader<TcpStream>, TcpStream), line: &str) -> Json<'static> {
    stream
        .1
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    let mut resp = String::new();
    stream.0.read_line(&mut resp).expect("read response");
    json::parse(resp.trim()).expect("response is valid JSON")
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    (
        BufReader::new(stream.try_clone().expect("clone stream")),
        stream,
    )
}

const REQ: &str = r#"{"id": 1, "model": "bert", "context": "capitals", "columns": ["Country", "Capital"], "rows": [["France", "Paris"], ["Japan", "Tokyo"]]}"#;

#[test]
fn wire_protocol_end_to_end() {
    let server = start_server();
    let addr = server.addr();

    // Success response with the full embedding.
    let mut conn = connect(addr);
    let doc = roundtrip(&mut conn, REQ);
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("cached"), Some(&Json::Bool(false)));
    let d_model = doc.get("d_model").and_then(Json::as_u64).expect("d_model");
    let emb = doc
        .get("embedding")
        .and_then(Json::as_arr)
        .expect("embedding");
    assert_eq!(emb.len() as u64, d_model);
    let first: Vec<f64> = emb.iter().filter_map(Json::as_f64).collect();
    assert!(first.iter().all(|v| v.is_finite()));

    // The identical request from a *different* connection hits the cache
    // and carries bit-identical floats (same shortest-roundtrip decimals).
    let mut conn2 = connect(addr);
    let doc2 = roundtrip(&mut conn2, &REQ.replace("\"id\": 1", "\"id\": 2"));
    assert_eq!(doc2.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc2.get("cached"), Some(&Json::Bool(true)));
    let second: Vec<f64> = doc2
        .get("embedding")
        .and_then(Json::as_arr)
        .expect("embedding")
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    assert_eq!(first, second);

    // Unknown model -> structured BadModelChoice, connection stays usable.
    let doc3 = roundtrip(
        &mut conn,
        r#"{"id": 3, "model": "gpt", "columns": [], "rows": []}"#,
    );
    assert_eq!(doc3.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        doc3.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("BadModelChoice")
    );

    // Malformed JSON -> parse error response, not a dropped connection.
    let doc4 = roundtrip(&mut conn, "{not json");
    assert_eq!(doc4.get("ok"), Some(&Json::Bool(false)));

    // Shutdown handshake: ack, then the server drains.
    let ack = roundtrip(&mut conn, r#"{"cmd": "shutdown"}"#);
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    drop(conn);
    drop(conn2);
    let stats = server.wait();
    let svc = stats.service;
    assert_eq!(svc.requests, 2); // the bad-model and parse errors never reach the service
    assert_eq!(svc.cache.hits, 1);
    assert_eq!(svc.errors, 0);
    assert_eq!(stats.event_loop.conns_accepted, 2);
    assert_eq!(stats.event_loop.accept_errors, 0);
}

#[test]
fn stop_unblocks_wait_without_clients() {
    let server = start_server();
    server.stop();
    let stats = server.wait();
    assert_eq!(stats.service.requests, 0);
}
