//! Adversarial protocol suite: the server's parsers and framing layer
//! against hostile input — random bytes, mutated requests, pathological
//! nesting, oversized lines, truncated frames, and raw garbage over TCP.
//! The invariants: no panic ever, typed error responses only, and a
//! connection that misbehaves at the protocol level keeps working.

use ntr::Pipeline;
use ntr_serve::json::{self, Json};
use ntr_serve::wire;
use ntr_serve::{ServeConfig, Server, ServerConfig};
use ntr_table::{LinearizerOptions, Table};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn sample() -> Table {
    Table::from_strings(
        "countries",
        &["Country", "Capital"],
        &[&["France", "Paris"], &["Japan", "Tokyo"]],
    )
}

fn start_server(server_cfg: ServerConfig) -> Server {
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
    Server::start_with(pipeline, cfg, server_cfg, 0, ntr_obs::Obs::disabled())
        .expect("bind ephemeral port")
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

fn roundtrip(conn: &mut (BufReader<TcpStream>, TcpStream), line: &[u8]) -> Json<'static> {
    conn.1.write_all(line).expect("write request");
    conn.1.write_all(b"\n").expect("write newline");
    let mut resp = String::new();
    conn.0.read_line(&mut resp).expect("read response");
    assert!(!resp.is_empty(), "connection closed instead of responding");
    json::parse(resp.trim()).expect("response is valid JSON")
}

fn error_kind(doc: &Json) -> String {
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("typed error kind")
        .to_string()
}

const VALID: &str = r#"{"id": 9, "model": "bert", "context": "caps", "columns": ["Country", "Capital"], "rows": [["France", "Paris"]]}"#;

// ---------------------------------------------------------------------------
// Pure parser fuzz (no sockets): json::parse and wire::parse_request must
// never panic and must return typed errors, whatever bytes arrive.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (lossily decoded, as the server does for any frame
    /// it accepts) never panic the JSON parser.
    #[test]
    fn json_parser_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255u8, 0..300),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text); // Ok or Err — never a panic
    }

    /// Printable-ASCII soup — heavy on JSON structural characters — never
    /// panics either parser, and wire errors always carry a non-empty kind.
    #[test]
    fn parsers_survive_printable_soup(line in "[ -~]{0,200}") {
        let _ = json::parse(&line);
        if let Err(e) = wire::parse_request(line.trim()) {
            prop_assert!(!e.kind.is_empty());
            prop_assert!(!e.message.is_empty());
        }
    }

    /// Mutations of a valid request (truncation plus byte splices) parse to
    /// Ok or a typed error — no panics, no uncategorized failures.
    #[test]
    fn mutated_valid_requests_stay_typed(
        cut in 0usize..=120,
        splices in proptest::collection::vec((0usize..120, 0u8..=255u8), 0..8),
    ) {
        let mut bytes = VALID.as_bytes().to_vec();
        for &(pos, b) in &splices {
            let i = pos % bytes.len();
            bytes[i] = b;
        }
        let keep = bytes.len() - cut.min(bytes.len());
        bytes.truncate(keep);
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = wire::parse_request(text.trim()) {
            prop_assert!(!e.kind.is_empty());
        }
    }
}

/// Deep nesting is rejected with a bounded-depth error instead of a stack
/// overflow — the classic `[[[[…` byte-to-stack-frame amplifier.
#[test]
fn deep_nesting_is_rejected_cheaply() {
    for bomb in [
        "[".repeat(200_000),
        "{\"k\":".repeat(200_000),
        format!("{}1{}", "[".repeat(500), "]".repeat(500)),
    ] {
        let err = json::parse(&bomb).expect_err("hostile nesting must fail");
        assert!(!err.is_empty());
    }
    let e = wire::parse_request(&"[".repeat(200_000)).expect_err("typed error");
    assert_eq!(e.kind, "BadRequest");
}

// ---------------------------------------------------------------------------
// Over TCP: protocol violations get error responses; the connection (and
// the server) keep working afterwards.
// ---------------------------------------------------------------------------

/// An oversized request line is answered with a typed `LineTooLong`, the
/// line is discarded with bounded memory, and the same connection then
/// serves a normal request.
#[test]
fn oversized_line_gets_typed_error_and_connection_survives() {
    let server = start_server(ServerConfig {
        max_line_bytes: 4 << 10,
        ..ServerConfig::default()
    });
    let mut conn = connect(server.addr());

    // 64 KiB of junk on one line: 16x the limit.
    let mut big = vec![b'x'; 64 << 10];
    big.push(b'\n');
    conn.1.write_all(&big).expect("write oversized line");
    let mut resp = String::new();
    conn.0.read_line(&mut resp).expect("read rejection");
    let doc = json::parse(resp.trim()).expect("valid JSON rejection");
    assert_eq!(error_kind(&doc), "LineTooLong");
    assert_eq!(doc.get("id"), Some(&Json::Null));

    // Same connection, normal request: still served.
    let doc = roundtrip(&mut conn, VALID.as_bytes());
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(9));

    server.stop();
    let stats = server.wait();
    assert_eq!(stats.event_loop.oversized_lines, 1);
    assert_eq!(stats.service.requests, 1, "junk never reached the service");
}

/// Garbage frames — malformed JSON, non-UTF-8 bytes, wrong shapes — each
/// get an error response in order, without killing the connection.
#[test]
fn garbage_frames_get_error_responses_in_order() {
    let server = start_server(ServerConfig::default());
    let mut conn = connect(server.addr());

    let cases: &[(&[u8], &str)] = &[
        (b"{not json", "BadRequest"),
        (b"\xff\xfe\x00\x80garbage", "BadRequest"),
        (b"[1, 2, 3]", "BadRequest"),
        (b"{\"cmd\": \"reboot\"}", "BadRequest"),
        (
            b"{\"id\": 1, \"model\": \"gpt\", \"columns\": [], \"rows\": []}",
            "BadModelChoice",
        ),
        (b"null", "BadRequest"),
        (b"\"just a string\"", "BadRequest"),
    ];
    for &(line, kind) in cases {
        let doc = roundtrip(&mut conn, line);
        assert_eq!(error_kind(&doc), kind, "line {:?}", line);
    }

    // After all that abuse, the connection still encodes tables.
    let doc = roundtrip(&mut conn, VALID.as_bytes());
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));

    server.stop();
    server.wait();
}

/// A truncated frame (no newline) followed by a disconnect is dropped
/// silently; a pipelined batch of garbage + valid lines in one write gets
/// one response per line. Error responses are written synchronously while
/// encode responses come back from the batcher, so pipelined responses are
/// correlated by the echoed `id`, not by arrival order.
#[test]
fn truncated_and_pipelined_frames() {
    let server = start_server(ServerConfig::default());

    // Truncated: half a request, then the client vanishes.
    {
        let conn = connect(server.addr());
        conn.1
            .try_clone()
            .unwrap()
            .write_all(&VALID.as_bytes()[..40])
            .expect("write partial frame");
        // no newline, drop the connection
    }

    // The server is still alive and answers every line of a pipelined
    // burst — blank lines excepted, which get no response at all.
    let mut conn = connect(server.addr());
    let mut burst = Vec::new();
    burst.extend_from_slice(b"{broken\n");
    burst.extend_from_slice(VALID.as_bytes());
    burst.extend_from_slice(b"\n\n"); // blank line: ignored, no response
    burst.extend_from_slice(b"{\"also\": \"broken\"\n");
    conn.1.write_all(&burst).expect("write pipelined burst");

    let mut docs = Vec::new();
    let mut resp = String::new();
    for i in 0..3 {
        resp.clear();
        conn.0.read_line(&mut resp).unwrap_or_else(|e| {
            panic!("response {i}: {e}");
        });
        docs.push(json::parse(resp.trim()).expect("valid JSON response"));
    }
    let oks: Vec<_> = docs
        .iter()
        .filter(|d| d.get("ok") == Some(&Json::Bool(true)))
        .collect();
    assert_eq!(oks.len(), 1, "exactly one line was a valid request");
    assert_eq!(
        oks[0].get("id").and_then(Json::as_u64),
        Some(9),
        "the success echoes the request id"
    );
    let kinds: Vec<_> = docs
        .iter()
        .filter(|d| d.get("ok") == Some(&Json::Bool(false)))
        .map(error_kind)
        .collect();
    assert_eq!(
        kinds,
        ["BadRequest", "BadRequest"],
        "both garbage lines get typed errors"
    );

    server.stop();
    server.wait();
}

/// CRLF line endings and leading/trailing whitespace are tolerated.
#[test]
fn crlf_and_whitespace_are_tolerated() {
    let server = start_server(ServerConfig::default());
    let mut conn = connect(server.addr());

    conn.1
        .write_all(format!("  {VALID}  \r\n").as_bytes())
        .expect("write CRLF request");
    let mut resp = String::new();
    conn.0.read_line(&mut resp).expect("read response");
    let doc = json::parse(resp.trim()).expect("valid JSON");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));

    server.stop();
    server.wait();
}
