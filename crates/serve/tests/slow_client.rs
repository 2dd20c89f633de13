//! Slow-client isolation: a client that dribbles its request one byte at
//! a time, or never reads its responses, must not stall anyone else. The
//! event loop reads partial frames without blocking, so a fast client on
//! the same server keeps getting prompt, bit-identical responses; a
//! stalled connection is eventually closed by the idle/slow-consumer
//! timeout and shows up in the counters.

use ntr::Pipeline;
use ntr_serve::json::{self, Json};
use ntr_serve::{ServeConfig, Server, ServerConfig};
use ntr_table::{LinearizerOptions, Table};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

fn roundtrip(conn: &mut (BufReader<TcpStream>, TcpStream), line: &str) -> Json<'static> {
    conn.1
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    let mut resp = String::new();
    conn.0.read_line(&mut resp).expect("read response");
    assert!(!resp.is_empty(), "connection closed instead of responding");
    json::parse(resp.trim()).expect("response is valid JSON")
}

fn embedding(doc: &Json) -> Vec<f64> {
    doc.get("embedding")
        .and_then(Json::as_arr)
        .expect("embedding array")
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

const REQ: &str = r#"{"id": 1, "model": "bert", "context": "capitals", "columns": ["Country", "Capital"], "rows": [["France", "Paris"], ["Japan", "Tokyo"]]}"#;

/// A byte-per-tick writer shares the server with a fast client. The fast
/// client's requests are answered promptly (the loop never blocks on the
/// dribbling read) and bit-identically; the slow writer still gets its
/// response in the end — trickling is progress, not a timeout.
#[test]
fn byte_per_tick_writer_does_not_stall_fast_client() {
    let server = start_server(ServerConfig::default());
    let addr = server.addr();

    // Slow client: one byte every 2ms, from a background thread.
    let slow = std::thread::spawn(move || {
        let mut conn = connect(addr);
        let line = format!(
            "{}\n",
            REQ.replace("\"id\": 1", "\"id\": 77")
                .replace("capitals", "slowly now")
        );
        for b in line.as_bytes() {
            conn.1
                .write_all(std::slice::from_ref(b))
                .expect("write byte");
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut resp = String::new();
        conn.0.read_line(&mut resp).expect("read slow response");
        json::parse(resp.trim()).expect("valid response for slow writer")
    });

    // Fast client, meanwhile: repeated roundtrips, all prompt.
    let mut fast = connect(addr);
    let first = roundtrip(&mut fast, REQ);
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
    let reference = embedding(&first);
    let mut slowest = Duration::ZERO;
    for i in 2..20u64 {
        let t0 = Instant::now();
        let doc = roundtrip(
            &mut fast,
            &REQ.replace("\"id\": 1", &format!("\"id\": {i}")),
        );
        slowest = slowest.max(t0.elapsed());
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "request {i}");
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)), "request {i}");
        assert_eq!(
            embedding(&doc),
            reference,
            "fast client must see bit-identical responses while the slow \
             writer dribbles"
        );
    }
    // Generous bound for single-core CI: the dribbled request takes ~300ms
    // of wall clock; a blocking server would stall each fast roundtrip for
    // that long.
    assert!(
        slowest < Duration::from_secs(5),
        "fast roundtrip took {slowest:?} while a slow writer was active"
    );

    let slow_doc = slow.join().expect("slow client thread");
    assert_eq!(slow_doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(slow_doc.get("id").and_then(Json::as_u64), Some(77));

    server.stop();
    let stats = server.wait();
    assert_eq!(
        stats.event_loop.idle_closes + stats.event_loop.slow_closes,
        0,
        "a trickling writer makes progress and must not be timed out"
    );
}

/// A client that sends requests and then never reads (nor writes) again is
/// closed by the timeout sweep; the fast client sharing the server never
/// notices.
#[test]
fn stalled_client_is_timed_out_without_hurting_others() {
    let server = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // The stalled client: two requests in, then silence, never reading.
    let mut stalled = connect(addr);
    stalled
        .1
        .write_all(format!("{REQ}\n{}\n", REQ.replace("\"id\": 1", "\"id\": 2")).as_bytes())
        .expect("write stalled requests");

    // Fast client keeps working through the stall window. Each roundtrip
    // also keeps its own connection inside the idle timeout.
    let mut fast = connect(addr);
    let first = roundtrip(&mut fast, &REQ.replace("\"id\": 1", "\"id\": 10"));
    let reference = embedding(&first);
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut i = 11u64;
    while Instant::now() < deadline {
        let doc = roundtrip(
            &mut fast,
            &REQ.replace("\"id\": 1", &format!("\"id\": {i}")),
        );
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(embedding(&doc), reference);
        i += 1;
        std::thread::sleep(Duration::from_millis(100));
    }

    // The stalled connection is gone: reads see EOF (typed close), not a
    // hang.
    stalled
        .1
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut sink = String::new();
    loop {
        sink.clear();
        match stalled.0.read_line(&mut sink) {
            Ok(0) => break,    // EOF: server closed the stalled connection
            Ok(_) => continue, // buffered responses from before the stall
            Err(e) => panic!("expected EOF from timed-out connection, got {e}"),
        }
    }

    server.stop();
    let stats = server.wait();
    assert!(
        stats.event_loop.idle_closes + stats.event_loop.slow_closes >= 1,
        "the stalled connection must be closed by the timeout sweep: {:?}",
        stats.event_loop
    );
    assert_eq!(stats.event_loop.accept_errors, 0);
}
