//! Overload drill: drive more concurrent requests than the admission
//! queue allows and check the shed policy end to end — excess requests get
//! an immediate typed `Overloaded` rejection, no connection is ever
//! dropped, the shed counter is exact and monotonic across waves, and the
//! server serves normally once the burst passes.
//!
//! Determinism comes from the service's accounting: `queue_depth` rises at
//! admission and falls only when the batcher takes a batch. Each wave is
//! sent behind a plug request whose flush is stalled (`serve-slow@N`), so
//! the batcher takes nothing while the wave lands: with `queue_cap = 2`
//! exactly 2 requests of each wave are admitted and the rest shed.

use ntr::Pipeline;
use ntr_serve::json::{self, Json};
use ntr_serve::{ServeConfig, Server, ServerConfig};
use ntr_table::{LinearizerOptions, Table};
use ntr_tensor::faults::FaultPlan;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const WAVE: usize = 8;
const QUEUE_CAP: usize = 2;

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
        max_batch: 64, // a wave's admitted requests leave in one flush
        n_workers: 1,
        cache_bytes: 0, // cache off: hits would bypass admission
        queue_cap: QUEUE_CAP,
        model_config: Some(ntr_models::ModelConfig::tiny(
            pipeline.tokenizer().vocab_size(),
        )),
        // Flushes 1 and 3 are the two plugs (2 is wave 1's admitted pair).
        faults: Some(FaultPlan::parse("serve-slow@1,serve-slow@3").expect("valid fault spec")),
        ..ServeConfig::default()
    };
    Server::start_with(
        pipeline,
        cfg,
        ServerConfig::default(),
        0,
        ntr_obs::Obs::disabled(),
    )
    .expect("bind ephemeral port")
}

fn request(id: u64) -> String {
    format!(
        r#"{{"id": {id}, "model": "bert", "context": "wave {id}", "columns": ["Country", "Capital"], "rows": [["France", "Paris"]]}}"#
    )
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    s
}

fn read_doc(reader: &mut BufReader<TcpStream>) -> Json<'static> {
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    json::parse(resp.trim()).expect("valid JSON response")
}

/// Sends a plug request whose flush stalls and returns once the batcher
/// has taken it, i.e. once nothing more leaves the queue until the stall
/// ends. The lines of one connection are handled in order, so a `health`
/// sent after the plug sees `queue_depth` 1 until the batcher picks the
/// plug up and 0 from then on.
fn plug(addr: std::net::SocketAddr, id: u64) -> BufReader<TcpStream> {
    let mut reader = BufReader::new(connect(addr));
    let health = "{\"cmd\": \"health\"}\n";
    reader
        .get_mut()
        .write_all(format!("{}\n{health}", request(id)).as_bytes())
        .expect("write plug");
    while read_doc(&mut reader)
        .get("queue_depth")
        .and_then(Json::as_u64)
        != Some(0)
    {
        reader
            .get_mut()
            .write_all(health.as_bytes())
            .expect("write health");
    }
    reader
}

/// Opens WAVE connections, plugs the batcher, fires one request on each
/// connection, reads one response from each. Returns (ok_count,
/// shed_count); panics on a dropped connection or any response that is
/// neither a success nor `Overloaded`.
fn run_wave(addr: std::net::SocketAddr, base_id: u64) -> (usize, usize) {
    let conns: Vec<TcpStream> = (0..WAVE).map(|_| connect(addr)).collect();
    let mut plug = plug(addr, base_id + WAVE as u64);
    for (i, conn) in conns.iter().enumerate() {
        (&mut &*conn)
            .write_all(format!("{}\n", request(base_id + i as u64)).as_bytes())
            .expect("write request");
    }
    assert_eq!(
        read_doc(&mut plug).get("ok"),
        Some(&Json::Bool(true)),
        "the plug itself only ran late"
    );

    let (mut ok, mut shed) = (0, 0);
    for (i, conn) in conns.into_iter().enumerate() {
        let mut reader = BufReader::new(conn);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        assert!(
            !resp.is_empty(),
            "connection {i} was dropped instead of answered"
        );
        let doc = json::parse(resp.trim()).expect("valid JSON response");
        assert_eq!(
            doc.get("id").and_then(Json::as_u64),
            Some(base_id + i as u64),
            "response echoes the request id"
        );
        match doc.get("ok") {
            Some(&Json::Bool(true)) => ok += 1,
            Some(&Json::Bool(false)) => {
                let err = doc.get("error").expect("typed error");
                assert_eq!(
                    err.get("kind").and_then(Json::as_str),
                    Some("Overloaded"),
                    "the only rejection under overload is Overloaded: {resp}"
                );
                // The rejection tells the client how full the queue was
                // and that retrying is safe.
                let msg = err
                    .get("message")
                    .and_then(Json::as_str)
                    .expect("error message");
                assert!(
                    msg.contains(&format!("/{QUEUE_CAP}")) && msg.contains("retry"),
                    "shed message names the queue and advises retry: {msg}"
                );
                shed += 1;
            }
            other => panic!("response {i} has no ok field: {other:?}"),
        }
    }
    (ok, shed)
}

#[test]
fn overload_sheds_exactly_and_recovers() {
    let server = start_server();
    let addr = server.addr();

    // Wave 1: 8 requests against a queue of 2 while the batcher is held.
    let (ok1, shed1) = run_wave(addr, 100);
    assert_eq!(ok1, QUEUE_CAP, "wave 1 admits exactly queue_cap requests");
    assert_eq!(shed1, WAVE - QUEUE_CAP, "wave 1 sheds the rest");

    // Wave 2: the queue drained with wave 1's flush; the same policy
    // applies again and the shed counter keeps climbing — it never resets.
    let (ok2, shed2) = run_wave(addr, 200);
    assert_eq!(ok2, QUEUE_CAP, "wave 2 admits exactly queue_cap requests");
    assert_eq!(shed2, WAVE - QUEUE_CAP, "wave 2 sheds the rest");

    // After the bursts: a lone request sails through.
    let mut calm = BufReader::new(connect(addr));
    calm.get_mut()
        .write_all(format!("{}\n", request(300)).as_bytes())
        .expect("write request");
    assert_eq!(
        read_doc(&mut calm).get("ok"),
        Some(&Json::Bool(true)),
        "server serves normally after the overload passes"
    );
    drop(calm);

    server.stop();
    let stats = server.wait();
    // Exact, monotonic accounting: the server-side shed counter equals the
    // client-observed rejections across both waves.
    assert_eq!(stats.service.shed, (shed1 + shed2) as u64);
    // `requests` counts every submission, shed ones included: two waves
    // with a plug each, and the calm request.
    assert_eq!(stats.service.requests, (2 * (WAVE + 1) + 1) as u64);
    // Shedding is per-request, never per-connection.
    assert_eq!(stats.event_loop.conns_accepted, (2 * (WAVE + 1) + 1) as u64);
    assert_eq!(stats.event_loop.conns_rejected, 0);
    assert_eq!(stats.event_loop.accept_errors, 0);
}
