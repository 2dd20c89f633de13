//! Serve-side chaos drills: injected flush panics, slow flushes, request
//! deadlines, and degraded mode, exercised at both the service layer
//! (`EmbeddingService` in-process) and over a real TCP connection.
//!
//! The properties under test are the self-healing contract:
//!
//! * **no hangs** — every submission is answered, so every `recv` here
//!   uses a bounded timeout and a timeout is a test failure;
//! * **exactly-once typed responses** — a caught panic answers the
//!   affected requests with `EncodeError::Internal`, never drops them and
//!   never answers twice;
//! * **recovery** — the server keeps accepting, quarantined replicas
//!   rebuild from the shared seeded config, and post-recovery outputs are
//!   bit-identical to a fault-free run;
//! * **honest telemetry** — fault counters move and the emitted
//!   `serve_fault` / `serve_recover` events validate against the pinned
//!   trace schema.

use ntr::{EncodeError, ModelKind, Pipeline};
use ntr_serve::json::{self, Json};
use ntr_serve::{EmbeddingService, ServeConfig, ServeRequest, Server, INJECTED_FLUSH_PANIC_MSG};
use ntr_table::{LinearizerOptions, Table};
use ntr_tensor::faults::FaultPlan;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Generous bound for "this must answer": a hang fails fast instead of
/// wedging the suite.
const ANSWER_WITHIN: Duration = Duration::from_secs(30);

fn sample() -> Table {
    Table::from_strings(
        "countries",
        &["Country", "Capital"],
        &[&["France", "Paris"], &["Japan", "Tokyo"]],
    )
}

fn pipeline() -> Pipeline {
    Pipeline::builder()
        .vocab_from_tables(&[sample()])
        .vocab_size(300)
        .options(LinearizerOptions {
            max_tokens: 48,
            ..Default::default()
        })
        .build()
        .expect("vocab is non-empty")
}

/// A cache-off config so every request pays a real forward pass — the
/// drills are about the encode path, and bit-identity checks must not be
/// satisfied by a cache hit.
fn chaos_cfg(pipeline: &Pipeline, faults: Option<FaultPlan>) -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        n_workers: 2,
        cache_bytes: 0,
        queue_cap: 256,
        model_config: Some(ntr_models::ModelConfig::tiny(
            pipeline.tokenizer().vocab_size(),
        )),
        faults,
        ..ServeConfig::default()
    }
}

fn start_service(faults: Option<FaultPlan>, obs: ntr_obs::Obs) -> EmbeddingService {
    let pipeline = pipeline();
    let cfg = chaos_cfg(&pipeline, faults);
    EmbeddingService::start(pipeline, cfg, obs).expect("spawn service")
}

fn plan(spec: &str) -> Option<FaultPlan> {
    Some(FaultPlan::parse(spec).expect("valid fault spec"))
}

fn request(ctx: &str) -> ServeRequest {
    ServeRequest::new(ModelKind::Bert, sample(), ctx)
}

/// Polls `pred` until it holds or the bound elapses.
fn wait_for(what: &str, mut pred: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !pred() {
        assert!(t0.elapsed() < ANSWER_WITHIN, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn injected_panic_answers_every_request_exactly_once() {
    let service = start_service(plan("serve-panic@1"), ntr_obs::Obs::disabled());
    let handle = service.handle();

    // Four concurrent requests; the first flush panics on replica 0.
    let rxs: Vec<_> = (0..4)
        .map(|i| handle.submit(request(&format!("drill {i}"))))
        .collect();
    let mut oks = 0;
    let mut internals = 0;
    for rx in &rxs {
        match rx.recv_timeout(ANSWER_WITHIN).expect("no request may hang") {
            Ok(reply) => {
                assert!(!reply.cached, "cache is off in the drill");
                oks += 1;
            }
            Err(EncodeError::Internal { detail }) => {
                assert!(
                    detail.contains(INJECTED_FLUSH_PANIC_MSG),
                    "internal error carries the panic payload, got {detail:?}"
                );
                internals += 1;
            }
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
        // Exactly once: the completion is consumed, nothing else arrives.
        assert!(rx.try_recv().is_err(), "a request was answered twice");
    }
    assert_eq!(oks + internals, 4, "every request answered");
    assert!(internals >= 1, "the injected panic failed someone");

    // Recovery: the same requests now succeed on the rebuilt replica.
    for i in 0..4 {
        let rx = handle.submit(request(&format!("drill {i}")));
        rx.recv_timeout(ANSWER_WITHIN)
            .expect("post-recovery request answered")
            .expect("post-recovery request succeeds");
    }

    drop(handle); // the batcher drains and exits once every handle is gone
    let stats = service.shutdown();
    assert_eq!(stats.quarantined, 1, "exactly one replica quarantined");
    assert_eq!(stats.internal, internals as u64);
    assert_eq!(stats.requests, 8);
    assert_eq!(
        stats.restarts, 0,
        "a flush panic never restarts the batcher"
    );
}

#[test]
fn rebuilt_replica_is_bit_identical_to_a_fault_free_run() {
    // Faulted service: first flush panics, quarantine drops the models,
    // the next request rebuilds them from the shared seeded config.
    let faulted = start_service(plan("serve-panic@1"), ntr_obs::Obs::disabled());
    let handle = faulted.handle();
    let r = handle
        .submit(request("identity probe"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("answered");
    assert!(
        r.is_err(),
        "a single-request flush panics deterministically"
    );
    let rebuilt = handle
        .submit(request("identity probe"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("answered")
        .expect("rebuilt replica encodes");

    // Reference service: identical pipeline + config, no faults.
    let clean = start_service(None, ntr_obs::Obs::disabled());
    let baseline = clean
        .handle()
        .submit(request("identity probe"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("answered")
        .expect("clean run encodes");

    assert_eq!(
        rebuilt.encoding.table_embedding().data(),
        baseline.encoding.table_embedding().data(),
        "post-quarantine rebuild must be bit-identical to a fault-free replica"
    );
    drop(handle);
    assert_eq!(faulted.shutdown().quarantined, 1);
    clean.shutdown();
}

#[test]
fn slow_flush_delays_but_never_hangs() {
    let service = start_service(plan("serve-slow@1"), ntr_obs::Obs::disabled());
    let t0 = Instant::now();
    let reply = service
        .handle()
        .submit(request("slow drill"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("slow flush still answers")
        .expect("slow flush still succeeds");
    assert!(!reply.cached);
    assert!(
        t0.elapsed() >= Duration::from_millis(60),
        "the injected delay actually fired"
    );
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0, "slowness is not an error");
    assert_eq!(stats.quarantined, 0);
}

/// Work that queues up while a flush runs leaves as one batch the moment
/// the replicas are free — not one job per flush.
#[test]
fn work_queued_behind_a_flush_leaves_in_one_batch() {
    let reference = pipeline();
    let cfg = ServeConfig {
        max_batch: 8,
        ..chaos_cfg(&reference, plan("serve-slow@1"))
    };
    let model_cfg = cfg.model_config.expect("chaos_cfg pins the model");
    let service =
        EmbeddingService::start(pipeline(), cfg, ntr_obs::Obs::disabled()).expect("spawn service");
    let handle = service.handle();

    let plug = handle.submit(request("plug"));
    wait_for("the plug's flush to begin", || handle.stats().batches == 1);
    let contexts: Vec<String> = (0..8).map(|i| format!("queued {i}")).collect();
    let rxs: Vec<_> = contexts.iter().map(|c| handle.submit(request(c))).collect();
    assert_eq!(
        handle.stats().batches,
        1,
        "all eight queued behind the plug"
    );

    let mut model = ntr::build_encoder(ntr::EncoderSpec::f32(ModelKind::Bert), &model_cfg)
        .expect("bert at f32 is a valid spec");
    let bits =
        |t: &ntr_tensor::Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
    for (rx, ctx) in rxs.iter().zip(&contexts) {
        let reply = rx
            .recv_timeout(ANSWER_WITHIN)
            .expect("answered")
            .expect("encodes");
        // A reply holds the table-level row the sequential encode pools.
        let expected = reference
            .try_encode(model.as_mut(), &sample(), ctx)
            .expect("sequential encode");
        assert_eq!(reply.encoding.states.shape(), &[1, model_cfg.d_model]);
        assert_eq!(
            bits(&reply.encoding.states),
            bits(&expected.table_embedding()),
            "{ctx}"
        );
    }
    plug.recv_timeout(ANSWER_WITHIN)
        .expect("answered")
        .expect("the plug only ran late");

    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.batches, 2, "the plug, then all eight in one flush");
    assert_eq!(stats.errors, 0);
}

/// A panic fails the one request it fired on. The workers go on claiming
/// the rest of the flush, and every other reply is the sequential encode.
#[test]
fn a_panic_fails_only_its_own_request() {
    let reference = pipeline();
    let cfg = ServeConfig {
        max_batch: 8,
        ..chaos_cfg(&reference, plan("serve-slow@1,serve-panic@2"))
    };
    let model_cfg = cfg.model_config.expect("chaos_cfg pins the model");
    let service =
        EmbeddingService::start(pipeline(), cfg, ntr_obs::Obs::disabled()).expect("spawn service");
    let handle = service.handle();

    let plug = handle.submit(request("plug"));
    wait_for("the plug's flush to begin", || handle.stats().batches == 1);
    let contexts: Vec<String> = (0..8).map(|i| format!("queued {i}")).collect();
    let rxs: Vec<_> = contexts.iter().map(|c| handle.submit(request(c))).collect();

    let model = ntr::build_encoder(ntr::EncoderSpec::f32(ModelKind::Bert), &model_cfg)
        .expect("bert at f32 is a valid spec");
    let bits =
        |t: &ntr_tensor::Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
    let mut internals = 0;
    for (rx, ctx) in rxs.iter().zip(&contexts) {
        match rx.recv_timeout(ANSWER_WITHIN).expect("no request may hang") {
            Ok(reply) => {
                let expected = reference
                    .try_encode(model.as_ref(), &sample(), ctx)
                    .expect("sequential encode");
                assert_eq!(
                    bits(&reply.encoding.states),
                    bits(&expected.table_embedding()),
                    "{ctx}"
                );
            }
            Err(EncodeError::Internal { detail }) => {
                assert!(detail.contains(INJECTED_FLUSH_PANIC_MSG), "{detail:?}");
                internals += 1;
            }
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
        assert!(rx.try_recv().is_err(), "a request was answered twice");
    }
    assert_eq!(internals, 1, "the panic failed its own request alone");
    plug.recv_timeout(ANSWER_WITHIN)
        .expect("answered")
        .expect("the plug only ran late");

    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.batches, 2, "the plug, then all eight in one flush");
    assert_eq!((stats.errors, stats.internal, stats.quarantined), (1, 1, 1));
}

#[test]
fn deadlines_are_enforced_at_admission_and_in_queue() {
    // The first flush stalls 60 ms: whatever is submitted once it has
    // begun sits in the queue at least that long.
    let service = start_service(plan("serve-slow@1"), ntr_obs::Obs::disabled());
    let handle = service.handle();

    // Tier 1 (admission): a zero budget is already expired, answered
    // synchronously without ever queueing.
    let rx = handle.submit(ServeRequest {
        timeout: Some(Duration::ZERO),
        ..request("expired on arrival")
    });
    match rx.recv_timeout(ANSWER_WITHIN).expect("answered") {
        Err(EncodeError::DeadlineExceeded { timeout_ms }) => assert_eq!(timeout_ms, 0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Tier 2 (in-queue): submitted behind the stalled flush, so its 1 ms
    // budget is long gone when the batcher next looks at the queue.
    let plug = handle.submit(request("plug"));
    wait_for("the plug's flush to begin", || handle.stats().batches == 1);
    let rx = handle.submit(ServeRequest {
        timeout: Some(Duration::from_millis(1)),
        ..request("expired in queue")
    });
    match rx.recv_timeout(ANSWER_WITHIN).expect("answered") {
        Err(EncodeError::DeadlineExceeded { timeout_ms }) => assert_eq!(timeout_ms, 1),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    plug.recv_timeout(ANSWER_WITHIN)
        .expect("answered")
        .expect("the plug itself only ran late");

    // No budget: the same shape succeeds.
    handle
        .submit(request("patient"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("answered")
        .expect("no deadline, no error");

    drop(handle);
    let stats = service.shutdown();
    assert_eq!(stats.deadline_exceeded, 2);
    assert_eq!(stats.errors, 2);
}

#[test]
fn breaker_opens_into_degraded_mode_and_probe_recovers() {
    let pipeline = pipeline();
    let cfg = ServeConfig {
        n_workers: 1, // a single replica, so the panicking flush is fully faulted
        max_batch: 1,
        breaker_window: 4,
        breaker_threshold: 1,
        probe_every: 2,
        ..chaos_cfg(&pipeline, plan("serve-panic@1"))
    };
    let service =
        EmbeddingService::start(pipeline, cfg, ntr_obs::Obs::disabled()).expect("spawn service");
    let handle = service.handle();

    // The faulted flush answers Internal, then trips the breaker.
    let r = handle
        .submit(request("trip"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("answered");
    assert!(matches!(r, Err(EncodeError::Internal { .. })));
    wait_for("breaker to open", || handle.health().state == "degraded");

    // Degraded: the first miss is rejected in O(1) with a typed error…
    let r = handle
        .submit(request("rejected while degraded"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("answered");
    assert!(matches!(r, Err(EncodeError::Degraded)), "got {r:?}");

    // …and the second is admitted as the half-open probe; its clean
    // flush closes the breaker.
    handle
        .submit(request("probe"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("answered")
        .expect("the probe succeeds on the rebuilt replica");
    wait_for("breaker to close", || handle.health().state == "ok");

    handle
        .submit(request("back to normal"))
        .recv_timeout(ANSWER_WITHIN)
        .expect("answered")
        .expect("service recovered");

    drop(handle);
    let stats = service.shutdown();
    assert!(stats.degraded_rejects >= 1, "stats: {stats:?}");
    assert!(stats.degraded_probes >= 1, "stats: {stats:?}");
    assert_eq!(stats.quarantined, 1);
}

#[test]
fn fault_events_validate_against_the_trace_schema() {
    let trace_path =
        std::env::temp_dir().join(format!("ntr-chaos-trace-{}.jsonl", std::process::id()));
    let obs = ntr_obs::Obs::open(&ntr_obs::ObsOptions {
        trace: Some(trace_path.clone()),
        metrics: None,
    })
    .expect("open trace");

    let service = start_service(plan("serve-panic@1,serve-slow@2"), obs);
    let handle = service.handle();
    for i in 0..3 {
        let _ = handle
            .submit(request(&format!("traced {i}")))
            .recv_timeout(ANSWER_WITHIN)
            .expect("answered");
    }
    drop(handle);
    service.shutdown();

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let _ = std::fs::remove_file(&trace_path);
    let n = ntr_obs::trace::schema::validate_trace(&text)
        .unwrap_or_else(|e| panic!("trace fails schema validation: {e}\n{text}"));
    assert!(n > 0, "trace is non-empty");
    assert!(
        text.contains(r#""ev": "serve_fault""#),
        "drill emitted serve_fault events:\n{text}"
    );
    assert!(
        text.contains(r#""ev": "serve_recover""#),
        "quarantine emitted a serve_recover event:\n{text}"
    );
}

// ---------------------------------------------------------------------
// Wire-level drill: the same faults through a real TCP server.
// ---------------------------------------------------------------------

fn start_server(faults: Option<FaultPlan>) -> Server {
    let pipeline = pipeline();
    let cfg = chaos_cfg(&pipeline, faults);
    Server::start(pipeline, cfg, 0, ntr_obs::Obs::disabled()).expect("bind ephemeral port")
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(ANSWER_WITHIN))
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
    json::parse(resp.trim()).expect("response is valid JSON")
}

const REQ: &str = r#"{"id": 1, "model": "bert", "context": "capitals", "columns": ["Country", "Capital"], "rows": [["France", "Paris"], ["Japan", "Tokyo"]]}"#;

fn embedding_of(doc: &Json) -> Vec<f64> {
    doc.get("embedding")
        .and_then(Json::as_arr)
        .expect("embedding array")
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

#[test]
fn server_survives_panic_drill_and_stays_bit_identical() {
    let server = start_server(plan("serve-panic@1"));
    let addr = server.addr();

    // The drilled request comes back as a typed Internal error line —
    // the connection survives, nothing hangs, nothing is dropped.
    let mut conn = connect(addr);
    let doc = roundtrip(&mut conn, REQ);
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(1));
    let err = doc.get("error").expect("error object");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("Internal"));
    assert!(err
        .get("message")
        .and_then(Json::as_str)
        .expect("message")
        .contains(INJECTED_FLUSH_PANIC_MSG));

    // A *new* connection mid-drill: the server is still accepting, and
    // the health verb reports the quarantine honestly while staying "ok"
    // (one fault is below the breaker threshold).
    let mut conn2 = connect(addr);
    let health = roundtrip(&mut conn2, r#"{"cmd": "health"}"#);
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(health.get("state").and_then(Json::as_str), Some("ok"));
    assert!(health.get("quarantined").and_then(Json::as_u64).unwrap() >= 1);
    let replicas = health.get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(replicas.len(), 2);

    // A zero budget over the wire is a typed DeadlineExceeded.
    let doc = roundtrip(
        &mut conn2,
        &REQ.replace("\"id\": 1", "\"id\": 2, \"timeout_ms\": 0"),
    );
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("DeadlineExceeded")
    );

    // Post-recovery encode on the rebuilt replica…
    let doc = roundtrip(&mut conn2, &REQ.replace("\"id\": 1", "\"id\": 3"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    let rebuilt = embedding_of(&doc);

    // …is bit-identical to a fault-free server (shortest-roundtrip float
    // formatting makes string-level equality the same as bit equality).
    let clean = start_server(None);
    let mut conn3 = connect(clean.addr());
    let baseline = embedding_of(&roundtrip(&mut conn3, REQ));
    assert_eq!(rebuilt, baseline, "recovery must not perturb outputs");

    roundtrip(&mut conn, r#"{"cmd": "shutdown"}"#);
    drop(conn);
    drop(conn2);
    let stats = server.wait();
    assert_eq!(stats.service.internal, 1);
    assert_eq!(stats.service.quarantined, 1);
    assert_eq!(stats.service.deadline_exceeded, 1);
    assert!(stats.event_loop.conns_accepted >= 2);
    drop(conn3);
    clean.stop();
    clean.wait();
}
