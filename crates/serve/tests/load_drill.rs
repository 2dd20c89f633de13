//! Closed-loop load drill over real sockets. A wave opens `n` connections;
//! each keeps one request in flight until it has collected [`REQUESTS`]
//! replies, so a hung request shows as a wave that never ends. One client
//! thread drives every connection through the server's own [`Poller`].
//!
//! * **Clean**: waves of 64 and 256 connections against a warm cache answer
//!   every request with nothing shed, dropped, past its deadline or
//!   internal, and the p99 reply time stays under [`MAX_P99`], a ceiling for
//!   a shared CI runner: the drill is about failures in kind, not
//!   microseconds.
//! * **Faulted**: the same waves against a server with no cache, so every
//!   request is a miss and flushes, under [`FAULTS`] (a panic in flush 50,
//!   a stall in flush 120). Every request is still answered, the faults
//!   fire, and `health` reads `ok` afterwards.
//!
//! Timing means little in a debug build, so the drill is ignored there:
//!
//! ```text
//! cargo test --release -p ntr-serve --test load_drill
//! ```

use ntr::corpus::{CorpusConfig, TableCorpus, World, WorldConfig};
use ntr::models::ModelConfig;
use ntr::table::LinearizerOptions;
use ntr::Pipeline;
use ntr_serve::json::{self, Json};
use ntr_serve::poller::{Interest, Poller};
use ntr_serve::{ServeConfig, Server, ServerConfig, ServerStats};
use ntr_tensor::faults::FaultPlan;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Connections per wave.
const WAVES: [usize; 2] = [64, 256];
/// Replies each connection collects.
const REQUESTS: usize = 32;
/// Admission queue bound: far above what the waves can queue.
const QUEUE_CAP: usize = 4096;
/// Ceiling on a clean wave's p99 reply time.
const MAX_P99: Duration = Duration::from_millis(2000);
/// The faulted server's schedule; `@N` counts flushes.
const FAULTS: &str = "serve-panic@50,serve-slow@120";
/// A wave still running after this has a hung request.
const WAVE_DEADLINE: Duration = Duration::from_secs(120);

/// A small generated corpus rendered as request lines, and the pipeline
/// and model config to serve it with. Eight tables give eight cache keys,
/// so a warm cache answers every request.
fn request_pool() -> (Vec<Vec<u8>>, Pipeline, ModelConfig) {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: 8,
            min_rows: 3,
            max_rows: 5,
            null_prob: 0.0,
            headerless_prob: 0.0,
            seed: 17,
        },
    );
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(1500)
        .options(LinearizerOptions {
            max_tokens: 64,
            ..LinearizerOptions::default()
        })
        .build()
        .expect("vocab is non-empty");
    let cfg = ModelConfig {
        vocab_size: pipeline.tokenizer().vocab_size(),
        d_model: 32,
        n_heads: 2,
        n_layers: 1,
        d_ff: 64,
        max_seq: 64,
        dropout: 0.0,
        ..ModelConfig::default()
    };
    let pool = corpus
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut line = format!(
                "{{\"id\": {i}, \"model\": \"bert\", \"context\": \"load {i}\", \"columns\": ["
            );
            for (c, col) in t.columns().iter().enumerate() {
                if c > 0 {
                    line.push_str(", ");
                }
                json::write_str(&mut line, &col.name);
            }
            line.push_str("], \"rows\": [");
            for r in 0..t.n_rows() {
                line.push_str(if r > 0 { ", [" } else { "[" });
                for c in 0..t.n_cols() {
                    if c > 0 {
                        line.push_str(", ");
                    }
                    json::write_str(&mut line, &t.cell(r, c).raw);
                }
                line.push(']');
            }
            line.push_str("]}\n");
            line.into_bytes()
        })
        .collect();
    (pool, pipeline, cfg)
}

fn start_server(pipeline: Pipeline, model: ModelConfig, faulted: bool) -> Server {
    let cfg = ServeConfig {
        max_batch: 8,
        n_workers: 2,
        cache_bytes: if faulted { 0 } else { 64 << 20 },
        queue_cap: QUEUE_CAP,
        model_config: Some(model),
        faults: faulted.then(|| FaultPlan::parse(FAULTS).expect("valid fault spec")),
        ..ServeConfig::default()
    };
    let server_cfg = ServerConfig {
        max_conns: WAVES[1] + 64,
        ..ServerConfig::default()
    };
    Server::start_with(pipeline, cfg, server_cfg, 0, ntr_obs::Obs::disabled())
        .expect("bind ephemeral port")
}

/// One connection of a wave.
struct Conn {
    stream: TcpStream,
    /// Received bytes not yet split into reply lines.
    inbox: Vec<u8>,
    /// Request bytes the socket has not taken yet.
    outbox: Vec<u8>,
    /// Registered for writability too, while `outbox` is non-empty.
    writing: bool,
    sent_at: Instant,
    owed: usize,
    next: usize,
    dropped: bool,
}

impl Conn {
    /// Queues the next pooled request and writes what the socket takes.
    fn send_next(&mut self, pool: &[Vec<u8>], poller: &mut Poller, token: usize) {
        self.outbox.extend_from_slice(&pool[self.next % pool.len()]);
        self.next += 1;
        self.sent_at = Instant::now();
        self.flush(poller, token);
    }

    fn flush(&mut self, poller: &mut Poller, token: usize) {
        let mut off = 0;
        while off < self.outbox.len() {
            match (&self.stream).write(&self.outbox[off..]) {
                Ok(0) => break,
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // WouldBlock waits for writability; a broken socket shows
                // as end of file on the read side.
                Err(_) => break,
            }
        }
        self.outbox.drain(..off);
        let writing = !self.outbox.is_empty();
        if writing != self.writing {
            let interest = if writing {
                Interest::BOTH
            } else {
                Interest::READ
            };
            poller
                .modify(self.stream.as_raw_fd(), token, interest)
                .expect("modify interest");
            self.writing = writing;
        }
    }

    /// Reads what has arrived and returns the complete reply lines, each
    /// with its time since the request went out. `None` means the server
    /// closed the connection.
    fn replies(&mut self) -> Option<Vec<(Vec<u8>, Duration)>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.inbox.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        let mut lines = Vec::new();
        while let Some(nl) = self.inbox.iter().position(|&b| b == b'\n') {
            lines.push((self.inbox.drain(..=nl).collect(), self.sent_at.elapsed()));
        }
        Some(lines)
    }
}

/// What one wave saw.
#[derive(Default)]
struct Wave {
    replies: usize,
    dropped: usize,
    /// Error replies by their typed `kind`.
    errors: BTreeMap<String, usize>,
    /// Sorted reply times.
    latencies: Vec<Duration>,
}

impl Wave {
    fn p99(&self) -> Duration {
        let i = self.latencies.len() * 99 / 100;
        self.latencies[i.min(self.latencies.len() - 1)]
    }
}

fn run_wave(addr: SocketAddr, pool: &[Vec<u8>], n_conns: usize) -> Wave {
    let mut poller = Poller::new().expect("poller");
    let mut conns: Vec<Conn> = (0..n_conns)
        .map(|i| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            poller
                .register(stream.as_raw_fd(), i, Interest::READ)
                .expect("register");
            Conn {
                stream,
                inbox: Vec::new(),
                outbox: Vec::new(),
                writing: false,
                sent_at: Instant::now(),
                owed: REQUESTS,
                next: i, // staggered, so every flush mixes cache keys
                dropped: false,
            }
        })
        .collect();
    let mut wave = Wave::default();
    for (i, conn) in conns.iter_mut().enumerate() {
        conn.send_next(pool, &mut poller, i);
    }

    let start = Instant::now();
    let mut open = n_conns;
    let mut events = Vec::new();
    while open > 0 {
        assert!(
            start.elapsed() < WAVE_DEADLINE,
            "wave of {n_conns}: {open} connection(s) still waiting after {WAVE_DEADLINE:?}"
        );
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .expect("poller wait");
        for ev in events.drain(..) {
            let conn = &mut conns[ev.token];
            if conn.owed == 0 || conn.dropped {
                continue;
            }
            if ev.writable {
                conn.flush(&mut poller, ev.token);
            }
            if !(ev.readable || ev.hangup) {
                continue;
            }
            let Some(lines) = conn.replies() else {
                conn.dropped = true;
                wave.dropped += 1;
                open -= 1;
                poller.deregister(conn.stream.as_raw_fd()).ok();
                continue;
            };
            for (line, latency) in lines {
                let text = std::str::from_utf8(&line).expect("UTF-8 reply");
                let doc = json::parse(text.trim()).expect("JSON reply");
                if doc.get("ok") != Some(&Json::Bool(true)) {
                    let kind = doc
                        .get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str)
                        .unwrap_or("untyped");
                    *wave.errors.entry(kind.to_string()).or_default() += 1;
                }
                wave.replies += 1;
                wave.latencies.push(latency);
                conn.owed -= 1;
                if conn.owed == 0 {
                    break;
                }
                conn.send_next(pool, &mut poller, ev.token);
            }
            if conn.owed == 0 {
                open -= 1;
                poller.deregister(conn.stream.as_raw_fd()).ok();
            }
        }
    }
    wave.latencies.sort_unstable();
    wave
}

/// The `state` field of one `health` reply.
fn health(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(b"{\"cmd\": \"health\"}\n")
        .expect("write health");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read health");
    let doc = json::parse(line.trim()).expect("JSON health reply");
    doc.get("state")
        .and_then(Json::as_str)
        .expect("health reports a state")
        .to_string()
}

/// Runs every wave against a fresh server and returns the waves, the
/// `health` state after them and the server's counters.
fn drill(faulted: bool) -> (Vec<Wave>, String, ServerStats) {
    let (pool, pipeline, model) = request_pool();
    let server = start_server(pipeline, model, faulted);
    let addr = server.addr();
    let waves: Vec<Wave> = WAVES.iter().map(|&n| run_wave(addr, &pool, n)).collect();
    let state = health(addr);
    server.stop();
    (waves, state, server.wait())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing target: run with --release")]
fn clean_waves_answer_everything_with_nothing_shed_and_a_bounded_p99() {
    let (waves, state, stats) = drill(false);
    for (wave, n) in waves.iter().zip(WAVES) {
        println!(
            "clean wave {n}: {} replies, p99 {:?}",
            wave.replies,
            wave.p99()
        );
        assert_eq!(wave.replies, n * REQUESTS, "wave {n}: every reply comes");
        assert_eq!(wave.dropped, 0, "wave {n}: no connection dropped");
        assert!(wave.errors.is_empty(), "wave {n}: errors {:?}", wave.errors);
        assert!(
            wave.p99() <= MAX_P99,
            "wave {n}: p99 {:?} over {MAX_P99:?}",
            wave.p99()
        );
    }
    assert_eq!(state, "ok");
    assert_eq!(stats.service.shed, 0, "nothing shed");
    assert_eq!(stats.event_loop.accept_errors, 0, "no accept error");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing target: run with --release")]
fn faulted_waves_answer_everything_and_health_recovers() {
    let (waves, state, stats) = drill(true);
    for (wave, n) in waves.iter().zip(WAVES) {
        println!(
            "faulted wave {n}: {} replies, errors {:?}, p99 {:?}",
            wave.replies,
            wave.errors,
            wave.p99()
        );
        assert_eq!(wave.replies, n * REQUESTS, "wave {n}: every reply comes");
        assert_eq!(wave.dropped, 0, "wave {n}: no connection dropped");
    }
    assert!(
        stats.service.batches >= 120,
        "{} flushes: the stall in flush 120 never ran",
        stats.service.batches
    );
    assert!(
        stats.service.internal > 0,
        "the panic in flush 50 never ran"
    );
    assert_eq!(state, "ok", "health after the faults");
    assert_eq!(stats.event_loop.accept_errors, 0, "no accept error");
}
