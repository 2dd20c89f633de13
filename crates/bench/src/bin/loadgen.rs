//! `loadgen` — closed-loop load generator for the event-loop server.
//!
//! Starts an in-process [`ntr_serve::Server`] (tiny deterministic model,
//! cache on, so steady state measures the serving path rather than the
//! forward pass), then drives it over real TCP sockets from a
//! single-threaded non-blocking client loop built on the same
//! [`ntr_serve::poller`] the server uses. Each connection keeps exactly
//! one request in flight; a wave ends when every connection has collected
//! its quota of responses.
//!
//! Output is one `BENCH_serve.json` row per wave, in the criterion shim's
//! flat-JSON baseline format (merge key `op/shape/threads/simd`, same as
//! `cargo bench --json`), with per-wave latency percentiles annotated:
//!
//! ```text
//! {"op": "serve/loadgen", "shape": "256", ..., "ns_per_iter": <mean ns>,
//!  "p50_us": ..., "p99_us": ..., "rps": ..., "requests": ..., "shed": ...}
//! ```
//!
//! Usage:
//!
//! ```text
//! loadgen [--conns 64,256,1024] [--requests 32] [--queue-cap 4096]
//!         [--fault SPEC] [--timeout-ms N] [--json BENCH_serve.json] [--gate]
//! ```
//!
//! `--gate` turns the run into a CI check: below-capacity load must shed
//! nothing, drop no connection, and keep p99 under a generous
//! single-core-friendly ceiling (`NTR_LOADGEN_MAX_P99_MS`, default 2000).
//! Every wave is closed-loop, so "zero hung requests" is checked
//! structurally: a wave only ends when every connection has collected its
//! full response quota (typed errors count — they are responses).
//!
//! `--fault SPEC` injects deterministic serve faults (`serve-panic@N`,
//! `serve-slow@N`, `@N` counting flushes — the `NTR_FAULTS` grammar); the
//! per-wave rows then record `deadline_exceeded` / `internal` counts so
//! the perf baseline captures robustness overhead, and the gate requires
//! the post-recovery `{"cmd":"health"}` state to be `ok`. `--timeout-ms`
//! stamps every request with a wire-level `timeout_ms` budget.
//!
//! Server-side latency accounting is a fixed 32-bucket log2 histogram, so
//! its memory is O(1) in the number of requests — a soak at any wave count
//! cannot grow it (the old per-request `Vec<u64>` leaked under sustained
//! load).

use criterion::{read_baseline_entries, Entry};
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::ModelConfig;
use ntr::table::LinearizerOptions;
use ntr::tensor::faults::FaultPlan;
use ntr::Pipeline;
use ntr_serve::poller::{Interest, Poller};
use ntr_serve::{ServeConfig, Server, ServerConfig};
use std::io::BufRead;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--conns LIST] [--requests N] [--queue-cap N] \
         [--fault SPEC] [--timeout-ms N] [--json PATH] [--gate]\n\n\
         --conns LIST   comma-separated wave sizes (default 64,256,1024)\n\
         --requests N   responses each connection collects (default 32)\n\
         --queue-cap N  server admission queue capacity (default 4096)\n\
         --fault SPEC   inject serve faults, e.g. serve-panic@50,serve-slow@120\n\
         --timeout-ms N stamp every request with a timeout_ms budget (0 = none)\n\
         --json PATH    merge rows into this baseline (default BENCH_serve.json)\n\
         --gate         enforce SLOs: zero shed, zero drops, p99 ceiling,\n\
                        and health \"ok\" after a faulted run\n\
         \n\
         env: NTR_LOADGEN_MAX_P99_MS (gate ceiling, default 2000)\n\
              NTR_LOADGEN_TIMEOUT_S  (per-wave wall clock, default 120)\n\
              NTR_FAULTS             (fault spec fallback when --fault is absent)"
    );
    std::process::exit(2)
}

struct Args {
    conns: Vec<usize>,
    requests: usize,
    queue_cap: usize,
    fault: Option<FaultPlan>,
    timeout_ms: u64,
    json: PathBuf,
    gate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        conns: vec![64, 256, 1024],
        requests: 32,
        queue_cap: 4096,
        fault: None,
        timeout_ms: 0,
        json: PathBuf::from("BENCH_serve.json"),
        gate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--conns" => {
                args.conns = val()
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.conns.is_empty() {
                    usage();
                }
            }
            "--requests" => args.requests = val().parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => args.queue_cap = val().parse().unwrap_or_else(|_| usage()),
            "--fault" => {
                args.fault = Some(FaultPlan::parse(&val()).unwrap_or_else(|e| {
                    eprintln!("bad --fault: {e}");
                    usage()
                }))
            }
            "--timeout-ms" => args.timeout_ms = val().parse().unwrap_or_else(|_| usage()),
            "--json" => args.json = PathBuf::from(val()),
            "--gate" => args.gate = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    // `NTR_FAULTS` works here the same way it does for `ntr serve`:
    // an explicit `--fault` wins, the env is the fallback.
    if args.fault.is_none() {
        args.fault = FaultPlan::from_env().unwrap_or_else(|e| {
            eprintln!("bad NTR_FAULTS: {e}");
            usage()
        });
    }
    args
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Pre-renders a pool of distinct request lines from a small generated
/// corpus. Distinct contexts give distinct cache keys, so the pool sets
/// the cache working set; it fits, and steady state is all hits.
fn request_pool(timeout_ms: u64) -> (Vec<Vec<u8>>, Pipeline, ModelConfig) {
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
            ..Default::default()
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
    let mut pool = Vec::new();
    for (i, t) in corpus.tables.iter().enumerate() {
        let mut line = String::new();
        line.push_str(&format!(
            "{{\"id\": {i}, \"model\": \"bert\", \"context\": \"load {i}\", \"columns\": ["
        ));
        // (timeout_ms rendered below, before closing the object)
        for (c, col) in t.columns().iter().enumerate() {
            if c > 0 {
                line.push_str(", ");
            }
            ntr_serve::json::write_str(&mut line, &col.name);
        }
        line.push_str("], \"rows\": [");
        for r in 0..t.n_rows() {
            if r > 0 {
                line.push_str(", ");
            }
            line.push('[');
            for c in 0..t.n_cols() {
                if c > 0 {
                    line.push_str(", ");
                }
                ntr_serve::json::write_str(&mut line, &t.cell(r, c).raw);
            }
            line.push(']');
        }
        if timeout_ms > 0 {
            line.push_str(&format!("], \"timeout_ms\": {timeout_ms}}}\n"));
        } else {
            line.push_str("]}\n");
        }
        pool.push(line.into_bytes());
    }
    (pool, pipeline, cfg)
}

/// One closed-loop connection: a single request in flight, `remaining`
/// responses still owed.
struct Client {
    stream: TcpStream,
    /// Read accumulator; responses split on `\n`.
    buf: Vec<u8>,
    /// Unwritten request bytes (tail of the current request on short
    /// writes).
    out: Vec<u8>,
    /// Registered interest; READ normally, BOTH while `out` is non-empty.
    interest: Interest,
    sent_at: Instant,
    remaining: usize,
    next_req: usize,
    dropped: bool,
}

struct WaveResult {
    responses: u64,
    shed: u64,
    deadline_exceeded: u64,
    internal: u64,
    degraded: u64,
    dropped: u64,
    elapsed: Duration,
    /// Sorted response latencies, microseconds.
    latencies_us: Vec<u64>,
}

impl WaveResult {
    fn pct(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_us.len() as f64 * p) as usize).min(self.latencies_us.len() - 1);
        self.latencies_us[idx]
    }
}

fn run_wave(
    addr: std::net::SocketAddr,
    pool: &[Vec<u8>],
    n_conns: usize,
    requests: usize,
    deadline: Duration,
) -> WaveResult {
    let mut poller = Poller::new().expect("poller");
    let mut clients: Vec<Client> = Vec::with_capacity(n_conns);
    for i in 0..n_conns {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).expect("nonblocking");
        {
            use std::os::fd::AsRawFd;
            poller
                .register(stream.as_raw_fd(), i, Interest::READ)
                .expect("register");
        }
        clients.push(Client {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            interest: Interest::READ,
            sent_at: Instant::now(),
            remaining: requests,
            next_req: i, // stagger the pool so waves mix cache keys
            dropped: false,
        });
    }

    let start = Instant::now();
    let mut result = WaveResult {
        responses: 0,
        shed: 0,
        deadline_exceeded: 0,
        internal: 0,
        degraded: 0,
        dropped: 0,
        elapsed: Duration::ZERO,
        latencies_us: Vec::with_capacity(n_conns * requests),
    };

    // Kick: queue the first request on every connection.
    for (i, client) in clients.iter_mut().enumerate() {
        send_next(client, pool, &mut poller, i);
    }

    let mut events = Vec::new();
    let mut open = clients.iter().filter(|c| c.remaining > 0).count();
    while open > 0 {
        if start.elapsed() > deadline {
            eprintln!(
                "loadgen: wave of {n_conns} exceeded {}s wall clock; aborting",
                deadline.as_secs()
            );
            std::process::exit(2);
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .expect("poller wait");
        for ev in events.drain(..) {
            let i = ev.token;
            let c = &mut clients[i];
            if c.remaining == 0 || c.dropped {
                continue;
            }
            if ev.writable && !c.out.is_empty() {
                flush_out(c, &mut poller, i);
            }
            if ev.readable || ev.hangup {
                match read_responses(c, pool, &mut poller, i, &mut result) {
                    Ok(()) => {}
                    Err(()) => {
                        c.dropped = true;
                        result.dropped += 1;
                        use std::os::fd::AsRawFd;
                        poller.deregister(c.stream.as_raw_fd()).ok();
                    }
                }
            }
            if c.remaining == 0 || c.dropped {
                open -= 1;
                if !c.dropped {
                    use std::os::fd::AsRawFd;
                    poller.deregister(c.stream.as_raw_fd()).ok();
                }
            }
        }
    }

    result.elapsed = start.elapsed();
    result.latencies_us.sort_unstable();
    result
}

/// Queues the next pooled request on the connection and flushes what the
/// kernel will take.
fn send_next(c: &mut Client, pool: &[Vec<u8>], poller: &mut Poller, token: usize) {
    c.out.extend_from_slice(&pool[c.next_req % pool.len()]);
    c.next_req += 1;
    c.sent_at = Instant::now();
    flush_out(c, poller, token);
}

fn flush_out(c: &mut Client, poller: &mut Poller, token: usize) {
    let mut off = 0usize;
    loop {
        match (&c.stream).write(&c.out[off..]) {
            Ok(0) => break,
            Ok(n) => {
                off += n;
                if off == c.out.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break, // surfaces as EOF on the read side
        }
    }
    c.out.drain(..off);
    let want = if c.out.is_empty() {
        Interest::READ
    } else {
        Interest::BOTH
    };
    if (want.readable, want.writable) != (c.interest.readable, c.interest.writable) {
        use std::os::fd::AsRawFd;
        poller.modify(c.stream.as_raw_fd(), token, want).ok();
        c.interest = want;
    }
}

/// Drains readable bytes and accounts every complete response line.
/// `Err(())` means the server closed the connection.
fn read_responses(
    c: &mut Client,
    pool: &[Vec<u8>],
    poller: &mut Poller,
    token: usize,
    result: &mut WaveResult,
) -> Result<(), ()> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&c.stream).read(&mut chunk) {
            Ok(0) => return Err(()),
            Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    while let Some(nl) = c.buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = c.buf.drain(..=nl).collect();
        let us = c.sent_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
        result.latencies_us.push(us);
        result.responses += 1;
        // Cheap classification by error kind: these strings only appear
        // inside the typed "error": {"kind": ...} object.
        if line.windows(12).any(|w| w == b"\"Overloaded\"") {
            result.shed += 1;
        } else if line.windows(18).any(|w| w == b"\"DeadlineExceeded\"") {
            result.deadline_exceeded += 1;
        } else if line.windows(10).any(|w| w == b"\"Internal\"") {
            result.internal += 1;
        } else if line.windows(10).any(|w| w == b"\"Degraded\"") {
            result.degraded += 1;
        }
        c.remaining -= 1;
        if c.remaining == 0 {
            break;
        }
        send_next(c, pool, poller, token);
    }
    Ok(())
}

/// Merges wave rows into the baseline file, shim-format (see
/// `criterion::Criterion::finalize`).
fn write_baseline(path: &PathBuf, rows: Vec<Entry>) {
    let mut entries = read_baseline_entries(path);
    for m in rows {
        entries.retain(|e| {
            (&e.op, &e.shape, e.threads, e.simd) != (&m.op, &m.shape, m.threads, m.simd)
        });
        entries.push(m);
    }
    entries.sort_by(|a, b| {
        (&a.op, &a.shape, a.threads, a.simd).cmp(&(&b.op, &b.shape, b.threads, b.simd))
    });
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let simd = if e.simd { "on" } else { "off" };
        let mut line = format!(
            "  {{\"op\": \"{}\", \"shape\": \"{}\", \"threads\": {}, \"simd\": \"{simd}\", \"ns_per_iter\": {:.1}",
            e.op, e.shape, e.threads, e.ns_per_iter
        );
        for (k, v) in &e.extra {
            line.push_str(&format!(", \"{k}\": {v}"));
        }
        line.push_str(&format!("}}{comma}\n"));
        out.push_str(&line);
    }
    out.push_str("]\n");
    match std::fs::write(path, out) {
        Ok(()) => println!("wrote {} ({} entries)", path.display(), entries.len()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// One blocking health round-trip; returns the reported state (or a
/// describable failure string, which the gate will reject).
fn query_health(addr: std::net::SocketAddr) -> String {
    let probe = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.write_all(b"{\"cmd\": \"health\"}\n")?;
        let mut line = String::new();
        std::io::BufReader::new(stream).read_line(&mut line)?;
        // The state field is a flat string; slice it out without a JSON
        // dependency: "state": "<value>".
        let state = line
            .split("\"state\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("unparseable")
            .to_string();
        Ok(state)
    };
    probe().unwrap_or_else(|e| format!("unreachable ({e})"))
}

fn main() {
    let args = parse_args();
    let max_wave = args.conns.iter().copied().max().unwrap_or(64);
    let deadline = Duration::from_secs(env_u64("NTR_LOADGEN_TIMEOUT_S", 120));
    let p99_ceiling_ms = env_u64("NTR_LOADGEN_MAX_P99_MS", 2000);

    let (pool, pipeline, model_cfg) = request_pool(args.timeout_ms);
    let faulted = args.fault.is_some();
    let server = Server::start_with(
        pipeline,
        ServeConfig {
            max_batch: 8,
            n_workers: 2,
            cache_bytes: 64 << 20,
            queue_cap: args.queue_cap,
            model_config: Some(model_cfg),
            faults: args.fault.clone(),
            ..ServeConfig::default()
        },
        ServerConfig {
            max_conns: max_wave + 64,
            ..ServerConfig::default()
        },
        0,
        ntr_obs::Obs::disabled(),
    )
    .expect("start server");
    let addr = server.addr();
    println!(
        "loadgen: server on {addr}, queue_cap {}, waves {:?} x {} req/conn",
        args.queue_cap, args.conns, args.requests
    );

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    let mut gate_failures = Vec::new();
    for &n_conns in &args.conns {
        let wave = run_wave(addr, &pool, n_conns, args.requests, deadline);
        let p50 = wave.pct(0.50);
        let p99 = wave.pct(0.99);
        let mean_ns = if wave.latencies_us.is_empty() {
            0.0
        } else {
            wave.latencies_us.iter().sum::<u64>() as f64 * 1e3 / wave.latencies_us.len() as f64
        };
        let rps = wave.responses as f64 / wave.elapsed.as_secs_f64().max(1e-9);
        println!(
            "serve/loadgen/{n_conns:<5} {:>8} resp  p50 {:>8}us  p99 {:>8}us  \
             {:>9.0} rps  shed {}  deadline {}  internal {}  degraded {}  dropped {}",
            wave.responses,
            p50,
            p99,
            rps,
            wave.shed,
            wave.deadline_exceeded,
            wave.internal,
            wave.degraded,
            wave.dropped
        );
        if args.gate {
            let expected = (n_conns * args.requests) as u64;
            if wave.shed > 0 {
                gate_failures.push(format!(
                    "wave {n_conns}: shed {} requests below capacity",
                    wave.shed
                ));
            }
            if wave.dropped > 0 {
                gate_failures.push(format!(
                    "wave {n_conns}: {} connections dropped",
                    wave.dropped
                ));
            }
            if wave.responses != expected {
                gate_failures.push(format!(
                    "wave {n_conns}: {}/{} responses",
                    wave.responses, expected
                ));
            }
            if p99 > p99_ceiling_ms * 1000 {
                gate_failures.push(format!(
                    "wave {n_conns}: p99 {}us over the {}ms ceiling",
                    p99, p99_ceiling_ms
                ));
            }
        }
        rows.push(Entry {
            op: "serve/loadgen".to_string(),
            shape: n_conns.to_string(),
            threads,
            simd: false,
            ns_per_iter: mean_ns,
            extra: vec![
                ("p50_us".to_string(), p50.to_string()),
                ("p99_us".to_string(), p99.to_string()),
                ("rps".to_string(), format!("{rps:.0}")),
                ("requests".to_string(), wave.responses.to_string()),
                ("shed".to_string(), wave.shed.to_string()),
                (
                    "deadline_exceeded".to_string(),
                    wave.deadline_exceeded.to_string(),
                ),
                ("internal".to_string(), wave.internal.to_string()),
            ],
        });
    }

    // After the waves (and any injected faults), the service must be
    // healthy again: probe the health verb over a fresh connection before
    // shutting down.
    let health_state = query_health(addr);
    println!("health after run: {health_state}");
    if args.gate && faulted && health_state != "ok" {
        gate_failures.push(format!(
            "health state {health_state:?} after faulted run (expected \"ok\")"
        ));
    }

    server.stop();
    let stats = server.wait();
    println!(
        "server: {} requests, {} shed, {} deadline, {} internal, {} restarts, \
         {} quarantined, {} accepted, {} rejected, {} accept errors",
        stats.service.requests,
        stats.service.shed,
        stats.service.deadline_exceeded,
        stats.service.internal,
        stats.service.restarts,
        stats.service.quarantined,
        stats.event_loop.conns_accepted,
        stats.event_loop.conns_rejected,
        stats.event_loop.accept_errors
    );
    if args.gate && stats.event_loop.accept_errors > 0 {
        gate_failures.push(format!(
            "{} accept errors during the run",
            stats.event_loop.accept_errors
        ));
    }

    write_baseline(&args.json, rows);

    if !gate_failures.is_empty() {
        eprintln!("loadgen gate FAILED:");
        for f in &gate_failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    if args.gate {
        println!("loadgen gate passed");
    }
}
