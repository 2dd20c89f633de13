//! Event-loop TCP front-end for the embedding service: one
//! readiness-driven thread handles every connection — no
//! thread-per-connection, no blocking accept.
//!
//! # Architecture
//!
//! ```text
//!            accept (nonblocking; EMFILE/ECONNABORTED → count + backoff)
//!               │
//!   ┌───────────▼────────────────────────────────────────────┐
//!   │ event loop (crate::poller: epoll / poll, 1 thread)     │
//!   │  per-connection state machines (crate::conn):          │
//!   │    partial-read NDJSON framing · bounded write buffers │
//!   │    in-flight caps · idle / slow-consumer timeouts      │
//!   │  wire::scan → key → cache: a hit is rendered straight  │
//!   │    into the write buffer, no table built, no wake      │
//!   └───────────┬───────────────────────────────▲────────────┘
//!   miss: table │ admit (same key)              │ completions + waker
//!   ┌───────────▼────────────┐      ┌───────────┴────────────┐
//!   │ bounded submit queue   │      │ worker threads render  │
//!   │ (queue_cap, typed      │ ───► │ the response line and  │
//!   │  Overloaded shed)      │      │ wake the loop          │
//!   └────────────────────────┘      └────────────────────────┘
//! ```
//!
//! Backpressure tiers, outermost first: (1) `max_conns` — excess
//! connections get one typed `Overloaded` line and a close; (2) the
//! per-connection in-flight cap and write-buffer bound — the loop stops
//! *reading* from a connection that has `MAX_INFLIGHT_PER_CONN` requests
//! pending or `MAX_WRITE_BUF` unread response bytes, so one greedy or
//! unreading client cannot starve the rest; (3) `queue_cap` — admission
//! control in front of the micro-batcher sheds with
//! [`ntr::EncodeError::Overloaded`] *before* any serialization work.
//!
//! A `{"cmd": "shutdown"}` line (or [`Server::stop`]) starts a graceful
//! drain: the listener stops accepting, in-flight requests finish and
//! their responses flush (bounded by `DRAIN_TIMEOUT`),
//! then [`Server::wait`] reports final counters via the `serve_end`
//! event and the metrics snapshot.

use crate::conn::{CloseReason, Conn, ConnLimits, Frame};
use crate::poller::{Event, Interest, Poller, WakeReceiver, Waker};
use crate::service::{EmbeddingService, ServeConfig, ServeHandle, ServeStats};
use crate::wire::{self, WireRequest};
use ntr::{EncoderSpec, Pipeline};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Network-layer knobs of the event-loop server (the service-layer knobs
/// live in [`ServeConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent-connection cap; connection `max_conns + 1` is answered
    /// with one typed `Overloaded` line and closed.
    pub max_conns: usize,
    /// Longest accepted request line; longer lines get a `LineTooLong`
    /// error and are discarded without buffering.
    pub max_line_bytes: usize,
    /// Connections with no read/write progress for this long are closed.
    pub idle_timeout: Duration,
}

/// Per-connection in-flight request cap (fairness: reading from a
/// connection pauses while it has this many responses pending).
const MAX_INFLIGHT_PER_CONN: usize = 32;
/// Per-connection response-buffer bound; reading pauses above it.
const MAX_WRITE_BUF: usize = 1 << 20;
/// Hard bound on the graceful drain after shutdown.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 1024,
            max_line_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Event-loop counters, reported next to the service's [`ServeStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopStats {
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections rejected at the `max_conns` limit.
    pub conns_rejected: u64,
    /// Transient accept errors (EMFILE, ECONNABORTED, …) absorbed with
    /// backoff instead of killing the accept path.
    pub accept_errors: u64,
    /// Connections closed for idling past `idle_timeout`.
    pub idle_closes: u64,
    /// Connections closed for not reading their responses.
    pub slow_closes: u64,
    /// Request lines rejected for exceeding `max_line_bytes`.
    pub oversized_lines: u64,
    /// Events that reached a vacated slot (stale token / recycled slot);
    /// absorbed and counted instead of panicking the event loop.
    pub slot_races: u64,
}

/// Final counters from [`Server::wait`]: the service's plus the loop's.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Micro-batcher / cache / latency counters.
    pub service: ServeStats,
    /// Event-loop counters.
    pub event_loop: LoopStats,
}

/// A running NDJSON-over-TCP embedding server.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    event_loop: Option<JoinHandle<LoopStats>>,
    service: Option<EmbeddingService>,
    obs: ntr_obs::Obs,
}

impl Server {
    /// Binds `127.0.0.1:port` (0 picks an ephemeral port) with default
    /// [`ServerConfig`] knobs, starts the service and the event loop, and
    /// emits the `serve_start` event.
    pub fn start(
        pipeline: Pipeline,
        cfg: ServeConfig,
        port: u16,
        obs: ntr_obs::Obs,
    ) -> io::Result<Server> {
        Server::start_with(pipeline, cfg, ServerConfig::default(), port, obs)
    }

    /// [`Server::start`] with explicit network-layer knobs.
    pub fn start_with(
        pipeline: Pipeline,
        cfg: ServeConfig,
        server_cfg: ServerConfig,
        port: u16,
        obs: ntr_obs::Obs,
    ) -> io::Result<Server> {
        Server::start_with_index(pipeline, cfg, server_cfg, port, obs, None)
    }

    /// [`Server::start_with`] plus an optional ANN index: when present, the
    /// wire protocol's `{"cmd": "search"}` verb answers nearest-neighbor
    /// queries over it; when absent, searches get a typed `IndexNotLoaded`.
    pub fn start_with_index(
        pipeline: Pipeline,
        cfg: ServeConfig,
        server_cfg: ServerConfig,
        port: u16,
        obs: ntr_obs::Obs,
        index: Option<Arc<ntr_index::SearchIndex>>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        if let Some(ev) = obs.event("serve_start") {
            ev.u64("port", u64::from(addr.port()))
                .u64("workers", cfg.n_workers.max(1) as u64)
                .u64("max_batch", cfg.max_batch as u64)
                .u64("cache_bytes", cfg.cache_bytes as u64)
                .u64("queue_cap", cfg.queue_cap as u64)
                .u64("max_conns", server_cfg.max_conns as u64)
                .finish();
        }
        let service = EmbeddingService::start(pipeline, cfg, obs.clone())?;
        let stop = Arc::new(AtomicBool::new(false));
        let (waker, wake_rx) = crate::poller::waker()?;
        let ev_loop = EventLoop::new(
            listener,
            service.handle(),
            server_cfg,
            waker.clone(),
            wake_rx,
            Arc::clone(&stop),
            obs.clone(),
            index,
        )?;
        let event_loop = std::thread::Builder::new()
            .name("ntr-serve-loop".into())
            .spawn(move || ev_loop.run())?;
        Ok(Server {
            addr,
            stop,
            waker,
            event_loop: Some(event_loop),
            service: Some(service),
            obs,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to drain and stop; `wait` completes the drain.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Blocks until the event loop exits (client shutdown command or
    /// [`Server::stop`]), then drains the service and reports final
    /// counters via `serve_end` and the metrics snapshot.
    pub fn wait(mut self) -> ServerStats {
        let event_loop = self
            .event_loop
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default();
        let service = self
            .service
            .take()
            .expect("wait consumes the service exactly once")
            .shutdown();
        let obs = &self.obs;
        if let Some(ev) = obs.event("serve_end") {
            ev.u64("requests", service.requests)
                .u64("batches", service.batches)
                .u64("hits", service.cache.hits)
                .u64("misses", service.cache.misses)
                .u64("evictions", service.cache.evictions)
                .u64("errors", service.errors)
                .u64("shed", service.shed)
                .u64("accept_errors", event_loop.accept_errors)
                .u64("timeouts", event_loop.idle_closes + event_loop.slow_closes)
                .u64("p50_ms", service.p50_ms)
                .u64("p99_ms", service.p99_ms)
                .u64("deadline_exceeded", service.deadline_exceeded)
                .u64("internal", service.internal)
                .u64("restarts", service.restarts)
                .u64("quarantined", service.quarantined)
                .u64("degraded", service.degraded_rejects)
                .finish();
        }
        obs.add("serve/requests", service.requests);
        obs.add("serve/batches", service.batches);
        obs.add("serve/errors", service.errors);
        obs.add("serve/cache_hits", service.cache.hits);
        obs.add("serve/cache_misses", service.cache.misses);
        obs.add("serve/cache_evictions", service.cache.evictions);
        let _ = obs.write_metrics();
        ServerStats {
            service,
            event_loop,
        }
    }
}

/// A response line rendered off-loop, addressed to a connection slot.
struct Completion {
    slot: usize,
    gen: u64,
    line: String,
}

/// One slab entry: the connection plus its registration bookkeeping.
struct Slot {
    conn: Conn,
    /// Guards stale completions after the slot is recycled.
    gen: u64,
    /// Interest currently registered with the poller.
    registered: Interest,
}

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;
const TOKEN_BASE: usize = 2;

/// Accepts at most this many connections per readiness tick so a connect
/// storm cannot starve established connections.
const ACCEPT_BURST: usize = 64;

const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(200);

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    listener_registered: bool,
    handle: ServeHandle,
    cfg: ServerConfig,
    limits: ConnLimits,
    /// Shared with [`Server::stop`] and with every in-flight completion.
    waker: Waker,
    wake_rx: WakeReceiver,
    stop: Arc<AtomicBool>,
    obs: ntr_obs::Obs,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    active: usize,
    gen_counter: u64,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    /// Set while recovering from a transient accept error.
    accept_resume_at: Option<Instant>,
    accept_backoff: Duration,
    /// Set when a drain began (shutdown command or `Server::stop`).
    draining_since: Option<Instant>,
    /// ANN index answering the `search` verb; `None` ⇒ `IndexNotLoaded`.
    index: Option<Arc<ntr_index::SearchIndex>>,
    stats: LoopStats,
}

impl EventLoop {
    #[allow(clippy::too_many_arguments)]
    fn new(
        listener: TcpListener,
        handle: ServeHandle,
        cfg: ServerConfig,
        waker: Waker,
        wake_rx: WakeReceiver,
        stop: Arc<AtomicBool>,
        obs: ntr_obs::Obs,
        index: Option<Arc<ntr_index::SearchIndex>>,
    ) -> io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(EventLoop {
            limits: ConnLimits {
                max_line_bytes: cfg.max_line_bytes,
                max_inflight: MAX_INFLIGHT_PER_CONN,
                max_write_buf: MAX_WRITE_BUF,
                idle_timeout: cfg.idle_timeout,
            },
            poller,
            listener,
            listener_registered: true,
            handle,
            cfg,
            waker,
            wake_rx,
            stop,
            obs,
            slots: Vec::new(),
            free: Vec::new(),
            active: 0,
            gen_counter: 0,
            completions: Arc::new(Mutex::new(VecDeque::new())),
            accept_resume_at: None,
            accept_backoff: ACCEPT_BACKOFF_MIN,
            draining_since: None,
            index,
            stats: LoopStats::default(),
        })
    }

    fn run(mut self) -> LoopStats {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let now = Instant::now();
            if self.stop.load(Ordering::SeqCst) && self.draining_since.is_none() {
                self.begin_drain(now);
            }
            if self.drained(now) {
                break;
            }
            let timeout = self.next_timeout(now);
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            let now = Instant::now();
            let mut accept_ready = false;
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.wake_rx.drain(),
                    t => self.handle_conn_event(t - TOKEN_BASE, ev, now),
                }
            }
            self.drain_completions(now);
            if accept_ready || self.accept_resume_due(now) {
                self.accept_burst(now);
            }
            self.check_timeouts(now);
        }
        self.stats
    }

    /// True when the accept-backoff pause expired; re-registers the
    /// listener with the poller on resume.
    fn accept_resume_due(&mut self, now: Instant) -> bool {
        match self.accept_resume_at {
            Some(at) if now >= at => {
                self.accept_resume_at = None;
                if !self.listener_registered && self.draining_since.is_none() {
                    self.listener_registered = self
                        .poller
                        .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                        .is_ok();
                }
                true
            }
            _ => false,
        }
    }

    fn begin_drain(&mut self, now: Instant) {
        self.draining_since = Some(now);
        if self.listener_registered {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
        for i in 0..self.slots.len() {
            let quiescent = match &mut self.slots[i] {
                Some(slot) => {
                    slot.conn.draining = true;
                    slot.conn.quiescent()
                }
                None => continue,
            };
            if quiescent {
                self.close(i);
            } else {
                self.refresh(i);
            }
        }
    }

    /// Drain completes when every connection closed, or the hard
    /// `DRAIN_TIMEOUT` expires (remaining connections are cut).
    fn drained(&mut self, now: Instant) -> bool {
        let Some(since) = self.draining_since else {
            return false;
        };
        if self.active == 0 {
            return true;
        }
        if now.duration_since(since) >= DRAIN_TIMEOUT {
            for i in 0..self.slots.len() {
                if self.slots[i].is_some() {
                    self.close(i);
                }
            }
            return true;
        }
        false
    }

    /// Next poll deadline: the earliest of accept-backoff resume, drain
    /// deadline, and per-connection idle deadlines.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let mut deadline: Option<Instant> = None;
        let mut consider = |d: Instant| match deadline {
            Some(cur) if cur <= d => {}
            _ => deadline = Some(d),
        };
        if let Some(at) = self.accept_resume_at {
            consider(at);
        }
        if let Some(since) = self.draining_since {
            consider(since + DRAIN_TIMEOUT);
        }
        for slot in self.slots.iter().flatten() {
            consider(slot.conn.last_progress + self.limits.idle_timeout);
        }
        deadline.map(|d| d.saturating_duration_since(now))
    }

    fn accept_burst(&mut self, now: Instant) {
        if self.draining_since.is_some() || self.accept_resume_at.is_some() {
            return;
        }
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    if self.active >= self.cfg.max_conns {
                        // Typed rejection: one Overloaded line, then close
                        // (dropping the stream). Best-effort write — a
                        // fresh socket's send buffer always has room for
                        // one short line.
                        self.stats.conns_rejected += 1;
                        self.obs.inc("serve/conns_rejected");
                        let _ = stream.set_nonblocking(true);
                        let line = wire::conn_limit_response(self.cfg.max_conns);
                        let _ = (&stream).write_all(line.as_bytes());
                        let _ = (&stream).write_all(b"\n");
                        continue;
                    }
                    let Ok(conn) = Conn::new(stream, now) else {
                        continue;
                    };
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.slots.len() - 1
                    });
                    let interest = conn.interest(&self.limits);
                    if self
                        .poller
                        .register(conn.stream.as_raw_fd(), TOKEN_BASE + slot, interest)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.gen_counter += 1;
                    self.slots[slot] = Some(Slot {
                        conn,
                        gen: self.gen_counter,
                        registered: interest,
                    });
                    self.active += 1;
                    self.stats.conns_accepted += 1;
                    self.obs.inc("serve/conns_accepted");
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient by policy: EMFILE/ENFILE, ECONNABORTED,
                    // EINTR, … — an accept error must never stop the
                    // server. Count it, back off exponentially, retry.
                    self.stats.accept_errors += 1;
                    self.obs.inc("serve/accept_errors");
                    if self.listener_registered {
                        let _ = self.poller.deregister(self.listener.as_raw_fd());
                        self.listener_registered = false;
                    }
                    self.accept_resume_at = Some(now + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    break;
                }
            }
        }
    }

    fn handle_conn_event(&mut self, slot: usize, ev: Event, now: Instant) {
        if self.slots.get(slot).is_none_or(Option::is_none) {
            return; // already closed earlier this tick
        }
        if ev.hangup && !ev.readable {
            self.close(slot);
            return;
        }
        if ev.writable && !self.flush_slot(slot, now) {
            return;
        }
        if ev.readable {
            if !self.fill_slot(slot, now) {
                return;
            }
            self.process_frames(slot, now);
        }
        self.finish_or_refresh(slot, now);
    }

    /// A slot access found the connection gone where one was expected: a
    /// stale token / recycled-slot race. Before this was checked, the
    /// `unwrap()` here panicked the single event-loop thread and killed
    /// every connection; now the straggler is counted and (re)closed.
    fn slot_race(&mut self, slot: usize) {
        self.stats.slot_races += 1;
        self.obs.inc("serve/slot_races");
        if slot < self.slots.len() {
            self.close(slot); // no-op on an already vacated slot
        }
    }

    /// Flushes `slot`'s write buffer. Returns false when the slot is no
    /// longer usable (vacated by a race, or closed on a write error).
    fn flush_slot(&mut self, slot: usize, now: Instant) -> bool {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            self.slot_race(slot);
            return false;
        };
        if s.conn.flush(now).is_err() {
            self.close(slot);
            return false;
        }
        true
    }

    /// Reads from `slot`'s socket into its frame buffer. Returns false when
    /// the slot is no longer usable.
    fn fill_slot(&mut self, slot: usize, now: Instant) -> bool {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            self.slot_race(slot);
            return false;
        };
        if s.conn.fill(&self.limits, now).is_err() {
            self.close(slot);
            return false;
        }
        true
    }

    /// Parses and dispatches frames from `slot`'s read buffer, bounded by
    /// the per-connection in-flight cap.
    fn process_frames(&mut self, slot: usize, now: Instant) {
        loop {
            let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if s.conn.inflight >= self.limits.max_inflight {
                return;
            }
            let Some(frame) = s.conn.next_frame(&self.limits) else {
                return;
            };
            match frame {
                Frame::Oversized { buffered } => {
                    self.stats.oversized_lines += 1;
                    self.obs.inc("serve/oversized_lines");
                    let line = wire::line_too_long_response(buffered, self.limits.max_line_bytes);
                    self.queue_line(slot, &line);
                }
                Frame::Line(bytes) => {
                    if bytes.iter().all(|b| b.is_ascii_whitespace()) {
                        continue;
                    }
                    let Ok(text) = std::str::from_utf8(&bytes) else {
                        let line = wire::err_response(&wire::WireError {
                            id: None,
                            kind: "BadRequest",
                            message: "request line is not valid UTF-8".into(),
                        });
                        self.queue_line(slot, &line);
                        continue;
                    };
                    match wire::scan(text.trim()) {
                        Ok(WireRequest::Shutdown) => {
                            self.queue_line(slot, "{\"ok\": true, \"cmd\": \"shutdown\"}");
                            self.stop.store(true, Ordering::SeqCst);
                            self.begin_drain(now);
                            return;
                        }
                        Ok(WireRequest::Health) => {
                            // Answered inline on the loop thread: health
                            // must work even when the batcher is degraded
                            // or its queue is full.
                            let h = self.handle.health();
                            let state = if self.draining_since.is_some() {
                                "draining"
                            } else {
                                h.state
                            };
                            let line = wire::health_response(state, &h);
                            self.queue_line(slot, &line);
                        }
                        Ok(WireRequest::Encode { id, req }) => self.submit(slot, id, req),
                        Ok(WireRequest::Search(sr)) => {
                            self.submit_search(slot, sr);
                        }
                        Err(e) => {
                            let line = wire::err_response(&e);
                            self.queue_line(slot, &line);
                        }
                    }
                }
            }
        }
    }

    /// Looks a scanned encode request up once: a hit is rendered straight into
    /// the write buffer, a miss builds its table for the batcher's queue.
    fn submit(&mut self, slot: usize, id: u64, (spec, body): (EncoderSpec, wire::Body<'_>)) {
        let submitted = Instant::now();
        let key_of = |p: &Pipeline| body.key(spec, p.linearizer().name(), p.options());
        let lookup = self.handle.lookup(key_of, submitted);
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let key = match lookup {
            Ok(hit) => {
                wire::write_ok(&mut s.conn.write_buf, id, &hit, true);
                s.conn.write_buf.push(b'\n');
                return;
            }
            Err(key) => key,
        };
        s.conn.inflight += 1;
        let gen = s.gen;
        let complete = self.completion(slot, gen, move |resp| match resp {
            Ok(reply) => wire::ok_response(id, &reply.encoding, reply.cached),
            Err(e) => wire::encode_err_response(id, &e),
        });
        let req = body.into_request(spec);
        self.handle.admit(req, key, submitted, complete, true);
    }

    /// A completion that queues `render`'s line for `slot`. Only one run off
    /// the loop wakes it: a shed, reject or search hit run by the loop itself
    /// is sent by the same tick's [`EventLoop::drain_completions`].
    fn completion(
        &self,
        slot: usize,
        gen: u64,
        render: impl FnOnce(crate::service::ServeResponse) -> String + Send + 'static,
    ) -> crate::service::Completion {
        let completions = Arc::clone(&self.completions);
        let (waker, loop_thread) = (self.waker.clone(), std::thread::current().id());
        Box::new(move |resp| {
            let line = render(resp);
            crate::service::lock_clean(&completions).push_back(Completion { slot, gen, line });
            if std::thread::current().id() != loop_thread {
                waker.wake();
            }
        })
    }

    /// Hands a search request's encode stage to the service; the completion
    /// then runs the ANN lookup (off-loop on a worker thread for cache
    /// misses, inline for hits — an IVF probe is tens of microseconds) and
    /// renders the ranked results. Index-level failures are answered inline
    /// with typed errors; encode-stage failures (deadline, degraded,
    /// overloaded, …) surface exactly as they do for `encode`.
    fn submit_search(&mut self, slot: usize, sr: wire::SearchRequest) {
        let Some(index) = self.index.clone() else {
            self.obs.inc("index/not_loaded");
            let line = wire::index_not_loaded_response(sr.id);
            self.queue_line(slot, &line);
            return;
        };
        if sr.k == 0 || sr.k > index.store.len() {
            self.obs.inc("index/bad_k");
            let line = wire::search_err_response(
                sr.id,
                &ntr_index::IndexError::BadK {
                    k: sr.k,
                    len: index.store.len(),
                },
            );
            self.queue_line(slot, &line);
            return;
        }
        let kind = sr
            .model
            .or_else(|| index.store.meta_get("model").and_then(|s| s.parse().ok()));
        let Some(kind) = kind else {
            let line = wire::err_response(&wire::WireError {
                id: Some(sr.id),
                kind: "BadRequest",
                message: "missing \"model\" and the index records no build model".into(),
            });
            self.queue_line(slot, &line);
            return;
        };
        // Precision falls back to the precision the index was built at
        // (indexes that predate the stamp are f32).
        let precision = sr.precision.or_else(|| {
            index
                .store
                .meta_get("precision")
                .and_then(|s| s.parse().ok())
        });
        let spec = EncoderSpec::new(kind, precision.unwrap_or_default());
        if let Err(e) = spec.validate() {
            let line = wire::err_response(&wire::WireError {
                id: Some(sr.id),
                kind: e.kind(),
                message: e.to_string(),
            });
            self.queue_line(slot, &line);
            return;
        }
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        s.conn.inflight += 1;
        let gen = s.gen;
        let obs = self.obs.clone();
        let (id, k, nprobe) = (sr.id, sr.k, sr.nprobe);
        let complete = self.completion(slot, gen, move |resp| match resp {
            Ok(reply) => {
                let emb = reply.encoding.table_embedding();
                let start = Instant::now();
                match index.search(emb.data(), k, nprobe) {
                    Ok(res) => {
                        obs.inc("index/searches");
                        obs.observe("index/search_us", start.elapsed().as_micros() as u64);
                        wire::search_ok_response(id, reply.cached, &res, &index.store)
                    }
                    Err(e) => {
                        obs.inc("index/search_errors");
                        wire::search_err_response(id, &e)
                    }
                }
            }
            Err(e) => wire::encode_err_response(id, &e),
        });
        let req = crate::service::ServeRequest {
            spec,
            table: sr.table,
            context: sr.context,
            timeout: sr.timeout,
        };
        self.handle.try_submit(req, complete);
    }

    /// Queues a response line plus its newline.
    fn queue_line(&mut self, slot: usize, line: &str) {
        if let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) {
            s.conn.queue_write(line.as_bytes());
            s.conn.queue_write(b"\n");
        }
    }

    fn drain_completions(&mut self, now: Instant) {
        loop {
            let completion = crate::service::lock_clean(&self.completions).pop_front();
            let Some(c) = completion else { break };
            {
                let Some(s) = self.slots.get_mut(c.slot).and_then(Option::as_mut) else {
                    continue; // connection closed while the request ran
                };
                if s.gen != c.gen {
                    continue; // slot was recycled
                }
                s.conn.inflight -= 1;
                s.conn.queue_write(c.line.as_bytes());
                s.conn.queue_write(b"\n");
            }
            // A freed in-flight slot may unblock buffered frames.
            self.process_frames(c.slot, now);
            self.finish_or_refresh(c.slot, now);
        }
    }

    /// Flushes, closes if terminal, else re-arms poller interest.
    fn finish_or_refresh(&mut self, slot: usize, now: Instant) {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let flushed = match s.conn.flush(now) {
            Ok(f) => f,
            Err(_) => {
                self.close(slot);
                return;
            }
        };
        // Re-borrow after the flush above released the slot borrow; the
        // connection can only have vanished via a slot race.
        let Some(s) = self.slots.get(slot).and_then(Option::as_ref) else {
            self.slot_race(slot);
            return;
        };
        let done = (flushed && s.conn.close_after_flush)
            || (s.conn.peer_closed && s.conn.quiescent() && !s.conn.has_buffered_input())
            || (s.conn.draining && s.conn.quiescent());
        if done {
            self.close(slot);
        } else {
            self.refresh(slot);
        }
    }

    /// Re-arms poller interest when it changed since registration.
    fn refresh(&mut self, slot: usize) {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let want = s.conn.interest(&self.limits);
        if want != s.registered
            && self
                .poller
                .modify(s.conn.stream.as_raw_fd(), TOKEN_BASE + slot, want)
                .is_ok()
        {
            s.registered = want;
        }
    }

    fn check_timeouts(&mut self, now: Instant) {
        for i in 0..self.slots.len() {
            let reason = match &self.slots[i] {
                Some(s) => s.conn.timed_out(&self.limits, now),
                None => None,
            };
            let Some(reason) = reason else { continue };
            if reason == CloseReason::SlowConsumer {
                self.stats.slow_closes += 1;
                self.obs.inc("serve/closed_slow");
            } else {
                self.stats.idle_closes += 1;
                self.obs.inc("serve/closed_idle");
            }
            self.close(i);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(s) = self.slots[slot].take() {
            let _ = self.poller.deregister(s.conn.stream.as_raw_fd());
            self.active -= 1;
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_table::Table;

    fn test_event_loop() -> EventLoop {
        let t = Table::from_strings("t", &["a", "b"], &[&["1", "2"]]);
        let pipeline = Pipeline::builder()
            .vocab_from_tables(std::slice::from_ref(&t))
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
        let service =
            EmbeddingService::start(pipeline, cfg, ntr_obs::Obs::disabled()).expect("service");
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let (waker, wake_rx) = crate::poller::waker().expect("waker");
        EventLoop::new(
            listener,
            service.handle(),
            ServerConfig::default(),
            waker,
            wake_rx,
            Arc::new(AtomicBool::new(false)),
            ntr_obs::Obs::disabled(),
            None,
        )
        .expect("event loop")
    }

    /// Regression for the event-loop slot `unwrap()`s: an event addressed to
    /// a vacated or out-of-range slot must be absorbed as a counted slot
    /// race, not panic the loop thread (which killed every connection).
    #[test]
    fn vacant_slot_access_is_counted_not_a_panic() {
        let mut el = test_event_loop();
        let now = Instant::now();

        // Out-of-range slot (stale token past the slab's end).
        assert!(!el.flush_slot(17, now));
        assert_eq!(el.stats.slot_races, 1);

        // In-range but vacated slot (closed earlier, token still queued).
        el.slots.push(None);
        el.free.push(0);
        assert!(!el.fill_slot(0, now));
        assert_eq!(el.stats.slot_races, 2);
        assert!(!el.flush_slot(0, now));
        assert_eq!(el.stats.slot_races, 3);

        // The full event path hits the entry guard and stays silent.
        let ev = Event {
            token: TOKEN_BASE,
            readable: true,
            writable: true,
            hangup: false,
        };
        el.handle_conn_event(0, ev, now);
        assert_eq!(el.stats.slot_races, 3);

        // finish_or_refresh on a vacant slot returns without counting.
        el.finish_or_refresh(0, now);
        assert_eq!(el.stats.slot_races, 3);
    }
}
