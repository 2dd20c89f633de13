//! The batched embedding service: a dynamic micro-batcher in front of
//! worker threads that share one model per spec, with a self-healing core.
//!
//! # Batching
//!
//! Requests arrive one at a time through [`ServeHandle::submit`] and land
//! in a queue. A dedicated batcher thread sleeps until a request arrives,
//! takes everything already queued behind it up to `max_batch`, and
//! flushes — it never lingers for company. The models have no batch
//! dimension (a batch of eight costs eight forwards), so waiting can only
//! add latency; a batch buys worker parallelism, and the queue supplies
//! that by itself: the flush is synchronous on the batcher thread, so
//! work that arrives while a flush runs *is* the next batch.
//!
//! # Bit-identity
//!
//! The models have no batch dimension, so "batched forward" here means:
//! `min(n_workers, batch)` worker threads claim the batch's requests from
//! one cursor, in arrival order, and each serializes and encodes its
//! request as a single sequence through [`Pipeline::encode_serialized`] —
//! the exact compute core behind the sequential [`Pipeline::encode`] — with
//! [`Rows::CLS`]: a reply (and a search) consumes the `[CLS]` row alone,
//! so that is all the encoder computes in its last layer, and all a reply
//! or cache entry holds (`states` is `[1, d]`). Inference is `&self`
//! ([`SequenceEncoder::infer`]): each spec has one model, built lazily from
//! the shared seeded config and read by every worker at once, so every
//! request's output is bit-identical to row 0 of what a sequential `encode`
//! call would produce, at any batch size, worker count and claim order. A
//! worker that finishes early claims the next request, so no worker idles
//! while another still has a queue of its own.
//!
//! # Self-healing
//!
//! Internal faults are isolated, typed, and recovered from — a panic
//! anywhere in the flush path can never drop a response or kill the
//! service:
//!
//! * **Flight board.** Before any work runs, every request's completion
//!   moves onto a per-flush board. The success path takes a completion
//!   off the board when it answers; after a caught panic, whatever is
//!   still on the board is answered with [`EncodeError::Internal`].
//!   Exactly one response per request, no matter where the panic fired.
//! * **Worker quarantine.** A panic while a worker handles a request fails
//!   that request alone: the fault is counted against the worker and
//!   reported, and the worker claims the next request. It owns no model
//!   state — inference only reads the shared models — so there is nothing
//!   to drop or rebuild, and its next output is bit-identical to a
//!   fault-free one.
//! * **Batcher supervision.** The batcher loop runs under `catch_unwind`
//!   with bounded restarts and exponential backoff; past the budget it
//!   stops batching and answers everything with a typed
//!   [`EncodeError::Internal`] instead of hanging clients.
//!   [`ServeHandle::submit`]/[`ServeHandle::try_submit`] never panic on a
//!   dead batcher — the completion still fires.
//! * **Deadlines.** A request may carry a deadline (wire `timeout_ms`,
//!   or [`ServeConfig::default_timeout`]), enforced at admission, when a
//!   worker claims it (expiry in the queue or behind earlier requests of
//!   its flush), and after its encode — always as a typed
//!   [`EncodeError::DeadlineExceeded`].
//! * **Degraded mode.** A circuit breaker over recent flush outcomes
//!   flips the service into cache-only mode when internal faults
//!   cluster: hits are still served, misses are rejected with
//!   [`EncodeError::Degraded`], and every `probe_every`-th miss is
//!   admitted as a half-open probe — one clean flush closes the breaker.
//! * **Poison recovery.** Every mutex in this module is taken through
//!   [`lock_clean`], so a panic while holding a lock never cascades into
//!   `PoisonError` unwraps elsewhere.
//!
//! Deterministic drills for all of this are injected through the
//! `NTR_FAULTS` grammar (`serve-panic@N`, `serve-slow@N` — see
//! [`ntr_tensor::faults`]), where `@N` counts flushes.
//!
//! # Caching
//!
//! Before queueing, each request is looked up once in a content-hash keyed
//! LRU cache ([`crate::cache`]); hits are answered immediately without
//! touching the batcher. The event loop looks a wire request up from its
//! scanned line ([`ServeHandle::lookup`]) and hands a miss to
//! [`ServeHandle::admit`] under the same key.

use crate::cache::{content_key, CacheStats, EmbeddingCache};
use ntr::{build_encoder, EncodeError, EncoderSpec, ModelKind, Pipeline, Rows, TableEncoding};
use ntr_models::{ModelConfig, SequenceEncoder};
use ntr_obs::metrics::Histogram;
use ntr_table::Table;
use ntr_tensor::faults::{FaultKind, FaultPlan};
use ntr_tensor::par;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning: a panic that died while
/// holding the lock (already isolated by the flush path) must not turn
/// every later `lock().unwrap()` into a second panic. The protected
/// state is a cache (rebuildable), a counter, or the map of shared models,
/// which only ever gains fully built entries.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Message carried by an injected `serve-panic@N` flush fault (stable
/// for assertions in chaos drills).
pub const INJECTED_FLUSH_PANIC_MSG: &str = "ntr-faults: injected serve flush panic";

/// How long an injected `serve-slow@N` fault stalls its flush.
pub const INJECTED_SLOW_FLUSH: Duration = Duration::from_millis(60);

/// Tuning knobs for [`EmbeddingService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most requests one flush takes off the queue; the rest wait for the
    /// next flush. A flush never waits to reach it.
    pub max_batch: usize,
    /// Inert, read by nothing (the batcher never lingers). Stays until the
    /// next `benchmark` PR: the frozen `ntrbench` names it in a literal.
    pub max_wait: Duration,
    /// Number of worker threads encoding one flush concurrently.
    pub n_workers: usize,
    /// Embedding-cache capacity in bytes (0 disables caching).
    pub cache_bytes: usize,
    /// Admission-controlled submit-queue bound: [`ServeHandle::try_submit`]
    /// sheds with a typed [`EncodeError::Overloaded`] once this many
    /// requests are queued ahead of the micro-batcher (0 = unbounded).
    /// Cache hits are always admitted — they never occupy the queue.
    pub queue_cap: usize,
    /// Model configuration; `None` uses the pipeline's
    /// [`Pipeline::default_config`]. Every worker reads the one model this
    /// config builds per encoder spec.
    pub model_config: Option<ModelConfig>,
    /// Deadline applied to requests that carry none of their own
    /// (`None` = no default deadline).
    pub default_timeout: Option<Duration>,
    /// Circuit breaker: flush outcomes remembered.
    pub breaker_window: usize,
    /// Circuit breaker: faulted flushes within the window that flip the
    /// service into cache-only degraded mode.
    pub breaker_threshold: usize,
    /// In degraded mode, every `probe_every`-th cache miss is admitted
    /// as a half-open probe instead of rejected; one clean probe flush
    /// closes the breaker.
    pub probe_every: usize,
    /// Deterministic fault schedule for chaos drills (`serve-panic@N`,
    /// `serve-slow@N`; `@N` counts flushes).
    pub faults: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            n_workers: par::max_threads(),
            cache_bytes: 32 << 20,
            queue_cap: 256,
            model_config: None,
            default_timeout: None,
            breaker_window: 16,
            breaker_threshold: 3,
            probe_every: 8,
            faults: None,
        }
    }
}

/// One encode request: which encoder spec (family + serving precision),
/// over which table, with which natural-language context, optionally
/// bounded by a deadline.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Encoder spec to serve with (family + precision). Int8 is only
    /// valid for [`ModelKind::RowStudent`]; invalid specs are rejected at
    /// admission with a typed [`EncodeError::BadModelChoice`].
    pub spec: EncoderSpec,
    /// The table.
    pub table: Table,
    /// Caption / question / claim (may be empty).
    pub context: String,
    /// Per-request deadline budget (overrides
    /// [`ServeConfig::default_timeout`]; `None` inherits it).
    pub timeout: Option<Duration>,
}

impl ServeRequest {
    /// An f32 request with no per-request deadline (what every
    /// pre-redesign caller meant).
    pub fn new(kind: ModelKind, table: Table, context: impl Into<String>) -> Self {
        ServeRequest::with_spec(EncoderSpec::f32(kind), table, context)
    }

    /// A request at an explicit precision, with no per-request deadline.
    pub fn with_spec(spec: EncoderSpec, table: Table, context: impl Into<String>) -> Self {
        ServeRequest {
            spec,
            table,
            context: context.into(),
            timeout: None,
        }
    }
}

/// A successful encode result.
#[derive(Clone)]
pub struct ServeReply {
    /// The encoding (shared with the cache).
    pub encoding: Arc<TableEncoding>,
    /// Whether it was answered from the cache.
    pub cached: bool,
}

// Compact by hand: derived Debug would dump the serialized table's ids and
// token metadata, and the embedding's floats, into assertion messages.
impl std::fmt::Debug for ServeReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeReply")
            .field("cached", &self.cached)
            .field("seq_len", &self.encoding.encoded.len())
            .finish_non_exhaustive()
    }
}

/// What comes back on a request's response channel.
pub type ServeResponse = Result<ServeReply, EncodeError>;

/// How a response is delivered: invoked exactly once, possibly from a
/// worker thread. The event-loop server hands in a closure that queues
/// the rendered line and wakes the poller; [`ServeHandle::submit`] wraps
/// a channel sender for blocking callers.
pub type Completion = Box<dyn FnOnce(ServeResponse) + Send>;

struct Job {
    req: ServeRequest,
    key: u64,
    submitted: Instant,
    /// Absolute deadline plus the budget (ms) for the error message.
    deadline: Option<(Instant, u64)>,
    complete: Completion,
}

/// One entry on a flush's flight board: everything needed to answer the
/// request, kept apart from the encode work so a panic can never drop
/// it.
struct InFlight {
    key: u64,
    submitted: Instant,
    deadline: Option<(Instant, u64)>,
    complete: Completion,
}

/// Point-in-time service counters (reported in the `serve_end` trace
/// event and the metrics snapshot).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests submitted (including cache hits and failures).
    pub requests: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Requests answered with an [`EncodeError`].
    pub errors: u64,
    /// Requests shed at admission with [`EncodeError::Overloaded`]
    /// (monotonic; also counted in `errors`).
    pub shed: u64,
    /// Requests answered with [`EncodeError::DeadlineExceeded`] (also
    /// counted in `errors`).
    pub deadline_exceeded: u64,
    /// Requests answered with [`EncodeError::Internal`] after an
    /// isolated panic (also counted in `errors`).
    pub internal: u64,
    /// Batcher-loop supervision restarts.
    pub restarts: u64,
    /// Worker quarantine events (a panic failed the request a worker was
    /// handling; the worker went on claiming).
    pub quarantined: u64,
    /// Cache misses rejected with [`EncodeError::Degraded`] while the
    /// breaker was open (also counted in `errors`).
    pub degraded_rejects: u64,
    /// Half-open probes admitted while the breaker was open.
    pub degraded_probes: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Median request latency (submit → response), milliseconds,
    /// derived from the 32-bucket log2 latency histogram (rank-interpolated
    /// within the matched bucket). Shed and degraded-rejected
    /// requests are excluded — they do no work and would skew the SLO.
    pub p50_ms: u64,
    /// 99th-percentile request latency, milliseconds (same derivation).
    pub p99_ms: u64,
}

/// One worker's health, as reported by the `health` wire verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Times this worker was quarantined.
    pub rebuilds: u64,
}

/// Service self-assessment for the `{"cmd": "health"}` wire verb.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// `"ok"` or `"degraded"` (the server layer upgrades this to
    /// `"draining"` during shutdown).
    pub state: &'static str,
    /// Requests queued ahead of the micro-batcher.
    pub queue_depth: usize,
    /// Configured admission bound (0 = unbounded).
    pub queue_cap: usize,
    /// Batcher supervision restarts so far.
    pub restarts: u64,
    /// Worker quarantine events so far.
    pub quarantined: u64,
    /// Deadline-exceeded responses so far.
    pub deadline_exceeded: u64,
    /// Per-worker status, in worker order.
    pub replicas: Vec<ReplicaStatus>,
}

/// Count-based circuit breaker over recent flush outcomes. Deterministic
/// by construction: state changes only on flush completions and
/// admission decisions, never on wall-clock time.
#[derive(Default)]
struct Breaker {
    /// Recent flush outcomes, newest last (`true` = internal fault).
    window: VecDeque<bool>,
    /// Open = cache-only degraded mode.
    open: bool,
    /// Misses rejected since the last half-open probe.
    rejected_since_probe: usize,
}

struct Shared {
    pipeline: Pipeline,
    cfg: ServeConfig,
    model_cfg: ModelConfig,
    cache: Mutex<EmbeddingCache>,
    /// One model per spec, built on first use, read by every worker.
    models: Mutex<HashMap<EncoderSpec, Arc<dyn SequenceEncoder + Send>>>,
    /// Quarantines per worker, indexed by a flush's task number.
    replicas: Vec<AtomicU64>,
    faults: Mutex<FaultPlan>,
    breaker: Mutex<Breaker>,
    obs: ntr_obs::Obs,
    queue_depth: AtomicUsize,
    requests: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    internal: AtomicU64,
    restarts: AtomicU64,
    quarantined: AtomicU64,
    degraded_rejects: AtomicU64,
    degraded_probes: AtomicU64,
    /// Bounded-memory latency record: 32 log2 buckets, wait-free.
    latencies_us: Histogram,
}

impl Shared {
    fn answer(&self, complete: Completion, submitted: Instant, r: ServeResponse) {
        match &r {
            Err(EncodeError::DeadlineExceeded { .. }) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                self.obs.inc("serve/deadline_exceeded");
            }
            Err(EncodeError::Internal { .. }) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.internal.fetch_add(1, Ordering::Relaxed);
                self.obs.inc("serve/internal_errors");
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {}
        }
        self.record_latency(submitted);
        complete(r);
    }

    fn record_latency(&self, submitted: Instant) {
        let us = submitted.elapsed().as_micros() as u64;
        self.latencies_us.record(us);
        self.obs.observe("serve/latency_us", us);
    }

    /// The shared model for `spec`, built from the seeded config on first use.
    fn model(&self, spec: EncoderSpec) -> Arc<dyn SequenceEncoder + Send> {
        let mut models = lock_clean(&self.models);
        let build = || build_encoder(spec, &self.model_cfg).expect("spec validated at admission");
        Arc::clone(models.entry(spec).or_insert_with(|| build().into()))
    }

    /// Answers whatever is still on the flight board with a typed
    /// internal error — the exactly-once guarantee after a caught panic.
    fn fail_board(&self, board: &[Mutex<Option<InFlight>>], detail: &str) {
        for slot in board {
            if let Some(f) = lock_clean(slot).take() {
                self.answer(
                    f.complete,
                    f.submitted,
                    Err(EncodeError::Internal {
                        detail: detail.to_string(),
                    }),
                );
            }
        }
    }

    /// A percentile (0–100) from the latency histogram, interpolated within
    /// the matched log2 bucket and converted to milliseconds. (Reporting the
    /// bucket's upper edge overstated the tail by up to 2×, which a p99
    /// ceiling would then have been enforced against.)
    fn latency_pct_ms(&self, p: u64) -> u64 {
        self.latencies_us.percentile(p as f64).div_ceil(1000)
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            internal: self.internal.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            degraded_rejects: self.degraded_rejects.load(Ordering::Relaxed),
            degraded_probes: self.degraded_probes.load(Ordering::Relaxed),
            cache: lock_clean(&self.cache).stats(),
            p50_ms: self.latency_pct_ms(50),
            p99_ms: self.latency_pct_ms(99),
        }
    }

    fn health(&self) -> HealthReport {
        let degraded = lock_clean(&self.breaker).open;
        HealthReport {
            state: if degraded { "degraded" } else { "ok" },
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_cap: self.cfg.queue_cap,
            restarts: self.restarts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            replicas: (self.replicas.iter())
                .map(|r| ReplicaStatus {
                    rebuilds: r.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Records a flush outcome into the breaker and handles state
    /// transitions (open on clustered faults, close on a clean flush
    /// while open).
    fn breaker_record(&self, flush_no: u64, faulted: bool) {
        let mut b = lock_clean(&self.breaker);
        if b.open {
            if !faulted {
                b.open = false;
                b.window.clear();
                b.rejected_since_probe = 0;
                drop(b);
                self.obs.inc("serve/degraded_recovered");
                if let Some(ev) = self.obs.event("serve_recover") {
                    ev.str("kind", "degraded").u64("flush", flush_no).finish();
                }
            }
            return;
        }
        b.window.push_back(faulted);
        while b.window.len() > self.cfg.breaker_window.max(1) {
            b.window.pop_front();
        }
        let faults = b.window.iter().filter(|f| **f).count();
        if faults >= self.cfg.breaker_threshold.max(1) {
            b.open = true;
            b.rejected_since_probe = 0;
            drop(b);
            self.obs.inc("serve/degraded_entered");
            if let Some(ev) = self.obs.event("serve_fault") {
                ev.str("kind", "degraded")
                    .u64("flush", flush_no)
                    .str("detail", "internal-error rate tripped the breaker")
                    .finish();
            }
        }
    }

    /// Degraded-mode admission gate for cache misses: `true` admits
    /// (breaker closed, or this miss is the half-open probe).
    fn degraded_gate(&self) -> bool {
        let mut b = lock_clean(&self.breaker);
        if !b.open {
            return true;
        }
        b.rejected_since_probe += 1;
        if b.rejected_since_probe >= self.cfg.probe_every.max(1) {
            b.rejected_since_probe = 0;
            drop(b);
            self.degraded_probes.fetch_add(1, Ordering::Relaxed);
            self.obs.inc("serve/degraded_probes");
            return true;
        }
        false
    }
}

/// Cloneable submission handle; the server hands one to every connection
/// thread.
#[derive(Clone)]
pub struct ServeHandle {
    tx: mpsc::Sender<Job>,
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Submits one request with no admission control (in-process callers
    /// that want every request encoded eventually). The encoding (or
    /// typed error) arrives on the returned channel; cache hits are
    /// answered before this returns.
    pub fn submit(&self, req: ServeRequest) -> mpsc::Receiver<ServeResponse> {
        let (resp_tx, resp_rx) = mpsc::channel();
        self.submit_inner(
            req,
            Box::new(move |r| {
                let _ = resp_tx.send(r); // receiver may have given up
            }),
            false,
        );
        resp_rx
    }

    /// Admission-controlled submission — the server front door. The
    /// completion is invoked exactly once, possibly before this returns
    /// (cache hit, invalid request, shed, degraded-mode reject) and
    /// possibly from a worker thread. When the submit queue holds
    /// `queue_cap` requests the request is rejected *before* the batcher
    /// with a typed [`EncodeError::Overloaded`]; in degraded mode misses
    /// are rejected with [`EncodeError::Degraded`].
    pub fn try_submit(&self, req: ServeRequest, complete: Completion) {
        self.submit_inner(req, complete, true)
    }

    fn submit_inner(&self, req: ServeRequest, complete: Completion, bounded: bool) {
        let submitted = Instant::now();
        // Spec validation happens before any queueing: an int8 request
        // against a family with no int8 path is a typed O(1) rejection,
        // never a worker-side panic.
        if let Err(e) = req.spec.validate() {
            self.shared.requests.fetch_add(1, Ordering::Relaxed);
            return self.shared.answer(complete, submitted, Err(e));
        }
        let (spec, table, context) = (req.spec, &req.table, &req.context);
        let key_of =
            |p: &Pipeline| content_key(spec, p.linearizer().name(), p.options(), table, context);
        match self.lookup(key_of, submitted) {
            Ok(encoding) => complete(Ok(ServeReply {
                encoding,
                cached: true,
            })),
            Err(key) => self.admit(req, key, submitted, complete, bounded),
        }
    }

    /// Counts a request and looks it up once under the key `key_of` computes.
    /// A hit's latency is recorded here and the caller answers it; a miss
    /// hands back its key for [`ServeHandle::admit`].
    pub(crate) fn lookup(
        &self,
        key_of: impl FnOnce(&Pipeline) -> u64,
        submitted: Instant,
    ) -> Result<Arc<TableEncoding>, u64> {
        let shared = &self.shared;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let key = key_of(&shared.pipeline);
        let hit = lock_clean(&shared.cache).get(key).ok_or(key)?;
        shared.record_latency(submitted);
        Ok(hit)
    }

    /// Admits a request that missed the cache under `key`: the deadline,
    /// degraded-mode and queue-bound checks, then the batcher's queue.
    pub(crate) fn admit(
        &self,
        req: ServeRequest,
        key: u64,
        submitted: Instant,
        complete: Completion,
        bounded: bool,
    ) {
        let shared = &self.shared;
        // Deadline enforcement tier 1 (admission): a zero budget is
        // already expired and never queues.
        let timeout = req.timeout.or(shared.cfg.default_timeout);
        if timeout == Some(Duration::ZERO) {
            let late = EncodeError::DeadlineExceeded { timeout_ms: 0 };
            return shared.answer(complete, submitted, Err(late));
        }
        let deadline = timeout.map(|t| (submitted + t, t.as_millis() as u64));
        // Degraded mode: cache-only service while the breaker is open.
        // Misses are typed-rejected in O(1); every `probe_every`-th miss
        // goes through as a half-open probe.
        if !shared.degraded_gate() {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            shared.degraded_rejects.fetch_add(1, Ordering::Relaxed);
            shared.obs.inc("serve/degraded_rejects");
            // Like sheds, degraded rejects do no work; keeping them out
            // of the latency histogram keeps the SLO honest.
            return complete(Err(EncodeError::Degraded));
        }
        // Admission control happens here — in front of the micro-batcher,
        // so a saturated service rejects in O(1) instead of queueing work
        // it will answer too late.
        let depth = shared.queue_depth.load(Ordering::Relaxed);
        let cap = shared.cfg.queue_cap;
        if bounded && cap > 0 && depth >= cap {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            shared.errors.fetch_add(1, Ordering::Relaxed);
            shared.obs.inc("serve/shed");
            // Shed latencies are ~0 and would skew the SLO percentiles;
            // deliver without recording.
            return complete(Err(EncodeError::Overloaded {
                queue_depth: depth,
                queue_cap: cap,
            }));
        }
        shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        shared.obs.observe("serve/queue_depth", depth as u64 + 1);
        let job = Job {
            req,
            key,
            submitted,
            deadline,
            complete,
        };
        // The batcher exits only after its restart budget is exhausted
        // (or every sender is gone); a dead batcher is a typed error for
        // the caller, never a panic and never a hang.
        if let Err(mpsc::SendError(job)) = self.tx.send(job) {
            shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            shared.answer(
                job.complete,
                job.submitted,
                Err(EncodeError::Internal {
                    detail: "batcher unavailable (restart budget exhausted)".to_string(),
                }),
            );
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Current self-assessment (the `health` wire verb).
    pub fn health(&self) -> HealthReport {
        self.shared.health()
    }
}

/// The running service: batcher thread + worker pool + cache.
pub struct EmbeddingService {
    handle: ServeHandle,
    batcher: Option<JoinHandle<()>>,
}

/// Supervision backoff bounds for batcher restarts (kept short: the
/// batcher holds no corrupt state across restarts, the backoff only
/// stops a hot panic loop from spinning a core).
/// Batcher-loop panics the supervisor absorbs (restart + backoff) before
/// giving up and answering every request with a typed
/// [`EncodeError::Internal`].
const MAX_BATCHER_RESTARTS: u64 = 5;
const RESTART_BACKOFF_MIN: Duration = Duration::from_millis(1);
const RESTART_BACKOFF_MAX: Duration = Duration::from_millis(50);

impl EmbeddingService {
    /// Starts the supervised batcher thread. `obs` receives `serve_batch`
    /// / `serve_fault` / `serve_recover` events and the serve metrics;
    /// pass [`ntr_obs::Obs::disabled`] to opt out. The only error is a
    /// failed thread spawn, surfaced instead of panicking.
    pub fn start(pipeline: Pipeline, cfg: ServeConfig, obs: ntr_obs::Obs) -> std::io::Result<Self> {
        let model_cfg = cfg
            .model_config
            .unwrap_or_else(|| pipeline.default_config());
        let n_workers = cfg.n_workers.max(1);
        let faults = cfg.faults.clone().unwrap_or_default();
        let shared = Arc::new(Shared {
            cache: Mutex::new(EmbeddingCache::new(cfg.cache_bytes)),
            models: Mutex::new(HashMap::new()),
            replicas: (0..n_workers).map(|_| AtomicU64::new(0)).collect(),
            pipeline,
            cfg,
            model_cfg,
            faults: Mutex::new(faults),
            breaker: Mutex::new(Breaker::default()),
            obs,
            queue_depth: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            internal: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            degraded_rejects: AtomicU64::new(0),
            degraded_probes: AtomicU64::new(0),
            latencies_us: Histogram::default(),
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ntr-serve-batcher".into())
                .spawn(move || supervised_batcher(&shared, &rx))?
        };
        Ok(EmbeddingService {
            handle: ServeHandle { tx, shared },
            batcher: Some(batcher),
        })
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        self.handle.shared.stats()
    }

    /// Graceful shutdown: drains every queued request through the normal
    /// batch path, joins the batcher, and returns the final counters.
    ///
    /// The batcher exits once every [`ServeHandle`] clone is gone, so drop
    /// outstanding handles (join connection threads) before calling this.
    pub fn shutdown(self) -> ServeStats {
        let EmbeddingService { handle, batcher } = self;
        let ServeHandle { tx, shared } = handle;
        drop(tx);
        if let Some(batcher) = batcher {
            let _ = batcher.join();
        }
        shared.stats()
    }
}

/// The batcher thread body: runs [`batcher_loop`] under `catch_unwind`
/// with bounded restarts and exponential backoff. Flush-path panics are
/// already isolated inside [`flush`]; this is the outer layer that keeps
/// a panic in the *loop itself* from killing the service. Past the
/// restart budget the thread stops batching but keeps draining the
/// queue, answering everything with a typed internal error so no client
/// ever hangs.
fn supervised_batcher(shared: &Shared, rx: &mpsc::Receiver<Job>) {
    let mut backoff = RESTART_BACKOFF_MIN;
    loop {
        match catch_unwind(AssertUnwindSafe(|| batcher_loop(shared, rx))) {
            // Normal exit: every sender is gone and the queue drained.
            Ok(()) => return,
            Err(payload) => {
                let restarts = shared.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                shared.obs.inc("serve/restarts");
                if let Some(ev) = shared.obs.event("serve_fault") {
                    ev.str("kind", "batcher_panic")
                        .u64("flush", shared.batches.load(Ordering::Relaxed))
                        .str("detail", &par::payload_message(payload))
                        .finish();
                }
                if MAX_BATCHER_RESTARTS < restarts {
                    // Budget exhausted: fail requests fast, typed, forever.
                    while let Ok(job) = rx.recv() {
                        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        shared.answer(
                            job.complete,
                            job.submitted,
                            Err(EncodeError::Internal {
                                detail: "batcher restart budget exhausted".to_string(),
                            }),
                        );
                    }
                    return;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(RESTART_BACKOFF_MAX);
                if let Some(ev) = shared.obs.event("serve_recover") {
                    ev.str("kind", "batcher")
                        .u64("flush", shared.batches.load(Ordering::Relaxed))
                        .u64("restarts", restarts)
                        .finish();
                }
            }
        }
    }
}

fn batcher_loop(shared: &Shared, rx: &mpsc::Receiver<Job>) {
    let max_batch = shared.cfg.max_batch.max(1);
    // Block until work arrives; exit once every handle is gone and the
    // queue has drained.
    while let Ok(first) = rx.recv() {
        let batch = collect(first, max_batch, || rx.try_recv().ok());
        shared.queue_depth.fetch_sub(batch.len(), Ordering::Relaxed);
        flush(shared, batch);
    }
}

/// One batch: the job that woke the batcher plus whatever `queued` already
/// holds behind it, oldest first, up to `max_batch`. It takes no clock and
/// cannot wait — the batcher only judges between flushes, when every
/// worker is idle, so holding a job back for company would idle the whole
/// service; arrivals during the flush are the next batch.
fn collect<T>(first: T, max_batch: usize, queued: impl FnMut() -> Option<T>) -> Vec<T> {
    std::iter::once(first)
        .chain(std::iter::from_fn(queued))
        .take(max_batch)
        .collect()
}

/// Encodes one batch across the worker threads and answers every
/// request — exactly once, whatever faults fire in between. The
/// completions live on a flight board built *before* any fallible work;
/// a panic caught around one request quarantines its worker and fails that
/// request, a panic caught here fails whatever is still on the board.
fn flush(shared: &Shared, batch: Vec<Job>) {
    let t0 = Instant::now();
    let size = batch.len() as u64;
    let flush_no = shared.batches.fetch_add(1, Ordering::Relaxed) + 1;

    let mut board: Vec<Mutex<Option<InFlight>>> = Vec::with_capacity(batch.len());
    let mut work: Vec<ServeRequest> = Vec::with_capacity(batch.len());
    for job in batch {
        board.push(Mutex::new(Some(InFlight {
            key: job.key,
            submitted: job.submitted,
            deadline: job.deadline,
            complete: job.complete,
        })));
        work.push(job.req);
    }

    let panicked = catch_unwind(AssertUnwindSafe(|| {
        flush_inner(shared, flush_no, &board, &work)
    }));
    let faulted = match panicked {
        Ok(n_job_panics) => n_job_panics > 0,
        Err(payload) => {
            let msg = par::payload_message(payload);
            if let Some(ev) = shared.obs.event("serve_fault") {
                ev.str("kind", "flush_panic")
                    .u64("flush", flush_no)
                    .str("detail", &msg)
                    .finish();
            }
            shared.fail_board(&board, &format!("flush panicked: {msg}"));
            true
        }
    };
    shared.breaker_record(flush_no, faulted);

    shared.obs.observe("serve/batch_size", size);
    if let Some(ev) = shared.obs.event("serve_batch") {
        ev.u64("size", size)
            .u64("queued", shared.queue_depth.load(Ordering::Relaxed) as u64)
            .u64("encode_ms", t0.elapsed().as_millis() as u64)
            .finish();
    }
}

/// The fallible middle of a flush: `min(n_workers, jobs)` workers claim
/// jobs from one cursor in arrival order until none is left, so a worker
/// that finishes early takes the next job instead of idling. A lone job
/// runs on the batcher thread. Returns how many jobs panicked (each
/// already quarantined and answered).
fn flush_inner(
    shared: &Shared,
    flush_no: u64,
    board: &[Mutex<Option<InFlight>>],
    work: &[ServeRequest],
) -> usize {
    // Injected drills, consumed at flush granularity (`@N` = Nth flush).
    let (slow, panic_armed) = {
        let mut faults = lock_clean(&shared.faults);
        (
            faults.take(FaultKind::ServeSlow, flush_no),
            faults.take(FaultKind::ServePanic, flush_no),
        )
    };
    if slow {
        if let Some(ev) = shared.obs.event("serve_fault") {
            ev.str("kind", "slow_flush")
                .u64("flush", flush_no)
                .str("detail", "injected flush delay")
                .finish();
        }
        std::thread::sleep(INJECTED_SLOW_FLUSH);
    }

    // Relaxed: the cursor hands out indices and publishes nothing; the jobs
    // were in place before the dispatch started the workers.
    let cursor = AtomicUsize::new(0);
    let n_workers = shared.replicas.len().min(work.len());
    let panics = par::map_tasks(n_workers, n_workers, |worker| {
        let mut panics = 0;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(req) = work.get(i) else {
                return panics;
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if panic_armed && i == 0 {
                    panic!("{INJECTED_FLUSH_PANIC_MSG}");
                }
                encode_job(shared, &board[i], req);
            }));
            if let Err(payload) = outcome {
                let msg = par::payload_message(payload);
                quarantine(shared, worker, flush_no, &msg);
                let detail = format!("worker {worker} panicked: {msg}");
                shared.fail_board(std::slice::from_ref(&board[i]), &detail);
                panics += 1;
            }
        }
    });
    panics.into_iter().sum()
}

/// One claimed job, answered through its board slot: serialized and run
/// through `encode_serialized` — the same compute core as sequential
/// `Pipeline::encode` — on the spec's shared model, for the table-level
/// row that replies and searches read.
fn encode_job(shared: &Shared, slot: &Mutex<Option<InFlight>>, req: &ServeRequest) {
    let answer = |r: ServeResponse| {
        if let Some(f) = lock_clean(slot).take() {
            shared.answer(f.complete, f.submitted, r);
        }
    };
    // Deadline enforcement tier 2 (at claim): expired while queued behind
    // a running flush, or behind this flush's earlier jobs.
    let deadline = lock_clean(slot).as_ref().and_then(|f| f.deadline);
    if let Some((_, ms)) = deadline.filter(|&(at, _)| Instant::now() >= at) {
        return answer(Err(EncodeError::DeadlineExceeded { timeout_ms: ms }));
    }
    let encoded = match shared.pipeline.try_serialize(&req.table, &req.context) {
        Ok(encoded) => encoded,
        Err(e) => return answer(Err(e)),
    };
    let enc = Arc::new(shared.pipeline.encode_serialized(
        shared.model(req.spec).as_ref(),
        encoded,
        Rows::CLS,
    ));
    let Some(inflight) = lock_clean(slot).take() else {
        return;
    };
    // The work is done either way; cache it so future hits benefit even
    // when this response arrives too late.
    lock_clean(&shared.cache).insert(inflight.key, Arc::clone(&enc));
    // Deadline enforcement tier 3 (post-encode).
    let r = match inflight.deadline {
        Some((at, ms)) if Instant::now() >= at => {
            Err(EncodeError::DeadlineExceeded { timeout_ms: ms })
        }
        _ => Ok(ServeReply {
            encoding: enc,
            cached: false,
        }),
    };
    shared.answer(inflight.complete, inflight.submitted, r);
}

/// Quarantines a worker after a panic failed its job: counts the fault and
/// reports it. Inference never mutates the shared models, so a panic
/// mid-encode leaves nothing to drop or rebuild.
fn quarantine(shared: &Shared, worker: usize, flush_no: u64, msg: &str) {
    let rebuilds = shared.replicas[worker].fetch_add(1, Ordering::Relaxed) + 1;
    shared.quarantined.fetch_add(1, Ordering::Relaxed);
    shared.obs.inc("serve/quarantined");
    if let Some(ev) = shared.obs.event("serve_fault") {
        ev.str("kind", "replica_panic")
            .u64("flush", flush_no)
            .u64("replica", worker as u64)
            .str("detail", msg)
            .finish();
    }
    if let Some(ev) = shared.obs.event("serve_recover") {
        ev.str("kind", "replica_rebuild")
            .u64("flush", flush_no)
            .u64("rebuilds", rebuilds)
            .finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_clean_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "mutex is poisoned");
        assert_eq!(*lock_clean(&m), 7, "lock_clean still reads the state");
    }

    /// A saturated closed loop replayed on a plain queue: 8 clients,
    /// `max_batch` 8. While a flush runs, the clients it has not reached
    /// are already queued, and every job it answers but the last is
    /// replaced before it returns; the last reply's replacement lands just
    /// after the next collect. A batcher that judges queued jobs by their
    /// age flushes each of these alone — all of them are "old".
    #[test]
    fn collect_drains_the_queue_under_a_saturated_closed_loop() {
        const CLIENTS: u64 = 8;
        const MAX_BATCH: usize = 8;
        let mut queue: VecDeque<u64> = VecDeque::new(); // job ids, oldest first
        let mut next_id = 0u64;
        let mut arrive = |queue: &mut VecDeque<u64>, n: u64| {
            queue.extend(next_id..next_id + n);
            next_id += n;
        };
        arrive(&mut queue, 1); // the first client wakes the batcher...
        let mut late = CLIENTS - 1; // ...the rest land during its flush
        let mut sizes = Vec::new();
        for _ in 0..50 {
            let first = queue.pop_front().expect("a closed loop never runs dry");
            let batch = collect(first, MAX_BATCH, || queue.pop_front());
            assert!(
                batch.len() == MAX_BATCH || queue.is_empty(),
                "flushed {} of {MAX_BATCH} with {} older job(s) still queued",
                batch.len(),
                queue.len()
            );
            assert!(batch.windows(2).all(|w| w[0] < w[1]), "oldest first");
            arrive(&mut queue, late); // what the collect just missed
            arrive(&mut queue, batch.len() as u64 - 1); // replaced mid-flush
            late = 1;
            sizes.push(batch.len());
        }
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean >= 4.0, "mean batch {mean:.2}, sizes {sizes:?}");
    }

    /// A lone arrival is flushed with zero linger: `collect` asks the
    /// queue once, finds it empty, and returns — it has no clock to wait on.
    #[test]
    fn collect_flushes_a_lone_arrival_at_once() {
        let mut polls = 0;
        let batch = collect(7u64, 8, || {
            polls += 1;
            None
        });
        assert_eq!(batch, [7]);
        assert_eq!(polls, 1, "an empty queue is asked once, never waited on");
    }

    #[test]
    fn histogram_percentiles_interpolate_within_buckets() {
        let shared_lat = Histogram::default();
        // 99 fast (≈100µs, bucket 6: 64..127) + 1 slow (≈80ms, bucket
        // 16: 65536..131071).
        for _ in 0..99 {
            shared_lat.record(100);
        }
        shared_lat.record(80_000);
        // Same reporting path as Shared::latency_pct_ms.
        let pct = |p: u64| shared_lat.percentile(p as f64).div_ceil(1000);
        assert_eq!(pct(50), 1, "mid-bucket p50 (96µs) rounds up to 1ms");
        assert_eq!(pct(99), 1, "p99 rank 99 still lands in the fast bucket");
        // Regression: the pre-fix upper-edge report turned the single 80ms
        // outlier into 131ms (131071µs), a ~1.6× overstatement a p99
        // ceiling would then have been enforced against. The
        // midpoint interpolation lands at 98304µs → 99ms.
        assert_eq!(pct(100), 99, "max rank interpolates within the slow bucket");
    }

    #[test]
    fn latency_store_memory_is_bounded() {
        // The store is a fixed array of 32 atomic buckets — recording
        // never allocates, so a soak's footprint equals an idle one's.
        // (The old per-request `Vec<u64>` grew ~8 bytes per response.)
        assert!(
            std::mem::size_of::<Histogram>() <= 64 * 8,
            "latency store regressed to a growable structure?"
        );
        let h = Histogram::default();
        for i in 0..1_000_000u64 {
            h.record(i % 250_000);
        }
        assert_eq!(h.count(), 1_000_000, "every sample still counted");
        assert!(h.nonzero_buckets().len() <= 32);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probe_closes_it() {
        let cfg = ServeConfig {
            breaker_window: 4,
            breaker_threshold: 2,
            probe_every: 3,
            ..ServeConfig::default()
        };
        let b = Breaker::default();
        let shared = shared_for_breaker(cfg, b);
        assert!(shared.degraded_gate(), "closed breaker admits");
        shared.breaker_record(1, true);
        assert!(!lock_clean(&shared.breaker).open, "one fault is not enough");
        shared.breaker_record(2, true);
        assert!(
            lock_clean(&shared.breaker).open,
            "two faults in the window open it"
        );
        // Open: first two misses rejected, third admitted as a probe.
        assert!(!shared.degraded_gate());
        assert!(!shared.degraded_gate());
        assert!(shared.degraded_gate(), "every 3rd miss probes");
        assert_eq!(shared.degraded_probes.load(Ordering::Relaxed), 1);
        // A faulted probe keeps it open; a clean one closes it.
        shared.breaker_record(3, true);
        assert!(lock_clean(&shared.breaker).open);
        shared.breaker_record(4, false);
        assert!(
            !lock_clean(&shared.breaker).open,
            "clean flush closes the breaker"
        );
        assert!(shared.degraded_gate());
    }

    /// A minimal `Shared` for breaker unit tests (no pipeline needed —
    /// the breaker never touches it). Building a real pipeline here
    /// would drag vocab training into a unit test.
    fn shared_for_breaker(cfg: ServeConfig, breaker: Breaker) -> Shared {
        Shared {
            pipeline: ntr::Pipeline::builder()
                .vocab_from_texts(&["alpha beta gamma delta".to_string()])
                .build()
                .expect("tiny vocab"),
            model_cfg: ModelConfig::tiny(64),
            cache: Mutex::new(EmbeddingCache::new(0)),
            models: Mutex::new(HashMap::new()),
            replicas: Vec::new(),
            faults: Mutex::new(FaultPlan::none()),
            breaker: Mutex::new(breaker),
            obs: ntr_obs::Obs::disabled(),
            cfg,
            queue_depth: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            internal: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            degraded_rejects: AtomicU64::new(0),
            degraded_probes: AtomicU64::new(0),
            latencies_us: Histogram::default(),
        }
    }
}
