//! # ntr-serve
//!
//! The batched embedding service: the deployment-facing layer over the
//! `ntr` pipeline and model zoo. Concurrent clients submit encode
//! requests (table + context + model choice); a micro-batcher takes
//! whatever is queued (up to `max_batch`, never lingering for more),
//! worker threads reading one shared model per spec encode each batch, and
//! a content-hash keyed LRU cache short-circuits repeated tables: the
//! event loop keys a request from its scanned line and answers a hit in
//! place, without building the table. Results are **bit-identical** to
//! sequential [`ntr::Pipeline::encode`] calls at any batch size and worker
//! count — batching changes throughput, never output.
//!
//! Layers, bottom to top:
//!
//! * [`cache`] — content-addressed LRU over [`ntr::TableEncoding`]s;
//! * [`service`] — [`service::EmbeddingService`]: bounded submit queue
//!   with typed `Overloaded` load shedding, micro-batcher, worker pool,
//!   completion callbacks — plus the self-healing core: panic isolation
//!   with exactly-once typed responses, supervised batcher restarts,
//!   worker quarantine, request deadlines, and a cache-only
//!   degraded mode behind a circuit breaker;
//! * [`json`] / [`wire`] — std-only JSON (one depth-bounded reader whose
//!   strings borrow from the line) and the NDJSON wire protocol with typed
//!   error responses;
//! * [`poller`] — readiness polling (`epoll` on linux, `poll(2)`
//!   elsewhere) plus a cross-thread [`poller::Waker`];
//! * [`conn`] — per-connection read/write state machine: partial-read
//!   framing, bounded buffers, idle / slow-consumer timeouts;
//! * [`server`] — [`server::Server`]: one event-loop thread serving every
//!   connection with backpressure, fairness caps, load shedding, graceful
//!   drain, and `ntr-obs` events and metrics. With an
//!   [`ntr_index::SearchIndex`] it also answers the `{"cmd": "search"}`
//!   verb: the query table is encoded through the same batcher, then looked
//!   up in the IVF index (typed `IndexNotLoaded` / `BadK` errors).
//!
//! Everything is std-only: no async runtime, no serde, no libc crate —
//! `std::net` + `std::sync::mpsc` + the workspace's own thread pool, with
//! the two readiness syscalls declared directly.

pub mod cache;
pub mod conn;
pub mod json;
pub mod poller;
pub mod server;
pub mod service;
pub mod wire;

pub use cache::{content_key, CacheStats, EmbeddingCache};
pub use conn::{CloseReason, ConnLimits};
pub use ntr_index::{EmbeddingStore, IndexError, IvfConfig, IvfIndex, SearchIndex, SearchResult};
pub use server::{LoopStats, Server, ServerConfig, ServerStats};
pub use service::{
    Completion, EmbeddingService, HealthReport, ReplicaStatus, ServeConfig, ServeHandle,
    ServeReply, ServeRequest, ServeResponse, ServeStats, INJECTED_FLUSH_PANIC_MSG,
};
