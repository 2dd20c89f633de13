//! # ntr-obs
//!
//! Dependency-free runtime observability for the `ntr` training and
//! serving stack: a lock-cheap [`metrics`] registry (counters, gauges,
//! log-scale histograms) whose [`metrics::Snapshot`] serializes to a flat
//! JSON array with one object per metric, a structured JSONL event
//! trace ([`trace::TraceWriter`]: one event per line, atomic append), and
//! global [`pool`] utilization counters the `ntr-tensor` thread pool feeds.
//!
//! The crate sits *below* every other workspace crate (it depends on
//! nothing but `std`), so even `ntr-tensor::par` can report into it without
//! a dependency cycle.
//!
//! ## The `Obs` handle
//!
//! Instrumentation is carried through the stack as a single cloneable
//! [`Obs`] handle built from [`ObsOptions`] (a trace path, a metrics path,
//! or both — or neither). A disabled handle is a true no-op sink: every
//! call is a single branch on an `Option` that the optimizer can hoist, so
//! training with observability off is bit-identical to — and as fast as —
//! a build that never heard of this crate. The supervisor's golden no-op
//! snapshot pins that guarantee.
//!
//! ## Determinism
//!
//! Trace content is deterministic apart from wall-clock fields: every
//! field whose key ends in `_ms` or `_per_sec` is a timing measurement,
//! everything else is a pure function of the run's inputs. Stripping the
//! timing fields (see [`trace::strip_timings`]) from two traces of the
//! same run under different `NTR_THREADS` values yields byte-identical
//! files.

pub mod metrics;
pub mod pool;
pub mod quant;
pub mod trace;

pub use metrics::{MetricsRegistry, Snapshot};
pub use trace::{EventBuilder, TraceWriter};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where (if anywhere) a run's observability output goes. The default —
/// no trace, no metrics — makes [`Obs::open`] return a disabled no-op
/// handle.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Append-structured JSONL event trace to this path (truncated at
    /// open, then atomically appended one line per event).
    pub trace: Option<PathBuf>,
    /// Write a metrics [`Snapshot`] (counters, histograms, pool
    /// utilization) to this path when the run finishes.
    pub metrics: Option<PathBuf>,
}

impl ObsOptions {
    /// True when any output is configured.
    pub fn enabled(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }
}

#[derive(Debug)]
struct ObsInner {
    trace: Option<TraceWriter>,
    metrics: Option<(PathBuf, MetricsRegistry)>,
    /// Tokens counted by the driver since the last step boundary
    /// (see [`Obs::count_tokens`] / [`Obs::take_step_tokens`]).
    step_tokens: AtomicU64,
}

/// A cloneable observability handle: either a no-op sink ([`Obs::disabled`],
/// the `Default`) or an armed trace/metrics writer shared by every layer of
/// one training run.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The no-op sink: every method is a branch-and-return.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Opens writers per `opts`. With neither path set this is
    /// [`Obs::disabled`]. Arming metrics also resets and enables the
    /// global [`pool`] counters so the run's snapshot reports thread-pool
    /// utilization for this run alone.
    pub fn open(opts: &ObsOptions) -> std::io::Result<Self> {
        if !opts.enabled() {
            return Ok(Self::disabled());
        }
        let trace = match &opts.trace {
            Some(p) => Some(TraceWriter::create(p)?),
            None => None,
        };
        let metrics = match &opts.metrics {
            Some(p) => {
                pool::reset();
                pool::set_enabled(true);
                quant::reset();
                quant::set_enabled(true);
                Some((p.clone(), MetricsRegistry::default()))
            }
            None => None,
        };
        Ok(Self {
            inner: Some(Arc::new(ObsInner {
                trace,
                metrics,
                step_tokens: AtomicU64::new(0),
            })),
        })
    }

    /// True when any sink is armed.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a trace event, or `None` when tracing is off. The cost of a
    /// disabled call is one `Option` check.
    pub fn event(&self, ev: &'static str) -> Option<EventBuilder<'_>> {
        self.inner
            .as_deref()
            .and_then(|i| i.trace.as_ref())
            .map(|t| t.event(ev))
    }

    /// A timestamp for measuring a span, or `None` when disabled (so the
    /// disabled path never calls into the clock).
    pub fn now(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Adds to a named counter (no-op when metrics are off).
    pub fn add(&self, name: &str, v: u64) {
        if let Some((_, reg)) = self.inner.as_deref().and_then(|i| i.metrics.as_ref()) {
            reg.counter(name).add(v);
        }
    }

    /// Increments a named counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records a value into a named log-scale histogram.
    pub fn observe(&self, name: &str, v: u64) {
        if let Some((_, reg)) = self.inner.as_deref().and_then(|i| i.metrics.as_ref()) {
            reg.histogram(name).record(v);
        }
    }

    /// Counts tokens processed by the driver inside the current step (the
    /// per-step tally feeds the `tokens` trace field and the run's
    /// `train/tokens` counter).
    pub fn count_tokens(&self, n: u64) {
        if let Some(i) = self.inner.as_deref() {
            i.step_tokens.fetch_add(n, Ordering::Relaxed);
            if let Some((_, reg)) = i.metrics.as_ref() {
                reg.counter("train/tokens").add(n);
            }
        }
    }

    /// Takes (and resets) the tokens counted since the last step boundary.
    pub fn take_step_tokens(&self) -> u64 {
        match self.inner.as_deref() {
            Some(i) => i.step_tokens.swap(0, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Writes the metrics snapshot (registry + global pool counters) to
    /// the configured path. No-op without a metrics sink. Call once when
    /// the run ends, whatever its outcome.
    pub fn write_metrics(&self) -> std::io::Result<()> {
        let Some((path, reg)) = self.inner.as_deref().and_then(|i| i.metrics.as_ref()) else {
            return Ok(());
        };
        let mut snap = reg.snapshot();
        snap.merge_pool(&pool::snapshot());
        snap.merge_quant(&quant::snapshot());
        snap.extend_warnings();
        snap.write(path)
    }
}

/// Process-global warning counters — a home for "saturate with a traced
/// warning" paths (e.g. metric length mismatches) that have no `Obs`
/// handle in scope. Included in every metrics snapshot.
pub mod warnings {
    use std::sync::atomic::{AtomicU64, Ordering};

    static METRIC_LEN_MISMATCH: AtomicU64 = AtomicU64::new(0);

    /// Records a metric-input length mismatch that was saturated instead
    /// of panicking.
    pub fn metric_len_mismatch() {
        METRIC_LEN_MISMATCH.fetch_add(1, Ordering::Relaxed);
    }

    /// Length-mismatch warnings recorded so far in this process.
    pub fn metric_len_mismatches() -> u64 {
        METRIC_LEN_MISMATCH.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ntr_obs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn disabled_handle_is_a_no_op() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        assert!(obs.event("step").is_none());
        assert!(obs.now().is_none());
        obs.inc("x");
        obs.count_tokens(5);
        assert_eq!(obs.take_step_tokens(), 0);
        obs.write_metrics().unwrap();
    }

    #[test]
    fn armed_handle_traces_counts_and_snapshots() {
        let tpath = tmp("handle.jsonl");
        let mpath = tmp("handle_metrics.json");
        let obs = Obs::open(&ObsOptions {
            trace: Some(tpath.clone()),
            metrics: Some(mpath.clone()),
        })
        .unwrap();
        assert!(obs.enabled());
        obs.count_tokens(3);
        obs.count_tokens(4);
        assert_eq!(obs.take_step_tokens(), 7);
        assert_eq!(obs.take_step_tokens(), 0);
        obs.inc("train/steps");
        obs.observe("train/step_ns", 1500);
        obs.event("step").unwrap().u64("step", 1).finish();
        obs.write_metrics().unwrap();
        let trace = std::fs::read_to_string(&tpath).unwrap();
        assert!(trace.contains("\"ev\": \"step\""));
        let metrics = std::fs::read_to_string(&mpath).unwrap();
        assert!(metrics.contains("\"train/steps\""));
        assert!(metrics.contains("\"train/tokens\""));
        let _ = std::fs::remove_file(&tpath);
        let _ = std::fs::remove_file(&mpath);
    }
}
