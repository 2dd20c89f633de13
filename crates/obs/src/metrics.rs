//! Lock-cheap metrics registry: named counters, gauges, and fixed
//! log-scale histograms.
//!
//! The registry holds one `Arc<AtomicU64>` (or [`Histogram`]) per name in a
//! `Mutex<BTreeMap>`. The mutex guards only *name resolution* — the hot
//! path (incrementing an already-resolved handle) is a single relaxed
//! atomic op, and callers that care can resolve once and keep the handle.
//! A [`Snapshot`] of the whole registry serializes to a hand-rolled flat
//! JSON array, one object per metric and line (name, kind, then the value
//! or the count, sum and buckets), sorted by name so snapshots diff cleanly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets: bucket `i` counts values `v`
/// with `floor(log2(max(v, 1))) == i`, and everything ≥ 2^31 lands in the
/// last bucket.
pub const HIST_BUCKETS: usize = 32;

/// A monotonically increasing counter (also used for gauges, which store
/// their latest value instead of accumulating).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `v` (relaxed; counters are merged, never ordered).
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites the value (gauge semantics).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram with [`HIST_BUCKETS`] fixed power-of-two buckets plus a
/// running count and sum, all relaxed atomics — recording is wait-free.
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// The bucket index a value lands in: `floor(log2(max(v, 1)))`, clamped to
/// the last bucket.
pub fn bucket_of(v: u64) -> usize {
    ((63 - v.max(1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `p`-th percentile (`0.0..=100.0`) of the recorded
    /// values by interpolating *within* the selected log2 bucket.
    ///
    /// Reporting a bucket's upper edge — the previous behavior — overstates
    /// tail latencies by up to 2× (bucket `i` spans `[2^i, 2^(i+1)-1]`), an
    /// error an SLO gate then enforces against. Instead, the `k`-th of the
    /// `n` observations inside a bucket is placed at the midpoint-rule
    /// position `lo + (hi - lo)·(k - ½)/n`, which is exact in expectation
    /// for values uniform within the bucket and never exceeds the true
    /// value's bucket.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Nearest-rank on [1, count]: the smallest rank whose cumulative
        // share reaches p.
        let rank = ((count - 1) as f64 * p / 100.0).floor() as u64 + 1;
        let mut seen = 0u64;
        for (i, n) in self.nonzero_buckets() {
            if seen + n >= rank {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = (1u64 << (i + 1)) - 1; // i ≤ 31, no overflow
                let k = rank - seen; // 1..=n within this bucket
                let frac = (k as f64 - 0.5) / n as f64;
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            seen += n;
        }
        0
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }
}

/// A registry of named counters and histograms. Cloning a resolved handle
/// is cheap (`Arc`); resolving a name takes the registry mutex once.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Resolves (creating on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Resolves (creating on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::default());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = Vec::new();
        for (name, c) in self.counters.lock().unwrap().iter() {
            entries.push(SnapshotEntry::Counter {
                name: name.clone(),
                value: c.get(),
            });
        }
        for (name, h) in self.histograms.lock().unwrap().iter() {
            entries.push(SnapshotEntry::Histogram {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                buckets: h.nonzero_buckets(),
            });
        }
        entries.sort_by(|a, b| a.name().cmp(b.name()));
        Snapshot { entries }
    }
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotEntry {
    /// A counter (or gauge) and its value.
    Counter {
        /// Metric name.
        name: String,
        /// Value at snapshot time.
        value: u64,
    },
    /// A histogram: count, sum, and its non-empty power-of-two buckets.
    Histogram {
        /// Metric name.
        name: String,
        /// Observations recorded.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// `(bucket_index, count)` for non-empty buckets; bucket `i`
        /// covers `[2^i, 2^(i+1))`.
        buckets: Vec<(usize, u64)>,
    },
}

impl SnapshotEntry {
    /// The metric's name.
    pub fn name(&self) -> &str {
        match self {
            SnapshotEntry::Counter { name, .. } | SnapshotEntry::Histogram { name, .. } => name,
        }
    }
}

/// A serializable point-in-time view of a [`MetricsRegistry`], written as
/// a hand-rolled flat JSON array with one object per metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Metrics, sorted by name.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Folds the global thread-pool utilization counters into this
    /// snapshot under `pool/…` names.
    pub fn merge_pool(&mut self, pool: &crate::pool::PoolSnapshot) {
        self.push_counter("pool/dispatches", pool.dispatches);
        self.push_counter("pool/tasks", pool.tasks);
        self.push_counter("pool/panic_isolations", pool.panic_isolations);
        for (worker, ns) in pool.busy_ns.iter().enumerate() {
            if *ns > 0 {
                self.push_counter(&format!("pool/worker{worker}/busy_ns"), *ns);
            }
        }
    }

    /// Folds the global int8-quantization counters into this snapshot
    /// under `quant/…` names (omitted entirely when no quantized matmul
    /// ran, so f32-only runs keep their snapshots unchanged).
    pub fn merge_quant(&mut self, quant: &crate::quant::QuantSnapshot) {
        if quant.matmuls == 0 && quant.rows_quantized == 0 {
            return;
        }
        self.push_counter("quant/matmuls", quant.matmuls);
        self.push_counter("quant/out_rows", quant.out_rows);
        self.push_counter("quant/rows_quantized", quant.rows_quantized);
    }

    /// Folds the process-global warning counters in under `warn/…` names.
    pub fn extend_warnings(&mut self) {
        let n = crate::warnings::metric_len_mismatches();
        if n > 0 {
            self.push_counter("warn/metric_len_mismatch", n);
        }
    }

    fn push_counter(&mut self, name: &str, value: u64) {
        self.entries.push(SnapshotEntry::Counter {
            name: name.to_string(),
            value,
        });
        self.entries.sort_by(|a, b| a.name().cmp(b.name()));
    }

    /// Serializes to a flat JSON array, one object per metric and line:
    /// `{"metric": name, "kind": "counter", "value": n}` or a histogram's.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            match e {
                SnapshotEntry::Counter { name, value } => {
                    writeln!(
                        out,
                        "  {{\"metric\": {}, \"kind\": \"counter\", \"value\": {value}}}{sep}",
                        json_str(name)
                    )
                    .unwrap();
                }
                SnapshotEntry::Histogram {
                    name,
                    count,
                    sum,
                    buckets,
                } => {
                    let bk = buckets
                        .iter()
                        .map(|(i, n)| format!("\"{i}\": {n}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    writeln!(
                        out,
                        "  {{\"metric\": {}, \"kind\": \"histogram\", \"count\": {count}, \
                         \"sum\": {sum}, \"buckets\": {{{bk}}}}}{sep}",
                        json_str(name)
                    )
                    .unwrap();
                }
            }
        }
        out.push_str("]\n");
        out
    }

    /// Writes [`Snapshot::to_json`] to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Minimal JSON string quoting (quotes, backslashes, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        // Known sample set: 99 fast observations (100, bucket 6 = [64,127])
        // and one slow outlier (80_000, bucket 16 = [65536,131071]).
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(80_000);
        // Midpoint-rule positions inside the fast bucket: the 50th of 99
        // lands exactly mid-bucket, the 99th just under the upper edge.
        assert_eq!(h.percentile(50.0), 96);
        assert_eq!(h.percentile(99.0), 127);
        // The sole outlier sits mid-bucket — not at the 131071 upper edge
        // the pre-fix reporting returned (a ~1.6× overstatement of 80_000).
        assert_eq!(h.percentile(100.0), 98_304);
        assert!(h.percentile(100.0) < 131_071);
    }

    #[test]
    fn percentile_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0, "empty histogram");
        h.record(0);
        // Bucket 0 spans {0, 1}; its midpoint rounds to at most 1.
        assert!(h.percentile(0.0) <= 1);
        // Out-of-range p clamps instead of panicking.
        h.record(10);
        let p = h.percentile(250.0);
        assert_eq!(p, h.percentile(100.0));
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let reg = MetricsRegistry::default();
        reg.counter("a").add(2);
        reg.counter("a").inc();
        reg.counter("b").set(7);
        let h = reg.histogram("lat");
        h.record(1);
        h.record(1000);
        h.record(1000);
        let snap = reg.snapshot();
        assert_eq!(
            snap.entries[0],
            SnapshotEntry::Counter {
                name: "a".into(),
                value: 3
            }
        );
        assert_eq!(
            snap.entries[1],
            SnapshotEntry::Counter {
                name: "b".into(),
                value: 7
            }
        );
        assert_eq!(
            snap.entries[2],
            SnapshotEntry::Histogram {
                name: "lat".into(),
                count: 3,
                sum: 2001,
                buckets: vec![(0, 1), (9, 2)],
            }
        );
    }

    #[test]
    fn snapshot_json_is_bench_style() {
        let reg = MetricsRegistry::default();
        reg.counter("train/steps").add(5);
        reg.histogram("step_ns").record(3);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("{\"metric\": \"step_ns\", \"kind\": \"histogram\", \"count\": 1, \"sum\": 3, \"buckets\": {\"1\": 1}},"));
        assert!(json.contains("{\"metric\": \"train/steps\", \"kind\": \"counter\", \"value\": 5}"));
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Arc::new(MetricsRegistry::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("hits");
                let h = reg.histogram("v");
                for i in 0..1000u64 {
                    c.inc();
                    h.record(i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("hits").get(), 4000);
        assert_eq!(reg.histogram("v").count(), 4000);
    }
}
