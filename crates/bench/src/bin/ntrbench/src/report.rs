//! The metric tables (the same names `BENCHMARK.json` lists) and what one
//! run of one workload reports.

use crate::stats::Windowed;
use std::collections::BTreeMap;

/// Name, unit and the share of the median by which the metric may worsen
/// before a change counts as a regression. The reference box's own speed
/// wanders by about a tenth over seconds, which put the spread of ten runs
/// (first to third quartile) between 3 % and 19 % of the median; a bound has
/// to stay above that.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("throughput", "1/s", 0.25),
    ("p50_ms", "ms", 0.25),
    ("p95_ms", "ms", 0.25),
];

/// Name and unit of every per-layer metric, in report order. A workload that
/// does not exercise a layer reports 0 for its counters.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wire.parse_us", "us"),
    ("serve.wire.render_us", "us"),
    ("serve.wire.request_bytes", "bytes"),
    ("serve.wire.response_bytes", "bytes"),
    ("serve.cache.key_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.service.inproc_miss_us", "us"),
    ("serve.batcher.wait_us", "us"),
    ("serve.batcher.mean_batch", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.internal", "count"),
    ("serve.server.socket_us", "us"),
    ("serve.rps", "1/s"),
    ("serve.p99_ms", "ms"),
    ("serve.search_p50_ms", "ms"),
    ("core.encode_us.teacher_f32", "us"),
    ("core.encode_us.student_f32", "us"),
    ("core.encode_us.student_int8", "us"),
    ("core.pool_us", "us"),
    ("core.stage_sum_ratio.teacher_f32", "ratio"),
    ("core.stage_sum_ratio.student_f32", "ratio"),
    ("core.stage_sum_ratio.student_int8", "ratio"),
    ("table.linearize_us", "us"),
    ("table.linearize_self_us", "us"),
    ("table.seq_len_p50", "count"),
    ("table.truncated_share", "ratio"),
    ("tokenizer.encode_us", "us"),
    ("tokenizer.tokens_per_s", "1/s"),
    ("models.input_us", "us"),
    ("models.embed_us", "us"),
    ("models.encode_us.tapas_f32", "us"),
    ("models.encode_us.row_student_f32", "us"),
    ("models.encode_us.row_student_int8", "us"),
    ("nn.encoder_us", "us"),
    ("nn.block_us", "us"),
    ("nn.attention_us", "us"),
    ("nn.ffn_us", "us"),
    ("nn.layernorm_us", "us"),
    ("tensor.matmul_us.108x64x64", "us"),
    ("tensor.matmul_us.108x64x128", "us"),
    ("tensor.matmul_us.108x128x64", "us"),
    ("tensor.matmul_nt_us.108x16x108", "us"),
    ("tensor.softmax_us", "us"),
    ("tensor.q8_matmul_us", "us"),
    ("tensor.quantize_us", "us"),
    ("tensor.flops_per_encode", "count"),
    ("tensor.bytes_per_encode", "bytes"),
    ("tensor.gflops", "1/s"),
    ("index.build_s", "s"),
    ("index.save_s", "s"),
    ("index.open_s", "s"),
    ("index.search_us", "us"),
    ("index.brute_us", "us"),
    ("index.scanned_per_query", "count"),
    ("index.scan_share", "ratio"),
    ("index.store_bytes", "bytes"),
    ("index.recall_at_10", "ratio"),
    ("tasks.step_ms", "ms"),
    ("tasks.tokens_per_s", "1/s"),
    ("tasks.supervisor_overhead_pct", "%"),
    ("tasks.final_loss", "count"),
    ("obs.serve_overhead_pct", "%"),
    ("obs.train_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.client_us", "us"),
    ("bench.late_p99_us", "us"),
    ("process.peak_rss_mb", "MB"),
];

pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
    /// A failed check makes the run incorrect; an unmet prediction (what
    /// the issue that defined the benchmark expected of the unmodified
    /// system) is only printed.
    pub prediction: bool,
}

pub fn check(name: &str, pass: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        pass,
        detail,
        prediction: false,
    }
}

pub fn prediction(name: &str, pass: bool, detail: String) -> Check {
    Check {
        prediction: true,
        ..check(name, pass, detail)
    }
}

pub type LayerMetrics = BTreeMap<&'static str, f64>;

pub struct Outcome {
    pub setup_s: Windowed,
    pub throughput: Windowed,
    pub p50_ms: Windowed,
    pub p95_ms: Windowed,
    /// Operations attempted and failed, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub layer: LayerMetrics,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn end_to_end(&self) -> [Windowed; 4] {
        [self.setup_s, self.throughput, self.p50_ms, self.p95_ms]
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass || c.prediction)
    }
}

/// Peak resident set of this process so far, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The sub-windows of a traced run alternate untraced (even) and traced
/// (odd): how much worse the traced ones did, in percent of the untraced
/// mean; `higher_is_better` says which way worse is.
pub fn trace_overhead_pct(per_window: &[f64], higher_is_better: bool) -> f64 {
    let mean_of = |parity: usize| {
        let picked: Vec<f64> = per_window.iter().skip(parity).step_by(2).copied().collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    };
    let (untraced, traced) = (mean_of(0), mean_of(1));
    if untraced == 0.0 || traced == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (untraced / traced - 1.0) * 100.0
    } else {
        (traced / untraced - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_positive_when_tracing_costs() {
        let rates = [100.0, 80.0, 100.0, 80.0];
        assert!((trace_overhead_pct(&rates, true) - 25.0).abs() < 1e-9);
        assert!((trace_overhead_pct(&[4.0, 5.0], false) - 25.0).abs() < 1e-9);
        assert_eq!(trace_overhead_pct(&[1.0], true), 0.0);
    }

    #[test]
    fn metric_names_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(name.len() <= 64 && seen.insert(name), "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` sits at the root of the repository; where it is
    /// present it must list exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let (e2e, layers) = text
            .split_once("\"per_layer\"")
            .expect("BENCHMARK.json has a per_layer list");
        let e2e = &e2e[e2e.find("\"end_to_end\"").expect("an end_to_end list")..];
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\": \"")
                .skip(1)
                .map(|r| r[..r.find('"').unwrap()].to_string())
                .collect()
        };
        let bounds: Vec<f64> = e2e
            .split("\"bound\": ")
            .skip(1)
            .map(|r| r[..r.find(['\n', '}']).unwrap()].trim().parse().unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.map(|m| m.2));
        let want_e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let want_layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names(e2e), want_e2e);
        assert_eq!(names(layers), want_layers);
    }
}
