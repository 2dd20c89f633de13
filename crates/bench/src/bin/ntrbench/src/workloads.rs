//! The five workloads. Each sets the system up three times (reporting the
//! median as `setup_s`), warms up, measures over equal sub-windows and
//! checks what came back.

use crate::api::{self, SupervisorConfig};
use crate::load::{self, Plan, Requests, Shape, HOT_KEYS};
use crate::ops::{self, TrainSlices, CHUNK, STEPS_PER_RUN, TRAIN_SLICE};
use crate::report::{
    check, peak_rss_mb, prediction, trace_overhead_pct, Check, LayerMetrics, Outcome,
};
use crate::spans::Trace;
use crate::stack::{self, median_of_three_setups, Offline, Serving};
use crate::stats::{median, open_loop_schedule, percentile, percentile_of, windowed, Class};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 5] = [
    "miss_teacher",
    "hit_hot",
    "mixed_open",
    "corpus_index",
    "train_mlm",
];

/// Tables behind the serving workloads: the request pool, and for
/// `mixed_open` also the index.
const POOL_TABLES: usize = 1024;
/// Offered rate of `mixed_open`, requests per second.
const OPEN_RATE: f64 = 200.0;
/// What the offline workloads assume about the reference box to turn
/// `--seconds` into a fixed amount of work (work, unlike time, repeats
/// exactly): teacher chunks and training runs per second.
const NOMINAL_CHUNKS_PER_S: f64 = 21.0;
/// Fewest chunks per sub-window: an IVF index over fewer than about a
/// thousand vectors (under `--smoke`) recalls less than the 0.95 the check
/// wants.
const MIN_CHUNKS: usize = 11;
const NOMINAL_TRAIN_RUNS_PER_S: f64 = 5.5;

pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window, all sub-windows together.
    pub seconds: f64,
    /// Alternate untraced and traced sub-windows and record spans.
    pub traced: bool,
    /// A directory of this run's own for index files.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Three sub-windows, or in the traced run four: untraced, traced,
    /// untraced, traced.
    fn n_windows(&self) -> usize {
        if self.traced {
            4
        } else {
            3
        }
    }

    /// Seconds per sub-window. The traced run spends only half of
    /// `seconds` on the workload; the per-layer probes take the rest.
    fn window_s(&self) -> f64 {
        let share = if self.traced { 0.5 } else { 1.0 };
        self.seconds * share / self.n_windows() as f64
    }

    fn plan(&self) -> Plan {
        Plan {
            // Long enough for `miss_teacher` to fill the 64 MiB cache.
            warmup: Duration::from_secs_f64(self.seconds * 0.25),
            window: Duration::from_secs_f64(self.window_s()),
            n_windows: self.n_windows(),
            trace_odd_windows: self.traced,
        }
    }

    /// Work items per sub-window for a workload that fixes its work, not
    /// its time.
    fn per_window(&self, nominal_per_s: f64) -> usize {
        ((self.window_s() * nominal_per_s).round() as usize).max(2)
    }
}

pub fn run(name: &str, ctx: &Ctx, trace: &mut Trace) -> io::Result<Outcome> {
    match name {
        "miss_teacher" => serving(ctx, trace, Traffic::Miss),
        "hit_hot" => serving(ctx, trace, Traffic::Hit),
        "mixed_open" => serving(ctx, trace, Traffic::Mixed),
        "corpus_index" => corpus_index(ctx, trace),
        "train_mlm" => train_mlm(ctx, trace),
        other => Err(io::Error::other(format!("no workload called {other}"))),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Traffic {
    Miss,
    Hit,
    Mixed,
}

fn serving(ctx: &Ctx, trace: &mut Trace, traffic: Traffic) -> io::Result<Outcome> {
    let mut layer = LayerMetrics::new();
    let mut notes = Vec::new();

    // `mixed_open` searches an index, which a deployment builds offline with
    // `ntr index build` before the server starts: built here once, before
    // the timed set-ups, which only open it.
    let index_dir = (traffic == Traffic::Mixed).then(|| ctx.work_dir.join("index"));
    if let Some(dir) = &index_dir {
        let mut off = stack::offline(ctx.seed, POOL_TABLES);
        let mut store = api::teacher_store(off.teacher.d_model());
        let (pipeline, teacher) = (&off.pipeline, off.teacher.as_mut());
        ops::embed_into(pipeline, teacher, &off.corpus.tables, &mut store, trace)?;
        ops::build_index(&store, dir, trace, &mut layer)?;
    }

    let (mut sv, setup_s) = median_of_three_setups(
        || stack::serving(ctx.seed, POOL_TABLES, index_dir.as_deref()),
        |sv: Serving| drop(sv.stop()),
    )?;
    let mut requests = Requests::new(&sv.offline.corpus.tables);
    let plan = ctx.plan();

    let schedule;
    let shape = match traffic {
        Traffic::Miss => Shape::Closed {
            class: Class::TeacherMiss,
            depth: 4,
        },
        Traffic::Hit => Shape::Closed {
            class: Class::Hot,
            depth: 1,
        },
        Traffic::Mixed => {
            // The hot keys enter the cache before the schedule starts.
            let mut line = Vec::new();
            for (i, body) in requests.hot_bodies().iter().enumerate() {
                crate::client::request_line(&mut line, i as u64, body);
                sv.client.round_trip(&line, Duration::from_secs(10))?;
            }
            let horizon = plan.warmup + plan.window * plan.n_windows as u32;
            schedule = open_loop_schedule(ctx.seed, OPEN_RATE, horizon.as_nanos() as u64);
            Shape::Open {
                schedule: &schedule,
            }
        }
    };
    let res = load::run(&mut sv.client, &mut requests, shape, plan, trace)?;

    let (mut offline, stats) = sv.stop();
    let counters = api::serve_counters(&stats.service);

    // Per sub-window: completions per second, the median of the class the
    // workload is about, and the p95 of everything.
    let p50_class = match traffic {
        Traffic::Miss | Traffic::Mixed => Class::TeacherMiss,
        Traffic::Hit => Class::Hot,
    };
    // The open loop's rate is whatever is offered, which differs from seed to
    // seed by chance; what the server decides is the share of it that
    // completes, reported at the nominal rate.
    let rate: Vec<f64> = res
        .windows
        .iter()
        .map(|w| match traffic {
            Traffic::Mixed => OPEN_RATE * w.completed as f64 / w.offered.max(1) as f64,
            _ => w.completed as f64 / res.window_s,
        })
        .collect();
    let p50: Vec<f64> = res
        .windows
        .iter()
        .map(|w| percentile_of(&mut w.lat_ms[p50_class as usize].clone(), 0.50))
        .collect();
    let p95: Vec<f64> = res
        .windows
        .iter()
        .map(|w| percentile_of(&mut w.all_ms(), 0.95))
        .collect();

    let completed: u64 = res.windows.iter().map(|w| w.completed).sum();
    let cached: u64 = res.windows.iter().map(|w| w.cached).sum();
    let hit_ratio = cached as f64 / completed.max(1) as f64;
    let mean_batch = counters.misses as f64 / counters.batches.max(1) as f64;
    let mut all_ms: Vec<f64> = res.windows.iter().flat_map(|w| w.all_ms()).collect();
    let mut search_ms: Vec<f64> = res
        .windows
        .iter()
        .flat_map(|w| w.lat_ms[Class::Search as usize].iter().copied())
        .collect();
    layer.insert("serve.rps", median(&rate));
    layer.insert("serve.p99_ms", percentile_of(&mut all_ms, 0.99));
    layer.insert("serve.search_p50_ms", percentile_of(&mut search_ms, 0.50));
    layer.insert("serve.cache.hit_ratio", hit_ratio);
    layer.insert("serve.cache.evictions", counters.evictions as f64);
    layer.insert("serve.batcher.mean_batch", mean_batch);
    layer.insert("serve.shed", counters.shed as f64);
    layer.insert("serve.deadline_exceeded", counters.deadline_exceeded as f64);
    layer.insert("serve.internal", counters.internal as f64);
    let mut late_us = res.late_us;
    late_us.sort_unstable_by(f64::total_cmp);
    layer.insert("bench.late_p99_us", percentile(&late_us, 0.99));
    if ctx.traced {
        let client_us =
            median(&trace.durations_us("client.send")) + median(&trace.durations_us("client.recv"));
        layer.insert("bench.client_us", client_us);
        // Closed loops are priced by their rate, the open loop (whose rate is
        // fixed) by its median latency.
        let overhead = match traffic {
            Traffic::Mixed => trace_overhead_pct(&p50, false),
            _ => trace_overhead_pct(&rate, true),
        };
        layer.insert("bench.trace_overhead_pct", overhead);
    }
    layer.insert("process.peak_rss_mb", peak_rss_mb());

    notes.push(format!(
        "sent {} ok {} failed {} | server: {} requests, {} batches, {} hits, {} misses, {} evictions",
        res.sent, res.ok, res.failed, counters.requests, counters.batches, counters.hits,
        counters.misses, counters.evictions
    ));
    notes.push(per_window_note(&rate, &p50, &p95));
    if traffic == Traffic::Mixed {
        notes.push(format!(
            "offered {OPEN_RATE} req/s; the generator ran late by p50 {:.0} us, p99 {:.0} us",
            percentile(&late_us, 0.50),
            percentile(&late_us, 0.99),
        ));
    }

    let mut checks = vec![
        ops::verify_encodes(&mut offline, &res.encode_samples),
        check(
            "the server shed nothing, exceeded no deadline and isolated no panic",
            counters.shed + counters.deadline_exceeded + counters.internal == 0,
            format!(
                "shed {} deadline_exceeded {} internal {}",
                counters.shed, counters.deadline_exceeded, counters.internal
            ),
        ),
    ];
    checks.push(match traffic {
        Traffic::Miss => check(
            "no reply in the window came from the cache",
            cached == 0,
            format!("{cached} of {completed} cached"),
        ),
        Traffic::Hit => check(
            "every reply in the window came from the cache",
            cached == completed && completed > 0,
            format!("{cached} of {completed} cached"),
        ),
        Traffic::Mixed => check(
            "the share of cached replies is 0.30 +- 0.02",
            (0.28..=0.32).contains(&hit_ratio),
            format!("{hit_ratio:.4}"),
        ),
    });
    // The two workloads sit on opposite sides of the batcher: full batches
    // under the closed loop, lone requests under the open one.
    match traffic {
        Traffic::Miss => checks.push(prediction(
            "batches fill (mean batch >= 4)",
            mean_batch >= 4.0,
            format!("{mean_batch:.2}"),
        )),
        Traffic::Mixed => {
            checks.push(prediction(
                "arrivals are mostly alone in their batch (mean batch < 2)",
                mean_batch < 2.0,
                format!("{mean_batch:.2}"),
            ));
            checks.push(ops::verify_searches(&res.search_samples));
        }
        Traffic::Hit => {}
    }

    Ok(Outcome {
        setup_s,
        throughput: windowed(&rate[..3]),
        p50_ms: windowed(&p50[..3]),
        p95_ms: windowed(&p95[..3]),
        attempted: res.sent,
        failed: res.failed,
        checks,
        layer,
        notes,
    })
}

fn per_window_note(rate: &[f64], p50: &[f64], p95: &[f64]) -> String {
    format!("per sub-window: throughput {rate:.1?} p50_ms {p50:.3?} p95_ms {p95:.3?}")
}

fn corpus_index(ctx: &Ctx, trace: &mut Trace) -> io::Result<Outcome> {
    let mut layer = LayerMetrics::new();
    let n_windows = ctx.n_windows();
    let chunks_per_window = ctx.per_window(NOMINAL_CHUNKS_PER_S).max(MIN_CHUNKS);
    let n_tables = n_windows * chunks_per_window * CHUNK;

    let (mut off, setup_s) =
        median_of_three_setups(|| Ok(stack::offline(ctx.seed, n_tables)), drop::<Offline>)?;
    let (pipeline, teacher, tables) = (&off.pipeline, off.teacher.as_mut(), &off.corpus.tables);
    let mut store = api::teacher_store(teacher.d_model());

    // Warm-up: the first chunk, into a store that is thrown away.
    ops::embed_into(
        pipeline,
        teacher,
        &tables[..CHUNK],
        &mut api::teacher_store(store.dim()),
        &mut Trace::new(false),
    )?;

    let (mut rate, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    for (w, window) in tables.chunks(chunks_per_window * CHUNK).enumerate() {
        trace.set_on(ctx.traced && w % 2 == 1);
        let t0 = Instant::now();
        let chunk_s = ops::embed_into(pipeline, teacher, window, &mut store, trace)?;
        rate.push(window.len() as f64 / t0.elapsed().as_secs_f64());
        let mut chunk_ms: Vec<f64> = chunk_s.iter().map(|s| s * 1e3).collect();
        p50.push(percentile_of(&mut chunk_ms, 0.50));
        p95.push(percentile_of(&mut chunk_ms, 0.95));
    }
    trace.set_on(ctx.traced);

    let dir = ctx.work_dir.join("index");
    ops::build_index(&store, &dir, trace, &mut layer)?;
    let n_queries = (n_tables / 3).min(2000);
    let recall = ops::query_index(&dir, n_queries, trace, &mut layer)?;
    trace.set_on(false);

    if ctx.traced {
        layer.insert("bench.trace_overhead_pct", trace_overhead_pct(&rate, true));
    }
    layer.insert("process.peak_rss_mb", peak_rss_mb());

    let checks = vec![
        check(
            "every table is in the store",
            store.len() == n_tables,
            format!("{} of {n_tables}", store.len()),
        ),
        check(
            "recall@10 against the exact scan is at least 0.95",
            recall >= 0.95,
            format!("{recall}"),
        ),
    ];
    Ok(Outcome {
        setup_s,
        throughput: windowed(&rate[..3]),
        p50_ms: windowed(&p50[..3]),
        p95_ms: windowed(&p95[..3]),
        attempted: (n_tables + n_queries) as u64,
        failed: 0,
        checks,
        layer,
        notes: vec![format!(
            "{n_tables} tables in chunks of {CHUNK}, {n_queries} held-in queries, recall@10 {recall}"
        )],
    })
}

fn train_mlm(ctx: &Ctx, trace: &mut Trace) -> io::Result<Outcome> {
    let mut layer = LayerMetrics::new();
    let runs_per_window = ctx.per_window(NOMINAL_TRAIN_RUNS_PER_S);

    let ((off, slices), setup_s) = median_of_three_setups(
        || {
            let off = stack::offline(ctx.seed, 8 * TRAIN_SLICE);
            let slices = TrainSlices::new(&off);
            Ok((off, slices))
        },
        drop::<(Offline, TrainSlices)>,
    )?;
    let armed = SupervisorConfig::resilient();

    // Warm-up: one run on a model that is thrown away.
    ops::train_run(
        &off,
        &slices,
        0,
        &mut ops::fresh_tapas(&off),
        &armed,
        Default::default(),
    )?;

    // Every sub-window trains a fresh model through the same runs, so every
    // one must end on the same loss.
    let (mut rate, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    let (mut first_loss, mut final_losses) = (f32::NAN, Vec::new());
    let mut tokens = 0u64;
    for w in 0..ctx.n_windows() {
        trace.set_on(ctx.traced && w % 2 == 1);
        let mut model = ops::fresh_tapas(&off);
        let mut run_ms = Vec::with_capacity(runs_per_window);
        let mut last_loss = f32::NAN;
        let t0 = Instant::now();
        for n in 0..runs_per_window {
            let start = Instant::now();
            let (secs, losses) =
                ops::train_run(&off, &slices, n, &mut model, &armed, Default::default())?;
            trace.record("tasks.train_run", start, Instant::now(), None, n as u64);
            run_ms.push(secs * 1e3);
            if w == 0 && n == 0 {
                first_loss = losses[0];
            }
            if w == 0 {
                tokens += slices.tokens[n % slices.tokens.len()];
            }
            last_loss = *losses.last().expect("a run takes at least one step");
        }
        let steps = (runs_per_window * STEPS_PER_RUN) as f64;
        rate.push(steps / t0.elapsed().as_secs_f64());
        p50.push(percentile_of(&mut run_ms, 0.50));
        p95.push(percentile_of(&mut run_ms, 0.95));
        final_losses.push(last_loss);
    }
    trace.set_on(false);

    let steps_per_window = (runs_per_window * STEPS_PER_RUN) as f64;
    layer.insert("tasks.step_ms", 1e3 / median(&rate));
    layer.insert(
        "tasks.tokens_per_s",
        tokens as f64 / steps_per_window * median(&rate),
    );
    layer.insert("tasks.final_loss", f64::from(final_losses[0]));
    if ctx.traced {
        layer.insert("bench.trace_overhead_pct", trace_overhead_pct(&rate, true));
    }
    layer.insert("process.peak_rss_mb", peak_rss_mb());

    let same = final_losses
        .iter()
        .all(|l| l.to_bits() == final_losses[0].to_bits());
    let checks: Vec<Check> = vec![
        check(
            "every sub-window ends on the identical loss",
            same,
            format!("{final_losses:?}"),
        ),
        check(
            "the final loss is below the first step's",
            final_losses[0] < first_loss,
            format!("{} after {first_loss}", final_losses[0]),
        ),
    ];
    let attempted = (ctx.n_windows() * runs_per_window * STEPS_PER_RUN) as u64;
    Ok(Outcome {
        setup_s,
        throughput: windowed(&rate[..3]),
        p50_ms: windowed(&p50[..3]),
        p95_ms: windowed(&p95[..3]),
        attempted,
        failed: 0,
        checks,
        layer,
        notes: vec![format!(
            "{runs_per_window} runs of {STEPS_PER_RUN} steps per sub-window; loss {first_loss} -> {}",
            final_losses[0]
        )],
    })
}

const _: () = assert!(HOT_KEYS < POOL_TABLES);
