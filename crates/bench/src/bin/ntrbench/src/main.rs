//! `ntrbench` — one command that generates its inputs from a seed, runs a
//! named workload against the real stack, prints every metric by name with
//! its unit, checks what came back, and ends with one JSON line. See
//! `README.md` beside this package for the workloads and the metrics.
//!
//! ```text
//! ntrbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1|PATH] [--smoke]
//! ```

mod api;
mod client;
mod load;
mod ops;
mod probes;
mod report;
mod spans;
mod stack;
mod stats;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use spans::Trace;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// 0.1 under `--smoke`, which divides every duration and count by ten.
    scale: f64,
    /// `None`: end-to-end run. `Some(path)`: traced run writing spans there
    /// (`--trace 1` picks a path under the work directory).
    trace: Option<Option<PathBuf>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ntrbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1|PATH] \
         [--smoke]\n\n\
         --workload  one of {} (default all)\n\
         --seed      names the generated inputs (default 17)\n\
         --seconds   length of the measured window (default 10)\n\
         --trace     0: end-to-end metrics, tracing off (default)\n\
         \x20           1 or PATH: per-layer metrics and a span file\n\
         --smoke     a tenth of every duration and count",
        workloads::NAMES.join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 17,
        seconds: 10.0,
        scale: 1.0,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match val().as_str() {
                    "0" => None,
                    "1" => Some(None),
                    path => Some(Some(PathBuf::from(path))),
                }
            }
            "--smoke" => args.scale = 0.1,
            _ => usage(),
        }
    }
    let known = args.workload == "all" || workloads::NAMES.contains(&args.workload.as_str());
    if !known || !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// What the numbers were taken on; printed and stored with every run.
fn host_stamp(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_sha = git_head().unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\": {cores}, \"simd_compiled\": {}, \"simd_detected\": {}, \
         \"ntr_threads\": {}, \"n_workers\": {}, \"rustc\": \"{}\", \"git_sha\": \"{git_sha}\", \
         \"seed\": {seed}}}",
        api::simd::compiled(),
        api::simd::active(),
        api::par::max_threads(),
        api::N_WORKERS,
        env!("NTRBENCH_RUSTC"),
    )
}

/// The commit checked out in the working directory, read from `.git` there
/// and nowhere above it (a driver's checkout is not a repository).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let sha = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference)).ok()?,
        None => head,
    };
    Some(sha.trim().chars().take(12).collect())
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = o.layer.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(o.end_to_end())
            .map(|(&(name, unit, _), w)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    w.value
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn print_outcome(o: &Outcome, traced: bool) {
    for note in &o.notes {
        println!("note    {note}");
    }
    println!(
        "count   attempted {} failed {}",
        o.attempted.max(1),
        o.failed
    );
    if traced {
        for &(name, unit) in PER_LAYER {
            let value = o.layer.get(name).copied().unwrap_or(0.0);
            println!("layer   {name:<40} {value:>16.4} {unit}");
        }
    } else {
        for (&(name, unit, bound), w) in END_TO_END.iter().zip(o.end_to_end()) {
            println!(
                "metric  {name:<12} {:>14.4} {unit:<4} {name}.spread {:.4}",
                w.value, w.spread
            );
            if w.spread > bound {
                println!(
                    "WARN    the three values of {name} differ by {:.1} % of their median, more \
                     than its bound of {:.0} %: this box is noisy",
                    w.spread * 100.0,
                    bound * 100.0
                );
            }
        }
        // Counters that cost nothing to read, for the builder's eye.
        for (name, value) in &o.layer {
            println!("counter {name:<40} {value:>16.4}");
        }
    }
    for c in &o.checks {
        let verdict = match (c.prediction, c.pass) {
            (false, true) => "check   PASS",
            (false, false) => "check   FAIL",
            (true, true) => "predict MET",
            (true, false) => "predict UNMET",
        };
        println!("{verdict} {}: {}", c.name, c.detail);
    }
}

fn run_one(name: &str, args: &Args, work_root: &Path, host: &str) -> std::io::Result<bool> {
    let traced = args.trace.is_some();
    println!(
        "ntrbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds * args.scale,
        u8::from(traced)
    );
    println!("host    {host}");
    let work_dir = work_root.join(format!("{}-{name}", std::process::id()));
    std::fs::create_dir_all(&work_dir)?;
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds * args.scale,
        traced,
        work_dir: work_dir.clone(),
    };
    let mut trace = Trace::new(false);
    let result = workloads::run(name, &ctx, &mut trace).and_then(|mut outcome| {
        if traced {
            // The workload's own numbers for a layer win over the probe's.
            let mut layer = report::LayerMetrics::new();
            probes::run(args.seed, args.scale, &work_dir, &mut trace, &mut layer)?;
            layer.append(&mut outcome.layer);
            outcome.layer = layer;
        }
        Ok(outcome)
    });
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = result?;

    print_outcome(&outcome, traced);
    let json = result_json(&outcome, traced);
    if let Some(path) = &args.trace {
        let path = path
            .clone()
            .unwrap_or_else(|| work_root.join(format!("spans-{name}.jsonl")));
        trace.write_jsonl(&path)?;
        println!("spans   {} written to {}", trace.len(), path.display());
    }
    std::fs::write(
        work_root.join(format!("run-{name}-trace{}.json", u8::from(traced))),
        format!("{{\"host\": {host}, \"result\": {json}}}\n"),
    )?;
    println!("{json}");
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("ntrbench: the load shape is fixed for two cores; this box has {cores}");
        return ExitCode::from(2);
    }
    // Everything the benchmark writes goes beside its own binary, which is
    // inside the build directory of the checkout it was built in.
    let work_root = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("ntrbench-work")))
        .unwrap_or_else(|| PathBuf::from("ntrbench-work"));
    if let Err(e) = std::fs::create_dir_all(&work_root) {
        eprintln!("ntrbench: cannot create {}: {e}", work_root.display());
        return ExitCode::from(2);
    }
    let host = host_stamp(args.seed);
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        match run_one(name, &args, &work_root, &host) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("ntrbench: {name} could not run: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
