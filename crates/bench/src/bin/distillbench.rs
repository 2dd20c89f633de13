//! `distillbench` — teacher vs distilled-student inference comparison.
//!
//! Distills a [`ntr::models::RowStudent`] from a frozen teacher on a
//! synthetic-KB corpus (the same [`ntr::tasks::TrainRun::distill`] path `ntr
//! distill` drives), then measures — on that corpus — how faithfully and
//! how fast the student reproduces the teacher's pooled row/table
//! embeddings at f32 and at int8 (DESIGN.md §13). Fidelity is the mean
//! cosine over exactly the spans the distillation loss matches on
//! ([`ntr::tasks::distill::distill_spans`]: `[CLS]` plus each surviving
//! data row); speed is µs per pooled row, best of `--reps` passes.
//!
//! Output is one `BENCH_distill.json` row per variant, in the criterion
//! shim's flat-JSON baseline format (merge key `op/shape/threads/simd`):
//!
//! ```text
//! {"op": "distill/encode", "shape": "student-int8", ..., "ns_per_iter": <ns/row>,
//!  "cosine": 0.991, "speedup_vs_teacher": 8.2, "rows": 214}
//! ```
//!
//! plus a `distill/train` row recording the distillation itself (steps,
//! wall time, final training cosine).
//!
//! Usage:
//!
//! ```text
//! distillbench [--tables N] [--epochs N] [--reps N] [--teacher KIND]
//!              [--json BENCH_distill.json] [--gate]
//! ```
//!
//! `--gate` turns the run into a CI check: the int8 student must reach
//! cosine fidelity ≥ `NTR_DISTILLBENCH_MIN_COSINE` (default 0.97) at
//! ≥ `NTR_DISTILLBENCH_MIN_SPEEDUP`× (default 5) the teacher's mean
//! per-row latency.

use criterion::{read_baseline_entries, Entry};
use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::{pool_mean, EncoderInput, ModelConfig, RowStudent, SequenceEncoder};
use ntr::table::LinearizerOptions;
use ntr::tasks::distill::distill_spans;
use ntr::tasks::distill::DEFAULT_COS_WEIGHT;
use ntr::tasks::trainer::TrainConfig;
use ntr::tasks::TrainRun;
use ntr::zoo::{build_encoder, EncoderSpec, ModelKind, QuantSpec};
use ntr::Pipeline;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: distillbench [--tables N] [--epochs N] [--reps N] [--teacher KIND] \
         [--json PATH] [--gate]\n\n\
         --tables N    synthetic-KB tables to distill + evaluate on (default 48)\n\
         --epochs N    distillation epochs (default 6)\n\
         --reps N      timed passes per variant; best is reported (default 3)\n\
         --teacher K   teacher family: bert|tapas|turl|mate (default tapas)\n\
         --json PATH   merge rows into this baseline (default BENCH_distill.json)\n\
         --gate        enforce student-int8 cosine >= NTR_DISTILLBENCH_MIN_COSINE\n\
                       (0.97) and speedup >= NTR_DISTILLBENCH_MIN_SPEEDUP (5) vs\n\
                       the teacher's per-row latency"
    );
    std::process::exit(2)
}

struct Args {
    tables: usize,
    epochs: usize,
    reps: usize,
    teacher: ModelKind,
    json: PathBuf,
    gate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        tables: 48,
        epochs: 6,
        reps: 3,
        teacher: ModelKind::Tapas,
        json: PathBuf::from("BENCH_distill.json"),
        gate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--tables" => args.tables = val().parse().unwrap_or_else(|_| usage()),
            "--epochs" => args.epochs = val().parse().unwrap_or_else(|_| usage()),
            "--reps" => args.reps = val().parse::<usize>().unwrap_or_else(|_| usage()).max(1),
            "--teacher" => args.teacher = val().parse().unwrap_or_else(|_| usage()),
            "--json" => args.json = PathBuf::from(val()),
            "--gate" => args.gate = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.teacher == ModelKind::RowStudent {
        usage();
    }
    args
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let (mut dot, mut na, mut nb) = (0f64, 0f64, 0f64);
    for (x, y) in a.iter().zip(b) {
        dot += f64::from(*x) * f64::from(*y);
        na += f64::from(*x) * f64::from(*x);
        nb += f64::from(*y) * f64::from(*y);
    }
    if na <= 0.0 || nb <= 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// One pre-serialized evaluation table: the model input and the pooled
/// spans the distillation loss matches on. Serialization/tokenization is
/// shared by every variant (and amortized by serving's cache), so it is
/// hoisted out of the timed loop — `ns/row` measures model inference.
struct EvalExample {
    input: EncoderInput,
    spans: Vec<std::ops::Range<usize>>,
}

/// One variant's evaluation over the whole corpus: mean span cosine to
/// the teacher and best-of-`reps` per-row encode latency. The cosine
/// pass doubles as warmup (it also derives the int8 weight snapshot — a
/// one-time cost quantized serving pays at model build, not per row).
fn measure(
    model: &mut dyn SequenceEncoder,
    examples: &[EvalExample],
    teacher_spans: &[Vec<Vec<f32>>],
    reps: usize,
) -> (f64, f64, usize) {
    let mut n_spans = 0usize;
    let mut cos_sum = 0f64;
    for (ex, targets) in examples.iter().zip(teacher_spans) {
        let states = model.encode(&ex.input, false);
        for (span, target) in ex.spans.iter().zip(targets) {
            cos_sum += cosine(pool_mean(&states, span).data(), target);
            n_spans += 1;
        }
    }
    let mut best_ns = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for ex in examples {
            std::hint::black_box(model.encode(&ex.input, false));
        }
        best_ns = best_ns.min(t0.elapsed().as_nanos() as f64);
    }
    (
        cos_sum / n_spans.max(1) as f64,
        best_ns / n_spans.max(1) as f64,
        n_spans,
    )
}

/// Merges rows into the baseline file, shim-format (same writer as
/// `indexbench` / `cargo bench --json`).
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

fn main() {
    let args = parse_args();
    let min_cosine = env_f64("NTR_DISTILLBENCH_MIN_COSINE", 0.97);
    let min_speedup = env_f64("NTR_DISTILLBENCH_MIN_SPEEDUP", 5.0);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let simd = cfg!(feature = "simd");

    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: args.tables,
            headerless_prob: 0.0,
            seed: 7,
            ..CorpusConfig::default()
        },
    );
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(600)
        .options(LinearizerOptions {
            max_tokens: 64,
            ..Default::default()
        })
        .build()
        .expect("vocab is non-empty");
    // Serving-scale width (the tiny test config is so narrow that
    // per-call overhead, not arithmetic, dominates every variant).
    let cfg = ModelConfig {
        vocab_size: pipeline.tokenizer().vocab_size(),
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        max_seq: 64,
        ..ModelConfig::tiny(pipeline.tokenizer().vocab_size())
    };
    let mut teacher = build_encoder(EncoderSpec::f32(args.teacher), &cfg)
        .expect("f32 teachers are always constructible");
    let mut student = RowStudent::new(&ModelConfig { seed: 99, ..cfg });

    println!(
        "distillbench: distilling {} -> row-student on {} tables, {} epochs ...",
        args.teacher.name(),
        args.tables,
        args.epochs
    );
    let t_train = Instant::now();
    let report = TrainRun::new(TrainConfig {
        epochs: args.epochs,
        lr: 5e-3,
        batch_size: 4,
        warmup_frac: 0.0,
        seed: 0xD17,
    })
    .max_tokens(64)
    .distill(
        &mut student,
        teacher.as_mut(),
        DEFAULT_COS_WEIGHT,
        &corpus,
        pipeline.tokenizer(),
    )
    .expect("distillation runs clean without faults");
    let train_ns = t_train.elapsed().as_nanos() as f64;
    println!(
        "distilled: {} optimizer step(s) in {:.1} ms, final training cosine {:.4}",
        report.loss.len(),
        train_ns / 1e6,
        report.final_cosine()
    );

    // Serialize every table once; the timed loops below measure pure
    // model inference over these shared inputs.
    let opts = LinearizerOptions {
        max_tokens: 64,
        ..Default::default()
    };
    let examples: Vec<EvalExample> = corpus
        .tables
        .iter()
        .map(|t| {
            let encoded =
                pipeline
                    .linearizer()
                    .linearize(t, &t.caption, pipeline.tokenizer(), &opts);
            EvalExample {
                spans: distill_spans(&encoded),
                input: EncoderInput::from_encoded(&encoded),
            }
        })
        .collect();

    // The teacher's pooled span embeddings are the fidelity reference for
    // every variant (and make its own cosine an exact 1.0 sanity row).
    let teacher_spans: Vec<Vec<Vec<f32>>> = examples
        .iter()
        .map(|ex| {
            let states = teacher.encode(&ex.input, false);
            ex.spans
                .iter()
                .map(|span| pool_mean(&states, span).data().to_vec())
                .collect()
        })
        .collect();

    let mut rows = vec![Entry {
        op: "distill/train".to_string(),
        shape: format!("{}->row-student", args.teacher.name()),
        threads,
        simd,
        ns_per_iter: train_ns,
        extra: vec![
            ("steps".to_string(), report.loss.len().to_string()),
            ("epochs".to_string(), args.epochs.to_string()),
            (
                "final_cosine".to_string(),
                format!("{:.4}", report.final_cosine()),
            ),
        ],
    }];

    let (teacher_ns, mut int8_cos, mut int8_speedup) = (f64::NAN, 0.0, 0.0);
    let mut teacher_ns = teacher_ns;
    println!(
        "\n{:>14} {:>12} {:>10} {:>10} {:>8}",
        "variant", "ns/row", "cosine", "speedup", "rows"
    );
    for shape in ["teacher", "student-f32", "student-int8"] {
        let model: &mut dyn SequenceEncoder = match shape {
            "teacher" => teacher.as_mut(),
            "student-f32" => {
                student.set_precision(QuantSpec::F32);
                &mut student
            }
            _ => {
                student.set_precision(QuantSpec::Int8);
                &mut student
            }
        };
        let (cos, ns, n_rows) = measure(model, &examples, &teacher_spans, args.reps);
        if shape == "teacher" {
            teacher_ns = ns;
        }
        let speedup = teacher_ns / ns.max(1.0);
        if shape == "student-int8" {
            int8_cos = cos;
            int8_speedup = speedup;
        }
        println!("{shape:>14} {ns:>12.0} {cos:>10.4} {speedup:>9.1}x {n_rows:>8}");
        rows.push(Entry {
            op: "distill/encode".to_string(),
            shape: shape.to_string(),
            threads,
            simd,
            ns_per_iter: ns,
            extra: vec![
                ("cosine".to_string(), format!("{cos:.4}")),
                ("speedup_vs_teacher".to_string(), format!("{speedup:.1}")),
                ("rows".to_string(), n_rows.to_string()),
                ("tables".to_string(), args.tables.to_string()),
            ],
        });
    }

    write_baseline(&args.json, rows);

    let mut gate_failures = Vec::new();
    if args.gate {
        if int8_cos < min_cosine {
            gate_failures.push(format!(
                "student-int8 cosine {int8_cos:.4} below {min_cosine}"
            ));
        }
        if int8_speedup < min_speedup {
            gate_failures.push(format!(
                "student-int8 speedup {int8_speedup:.1}x below {min_speedup}x vs teacher"
            ));
        }
    }
    if !gate_failures.is_empty() {
        eprintln!("distillbench gate FAILED:");
        for f in &gate_failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    if args.gate {
        println!("distillbench gate passed");
    }
}
