//! The distilled student's targets: a `RowStudent` distilled from a TAPAS
//! teacher serves at int8 at least [`MIN_SPEEDUP`]× faster per pooled row
//! than the teacher, at a mean cosine of at least [`MIN_COSINE`] to the
//! teacher's pooled embeddings (RoTaR's teacher–student trade, DESIGN.md
//! §13).
//!
//! Fidelity is the mean cosine over exactly the spans the distillation loss
//! matches on ([`distill_spans`]: `[CLS]` plus each surviving data row).
//! Speed is model inference per pooled row, best of [`REPS`] timed passes
//! over inputs serialized once beforehand.
//!
//! Timing means little in a debug build, so the test is ignored there. The
//! speed target is for the vector kernels that ship:
//!
//! ```text
//! cargo test --release -p ntr-bench --features simd --test student_gate
//! ```

use ntr::corpus::tables::{CorpusConfig, TableCorpus};
use ntr::corpus::{World, WorldConfig};
use ntr::models::{pool_mean, EncoderInput, ModelConfig, RowStudent, SequenceEncoder};
use ntr::table::LinearizerOptions;
use ntr::tasks::distill::{distill_spans, DEFAULT_COS_WEIGHT};
use ntr::tasks::trainer::TrainConfig;
use ntr::tasks::TrainRun;
use ntr::{build_encoder, EncoderSpec, ModelKind, Pipeline, QuantSpec};
use std::ops::Range;
use std::time::Instant;

/// Least mean span cosine of the int8 student to the teacher.
const MIN_COSINE: f64 = 0.97;
/// Least ratio of the teacher's per-row time to the int8 student's.
const MIN_SPEEDUP: f64 = 5.0;
/// Synthetic-KB tables distilled on and evaluated over.
const TABLES: usize = 48;
/// Distillation epochs.
const EPOCHS: usize = 6;
/// Timed passes per model; the fastest counts.
const REPS: usize = 3;

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

/// One serialized table: the model input and the spans pooled from it.
struct Example {
    input: EncoderInput,
    spans: Vec<Range<usize>>,
}

/// The pooled span embeddings of every example.
fn pooled(model: &dyn SequenceEncoder, examples: &[Example]) -> Vec<Vec<Vec<f32>>> {
    examples
        .iter()
        .map(|ex| {
            let states = model.encode(&ex.input, false);
            ex.spans
                .iter()
                .map(|span| pool_mean(&states, span).data().to_vec())
                .collect()
        })
        .collect()
}

/// Nanoseconds per pooled row, best of [`REPS`] passes over every example.
fn ns_per_row(model: &dyn SequenceEncoder, examples: &[Example]) -> f64 {
    let rows: usize = examples.iter().map(|ex| ex.spans.len()).sum();
    let best = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for ex in examples {
                std::hint::black_box(model.encode(&ex.input, false));
            }
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    best / rows.max(1) as f64
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing target: run with --release")]
fn int8_student_is_five_times_faster_than_its_teacher_at_097_cosine() {
    let world = World::generate(WorldConfig::default());
    let corpus = TableCorpus::generate(
        &world,
        &CorpusConfig {
            n_tables: TABLES,
            headerless_prob: 0.0,
            seed: 7,
            ..CorpusConfig::default()
        },
    );
    let opts = LinearizerOptions {
        max_tokens: 64,
        ..LinearizerOptions::default()
    };
    let pipeline = Pipeline::builder()
        .vocab_from_tables(&corpus.tables)
        .vocab_size(600)
        .options(opts.clone())
        .build()
        .expect("vocab is non-empty");
    // Serving width: the tiny test config is so narrow that per-call
    // overhead, not arithmetic, would dominate both models.
    let cfg = ModelConfig {
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        max_seq: 64,
        ..ModelConfig::tiny(pipeline.tokenizer().vocab_size())
    };
    let mut teacher = build_encoder(EncoderSpec::f32(ModelKind::Tapas), &cfg)
        .expect("f32 teachers are always constructible");
    let mut student = RowStudent::new(&ModelConfig { seed: 99, ..cfg });
    TrainRun::new(TrainConfig {
        epochs: EPOCHS,
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
    student.set_precision(QuantSpec::Int8);

    let examples: Vec<Example> = corpus
        .tables
        .iter()
        .map(|t| {
            let encoded =
                pipeline
                    .linearizer()
                    .linearize(t, &t.caption, pipeline.tokenizer(), &opts);
            Example {
                spans: distill_spans(&encoded),
                input: EncoderInput::from_encoded(&encoded),
            }
        })
        .collect();

    // The fidelity pass doubles as warm-up for both timed models; the
    // student's first int8 forward also builds its weight snapshot, a
    // one-time cost a served model pays at build.
    let targets = pooled(teacher.as_ref(), &examples);
    let (mut cos_sum, mut spans) = (0f64, 0usize);
    for (got, want) in pooled(&student, &examples).iter().zip(&targets) {
        for (g, w) in got.iter().zip(want) {
            cos_sum += cosine(g, w);
            spans += 1;
        }
    }
    let cos = cos_sum / spans.max(1) as f64;
    let speedup = ns_per_row(teacher.as_ref(), &examples) / ns_per_row(&student, &examples);
    println!("student int8: cosine {cos:.4} over {spans} spans, {speedup:.1}x the teacher");
    assert!(cos >= MIN_COSINE, "cosine {cos:.4} below {MIN_COSINE}");
    assert!(
        speedup >= MIN_SPEEDUP,
        "speedup {speedup:.1}x below {MIN_SPEEDUP}x"
    );
}
