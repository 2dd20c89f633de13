//! Teacher–student distillation (DESIGN.md §13): train a small
//! [`RowStudent`] row encoder to reproduce a frozen teacher's pooled
//! row/table embeddings, so retrieval-style serving can swap an
//! attention-stack teacher for a student that also runs at int8.
//!
//! The objective is per pooled span (the `[CLS]` position plus each data
//! row's cell-token range): `MSE(u, t) + cos_weight · (1 − cosine(u, t))`
//! where `u` is the student's pooled embedding and `t` the teacher's.
//! Teacher targets are computed once, in eval mode, before the first
//! optimizer step — the teacher's weights never change and never receive
//! gradients. The student trains through the same
//! [`run_supervised`] machinery as every other objective, so
//! checkpoint/resume, the self-healing supervisor, and observability all
//! apply unchanged.

use crate::pretrain::TrainRun;
use crate::supervisor::{run_supervised, TrainError};
use ntr_corpus::tables::TableCorpus;
use ntr_models::{pool_mean, pool_mean_backward, EncoderInput, RowStudent, SequenceEncoder};
use ntr_table::{EncodedTable, TokenKind};
use ntr_tensor::Tensor;
use ntr_tokenizer::WordPieceTokenizer;
use std::ops::Range;

/// Norms below this are treated as zero when computing cosine terms.
const EPS: f32 = 1e-8;

/// Default weight of the `1 − cosine` term relative to the MSE term.
pub const DEFAULT_COS_WEIGHT: f32 = 0.5;

/// Loss/fidelity trajectory of a distillation run, one point per
/// optimizer step.
#[derive(Debug, Clone, Default)]
pub struct DistillReport {
    /// Mean per-span distillation loss (MSE + weighted cosine term).
    pub loss: Vec<f32>,
    /// Mean per-span cosine similarity between student and teacher.
    pub cosine: Vec<f32>,
}

impl DistillReport {
    /// Cosine fidelity at the last step (0.0 for an empty run).
    pub fn final_cosine(&self) -> f32 {
        self.cosine.last().copied().unwrap_or(0.0)
    }
}

/// The pooled spans distillation matches on: the `[CLS]` position first,
/// then one `first..last+1` range over each data row's cell tokens (rows
/// whose cells were fully truncated away contribute no span).
pub fn distill_spans(encoded: &EncodedTable) -> Vec<Range<usize>> {
    let mut spans: Vec<Range<usize>> = std::iter::once(0..1).collect();
    let meta = encoded.meta();
    let max_row = meta.iter().map(|m| m.row).max().unwrap_or(0);
    for row in 1..=max_row {
        let mut first = None;
        let mut last = 0;
        for (pos, m) in meta.iter().enumerate() {
            if m.row == row && m.kind == TokenKind::Cell {
                first.get_or_insert(pos);
                last = pos;
            }
        }
        if let Some(first) = first {
            spans.push(first..last + 1);
        }
    }
    spans
}

/// One table's distillation example: the student input, the pooled spans,
/// and the frozen teacher's `[n_spans, d]` target embeddings.
struct DistillExample {
    input: EncoderInput,
    spans: Vec<Range<usize>>,
    targets: Tensor,
}

/// Per-span loss and input gradient:
/// `MSE + cos_weight · (1 − cosine)`, both terms averaged over nothing —
/// MSE is a mean over the `d` features, the cosine term is scale-free.
/// Returns `(loss, cosine, d loss / d u)`.
fn span_loss(u: &[f32], t: &[f32], cos_weight: f32) -> (f32, f32, Vec<f32>) {
    let d = u.len();
    let mut du = vec![0.0f32; d];
    let mut mse = 0.0f32;
    let (mut dot, mut nu2, mut nt2) = (0.0f32, 0.0f32, 0.0f32);
    for j in 0..d {
        let diff = u[j] - t[j];
        mse += diff * diff;
        du[j] = 2.0 * diff / d as f32;
        dot += u[j] * t[j];
        nu2 += u[j] * u[j];
        nt2 += t[j] * t[j];
    }
    mse /= d as f32;
    let (nu, nt) = (nu2.sqrt(), nt2.sqrt());
    let cos = if nu > EPS && nt > EPS {
        dot / (nu * nt)
    } else {
        0.0
    };
    if nu > EPS && nt > EPS {
        // d(1 − cos)/du_j = cos·u_j/|u|² − t_j/(|u||t|)
        for j in 0..d {
            du[j] += cos_weight * (cos * u[j] / nu2 - t[j] / (nu * nt));
        }
    }
    (mse + cos_weight * (1.0 - cos), cos, du)
}

impl TrainRun<'_> {
    /// Distills `teacher` into `student` over `corpus`, weighting the
    /// `1 − cosine` term by `cos_weight` (0 recovers pure MSE distillation).
    /// The teacher is frozen: it runs in eval mode exactly once per table,
    /// before training starts, and sees the same serialization as the
    /// student.
    pub fn distill(
        &self,
        student: &mut RowStudent,
        teacher: &mut dyn SequenceEncoder,
        cos_weight: f32,
        corpus: &TableCorpus,
        tok: &WordPieceTokenizer,
    ) -> Result<DistillReport, TrainError> {
        let opts = ntr_table::LinearizerOptions {
            max_tokens: self.max_tokens,
            ..Default::default()
        };
        let examples: Vec<DistillExample> = corpus
            .tables
            .iter()
            .map(|t| {
                let encoded = self.linearizer.linearize(t, &t.caption, tok, &opts);
                let input = EncoderInput::from_encoded(&encoded);
                let spans = distill_spans(&encoded);
                let states = teacher.encode(&input, false);
                let d = states.dim(1);
                let mut targets = Tensor::zeros(&[spans.len(), d]);
                for (k, span) in spans.iter().enumerate() {
                    targets
                        .row_mut(k)
                        .copy_from_slice(pool_mean(&states, span).data());
                }
                DistillExample {
                    input,
                    spans,
                    targets,
                }
            })
            .collect();
        let n_spans: usize = examples.iter().map(|e| e.spans.len()).sum();
        let teacher_family = teacher.family();
        let d_model = student.config().d_model;

        let mut announced = false;
        let steps = run_supervised(
            student,
            &self.cfg,
            examples.len(),
            &self.topts,
            &self.scfg,
            |r: &(f32, f32)| r.0,
            |student, item| {
                let ex = &examples[item.index];
                let states = student.encode(&ex.input, true);
                let seq_len = states.dim(0);
                let mut dstates = Tensor::zeros(states.shape());
                let mut spans = Vec::with_capacity(ex.spans.len());
                for (k, span) in ex.spans.iter().enumerate() {
                    let u = pool_mean(&states, span);
                    let (loss, cos, du) = span_loss(u.data(), ex.targets.row(k), cos_weight);
                    spans.push((loss, cos));
                    let du = Tensor::from_vec(du, &[1, states.dim(1)]);
                    dstates.add_assign(&pool_mean_backward(&du, span, seq_len));
                }
                student.backward(&dstates);
                (ex.input.len(), spans)
            },
            |results, _, obs| {
                if !announced {
                    announced = true;
                    if let Some(e) = obs.event("distill_start") {
                        e.u64("tables", examples.len() as u64)
                            .u64("spans", n_spans as u64)
                            .u64("d_model", d_model as u64)
                            .str("teacher", teacher_family)
                            .f32("cos_weight", cos_weight)
                            .finish();
                    }
                }
                obs.count_tokens(results.iter().map(|r| r.0 as u64).sum());
                let spans = results.iter().flat_map(|r| &r.1);
                let (loss, cos, n) =
                    spans.fold((0.0f32, 0.0f32, 0), |a, s| (a.0 + s.0, a.1 + s.1, a.2 + 1));
                obs.inc("distill/steps");
                obs.add("distill/spans", n as u64);
                let r = (loss / n.max(1) as f32, cos / n.max(1) as f32);
                if let Some(e) = obs.event("distill_step") {
                    e.f32("loss", r.0).f32("cosine", r.1).finish();
                }
                r
            },
        )?;
        let mut report = DistillReport::default();
        for (loss, cos) in steps {
            report.loss.push(loss);
            report.cosine.push(cos);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{TrainConfig, TrainerOptions};
    use ntr_corpus::tables::{CorpusConfig, TableCorpus};
    use ntr_corpus::{World, WorldConfig};
    use ntr_models::{ModelConfig, Tapas};
    use ntr_table::{Linearizer, LinearizerOptions, RowMajorLinearizer};
    use ntr_tokenizer::train::WordPieceTrainer;

    fn fixture() -> (TableCorpus, WordPieceTokenizer, ModelConfig) {
        let world = World::generate(WorldConfig {
            n_countries: 6,
            n_people: 6,
            n_films: 4,
            n_clubs: 3,
            seed: 0xD15,
        });
        let corpus = TableCorpus::generate(
            &world,
            &CorpusConfig {
                n_tables: 5,
                min_rows: 2,
                max_rows: 4,
                null_prob: 0.0,
                headerless_prob: 0.0,
                seed: 0xD16,
            },
        );
        let docs: Vec<String> = corpus
            .tables
            .iter()
            .map(ntr_corpus::vocab::table_text)
            .collect();
        let tok = WordPieceTokenizer::new(
            WordPieceTrainer::new(700).train(docs.iter().map(String::as_str)),
        );
        let cfg = ModelConfig::tiny(tok.vocab_size());
        (corpus, tok, cfg)
    }

    const W: f32 = DEFAULT_COS_WEIGHT;

    fn tcfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            lr: 5e-3,
            batch_size: 2,
            warmup_frac: 0.0,
            seed: 0xD17,
        }
    }

    #[test]
    fn spans_cover_cls_and_each_surviving_row() {
        let (corpus, tok, _) = fixture();
        let t = &corpus.tables[0];
        let e = RowMajorLinearizer.linearize(
            t,
            &t.caption,
            &tok,
            &LinearizerOptions {
                max_tokens: 64,
                ..Default::default()
            },
        );
        let spans = distill_spans(&e);
        assert_eq!(spans[0], 0..1, "first span is [CLS]");
        assert_eq!(spans.len(), 1 + e.n_rows_encoded());
        for s in &spans {
            assert!(s.end <= e.len() && s.start < s.end);
        }
    }

    #[test]
    fn span_loss_is_zero_at_the_target() {
        let t = [0.5f32, -1.0, 2.0];
        let (loss, cos, du) = span_loss(&t, &t, 0.5);
        assert!(loss.abs() < 1e-6, "{loss}");
        assert!((cos - 1.0).abs() < 1e-6);
        for g in du {
            assert!(g.abs() < 1e-6, "{g}");
        }
    }

    #[test]
    fn span_loss_gradient_matches_finite_differences() {
        let u = [0.3f32, -0.7, 1.1, 0.2];
        let t = [1.0f32, 0.5, -0.5, 0.0];
        let (_, _, du) = span_loss(&u, &t, 0.5);
        let h = 1e-3;
        for j in 0..u.len() {
            let mut up = u;
            up[j] += h;
            let mut dn = u;
            dn[j] -= h;
            let num = (span_loss(&up, &t, 0.5).0 - span_loss(&dn, &t, 0.5).0) / (2.0 * h);
            assert!(
                (num - du[j]).abs() < 1e-2,
                "grad[{j}]: analytic {} vs numeric {num}",
                du[j]
            );
        }
    }

    #[test]
    fn span_loss_survives_zero_vectors() {
        let z = [0.0f32; 4];
        let t = [1.0f32, 2.0, 3.0, 4.0];
        let (loss, cos, du) = span_loss(&z, &t, 0.5);
        assert!(loss.is_finite() && cos == 0.0);
        assert!(du.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn distillation_improves_fidelity_to_the_teacher() {
        let (corpus, tok, cfg) = fixture();
        let mut teacher = Tapas::new(&cfg);
        let mut student = RowStudent::new(&ModelConfig { seed: 99, ..cfg });
        let report = TrainRun::new(tcfg())
            .max_tokens(64)
            .distill(&mut student, &mut teacher, W, &corpus, &tok)
            .unwrap();
        assert!(!report.loss.is_empty());
        let first = report.cosine.first().copied().unwrap();
        let last = report.final_cosine();
        assert!(
            last > first,
            "cosine fidelity should improve: {first} -> {last}"
        );
        assert!(
            report.loss.last().unwrap() < report.loss.first().unwrap(),
            "loss should drop"
        );
    }

    #[test]
    fn distillation_is_deterministic() {
        let (corpus, tok, cfg) = fixture();
        let run = || {
            let mut teacher = Tapas::new(&cfg);
            let mut student = RowStudent::new(&ModelConfig { seed: 99, ..cfg });
            TrainRun::new(tcfg())
                .max_tokens(64)
                .distill(&mut student, &mut teacher, W, &corpus, &tok)
                .unwrap()
                .loss
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn distill_checkpoint_resume_is_bit_identical() {
        let (corpus, tok, cfg) = fixture();
        let dir = std::env::temp_dir().join("ntr_distill_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("student.ckpt");

        // Uninterrupted run.
        let mut teacher = Tapas::new(&cfg);
        let mut student = RowStudent::new(&ModelConfig { seed: 99, ..cfg });
        let full = TrainRun::new(tcfg())
            .max_tokens(64)
            .distill(&mut student, &mut teacher, W, &corpus, &tok)
            .unwrap();

        // Halted run + resume.
        let mut teacher2 = Tapas::new(&cfg);
        let mut s2 = RowStudent::new(&ModelConfig { seed: 99, ..cfg });
        let halted = TrainRun::new(tcfg())
            .max_tokens(64)
            .trainer(&TrainerOptions {
                checkpoint: Some((ckpt.clone(), 1)),
                halt_after: Some(2),
                ..Default::default()
            })
            .distill(&mut s2, &mut teacher2, W, &corpus, &tok)
            .unwrap();
        let mut s3 = RowStudent::new(&ModelConfig { seed: 1234, ..cfg });
        let resumed = TrainRun::new(tcfg())
            .max_tokens(64)
            .trainer(&TrainerOptions {
                resume: Some(ckpt.clone()),
                ..Default::default()
            })
            .distill(&mut s3, &mut teacher2, W, &corpus, &tok)
            .unwrap();
        let mut stitched = halted.loss.clone();
        stitched.extend_from_slice(&resumed.loss);
        assert_eq!(stitched, full.loss, "resume must continue bit-identically");
        let _ = std::fs::remove_file(&ckpt);
    }
}
