//! `RowStudent` — the distilled per-row student encoder.
//!
//! RoTaR-style serving economics (PAPERS.md, DESIGN.md §13): the teacher
//! families pay full-sequence self-attention (`O(n²·d)`) on every encode;
//! the student replaces attention with one *row-mean context* mix plus a
//! per-token MLP (`O(n·d·d_ff)`), which is the whole point — a cache miss
//! through the student costs roughly a tenth of a teacher miss at the
//! same output interface (`[seq, d_model]` states that the existing
//! `TableEncoding` pooling consumes unchanged).
//!
//! The student is trained only by distillation (`TrainRun::distill` in
//! `ntr-tasks`) against frozen teacher embeddings; it has no MLM head and
//! no self-supervised objective of its own.
//!
//! # Precision
//!
//! A student carries a [`QuantSpec`]: at `F32` inference is the exact
//! reference path; at `Int8` the two MLP matmuls run through
//! `ntr_tensor::quant` on an int8 snapshot of the weights
//! ([`ntr_nn::QuantizedLinear`]) that is derived once, on first use, and
//! re-derived after the parameters change (any `visit_params` call
//! invalidates it). The snapshot sits in a `OnceLock`, so inference stays
//! `&self` and threads sharing one student derive it once. Scales are
//! a pure function of the f32 weights, so a checkpoint round-trip
//! re-derives bit-identical snapshots — pinned by tests below. Training
//! always runs the f32 path.

use crate::config::{ModelConfig, QuantSpec};
use crate::embeddings::{EmbeddingFlags, EmbeddingsTape, TableEmbeddings};
use crate::input::EncoderInput;
use crate::{SequenceEncoder, Tape};
use ntr_nn::init::SeededInit;
use ntr_nn::layernorm::LayerNormTape;
use ntr_nn::{
    visit_child, Cx, Dropout, Gelu, Layer, LayerNorm, Linear, Name, Param, QuantizedLinear, Rows,
};
use ntr_tensor::{simd, Tensor};
use std::sync::OnceLock;

/// Shallow per-row encoder: embeddings → row-mean context mix → per-token
/// MLP with residual → LayerNorm. No attention anywhere.
#[derive(Debug, Clone)]
pub struct RowStudent {
    /// Input embeddings (word + position + full structural tables — the
    /// student leans on row/col ids precisely because it cannot attend).
    pub embeddings: TableEmbeddings,
    /// MLP up-projection, `d_model → d_ff`.
    pub proj1: Linear,
    /// MLP down-projection, `d_ff → d_model`.
    pub proj2: Linear,
    /// Output normalization.
    pub ln: LayerNorm,
    cfg: ModelConfig,
    precision: QuantSpec,
    /// Int8 snapshots of (proj1, proj2); empty until first int8 encode
    /// and after any parameter mutation.
    qcache: OnceLock<(QuantizedLinear, QuantizedLinear)>,
}

/// What the student's backward needs of a training forward: the
/// embeddings' tape, the input's row ids, the output rows (`None` for
/// every row), the MLP's input, its GELU's input, its second projection's
/// input and the LayerNorm's tape.
struct StudentTape(
    EmbeddingsTape,
    Vec<usize>,
    Option<Vec<usize>>,
    Tensor,
    Tensor,
    Tensor,
    LayerNormTape,
);

/// Adds to each token the mean embedding of its row group (tokens sharing
/// a `rows[t]` id), in place. The mix is symmetric, so it is its own
/// backward: `de[u] = dh[u] + (1/|g|) Σ_{t∈g} dh[t]`.
fn mix_row_means(x: &mut Tensor, rows: &[usize]) {
    let (n, d) = (x.dim(0), x.dim(1));
    debug_assert_eq!(rows.len(), n);
    let groups = rows.iter().copied().max().map_or(0, |m| m + 1);
    let mut sums = vec![0.0f32; groups * d];
    let mut counts = vec![0u32; groups];
    for (t, &r) in rows.iter().enumerate() {
        counts[r] += 1;
        let row = x.row(t);
        let acc = &mut sums[r * d..(r + 1) * d];
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
    for (t, &r) in rows.iter().enumerate() {
        let inv = 1.0 / counts[r] as f32;
        let mean = &sums[r * d..(r + 1) * d];
        let row = x.row_mut(t);
        for (v, &m) in row.iter_mut().zip(mean) {
            *v += m * inv;
        }
    }
}

impl RowStudent {
    /// Builds the student from a config, at f32 precision.
    pub fn new(cfg: &ModelConfig) -> Self {
        cfg.validate();
        let mut init = SeededInit::new(cfg.seed);
        Self {
            embeddings: TableEmbeddings::new(cfg, EmbeddingFlags::structural(), &mut init),
            proj1: Linear::new(cfg.d_model, cfg.d_ff, &mut init.fork()),
            proj2: Linear::new(cfg.d_ff, cfg.d_model, &mut init.fork()),
            ln: LayerNorm::new(cfg.d_model),
            cfg: *cfg,
            precision: QuantSpec::F32,
            qcache: OnceLock::new(),
        }
    }

    /// The model's config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The precision eval-mode encodes run at.
    pub fn precision(&self) -> QuantSpec {
        self.precision
    }

    /// Sets the inference precision (training is always f32).
    pub fn set_precision(&mut self, precision: QuantSpec) {
        self.precision = precision;
    }

    /// The int8 weight snapshots, deriving them if stale. Exposed so
    /// tests can pin that a checkpoint round-trip re-derives identical
    /// scales.
    pub fn quantized_mlp(&self) -> &(QuantizedLinear, QuantizedLinear) {
        self.qcache
            .get_or_init(|| (self.proj1.quantized(), self.proj2.quantized()))
    }
}

impl SequenceEncoder for RowStudent {
    fn d_model(&self) -> usize {
        self.cfg.d_model
    }

    fn vocab_size(&self) -> usize {
        self.cfg.vocab_size
    }

    /// At `Int8` the two MLP matmuls run on the quantized snapshot;
    /// embeddings, context mix and LayerNorm stay f32. The row-mean mix
    /// reads every row; the MLP, residual and LayerNorm then run on `rows`
    /// alone.
    fn infer(&self, input: &EncoderInput, rows: Rows) -> Tensor {
        let mut h = self.embeddings.infer(input);
        mix_row_means(&mut h, &input.rows);
        let h = rows.of(&h);
        let y = match self.precision {
            QuantSpec::F32 => self.proj2.forward(&Gelu.forward(&self.proj1.forward(&h))),
            QuantSpec::Int8 => {
                let on = simd::active();
                let (q1, q2) = self.quantized_mlp();
                // The fast GELU's approximation error (< 5e-5) is far below
                // the int8 quantization noise on either side of it. The
                // quantized matmul is exact integer math per row, the same
                // for any row count.
                q2.forward(on, &Gelu.forward_approx(&q1.forward(on, &h)))
            }
        };
        self.ln.forward(&h.add(&y))
    }

    /// Training always runs the f32 path, narrowed as `infer` narrows.
    fn encode_train(&self, input: &EncoderInput, rows: Rows, cx: &mut Cx) -> (Tensor, Tape) {
        let (mut h, embeddings) = self.embeddings.forward_train(input, cx);
        mix_row_means(&mut h, &input.rows);
        let h = rows.of(&h).into_owned();
        let u = self.proj1.forward(&h);
        let g = Gelu.forward(&u);
        let y = self.proj2.forward(&g);
        let (out, ln) = self.ln.forward_train(&h.add(&y));
        let out_rows = rows.record();
        let tape = StudentTape(embeddings, input.rows.clone(), out_rows, h, u, g, ln);
        (out, Box::new(tape))
    }

    fn backward(&self, tape: Tape, d_states: &Tensor, cx: &mut Cx) {
        let tape = tape
            .downcast::<StudentTape>()
            .expect("a tape of this family");
        let StudentTape(embeddings, rows, out, h, u, g, ln) = *tape;
        let dz = self.ln.backward(ln, d_states, cx);
        // z = h + proj2(gelu(proj1(h))): both branches feed dh.
        let dg = self.proj2.backward(&g, &dz, cx);
        let dh_mlp = self.proj1.backward(&h, &Gelu.backward(u, &dg), cx);
        let mut de = Rows::from(out.as_deref()).scatter(dz.add(&dh_mlp), rows.len());
        mix_row_means(&mut de, &rows);
        self.embeddings.backward(embeddings, &de, cx);
    }

    fn family(&self) -> &'static str {
        "row-student"
    }
}

impl Layer for RowStudent {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        // Any visit may mutate weights (optimizer step, checkpoint load),
        // so the int8 snapshot is stale from here on.
        self.qcache = OnceLock::new();
        self.embeddings
            .visit_params(&mut visit_child("embeddings", f));
        self.proj1.visit_params(&mut visit_child("proj1", f));
        self.proj2.visit_params(&mut visit_child("proj2", f));
        self.ln.visit_params(&mut visit_child("ln", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut Dropout)) {
        self.embeddings
            .visit_rng_state(&mut visit_child("embeddings", f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::input_sample;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn encode_shape_and_determinism() {
        let cfg = ModelConfig::tiny(300);
        let a = RowStudent::new(&cfg);
        let b = RowStudent::new(&cfg);
        let inp = input_sample();
        let x = a.encode(&inp, false);
        assert_eq!(x.shape(), &[inp.len(), cfg.d_model]);
        assert_eq!(x, b.encode(&inp, false));
    }

    #[test]
    fn row_ids_do_affect_the_student() {
        // Unlike VanillaBert, the student's only cross-token signal is the
        // row grouping — erasing it must change the encoding.
        let cfg = ModelConfig::tiny(300);
        let m = RowStudent::new(&cfg);
        let inp = input_sample();
        let mut flat = inp.clone();
        for r in &mut flat.rows {
            *r = 0;
        }
        assert_ne!(m.encode(&inp, false), m.encode(&flat, false));
    }

    #[test]
    fn int8_tracks_f32_closely() {
        let cfg = ModelConfig::tiny(300);
        let mut m = RowStudent::new(&cfg);
        let inp = input_sample();
        let f = m.encode(&inp, false);
        m.set_precision(QuantSpec::Int8);
        let q = m.encode(&inp, false);
        let (mut dot, mut nf, mut nq) = (0.0f64, 0.0f64, 0.0f64);
        for (a, b) in f.data().iter().zip(q.data()) {
            dot += (*a as f64) * (*b as f64);
            nf += (*a as f64) * (*a as f64);
            nq += (*b as f64) * (*b as f64);
        }
        let cos = dot / (nf.sqrt() * nq.sqrt());
        assert!(cos > 0.99, "int8 states diverged from f32: cosine {cos}");
    }

    #[test]
    fn int8_is_deterministic_and_lanes_agree() {
        let cfg = ModelConfig::tiny(300);
        let mut m = RowStudent::new(&cfg);
        m.set_precision(QuantSpec::Int8);
        let inp = input_sample();
        // Within a lane the whole encode is bit-identical across repeats:
        // the quantized matmuls are integer-exact and everything else is
        // deterministic f32.
        let fast = m.encode(&inp, false);
        assert_eq!(bits(&fast), bits(&m.encode(&inp, false)));
        let slow = simd::force_scalar(|| m.encode(&inp, false));
        let slow2 = simd::force_scalar(|| m.encode(&inp, false));
        assert_eq!(bits(&slow), bits(&slow2), "scalar lane must repeat exactly");
        // Across lanes only the f32 LayerNorm reductions reassociate
        // (same tolerance class as every other f32 kernel); the int8
        // matmuls themselves are lane-exact, pinned in `ntr_tensor::quant`.
        for (f, s) in fast.data().iter().zip(slow.data()) {
            assert!(
                (f - s).abs() <= 1e-4,
                "lanes disagree beyond LayerNorm rounding: {f} vs {s}"
            );
        }
    }

    #[test]
    fn parameter_mutation_invalidates_the_quant_snapshot() {
        let cfg = ModelConfig::tiny(300);
        let mut m = RowStudent::new(&cfg);
        m.set_precision(QuantSpec::Int8);
        let inp = input_sample();
        let before = m.encode(&inp, false);
        m.visit_params(&mut |name, p| {
            if name.to_string() == "proj1/w" {
                p.value.map_mut(|v| v * 2.0);
            }
        });
        assert_ne!(
            bits(&before),
            bits(&m.encode(&inp, false)),
            "stale int8 snapshot survived a weight change"
        );
    }

    #[test]
    fn gradients_flow_to_every_parameter_group() {
        let cfg = ModelConfig::tiny(300);
        let mut m = RowStudent::new(&cfg);
        let mut cx = Cx::new(&mut m);
        let inp = input_sample();
        let (states, tape) = m.encode_train(&inp, Rows::All, &mut cx);
        m.backward(tape, &Tensor::ones(states.shape()), &mut cx);
        let mut nonzero = std::collections::BTreeSet::new();
        m.visit_params(&mut |name, p| {
            if cx.grads.of(p).iter().any(|&g| g != 0.0) {
                nonzero.insert(name.to_string().split('/').next().unwrap().to_string());
            }
        });
        for group in ["embeddings", "proj1", "proj2", "ln"] {
            assert!(nonzero.contains(group), "no gradient reached {group}");
        }
    }

    #[test]
    fn checkpoint_roundtrip_rederives_identical_scales() {
        let cfg = ModelConfig::tiny(120);
        let mut a = RowStudent::new(&cfg);
        let mut buf = Vec::new();
        ntr_nn::serialize::save_to(&mut a, &mut buf).unwrap();
        let mut b = RowStudent::new(&ModelConfig { seed: 999, ..cfg });
        ntr_nn::serialize::load_from(&mut b, &mut buf.as_slice()).unwrap();
        // Derived int8 snapshots (weights *and* scales) are bit-identical…
        assert_eq!(a.quantized_mlp(), b.quantized_mlp());
        // …and so are both precisions' encodes.
        let inp = input_sample();
        assert_eq!(a.encode(&inp, false), b.encode(&inp, false));
        a.set_precision(QuantSpec::Int8);
        b.set_precision(QuantSpec::Int8);
        assert_eq!(bits(&a.encode(&inp, false)), bits(&b.encode(&inp, false)));
    }
}
