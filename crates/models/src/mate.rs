//! MATE-style model: multi-view attention for table transformer
//! *efficiency* — half the heads attend within rows, half within columns.
//!
//! The survey's efficiency exemplar: "Eisenschlos et al. employ sparse
//! attention to efficiently attend to rows and columns" (§2.3). Two
//! implementations share the same math:
//!
//! * **training path** — per-head additive masks over the dense attention
//!   core (exact, differentiable, reuses the verified backward);
//! * **inference kernel** — [`sparse_attention`], which only visits allowed
//!   (query, key) pairs, giving the real `O(N·√N)`-class scaling the E6
//!   experiment measures (dense masked attention would hide it).

use crate::config::ModelConfig;
use crate::embeddings::{EmbeddingFlags, TableEmbeddings};
use crate::heads::MlmHead;
use crate::input::EncoderInput;
use crate::SequenceEncoder;
use ntr_nn::init::SeededInit;
use ntr_nn::{visit_child, AttnMask, Encoder, Layer, Name, Param, Rows};
use ntr_tensor::Tensor;

/// Which structural axis a sparse head attends along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseAxis {
    /// Tokens attend within their row (plus globals).
    Row,
    /// Tokens attend within their column (plus globals).
    Col,
}

/// MATE-style encoder: row heads + column heads.
#[derive(Debug, Clone)]
pub struct Mate {
    /// Structure-aware input embeddings.
    pub embeddings: TableEmbeddings,
    /// Transformer encoder with per-head masks.
    pub encoder: Encoder,
    /// Masked-language-modeling head for pretraining.
    pub mlm: MlmHead,
    head_axes: Vec<SparseAxis>,
    cfg: ModelConfig,
}

impl Mate {
    /// Builds the model; the first half of the heads are row heads, the
    /// rest column heads.
    pub fn new(cfg: &ModelConfig) -> Self {
        cfg.validate();
        let mut init = SeededInit::new(cfg.seed ^ 0x3A7E);
        // Alternate axes so both views exist for any head count (a single
        // head becomes a row head rather than silently dropping the row view).
        let head_axes = (0..cfg.n_heads)
            .map(|h| {
                if h % 2 == 0 {
                    SparseAxis::Row
                } else {
                    SparseAxis::Col
                }
            })
            .collect();
        Self {
            embeddings: TableEmbeddings::new(cfg, EmbeddingFlags::structural(), &mut init),
            encoder: Encoder::new(
                cfg.n_layers,
                cfg.d_model,
                cfg.n_heads,
                cfg.d_ff,
                cfg.dropout,
                &mut init,
            ),
            mlm: MlmHead::new(cfg.d_model, cfg.vocab_size, &mut init.fork()),
            head_axes,
            cfg: *cfg,
        }
    }

    /// The model's config.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Per-head axis assignment.
    pub fn head_axes(&self) -> &[SparseAxis] {
        &self.head_axes
    }

    /// Builds the per-head additive masks for an input.
    pub fn head_masks(&self, input: &EncoderInput) -> AttnMask {
        let masks = self
            .head_axes
            .iter()
            .map(|axis| axis_mask(input, *axis))
            .collect();
        AttnMask::PerHead(masks)
    }
}

fn is_global(input: &EncoderInput, i: usize) -> bool {
    matches!(input.kinds[i], 0 | 1 | 4)
}

fn axis_mask(input: &EncoderInput, axis: SparseAxis) -> Tensor {
    let n = input.len();
    let mut m = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            if i == j || is_global(input, i) || is_global(input, j) {
                continue;
            }
            let same = match axis {
                SparseAxis::Row => input.rows[i] == input.rows[j],
                SparseAxis::Col => input.cols[i] == input.cols[j],
            };
            if !same {
                m.set(&[i, j], f32::NEG_INFINITY);
            }
        }
    }
    m
}

impl SequenceEncoder for Mate {
    fn d_model(&self) -> usize {
        self.cfg.d_model
    }

    fn vocab_size(&self) -> usize {
        self.cfg.vocab_size
    }

    fn infer(&self, input: &EncoderInput, rows: Rows) -> Tensor {
        let mask = self.head_masks(input);
        self.encoder
            .infer(&self.embeddings.infer(input), Some(&mask), rows)
    }

    fn encode_train(&mut self, input: &EncoderInput, rows: Rows) -> Tensor {
        let mask = self.head_masks(input);
        let x = self.embeddings.forward(input, true);
        self.encoder.forward_train(&x, Some(&mask), rows)
    }

    fn backward(&mut self, d_states: &Tensor) {
        let dx = self.encoder.backward(d_states);
        self.embeddings.backward(&dx);
    }

    fn family(&self) -> &'static str {
        "mate"
    }
}

impl Layer for Mate {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.embeddings
            .visit_params(&mut visit_child("embeddings", f));
        self.encoder.visit_params(&mut visit_child("encoder", f));
        self.mlm.visit_params(&mut visit_child("mlm", f));
    }

    fn visit_rng_state(&mut self, f: &mut dyn FnMut(&Name, &mut [u64; 4])) {
        self.embeddings
            .visit_rng_state(&mut visit_child("embeddings", f));
        self.encoder.visit_rng_state(&mut visit_child("encoder", f));
    }
}

// ---------------------------------------------------------------------
// Genuinely sparse attention kernel (inference / efficiency experiments)
// ---------------------------------------------------------------------

/// Precomputed sparsity pattern: for each query, which keys it may attend
/// to. Built from structural metadata along one axis.
#[derive(Debug, Clone)]
pub struct SparsePattern {
    /// For each query index, the sorted allowed key indices.
    pub allowed: Vec<Vec<usize>>,
}

impl SparsePattern {
    /// Builds the pattern for one axis: globals attend everywhere and are
    /// attended by everyone; grid tokens attend within their group.
    pub fn from_input(input: &EncoderInput, axis: SparseAxis) -> Self {
        let n = input.len();
        let globals: Vec<usize> = (0..n).filter(|&i| is_global(input, i)).collect();
        let key_of = |i: usize| match axis {
            SparseAxis::Row => input.rows[i],
            SparseAxis::Col => input.cols[i],
        };
        // Group non-global tokens by axis id.
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..n {
            if !is_global(input, i) {
                groups.entry(key_of(i)).or_default().push(i);
            }
        }
        let all: Vec<usize> = (0..n).collect();
        let allowed = (0..n)
            .map(|i| {
                if is_global(input, i) {
                    all.clone()
                } else {
                    let mut a = globals.clone();
                    a.extend(groups[&key_of(i)].iter().copied());
                    a.sort_unstable();
                    a.dedup();
                    a
                }
            })
            .collect();
        Self { allowed }
    }

    /// Total number of (query, key) pairs visited — the kernel's work.
    pub fn n_pairs(&self) -> usize {
        self.allowed.iter().map(Vec::len).sum()
    }
}

/// Sparse scaled-dot-product attention for one head: only allowed pairs are
/// visited. `q, k, v` are `[n, d_head]`; returns `[n, d_head]`.
///
/// Numerically identical (up to f32 rounding) to dense attention with the
/// corresponding `-inf` mask.
pub fn sparse_attention(q: &Tensor, k: &Tensor, v: &Tensor, pattern: &SparsePattern) -> Tensor {
    let n = q.dim(0);
    let d = q.dim(1);
    assert_eq!(k.shape(), q.shape(), "sparse_attention q/k shape mismatch");
    assert_eq!(v.shape(), q.shape(), "sparse_attention q/v shape mismatch");
    assert_eq!(pattern.allowed.len(), n, "pattern length mismatch");
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = Tensor::zeros(&[n, d]);
    let mut scores: Vec<f32> = Vec::new();
    for i in 0..n {
        let keys = &pattern.allowed[i];
        scores.clear();
        scores.reserve(keys.len());
        let qi = q.row(i);
        let mut max = f32::NEG_INFINITY;
        for &j in keys {
            let s = dot(qi, k.row(j)) * scale;
            scores.push(s);
            max = max.max(s);
        }
        let mut sum = 0.0;
        for s in scores.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        let orow = out.row_mut(i);
        for (idx, &j) in keys.iter().enumerate() {
            let w = scores[idx] / sum;
            for (o, &vv) in orow.iter_mut().zip(v.row(j)) {
                *o += w * vv;
            }
        }
    }
    out
}

/// Multiply–add count for one sparse head over the pattern: each visited
/// pair costs a `d`-dot for the score and a `d`-AXPY for the value mix.
pub fn sparse_attention_flops(pattern: &SparsePattern, d_head: usize) -> usize {
    pattern.n_pairs() * d_head * 4
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::input_sample;
    use ntr_tensor::allclose;

    #[test]
    fn row_and_col_heads_have_different_masks() {
        let cfg = ModelConfig::tiny(300);
        let m = Mate::new(&cfg);
        let inp = input_sample();
        let AttnMask::PerHead(masks) = m.head_masks(&inp) else {
            panic!("expected per-head masks")
        };
        assert_eq!(masks.len(), cfg.n_heads);
        assert_ne!(masks[0], masks[cfg.n_heads - 1]);
    }

    #[test]
    fn encode_differs_from_dense_tapas_semantics() {
        let cfg = ModelConfig::tiny(300);
        let mut m = Mate::new(&cfg);
        let inp = input_sample();
        let out = m.encode(&inp, false);
        assert_eq!(out.shape(), &[inp.len(), cfg.d_model]);
    }

    #[test]
    fn sparse_kernel_matches_masked_dense() {
        let inp = input_sample();
        let n = inp.len();
        let d = 8;
        let mut init = SeededInit::new(11);
        let q = init.uniform(&[n, d], -1.0, 1.0);
        let k = init.uniform(&[n, d], -1.0, 1.0);
        let v = init.uniform(&[n, d], -1.0, 1.0);
        for axis in [SparseAxis::Row, SparseAxis::Col] {
            let pattern = SparsePattern::from_input(&inp, axis);
            let sparse = sparse_attention(&q, &k, &v, &pattern);

            // Dense reference with the additive mask.
            let mask = axis_mask(&inp, axis);
            let scale = 1.0 / (d as f32).sqrt();
            let dense = q
                .matmul_nt(&k)
                .scale(scale)
                .add(&mask)
                .softmax_rows()
                .matmul(&v);
            assert!(
                allclose(sparse.data(), dense.data(), 1e-4, 1e-5),
                "{axis:?} kernel diverges from dense reference"
            );
        }
    }

    #[test]
    fn sparsity_reduces_visited_pairs() {
        let inp = input_sample();
        let n = inp.len();
        let pattern = SparsePattern::from_input(&inp, SparseAxis::Row);
        assert!(
            pattern.n_pairs() < n * n,
            "pattern should be sparser than dense ({} vs {})",
            pattern.n_pairs(),
            n * n
        );
        assert!(sparse_attention_flops(&pattern, 8) > 0);
    }

    #[test]
    fn globals_attend_everywhere() {
        let inp = input_sample();
        let pattern = SparsePattern::from_input(&inp, SparseAxis::Row);
        // Token 0 is [CLS] (global).
        assert_eq!(pattern.allowed[0].len(), inp.len());
    }
}
