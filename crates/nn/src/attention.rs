//! Multi-head scaled-dot-product attention with pluggable additive masks.
//!
//! The mask abstraction is the hook every table-aware architecture in the
//! survey uses:
//!
//! * **TURL** expresses its *visibility matrix* as a shared additive mask
//!   (`0` where attending is allowed, `−inf` where not);
//! * **MATE** gives *each head* its own row- or column-restricted mask;
//! * **TAPEX**'s decoder uses a causal mask;
//! * padding is an everything-may-not-attend-here mask.
//!
//! All of these are [`AttnMask`] values; the attention core is shared and its
//! backward pass is verified once by finite differences.

use crate::encoder::Rows;
use crate::init::SeededInit;
use crate::linear::Linear;
use crate::{visit_child, Layer, Name, Param};
use ntr_tensor::{grain, par, Tensor};
use std::borrow::Cow;

const NO_CACHE: &str = "attention backward called without a cached forward";

/// Thread count for fanning `n_heads` heads of `work` flops each across the
/// pool, decided by the grain cost model on the total score work. Heads
/// write disjoint column slices and each head's math is identical to the
/// sequential version, so results don't depend on this choice.
fn head_threads(n_heads: usize, work: usize) -> usize {
    grain::threads_for_units(grain::Work::Madds(work.saturating_mul(n_heads)), n_heads, 1)
}

/// Additive attention mask(s), broadcast over heads or specified per head.
///
/// Masks contain `0.0` for allowed pairs and `f32::NEG_INFINITY` (or any
/// large negative value) for disallowed pairs; they are added to the raw
/// attention scores before the softmax.
#[derive(Debug, Clone)]
pub enum AttnMask {
    /// One `[n_q, n_k]` mask shared by every head.
    Shared(Tensor),
    /// One `[n_q, n_k]` mask per head (length must equal `n_heads`).
    PerHead(Vec<Tensor>),
}

impl AttnMask {
    /// A causal (lower-triangular) mask for autoregressive decoding.
    pub fn causal(n: usize) -> Self {
        let mut m = Tensor::zeros(&[n, n]);
        for i in 0..n {
            for j in i + 1..n {
                m.set(&[i, j], f32::NEG_INFINITY);
            }
        }
        AttnMask::Shared(m)
    }

    /// A mask that hides key positions `>= valid_len` from every query —
    /// the padding mask.
    pub fn padding(n_q: usize, n_k: usize, valid_len: usize) -> Self {
        let mut m = Tensor::zeros(&[n_q, n_k]);
        for i in 0..n_q {
            for j in valid_len..n_k {
                m.set(&[i, j], f32::NEG_INFINITY);
            }
        }
        AttnMask::Shared(m)
    }

    /// Every head's mask cut to the query rows `rows` of a pass that
    /// queries only those, borrowed when that is every row.
    pub(crate) fn cut(&self, rows: Rows) -> Cow<'_, AttnMask> {
        if rows == Rows::All {
            return Cow::Borrowed(self);
        }
        let cut = |m: &Tensor| rows.of(m).into_owned();
        Cow::Owned(match self {
            AttnMask::Shared(m) => AttnMask::Shared(cut(m)),
            AttnMask::PerHead(ms) => AttnMask::PerHead(ms.iter().map(cut).collect()),
        })
    }

    fn for_head(&self, h: usize) -> &Tensor {
        match self {
            AttnMask::Shared(m) => m,
            AttnMask::PerHead(ms) => &ms[h],
        }
    }

    fn check(&self, n_heads: usize, n_q: usize, n_k: usize) {
        let check_one = |m: &Tensor| {
            assert_eq!(
                m.shape(),
                &[n_q, n_k],
                "attention mask shape {:?} does not match scores [{n_q}, {n_k}]",
                m.shape()
            );
        };
        match self {
            AttnMask::Shared(m) => check_one(m),
            AttnMask::PerHead(ms) => {
                assert_eq!(ms.len(), n_heads, "PerHead mask count != n_heads");
                ms.iter().for_each(check_one);
            }
        }
    }
}

/// Multi-head attention: Q/K/V/O projections plus the softmax core.
///
/// Supports self-attention ([`MultiHeadAttention::forward_self`]) and
/// cross-attention ([`MultiHeadAttention::forward_cross`]) for training, and
/// the cache-free [`MultiHeadAttention::infer`] for inference. The per-head
/// attention distributions — the inspection hook used by the paper's
/// hands-on §3.3 ("visualize the attention weights") — are computed on
/// request by [`MultiHeadAttention::attention_probs`], never kept.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    d_head: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Vec<Tensor>,
    self_attn: bool,
    /// The query rows of a self-attention pass, `None` for every row.
    rows: Option<Vec<usize>>,
}

impl MultiHeadAttention {
    /// New attention block with `n_heads` heads over `d_model` features.
    ///
    /// # Panics
    /// Panics unless `n_heads` divides `d_model`.
    pub fn new(d_model: usize, n_heads: usize, init: &mut SeededInit) -> Self {
        assert!(
            d_model.is_multiple_of(n_heads),
            "d_model {d_model} must be divisible by n_heads {n_heads}"
        );
        Self {
            wq: Linear::new(d_model, d_model, &mut init.fork()),
            wk: Linear::new(d_model, d_model, &mut init.fork()),
            wv: Linear::new(d_model, d_model, &mut init.fork()),
            wo: Linear::new(d_model, d_model, &mut init.fork()),
            n_heads,
            d_head: d_model / n_heads,
            cache: None,
        }
    }

    /// Number of heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.n_heads * self.d_head
    }

    /// Self-attention over `x: [n, d]`, recording what
    /// [`MultiHeadAttention::backward_self`] needs.
    pub fn forward_self(&mut self, x: &Tensor, mask: Option<&AttnMask>) -> Tensor {
        self.forward_queries(x, Rows::All, mask)
    }

    /// Self-attention over `x: [n, d]` for the query rows `rows` alone, as
    /// [`MultiHeadAttention::infer`] computes it, recording what
    /// [`MultiHeadAttention::backward_self`] needs; that returns `[n, d]`.
    pub fn forward_queries(&mut self, x: &Tensor, rows: Rows, mask: Option<&AttnMask>) -> Tensor {
        let mask = mask.map(|m| m.cut(rows));
        self.forward(&rows.of(x), x, mask.as_deref(), Some(rows))
    }

    /// Cross-attention: queries from `xq: [n_q, d]`, keys/values from
    /// `xkv: [n_k, d]`. Input gradients are returned separately by
    /// [`MultiHeadAttention::backward_cross`].
    pub fn forward_cross(&mut self, xq: &Tensor, xkv: &Tensor, mask: Option<&AttnMask>) -> Tensor {
        self.forward(xq, xkv, mask, None)
    }

    /// Self-attention over `x: [n, d]` for inference, answered for the
    /// query rows `rows`: keys and values span all of `x`, and `mask`
    /// covers every row. Every kernel computes a row from that row alone,
    /// so each output row is bit for bit that row of the [`Rows::All`]
    /// pass, which is [`MultiHeadAttention::forward_self`] minus its
    /// records — so any number of threads may run it on one shared block.
    pub fn infer(&self, x: &Tensor, rows: Rows, mask: Option<&AttnMask>) -> Tensor {
        let (xq, mask) = (rows.of(x), mask.map(|m| m.cut(rows)));
        let mask = mask.as_deref();
        self.check(&xq, x, mask);
        let q = self.wq.forward_inference(&xq);
        let k = self.wk.forward_inference(x);
        let v = self.wv.forward_inference(x);
        self.wo
            .forward_inference(&self.attend((&q, &k, &v), mask, false).1)
    }

    /// The per-head attention distributions of self-attention over `x`,
    /// each `[n, n]` with rows summing to one — computed for this call and
    /// returned, nothing is kept.
    pub fn attention_probs(&self, x: &Tensor, mask: Option<&AttnMask>) -> Vec<Tensor> {
        self.check(x, x, mask);
        let q = self.wq.forward_inference(x);
        let kt = self.wk.forward_inference(x).transpose();
        par::map_tasks(self.n_heads, self.head_threads(&q, &kt), |h| {
            self.head_probs(&q, &kt, h, mask)
        })
    }

    fn check(&self, xq: &Tensor, xkv: &Tensor, mask: Option<&AttnMask>) {
        let d = self.d_model();
        assert_eq!(
            xq.dim(1),
            d,
            "query input width {} != d_model {d}",
            xq.dim(1)
        );
        assert_eq!(
            xkv.dim(1),
            d,
            "key/value input width {} != d_model {d}",
            xkv.dim(1)
        );
        if let Some(m) = mask {
            m.check(self.n_heads, xq.dim(0), xkv.dim(0));
        }
    }

    fn head_threads(&self, q: &Tensor, kt: &Tensor) -> usize {
        head_threads(self.n_heads, q.dim(0) * kt.dim(1) * self.d_head)
    }

    /// Head `h`'s attention probabilities for the query rows `q`, with the
    /// keys transposed once per layer into `kt: [d_model, n_k]`: head `h`
    /// reads its columns of `q` and its rows of `kt` where they lie. Scores
    /// become probabilities in place: scale, mask and softmax are one pass
    /// over each row of the `Q·Kᵀ` output.
    fn head_probs(&self, q: &Tensor, kt: &Tensor, h: usize, mask: Option<&AttnMask>) -> Tensor {
        let (s, e) = (h * self.d_head, (h + 1) * self.d_head);
        let scale = 1.0 / (self.d_head as f32).sqrt();
        let mut p = q.view().col_slice(s, e).matmul(kt.view().row_slice(s, e));
        p.scale_mask_softmax_rows(scale, mask.map(|m| m.for_head(h)));
        p
    }

    /// The heads' outputs `P·V_h`, each written once into its columns of
    /// one `[n_q, d_model]` tensor, and every head's probabilities when
    /// `keep` (else none: inference frees each head's as it goes).
    fn attend(
        &self,
        (q, k, v): (&Tensor, &Tensor, &Tensor),
        mask: Option<&AttnMask>,
        keep: bool,
    ) -> (Vec<Tensor>, Tensor) {
        let kt = k.transpose();
        let dh = self.d_head;
        let heads = par::map_tasks(self.n_heads, self.head_threads(q, &kt), |h| {
            let p = self.head_probs(q, &kt, h, mask);
            let oh = p.view().matmul(v.view().col_slice(h * dh, (h + 1) * dh));
            (keep.then_some(p), oh)
        });
        let mut out = Tensor::zeros(&[q.dim(0), self.d_model()]);
        let probs = (heads.into_iter().enumerate())
            .filter_map(|(h, (p, oh))| {
                out.set_cols(h * dh, &oh);
                p
            })
            .collect();
        (probs, out)
    }

    /// The training forward; `self_rows` is the query rows of
    /// self-attention, `None` for cross-attention.
    fn forward(
        &mut self,
        xq: &Tensor,
        xkv: &Tensor,
        mask: Option<&AttnMask>,
        self_rows: Option<Rows>,
    ) -> Tensor {
        self.check(xq, xkv, mask);
        let q = self.wq.forward(xq);
        let k = self.wk.forward(xkv);
        let v = self.wv.forward(xkv);

        let (probs, concat) = self.attend((&q, &k, &v), mask, true);
        self.cache = Some(Cache {
            q,
            k,
            v,
            probs,
            self_attn: self_rows.is_some(),
            rows: self_rows.and_then(Rows::record),
        });
        self.wo.forward(&concat)
    }

    /// `g`, a gradient of the query rows of the recorded self-attention
    /// forward, as the gradient of every input row: `+0` on the rows it
    /// did not query.
    pub(crate) fn scatter_queries(&self, g: Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect(NO_CACHE);
        Rows::from(cache.rows.as_deref()).scatter(g, cache.k.dim(0))
    }

    /// Backward for self-attention; returns `d loss / d x`, `[n, d]`. After
    /// [`MultiHeadAttention::forward_queries`] a row outside the query
    /// rows gets its key/value gradient alone (`+0` plus it).
    ///
    /// # Panics
    /// Panics if the preceding forward was cross-attention (use
    /// [`MultiHeadAttention::backward_cross`]) or missing.
    pub fn backward_self(&mut self, dy: &Tensor) -> Tensor {
        let (dxq, dxkv) = self.backward_inner(dy, true);
        dxq.add(&dxkv)
    }

    /// Backward for cross-attention; returns `(d/d xq, d/d xkv)`.
    pub fn backward_cross(&mut self, dy: &Tensor) -> (Tensor, Tensor) {
        self.backward_inner(dy, false)
    }

    fn backward_inner(&mut self, dy: &Tensor, expect_self: bool) -> (Tensor, Tensor) {
        let cache = self.cache.take().expect(NO_CACHE);
        assert_eq!(
            cache.self_attn, expect_self,
            "attention backward variant does not match the forward variant"
        );
        let d = self.d_model();
        let n_q = cache.q.dim(0);
        let n_k = cache.k.dim(0);
        let scale = 1.0 / (self.d_head as f32).sqrt();

        let dconcat = self.wo.backward(dy);
        let vt = cache.v.transpose();
        let dh = self.d_head;
        let threads = head_threads(self.n_heads, n_q * n_k * dh);
        let heads = par::map_tasks(self.n_heads, threads, |h| {
            let (s, e) = (h * dh, (h + 1) * dh);
            let doh = dconcat.view().col_slice(s, e);
            let p = &cache.probs[h];

            // dP = dO·Vᵀ ; dV = Pᵀ·dO
            let dp = doh.matmul(vt.view().row_slice(s, e));
            let dvh = p.view().t().matmul(doh);

            // Softmax Jacobian row-wise: dS_ij = P_ij (dP_ij − Σ_k dP_ik P_ik)
            let mut ds = Tensor::zeros(&[n_q, n_k]);
            for r in 0..n_q {
                let prow = p.row(r);
                let dprow = dp.row(r);
                let dot: f32 = prow.iter().zip(dprow).map(|(&a, &b)| a * b).sum();
                let dsrow = ds.row_mut(r);
                for j in 0..n_k {
                    dsrow[j] = prow[j] * (dprow[j] - dot);
                }
            }

            let mut dqh = ds.view().matmul(cache.k.view().col_slice(s, e));
            let mut dkh = ds.view().t().matmul(cache.q.view().col_slice(s, e));
            dqh.map_mut(|x| x * scale);
            dkh.map_mut(|x| x * scale);
            (dqh, dkh, dvh)
        });
        let mut dq = Tensor::zeros(&[n_q, d]);
        let mut dk = Tensor::zeros(&[n_k, d]);
        let mut dv = Tensor::zeros(&[n_k, d]);
        for (h, (dqh, dkh, dvh)) in heads.into_iter().enumerate() {
            dq.set_cols(h * dh, &dqh);
            dk.set_cols(h * dh, &dkh);
            dv.set_cols(h * dh, &dvh);
        }

        let dxq = Rows::from(cache.rows.as_deref()).scatter(self.wq.backward(&dq), n_k);
        let dxk = self.wk.backward(&dk);
        let dxv = self.wv.backward(&dv);
        (dxq, dxk.add(&dxv))
    }
}

impl Layer for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
        self.wq.visit_params(&mut visit_child("wq", f));
        self.wk.visit_params(&mut visit_child("wk", f));
        self.wv.visit_params(&mut visit_child("wv", f));
        self.wo.visit_params(&mut visit_child("wo", f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, numeric_grad};

    fn mha(d: usize, h: usize, seed: u64) -> MultiHeadAttention {
        MultiHeadAttention::new(d, h, &mut SeededInit::new(seed))
    }

    #[test]
    fn forward_shapes_and_prob_rows_sum_to_one() {
        let a = mha(8, 2, 1);
        let x = SeededInit::new(2).uniform(&[5, 8], -1.0, 1.0);
        assert_eq!(a.infer(&x, Rows::All, None).shape(), &[5, 8]);
        let probs = a.attention_probs(&x, None);
        assert_eq!(probs.len(), 2);
        for p in &probs {
            assert_eq!(p.shape(), &[5, 5]);
            for r in 0..5 {
                let s: f32 = p.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    /// The inference path is the training forward minus its records: same
    /// bits, with and without a mask, and it leaves no cache behind.
    #[test]
    fn infer_is_bit_identical_to_forward_and_records_nothing() {
        let mut a = mha(8, 2, 20);
        let x = SeededInit::new(21).uniform(&[6, 8], -1.0, 1.0);
        for mask in [None, Some(AttnMask::causal(6))] {
            let inferred = a.infer(&x, Rows::All, mask.as_ref());
            assert!(a.cache.is_none(), "infer must not record a cache");
            assert_eq!(inferred, a.forward_self(&x, mask.as_ref()));
            let cached = &a.cache.as_ref().expect("forward records").probs;
            assert_eq!(cached, &a.attention_probs(&x, mask.as_ref()));
            a.cache = None;
        }
    }

    /// Querying some rows gives those rows of the full pass, bit for bit,
    /// with shared and per-head masks cut to the same rows.
    #[test]
    fn some_query_rows_reproduce_the_full_pass() {
        let a = mha(8, 2, 22);
        let x = SeededInit::new(23).uniform(&[7, 8], -1.0, 1.0);
        let mut m0 = Tensor::zeros(&[7, 7]);
        m0.set(&[0, 6], f32::NEG_INFINITY);
        m0.set(&[1, 2], f32::NEG_INFINITY);
        let per_head = AttnMask::PerHead(vec![m0, AttnMask::padding(7, 7, 5).for_head(0).clone()]);
        for mask in [None, Some(AttnMask::causal(7)), Some(per_head)] {
            let full = a.infer(&x, Rows::All, mask.as_ref());
            for rows in [&[0][..], &[0, 1, 2], &[1, 4, 6], &[0, 1, 2, 3, 4, 5, 6]] {
                let part = a.infer(&x, Rows::Only(rows), mask.as_ref());
                assert_eq!(part, full.gather_rows(rows), "query rows {rows:?}");
            }
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        let a = mha(8, 2, 3);
        let x = SeededInit::new(4).uniform(&[4, 8], -1.0, 1.0);
        let mask = AttnMask::causal(4);
        for p in a.attention_probs(&x, Some(&mask)) {
            for i in 0..4 {
                for j in i + 1..4 {
                    assert!(p.at(&[i, j]).abs() < 1e-7, "future leak at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn padding_mask_zeroes_padded_keys() {
        let a = mha(8, 2, 5);
        let x = SeededInit::new(6).uniform(&[4, 8], -1.0, 1.0);
        let mask = AttnMask::padding(4, 4, 2);
        for p in a.attention_probs(&x, Some(&mask)) {
            for i in 0..4 {
                assert!(p.at(&[i, 2]) < 1e-7 && p.at(&[i, 3]) < 1e-7);
            }
        }
    }

    #[test]
    fn per_head_masks_differ_per_head() {
        let a = mha(8, 2, 7);
        let x = SeededInit::new(8).uniform(&[3, 8], -1.0, 1.0);
        let mut m0 = Tensor::zeros(&[3, 3]);
        m0.set(&[0, 2], f32::NEG_INFINITY);
        let m1 = Tensor::zeros(&[3, 3]);
        let probs = a.attention_probs(&x, Some(&AttnMask::PerHead(vec![m0, m1])));
        assert!(probs[0].at(&[0, 2]) < 1e-7);
        assert!(probs[1].at(&[0, 2]) > 1e-7);
    }

    /// Full finite-difference check of self-attention input gradients,
    /// through all four projections and the softmax.
    #[test]
    fn gradcheck_self_attention_input() {
        let mut a = mha(6, 2, 9);
        let x = SeededInit::new(10).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(11).uniform(&[3, 6], -1.0, 1.0);

        let _ = a.forward_self(&x, None);
        let dx = a.backward_self(&dy);

        let mut probe = a.clone();
        let dyc = dy.clone();
        let num = numeric_grad(&x, 5e-3, |x| probe.forward_self(x, None).mul(&dyc).sum());
        assert_close(&dx, &num, 3e-2, "mha dx");
    }

    #[test]
    fn gradcheck_projection_weights() {
        let mut a = mha(6, 2, 12);
        let x = SeededInit::new(13).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(14).uniform(&[3, 6], -1.0, 1.0);
        let _ = a.forward_self(&x, None);
        let _ = a.backward_self(&dy);

        let wq = a.wq.w.value.clone();
        let mut probe = a.clone();
        let xc = x.clone();
        let dyc = dy.clone();
        let num = numeric_grad(&wq, 5e-3, |w| {
            probe.wq.w.value = w.clone();
            probe.forward_self(&xc, None).mul(&dyc).sum()
        });
        assert_close(&a.wq.w.grad, &num, 3e-2, "mha dwq");
    }

    #[test]
    fn gradcheck_cross_attention_both_inputs() {
        let mut a = mha(6, 2, 15);
        let xq = SeededInit::new(16).uniform(&[2, 6], -0.5, 0.5);
        let xkv = SeededInit::new(17).uniform(&[4, 6], -0.5, 0.5);
        let dy = SeededInit::new(18).uniform(&[2, 6], -1.0, 1.0);
        let _ = a.forward_cross(&xq, &xkv, None);
        let (dxq, dxkv) = a.backward_cross(&dy);

        let mut probe = a.clone();
        let (xkvc, dyc) = (xkv.clone(), dy.clone());
        let num_q = numeric_grad(&xq, 5e-3, |q| {
            probe.forward_cross(q, &xkvc, None).mul(&dyc).sum()
        });
        assert_close(&dxq, &num_q, 3e-2, "cross dxq");

        let mut probe = a.clone();
        let (xqc, dyc) = (xq.clone(), dy.clone());
        let num_kv = numeric_grad(&xkv, 5e-3, |kv| {
            probe.forward_cross(&xqc, kv, None).mul(&dyc).sum()
        });
        assert_close(&dxkv, &num_kv, 3e-2, "cross dxkv");
    }

    /// Head `h`'s columns of `x`, copied out.
    fn head_copy(x: &Tensor, h: usize, dh: usize) -> Tensor {
        x.view().col_slice(h * dh, (h + 1) * dh).to_tensor()
    }

    /// The copying reference of [`MultiHeadAttention::attend`]: every head's
    /// columns copied out, `Kᵀ` packed per head, outputs concatenated.
    fn reference_attend(
        a: &MultiHeadAttention,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        mask: Option<&AttnMask>,
    ) -> (Vec<Tensor>, Tensor) {
        let dh = a.d_head;
        let scale = 1.0 / (dh as f32).sqrt();
        let (mut probs, mut outs) = (Vec::new(), Vec::new());
        for h in 0..a.n_heads {
            let kh = head_copy(k, h, dh).transpose();
            let mut p = head_copy(q, h, dh).matmul(&kh);
            p.scale_mask_softmax_rows(scale, mask.map(|m| m.for_head(h)));
            outs.push(p.matmul(&head_copy(v, h, dh)));
            probs.push(p);
        }
        (probs, Tensor::hstack(&outs.iter().collect::<Vec<_>>()))
    }

    fn reference_infer(
        a: &MultiHeadAttention,
        xq: &Tensor,
        x: &Tensor,
        mask: Option<&AttnMask>,
    ) -> Tensor {
        let q = a.wq.forward_inference(xq);
        let (k, v) = (a.wk.forward_inference(x), a.wv.forward_inference(x));
        a.wo.forward_inference(&reference_attend(a, &q, &k, &v, mask).1)
    }

    /// The copying reference of `backward_inner`, on the cache of the
    /// forward that `a` recorded: head columns copied out, every
    /// transposed operand an explicit transpose.
    fn reference_backward(a: &mut MultiHeadAttention, dy: &Tensor) -> (Tensor, Tensor) {
        let cache = a.cache.take().expect("a recorded forward");
        let (dh, d) = (a.d_head, a.d_model());
        let (n_q, n_k) = (cache.q.dim(0), cache.k.dim(0));
        let scale = 1.0 / (dh as f32).sqrt();
        let dconcat = a.wo.backward(dy);
        let (mut dqs, mut dks, mut dvs) = (Vec::new(), Vec::new(), Vec::new());
        for h in 0..a.n_heads {
            let doh = head_copy(&dconcat, h, dh);
            let p = &cache.probs[h];
            let dp = doh.matmul(&head_copy(&cache.v, h, dh).transpose());
            dvs.push(p.transpose().matmul(&doh));
            let mut ds = Tensor::zeros(&[n_q, n_k]);
            for r in 0..n_q {
                let (prow, dprow) = (p.row(r), dp.row(r));
                let dot: f32 = prow.iter().zip(dprow).map(|(&a, &b)| a * b).sum();
                for j in 0..n_k {
                    ds.row_mut(r)[j] = prow[j] * (dprow[j] - dot);
                }
            }
            dqs.push(ds.matmul(&head_copy(&cache.k, h, dh)).scale(scale));
            dks.push(
                ds.transpose()
                    .matmul(&head_copy(&cache.q, h, dh))
                    .scale(scale),
            );
        }
        let cat = |parts: &Vec<Tensor>| Tensor::hstack(&parts.iter().collect::<Vec<_>>());
        let (dq, dk, dv) = (cat(&dqs), cat(&dks), cat(&dvs));
        assert_eq!((dq.dim(1), dk.dim(1)), (d, d));
        let dxq = Rows::from(cache.rows.as_deref()).scatter(a.wq.backward(&dq), n_k);
        (dxq, a.wk.backward(&dk).add(&a.wv.backward(&dv)))
    }

    fn grads(a: &mut MultiHeadAttention) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        a.visit_params(&mut |_, p| out.push(p.grad.data().iter().map(|g| g.to_bits()).collect()));
        out
    }

    /// `n_q × n_k` masks: none, causal-shaped (key `j` hidden past query
    /// `i + n_k - n_q`) and per head (a scatter of hidden keys, never a
    /// whole row).
    fn masks(n_heads: usize, n_q: usize, n_k: usize) -> Vec<Option<AttnMask>> {
        let causal = Tensor::from_fn(&[n_q, n_k], |i| {
            let (r, c) = (i / n_k, i % n_k);
            if c > r + n_k - n_q {
                f32::NEG_INFINITY
            } else {
                0.0
            }
        });
        let per_head = (0..n_heads)
            .map(|h| {
                Tensor::from_fn(&[n_q, n_k], |i| {
                    let hidden = i % n_k != 0 && (i * 7 + h * 3) % 5 == 0;
                    if hidden {
                        f32::NEG_INFINITY
                    } else {
                        0.0
                    }
                })
            })
            .collect();
        vec![
            None,
            Some(AttnMask::Shared(causal)),
            Some(AttnMask::PerHead(per_head)),
        ]
    }

    /// Heads read by stride give the bits of heads copied out, on both
    /// lanes at 1, 2 and 4 threads: `infer`, `forward_queries` over all
    /// rows and some, and both backward variants with all four
    /// projections' gradients.
    #[test]
    fn heads_by_stride_match_a_copying_reference() {
        use ntr_tensor::{par, simd};
        let check = || {
            for (d, heads) in [(24, 3), (20, 2)] {
                let (n, n_q) = (9, 5);
                let x = SeededInit::new(30).uniform(&[n, d], -1.0, 1.0);
                let xq = SeededInit::new(31).uniform(&[n_q, d], -1.0, 1.0);
                let dy = SeededInit::new(32).uniform(&[n, d], -1.0, 1.0);
                for mask in masks(heads, n, n) {
                    let mut a = mha(d, heads, 33);
                    let m = mask.as_ref();
                    assert_eq!(a.infer(&x, Rows::All, m), reference_infer(&a, &x, &x, m));
                    for rows in [Rows::All, Rows::Only(&[0, 3, 4, 8])] {
                        let cut = m.map(|m| m.cut(rows));
                        let out = a.forward_queries(&x, rows, m);
                        assert_eq!(out, reference_infer(&a, &rows.of(&x), &x, cut.as_deref()));
                        let dy = rows.of(&dy).into_owned();
                        let mut b = a.clone();
                        let dx = a.backward_self(&dy);
                        let (dxq, dxkv) = reference_backward(&mut b, &dy);
                        assert_eq!(dx, dxq.add(&dxkv));
                        assert_eq!(grads(&mut a), grads(&mut b));
                    }
                }
                for mask in masks(heads, n_q, n) {
                    let mut a = mha(d, heads, 34);
                    let m = mask.as_ref();
                    assert_eq!(a.forward_cross(&xq, &x, m), reference_infer(&a, &xq, &x, m));
                    let mut b = a.clone();
                    let dy = dy.rows(0, n_q);
                    assert_eq!(a.backward_cross(&dy), reference_backward(&mut b, &dy));
                    assert_eq!(grads(&mut a), grads(&mut b));
                }
            }
        };
        for threads in [1, 2, 4] {
            par::with_threads(threads, check);
            par::with_threads(threads, || simd::force_scalar(check));
        }
    }

    #[test]
    #[should_panic(expected = "does not match the forward variant")]
    fn mismatched_backward_variant_panics() {
        let mut a = mha(4, 1, 19);
        let x = Tensor::ones(&[2, 4]);
        let _ = a.forward_self(&x, None);
        let _ = a.backward_cross(&Tensor::ones(&[2, 4]));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_heads() {
        let _ = mha(7, 2, 0);
    }
}
