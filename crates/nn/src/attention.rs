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
use crate::{visit_child, Cx, Layer, Name, Param};
use ntr_tensor::{grain, par, Tensor};
use std::borrow::Cow;

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
/// Inference is [`MultiHeadAttention::infer`] (self-attention over chosen
/// query rows) and [`MultiHeadAttention::forward_cross`]; training is
/// [`MultiHeadAttention::forward_train`] and
/// [`MultiHeadAttention::forward_cross_train`], whose tapes the matching
/// backward consumes. The per-head attention distributions — the
/// inspection hook used by the paper's hands-on §3.3 ("visualize the
/// attention weights") — are computed on request by
/// [`MultiHeadAttention::attention_probs`], never kept.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    d_head: usize,
}

/// What an attention backward needs of its training forward.
#[derive(Debug)]
pub struct AttentionTape {
    xq: Tensor,
    xkv: Tensor,
    concat: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Vec<Tensor>,
    self_attn: bool,
    /// The query rows of a self-attention pass, `None` for every row.
    rows: Option<Vec<usize>>,
}

impl AttentionTape {
    /// `g`, a gradient of the query rows of this self-attention forward, as
    /// the gradient of every input row: `+0` on the rows it did not query.
    pub(crate) fn scatter_queries(&self, g: Tensor) -> Tensor {
        Rows::from(self.rows.as_deref()).scatter(g, self.k.dim(0))
    }
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

    /// Self-attention over every row of `x: [n, d]`, for inference:
    /// [`MultiHeadAttention::infer`] over [`Rows::All`].
    pub fn forward_self(&self, x: &Tensor, mask: Option<&AttnMask>) -> Tensor {
        self.infer(x, Rows::All, mask)
    }

    /// Cross-attention for inference: queries from `xq: [n_q, d]`,
    /// keys/values from `xkv: [n_k, d]`.
    pub fn forward_cross(&self, xq: &Tensor, xkv: &Tensor, mask: Option<&AttnMask>) -> Tensor {
        self.check(xq, xkv, mask);
        let q = self.wq.forward(xq);
        let (k, v) = (self.wk.forward(xkv), self.wv.forward(xkv));
        self.wo.forward(&self.attend((&q, &k, &v), mask, false).1)
    }

    /// Training self-attention over `x: [n, d]` for the query rows `rows`
    /// alone, as [`MultiHeadAttention::infer`] computes it, and the tape
    /// [`MultiHeadAttention::backward_self`] needs; that returns `[n, d]`.
    pub fn forward_train(
        &self,
        x: &Tensor,
        rows: Rows,
        mask: Option<&AttnMask>,
    ) -> (Tensor, AttentionTape) {
        let mask = mask.map(|m| m.cut(rows));
        let (y, mut tape) = self.forward_cross_train(rows.of(x).into_owned(), x, mask.as_deref());
        (tape.self_attn, tape.rows) = (true, rows.record());
        (y, tape)
    }

    /// Training cross-attention: queries from `xq: [n_q, d]`, which the
    /// tape keeps, keys/values from `xkv: [n_k, d]`. Input gradients are
    /// returned separately by [`MultiHeadAttention::backward_cross`].
    pub fn forward_cross_train(
        &self,
        xq: Tensor,
        xkv: &Tensor,
        mask: Option<&AttnMask>,
    ) -> (Tensor, AttentionTape) {
        self.check(&xq, xkv, mask);
        let q = self.wq.forward(&xq);
        let k = self.wk.forward(xkv);
        let v = self.wv.forward(xkv);
        let (probs, concat) = self.attend((&q, &k, &v), mask, true);
        let y = self.wo.forward(&concat);
        let tape = AttentionTape {
            xq,
            xkv: xkv.clone(),
            concat,
            q,
            k,
            v,
            probs,
            self_attn: false,
            rows: None,
        };
        (y, tape)
    }

    /// Self-attention over `x: [n, d]` for inference, answered for the
    /// query rows `rows`: keys and values span all of `x`, and `mask`
    /// covers every row. Every kernel computes a row from that row alone,
    /// so each output row is bit for bit that row of the [`Rows::All`]
    /// pass, which is [`MultiHeadAttention::forward_train`] minus its
    /// tape — so any number of threads may run it on one shared block.
    pub fn infer(&self, x: &Tensor, rows: Rows, mask: Option<&AttnMask>) -> Tensor {
        let (xq, mask) = (rows.of(x), mask.map(|m| m.cut(rows)));
        self.forward_cross(&xq, x, mask.as_deref())
    }

    /// The per-head attention distributions of self-attention over `x`,
    /// each `[n, n]` with rows summing to one — computed for this call and
    /// returned, nothing is kept.
    pub fn attention_probs(&self, x: &Tensor, mask: Option<&AttnMask>) -> Vec<Tensor> {
        self.check(x, x, mask);
        let q = self.wq.forward(x);
        let kt = self.wk.forward(x).transpose();
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

    /// Backward for self-attention; returns `d loss / d x`, `[n, d]`. After
    /// a forward of some query rows, a row outside them gets its key/value
    /// gradient alone (`+0` plus it).
    ///
    /// # Panics
    /// Panics if the tape is of cross-attention (use
    /// [`MultiHeadAttention::backward_cross`]).
    pub fn backward_self(&self, tape: AttentionTape, dy: &Tensor, cx: &mut Cx) -> Tensor {
        let (dxq, dxkv) = self.backward_inner(tape, dy, true, cx);
        dxq.add(&dxkv)
    }

    /// Backward for cross-attention; returns `(d/d xq, d/d xkv)`.
    pub fn backward_cross(
        &self,
        tape: AttentionTape,
        dy: &Tensor,
        cx: &mut Cx,
    ) -> (Tensor, Tensor) {
        self.backward_inner(tape, dy, false, cx)
    }

    fn backward_inner(
        &self,
        tape: AttentionTape,
        dy: &Tensor,
        expect_self: bool,
        cx: &mut Cx,
    ) -> (Tensor, Tensor) {
        assert_eq!(
            tape.self_attn, expect_self,
            "attention backward variant does not match the forward variant"
        );
        let d = self.d_model();
        let n_q = tape.q.dim(0);
        let n_k = tape.k.dim(0);
        let scale = 1.0 / (self.d_head as f32).sqrt();

        let dconcat = self.wo.backward(&tape.concat, dy, cx);
        let vt = tape.v.transpose();
        let dh = self.d_head;
        let threads = head_threads(self.n_heads, n_q * n_k * dh);
        let (probs, q, k) = (&tape.probs, &tape.q, &tape.k);
        let heads = par::map_tasks(self.n_heads, threads, |h| {
            let (s, e) = (h * dh, (h + 1) * dh);
            let doh = dconcat.view().col_slice(s, e);
            let p = &probs[h];

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

            let mut dqh = ds.view().matmul(k.view().col_slice(s, e));
            let mut dkh = ds.view().t().matmul(q.view().col_slice(s, e));
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

        let rows = Rows::from(tape.rows.as_deref());
        let dxq = rows.scatter(self.wq.backward(&tape.xq, &dq, cx), n_k);
        let dxk = self.wk.backward(&tape.xkv, &dk, cx);
        let dxv = self.wv.backward(&tape.xkv, &dv, cx);
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
    use crate::gradcheck::{assert_close, grad, numeric_grad};

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

    /// The inference path is the training forward minus its tape: same
    /// bits, with and without a mask.
    #[test]
    fn infer_is_bit_identical_to_the_training_forward() {
        let a = mha(8, 2, 20);
        let x = SeededInit::new(21).uniform(&[6, 8], -1.0, 1.0);
        for mask in [None, Some(AttnMask::causal(6))] {
            let (trained, tape) = a.forward_train(&x, Rows::All, mask.as_ref());
            assert_eq!(a.infer(&x, Rows::All, mask.as_ref()), trained);
            assert_eq!(a.forward_self(&x, mask.as_ref()), trained);
            assert_eq!(tape.probs, a.attention_probs(&x, mask.as_ref()));
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
        let mut cx = Cx::new(&mut a);
        let x = SeededInit::new(10).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(11).uniform(&[3, 6], -1.0, 1.0);

        let (_, tape) = a.forward_train(&x, Rows::All, None);
        let dx = a.backward_self(tape, &dy, &mut cx);

        let num = numeric_grad(&x, 5e-3, |x| a.forward_self(x, None).mul(&dy).sum());
        assert_close(&dx, &num, 3e-2, "mha dx");
    }

    #[test]
    fn gradcheck_projection_weights() {
        let mut a = mha(6, 2, 12);
        let mut cx = Cx::new(&mut a);
        let x = SeededInit::new(13).uniform(&[3, 6], -0.5, 0.5);
        let dy = SeededInit::new(14).uniform(&[3, 6], -1.0, 1.0);
        let (_, tape) = a.forward_train(&x, Rows::All, None);
        let _ = a.backward_self(tape, &dy, &mut cx);

        let mut probe = a.clone();
        let num = numeric_grad(&a.wq.w.value, 5e-3, |w| {
            probe.wq.w.value = w.clone();
            probe.forward_self(&x, None).mul(&dy).sum()
        });
        assert_close(&grad(&cx.grads, &a.wq.w), &num, 3e-2, "mha dwq");
    }

    #[test]
    fn gradcheck_cross_attention_both_inputs() {
        let mut a = mha(6, 2, 15);
        let mut cx = Cx::new(&mut a);
        let xq = SeededInit::new(16).uniform(&[2, 6], -0.5, 0.5);
        let xkv = SeededInit::new(17).uniform(&[4, 6], -0.5, 0.5);
        let dy = SeededInit::new(18).uniform(&[2, 6], -1.0, 1.0);
        let (_, tape) = a.forward_cross_train(xq.clone(), &xkv, None);
        let (dxq, dxkv) = a.backward_cross(tape, &dy, &mut cx);

        let num_q = numeric_grad(&xq, 5e-3, |q| a.forward_cross(q, &xkv, None).mul(&dy).sum());
        assert_close(&dxq, &num_q, 3e-2, "cross dxq");

        let num_kv = numeric_grad(&xkv, 5e-3, |kv| {
            a.forward_cross(&xq, kv, None).mul(&dy).sum()
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
        let q = a.wq.forward(xq);
        let (k, v) = (a.wk.forward(x), a.wv.forward(x));
        a.wo.forward(&reference_attend(a, &q, &k, &v, mask).1)
    }

    /// The copying reference of `backward_inner`, on the tape of a
    /// training forward: head columns copied out, every transposed operand
    /// an explicit transpose.
    fn reference_backward(
        a: &MultiHeadAttention,
        tape: AttentionTape,
        dy: &Tensor,
        cx: &mut Cx,
    ) -> (Tensor, Tensor) {
        let (dh, d) = (a.d_head, a.d_model());
        let (n_q, n_k) = (tape.q.dim(0), tape.k.dim(0));
        let scale = 1.0 / (dh as f32).sqrt();
        let dconcat = a.wo.backward(&tape.concat, dy, cx);
        let (mut dqs, mut dks, mut dvs) = (Vec::new(), Vec::new(), Vec::new());
        for h in 0..a.n_heads {
            let doh = head_copy(&dconcat, h, dh);
            let p = &tape.probs[h];
            let dp = doh.matmul(&head_copy(&tape.v, h, dh).transpose());
            dvs.push(p.transpose().matmul(&doh));
            let mut ds = Tensor::zeros(&[n_q, n_k]);
            for r in 0..n_q {
                let (prow, dprow) = (p.row(r), dp.row(r));
                let dot: f32 = prow.iter().zip(dprow).map(|(&a, &b)| a * b).sum();
                for j in 0..n_k {
                    ds.row_mut(r)[j] = prow[j] * (dprow[j] - dot);
                }
            }
            dqs.push(ds.matmul(&head_copy(&tape.k, h, dh)).scale(scale));
            dks.push(
                ds.transpose()
                    .matmul(&head_copy(&tape.q, h, dh))
                    .scale(scale),
            );
        }
        let cat = |parts: &Vec<Tensor>| Tensor::hstack(&parts.iter().collect::<Vec<_>>());
        let (dq, dk, dv) = (cat(&dqs), cat(&dks), cat(&dvs));
        assert_eq!((dq.dim(1), dk.dim(1)), (d, d));
        let dxq = Rows::from(tape.rows.as_deref()).scatter(a.wq.backward(&tape.xq, &dq, cx), n_k);
        let dxk = a.wk.backward(&tape.xkv, &dk, cx);
        (dxq, dxk.add(&a.wv.backward(&tape.xkv, &dv, cx)))
    }

    fn bits(cx: &Cx) -> Vec<u32> {
        cx.grads.data().iter().map(|g| g.to_bits()).collect()
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
    /// lanes at 1, 2 and 4 threads: `infer`, `forward_train` over all
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
                    let (mut cx, mut cy) = (Cx::new(&mut a), Cx::new(&mut a));
                    let m = mask.as_ref();
                    assert_eq!(a.infer(&x, Rows::All, m), reference_infer(&a, &x, &x, m));
                    for rows in [Rows::All, Rows::Only(&[0, 3, 4, 8])] {
                        let cut = m.map(|m| m.cut(rows));
                        let (out, tape) = a.forward_train(&x, rows, m);
                        assert_eq!(out, reference_infer(&a, &rows.of(&x), &x, cut.as_deref()));
                        let dy = rows.of(&dy).into_owned();
                        let (_, tape_b) = a.forward_train(&x, rows, m);
                        let dx = a.backward_self(tape, &dy, &mut cx);
                        let (dxq, dxkv) = reference_backward(&a, tape_b, &dy, &mut cy);
                        assert_eq!(dx, dxq.add(&dxkv));
                        assert_eq!(bits(&cx), bits(&cy));
                    }
                }
                for mask in masks(heads, n_q, n) {
                    let mut a = mha(d, heads, 34);
                    let (mut cx, mut cy) = (Cx::new(&mut a), Cx::new(&mut a));
                    let m = mask.as_ref();
                    let (out, tape) = a.forward_cross_train(xq.clone(), &x, m);
                    assert_eq!(out, reference_infer(&a, &xq, &x, m));
                    assert_eq!(a.forward_cross(&xq, &x, m), out);
                    let (_, tape_b) = a.forward_cross_train(xq.clone(), &x, m);
                    let dy = dy.rows(0, n_q);
                    assert_eq!(
                        a.backward_cross(tape, &dy, &mut cx),
                        reference_backward(&a, tape_b, &dy, &mut cy)
                    );
                    assert_eq!(bits(&cx), bits(&cy));
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
        let mut cx = Cx::new(&mut a);
        let x = Tensor::ones(&[2, 4]);
        let (_, tape) = a.forward_train(&x, Rows::All, None);
        let _ = a.backward_cross(tape, &Tensor::ones(&[2, 4]), &mut cx);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_heads() {
        let _ = mha(7, 2, 0);
    }
}
