//! Optimizers and learning-rate schedules.

use crate::{Grads, Layer};
use ntr_tensor::{grain, par};

const CHANGED: &str = "the model changed after Adam's first step";

/// AdamW: Adam with decoupled weight decay and bias correction.
///
/// The moments are positional: `m` and `v` hold every parameter's first
/// and second moments back to back, in [`Layer::visit_params`] order, so
/// one `Adam` steps one model, from gradients in the same order
/// ([`Grads`]). They are allocated (zeroed) on the first [`Adam::step`];
/// checkpoints translate them to and from paths
/// ([`crate::serialize::TrainCheckpoint`]). Usage per step:
///
/// ```text
/// adam.step(&mut model, &grads);     // advances t, updates every parameter
/// grads.zero();
/// ```
#[derive(Debug)]
pub struct Adam {
    pub(crate) lr: f32,
    pub(crate) beta1: f32,
    pub(crate) beta2: f32,
    pub(crate) eps: f32,
    pub(crate) weight_decay: f32,
    pub(crate) t: u64,
    pub(crate) m: Vec<f32>,
    pub(crate) v: Vec<f32>,
}

impl Default for Adam {
    /// Adam at learning rate 1e-3.
    fn default() -> Self {
        Self::new(1e-3)
    }
}

impl Clone for Adam {
    fn clone(&self) -> Self {
        Self {
            m: self.m.clone(),
            v: self.v.clone(),
            ..*self
        }
    }

    /// Refills `self` in place: the moment buffers keep their capacity.
    fn clone_from(&mut self, src: &Self) {
        let (mut m, mut v) = (std::mem::take(&mut self.m), std::mem::take(&mut self.v));
        m.clone_from(&src.m);
        v.clone_from(&src.v);
        *self = Self { m, v, ..*src };
    }
}

impl Adam {
    /// Adam with standard β=(0.9, 0.999), ε=1e-8, no weight decay.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Sets decoupled weight decay (AdamW).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Overrides the learning rate (e.g. from a schedule) before a step.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// One AdamW step over every parameter of `model`, from its
    /// accumulated gradients `grads`. Advances `t`; does **not** zero the
    /// gradients (callers do that after the step).
    ///
    /// # Panics
    /// Panics if `model` no longer has the parameters the moments were
    /// made for (a parameter was added, removed or resized), or was not
    /// bound to `grads`.
    pub fn step(&mut self, model: &mut dyn Layer, grads: &Grads) {
        self.t += 1;
        if self.m.is_empty() {
            let n = model.num_params();
            (self.m, self.v) = (vec![0.0; n], vec![0.0; n]);
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps, wd) =
            (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let (ms, vs) = (&mut self.m[..], &mut self.v[..]);
        let mut off = 0;
        model.visit_params(&mut |name, p| {
            let n = p.value.numel();
            assert!(
                off + n <= ms.len(),
                "Adam: parameter {name} runs past the {} moments: {CHANGED}",
                ms.len()
            );
            let (m, v) = (&mut ms[off..off + n], &mut vs[off..off + n]);
            off += n;
            // Priced as transcendental work: the per-element sqrt + divides
            // dominate, not the four-buffer memory traffic.
            let threads = grain::threads_for(grain::Work::Transcendental(n));
            // The update is purely element-wise, so any chunking of the four
            // buffers produces bit-identical results.
            let g = grads.of(p);
            par::for_zip3_mut(p.value.data_mut(), m, v, g, threads, |w, m, v, g| {
                for i in 0..w.len() {
                    let gi = g[i];
                    m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
                    v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    w[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * w[i]);
                }
            });
        });
        assert_eq!(
            off,
            ms.len(),
            "Adam: parameter values vs moments: {CHANGED}"
        );
    }
}

/// Linear warmup followed by linear decay to zero — the standard BERT
/// fine-tuning schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmupLinearSchedule {
    /// Peak learning rate reached at the end of warmup.
    pub peak_lr: f32,
    /// Number of warmup steps.
    pub warmup: u64,
    /// Total training steps (decay reaches zero here).
    pub total: u64,
}

impl WarmupLinearSchedule {
    /// Learning rate at step `t` (0-based).
    pub fn lr_at(&self, t: u64) -> f32 {
        if self.total == 0 {
            return self.peak_lr;
        }
        if t < self.warmup {
            return self.peak_lr * (t + 1) as f32 / self.warmup.max(1) as f32;
        }
        let remaining = self.total.saturating_sub(t) as f32;
        let decay_span = self.total.saturating_sub(self.warmup).max(1) as f32;
        self.peak_lr * (remaining / decay_span).clamp(0.0, 1.0)
    }
}

/// Global L2 norm over **all** gradients, without modifying them: each
/// parameter's squares summed, then the parameters' sums in visit order.
/// Returns NaN/Inf when any gradient is non-finite — the signal the
/// training supervisor uses for anomaly detection.
pub fn global_grad_norm(grads: &Grads) -> f32 {
    let mut total = 0.0f32;
    for g in grads.params() {
        total += g.iter().map(|&g| g * g).sum::<f32>();
    }
    total.sqrt()
}

/// Global-norm gradient clipping: measures the norm across every
/// parameter's gradient and, when it exceeds `max_norm`, scales all
/// gradients down to it. Returns the **pre-clip** norm. A non-finite norm
/// clips nothing (scaling NaN stays NaN); callers must treat it as an
/// anomaly instead.
pub fn clip_global_grad_norm(grads: &mut Grads, max_norm: f32) -> f32 {
    let total = global_grad_norm(grads);
    if total.is_finite() && total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        grads.data_mut().iter_mut().for_each(|g| *g *= scale);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::init::SeededInit;
    use crate::{Linear, Name, Param};
    use ntr_tensor::Tensor;

    /// A bare parameter as a one-parameter model.
    struct One(Param);

    impl Layer for One {
        fn visit_params(&mut self, f: &mut dyn FnMut(&Name, &mut Param)) {
            f(&Name::new("p"), &mut self.0);
        }
    }

    /// A one-parameter model of `values` and its gradients.
    fn one(values: Vec<f32>) -> (One, Grads) {
        let n = values.len();
        let mut one = One(Param::new(Tensor::from_vec(values, &[n])));
        let grads = Grads::new(&mut one);
        (one, grads)
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let (mut one, mut grads) = one(vec![5.0, -3.0]);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            // loss = Σ w², grad = 2w
            grads.zero();
            let g = one.0.value.scale(2.0);
            grads.add(&one.0, &g);
            adam.step(&mut one, &grads);
        }
        assert!(
            one.0.value.norm() < 1e-2,
            "did not converge: {:?}",
            one.0.value
        );
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let (mut one, grads) = one(vec![1.0]);
        let mut adam = Adam::new(0.01).with_weight_decay(0.1);
        for _ in 0..100 {
            adam.step(&mut one, &grads);
        }
        assert!(one.0.value.data()[0] < 1.0);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // With bias correction, the first Adam step has magnitude ≈ lr.
        let (mut one, mut grads) = one(vec![0.0]);
        grads.add(&one.0, &Tensor::from_vec(vec![123.0], &[1]));
        let mut adam = Adam::new(0.5);
        adam.step(&mut one, &grads);
        assert!((one.0.value.data()[0].abs() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn each_parameter_steps_at_its_own_offset() {
        // One Adam over a two-parameter model updates each parameter as a
        // separate Adam would: its moments sit at its offset alone.
        let mut lin = Linear::new(3, 2, &mut SeededInit::new(2));
        let mut lg = Grads::new(&mut lin);
        let (mut w, mut wg) = one(lin.w.value.data().to_vec());
        let (mut b, mut bg) = one(lin.b.value.data().to_vec());
        let mut adams = [Adam::new(0.1), Adam::new(0.1), Adam::new(0.1)];
        for seed in 0..3 {
            let g = SeededInit::new(seed).uniform(&[8], -1.0, 1.0);
            (lg, wg, bg) = (lg.zeros_like(), wg.zeros_like(), bg.zeros_like());
            lg.add(&lin.w, &Tensor::from_vec(g.data()[..6].to_vec(), &[3, 2]));
            lg.add(&lin.b, &Tensor::from_vec(g.data()[6..].to_vec(), &[2]));
            wg.add(&w.0, &Tensor::from_vec(g.data()[..6].to_vec(), &[6]));
            bg.add(&b.0, &Tensor::from_vec(g.data()[6..].to_vec(), &[2]));
            adams[0].step(&mut lin, &lg);
            adams[1].step(&mut w, &wg);
            adams[2].step(&mut b, &bg);
        }
        assert_eq!(lin.w.value.data(), w.0.value.data());
        assert_eq!(lin.b.value, b.0.value);
    }

    #[test]
    #[should_panic(expected = "the model changed after Adam's first step")]
    fn step_rejects_a_model_resized_after_the_first_step() {
        let mut adam = Adam::new(0.1);
        let mut small = Linear::new(2, 2, &mut SeededInit::new(1));
        let grads = Grads::new(&mut small);
        adam.step(&mut small, &grads);
        let mut big = Linear::new(2, 3, &mut SeededInit::new(1));
        let grads = Grads::new(&mut big);
        adam.step(&mut big, &grads);
    }

    #[test]
    fn schedule_warms_up_then_decays() {
        let s = WarmupLinearSchedule {
            peak_lr: 1.0,
            warmup: 10,
            total: 110,
        };
        assert!(s.lr_at(0) > 0.0 && s.lr_at(0) <= 0.1 + 1e-6);
        assert!((s.lr_at(9) - 1.0).abs() < 1e-6);
        assert!(s.lr_at(60) < 1.0 && s.lr_at(60) > 0.0);
        assert_eq!(s.lr_at(110), 0.0);
        assert!(s.lr_at(30) > s.lr_at(90), "monotone decay");
    }

    #[test]
    fn schedule_degenerate_totals_are_safe() {
        let s = WarmupLinearSchedule {
            peak_lr: 1.0,
            warmup: 0,
            total: 0,
        };
        assert_eq!(s.lr_at(0), 1.0);
    }

    #[test]
    fn global_clip_covers_every_parameter() {
        let mut lin = Linear::new(2, 2, &mut SeededInit::new(7));
        let mut grads = Grads::new(&mut lin);
        grads.add(&lin.w, &Tensor::from_vec(vec![3.0, 0.0, 0.0, 0.0], &[2, 2]));
        grads.add(&lin.b, &Tensor::from_vec(vec![0.0, 4.0], &[2]));
        let norm = clip_global_grad_norm(&mut grads, 1.0);
        assert!((norm - 5.0).abs() < 1e-6, "norm spans both params: {norm}");
        let clipped = global_grad_norm(&grads);
        assert!(
            (clipped - 1.0).abs() < 1e-5,
            "clipped to max_norm: {clipped}"
        );

        // Under the threshold nothing moves.
        let before = grads.data().to_vec();
        let n2 = clip_global_grad_norm(&mut grads, 10.0);
        assert!((n2 - 1.0).abs() < 1e-5);
        assert_eq!(grads.data(), before);
    }

    #[test]
    fn global_norm_reports_nonfinite_without_clipping() {
        let mut lin = Linear::new(2, 2, &mut SeededInit::new(8));
        let mut grads = Grads::new(&mut lin);
        grads.add(
            &lin.w,
            &Tensor::from_vec(vec![f32::NAN, 0.0, 0.0, 0.0], &[2, 2]),
        );
        grads.add(&lin.b, &Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let norm = clip_global_grad_norm(&mut grads, 0.5);
        assert!(norm.is_nan(), "NaN grads must surface in the norm");
        assert_eq!(
            grads.of(&lin.b),
            &[1.0, 2.0],
            "no clipping applied on a non-finite norm"
        );
    }
}
