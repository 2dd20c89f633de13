//! Optimizers and learning-rate schedules.

use crate::Param;
use ntr_tensor::{grain, par, Tensor};
use std::collections::HashMap;

/// AdamW: Adam with decoupled weight decay and bias correction.
///
/// Per-parameter moment state is keyed by [`Param::id`], so the same `Adam`
/// instance can be shared across all of a model's parameters and across
/// steps. Usage per step:
///
/// ```text
/// let mut step = adam.begin_step();      // advances t once
/// model.visit_params(&mut |_, p| step.update(p));
/// model.zero_grad();
/// ```
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    state: HashMap<u64, Moments>,
}

#[derive(Debug)]
struct Moments {
    m: Tensor,
    v: Tensor,
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
            state: HashMap::new(),
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

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Overrides the completed-step counter (checkpoint resume). Bias
    /// correction depends on `t`, so resuming must restore it exactly.
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Overrides β₁/β₂/ε (checkpoint resume).
    pub fn with_betas(mut self, beta1: f32, beta2: f32, eps: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self.eps = eps;
        self
    }

    /// First-moment decay β₁.
    pub fn beta1(&self) -> f32 {
        self.beta1
    }

    /// Second-moment decay β₂.
    pub fn beta2(&self) -> f32 {
        self.beta2
    }

    /// Denominator stabilizer ε.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Decoupled weight-decay coefficient.
    pub fn weight_decay(&self) -> f32 {
        self.weight_decay
    }

    /// The moment pair for a parameter id, if that parameter has been
    /// updated at least once.
    pub fn moments_of(&self, id: u64) -> Option<(&Tensor, &Tensor)> {
        self.state.get(&id).map(|s| (&s.m, &s.v))
    }

    /// Installs a moment pair for a parameter id (checkpoint resume).
    ///
    /// # Panics
    /// Panics if `m` and `v` disagree on shape.
    pub fn set_moments(&mut self, id: u64, m: Tensor, v: Tensor) {
        assert_eq!(m.shape(), v.shape(), "Adam moment shape mismatch");
        self.state.insert(id, Moments { m, v });
    }

    /// Begins one optimizer step: advances the timestep and returns a guard
    /// whose [`AdamStep::update`] applies the update to each parameter.
    pub fn begin_step(&mut self) -> AdamStep<'_> {
        self.t += 1;
        AdamStep { adam: self }
    }
}

/// Guard for a single optimizer step. See [`Adam::begin_step`].
pub struct AdamStep<'a> {
    adam: &'a mut Adam,
}

impl AdamStep<'_> {
    /// Applies the AdamW update to `p` using its accumulated gradient.
    /// Does **not** zero the gradient; callers do that after the full step.
    pub fn update(&mut self, p: &mut Param) {
        let a = &mut *self.adam;
        let entry = a.state.entry(p.id()).or_insert_with(|| Moments {
            m: Tensor::zeros(p.value.shape()),
            v: Tensor::zeros(p.value.shape()),
        });
        assert_eq!(
            entry.m.shape(),
            p.value.shape(),
            "Adam state shape mismatch: parameter was recreated or resized"
        );
        let bc1 = 1.0 - a.beta1.powi(a.t as i32);
        let bc2 = 1.0 - a.beta2.powi(a.t as i32);
        let (lr, beta1, beta2, eps, wd) = (a.lr, a.beta1, a.beta2, a.eps, a.weight_decay);
        let n = p.value.numel();
        // Priced as transcendental work: the per-element sqrt + divides
        // dominate, not the four-buffer memory traffic.
        let threads = grain::threads_for(grain::Work::Transcendental(n));
        // The update is purely element-wise, so any chunking of the four
        // buffers produces bit-identical results.
        let Moments { m, v } = entry;
        par::for_zip3_mut(
            p.value.data_mut(),
            m.data_mut(),
            v.data_mut(),
            p.grad.data(),
            threads,
            |w, m, v, g| {
                for i in 0..w.len() {
                    let gi = g[i];
                    m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
                    v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    w[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * w[i]);
                }
            },
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

/// Global-norm gradient clipping: scales every gradient so the concatenated
/// gradient vector has norm at most `max_norm`. Returns the pre-clip norm.
/// Global L2 norm over **all** of `model`'s gradients, without modifying
/// them. Returns NaN/Inf when any gradient is non-finite — the signal the
/// training supervisor uses for anomaly detection.
pub fn global_grad_norm(model: &mut dyn crate::Layer) -> f32 {
    let mut total = 0.0f32;
    model.visit_params(&mut |_, p| {
        total += p.grad.data().iter().map(|&g| g * g).sum::<f32>();
    });
    total.sqrt()
}

/// [`clip_grad_norm`] over a whole [`crate::Layer`]: measures the global
/// gradient norm across every parameter and, when it exceeds `max_norm`,
/// scales all gradients down to it. Returns the **pre-clip** norm. A
/// non-finite norm clips nothing (scaling NaN stays NaN); callers must
/// treat it as an anomaly instead.
pub fn clip_global_grad_norm(model: &mut dyn crate::Layer, max_norm: f32) -> f32 {
    let total = global_grad_norm(model);
    if total.is_finite() && total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        model.visit_params(&mut |_, p| p.grad.map_mut(|g| g * scale));
    }
    total
}

pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let total: f32 = params
        .iter()
        .map(|p| p.grad.data().iter().map(|&g| g * g).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for p in params.iter_mut() {
            p.grad.map_mut(|g| g * scale);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_step(adam: &mut Adam, p: &mut Param) {
        // loss = Σ w², grad = 2w
        p.zero_grad();
        let g = p.value.scale(2.0);
        p.accumulate(&g);
        let mut step = adam.begin_step();
        step.update(p);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut p = Param::new(Tensor::from_vec(vec![5.0, -3.0], &[2]));
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            quadratic_step(&mut adam, &mut p);
        }
        assert!(p.value.norm() < 1e-2, "did not converge: {:?}", p.value);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0], &[1]));
        let mut adam = Adam::new(0.01).with_weight_decay(0.1);
        for _ in 0..100 {
            p.zero_grad();
            let mut step = adam.begin_step();
            step.update(&mut p);
        }
        assert!(p.value.data()[0] < 1.0);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // With bias correction, the first Adam step has magnitude ≈ lr.
        let mut p = Param::new(Tensor::from_vec(vec![0.0], &[1]));
        p.accumulate(&Tensor::from_vec(vec![123.0], &[1]));
        let mut adam = Adam::new(0.5);
        adam.begin_step().update(&mut p);
        assert!((p.value.data()[0].abs() - 0.5).abs() < 1e-3);
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
    fn clip_grad_norm_scales_down_only_when_needed() {
        let mut a = Param::new(Tensor::zeros(&[2]));
        a.accumulate(&Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let norm = clip_grad_norm(&mut [&mut a], 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((a.grad.norm() - 1.0).abs() < 1e-5);

        let mut b = Param::new(Tensor::zeros(&[1]));
        b.accumulate(&Tensor::from_vec(vec![0.1], &[1]));
        clip_grad_norm(&mut [&mut b], 1.0);
        assert!(
            (b.grad.data()[0] - 0.1).abs() < 1e-7,
            "small grads untouched"
        );
    }

    #[test]
    fn global_clip_covers_every_parameter() {
        let mut lin = crate::Linear::new(2, 2, &mut crate::init::SeededInit::new(7));
        lin.w
            .accumulate(&Tensor::from_vec(vec![3.0, 0.0, 0.0, 0.0], &[2, 2]));
        lin.b.accumulate(&Tensor::from_vec(vec![0.0, 4.0], &[2]));
        let norm = clip_global_grad_norm(&mut lin, 1.0);
        assert!((norm - 5.0).abs() < 1e-6, "norm spans both params: {norm}");
        let clipped = global_grad_norm(&mut lin);
        assert!(
            (clipped - 1.0).abs() < 1e-5,
            "clipped to max_norm: {clipped}"
        );

        // Under the threshold nothing moves.
        let before = lin.w.grad.clone();
        let n2 = clip_global_grad_norm(&mut lin, 10.0);
        assert!((n2 - 1.0).abs() < 1e-5);
        assert_eq!(lin.w.grad, before);
    }

    #[test]
    fn global_norm_reports_nonfinite_without_clipping() {
        let mut lin = crate::Linear::new(2, 2, &mut crate::init::SeededInit::new(8));
        lin.w
            .accumulate(&Tensor::from_vec(vec![f32::NAN, 0.0, 0.0, 0.0], &[2, 2]));
        lin.b.accumulate(&Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let norm = clip_global_grad_norm(&mut lin, 0.5);
        assert!(norm.is_nan(), "NaN grads must surface in the norm");
        assert_eq!(
            lin.b.grad.data(),
            &[1.0, 2.0],
            "no clipping applied on a non-finite norm"
        );
    }
}
