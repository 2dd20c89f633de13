//! Loss functions. Each returns `(mean_loss, d loss / d logits)` so callers
//! can feed the gradient straight into a model's backward pass.

use ntr_tensor::{simd, Tensor};

/// Sentinel target meaning "do not compute loss at this position" — the
/// convention used for unmasked tokens in MLM-style objectives.
pub const IGNORE_INDEX: usize = usize::MAX;

/// True when every element is finite (no NaN, no ±Inf). The training
/// supervisor's first line of anomaly detection on losses and gradients.
pub fn all_finite(xs: &[f32]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

/// Returns `loss` when it is finite, otherwise a description of what went
/// non-finite — a typed check for training loops that must never silently
/// propagate NaN into optimizer state.
pub fn check_finite_loss(loss: f32) -> Result<f32, String> {
    if loss.is_finite() {
        Ok(loss)
    } else if loss.is_nan() {
        Err("loss is NaN".to_string())
    } else {
        Err(format!("loss is {loss}"))
    }
}

/// Softmax cross-entropy over rows of `logits: [n, classes]`.
///
/// `targets[i]` is the class index for row `i`, or [`IGNORE_INDEX`] to skip
/// the row. The loss is averaged over non-ignored rows; if every row is
/// ignored the loss is `0` and the gradient is all zeros.
///
/// Optional `weights` rescales each row's contribution (used for class
/// balancing); ignored rows contribute nothing regardless of weight.
pub fn softmax_cross_entropy(
    logits: &Tensor,
    targets: &[usize],
    weights: Option<&[f32]>,
) -> (f32, Tensor) {
    assert_eq!(
        logits.ndim(),
        2,
        "softmax_cross_entropy expects [n, classes]"
    );
    let (n, c) = (logits.dim(0), logits.dim(1));
    assert_eq!(
        targets.len(),
        n,
        "target count {} != rows {n}",
        targets.len()
    );
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "weight count {} != rows {n}", w.len());
    }

    let log_probs = logits.log_softmax_rows();
    let on = simd::active();
    let mut dlogits = Tensor::zeros(&[n, c]);
    let mut loss = 0.0;
    let mut total_weight = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        if t == IGNORE_INDEX {
            continue;
        }
        assert!(t < c, "target {t} out of range for {c} classes");
        let w = weights.map_or(1.0, |ws| ws[i]);
        loss -= w * log_probs.at(&[i, t]);
        total_weight += w;

        // d/d logits = softmax(logits) − one_hot(target), scaled later.
        let drow = dlogits.row_mut(i);
        drow.copy_from_slice(log_probs.row(i));
        simd::exp_sub_assign(on, drow, 0.0);
        for d in drow.iter_mut() {
            *d *= w;
        }
        drow[t] -= w;
    }
    if total_weight == 0.0 {
        return (0.0, dlogits);
    }
    let scale = 1.0 / total_weight;
    (loss * scale, dlogits.scale(scale))
}

/// Per-element binary cross-entropy with logits, for multi-label heads such
/// as TAPAS-style cell selection.
///
/// `targets` are 0.0/1.0 per element; `mask` (same length) zeroes out
/// positions excluded from the loss. Mean is over unmasked positions.
pub fn binary_cross_entropy_with_logits(
    logits: &Tensor,
    targets: &[f32],
    mask: Option<&[f32]>,
) -> (f32, Tensor) {
    let n = logits.numel();
    assert_eq!(targets.len(), n, "target count mismatch");
    if let Some(m) = mask {
        assert_eq!(m.len(), n, "mask length mismatch");
    }
    let mut dlogits = Tensor::zeros(logits.shape());
    let mut loss = 0.0;
    let mut count = 0.0;
    for i in 0..n {
        let m = mask.map_or(1.0, |ms| ms[i]);
        if m == 0.0 {
            continue;
        }
        let x = logits.data()[i];
        let t = targets[i];
        // Numerically stable: max(x,0) − x·t + ln(1 + e^{−|x|})
        loss += m * (x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln());
        let sigmoid = 1.0 / (1.0 + (-x).exp());
        dlogits.data_mut()[i] = m * (sigmoid - t);
        count += m;
    }
    if count == 0.0 {
        return (0.0, dlogits);
    }
    (loss / count, dlogits.scale(1.0 / count))
}

/// Mean squared error between `pred` and `target` of equal shape.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.numel().max(1) as f32;
    let diff = pred.sub(target);
    let loss = diff.data().iter().map(|&d| d * d).sum::<f32>() / n;
    (loss, diff.scale(2.0 / n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{assert_close, numeric_grad};

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_c() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3], None);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.set(&[0, 1], 100.0);
        let (loss, _) = softmax_cross_entropy(&logits, &[1], None);
        assert!(loss < 1e-5);
    }

    #[test]
    fn cross_entropy_of_a_poisoned_logit_is_not_finite() {
        // The supervisor's anomaly detection reads this loss; on a `simd`
        // build this runs the vector `exp`, which must not launder a NaN
        // or an overflow into a small finite number.
        for poison in [f32::NAN, f32::INFINITY] {
            for at in [0usize, 6, 19] {
                let mut logits = crate::init::SeededInit::new(6).uniform(&[2, 20], -2.0, 2.0);
                logits.set(&[1, at], poison);
                let (loss, grad) = softmax_cross_entropy(&logits, &[3, 11], None);
                assert!(
                    check_finite_loss(loss).is_err(),
                    "poison={poison} at={at}: {loss}"
                );
                assert!(!all_finite(grad.data()));
            }
        }
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let logits = crate::init::SeededInit::new(1).uniform(&[3, 4], -2.0, 2.0);
        let targets = [2usize, 0, 3];
        let (_, d) = softmax_cross_entropy(&logits, &targets, None);
        let num = numeric_grad(&logits, 1e-2, |l| {
            softmax_cross_entropy(l, &targets, None).0
        });
        assert_close(&d, &num, 1e-2, "ce");
    }

    #[test]
    fn cross_entropy_ignore_index_skips_rows() {
        let logits = crate::init::SeededInit::new(2).uniform(&[2, 3], -1.0, 1.0);
        let (loss_a, grad_a) = softmax_cross_entropy(&logits, &[1, IGNORE_INDEX], None);
        let (loss_b, _) = softmax_cross_entropy(&logits.rows(0, 1), &[1], None);
        assert!((loss_a - loss_b).abs() < 1e-6);
        assert!(grad_a.row(1).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn cross_entropy_all_ignored_is_zero() {
        let logits = Tensor::ones(&[2, 3]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[IGNORE_INDEX, IGNORE_INDEX], None);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn cross_entropy_weights_rescale() {
        let logits = crate::init::SeededInit::new(3).uniform(&[2, 3], -1.0, 1.0);
        let (unweighted, _) = softmax_cross_entropy(&logits, &[0, 1], None);
        let (weighted, _) = softmax_cross_entropy(&logits, &[0, 1], Some(&[2.0, 2.0]));
        assert!(
            (unweighted - weighted).abs() < 1e-6,
            "uniform weights cancel"
        );
    }

    #[test]
    fn bce_gradcheck() {
        let logits = crate::init::SeededInit::new(4).uniform(&[2, 3], -2.0, 2.0);
        let targets = [1.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        let (_, d) = binary_cross_entropy_with_logits(&logits, &targets, None);
        let num = numeric_grad(&logits, 1e-2, |l| {
            binary_cross_entropy_with_logits(l, &targets, None).0
        });
        assert_close(&d, &num, 1e-2, "bce");
    }

    #[test]
    fn bce_mask_excludes_positions() {
        let logits = Tensor::from_vec(vec![5.0, -5.0], &[1, 2]);
        let (loss, grad) =
            binary_cross_entropy_with_logits(&logits, &[0.0, 0.0], Some(&[0.0, 1.0]));
        // Only the second position counts, and it is a confident correct 0.
        assert!(loss < 0.01);
        assert_eq!(grad.data()[0], 0.0);
    }

    #[test]
    fn bce_extreme_logits_are_finite() {
        let logits = Tensor::from_vec(vec![100.0, -100.0], &[1, 2]);
        let (loss, grad) = binary_cross_entropy_with_logits(&logits, &[1.0, 0.0], None);
        assert!(loss.is_finite() && loss < 1e-6);
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn mse_gradcheck() {
        let pred = crate::init::SeededInit::new(5).uniform(&[2, 2], -1.0, 1.0);
        let target = Tensor::from_vec(vec![0.5, -0.5, 1.0, 0.0], &[2, 2]);
        let (_, d) = mse(&pred, &target);
        let num = numeric_grad(&pred, 1e-3, |p| mse(p, &target).0);
        assert_close(&d, &num, 1e-2, "mse");
    }

    #[test]
    fn finite_checks_catch_nan_and_inf() {
        assert!(all_finite(&[0.0, -1.0, 1e30]));
        assert!(!all_finite(&[0.0, f32::NAN]));
        assert!(!all_finite(&[f32::INFINITY]));
        assert!(all_finite(&[]));
        assert_eq!(check_finite_loss(2.5), Ok(2.5));
        assert_eq!(check_finite_loss(f32::NAN), Err("loss is NaN".into()));
        assert_eq!(check_finite_loss(f32::INFINITY), Err("loss is inf".into()));
    }
}
