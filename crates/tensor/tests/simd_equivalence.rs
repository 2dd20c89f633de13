//! SIMD-vs-scalar equivalence over adversarial shapes.
//!
//! Two contracts, matching the determinism policy in `ntr_tensor::simd`
//! (DESIGN.md §9):
//!
//! * **Bit-identical class** — element-wise kernels (`add_assign`,
//!   `mul_assign`, `axpy`, `shift_scale`, `affine`, `mul_into`,
//!   `div_assign_scalar`, `sub_assign_scalar`, `ln_dx_row`, row `max`,
//!   `gelu_fast`)
//!   must produce the *same bits* with SIMD on and off, for any length
//!   (empty, 1-element, every non-multiple-of-lane remainder) and any
//!   payload including NaN and ±Inf.
//! * **Tolerance class** — reductions (`sum`, `sum_sq`, `sq_dev_sum`,
//!   `sum_and_dot`, `dot`) and the FMA GEMM reassociate or fuse, so they
//!   are bounded against scalar instead; and the SIMD GEMM must itself be
//!   **bit-identical across thread counts** (partition-independent
//!   accumulation), exactly like the scalar path. The transcendental row
//!   kernels (`exp_sub_assign`, `exp_sub_sum`, `gelu`, `gelu_grad_mul`)
//!   are held to a stated bound against an `f64` reference on *both*
//!   lanes, to the NaN / ±inf / underflow contract of the vector `exp`,
//!   and to position independence: an element's bits do not depend on
//!   where it sits in a slice (`gelu_fast` is in the bit-identical class).
//!
//! On builds without `--features simd` (or on CPUs without AVX2/FMA)
//! `simd::active()` is false and every comparison degenerates to
//! scalar-vs-scalar — the suite stays green and meaningless rather than
//! flaky. The CI `--features simd` leg is where it bites.

use ntr_tensor::{allclose, par, simd, Tensor};
use proptest::prelude::*;

/// Lengths straddling every lane boundary of the 8-wide (and 16-wide GEMM
/// tile) kernels, plus empty and 1-element.
fn len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        2usize..20,
        30usize..35,
        100usize..135
    ]
}

/// A payload vector of `n` floats where some elements may be NaN or ±Inf.
fn payload(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        (0u8..11, -100.0f32..100.0).prop_map(|(k, v)| match k {
            8 => f32::NAN,
            9 => f32::INFINITY,
            10 => f32::NEG_INFINITY,
            _ => v,
        }),
        n,
    )
}

fn pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    len().prop_flat_map(|n| (payload(n), payload(n)))
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// `a ≈ b` treating equal-position non-finites as agreement.
fn close_or_same_nonfinite(a: f32, b: f32, tol: f32) -> bool {
    if !a.is_finite() || !b.is_finite() {
        return a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    }
    (a - b).abs() <= tol + b.abs() * 1e-4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn elementwise_kernels_are_bit_identical((a, b) in pair()) {
        let on = simd::active();
        let s = 0.37f32;

        let mut fast = a.clone();
        let mut slow = a.clone();
        simd::add_assign(on, &mut fast, &b);
        simd::add_assign(false, &mut slow, &b);
        prop_assert_eq!(bits(&fast), bits(&slow), "add_assign");

        let mut fast = a.clone();
        let mut slow = a.clone();
        simd::mul_assign(on, &mut fast, &b);
        simd::mul_assign(false, &mut slow, &b);
        prop_assert_eq!(bits(&fast), bits(&slow), "mul_assign");

        let mut fast = a.clone();
        let mut slow = a.clone();
        simd::axpy(on, &mut fast, s, &b);
        simd::axpy(false, &mut slow, s, &b);
        prop_assert_eq!(bits(&fast), bits(&slow), "axpy");

        let mut fast = vec![0.0; a.len()];
        let mut slow = vec![0.0; a.len()];
        simd::shift_scale(on, &mut fast, &a, 0.25, 1.75);
        simd::shift_scale(false, &mut slow, &a, 0.25, 1.75);
        prop_assert_eq!(bits(&fast), bits(&slow), "shift_scale");

        let mut fast = vec![0.0; a.len()];
        let mut slow = vec![0.0; a.len()];
        simd::mul_into(on, &mut fast, &a, &b);
        simd::mul_into(false, &mut slow, &a, &b);
        prop_assert_eq!(bits(&fast), bits(&slow), "mul_into");

        let mut fast = a.clone();
        let mut slow = a.clone();
        simd::div_assign_scalar(on, &mut fast, 3.0);
        simd::div_assign_scalar(false, &mut slow, 3.0);
        prop_assert_eq!(bits(&fast), bits(&slow), "div_assign_scalar");

        let mut fast = a.clone();
        let mut slow = a.clone();
        simd::sub_assign_scalar(on, &mut fast, -1.5);
        simd::sub_assign_scalar(false, &mut slow, -1.5);
        prop_assert_eq!(bits(&fast), bits(&slow), "sub_assign_scalar");

        // The payload spans both clamps of the Padé form (|x| up to 100).
        let small: Vec<f32> = b.iter().map(|v| v * 0.05).collect();
        for src in [&a, &small] {
            let mut fast = vec![0.0; src.len()];
            let mut slow = vec![0.0; src.len()];
            simd::gelu_fast(on, &mut fast, src);
            simd::gelu_fast(false, &mut slow, src);
            prop_assert_eq!(bits(&fast), bits(&slow), "gelu_fast");
        }
    }

    #[test]
    fn affine_and_ln_dx_are_bit_identical((x, g) in pair()) {
        let on = simd::active();
        let b: Vec<f32> = x.iter().map(|v| v * 0.5 - 1.0).collect();

        let mut fast = vec![0.0; x.len()];
        let mut slow = vec![0.0; x.len()];
        simd::affine(on, &mut fast, &x, &g, &b);
        simd::affine(false, &mut slow, &x, &g, &b);
        prop_assert_eq!(bits(&fast), bits(&slow), "affine");

        let mut fast = vec![0.0; x.len()];
        let mut slow = vec![0.0; x.len()];
        simd::ln_dx_row(on, &mut fast, &x, &g, 0.9, 0.1, -0.2);
        simd::ln_dx_row(false, &mut slow, &x, &g, 0.9, 0.1, -0.2);
        prop_assert_eq!(bits(&fast), bits(&slow), "ln_dx_row");
    }

    #[test]
    fn row_max_is_bit_identical_with_nan_skipping(xs in len().prop_flat_map(payload)) {
        let on = simd::active();
        let fast = simd::max(on, &xs);
        let slow = simd::max(false, &xs);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
        // f32::max semantics: NaN never wins, empty slices yield -inf.
        if !xs.is_empty() && xs.iter().any(|x| !x.is_nan()) {
            prop_assert!(!fast.is_nan());
        }
    }

    #[test]
    fn reductions_are_tolerance_bounded((a, b) in pair()) {
        // Restrict to finite payloads: non-finite sums legitimately differ
        // in *which* non-finite they produce depending on association.
        let a: Vec<f32> = a.iter().map(|x| if x.is_finite() { *x } else { 1.0 }).collect();
        let b: Vec<f32> = b.iter().map(|x| if x.is_finite() { *x } else { -1.0 }).collect();
        let on = simd::active();
        let tol = 1e-2 * (a.len().max(1) as f32);

        prop_assert!(close_or_same_nonfinite(simd::sum(on, &a), simd::sum(false, &a), tol));
        prop_assert!(close_or_same_nonfinite(simd::sum_sq(on, &a), simd::sum_sq(false, &a), tol * 100.0));
        prop_assert!(close_or_same_nonfinite(
            simd::sq_dev_sum(on, &a, 0.5),
            simd::sq_dev_sum(false, &a, 0.5),
            tol * 100.0
        ));
        prop_assert!(close_or_same_nonfinite(simd::dot(on, &a, &b), simd::dot(false, &a, &b), tol * 100.0));
        let (fs, fd) = simd::sum_and_dot(on, &a, &b);
        let (ss, sd) = simd::sum_and_dot(false, &a, &b);
        prop_assert!(close_or_same_nonfinite(fs, ss, tol));
        prop_assert!(close_or_same_nonfinite(fd, sd, tol * 100.0));
    }
}

/// Distance in units in the last place between two finite positive floats.
fn ulps(a: f32, b: f32) -> u32 {
    a.to_bits().abs_diff(b.to_bits())
}

/// `(gelu(x), gelu'(x))` in `f64`.
fn gelu_f64(x: f64) -> (f64, f64) {
    let s = (2.0 / std::f64::consts::PI).sqrt();
    let t = (s * (x + 0.044715 * x * x * x)).tanh();
    let du = s * (1.0 + 3.0 * 0.044715 * x * x);
    (
        0.5 * x * (1.0 + t),
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exp_is_within_two_ulp_of_the_f64_reference(
        xs in proptest::collection::vec(-87.3f32..88.7, 1..40),
        sub in -3.0f32..3.0,
    ) {
        let on = simd::active();
        // The whole stated range, unshifted: the argument is the input.
        let mut got = xs.clone();
        simd::exp_sub_assign(on, &mut got, 0.0);
        for (&x, &g) in xs.iter().zip(&got) {
            let want = (x as f64).exp();
            prop_assert!(ulps(g, want as f32) <= 2, "exp({x}) = {g}, reference {want}");
        }
        // Shifted, as softmax calls it: the argument is the rounded
        // difference, and the two sum-returning forms agree bit for bit
        // with each other and closely with the values they summed.
        let xs: Vec<f32> = xs.iter().map(|x| x * 0.1).collect();
        let mut got = xs.clone();
        let sum = simd::exp_sub_assign(on, &mut got, sub);
        for (&x, &g) in xs.iter().zip(&got) {
            let want = ((x - sub) as f64).exp();
            prop_assert!(ulps(g, want as f32) <= 2, "exp({x} - {sub}) = {g}, reference {want}");
        }
        prop_assert_eq!(sum.to_bits(), simd::exp_sub_sum(on, &xs, sub).to_bits());
        let want_sum: f64 = got.iter().map(|&g| g as f64).sum();
        prop_assert!((sum as f64 - want_sum).abs() <= 1e-5 * want_sum);
    }

    #[test]
    fn gelu_and_its_gradient_hold_their_absolute_bound(
        xs in proptest::collection::vec(-10.0f32..10.0, 1..40),
    ) {
        let on = simd::active();
        let mut y = vec![0.0; xs.len()];
        simd::gelu(on, &mut y, &xs);
        let dy: Vec<f32> = xs.iter().map(|x| 0.5 + x.abs() * 0.1).collect();
        let mut g = xs.clone();
        simd::gelu_grad_mul(on, &mut g, &dy);
        for i in 0..xs.len() {
            let (want, want_grad) = gelu_f64(xs[i] as f64);
            let bound = 1e-6 * (xs[i].abs() as f64).max(1.0);
            prop_assert!((y[i] as f64 - want).abs() <= bound, "gelu({}) = {}", xs[i], y[i]);
            let got_grad = g[i] as f64 / dy[i] as f64;
            prop_assert!(
                (got_grad - want_grad).abs() <= bound,
                "gelu'({}) = {got_grad}, reference {want_grad}", xs[i]
            );
        }
    }

    #[test]
    fn transcendental_kernels_do_not_depend_on_position(
        v in -12.0f32..12.0,
        filler in -12.0f32..12.0,
    ) {
        // The same value at every offset of every slice length 1..=40 —
        // vector body, padded tail, any chunk boundary — gives the same
        // bits. This is what "bit-identical for any thread count" and
        // "batched == sequential" rest on when a partition moves the tail.
        let on = simd::active();
        let mut seen: Option<[u32; 4]> = None;
        for len in 1..=40usize {
            for at in 0..len {
                let mut src = vec![filler; len];
                src[at] = v;
                let mut e = src.clone();
                simd::exp_sub_assign(on, &mut e, 0.5);
                let mut g = vec![0.0; len];
                simd::gelu(on, &mut g, &src);
                let mut f = vec![0.0; len];
                simd::gelu_fast(on, &mut f, &src);
                let mut d = src.clone();
                simd::gelu_grad_mul(on, &mut d, &vec![1.25; len]);
                let here = [e[at], g[at], f[at], d[at]].map(f32::to_bits);
                prop_assert_eq!(*seen.get_or_insert(here), here, "len={} at={}", len, at);
            }
        }
    }

    #[test]
    fn exp_row_sums_depend_only_on_the_row((xs, _) in pair()) {
        // Same slice, different neighbours and alignment: same sum bits.
        let on = simd::active();
        let xs: Vec<f32> = xs.iter().map(|x| if x.is_finite() { x * 0.1 } else { 0.25 }).collect();
        let alone = simd::exp_sub_sum(on, &xs, 1.0);
        let mut padded = vec![7.0f32; xs.len() + 11];
        padded[3..3 + xs.len()].copy_from_slice(&xs);
        let inside = simd::exp_sub_sum(on, &padded[3..3 + xs.len()], 1.0);
        prop_assert_eq!(alone.to_bits(), inside.to_bits());
    }
}

/// `(m, k, n)` spanning the naive threshold, the MR=4/NR=8/16 tile edges,
/// and degenerate dims.
fn gemm_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    let d = || prop_oneof![1usize..6, 7usize..10, 15usize..18, 31usize..34, 63usize..66];
    (d(), d(), d())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simd_matmul_is_tolerance_bounded_against_scalar((m, k, n) in gemm_dims()) {
        let a = Tensor::from_fn(&[m, k], |i| ((i * 37 + 11) % 97) as f32 * 0.03 - 1.4);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 53 + 29) % 89) as f32 * 0.04 - 1.7);
        let fast = a.matmul(&b);
        let slow = simd::force_scalar(|| a.matmul(&b));
        prop_assert!(
            allclose(fast.data(), slow.data(), 1e-4, 1e-4),
            "m={m} k={k} n={n}"
        );
    }

    #[test]
    fn simd_matmul_is_bit_identical_across_thread_counts((m, k, n) in gemm_dims()) {
        // Applies to the SIMD path *and* the scalar path: accumulation is
        // k-sequential per output element under any row partition.
        let a = Tensor::from_fn(&[m, k], |i| ((i * 13 + 7) % 101) as f32 * 0.02 - 1.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 31 + 3) % 103) as f32 * 0.02 - 1.0);
        let t1 = par::with_threads(1, || a.matmul(&b));
        let t4 = par::with_threads(4, || a.matmul(&b));
        let t7 = par::with_threads(7, || a.matmul(&b));
        prop_assert_eq!(bits(t1.data()), bits(t4.data()));
        prop_assert_eq!(bits(t1.data()), bits(t7.data()));
    }
}

#[test]
fn softmax_simd_is_tolerance_bounded_and_mask_safe() {
    let mut v: Vec<f32> = (0..1000)
        .map(|i| ((i * 17) % 301) as f32 * 0.05 - 7.0)
        .collect();
    // Row 0 is fully masked; rows 1.. are partially masked, each with a
    // different pattern that crosses the 8-lane body and the tail.
    for x in v.iter_mut().take(100) {
        *x = f32::NEG_INFINITY;
    }
    let masked = |r: usize, c: usize| r >= 1 && (c.is_multiple_of(r + 1) || c >= 100 - r);
    for r in 1..10 {
        for c in (0..100).filter(|&c| masked(r, c)) {
            v[r * 100 + c] = f32::NEG_INFINITY;
        }
    }
    let t = Tensor::from_vec(v, &[10, 100]);
    let fast = t.softmax_rows();
    let slow = simd::force_scalar(|| t.softmax_rows());
    assert!(allclose(fast.data(), slow.data(), 1e-5, 1e-6));
    let fast_ls = t.log_softmax_rows();
    let slow_ls = simd::force_scalar(|| t.log_softmax_rows());
    // Masked entries are −inf in log space on both lanes.
    assert!(fast_ls
        .data()
        .iter()
        .zip(slow_ls.data())
        .all(|(&f, &s)| close_or_same_nonfinite(f, s, 1e-5)));
    // Both lanes mean the same thing by a mask: a fully-masked row is
    // uniform, a masked entry of any other row is exactly zero (−inf in log
    // space), and what is left of the row still sums to one.
    for (p, lp) in [(&fast, &fast_ls), (&slow, &slow_ls)] {
        for &x in p.row(0) {
            assert_eq!(x, 0.01);
        }
        for &x in lp.row(0) {
            assert!((x - 0.01f32.ln()).abs() < 1e-6);
        }
        for r in 1..10 {
            for c in 0..100 {
                if masked(r, c) {
                    assert_eq!(p.row(r)[c].to_bits(), 0.0f32.to_bits(), "row {r} col {c}");
                    assert_eq!(lp.row(r)[c], f32::NEG_INFINITY, "row {r} col {c}");
                } else {
                    assert!(p.row(r)[c] > 0.0 && lp.row(r)[c].is_finite());
                }
            }
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }
}

#[test]
fn scale_mask_softmax_is_the_three_step_chain() {
    // Attention's fused row pass against the chain it replaced: same bits
    // on the scalar lane, and on the vector lane too (same kernels, same
    // per-element order).
    let scores = Tensor::from_fn(&[13, 37], |i| ((i * 29) % 83) as f32 * 0.11 - 4.0);
    let mut mask = Tensor::zeros(&[13, 37]);
    for r in 0..13 {
        for c in (0..37).filter(|c| (c + r) % 5 == 0) {
            mask.set(&[r, c], f32::NEG_INFINITY);
        }
    }
    for lane in [false, true] {
        let run = |f: &dyn Fn() -> Tensor| if lane { f() } else { simd::force_scalar(f) };
        for m in [None, Some(&mask)] {
            let chain = run(&|| {
                let s = scores.scale(0.25);
                m.map_or(s.clone(), |m| s.add(m)).softmax_rows()
            });
            let fused = run(&|| {
                let mut p = scores.clone();
                p.scale_mask_softmax_rows(0.25, m);
                p
            });
            assert_eq!(bits(chain.data()), bits(fused.data()), "lane={lane}");
        }
    }
}

#[test]
fn vector_exp_contract_at_the_ends() {
    let on = simd::active();
    let exp = |x: f32| {
        let mut v = [x];
        simd::exp_sub_assign(on, &mut v, 0.0);
        v[0]
    };
    // Both lanes.
    assert!(exp(f32::NAN).is_nan());
    assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
    assert_eq!(exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(exp(1.0e30), f32::INFINITY);
    assert_eq!(exp(-1.0e30), 0.0);
    assert_eq!(exp(0.0), 1.0);
    assert!(ulps(exp(88.7), (88.7f32 as f64).exp() as f32) <= 2);
    assert!(ulps(exp(-87.3), (-87.3f32 as f64).exp() as f32) <= 2);
    // NaN reaches the sum from any lane, body or tail.
    for len in [1usize, 8, 9, 23] {
        for at in [0, len - 1] {
            let mut row = vec![0.5f32; len];
            row[at] = f32::NAN;
            assert!(
                simd::exp_sub_sum(on, &row, 0.25).is_nan(),
                "len={len} at={at}"
            );
            assert!(simd::exp_sub_assign(on, &mut row, 0.25).is_nan());
            assert!(row[at].is_nan() && row.iter().filter(|x| x.is_nan()).count() == 1);
        }
    }
    // GELU passes NaN through and saturates cleanly at ±inf-sized inputs.
    let mut y = [0.0f32; 3];
    simd::gelu(on, &mut y, &[f32::NAN, 60.0, -60.0]);
    assert!(y[0].is_nan() && y[1] == 60.0 && y[2] == 0.0);
    let mut g = [f32::NAN, 60.0, -60.0];
    simd::gelu_grad_mul(on, &mut g, &[1.0; 3]);
    assert!(g[0].is_nan() && g[1] == 1.0 && g[2] == 0.0);
    // The vector lane flushes where libm goes subnormal, and gives up just
    // below `f32::MAX` — stated, not accidental.
    if on {
        assert_eq!(exp(-87.4).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(-100.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(88.71), f32::INFINITY);
    }
}

#[test]
fn poisoned_logits_poison_log_softmax_on_the_active_lane() {
    // The training supervisor detects a blown-up step by a non-finite
    // loss, and the loss is `−log_softmax(logits)[target]`: whatever the
    // target, a NaN or +inf logit must leave nothing finite in its row.
    for poison in [f32::NAN, f32::INFINITY] {
        for cols in [5usize, 8, 29, 1013] {
            for at in [0, cols / 2, cols - 1] {
                let mut t = Tensor::from_fn(&[2, cols], |i| (i % 13) as f32 * 0.3 - 2.0);
                t.set(&[1, at], poison);
                let ls = t.log_softmax_rows();
                assert!(ls.row(0).iter().all(|x| x.is_finite()));
                assert!(
                    ls.row(1).iter().all(|x| !x.is_finite()),
                    "poison={poison} cols={cols} at={at}"
                );
                let p = t.softmax_rows();
                assert!(p.row(1).iter().any(|x| x.is_nan()));
            }
        }
    }
}

#[test]
fn force_scalar_propagates_into_pool_workers() {
    // Kernels invoked *inside* a map_tasks body re-read `simd::active()`
    // on the pool worker; the dispatcher's veto must reach them. With the
    // veto inherited, both halves are scalar and therefore bit-identical
    // even on a simd build.
    let a = Tensor::from_fn(&[48, 48], |i| (i % 19) as f32 * 0.1 - 0.9);
    let b = Tensor::from_fn(&[48, 48], |i| (i % 23) as f32 * 0.1 - 1.1);
    let direct = simd::force_scalar(|| a.matmul(&b));
    let via_pool = simd::force_scalar(|| {
        par::with_threads(4, || {
            let mut out = par::map_tasks(4, 4, |_| a.matmul(&b));
            out.pop().unwrap()
        })
    });
    assert_eq!(bits(direct.data()), bits(via_pool.data()));
}
