//! Property tests pinning the tiled, multithreaded kernels to the retained
//! naive reference implementations.
//!
//! Two guarantees are checked, matching the crate's contract:
//!
//! * **Tiled vs naive**: every matmul variant agrees with `ntr_tensor::naive`
//!   to within 1e-4 relative error over random shapes, including degenerate
//!   dims (`m/k/n = 1`) and sizes straddling the `MR = 4` register block and
//!   the 64³ parallel threshold, and puts NaN and `inf` in the same places
//!   when zeros in `A` meet non-finite values in `B`.
//! * **Thread-count invariance**: the parallel path is **bit-identical** for
//!   any thread count, because rows are partitioned without changing any
//!   row's accumulation order. Checked with exact equality.

use ntr_tensor::{allclose, naive, par, Tensor};
use proptest::prelude::*;

/// Dims that exercise 1, the MR=4 register-block edges, and the 32/64 tile
/// boundaries.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..9, 30usize..35, 62usize..67]
}

/// `(m, k, n)` plus flat operand buffers of `m·k` and `k·n` random floats.
fn mats() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (dim(), dim(), dim()).prop_flat_map(|(m, k, n)| {
        (
            Just(m),
            Just(k),
            Just(n),
            proptest::collection::vec(-2.0f32..2.0, m * k),
            proptest::collection::vec(-2.0f32..2.0, k * n),
        )
    })
}

/// Larger dims that clear the 64³ parallel threshold so the row-partitioned
/// path genuinely runs multithreaded.
fn big_mats() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (64usize..78, 64usize..78, 64usize..78).prop_flat_map(|(m, k, n)| {
        (
            Just(m),
            Just(k),
            Just(n),
            proptest::collection::vec(-1.0f32..1.0, m * k),
            proptest::collection::vec(-1.0f32..1.0, k * n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_naive((m, k, n, av, bv) in mats()) {
        let a = Tensor::from_vec(av, &[m, k]);
        let b = Tensor::from_vec(bv, &[k, n]);
        let got = a.matmul(&b);
        let want = naive::matmul(&a, &b);
        prop_assert!(allclose(got.data(), want.data(), 1e-4, 1e-5));
    }

    #[test]
    fn matmul_tn_matches_naive((m, k, n, av, bv) in mats()) {
        let a = Tensor::from_vec(av, &[k, m]);
        let b = Tensor::from_vec(bv, &[k, n]);
        let got = a.matmul_tn(&b);
        let want = naive::matmul_tn(&a, &b);
        prop_assert!(allclose(got.data(), want.data(), 1e-4, 1e-5));
    }

    #[test]
    fn matmul_nt_matches_naive((m, k, n, av, bv) in mats()) {
        let a = Tensor::from_vec(av, &[m, k]);
        let b = Tensor::from_vec(bv, &[n, k]);
        let got = a.matmul_nt(&b);
        let want = naive::matmul_nt(&a, &b);
        prop_assert!(allclose(got.data(), want.data(), 1e-4, 1e-5));
    }

    #[test]
    fn non_finite_values_land_where_the_reference_puts_them((m, k, n, av, bv) in special_mats()) {
        let (a, b) = (Tensor::from_vec(av, &[m, k]), Tensor::from_vec(bv, &[k, n]));
        prop_assert!(specials_agree(&a.matmul(&b), &naive::matmul(&a, &b)), "matmul");
        let (a, b) = (a.reshape(&[k, m]), b.reshape(&[k, n]));
        prop_assert!(specials_agree(&a.matmul_tn(&b), &naive::matmul_tn(&a, &b)), "matmul_tn");
        let (a, b) = (a.reshape(&[m, k]), b.reshape(&[n, k]));
        prop_assert!(specials_agree(&a.matmul_nt(&b), &naive::matmul_nt(&a, &b)), "matmul_nt");
    }
}

/// [`mats`] with a quarter of `A`'s entries set to `0` and about one in
/// seven of `B`'s set to `inf`, `-inf` or NaN, so a `0` often meets an
/// `inf` or NaN (a NaN product) and an `inf` often meets a nonzero.
fn special_mats() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    mats().prop_map(|(m, k, n, av, bv)| {
        let av = av.iter().map(|&x| if x.abs() < 0.5 { 0.0 } else { x });
        let bv = bv.iter().map(|&x| match x {
            x if x > 1.8 => f32::INFINITY,
            x if x < -1.8 => f32::NEG_INFINITY,
            x if x.abs() < 0.1 => f32::NAN,
            x => x,
        });
        (m, k, n, av.collect(), bv.collect())
    })
}

/// NaN where the other has NaN, the same `inf` where the other has an
/// `inf`, and finite values within the tiled-vs-naive tolerance.
fn specials_agree(got: &Tensor, want: &Tensor) -> bool {
    got.data().iter().zip(want.data()).all(|(&g, &w)| {
        if g.is_nan() || w.is_nan() {
            g.is_nan() && w.is_nan()
        } else if g.is_infinite() || w.is_infinite() {
            g == w
        } else {
            (g - w).abs() <= 1e-5 + 1e-4 * w.abs()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn matmul_bit_identical_across_thread_counts((m, k, n, av, bv) in big_mats()) {
        let a = Tensor::from_vec(av, &[m, k]);
        let b = Tensor::from_vec(bv, &[k, n]);
        let serial = par::with_threads(1, || a.matmul(&b));
        for threads in [2usize, 3, 5, 8] {
            let parallel = par::with_threads(threads, || a.matmul(&b));
            prop_assert_eq!(serial.data(), parallel.data(), "threads={}", threads);
        }
    }

    #[test]
    fn matmul_nt_bit_identical_across_thread_counts((m, k, n, av, bv) in big_mats()) {
        let a = Tensor::from_vec(av, &[m, k]);
        let b = Tensor::from_vec(bv, &[n, k]);
        let serial = par::with_threads(1, || a.matmul_nt(&b));
        for threads in [2usize, 3, 5, 8] {
            let parallel = par::with_threads(threads, || a.matmul_nt(&b));
            prop_assert_eq!(serial.data(), parallel.data(), "threads={}", threads);
        }
    }

    #[test]
    fn elementwise_bit_identical_across_thread_counts(len in (1usize << 16) + 1..(1usize << 16) + 4000, seed in 0u64..1000) {
        // Deterministic pseudo-random fill; length crosses the element-wise
        // parallel threshold so the pool genuinely engages.
        let fill = |salt: u64| {
            Tensor::from_fn(&[len], |i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed.wrapping_add(salt);
                (h % 4001) as f32 / 2000.0 - 1.0
            })
        };
        let x = fill(1);
        let y = fill(2);
        let serial = par::with_threads(1, || {
            let mut a = x.clone();
            a.add_assign(&y);
            a.axpy(0.25, &y);
            a.mul_assign(&y);
            a.map_mut(|v| v * 1.5 - 0.125);
            (a, x.par_map(|v| v.exp()), x.softmax_rows_helper())
        });
        for threads in [2usize, 5] {
            let parallel = par::with_threads(threads, || {
                let mut a = x.clone();
                a.add_assign(&y);
                a.axpy(0.25, &y);
                a.mul_assign(&y);
                a.map_mut(|v| v * 1.5 - 0.125);
                (a, x.par_map(|v| v.exp()), x.softmax_rows_helper())
            });
            prop_assert_eq!(serial.0.data(), parallel.0.data());
            prop_assert_eq!(serial.1.data(), parallel.1.data());
            prop_assert_eq!(serial.2.data(), parallel.2.data());
        }
    }
}

trait SoftmaxHelper {
    fn softmax_rows_helper(&self) -> Tensor;
}

impl SoftmaxHelper for Tensor {
    /// Reshapes the 1-D buffer to rows of 64 (dropping the remainder) and
    /// softmaxes them, so the row-parallel reduction path is also pinned.
    fn softmax_rows_helper(&self) -> Tensor {
        let cols = 64;
        let rows = self.numel() / cols;
        Tensor::from_vec(self.data()[..rows * cols].to_vec(), &[rows, cols]).softmax_rows()
    }
}
