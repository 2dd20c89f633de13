//! Property tests for the tensor kernels: algebraic identities over random
//! shapes and values.

use ntr_tensor::{allclose, Tensor};
use proptest::prelude::*;

fn matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-5.0f32..5.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]))
    })
}

proptest! {
    #[test]
    fn add_is_commutative(dims in (1usize..6, 1usize..6), seed_a in 0u64..100, seed_b in 0u64..100) {
        let (r, c) = dims;
        let a = Tensor::from_fn(&[r, c], |i| ((i as u64 ^ seed_a) % 17) as f32 - 8.0);
        let b = Tensor::from_fn(&[r, c], |i| ((i as u64 ^ seed_b) % 13) as f32 - 6.0);
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn scale_distributes(m in matrix(6), s in -3.0f32..3.0) {
        let doubled = m.add(&m);
        let scaled = m.scale(2.0);
        prop_assert!(allclose(doubled.data(), scaled.data(), 1e-5, 1e-5));
        let via_scale = m.scale(s).add(&m.scale(s));
        let direct = m.scale(2.0 * s);
        prop_assert!(allclose(via_scale.data(), direct.data(), 1e-4, 1e-4));
    }

    #[test]
    fn transpose_preserves_sum_and_norm(m in matrix(8)) {
        let t = m.transpose();
        prop_assert!((m.sum() - t.sum()).abs() < 1e-3);
        prop_assert!((m.norm() - t.norm()).abs() < 1e-3);
    }

    #[test]
    fn matmul_with_identity_is_identity(m in matrix(8)) {
        let eye = Tensor::eye(m.dim(1));
        let out = m.matmul(&eye);
        prop_assert!(allclose(out.data(), m.data(), 1e-5, 1e-5));
    }

    #[test]
    fn sum_rows_matches_total(m in matrix(8)) {
        let by_cols = m.sum_rows().sum();
        prop_assert!((by_cols - m.sum()).abs() < 1e-3);
    }

    #[test]
    fn argmax_rows_points_at_maximum(m in matrix(8)) {
        for (r, &idx) in m.argmax_rows().iter().enumerate() {
            let row = m.row(r);
            for &v in row {
                prop_assert!(row[idx] >= v);
            }
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax(m in matrix(6)) {
        let a = m.log_softmax_rows();
        let b = m.softmax_rows().map(f32::ln);
        prop_assert!(allclose(a.data(), b.data(), 1e-3, 1e-3));
    }

    #[test]
    fn cols_rows_roundtrip(m in matrix(8)) {
        // Splitting into per-head column blocks and reassembling is lossless.
        let c = m.dim(1);
        let half = c / 2;
        if half > 0 {
            let left = m.view().col_slice(0, half).to_tensor();
            let right = m.view().col_slice(half, c).to_tensor();
            let mut rebuilt = Tensor::zeros(&[m.dim(0), c]);
            rebuilt.set_cols(0, &left);
            rebuilt.set_cols(half, &right);
            prop_assert_eq!(rebuilt, m);
        }
    }

    #[test]
    fn hstack_vstack_shapes(m in matrix(5)) {
        let h = Tensor::hstack(&[&m, &m]);
        prop_assert_eq!(h.shape(), &[m.dim(0), m.dim(1) * 2]);
        let v = Tensor::vstack(&[&m, &m]);
        prop_assert_eq!(v.shape(), &[m.dim(0) * 2, m.dim(1)]);
        prop_assert!((h.sum() - 2.0 * m.sum()).abs() < 1e-3);
    }
}
