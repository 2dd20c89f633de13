//! Reference matmul kernels: the original simple triple-loop implementations.
//!
//! These remain the source of truth for correctness: the tiled,
//! multithreaded GEMM that every `Tensor` matmul runs at every size is
//! property-tested against them, and the benches use them to measure
//! speedups. Nothing else calls them. They take no shortcut — a `0` in `A`
//! still multiplies its row of `B`, so an `inf` or NaN there reaches the
//! output as it does in the GEMM.

use crate::ops::{dims2, dot};
use crate::Tensor;

/// `C = A · B` for `A: [m, k]`, `B: [k, n]`, i-k-j loop order.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (kb, n) = dims2(b, "matmul rhs");
    assert_eq!(k, kb, "matmul: inner dims differ ({k} vs {kb})");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let crow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &bd[kk * n..(kk + 1) * n];
            for (c, &bv) in crow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]`, k-outer loop order.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_tn lhs");
    let (kb, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(k, kb, "matmul_tn: leading dims differ ({k} vs {kb})");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for kk in 0..k {
        let arow = &ad[kk * m..(kk + 1) * m];
        let brow = &bd[kk * n..(kk + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            let crow = &mut out[i * n..(i + 1) * n];
            for (c, &bv) in crow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]`, row-dot-row.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_nt lhs");
    let (n, kb) = dims2(b, "matmul_nt rhs");
    assert_eq!(k, kb, "matmul_nt: inner dims differ ({k} vs {kb})");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            out[i * n + j] = dot(arow, brow);
        }
    }
    Tensor::from_vec(out, &[m, n])
}
