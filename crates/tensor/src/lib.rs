//! # ntr-tensor
//!
//! A small, dependency-free, CPU tensor library purpose-built for the
//! transformer models in the `ntr` workspace.
//!
//! Design goals, in order:
//!
//! 1. **Correctness** — every numerical kernel here is exercised by
//!    finite-difference gradient checks in `ntr-nn`, so the math must be
//!    boring and auditable. `unsafe` is confined to two audited leaf
//!    modules: the pointer smuggling inside the worker pool dispatchers
//!    ([`par`]/`workpool`) and the `core::arch` intrinsics in [`simd`].
//! 2. **Predictability** — tensors are always contiguous, row-major `f32`
//!    buffers. Shape errors are programmer errors and panic with a clear
//!    message rather than threading `Result` through hot math.
//! 3. **Speed without dependencies** — the matmul family is cache-blocked,
//!    operand-packed, and multithreaded over a persistent pool of parked
//!    workers in [`par`] (no rayon, no BLAS). The [`grain`] cost model
//!    refuses to fan work out unless every chunk amortizes a dispatch, so
//!    adding threads never makes a kernel slower. Parallel kernels
//!    partition output rows into disjoint chunks whose per-row
//!    accumulation order never changes, so results are **bit-identical for
//!    any thread count** (`NTR_THREADS=1` reproduces multithreaded numbers
//!    exactly). With `--features simd` the hot loops switch to explicit
//!    AVX2/FMA micro-kernels ([`simd`]; element-wise kernels stay
//!    bit-identical to scalar, reductions and the FMA GEMM are
//!    tolerance-bounded — and still bit-identical across thread counts).
//!    Every matmul runs the one GEMM at every size, so an output row's
//!    bits never depend on how many rows share its product. The original
//!    simple kernels survive in [`naive`] as the property-tested reference,
//!    and benchmarks in `ntr-bench` keep us honest.
//!
//! The crate deliberately stops at raw math: neural-network layers, parameter
//! management and backpropagation live in `ntr-nn`, which composes these
//! kernels and caches activations for its hand-derived backward passes.
//!
//! ## Quick tour
//!
//! ```
//! use ntr_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//!
//! let probs = Tensor::from_vec(vec![0.0, f32::NEG_INFINITY], &[1, 2]).softmax_rows();
//! assert!((probs.at(&[0, 0]) - 1.0).abs() < 1e-6);
//! ```

pub mod faults;
pub mod grain;
pub mod io;
pub mod naive;
mod ops;
pub mod par;
pub mod quant;
mod reduce;
pub mod simd;
mod tensor;
mod workpool;

pub use ops::View;
pub use tensor::Tensor;

/// Numerical comparison helper used across the workspace's tests: `true` when
/// `a` and `b` differ by less than `atol + rtol * |b|` element-wise.
pub fn allclose(a: &[f32], b: &[f32], rtol: f32, atol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| (x - y).abs() <= atol + rtol * y.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allclose_accepts_equal_and_rejects_distant() {
        assert!(allclose(&[1.0, 2.0], &[1.0, 2.0], 0.0, 0.0));
        assert!(allclose(&[1.0, 2.0], &[1.0, 2.000001], 1e-5, 0.0));
        assert!(!allclose(&[1.0], &[1.1], 1e-5, 1e-5));
    }

    #[test]
    fn allclose_rejects_length_mismatch() {
        assert!(!allclose(&[1.0], &[1.0, 1.0], 1.0, 1.0));
    }
}
