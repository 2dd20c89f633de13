//! Grain-size heuristics: a per-kernel cost model deciding when (and how
//! wide) to parallelize.
//!
//! PR 1 gated parallelism on ad-hoc per-call-site size constants tuned for
//! the old spawn-per-dispatch pool. This module centralizes the decision
//! behind one question — *how many nanoseconds of serial work is this
//! call?* — estimated from the kernel's dominant unit (flops for GEMM,
//! bytes touched for element-wise streams, elements for transcendental
//! row reductions), and refuses to fan out unless every worker gets
//! enough work to amortize a dispatch.
//!
//! ## The model
//!
//! A dispatch on the persistent pool costs roughly [`DISPATCH_NS`]
//! (enqueue + condvar wake + completion latch, measured on the CI/bench
//! host; the old `thread::scope` spawn was ~25µs *per worker*). A chunk is
//! only worth shipping to a worker if it carries at least
//! [`MIN_GRAIN_NS`] ≈ 8× that overhead, so the parallel efficiency floor
//! is ~90%. From the serial estimate `est_ns`:
//!
//! * `est_ns < 2·MIN_GRAIN_NS` → run single-threaded (splitting would
//!   leave at least one chunk under-grained);
//! * otherwise fan out to `min(max_threads, est_ns / MIN_GRAIN_NS)`
//!   workers, so each chunk stays at or above the grain.
//!
//! The per-unit costs below are medians measured with the scalar kernels
//! on the bench host (single-core pinned, AVX2; see `BENCH_tensor.json`).
//! They only need to be right within ~2×: the decision they feed is a
//! coarse threshold, not a schedule. SIMD makes per-unit work cheaper,
//! which *raises* the parallel break-even size — using the scalar
//! estimates everywhere is therefore the conservative choice (it never
//! parallelizes smaller work under SIMD than it would scalar).

use crate::par;

/// Approximate cost of one pool dispatch: enqueue, wake, latch. A 2-chunk
/// `par::map_tasks` of trivial work measures 2–4 µs median back to back,
/// and 9–12 µs median (p90 18–21 µs) once the workers have parked for
/// 1 ms, on a 2-vCPU KVM guest (`cargo run --release -p ntr-tensor
/// --example dispatch_cost`). Kernels inside one encode dispatch back to
/// back, so the hot figure prices them.
pub const DISPATCH_NS: u64 = 3_000;

/// Minimum serial work per shipped chunk: 8× the dispatch cost keeps
/// fan-out overhead under ~12% even in the worst accepted case.
pub const MIN_GRAIN_NS: u64 = 8 * DISPATCH_NS;

/// Measured scalar GEMM cost: ~0.05 ns per multiply-add pair
/// (matmul/nn@256: 2·256³ flop in ~1.6 ms single-thread).
const GEMM_NS_PER_MADD_X100: u64 = 5;

/// Measured element-wise stream cost: ~0.1 ns per byte touched
/// (add_assign@1M: 12 MB read+write in ~360 µs ⇒ 0.03 ns/B, padded ~3×
/// for cheaper cache-resident cases where bandwidth doesn't bind).
const STREAM_NS_PER_BYTE_X100: u64 = 10;

/// Measured transcendental row-reduction cost: ~4 ns per element
/// (softmax_rows@256: 64k exp+sum+div in ~260 µs). This is the scalar-lane
/// figure, libm `exp` included; with the vector `exp` of [`crate::simd`] a
/// softmax row measures ~1.5 ns per element, so on that lane the model fans
/// out about three times too early. GELU is not priced here at all: its
/// `par_map_chunks` goes through [`Work::StreamBytes`] at 8 bytes per
/// element (~0.8 ns), against ~22 ns scalar and ~1 ns vector measured.
/// Recorded, not re-tuned: either change needs a benchmark row first.
const TRANSCENDENTAL_NS_PER_ELEM: u64 = 4;

/// Serial-work estimate for one kernel invocation, in the unit that
/// dominates its runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Dense multiply-add pairs (`m·k·n` for a GEMM).
    Madds(usize),
    /// Bytes streamed through memory (reads + writes), for element-wise
    /// kernels whose arithmetic is trivial.
    StreamBytes(usize),
    /// Elements put through a transcendental (`exp`, `ln`, `sqrt`) in a
    /// row-wise reduction.
    Transcendental(usize),
}

impl Work {
    /// The model's serial-runtime estimate in nanoseconds.
    pub fn est_ns(self) -> u64 {
        match self {
            Work::Madds(n) => (n as u64).saturating_mul(GEMM_NS_PER_MADD_X100) / 100,
            Work::StreamBytes(b) => (b as u64).saturating_mul(STREAM_NS_PER_BYTE_X100) / 100,
            Work::Transcendental(n) => (n as u64).saturating_mul(TRANSCENDENTAL_NS_PER_ELEM),
        }
    }
}

/// Thread count for a kernel with the given work estimate: 1 below the
/// grain threshold, otherwise at most [`par::max_threads`] workers with at
/// least [`MIN_GRAIN_NS`] of work each.
///
/// The choice never affects results — every kernel in this crate is
/// bit-identical under any partition — only wall-clock.
pub fn threads_for(work: Work) -> usize {
    let est = work.est_ns();
    if est < 2 * MIN_GRAIN_NS {
        return 1;
    }
    let cap = (est / MIN_GRAIN_NS) as usize;
    par::max_threads().min(cap).max(1)
}

/// [`threads_for`] with an additional cap on the number of indivisible
/// units (rows, heads): a fan-out wider than the unit count would leave
/// workers idle, and callers often also want a floor of units per worker.
pub fn threads_for_units(work: Work, units: usize, min_units_per_thread: usize) -> usize {
    let by_units = (units / min_units_per_thread.max(1)).max(1);
    threads_for(work).min(by_units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_work_stays_single_threaded() {
        // matmul@64: 64³ madds ≈ 13µs — below the grain, must not fan out.
        assert_eq!(threads_for(Work::Madds(64 * 64 * 64)), 1);
        // A 4k-element add: trivially serial.
        assert_eq!(threads_for(Work::StreamBytes(4096 * 4 * 3)), 1);
        // softmax@64: 4k elements ≈ 16µs — serial.
        assert_eq!(threads_for(Work::Transcendental(64 * 64)), 1);
    }

    #[test]
    fn large_work_fans_out_to_max_threads() {
        par::with_threads(4, || {
            // matmul@256: 256³ madds ≈ 840µs ≫ grain.
            assert_eq!(threads_for(Work::Madds(256 * 256 * 256)), 4);
            // add_assign@1M: 12MB ≈ 1.2ms by the padded model.
            assert_eq!(threads_for(Work::StreamBytes(1 << 20 << 2)), 4);
        });
    }

    #[test]
    fn medium_work_gets_a_partial_fanout() {
        par::with_threads(64, || {
            // matmul@128: ~105µs ⇒ grain allows ~4 chunks, not 64.
            let t = threads_for(Work::Madds(128 * 128 * 128));
            assert!((2..=8).contains(&t), "t={t}");
        });
    }

    #[test]
    fn unit_cap_binds() {
        par::with_threads(8, || {
            let w = Work::Madds(256 * 256 * 256);
            assert_eq!(threads_for_units(w, 2, 1), 2);
            assert_eq!(threads_for_units(w, 256, 64), 4);
            assert_eq!(threads_for_units(w, 0, 8), 1);
        });
    }

    #[test]
    fn estimates_are_monotone() {
        for w in [1usize, 1 << 10, 1 << 20, 1 << 30] {
            assert!(Work::Madds(w).est_ns() <= Work::Madds(w * 2).est_ns());
        }
    }
}
