//! Dependency-free data parallelism on a persistent worker pool.
//!
//! Every parallel kernel in this crate partitions its *output* buffer into
//! disjoint `&mut` chunks along a unit boundary (a matrix row, or a single
//! element for flat element-wise work) and hands each chunk to one pool
//! worker. Because each output unit is computed by exactly one thread using
//! the same sequential instruction order as the single-threaded kernel, the
//! results are **bit-identical regardless of thread count** — `NTR_THREADS=1`
//! reproduces the multi-threaded numbers exactly, and vice versa.
//!
//! Thread count resolution, in priority order:
//! 1. a thread-local override installed by [`with_threads`] (used by tests so
//!    they can vary parallelism without racing on the process environment),
//! 2. the `NTR_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! Workers are spawned lazily on first parallel dispatch and then *parked*
//! (condvar wait) between dispatches — see [`crate::workpool`]. PR 1 spawned
//! fresh threads per call via [`std::thread::scope`]; measured at ~25µs per
//! spawned thread, that overhead inverted the speedup on every kernel under
//! a few hundred microseconds: there, more threads ran slower than one.
//! A dispatch to a parked worker costs far
//! less: a 2-chunk [`map_tasks`] of trivial work takes 2–4 µs median
//! (p90 6–10 µs) back to back, and 9–12 µs median (p90 18–21 µs) after 1 ms
//! idle, on a 2-vCPU KVM guest (`cargo run --release -p ntr-tensor
//! --example dispatch_cost`, five runs). So callers can afford much finer
//! grains — the thresholds themselves live in [`crate::grain`].
//!
//! ## Panic isolation
//!
//! A panicking worker must not abort the process or poison later
//! dispatches. Each kernel has a `try_` variant ([`try_for_chunks`],
//! [`try_for_zip3_mut`], [`try_map_tasks`]) that catches worker panics:
//! the dispatch always drains deterministically (every chunk finishes or
//! unwinds before the call returns; the pool workers themselves survive),
//! the calling thread's own chunk runs under [`std::panic::catch_unwind`],
//! and the caller receives `Err(`[`PoolPanic`]`)` naming the lowest-index
//! panicking worker. A panic is caught in the worker's run loop, so the
//! pool is immediately reusable after an error. The infallible variants
//! delegate to the `try_` forms and re-raise the panic on the calling
//! thread, preserving their original contract.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::workpool;

static ENV_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// 0 = no override; otherwise the forced thread count for this thread.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Maximum number of threads a parallel kernel may use right now.
///
/// Honors (in order) the [`with_threads`] override, `NTR_THREADS`, and the
/// machine's available parallelism. Always at least 1.
pub fn max_threads() -> usize {
    let forced = OVERRIDE.with(|c| c.get());
    if forced > 0 {
        return forced;
    }
    *ENV_THREADS.get_or_init(|| {
        std::env::var("NTR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Runs `f` with [`max_threads`] forced to `n` on the current thread.
///
/// The override is thread-local and restored on exit (including unwind), so
/// concurrent tests can pin different thread counts without touching the
/// process environment. `n = 0` is treated as "remove the override".
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// A worker panic captured by a `try_` dispatch: the lowest-index panicking
/// worker and its panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPanic {
    /// Index of the panicking worker within the dispatch (the calling
    /// thread's own chunk counts as the last worker).
    pub worker: usize,
    /// The panic payload, stringified (`"<non-string panic payload>"` when
    /// it was neither `&str` nor `String`).
    pub message: String,
}

impl std::fmt::Display for PoolPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for PoolPanic {}

/// Stringifies a caught panic payload.
pub fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

/// Runs `f` on the calling thread, converting a panic into a [`PoolPanic`]
/// attributed to `worker`.
fn run_caught(worker: usize, f: impl FnOnce()) -> Result<(), PoolPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| PoolPanic {
        worker,
        message: payload_message(p),
    })
}

/// Fires an injected fault (see [`crate::faults::arm_worker_panic`]) when
/// this worker was designated to take it.
fn maybe_inject(designated: bool) {
    if designated {
        panic!("{}", crate::faults::INJECTED_PANIC_MSG);
    }
}

/// Runs a worker body, attributing its wall time to `worker` in the global
/// pool counters when observability is armed. With `armed = false` (the
/// default) this is a direct call — no clock, no atomics.
#[inline]
fn timed(armed: bool, worker: usize, body: impl FnOnce()) {
    if armed {
        let t0 = std::time::Instant::now();
        body();
        ntr_obs::pool::record_busy(worker, t0.elapsed().as_nanos() as u64);
    } else {
        body();
    }
}

/// Feeds a finished dispatch's outcome into the pool counters (panic
/// isolations) when armed.
#[inline]
fn note_outcome<T>(armed: bool, r: &Result<T, PoolPanic>) {
    if armed && r.is_err() {
        ntr_obs::pool::record_panic_isolated();
    }
}

/// The single-chunk path shared by every dispatcher: chunk 0 runs on the
/// calling thread (taking any injected fault) with no pool interaction.
fn dispatch_single(inject: bool, armed: bool, body: impl FnOnce()) -> Result<(), PoolPanic> {
    if armed {
        ntr_obs::pool::record_dispatch(1);
    }
    let r = run_caught(0, || {
        maybe_inject(inject);
        timed(armed, 0, body)
    });
    note_outcome(armed, &r);
    r
}

/// The fan-out path shared by every dispatcher: chunks `0..t-1` go to pool
/// workers, chunk `t-1` runs on the calling thread, and chunk 0 takes any
/// injected fault (it always executes on a genuinely separate pool thread
/// here). Returns after every chunk finished — the deterministic drain.
fn dispatch_multi(
    t: usize,
    inject: bool,
    armed: bool,
    body: &(dyn Fn(usize) + Sync),
) -> Result<(), PoolPanic> {
    debug_assert!(t >= 2);
    if armed {
        ntr_obs::pool::record_dispatch(t as u64);
    }
    // Pool workers inherit the dispatcher's per-thread SIMD veto: kernels
    // invoked *inside* a chunk (map_tasks bodies) re-read `simd::active()`
    // on the worker thread, so a `force_scalar` scope on the caller must
    // extend to them.
    let veto = crate::simd::vetoed();
    let task = |c: usize| {
        maybe_inject(inject && c == 0);
        if veto {
            crate::simd::force_scalar(|| timed(armed, c, || body(c)));
        } else {
            timed(armed, c, || body(c));
        }
    };
    let r = match workpool::run(t, &task) {
        Some((worker, message)) => Err(PoolPanic { worker, message }),
        None => Ok(()),
    };
    note_outcome(armed, &r);
    r
}

/// A raw mutable base pointer smuggled into chunk closures. Chunks are
/// disjoint by construction, so concurrent writes never alias; the pool's
/// completion latch keeps the pointee alive for the whole dispatch.
#[derive(Clone, Copy)]
struct MutPtr(*mut f32);
unsafe impl Send for MutPtr {}
unsafe impl Sync for MutPtr {}

/// Shared (read-only) counterpart of [`MutPtr`].
#[derive(Clone, Copy)]
struct ConstPtr(*const f32);
unsafe impl Send for ConstPtr {}
unsafe impl Sync for ConstPtr {}

/// Near-even partition of `units` units into `t` chunks: chunk `c` starts
/// at unit `c·base + min(c, extra)` and spans `base + (c < extra)` units.
#[inline]
fn chunk_bounds(units: usize, t: usize, c: usize) -> (usize, usize) {
    let base = units / t;
    let extra = units % t;
    (c * base + c.min(extra), base + usize::from(c < extra))
}

/// Splits `data` into up to `threads` contiguous chunks on `unit` boundaries
/// and runs `f(start_unit_index, chunk)` on each, in parallel.
///
/// `unit` is the indivisible span in elements (a row length, or 1 for flat
/// element-wise work); chunks always hold a whole number of units. With one
/// thread (or one unit) `f` runs on the calling thread with no dispatch at
/// all. The final chunk also runs on the calling thread, so `threads = 2`
/// occupies a single pool worker.
///
/// Panics on the calling thread when a worker panicked; see
/// [`try_for_chunks`] for the non-panicking form.
pub fn for_chunks(
    data: &mut [f32],
    unit: usize,
    threads: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if let Err(p) = try_for_chunks(data, unit, threads, f) {
        panic!("{}", p.message);
    }
}

/// [`for_chunks`] with panic isolation: a panicking worker is caught, every
/// other worker runs to completion (deterministic drain), and the first
/// panic by worker index is returned as `Err`.
pub fn try_for_chunks(
    data: &mut [f32],
    unit: usize,
    threads: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) -> Result<(), PoolPanic> {
    assert!(unit > 0, "for_chunks: unit must be positive");
    debug_assert_eq!(
        data.len() % unit,
        0,
        "for_chunks: data not a whole number of units"
    );
    let inject = crate::faults::take_armed_worker_panic();
    let armed = ntr_obs::pool::enabled();
    let units = data.len() / unit;
    let t = threads.clamp(1, units.max(1));
    if t <= 1 {
        return dispatch_single(inject, armed, || f(0, data));
    }
    let base = MutPtr(data.as_mut_ptr());
    let body = |c: usize| {
        // Capture the wrapper, not its raw-pointer field (edition-2021
        // disjoint capture would otherwise grab the non-Sync `*mut`).
        #[allow(clippy::redundant_locals)]
        let base = base;
        let (start_unit, n_units) = chunk_bounds(units, t, c);
        // SAFETY: chunks are disjoint unit ranges of `data`, which outlives
        // the dispatch (see `dispatch_multi`).
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.0.add(start_unit * unit), n_units * unit)
        };
        f(start_unit, chunk);
    };
    dispatch_multi(t, inject, armed, &body)
}

/// Splits three mutable slices and one shared slice of equal length at
/// identical element boundaries and runs `f` on each aligned quadruple in
/// parallel. This is the shape of a fused optimizer update: weights and two
/// moment buffers mutated element-wise against a shared gradient.
///
/// Panics on the calling thread when a worker panicked; see
/// [`try_for_zip3_mut`] for the non-panicking form.
pub fn for_zip3_mut(
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    threads: usize,
    f: impl Fn(&mut [f32], &mut [f32], &mut [f32], &[f32]) + Sync,
) {
    if let Err(p) = try_for_zip3_mut(w, m, v, g, threads, f) {
        panic!("{}", p.message);
    }
}

/// [`for_zip3_mut`] with panic isolation (see [`try_for_chunks`]).
pub fn try_for_zip3_mut(
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    threads: usize,
    f: impl Fn(&mut [f32], &mut [f32], &mut [f32], &[f32]) + Sync,
) -> Result<(), PoolPanic> {
    let len = w.len();
    assert!(
        m.len() == len && v.len() == len && g.len() == len,
        "for_zip3_mut: slice lengths differ"
    );
    let inject = crate::faults::take_armed_worker_panic();
    let armed = ntr_obs::pool::enabled();
    let t = threads.clamp(1, len.max(1));
    if t <= 1 {
        return dispatch_single(inject, armed, || f(w, m, v, g));
    }
    let (pw, pm, pv) = (
        MutPtr(w.as_mut_ptr()),
        MutPtr(m.as_mut_ptr()),
        MutPtr(v.as_mut_ptr()),
    );
    let pg = ConstPtr(g.as_ptr());
    let body = |c: usize| {
        // See `try_for_chunks`: keep the wrappers, not their fields.
        let (pw, pm, pv, pg) = (pw, pm, pv, pg);
        let (start, n) = chunk_bounds(len, t, c);
        // SAFETY: disjoint element ranges of four live, equal-length slices.
        unsafe {
            f(
                std::slice::from_raw_parts_mut(pw.0.add(start), n),
                std::slice::from_raw_parts_mut(pm.0.add(start), n),
                std::slice::from_raw_parts_mut(pv.0.add(start), n),
                std::slice::from_raw_parts(pg.0.add(start), n),
            )
        }
    };
    dispatch_multi(t, inject, armed, &body)
}

/// Runs `f(0..n)` across up to `threads` pool workers and returns the
/// results in index order.
///
/// Used for coarse task parallelism (e.g. attention heads). Each worker's
/// [`max_threads`] is scaled down by the worker count so kernels invoked
/// inside `f` don't oversubscribe the machine with nested dispatches.
pub fn map_tasks<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    match try_map_tasks(n, threads, f) {
        Ok(out) => out,
        Err(p) => panic!("{}", p.message),
    }
}

/// [`map_tasks`] with panic isolation (see [`try_for_chunks`]).
pub fn try_map_tasks<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, PoolPanic> {
    let inject = crate::faults::take_armed_worker_panic();
    let armed = ntr_obs::pool::enabled();
    let t = threads.clamp(1, n.max(1));
    if t <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        dispatch_single(inject, armed, || out.extend((0..n).map(&f)))?;
        return Ok(out);
    }
    let inner = (max_threads() / t).max(1);
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    struct SlotPtr<T>(*mut Option<T>);
    impl<T> Clone for SlotPtr<T> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<T> Copy for SlotPtr<T> {}
    unsafe impl<T: Send> Send for SlotPtr<T> {}
    unsafe impl<T: Send> Sync for SlotPtr<T> {}
    let slots = SlotPtr(out.as_mut_ptr());
    let body = |c: usize| {
        // Capture the wrapper, not its raw-pointer field (edition-2021
        // disjoint capture would otherwise grab the non-Sync `*mut`).
        #[allow(clippy::redundant_locals)]
        let slots = slots;
        let (start, take) = chunk_bounds(n, t, c);
        with_threads(inner, || {
            for off in 0..take {
                let value = f(start + off);
                // SAFETY: slot ranges are disjoint per chunk and `out`
                // outlives the dispatch.
                unsafe { *slots.0.add(start + off) = Some(value) };
            }
        })
    };
    dispatch_multi(t, inject, armed, &body)?;
    Ok(out
        .into_iter()
        .map(|s| s.expect("map_tasks: worker filled every slot"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = max_threads();
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            with_threads(1, || assert_eq!(max_threads(), 1));
            assert_eq!(max_threads(), 3);
        });
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn for_chunks_covers_every_unit_once() {
        for threads in 1..=5 {
            for units in [1usize, 2, 3, 7, 16] {
                let unit = 3;
                let mut data = vec![0.0f32; units * unit];
                for_chunks(&mut data, unit, threads, |start, chunk| {
                    for (u, row) in chunk.chunks_mut(unit).enumerate() {
                        for x in row.iter_mut() {
                            *x += (start + u) as f32 + 1.0;
                        }
                    }
                });
                let expect: Vec<f32> = (0..units)
                    .flat_map(|u| std::iter::repeat_n(u as f32 + 1.0, unit))
                    .collect();
                assert_eq!(data, expect, "threads={threads} units={units}");
            }
        }
    }

    #[test]
    fn for_chunks_handles_more_threads_than_units() {
        let mut data = vec![0.0f32; 2];
        for_chunks(&mut data, 1, 64, |start, chunk| {
            for x in chunk.iter_mut() {
                *x = start as f32;
            }
        });
        assert_eq!(data, vec![0.0, 1.0]);
    }

    #[test]
    fn map_tasks_preserves_order() {
        for threads in 1..=6 {
            let got = map_tasks(11, threads, |i| i * i);
            let expect: Vec<usize> = (0..11).map(|i| i * i).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn pool_counters_record_when_armed() {
        ntr_obs::pool::reset();
        ntr_obs::pool::set_enabled(true);
        let mut data = vec![0.0f32; 8];
        for_chunks(&mut data, 1, 4, |_, chunk| {
            for x in chunk.iter_mut() {
                *x += 1.0;
            }
        });
        ntr_obs::pool::set_enabled(false);
        // Other tests may run concurrently and add their own dispatches, so
        // assert lower bounds only.
        let s = ntr_obs::pool::snapshot();
        assert!(s.dispatches >= 1, "dispatch not recorded: {s:?}");
        assert!(s.tasks >= 4, "fan-out not recorded: {s:?}");
    }

    #[test]
    fn map_tasks_scales_down_nested_parallelism() {
        with_threads(4, || {
            let inner = map_tasks(4, 4, |_| max_threads());
            assert_eq!(inner, vec![1, 1, 1, 1]);
        });
    }

    #[test]
    fn repeated_dispatches_reuse_the_pool_bit_identically() {
        let reference: Vec<f32> = (0..1024).map(|i| (i as f32).sin()).collect();
        for round in 0..10 {
            let mut data = vec![0.0f32; 1024];
            for_chunks(&mut data, 1, 4, |start, chunk| {
                for (u, x) in chunk.iter_mut().enumerate() {
                    *x = ((start + u) as f32).sin();
                }
            });
            assert_eq!(data, reference, "round {round}");
        }
    }
}
