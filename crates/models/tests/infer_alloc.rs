//! Allocation guard for the inference path. A counting global allocator,
//! local to this test binary, measures what `Tapas::infer` allocates: the
//! same number of allocations on every call (nothing accumulates across
//! requests), and clearly fewer bytes than a training forward, which records
//! activation caches and dropout masks. If caches creep back into
//! inference, the byte ratio fails. The table-level pass (`Rows::CLS`)
//! is held the same way, and to a clear cut below the full one: if its last
//! layer starts computing rows nobody reads, that ratio fails.
//!
//! Only this binary installs the hook; no library crate declares a global
//! allocator, so no other program pays for the counting.

use ntr_models::{EncoderInput, ModelConfig, Rows, SequenceEncoder, Tapas};
use ntr_tensor::par;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes)` made on this thread while counting is on.
    static COUNTS: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local bookkeeping is const-initialized, so it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn count(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        if let Some((n, b)) = c.get() {
            c.set(Some((n + 1, b + bytes as u64)));
        }
    });
}

/// `(allocations, bytes)` that `f` makes on the calling thread. Kernels are
/// held to one thread, so all of the encode's work happens here.
fn measure<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    par::with_threads(1, || {
        COUNTS.with(|c| c.set(Some((0, 0))));
        let out = f();
        let counts = COUNTS.with(|c| c.replace(None)).expect("counting was on");
        drop(out);
        counts
    })
}

/// A synthetic serialized table of `n` tokens: a context, then 12-token rows
/// of four columns.
fn input(n: usize) -> EncoderInput {
    EncoderInput {
        ids: (0..n).map(|i| 7 + (i * 31) % 250).collect(),
        rows: (0..n).map(|i| i / 12).collect(),
        cols: (0..n).map(|i| i % 4).collect(),
        segments: (0..n).map(|i| usize::from(i >= 8)).collect(),
        kinds: (0..n).map(|i| if i < 8 { 1 } else { 3 }).collect(),
        ranks: (0..n).map(|i| i % 5).collect(),
    }
}

#[test]
fn infer_allocates_the_same_every_call_and_less_than_a_training_forward() {
    // The default architecture at half width, so a hundred debug-build
    // encodes stay quick; dropout is on, as in training.
    let mut model = Tapas::new(&ModelConfig {
        vocab_size: 300,
        d_model: 32,
        d_ff: 64,
        ..ModelConfig::default()
    });
    let x = input(64);

    let steady = |rows: Rows| {
        let _warm_up = model.infer(&x, rows);
        let first = measure(|| model.infer(&x, rows));
        for call in 1..100 {
            assert_eq!(
                measure(|| model.infer(&x, rows)),
                first,
                "{rows:?} call {call}"
            );
        }
        println!("{rows:?}: {first:?} (allocations, bytes) per infer");
        first
    };
    let (_, all_bytes) = steady(Rows::All);
    let (_, table_bytes) = steady(Rows::CLS);

    let (_, train_bytes) = measure(|| model.encode(&x, true));
    assert!(
        all_bytes as f64 <= 0.8 * train_bytes as f64,
        "infer allocates {all_bytes} bytes, a training forward {train_bytes}"
    );
    let ratio = table_bytes as f64 / all_bytes as f64;
    println!("Rows::CLS / Rows::All bytes at [64, 32], 2 layers: {ratio:.3}");
    assert!(
        ratio <= 0.7,
        "a table-level infer allocates {table_bytes} bytes, a full one {all_bytes}"
    );
}
