//! Allocation guard for the supervisor's rollback snapshot. A counting
//! global allocator, local to this test binary, measures what
//! `Trainer::capture_into` allocates when it refills a snapshot after a
//! run's first step: nothing beyond what the model's own parameter visitor
//! allocates for its path names, and nothing at all on a model whose
//! visitor builds none.
//!
//! Only this binary installs the hook; no library crate declares a global
//! allocator, so no other program pays for the counting.

use ntr_models::{ModelConfig, Tapas};
use ntr_nn::init::SeededInit;
use ntr_nn::{Layer, Linear};
use ntr_tasks::trainer::{Snapshot, Trainer};
use ntr_tasks::TrainConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated on this thread while counting is on.
    static BYTES: Cell<Option<u64>> = const { Cell::new(None) };
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
    let _ = BYTES.try_with(|c| c.set(c.get().map(|b| b + bytes as u64)));
}

/// Bytes that `f` allocates on the calling thread.
fn measure(f: impl FnOnce()) -> u64 {
    BYTES.with(|c| c.set(Some(0)));
    f();
    BYTES.with(|c| c.replace(None)).expect("counting was on")
}

/// Captures `model`'s state at the start of a run, takes the run's first
/// optimizer step (which gives every parameter Adam moments) and returns
/// the bytes of the refill after it, with the bytes of a bare visit of the
/// parameters and RNG streams.
fn refill_bytes(model: &mut dyn Layer) -> (u64, u64) {
    let mut trainer = Trainer::new(&TrainConfig::default(), 8);
    let mut snap = Snapshot::default();
    trainer.capture_into(model, &mut snap);
    trainer.step(model).expect("no checkpoint is configured");
    let refill = measure(|| trainer.capture_into(model, &mut snap));
    let visit = measure(|| {
        model.visit_params(&mut |_, _| {});
        model.visit_rng_state(&mut |_, _| {});
    });
    (refill, visit)
}

#[test]
fn a_snapshot_refill_allocates_nothing_of_its_own() {
    let mut linear = Linear::new(16, 8, &mut SeededInit::new(1));
    assert_eq!(
        refill_bytes(&mut linear),
        (0, 0),
        "Linear names its params without allocating"
    );

    // The `train_mlm` model: its visitor formats each parameter's path, and
    // the refill adds no byte to that.
    let mut tapas = Tapas::new(&ModelConfig::default());
    let (refill, visit) = refill_bytes(&mut tapas);
    assert_eq!(
        refill, visit,
        "a refill of Tapas allocates beyond its visitor's names"
    );
}
