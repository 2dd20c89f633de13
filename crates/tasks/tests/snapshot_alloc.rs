//! Allocation guard for the training step's state. A counting global
//! allocator, local to this test binary, measures what a warm
//! `Trainer::capture_into` (the supervisor's rollback snapshot), a bare
//! parameter and RNG visit, and a warm `Trainer::step` allocate after a
//! run's first step: nothing. Visitor paths are formatted only when
//! displayed, and Adam's moments live in buffers made on the first step.
//!
//! Only this binary installs the hook; no library crate declares a global
//! allocator, so no other program pays for the counting.

use ntr_models::{ModelConfig, Tapas};
use ntr_nn::init::SeededInit;
use ntr_nn::{Layer, Linear};
use ntr_tasks::trainer::{Snapshot, Trainer};
use ntr_tasks::TrainConfig;
use ntr_tensor::par;
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

/// Takes a run's first optimizer step (which allocates Adam's moments) and
/// captures a snapshot after it (which sizes the snapshot's copy of them),
/// then returns the bytes of a warm snapshot refill, of a bare visit of the
/// parameters and RNG streams, and of a warm step (Adam and the zeroing)
/// on one thread.
fn warm_bytes(model: &mut dyn Layer) -> [u64; 3] {
    let mut trainer = Trainer::new(model, &TrainConfig::default(), 8);
    let mut snap = Snapshot::default();
    trainer.step(model).expect("no checkpoint is configured");
    trainer.capture_into(model, &mut snap);
    let refill = measure(|| trainer.capture_into(model, &mut snap));
    let visit = measure(|| {
        model.visit_params(&mut |_, _| {});
        model.visit_rng_state(&mut |_, _| {});
    });
    let step = par::with_threads(1, || {
        measure(|| trainer.step(model).expect("no checkpoint is configured"))
    });
    [refill, visit, step]
}

#[test]
fn a_warm_refill_visit_and_step_allocate_nothing() {
    let mut linear = Linear::new(16, 8, &mut SeededInit::new(1));
    assert_eq!(warm_bytes(&mut linear), [0, 0, 0], "Linear");

    // The `train_mlm` model: its visitor names nested paths, and neither
    // the names nor Adam's moments cost an allocation once warm.
    let mut tapas = Tapas::new(&ModelConfig::default());
    assert_eq!(
        warm_bytes(&mut tapas),
        [0, 0, 0],
        "Tapas: refill, visit, step"
    );
}
