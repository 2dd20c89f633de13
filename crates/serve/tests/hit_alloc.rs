//! Allocation guard for a warm cache hit. A counting global allocator,
//! local to this test binary, measures what the event loop's hit path
//! allocates for one request line: the scan (a borrowed JSON tree and the
//! body's two flat lists), the key, the lookup, and the rendering into a
//! connection's write buffer. No table is built and no float is formatted
//! through a `String`, so the count stays a small constant; if either comes
//! back, the bound fails.
//!
//! Only this binary installs the hook; no library crate declares a global
//! allocator, so no other program pays for the counting.

use ntr::{build_encoder, EncoderSpec, ModelKind, Pipeline};
use ntr_serve::wire::{self, WireRequest};
use ntr_serve::EmbeddingCache;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made on this thread while counting is on.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local bookkeeping is const-initialized, so it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

fn count() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

/// Allocations that `f` makes on the calling thread.
fn measure(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

/// Most allocations one warm hit may make. The request below needs 14: a
/// tree of one object, the column list, the row list and six rows (the
/// object and the row list grow once each), the escaped cell's string, and
/// the body's column and cell lists. Building the table and formatting
/// each float on its own took 112.
const MAX_HIT_ALLOCATIONS: u64 = 16;

#[test]
fn a_warm_hit_allocates_a_small_constant() {
    let line = r#"{"id": 9, "model": "tapas", "context": "capitals of europe",
        "columns": ["country", "capital", "population", "area"],
        "rows": [["France", "Paris", "67.8", "551695"], ["Spain", "Madrid", "47.4", "505990"],
                 ["Italy", "Rome", "58.9", "301340"], ["Portugal", "Lisbon", "10.3", "92212"],
                 ["Austria", "Vienna", "9.0", "83879"], ["Gr\u00e8ce", "Athens", "10.4", "131957"]]}"#;
    let Ok(WireRequest::Encode { req, .. }) = wire::parse_request(line) else {
        panic!("the request parses");
    };
    let pipeline = Pipeline::builder()
        .vocab_from_tables(std::slice::from_ref(&req.table))
        .vocab_size(300)
        .build()
        .expect("vocab");
    let (lin, opts) = (pipeline.linearizer().name(), pipeline.options());
    let spec = EncoderSpec::f32(ModelKind::Tapas);
    let model = build_encoder(spec, &pipeline.default_config()).expect("f32 spec");
    let enc = Arc::new(pipeline.encode(model.as_ref(), &req.table, &req.context));
    let mut cache = EmbeddingCache::new(64 << 20);
    for other in 0..63u64 {
        cache.insert(other, Arc::clone(&enc));
    }
    cache.insert(
        ntr_serve::content_key(spec, lin, opts, &req.table, &req.context),
        enc,
    );

    let mut write_buf = Vec::new();
    let mut hit = || {
        let Ok(WireRequest::Encode {
            id,
            req: (spec, body),
        }) = wire::scan(line)
        else {
            panic!("the request scans");
        };
        let found = cache.get(body.key(spec, lin, opts)).expect("a warm hit");
        write_buf.clear();
        wire::write_ok(&mut write_buf, id, &found, true);
    };
    hit(); // the write buffer reaches its size
    let counts: Vec<u64> = (0..8).map(|_| measure(&mut hit)).collect();
    let most = *counts.iter().max().unwrap();
    assert!(
        most <= MAX_HIT_ALLOCATIONS,
        "a warm hit made {counts:?} allocations, bound {MAX_HIT_ALLOCATIONS}"
    );
    assert_eq!(cache.stats().hits, 9);
}
