//! The allocation guard of TRIC's hot path: a warm TRIC+ run allocates
//! nothing of its own.
//!
//! A sliding window alternates signs, so nearly every update of a windowed
//! stream is a same-sign run of its own, and anything `stage_run` allocates
//! per run is paid per update. This binary counts, with a counting global
//! allocator, the heap allocations bare TRIC+ makes while it answers a
//! sliding-window SNB stream in 64-update batches after a warm-up, and
//! fails if the count per update grows past what the engine-owned run
//! scratch reaches. What is left is the covering-path join's per-term
//! set-up and one report per batch; a per-run delta map, depth queue or
//! per-run report that comes back shows here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gsm_core::engine::ContinuousEngine;
use gsm_datagen::{Dataset, Workload, WorkloadConfig};
use gsm_tric::TricEngine;

/// Allocations and reallocations made by this thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`; the caller's guarantees pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Updates per `apply_batch`, as the benchmark's pipelines flush them.
const BATCH: usize = 64;

/// The most heap allocations per update a warm run may make: what the
/// engine-owned run scratch reaches on this stream (4.197 measured, in
/// debug and release builds alike). About 4.13 of them are
/// `join_bindings`' per-term set-up and the rest one report per batch.
/// The per-run delta maps, depth queue, affected-query vector and report
/// merges it replaced cost 18.07 on the same stream.
const MAX_ALLOCATIONS_PER_UPDATE: f64 = 4.2;

#[test]
fn a_warm_tric_plus_run_allocates_only_the_join_set_up() {
    // The windowed SNB shape of the benchmark's `engine_snb_win1k` — 60
    // three-edge queries, a 1 000-edge window — on a shorter stream.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 8_000, 60)
            .with_query_size(3)
            .with_seed(7)
            .with_sliding_window(1_000),
    );
    let stream = workload.stream.as_slice();
    let mut engine = TricEngine::tric_plus();
    for q in &workload.queries {
        engine.register_query(q).expect("register");
    }
    // Warm up over the first half: the window fills, and the views, the
    // join builds and the run scratch grow to their working size.
    let (warm, measured) = stream.split_at(stream.len() / 2);
    for batch in warm.chunks(BATCH) {
        engine.apply_batch(batch);
    }
    let before = allocations();
    let mut changed = 0;
    for batch in measured.chunks(BATCH) {
        changed += engine.apply_batch(batch).len();
    }
    let per_update = (allocations() - before) as f64 / measured.len() as f64;
    println!(
        "{per_update:.4} allocations per update over {} updates",
        measured.len()
    );
    assert!(changed > 0, "the measured half must answer something");
    assert!(
        measured.iter().filter(|u| u.is_retraction()).count() > measured.len() / 3,
        "the measured half must slide the window"
    );
    assert!(
        per_update <= MAX_ALLOCATIONS_PER_UPDATE,
        "{per_update:.2} heap allocations per update, more than the {MAX_ALLOCATIONS_PER_UPDATE} \
         a warm run makes: something allocates per run again"
    );
}
