//! A streamed replay's memory follows its window, not its task count: the
//! peak live heap of a DES Cholesky with a streaming sink barely moves
//! when the matrix grows from 32 to 64 tiles (5,984 → 45,760 tasks).
//! Nothing may grow with the stream: not the task list (the factorization
//! is enumerated lazily), not the per-tile reader lists (retired readers
//! are forgotten), not the trace (spans drain to the sink).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use supersim::prelude::*;
use supersim::trace::sink::NullSink;

/// Tracks this thread's live heap bytes and their peak (tests run on
/// parallel threads; the replay runs on the test's own).
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so touching them
// allocates nothing and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap, in bytes above the start, of a streamed DES Cholesky
/// on `tiles × tiles` tiles and 48 lanes.
fn peak_heap(tiles: usize) -> i64 {
    let mut models = ModelRegistry::new();
    for label in Algorithm::Cholesky.labels() {
        models.insert(
            *label,
            KernelModel::new(Dist::log_normal(-6.0, 0.3).unwrap()),
        );
    }
    let session = SimSession::new(models, SimConfig::default());
    session
        .trace_recorder()
        .attach_sink(Box::new(NullSink), 1e-3);
    let scenario = Scenario::new(Algorithm::Cholesky)
        .tiles(tiles)
        .tile_size(64)
        .workers(48)
        .backend(Backend::Des)
        .session(session);
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let run = scenario.run_sim();
    assert_eq!(
        run.stats.completed,
        Algorithm::Cholesky.task_count(tiles as u64)
    );
    PEAK.with(Cell::get) - start
}

#[test]
fn streamed_replay_heap_grows_less_than_twice_from_32_to_64_tiles() {
    let (small, large) = (peak_heap(32), peak_heap(64));
    assert!(
        large < 2 * small,
        "peak live heap {small} B at 32 tiles, {large} B at 64 tiles"
    );
}
