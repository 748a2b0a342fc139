//! The streaming sinks' allocation budget, as a test: once the first
//! epoch has sized a sink's line buffer, serializing a span allocates
//! nothing — no `format!`, no escaped-label `String`, no number buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use supersim_trace::sink::{ChromeStreamSink, NdjsonSink};
use supersim_trace::{TraceEvent, TraceSink};

/// Counts this thread's allocations (tests run on parallel threads).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so touching it
// allocates nothing and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SPANS: usize = 10_000;

/// `des-stream`-like spans: accumulated `k · 1e-4` clocks, the four tile
/// kernels, a fault-marked label and one that needs escaping.
fn spans() -> Vec<TraceEvent> {
    const LABELS: [&str; 6] = ["dpotrf", "dtrsm", "dsyrk", "dgemm", "dgemm!fail", "we\"ird"];
    let mut clock = 0.0;
    (0..SPANS)
        .map(|i| {
            let start = clock;
            clock += 1e-4 * (i % 7 + 1) as f64;
            TraceEvent {
                worker: i % 48,
                kernel: LABELS[i % LABELS.len()].to_string(),
                task_id: i as u64,
                start,
                end: clock,
            }
        })
        .collect()
}

/// Allocations of `sink.flush_epoch(spans)` after a first epoch.
fn steady_state_allocations(sink: &mut dyn TraceSink, spans: &[TraceEvent]) -> u64 {
    sink.flush_epoch(&spans[..1])
        .expect("a Vec accepts every write");
    let before = allocations();
    sink.flush_epoch(spans).expect("a Vec accepts every write");
    allocations() - before
}

#[test]
fn ndjson_sink_allocates_nothing_per_span() {
    let spans = spans();
    let mut out = Vec::with_capacity(SPANS * 256);
    let mut sink = NdjsonSink::new(&mut out);
    assert_eq!(steady_state_allocations(&mut sink, &spans), 0);
    drop(sink);
    assert_eq!(
        String::from_utf8(out).unwrap().lines().count(),
        SPANS + 1,
        "one line per span"
    );
}

#[test]
fn chrome_stream_sink_allocates_nothing_per_span() {
    let spans = spans();
    let mut out = Vec::with_capacity(SPANS * 256);
    let mut sink = ChromeStreamSink::new(&mut out);
    assert_eq!(steady_state_allocations(&mut sink, &spans), 0);
}
