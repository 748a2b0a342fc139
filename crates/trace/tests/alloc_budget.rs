//! The trace crate's memory budgets, as tests:
//!
//! * once the first epoch has sized a sink's line buffer, serializing a
//!   span allocates nothing — no `format!`, no escaped-label `String`, no
//!   number buffer;
//! * buffered recording grows one span log (one allocation per doubling,
//!   however many lanes record), and `finish` turns that log into the
//!   trace in place, holding beside it no more than a `u32` per span and a
//!   few words per lane — never a second span buffer;
//! * a span is 40 bytes and names its kernel by a shared handle, so a log
//!   told its span count holds 40 bytes a span, allocated once — and
//!   nothing while a sink is attached, whose log holds an epoch window;
//! * a streamed epoch is handed to the sink from the log's own buffer:
//!   once warm, a start-ordered stream allocates nothing per epoch and
//!   holds a few KiB beside the log, and an out-of-order one holds at
//!   most a `u32` per span beside it;
//! * per-kernel statistics allocate per class, not per span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use supersim_trace::sink::{ChromeStreamSink, NdjsonSink, NullSink};
use supersim_trace::{KernelName, Trace, TraceEvent, TraceRecorder, TraceSink, TraceStats};

/// Counts this thread's allocations and live bytes (tests run on
/// parallel threads).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Count `delta` live bytes; an allocation raises the count by one.
fn note(delta: isize, allocation: bool) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + u64::from(allocation)));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Reset the peak to the current live bytes and return them.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so touching them
// allocates nothing and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, true);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SINK_SPANS: usize = 10_000;

/// `des-stream`-like spans: accumulated `k · 1e-4` clocks, the four tile
/// kernels, a fault-marked label and one that needs escaping.
fn stream_spans() -> Vec<TraceEvent> {
    let labels =
        ["dpotrf", "dtrsm", "dsyrk", "dgemm", "dgemm!fail", "we\"ird"].map(KernelName::from);
    let mut clock = 0.0;
    (0..SINK_SPANS)
        .map(|i| {
            let start = clock;
            clock += 1e-4 * (i % 7 + 1) as f64;
            TraceEvent {
                worker: i % 48,
                kernel: labels[i % labels.len()].clone(),
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
    let spans = stream_spans();
    let mut out = Vec::with_capacity(SINK_SPANS * 256);
    let mut sink = NdjsonSink::new(&mut out);
    assert_eq!(steady_state_allocations(&mut sink, &spans), 0);
    drop(sink);
    assert_eq!(
        String::from_utf8(out).unwrap().lines().count(),
        SINK_SPANS + 1,
        "one line per span"
    );
}

#[test]
fn chrome_stream_sink_allocates_nothing_per_span() {
    let spans = stream_spans();
    let mut out = Vec::with_capacity(SINK_SPANS * 256);
    let mut sink = ChromeStreamSink::new(&mut out);
    assert_eq!(steady_state_allocations(&mut sink, &spans), 0);
}

/// A power of two, so the log's capacity equals its length and
/// `finish`'s `shrink_to_fit` frees nothing that could hide a buffer.
const LOG_SPANS: usize = 1 << 17;
const LANES: usize = 48;

/// `des-dense`-like spans: lanes take turns, each lane's spans back to
/// back in record order (the engines' case), named by the four tile
/// kernels' shared names.
fn dense_spans(n: usize) -> Vec<TraceEvent> {
    let labels = ["dpotrf", "dtrsm", "dsyrk", "dgemm"].map(KernelName::from);
    (0..n)
        .map(|i| {
            let start = 1.0 + (i / LANES) as f64 * 1e-3;
            TraceEvent {
                worker: (i * 7) % LANES,
                kernel: labels[i % labels.len()].clone(),
                task_id: i as u64,
                start,
                end: start + 1e-3,
            }
        })
        .collect()
}

#[test]
fn buffered_recording_grows_one_log() {
    let spans = dense_spans(LOG_SPANS);
    let r = TraceRecorder::new();
    let before = allocations();
    for e in spans {
        r.record_event(e);
    }
    let grown = allocations() - before;
    // One allocation per doubling of one log: log2(2^17) = 17. A log
    // per lane group (32 shards) made hundreds.
    assert!(grown <= 20, "{grown} allocations for {LOG_SPANS} spans");
    assert_eq!(r.len(), LOG_SPANS);
}

#[test]
fn finish_holds_a_u32_per_span_beside_the_log() {
    let spans = dense_spans(LOG_SPANS);
    let r = TraceRecorder::new();
    for e in spans {
        r.record_event(e);
    }
    let log = reset_peak();
    let trace = r.finish(LANES);
    let above = PEAK.with(Cell::get) - log;
    let budget = (4 * LOG_SPANS + 64 * LANES + 1024) as isize;
    assert!(
        above <= budget,
        "finish held {above} B beside the log, budget {budget} B ({LOG_SPANS} spans)"
    );
    assert_eq!(trace.len(), LOG_SPANS);
    assert_eq!(trace.spans()[0].start, 0.0);
    assert!(trace.spans().windows(2).all(|w| {
        (w[0].worker, w[0].start, w[0].task_id) <= (w[1].worker, w[1].start, w[1].task_id)
    }));
}

/// Not a power of two, so a log that doubled its way up would hold a
/// third more than its spans.
const TOLD_SPANS: usize = 100_000;

#[test]
fn a_log_told_its_span_count_holds_forty_bytes_a_span() {
    assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
    let spans = dense_spans(TOLD_SPANS);
    let r = TraceRecorder::new();
    let (base, before) = (reset_peak(), allocations());
    r.expect_spans(TOLD_SPANS as u64);
    // Cloning a span clones its name's handle: no allocation.
    for e in &spans {
        r.record_event(e.clone());
    }
    let (held, made) = (PEAK.with(Cell::get) - base, allocations() - before);
    let budget = (40 * TOLD_SPANS + 64 * LANES + 1024) as isize;
    assert!(
        held <= budget,
        "the log held {held} B for {TOLD_SPANS} spans, budget {budget} B"
    );
    assert_eq!(made, 1, "one allocation for the whole log");
    let trace = r.finish(LANES);
    assert_eq!(trace.len(), TOLD_SPANS);
}

#[test]
fn the_span_count_is_ignored_while_a_sink_is_attached() {
    let r = TraceRecorder::new();
    r.attach_sink(Box::new(NullSink), 1.0);
    let base = reset_peak();
    r.expect_spans(1 << 20);
    let held = PEAK.with(Cell::get) - base;
    assert!(
        held < 1024,
        "a streamed log reserved {held} B for spans it never holds"
    );
    for e in dense_spans(1_000) {
        r.record_event(e);
    }
    assert!(r.finish(LANES).is_empty());
    assert_eq!(r.drained(), 1_000);
}

const STREAM_SPANS: u64 = 1 << 17;
/// Spans per flush epoch (32 epochs in all) and spans in flight at once.
const EPOCH_SPANS: u64 = 4096;
const IN_FLIGHT: u64 = 64;
/// What the recorder may hold beside the log: the spare for the kept
/// spans and the sink's box, not a batch.
const BESIDE: isize = 16 << 10;

/// Stream `STREAM_SPANS` spans through a `NullSink` in `des-stream`'s
/// pattern: span `i` starts at `i·δ` and runs for `IN_FLIGHT·δ`, and the
/// clock is observed at each start, an epoch being `EPOCH_SPANS·δ`.
/// `reorder` maps a record index to the span recorded there. Returns
/// the allocations made and the peak held beside the log once warm
/// (after the first four epochs, which size the log and the spare).
fn stream_through_null_sink(reorder: impl Fn(u64) -> u64) -> (u64, isize) {
    let labels = ["dpotrf", "dtrsm", "dsyrk", "dgemm"].map(KernelName::from);
    let delta = 1.0 / EPOCH_SPANS as f64;
    let r = TraceRecorder::new();
    r.attach_sink(Box::new(NullSink), EPOCH_SPANS as f64 * delta);
    let (mut base, mut before) = (0, 0);
    for i in 0..STREAM_SPANS {
        if i == 4 * EPOCH_SPANS {
            (base, before) = (reset_peak(), allocations());
        }
        let id = reorder(i);
        let start = id as f64 * delta;
        r.record_event(TraceEvent {
            worker: (id % IN_FLIGHT) as usize,
            kernel: labels[(id % 4) as usize].clone(),
            task_id: id,
            start,
            end: start + IN_FLIGHT as f64 * delta,
        });
        r.observe_clock(i as f64 * delta);
    }
    let made = allocations() - before;
    let beside = PEAK.with(Cell::get) - base;
    r.finish(IN_FLIGHT as usize);
    assert_eq!(r.drained(), STREAM_SPANS);
    (made, beside)
}

#[test]
fn a_streamed_epoch_is_flushed_from_the_log_itself() {
    let (made, beside) = stream_through_null_sink(|i| i);
    assert_eq!(made, 0, "28 warm epochs made {made} allocations");
    assert!(
        beside <= BESIDE,
        "the recorder held {beside} B beside the log, budget {BESIDE} B"
    );
}

#[test]
fn an_out_of_order_epoch_holds_a_u32_per_span_beside_the_log() {
    // Each run of 64 spans recorded backwards: every batch is out of
    // start order, as transient segments or threaded recording make it.
    let (_, beside) = stream_through_null_sink(|i| i ^ (IN_FLIGHT - 1));
    let budget = 4 * EPOCH_SPANS as isize + BESIDE;
    assert!(
        beside <= budget,
        "the recorder held {beside} B beside the log, budget {budget} B \
         ({EPOCH_SPANS} spans an epoch)"
    );
}

#[test]
fn trace_stats_allocate_per_class_not_per_span() {
    let trace = Trace::from_parts(LANES, dense_spans(LOG_SPANS));
    let before = allocations();
    let stats = TraceStats::of(&trace);
    let made = allocations() - before;
    // Two per-lane vectors, the map's node and a key per class (4).
    assert!(made <= 10, "{made} allocations for {LOG_SPANS} spans");
    assert_eq!(stats.kernels.len(), 4);
    assert_eq!(stats.kernels["dgemm"].count, LOG_SPANS / 4);
}
