//! Thread-safe trace recording.
//!
//! In a real run every worker thread logs `(worker, kernel, start, end)` in
//! wall-clock seconds; in a simulated run the sim-kernel protocol logs the
//! same tuple in virtual time. Both go through [`TraceRecorder`].
//!
//! The recorder is **sharded**: events land in one of `SHARDS` per-shard
//! buffers selected by `worker % SHARDS`, so concurrent workers recording
//! on different shards never contend on a common lock. Each event is
//! stamped with a globally unique sequence number from a single atomic
//! counter, the tie-breaker that makes every merge deterministic for a
//! given set of recorded events regardless of shard interleaving.
//! [`TraceRecorder::snapshot`] and [`TraceRecorder::finish`] deal the
//! shards out lane by lane into the normalized order `(worker, start −
//! t0, task_id, start, seq)` — what a `(start, seq)` merge followed by
//! [`Trace::normalize`] would give — in one pass, because a lane's spans
//! sit in one shard and, one task at a time, were pushed in that order
//! already; a lane found out of order is sorted.
//!
//! # Streaming (bounded-memory) mode
//!
//! [`TraceRecorder::attach_sink`] switches the recorder into streaming
//! mode: whenever an engine reports virtual-clock progress via
//! [`TraceRecorder::observe_clock`], every flush epoch the clock has
//! advanced strictly past is drained from the shards — spans with
//! `end ≤ k·ε` for epoch `k` — sorted by the same `(start, seq)` order
//! the buffered merge uses, and pushed to the [`TraceSink`]. Resident
//! memory is then bounded by the spans of one epoch window instead of
//! the whole run.
//!
//! This is safe because of how the engines record: spans are logged with
//! their *final* virtual times before the task retires, and both engines
//! retire tasks in nondecreasing virtual-time order. Once the clock has
//! advanced past an epoch bound, every span ending at or before that
//! bound is already in the shards and can never be joined by another —
//! any span recorded later starts (and therefore ends) past the bound.
//! Flushing is therefore both safe and complete, and epoch batches are a
//! pure function of the recorded span set, not of which thread happened
//! to trip the boundary.
//!
//! ## Accounting under partial drains
//!
//! In streaming mode the shards hold only the *resident* (not yet
//! drained) tail of the trace, which changes what the inspection
//! methods report:
//!
//! * [`TraceRecorder::len`] / [`TraceRecorder::shard_occupancy`] /
//!   [`TraceRecorder::is_empty`] — resident spans only;
//! * [`TraceRecorder::drained`] — spans already pushed to the sink;
//! * [`TraceRecorder::total_recorded`] — lifetime count (resident +
//!   drained + anything dropped by [`TraceRecorder::clear`]);
//! * [`TraceRecorder::snapshot`] — a normalized trace of the resident
//!   window only (a *partial* trace mid-stream);
//! * [`TraceRecorder::clear`] — drops resident spans; they never reach
//!   the sink and are not counted as drained. The sink stays attached.
//! * [`TraceRecorder::finish`] — flushes every remaining span as one
//!   final epoch, closes the sink, detaches it, and returns the
//!   (therefore empty) resident trace.

use crate::sink::TraceSink;
use crate::{Trace, TraceEvent};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent event buffers. Workers map onto shards by
/// `worker % SHARDS`; 32 shards keep lock collisions rare for any
/// realistic worker count while bounding per-recorder memory.
const SHARDS: usize = 32;

/// One shard: a locked event buffer, padded to its own cache line so
/// neighbouring shard locks do not false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Shard {
    events: Mutex<Vec<(u64, TraceEvent)>>,
}

/// Streaming-mode state behind `Inner::stream`.
struct StreamState {
    sink: Box<dyn TraceSink>,
    /// Flush epoch length `ε` in virtual seconds.
    epoch: f64,
    /// Index `k` of the next epoch to flush; its upper bound is `k·ε`
    /// (computed by multiplication, not accumulation, so long runs do
    /// not drift).
    next_epoch: u64,
    /// First sink error, if any; later flushes are still attempted.
    error: Option<String>,
}

impl std::fmt::Debug for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamState")
            .field("epoch", &self.epoch)
            .field("next_epoch", &self.next_epoch)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Shard>,
    /// Global event sequence stamp: the deterministic merge tie-breaker.
    seq: AtomicU64,
    /// Spans drained to the attached sink so far (lifetime, survives
    /// sink detach).
    drained: AtomicU64,
    /// Bits of the next pending epoch bound, `f64::INFINITY` when no
    /// sink is attached — the lock-free fast path for
    /// [`TraceRecorder::observe_clock`].
    next_bound: AtomicU64,
    stream: Mutex<Option<StreamState>>,
}

/// The order of two stamped spans of one lane in a normalized trace whose
/// time origin is `t0`: by shifted start and task id (what
/// [`Trace::normalize`] sorts by), then by the `(start, seq)` merge order
/// its stable sort preserves among equals.
fn lane_order(t0: f64, a: &(u64, TraceEvent), b: &(u64, TraceEvent)) -> std::cmp::Ordering {
    (a.1.start - t0, a.1.task_id)
        .partial_cmp(&(b.1.start - t0, b.1.task_id))
        .expect("non-finite times in trace")
        .then(a.1.start.total_cmp(&b.1.start))
        .then(a.0.cmp(&b.0))
}

/// A shareable, thread-safe accumulator of trace events.
///
/// Cloning shares the underlying buffers ([`Arc`] internally), so every
/// worker thread can own a handle.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    inner: Arc<Inner>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            inner: Arc::new(Inner {
                shards: (0..SHARDS).map(|_| Shard::default()).collect(),
                seq: AtomicU64::new(0),
                drained: AtomicU64::new(0),
                next_bound: AtomicU64::new(f64::INFINITY.to_bits()),
                stream: Mutex::new(None),
            }),
        }
    }
}

impl TraceRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    pub fn record(&self, worker: usize, kernel: &str, task_id: u64, start: f64, end: f64) {
        self.record_event(TraceEvent {
            worker,
            kernel: kernel.to_string(),
            task_id,
            start,
            end,
        });
    }

    /// Record a prebuilt event.
    pub fn record_event(&self, event: TraceEvent) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let shard = &self.inner.shards[event.worker % SHARDS];
        shard.events.lock().push((seq, event));
    }

    /// Number of events currently resident (recorded and, in streaming
    /// mode, not yet drained).
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.events.lock().len())
            .sum()
    }

    /// Whether no events are resident.
    pub fn is_empty(&self) -> bool {
        self.inner.shards.iter().all(|s| s.events.lock().is_empty())
    }

    /// Drop all resident events. The sequence stamp keeps counting up —
    /// only relative order within one merge matters. In streaming mode
    /// the dropped events never reach the sink and are **not** counted
    /// as drained; the sink itself stays attached.
    pub fn clear(&self) {
        for s in &self.inner.shards {
            s.events.lock().clear();
        }
    }

    /// Merge the shards into a normalized [`Trace`] of at least `workers`
    /// lanes: spans in `(worker, start′, task_id, start, seq)` order with
    /// `start′ = start − t0` the time shifted so the earliest start is 0
    /// — the order a `(start, seq)` merge followed by
    /// [`Trace::normalize`]'s stable `(worker, start′, task_id)` sort
    /// produces. One pass instead of two sorts: a lane's spans all sit in
    /// one shard, and a lane runs one task at a time, so they were pushed
    /// in that order already. Each lane is checked, a shard holding a lane
    /// that is not in order is sorted, and the shards are dealt out lane
    /// by lane. `take` empties the recorder; otherwise spans are copied.
    fn merged(&self, workers: usize, take: bool) -> Trace {
        let mut shards: Vec<Vec<(u64, TraceEvent)>> = self
            .inner
            .shards
            .iter()
            .map(|s| {
                let mut guard = s.events.lock();
                if take {
                    std::mem::take(&mut *guard)
                } else {
                    guard.clone()
                }
            })
            .collect();

        // Lane sizes and the time origin.
        let mut lane_end = vec![0usize; workers];
        let mut t0 = f64::INFINITY;
        for (_, e) in shards.iter().flatten() {
            if e.worker >= lane_end.len() {
                lane_end.resize(e.worker + 1, 0);
            }
            lane_end[e.worker] += 1;
            t0 = t0.min(e.start);
        }
        // `x - 0.0` is `x` bit for bit, so "no shift" is a shift by zero.
        let t0 = if t0.is_finite() && t0 != 0.0 { t0 } else { 0.0 };

        // Each lane in order? A lane lives in one shard, so `latest` (the
        // index of a lane's latest span within its shard) needs no reset
        // between shards.
        let mut latest: Vec<Option<usize>> = vec![None; lane_end.len()];
        for shard in &mut shards {
            let ordered = (0..shard.len()).all(|i| {
                let prev = latest[shard[i].1.worker].replace(i);
                prev.is_none_or(|p| lane_order(t0, &shard[p], &shard[i]).is_le())
            });
            if !ordered {
                shard.sort_by(|a, b| {
                    let by_lane = a.1.worker.cmp(&b.1.worker);
                    by_lane.then_with(|| lane_order(t0, a, b))
                });
            }
        }

        // Deal the spans out: lane `l` fills `[lane_end[l-1], lane_end[l])`.
        let mut total = 0;
        for n in &mut lane_end {
            total += *n;
            *n = total - *n;
        }
        let mut events = vec![TraceEvent::default(); total];
        for (_, e) in shards.into_iter().flatten() {
            let slot = &mut lane_end[e.worker];
            events[*slot] = TraceEvent {
                start: e.start - t0,
                end: e.end - t0,
                ..e
            };
            *slot += 1;
        }
        Trace::from_parts(lane_end.len(), events)
    }

    /// Remove every resident event with `end <= bound` and return them
    /// in `(start, seq)` order — one flush-epoch batch.
    fn drain_upto(&self, bound: f64) -> Vec<TraceEvent> {
        let mut stamped: Vec<(u64, TraceEvent)> = Vec::new();
        for s in &self.inner.shards {
            let mut guard = s.events.lock();
            let mut i = 0;
            while i < guard.len() {
                if guard[i].1.end <= bound {
                    stamped.push(guard.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        stamped.sort_by(|a, b| a.1.start.total_cmp(&b.1.start).then(a.0.cmp(&b.0)));
        stamped.into_iter().map(|(_, e)| e).collect()
    }

    /// The number of shards events are distributed over.
    pub fn shard_count(&self) -> usize {
        SHARDS
    }

    /// Events currently buffered in each shard (index = shard). A heavily
    /// skewed distribution means workers are aliasing onto few shards and
    /// contending on their locks. In streaming mode this covers resident
    /// events only.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| s.events.lock().len())
            .collect()
    }

    /// Total events ever recorded through this recorder, including ones
    /// since drained to a sink, consumed by [`TraceRecorder::finish`] or
    /// dropped by [`TraceRecorder::clear`] (read from the global
    /// sequence stamp).
    pub fn total_recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Spans pushed to an attached sink so far, across the recorder's
    /// lifetime (the counter survives sink detach at
    /// [`TraceRecorder::finish`]).
    pub fn drained(&self) -> u64 {
        self.inner.drained.load(Ordering::Relaxed)
    }

    /// Whether a sink is currently attached.
    pub fn is_streaming(&self) -> bool {
        self.inner.stream.lock().is_some()
    }

    /// First error the attached sink reported, if any.
    pub fn sink_error(&self) -> Option<String> {
        self.inner
            .stream
            .lock()
            .as_ref()
            .and_then(|s| s.error.clone())
    }

    /// Switch into bounded-memory streaming mode: from now on, every
    /// [`TraceRecorder::observe_clock`] call drains the flush epochs the
    /// virtual clock has passed into `sink` (see the module docs for the
    /// epoch rule). `epoch` is the flush-epoch length in virtual
    /// seconds.
    ///
    /// # Panics
    ///
    /// If `epoch` is not positive and finite, or a sink is already
    /// attached.
    pub fn attach_sink(&self, sink: Box<dyn TraceSink>, epoch: f64) {
        assert!(
            epoch.is_finite() && epoch > 0.0,
            "flush epoch must be positive and finite, got {epoch}"
        );
        let mut guard = self.inner.stream.lock();
        assert!(guard.is_none(), "a trace sink is already attached");
        *guard = Some(StreamState {
            sink,
            epoch,
            next_epoch: 1,
            error: None,
        });
        self.inner
            .next_bound
            .store(epoch.to_bits(), Ordering::Release);
    }

    /// Report virtual-clock progress. Engines call this after every
    /// retirement; when no sink is attached (or the clock has not passed
    /// the next epoch bound yet) it is one relaxed atomic load.
    pub fn observe_clock(&self, now: f64) {
        let bound = f64::from_bits(self.inner.next_bound.load(Ordering::Relaxed));
        if now <= bound {
            return;
        }
        let mut guard = self.inner.stream.lock();
        let Some(st) = guard.as_mut() else { return };
        // Flush strictly elapsed epochs one by one: each batch is a pure
        // function of the epoch bounds and the spans' end times, so the
        // stream content is identical no matter how many boundaries one
        // observe_clock call happens to cross.
        loop {
            let bound = st.epoch * st.next_epoch as f64;
            if now <= bound {
                self.inner
                    .next_bound
                    .store(bound.to_bits(), Ordering::Relaxed);
                break;
            }
            let batch = self.drain_upto(bound);
            st.next_epoch += 1;
            if !batch.is_empty() {
                self.inner
                    .drained
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                if let Err(e) = st.sink.flush_epoch(&batch) {
                    st.error.get_or_insert_with(|| e.to_string());
                }
            }
        }
    }

    /// Take a normalized snapshot of the trace with `workers` lanes
    /// (grown if events reference higher worker indices). The recorder
    /// keeps its contents. In streaming mode this covers the resident
    /// window only — spans already drained to the sink are gone.
    pub fn snapshot(&self, workers: usize) -> Trace {
        self.merged(workers, false)
    }

    /// Consume the recorded events into a normalized [`Trace`], leaving the
    /// recorder empty.
    ///
    /// In streaming mode, every span still resident is first pushed to
    /// the sink as one final (partial) epoch, the sink is closed and
    /// detached, and the returned trace is empty — the spans live
    /// wherever the sink put them. Callers wanting both behaviours at
    /// once can stream into a [`crate::sink::CollectSink`].
    pub fn finish(&self, workers: usize) -> Trace {
        self.finish_stream();
        self.merged(workers, true)
    }

    /// Flush all resident spans to the attached sink (if any), close it
    /// and detach it. No-op when not streaming.
    pub fn finish_stream(&self) {
        let mut guard = self.inner.stream.lock();
        let Some(mut st) = guard.take() else { return };
        let batch = self.drain_upto(f64::INFINITY);
        if !batch.is_empty() {
            self.inner
                .drained
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            if let Err(e) = st.sink.flush_epoch(&batch) {
                st.error.get_or_insert_with(|| e.to_string());
            }
        }
        if let Err(e) = st.sink.close() {
            st.error.get_or_insert_with(|| e.to_string());
        }
        self.inner
            .next_bound
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use std::thread;

    #[test]
    fn record_and_finish() {
        let r = TraceRecorder::new();
        r.record(0, "a", 0, 0.0, 1.0);
        r.record(1, "b", 1, 0.5, 2.0);
        assert_eq!(r.len(), 2);
        let t = r.finish(2);
        assert_eq!(t.len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn snapshot_keeps_contents() {
        let r = TraceRecorder::new();
        r.record(0, "a", 0, 0.0, 1.0);
        let t = r.snapshot(1);
        assert_eq!(t.len(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn finish_normalizes_time_origin() {
        let r = TraceRecorder::new();
        r.record(0, "a", 0, 100.0, 101.0);
        r.record(0, "b", 1, 101.0, 103.0);
        let t = r.finish(1);
        assert_eq!(t.spans()[0].start, 0.0);
        assert!((t.makespan() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn grows_worker_count_from_events() {
        let r = TraceRecorder::new();
        r.record(7, "a", 0, 0.0, 1.0);
        let t = r.finish(2);
        assert_eq!(t.workers, 8);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = TraceRecorder::new();
        let handles: Vec<_> = (0..8)
            .map(|w| {
                let r = r.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        r.record(w, "k", (w * 100 + i) as u64, i as f64, i as f64 + 0.5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = r.finish(8);
        assert_eq!(t.len(), 800);
        // Every task id exactly once.
        let mut ids: Vec<u64> = t.spans().iter().map(|e| e.task_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 800);
    }

    #[test]
    fn clear_empties() {
        let r = TraceRecorder::new();
        r.record(0, "a", 0, 0.0, 1.0);
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn shards_beyond_worker_count_still_merge() {
        // Workers far above SHARDS wrap onto existing shards without loss.
        let r = TraceRecorder::new();
        for w in 0..(SHARDS * 3) {
            r.record(w, "k", w as u64, w as f64, w as f64 + 0.5);
        }
        let t = r.finish(1);
        assert_eq!(t.len(), SHARDS * 3);
        assert_eq!(t.workers, SHARDS * 3);
    }

    /// The merge `merged` replaced, kept as its oracle: every stamped span
    /// sorted by `(start, seq)`, then [`Trace::normalize`]'s time shift and
    /// stable `(worker, start′, task_id)` sort.
    fn two_sort_oracle(r: &TraceRecorder, workers: usize) -> Trace {
        let mut stamped: Vec<(u64, TraceEvent)> = Vec::new();
        for s in &r.inner.shards {
            stamped.extend(s.events.lock().iter().cloned());
        }
        stamped.sort_by(|a, b| a.1.start.total_cmp(&b.1.start).then(a.0.cmp(&b.0)));
        let mut t = Trace::from_parts(workers, stamped.into_iter().map(|(_, e)| e).collect());
        t.normalize();
        t
    }

    #[test]
    fn merge_order_is_deterministic_on_timestamp_ties() {
        // Same timestamps recorded from one thread across different
        // shards: the merge must equal the (start, seq) merge followed by
        // normalization, and two identical recorders must agree.
        let r = TraceRecorder::new();
        for i in 0..10u64 {
            r.record((i % 4) as usize, "k", i, 1.0, 2.0);
        }
        assert_eq!(r.snapshot(4), two_sort_oracle(&r, 4));
        let r2 = TraceRecorder::new();
        for i in 0..10u64 {
            r2.record((i % 4) as usize, "k", i, 1.0, 2.0);
        }
        assert_eq!(r.snapshot(4), r2.snapshot(4));
    }

    #[test]
    fn starts_collapsed_by_the_time_shift_order_by_task_id() {
        // A negative origin moves lane 0's two starts onto one float
        // (2^53 + 0.25 and 2^53 + 0.5 both round to 2^53), so the pair
        // recorded in start order must come out in task-id order — the
        // lane looks ordered before the shift and is not after it.
        let r = TraceRecorder::new();
        r.record(1, "origin", 0, -9007199254740992.0, 0.0);
        r.record(0, "late-id", 5, 0.25, 0.3);
        r.record(0, "early-id", 3, 0.5, 0.6);
        let t = r.snapshot(2);
        assert_eq!(t, two_sort_oracle(&r, 2));
        assert_eq!(t.spans()[0].start, t.spans()[1].start);
        assert_eq!(
            t.spans().iter().map(|e| e.task_id).collect::<Vec<_>>(),
            [3, 5, 0]
        );
    }

    mod merge_properties {
        use super::*;
        use proptest::prelude::*;

        /// `(worker, task_id, start, duration)` on coarse grids, so equal
        /// starts, shared task ids (a faulted task's failed / backoff /
        /// work spans) and zero-length spans are all common. 40 lanes
        /// over 32 shards: lanes 32.. share a shard with lanes 0..8.
        fn spans() -> impl Strategy<Value = Vec<(usize, u64, u32, u32)>> {
            prop::collection::vec((0usize..40, 0u64..6, 0u32..8, 0u32..3), 0..80)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `finish` and `snapshot` equal the two sorts they replaced,
            /// whether each lane was recorded in order (the engines' case:
            /// no sort runs) or not (the fallback sort runs), for a zero,
            /// positive, inexact and negative time origin.
            #[test]
            fn merge_equals_the_two_sorts(
                spans in spans(),
                lanes_in_order in any::<bool>(),
                origin in prop_oneof![Just(0.0), Just(100.0), Just(0.1), Just(-3e15)],
                workers in 0usize..48,
            ) {
                let mut spans = spans;
                if lanes_in_order {
                    // Stable: spans of one (lane, start, id) keep their order.
                    spans.sort_by_key(|&(_, id, start, _)| (start, id));
                }
                let r = TraceRecorder::new();
                for &(worker, id, start, dur) in &spans {
                    let start = origin + f64::from(start) * 0.25;
                    r.record(worker, "k", id, start, start + f64::from(dur) * 0.25);
                }
                let expected = two_sort_oracle(&r, workers);
                prop_assert_eq!(&r.snapshot(workers), &expected);
                prop_assert_eq!(r.len(), spans.len());
                prop_assert_eq!(&r.finish(workers), &expected);
                prop_assert!(r.is_empty());
            }
        }
    }

    #[test]
    fn observe_clock_flushes_elapsed_epochs_only() {
        let r = TraceRecorder::new();
        let sink = CollectSink::new();
        let handle = sink.handle();
        r.attach_sink(Box::new(sink), 1.0);
        r.record(0, "a", 0, 0.0, 0.5);
        r.record(1, "b", 1, 0.4, 1.0); // ends exactly on the epoch bound
        r.record(0, "c", 2, 0.8, 1.7); // crosses into epoch 2
        r.observe_clock(0.9); // bound 1.0 not passed yet
        assert_eq!(handle.len(), 0);
        r.observe_clock(1.0); // still not *strictly* past
        assert_eq!(handle.len(), 0);
        r.observe_clock(1.2);
        assert_eq!(handle.len(), 2, "spans ending ≤ 1.0 flushed");
        assert_eq!(r.len(), 1, "the crossing span stays resident");
        assert_eq!(r.drained(), 2);
        assert_eq!(r.total_recorded(), 3);
    }

    #[test]
    fn streamed_equals_buffered_order() {
        // Identical recordings, one streamed in several epochs, one
        // buffered: the concatenated epoch batches must equal the
        // buffered merge exactly.
        let record_all = |r: &TraceRecorder| {
            for i in 0..40u64 {
                let start = (i % 7) as f64 * 0.31;
                r.record((i % 5) as usize, "k", i, start, start + 0.9);
            }
        };
        let streamed = TraceRecorder::new();
        let sink = CollectSink::new();
        let handle = sink.handle();
        streamed.attach_sink(Box::new(sink), 0.4);
        record_all(&streamed);
        for step in 0..40 {
            streamed.observe_clock(step as f64 * 0.1);
        }
        let st = streamed.finish(5);
        assert!(st.is_empty(), "streaming finish leaves no resident trace");
        let buffered = TraceRecorder::new();
        record_all(&buffered);
        assert_eq!(handle.into_trace(5), buffered.finish(5));
    }

    #[test]
    fn finish_flushes_remainder_and_detaches() {
        let r = TraceRecorder::new();
        let sink = CollectSink::new();
        let handle = sink.handle();
        r.attach_sink(Box::new(sink), 10.0);
        r.record(0, "a", 0, 0.0, 1.0);
        assert!(r.is_streaming());
        let t = r.finish(1);
        assert!(t.is_empty());
        assert_eq!(handle.len(), 1);
        assert!(!r.is_streaming());
        assert_eq!(r.drained(), 1, "drained counter survives detach");
        // After detach the recorder buffers again.
        r.record(0, "b", 1, 1.0, 2.0);
        assert_eq!(r.finish(1).len(), 1);
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn clear_drops_resident_without_counting_drained() {
        let r = TraceRecorder::new();
        let sink = CollectSink::new();
        let handle = sink.handle();
        r.attach_sink(Box::new(sink), 1.0);
        r.record(0, "a", 0, 0.0, 0.5);
        r.observe_clock(1.5); // a drained
        r.record(0, "b", 1, 1.2, 1.8);
        r.clear(); // b dropped, never drained
        assert_eq!(r.len(), 0);
        assert_eq!(r.drained(), 1);
        assert_eq!(r.total_recorded(), 2);
        assert!(r.is_streaming(), "clear keeps the sink attached");
        r.finish(1);
        assert_eq!(handle.len(), 1, "only a ever reached the sink");
    }

    #[test]
    fn snapshot_mid_stream_is_resident_window_only() {
        let r = TraceRecorder::new();
        r.attach_sink(Box::new(CollectSink::new()), 1.0);
        r.record(0, "a", 0, 0.0, 0.5);
        r.record(0, "b", 1, 1.1, 1.9);
        r.observe_clock(2.5);
        let snap = r.snapshot(1);
        assert_eq!(snap.len(), 0, "everything ≤ 2.0 was drained");
        r.record(0, "c", 2, 2.6, 3.4);
        assert_eq!(r.snapshot(1).len(), 1);
        assert_eq!(r.shard_occupancy().iter().sum::<usize>(), 1);
    }

    #[test]
    #[should_panic(expected = "flush epoch must be positive")]
    fn attach_sink_rejects_bad_epoch() {
        TraceRecorder::new().attach_sink(Box::new(CollectSink::new()), 0.0);
    }

    #[test]
    fn concurrent_streaming_loses_nothing() {
        // Recording races observe_clock from many threads; the union of
        // sink content and resident events must still be exact.
        let r = TraceRecorder::new();
        let sink = CollectSink::new();
        let handle = sink.handle();
        r.attach_sink(Box::new(sink), 0.5);
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let r = r.clone();
                thread::spawn(move || {
                    for i in 0..200 {
                        let start = i as f64 * 0.01;
                        r.record(w, "k", (w * 200 + i) as u64, start, start + 0.02);
                        r.observe_clock(start + 0.02);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        r.finish(4);
        let mut ids: Vec<u64> = handle.take().iter().map(|e| e.task_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 800);
    }
}
