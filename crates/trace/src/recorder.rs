//! Thread-safe trace recording.
//!
//! In a real run every worker thread logs `(worker, kernel, start, end)` in
//! wall-clock seconds; in a simulated run the sim-kernel protocol logs the
//! same tuple in virtual time. Both go through [`TraceRecorder`].
//!
//! The recorder keeps **one span log**: every engine — DES, threaded and
//! real — appends its spans to one locked `Vec` in record order, so a
//! span's position in the log is its sequence number, the tie-breaker
//! that makes every merge deterministic for a given recording. A span is
//! 40 bytes: its kernel is the class's shared [`crate::KernelName`], so
//! an engine records a task by cloning a handle
//! ([`TraceRecorder::record_event`]) and no label is copied per span.
//! A run that knows its span count in advance tells the recorder
//! ([`TraceRecorder::expect_spans`]), and the buffered log is allocated
//! once, at exactly that size, instead of doubling its way there.
//! [`TraceRecorder::finish`] turns the log into the normalized order
//! `(worker, start − t0, task_id, start, seq)` — what a `(start, seq)`
//! merge followed by [`Trace::normalize`] would give — in place: a stable
//! counting sort by lane (one `u32` destination per span, applied by
//! cycle-following swaps), then a check of each lane, which runs one task
//! at a time and so was recorded in that order already; a lane found out
//! of order is sorted.
//!
//! # Streaming (bounded-memory) mode
//!
//! [`TraceRecorder::attach_sink`] switches the recorder into streaming
//! mode: whenever an engine reports virtual-clock progress via
//! [`TraceRecorder::observe_clock`], every flush epoch the clock has
//! advanced strictly past is drained from the log — spans with
//! `end ≤ k·ε` for epoch `k` — in the same `(start, seq)` order the
//! buffered merge uses, and pushed to the [`TraceSink`]. Resident
//! memory is then bounded by the spans of one epoch window instead of
//! the whole run.
//!
//! An epoch is flushed from the log's own buffer. Under the log lock the
//! spans that stay (those ending past the bound: in-flight tasks, about
//! one per lane) move to a small spare `Vec`, which stands in as the log
//! while the taken spans, closed up in log order at the front of the
//! buffer, are out at the sink. The sink runs without the log lock (only
//! the lock that serializes flushes is held), so it may read the
//! recorder, and other threads record on.
//! Then the buffer is the log again, the kept spans and whatever was
//! recorded during the flush in front, in log order. So a streamed log
//! holds one epoch's resident spans, 40 bytes each, plus the kept ones:
//! there is no batch copy. A batch in `start` order — every DES epoch
//! without transient faults, whose spans are recorded at dispatch with
//! the nondecreasing loop clock as start — is handed over as it is; an
//! out-of-order one (transient-fault segments, threaded recording) is
//! sorted by one `u32` source position per span, applied by
//! cycle-following swaps.
//!
//! Epochs that hold no span are skipped, not walked: a drain notes the
//! earliest end among the spans it keeps, and the next epoch flushed is
//! the one holding that end, or the first whose bound is at or past the
//! clock. So a tiny epoch costs a drain per non-empty epoch, not one per
//! `ε` of virtual time; front ends still refuse an epoch below 1e-9
//! virtual seconds, which keeps the epoch index below 2⁵³ for any run
//! shorter than 10⁶ virtual seconds.
//!
//! This is safe because of how the engines record: spans are logged with
//! their *final* virtual times before the task retires, and both engines
//! retire tasks in nondecreasing virtual-time order. Once the clock has
//! advanced past an epoch bound, every span ending at or before that
//! bound is already in the log and can never be joined by another —
//! any span recorded later starts (and therefore ends) past the bound.
//! Flushing is therefore both safe and complete, and epoch batches are a
//! pure function of the recorded span set, not of which thread happened
//! to trip the boundary.
//!
//! ## Accounting under partial drains
//!
//! In streaming mode the log holds only the *resident* (not yet
//! drained) tail of the trace, which changes what the inspection
//! methods report:
//!
//! * [`TraceRecorder::len`] / [`TraceRecorder::is_empty`] — resident
//!   spans only;
//! * [`TraceRecorder::drained`] — spans already pushed to the sink;
//! * [`TraceRecorder::total_recorded`] — lifetime count (resident +
//!   drained + consumed by `finish`);
//! * [`TraceRecorder::sink_error`] — the sink's first I/O error. Later
//!   epochs are still handed to the sink, so a sink that recovers loses
//!   only what failed; the error outlives the sink's detach;
//! * [`TraceRecorder::finish`] — flushes every remaining span as one
//!   final epoch, closes the sink, detaches it, and returns the
//!   (therefore empty) resident trace.

use crate::sink::TraceSink;
use crate::{NameTable, Trace, TraceEvent};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The span log: resident spans in record order.
#[derive(Debug, Default)]
struct Log {
    spans: Vec<TraceEvent>,
    /// Spans taken out of `spans` so far, by epoch drains and `finish`.
    taken: u64,
    /// The names [`TraceRecorder::record`] was given as text.
    names: NameTable,
}

/// Streaming-mode state behind `Inner::stream`.
struct StreamState {
    sink: Box<dyn TraceSink>,
    /// Flush epoch length `ε` in virtual seconds.
    epoch: f64,
    /// Index `k` of the next epoch to flush; its upper bound is
    /// [`StreamState::bound`].
    next_epoch: u64,
    /// The log while an epoch's batch is out at the sink: the spans the
    /// epoch keeps, then those recorded during the flush. Empty between
    /// flushes; kept for its capacity.
    spare: Vec<TraceEvent>,
}

impl StreamState {
    /// The upper bound of epoch `k`: `k·ε`, computed by multiplication,
    /// not accumulation, so long runs do not drift — and unbounded for
    /// the last index, where an epoch no index reaches lands.
    fn bound(&self, k: u64) -> f64 {
        if k == u64::MAX {
            f64::INFINITY
        } else {
            self.epoch * k as f64
        }
    }

    /// The first epoch whose bound is at or past `t`.
    fn epoch_holding(&self, t: f64) -> u64 {
        // `as` saturates: a `t` past every finite bound maps to the last
        // index. The float quotient can be off by one either way.
        let mut k = ((t / self.epoch).ceil() as u64).max(1);
        while self.bound(k) < t {
            k += 1;
        }
        while k > 1 && self.bound(k - 1) >= t {
            k -= 1;
        }
        k
    }
}

impl std::fmt::Debug for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamState")
            .field("epoch", &self.epoch)
            .field("next_epoch", &self.next_epoch)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct Inner {
    log: Mutex<Log>,
    /// Spans drained to the attached sink so far (lifetime, survives
    /// sink detach).
    drained: AtomicU64,
    /// Bits of the next pending epoch bound, `f64::INFINITY` when no
    /// sink is attached — the lock-free fast path for
    /// [`TraceRecorder::observe_clock`].
    next_bound: AtomicU64,
    stream: Mutex<Option<StreamState>>,
    /// First error a sink reported (survives sink detach).
    sink_error: Mutex<Option<String>>,
}

/// The order of two spans of one lane in a normalized trace whose time
/// origin is `t0`: by shifted start and task id (what [`Trace::normalize`]
/// sorts by), then by the `(start, seq)` merge order its stable sort
/// preserves among equals — `seq` being the log order a stable sort keeps.
fn lane_order(t0: f64, a: &TraceEvent, b: &TraceEvent) -> std::cmp::Ordering {
    (a.start - t0, a.task_id)
        .partial_cmp(&(b.start - t0, b.task_id))
        .expect("non-finite times in trace")
        .then(a.start.total_cmp(&b.start))
}

/// Put an epoch batch, in log order, into `(start, seq)` order — `seq`
/// being that log order. A batch in `start` order already is left as it
/// is; otherwise one `u32` source position per span is sorted (the
/// positions are distinct, so an unstable sort is exact and holds nothing
/// more) and applied by cycle-following swaps.
fn in_start_order(batch: &mut [TraceEvent]) {
    if batch.is_sorted_by(|a, b| a.start.total_cmp(&b.start).is_le()) {
        return;
    }
    let n = u32::try_from(batch.len())
        .unwrap_or_else(|_| panic!("an epoch of {} spans exceeds u32 positions", batch.len()));
    let mut from: Vec<u32> = (0..n).collect();
    from.sort_unstable_by(|&a, &b| {
        let (x, y) = (&batch[a as usize], &batch[b as usize]);
        x.start.total_cmp(&y.start).then(a.cmp(&b))
    });
    // Slot `i` takes the span at `from[i]`: each swap fills one slot of a
    // cycle, and a filled slot is marked by pointing at itself.
    for i in 0..from.len() {
        let mut slot = i;
        loop {
            let src = from[slot] as usize;
            from[slot] = slot as u32;
            if src == i {
                break;
            }
            batch.swap(slot, src);
            slot = src;
        }
    }
}

/// A shareable, thread-safe accumulator of trace events.
///
/// Cloning shares the underlying log ([`Arc`] internally), so every
/// worker thread can own a handle.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    inner: Arc<Inner>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            inner: Arc::new(Inner {
                log: Mutex::default(),
                drained: AtomicU64::new(0),
                next_bound: AtomicU64::new(f64::INFINITY.to_bits()),
                stream: Mutex::new(None),
                sink_error: Mutex::new(None),
            }),
        }
    }
}

impl TraceRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event, naming its kernel by text: the recorder makes
    /// one shared name per distinct `kernel` (engines, which hold their
    /// classes' names, record through [`TraceRecorder::record_event`]).
    pub fn record(&self, worker: usize, kernel: &str, task_id: u64, start: f64, end: f64) {
        let mut log = self.inner.log.lock();
        let kernel = log.names.intern(kernel);
        log.spans.push(TraceEvent {
            worker,
            kernel,
            task_id,
            start,
            end,
        });
    }

    /// Record a prebuilt event.
    pub fn record_event(&self, event: TraceEvent) {
        self.inner.log.lock().spans.push(event);
    }

    /// Expect `spans` more spans before [`TraceRecorder::finish`]: the
    /// buffered log reserves exactly that room, so a run whose span count
    /// is known grows its log once and `finish` has no slack to shrink.
    /// Ignored while a sink is attached — a streamed log holds an epoch
    /// window, not the run — so call it after any
    /// [`TraceRecorder::attach_sink`] and before recording. A hint only:
    /// room the allocator refuses leaves the log to grow as it records.
    pub fn expect_spans(&self, spans: u64) {
        let stream = self.inner.stream.lock();
        if stream.is_some() {
            return;
        }
        if let Ok(spans) = usize::try_from(spans) {
            let _ = self.inner.log.lock().spans.try_reserve_exact(spans);
        }
    }

    /// Number of events currently resident (recorded and, in streaming
    /// mode, not yet drained).
    pub fn len(&self) -> usize {
        self.inner.log.lock().spans.len()
    }

    /// Whether no events are resident.
    pub fn is_empty(&self) -> bool {
        self.inner.log.lock().spans.is_empty()
    }

    /// Turn the log into a normalized [`Trace`] of at least `workers`
    /// lanes, in place: spans in `(worker, start′, task_id, start, seq)`
    /// order with `start′ = start − t0` the time shifted so the earliest
    /// start is 0 — the order a `(start, seq)` merge followed by
    /// [`Trace::normalize`]'s stable `(worker, start′, task_id)` sort
    /// produces. A stable counting sort deals the log out by lane; a lane
    /// runs one task at a time, so its spans were recorded in order
    /// already, and only a lane found out of order is sorted. Beside the
    /// log this holds one `u32` per span and two words per lane. The
    /// recorder is left empty.
    fn merged(&self, workers: usize) -> Trace {
        let mut events = {
            let mut log = self.inner.log.lock();
            log.taken += log.spans.len() as u64;
            std::mem::take(&mut log.spans)
        };
        events.shrink_to_fit();

        // Lane sizes and the time origin.
        let mut lane_start = vec![0usize; workers];
        let mut t0 = f64::INFINITY;
        for e in &events {
            if e.worker >= lane_start.len() {
                lane_start.resize(e.worker + 1, 0);
            }
            lane_start[e.worker] += 1;
            t0 = t0.min(e.start);
        }
        // `x - 0.0` is `x` bit for bit, so "no shift" is a shift by zero.
        let t0 = if t0.is_finite() && t0 != 0.0 { t0 } else { 0.0 };

        // Lane `l` fills `[lane_start[l], lane_end[l])`; span `i` moves to
        // `dest[i]`, lanes kept in log order.
        let mut total = 0;
        for n in &mut lane_start {
            total += *n;
            *n = total - *n;
        }
        assert!(
            u32::try_from(total).is_ok(),
            "a trace of {total} spans exceeds the recorder's u32 positions"
        );
        let mut lane_end = lane_start.clone();
        let mut dest: Vec<u32> = events
            .iter()
            .map(|e| {
                let slot = &mut lane_end[e.worker];
                *slot += 1;
                (*slot - 1) as u32
            })
            .collect();
        // Apply the permutation by following its cycles: every swap puts
        // one span in its final slot.
        for i in 0..events.len() {
            while dest[i] as usize != i {
                let d = dest[i] as usize;
                events.swap(i, d);
                dest.swap(i, d);
            }
        }
        drop(dest);

        for (&lo, &hi) in lane_start.iter().zip(&lane_end) {
            let lane = &mut events[lo..hi];
            if !lane.is_sorted_by(|a, b| lane_order(t0, a, b).is_le()) {
                lane.sort_by(|a, b| lane_order(t0, a, b));
            }
        }
        for e in &mut events {
            e.start -= t0;
            e.end -= t0;
        }
        Trace::from_parts(lane_start.len(), events)
    }

    /// Flush one epoch: hand the sink every resident span with
    /// `end <= bound`, in `(start, seq)` order, from the log's own
    /// buffer (see the module docs), without the log lock held.
    /// Returns the earliest end among the spans kept resident (∞ if
    /// none).
    fn flush_upto(&self, st: &mut StreamState, bound: f64) -> f64 {
        let mut earliest = f64::INFINITY;
        let mut batch = {
            let mut log = self.inner.log.lock();
            // `retain_mut` visits the spans in log order once, so both the
            // batch and the kept spans stay in log order.
            let spare = &mut st.spare;
            log.spans.retain_mut(|e| {
                let keep = e.end > bound;
                if keep {
                    earliest = earliest.min(e.end);
                    spare.push(std::mem::take(e));
                }
                !keep
            });
            log.taken += log.spans.len() as u64;
            std::mem::replace(&mut log.spans, std::mem::take(spare))
        };
        if !batch.is_empty() {
            in_start_order(&mut batch);
            self.inner
                .drained
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.note(st.sink.flush_epoch(&batch));
            batch.clear();
        }
        // The buffer is the log again: the kept spans, then those
        // recorded during the flush.
        let mut log = self.inner.log.lock();
        batch.append(&mut log.spans);
        st.spare = std::mem::replace(&mut log.spans, batch);
        earliest
    }

    /// Total events ever recorded through this recorder, including ones
    /// since drained to a sink or consumed by [`TraceRecorder::finish`].
    pub fn total_recorded(&self) -> u64 {
        let log = self.inner.log.lock();
        log.taken + log.spans.len() as u64
    }

    /// Spans pushed to an attached sink so far, across the recorder's
    /// lifetime (the counter survives sink detach at
    /// [`TraceRecorder::finish`]).
    pub fn drained(&self) -> u64 {
        self.inner.drained.load(Ordering::Relaxed)
    }

    /// First error a sink reported, if any — also after
    /// [`TraceRecorder::finish`] has closed and detached it.
    pub fn sink_error(&self) -> Option<String> {
        self.inner.sink_error.lock().clone()
    }

    /// Remember `result`'s error if it is the first one.
    fn note(&self, result: std::io::Result<()>) {
        if let Err(e) = result {
            self.inner
                .sink_error
                .lock()
                .get_or_insert_with(|| e.to_string());
        }
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
            spare: Vec::new(),
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
        if now <= bound || now.is_nan() {
            return;
        }
        let mut guard = self.inner.stream.lock();
        let Some(st) = guard.as_mut() else { return };
        // Flush strictly elapsed epochs one by one, skipping empty ones:
        // each batch is a pure function of the epoch bounds and the
        // spans' end times, so the stream content is identical no matter
        // how many boundaries one observe_clock call happens to cross.
        loop {
            let bound = st.bound(st.next_epoch);
            if now <= bound {
                self.inner
                    .next_bound
                    .store(bound.to_bits(), Ordering::Relaxed);
                break;
            }
            let earliest = self.flush_upto(st, bound);
            // No span ends before the earliest kept one, nor (being
            // recorded later) before the clock: the epochs in between
            // are empty.
            st.next_epoch = st.epoch_holding(earliest.min(now)).max(st.next_epoch + 1);
        }
    }

    /// Consume the recorded events into a normalized [`Trace`] with
    /// `workers` lanes (grown if events reference higher worker indices),
    /// leaving the recorder empty.
    ///
    /// In streaming mode, every span still resident is first pushed to
    /// the sink as one final (partial) epoch, the sink is closed and
    /// detached, and the returned trace is empty — the spans live
    /// wherever the sink put them.
    pub fn finish(&self, workers: usize) -> Trace {
        self.finish_stream();
        self.merged(workers)
    }

    /// Flush all resident spans to the attached sink (if any), close it
    /// and detach it. No-op when not streaming.
    pub fn finish_stream(&self) {
        let mut guard = self.inner.stream.lock();
        let Some(mut st) = guard.take() else { return };
        self.flush_upto(&mut st, f64::INFINITY);
        self.note(st.sink.close());
        self.inner
            .next_bound
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A sink that keeps every span it is handed, shared with the test.
    #[derive(Clone, Default)]
    struct Collect(Arc<Mutex<Vec<TraceEvent>>>);

    impl TraceSink for Collect {
        fn flush_epoch(&mut self, spans: &[TraceEvent]) -> std::io::Result<()> {
            self.0.lock().extend_from_slice(spans);
            Ok(())
        }
    }

    impl Collect {
        fn len(&self) -> usize {
            self.0.lock().len()
        }

        fn take(&self) -> Vec<TraceEvent> {
            std::mem::take(&mut *self.0.lock())
        }
    }

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
    fn finish_normalizes_time_origin() {
        let r = TraceRecorder::new();
        r.record(0, "a", 0, 100.0, 101.0);
        r.record(0, "b", 1, 101.0, 103.0);
        let t = r.finish(1);
        assert_eq!(t.spans()[0].start, 0.0);
        assert!((t.makespan() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_name_recorded_as_text_is_made_once() {
        let r = TraceRecorder::new();
        r.record(0, "a", 0, 0.0, 1.0);
        r.record(1, "a", 1, 0.0, 1.0);
        r.record(1, "b", 2, 1.0, 2.0);
        let t = r.finish(2);
        let k: Vec<_> = t.spans().iter().map(|e| &e.kernel).collect();
        assert!(k[0].ptr_eq(k[1]) && !k[1].ptr_eq(k[2]));
        assert_eq!((k[0].as_str(), k[2].as_str()), ("a", "b"));
    }

    #[test]
    fn a_span_count_no_allocator_can_hold_is_ignored() {
        let r = TraceRecorder::new();
        r.expect_spans(u64::MAX);
        r.record(0, "a", 0, 0.0, 1.0);
        assert_eq!(r.finish(1).len(), 1);
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
    fn worker_indices_beyond_the_lane_count_grow_it() {
        let r = TraceRecorder::new();
        for w in (0..96).rev() {
            r.record(w, "k", w as u64, w as f64, w as f64 + 0.5);
        }
        let t = r.finish(1);
        assert_eq!(t.len(), 96);
        assert_eq!(t.workers, 96);
        assert!(t.spans().iter().enumerate().all(|(i, e)| e.worker == i));
    }

    /// The merge `merged` replaced, kept as its oracle: every span sorted
    /// by `(start, seq)` — seq being the log position a stable sort
    /// keeps — then [`Trace::normalize`]'s time shift and stable
    /// `(worker, start′, task_id)` sort.
    fn two_sort_oracle(r: &TraceRecorder, workers: usize) -> Trace {
        let mut spans = r.inner.log.lock().spans.clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut t = Trace::from_parts(workers, spans);
        t.normalize();
        t
    }

    #[test]
    fn merge_order_is_deterministic_on_timestamp_ties() {
        // Same timestamps recorded from one thread on different lanes:
        // the merge must equal the (start, seq) merge followed by
        // normalization, and two identical recorders must agree.
        let r = TraceRecorder::new();
        for i in 0..10u64 {
            r.record((i % 4) as usize, "k", i, 1.0, 2.0);
        }
        let r2 = TraceRecorder::new();
        for i in 0..10u64 {
            r2.record((i % 4) as usize, "k", i, 1.0, 2.0);
        }
        let expected = two_sort_oracle(&r, 4);
        assert_eq!(r.finish(4), expected);
        assert_eq!(r2.finish(4), expected);
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
        let expected = two_sort_oracle(&r, 2);
        let t = r.finish(2);
        assert_eq!(t, expected);
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
        /// work spans) and zero-length spans are all common, over 40
        /// lanes.
        fn spans() -> impl Strategy<Value = Vec<(usize, u64, u32, u32)>> {
            prop::collection::vec((0usize..40, 0u64..6, 0u32..8, 0u32..3), 0..80)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `finish` equals the two sorts it replaced,
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
                prop_assert_eq!(r.len(), spans.len());
                prop_assert_eq!(&r.finish(workers), &expected);
                prop_assert!(r.is_empty());
            }
        }
    }

    #[test]
    fn observe_clock_flushes_elapsed_epochs_only() {
        let r = TraceRecorder::new();
        let handle = Collect::default();
        r.attach_sink(Box::new(handle.clone()), 1.0);
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
        let handle = Collect::default();
        streamed.attach_sink(Box::new(handle.clone()), 0.4);
        record_all(&streamed);
        for step in 0..40 {
            streamed.observe_clock(step as f64 * 0.1);
        }
        let st = streamed.finish(5);
        assert!(st.is_empty(), "streaming finish leaves no resident trace");
        let buffered = TraceRecorder::new();
        record_all(&buffered);
        let mut collected = Trace::from_parts(5, handle.take());
        collected.normalize();
        assert_eq!(collected, buffered.finish(5));
    }

    #[test]
    fn finish_flushes_remainder_and_detaches() {
        let r = TraceRecorder::new();
        let handle = Collect::default();
        r.attach_sink(Box::new(handle.clone()), 10.0);
        r.record(0, "a", 0, 0.0, 1.0);
        let t = r.finish(1);
        assert!(t.is_empty());
        assert_eq!(handle.len(), 1);
        assert_eq!(r.drained(), 1, "drained counter survives detach");
        // After detach the recorder buffers again.
        r.record(0, "b", 1, 1.0, 2.0);
        assert_eq!(r.finish(1).len(), 1);
        assert_eq!(handle.len(), 1);
    }

    /// A sink that fails every write.
    struct FailingSink;

    impl TraceSink for FailingSink {
        fn flush_epoch(&mut self, _: &[TraceEvent]) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }

        fn close(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("close failed"))
        }
    }

    #[test]
    fn first_sink_error_is_kept_and_survives_detach() {
        let r = TraceRecorder::new();
        r.attach_sink(Box::new(FailingSink), 1.0);
        r.record(0, "a", 0, 0.0, 0.5);
        r.record(0, "b", 1, 1.2, 1.8);
        r.observe_clock(1.5);
        assert_eq!(r.sink_error().as_deref(), Some("disk full"));
        r.observe_clock(2.5);
        assert_eq!(r.drained(), 2, "later epochs are still handed over");
        r.finish(1);
        assert_eq!(r.sink_error().as_deref(), Some("disk full"));
    }

    #[test]
    #[should_panic(expected = "flush epoch must be positive")]
    fn attach_sink_rejects_bad_epoch() {
        TraceRecorder::new().attach_sink(Box::new(Collect::default()), 0.0);
    }

    /// What a sink saw of the recorder from inside `flush_epoch`.
    #[derive(Debug, PartialEq)]
    struct Seen {
        batch: usize,
        resident: usize,
        total: u64,
        drained: u64,
    }

    /// A sink that reads the recorder feeding it on every flush.
    struct InspectingSink {
        recorder: TraceRecorder,
        seen: Arc<parking_lot::Mutex<Vec<Seen>>>,
    }

    impl TraceSink for InspectingSink {
        fn flush_epoch(&mut self, spans: &[TraceEvent]) -> std::io::Result<()> {
            self.seen.lock().push(Seen {
                batch: spans.len(),
                resident: self.recorder.len(),
                total: self.recorder.total_recorded(),
                drained: self.recorder.drained(),
            });
            Ok(())
        }
    }

    #[test]
    fn a_sink_may_inspect_the_recorder_mid_flush() {
        let r = TraceRecorder::new();
        let seen = Arc::default();
        r.attach_sink(
            Box::new(InspectingSink {
                recorder: r.clone(),
                seen: Arc::clone(&seen),
            }),
            1.0,
        );
        r.record(0, "a", 0, 0.0, 0.5);
        r.record(1, "b", 1, 0.2, 1.5); // in flight past the bound
        r.record(2, "c", 2, 0.4, 1.0);
        r.record(3, "d", 3, 0.6, 2.5); // in flight past the bound
        r.observe_clock(1.2);
        r.finish(4);
        let expected = [
            Seen {
                batch: 2,
                resident: 2,
                total: 4,
                drained: 2,
            },
            Seen {
                batch: 2,
                resident: 0,
                total: 4,
                drained: 4,
            },
        ];
        assert_eq!(*seen.lock(), expected, "only the kept spans are resident");
    }

    /// A sink that, on its first flush, says so and waits to be let go;
    /// it keeps every batch.
    struct BlockingSink {
        entered: std::sync::mpsc::Sender<()>,
        go: std::sync::mpsc::Receiver<()>,
        batches: Arc<parking_lot::Mutex<Vec<Vec<TraceEvent>>>>,
    }

    impl TraceSink for BlockingSink {
        fn flush_epoch(&mut self, spans: &[TraceEvent]) -> std::io::Result<()> {
            let mut batches = self.batches.lock();
            if batches.is_empty() {
                self.entered.send(()).unwrap();
                self.go.recv().unwrap();
            }
            batches.push(spans.to_vec());
            Ok(())
        }
    }

    #[test]
    fn recording_goes_on_while_a_sink_blocks_mid_flush() {
        let r = TraceRecorder::new();
        let (entered, entered_rx) = std::sync::mpsc::channel();
        let (go_tx, go) = std::sync::mpsc::channel();
        let batches = Arc::default();
        r.attach_sink(
            Box::new(BlockingSink {
                entered,
                go,
                batches: Arc::clone(&batches),
            }),
            1.0,
        );
        // Epoch 1, recorded out of start order (task id = record order),
        // and two spans in flight past its bound.
        for (id, start) in [0.5, 0.1, 0.3, 0.1, 0.0, 0.7].into_iter().enumerate() {
            r.record(id % 3, "k", id as u64, start, start + 0.2);
        }
        r.record(3, "k", 6, 0.9, 1.4);
        r.record(4, "k", 7, 0.95, 2.2);
        let flusher = {
            let r = r.clone();
            thread::spawn(move || r.observe_clock(1.1))
        };
        entered_rx.recv().unwrap();
        assert_eq!(r.len(), 2, "mid-flush, the kept spans are resident");
        // Spans recorded while the batch is out at the sink.
        for id in 8..40u64 {
            let start = 1.1 + id as f64 * 0.05;
            r.record(id as usize % 5, "k", id, start, start + 0.3);
        }
        assert_eq!(r.len(), 34);
        go_tx.send(()).unwrap();
        flusher.join().unwrap();
        assert_eq!(r.len(), 34, "nothing recorded mid-flush was lost");
        r.observe_clock(2.5);
        r.finish(5);
        let batches = batches.lock();
        assert!(batches.len() >= 3);
        let mut ids: Vec<u64> = batches.iter().flatten().map(|e| e.task_id).collect();
        for b in batches.iter() {
            assert!(
                b.windows(2)
                    .all(|w| (w[0].start, w[0].task_id) < (w[1].start, w[1].task_id)),
                "a batch out of (start, seq) order: {b:?}"
            );
        }
        assert_eq!(
            batches[0].iter().map(|e| e.task_id).collect::<Vec<_>>(),
            [4, 1, 3, 2, 0, 5]
        );
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>(), "every span exactly once");
    }

    #[test]
    fn a_tiny_epoch_skips_the_empty_ones() {
        // 10^15 epochs of 1e-9 s pass by: only the few that hold a span
        // are visited. An epoch no index reaches leaves every span to the
        // final flush.
        for epoch in [1e-9, 1e-300] {
            let r = TraceRecorder::new();
            let handle = Collect::default();
            r.attach_sink(Box::new(handle.clone()), epoch);
            for i in 0..100u64 {
                let start = i as f64 * 1e4;
                r.record(0, "k", i, start, start + 1e4);
                r.observe_clock(start);
            }
            r.observe_clock(f64::INFINITY);
            r.observe_clock(f64::NAN);
            r.finish(1);
            assert_eq!(handle.len(), 100);
        }
    }

    mod epoch_skip_properties {
        use super::*;
        use proptest::prelude::*;

        /// The batches of the epoch rule walked one epoch at a time: a
        /// DES-like recording where span `i` is recorded and then the
        /// clock observed at `clocks[i]`.
        fn walked(epoch: f64, spans: &[(f64, f64)], clocks: &[f64]) -> Vec<Vec<u64>> {
            let mut resident: Vec<(u64, f64, f64)> = Vec::new();
            let mut batches = Vec::new();
            let mut k = 1u64;
            let mut take = |resident: &mut Vec<(u64, f64, f64)>, bound: f64| {
                let mut batch: Vec<_> = resident.iter().filter(|s| s.2 <= bound).copied().collect();
                resident.retain(|s| s.2 > bound);
                batch.sort_by(|a, b| a.1.total_cmp(&b.1));
                if !batch.is_empty() {
                    batches.push(batch.iter().map(|s| s.0).collect());
                }
            };
            for (i, (&(start, end), &now)) in spans.iter().zip(clocks).enumerate() {
                resident.push((i as u64, start, end));
                while now > epoch * k as f64 {
                    take(&mut resident, epoch * k as f64);
                    k += 1;
                }
            }
            take(&mut resident, f64::INFINITY);
            batches
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Skipping empty epochs delivers exactly the batches that
            /// walking every epoch does, with spans that start before
            /// the clock (transient segments) as well as at it.
            #[test]
            fn skipping_equals_walking(
                steps in prop::collection::vec((0u32..6, 0u32..3, 0u32..12), 1..60),
                epoch in prop_oneof![Just(0.25), Just(0.1), Just(0.037), Just(1e-3)],
            ) {
                let mut clock = 0.0;
                let (mut spans, mut clocks) = (Vec::new(), Vec::new());
                for &(advance, back, dur) in &steps {
                    clock += f64::from(advance) * 0.125;
                    let start = (clock - f64::from(back) * 0.1f64).max(0.0);
                    spans.push((start, clock + f64::from(dur) * 0.125));
                    clocks.push(clock);
                }
                let r = TraceRecorder::new();
                let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
                r.attach_sink(Box::new(IdSink(Arc::clone(&seen))), epoch);
                for (i, (&(start, end), &now)) in spans.iter().zip(&clocks).enumerate() {
                    r.record(i % 4, "k", i as u64, start, end);
                    r.observe_clock(now);
                }
                r.finish(4);
                let got = std::mem::take(&mut *seen.lock());
                prop_assert_eq!(got, walked(epoch, &spans, &clocks));
            }
        }

        /// Keeps each batch's task ids.
        struct IdSink(Arc<parking_lot::Mutex<Vec<Vec<u64>>>>);

        impl TraceSink for IdSink {
            fn flush_epoch(&mut self, spans: &[TraceEvent]) -> std::io::Result<()> {
                self.0
                    .lock()
                    .push(spans.iter().map(|e| e.task_id).collect());
                Ok(())
            }
        }
    }

    #[test]
    fn concurrent_streaming_loses_nothing() {
        // Recording races observe_clock from many threads; the union of
        // sink content and resident events must still be exact.
        let r = TraceRecorder::new();
        let handle = Collect::default();
        r.attach_sink(Box::new(handle.clone()), 0.5);
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
