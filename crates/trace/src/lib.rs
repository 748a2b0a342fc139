//! # supersim-trace
//!
//! Execution-trace infrastructure for the superscalar scheduling simulator.
//!
//! The paper (§V-A) explains that general-purpose tracing frameworks record
//! *wall-clock* time, while the simulation needs traces in *virtual*
//! (user-specified) time — so the authors wrote "a rudimentary trace
//! generation environment" with SVG output and a plain-text format. This
//! crate is that environment, with one writer per output format:
//!
//! * [`Trace`] / [`TraceEvent`] — the trace model: one lane per worker,
//!   one 40-byte rectangle per executed task, in arbitrary time units,
//!   named by its kernel class's shared [`KernelName`];
//! * [`TraceRecorder`] — a thread-safe recorder that workers log into
//!   (in either real or virtual time), with an optional bounded-memory
//!   streaming mode that drains to a [`TraceSink`] at epoch boundaries;
//! * [`sink`] — push-based streaming sinks (ndjson — the plain-text
//!   format, one span per line, with its parser — in-memory collection,
//!   live-subscriber channels);
//! * [`svg`] — Gantt-style SVG rendering (paper Figs. 6–7);
//! * [`chrome`] — Chrome trace-event JSON export (chrome://tracing),
//!   streamed or buffered through one sink;
//! * [`Trace::canonical`] — the lane-free text projection the
//!   determinism gates diff;
//! * [`ascii`] — quick terminal rendering for the examples;
//! * [`stats`] — makespan, utilization, per-kernel summaries;
//! * [`compare`] — the similarity metrics used to judge simulated traces
//!   against real ones (makespan error, per-class counts, placement and
//!   start-time agreement).

pub mod ascii;
pub mod chrome;
pub mod color;
pub mod compare;
pub mod fault;
mod name;
mod num;
#[cfg(test)]
mod proptests;
pub mod recorder;
pub mod sink;
pub mod stats;
pub mod svg;

pub use compare::TraceComparison;
pub use name::{KernelName, NameTable};
pub use recorder::TraceRecorder;
pub use sink::TraceSink;
pub use stats::TraceStats;

use serde::{Deserialize, Serialize};

/// The FNV-1a 64 offset basis: the state [`fnv1a`] starts from.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`, continuing from state `h` ([`FNV1A_BASIS`] to
/// start): the one digest behind trace hashes, scenario content hashes,
/// calibration fingerprints and the label key of every sampled duration.
/// Inlined: the label key is on the per-task duration path.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One executed task occurrence in a trace: 40 bytes, the kernel class
/// a shared handle, not a copy of its name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Worker (lane) index the task ran on.
    pub worker: usize,
    /// Kernel class label, e.g. `"dgemm"`.
    pub kernel: KernelName,
    /// Stable task identity (submission order), used to match events
    /// between a real and a simulated trace.
    pub task_id: u64,
    /// Start time (seconds — wall-clock or virtual).
    pub start: f64,
    /// End time; must satisfy `end >= start`.
    pub end: f64,
}

impl TraceEvent {
    /// Duration of the event.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A complete execution trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Trace {
    /// Number of worker lanes (may exceed the max worker index seen, for
    /// workers that executed nothing).
    pub workers: usize,
    /// All events; kept sorted by `(worker, start)` after [`Trace::normalize`].
    events: Vec<TraceEvent>,
}

mod wire {
    /// The wire form of a [`super::Trace`], before its names are shared
    /// (same name, so decoding errors read the same).
    #[derive(serde::Deserialize)]
    pub(super) struct Trace {
        pub(super) workers: usize,
        pub(super) events: Vec<super::TraceEvent>,
    }
}

impl<'de> Deserialize<'de> for Trace {
    /// Decode a trace and give each distinct kernel name one handle.
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let wire::Trace {
            workers,
            mut events,
        } = wire::Trace::deserialize(d)?;
        let mut names = NameTable::new();
        for e in &mut events {
            names.share(&mut e.kernel);
        }
        Ok(Trace { workers, events })
    }
}

impl Trace {
    /// An empty trace with `workers` lanes.
    pub fn new(workers: usize) -> Self {
        Trace {
            workers,
            events: Vec::new(),
        }
    }

    /// Build a trace from a prepared span list (not normalized).
    pub fn from_parts(workers: usize, events: Vec<TraceEvent>) -> Self {
        Trace { workers, events }
    }

    /// All spans, in the trace's current order.
    pub fn spans(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Mutable access to the span list (renderer-internal reordering,
    /// stitching, filtering).
    pub fn spans_mut(&mut self) -> &mut Vec<TraceEvent> {
        &mut self.events
    }

    /// Append one span.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Latest event end (0 for an empty trace).
    pub fn t_max(&self) -> f64 {
        self.events.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Makespan: latest end minus earliest start (0 for empty).
    pub fn makespan(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        let start = self
            .events
            .iter()
            .map(|e| e.start)
            .fold(f64::INFINITY, f64::min);
        self.t_max() - start
    }

    /// Sort events by `(worker, start, task_id)` and grow `workers` to cover
    /// every event. Shifts time so the earliest start is 0.
    pub fn normalize(&mut self) {
        if let Some(max_w) = self.events.iter().map(|e| e.worker).max() {
            self.workers = self.workers.max(max_w + 1);
        }
        let t0 = self
            .events
            .iter()
            .map(|e| e.start)
            .fold(f64::INFINITY, f64::min);
        if t0.is_finite() && t0 != 0.0 {
            for e in &mut self.events {
                e.start -= t0;
                e.end -= t0;
            }
        }
        self.events.sort_by(|a, b| {
            (a.worker, a.start, a.task_id)
                .partial_cmp(&(b.worker, b.start, b.task_id))
                .expect("non-finite times in trace")
        });
    }

    /// Canonical virtual-time text projection: one line per event, sorted
    /// by task id (then start), **no worker lanes**. Worker placement is
    /// scheduler-race dependent run to run, but task ids, kernels and
    /// virtual times are seed-deterministic — so this projection diffs
    /// bit-for-bit across repeated runs of the same `(seed, plan)`; the
    /// CI determinism gates rely on that. Fault-marked spans keep their
    /// kernel suffixes, so faulted schedules are covered too.
    ///
    /// Each line is `task_id kernel start end`, the times as `{:?}` writes
    /// them (shortest round trip).
    pub fn canonical(&self) -> String {
        let mut events: Vec<&TraceEvent> = self.events.iter().collect();
        events.sort_by(|a, b| a.task_id.cmp(&b.task_id).then(a.start.total_cmp(&b.start)));
        let mut s = Vec::with_capacity(events.len() * 48);
        for e in events {
            num::push_u64(&mut s, e.task_id);
            s.push(b' ');
            s.extend_from_slice(e.kernel.as_bytes());
            s.push(b' ');
            num::push_f64(&mut s, e.start);
            s.push(b' ');
            num::push_f64(&mut s, e.end);
            s.push(b'\n');
        }
        String::from_utf8(s).expect("&str labels and ASCII are UTF-8")
    }

    /// Iterate events of a single lane.
    pub fn lane(&self, worker: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.worker == worker)
    }

    /// Validate internal consistency: all events have `end >= start`,
    /// finite times, lane indices within `workers`, and no two events on
    /// the same lane overlap by more than `tol`.
    pub fn validate(&self, tol: f64) -> Result<(), String> {
        for e in &self.events {
            if !(e.start.is_finite() && e.end.is_finite()) {
                return Err(format!("task {} has non-finite times", e.task_id));
            }
            if e.end < e.start {
                return Err(format!("task {} ends before it starts", e.task_id));
            }
            if e.worker >= self.workers {
                return Err(format!(
                    "task {} on worker {} but trace has {} lanes",
                    e.task_id, e.worker, self.workers
                ));
            }
        }
        for w in 0..self.workers {
            let mut lane: Vec<&TraceEvent> = self.lane(w).collect();
            lane.sort_by(|a, b| a.start.total_cmp(&b.start));
            for pair in lane.windows(2) {
                if pair[1].start < pair[0].end - tol {
                    return Err(format!(
                        "worker {} overlap: task {} [{:.6},{:.6}] vs task {} [{:.6},{:.6}]",
                        w,
                        pair[0].task_id,
                        pair[0].start,
                        pair[0].end,
                        pair[1].task_id,
                        pair[1].start,
                        pair[1].end
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors, whole and in pieces.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV1A_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV1A_BASIS, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn a_span_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 40);
    }

    fn ev(worker: usize, kernel: &str, id: u64, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            worker,
            kernel: kernel.into(),
            task_id: id,
            start,
            end,
        }
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = Trace::new(4);
        assert_eq!(t.makespan(), 0.0);
        assert!(t.is_empty());
        assert!(t.validate(0.0).is_ok());
    }

    #[test]
    fn makespan_spans_events() {
        let mut t = Trace::new(2);
        t.push(ev(0, "a", 0, 1.0, 2.0));
        t.push(ev(1, "b", 1, 0.5, 3.5));
        assert!((t.makespan() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_shifts_sorts_and_grows() {
        let mut t = Trace::new(1);
        t.push(ev(3, "b", 1, 5.0, 6.0));
        t.push(ev(0, "a", 0, 2.0, 3.0));
        t.normalize();
        assert_eq!(t.workers, 4);
        assert_eq!(t.spans()[0].task_id, 0);
        assert_eq!(t.spans()[0].start, 0.0);
        assert_eq!(t.spans()[1].start, 3.0);
    }

    #[test]
    fn validate_catches_overlap() {
        let mut t = Trace::new(1);
        t.push(ev(0, "a", 0, 0.0, 2.0));
        t.push(ev(0, "b", 1, 1.0, 3.0));
        assert!(t.validate(1e-9).is_err());
        // Different lanes may overlap freely.
        t.spans_mut()[1].worker = 1;
        t.workers = 2;
        assert!(t.validate(1e-9).is_ok());
    }

    #[test]
    fn validate_catches_bad_times_and_lanes() {
        let mut t = Trace::new(1);
        t.push(ev(0, "a", 0, 2.0, 1.0));
        assert!(t.validate(0.0).unwrap_err().contains("ends before"));
        t.spans_mut()[0] = ev(5, "a", 0, 0.0, 1.0);
        assert!(t.validate(0.0).unwrap_err().contains("lanes"));
        t.spans_mut()[0] = ev(0, "a", 0, f64::NAN, 1.0);
        assert!(t.validate(0.0).unwrap_err().contains("non-finite"));
    }

    #[test]
    fn serde_round_trip() {
        let mut t = Trace::new(2);
        t.push(ev(0, "a", 0, 0.0, 1.5));
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn a_decoded_trace_shares_one_name_per_class() {
        let mut t = Trace::new(2);
        for i in 0..4 {
            t.push(ev(i % 2, ["a", "b"][i / 2], i as u64, 0.0, 1.0));
        }
        let back: Trace = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back, t);
        let s = back.spans();
        assert!(s[0].kernel.ptr_eq(&s[1].kernel) && s[2].kernel.ptr_eq(&s[3].kernel));
        assert!(!s[0].kernel.ptr_eq(&s[2].kernel));
    }

    #[test]
    fn serde_wire_shape_is_pinned() {
        // Persisted traces and the serve layer's responses depend on this
        // exact shape: field order, names, and shortest-roundtrip floats.
        let mut t = Trace::new(2);
        t.push(ev(1, "dgemm", 7, 0.25, 1.5));
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            r#"{"workers":2,"events":[{"worker":1,"kernel":"dgemm","task_id":7,"start":0.25,"end":1.5}]}"#
        );
    }

    #[test]
    fn canonical_ignores_worker_placement_but_not_times() {
        let mut a = Trace::new(2);
        a.push(ev(0, "gemm", 0, 0.0, 1.0));
        a.push(ev(1, "trsm", 1, 0.0, 2.0));
        let mut b = Trace::new(2);
        b.push(ev(1, "trsm", 1, 0.0, 2.0));
        b.push(ev(0, "gemm", 0, 0.0, 1.0));
        b.spans_mut()[1].worker = 1;
        b.spans_mut()[0].worker = 0;
        assert_eq!(a.canonical(), b.canonical());
        b.spans_mut()[0].end = 2.5;
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn lane_filters_by_worker() {
        let mut t = Trace::new(2);
        t.push(ev(0, "a", 0, 0.0, 1.0));
        t.push(ev(1, "b", 1, 0.0, 1.0));
        t.push(ev(0, "c", 2, 1.0, 2.0));
        assert_eq!(t.lane(0).count(), 2);
        assert_eq!(t.lane(1).count(), 1);
    }
}
