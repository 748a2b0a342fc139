//! Chrome trace-event export (`chrome://tracing` / Perfetto JSON).
//!
//! An alternative to the SVG renderer: load the emitted JSON in any
//! Chromium browser's `chrome://tracing` page or in <https://ui.perfetto.dev>
//! to explore a trace interactively. Times are exported in microseconds
//! ("complete" `X` events, one per task, `tid` = worker lane).
//!
//! [`ChromeStreamSink`] is the one writer of the JSON array: it streams
//! spans epoch by epoch, and the buffered exporters ([`to_chrome_json`],
//! [`to_chrome_json_grouped`], [`to_chrome_json_with_metrics`]) feed it a
//! whole trace at once. With the `metrics` feature,
//! [`to_chrome_json_with_metrics`] also emits counter tracks (`C`
//! events): a `running_tasks` concurrency track derived from the trace's
//! own event boundaries, plus one flat track per counter in a
//! [`supersim_metrics::MetricsSnapshot`], so wakeup counts and TEQ
//! traffic are visible alongside the timeline they came from.

use crate::fault::{span_kind, SpanKind};
use crate::num::push_u64;
use crate::sink::{TraceSink, LINE_CAPACITY};
use crate::{Trace, TraceEvent};
use std::io::{self, Write};

/// Extra `cname` field (a Chrome trace-viewer reserved color class) for
/// fault-marked spans, so failed attempts, lost work and backoff read
/// at a glance in the timeline. Normal spans add nothing — fault-free
/// exports stay byte-identical.
fn fault_cname(kernel: &str) -> &'static str {
    match span_kind(kernel) {
        SpanKind::Normal => "",
        SpanKind::Failed => r#","cname":"terrible""#,
        SpanKind::Lost => r#","cname":"bad""#,
        SpanKind::Backoff => r#","cname":"grey""#,
    }
}

/// Append one span as a complete `X` Chrome trace event (`tid` = worker
/// lane). Times are microseconds at std's `{:.3}`.
pub(crate) fn push_chrome_event(out: &mut Vec<u8>, e: &TraceEvent, pid: usize) {
    out.extend_from_slice(br#"{"name":"#);
    push_json_string(out, &e.kernel);
    out.extend_from_slice(br#","ph":"X""#);
    out.extend_from_slice(fault_cname(&e.kernel).as_bytes());
    let _ = write!(
        out,
        r#","ts":{:.3},"dur":{:.3},"pid":"#,
        e.start * 1e6,
        e.duration() * 1e6
    );
    push_u64(out, pid as u64);
    out.extend_from_slice(br#","tid":"#);
    push_u64(out, e.worker as u64);
    out.extend_from_slice(br#","args":{"task_id":"#);
    push_u64(out, e.task_id);
    out.extend_from_slice(b"}}");
}

/// How one trace lane should appear in a grouped Chrome export: which
/// process row it belongs to and what the process/thread rows are called.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneGroup {
    /// Process id the lane is grouped under (e.g. the cluster node index).
    pub pid: usize,
    /// Process row label (e.g. `"node 0"`). Lanes sharing a pid should
    /// agree on this; the first lane's name wins.
    pub process_name: String,
    /// Thread row label (e.g. `"w3"` or `"nic0"`).
    pub thread_name: String,
}

/// Incremental Chrome trace-event writer: the JSON array, one epoch at a
/// time, so the full document never has to exist in memory. Each event
/// is built in one reused line buffer and handed to the writer whole.
#[derive(Debug)]
pub struct ChromeStreamSink<W: Write> {
    out: W,
    line: Vec<u8>,
    lanes: Vec<LaneGroup>,
    first: bool,
    opened: bool,
}

impl<W: Write> ChromeStreamSink<W> {
    /// Wrap an arbitrary writer; every span goes to pid 0. Nothing is
    /// written until the first epoch arrives (or [`TraceSink::close`],
    /// for an empty stream).
    pub fn new(out: W) -> Self {
        Self::grouped(out, Vec::new())
    }

    /// Wrap a writer and group lanes into named processes — one Perfetto
    /// process row per cluster node, with its compute workers and NIC
    /// lanes as named threads. `lanes[w]` describes trace lane `w`; lanes
    /// beyond it fall back to pid 0 / numeric names. The array opens with
    /// `M` (metadata) `process_name`/`thread_name` events, and each `X`
    /// event takes its `pid` from its lane.
    pub fn grouped(out: W, lanes: Vec<LaneGroup>) -> Self {
        ChromeStreamSink {
            out,
            line: Vec::with_capacity(LINE_CAPACITY),
            lanes,
            first: true,
            opened: false,
        }
    }

    /// Write the array's opening `[` and the lane metadata, once.
    fn open(&mut self) -> io::Result<()> {
        if self.opened {
            return Ok(());
        }
        self.opened = true;
        self.line.clear();
        self.line.push(b'[');
        let mut named_pids: Vec<usize> = Vec::new();
        for (w, lane) in self.lanes.iter().enumerate() {
            if !named_pids.contains(&lane.pid) {
                named_pids.push(lane.pid);
                separate(&mut self.line, &mut self.first);
                push_metadata(
                    &mut self.line,
                    "process_name",
                    lane.pid,
                    None,
                    &lane.process_name,
                );
            }
            separate(&mut self.line, &mut self.first);
            push_metadata(
                &mut self.line,
                "thread_name",
                lane.pid,
                Some(w),
                &lane.thread_name,
            );
        }
        self.out.write_all(&self.line)
    }

    /// Append one `C` (counter) sample.
    #[cfg(feature = "metrics")]
    fn counter(&mut self, name: &str, ts_us: f64, value: f64) -> io::Result<()> {
        self.open()?;
        self.line.clear();
        separate(&mut self.line, &mut self.first);
        self.line.extend_from_slice(br#"{"name":"#);
        push_json_string(&mut self.line, name);
        let _ = write!(
            self.line,
            r#","ph":"C","ts":{ts_us:.3},"pid":0,"args":{{"value":{value}}}}}"#
        );
        self.out.write_all(&self.line)
    }
}

impl<W: Write + Send> TraceSink for ChromeStreamSink<W> {
    fn flush_epoch(&mut self, spans: &[TraceEvent]) -> io::Result<()> {
        self.open()?;
        for e in spans {
            self.line.clear();
            separate(&mut self.line, &mut self.first);
            let pid = self.lanes.get(e.worker).map_or(0, |l| l.pid);
            push_chrome_event(&mut self.line, e, pid);
            self.out.write_all(&self.line)?;
        }
        Ok(())
    }

    fn close(&mut self) -> io::Result<()> {
        self.open()?;
        self.out.write_all(b"]")?;
        self.out.flush()
    }
}

/// The `,` between array elements: none before the first.
fn separate(out: &mut Vec<u8>, first: &mut bool) {
    if !std::mem::take(first) {
        out.push(b',');
    }
}

/// Append one `M` (metadata) event naming a process (`tid: None`) or a
/// thread row.
fn push_metadata(out: &mut Vec<u8>, kind: &str, pid: usize, tid: Option<usize>, name: &str) {
    out.extend_from_slice(br#"{"name":""#);
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(br#"","ph":"M","pid":"#);
    push_u64(out, pid as u64);
    if let Some(tid) = tid {
        out.extend_from_slice(br#","tid":"#);
        push_u64(out, tid as u64);
    }
    out.extend_from_slice(br#","args":{"name":"#);
    push_json_string(out, name);
    out.extend_from_slice(b"}}");
}

/// Serialize a trace to the Chrome trace-event JSON array format.
pub fn to_chrome_json(trace: &Trace) -> String {
    export(trace, Vec::new(), |_| Ok(()))
}

/// Serialize a trace with lanes grouped into named processes (see
/// [`ChromeStreamSink::grouped`]).
pub fn to_chrome_json_grouped(trace: &Trace, lanes: &[LaneGroup]) -> String {
    export(trace, lanes.to_vec(), |_| Ok(()))
}

/// Serialize a trace plus metrics counter tracks.
///
/// Emits the same `X` events as [`to_chrome_json`], then:
///
/// * a `running_tasks` counter track sampled at every task start/end
///   boundary (the instantaneous parallelism profile of the trace), and
/// * one flat counter track per counter in `snap`, sampled at the trace
///   origin and at its makespan, so Perfetto renders the run's totals as
///   horizontal bands next to the timeline.
#[cfg(feature = "metrics")]
pub fn to_chrome_json_with_metrics(
    trace: &Trace,
    snap: &supersim_metrics::MetricsSnapshot,
) -> String {
    export(trace, Vec::new(), |sink| {
        // Concurrency track: +1 at each start, -1 at each end, cumulative
        // sum in timestamp order (ends before starts on ties, so a task
        // handing off to another at the same instant does not
        // double-count).
        let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(trace.len() * 2);
        for e in trace.spans() {
            deltas.push((e.start, 1));
            deltas.push((e.end, -1));
        }
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut running = 0i64;
        for (t, d) in deltas {
            running += d;
            sink.counter("running_tasks", t * 1e6, running as f64)?;
        }
        // Flat per-counter tracks across the whole timeline.
        let end_us = trace.makespan() * 1e6;
        for c in &snap.counters {
            sink.counter(&c.name, 0.0, c.value as f64)?;
            if end_us > 0.0 {
                sink.counter(&c.name, end_us, c.value as f64)?;
            }
        }
        Ok(())
    })
}

/// Feed every span of `trace` to one [`ChromeStreamSink`] over a byte
/// buffer, let `extra` append events after them, and close the array.
fn export(
    trace: &Trace,
    lanes: Vec<LaneGroup>,
    extra: impl FnOnce(&mut ChromeStreamSink<&mut Vec<u8>>) -> io::Result<()>,
) -> String {
    let mut json = Vec::with_capacity(64 + trace.len() * 96);
    let mut sink = ChromeStreamSink::grouped(&mut json, lanes);
    sink.flush_epoch(trace.spans())
        .and_then(|()| extra(&mut sink))
        .and_then(|()| sink.close())
        .expect("a Vec accepts every write");
    String::from_utf8(json).expect("JSON built from &str and ASCII is UTF-8")
}

/// Append `v` as a JSON string literal. A label with nothing to escape
/// (every kernel label in practice) is copied straight in.
pub(crate) fn push_json_string(out: &mut Vec<u8>, v: &str) {
    let escaped = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
    out.push(b'"');
    if !v.bytes().any(escaped) {
        out.extend_from_slice(v.as_bytes());
    } else {
        // Bytes of multi-byte UTF-8 sequences are >= 0x80: copied as is.
        for b in v.bytes() {
            match b {
                b'"' => out.extend_from_slice(br#"\""#),
                b'\\' => out.extend_from_slice(br"\\"),
                b if b < 0x20 => {
                    let _ = write!(out, "\\u{b:04x}");
                }
                b => out.push(b),
            }
        }
    }
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn trace() -> Trace {
        let mut t = Trace::new(2);
        t.push(TraceEvent {
            worker: 0,
            kernel: "dgemm".into(),
            task_id: 3,
            start: 0.001,
            end: 0.002,
        });
        t.push(TraceEvent {
            worker: 1,
            kernel: "we\"ird".into(),
            task_id: 4,
            start: 0.0,
            end: 0.0005,
        });
        t
    }

    #[test]
    fn emits_valid_json() {
        let json = to_chrome_json(&trace());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0]["ph"], "X");
        assert_eq!(arr[0]["name"], "dgemm");
        assert_eq!(arr[0]["tid"], 0);
        assert_eq!(arr[0]["args"]["task_id"], 3);
        // Microsecond conversion.
        assert!((arr[0]["ts"].as_f64().unwrap() - 1000.0).abs() < 1e-6);
        assert!((arr[0]["dur"].as_f64().unwrap() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn escapes_special_characters() {
        let json = to_chrome_json(&trace());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[1]["name"], "we\"ird");
    }

    #[test]
    fn fault_marked_spans_carry_color_classes() {
        let mut t = Trace::new(1);
        for (i, k) in ["dgemm", "dgemm!fail", "~backoff", "dpotrf!lost"]
            .iter()
            .enumerate()
        {
            t.push(TraceEvent {
                worker: 0,
                kernel: (*k).into(),
                task_id: i as u64,
                start: i as f64,
                end: i as f64 + 0.5,
            });
        }
        let json = to_chrome_json(&t);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        assert!(arr[0].get("cname").is_none(), "normal spans add nothing");
        assert_eq!(arr[1]["cname"], "terrible");
        assert_eq!(arr[2]["cname"], "grey");
        assert_eq!(arr[3]["cname"], "bad");
    }

    #[test]
    fn empty_trace_is_empty_array() {
        assert_eq!(to_chrome_json(&Trace::new(0)), "[]");
    }

    #[test]
    fn grouped_export_emits_process_and_thread_metadata() {
        let lanes = vec![
            LaneGroup {
                pid: 0,
                process_name: "node 0".into(),
                thread_name: "w0".into(),
            },
            LaneGroup {
                pid: 1,
                process_name: "node 1".into(),
                thread_name: "nic0".into(),
            },
        ];
        let json = to_chrome_json_grouped(&trace(), &lanes);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        // 2 process_name + 2 thread_name + 2 X events.
        assert_eq!(arr.len(), 6);
        let meta: Vec<_> = arr.iter().filter(|e| e["ph"] == "M").collect();
        assert_eq!(meta.len(), 4);
        assert!(meta
            .iter()
            .any(|e| e["name"] == "process_name" && e["args"]["name"] == "node 1"));
        assert!(meta
            .iter()
            .any(|e| e["name"] == "thread_name" && e["args"]["name"] == "nic0" && e["pid"] == 1));
        // The X event on lane 1 inherits lane 1's pid.
        let x1 = arr
            .iter()
            .find(|e| e["ph"] == "X" && e["tid"] == 1)
            .unwrap();
        assert_eq!(x1["pid"], 1);
    }

    #[test]
    fn grouped_export_tolerates_missing_lane_info() {
        let json = to_chrome_json_grouped(&trace(), &[]);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 2, "no metadata, X events only");
        assert!(arr.iter().all(|e| e["pid"] == 0));
    }

    #[test]
    fn shared_pid_named_once() {
        let lanes = vec![
            LaneGroup {
                pid: 0,
                process_name: "node 0".into(),
                thread_name: "w0".into(),
            },
            LaneGroup {
                pid: 0,
                process_name: "node 0".into(),
                thread_name: "w1".into(),
            },
        ];
        let json = to_chrome_json_grouped(&trace(), &lanes);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let names = v
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["name"] == "process_name")
            .count();
        assert_eq!(names, 1);
    }

    #[cfg(feature = "metrics")]
    mod metrics {
        use super::*;
        use supersim_metrics::MetricsSnapshot;

        #[test]
        fn counter_tracks_appended_after_task_events() {
            let mut snap = MetricsSnapshot::default();
            snap.push_counter("teq.wakeup.targeted", 42);
            let json = to_chrome_json_with_metrics(&trace(), &snap);
            let v: serde_json::Value = serde_json::from_str(&json).unwrap();
            let arr = v.as_array().unwrap();
            // 2 X events + 4 running_tasks samples + 2 flat samples.
            assert_eq!(arr.len(), 8);
            let c_events: Vec<_> = arr.iter().filter(|e| e["ph"] == "C").collect();
            assert_eq!(c_events.len(), 6);
            let wakeups: Vec<_> = c_events
                .iter()
                .filter(|e| e["name"] == "teq.wakeup.targeted")
                .collect();
            assert_eq!(wakeups.len(), 2, "value at origin and at makespan");
            assert_eq!(wakeups[0]["args"]["value"].as_f64(), Some(42.0));
        }

        #[test]
        fn running_tasks_track_is_a_parallelism_profile() {
            let json = to_chrome_json_with_metrics(&trace(), &MetricsSnapshot::default());
            let v: serde_json::Value = serde_json::from_str(&json).unwrap();
            let samples: Vec<f64> = v
                .as_array()
                .unwrap()
                .iter()
                .filter(|e| e["name"] == "running_tasks")
                .map(|e| e["args"]["value"].as_f64().unwrap())
                .collect();
            // Events: [0, 0.5ms] and [1ms, 2ms]: 1, 0, 1, 0.
            assert_eq!(samples, vec![1.0, 0.0, 1.0, 0.0]);
        }

        #[test]
        fn empty_trace_with_metrics_has_only_origin_samples() {
            let mut snap = MetricsSnapshot::default();
            snap.push_counter("c", 1);
            let json = to_chrome_json_with_metrics(&Trace::new(0), &snap);
            let v: serde_json::Value = serde_json::from_str(&json).unwrap();
            assert_eq!(v.as_array().unwrap().len(), 1, "no duplicate at ts 0");
        }
    }
}
