//! Property-based tests for the trace layer.

#![cfg(test)]

use crate::chrome::{push_chrome_event, to_chrome_json};
use crate::sink::{ndjson_line, parse_ndjson};
use crate::{text, Trace, TraceComparison, TraceEvent};
use proptest::prelude::*;

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        0usize..8,
        prop_oneof![Just("gemm"), Just("trsm"), Just("potrf"), Just("x_y")],
        0u64..10_000,
        0.0f64..1e3,
        0.0f64..10.0,
    )
        .prop_map(|(worker, kernel, task_id, start, dur)| TraceEvent {
            worker,
            kernel: kernel.to_string(),
            task_id,
            start,
            end: start + dur,
        })
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    prop::collection::vec(event_strategy(), 0..40).prop_map(|mut events| {
        // Unique task ids (required by comparison semantics).
        for (i, e) in events.iter_mut().enumerate() {
            e.task_id = i as u64;
        }
        Trace::from_parts(8, events)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Text format round-trips every event exactly enough for comparison.
    #[test]
    fn text_round_trip(t in trace_strategy()) {
        let written = text::write(&t);
        let back = text::parse(&written).unwrap();
        prop_assert_eq!(back.workers, t.workers);
        prop_assert_eq!(back.len(), t.len());
        for (a, b) in t.spans().iter().zip(back.spans().iter()) {
            prop_assert_eq!(a.worker, b.worker);
            prop_assert_eq!(&a.kernel, &b.kernel);
            prop_assert_eq!(a.task_id, b.task_id);
            prop_assert!((a.start - b.start).abs() < 1e-6);
            prop_assert!((a.end - b.end).abs() < 1e-6);
        }
    }

    /// Normalize is idempotent and shifts the earliest start to zero.
    #[test]
    fn normalize_idempotent(t in trace_strategy()) {
        let mut once = t.clone();
        once.normalize();
        let mut twice = once.clone();
        twice.normalize();
        prop_assert_eq!(&once, &twice);
        if !once.is_empty() {
            let min_start = once.spans().iter().map(|e| e.start).fold(f64::INFINITY, f64::min);
            prop_assert!(min_start.abs() < 1e-12);
        }
    }

    /// Normalization preserves the makespan.
    #[test]
    fn normalize_preserves_makespan(t in trace_strategy()) {
        let before = t.makespan();
        let mut n = t.clone();
        n.normalize();
        prop_assert!((n.makespan() - before).abs() < 1e-9);
    }

    /// A trace always compares perfectly with itself.
    #[test]
    fn self_comparison_perfect(t in trace_strategy()) {
        let cmp = TraceComparison::compare(&t, &t);
        prop_assert_eq!(cmp.makespan_rel_error, 0.0);
        prop_assert!(cmp.same_kernel_population);
        prop_assert_eq!(cmp.matched_tasks, t.len());
        prop_assert_eq!(cmp.mean_start_shift, 0.0);
        if !t.is_empty() {
            prop_assert_eq!(cmp.placement_agreement, 1.0);
        }
    }

    /// Uniform time scaling changes the makespan error by exactly the
    /// scale factor.
    #[test]
    fn comparison_detects_uniform_scaling(t in trace_strategy(), scale in 1.01f64..3.0) {
        prop_assume!(t.makespan() > 1e-9);
        let mut scaled = t.clone();
        for e in scaled.spans_mut() {
            e.start *= scale;
            e.end *= scale;
        }
        let cmp = TraceComparison::compare(&t, &scaled);
        prop_assert!((cmp.makespan_rel_error - (scale - 1.0)).abs() < 1e-9);
    }

    /// SVG rendering never panics and always yields a well-formed shell.
    #[test]
    fn svg_always_renders(t in trace_strategy()) {
        let mut t = t;
        t.normalize();
        let svg = crate::svg::render_default(&t);
        prop_assert!(svg.starts_with("<svg"));
        prop_assert!(svg.trim_end().ends_with("</svg>"));
    }

    /// ASCII rendering yields one row per worker lane plus a legend.
    #[test]
    fn ascii_row_count(t in trace_strategy(), cols in 4usize..100) {
        let mut t = t;
        t.normalize();
        let art = crate::ascii::render(&t, cols);
        prop_assert_eq!(art.lines().count(), t.workers + 1);
    }

    /// Stats busy time equals the sum of event durations.
    #[test]
    fn stats_busy_time_is_duration_sum(t in trace_strategy()) {
        let stats = crate::stats::TraceStats::of(&t);
        let sum: f64 = t.spans().iter().map(|e| e.duration()).sum();
        prop_assert!((stats.busy_time - sum).abs() < 1e-9);
        let per_kernel: usize = stats.kernels.values().map(|k| k.count).sum();
        prop_assert_eq!(per_kernel, t.len());
    }
}

/// The `format!`-based span serializers that the byte writers replaced,
/// kept as the oracle their output must match byte for byte.
mod reference {
    use crate::{Trace, TraceEvent};
    use std::fmt::Write as _;

    pub fn json_string(v: &str) -> String {
        let mut out = String::from("\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    pub fn ndjson_line(e: &TraceEvent) -> String {
        format!(
            r#"{{"worker":{},"kernel":{},"task_id":{},"start":{:?},"end":{:?}}}"#,
            e.worker,
            json_string(&e.kernel),
            e.task_id,
            e.start,
            e.end
        )
    }

    pub fn chrome_event(e: &TraceEvent, pid: usize) -> String {
        let cname = match crate::fault::span_kind(&e.kernel) {
            crate::fault::SpanKind::Normal => "",
            crate::fault::SpanKind::Failed => r#","cname":"terrible""#,
            crate::fault::SpanKind::Lost => r#","cname":"bad""#,
            crate::fault::SpanKind::Backoff => r#","cname":"grey""#,
        };
        format!(
            r#"{{"name":{},"ph":"X"{},"ts":{:.3},"dur":{:.3},"pid":{},"tid":{},"args":{{"task_id":{}}}}}"#,
            json_string(&e.kernel),
            cname,
            e.start * 1e6,
            e.duration() * 1e6,
            pid,
            e.worker,
            e.task_id
        )
    }

    pub fn canonical(t: &Trace) -> String {
        let mut events: Vec<&TraceEvent> = t.spans().iter().collect();
        events.sort_by(|a, b| a.task_id.cmp(&b.task_id).then(a.start.total_cmp(&b.start)));
        let mut s = String::new();
        for e in events {
            let _ = writeln!(s, "{} {} {:?} {:?}", e.task_id, e.kernel, e.start, e.end);
        }
        s
    }
}

/// A time: a virtual clock value, or any bit pattern at all.
fn any_time() -> impl Strategy<Value = f64> {
    prop_oneof![0.0f64..1e4, any::<u64>().prop_map(f64::from_bits)]
}

/// Spans with the labels the serializers treat differently: plain,
/// fault-marked, escaped, control characters and non-ASCII.
fn wild_event() -> impl Strategy<Value = TraceEvent> {
    (
        any::<usize>(),
        prop_oneof![
            Just("dgemm"),
            Just("dpotrf!fail"),
            Just("dgemm!lost"),
            Just("~backoff"),
            Just("we\"ird\\k"),
            Just("tab\tnl\n\u{1}\u{1f}"),
            Just("ünï ✓"),
            Just(""),
        ],
        any::<u64>(),
        any_time(),
        any_time(),
    )
        .prop_map(|(worker, kernel, task_id, start, end)| TraceEvent {
            worker,
            kernel: kernel.to_string(),
            task_id,
            start,
            end,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every span serializer writes what its `format!` form wrote, and an
    /// ndjson line parses back to the same span, bit for bit.
    #[test]
    fn serializers_match_format_reference(
        events in prop::collection::vec(wild_event(), 0..12),
        pid in any::<usize>(),
    ) {
        let t = Trace::from_parts(4, events);
        for e in t.spans() {
            let line = ndjson_line(e);
            prop_assert_eq!(&line, &reference::ndjson_line(e));
            let mut chrome = Vec::new();
            push_chrome_event(&mut chrome, e, pid);
            prop_assert_eq!(String::from_utf8(chrome).unwrap(), reference::chrome_event(e, pid));
            if e.worker < usize::MAX && !e.start.is_nan() && !e.end.is_nan() {
                let back = parse_ndjson(&line).unwrap();
                prop_assert_eq!(back.spans(), std::slice::from_ref(e));
            }
        }
        let chrome: Vec<String> = t.spans().iter().map(|e| reference::chrome_event(e, 0)).collect();
        prop_assert_eq!(to_chrome_json(&t), format!("[{}]", chrome.join(",")));
        prop_assert_eq!(t.canonical(), reference::canonical(&t));
    }
}
