//! Trace surgery for phased permanent-failure replay.
//!
//! A permanent failure is simulated in two phases: phase A runs the full
//! workload and is *cut* at the failure time; phase B re-runs the
//! surviving work on the reduced machine, on a fresh clock. These helpers
//! mark the work lost to the cut and stitch the two phases into one
//! trace on a common timeline with unique task ids.

use supersim_trace::fault::{base_kernel, LOST_SUFFIX};
use supersim_trace::{KernelName, Trace, TraceEvent};

/// The name of `kernel`'s work lost to a permanent failure: its base
/// kernel marked `!lost`. Make it once per class and hand it to every
/// [`mark_lost`] of that class, so the lost spans share one name.
pub fn lost_name(kernel: &str) -> KernelName {
    [base_kernel(kernel), LOST_SUFFIX].concat().into()
}

/// A copy of `e` marked as lost to a permanent failure (renamed `lost`,
/// its class's [`lost_name`]), optionally truncated at the failure time
/// (for in-flight work cut mid-span).
pub fn mark_lost(e: &TraceEvent, lost: &KernelName, truncate_at: Option<f64>) -> TraceEvent {
    let mut out = e.clone();
    out.kernel = lost.clone();
    if let Some(t) = truncate_at {
        out.end = out.end.min(t).max(out.start);
    }
    out
}

/// Stitch the kept/marked phase-A events and the phase-B trace into one
/// trace: phase-B times are shifted by `time_offset` (the restart point
/// on the global timeline) and phase-B task ids by `id_offset` (so the
/// canonical, id-sorted serialization keeps the phases distinct).
pub fn stitch(
    workers: usize,
    phase_a: Vec<TraceEvent>,
    phase_b: &Trace,
    time_offset: f64,
    id_offset: u64,
) -> Trace {
    let mut events = phase_a;
    events.reserve(phase_b.len());
    for e in phase_b.spans() {
        let mut e = e.clone();
        e.start += time_offset;
        e.end += time_offset;
        e.task_id += id_offset;
        events.push(e);
    }
    let mut trace = Trace::from_parts(workers, events);
    trace.normalize();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_trace::fault::{event_kind, SpanKind};

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
    fn mark_lost_marks_and_truncates() {
        let e = ev(0, "dgemm", 3, 1.0, 4.0);
        let name = lost_name("dgemm");
        let lost = mark_lost(&e, &name, Some(2.5));
        assert_eq!(lost.kernel, "dgemm!lost");
        assert!(lost.kernel.ptr_eq(&name));
        assert_eq!(lost.end, 2.5);
        assert_eq!(event_kind(&lost), SpanKind::Lost);
        // No truncation point: span kept whole.
        assert_eq!(mark_lost(&e, &name, None).end, 4.0);
        // Truncation before the start clamps to an instant, not negative.
        assert_eq!(mark_lost(&e, &name, Some(0.5)).end, 1.0);
        // A failed attempt's work is lost under its base kernel's name.
        assert_eq!(lost_name("dgemm!fail"), "dgemm!lost");
    }

    #[test]
    fn stitch_offsets_phase_b() {
        let a = vec![ev(0, "k", 0, 0.0, 1.0), ev(1, "k!lost", 1, 0.0, 0.5)];
        let mut b = Trace::new(2);
        b.push(ev(0, "k", 0, 0.0, 2.0));
        let t = stitch(2, a, &b, 10.0, 100);
        assert_eq!(t.len(), 3);
        let re = t.spans().iter().find(|e| e.task_id == 100).unwrap();
        assert_eq!((re.start, re.end), (10.0, 12.0));
        assert!(t.validate(1e-12).is_ok());
    }
}
