//! Trace statistics: makespan, utilization, idle time, per-kernel summaries.

use crate::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Summary of a single kernel class within a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Number of occurrences.
    pub count: usize,
    /// Sum of durations.
    pub total_time: f64,
    /// Mean duration.
    pub mean_time: f64,
    /// Minimum duration.
    pub min_time: f64,
    /// Maximum duration.
    pub max_time: f64,
}

/// Aggregate statistics for a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of worker lanes.
    pub workers: usize,
    /// Number of events.
    pub events: usize,
    /// Latest end minus earliest start.
    pub makespan: f64,
    /// Sum of all event durations (total busy time).
    pub busy_time: f64,
    /// `busy_time / (workers * makespan)`; 0 for empty traces.
    pub utilization: f64,
    /// Busy time per worker lane.
    pub per_worker_busy: Vec<f64>,
    /// Events executed per worker lane.
    pub per_worker_count: Vec<usize>,
    /// Per-kernel-class summaries, keyed by label (sorted).
    pub kernels: BTreeMap<String, KernelStats>,
}

impl TraceStats {
    /// Compute statistics for a trace.
    pub fn of(trace: &Trace) -> Self {
        let mut per_worker_busy = vec![0.0; trace.workers];
        let mut per_worker_count = vec![0usize; trace.workers];
        let mut kernels: BTreeMap<String, KernelStats> = BTreeMap::new();
        let mut busy = 0.0;
        for e in trace.spans() {
            let d = e.duration();
            busy += d;
            if e.worker < per_worker_busy.len() {
                per_worker_busy[e.worker] += d;
                per_worker_count[e.worker] += 1;
            }
            // Look up first: the key is made once per class, not per span.
            if !kernels.contains_key(e.kernel.as_str()) {
                let empty = KernelStats {
                    count: 0,
                    total_time: 0.0,
                    mean_time: 0.0,
                    min_time: f64::INFINITY,
                    max_time: f64::NEG_INFINITY,
                };
                kernels.insert(e.kernel.to_string(), empty);
            }
            let k = kernels.get_mut(e.kernel.as_str()).expect("inserted above");
            k.count += 1;
            k.total_time += d;
            k.min_time = k.min_time.min(d);
            k.max_time = k.max_time.max(d);
        }
        for k in kernels.values_mut() {
            k.mean_time = k.total_time / k.count as f64;
        }
        let makespan = trace.makespan();
        let utilization = if makespan > 0.0 && trace.workers > 0 {
            busy / (trace.workers as f64 * makespan)
        } else {
            0.0
        };
        TraceStats {
            workers: trace.workers,
            events: trace.len(),
            makespan,
            busy_time: busy,
            utilization,
            per_worker_busy,
            per_worker_count,
            kernels,
        }
    }

    /// Render a compact human-readable report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workers={} events={} makespan={:.6}s busy={:.6}s util={:.1}%",
            self.workers,
            self.events,
            self.makespan,
            self.busy_time,
            self.utilization * 100.0
        );
        for (label, k) in &self.kernels {
            let _ = writeln!(
                s,
                "  {:<12} n={:<6} total={:.6}s mean={:.6}s min={:.6}s max={:.6}s",
                label, k.count, k.total_time, k.mean_time, k.min_time, k.max_time
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn trace() -> Trace {
        let mut t = Trace::new(2);
        for (w, k, id, s, e) in [
            (0, "gemm", 0, 0.0, 1.0),
            (0, "gemm", 1, 1.0, 3.0),
            (1, "trsm", 2, 0.0, 2.0),
        ] {
            t.push(TraceEvent {
                worker: w,
                kernel: k.into(),
                task_id: id,
                start: s,
                end: e,
            });
        }
        t
    }

    #[test]
    fn aggregate_stats() {
        let s = TraceStats::of(&trace());
        assert_eq!(s.events, 3);
        assert!((s.makespan - 3.0).abs() < 1e-12);
        assert!((s.busy_time - 5.0).abs() < 1e-12);
        assert!((s.utilization - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.per_worker_count, vec![2, 1]);
        assert!((s.per_worker_busy[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_breakdown() {
        let s = TraceStats::of(&trace());
        assert_eq!(s.kernels["gemm"].count, 2);
        assert_eq!(s.kernels["trsm"].count, 1);
        assert!(!s.kernels.contains_key("nope"));
        let g = &s.kernels["gemm"];
        assert!((g.mean_time - 1.5).abs() < 1e-12);
        assert_eq!(g.min_time, 1.0);
        assert_eq!(g.max_time, 2.0);
    }

    #[test]
    fn empty_trace_stats() {
        let s = TraceStats::of(&Trace::new(4));
        assert_eq!(s.events, 0);
        assert_eq!(s.utilization, 0.0);
    }

    #[test]
    fn report_contains_key_numbers() {
        let s = TraceStats::of(&trace());
        let r = s.report();
        assert!(r.contains("workers=2"));
        assert!(r.contains("gemm"));
        assert!(r.contains("trsm"));
    }
}
