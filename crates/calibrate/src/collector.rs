//! Extract per-kernel duration samples from an execution trace.

use std::collections::{BTreeMap, HashSet};
use supersim_trace::Trace;

/// Options controlling sample extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectOptions {
    /// Exclude each worker's first execution of each kernel class (the
    /// paper's MKL-initialization outliers, §V-B1).
    pub exclude_first_per_worker: bool,
    /// Symmetric quantile trim: drop samples below `q` and above `1 - q`
    /// (0 disables). Applied after warm-up exclusion.
    pub trim_quantile: f64,
}

impl Default for CollectOptions {
    fn default() -> Self {
        CollectOptions {
            exclude_first_per_worker: true,
            trim_quantile: 0.0,
        }
    }
}

/// Samples for one kernel class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelSamples {
    /// Retained duration samples (seconds), in trace order.
    pub durations: Vec<f64>,
    /// Durations of the excluded per-worker first calls.
    pub warmup_durations: Vec<f64>,
    /// Count trimmed as outliers.
    pub trimmed: usize,
}

impl KernelSamples {
    /// Mean of the retained samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.durations.is_empty() {
            0.0
        } else {
            self.durations.iter().sum::<f64>() / self.durations.len() as f64
        }
    }

    /// Estimated warm-up factor: mean first-call duration over mean steady
    /// duration (1.0 when there is no evidence of warm-up).
    pub fn warmup_factor(&self) -> f64 {
        if self.warmup_durations.is_empty() || self.durations.is_empty() {
            return 1.0;
        }
        let w = self.warmup_durations.iter().sum::<f64>() / self.warmup_durations.len() as f64;
        let m = self.mean();
        if m <= 0.0 {
            return 1.0;
        }
        (w / m).max(1.0)
    }
}

/// Collect per-kernel-class samples from a trace.
pub fn collect(trace: &Trace, opts: CollectOptions) -> BTreeMap<String, KernelSamples> {
    let mut out: BTreeMap<String, KernelSamples> = BTreeMap::new();
    let mut seen: HashSet<(usize, &str)> = HashSet::new();

    // Per-worker chronological order decides which call is "first".
    let mut events: Vec<&supersim_trace::TraceEvent> = trace.spans().iter().collect();
    events.sort_by(|a, b| a.start.total_cmp(&b.start));

    for e in events {
        // Look up first: the key is made once per class, not per span.
        if !out.contains_key(e.kernel.as_str()) {
            out.insert(e.kernel.to_string(), KernelSamples::default());
        }
        let entry = out.get_mut(e.kernel.as_str()).expect("inserted above");
        let is_first = seen.insert((e.worker, e.kernel.as_str()));
        if opts.exclude_first_per_worker && is_first {
            entry.warmup_durations.push(e.duration());
        } else {
            entry.durations.push(e.duration());
        }
    }

    if opts.trim_quantile > 0.0 {
        let q = opts.trim_quantile.min(0.49);
        for samples in out.values_mut() {
            if samples.durations.len() < 4 {
                continue;
            }
            let lo = supersim_dist::quantile::quantile(&samples.durations, q);
            let hi = supersim_dist::quantile::quantile(&samples.durations, 1.0 - q);
            let before = samples.durations.len();
            samples.durations.retain(|&d| d >= lo && d <= hi);
            samples.trimmed = before - samples.durations.len();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_trace::TraceEvent;

    fn ev(worker: usize, kernel: &str, id: u64, start: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            worker,
            kernel: kernel.into(),
            task_id: id,
            start,
            end: start + dur,
        }
    }

    fn trace(events: Vec<TraceEvent>) -> Trace {
        Trace::from_parts(4, events)
    }

    #[test]
    fn groups_by_kernel() {
        let t = trace(vec![
            ev(0, "gemm", 0, 0.0, 1.0),
            ev(0, "gemm", 1, 1.0, 1.2),
            ev(0, "trsm", 2, 2.2, 0.5),
        ]);
        let s = collect(
            &t,
            CollectOptions {
                exclude_first_per_worker: false,
                trim_quantile: 0.0,
            },
        );
        assert_eq!(s["gemm"].durations.len(), 2);
        assert_eq!(s["trsm"].durations.len(), 1);
    }

    #[test]
    fn excludes_first_call_per_worker() {
        let t = trace(vec![
            ev(0, "gemm", 0, 0.0, 5.0), // worker 0 warm-up
            ev(0, "gemm", 1, 5.0, 1.0),
            ev(1, "gemm", 2, 0.0, 5.0), // worker 1 warm-up
            ev(1, "gemm", 3, 5.0, 1.0),
            ev(0, "gemm", 4, 6.0, 1.0),
        ]);
        let s = collect(&t, CollectOptions::default());
        assert_eq!(s["gemm"].durations, vec![1.0, 1.0, 1.0]);
        assert_eq!(s["gemm"].warmup_durations, vec![5.0, 5.0]);
        assert_eq!(s["gemm"].warmup_factor(), 5.0);
    }

    #[test]
    fn first_call_detection_uses_chronological_order() {
        // Events given out of order: the earliest start is the warm-up.
        let t = trace(vec![ev(0, "k", 1, 10.0, 1.0), ev(0, "k", 0, 0.0, 9.0)]);
        let s = collect(&t, CollectOptions::default());
        assert_eq!(s["k"].warmup_durations, vec![9.0]);
        assert_eq!(s["k"].durations, vec![1.0]);
    }

    #[test]
    fn trim_quantile_drops_extremes() {
        let mut events = Vec::new();
        for i in 0..100 {
            events.push(ev(0, "k", i, i as f64, 1.0));
        }
        events.push(ev(0, "k", 100, 200.0, 50.0)); // huge outlier
        let t = trace(events);
        let s = collect(
            &t,
            CollectOptions {
                exclude_first_per_worker: false,
                trim_quantile: 0.01,
            },
        );
        assert!(s["k"].trimmed >= 1);
        assert!(s["k"].durations.iter().all(|&d| d < 10.0));
    }

    #[test]
    fn warmup_factor_floors_at_one() {
        // First call *faster* than the rest: factor must clamp to 1.
        let t = trace(vec![ev(0, "k", 0, 0.0, 0.1), ev(0, "k", 1, 1.0, 1.0)]);
        let s = collect(&t, CollectOptions::default());
        assert_eq!(s["k"].warmup_factor(), 1.0);
    }

    #[test]
    fn empty_trace_collects_nothing() {
        let s = collect(&Trace::new(2), CollectOptions::default());
        assert!(s.is_empty());
    }
}
