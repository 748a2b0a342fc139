//! Runtime execution statistics.

use serde::{Deserialize, Serialize};

/// Aggregate counters collected by the engine during a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Tasks executed per worker.
    pub per_worker_tasks: Vec<u64>,
    /// Wall-clock busy seconds per worker (time inside task bodies).
    pub per_worker_busy: Vec<f64>,
    /// Total tasks completed.
    pub completed: u64,
    /// Tasks whose body panicked (caught and recorded).
    pub failed: u64,
    /// Tasks cancelled before execution via [`abort_pending`].
    ///
    /// [`abort_pending`]: crate::engine::Runtime::abort_pending
    pub cancelled: u64,
    /// Times a worker went to sleep on the work queue (busy -> parked).
    /// High values relative to `completed` mean workers are starved.
    pub idle_transitions: u64,
    /// Times a worker picked up a task (parked/scanning -> executing).
    pub busy_transitions: u64,
    /// Hot-path engine-lock acquisitions: task submission, dispatch
    /// registration, and completion propagation fused with the worker's
    /// next pop (plus each worker's first pop). Cold paths (stats reads,
    /// seal, quiescence probes) are not counted.
    pub lock_acquisitions: u64,
}

impl RuntimeStats {
    /// New zeroed stats for `workers` lanes.
    pub fn new(workers: usize) -> Self {
        RuntimeStats {
            per_worker_tasks: vec![0; workers],
            per_worker_busy: vec![0.0; workers],
            completed: 0,
            failed: 0,
            cancelled: 0,
            idle_transitions: 0,
            busy_transitions: 0,
            lock_acquisitions: 0,
        }
    }

    /// Publish these statistics as `engine.*` metrics. Counter pushes
    /// accumulate, so stats from several runtimes sum into one snapshot.
    #[cfg(feature = "metrics")]
    pub fn publish_metrics(&self, snap: &mut supersim_metrics::MetricsSnapshot) {
        snap.push_counter("engine.tasks.completed", self.completed);
        snap.push_counter("engine.tasks.failed", self.failed);
        snap.push_counter("engine.tasks.cancelled", self.cancelled);
        snap.push_counter("engine.worker.idle_transitions", self.idle_transitions);
        snap.push_counter("engine.worker.busy_transitions", self.busy_transitions);
        snap.push_counter("engine.lock.acquisitions", self.lock_acquisitions);
        snap.push_gauge("engine.workers", self.per_worker_tasks.len() as i64);
    }

    /// Imbalance ratio: max per-worker task count over mean (1.0 = perfectly
    /// balanced; 0 when nothing ran).
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_worker_tasks.iter().sum();
        if total == 0 || self.per_worker_tasks.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.per_worker_tasks.len() as f64;
        let max = *self.per_worker_tasks.iter().max().unwrap() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let s = RuntimeStats::new(3);
        assert_eq!(s.per_worker_tasks, vec![0, 0, 0]);
        assert_eq!(s.completed, 0);
        assert_eq!(s.imbalance(), 0.0);
    }

    #[test]
    fn imbalance_perfectly_balanced() {
        let mut s = RuntimeStats::new(2);
        s.per_worker_tasks = vec![5, 5];
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_skewed() {
        let mut s = RuntimeStats::new(2);
        s.per_worker_tasks = vec![10, 0];
        assert!((s.imbalance() - 2.0).abs() < 1e-12);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn publish_metrics_emits_engine_family() {
        let mut s = RuntimeStats::new(3);
        s.completed = 7;
        s.idle_transitions = 2;
        s.busy_transitions = 9;
        s.lock_acquisitions = 20;
        let mut snap = supersim_metrics::MetricsSnapshot::default();
        s.publish_metrics(&mut snap);
        assert_eq!(snap.counter("engine.tasks.completed"), Some(7));
        assert_eq!(snap.counter("engine.worker.idle_transitions"), Some(2));
        assert_eq!(snap.counter("engine.worker.busy_transitions"), Some(9));
        assert_eq!(snap.counter("engine.lock.acquisitions"), Some(20));
        assert_eq!(snap.gauge("engine.workers"), Some(3));
        // A second runtime's stats accumulate into the same snapshot.
        s.publish_metrics(&mut snap);
        assert_eq!(snap.counter("engine.tasks.completed"), Some(14));
    }
}
