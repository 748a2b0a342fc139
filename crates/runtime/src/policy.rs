//! Ready-queue scheduling policies.
//!
//! All policies run under the engine's central lock; what differs is the
//! *order* in which ready tasks are handed to workers — the property that
//! distinguishes the three schedulers' traces in the paper's figures.

use crate::config::PolicyKind;
use std::collections::{BinaryHeap, VecDeque};

/// Metadata the policy may use to place a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyMeta {
    /// Task priority (higher first under `Priority`).
    pub priority: i64,
    /// Worker that released the task (completed its last dependence), or
    /// `None` if it was ready at submission.
    pub releaser: Option<usize>,
    /// Affinity key (e.g. the task's first written data region id).
    pub affinity: Option<u64>,
    /// Half-open worker range the task is pinned to (`None` = any).
    pub pin: Option<(usize, usize)>,
}

/// A ready-queue policy. Implementations are driven under the engine lock,
/// so they need no internal synchronization.
pub trait Policy: Send {
    /// Enqueue a task that became ready.
    fn push(&mut self, task: u64, meta: ReadyMeta);
    /// Dequeue a task for `worker` (may steal from other queues).
    fn pop(&mut self, worker: usize) -> Option<u64>;
    /// Total queued tasks.
    fn len(&self) -> usize;
    /// Whether no tasks are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Whether the queue can make no progress given per-worker busy flags
    /// (`busy[w]` is true while worker `w` executes a task). Used by the
    /// engine's quiescence query: the system has settled when every queued
    /// task is stalled behind busy workers. The default covers policies
    /// where any idle worker can take any task.
    fn stalled(&self, busy: &[bool]) -> bool {
        self.is_empty() || busy.iter().all(|&b| b)
    }
    /// Whether ready-task wakeups must be broadcast to all workers.
    /// Policies where only specific workers are eligible for a given task
    /// return true so a targeted `notify_one` cannot land on an ineligible
    /// worker and get lost.
    fn broadcast_wakeups(&self) -> bool {
        false
    }
}

/// Instantiate the policy for a configuration.
pub fn make_policy(kind: PolicyKind, workers: usize) -> Box<dyn Policy> {
    match kind {
        PolicyKind::CentralFifo => Box::new(CentralFifo::default()),
        PolicyKind::CentralLifo => Box::new(CentralLifo::default()),
        PolicyKind::Priority => Box::new(PriorityQueue::default()),
        PolicyKind::WorkStealing => Box::new(WorkStealing::new(workers)),
        PolicyKind::LocalityAware => Box::new(LocalityAware::new(workers)),
        PolicyKind::Pinned => Box::new(PinnedQueue::default()),
    }
}

/// Global FIFO (QUARK-style dispatch order).
#[derive(Debug, Default)]
pub struct CentralFifo {
    queue: VecDeque<u64>,
}

impl Policy for CentralFifo {
    fn push(&mut self, task: u64, _meta: ReadyMeta) {
        self.queue.push_back(task);
    }

    fn pop(&mut self, _worker: usize) -> Option<u64> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// Global LIFO (depth-first).
#[derive(Debug, Default)]
pub struct CentralLifo {
    stack: Vec<u64>,
}

impl Policy for CentralLifo {
    fn push(&mut self, task: u64, _meta: ReadyMeta) {
        self.stack.push(task);
    }

    fn pop(&mut self, _worker: usize) -> Option<u64> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }
}

/// Priority queue: higher `priority` first, FIFO among equals.
#[derive(Debug, Default)]
pub struct PriorityQueue {
    heap: BinaryHeap<PrioEntry>,
    seq: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct PrioEntry {
    priority: i64,
    // Negated submission sequence so earlier submissions win ties.
    neg_seq: i64,
    task: u64,
}

impl Ord for PrioEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, self.neg_seq).cmp(&(other.priority, other.neg_seq))
    }
}

impl PartialOrd for PrioEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Policy for PriorityQueue {
    fn push(&mut self, task: u64, meta: ReadyMeta) {
        self.seq += 1;
        self.heap.push(PrioEntry {
            priority: meta.priority,
            neg_seq: -(self.seq as i64),
            task,
        });
    }

    fn pop(&mut self, _worker: usize) -> Option<u64> {
        self.heap.pop().map(|e| e.task)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Per-worker deques with stealing (StarPU `ws`).
///
/// A ready task goes to its releaser's deque (locality); tasks ready at
/// submission go round-robin. Owners pop LIFO (their hottest data), thieves
/// steal FIFO (the victim's coldest), the classic Chase–Lev discipline.
#[derive(Debug)]
pub struct WorkStealing {
    deques: Vec<VecDeque<u64>>,
    rr: usize,
}

impl WorkStealing {
    /// Create with one deque per worker.
    pub fn new(workers: usize) -> Self {
        WorkStealing {
            deques: (0..workers.max(1)).map(|_| VecDeque::new()).collect(),
            rr: 0,
        }
    }
}

impl Policy for WorkStealing {
    fn push(&mut self, task: u64, meta: ReadyMeta) {
        let w = match meta.releaser {
            Some(w) if w < self.deques.len() => w,
            _ => {
                self.rr = (self.rr + 1) % self.deques.len();
                self.rr
            }
        };
        self.deques[w].push_back(task);
    }

    fn pop(&mut self, worker: usize) -> Option<u64> {
        let w = worker % self.deques.len();
        // Own deque: LIFO.
        if let Some(t) = self.deques[w].pop_back() {
            return Some(t);
        }
        // Steal: FIFO from the longest victim queue.
        let victim = (0..self.deques.len())
            .filter(|&v| v != w && !self.deques[v].is_empty())
            .max_by_key(|&v| self.deques[v].len())?;
        self.deques[victim].pop_front()
    }

    fn len(&self) -> usize {
        self.deques.iter().map(|d| d.len()).sum()
    }
}

/// Locality-aware per-worker queues (OmpSs-style): tasks are binned by an
/// affinity key (owner-computes); stealing allowed on empty queues.
#[derive(Debug)]
pub struct LocalityAware {
    queues: Vec<VecDeque<u64>>,
    rr: usize,
}

impl LocalityAware {
    /// Create with one queue per worker.
    pub fn new(workers: usize) -> Self {
        LocalityAware {
            queues: (0..workers.max(1)).map(|_| VecDeque::new()).collect(),
            rr: 0,
        }
    }
}

impl Policy for LocalityAware {
    fn push(&mut self, task: u64, meta: ReadyMeta) {
        let w = match meta.affinity {
            Some(key) => (key % self.queues.len() as u64) as usize,
            None => {
                self.rr = (self.rr + 1) % self.queues.len();
                self.rr
            }
        };
        self.queues[w].push_back(task);
    }

    fn pop(&mut self, worker: usize) -> Option<u64> {
        let w = worker % self.queues.len();
        if let Some(t) = self.queues[w].pop_front() {
            return Some(t);
        }
        (0..self.queues.len())
            .filter(|&v| v != w)
            .find_map(|v| self.queues[v].pop_front())
    }

    fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

/// FIFO with worker-range pins (cluster node/NIC lanes).
///
/// Tasks carrying a `pin` range may only be popped by workers inside it;
/// unpinned tasks go to anyone. `pop` scans for the first eligible entry,
/// preserving FIFO order within each pin class. O(queue) per pop, which is
/// fine at cluster scale (ready queues stay short in virtual time).
#[derive(Debug, Default)]
pub struct PinnedQueue {
    queue: VecDeque<(u64, Option<(usize, usize)>)>,
}

fn pin_admits(pin: Option<(usize, usize)>, worker: usize) -> bool {
    match pin {
        None => true,
        Some((start, end)) => worker >= start && worker < end,
    }
}

impl Policy for PinnedQueue {
    fn push(&mut self, task: u64, meta: ReadyMeta) {
        self.queue.push_back((task, meta.pin));
    }

    fn pop(&mut self, worker: usize) -> Option<u64> {
        let idx = self
            .queue
            .iter()
            .position(|&(_, pin)| pin_admits(pin, worker))?;
        self.queue.remove(idx).map(|(t, _)| t)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn stalled(&self, busy: &[bool]) -> bool {
        self.queue
            .iter()
            .all(|&(_, pin)| (0..busy.len()).all(|w| !pin_admits(pin, w) || busy[w]))
    }

    fn broadcast_wakeups(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ReadyMeta {
        ReadyMeta {
            priority: 0,
            releaser: None,
            affinity: None,
            pin: None,
        }
    }

    #[test]
    fn fifo_order() {
        let mut p = CentralFifo::default();
        for t in 0..5 {
            p.push(t, meta());
        }
        assert_eq!(p.len(), 5);
        for t in 0..5 {
            assert_eq!(p.pop(0), Some(t));
        }
        assert_eq!(p.pop(0), None);
        assert!(p.is_empty());
    }

    #[test]
    fn lifo_order() {
        let mut p = CentralLifo::default();
        for t in 0..3 {
            p.push(t, meta());
        }
        assert_eq!(p.pop(0), Some(2));
        assert_eq!(p.pop(0), Some(1));
        assert_eq!(p.pop(0), Some(0));
    }

    #[test]
    fn priority_order_with_fifo_ties() {
        let mut p = PriorityQueue::default();
        p.push(
            10,
            ReadyMeta {
                priority: 1,
                ..meta()
            },
        );
        p.push(
            11,
            ReadyMeta {
                priority: 5,
                ..meta()
            },
        );
        p.push(
            12,
            ReadyMeta {
                priority: 5,
                ..meta()
            },
        );
        p.push(
            13,
            ReadyMeta {
                priority: 0,
                ..meta()
            },
        );
        assert_eq!(p.pop(0), Some(11)); // highest priority, earliest
        assert_eq!(p.pop(0), Some(12));
        assert_eq!(p.pop(0), Some(10));
        assert_eq!(p.pop(0), Some(13));
    }

    #[test]
    fn work_stealing_prefers_own_then_steals() {
        let mut p = WorkStealing::new(2);
        p.push(
            1,
            ReadyMeta {
                releaser: Some(0),
                ..meta()
            },
        );
        p.push(
            2,
            ReadyMeta {
                releaser: Some(0),
                ..meta()
            },
        );
        p.push(
            3,
            ReadyMeta {
                releaser: Some(1),
                ..meta()
            },
        );
        // Worker 0 pops own deque LIFO: 2 first.
        assert_eq!(p.pop(0), Some(2));
        assert_eq!(p.pop(0), Some(1));
        // Now worker 0 must steal from worker 1 (FIFO side).
        assert_eq!(p.pop(0), Some(3));
        assert_eq!(p.pop(0), None);
    }

    #[test]
    fn work_stealing_round_robins_unattributed() {
        // Three unattributed pushes land on three different deques
        // (round robin from deque 1), so each worker pops the one task
        // of its own deque without stealing.
        let mut p = WorkStealing::new(3);
        for t in 0..3 {
            p.push(t, meta()); // releaser None -> round robin
        }
        assert_eq!(p.pop(1), Some(0));
        assert_eq!(p.pop(2), Some(1));
        assert_eq!(p.pop(0), Some(2));
    }

    #[test]
    fn locality_bins_by_affinity() {
        let mut p = LocalityAware::new(4);
        p.push(
            1,
            ReadyMeta {
                affinity: Some(2),
                ..meta()
            },
        );
        p.push(
            2,
            ReadyMeta {
                affinity: Some(2),
                ..meta()
            },
        );
        p.push(
            3,
            ReadyMeta {
                affinity: Some(6),
                ..meta()
            },
        ); // 6 % 4 == 2
           // Worker 2 gets them FIFO.
        assert_eq!(p.pop(2), Some(1));
        assert_eq!(p.pop(2), Some(2));
        assert_eq!(p.pop(2), Some(3));
    }

    #[test]
    fn locality_allows_stealing() {
        let mut p = LocalityAware::new(2);
        p.push(
            9,
            ReadyMeta {
                affinity: Some(1),
                ..meta()
            },
        );
        assert_eq!(
            p.pop(0),
            Some(9),
            "worker 0 must steal from worker 1's queue"
        );
    }

    #[test]
    fn make_policy_constructs_each_kind() {
        for kind in [
            PolicyKind::CentralFifo,
            PolicyKind::CentralLifo,
            PolicyKind::Priority,
            PolicyKind::WorkStealing,
            PolicyKind::LocalityAware,
            PolicyKind::Pinned,
        ] {
            let mut p = make_policy(kind, 2);
            p.push(1, meta());
            assert_eq!(p.len(), 1);
            assert_eq!(p.pop(0), Some(1));
        }
    }

    #[test]
    fn pinned_respects_worker_ranges() {
        let mut p = PinnedQueue::default();
        p.push(
            1,
            ReadyMeta {
                pin: Some((2, 4)),
                ..meta()
            },
        );
        p.push(2, meta()); // unpinned
                           // Worker 0 is outside [2, 4): skips task 1, takes the unpinned one.
        assert_eq!(p.pop(0), Some(2));
        assert_eq!(p.pop(0), None);
        assert_eq!(p.pop(3), Some(1));
    }

    #[test]
    fn pinned_keeps_fifo_within_range() {
        let mut p = PinnedQueue::default();
        for t in 0..3 {
            p.push(
                t,
                ReadyMeta {
                    pin: Some((0, 1)),
                    ..meta()
                },
            );
        }
        assert_eq!(p.pop(0), Some(0));
        assert_eq!(p.pop(0), Some(1));
        assert_eq!(p.pop(0), Some(2));
    }

    #[test]
    fn pinned_stalled_looks_past_busy_lanes() {
        let mut p = PinnedQueue::default();
        p.push(
            7,
            ReadyMeta {
                pin: Some((1, 2)),
                ..meta()
            },
        );
        // Only worker 1 is eligible: stalled iff worker 1 is busy, no
        // matter how many other workers idle.
        assert!(p.stalled(&[false, true, false]));
        assert!(!p.stalled(&[true, false, true]));
        assert!(p.broadcast_wakeups());
        // Default policies keep the old predicate.
        let f = CentralFifo::default();
        assert!(f.stalled(&[true, false])); // empty queue
        assert!(!f.broadcast_wakeups());
    }

    #[test]
    fn default_stalled_matches_legacy_predicate() {
        let mut p = CentralFifo::default();
        p.push(1, meta());
        assert!(!p.stalled(&[false, true]), "an idle worker can take it");
        assert!(p.stalled(&[true, true]), "all busy -> settled");
    }
}
