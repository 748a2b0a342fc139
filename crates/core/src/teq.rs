//! The Task Execution Queue (TEQ) and the virtual clock.
//!
//! "The key element of the simulation environment is the Task Execution
//! Queue ... a priority queue which is prioritized by the simulated
//! completion time of a task" (§V-C). The clock and the queue share one
//! mutex so that reading the clock for a task's start time and inserting
//! its completion are one atomic step.
//!
//! Blocked tasks park on their thread's own condition variable, registered
//! under their ticket's sequence number. Queue transitions compute the new
//! front under the state lock and wake only that front's owner, so a
//! retire costs one wakeup instead of waking every simulated worker (the
//! broadcast herd grows as O(tasks x workers); see DESIGN.md §5 "Locking &
//! wakeup protocol"). [`WakeupMode::Broadcast`] preserves the old behavior
//! for benchmark comparisons.

use crate::obs;
use parking_lot::{Condvar, Mutex};
use std::collections::BinaryHeap;
use std::sync::Arc;

thread_local! {
    /// The condvar this thread parks on in targeted `wait_front`: made once
    /// per thread and reused by every park, in any queue.
    static PARK: Arc<Condvar> = Arc::default();
}

/// A completion on the virtual timeline, in retire order: the earliest
/// `end` first, equal ends in `seq` order (insertion order in this queue,
/// dispatch order in the DES replay). `Ord` is reversed so that a
/// `BinaryHeap`, a max-heap, pops the next completion: both engines key
/// their heaps by this one definition.
///
/// A completion is made only by [`CompletionSeq::key`], which numbers keys
/// in the order it makes them; `seq` is private, so no caller can write a
/// ticket by hand for another task's entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The order in which completions were keyed (the tie-break).
    seq: u64,
    /// The virtual completion time.
    pub end: f64,
}

/// Keys completions in the order they are made: each one's `seq` counts
/// the keys made before it.
#[derive(Debug, Default)]
pub struct CompletionSeq {
    next: u64,
}

impl CompletionSeq {
    /// The next completion, ending at `end`.
    pub fn key(&mut self, end: f64) -> Completion {
        let seq = self.next;
        self.next += 1;
        Completion { seq, end }
    }
}

impl Eq for Completion {}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .end
            .total_cmp(&self.end)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How queue transitions wake blocked [`TaskExecutionQueue::wait_front`]
/// callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakeupMode {
    /// Wake every parked waiter on any transition and let each re-check
    /// whether it is the front. O(waiters) wakeups per retire — kept only
    /// as the baseline for contention benchmarks.
    Broadcast,
    /// Wake only the owner of the entry that just became the front. Each
    /// waiter parks on its thread's own condvar, registered by ticket
    /// sequence number; the new front is computed under the state lock, so
    /// exactly one thread is scheduled per retirement.
    #[default]
    Targeted,
}

struct State {
    clock: f64,
    heap: BinaryHeap<Completion>,
    keys: CompletionSeq,
    /// Completions retired so far (monotone, for diagnostics).
    retired: u64,
    /// Parked `wait_front` callers as `(ticket seq, the thread's condvar)`
    /// (targeted mode only). One entry per parked thread, so it stays as
    /// short as the worker count and a scan beats hashing.
    waiters: Vec<(u64, Arc<Condvar>)>,
    /// Observability tally, updated under this mutex (zero-sized and
    /// compiled out when the `metrics` feature is off).
    tally: obs::TeqTally,
}

/// The Task Execution Queue with its embedded virtual clock.
///
/// The simulation clock "is stored as a double precision floating point
/// number which is of sufficient resolution for the tasks we deal with"
/// (§V). It only moves forward, and only when the front entry retires.
pub struct TaskExecutionQueue {
    state: Mutex<State>,
    /// Broadcast-mode condvar (unused in targeted mode).
    cv: Condvar,
    mode: WakeupMode,
}

impl Default for TaskExecutionQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskExecutionQueue {
    /// A fresh queue with the clock at 0, using targeted wakeups.
    pub fn new() -> Self {
        Self::with_wakeup_mode(WakeupMode::default())
    }

    /// A fresh queue with an explicit wakeup discipline (benchmarks use
    /// this to compare broadcast vs targeted under contention).
    pub fn with_wakeup_mode(mode: WakeupMode) -> Self {
        TaskExecutionQueue {
            state: Mutex::new(State {
                clock: 0.0,
                heap: BinaryHeap::new(),
                keys: CompletionSeq::default(),
                retired: 0,
                waiters: Vec::new(),
                tally: obs::TeqTally::default(),
            }),
            cv: Condvar::new(),
            mode,
        }
    }

    /// The wakeup discipline this queue was built with.
    pub fn wakeup_mode(&self) -> WakeupMode {
        self.mode
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.state.lock().clock
    }

    /// Number of entries currently executing (inserted, not retired).
    pub fn len(&self) -> usize {
        self.state.lock().heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries retired since creation.
    pub fn retired(&self) -> u64 {
        self.state.lock().retired
    }

    /// Wake whoever owns the current front, if it is parked. Must be
    /// called with the state lock held, after any transition that can
    /// change the front. Broadcast mode wakes everyone instead.
    fn wake_front(&self, st: &mut State) {
        match self.mode {
            WakeupMode::Broadcast => {
                self.cv.notify_all();
                st.tally.on_wakeup();
            }
            WakeupMode::Targeted => {
                if let Some(front) = st.heap.peek() {
                    if let Some((_, cv)) = st.waiters.iter().find(|(seq, _)| *seq == front.seq) {
                        cv.notify_one();
                        st.tally.on_wakeup();
                    }
                }
            }
        }
    }

    /// Atomically read the clock as this task's start time, compute its
    /// completion as `start + duration`, and insert it. Returns the ticket
    /// plus the start time.
    ///
    /// `duration` is clamped at 0 (models can produce tiny negative
    /// samples when a fitted normal has mass below zero).
    pub fn insert(&self, duration: f64) -> (Completion, f64) {
        self.insert_with(|_| duration)
    }

    /// Like [`TaskExecutionQueue::insert`], but the duration is computed
    /// from the task's start time *under the state lock*, so start-time-
    /// dependent costs (fault windows, time-varying slowdowns) see exactly
    /// the clock value the task starts at — no other insert or retire can
    /// interleave between the clock read and the completion insert.
    pub fn insert_with(&self, duration_at: impl FnOnce(f64) -> f64) -> (Completion, f64) {
        // Sampled latency stamp, taken before the lock so the measurement
        // covers acquisition (the interesting part under contention).
        let stamp = obs::stamp();
        let mut st = self.state.lock();
        let start = st.clock;
        let duration = duration_at(start);
        let duration = if duration.is_finite() {
            duration.max(0.0)
        } else {
            0.0
        };
        let end = start + duration;
        let ticket = st.keys.key(end);
        st.heap.push(ticket);
        // An insert can only displace the front with the new entry (whose
        // owner is the caller, not parked); it can never make an already
        // parked ticket become the front. Targeted mode therefore has no
        // one to wake here — the lookup is a cheap no-op that keeps the
        // discipline uniform across transitions.
        self.wake_front(&mut st);
        st.tally.on_insert(stamp);
        (ticket, start)
    }

    /// Whether `ticket` is at the front of the queue (the next completion).
    pub fn is_front(&self, ticket: Completion) -> bool {
        let st = self.state.lock();
        st.heap.peek().is_some_and(|e| e.seq == ticket.seq)
    }

    /// Block until `ticket` is at the front. Returns the retired count
    /// read under the same lock acquisition that saw it there — the settle
    /// target of [`TaskExecutionQueue::retire_if_settled`].
    pub fn wait_front(&self, ticket: Completion) -> u64 {
        let mut st = self.state.lock();
        if st.heap.peek().is_some_and(|e| e.seq == ticket.seq) {
            st.tally.on_wait_immediate();
            return st.retired;
        }
        // About to park: the timer is 1-in-64 sampled (dedicated stream,
        // first wait per thread always fires) because an unconditional
        // clock read here sits inside the contended critical section and
        // costs double-digit percent drain throughput on its own.
        let timer = obs::wait_timer();
        match self.mode {
            WakeupMode::Broadcast => {
                while st.heap.peek().is_none_or(|e| e.seq != ticket.seq) {
                    self.cv.wait(&mut st);
                }
            }
            WakeupMode::Targeted => PARK.with(|cv| {
                st.waiters.push((ticket.seq, cv.clone()));
                while st.heap.peek().is_none_or(|e| e.seq != ticket.seq) {
                    cv.wait(&mut st);
                }
                let i = st.waiters.iter().position(|(seq, _)| *seq == ticket.seq);
                st.waiters
                    .swap_remove(i.expect("a parked waiter stays registered"));
            }),
        }
        st.tally.on_wait_parked(timer);
        st.retired
    }

    /// Retire the front entry (must be `ticket` — panics otherwise),
    /// advancing the clock to its completion time. Returns the clock.
    pub fn retire(&self, ticket: Completion) -> f64 {
        let stamp = obs::stamp();
        let mut st = self.state.lock();
        let front = st.heap.peek().expect("retire on empty queue");
        assert_eq!(front.seq, ticket.seq, "retire called by a non-front task");
        self.pop_front(&mut st, stamp)
    }

    /// Retire `ticket` if it is still the front and exactly `retired`
    /// entries have retired so far — the settle check and the retire in one
    /// step, so nothing can slip between them. Returns the advanced clock,
    /// or `None` (and changes nothing) when the front moved or another
    /// entry retired since the caller read `retired`.
    pub fn retire_if_settled(&self, ticket: Completion, retired: u64) -> Option<f64> {
        let stamp = obs::stamp();
        let mut st = self.state.lock();
        let settled = st.retired == retired && st.heap.peek().is_some_and(|e| e.seq == ticket.seq);
        settled.then(|| self.pop_front(&mut st, stamp))
    }

    /// Pop the front entry, advance the clock to its end and wake the new
    /// front's owner (and only it). Returns the clock.
    fn pop_front(&self, st: &mut State, stamp: obs::Stamp) -> f64 {
        let e = st.heap.pop().expect("retire on empty queue");
        st.clock = st.clock.max(e.end);
        st.retired += 1;
        self.wake_front(st);
        st.tally.on_retire(stamp);
        st.clock
    }

    /// Publish this queue's tally into a snapshot: counts, latency
    /// histograms, the current depth, and the wakeup count under the name
    /// of the mode that produced it (`teq.wakeup.targeted` /
    /// `teq.wakeup.broadcast`). Counter pushes accumulate, so publishing
    /// several queues (or the same workload under both modes) sums into
    /// one snapshot.
    #[cfg(feature = "metrics")]
    pub fn publish_metrics(&self, snap: &mut supersim_metrics::MetricsSnapshot) {
        let (tally, depth) = {
            let st = self.state.lock();
            (
                obs::TeqTally {
                    insert_ns: st.tally.insert_ns.clone(),
                    retire_ns: st.tally.retire_ns.clone(),
                    wait_parked_ns: st.tally.wait_parked_ns.clone(),
                    ..st.tally
                },
                st.heap.len() as i64,
            )
        };
        snap.push_counter("teq.insert.count", tally.inserts);
        snap.push_counter("teq.retire.count", tally.retires);
        snap.push_counter("teq.wait.immediate", tally.waits_immediate);
        snap.push_counter("teq.wait.parked", tally.waits_parked);
        let wakeup_name = match self.mode {
            WakeupMode::Targeted => "teq.wakeup.targeted",
            WakeupMode::Broadcast => "teq.wakeup.broadcast",
        };
        snap.push_counter(wakeup_name, tally.wakeups);
        snap.push_gauge("teq.depth", depth);
        snap.push_histogram("teq.insert.ns", &tally.insert_ns);
        snap.push_histogram("teq.retire.ns", &tally.retire_ns);
        snap.push_histogram("teq.wait.parked.ns", &tally.wait_parked_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let q = TaskExecutionQueue::new();
        assert_eq!(q.now(), 0.0);
        assert!(q.is_empty());
        assert_eq!(q.wakeup_mode(), WakeupMode::Targeted);
    }

    #[test]
    fn insert_reads_clock_as_start() {
        let q = TaskExecutionQueue::new();
        let (t1, s1) = q.insert(2.0);
        assert_eq!(s1, 0.0);
        assert_eq!(t1.end, 2.0);
        assert_eq!(q.len(), 1);
        // Clock does not move on insert.
        assert_eq!(q.now(), 0.0);
    }

    #[test]
    fn retire_advances_clock_in_end_order() {
        let q = TaskExecutionQueue::new();
        let (a, _) = q.insert(3.0);
        let (b, _) = q.insert(1.0);
        assert!(q.is_front(b), "earliest end must be front");
        assert!(!q.is_front(a));
        q.retire(b);
        assert_eq!(q.now(), 1.0);
        assert!(q.is_front(a));
        q.retire(a);
        assert_eq!(q.now(), 3.0);
        assert_eq!(q.retired(), 2);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let q = TaskExecutionQueue::new();
        let (a, _) = q.insert(1.0);
        let (b, _) = q.insert(1.0);
        assert!(q.is_front(a));
        q.retire(a);
        assert!(q.is_front(b));
        q.retire(b);
    }

    #[test]
    #[should_panic(expected = "non-front")]
    fn retire_out_of_order_panics() {
        let q = TaskExecutionQueue::new();
        let (_a, _) = q.insert(1.0);
        let (b, _) = q.insert(2.0);
        q.retire(b);
    }

    #[test]
    fn insert_with_computes_duration_from_start() {
        let q = TaskExecutionQueue::new();
        let (a, _) = q.insert(2.0);
        q.wait_front(a);
        q.retire(a);
        // Clock is 2.0: the closure must observe exactly that start.
        let (t, s) = q.insert_with(|start| start * 0.5);
        assert_eq!(s, 2.0);
        assert_eq!(t.end, 3.0);
        // Non-finite computed durations are clamped like plain inserts.
        let (t2, s2) = q.insert_with(|_| f64::NAN);
        assert_eq!(t2.end, s2);
    }

    #[test]
    fn negative_and_nan_durations_clamped() {
        let q = TaskExecutionQueue::new();
        let (t, s) = q.insert(-5.0);
        assert_eq!(t.end, s);
        let (t2, s2) = q.insert(f64::NAN);
        assert_eq!(t2.end, s2);
    }

    #[test]
    fn retire_if_settled_retires_only_an_unmoved_front() {
        let q = TaskExecutionQueue::new();
        let (a, _) = q.insert(1.0);
        let (b, _) = q.insert(2.0);
        assert_eq!(q.wait_front(a), 0, "the retired count the front saw");
        assert_eq!(q.retire_if_settled(b, 0), None, "not the front");
        assert_eq!(q.retire_if_settled(a, 1), None, "stale count");
        assert_eq!(q.retire_if_settled(a, 0), Some(1.0));
        assert_eq!(q.retire_if_settled(b, 0), None, "a retired meanwhile");
        assert_eq!(q.wait_front(b), 1);
        assert_eq!(q.retire(b), 2.0);
        assert_eq!(q.retired(), 2);
    }

    fn wakeup_modes() -> [WakeupMode; 2] {
        [WakeupMode::Broadcast, WakeupMode::Targeted]
    }

    #[test]
    fn wait_front_unblocks_when_front_retires() {
        for mode in wakeup_modes() {
            let q = Arc::new(TaskExecutionQueue::with_wakeup_mode(mode));
            let (a, _) = q.insert(1.0);
            let (b, _) = q.insert(2.0);
            let q2 = q.clone();
            let h = std::thread::spawn(move || {
                q2.wait_front(b);
                q2.retire(b);
                q2.now()
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.retire(a);
            let clock = h.join().unwrap();
            assert_eq!(clock, 2.0, "mode {mode:?}");
        }
    }

    #[test]
    fn concurrent_completion_order_matches_end_times() {
        // 8 threads insert random-ish durations; each waits for front and
        // retires; the retirement order must equal ascending end order.
        for mode in wakeup_modes() {
            let q = Arc::new(TaskExecutionQueue::with_wakeup_mode(mode));
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            let durations = [0.7, 0.3, 0.9, 0.1, 0.5, 0.2, 0.8, 0.4];
            let mut tickets = Vec::new();
            for &d in &durations {
                tickets.push(q.insert(d));
            }
            for (ticket, _) in tickets {
                let q = q.clone();
                let order = order.clone();
                handles.push(std::thread::spawn(move || {
                    q.wait_front(ticket);
                    order.lock().push(ticket.end);
                    q.retire(ticket);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let order = order.lock();
            let mut sorted = order.clone();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(*order, sorted, "mode {mode:?}: must retire in end order");
            assert_eq!(q.now(), 0.9);
        }
    }

    #[test]
    fn sequential_tasks_accumulate_time() {
        // A chain simulated by hand: each task starts at the clock left by
        // the previous retire.
        let q = TaskExecutionQueue::new();
        let mut expected = 0.0;
        for d in [1.0, 2.5, 0.5] {
            let (t, start) = q.insert(d);
            assert_eq!(start, expected);
            q.wait_front(t);
            q.retire(t);
            expected += d;
        }
        assert_eq!(q.now(), 4.0);
    }

    #[test]
    fn waiter_registry_is_cleaned_up() {
        let q = Arc::new(TaskExecutionQueue::new());
        let (a, _) = q.insert(1.0);
        let (b, _) = q.insert(2.0);
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            q2.wait_front(b);
            q2.retire(b);
        });
        // Let the helper park before retiring the front.
        while q.state.lock().waiters.is_empty() {
            std::thread::yield_now();
        }
        q.retire(a);
        h.join().unwrap();
        assert!(q.state.lock().waiters.is_empty(), "no stale waiter entries");
    }

    /// Heavy contention: 500 tasks/thread distributed over 64 threads, all
    /// inserted up front so the raw insert/wait/retire protocol is
    /// race-free (concurrent *inserts* during retirement can displace an
    /// already-woken front — that is the §V-E race the session-level
    /// mitigations exist for, not a queue property). Each thread then
    /// contends on wait_front for its own tickets in ascending (end, seq)
    /// order, keeping up to 63 threads parked at once — the thundering-herd
    /// scenario targeted wakeups are built for. The global retirement order
    /// must equal ascending (end, seq).
    #[test]
    fn stress_64_threads_retire_in_end_seq_order() {
        const THREADS: usize = 64;
        const TASKS_PER_THREAD: usize = 500;
        let q = Arc::new(TaskExecutionQueue::new());
        let order = Arc::new(Mutex::new(Vec::<(f64, u64)>::with_capacity(
            THREADS * TASKS_PER_THREAD,
        )));
        let mut per_thread: Vec<Vec<Completion>> = vec![Vec::new(); THREADS];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..THREADS * TASKS_PER_THREAD {
            // xorshift64 durations with a coarse grid: variety plus ties.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let d = (x % 100) as f64 / 100.0;
            per_thread[i % THREADS].push(q.insert(d).0);
        }
        let mut handles = Vec::new();
        for mut tickets in per_thread {
            // A thread must serve its own tickets front-first, or it would
            // park on a late ticket while an earlier one of its own blocks
            // the queue.
            tickets.sort_by(|a, b| a.end.total_cmp(&b.end).then_with(|| a.seq.cmp(&b.seq)));
            let q = q.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                for ticket in tickets {
                    q.wait_front(ticket);
                    // Front is exclusive: no other thread can retire (and
                    // therefore none can pass wait_front and record) until
                    // this retire happens, so the push order is the global
                    // retire order.
                    order.lock().push((ticket.end, ticket.seq));
                    q.retire(ticket);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock();
        assert_eq!(order.len(), THREADS * TASKS_PER_THREAD);
        for w in order.windows(2) {
            let ord = w[0].0.total_cmp(&w[1].0).then_with(|| w[0].1.cmp(&w[1].1));
            assert!(
                ord == std::cmp::Ordering::Less,
                "retire order violated: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
        assert!(q.state.lock().waiters.is_empty(), "no stale waiter entries");
        assert_eq!(q.retired(), (THREADS * TASKS_PER_THREAD) as u64);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn tally_published_per_wakeup_mode() {
        for mode in wakeup_modes() {
            let q = Arc::new(TaskExecutionQueue::with_wakeup_mode(mode));
            let (a, _) = q.insert(1.0);
            let (b, _) = q.insert(2.0);
            let q2 = q.clone();
            let h = std::thread::spawn(move || {
                q2.wait_front(b); // parks until a retires
                q2.retire(b);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.wait_front(a); // immediate: a is already the front
            q.retire(a);
            h.join().unwrap();

            let mut snap = supersim_metrics::MetricsSnapshot::default();
            q.publish_metrics(&mut snap);
            assert_eq!(snap.counter("teq.insert.count"), Some(2), "{mode:?}");
            assert_eq!(snap.counter("teq.retire.count"), Some(2));
            assert_eq!(snap.counter("teq.wait.immediate"), Some(1));
            assert_eq!(snap.counter("teq.wait.parked"), Some(1));
            let wakeup_name = match mode {
                WakeupMode::Targeted => "teq.wakeup.targeted",
                WakeupMode::Broadcast => "teq.wakeup.broadcast",
            };
            assert!(snap.counter(wakeup_name).unwrap() >= 1, "{mode:?}");
            assert_eq!(snap.gauge("teq.depth"), Some(0));
            let wait = snap.histogram("teq.wait.parked.ns").unwrap();
            // The parked wait runs on a freshly spawned thread, whose
            // first wait always samples.
            assert_eq!(wait.count, 1, "first wait on a fresh thread is timed");
            assert!(wait.sum_ns > 0);
            // Latency histograms are sampled 1-in-64 per thread, so their
            // counts are run-dependent here; presence is what's guaranteed.
            assert!(snap.histogram("teq.insert.ns").is_some());
            assert!(snap.histogram("teq.retire.ns").is_some());
        }
    }
}
