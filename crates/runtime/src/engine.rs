//! The runtime engine: submission-side hazard tracking, worker threads,
//! dispatch, completion propagation, and the quiescence machinery.

use crate::chain::{Chain, ChainPool};
use crate::config::RuntimeConfig;
use crate::hazards::HazardTracker;
use crate::policy::{make_policy, Policy, ReadyMeta};
use crate::quiesce::Quiesce;
use crate::stats::RuntimeStats;
use crate::task::{TaskBody, TaskContext, TaskDesc};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use supersim_trace::TraceRecorder;

/// Per-task bookkeeping entry. The engine keeps one per task of a phase,
/// so it is kept small: the label is boxed (no capacity word) and the
/// dependence count is 32 bits.
struct Entry {
    /// Moved into the executing worker's [`TaskContext`] at dispatch.
    label: Box<str>,
    deps: u32,
    /// Successor ids, in [`Inner::succs`].
    succs: Chain,
    body: Option<TaskBody>,
    priority: i64,
    affinity: Option<u64>,
    pin: Option<(usize, usize)>,
    done: bool,
    cancelled: bool,
}

struct Inner {
    entries: Vec<Entry>,
    hazards: HazardTracker,
    /// Every entry's successor list.
    succs: ChainPool,
    /// `submit`'s predecessor scratch, reused across tasks.
    preds: Vec<u64>,
    policy: Box<dyn Policy>,
    in_flight: usize,
    idle_workers: usize,
    in_dispatch: usize,
    /// Per-worker busy flags (`busy[w]` while worker `w` executes a task).
    /// The quiescence query hands these to [`Policy::stalled`], which for
    /// pinned policies must know *which* workers are busy, not just how
    /// many.
    busy: Vec<bool>,
    /// Per-worker decommission flags (fault injection: a decommissioned
    /// worker's thread exits at its next dispatch and its lane is marked
    /// permanently busy, so pinned-policy quiescence treats it as unable
    /// to absorb work).
    decommissioned: Vec<bool>,
    shutdown: bool,
    sealed: bool,
    submitter_waiting: usize,
    /// Threads parked in `wait_quiescent`/`wait_settled`: `quiesce_cv` is
    /// notified only while this is non-zero.
    quiesce_waiters: usize,
    errors: Vec<String>,
    stats: RuntimeStats,
}

impl Inner {
    /// Wake the quiescence waiters, if any. Call after every transition
    /// that can make the quiescence predicate (or `completed`) true.
    fn notify_quiesce(&self, shared: &Shared) {
        if self.quiesce_waiters > 0 {
            shared.quiesce_cv.notify_all();
        }
    }

    /// Wake workers for `released` newly queued tasks, `own` of which the
    /// calling worker will pop itself before it parks.
    fn wake_workers(&self, shared: &Shared, released: usize, own: usize) {
        if released == 0 {
            return;
        }
        if self.policy.broadcast_wakeups() {
            // Pinned tasks: only specific workers are eligible, and a
            // targeted notify cannot aim — broadcast instead.
            shared.work_cv.notify_all();
        } else {
            // Wake exactly as many workers as can absorb the tasks nobody
            // awake will take: a notify beyond `idle_workers` has no parked
            // worker to land on (awake workers re-check the ready queue
            // before sleeping, so surplus tasks are never stranded), and a
            // notify beyond that would wake a worker to an empty queue.
            for _ in 0..(released - own).min(self.idle_workers) {
                shared.work_cv.notify_one();
            }
        }
    }
}

/// Per-worker statistics slot, updated lock-free by its owning worker.
///
/// Only the owning worker ever writes its slot, so plain relaxed
/// load/store pairs are race-free; `Runtime::stats()` readers observe an
/// atomic snapshot of each field without touching the `Inner` lock.
/// Padded to a cache line so neighbouring workers' counters do not
/// false-share.
#[repr(align(128))]
#[derive(Default)]
struct WorkerSlot {
    /// Tasks executed by this worker.
    tasks: AtomicU64,
    /// Wall-clock busy seconds, stored as `f64::to_bits`.
    busy_bits: AtomicU64,
}

impl WorkerSlot {
    fn add_task(&self, busy: f64) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
        // Owner-only writer: a load/store pair cannot lose updates.
        let prev = f64::from_bits(self.busy_bits.load(Ordering::Relaxed));
        self.busy_bits
            .store((prev + busy).to_bits(), Ordering::Relaxed);
    }
}

struct Shared {
    inner: Mutex<Inner>,
    work_cv: Condvar,
    window_cv: Condvar,
    done_cv: Condvar,
    quiesce_cv: Condvar,
    window: usize,
    epoch: Instant,
    trace: Option<TraceRecorder>,
    /// Per-worker counters live outside the big `Inner` lock; the hot
    /// completion path touches them without serializing on other workers.
    worker_slots: Vec<WorkerSlot>,
}

/// The superscalar runtime.
///
/// ```
/// use supersim_runtime::{Runtime, RuntimeConfig, TaskDesc};
/// use supersim_dag::{Access, DataId};
/// use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
///
/// let rt = Runtime::new(RuntimeConfig::simple(2));
/// let x = DataId(0);
/// let hits = Arc::new(AtomicU64::new(0));
/// for _ in 0..10 {
///     let hits = hits.clone();
///     rt.submit(TaskDesc::new("inc", vec![Access::read_write(x)], move |_ctx| {
///         hits.fetch_add(1, Ordering::SeqCst);
///     }));
/// }
/// rt.wait_all().unwrap();
/// assert_eq!(hits.load(Ordering::SeqCst), 10);
/// ```
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    config: RuntimeConfig,
}

impl Runtime {
    /// Start a runtime with the given configuration (no trace recording).
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_trace(config, None)
    }

    /// Start a runtime that records a wall-clock trace of every executed
    /// task into `recorder` (used for "real" runs; simulated runs record
    /// their own virtual-time trace instead).
    pub fn with_trace(config: RuntimeConfig, recorder: Option<TraceRecorder>) -> Self {
        let policy = make_policy(config.policy, config.workers);
        Self::with_policy_and_trace(config, policy, recorder)
    }

    /// Start a runtime with an explicit policy object instead of the one
    /// `config.policy` names. Every dispatch decision of the engine routes
    /// through this object — tests use a counting wrapper here to assert
    /// there is no second copy of the scheduling logic in the engine.
    pub fn with_policy_and_trace(
        config: RuntimeConfig,
        policy: Box<dyn Policy>,
        recorder: Option<TraceRecorder>,
    ) -> Self {
        assert!(config.workers > 0, "runtime needs at least one worker");
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                hazards: HazardTracker::new(),
                succs: ChainPool::default(),
                preds: Vec::new(),
                policy,
                in_flight: 0,
                idle_workers: 0,
                in_dispatch: 0,
                busy: vec![false; config.workers],
                decommissioned: vec![false; config.workers],
                shutdown: false,
                sealed: false,
                submitter_waiting: 0,
                quiesce_waiters: 0,
                errors: Vec::new(),
                stats: RuntimeStats::new(config.workers),
            }),
            work_cv: Condvar::new(),
            window_cv: Condvar::new(),
            done_cv: Condvar::new(),
            quiesce_cv: Condvar::new(),
            window: config.window,
            epoch: Instant::now(),
            trace: recorder,
            worker_slots: (0..config.workers).map(|_| WorkerSlot::default()).collect(),
        });
        let workers = (0..config.workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("{}-w{}", config.name, w))
                    .spawn(move || worker_loop(shared, w))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Runtime {
            shared,
            workers,
            config,
        }
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Submit one task. Blocks while the task window is full (QUARK-style
    /// backpressure). Returns the task id (submission order).
    pub fn submit(&self, desc: TaskDesc) -> u64 {
        let mut inner = self.shared.inner.lock();
        inner.stats.lock_acquisitions += 1;
        assert!(
            !inner.sealed,
            "submit() after seal(); call unseal() for a new phase"
        );
        while inner.in_flight >= self.shared.window {
            // A window-stalled submitter can make the system quiescent.
            inner.submitter_waiting += 1;
            inner.notify_quiesce(&self.shared);
            self.shared.window_cv.wait(&mut inner);
            inner.submitter_waiting -= 1;
        }
        let id = inner.entries.len() as u64;

        // Hazard analysis against the live data state (shared with the
        // DES replay backend), into the engine's reused buffers.
        let Inner {
            entries,
            hazards,
            succs,
            preds,
            ..
        } = &mut *inner;
        let affinity = hazards.analyze_into(id, &desc.accesses, preds);
        let mut deps = 0usize;
        for &p in preds.iter() {
            let e = &mut entries[p as usize];
            if !e.done {
                succs.push(&mut e.succs, id);
                deps += 1;
            }
        }
        let deps = u32::try_from(deps).expect("fewer than 2^32 predecessors");

        inner.entries.push(Entry {
            label: desc.label.into_boxed_str(),
            deps,
            succs: Chain::default(),
            body: Some(desc.body),
            priority: desc.priority,
            affinity,
            pin: desc.pin,
            done: false,
            cancelled: false,
        });
        inner.in_flight += 1;

        if deps == 0 {
            let meta = ReadyMeta {
                priority: desc.priority,
                releaser: None,
                affinity,
                pin: desc.pin,
            };
            inner.policy.push(id, meta);
            inner.wake_workers(&self.shared, 1, 0);
            inner.notify_quiesce(&self.shared);
        }
        id
    }

    /// Declare the serial submission stream complete. Required before the
    /// quiescence query can report quiescent while workers are idle: a
    /// simulated run must not let virtual time advance past tasks the
    /// master thread has not submitted yet (they would otherwise read an
    /// already-advanced clock, the submission-side variant of the paper's
    /// SS V-E race). Call after the last `submit` of a phase.
    pub fn seal(&self) {
        let mut inner = self.shared.inner.lock();
        inner.sealed = true;
        inner.notify_quiesce(&self.shared);
    }

    /// Reopen submission for another phase after [`Runtime::seal`].
    pub fn unseal(&self) {
        let mut inner = self.shared.inner.lock();
        inner.sealed = false;
    }

    /// Wait until every submitted task has completed. Returns the list of
    /// panic messages from failed tasks (empty on full success) as `Err`.
    pub fn wait_all(&self) -> Result<(), Vec<String>> {
        let mut inner = self.shared.inner.lock();
        while inner.in_flight > 0 {
            self.shared.done_cv.wait(&mut inner);
        }
        if inner.errors.is_empty() {
            Ok(())
        } else {
            Err(std::mem::take(&mut inner.errors))
        }
    }

    /// Snapshot of the execution statistics. Aggregate counters come from
    /// the engine lock; per-worker counters are read from the lock-free
    /// worker slots.
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = self.shared.inner.lock().stats.clone();
        for (w, slot) in self.shared.worker_slots.iter().enumerate() {
            stats.per_worker_tasks[w] = slot.tasks.load(Ordering::Relaxed);
            stats.per_worker_busy[w] = f64::from_bits(slot.busy_bits.load(Ordering::Relaxed));
        }
        stats
    }

    /// Number of tasks submitted so far.
    pub fn submitted(&self) -> u64 {
        self.shared.inner.lock().entries.len() as u64
    }

    /// Cancel every task that has not started executing yet (QUARK-style
    /// task cancellation, used for error recovery: "error handling
    /// extensions and task cancellation capabilities", paper §IV-A3).
    ///
    /// Tasks already running are left to finish; pending tasks — whether
    /// waiting on dependences or sitting in the ready queue — are dropped
    /// without executing their bodies. Returns the number cancelled.
    pub fn abort_pending(&self) -> u64 {
        let mut inner = self.shared.inner.lock();
        let mut cancelled = 0u64;
        for e in inner.entries.iter_mut() {
            if !e.done && e.body.is_some() {
                e.body = None;
                e.done = true;
                e.cancelled = true;
                cancelled += 1;
            }
        }
        inner.in_flight -= cancelled as usize;
        inner.stats.cancelled += cancelled;
        // Queued ids of cancelled tasks remain in the policy; workers skip
        // them at pop (their bodies are gone). Wake all workers so idle
        // ones drain those stale queue entries — otherwise a quiescence
        // waiter could block forever on `policy.len() > 0` with every
        // remaining worker asleep.
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        self.shared.window_cv.notify_all();
        self.shared.quiesce_cv.notify_all();
        cancelled
    }

    /// Permanently remove `worker` from service (fault injection: a died
    /// worker or node lane). The worker finishes any task it is currently
    /// executing, then its thread exits instead of dispatching again; its
    /// lane stays marked busy forever, so pinned-policy quiescence and the
    /// stalled-lane predicate treat it as unable to absorb work.
    ///
    /// Tasks pinned *exclusively* to decommissioned lanes can never run —
    /// `wait_all` would block forever. Callers (the fault-replay layer)
    /// must re-place such tasks onto surviving lanes before submission.
    pub fn decommission(&self, worker: usize) {
        let mut inner = self.shared.inner.lock();
        assert!(worker < inner.busy.len(), "no such worker: {worker}");
        inner.decommissioned[worker] = true;
        // A dead lane can absorb no work: permanently busy.
        inner.busy[worker] = true;
        // Wake everyone: the target (if parked) must observe the flag and
        // exit, and quiescence waiters must re-evaluate the predicate.
        self.shared.work_cv.notify_all();
        self.shared.quiesce_cv.notify_all();
    }

    /// Whether `worker` has been decommissioned.
    pub fn is_decommissioned(&self, worker: usize) -> bool {
        self.shared.inner.lock().decommissioned[worker]
    }

    /// A [`Quiesce`] handle for the simulation layer.
    pub fn probe(&self) -> Arc<dyn Quiesce> {
        Arc::new(RuntimeProbe {
            shared: self.shared.clone(),
        })
    }

    /// Seconds since this runtime started (the wall-clock trace origin).
    pub fn now(&self) -> f64 {
        self.shared.epoch.elapsed().as_secs_f64()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock();
            inner.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Quiescence probe backed by the live engine counters.
struct RuntimeProbe {
    shared: Arc<Shared>,
}

impl Quiesce for RuntimeProbe {
    fn quiescent(&self) -> bool {
        let inner = self.shared.inner.lock();
        quiescent_locked(&inner, self.shared.window)
    }

    fn wait_quiescent(&self) {
        self.wait_settled(0);
    }

    fn completed(&self) -> u64 {
        self.shared.inner.lock().stats.completed
    }

    fn wait_settled(&self, min_completed: u64) {
        let mut inner = self.shared.inner.lock();
        while inner.stats.completed < min_completed || !quiescent_locked(&inner, self.shared.window)
        {
            inner.quiesce_waiters += 1;
            self.shared.quiesce_cv.wait(&mut inner);
            inner.quiesce_waiters -= 1;
        }
    }
}

fn quiescent_locked(inner: &Inner, window: usize) -> bool {
    // The submission stream must be finished (sealed) or stalled on a
    // genuinely *full* task window; otherwise tasks not yet submitted
    // could still have earlier virtual start times than the caller's
    // completion. The fullness check matters: when a completion frees the
    // window, the blocked submitter counts as waiting until it reacquires
    // the lock, and treating that in-between state as quiescent would race
    // the clock advance against the submitter's wakeup — the next task
    // would start at either the freed time or the following completion,
    // depending on host scheduling. Beyond that: no task may sit in its
    // dispatch window (popped but not yet registered), and every queued
    // ready task must be stalled behind busy workers — the policy decides,
    // since under a pinned policy a task can be stalled while other
    // workers idle. A worker that has not reached its scheduling loop yet
    // (thread start-up) counts as able to absorb work, which is why the
    // flags mark busy workers rather than non-idle ones.
    (inner.sealed || (inner.submitter_waiting > 0 && inner.in_flight >= window))
        && inner.in_dispatch == 0
        && inner.policy.stalled(&inner.busy)
}

fn worker_loop(shared: Arc<Shared>, worker: usize) {
    // The worker's one context and registration handle, re-armed per task.
    let on_register: Arc<dyn Fn() + Send + Sync> = {
        let shared = shared.clone();
        Arc::new(move || {
            let mut inner = shared.inner.lock();
            inner.stats.lock_acquisitions += 1;
            inner.in_dispatch -= 1;
            inner.notify_quiesce(&shared);
        })
    };
    let mut ctx = TaskContext::new(worker, on_register);
    // From here on one acquisition per task: the guard a completion is
    // propagated under is the one the next pop runs under.
    let mut inner = shared.inner.lock();
    inner.stats.lock_acquisitions += 1;
    while let Some((task_id, body, label)) = next_task(&shared, &mut inner, worker) {
        ctx.begin(task_id, label);
        drop(inner);

        // Execute outside the lock.
        let t_start = shared.epoch.elapsed().as_secs_f64();
        let result = catch_unwind(AssertUnwindSafe(|| (body)(&ctx)));
        // Guarantee the in-dispatch counter returns to zero even if the
        // body never called mark_registered (real kernels, panics).
        ctx.finish_registration();
        let t_end = shared.epoch.elapsed().as_secs_f64();

        // Both the trace record and the per-worker counter bump happen
        // outside the engine lock: the trace recorder shards internally and
        // the counter slot is owned by this worker alone.
        if let Some(trace) = &shared.trace {
            trace.record(worker, &ctx.label, task_id, t_start, t_end);
        }
        shared.worker_slots[worker].add_task(t_end - t_start);

        inner = shared.inner.lock();
        inner.stats.lock_acquisitions += 1;
        complete(&shared, &mut inner, &ctx, result);
    }
}

/// Pop `worker`'s next task under `inner`, parking while there is none.
/// Returns its id, body and label, or `None` when the worker must exit
/// (decommissioned, or shut down with nothing queued for it).
fn next_task(
    shared: &Shared,
    inner: &mut MutexGuard<'_, Inner>,
    worker: usize,
) -> Option<(u64, TaskBody, String)> {
    let t = loop {
        if inner.decommissioned[worker] {
            // This worker may have absorbed a targeted wakeup meant to pair
            // with a ready task, or released one it counted on popping
            // itself; hand that wakeup to a live worker before exiting so
            // the task is not stranded.
            shared.work_cv.notify_one();
            return None;
        }
        if let Some(t) = inner.policy.pop(worker) {
            // Cancelled tasks may still sit in the ready queue; their
            // bodies are gone — skip them. Draining one shrinks the queue,
            // which can flip the quiescence condition.
            if inner.entries[t as usize].cancelled {
                inner.notify_quiesce(shared);
                continue;
            }
            break t;
        }
        if inner.shutdown {
            return None;
        }
        inner.idle_workers += 1;
        inner.stats.idle_transitions += 1;
        shared.work_cv.wait(inner);
        inner.idle_workers -= 1;
    };
    if debug_enabled() {
        eprintln!("[dbg] pop {t} by w{worker}");
    }
    inner.in_dispatch += 1;
    inner.busy[worker] = true;
    inner.stats.busy_transitions += 1;
    let e = &mut inner.entries[t as usize];
    let body = e.body.take().expect("task body already taken");
    Some((t, body, std::mem::take(&mut e.label).into_string()))
}

/// Propagate the completion of `ctx`'s task: release its successors, wake
/// whoever can now proceed — and nobody else.
fn complete(
    shared: &Shared,
    inner: &mut Inner,
    ctx: &TaskContext,
    result: std::thread::Result<()>,
) {
    let (worker, task_id) = (ctx.worker, ctx.task_id);
    let Inner {
        entries,
        succs,
        policy,
        ..
    } = inner;
    entries[task_id as usize].done = true;
    let mut chain = std::mem::take(&mut entries[task_id as usize].succs);
    let mut released = 0;
    while let Some(s) = succs.pop(&mut chain) {
        let e = &mut entries[s as usize];
        e.deps -= 1;
        if e.deps == 0 && !e.done {
            let meta = ReadyMeta {
                priority: e.priority,
                releaser: Some(worker),
                affinity: e.affinity,
                pin: e.pin,
            };
            if debug_enabled() {
                eprintln!("[dbg] push_ready {s} (released by {task_id})");
            }
            policy.push(s, meta);
            released += 1;
        }
    }
    // This worker goes straight on to pop under the same guard: it takes
    // one released task itself, or, if its lane died, hands that wakeup on
    // as it exits.
    inner.wake_workers(shared, released, usize::from(released > 0));
    inner.in_flight -= 1;
    inner.stats.completed += 1;
    if let Err(panic) = result {
        inner.stats.failed += 1;
        let msg = panic_message(&*panic);
        inner
            .errors
            .push(format!("task {task_id} ({}): {msg}", ctx.label));
    }
    // A lane decommissioned mid-task stays busy forever.
    inner.busy[worker] = inner.decommissioned[worker];
    if inner.in_flight == 0 {
        shared.done_cv.notify_all();
    }
    if inner.submitter_waiting > 0 {
        shared.window_cv.notify_all();
    }
    inner.notify_quiesce(shared);
}

/// Cached SUPERSIM_DEBUG environment check (hot paths consult this).
fn debug_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("SUPERSIM_DEBUG").is_some())
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        String::from(*s)
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("unknown panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyKind, SchedulerKind};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use supersim_dag::{Access, DataId};

    fn d(i: u64) -> DataId {
        DataId(i)
    }

    #[test]
    fn dependent_tasks_run_in_order() {
        let rt = Runtime::new(RuntimeConfig::simple(4));
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20u64 {
            let log = log.clone();
            rt.submit(TaskDesc::new(
                "t",
                vec![Access::read_write(d(0))],
                move |_| {
                    log.lock().push(i);
                },
            ));
        }
        rt.wait_all().unwrap();
        let log = log.lock();
        assert_eq!(
            *log,
            (0..20).collect::<Vec<_>>(),
            "RW chain must serialize in order"
        );
    }

    #[test]
    fn independent_tasks_all_run() {
        let rt = Runtime::new(RuntimeConfig::simple(4));
        let count = Arc::new(AtomicU64::new(0));
        for i in 0..100u64 {
            let count = count.clone();
            rt.submit(TaskDesc::new("t", vec![Access::write(d(i))], move |_| {
                count.fetch_add(1, Ordering::SeqCst);
            }));
        }
        rt.wait_all().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 100);
        assert_eq!(rt.stats().completed, 100);
    }

    #[test]
    fn raw_dependency_enforced() {
        // writer -> readers -> writer2; writer2 must see both readers done.
        let rt = Runtime::new(RuntimeConfig::simple(4));
        let state = Arc::new(AtomicU64::new(0));
        let s1 = state.clone();
        rt.submit(TaskDesc::new("w", vec![Access::write(d(0))], move |_| {
            s1.store(1, Ordering::SeqCst);
        }));
        let readers_done = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let s = state.clone();
            let rd = readers_done.clone();
            rt.submit(TaskDesc::new("r", vec![Access::read(d(0))], move |_| {
                assert_eq!(s.load(Ordering::SeqCst), 1, "reader ran before writer");
                rd.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let rd = readers_done.clone();
        rt.submit(TaskDesc::new("w2", vec![Access::write(d(0))], move |_| {
            assert_eq!(rd.load(Ordering::SeqCst), 3, "writer2 ran before readers");
        }));
        rt.wait_all().unwrap();
    }

    #[test]
    fn parallel_readers_overlap_possible() {
        // Not a strict guarantee, but with 4 workers and a barrier inside
        // readers, they must be able to run concurrently (would deadlock
        // if the runtime serialized readers).
        let rt = Runtime::new(RuntimeConfig::simple(4));
        rt.submit(TaskDesc::new("w", vec![Access::write(d(0))], |_| {}));
        let barrier = Arc::new(std::sync::Barrier::new(3));
        for _ in 0..3 {
            let b = barrier.clone();
            rt.submit(TaskDesc::new("r", vec![Access::read(d(0))], move |_| {
                b.wait();
            }));
        }
        rt.wait_all().unwrap();
    }

    #[test]
    fn window_backpressure_limits_in_flight() {
        let cfg = RuntimeConfig {
            workers: 1,
            policy: PolicyKind::CentralFifo,
            window: 2,
            name: "test",
        };
        let rt = Runtime::new(cfg);
        let max_seen = Arc::new(AtomicU64::new(0));
        let live = Arc::new(AtomicU64::new(0));
        for i in 0..10u64 {
            let live = live.clone();
            let max_seen = max_seen.clone();
            rt.submit(TaskDesc::new("t", vec![Access::write(d(i))], move |_| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                live.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        rt.wait_all().unwrap();
        // One worker: at most 1 running; window capped submission to 2.
        assert!(max_seen.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn panicking_task_reported_not_fatal() {
        let rt = Runtime::new(RuntimeConfig::simple(2));
        rt.submit(TaskDesc::new("boom", vec![Access::write(d(0))], |_| {
            panic!("kaboom");
        }));
        let ok_ran = Arc::new(AtomicU64::new(0));
        let ok2 = ok_ran.clone();
        rt.submit(TaskDesc::new("ok", vec![Access::write(d(1))], move |_| {
            ok2.store(1, Ordering::SeqCst);
        }));
        let errs = rt.wait_all().unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("kaboom"));
        assert!(errs[0].contains("boom"));
        assert_eq!(ok_ran.load(Ordering::SeqCst), 1);
        assert_eq!(rt.stats().failed, 1);
        // A second wait_all succeeds (errors were drained).
        rt.wait_all().unwrap();
    }

    #[test]
    fn trace_recorded_in_real_mode() {
        let recorder = TraceRecorder::new();
        let rt = Runtime::with_trace(RuntimeConfig::simple(2), Some(recorder.clone()));
        for i in 0..5u64 {
            rt.submit(TaskDesc::new("k", vec![Access::write(d(i))], |_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }));
        }
        rt.wait_all().unwrap();
        let trace = recorder.finish(2);
        assert_eq!(trace.len(), 5);
        assert!(trace.validate(1e-9).is_ok());
        assert!(trace.makespan() > 0.0);
    }

    #[test]
    fn all_scheduler_profiles_run_a_dag() {
        for kind in [
            SchedulerKind::Quark,
            SchedulerKind::StarPu,
            SchedulerKind::OmpSs,
        ] {
            let rt = Runtime::new(kind.config(3));
            let count = Arc::new(AtomicU64::new(0));
            // Diamond DAGs over 10 data regions.
            for i in 0..10u64 {
                for _ in 0..3 {
                    let c = count.clone();
                    rt.submit(TaskDesc::new(
                        "t",
                        vec![Access::read_write(d(i))],
                        move |_| {
                            c.fetch_add(1, Ordering::SeqCst);
                        },
                    ));
                }
            }
            rt.wait_all().unwrap();
            assert_eq!(count.load(Ordering::SeqCst), 30, "{:?}", kind);
        }
    }

    #[test]
    fn probe_reports_quiescent_when_idle() {
        let rt = Runtime::new(RuntimeConfig::simple(2));
        let probe = rt.probe();
        rt.submit(TaskDesc::new("t", vec![Access::write(d(0))], |_| {}));
        // Unsealed submission stream: never quiescent.
        assert!(!probe.quiescent());
        rt.seal();
        rt.wait_all().unwrap();
        assert!(probe.quiescent());
        probe.wait_quiescent();
        assert_eq!(probe.completed(), 1);
        probe.wait_settled(1);
    }

    #[test]
    fn seal_unseal_cycle() {
        let rt = Runtime::new(RuntimeConfig::simple(1));
        rt.submit(TaskDesc::new("t", vec![], |_| {}));
        rt.seal();
        rt.wait_all().unwrap();
        rt.unseal();
        rt.submit(TaskDesc::new("t2", vec![], |_| {}));
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(rt.stats().completed, 2);
    }

    #[test]
    #[should_panic(expected = "submit() after seal()")]
    fn submit_after_seal_panics() {
        let rt = Runtime::new(RuntimeConfig::simple(1));
        rt.seal();
        rt.submit(TaskDesc::new("t", vec![], |_| {}));
    }

    #[test]
    fn mark_registered_decrements_in_dispatch() {
        let rt = Runtime::new(RuntimeConfig::simple(1));
        let probe = rt.probe();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        rt.submit(TaskDesc::new("t", vec![Access::write(d(0))], move |ctx| {
            ready_tx.send(()).unwrap();
            // Hold the dispatch window open until the main thread checked.
            go_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap();
            ctx.mark_registered();
        }));
        rt.seal();
        ready_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        // Task popped but not registered: in dispatch -> not quiescent.
        assert!(!probe.quiescent());
        go_tx.send(()).unwrap();
        rt.wait_all().unwrap();
        assert!(probe.quiescent());
    }

    #[test]
    fn priorities_respected_by_priority_policy() {
        // One worker, priority policy: after the blocker finishes, the
        // high-priority task must run before the low-priority one.
        let cfg = RuntimeConfig {
            workers: 1,
            policy: PolicyKind::Priority,
            window: usize::MAX,
            name: "prio-test",
        };
        let rt = Runtime::new(cfg);
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g2 = gate.clone();
        // Blocker occupies the worker while we enqueue the contenders.
        rt.submit(TaskDesc::new(
            "block",
            vec![Access::write(d(9))],
            move |_| {
                g2.wait();
            },
        ));
        let o1 = order.clone();
        rt.submit(
            TaskDesc::new("low", vec![Access::write(d(1))], move |_| {
                o1.lock().push("low");
            })
            .with_priority(1),
        );
        let o2 = order.clone();
        rt.submit(
            TaskDesc::new("high", vec![Access::write(d(2))], move |_| {
                o2.lock().push("high");
            })
            .with_priority(10),
        );
        gate.wait(); // release the blocker
        rt.wait_all().unwrap();
        assert_eq!(*order.lock(), vec!["high", "low"]);
    }

    #[test]
    fn stats_track_per_worker_counts() {
        let rt = Runtime::new(RuntimeConfig::simple(2));
        for i in 0..40u64 {
            rt.submit(TaskDesc::new("t", vec![Access::write(d(i))], |_| {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }));
        }
        rt.wait_all().unwrap();
        let s = rt.stats();
        assert_eq!(s.per_worker_tasks.iter().sum::<u64>(), 40);
        assert_eq!(s.completed, 40);
    }

    #[test]
    fn stats_track_transitions_and_lock_traffic() {
        let rt = Runtime::new(RuntimeConfig::simple(2));
        for i in 0..10u64 {
            rt.submit(TaskDesc::new("t", vec![Access::write(d(i))], |_| {}));
        }
        rt.wait_all().unwrap();
        // `wait_all` returns on the last completion, which can be before
        // any worker has looped back and parked (when both threads started
        // only after all ten submits, nobody has parked yet): wait for the
        // park instead of assuming it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while rt.stats().idle_transitions == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let s = rt.stats();
        // One busy transition per executed task.
        assert_eq!(s.busy_transitions, 10);
        // One submit, one registration and one completion + next-pop lock
        // per task, plus each worker's first pop.
        assert!(
            s.lock_acquisitions >= 30,
            "lock acquisitions {}",
            s.lock_acquisitions
        );
        // With the queue drained, a worker parks waiting for work.
        assert!(s.idle_transitions >= 1);
    }

    #[test]
    fn three_engine_locks_per_task() {
        // Submission, registration, and completion fused with the next
        // pop: a worker keeps the guard from one into the other, so only
        // its first pop takes a lock of its own.
        const TASKS: u64 = 1_000;
        let workers = 4;
        let rt = Runtime::new(SchedulerKind::Quark.config(workers));
        for i in 0..TASKS {
            // Chains over 16 tiles: tasks turn ready both at submission
            // and at a predecessor's completion.
            rt.submit(TaskDesc::new(
                "t",
                vec![Access::read_write(d(i % 16))],
                |ctx| ctx.mark_registered(),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
        let s = rt.stats();
        assert_eq!(s.completed, TASKS);
        assert!(
            s.lock_acquisitions <= 3 * TASKS + workers as u64,
            "lock acquisitions {}",
            s.lock_acquisitions
        );
    }

    #[test]
    fn submitted_counts_tasks() {
        let rt = Runtime::new(RuntimeConfig::simple(1));
        assert_eq!(rt.submitted(), 0);
        rt.submit(TaskDesc::new("t", vec![], |_| {}));
        assert_eq!(rt.submitted(), 1);
        rt.wait_all().unwrap();
    }

    #[test]
    fn tasks_with_no_accesses_are_independent() {
        let rt = Runtime::new(RuntimeConfig::simple(4));
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let c = count.clone();
            rt.submit(TaskDesc::new("free", vec![], move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        rt.wait_all().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn pinned_tasks_run_only_inside_their_range() {
        let cfg = RuntimeConfig {
            workers: 4,
            policy: PolicyKind::Pinned,
            window: usize::MAX,
            name: "pin-test",
        };
        let rt = Runtime::new(cfg);
        let seen = Arc::new(Mutex::new(Vec::new()));
        for i in 0..24u64 {
            let seen = seen.clone();
            let lo = (i % 2) as usize * 2; // [0,2) or [2,4)
            rt.submit(
                TaskDesc::new("t", vec![Access::write(d(i))], move |ctx| {
                    seen.lock().push((lo, ctx.worker));
                })
                .with_pin(lo, lo + 2),
            );
        }
        rt.wait_all().unwrap();
        for (lo, w) in seen.lock().iter() {
            assert!(
                *w >= *lo && *w < lo + 2,
                "task pinned to [{lo}, {}) ran on worker {w}",
                lo + 2
            );
        }
    }

    #[test]
    fn pinned_quiescence_sees_past_stalled_lane() {
        // One ready task pinned to a busy lane, other workers idle: the
        // probe must report quiescent (the legacy predicate would spin
        // forever because not every worker is busy).
        let cfg = RuntimeConfig {
            workers: 3,
            policy: PolicyKind::Pinned,
            window: usize::MAX,
            name: "pin-q",
        };
        let rt = Runtime::new(cfg);
        let probe = rt.probe();
        let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        // Occupy worker 0's lane...
        rt.submit(
            TaskDesc::new("hold", vec![Access::write(d(0))], move |ctx| {
                ctx.mark_registered();
                started_tx.send(()).unwrap();
                hold_rx
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .unwrap();
            })
            .with_pin(0, 1),
        );
        // ...and queue a second task behind the same lane.
        rt.submit(TaskDesc::new("next", vec![Access::write(d(1))], |_| {}).with_pin(0, 1));
        rt.seal();
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        probe.wait_quiescent();
        assert!(probe.quiescent());
        hold_tx.send(()).unwrap();
        rt.wait_all().unwrap();
    }

    #[test]
    fn decommissioned_worker_takes_no_work() {
        let rt = Runtime::new(RuntimeConfig::simple(2));
        rt.decommission(1);
        assert!(rt.is_decommissioned(1));
        assert!(!rt.is_decommissioned(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20u64 {
            let seen = seen.clone();
            rt.submit(TaskDesc::new("t", vec![Access::write(d(i))], move |ctx| {
                seen.lock().push(ctx.worker);
            }));
        }
        rt.wait_all().unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 20);
        assert!(
            seen.iter().all(|&w| w == 0),
            "dead worker executed a task: {seen:?}"
        );
    }

    #[test]
    fn pinned_lane_shrink_mid_run_stays_quiescent() {
        // The node-death scenario: a pinned lane range loses a lane while
        // work is queued against it. A task pinned to {busy lane, dead
        // lane} is stalled — the dead lane counts as busy — so quiescence
        // must hold, and the task must later run on the surviving lane.
        let cfg = RuntimeConfig {
            workers: 3,
            policy: PolicyKind::Pinned,
            window: usize::MAX,
            name: "pin-shrink",
        };
        let rt = Runtime::new(cfg);
        let probe = rt.probe();
        let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        // Occupy lane 0.
        rt.submit(
            TaskDesc::new("hold", vec![Access::write(d(0))], move |ctx| {
                ctx.mark_registered();
                started_tx.send(()).unwrap();
                hold_rx
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .unwrap();
            })
            .with_pin(0, 1),
        );
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        // Lane 1 dies; a task pinned to [0, 2) now has one busy and one
        // dead lane — stalled, not runnable, not a quiescence violation.
        rt.decommission(1);
        let ran_on = Arc::new(AtomicUsize::new(usize::MAX));
        let r = ran_on.clone();
        rt.submit(
            TaskDesc::new("next", vec![Access::write(d(1))], move |ctx| {
                r.store(ctx.worker, Ordering::SeqCst);
            })
            .with_pin(0, 2),
        );
        rt.seal();
        probe.wait_quiescent();
        assert!(probe.quiescent());
        hold_tx.send(()).unwrap();
        rt.wait_all().unwrap();
        assert_eq!(
            ran_on.load(Ordering::SeqCst),
            0,
            "the pinned task must run on the surviving lane"
        );
    }

    #[test]
    fn a_lane_killed_mid_task_still_wakes_a_worker_for_its_successor() {
        // A completing worker normally pops one released task itself and
        // wakes nobody for it; a decommissioned one exits instead, so it
        // must wake a parked worker for every task it releases.
        let rt = Arc::new(Runtime::new(RuntimeConfig::simple(2)));
        let (lane_tx, lane_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let timeout = std::time::Duration::from_secs(10);
        rt.submit(TaskDesc::new("a", vec![Access::write(d(0))], move |ctx| {
            lane_tx.send(ctx.worker).unwrap();
            go_rx.recv_timeout(timeout).unwrap();
        }));
        let ran_on = Arc::new(AtomicUsize::new(usize::MAX));
        let r = ran_on.clone();
        rt.submit(TaskDesc::new("b", vec![Access::read(d(0))], move |ctx| {
            r.store(ctx.worker, Ordering::SeqCst);
        }));
        rt.seal();
        let lane = lane_rx.recv_timeout(timeout).unwrap();
        // The other worker parks (B is not ready), and parks again after
        // the decommission broadcast: once its park count moves, it sleeps.
        let parks = rt.stats().idle_transitions;
        rt.decommission(lane);
        let deadline = std::time::Instant::now() + timeout;
        while rt.stats().idle_transitions == parks && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        go_tx.send(()).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = rt.clone();
        let runner = std::thread::spawn(move || done_tx.send(waiter.wait_all()).unwrap());
        done_rx
            .recv_timeout(timeout)
            .expect("the released task was stranded")
            .unwrap();
        runner.join().unwrap();
        assert_eq!(ran_on.load(Ordering::SeqCst), 1 - lane);
    }

    #[test]
    fn wait_all_with_nothing_submitted() {
        let rt = Runtime::new(RuntimeConfig::simple(1));
        rt.wait_all().unwrap();
    }

    #[test]
    fn multi_phase_submission() {
        let rt = Runtime::new(RuntimeConfig::simple(2));
        let c = Arc::new(AtomicU64::new(0));
        for i in 0..5u64 {
            let c = c.clone();
            rt.submit(TaskDesc::new("p1", vec![Access::write(d(i))], move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        rt.wait_all().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 5);
        for i in 0..5u64 {
            let c = c.clone();
            rt.submit(TaskDesc::new("p2", vec![Access::write(d(i))], move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        rt.wait_all().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 10);
    }
}

#[cfg(test)]
mod cancellation_tests {
    //! QUARK-style task cancellation.
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::task::TaskDesc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use supersim_dag::{Access, DataId};

    #[test]
    fn abort_pending_drops_unstarted_tasks() {
        let rt = Runtime::new(RuntimeConfig::simple(1));
        let ran = Arc::new(AtomicU64::new(0));
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        // Blocker occupies the only worker.
        rt.submit(TaskDesc::new(
            "block",
            vec![Access::write(DataId(0))],
            move |_| {
                started_tx.send(()).unwrap();
                gate_rx
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .unwrap();
            },
        ));
        for i in 1..=5u64 {
            let ran = ran.clone();
            rt.submit(TaskDesc::new(
                "work",
                vec![Access::write(DataId(i))],
                move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                },
            ));
        }
        rt.seal();
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        let cancelled = rt.abort_pending();
        gate_tx.send(()).unwrap();
        rt.wait_all().unwrap();
        assert_eq!(cancelled, 5);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "cancelled tasks must not run"
        );
        assert_eq!(rt.stats().cancelled, 5);
        assert_eq!(rt.stats().completed, 1, "only the blocker executed");
    }

    #[test]
    fn abort_then_resubmit_new_phase() {
        let rt = Runtime::new(RuntimeConfig::simple(2));
        rt.submit(TaskDesc::new("t", vec![Access::write(DataId(0))], |_| {}));
        rt.seal();
        rt.wait_all().unwrap();
        // Nothing pending: abort is a no-op.
        assert_eq!(rt.abort_pending(), 0);
        rt.unseal();
        let ran = Arc::new(AtomicU64::new(0));
        let r2 = ran.clone();
        rt.submit(TaskDesc::new(
            "t2",
            vec![Access::write(DataId(1))],
            move |_| {
                r2.fetch_add(1, Ordering::SeqCst);
            },
        ));
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cancelled_dependents_never_release() {
        // Error-recovery pattern: a failing task's successors are aborted.
        let rt = Runtime::new(RuntimeConfig::simple(1));
        let ran = Arc::new(AtomicU64::new(0));
        rt.submit(TaskDesc::new(
            "boom",
            vec![Access::write(DataId(0))],
            |_| {
                panic!("numerical breakdown");
            },
        ));
        // Give the failure a moment to land, then cancel the rest.
        let r2 = ran.clone();
        rt.submit(TaskDesc::new(
            "dependent",
            vec![Access::read(DataId(0))],
            move |_| {
                r2.fetch_add(1, Ordering::SeqCst);
            },
        ));
        rt.seal();
        // Busy-wait for the failure to be recorded, then abort.
        for _ in 0..500 {
            if rt.stats().failed > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        rt.abort_pending();
        let result = rt.wait_all();
        assert!(result.is_err(), "the panic must be reported");
        // The dependent may have run only if it was dispatched before the
        // abort; with a 1-worker runtime and the panic recorded first,
        // cancellation must have caught it... unless it was already done.
        let total = rt.stats().completed + rt.stats().cancelled;
        assert_eq!(total, 2, "every task accounted for");
    }
}
