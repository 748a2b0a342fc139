//! Task descriptors and the execution context handed to task bodies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use supersim_dag::Access;

/// The function a task runs. Receives the [`TaskContext`] so the body can
/// learn its identity/placement and (for simulated kernels) signal
/// registration to the quiescence machinery.
pub type TaskBody = Box<dyn FnOnce(&TaskContext) + Send + 'static>;

/// A task submitted to the runtime.
pub struct TaskDesc {
    /// Kernel-class label (used for traces and duration models).
    pub label: String,
    /// Data accesses; hazards against earlier submissions become
    /// dependences.
    pub accesses: Vec<Access>,
    /// Scheduling priority (higher runs first under the `Priority` policy;
    /// ignored by FIFO policies).
    pub priority: i64,
    /// Restrict execution to the half-open worker range `[start, end)`.
    /// `None` means any worker. Only the `Pinned` policy honors pins;
    /// other policies ignore them.
    pub pin: Option<(usize, usize)>,
    /// The task body.
    pub body: TaskBody,
}

impl TaskDesc {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        accesses: Vec<Access>,
        body: impl FnOnce(&TaskContext) + Send + 'static,
    ) -> Self {
        TaskDesc {
            label: label.into(),
            accesses,
            priority: 0,
            pin: None,
            body: Box::new(body),
        }
    }

    /// Set the scheduling priority.
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }

    /// Pin the task to the half-open worker range `[start, end)`.
    pub fn with_pin(mut self, start: usize, end: usize) -> Self {
        assert!(start < end, "empty pin range [{start}, {end})");
        self.pin = Some((start, end));
        self
    }
}

impl std::fmt::Debug for TaskDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskDesc")
            .field("label", &self.label)
            .field("accesses", &self.accesses)
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

/// Flag that tracks whether an executing task has completed its "dispatch
/// registration" — for simulated kernels, the moment the task has inserted
/// itself into the Task Execution Queue. The runtime counts tasks whose
/// token is still unregistered ("in dispatch") for the quiescence query;
/// see paper §V-E. Each worker owns one and re-arms it per task.
#[derive(Debug)]
pub struct DispatchToken {
    registered: AtomicBool,
}

impl DispatchToken {
    pub(crate) fn new() -> Self {
        DispatchToken {
            registered: AtomicBool::new(false),
        }
    }

    /// Mark registered; returns true on the first call only.
    pub(crate) fn set(&self) -> bool {
        !self.registered.swap(true, Ordering::AcqRel)
    }

    /// Re-arm for the next task.
    fn reset(&self) {
        self.registered.store(false, Ordering::Release);
    }

    /// Whether registration happened.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_set(&self) -> bool {
        self.registered.load(Ordering::Acquire)
    }
}

/// Per-execution context passed to the task body. A worker keeps one for
/// its whole life and re-arms it per task, so dispatch allocates nothing.
pub struct TaskContext {
    /// Worker index executing this task.
    pub worker: usize,
    /// The task's stable id (submission order).
    pub task_id: u64,
    /// Kernel-class label.
    pub label: String,
    pub(crate) token: DispatchToken,
    /// The worker's registration handle, shared by all its tasks.
    pub(crate) on_register: Arc<dyn Fn() + Send + Sync>,
}

impl TaskContext {
    /// An idle context for `worker`, registering through `on_register`.
    pub(crate) fn new(worker: usize, on_register: Arc<dyn Fn() + Send + Sync>) -> Self {
        TaskContext {
            worker,
            task_id: 0,
            label: String::new(),
            token: DispatchToken::new(),
            on_register,
        }
    }

    /// Re-arm for task `task_id`, taking ownership of its label.
    pub(crate) fn begin(&mut self, task_id: u64, label: String) {
        self.task_id = task_id;
        self.label = label;
        self.token.reset();
    }

    /// Signal that the task has finished its scheduling-visible setup (for
    /// a simulated kernel: inserted itself into the Task Execution Queue).
    ///
    /// Until this is called — or the body returns, whichever happens first
    /// — the runtime reports the task as "in dispatch" and the quiescence
    /// query returns false. Idempotent.
    pub fn mark_registered(&self) {
        if self.token.set() {
            (self.on_register)();
        }
    }

    pub(crate) fn finish_registration(&self) {
        self.mark_registered();
    }
}

impl std::fmt::Debug for TaskContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskContext")
            .field("worker", &self.worker)
            .field("task_id", &self.task_id)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_builder() {
        let d = TaskDesc::new("gemm", vec![], |_| {}).with_priority(7);
        assert_eq!(d.label, "gemm");
        assert_eq!(d.priority, 7);
        assert_eq!(d.pin, None);
        assert!(format!("{d:?}").contains("gemm"));
        let p = TaskDesc::new("xfer", vec![], |_| {}).with_pin(4, 8);
        assert_eq!(p.pin, Some((4, 8)));
    }

    #[test]
    fn dispatch_token_set_once() {
        let t = DispatchToken::new();
        assert!(!t.is_set());
        assert!(t.set());
        assert!(t.is_set());
        assert!(!t.set(), "second set must report already-registered");
    }

    #[test]
    fn context_register_fires_callback_once() {
        use std::sync::atomic::AtomicUsize;
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let mut ctx = TaskContext::new(
            0,
            Arc::new(move || {
                c2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        ctx.begin(1, "x".into());
        ctx.mark_registered();
        ctx.mark_registered();
        ctx.finish_registration();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}
