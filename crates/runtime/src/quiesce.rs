//! The scheduler-quiescence query.
//!
//! Paper §V-E: QUARK gained "a function ... that allows the developer to
//! determine if the scheduler has completed all bookkeeping related to
//! scheduling", used by the simulator to close the race between a task
//! retiring from the Task Execution Queue and a just-released successor
//! inserting itself. This trait is the runtime-agnostic form of that query;
//! `supersim-core` consumes it through an `Arc<dyn Quiesce>`.

/// Query/wait interface for scheduler bookkeeping quiescence.
pub trait Quiesce: Send + Sync {
    /// True when no task is in its dispatch window (popped from the ready
    /// queue but not yet registered) **and** no ready task is waiting while
    /// a worker sits idle. When this holds, every task that could have
    /// started before the caller's completion time has already made itself
    /// visible to the simulation.
    fn quiescent(&self) -> bool;

    /// Block until [`Quiesce::quiescent`] holds.
    fn wait_quiescent(&self);

    /// Number of tasks whose completion has been fully propagated
    /// (successors released) by the scheduler.
    fn completed(&self) -> u64;

    /// Block until at least `min_completed` completions have propagated
    /// **and** [`Quiesce::quiescent`] holds.
    ///
    /// The simulation layer calls this with the number of tasks already
    /// retired from the Task Execution Queue: a task that has retired but
    /// whose completion the scheduler has not yet propagated may still
    /// release a successor with an earlier virtual completion, so the
    /// caller must not retire until those propagations settle.
    fn wait_settled(&self, min_completed: u64);

    /// Drop every task that has not started executing (the runtime's task
    /// cancellation, paper §IV-A3); tasks already running finish. The
    /// simulation layer calls this once its run is cancelled, so the run
    /// ends with the tasks it had started.
    fn cancel_pending(&self);
}
