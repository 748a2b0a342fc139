//! # supersim-runtime
//!
//! A superscalar task runtime — the class of system the paper simulates
//! (QUARK, StarPU, OmpSs; §IV-A). Tasks are submitted serially with data
//! access annotations; the runtime resolves RaW/WaR/WaW hazards at
//! submission, maintains the dependence graph, and dispatches ready tasks
//! to worker threads according to a pluggable scheduling policy.
//!
//! The paper's simulation methodology requires exactly this substrate: the
//! scheduler does all "dependence tracking work, while ... the work inside
//! the tasks is not done" (§V). The same engine executes either real
//! kernels or the simulated-kernel protocol from `supersim-core`.
//!
//! Three *profiles* model the three schedulers the paper evaluates:
//!
//! * [`SchedulerKind::Quark`] — centralized FIFO ready queue with a task
//!   window, plus the scheduler-quiescence query the paper describes as a
//!   QUARK extension for exactly this simulator;
//! * [`SchedulerKind::StarPu`] — work-stealing per-worker deques (StarPU's
//!   `ws` policy); a priority (`prio`/`dm`-style) policy is also available;
//! * [`SchedulerKind::OmpSs`] — locality-aware per-worker queues with a
//!   submission throttle (Nanos++-style breadth-first).
//!
//! The engine exposes the hooks the simulation layer needs:
//! [`quiesce::Quiesce`] (is all scheduler bookkeeping done?) and per-task
//! [`task::TaskContext`] callbacks.

pub mod chain;
pub mod config;
pub mod engine;
pub mod hazards;
pub mod policy;
pub mod profiles;
#[cfg(test)]
mod proptests;
pub mod quiesce;
pub mod stats;
pub mod task;

pub use chain::{Chain, ChainPool};
pub use config::{PolicyKind, RuntimeConfig, SchedulerKind};
pub use engine::Runtime;
pub use hazards::HazardTracker;
pub use policy::{make_policy, Policy, ReadyMeta};
pub use quiesce::Quiesce;
pub use stats::RuntimeStats;
pub use task::{TaskContext, TaskDesc};
