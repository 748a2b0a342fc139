//! # supersim-core
//!
//! The paper's primary contribution: a **parallel simulation library for
//! superscalar schedulers** (§V). A real runtime keeps doing all dependence
//! tracking and scheduling with real worker threads, but each computational
//! kernel is replaced by a call into this library, which
//!
//! 1. reads the **virtual clock** to obtain the task's simulated start,
//! 2. samples the task duration from the kernel's fitted distribution,
//! 3. inserts itself into the **Task Execution Queue** (a priority queue
//!    ordered by virtual completion time),
//! 4. blocks until it is at the front of the queue — preserving the order
//!    of task completions in virtual time — and then
//! 5. advances the clock to its completion time and returns, at which
//!    point the scheduler believes the task "ran".
//!
//! The scheduling race of §V-E (a retiring task racing a just-released
//! successor's queue insertion) is closed by a pluggable
//! [`RaceMitigation`]: the QUARK-style quiescence query, the portable
//! sleep/yield fallback, or `None` to deliberately reproduce the bug.
//!
//! Modules:
//!
//! * [`teq`] — the Task Execution Queue with the embedded virtual clock;
//! * [`model`] — kernel duration models (distribution + warm-up effects);
//! * [`race`] — race-condition mitigation strategies;
//! * [`session`] — the simulation session tying clock, queue, models,
//!   trace, and runtime quiescence together.

pub mod model;
pub mod obs;
#[cfg(test)]
mod proptests;
pub mod race;
pub mod session;
pub mod teq;

pub use model::{KernelModel, ModelRegistry};
pub use race::RaceMitigation;
pub use session::{
    FaultInjector, KernelPlan, ReplayBody, SegmentKind, SimConfig, SimSession, Timeline,
    TransientSpec,
};
pub use teq::{Completion, CompletionSeq, TaskExecutionQueue, WakeupMode};
