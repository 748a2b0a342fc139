//! # supersim-des
//!
//! Discrete-event simulation without host threads, on one event loop.
//!
//! * [`replay`] — the **replay backend**: a pure-DES reproduction of the
//!   threaded engine's schedule on the Quark/Pinned profiles, bit-for-bit
//!   identical canonical traces without one host thread per simulated
//!   worker. It drives the runtime's own scheduling core
//!   ([`supersim_runtime::SchedCore`]) and keeps only virtual time and
//!   the lanes.
//! * [`engine`] — the classic **offline** list scheduler, the baseline
//!   the scheduler-in-the-loop approach is contrasted against (the
//!   paper's §II surveys tools that *reimplement* a policy over an
//!   explicit task graph). Given a [`supersim_dag::TaskGraph`] and
//!   per-task durations it runs greedy FIFO or bottom-level list
//!   scheduling on `P` identical workers — the replay loop fed the graph,
//!   with no runtime profile in the loop. `figures ablation` compares its
//!   predictions against the in-the-loop simulation.

pub mod engine;
mod proptests;
pub mod replay;

pub use engine::{simulate, DesPolicy, DesResult};
pub use replay::{
    replayable_policy, ReplayBody, ReplayEngine, ReplayLabel, ReplayOutcome, ReplayTask,
    Unsupported,
};
