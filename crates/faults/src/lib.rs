//! # supersim-faults
//!
//! Deterministic fault injection for the superscalar scheduling
//! simulator. A [`FaultPlan`] is a list of virtual-clock-scheduled fault
//! events — permanent worker/node failure, transient task failure,
//! straggler slowdown, NIC/link degradation — plus a [`RecoveryPolicy`]
//! (virtual-time retry backoff, restart delay, optional checkpointing).
//!
//! The plan is *compiled* against a [`LaneMap`] (the lane layout of the
//! machine being simulated) into a [`CompiledFaults`] injector that the
//! core session consults from inside the simulated-kernel protocol:
//!
//! * **Stragglers / link degradation** become per-lane piecewise-constant
//!   slowdown-rate functions, integrated under the TEQ state lock — a
//!   task's perturbed duration is a pure function of `(lane, start,
//!   nominal duration)`, never of host timing.
//! * **Transient failures** are selected by submission rank (`rank %
//!   period == 0`), so the set of retried tasks is fixed at submission
//!   time; each failed attempt consumes part of a freshly sampled
//!   duration, then backs off in virtual time (capped exponential).
//! * **Permanent failures** are *not* handled inside the injector: the
//!   fault-aware drivers replay the run in phases (cut at the failure
//!   time, re-place, re-execute) so host threads never race a
//!   virtual-time trigger. This crate supplies the trace surgery
//!   ([`mod@stitch`]) and the degradation accounting ([`DegradationReport`]).
//!
//! Determinism contract: identical `(seed, FaultPlan)` ⇒ identical
//! traces; an **empty** plan compiles to an injector that is never
//! attached, leaving the simulation bit-for-bit identical to a fault-free
//! run.

pub mod compiled;
pub mod lanes;
pub mod plan;
pub mod report;
pub mod stitch;

pub use compiled::{CompiledFaults, FaultStats};
pub use lanes::{LaneMap, NodeLanes};
pub use plan::{
    CheckpointPolicy, FaultEvent, FaultPlan, FaultScope, RecoveryPolicy, MAX_FAULT_EVENTS,
};
pub use report::{critical_lane, DegradationReport, FaultAttribution};
pub use stitch::{lost_name, mark_lost, stitch};
