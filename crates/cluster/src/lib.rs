//! Multi-node cluster simulation on top of the paper's single-node
//! protocol.
//!
//! The paper simulates superscalar scheduling on one shared-memory node;
//! this crate extends the same virtual-time machinery to a distributed-
//! memory machine. A [`ClusterSpec`] describes N nodes of W workers each,
//! plus per-node NIC lanes. All lanes — compute workers and NICs of every
//! node — are lanes of **one** simulated machine under the `Pinned`
//! policy sharing **one** virtual clock, so the completion-order
//! invariant (tasks retire in virtual completion order, clock advances
//! monotonically) holds across nodes without any cross-clock
//! synchronization protocol.
//!
//! Data lives where an owner-computes [`Placement`] puts it. When a task
//! on node `n` reads a tile owned elsewhere, [`Coherence::plan_compute`]
//! plans a *communication task*: a simulated task whose duration comes
//! from the [`Interconnect`] model and which is pinned to node `n`'s NIC
//! lanes. The consumer reads both the original tile and the received
//! copy, so the transfer orders correctly against producers (RaW), later
//! writers (WaR), and other consumers on the same node (copy reuse).
//! This crate holds the models and the planning; turning plans into
//! tasks is a stream adaptor in `supersim-workloads`, so both simulation
//! backends consume the same transfer tasks.
//!
//! Contention is emergent, not modeled analytically: a single-lane NIC
//! ([`SharedLink`]) can host only one in-flight transfer at a time in
//! virtual time, so concurrent arrivals serialize exactly as they would
//! on a real link; a multi-lane NIC ([`Hockney`]) costs each message
//! independently.

mod coherence;
mod interconnect;
mod placement;
mod spec;

pub use coherence::{Coherence, TransferPlan};
pub use interconnect::{
    contention_free_completions, serialized_completions, Hockney, Interconnect, SharedLink,
    ZeroCost,
};
pub use placement::{BlockCyclic, Placement};
pub use spec::{ClusterSpec, Lane};

/// Kernel label used for the inserted communication tasks.
pub const TRANSFER_LABEL: &str = "xfer";
