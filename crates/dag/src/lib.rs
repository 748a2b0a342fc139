//! # supersim-dag
//!
//! Task DAGs for superscalar scheduling.
//!
//! In the superscalar paradigm (paper §IV-A) the developer submits tasks
//! serially, each annotated with the data it reads and writes. The scheduler
//! analyzes Read-after-Write (RaW), Write-after-Read (WaR), and
//! Write-after-Write (WaW) hazards over those annotations; the resulting
//! dependences form a Directed Acyclic Graph whose vertices are tasks and
//! whose edges connect a task's output to another task's input (Fig. 1
//! shows the DAG of a 4×4-tile QR factorization).
//!
//! This crate provides the graph model and the hazard analysis:
//!
//! * [`access`] — data handles and read/write access annotations;
//! * [`graph`] — the task-graph structure with edge multiplicity (Fig. 1's
//!   multi-edges: "more than one data dependence" between two tasks);
//! * [`build`] — superscalar hazard analysis from a serial task stream;
//! * [`renaming`] — anti-dependence elimination by data renaming (what
//!   schedulers that copy data to break WaR/WaW effectively do);
//! * [`dot`] — Graphviz export (regenerates Fig. 1);
//! * [`critical_path`] — weighted longest path and bottom-levels;
//! * [`analysis`] — depth/width/parallelism profiles;
//! * [`validate`] — topological sorting and schedule validation.

pub mod access;
pub mod analysis;
pub mod build;
pub mod critical_path;
pub mod dot;
pub mod graph;
#[cfg(test)]
mod proptests;
pub mod renaming;
pub mod validate;

pub use access::{normalize_accesses, normalize_accesses_into, Access, AccessMode, DataId};
pub use build::DagBuilder;
pub use graph::{TaskGraph, TaskId, TaskNode};
