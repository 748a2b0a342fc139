//! # supersim-bench
//!
//! Criterion benchmarks and the `figures` binary that regenerates every
//! table and figure of the paper's evaluation (see DESIGN.md §4 for the
//! experiment index). Shared sweep helpers and the streaming-trace memory
//! probe (`stream_bench`) live here.

pub mod contention;
pub mod stream_bench;
pub mod sweep;
