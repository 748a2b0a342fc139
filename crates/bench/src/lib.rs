//! # supersim-bench
//!
//! The `figures` binary that regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index), and
//! the `perf_baseline` hot-path baseline. Shared sweep helpers, the
//! contention scenarios and the streaming-trace memory probe
//! (`stream_bench`) live here. Per-layer micro-numbers come from the
//! regression benchmark, `bash benchmark/run.sh`.

pub mod contention;
pub mod stream_bench;
pub mod sweep;
