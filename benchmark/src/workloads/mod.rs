//! The four workloads. Names are part of the benchmark's contract.

pub mod des_dense;
pub mod des_stream;
pub mod seeded;
pub mod serve_mix;
pub mod threaded_inloop;

use crate::driver::{Metrics, Workload};
use std::path::PathBuf;
use supersim_runtime::RuntimeStats;

/// Workload names, in run order.
pub const NAMES: [&str; 4] = ["des-dense", "des-stream", "threaded-inloop", "serve-mix"];

/// What a workload's set-up may depend on: the seed and where the recorded
/// data lives. The program under test sees only inputs generated from these.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub data_dir: PathBuf,
    /// The affinity mask the process started with, before it pinned itself
    /// (the `runtime.unpinned_p50_ms` probe runs under it).
    pub unpinned_mask: Option<crate::pin::CpuSet>,
}

/// Run `name`'s whole set-up once.
pub fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "des-dense" => Box::new(des_dense::DesDense::setup(ctx)?),
        "des-stream" => Box::new(des_stream::DesStream::setup(ctx)?),
        "threaded-inloop" => Box::new(threaded_inloop::ThreadedInloop::setup(ctx)?),
        "serve-mix" => Box::new(serve_mix::ServeMix::setup(ctx)?),
        other => return Err(format!("unknown workload '{other}' (one of {NAMES:?})")),
    })
}

/// Engine counters of the last op, per task. The DES backend fills only
/// the task counts, so its lock and idle figures read 0.
pub fn put_runtime_stats(out: &mut Metrics, stats: Option<&RuntimeStats>) {
    let Some(s) = stats else { return };
    let tasks = s.completed.max(1) as f64;
    out.put(
        "runtime.lock_acq_per_task",
        s.lock_acquisitions as f64 / tasks,
        "count",
    );
    out.put(
        "runtime.idle_transitions_per_task",
        s.idle_transitions as f64 / tasks,
        "count",
    );
    out.put("runtime.worker_imbalance", s.imbalance(), "ratio");
}
