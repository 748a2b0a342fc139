//! The threaded engine's allocation budget, as a test: on the paper's
//! scheduler-in-the-loop path a simulated task costs the engine, the task
//! execution queue and the session no heap allocation of their own. What
//! remains per task is the producer's label and access list, the task
//! body's box and the trace span's kernel name — four — plus amortised
//! growth (the entry table, trace shards, per-thread buffers). Before the
//! moved label, the per-worker dispatch state, the pooled successor lists,
//! the reused hazard and plan buffers and the per-thread TEQ condvar, the
//! figure was about 12.3.
//!
//! The engine's worker threads allocate on their own threads, so this
//! binary counts allocations process-wide, and holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use supersim_core::{KernelModel, ModelRegistry};
use supersim_dist::Dist;
use supersim_runtime::SchedulerKind;
use supersim_workloads::{Algorithm, Backend, Scenario};

/// Counts every thread's allocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// static atomic, so counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 24 x 24 tiles: 24 dpotrf + 276 dtrsm + 276 dsyrk + 2,024 dgemm.
const TILES: usize = 24;
const TASKS: u64 = 2_600;
const WORKERS: usize = 8;

#[test]
fn a_threaded_cholesky_allocates_five_per_task_at_most() {
    let mut models = ModelRegistry::new();
    for label in Algorithm::Cholesky.labels() {
        let sampled = Dist::log_normal(-6.0, 0.3).expect("valid parameters");
        models.insert(*label, KernelModel::new(sampled));
    }
    let scenario = Scenario::new(Algorithm::Cholesky)
        .tiles(TILES)
        .tile_size(256)
        .workers(WORKERS)
        .scheduler(SchedulerKind::Quark)
        .backend(Backend::Threaded)
        .models(models)
        .seed(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = scenario.run_sim();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(run.stats.completed, TASKS);
    assert_eq!(run.trace.len(), TASKS as usize);
    let per_task = spent as f64 / TASKS as f64;
    assert!(per_task <= 5.0, "{per_task} allocations per task");
}
