//! The DES product path's allocation budget, as a test: `Scenario::run_sim`
//! on the DES backend, from the lazy task stream through the replay loop
//! to `finish_trace`, allocates one thing per task — the task's access
//! list — plus amortised growth. The task's kernel name is its class's
//! shared handle, claimed with its rank from the session's kernel table,
//! and the span log is allocated once at the stream's length. When each
//! task carried its label as a `String`, the figure was 2.0.
//!
//! This binary counts allocations process-wide and holds this one test
//! only.

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

/// 48 x 48 tiles: 48 dpotrf + 1,128 dtrsm + 1,128 dsyrk + 17,296 dgemm.
const TILES: usize = 48;
const TASKS: u64 = 19_600;
const WORKERS: usize = 48;

#[test]
fn a_des_cholesky_run_allocates_one_per_task() {
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
        .backend(Backend::Des)
        .models(models)
        .seed(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = scenario.run_sim();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(run.stats.completed, TASKS);
    assert_eq!(run.trace.len(), TASKS as usize);
    let per_task = spent as f64 / TASKS as f64;
    assert!(per_task <= 1.05, "{per_task} allocations per task");
}
