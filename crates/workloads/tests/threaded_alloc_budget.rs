//! The threaded engine's allocation budget, as a test: on the paper's
//! scheduler-in-the-loop path a simulated task costs the engine, the task
//! execution queue and the session no heap allocation of their own. What
//! remains per task is the producer's access list and the task body's
//! box — two — plus amortised growth (the entry table, the trace's span
//! log, per-thread buffers): 2.07 per task. The label and the trace
//! span's kernel name are the class's shared name; when each was a copy,
//! the figure was 4.07. Before the moved label, the per-worker dispatch
//! state, the pooled successor lists, the reused hazard and plan buffers
//! and the per-thread TEQ condvar, it was about 12.3.
//!
//! A faulted run (node straggler, a third of the dgemms failing once)
//! takes the same path and stays at 2.09: its transient tasks lay out
//! into each worker thread's reused timeline. When the transient path
//! allocated its segment bounds per task, the figure was 2.35.
//!
//! The engine's worker threads allocate on their own threads, so this
//! binary counts allocations process-wide, and holds this one test only:
//! it runs the clean and the faulted case in turn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use supersim_core::{KernelModel, ModelRegistry};
use supersim_dist::Dist;
use supersim_faults::FaultPlan;
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

/// Allocations per task of one threaded Cholesky run of `scenario`, and
/// the run's span count.
fn allocations_per_task(scenario: Scenario) -> (f64, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = scenario.run_sim();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(run.stats.completed, TASKS);
    (spent as f64 / TASKS as f64, run.trace.len())
}

#[test]
fn a_threaded_cholesky_allocates_three_per_task_at_most() {
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
    let (clean, spans) = allocations_per_task(scenario.clone());
    assert_eq!(spans, TASKS as usize, "one span per clean task");
    assert!(clean <= 3.0, "{clean} allocations per task");
    // Faulted tasks take the same path: a straggler window over the whole
    // node, and every third dgemm failing once before it succeeds.
    let plan = FaultPlan::new()
        .straggler_node(0, 0.0, 0.05, 3.0)
        .transient_for("dgemm", 3, 1, 0.5);
    let (faulted, spans) = allocations_per_task(scenario.faults(plan));
    assert!(spans > TASKS as usize, "the plan laid out no transient");
    assert!(
        faulted <= 3.0,
        "{faulted} allocations per task under faults"
    );
}
