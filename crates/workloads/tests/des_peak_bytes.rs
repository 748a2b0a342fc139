//! The DES product path's memory budget, as a test: the heap a run holds
//! at its peak, above what was live before it. A buffered run must hold
//! its span log (40 bytes a span, allocated once at the stream's length)
//! and, beside it, only what Quark's window of 5,000 tasks needs: 64-byte
//! task nodes in a slab no larger than the window, 8-byte successor and
//! reader cells, 24-byte region entries and no per-tile storage for the
//! layout. A cluster run's window is unbounded, so its core state grows
//! with the stream and gains the most.
//!
//! Measured: the 64-tile Cholesky held its log + 0.86 MiB (+1.87 MiB
//! with 88-byte nodes, a slab doubled to 8,192 slots, 16-byte cells and a
//! placeholder matrix per tile); the 4-node, 48-tile cluster run peaked at
//! 5.41 MiB (7.81 MiB).
//!
//! This binary counts live bytes process-wide; its tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use supersim_cluster::ClusterSpec;
use supersim_core::{KernelModel, ModelRegistry};
use supersim_dist::Dist;
use supersim_runtime::SchedulerKind;
use supersim_workloads::{Algorithm, Backend, Scenario};

/// Counts every thread's live bytes and their peak.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn note(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// static atomics, so counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test at a time, from building its scenario to dropping its
/// result: the counters are process-wide.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

const MIB: f64 = (1 << 20) as f64;

/// Peak bytes held while `run` runs, above the bytes live before it,
/// and its result.
fn peak_of<R>(run: impl FnOnce() -> R) -> (f64, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = run();
    ((PEAK.load(Ordering::Relaxed) - base) as f64, out)
}

fn cholesky(tiles: usize, workers: usize) -> Scenario {
    let mut models = ModelRegistry::new();
    for label in Algorithm::Cholesky.labels() {
        let sampled = Dist::log_normal(-6.0, 0.3).expect("valid parameters");
        models.insert(*label, KernelModel::new(sampled));
    }
    Scenario::new(Algorithm::Cholesky)
        .tiles(tiles)
        .tile_size(256)
        .workers(workers)
        .backend(Backend::Des)
        .models(models)
        .seed(1)
}

#[test]
fn a_buffered_run_holds_its_span_log_and_one_mib() {
    let _turn = turn();
    // 64 x 64 tiles: 45,760 tasks, one span each, Quark's window.
    let scenario = cholesky(64, 48).scheduler(SchedulerKind::Quark);
    let (peak, run) = peak_of(|| scenario.run_sim());
    assert_eq!(run.trace.len(), 45_760);
    let log = (40 * run.trace.len()) as f64;
    let beside = (peak - log) / MIB;
    assert!(beside <= 1.0, "{beside:.3} MiB beside the {log} B span log");
}

#[test]
fn a_four_node_cluster_run_peaks_under_six_mib() {
    let _turn = turn();
    let scenario = cholesky(48, 4).cluster(ClusterSpec {
        nodes: 4,
        workers_per_node: 4,
        nic_lanes_per_node: 1,
        mem_bytes_per_node: 0,
    });
    let (peak, run) = peak_of(|| scenario.run_cluster());
    assert!(run.transfers > 0);
    let peak = peak / MIB;
    assert!(peak <= 6.0, "the cluster run peaked at {peak:.3} MiB");
}
