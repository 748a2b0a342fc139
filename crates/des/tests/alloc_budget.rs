//! The replay loop's allocation budget, as a test: a replayed task must
//! not cost the engine a heap allocation of its own. What remains is
//! amortised growth (trace shards, the node slab, per-tile reader lists)
//! and, under faults, the marked labels of failed-attempt and backoff
//! spans — a quarter of an allocation per task at most. Before the node
//! ring, the reused hazard / plan / layout buffers and the moved label,
//! the figure was about 8.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use supersim_core::{
    FaultInjector, KernelModel, ModelRegistry, SimConfig, SimSession, TransientSpec,
};
use supersim_dag::{Access, DataId};
use supersim_des::{ReplayBody, ReplayEngine, ReplayTask};
use supersim_dist::Dist;
use supersim_runtime::SchedulerKind;

/// Counts this thread's allocations (tests run on parallel threads).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so touching it
// allocates nothing and is valid for the whole life of the thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TILES: u64 = 48;
const LANES: usize = 48;
const LABELS: [&str; 4] = ["dpotrf", "dtrsm", "dsyrk", "dgemm"];

/// The right-looking tile Cholesky of a `TILES x TILES` tile matrix
/// (19,600 tasks), ranks claimed from `session` in stream order.
fn cholesky(session: &SimSession) -> Vec<ReplayTask> {
    let tile = |i: u64, j: u64| DataId(i * TILES + j);
    let mut tasks = Vec::new();
    let mut push = |label: &str, accesses: Vec<Access>| {
        tasks.push(ReplayTask {
            label: label.to_string(),
            accesses,
            priority: 0,
            pin: None,
            body: ReplayBody::Ranked {
                rank: session.next_rank(label),
            },
        })
    };
    for k in 0..TILES {
        push("dpotrf", vec![Access::read_write(tile(k, k))]);
        for i in k + 1..TILES {
            let (akk, aik) = (tile(k, k), tile(i, k));
            push("dtrsm", vec![Access::read(akk), Access::read_write(aik)]);
        }
        for i in k + 1..TILES {
            let (aik, aii) = (tile(i, k), tile(i, i));
            push("dsyrk", vec![Access::read(aik), Access::read_write(aii)]);
            for j in k + 1..i {
                let (ajk, aij) = (tile(j, k), tile(i, j));
                let accesses = vec![
                    Access::read(aik),
                    Access::read(ajk),
                    Access::read_write(aij),
                ];
                push("dgemm", accesses);
            }
        }
    }
    tasks
}

/// Every sixteenth submission of a label fails once before it succeeds.
struct EverySixteenth;

impl FaultInjector for EverySixteenth {
    fn transient(&self, _label: &str, rank: u64) -> Option<TransientSpec> {
        (rank & 15 == 0).then_some(TransientSpec {
            failures: 1,
            fail_fraction: 0.5,
            backoff_base: 1e-4,
            backoff_cap: 1e-2,
        })
    }
}

/// Allocations per task inside `ReplayEngine::run`, and the spans recorded.
fn replay(injector: Option<Arc<dyn FaultInjector>>) -> (f64, usize) {
    let mut models = ModelRegistry::new();
    for label in LABELS {
        let sampled = Dist::log_normal(-6.0, 0.3).expect("valid parameters");
        models.insert(label, KernelModel::new(sampled));
    }
    let session = SimSession::new(models, SimConfig::default());
    session.set_warmup_slots(LANES);
    if let Some(injector) = injector {
        session.attach_faults(injector);
    }
    let tasks = cholesky(&session);
    let n = tasks.len();
    let engine = ReplayEngine::new(&SchedulerKind::Quark.config(LANES), session.clone())
        .expect("the Quark profile replays");
    let before = allocations();
    let outcome = engine.run(tasks);
    let spent = allocations() - before;
    assert_eq!(outcome.completed, n as u64);
    let trace = session.finish_trace(LANES);
    assert!(trace.validate(1e-9).is_ok());
    (spent as f64 / n as f64, trace.len())
}

#[test]
fn a_clean_replay_allocates_a_quarter_per_task_at_most() {
    let (per_task, spans) = replay(None);
    assert_eq!(spans, 19_600);
    assert!(per_task <= 0.25, "{per_task} allocations per task");
}

#[test]
fn a_transient_fault_replay_allocates_a_quarter_per_task_at_most() {
    let (per_task, spans) = replay(Some(Arc::new(EverySixteenth)));
    // Ranks 0, 16, 32, … of 48 dpotrf, 1,128 dtrsm, 1,128 dsyrk and
    // 17,296 dgemm: 1,226 faulted tasks, each with one failed-attempt
    // and one backoff span.
    assert_eq!(spans, 19_600 + 2 * (3 + 71 + 71 + 1_081));
    assert!(per_task <= 0.25, "{per_task} allocations per task");
}
