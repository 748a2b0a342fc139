//! Refactor guard for the extracted-policy invariant.
//!
//! The DES replay backend reproduces the threaded engine's schedule by
//! driving the *same* policy objects `make_policy` builds — which is only
//! sound while the threaded engine routes **every** dispatch decision
//! through that one object, with no second copy of the scheduling logic
//! inside the engine. This test wraps the Quark policy (`CentralFifo`) in
//! a counting shim via `Runtime::with_policy_and_trace` and checks that
//! each task of a dependent simulated workload is pushed into and popped
//! out of the shared object exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use supersim_core::{KernelModel, ModelRegistry, SimConfig, SimSession};
use supersim_dag::{Access, DataId};
use supersim_runtime::{
    make_policy, Policy, PolicyKind, ReadyMeta, Runtime, SchedulerKind, TaskDesc,
};

/// Wraps the real policy, counting every push/pop that reaches it.
struct Counting {
    inner: Box<dyn Policy>,
    pushes: Arc<AtomicU64>,
    pops: Arc<AtomicU64>,
}

impl Policy for Counting {
    fn push(&mut self, task: u64, meta: ReadyMeta) {
        self.pushes.fetch_add(1, Ordering::Relaxed);
        self.inner.push(task, meta);
    }

    fn pop(&mut self, worker: usize) -> Option<u64> {
        let t = self.inner.pop(worker);
        if t.is_some() {
            self.pops.fetch_add(1, Ordering::Relaxed);
        }
        t
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn stalled(&self, busy: &[bool]) -> bool {
        self.inner.stalled(busy)
    }

    fn broadcast_wakeups(&self) -> bool {
        self.inner.broadcast_wakeups()
    }
}

#[test]
fn quark_routes_every_dispatch_through_the_shared_policy() {
    let workers = 3;
    let pushes = Arc::new(AtomicU64::new(0));
    let pops = Arc::new(AtomicU64::new(0));
    let config = SchedulerKind::Quark.config(workers);
    assert_eq!(
        config.policy,
        PolicyKind::CentralFifo,
        "Quark profile must use the central FIFO the DES backend replays"
    );
    let policy = Box::new(Counting {
        inner: make_policy(config.policy, workers),
        pushes: pushes.clone(),
        pops: pops.clone(),
    });
    let rt = Runtime::with_policy_and_trace(config, policy, None);

    let mut models = ModelRegistry::new();
    models.insert("k", KernelModel::constant(0.001));
    let session = SimSession::new(models, SimConfig::default());
    session.attach_quiesce(rt.probe());

    // A mix of chains and independent tasks: 4 chains of 8 over distinct
    // tiles, so tasks become ready both at submission and at completion.
    let mut submitted = 0u64;
    for chain in 0..4u64 {
        for _ in 0..8 {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::read_write(DataId(chain))],
                session.planned_body("k"),
            ));
            submitted += 1;
        }
    }
    rt.seal();
    rt.wait_all().unwrap();

    assert_eq!(
        pushes.load(Ordering::Relaxed),
        submitted,
        "every ready task must be enqueued via the shared policy object"
    );
    assert_eq!(
        pops.load(Ordering::Relaxed),
        submitted,
        "every dispatch must be dequeued via the shared policy object"
    );
    assert_eq!(rt.stats().completed, submitted);
}
