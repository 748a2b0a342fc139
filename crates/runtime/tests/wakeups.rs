//! Lost-wakeup stress for the engine's notify discipline.
//!
//! The engine signals a condvar only when a waiter can proceed: workers for
//! the ready tasks no awake worker will take, `wait_all` on the last
//! completion, the submitter while it is window-blocked, and quiescence
//! waiters while one is registered. A transition that forgets its notify
//! shows up as a run that never finishes, so every run here has a wall-clock
//! deadline: over a few hundred random small DAGs, worker counts {1, 2, 8},
//! windows {1, 2, 3, unbounded}, the Quark and Pinned policies, and plain,
//! mid-run `abort_pending` and mid-run `decommission` variants. Half the
//! task bodies behave like simulated kernels — register, then wait for
//! quiescence — so the quiescence notifies are exercised too.

use std::sync::mpsc;
use std::time::Duration;
use supersim_dag::{Access, DataId};
use supersim_runtime::{PolicyKind, Runtime, RuntimeConfig, SchedulerKind, TaskDesc};

/// Per-run wall-clock budget; a healthy run takes milliseconds.
const DEADLINE: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy)]
enum Variant {
    Plain,
    /// `abort_pending` after a random number of submissions.
    Abort,
    /// A random task's lane dies while that task runs (multi-worker runs).
    Decommission,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    workers: usize,
    window: usize,
    policy: PolicyKind,
    variant: Variant,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run `case` to completion; returns (submitted, completed, cancelled).
fn run(case: Case) -> (u64, u64, u64) {
    let mut rng = case.seed;
    let mut draw = |n: u64| splitmix64(&mut rng) % n;
    let rt = Runtime::new(RuntimeConfig {
        workers: case.workers,
        policy: case.policy,
        window: case.window,
        name: "wakeups",
    });
    let probe = rt.probe();
    let tasks = 5 + draw(36);
    let interrupt_at = draw(tasks);
    let kill = matches!(case.variant, Variant::Decommission) && case.workers > 1;
    // The gate task reports its lane and holds it until that lane is dead.
    let (lane_tx, lane_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let mut gate = Some((lane_tx, go_rx));
    std::thread::scope(|s| {
        if kill {
            let rt = &rt;
            s.spawn(move || {
                if let Ok(lane) = lane_rx.recv() {
                    rt.decommission(lane);
                }
                let _ = go_tx.send(());
            });
        }
        for i in 0..tasks {
            if i == interrupt_at && matches!(case.variant, Variant::Abort) {
                rt.abort_pending();
            }
            let accesses = (0..draw(4))
                .map(|_| {
                    let data = DataId(draw(6));
                    match draw(3) {
                        0 => Access::read(data),
                        1 => Access::write(data),
                        _ => Access::read_write(data),
                    }
                })
                .collect();
            let settles = draw(2) == 0;
            let gate = gate.take().filter(|_| kill && i == interrupt_at);
            let probe = probe.clone();
            let desc = TaskDesc::new("t", accesses, move |ctx| {
                if let Some((lane_tx, go_rx)) = gate {
                    lane_tx.send(ctx.worker).expect("the killer waits");
                    go_rx.recv().expect("the killer answers");
                }
                if settles {
                    ctx.mark_registered();
                    probe.wait_quiescent();
                }
            });
            // Pins span two lanes or more, so one dead lane strands none.
            let desc = match (case.policy, case.workers) {
                (PolicyKind::Pinned, 1) => desc.with_pin(0, 1),
                (PolicyKind::Pinned, w) => {
                    let start = draw(w as u64 - 1) as usize;
                    desc.with_pin(start, start + 2 + draw((w - start - 1) as u64) as usize)
                }
                _ => desc,
            };
            rt.submit(desc);
        }
        rt.seal();
        rt.wait_all().expect("no task panics");
    });
    let stats = rt.stats();
    (tasks, stats.completed, stats.cancelled)
}

/// Run `case` on its own thread and fail the test if it misses the
/// deadline (a stuck run's threads are leaked; the test is failing anyway).
fn run_with_deadline(case: Case) {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(run(case));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok((submitted, completed, cancelled)) => {
            runner.join().expect("the run already returned");
            assert_eq!(
                completed + cancelled,
                submitted,
                "{case:?}: every task completes or is cancelled"
            );
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{case:?}: no progress within {DEADLINE:?} (a lost wakeup)")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the run panicked"))
        }
    }
}

#[test]
fn random_dags_finish_under_every_wakeup_path() {
    let quark = SchedulerKind::Quark.config(1).policy;
    let mut runs = 0;
    for seed in 0..5u64 {
        for workers in [1, 2, 8] {
            for window in [1, 2, 3, usize::MAX] {
                for policy in [quark, PolicyKind::Pinned] {
                    for variant in [Variant::Plain, Variant::Abort, Variant::Decommission] {
                        let seed = seed ^ (runs << 8);
                        run_with_deadline(Case {
                            seed,
                            workers,
                            window,
                            policy,
                            variant,
                        });
                        runs += 1;
                    }
                }
            }
        }
    }
    assert!(runs >= 200, "{runs} runs");
}
