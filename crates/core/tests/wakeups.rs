//! Lost-wakeup stress for the simulated-kernel protocol: every task of
//! every run settles through `Quiesce::wait_settled` before it retires, so a
//! transition that forgets to wake the quiescence waiters (a registration,
//! a completion, a seal, a window-blocked submitter) stalls the front
//! owner, and with it virtual time, for good. Each run has a wall-clock
//! deadline and must reproduce its own makespan bit for bit.

use std::sync::mpsc;
use std::time::Duration;
use supersim_core::{KernelModel, ModelRegistry, RaceMitigation, SimConfig, SimSession};
use supersim_dag::{Access, DataId};
use supersim_dist::Dist;
use supersim_runtime::{Runtime, RuntimeConfig, SchedulerKind, TaskDesc};

/// Wall-clock budget of a case's two runs; a healthy run takes milliseconds.
const DEADLINE: Duration = Duration::from_secs(10);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Simulate a random DAG of `seed` on `workers` lanes behind a task window
/// of `window`; returns the makespan's bits.
fn simulate(seed: u64, workers: usize, window: usize) -> u64 {
    let mut models = ModelRegistry::new();
    // Sampled, not constant, durations: equal completion times would make
    // the schedule depend on host timing.
    models.insert("k", KernelModel::new(Dist::log_normal(-4.0, 0.5).unwrap()));
    let session = SimSession::new(
        models,
        SimConfig {
            seed,
            mitigation: RaceMitigation::Quiesce,
            ..SimConfig::default()
        },
    );
    let rt = Runtime::new(RuntimeConfig {
        window,
        ..SchedulerKind::Quark.config(workers)
    });
    session.attach_quiesce(rt.probe());
    let mut rng = seed;
    let mut draw = |n: u64| splitmix64(&mut rng) % n;
    let tasks = 5 + draw(36);
    for _ in 0..tasks {
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
        rt.submit(TaskDesc::new("k", accesses, session.planned_body("k")));
    }
    rt.seal();
    rt.wait_all().expect("no task panics");
    assert_eq!(rt.stats().completed, tasks);
    session.virtual_now().to_bits()
}

#[test]
fn every_task_settles_and_none_is_left_asleep() {
    let mut runs = 0;
    for seed in 0..20u64 {
        for workers in [1, 2, 8] {
            for window in [1, 2, 3, usize::MAX] {
                let (tx, rx) = mpsc::channel();
                let runner = std::thread::spawn(move || {
                    let _ = tx.send((
                        simulate(seed, workers, window),
                        simulate(seed, workers, window),
                    ));
                });
                let case = format!("seed {seed}, {workers} workers, window {window}");
                match rx.recv_timeout(DEADLINE) {
                    Ok((first, again)) => {
                        runner.join().expect("the runs already returned");
                        assert_eq!(first, again, "{case}: two runs, two makespans");
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        panic!("{case}: no progress within {DEADLINE:?} (a lost wakeup)")
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        std::panic::resume_unwind(runner.join().expect_err("a run panicked"))
                    }
                }
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 240);
}
