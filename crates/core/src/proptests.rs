//! Property-based tests of the simulation core.

#![cfg(test)]

use crate::model::{KernelModel, ModelRegistry};
use crate::race::RaceMitigation;
use crate::session::{SimConfig, SimSession};
use crate::teq::TaskExecutionQueue;
use proptest::prelude::*;
use std::sync::Arc;
use supersim_dag::{Access, AccessMode, DataId};
use supersim_dist::Dist;
use supersim_runtime::{Runtime, RuntimeConfig, TaskDesc};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial TEQ usage: retirement order equals ascending (end, seq)
    /// order and the clock ends at the max end.
    #[test]
    fn teq_retires_in_end_order(durations in prop::collection::vec(0.0f64..10.0, 1..40)) {
        let q = TaskExecutionQueue::new();
        let mut tickets = Vec::new();
        for &d in &durations {
            tickets.push(q.insert(d).0);
        }
        let mut order: Vec<f64> = Vec::new();
        // Retire all: repeatedly find the front ticket.
        let mut remaining = tickets;
        while !remaining.is_empty() {
            let idx = (0..remaining.len())
                .find(|&i| q.is_front(remaining[i]))
                .expect("some ticket must be front");
            let t = remaining.swap_remove(idx);
            order.push(t.end);
            q.retire(t);
        }
        let mut sorted = order.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(&order, &sorted);
        let max = durations.iter().copied().fold(0.0f64, f64::max);
        prop_assert!((q.now() - max).abs() < 1e-12);
    }

    /// A simulated random DAG yields the same makespan for any worker
    /// surplus: adding workers beyond the DAG's max width cannot change
    /// the predicted time.
    #[test]
    fn worker_surplus_is_neutral(seed in 0u64..200, width in 1usize..4) {
        let makespan = |workers: usize| {
            let mut models = ModelRegistry::new();
            models.insert("k", KernelModel::new(Dist::gamma(4.0, 0.05).unwrap()));
            let session = SimSession::new(
                models,
                SimConfig { seed, ..SimConfig::default() },
            );
            let rt = Runtime::new(RuntimeConfig::simple(workers));
            session.attach_quiesce(rt.probe());
            // `width` independent chains of 6 tasks.
            for i in 0..(width * 6) {
                let lane = (i % width) as u64;
                rt.submit(TaskDesc::new(
                    "k",
                    vec![Access::read_write(DataId(lane))],
                    session.planned_body("k"),
                ));
            }
            rt.seal();
            rt.wait_all().unwrap();
            session.virtual_now()
        };
        let at_width = makespan(width);
        let surplus = makespan(width + 3);
        prop_assert!((at_width - surplus).abs() < 1e-12,
            "makespan changed with surplus workers: {at_width} vs {surplus}");
    }

    /// Simulated makespan is invariant to the mitigation choice between
    /// quiesce and generous sleep-yield (both are *correct*; only `None`
    /// may race).
    #[test]
    fn mitigations_agree(seed in 0u64..50) {
        let run = |mit: RaceMitigation| {
            let mut models = ModelRegistry::new();
            models.insert("k", KernelModel::new(Dist::log_normal(-3.0, 0.4).unwrap()));
            let session = SimSession::new(
                models,
                SimConfig { seed, mitigation: mit, ..SimConfig::default() },
            );
            let rt = Runtime::new(RuntimeConfig::simple(2));
            session.attach_quiesce(rt.probe());
            for i in 0..12u64 {
                rt.submit(TaskDesc::new(
                    "k",
                    vec![Access::read_write(DataId(i % 2))],
                    session.planned_body("k"),
                ));
            }
            rt.seal();
            rt.wait_all().unwrap();
            session.virtual_now()
        };
        let q = run(RaceMitigation::Quiesce);
        let sy = run(RaceMitigation::SleepYield { yields: 4, sleep_us: 2000 });
        // Quiesce is exact. Sleep-yield is the paper's *heuristic*
        // mitigation: if the host deschedules the submitting thread past
        // the sleep window, a retiring task can advance the clock before a
        // late-dispatched successor reads it. That failure mode can only
        // *delay* virtual starts, never accelerate them — so sleep-yield's
        // makespan dominates the exact one, and is bounded by the serial
        // sum (all 12 task durations back to back).
        prop_assert!(sy >= q - 1e-12, "sleep_yield {sy} finished before exact {q}");
        let serial: f64 = {
            let mut models = ModelRegistry::new();
            models.insert("k", KernelModel::new(Dist::log_normal(-3.0, 0.4).unwrap()));
            let session = SimSession::new(
                models,
                SimConfig { seed, ..SimConfig::default() },
            );
            let rt = Runtime::new(RuntimeConfig::simple(1));
            session.attach_quiesce(rt.probe());
            for _i in 0..12u64 {
                rt.submit(TaskDesc::new(
                    "k",
                    vec![Access::read_write(DataId(0))],
                    session.planned_body("k"),
                ));
            }
            rt.seal();
            rt.wait_all().unwrap();
                session.virtual_now()
        };
        prop_assert!(sy <= serial + 1e-9, "sleep_yield {sy} beyond serial bound {serial}");
    }

    /// Worker speeds scale a serial chain's makespan exactly inversely.
    #[test]
    fn speed_scales_chain(speed in 0.25f64..8.0, tasks in 1usize..10) {
        let run = |speeds: Vec<f64>| {
            let mut models = ModelRegistry::new();
            models.insert("k", KernelModel::constant(1.0));
            let session = SimSession::new(
                models,
                SimConfig { worker_speeds: speeds, ..SimConfig::default() },
            );
            let rt = Runtime::new(RuntimeConfig::simple(1));
            session.attach_quiesce(rt.probe());
            for _ in 0..tasks {
                rt.submit(TaskDesc::new(
                    "k",
                    vec![Access::read_write(DataId(0))],
                    session.planned_body("k"),
                ));
            }
            rt.seal();
            rt.wait_all().unwrap();
            session.virtual_now()
        };
        let base = run(vec![]);
        let scaled = run(vec![speed]);
        prop_assert!((scaled - base / speed).abs() < 1e-9 * base,
            "chain at speed {speed}: {scaled} vs {}", base / speed);
    }
}

/// Regression: heavy concurrent load on the TEQ with threads retiring in
/// end order must never deadlock or misorder (stress version of the unit
/// test, kept out of proptest for its thread count).
#[test]
fn teq_concurrent_stress() {
    use parking_lot::Mutex;
    for round in 0..5u64 {
        let q = Arc::new(TaskExecutionQueue::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..24u64 {
            let d = ((i * 7919 + round * 104729) % 97) as f64 / 10.0;
            tickets.push(q.insert(d));
        }
        for (ticket, _) in tickets {
            let q = q.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                q.wait_front(ticket);
                order.lock().push(ticket.end);
                q.retire(ticket);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock();
        let mut sorted = order.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(*order, sorted, "round {round}: misordered retirement");
    }
}

/// AccessMode is irrelevant to the sim layer, but the wiring through the
/// runtime must preserve dependence semantics with mixed modes.
#[test]
fn mixed_modes_simulate_correctly() {
    let mut models = ModelRegistry::new();
    models.insert("w", KernelModel::constant(1.0));
    models.insert("r", KernelModel::constant(1.0));
    let session = SimSession::new(models, SimConfig::default());
    let rt = Runtime::new(RuntimeConfig::simple(4));
    session.attach_quiesce(rt.probe());
    // w -> 3 parallel readers -> w2.
    rt.submit(TaskDesc::new(
        "w",
        vec![Access::write(DataId(0))],
        session.planned_body("w"),
    ));
    for _ in 0..3 {
        rt.submit(TaskDesc::new(
            "r",
            vec![Access::read(DataId(0))],
            session.planned_body("r"),
        ));
    }
    rt.submit(TaskDesc::new(
        "w",
        vec![Access::write(DataId(0))],
        session.planned_body("w"),
    ));
    rt.seal();
    rt.wait_all().unwrap();
    // w (1s) + parallel readers (1s) + w2 (1s).
    assert_eq!(session.virtual_now(), 3.0);
    let _ = AccessMode::Read; // silence unused import lint paths
}
