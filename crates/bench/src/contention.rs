//! Shared contention scenarios for the hot-path benchmarks: many threads
//! draining one Task Execution Queue, and a burst of independent tasks
//! through the runtime engine. Used by `src/bin/perf_baseline.rs` (JSON
//! baseline emitter).

use std::sync::Arc;
use std::time::Instant;
use supersim_core::{TaskExecutionQueue, WakeupMode};
use supersim_dag::{Access, DataId};
use supersim_runtime::{Runtime, RuntimeConfig, TaskDesc};

/// Deterministic xorshift64 — duration variety without pulling an RNG into
/// the timed region.
fn xorshift64(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Drain `waiters * per_waiter` pre-inserted TEQ entries with `waiters`
/// OS threads contending on `wait_front`/`retire`, and return the elapsed
/// seconds for the drain alone (inserts and thread spawns excluded).
///
/// All entries are inserted before the first retirement: a concurrent
/// insert may displace an already-woken front (the paper's §V-E race,
/// deliberately reproducible under `Mitigation::None`), so the raw
/// insert/wait/retire protocol is only race-free when the insert phase
/// completes first. Each thread serves its own tickets in ascending
/// `(end, seq)` order — any other order would self-deadlock, because a
/// later ticket of the same thread can never reach the front while an
/// earlier one is still queued.
pub fn teq_drain_seconds(mode: WakeupMode, waiters: usize, per_waiter: usize) -> f64 {
    let q = Arc::new(TaskExecutionQueue::with_wakeup_mode(mode));
    let total = waiters * per_waiter;
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut per_thread: Vec<Vec<_>> = vec![Vec::with_capacity(per_waiter); waiters];
    for i in 0..total {
        let d = (xorshift64(&mut rng) % 100) as f64 / 100.0;
        let (ticket, _) = q.insert(d);
        per_thread[i % waiters].push(ticket);
    }
    for tickets in &mut per_thread {
        // Stable sort on `end`: ties keep insertion order, which is
        // ascending sequence number — i.e. exact (end, seq) retire order.
        tickets.sort_by(|a, b| a.end.total_cmp(&b.end));
    }

    let barrier = Arc::new(std::sync::Barrier::new(waiters + 1));
    let handles: Vec<_> = per_thread
        .into_iter()
        .map(|tickets| {
            let q = q.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for t in tickets {
                    q.wait_front(t);
                    q.retire(t);
                }
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("drain thread panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(q.retired(), total as u64, "drain must retire everything");
    elapsed
}

/// TEQ drain throughput in retired tasks per second.
pub fn teq_throughput(mode: WakeupMode, waiters: usize, per_waiter: usize) -> f64 {
    let secs = teq_drain_seconds(mode, waiters, per_waiter);
    (waiters * per_waiter) as f64 / secs.max(1e-12)
}

/// Push `tasks` independent no-op tasks through a `workers`-wide runtime
/// and return elapsed seconds from first submit to full completion. This
/// exercises the engine's submit path, ready-queue handoff, bounded
/// wakeups, and lock-free completion accounting.
pub fn engine_burst_seconds(workers: usize, tasks: usize) -> f64 {
    let rt = Runtime::new(RuntimeConfig::simple(workers));
    let start = Instant::now();
    for i in 0..tasks {
        rt.submit(TaskDesc::new(
            "burst",
            vec![Access::write(DataId(i as u64))],
            |_| {},
        ));
    }
    rt.seal();
    rt.wait_all().expect("burst tasks must not fail");
    start.elapsed().as_secs_f64()
}

/// Engine burst throughput in tasks per second.
pub fn engine_throughput(workers: usize, tasks: usize) -> f64 {
    tasks as f64 / engine_burst_seconds(workers, tasks).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teq_drain_retires_everything_in_both_modes() {
        for mode in [WakeupMode::Broadcast, WakeupMode::Targeted] {
            let secs = teq_drain_seconds(mode, 4, 25);
            assert!(secs > 0.0);
        }
    }

    #[test]
    fn engine_burst_completes() {
        let secs = engine_burst_seconds(2, 200);
        assert!(secs > 0.0);
    }
}
