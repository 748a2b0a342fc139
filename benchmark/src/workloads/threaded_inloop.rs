//! `threaded-inloop`: the paper's method — the real scheduler, with its
//! real locks and eight worker threads, driving virtual time.
//!
//! `runtime::engine` locks and condvars, `core::teq` targeted wake-ups, the
//! quiescence gate and the sharded recorder under real threads; `des` does
//! nothing. The Quark profile is bit-for-bit deterministic, so every op is
//! checkable. The eight engine threads belong to the system under test,
//! not to the driver: more simulated workers than host CPUs is the paper's
//! regime, and pinned to one CPU every wake-up is a local context switch,
//! so the number counts the engine's lock/condvar/TEQ operations rather
//! than hypervisor exits.

use super::des_dense::enumerate_cholesky;
use super::seeded::{SeededSim, SEED_CYCLE};
use super::Ctx;
use crate::calib::{self, Calib};
use crate::driver::{probe_ns, probe_ns_with, Metrics, OpOutcome, TracedSections, Workload};
use crate::pin::{self, CpuSet};
use crate::stats::{fnv1a, median, SimDigest};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use supersim_core::TaskExecutionQueue;
use supersim_runtime::{Runtime, RuntimeStats, SchedulerKind, TaskDesc};
use supersim_workloads::Backend;

pub const TILES: usize = 24;
pub const WORKERS: usize = 8;
/// Warm-up ops per seed in set-up; all must agree bit for bit.
const WARMUPS_PER_SEED: usize = 4;

pub struct ThreadedInloop {
    sim: SeededSim,
    seed: u64,
    last_stats: Option<RuntimeStats>,
    unpinned_mask: Option<CpuSet>,
}

impl ThreadedInloop {
    /// Fit the models, run four ops per seed on the threaded engine, then
    /// prove on every seed that the DES backend replays the very same
    /// canonical trace.
    pub fn setup(ctx: &Ctx) -> Result<ThreadedInloop, String> {
        let calib = calib::load(&ctx.data_dir)?;
        let sim = SeededSim::setup(
            calib,
            TILES,
            WORKERS,
            Backend::Threaded,
            ctx.seed,
            WARMUPS_PER_SEED,
        )?;
        for i in 0..SEED_CYCLE {
            let des = sim.run(i, Backend::Des);
            if fnv1a(des.trace.canonical().as_bytes()) != sim.refs[i].canonical_fnv
                || des.predicted_seconds.to_bits() != sim.refs[i].makespan_bits
            {
                return Err(format!(
                    "seed {i}: DES and threaded backends disagree on the canonical trace"
                ));
            }
        }
        Ok(ThreadedInloop {
            sim,
            seed: ctx.seed,
            last_stats: None,
            unpinned_mask: ctx.unpinned_mask,
        })
    }

    fn calib(&self) -> &Calib {
        &self.sim.calib
    }
}

/// Drain `waiters * per_waiter` pre-inserted TEQ entries with `waiters`
/// threads contending on `wait_front`/`retire`; nanoseconds for the drain
/// alone. All inserts precede the first retirement and each thread serves
/// its tickets in `(end, seq)` order, so the raw protocol cannot race.
fn teq_drain_ns(waiters: usize, per_waiter: usize) -> f64 {
    let q = Arc::new(TaskExecutionQueue::new());
    let mut per_thread: Vec<Vec<_>> = vec![Vec::with_capacity(per_waiter); waiters];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..waiters * per_waiter {
        let d = (crate::stats::splitmix64(&mut state) % 100) as f64 / 100.0;
        per_thread[i % waiters].push(q.insert(d).0);
    }
    for tickets in &mut per_thread {
        tickets.sort_by(|a, b| a.end.total_cmp(&b.end));
    }
    let barrier = Arc::new(Barrier::new(waiters + 1));
    let handles: Vec<_> = per_thread
        .into_iter()
        .map(|tickets| {
            let (q, barrier) = (q.clone(), barrier.clone());
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
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("drain thread panicked");
    }
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(q.retired(), (waiters * per_waiter) as u64);
    ns
}

impl Workload for ThreadedInloop {
    /// Two seed cycles.
    fn counted_ops(&self) -> u64 {
        2 * SEED_CYCLE as u64
    }

    fn op(&mut self, index: u64) -> OpOutcome {
        self.sim.op(index, &mut self.last_stats)
    }

    fn sim_digest(&self) -> SimDigest {
        self.sim.digest()
    }

    fn sim_size(&self) -> (f64, f64) {
        self.sim.size()
    }

    fn fit_ms(&self) -> f64 {
        self.calib().fit_ms
    }

    fn sim_err_pct(&self) -> f64 {
        calib::sim_err_pct(self.calib(), Backend::Threaded, self.seed)
    }

    fn layer_metrics(&mut self, sections: &TracedSections<'_>, out: &mut Metrics) {
        super::put_runtime_stats(out, self.last_stats.as_ref());
        const REPS: usize = 5;

        // The engine's submit/dispatch/complete path alone: the op's task
        // stream with empty bodies, so no TEQ and no virtual time.
        let tasks = enumerate_cholesky(TILES);
        let n = tasks.len() as f64;
        let submit_ns = probe_ns_with(
            "runtime.submit",
            REPS,
            || {
                tasks
                    .iter()
                    .map(|t| {
                        TaskDesc::new(t.label.clone(), t.accesses.clone(), |_| {})
                            .with_priority(t.priority)
                    })
                    .collect::<Vec<_>>()
            },
            |descs| {
                let rt = Runtime::new(SchedulerKind::Quark.config(WORKERS));
                for d in descs {
                    rt.submit(d);
                }
                rt.seal();
                rt.wait_all().expect("no-op tasks cannot fail");
            },
        );
        out.put("runtime.submit_ns_per_task", submit_ns / n, "ns");

        const CYCLES: usize = 100_000;
        let cycle_ns = probe_ns("core.teq_cycle", REPS, || {
            let q = TaskExecutionQueue::new();
            for i in 0..CYCLES {
                let (t, _) = q.insert(1e-3 * (i % 7 + 1) as f64);
                q.wait_front(t);
                q.retire(t);
            }
            q.retired()
        });
        out.put("core.teq_cycle_ns", cycle_ns / CYCLES as f64, "ns");

        // Thread spawn and join stay outside the figure: `teq_drain_ns`
        // times the drain alone, between its barrier and the last join.
        const PER_WAITER: usize = 2_000;
        let drains: Vec<f64> = (0..REPS)
            .map(|_| {
                crate::spans::within("core.teq_drain_w8", || teq_drain_ns(WORKERS, PER_WAITER))
            })
            .collect();
        out.put(
            "core.teq_drain_ns_per_task_w8",
            median(&drains) / (WORKERS * PER_WAITER) as f64,
            "ns",
        );

        // The same scenarios on the DES backend (base: threaded p50).
        let des_ms: Vec<f64> = (0..2 * SEED_CYCLE)
            .map(|i| {
                let t0 = Instant::now();
                std::hint::black_box(self.sim.run(i % SEED_CYCLE, Backend::Des));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.put(
            "des.equiv_speedup",
            sections.untraced.p50_ms() / median(&des_ms),
            "ratio",
        );

        // What users of this box see without pinning: engine threads spread
        // over every CPU the process started with, cross-CPU wake-ups and
        // all. Informational; the mask is put back afterwards.
        if let Some(mask) = self.unpinned_mask {
            let pinned = pin::current();
            if pin::apply(&mask) {
                let ms: Vec<f64> = (0..40)
                    .map(|i| {
                        let t0 = Instant::now();
                        std::hint::black_box(self.sim.run(i % SEED_CYCLE, Backend::Threaded));
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                out.put("runtime.unpinned_p50_ms", median(&ms), "ms");
                if let Some(p) = pinned {
                    pin::apply(&p);
                }
            }
        }
    }
}
