//! Property-based determinism tests for the streaming trace pipeline:
//! replaying a random DAG on the DES backend with a `TraceSink` draining
//! spans at virtual-time epoch boundaries must reproduce, byte for byte,
//! the canonical trace of the same replay buffering everything in the
//! recorder — across random DAG shapes, duration seeds, and flush-epoch
//! sizes, on both the central-FIFO (Quark) and Pinned (cluster) profiles.
//!
//! This is the executable form of the epoch-flush contract: an epoch
//! batch contains exactly the spans ending inside that epoch, sorted by
//! `(start, seq)` — the same total order the buffered merge uses — so
//! concatenating the batches reconstructs the buffered trace exactly.

#![cfg(test)]

use crate::replay::{ReplayBody, ReplayEngine, ReplayTask};
use proptest::prelude::*;
use std::sync::Arc;
use supersim_core::{KernelModel, ModelRegistry, SimConfig, SimSession};
use supersim_dag::{Access, DataId};
use supersim_dist::Dist;
use supersim_runtime::{PolicyKind, RuntimeConfig};
use supersim_trace::sink::TraceSink;
use supersim_trace::{Trace, TraceEvent};

/// A sink that keeps every span it is handed, shared with the test.
#[derive(Clone, Default)]
struct Collect(Arc<std::sync::Mutex<Vec<TraceEvent>>>);

impl TraceSink for Collect {
    fn flush_epoch(&mut self, spans: &[TraceEvent]) -> std::io::Result<()> {
        self.0.lock().unwrap().extend_from_slice(spans);
        Ok(())
    }
}

/// One randomly shaped task: which cells it touches (hazards against
/// earlier tasks become the DAG edges) and its kernel class.
#[derive(Debug, Clone)]
struct TaskSpec {
    label: &'static str,
    writes: u64,
    reads: u64,
}

const LABELS: [&str; 3] = ["gemm", "trsm", "potrf"];

fn task_strategy(cells: u64) -> impl Strategy<Value = TaskSpec> {
    (0usize..LABELS.len(), 0..cells, 0..cells).prop_map(|(l, w, r)| TaskSpec {
        label: LABELS[l],
        writes: w,
        reads: r,
    })
}

fn session(seed: u64) -> Arc<SimSession> {
    let mut models = ModelRegistry::new();
    for l in LABELS {
        models.insert(l, KernelModel::new(Dist::log_normal(-4.0, 0.4).unwrap()));
    }
    SimSession::new(
        models,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    )
}

/// Materialize the random specs into a replay stream against `session`:
/// ranked bodies, so durations come from the session's seeded models and
/// the run actually exercises the duration-sampling protocol.
fn tasks_for(
    session: &SimSession,
    specs: &[TaskSpec],
    pin_lanes: Option<usize>,
) -> Vec<ReplayTask> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| ReplayTask {
            label: spec.label.to_string(),
            accesses: vec![
                Access::write(DataId(spec.writes)),
                Access::read(DataId(spec.reads)),
            ],
            priority: 0,
            pin: pin_lanes.map(|lanes| {
                let lane = i % lanes;
                (lane, lane + 1)
            }),
            body: ReplayBody::Ranked {
                rank: session.next_rank(spec.label),
            },
        })
        .collect()
}

/// Run the replay once buffered and once streaming through a
/// [`Collect`] sink with the given epoch, and return both canonical
/// projections. Identical seeds give identical durations, so any
/// difference is the streaming path's fault.
fn canonical_pair(
    specs: &[TaskSpec],
    seed: u64,
    epoch: f64,
    config: &RuntimeConfig,
    pin_lanes: Option<usize>,
) -> (String, String) {
    let buffered = {
        let s = session(seed);
        let eng = ReplayEngine::new(config, s.clone()).unwrap();
        eng.run(tasks_for(&s, specs, pin_lanes));
        let mut trace = s.finish_trace(config.workers);
        trace.normalize();
        trace.canonical()
    };
    let streamed = {
        let s = session(seed);
        let collected = Collect::default();
        s.trace_recorder()
            .attach_sink(Box::new(collected.clone()), epoch);
        let eng = ReplayEngine::new(config, s.clone()).unwrap();
        eng.run(tasks_for(&s, specs, pin_lanes));
        let residual = s.finish_trace(config.workers);
        assert!(
            residual.is_empty(),
            "streaming finish leaves nothing resident"
        );
        let spans = std::mem::take(&mut *collected.0.lock().unwrap());
        let mut trace = Trace::from_parts(config.workers, spans);
        trace.normalize();
        trace.canonical()
    };
    (buffered, streamed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quark profile (central FIFO): random DAGs x seeds x epochs.
    #[test]
    fn streaming_equals_buffered_fifo(
        specs in prop::collection::vec(task_strategy(12), 1..60),
        seed in 0u64..1_000,
        epoch in 0.005f64..0.5,
        workers in 1usize..5,
        window in prop_oneof![Just(4usize), Just(16), Just(usize::MAX)],
    ) {
        let cfg = RuntimeConfig {
            workers,
            window,
            ..RuntimeConfig::simple(workers)
        };
        let (buffered, streamed) = canonical_pair(&specs, seed, epoch, &cfg, None);
        prop_assert!(!buffered.is_empty());
        prop_assert_eq!(buffered, streamed);
    }

    /// Pinned profile (the cluster policy): every task pinned to one
    /// lane, as the distributed replay driver pins compute and NIC work.
    #[test]
    fn streaming_equals_buffered_pinned(
        specs in prop::collection::vec(task_strategy(8), 1..40),
        seed in 0u64..1_000,
        epoch in 0.005f64..0.5,
        lanes in 2usize..5,
    ) {
        let cfg = RuntimeConfig {
            workers: lanes,
            policy: PolicyKind::Pinned,
            window: usize::MAX,
            name: "pinned",
        };
        let (buffered, streamed) = canonical_pair(&specs, seed, epoch, &cfg, Some(lanes));
        prop_assert!(!buffered.is_empty());
        prop_assert_eq!(buffered, streamed);
    }
}
