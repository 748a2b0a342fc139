//! The [`Backend`] switch and the one function that runs a simulated task
//! stream on a backend.
//!
//! The contract is bit-for-bit fidelity on the supported profiles: for a
//! given `(seed, scenario)`, the canonical trace of a DES run equals the
//! threaded engine's. That holds because nothing is described twice:
//! both engines consume the *same* [`ReplayTask`] values — produced once
//! by [`crate::stream`], transfers included — and resolve them through
//! the same `supersim_runtime::HazardTracker`, the literal policy
//! objects of `make_policy`, and the durations of
//! [`supersim_core::SimSession::plan_ranked`]. What differs is only who
//! advances virtual time: worker threads parked on the TEQ, or a
//! single-threaded event loop.

use crate::scenario::ScenarioError;
use crate::stream::task_desc;
use std::sync::Arc;
use supersim_core::SimSession;
use supersim_des::{ReplayEngine, ReplayTask, Unsupported};
use supersim_runtime::{Runtime, RuntimeConfig, RuntimeStats, SchedulerKind};
use supersim_trace::KernelName;

/// Which execution engine runs a simulated scenario.
///
/// Both backends produce the same canonical trace on the supported
/// profiles (Quark single-node, Pinned cluster); they differ only in host
/// resources: the threaded engine spends one OS thread per simulated
/// worker, the DES backend replays the schedule on a single thread and
/// scales to thousands of simulated workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The paper's scheduler-in-the-loop design: the real runtime (with
    /// its real locks, policy and worker threads) drives virtual time.
    #[default]
    Threaded,
    /// The pure-DES replay engine: a single-threaded event loop that
    /// reproduces the threaded schedule without host threads. Rejects
    /// profiles whose dispatch depends on host-thread racing
    /// (work-stealing, locality-aware) with [`Unsupported`].
    Des,
}

impl Backend {
    /// Both backends.
    pub const ALL: [Backend; 2] = [Backend::Threaded, Backend::Des];

    /// The backend called `name` — the inverse of [`Backend::name`].
    pub fn parse(name: &str) -> Result<Backend, ScenarioError> {
        ScenarioError::lookup("backend", name, Self::ALL, Self::name)
    }

    /// Parse a backend *choice*: `auto` (`None` — [`Backend::resolve`]
    /// picks per scenario) or a backend name.
    pub fn parse_choice(name: &str) -> Result<Option<Backend>, ScenarioError> {
        let all = [None, Some(Backend::Threaded), Some(Backend::Des)];
        ScenarioError::lookup("backend", name, all, |choice| {
            choice.map_or("auto", Self::name)
        })
    }

    /// Display name (CLI and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threaded => "threaded",
            Backend::Des => "des",
        }
    }

    /// Settle a backend choice for one scenario. `None` (auto) prefers
    /// DES wherever it replays deterministically — the `scheduler` profile
    /// permitting, and every `clustered` scenario, whose lanes are pinned
    /// — and falls back to the threaded engine; a forced DES that cannot
    /// replay the profile is an error.
    pub fn resolve(
        choice: Option<Backend>,
        scheduler: SchedulerKind,
        clustered: bool,
    ) -> Result<Backend, ScenarioError> {
        let des = if clustered {
            Ok(())
        } else {
            supersim_des::replayable_policy(scheduler.config(1).policy)
        };
        match (choice, des) {
            (Some(Backend::Threaded), _) | (None, Err(_)) => Ok(Backend::Threaded),
            (_, Ok(())) => Ok(Backend::Des),
            (Some(Backend::Des), Err(e)) => Err(ScenarioError::new(format!(
                "scheduler {} cannot replay deterministically on the DES backend \
                 (use backend auto to fall back to threaded): {e}",
                scheduler.name()
            ))),
        }
    }
}

/// Run a stream of simulated tasks to completion on `backend`, on a
/// machine of `config.workers` lanes with `dead_lanes` decommissioned
/// before the first submission, or until the session's
/// [`SimSession::should_abort`] fires. Spans land in the session's trace
/// recorder; returns the makespan (virtual seconds) and engine statistics.
/// Both arms pull `tasks` lazily, in order — the threaded engine under
/// its submission-window backpressure, the DES engine at most a window
/// ahead of retirement.
pub(crate) fn run_stream(
    backend: Backend,
    config: &RuntimeConfig,
    session: &Arc<SimSession>,
    dead_lanes: &[usize],
    tasks: impl Iterator<Item = ReplayTask<KernelName>>,
) -> Result<(f64, RuntimeStats), Unsupported> {
    match backend {
        Backend::Des => {
            let mut engine = ReplayEngine::new(config, session.clone())?;
            for &lane in dead_lanes {
                engine.decommission(lane);
            }
            let outcome = engine.run(tasks);
            Ok((outcome.makespan, outcome.stats))
        }
        Backend::Threaded => {
            let rt = Runtime::new(config.clone());
            session.attach_quiesce(rt.probe());
            for &lane in dead_lanes {
                rt.decommission(lane);
            }
            // A cancelled run stops submitting; the retirement that saw the
            // cancellation has dropped the tasks already submitted but not
            // started, so the run ends with the partial makespan.
            for task in tasks {
                if session.should_abort(session.virtual_now()) {
                    break;
                }
                rt.submit(task_desc(session, task));
            }
            rt.seal();
            rt.wait_all().expect("simulated run failed");
            Ok((session.virtual_now(), rt.stats()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Algorithm;
    use crate::scenario::Scenario;
    use supersim_cluster::Interconnect;
    use supersim_core::{KernelModel, ModelRegistry};

    fn models(alg: Algorithm) -> ModelRegistry {
        let mut m = ModelRegistry::new();
        for l in alg.labels() {
            // Non-degenerate durations: a constant model would mask
            // tie-break divergence between the backends.
            let dist = supersim_dist::Dist::log_normal(-4.6, 0.2).unwrap();
            m.insert(*l, KernelModel::new(dist));
        }
        m
    }

    fn base(alg: Algorithm) -> Scenario {
        Scenario::new(alg)
            .n(60)
            .tile_size(12)
            .workers(3)
            .seed(17)
            .models(models(alg))
    }

    #[test]
    fn des_matches_threaded_canonical_trace_all_algorithms() {
        for alg in [Algorithm::Cholesky, Algorithm::Qr, Algorithm::Lu] {
            let threaded = base(alg).run_sim();
            let des = base(alg).backend(Backend::Des).run_sim();
            assert_eq!(
                threaded.trace.canonical(),
                des.trace.canonical(),
                "{alg:?}: DES replay diverged from the threaded schedule"
            );
            assert_eq!(threaded.predicted_seconds, des.predicted_seconds);
        }
    }

    #[test]
    fn des_cluster_matches_threaded_canonical_trace() {
        use supersim_cluster::{ClusterSpec, Hockney, SharedLink, ZeroCost};
        let ics: [Arc<dyn Interconnect>; 3] = [
            Arc::new(ZeroCost),
            Arc::new(Hockney::new(1e-4, 1e9)),
            Arc::new(SharedLink::new(1e-4, 1e9)),
        ];
        for ic in ics {
            let mk = || {
                base(Algorithm::Cholesky)
                    .cluster(ClusterSpec::new(2, 2))
                    .interconnect(ic.clone())
            };
            let threaded = mk().run_cluster();
            let des = mk().backend(Backend::Des).run_cluster();
            assert_eq!(
                threaded.trace.canonical(),
                des.trace.canonical(),
                "{}: DES cluster replay diverged",
                ic.name()
            );
            assert_eq!(threaded.transfers, des.transfers);
            assert_eq!(threaded.predicted_seconds, des.predicted_seconds);
        }
    }

    #[test]
    fn des_matches_threaded_under_faults() {
        use supersim_faults::FaultPlan;
        // Lane-placement-independent events (the repo's determinism
        // contract, see faultsim): a node-scope straggler, rank-keyed
        // transients, and a permanent kill driving the two-phase replay.
        let mk = |backend| {
            base(Algorithm::Cholesky)
                .backend(backend)
                .faults(
                    FaultPlan::new()
                        .straggler_node(0, 0.0, 0.2, 3.0)
                        .transient_for("dgemm", 3, 1, 0.5)
                        .kill_worker(2, 0.15),
                )
                .run_faults()
        };
        let threaded = mk(Backend::Threaded);
        let des = mk(Backend::Des);
        assert_eq!(threaded.trace.canonical(), des.trace.canonical());
        assert_eq!(
            threaded.clean_trace.canonical(),
            des.clean_trace.canonical()
        );
        assert_eq!(threaded.faulted_makespan, des.faulted_makespan);
        assert_eq!(threaded.report.retries, des.report.retries);
        assert_eq!(threaded.report.restarted_tasks, des.report.restarted_tasks);
    }

    #[test]
    fn des_matches_threaded_under_cluster_node_kill() {
        use supersim_cluster::{ClusterSpec, Hockney, ZeroCost};
        use supersim_faults::FaultPlan;
        let kill = FaultPlan::new().kill_node(1, 0.05);
        // Transfers (fixed-duration bodies) under a perturbing injector:
        // a degraded link and a node straggler stretch them and the
        // compute tasks, and transient dgemms retry, beside the kill.
        let perturbed = FaultPlan::new()
            .degrade_link(2, 0.0, 0.2, 4.0)
            .straggler_node(0, 0.0, 0.2, 3.0)
            .transient_for("dgemm", 3, 1, 0.5)
            .kill_node(1, 0.05);
        let inputs: [(FaultPlan, Arc<dyn Interconnect>); 2] = [
            (kill, Arc::new(ZeroCost)),
            (perturbed, Arc::new(Hockney::new(1e-4, 1e9))),
        ];
        for (plan, ic) in inputs {
            let mk = |backend| {
                base(Algorithm::Cholesky)
                    .backend(backend)
                    .cluster(ClusterSpec::new(4, 2))
                    .interconnect(ic.clone())
                    .faults(plan.clone())
                    .run_faults()
            };
            let threaded = mk(Backend::Threaded);
            let des = mk(Backend::Des);
            assert_eq!(threaded.trace.canonical(), des.trace.canonical());
            assert_eq!(threaded.faulted_makespan, des.faulted_makespan);
            assert_eq!(threaded.report.retries, des.report.retries);
            assert_eq!(threaded.report.restarted_tasks, des.report.restarted_tasks);
        }
    }

    #[test]
    fn des_runs_on_one_host_thread() {
        // The defining property: a wide simulated machine without wide
        // host parallelism. 256 simulated workers, zero worker threads.
        let run = base(Algorithm::Cholesky)
            .workers(256)
            .backend(Backend::Des)
            .run_sim();
        assert_eq!(run.workers, 256);
        assert_eq!(run.stats.per_worker_tasks.len(), 256);
        assert!(run.trace.validate(1e-9).is_ok());
    }

    #[test]
    fn unsupported_profiles_error_clearly() {
        for kind in [SchedulerKind::StarPu, SchedulerKind::OmpSs] {
            let err = std::panic::catch_unwind(|| {
                base(Algorithm::Cholesky)
                    .scheduler(kind)
                    .backend(Backend::Des)
                    .run_sim()
            })
            .expect_err("stealing/locality profiles must be rejected");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
            assert!(
                msg.contains("replay deterministically"),
                "panic message must name the unsupported policy: {msg}"
            );
        }
    }

    /// A threaded run on a session cancelled before it starts submits
    /// nothing: at most one task per worker completes, not the stream.
    #[test]
    fn cancelled_threaded_run_completes_at_most_the_running_tasks() {
        let alg = Algorithm::Cholesky;
        let session = SimSession::new(models(alg), Default::default());
        session.request_cancel();
        let run = base(alg).n(240).session(session).run_sim();
        assert!(
            run.stats.completed <= 3 && run.trace.len() <= 3,
            "{} tasks completed after cancellation on 3 workers",
            run.stats.completed
        );
    }

    /// A threaded run cancelled from another thread mid-run stops at its
    /// next retirement: the runtime drops its unstarted tasks, so far
    /// fewer than the stream's tasks complete.
    #[test]
    fn threaded_run_cancelled_mid_run_stops() {
        let alg = Algorithm::Cholesky;
        let full = base(alg).n(360).run_sim();
        let session = SimSession::new(models(alg), Default::default());
        let watcher = session.clone();
        let canceller = std::thread::spawn(move || {
            while watcher.virtual_now() == 0.0 {
                std::thread::yield_now();
            }
            watcher.request_cancel();
        });
        let cut = base(alg).n(360).session(session).run_sim();
        canceller.join().unwrap();
        assert!(
            cut.stats.completed > 0 && cut.stats.completed < full.stats.completed / 2,
            "{} of {} tasks completed after a mid-run cancellation",
            cut.stats.completed,
            full.stats.completed
        );
    }

    /// The virtual budget stops a threaded run mid-stream, as it stops
    /// the DES loop.
    #[test]
    fn virtual_budget_stops_a_threaded_run() {
        let alg = Algorithm::Cholesky;
        let full = base(alg).n(240).run_sim();
        let session = SimSession::new(models(alg), Default::default());
        session.set_virtual_budget(full.predicted_seconds / 10.0);
        let cut = base(alg).n(240).session(session).run_sim();
        assert!(cut.predicted_seconds > full.predicted_seconds / 10.0);
        assert!(
            cut.stats.completed < full.stats.completed / 2,
            "{} of {} tasks completed past a tenth of the makespan",
            cut.stats.completed,
            full.stats.completed
        );
    }

    #[test]
    fn backend_parses_and_names() {
        assert_eq!(Backend::parse("des"), Ok(Backend::Des));
        assert_eq!(Backend::parse("threaded"), Ok(Backend::Threaded));
        assert!(Backend::parse("nope").is_err());
        assert_eq!(Backend::default().name(), "threaded");
        assert_eq!(Backend::Des.name(), "des");
    }
}
