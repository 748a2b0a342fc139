//! One-call drivers: run an algorithm for real (with verification) or
//! simulated (with a virtual-time trace), under any scheduler profile.
//!
//! These are the building blocks of the paper's evaluation: Figs. 8–10 run
//! each algorithm both ways over a size sweep and compare GFLOP/s.

use crate::data::SharedTiles;
use crate::mode::ExecMode;
use crate::replay::run_stream;
use crate::scenario::{Scenario, ScenarioError};
use crate::stream;
use std::sync::Arc;
use supersim_core::SimSession;
use supersim_runtime::{Runtime, RuntimeStats, SchedulerKind};
use supersim_tile::{flops, generate, verify, TiledMatrix};
use supersim_trace::{Trace, TraceRecorder};

/// Which tile algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Tile Cholesky (paper Algorithm 1).
    #[default]
    Cholesky,
    /// Tile QR (paper Algorithm 2).
    Qr,
    /// Tile LU without pivoting (extension).
    Lu,
}

impl Algorithm {
    /// Every algorithm.
    pub const ALL: [Algorithm; 3] = [Algorithm::Cholesky, Algorithm::Qr, Algorithm::Lu];

    /// The algorithm called `name` — the inverse of [`Algorithm::name`].
    pub fn parse(name: &str) -> Result<Algorithm, ScenarioError> {
        ScenarioError::lookup("algorithm", name, Self::ALL, Self::name)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Cholesky => "cholesky",
            Algorithm::Qr => "qr",
            Algorithm::Lu => "lu",
        }
    }

    /// Kernel-class labels this algorithm uses.
    pub fn labels(self) -> &'static [&'static str] {
        match self {
            Algorithm::Cholesky => &["dpotrf", "dtrsm", "dsyrk", "dgemm"],
            Algorithm::Qr => &["dgeqrt", "dormqr", "dtsqrt", "dtsmqr"],
            Algorithm::Lu => &["dgetrf", "dtrsm_l", "dtrsm_u", "dgemm"],
        }
    }

    /// Tasks in the algorithm's stream over an `nt x nt` tile grid
    /// (saturating): `sum (k+1)(k+2)/2` for Cholesky, `sum (k+1)^2` for QR
    /// and LU, `k < nt`.
    pub fn task_count(self, nt: u64) -> u64 {
        let nt = u128::from(nt);
        let count = match self {
            Algorithm::Cholesky => (nt * (nt + 1)).saturating_mul(nt + 2) / 6,
            Algorithm::Qr | Algorithm::Lu => (nt * (nt + 1)).saturating_mul(2 * nt + 1) / 6,
        };
        u64::try_from(count).unwrap_or(u64::MAX)
    }

    /// Standard flop count for an `n x n` problem.
    pub fn flops(self, n: usize) -> f64 {
        match self {
            Algorithm::Cholesky => flops::cholesky(n),
            Algorithm::Qr => flops::qr(n, n),
            Algorithm::Lu => flops::lu(n),
        }
    }
}

/// Result of a real (computing) run.
#[derive(Debug, Clone)]
pub struct RealRun {
    /// Algorithm executed.
    pub algorithm: Algorithm,
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the factorization (submission to wait_all).
    pub seconds: f64,
    /// Wall-clock trace of the execution.
    pub trace: Trace,
    /// Scaled numerical residual of the factorization.
    pub residual: f64,
    /// Achieved GFLOP/s (standard flop count / seconds).
    pub gflops: f64,
    /// Engine execution statistics (per-worker task counts, lock and
    /// idle/busy transition counters).
    pub stats: RuntimeStats,
}

/// Result of a simulated run.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Algorithm simulated.
    pub algorithm: Algorithm,
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Virtual worker threads.
    pub workers: usize,
    /// Predicted execution time (virtual seconds).
    pub predicted_seconds: f64,
    /// Wall-clock seconds the simulation itself took.
    pub wall_seconds: f64,
    /// Virtual-time trace.
    pub trace: Trace,
    /// Predicted GFLOP/s.
    pub gflops: f64,
    /// Engine execution statistics of the simulation run (the real
    /// scheduler kept in the loop, per the paper's design).
    pub stats: RuntimeStats,
}

/// Run an algorithm for real under the given scheduler, verifying the
/// numerical result. The input matrix is generated from `seed` (SPD for
/// Cholesky, diagonally dominant for LU, uniform for QR).
///
/// This is the engine behind [`crate::Scenario::run_real`]; build runs
/// through the scenario builder.
pub(crate) fn exec_real(
    alg: Algorithm,
    kind: SchedulerKind,
    workers: usize,
    n: usize,
    nb: usize,
    seed: u64,
) -> RealRun {
    let a0 = match alg {
        Algorithm::Cholesky => generate::spd_fast(n, seed),
        Algorithm::Qr => generate::random(n, n, seed),
        Algorithm::Lu => generate::diag_dominant(n, seed),
    };
    let a = SharedTiles::new(TiledMatrix::from_matrix(&a0, nb), 0);
    let t = match alg {
        Algorithm::Qr => Some(SharedTiles::new(
            TiledMatrix::zeros(n, n, nb),
            a.id_range().1,
        )),
        _ => None,
    };

    let recorder = TraceRecorder::new();
    let rt = Runtime::with_trace(kind.config(workers), Some(recorder.clone()));
    let t0 = std::time::Instant::now();
    stream::submit(&rt, alg, &a, t.as_ref(), &ExecMode::Real);
    rt.seal();
    rt.wait_all().expect("real run failed");
    let seconds = t0.elapsed().as_secs_f64();
    let stats = rt.stats();
    let trace = recorder.finish(workers);

    let residual = match alg {
        Algorithm::Cholesky => verify::cholesky_residual(&a0, &a.to_tiled()),
        Algorithm::Qr => verify::qr_residual(&a0, &a.to_tiled(), &t.as_ref().unwrap().to_tiled()),
        Algorithm::Lu => verify::lu_residual(&a0, &a.to_tiled()),
    };

    RealRun {
        algorithm: alg,
        n,
        nb,
        workers,
        seconds,
        trace,
        residual,
        gflops: flops::gflops(alg.flops(n), seconds),
        stats,
    }
}

/// Run a simulated execution of the scenario's algorithm on a single
/// node, predicting its runtime from the session's kernel models. No
/// numerical work happens; memory is `O(tiles)`, not `O(n^2)`.
///
/// This is the engine behind [`crate::Scenario::run_sim`] and both phases
/// of the single-node fault replay: `dead` lanes are decommissioned
/// before the run and only stream indices `keep` accepts are submitted
/// (a full run passes `&[]` and `|_| true`). Any fault injector must
/// already be attached to `session`.
pub(crate) fn exec_sim(
    sc: &Scenario,
    session: Arc<SimSession>,
    dead: &[usize],
    keep: &mut dyn FnMut(u64) -> bool,
) -> SimRun {
    let (alg, workers) = (sc.algorithm, sc.workers);
    let (n, nb) = (sc.matrix_order(), sc.tile_size_of());
    let (a, t) = stream::layout(alg, n, nb);

    // Fail fast with a clear message if a kernel class has no model
    // (e.g. calibrated from a run too small to contain that class).
    for label in alg.labels() {
        session.models().expect(label);
    }
    // Plan-based warm-up: one warm slot per worker, assigned by submission
    // rank rather than worker arrival order, so warm-up placement is
    // deterministic even with `warmup_factor != 1` (see
    // `SimSession::run_kernel_ranked`).
    session.set_warmup_slots(workers);
    let t0 = std::time::Instant::now();
    let tasks = stream::replay_tasks(stream::tasks(alg, &a, t.as_ref()), &session, keep);
    let config = sc.scheduler.config(workers);
    let (predicted_seconds, stats) =
        run_stream(sc.backend, &config, &session, dead, tasks).unwrap_or_else(|e| panic!("{e}"));
    let wall_seconds = t0.elapsed().as_secs_f64();
    let trace = session.finish_trace(workers);

    SimRun {
        algorithm: alg,
        n,
        nb,
        workers,
        predicted_seconds,
        wall_seconds,
        trace,
        gflops: flops::gflops(alg.flops(n), predicted_seconds),
        stats,
    }
}

/// A fresh session with the given models and a default config carrying
/// `seed`.
#[cfg(test)]
pub(crate) fn make_session(models: supersim_core::ModelRegistry, seed: u64) -> Arc<SimSession> {
    use supersim_core::SimConfig;
    SimSession::new(
        models,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_core::{KernelModel, ModelRegistry};

    /// A full single-node run, spelled positionally.
    fn exec_sim(
        alg: Algorithm,
        kind: SchedulerKind,
        workers: usize,
        n: usize,
        nb: usize,
        session: Arc<SimSession>,
    ) -> SimRun {
        let sc = Scenario::new(alg)
            .scheduler(kind)
            .workers(workers)
            .n(n)
            .tile_size(nb);
        super::exec_sim(&sc, session, &[], &mut |_| true)
    }

    fn constant_models(alg: Algorithm, secs: f64) -> ModelRegistry {
        let mut m = ModelRegistry::new();
        for l in alg.labels() {
            m.insert(*l, KernelModel::constant(secs));
        }
        m
    }

    #[test]
    fn real_runs_verify_for_all_algorithms() {
        for alg in [Algorithm::Cholesky, Algorithm::Qr, Algorithm::Lu] {
            let run = exec_real(alg, SchedulerKind::Quark, 2, 24, 8, 1);
            assert!(run.residual < 1e-11, "{alg:?} residual {}", run.residual);
            assert!(run.seconds > 0.0);
            assert!(run.gflops > 0.0);
            assert!(!run.trace.is_empty());
            assert!(run.trace.validate(1e-9).is_ok());
        }
    }

    #[test]
    fn sim_runs_produce_consistent_predictions() {
        for alg in [Algorithm::Cholesky, Algorithm::Qr, Algorithm::Lu] {
            let session = make_session(constant_models(alg, 0.01), 3);
            let run = exec_sim(alg, SchedulerKind::Quark, 4, 32, 8, session);
            assert!(run.predicted_seconds > 0.0, "{alg:?}");
            assert!(run.trace.validate(1e-9).is_ok());
            // All kernels 10ms; NT=4; predicted time must be between the
            // critical path and the serial time.
            let tasks = run.trace.len() as f64;
            assert!(run.predicted_seconds <= tasks * 0.01 + 1e-9);
            assert!(run.predicted_seconds >= 0.01 * 4.0); // >= depth lower bound
        }
    }

    #[test]
    fn sim_large_problem_is_cheap() {
        // N=3960, nb=180 (the paper's Fig. 6/7 size): runs in O(tasks),
        // no O(n^2) allocation.
        let session = make_session(constant_models(Algorithm::Cholesky, 0.001), 4);
        let run = exec_sim(
            Algorithm::Cholesky,
            SchedulerKind::Quark,
            8,
            3960,
            180,
            session,
        );
        assert_eq!(run.n, 3960);
        // NT = 22: tasks = 22 + 2*231 + 1540 = 2024.
        assert_eq!(run.trace.len(), 2024);
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::Cholesky.name(), "cholesky");
        assert_eq!(Algorithm::Qr.labels().len(), 4);
        assert!(Algorithm::Qr.flops(100) > Algorithm::Cholesky.flops(100));
    }
}
