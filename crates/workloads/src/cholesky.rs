//! Tile Cholesky as a runtime workload (paper Algorithm 1).

use crate::data::SharedTiles;
use crate::driver::Algorithm;
use crate::mode::ExecMode;
use supersim_dag::Access;
use supersim_runtime::Runtime;
use supersim_tile::blas::{dgemm, dpotf2, dsyrk, dtrsm, Diag, Side, Trans, Uplo};
use supersim_tile::cholesky::CholeskyTask;

/// The access list of one Cholesky task — shared by both execution modes
/// so the scheduler sees the same dependences either way.
pub fn accesses(a: &SharedTiles, task: CholeskyTask) -> Vec<Access> {
    match task {
        CholeskyTask::Potrf { k } => vec![Access::read_write(a.data_id(k, k))],
        CholeskyTask::Trsm { k, i } => {
            vec![
                Access::read(a.data_id(k, k)),
                Access::read_write(a.data_id(i, k)),
            ]
        }
        CholeskyTask::Syrk { k, i } => {
            vec![
                Access::read(a.data_id(i, k)),
                Access::read_write(a.data_id(i, i)),
            ]
        }
        CholeskyTask::Gemm { k, i, j } => vec![
            Access::read(a.data_id(i, k)),
            Access::read(a.data_id(j, k)),
            Access::read_write(a.data_id(i, j)),
        ],
    }
}

/// Static priority: earlier panels first, factorization kernels above
/// updates (a classic critical-path-friendly ordering; only the `Priority`
/// policy consults it).
pub fn priority(nt: usize, task: CholeskyTask) -> i64 {
    let (k, bonus) = match task {
        CholeskyTask::Potrf { k } => (k, 3),
        CholeskyTask::Trsm { k, .. } => (k, 2),
        CholeskyTask::Syrk { k, .. } => (k, 1),
        CholeskyTask::Gemm { k, .. } => (k, 0),
    };
    ((nt - k) as i64) * 4 + bonus
}

/// Execute one Cholesky task on the shared tiles (real mode).
///
/// Input tiles are cloned under brief read locks so concurrent readers of
/// the same panel tile do not hold each other up during the kernel.
pub fn execute_real(a: &SharedTiles, task: CholeskyTask) {
    match task {
        CholeskyTask::Potrf { k } => {
            let mut akk = a.write(k, k);
            dpotf2(&mut akk).expect("matrix not positive definite");
        }
        CholeskyTask::Trsm { k, i } => {
            let akk = a.read(k, k).clone();
            let mut aik = a.write(i, k);
            dtrsm(
                Side::Right,
                Uplo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                1.0,
                &akk,
                &mut aik,
            );
        }
        CholeskyTask::Syrk { k, i } => {
            let aik = a.read(i, k).clone();
            let mut aii = a.write(i, i);
            dsyrk(Uplo::Lower, Trans::No, -1.0, &aik, 1.0, &mut aii);
        }
        CholeskyTask::Gemm { k, i, j } => {
            let aik = a.read(i, k).clone();
            let ajk = a.read(j, k).clone();
            let mut aij = a.write(i, j);
            dgemm(Trans::No, Trans::Yes, -1.0, &aik, &ajk, 1.0, &mut aij);
        }
    }
}

/// Submit the whole tile Cholesky task stream to the runtime. Returns the
/// number of tasks submitted. Call `rt.seal()` afterwards (the drivers do).
pub fn submit(rt: &Runtime, a: &SharedTiles, mode: &ExecMode) -> u64 {
    crate::stream::submit(rt, Algorithm::Cholesky, a, None, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_core::{KernelModel, ModelRegistry, SimConfig, SimSession};
    use supersim_runtime::{RuntimeConfig, SchedulerKind};
    use supersim_tile::generate::spd;
    use supersim_tile::verify::cholesky_residual;
    use supersim_tile::TiledMatrix;

    #[test]
    fn real_run_factors_correctly_all_schedulers() {
        for kind in [
            SchedulerKind::Quark,
            SchedulerKind::StarPu,
            SchedulerKind::OmpSs,
        ] {
            let n = 24;
            let a0 = spd(n, 7);
            let shared = SharedTiles::new(TiledMatrix::from_matrix(&a0, 6), 0);
            let rt = supersim_runtime::profiles::runtime_for(kind, 3);
            submit(&rt, &shared, &ExecMode::Real);
            rt.seal();
            rt.wait_all().unwrap();
            let res = cholesky_residual(&a0, &shared.to_tiled());
            assert!(res < 1e-12, "{kind:?}: residual {res}");
        }
    }

    #[test]
    fn sim_run_produces_consistent_trace() {
        let n = 20;
        let a0 = spd(n, 8);
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a0, 5), 0);
        let mut models = ModelRegistry::new();
        for label in ["dpotrf", "dtrsm", "dsyrk", "dgemm"] {
            models.insert(label, KernelModel::constant(1.0));
        }
        let session = SimSession::new(models, SimConfig::default());
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        let count = submit(&rt, &shared, &ExecMode::Simulated(session.clone()));
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(count, 20); // nt=4: 4+6+6+4 = 20 tasks
        let trace = session.finish_trace(2);
        assert_eq!(trace.len(), 20);
        assert!(trace.validate(1e-9).is_ok());
        // Unit durations, critical path of tile Cholesky nt=4 on 2 workers:
        // lower bound ceil(20/2) = 10; must be >= critical path (10 by
        // potrf/trsm/syrk chain structure) and <= 20 (serial).
        let span = trace.makespan();
        assert!((10.0..=20.0).contains(&span), "makespan {span}");
    }

    #[test]
    fn real_and_sim_have_same_kernel_population() {
        let n = 18;
        let a0 = spd(n, 9);

        // Real run.
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a0, 6), 0);
        let recorder = supersim_trace::TraceRecorder::new();
        let rt = Runtime::with_trace(RuntimeConfig::simple(2), Some(recorder.clone()));
        submit(&rt, &shared, &ExecMode::Real);
        rt.seal();
        rt.wait_all().unwrap();
        let real_trace = recorder.finish(2);

        // Simulated run.
        let shared2 = SharedTiles::new(TiledMatrix::from_matrix(&a0, 6), 0);
        let mut models = ModelRegistry::new();
        for label in ["dpotrf", "dtrsm", "dsyrk", "dgemm"] {
            models.insert(label, KernelModel::constant(0.001));
        }
        let session = SimSession::new(models, SimConfig::default());
        let rt2 = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt2.probe());
        submit(&rt2, &shared2, &ExecMode::Simulated(session.clone()));
        rt2.seal();
        rt2.wait_all().unwrap();
        let sim_trace = session.finish_trace(2);

        let cmp = supersim_trace::TraceComparison::compare(&real_trace, &sim_trace);
        assert!(cmp.same_kernel_population, "kernel populations must match");
        assert_eq!(cmp.matched_tasks, real_trace.len());
    }

    #[test]
    fn priorities_monotone_in_panel() {
        assert!(
            priority(4, CholeskyTask::Potrf { k: 0 }) > priority(4, CholeskyTask::Potrf { k: 1 })
        );
        assert!(
            priority(4, CholeskyTask::Potrf { k: 0 })
                > priority(4, CholeskyTask::Gemm { k: 0, i: 2, j: 1 })
        );
    }
}
