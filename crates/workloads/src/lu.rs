//! Tile LU (no pivoting) as a runtime workload — the extension beyond the
//! paper's two case studies (see `supersim_tile::lu` for the stability
//! caveat: inputs should be diagonally dominant).

use crate::data::SharedTiles;
use crate::driver::Algorithm;
use crate::mode::ExecMode;
use supersim_dag::Access;
use supersim_runtime::Runtime;
use supersim_tile::blas::{dgemm, dtrsm, Diag, Side, Trans, Uplo};
use supersim_tile::lu::{dgetrf_nopiv, LuTask};

/// The access list of one LU task.
pub fn accesses(a: &SharedTiles, task: LuTask) -> Vec<Access> {
    match task {
        LuTask::Getrf { k } => vec![Access::read_write(a.data_id(k, k))],
        LuTask::TrsmL { k, j } => {
            vec![
                Access::read(a.data_id(k, k)),
                Access::read_write(a.data_id(k, j)),
            ]
        }
        LuTask::TrsmU { k, i } => {
            vec![
                Access::read(a.data_id(k, k)),
                Access::read_write(a.data_id(i, k)),
            ]
        }
        LuTask::Gemm { k, i, j } => vec![
            Access::read(a.data_id(i, k)),
            Access::read(a.data_id(k, j)),
            Access::read_write(a.data_id(i, j)),
        ],
    }
}

/// Static priority: earlier panels first, factorization above updates.
pub fn priority(nt: usize, task: LuTask) -> i64 {
    let (k, bonus) = match task {
        LuTask::Getrf { k } => (k, 3),
        LuTask::TrsmL { k, .. } => (k, 2),
        LuTask::TrsmU { k, .. } => (k, 2),
        LuTask::Gemm { k, .. } => (k, 0),
    };
    ((nt - k) as i64) * 4 + bonus
}

/// Execute one LU task on the shared tiles (real mode).
pub fn execute_real(a: &SharedTiles, task: LuTask, nb: usize) {
    match task {
        LuTask::Getrf { k } => {
            let mut akk = a.write(k, k);
            dgetrf_nopiv(&mut akk, k * nb).expect("zero pivot (LU without pivoting)");
        }
        LuTask::TrsmL { k, j } => {
            let akk = a.read(k, k).clone();
            let mut akj = a.write(k, j);
            dtrsm(
                Side::Left,
                Uplo::Lower,
                Trans::No,
                Diag::Unit,
                1.0,
                &akk,
                &mut akj,
            );
        }
        LuTask::TrsmU { k, i } => {
            let akk = a.read(k, k).clone();
            let mut aik = a.write(i, k);
            dtrsm(
                Side::Right,
                Uplo::Upper,
                Trans::No,
                Diag::NonUnit,
                1.0,
                &akk,
                &mut aik,
            );
        }
        LuTask::Gemm { k, i, j } => {
            let aik = a.read(i, k).clone();
            let akj = a.read(k, j).clone();
            let mut aij = a.write(i, j);
            dgemm(Trans::No, Trans::No, -1.0, &aik, &akj, 1.0, &mut aij);
        }
    }
}

/// Submit the tile LU task stream. Returns the task count; call
/// `rt.seal()` afterwards.
pub fn submit(rt: &Runtime, a: &SharedTiles, mode: &ExecMode) -> u64 {
    crate::stream::submit(rt, Algorithm::Lu, a, None, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_core::{KernelModel, ModelRegistry, SimConfig, SimSession};
    use supersim_runtime::{RuntimeConfig, SchedulerKind};
    use supersim_tile::generate::diag_dominant;
    use supersim_tile::verify::lu_residual;
    use supersim_tile::TiledMatrix;

    #[test]
    fn real_run_factors_correctly() {
        for kind in [SchedulerKind::Quark, SchedulerKind::StarPu] {
            let n = 24;
            let a0 = diag_dominant(n, 21);
            let shared = SharedTiles::new(TiledMatrix::from_matrix(&a0, 6), 0);
            let rt = supersim_runtime::profiles::runtime_for(kind, 3);
            submit(&rt, &shared, &ExecMode::Real);
            rt.seal();
            rt.wait_all().unwrap();
            let res = lu_residual(&a0, &shared.to_tiled());
            assert!(res < 1e-12, "{kind:?}: residual {res}");
        }
    }

    #[test]
    fn sim_run_counts_tasks() {
        let n = 16;
        let a0 = diag_dominant(n, 22);
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a0, 4), 0);
        let mut models = ModelRegistry::new();
        for l in ["dgetrf", "dtrsm_l", "dtrsm_u", "dgemm"] {
            models.insert(l, KernelModel::constant(0.25));
        }
        let session = SimSession::new(models, SimConfig::default());
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        let count = submit(&rt, &shared, &ExecMode::Simulated(session.clone()));
        rt.seal();
        rt.wait_all().unwrap();
        // nt=4: 4 getrf + 2*6 trsm + 14 gemm (9+4+1) = 30.
        assert_eq!(count, 30);
        let trace = session.finish_trace(2);
        assert_eq!(trace.len(), 30);
        assert!(trace.validate(1e-9).is_ok());
    }

    #[test]
    fn zero_pivot_surfaces_as_task_error() {
        let n = 8;
        let a0 = supersim_tile::Matrix::zeros(n, n);
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a0, 4), 0);
        let rt = Runtime::new(RuntimeConfig::simple(2));
        submit(&rt, &shared, &ExecMode::Real);
        rt.seal();
        let errs = rt.wait_all().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("zero pivot")), "{errs:?}");
    }
}
