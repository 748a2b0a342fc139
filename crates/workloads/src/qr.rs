//! Tile QR as a runtime workload (paper Algorithm 2 / Fig. 2).

use crate::data::SharedTiles;
use crate::driver::Algorithm;
use crate::mode::ExecMode;
use supersim_dag::Access;
use supersim_runtime::Runtime;
use supersim_tile::qr::QrTask;
use supersim_tile::qr_kernels::{dgeqrt, dormqr, dtsmqr, dtsqrt, ApplyTrans};
use supersim_tile::Matrix;

/// The access list of one QR task — identical in both execution modes.
///
/// These match the paper's Fig. 2 annotations: e.g.
/// `tsmqr(A_mk^r, T_mk^r, A_kn^rw, A_mn^rw)`.
pub fn accesses(a: &SharedTiles, t: &SharedTiles, task: QrTask) -> Vec<Access> {
    match task {
        QrTask::Geqrt { k } => {
            vec![
                Access::read_write(a.data_id(k, k)),
                Access::write(t.data_id(k, k)),
            ]
        }
        QrTask::Ormqr { k, n } => vec![
            Access::read(a.data_id(k, k)),
            Access::read(t.data_id(k, k)),
            Access::read_write(a.data_id(k, n)),
        ],
        QrTask::Tsqrt { k, m } => vec![
            Access::read_write(a.data_id(k, k)),
            Access::read_write(a.data_id(m, k)),
            Access::write(t.data_id(m, k)),
        ],
        QrTask::Tsmqr { k, m, n } => vec![
            Access::read_write(a.data_id(k, n)),
            Access::read_write(a.data_id(m, n)),
            Access::read(a.data_id(m, k)),
            Access::read(t.data_id(m, k)),
        ],
    }
}

/// Static priority: earlier panels first, panel kernels above updates.
pub fn priority(nt: usize, task: QrTask) -> i64 {
    let (k, bonus) = match task {
        QrTask::Geqrt { k } => (k, 3),
        QrTask::Tsqrt { k, .. } => (k, 2),
        QrTask::Ormqr { k, .. } => (k, 1),
        QrTask::Tsmqr { k, .. } => (k, 0),
    };
    ((nt - k) as i64) * 4 + bonus
}

/// Execute one QR task on the shared tiles (real mode).
pub fn execute_real(a: &SharedTiles, t: &SharedTiles, task: QrTask) {
    match task {
        QrTask::Geqrt { k } => {
            let mut akk = a.write(k, k);
            let nb = akk.cols();
            let mut tkk = t.write(k, k);
            *tkk = Matrix::zeros(nb, nb);
            dgeqrt(&mut akk, &mut tkk);
        }
        QrTask::Ormqr { k, n } => {
            let v = a.read(k, k).clone();
            let tk = t.read(k, k).clone();
            let mut akn = a.write(k, n);
            dormqr(ApplyTrans::Trans, &v, &tk, &mut akn);
        }
        QrTask::Tsqrt { k, m } => {
            // Lock order: A tiles by flat index (k,k) < (m,k), then T.
            let mut r = a.write(k, k);
            let mut b = a.write(m, k);
            let nb = r.cols();
            let mut tmk = t.write(m, k);
            *tmk = Matrix::zeros(nb, nb);
            dtsqrt(&mut r, &mut b, &mut tmk);
        }
        QrTask::Tsmqr { k, m, n } => {
            let u = a.read(m, k).clone();
            let tmk = t.read(m, k).clone();
            let mut c1 = a.write(k, n);
            let mut c2 = a.write(m, n);
            dtsmqr(ApplyTrans::Trans, &mut c1, &mut c2, &u, &tmk);
        }
    }
}

/// Submit the tile QR task stream. `t` must be a grid of the same shape as
/// `a` (holding the T factors) with a disjoint id range. Returns the task
/// count; call `rt.seal()` afterwards.
pub fn submit(rt: &Runtime, a: &SharedTiles, t: &SharedTiles, mode: &ExecMode) -> u64 {
    crate::stream::submit(rt, Algorithm::Qr, a, Some(t), mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_core::{KernelModel, ModelRegistry, SimConfig, SimSession};
    use supersim_runtime::{RuntimeConfig, SchedulerKind};
    use supersim_tile::generate::random;
    use supersim_tile::verify::{qr_orthogonality, qr_residual};
    use supersim_tile::TiledMatrix;

    fn grids(n: usize, nb: usize, seed: u64) -> (Matrix, SharedTiles, SharedTiles) {
        let a0 = random(n, n, seed);
        let a = SharedTiles::new(TiledMatrix::from_matrix(&a0, nb), 0);
        let t = SharedTiles::new(TiledMatrix::zeros(n, n, nb), a.id_range().1);
        (a0, a, t)
    }

    #[test]
    fn real_run_factors_correctly_all_schedulers() {
        for kind in [
            SchedulerKind::Quark,
            SchedulerKind::StarPu,
            SchedulerKind::OmpSs,
        ] {
            let (a0, a, t) = grids(24, 6, 11);
            let rt = supersim_runtime::profiles::runtime_for(kind, 3);
            submit(&rt, &a, &t, &ExecMode::Real);
            rt.seal();
            rt.wait_all().unwrap();
            let fa = a.to_tiled();
            let ft = t.to_tiled();
            let res = qr_residual(&a0, &fa, &ft);
            assert!(res < 1e-12, "{kind:?}: residual {res}");
            let orth = qr_orthogonality(&fa, &ft);
            assert!(orth < 1e-12, "{kind:?}: orthogonality {orth}");
        }
    }

    #[test]
    fn fig2_task_count_for_3x3() {
        // Fig. 2 lists F0..F13 = 14 tasks for 3x3 tiles.
        let (_a0, a, t) = grids(12, 4, 12);
        let mut models = ModelRegistry::new();
        for l in ["dgeqrt", "dormqr", "dtsqrt", "dtsmqr"] {
            models.insert(l, KernelModel::constant(0.5));
        }
        let session = SimSession::new(models, SimConfig::default());
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        let count = submit(&rt, &a, &t, &ExecMode::Simulated(session.clone()));
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(count, 14);
        assert_eq!(session.finish_trace(2).len(), 14);
    }

    #[test]
    fn sim_trace_respects_qr_dependences() {
        // With unit durations, geqrt(k=1) cannot start before tsmqr
        // (k=0,m=1,n=1) completes; spot-check via the trace.
        let (_a0, a, t) = grids(12, 4, 13);
        let mut models = ModelRegistry::new();
        for l in ["dgeqrt", "dormqr", "dtsqrt", "dtsmqr"] {
            models.insert(l, KernelModel::constant(1.0));
        }
        let session = SimSession::new(models, SimConfig::default());
        let rt = Runtime::new(RuntimeConfig::simple(3));
        session.attach_quiesce(rt.probe());
        submit(&rt, &a, &t, &ExecMode::Simulated(session.clone()));
        rt.seal();
        rt.wait_all().unwrap();
        let trace = session.finish_trace(3);
        assert!(trace.validate(1e-9).is_ok());
        // Task ids follow Fig. 2: F9 is geqrt(k=1), F4 is tsmqr(0,1,1).
        let f9 = trace.spans().iter().find(|e| e.task_id == 9).unwrap();
        let f4 = trace.spans().iter().find(|e| e.task_id == 4).unwrap();
        assert_eq!(f9.kernel, "dgeqrt");
        assert_eq!(f4.kernel, "dtsmqr");
        assert!(
            f9.start >= f4.end - 1e-9,
            "geqrt(1) started before tsmqr(0,1,1) ended"
        );
    }

    #[test]
    #[should_panic(expected = "id ranges overlap")]
    fn overlapping_id_ranges_rejected() {
        let a0 = random(8, 8, 14);
        let a = SharedTiles::new(TiledMatrix::from_matrix(&a0, 4), 0);
        let t = SharedTiles::new(TiledMatrix::zeros(8, 8, 4), 1); // overlaps!
        let rt = Runtime::new(RuntimeConfig::simple(1));
        submit(&rt, &a, &t, &ExecMode::Real);
    }
}
