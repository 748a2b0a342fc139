//! Tile Cholesky factorization (paper Algorithm 1), sequential driver.
//!
//! The parallel (runtime-scheduled) version lives in `supersim-workloads`;
//! this sequential driver defines the reference task order and is used for
//! numerical verification. It issues exactly the same kernel sequence that
//! the workload generator submits to the schedulers.

use crate::blas::{dgemm, dpotf2, dsyrk, dtrsm, Diag, NotPositiveDefinite, Side, Trans, Uplo};
use crate::tiled::TiledMatrix;

pub use crate::blas::NotPositiveDefinite as CholeskyError;

/// One kernel invocation of the tile Cholesky algorithm, in submission
/// order — shared by this driver and the workload generator so the task
/// stream is defined in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholeskyTask {
    /// `DPOTF2(A[k][k])`.
    Potrf { k: usize },
    /// `DTRSM(A[k][k], A[i][k])`: `A_ik := A_ik * A_kk^-T`.
    Trsm { k: usize, i: usize },
    /// `DSYRK(A[i][i], A[i][k])`: `A_ii -= A_ik * A_ik^T` (lower).
    Syrk { k: usize, i: usize },
    /// `DGEMM(A[i][j], A[i][k], A[j][k])`: `A_ij -= A_ik * A_jk^T`.
    Gemm { k: usize, i: usize, j: usize },
}

impl CholeskyTask {
    /// The kernel-class label used in traces and models.
    pub fn label(&self) -> &'static str {
        match self {
            CholeskyTask::Potrf { .. } => "dpotrf",
            CholeskyTask::Trsm { .. } => "dtrsm",
            CholeskyTask::Syrk { .. } => "dsyrk",
            CholeskyTask::Gemm { .. } => "dgemm",
        }
    }
}

/// The serial task stream of the tile Cholesky of an `nt x nt` tile matrix
/// (Algorithm 1 of the paper, right-looking variant), enumerated lazily:
/// the loop nest as nested iterators, one task per `next`, nothing held.
pub fn task_stream(nt: usize) -> impl Iterator<Item = CholeskyTask> {
    (0..nt).flat_map(move |k| {
        let trsms = (k + 1..nt).map(move |i| CholeskyTask::Trsm { k, i });
        let updates = (k + 1..nt).flat_map(move |i| {
            let gemms = (k + 1..i).map(move |j| CholeskyTask::Gemm { k, i, j });
            std::iter::once(CholeskyTask::Syrk { k, i }).chain(gemms)
        });
        std::iter::once(CholeskyTask::Potrf { k })
            .chain(trsms)
            .chain(updates)
    })
}

/// Execute one Cholesky task on the tiled matrix.
pub fn execute_task(a: &mut TiledMatrix, task: CholeskyTask) -> Result<(), NotPositiveDefinite> {
    match task {
        CholeskyTask::Potrf { k } => dpotf2(a.tile_mut(k, k))?,
        CholeskyTask::Trsm { k, i } => {
            let akk = a.tile(k, k).clone();
            dtrsm(
                Side::Right,
                Uplo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                1.0,
                &akk,
                a.tile_mut(i, k),
            );
        }
        CholeskyTask::Syrk { k, i } => {
            let aik = a.tile(i, k).clone();
            dsyrk(Uplo::Lower, Trans::No, -1.0, &aik, 1.0, a.tile_mut(i, i));
        }
        CholeskyTask::Gemm { k, i, j } => {
            let aik = a.tile(i, k).clone();
            let ajk = a.tile(j, k).clone();
            dgemm(
                Trans::No,
                Trans::Yes,
                -1.0,
                &aik,
                &ajk,
                1.0,
                a.tile_mut(i, j),
            );
        }
    }
    Ok(())
}

/// Sequential tile Cholesky: factors the lower triangle of `a` in place
/// (`A = L L^T`); tiles strictly above the diagonal are not referenced.
pub fn factor(a: &mut TiledMatrix) -> Result<(), NotPositiveDefinite> {
    assert_eq!(a.mt(), a.nt(), "Cholesky requires a square tile grid");
    for task in task_stream(a.nt()) {
        execute_task(a, task)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::spd;
    use crate::norms::frobenius;
    use crate::verify::cholesky_residual;
    use crate::Matrix;

    /// The loop nest of Algorithm 1, written out: the lazy stream's oracle.
    fn nested_loops(nt: usize) -> Vec<CholeskyTask> {
        let mut tasks = Vec::new();
        for k in 0..nt {
            tasks.push(CholeskyTask::Potrf { k });
            for i in (k + 1)..nt {
                tasks.push(CholeskyTask::Trsm { k, i });
            }
            for i in (k + 1)..nt {
                tasks.push(CholeskyTask::Syrk { k, i });
                for j in (k + 1)..i {
                    tasks.push(CholeskyTask::Gemm { k, i, j });
                }
            }
        }
        tasks
    }

    #[test]
    fn task_stream_is_the_loop_nest() {
        for nt in 0..12 {
            assert_eq!(
                task_stream(nt).collect::<Vec<_>>(),
                nested_loops(nt),
                "nt={nt}"
            );
        }
    }

    #[test]
    fn task_stream_counts() {
        // nt=1: 1 potrf. nt=3: 3 potrf + 3 trsm + 3 syrk + 1 gemm.
        assert_eq!(task_stream(1).count(), 1);
        let count = |label: &str| task_stream(3).filter(|t| t.label() == label).count();
        assert_eq!(count("dpotrf"), 3);
        assert_eq!(count("dtrsm"), 3);
        assert_eq!(count("dsyrk"), 3);
        assert_eq!(count("dgemm"), 1);
    }

    #[test]
    fn task_stream_general_count_formula() {
        // total = nt potrf + nt(nt-1)/2 trsm + nt(nt-1)/2 syrk
        //         + nt(nt-1)(nt-2)/6 gemm.
        for nt in 2..8 {
            let n = task_stream(nt).count();
            let expect = nt + nt * (nt - 1) / 2 * 2 + nt * (nt - 1) * (nt - 2) / 6;
            assert_eq!(n, expect, "nt={nt}");
        }
        assert_eq!(task_stream(1).count(), 1);
    }

    #[test]
    fn factorization_matches_unblocked() {
        let n = 24;
        let a0 = spd(n, 81);
        // Tile factorization.
        let mut tiled = TiledMatrix::from_matrix(&a0, 8);
        factor(&mut tiled).unwrap();
        // Unblocked reference.
        let mut reference = a0.clone();
        crate::blas::dpotf2(&mut reference).unwrap();
        let lt = tiled.to_matrix();
        for j in 0..n {
            for i in j..n {
                assert!(
                    (lt[(i, j)] - reference[(i, j)]).abs() < 1e-10,
                    "L mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn residual_is_small() {
        let n = 30;
        let a0 = spd(n, 82);
        let mut tiled = TiledMatrix::from_matrix(&a0, 7); // edge tiles too
        factor(&mut tiled).unwrap();
        let res = cholesky_residual(&a0, &tiled);
        assert!(res < 1e-13, "residual {res}");
    }

    #[test]
    fn single_tile_case() {
        let a0 = spd(5, 83);
        let mut tiled = TiledMatrix::from_matrix(&a0, 16);
        factor(&mut tiled).unwrap();
        assert!(cholesky_residual(&a0, &tiled) < 1e-13);
    }

    #[test]
    fn indefinite_matrix_errors() {
        let mut m = Matrix::identity(8);
        m[(4, 4)] = -1.0;
        let mut tiled = TiledMatrix::from_matrix(&m, 4);
        assert!(factor(&mut tiled).is_err());
    }

    #[test]
    fn factor_l_reconstructs_diagonal_weight() {
        let n = 16;
        let a0 = spd(n, 84);
        let mut tiled = TiledMatrix::from_matrix(&a0, 4);
        factor(&mut tiled).unwrap();
        // ||L||_F should be on the order of sqrt(||A||_F).
        let l = tiled.to_matrix();
        assert!(frobenius(&l) > 0.0);
    }
}
