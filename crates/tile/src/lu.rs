//! Tile LU factorization **without pivoting** — the documented extension
//! workload beyond the paper's two case studies.
//!
//! QUARK's flagship application (PLASMA) also schedules LU; including it
//! exercises a third dependence pattern (the diagonal tile is both a left
//! and a right triangular factor). Without pivoting the algorithm is only
//! stable for diagonally dominant (or SPD) matrices, which is what
//! [`crate::generate::diag_dominant`] provides; this restriction is
//! intentional and documented.

use crate::blas::{dgemm, dtrsm, Diag, Side, Trans, Uplo};
use crate::matrix::Matrix;
use crate::tiled::TiledMatrix;

/// Error: a zero (or non-finite) pivot was encountered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroPivot {
    /// Global pivot index.
    pub pivot: usize,
}

impl std::fmt::Display for ZeroPivot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "zero pivot at index {} (LU without pivoting)",
            self.pivot
        )
    }
}

impl std::error::Error for ZeroPivot {}

/// One kernel invocation of the tile LU algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuTask {
    /// Unblocked LU of the diagonal tile.
    Getrf { k: usize },
    /// `A_kj := L_kk^-1 A_kj` (row panel).
    TrsmL { k: usize, j: usize },
    /// `A_ik := A_ik U_kk^-1` (column panel).
    TrsmU { k: usize, i: usize },
    /// `A_ij -= A_ik A_kj` (trailing update).
    Gemm { k: usize, i: usize, j: usize },
}

impl LuTask {
    /// Kernel-class label used in traces and models.
    pub fn label(&self) -> &'static str {
        match self {
            LuTask::Getrf { .. } => "dgetrf",
            LuTask::TrsmL { .. } => "dtrsm_l",
            LuTask::TrsmU { .. } => "dtrsm_u",
            LuTask::Gemm { .. } => "dgemm",
        }
    }
}

/// The serial task stream of the tile LU of an `nt x nt` tile matrix,
/// enumerated lazily: the loop nest as nested iterators, one task per
/// `next`, nothing held.
pub fn task_stream(nt: usize) -> impl Iterator<Item = LuTask> {
    (0..nt).flat_map(move |k| {
        let rows = (k + 1..nt).map(move |j| LuTask::TrsmL { k, j });
        let cols = (k + 1..nt).map(move |i| LuTask::TrsmU { k, i });
        let gemms =
            (k + 1..nt).flat_map(move |i| (k + 1..nt).map(move |j| LuTask::Gemm { k, i, j }));
        std::iter::once(LuTask::Getrf { k })
            .chain(rows)
            .chain(cols)
            .chain(gemms)
    })
}

/// Unblocked LU without pivoting of one square tile (right-looking).
pub fn dgetrf_nopiv(a: &mut Matrix, pivot_base: usize) -> Result<(), ZeroPivot> {
    assert!(a.is_square(), "LU tile must be square");
    let n = a.rows();
    for k in 0..n {
        let piv = a[(k, k)];
        if piv == 0.0 || !piv.is_finite() {
            return Err(ZeroPivot {
                pivot: pivot_base + k,
            });
        }
        for i in (k + 1)..n {
            let l = a[(i, k)] / piv;
            a[(i, k)] = l;
            for j in (k + 1)..n {
                let akj = a[(k, j)];
                a[(i, j)] -= l * akj;
            }
        }
    }
    Ok(())
}

/// Execute one LU task.
pub fn execute_task(a: &mut TiledMatrix, task: LuTask) -> Result<(), ZeroPivot> {
    match task {
        LuTask::Getrf { k } => {
            let base = k * a.nb();
            dgetrf_nopiv(a.tile_mut(k, k), base)?;
        }
        LuTask::TrsmL { k, j } => {
            let akk = a.tile(k, k).clone();
            dtrsm(
                Side::Left,
                Uplo::Lower,
                Trans::No,
                Diag::Unit,
                1.0,
                &akk,
                a.tile_mut(k, j),
            );
        }
        LuTask::TrsmU { k, i } => {
            let akk = a.tile(k, k).clone();
            dtrsm(
                Side::Right,
                Uplo::Upper,
                Trans::No,
                Diag::NonUnit,
                1.0,
                &akk,
                a.tile_mut(i, k),
            );
        }
        LuTask::Gemm { k, i, j } => {
            let aik = a.tile(i, k).clone();
            let akj = a.tile(k, j).clone();
            dgemm(
                Trans::No,
                Trans::No,
                -1.0,
                &aik,
                &akj,
                1.0,
                a.tile_mut(i, j),
            );
        }
    }
    Ok(())
}

/// Sequential tile LU without pivoting: `A = L U` in place (unit-lower `L`
/// below the diagonal, `U` on and above).
pub fn factor(a: &mut TiledMatrix) -> Result<(), ZeroPivot> {
    assert_eq!(a.mt(), a.nt(), "LU requires a square tile grid");
    for task in task_stream(a.nt()) {
        execute_task(a, task)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::diag_dominant;
    use crate::verify::lu_residual;

    /// The loop nest of the tile LU, written out: the lazy stream's oracle.
    fn nested_loops(nt: usize) -> Vec<LuTask> {
        let mut tasks = Vec::new();
        for k in 0..nt {
            tasks.push(LuTask::Getrf { k });
            for j in (k + 1)..nt {
                tasks.push(LuTask::TrsmL { k, j });
            }
            for i in (k + 1)..nt {
                tasks.push(LuTask::TrsmU { k, i });
            }
            for i in (k + 1)..nt {
                for j in (k + 1)..nt {
                    tasks.push(LuTask::Gemm { k, i, j });
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
        // nt potrf-analog + 2*nt(nt-1)/2 trsms + sum (nt-k-1)^2 gemms.
        for nt in 1..6usize {
            let n = task_stream(nt).count();
            let gemms: usize = (0..nt).map(|k| (nt - k - 1) * (nt - k - 1)).sum();
            assert_eq!(n, nt + nt * (nt - 1) + gemms);
        }
    }

    #[test]
    fn factorization_residual_small() {
        let n = 24;
        let a0 = diag_dominant(n, 111);
        let mut t = TiledMatrix::from_matrix(&a0, 6);
        factor(&mut t).unwrap();
        let res = lu_residual(&a0, &t);
        assert!(res < 1e-13, "residual {res}");
    }

    #[test]
    fn edge_tiles_work() {
        let n = 19;
        let a0 = diag_dominant(n, 112);
        let mut t = TiledMatrix::from_matrix(&a0, 8);
        factor(&mut t).unwrap();
        assert!(lu_residual(&a0, &t) < 1e-13);
    }

    #[test]
    fn zero_pivot_detected() {
        let mut m = Matrix::zeros(4, 4);
        // Row of zeros makes the first pivot zero.
        m[(1, 1)] = 1.0;
        m[(2, 2)] = 1.0;
        m[(3, 3)] = 1.0;
        let mut t = TiledMatrix::from_matrix(&m, 2);
        let err = factor(&mut t).unwrap_err();
        assert_eq!(err.pivot, 0);
        assert!(err.to_string().contains("zero pivot"));
    }

    #[test]
    fn matches_unblocked_reference() {
        let n = 16;
        let a0 = diag_dominant(n, 113);
        let mut tiled = TiledMatrix::from_matrix(&a0, 4);
        factor(&mut tiled).unwrap();
        let mut reference = a0.clone();
        dgetrf_nopiv(&mut reference, 0).unwrap();
        let full = tiled.to_matrix();
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (full[(i, j)] - reference[(i, j)]).abs() < 1e-10,
                    "LU mismatch at ({i},{j})"
                );
            }
        }
    }
}
