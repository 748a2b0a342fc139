//! Tile QR factorization (paper Algorithm 2), sequential driver.
//!
//! As with Cholesky, the task stream defined here is the single source of
//! truth shared with the workload generator; the paper's Fig. 2 lists this
//! exact sequence (F0..F13 for a 3x3-tile matrix).

use crate::matrix::Matrix;
use crate::qr_kernels::{dgeqrt, dormqr, dtsmqr, dtsqrt, ApplyTrans};
use crate::tiled::TiledMatrix;

/// One kernel invocation of the tile QR algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QrTask {
    /// `DGEQRT(A[k][k], T[k][k])`.
    Geqrt { k: usize },
    /// `DORMQR(A[k][k], T[k][k], A[k][n])` — apply `Q_kk^T` to the right.
    Ormqr { k: usize, n: usize },
    /// `DTSQRT(A[k][k], A[m][k], T[m][k])`.
    Tsqrt { k: usize, m: usize },
    /// `DTSMQR(A[k][n], A[m][n], A[m][k], T[m][k])`.
    Tsmqr { k: usize, m: usize, n: usize },
}

impl QrTask {
    /// Kernel-class label used in traces and models.
    pub fn label(&self) -> &'static str {
        match self {
            QrTask::Geqrt { .. } => "dgeqrt",
            QrTask::Ormqr { .. } => "dormqr",
            QrTask::Tsqrt { .. } => "dtsqrt",
            QrTask::Tsmqr { .. } => "dtsmqr",
        }
    }
}

/// The serial task stream of the tile QR of an `nt x nt` tile matrix
/// (Algorithm 2 / Fig. 2 of the paper), enumerated lazily: the loop nest as
/// nested iterators, one task per `next`, nothing held.
pub fn task_stream(nt: usize) -> impl Iterator<Item = QrTask> {
    (0..nt).flat_map(move |k| {
        let ormqrs = (k + 1..nt).map(move |n| QrTask::Ormqr { k, n });
        let updates = (k + 1..nt).flat_map(move |m| {
            let tsmqrs = (k + 1..nt).map(move |n| QrTask::Tsmqr { k, m, n });
            std::iter::once(QrTask::Tsqrt { k, m }).chain(tsmqrs)
        });
        std::iter::once(QrTask::Geqrt { k })
            .chain(ormqrs)
            .chain(updates)
    })
}

/// Execute one QR task on the tiled matrix `a` and the T-factor store `ts`.
///
/// `ts` must have the same tile grid as `a`; `ts[k][k]` holds the `dgeqrt`
/// factor of step `k` and `ts[m][k]` (m > k) the `dtsqrt` factors.
pub fn execute_task(a: &mut TiledMatrix, ts: &mut TiledMatrix, task: QrTask) {
    match task {
        QrTask::Geqrt { k } => {
            // T tile must match the diagonal tile's column count.
            let nb = a.tile(k, k).cols();
            *ts.tile_mut(k, k) = Matrix::zeros(nb, nb);
            let (akk, tkk) = (a.tile_mut(k, k) as *mut Matrix, ts.tile_mut(k, k));
            // SAFETY: a and ts are distinct TiledMatrix objects.
            dgeqrt(unsafe { &mut *akk }, tkk);
        }
        QrTask::Ormqr { k, n } => {
            let v = a.tile(k, k).clone();
            let t = ts.tile(k, k).clone();
            dormqr(ApplyTrans::Trans, &v, &t, a.tile_mut(k, n));
        }
        QrTask::Tsqrt { k, m } => {
            let nb = a.tile(k, k).cols();
            *ts.tile_mut(m, k) = Matrix::zeros(nb, nb);
            // Need two tiles of `a` mutably: (k,k) and (m,k). They are
            // distinct because m > k.
            assert!(m != k);
            let r_ptr = a.tile_mut(k, k) as *mut Matrix;
            let b = a.tile_mut(m, k);
            // SAFETY: (k,k) and (m,k) are different tiles (m != k).
            dtsqrt(unsafe { &mut *r_ptr }, b, ts.tile_mut(m, k));
        }
        QrTask::Tsmqr { k, m, n } => {
            let u = a.tile(m, k).clone();
            let t = ts.tile(m, k).clone();
            assert!(m != k);
            let c1_ptr = a.tile_mut(k, n) as *mut Matrix;
            let c2 = a.tile_mut(m, n);
            // SAFETY: (k,n) and (m,n) are different tiles (m != k).
            dtsmqr(ApplyTrans::Trans, unsafe { &mut *c1_ptr }, c2, &u, &t);
        }
    }
}

/// Sequential tile QR. On return `a` holds `R` in its upper tiles plus the
/// Householder blocks, and `ts` the T factors. `a` must be square in tiles.
pub fn factor(a: &mut TiledMatrix) -> TiledMatrix {
    assert_eq!(a.mt(), a.nt(), "tile QR driver requires a square tile grid");
    let mut ts = TiledMatrix::zeros(a.rows(), a.cols(), a.nb());
    for task in task_stream(a.nt()) {
        execute_task(a, &mut ts, task);
    }
    ts
}

/// Apply `Q` (`trans == No`) or `Q^T` (`trans == Trans`) — as defined by a
/// factorization (`a`, `ts`) — to a tiled matrix `c` in place.
///
/// `Q^T` replays the factorization's transform sequence in order; `Q`
/// replays it in reverse with untransposed blocks. Used to rebuild `Q`
/// explicitly and to verify `A = Q R`.
pub fn apply_q(a: &TiledMatrix, ts: &TiledMatrix, trans: ApplyTrans, c: &mut TiledMatrix) {
    assert_eq!(a.mt(), c.mt(), "row tile grids must match");
    let nt = a.nt();
    let cn = c.nt();
    match trans {
        ApplyTrans::Trans => {
            for k in 0..nt {
                for n in 0..cn {
                    let v = a.tile(k, k);
                    let t = ts.tile(k, k);
                    dormqr(ApplyTrans::Trans, v, t, c.tile_mut(k, n));
                }
                for m in (k + 1)..nt {
                    let u = a.tile(m, k);
                    let t = ts.tile(m, k);
                    for n in 0..cn {
                        let c1_ptr = c.tile_mut(k, n) as *mut Matrix;
                        let c2 = c.tile_mut(m, n);
                        // SAFETY: distinct tiles (m > k).
                        dtsmqr(ApplyTrans::Trans, unsafe { &mut *c1_ptr }, c2, u, t);
                    }
                }
            }
        }
        ApplyTrans::No => {
            for k in (0..nt).rev() {
                for m in ((k + 1)..nt).rev() {
                    let u = a.tile(m, k);
                    let t = ts.tile(m, k);
                    for n in 0..cn {
                        let c1_ptr = c.tile_mut(k, n) as *mut Matrix;
                        let c2 = c.tile_mut(m, n);
                        // SAFETY: distinct tiles (m > k).
                        dtsmqr(ApplyTrans::No, unsafe { &mut *c1_ptr }, c2, u, t);
                    }
                }
                for n in 0..cn {
                    let v = a.tile(k, k);
                    let t = ts.tile(k, k);
                    dormqr(ApplyTrans::No, v, t, c.tile_mut(k, n));
                }
            }
        }
    }
}

/// Extract the upper-triangular `R` factor from a factored tiled matrix.
pub fn extract_r(a: &TiledMatrix) -> Matrix {
    let full = a.to_matrix();
    Matrix::from_fn(full.rows(), full.cols(), |i, j| {
        if i <= j {
            full[(i, j)]
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random;
    use crate::norms::frobenius;
    use crate::verify::{qr_orthogonality, qr_residual};

    /// The loop nest of Algorithm 2, written out: the lazy stream's oracle.
    fn nested_loops(nt: usize) -> Vec<QrTask> {
        let mut tasks = Vec::new();
        for k in 0..nt {
            tasks.push(QrTask::Geqrt { k });
            for n in (k + 1)..nt {
                tasks.push(QrTask::Ormqr { k, n });
            }
            for m in (k + 1)..nt {
                tasks.push(QrTask::Tsqrt { k, m });
                for n in (k + 1)..nt {
                    tasks.push(QrTask::Tsmqr { k, m, n });
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
    fn task_stream_matches_paper_fig2() {
        // Fig. 2: 3x3 tiles = 14 tasks F0..F13 in this exact order.
        let labels: Vec<&str> = task_stream(3).map(|t| t.label()).collect();
        assert_eq!(
            labels,
            vec![
                "dgeqrt", "dormqr", "dormqr", // F0..F2
                "dtsqrt", "dtsmqr", "dtsmqr", // F3..F5
                "dtsqrt", "dtsmqr", "dtsmqr", // F6..F8
                "dgeqrt", "dormqr", // F9, F10
                "dtsqrt", "dtsmqr", // F11, F12
                "dgeqrt", // F13
            ]
        );
        assert_eq!(labels.len(), 14);
    }

    #[test]
    fn task_stream_count_formula() {
        // nt geqrt + nt(nt-1)/2 ormqr + nt(nt-1)/2 tsqrt + sum k (nt-k-1)^2 tsmqr.
        for nt in 1..7usize {
            let n = task_stream(nt).count();
            let tsmqr: usize = (0..nt).map(|k| (nt - k - 1) * (nt - k - 1)).sum();
            let expect = nt + nt * (nt - 1) / 2 * 2 + tsmqr;
            assert_eq!(n, expect, "nt={nt}");
        }
    }

    #[test]
    fn factorization_residual_small() {
        let n = 24;
        let a0 = random(n, n, 91);
        let mut a = TiledMatrix::from_matrix(&a0, 6);
        let ts = factor(&mut a);
        let res = qr_residual(&a0, &a, &ts);
        assert!(res < 1e-12, "residual {res}");
    }

    #[test]
    fn q_is_orthogonal() {
        let n = 18;
        let a0 = random(n, n, 92);
        let mut a = TiledMatrix::from_matrix(&a0, 6);
        let ts = factor(&mut a);
        let orth = qr_orthogonality(&a, &ts);
        assert!(orth < 1e-12, "orthogonality defect {orth}");
    }

    #[test]
    fn single_tile_qr() {
        let a0 = random(8, 8, 93);
        let mut a = TiledMatrix::from_matrix(&a0, 16);
        let ts = factor(&mut a);
        assert!(qr_residual(&a0, &a, &ts) < 1e-13);
    }

    #[test]
    fn r_is_upper_triangular_with_nonzero_diagonal() {
        let n = 12;
        let a0 = random(n, n, 94);
        let mut a = TiledMatrix::from_matrix(&a0, 4);
        let ts = factor(&mut a);
        let _ = ts;
        let r = extract_r(&a);
        for i in 0..n {
            assert!(r[(i, i)].abs() > 1e-12, "R[{i},{i}] ~ 0");
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qt_q_round_trip_on_arbitrary_matrix() {
        let n = 12;
        let a0 = random(n, n, 95);
        let mut a = TiledMatrix::from_matrix(&a0, 4);
        let ts = factor(&mut a);
        let x0 = random(n, n, 96);
        let mut x = TiledMatrix::from_matrix(&x0, 4);
        apply_q(&a, &ts, ApplyTrans::Trans, &mut x);
        apply_q(&a, &ts, ApplyTrans::No, &mut x);
        let err = frobenius(&x.to_matrix().sub(&x0)) / frobenius(&x0);
        assert!(err < 1e-12, "round trip error {err}");
    }

    #[test]
    fn qr_with_edge_tiles() {
        // 22 = 3 tiles of 8 with a 6-wide edge: exercises rectangular paths.
        let n = 22;
        let a0 = random(n, n, 97);
        let mut a = TiledMatrix::from_matrix(&a0, 8);
        let ts = factor(&mut a);
        let res = qr_residual(&a0, &a, &ts);
        assert!(res < 1e-12, "residual {res}");
    }
}
