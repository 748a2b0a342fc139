//! Matrix generators (seeded, reproducible).

use crate::blas::{dgemm, Trans};
use crate::matrix::Matrix;
use rand::{Rng, SeedableRng};

/// Uniform random matrix with entries in `[-1, 1)`.
pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.random::<f64>() * 2.0 - 1.0)
}

/// Symmetric positive definite matrix: `B*B^T + n*I` with random `B`.
pub fn spd(n: usize, seed: u64) -> Matrix {
    let b = random(n, n, seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = n as f64;
    }
    dgemm(Trans::No, Trans::Yes, 1.0, &b, &b, 1.0, &mut a);
    a
}

/// Symmetric positive definite matrix in O(n^2) work: a symmetrized
/// random matrix made diagonally dominant (`(R + R^T)/2 + n*I`). Use for
/// large benchmark inputs where the `O(n^3)` [`spd`] generator would cost
/// as much as the factorization under test.
pub fn spd_fast(n: usize, seed: u64) -> Matrix {
    let r = random(n, n, seed);
    Matrix::from_fn(n, n, |i, j| {
        let sym = 0.5 * (r[(i, j)] + r[(j, i)]);
        if i == j {
            sym + n as f64
        } else {
            sym
        }
    })
}

/// Diagonally dominant matrix (well conditioned for LU without pivoting).
pub fn diag_dominant(n: usize, seed: u64) -> Matrix {
    let mut a = random(n, n, seed);
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| a[(i, j)].abs()).sum();
        a[(i, i)] = row_sum + 1.0;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::dpotf2;

    #[test]
    fn random_is_reproducible() {
        assert_eq!(random(4, 4, 42), random(4, 4, 42));
        assert_ne!(random(4, 4, 42), random(4, 4, 43));
    }

    #[test]
    fn random_entries_in_range() {
        let m = random(10, 10, 1);
        assert!(m.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn spd_is_symmetric_and_choleskyable() {
        let a = spd(12, 5);
        for i in 0..12 {
            for j in 0..12 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
        let mut f = a.clone();
        dpotf2(&mut f).expect("spd must factor");
    }

    #[test]
    fn spd_fast_is_symmetric_and_choleskyable() {
        let a = spd_fast(20, 6);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
        let mut f = a.clone();
        dpotf2(&mut f).expect("spd_fast must factor");
    }

    #[test]
    fn diag_dominant_rows_dominated() {
        let a = diag_dominant(8, 3);
        for i in 0..8 {
            let off: f64 = (0..8).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
            assert!(a[(i, i)].abs() > off);
        }
    }
}
