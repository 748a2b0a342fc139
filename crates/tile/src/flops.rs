//! Floating-point operation counts.
//!
//! Whole-algorithm counts follow the standard LAPACK conventions so the
//! GFLOP/s figures are comparable with published numbers (the paper's
//! Figs. 8–10 report GFLOP/s for the same algorithms). Per-kernel counts
//! are used for sanity checks.

/// Flops of a Cholesky factorization of an `n x n` matrix:
/// `n^3/3 + n^2/2 + n/6`.
pub fn cholesky(n: usize) -> f64 {
    let n = n as f64;
    n * n * n / 3.0 + n * n / 2.0 + n / 6.0
}

/// Flops of a QR factorization of an `m x n` matrix (`m >= n`),
/// LAPACK convention: `2 n^2 (m - n/3) + n^2 + 14/3 n`.
pub fn qr(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    2.0 * n * n * (m - n / 3.0) + n * n + 14.0 / 3.0 * n
}

/// Flops of an LU factorization of an `n x n` matrix:
/// `2 n^3 / 3 - n^2 / 2 + 5 n / 6`.
pub fn lu(n: usize) -> f64 {
    let n = n as f64;
    2.0 * n * n * n / 3.0 - n * n / 2.0 + 5.0 * n / 6.0
}

/// Flops of a SYRK updating an `n x n` triangle with rank `k`: `n (n+1) k`.
pub fn syrk(n: usize, k: usize) -> f64 {
    (n * (n + 1) * k) as f64
}

/// Flops of a TRSM with an `n x n` factor and `m` right-hand sides
/// (either side): `n^2 m`.
pub fn trsm(n: usize, m: usize) -> f64 {
    (n * n * m) as f64
}

/// Approximate flops of `dormqr` applying an `n x n` reflector block to an
/// `n x n` tile: `~3 n^3` (three GEMM-shaped products).
pub fn ormqr_tile(n: usize) -> f64 {
    3.0 * (n as f64).powi(3)
}

/// Approximate flops of `dtsqrt` on a `2n x n` stack: `~2 n^3`.
pub fn tsqrt_tile(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// GFLOP/s given a flop count and elapsed seconds (0 if time is not
/// positive).
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        flops / seconds / 1e9
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_leading_term() {
        let n = 1000;
        let f = cholesky(n);
        let lead = (n as f64).powi(3) / 3.0;
        assert!((f - lead) / lead < 0.01);
    }

    #[test]
    fn qr_square_is_four_thirds_cubed() {
        let n = 1000;
        let f = qr(n, n);
        let lead = 4.0 / 3.0 * (n as f64).powi(3);
        assert!((f - lead).abs() / lead < 0.01);
    }

    #[test]
    fn lu_leading_term() {
        let n = 500;
        let lead = 2.0 / 3.0 * (n as f64).powi(3);
        assert!((lu(n) - lead).abs() / lead < 0.01);
    }

    #[test]
    fn kernel_counts_scale_cubically() {
        assert!(ormqr_tile(100) > 0.0);
        assert!(syrk(10, 10) > 0.0);
        assert!(trsm(10, 20) == 2000.0);
        assert!(tsqrt_tile(10) > 0.0);
    }

    #[test]
    fn tile_kernel_sums_approximate_algorithm_totals() {
        // Summing per-kernel approximations over the tile Cholesky stream
        // should land within ~20% of the algorithm total (the approximation
        // ignores triangular corrections). A POTRF tile is a Cholesky of
        // `nb`; a GEMM tile update is `2 nb^3`.
        let nt = 8;
        let nb = 50;
        let n = nt * nb;
        let mut total = 0.0;
        for task in crate::cholesky::task_stream(nt) {
            total += match task {
                crate::cholesky::CholeskyTask::Potrf { .. } => cholesky(nb),
                crate::cholesky::CholeskyTask::Trsm { .. } => trsm(nb, nb),
                crate::cholesky::CholeskyTask::Syrk { .. } => syrk(nb, nb),
                crate::cholesky::CholeskyTask::Gemm { .. } => 2.0 * (nb as f64).powi(3),
            };
        }
        let exact = cholesky(n);
        let ratio = total / exact;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gflops_conversion() {
        assert_eq!(gflops(2e9, 1.0), 2.0);
        assert_eq!(gflops(1e9, 0.0), 0.0);
        assert_eq!(gflops(1e9, 2.0), 0.5);
    }
}
