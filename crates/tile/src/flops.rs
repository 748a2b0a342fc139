//! Floating-point operation counts.
//!
//! Whole-algorithm counts follow the standard LAPACK conventions so the
//! GFLOP/s figures are comparable with published numbers (the paper's
//! Figs. 8–10 report GFLOP/s for the same algorithms).

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
    fn gflops_conversion() {
        assert_eq!(gflops(2e9, 1.0), 2.0);
        assert_eq!(gflops(1e9, 0.0), 0.0);
        assert_eq!(gflops(1e9, 2.0), 0.5);
    }
}
