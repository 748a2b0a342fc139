//! The Frobenius norm.

use crate::matrix::Matrix;

/// Frobenius norm.
pub fn frobenius(a: &Matrix) -> f64 {
    a.data().iter().map(|&x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Matrix {
        // [1 -2; 3 4]
        Matrix::from_col_major(2, 2, vec![1.0, 3.0, -2.0, 4.0])
    }

    #[test]
    fn frobenius_known() {
        assert!((frobenius(&m()) - 30.0_f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn zero_matrix_all_norms_zero() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(frobenius(&z), 0.0);
    }
}
