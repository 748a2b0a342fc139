//! Column-major dense matrix.

/// A dense, column-major, double-precision matrix.
///
/// Column-major (LAPACK/BLAS convention) so the kernel loops have unit
/// stride along columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a closure `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Build from column-major data. Panics if the length does not match.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw column-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One column as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// One column as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Two distinct columns simultaneously (for column updates).
    ///
    /// Panics if `j1 == j2`.
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(j1, j2, "columns must differ");
        let r = self.rows;
        let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
        let (head, tail) = self.data.split_at_mut(hi * r);
        let a = &mut head[lo * r..(lo + 1) * r];
        let b = &mut tail[..r];
        if j1 < j2 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// `self * other` (naive, for tests and verification only — the fast
    /// path is [`crate::blas::dgemm`]).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "shape mismatch");
        let mut c = Matrix::zeros(self.rows, other.cols);
        crate::blas::dgemm(
            crate::blas::Trans::No,
            crate::blas::Trans::No,
            1.0,
            self,
            other,
            0.0,
            &mut c,
        );
        c
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *o -= b;
        }
        out
    }

    /// Maximum absolute entry (0 for empty).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[j * self.rows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[j * self.rows + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 0)], 0.0);
        assert!(i.is_square());
    }

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
        assert_eq!(m.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_fn_indexing() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn transpose() {
        let m = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 + 1.0);
        let i = Matrix::identity(3);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let b = Matrix::from_col_major(2, 2, vec![5.0, 7.0, 6.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        let (c0, c2) = m.two_cols_mut(0, 2);
        c0[0] = -1.0;
        c2[1] = -2.0;
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(1, 2)], -2.0);
        // Reverse order works too.
        let (c2b, c0b) = m.two_cols_mut(2, 0);
        assert_eq!(c2b[1], -2.0);
        assert_eq!(c0b[0], -1.0);
    }

    #[test]
    fn sub_and_max_abs() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        let d = a.sub(&b);
        assert_eq!(d[(0, 0)], -1.0);
        assert_eq!(d.max_abs(), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_col_major_checks_length() {
        Matrix::from_col_major(2, 2, vec![1.0]);
    }
}
