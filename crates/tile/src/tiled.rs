//! Tile layout: a matrix stored as a grid of `nb x nb` tiles.
//!
//! "The tile approach consists of breaking the matrix panel factorization
//! and trailing submatrix update steps into smaller tasks that operate on
//! relatively small nb × nb tiles (or submatrices) of consecutive data"
//! (paper §IV-B). Each tile is contiguous so a kernel touches exactly one
//! or a few tiles — the unit of dependence tracking.

use crate::matrix::Matrix;

/// A matrix stored by tiles. Edge tiles may be smaller when the global
/// dimensions are not multiples of `nb`.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledMatrix {
    rows: usize,
    cols: usize,
    nb: usize,
    mt: usize,
    nt: usize,
    /// Tile grid in column-major order: tile (i, j) at `i + j * mt`.
    tiles: Vec<Matrix>,
}

impl TiledMatrix {
    /// Zero tiled matrix.
    pub fn zeros(rows: usize, cols: usize, nb: usize) -> Self {
        assert!(nb > 0, "tile size must be positive");
        let mt = rows.div_ceil(nb).max(if rows == 0 { 0 } else { 1 });
        let nt = cols.div_ceil(nb).max(if cols == 0 { 0 } else { 1 });
        // Column-major tile grid: (i, j) lives at i + j*mt.
        let mut tiles = Vec::with_capacity(mt * nt);
        for j in 0..nt {
            let tc = Self::edge(cols, nb, j);
            for i in 0..mt {
                let tr = Self::edge(rows, nb, i);
                tiles.push(Matrix::zeros(tr, tc));
            }
        }
        TiledMatrix {
            rows,
            cols,
            nb,
            mt,
            nt,
            tiles,
        }
    }

    fn edge(total: usize, nb: usize, idx: usize) -> usize {
        let start = idx * nb;
        nb.min(total - start)
    }

    /// Convert a dense matrix into tiles.
    pub fn from_matrix(a: &Matrix, nb: usize) -> Self {
        let mut t = Self::zeros(a.rows(), a.cols(), nb);
        for tj in 0..t.nt {
            for ti in 0..t.mt {
                let (r0, c0) = (ti * nb, tj * nb);
                let tile = t.tile_mut(ti, tj);
                for j in 0..tile.cols() {
                    for i in 0..tile.rows() {
                        tile[(i, j)] = a[(r0 + i, c0 + j)];
                    }
                }
            }
        }
        t
    }

    /// Convert back to a dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        let mut a = Matrix::zeros(self.rows, self.cols);
        for tj in 0..self.nt {
            for ti in 0..self.mt {
                let tile = self.tile(ti, tj);
                let (r0, c0) = (ti * self.nb, tj * self.nb);
                for j in 0..tile.cols() {
                    for i in 0..tile.rows() {
                        a[(r0 + i, c0 + j)] = tile[(i, j)];
                    }
                }
            }
        }
        a
    }

    /// Global row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile size.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of tile rows.
    pub fn mt(&self) -> usize {
        self.mt
    }

    /// Number of tile columns.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Borrow tile `(i, j)`.
    pub fn tile(&self, i: usize, j: usize) -> &Matrix {
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        &self.tiles[i + j * self.mt]
    }

    /// Mutably borrow tile `(i, j)`.
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Matrix {
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        &mut self.tiles[i + j * self.mt]
    }

    /// Take all tiles out (consumes the layout), returning the grid and
    /// its shape — used to hand tiles to the runtime behind locks.
    pub fn into_tiles(self) -> (Vec<Matrix>, usize, usize, usize) {
        (self.tiles, self.mt, self.nt, self.nb)
    }

    /// Rebuild from tiles previously taken with [`Self::into_tiles`].
    pub fn from_tiles(
        tiles: Vec<Matrix>,
        mt: usize,
        nt: usize,
        nb: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        assert_eq!(tiles.len(), mt * nt, "tile count mismatch");
        TiledMatrix {
            rows,
            cols,
            nb,
            mt,
            nt,
            tiles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random;

    #[test]
    fn round_trip_exact_division() {
        let a = random(8, 8, 71);
        let t = TiledMatrix::from_matrix(&a, 4);
        assert_eq!(t.mt(), 2);
        assert_eq!(t.nt(), 2);
        assert_eq!(t.to_matrix(), a);
    }

    #[test]
    fn round_trip_with_edge_tiles() {
        let a = random(10, 7, 72);
        let t = TiledMatrix::from_matrix(&a, 4);
        assert_eq!(t.mt(), 3);
        assert_eq!(t.nt(), 2);
        assert_eq!(t.tile(2, 0).rows(), 2);
        assert_eq!(t.tile(0, 1).cols(), 3);
        assert_eq!(t.to_matrix(), a);
    }

    #[test]
    fn tile_contents_match_blocks() {
        let a = Matrix::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let t = TiledMatrix::from_matrix(&a, 3);
        let tile = t.tile(1, 0);
        assert_eq!(tile[(0, 0)], a[(3, 0)]);
        assert_eq!(tile[(2, 2)], a[(5, 2)]);
    }

    #[test]
    fn into_from_tiles_round_trip() {
        let a = random(6, 6, 73);
        let t = TiledMatrix::from_matrix(&a, 3);
        let (tiles, mt, nt, nb) = t.clone().into_tiles();
        let back = TiledMatrix::from_tiles(tiles, mt, nt, nb, 6, 6);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_bounds_checked() {
        let t = TiledMatrix::zeros(4, 4, 2);
        t.tile(2, 0);
    }

    #[test]
    fn mutation_via_tile_mut() {
        let mut t = TiledMatrix::zeros(4, 4, 2);
        t.tile_mut(1, 1)[(0, 0)] = 5.0;
        assert_eq!(t.to_matrix()[(2, 2)], 5.0);
    }
}
