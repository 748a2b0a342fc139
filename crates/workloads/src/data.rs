//! Shared tile grids: the data substrate task bodies operate on.
//!
//! Each tile is behind an `RwLock` so concurrent readers (e.g. several
//! `dgemm`s reading the same panel tile) proceed in parallel while writers
//! are exclusive. The *scheduler* already guarantees hazard-freedom — the
//! locks only bridge Rust's aliasing rules, they are never contended in a
//! correctly scheduled run (beyond brief reader overlap).

use parking_lot::RwLock;
use std::sync::Arc;
use supersim_dag::DataId;
use supersim_tile::{Matrix, TiledMatrix};

/// A tile grid shared across worker threads, with stable data ids.
#[derive(Clone)]
pub struct SharedTiles {
    /// One lock per tile; a layout-only grid holds one empty tile that
    /// every tile shares.
    tiles: Arc<Vec<RwLock<Matrix>>>,
    mt: usize,
    nt: usize,
    nb: usize,
    rows: usize,
    cols: usize,
    base_id: u64,
}

impl SharedTiles {
    /// Wrap a tiled matrix. `base_id` offsets the [`DataId`] space so
    /// several grids (e.g. the matrix `A` and the T-factor grid) coexist
    /// without collisions.
    pub fn new(t: TiledMatrix, base_id: u64) -> Self {
        let rows = t.rows();
        let cols = t.cols();
        let (tiles, mt, nt, nb) = t.into_tiles();
        assert!(
            (base_id as u128) + (tiles.len() as u128) <= u64::MAX as u128,
            "base_id overflow"
        );
        SharedTiles {
            tiles: Arc::new(tiles.into_iter().map(RwLock::new).collect()),
            mt,
            nt,
            nb,
            rows,
            cols,
            base_id,
        }
    }

    /// A grid with the right *shape* but zero-sized tiles — for simulated
    /// runs, where the data is never touched but the dependence layout
    /// (tile ids) must match a real run exactly. Allocates the same few
    /// bytes whatever the grid's size: every tile is one shared empty
    /// tile (so writers of two tiles would contend on one lock, which a
    /// simulated run never takes).
    pub fn layout_only(rows: usize, cols: usize, nb: usize, base_id: u64) -> Self {
        assert!(nb > 0, "tile size must be positive");
        let mt = rows.div_ceil(nb);
        let nt = cols.div_ceil(nb);
        // Checked: a wrapped tile count or id range would alias tiles.
        mt.checked_mul(nt)
            .filter(|&c| base_id.checked_add(c as u64).is_some())
            .unwrap_or_else(|| panic!("a {mt}x{nt} tile grid at id {base_id} overflows"));
        SharedTiles {
            tiles: Arc::new(vec![RwLock::new(Matrix::zeros(0, 0))]),
            mt,
            nt,
            nb,
            rows,
            cols,
            base_id,
        }
    }

    /// Number of tile rows.
    pub fn mt(&self) -> usize {
        self.mt
    }

    /// Number of tile columns.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Tile size.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Total tiles.
    pub fn len(&self) -> usize {
        self.mt * self.nt
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id space used by this grid: `[base_id, base_id + len)`.
    pub fn id_range(&self) -> (u64, u64) {
        (self.base_id, self.base_id + self.len() as u64)
    }

    /// The lock of tile number `k` (column-major) for reading: its own,
    /// or the one empty tile of a layout-only grid.
    fn tile(&self, k: usize) -> &RwLock<Matrix> {
        let own = self.tiles.len() == self.len();
        &self.tiles[if own { k } else { 0 }]
    }

    /// Row count of tile `(i, j)` (edge tiles are smaller).
    pub fn tile_rows(&self, i: usize) -> usize {
        assert!(i < self.mt, "tile row {i} out of range");
        (self.rows - i * self.nb).min(self.nb)
    }

    /// Column count of tile `(i, j)` (edge tiles are smaller).
    pub fn tile_cols(&self, j: usize) -> usize {
        assert!(j < self.nt, "tile column {j} out of range");
        (self.cols - j * self.nb).min(self.nb)
    }

    /// Size of tile `(i, j)` in bytes (f64 elements) — what a transfer of
    /// this tile moves across an interconnect.
    pub fn tile_bytes(&self, i: usize, j: usize) -> u64 {
        (self.tile_rows(i) * self.tile_cols(j) * std::mem::size_of::<f64>()) as u64
    }

    /// Dependence-tracking id of tile `(i, j)`.
    pub fn data_id(&self, i: usize, j: usize) -> DataId {
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        DataId(self.base_id + (i + j * self.mt) as u64)
    }

    /// Read-lock tile `(i, j)`.
    pub fn read(&self, i: usize, j: usize) -> parking_lot::RwLockReadGuard<'_, Matrix> {
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        self.tile(i + j * self.mt).read()
    }

    /// Write-lock tile `(i, j)`.
    ///
    /// # Panics
    ///
    /// On a layout-only grid of more than one tile: it has no data to
    /// write, and a kernel writing two of its tiles would deadlock on
    /// their one shared lock.
    pub fn write(&self, i: usize, j: usize) -> parking_lot::RwLockWriteGuard<'_, Matrix> {
        assert!(i < self.mt && j < self.nt, "tile ({i},{j}) out of range");
        assert!(
            self.tiles.len() == self.len(),
            "a layout-only grid has no tile data to write"
        );
        self.tiles[i + j * self.mt].write()
    }

    /// Reassemble a [`TiledMatrix`] from the current tile contents.
    ///
    /// Clones each tile under a read lock; call after `wait_all`.
    pub fn to_tiled(&self) -> TiledMatrix {
        let tiles: Vec<Matrix> = (0..self.len())
            .map(|k| self.tile(k).read().clone())
            .collect();
        TiledMatrix::from_tiles(tiles, self.mt, self.nt, self.nb, self.rows, self.cols)
    }

    /// Reassemble the dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        self.to_tiled().to_matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_tile::generate::random;

    #[test]
    fn round_trip_preserves_contents() {
        let a = random(10, 10, 1);
        let tiled = TiledMatrix::from_matrix(&a, 4);
        let shared = SharedTiles::new(tiled.clone(), 0);
        assert_eq!(shared.to_tiled(), tiled);
        assert_eq!(shared.to_matrix(), a);
    }

    #[test]
    fn data_ids_unique_and_offset() {
        let a = random(8, 8, 2);
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a, 4), 100);
        let mut ids = std::collections::HashSet::new();
        for i in 0..shared.mt() {
            for j in 0..shared.nt() {
                let id = shared.data_id(i, j);
                assert!(id.0 >= 100);
                assert!(ids.insert(id));
            }
        }
        assert_eq!(shared.id_range(), (100, 104));
    }

    #[test]
    fn concurrent_readers_allowed() {
        let a = random(4, 4, 3);
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a, 4), 0);
        let r1 = shared.read(0, 0);
        let r2 = shared.read(0, 0);
        assert_eq!(r1[(0, 0)], r2[(0, 0)]);
    }

    #[test]
    fn writes_visible_in_reassembly() {
        let a = random(4, 4, 4);
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a, 2), 0);
        shared.write(1, 1)[(0, 0)] = 42.0;
        assert_eq!(shared.to_matrix()[(2, 2)], 42.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_checked() {
        let a = random(4, 4, 5);
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a, 2), 0);
        shared.data_id(5, 0);
    }

    #[test]
    fn layout_only_has_shape_without_data() {
        let s = SharedTiles::layout_only(3960, 3960, 180, 0);
        assert_eq!(s.mt(), 22);
        assert_eq!(s.nt(), 22);
        assert_eq!(s.len(), 484);
        assert_eq!(s.read(0, 0).rows(), 0);
        let _ = s.data_id(21, 21);
    }

    #[test]
    fn a_layout_only_grid_allocates_the_same_at_any_size() {
        let bytes = |tiles: usize| {
            let s = SharedTiles::layout_only(tiles * 10, tiles * 10, 10, 0);
            assert_eq!(s.len(), tiles * tiles);
            assert_eq!(s.read(tiles - 1, tiles - 1).rows(), 0);
            assert_eq!(s.to_tiled().tile(tiles - 1, 0).rows(), 0);
            s.tiles.capacity() * std::mem::size_of::<RwLock<Matrix>>()
        };
        assert_eq!(bytes(2), bytes(64));
    }

    #[test]
    #[should_panic(expected = "a layout-only grid has no tile data to write")]
    fn a_layout_only_grid_refuses_writes() {
        drop(SharedTiles::layout_only(20, 20, 10, 0).write(1, 1));
    }

    #[test]
    fn clone_shares_storage() {
        let a = random(4, 4, 6);
        let shared = SharedTiles::new(TiledMatrix::from_matrix(&a, 2), 0);
        let clone = shared.clone();
        shared.write(0, 0)[(0, 0)] = 7.0;
        assert_eq!(clone.read(0, 0)[(0, 0)], 7.0);
    }
}
