//! Owner-computes data placement over a 2-D tile grid.

/// Maps tile coordinates to an owning node. Under owner-computes, the
/// task that writes a tile runs on that tile's owner; reads of remote
/// tiles trigger transfers.
pub trait Placement: Send + Sync {
    /// Placement name (for CLI selection and JSON output).
    fn name(&self) -> String;
    /// Owning node of tile `(i, j)`.
    fn owner(&self, i: usize, j: usize) -> usize;
}

/// 2-D block-cyclic placement over a `p` x `q` process grid:
/// tile `(i, j)` lives on node `(i % p) * q + (j % q)`. The standard
/// ScaLAPACK-style distribution for dense factorizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCyclic {
    /// Process-grid rows.
    pub p: usize,
    /// Process-grid columns.
    pub q: usize,
}

impl BlockCyclic {
    /// A `p` x `q` process grid.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "process grid must be non-empty");
        BlockCyclic { p, q }
    }

    /// The squarest grid for `nodes`: largest `p <= sqrt(nodes)` dividing
    /// `nodes`, with `q = nodes / p`.
    pub fn square(nodes: usize) -> Self {
        assert!(nodes > 0, "process grid must be non-empty");
        let mut p = (nodes as f64).sqrt() as usize;
        while p > 1 && nodes % p != 0 {
            p -= 1;
        }
        BlockCyclic::new(p.max(1), nodes / p.max(1))
    }

    /// Row distribution: `nodes` x 1 grid (tile row cyclic over nodes).
    pub fn row(nodes: usize) -> Self {
        BlockCyclic::new(nodes, 1)
    }

    /// Column distribution: 1 x `nodes` grid.
    pub fn col(nodes: usize) -> Self {
        BlockCyclic::new(1, nodes)
    }
}

impl Placement for BlockCyclic {
    fn name(&self) -> String {
        format!("block-cyclic-{}x{}", self.p, self.q)
    }

    fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.p) * self.q + (j % self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_cyclic_wraps_both_dims() {
        let pl = BlockCyclic::new(2, 2);
        assert_eq!(pl.owner(0, 0), 0);
        assert_eq!(pl.owner(0, 1), 1);
        assert_eq!(pl.owner(1, 0), 2);
        assert_eq!(pl.owner(1, 1), 3);
        assert_eq!(pl.owner(2, 2), 0);
        assert_eq!(pl.owner(3, 1), 3);
    }

    #[test]
    fn square_picks_divisor_grid() {
        assert_eq!(BlockCyclic::square(4), BlockCyclic::new(2, 2));
        assert_eq!(BlockCyclic::square(6), BlockCyclic::new(2, 3));
        assert_eq!(BlockCyclic::square(7), BlockCyclic::new(1, 7));
        assert_eq!(BlockCyclic::square(1), BlockCyclic::new(1, 1));
    }

    #[test]
    fn row_and_col_are_one_dimensional() {
        let r = BlockCyclic::row(3);
        assert_eq!(r.owner(4, 9), 1);
        assert_eq!(r.owner(5, 0), 2);
        let c = BlockCyclic::col(3);
        assert_eq!(c.owner(9, 4), 1);
        assert_eq!(c.name(), "block-cyclic-1x3");
    }

    #[test]
    fn owners_cover_all_nodes() {
        let pl = BlockCyclic::square(4);
        let mut seen = [false; 4];
        for i in 0..4 {
            for j in 0..4 {
                seen[pl.owner(i, j)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
