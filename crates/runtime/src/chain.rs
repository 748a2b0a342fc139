//! Many short task-id lists in one allocation.
//!
//! Submission-side bookkeeping keeps a list per data region (its current
//! readers) and a list per in-flight task (its successors). Thousands of
//! them are live at once and each holds two or three ids, so a `Vec` per
//! list costs more in allocator traffic than the analysis it serves. A
//! [`ChainPool`] carves them all out of one growing vector of cells:
//! pushing takes a cell from the free list, popping returns it, and the
//! pool never holds more cells than the peak number of ids live at once.
//! It counts its live ids, so an owner that can forget stale ids (the
//! hazard tracker drops retired readers) knows when a sweep pays: when
//! its next pushes would carve cells and the live count has outgrown what
//! the last sweep left.
//!
//! Ids are 32-bit: a scheduling core takes fewer than 2³² submissions,
//! so a cell is 8 bytes, an id and the index of the next cell.

/// End of a chain, and the empty free list.
const NIL: u32 = u32::MAX;

/// A first-in-first-out list of 32-bit task ids whose cells live in a
/// [`ChainPool`]. `Default` is the empty chain. Always push to and pop
/// from a chain through the pool it was first pushed to.
#[derive(Debug, PartialEq, Eq)]
pub struct Chain {
    head: u32,
    tail: u32,
}

impl Default for Chain {
    fn default() -> Self {
        Chain {
            head: NIL,
            tail: NIL,
        }
    }
}

impl Chain {
    /// Whether the chain holds no ids.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// `(id, next cell)`; free cells are chained through `next` too.
type Cell = (u32, u32);

/// The cells behind any number of [`Chain`]s.
#[derive(Debug)]
pub struct ChainPool {
    cells: Vec<Cell>,
    free: u32,
    /// Ids chained now: `cells.len()` less the free list.
    live: usize,
}

impl Default for ChainPool {
    fn default() -> Self {
        ChainPool {
            cells: Vec::new(),
            free: NIL,
            live: 0,
        }
    }
}

impl ChainPool {
    /// Append `id` to `chain`.
    pub fn push(&mut self, chain: &mut Chain, id: u32) {
        let cell = match self.free {
            NIL => {
                let cell = u32::try_from(self.cells.len())
                    .ok()
                    .filter(|&cell| cell != NIL)
                    .expect("more than u32::MAX ids chained at once");
                self.cells.push((id, NIL));
                cell
            }
            cell => {
                self.free = self.cells[cell as usize].1;
                self.cells[cell as usize] = (id, NIL);
                cell
            }
        };
        match chain.tail {
            NIL => chain.head = cell,
            tail => self.cells[tail as usize].1 = cell,
        }
        chain.tail = cell;
        self.live += 1;
    }

    /// The oldest id of `chain`, left in place.
    pub(crate) fn front(&self, chain: &Chain) -> Option<u32> {
        (chain.head != NIL).then(|| self.cells[chain.head as usize].0)
    }

    /// Remove and return the oldest id of `chain`, recycling its cell.
    pub fn pop(&mut self, chain: &mut Chain) -> Option<u32> {
        let cell = chain.head;
        if cell == NIL {
            return None;
        }
        let (id, next) = self.cells[cell as usize];
        chain.head = next;
        if next == NIL {
            chain.tail = NIL;
        }
        self.cells[cell as usize].1 = self.free;
        self.free = cell;
        self.live -= 1;
        Some(id)
    }

    /// Cells ever carved: the peak number of ids chained at once.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Ids chained at the moment, over every chain.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Pushes that reuse a free cell before the next one carves a cell.
    pub(crate) fn spare(&self) -> usize {
        self.cells.len() - self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 8);
    }

    #[test]
    fn chains_are_fifo_and_interleave() {
        let mut pool = ChainPool::default();
        let (mut a, mut b) = (Chain::default(), Chain::default());
        for id in 0..6 {
            pool.push(if id % 2 == 0 { &mut a } else { &mut b }, id);
        }
        let drain = |pool: &mut ChainPool, c: &mut Chain| {
            std::iter::from_fn(|| pool.pop(c)).collect::<Vec<_>>()
        };
        assert_eq!(drain(&mut pool, &mut a), [0, 2, 4]);
        assert!(a.is_empty() && !b.is_empty());
        assert_eq!(drain(&mut pool, &mut b), [1, 3, 5]);
        assert_eq!(a, Chain::default());
    }

    #[test]
    fn popped_cells_are_reused() {
        let mut pool = ChainPool::default();
        let mut c = Chain::default();
        for round in 0..1000u32 {
            for id in 0..3 {
                pool.push(&mut c, round * 3 + id);
            }
            for id in 0..3 {
                assert_eq!(pool.pop(&mut c), Some(round * 3 + id));
            }
            assert_eq!(pool.pop(&mut c), None);
        }
        assert_eq!(pool.capacity(), 3, "the pool holds the peak, not the total");
    }

    #[test]
    fn live_counts_chained_ids_and_spare_the_free_cells() {
        let mut pool = ChainPool::default();
        let mut c = Chain::default();
        assert_eq!((pool.live(), pool.spare(), pool.front(&c)), (0, 0, None));
        pool.push(&mut c, 7);
        pool.push(&mut c, 9);
        assert_eq!((pool.live(), pool.spare(), pool.front(&c)), (2, 0, Some(7)));
        pool.pop(&mut c);
        assert_eq!((pool.live(), pool.spare(), pool.front(&c)), (1, 1, Some(9)));
        pool.push(&mut c, 11);
        assert_eq!((pool.live(), pool.spare(), pool.capacity()), (2, 0, 2));
    }
}
