//! Many short task-id lists in one allocation.
//!
//! Submission-side bookkeeping keeps a list per data region (its current
//! readers) and a list per in-flight task (its successors). Thousands of
//! them are live at once and each holds two or three ids, so a `Vec` per
//! list costs more in allocator traffic than the analysis it serves. A
//! [`ChainPool`] carves them all out of one growing vector of cells:
//! pushing takes a cell from the free list, popping returns it, and the
//! pool never holds more cells than the peak number of ids live at once.

/// End of a chain, and the empty free list.
const NIL: u32 = u32::MAX;

/// A first-in-first-out list of task ids whose cells live in a
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

/// The cells behind any number of [`Chain`]s.
#[derive(Debug)]
pub struct ChainPool {
    /// `(id, next cell)`; free cells are chained through `next` too.
    cells: Vec<(u64, u32)>,
    free: u32,
}

impl Default for ChainPool {
    fn default() -> Self {
        ChainPool {
            cells: Vec::new(),
            free: NIL,
        }
    }
}

impl ChainPool {
    /// Append `id` to `chain`.
    pub fn push(&mut self, chain: &mut Chain, id: u64) {
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
    }

    /// Remove and return the oldest id of `chain`, recycling its cell.
    pub fn pop(&mut self, chain: &mut Chain) -> Option<u64> {
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
        Some(id)
    }

    /// Cells ever carved: the peak number of ids chained at once.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for round in 0..1000u64 {
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
}
