//! The coherence layer: which nodes hold valid copies of which tiles, and
//! which transfers a compute task's remote reads require.
//!
//! There is one copy of this logic, so the threaded engine and the DES
//! replay backend derive transfer tasks — and therefore task ids,
//! dependences, and NIC-lane occupancy — from the *same* code. The
//! decision procedure is purely a function of the serial submission
//! stream: a remote read fetches once per (tile, node) and reuses the copy
//! until the tile is rewritten, at which point every copy is invalidated.

use crate::interconnect::Interconnect;
use std::collections::HashMap;
use supersim_dag::{Access, DataId};

/// A transfer the coherence layer requires *before* its consumer task:
/// read the home tile, write a fresh ghost id on the consuming node, pay
/// the interconnect's cost on that node's NIC lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPlan {
    /// Accesses of the transfer task: `[read home, write ghost]`, both
    /// carrying the tile's byte size.
    pub accesses: Vec<Access>,
    /// Virtual duration from the interconnect model.
    pub duration: f64,
    /// Consuming node (pin the task to this node's NIC lanes).
    pub node: usize,
    /// Bytes moved.
    pub bytes: u64,
}

/// Per-tile copy tracking plus transfer accounting.
pub struct Coherence {
    /// For each tile: which nodes hold a valid copy, and under which
    /// DataId (the home node maps to the tile's own id, consumers to
    /// ghost ids). Cleared on write.
    valid: HashMap<DataId, HashMap<usize, DataId>>,
    next_ghost: u64,
    transfers: u64,
    transfer_bytes: u64,
    node_transfers: Vec<u64>,
    node_bytes: Vec<u64>,
}

impl Coherence {
    /// Fresh state for `nodes` nodes; ghost tiles are allocated upward
    /// from `ghost_base`, which must be above every DataId the driver
    /// will submit.
    pub fn new(nodes: usize, ghost_base: u64) -> Self {
        Coherence {
            valid: HashMap::new(),
            next_ghost: ghost_base,
            transfers: 0,
            transfer_bytes: 0,
            node_transfers: vec![0; nodes],
            node_bytes: vec![0; nodes],
        }
    }

    /// Resolve one compute task's owner-annotated accesses on `node`:
    /// returns the final access list (remote reads gain a ghost read) and
    /// the transfers to submit *before* the compute task, in access order.
    /// Writes must be local (owner-computes) and invalidate every remote
    /// copy of their tile.
    pub fn plan_compute(
        &mut self,
        node: usize,
        accesses: &[(Access, usize)],
        interconnect: &dyn Interconnect,
    ) -> (Vec<Access>, Vec<TransferPlan>) {
        let mut acc = Vec::with_capacity(accesses.len());
        let mut xfers = Vec::new();
        for (a, home) in accesses {
            if a.mode.writes() {
                assert_eq!(
                    *home, node,
                    "owner-computes violated: write to a tile of node {home} \
                     submitted on node {node}"
                );
                acc.push(*a);
            } else if *home == node {
                acc.push(*a);
            } else {
                let ghost = self.ensure_copy(a, *home, node, interconnect, &mut xfers);
                // Keep the home-tile read (WaR edge against the next
                // writer) and add the ghost read (RaW edge after the
                // transfer).
                acc.push(*a);
                acc.push(Access::read(ghost).with_bytes(a.bytes));
            }
        }
        // A write supersedes every remote copy: later readers must fetch
        // the new version.
        for (a, home) in accesses {
            if a.mode.writes() {
                let m = self.valid.entry(a.data).or_default();
                m.clear();
                m.insert(*home, a.data);
            }
        }
        (acc, xfers)
    }

    /// Get `node` a valid copy of the tile behind `a`, planning a transfer
    /// if it does not have one. Returns the DataId the consumer should
    /// read (a ghost id for fetched copies).
    fn ensure_copy(
        &mut self,
        a: &Access,
        home: usize,
        node: usize,
        interconnect: &dyn Interconnect,
        xfers: &mut Vec<TransferPlan>,
    ) -> DataId {
        {
            let m = self.valid.entry(a.data).or_default();
            if m.is_empty() {
                // First sighting: the initial version lives at home.
                m.insert(home, a.data);
            }
            if let Some(&copy) = m.get(&node) {
                return copy;
            }
        }
        let ghost = DataId(self.next_ghost);
        self.next_ghost += 1;
        xfers.push(TransferPlan {
            accesses: vec![
                Access::read(a.data).with_bytes(a.bytes),
                Access::write(ghost).with_bytes(a.bytes),
            ],
            duration: interconnect.transfer_seconds(a.bytes),
            node,
            bytes: a.bytes,
        });
        self.transfers += 1;
        self.transfer_bytes += a.bytes;
        self.node_transfers[node] += 1;
        self.node_bytes[node] += a.bytes;
        self.valid
            .get_mut(&a.data)
            .expect("entry created above")
            .insert(node, ghost);
        ghost
    }

    /// Drop every copy held by `node` (permanent node failure): a later
    /// reader re-fetches from home.
    pub fn drop_node(&mut self, node: usize) {
        for copies in self.valid.values_mut() {
            copies.remove(&node);
        }
    }

    /// Transfers planned so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total bytes moved by planned transfers.
    pub fn transfer_bytes(&self) -> u64 {
        self.transfer_bytes
    }

    /// Per-node inbound transfer counts.
    pub fn node_transfers(&self) -> &[u64] {
        &self.node_transfers
    }

    /// Per-node inbound transfer bytes.
    pub fn node_bytes(&self) -> &[u64] {
        &self.node_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::{Hockney, ZeroCost};

    #[test]
    fn remote_read_plans_one_transfer_and_reuses_copies() {
        let mut c = Coherence::new(2, 100);
        let d0 = DataId(0);
        // Producer writes on node 0.
        let (acc, x) = c.plan_compute(0, &[(Access::read_write(d0), 0)], &ZeroCost);
        assert_eq!(acc.len(), 1);
        assert!(x.is_empty());
        // First consumer on node 1 fetches.
        let (acc, x) = c.plan_compute(
            1,
            &[(Access::read(d0), 0), (Access::read_write(DataId(1)), 1)],
            &ZeroCost,
        );
        assert_eq!(x.len(), 1);
        assert_eq!(x[0].node, 1);
        assert_eq!(acc.len(), 3, "home read + ghost read + local write");
        // Second consumer on node 1 reuses the copy.
        let (_, x) = c.plan_compute(
            1,
            &[(Access::read(d0), 0), (Access::read_write(DataId(2)), 1)],
            &ZeroCost,
        );
        assert!(x.is_empty());
        assert_eq!(c.transfers(), 1);
        // A rewrite at home invalidates: next read refetches.
        c.plan_compute(0, &[(Access::read_write(d0), 0)], &ZeroCost);
        let (_, x) = c.plan_compute(
            1,
            &[(Access::read(d0), 0), (Access::read_write(DataId(1)), 1)],
            &ZeroCost,
        );
        assert_eq!(x.len(), 1);
        assert_eq!(c.transfers(), 2);
    }

    #[test]
    fn bytes_and_durations_come_from_the_interconnect() {
        let mut c = Coherence::new(2, 100);
        let d0 = DataId(0);
        c.plan_compute(
            0,
            &[(Access::read_write(d0).with_bytes(1_000_000), 0)],
            &ZeroCost,
        );
        let (_, x) = c.plan_compute(
            1,
            &[
                (Access::read(d0).with_bytes(1_000_000), 0),
                (Access::read_write(DataId(1)), 1),
            ],
            &Hockney::new(0.5, 1e6),
        );
        assert_eq!(x.len(), 1);
        assert_eq!(x[0].bytes, 1_000_000);
        assert!((x[0].duration - 1.5).abs() < 1e-12);
        assert_eq!(c.node_bytes(), &[0, 1_000_000]);
    }

    #[test]
    #[should_panic(expected = "owner-computes violated")]
    fn remote_write_is_rejected() {
        let mut c = Coherence::new(2, 10);
        c.plan_compute(1, &[(Access::write(DataId(0)), 0)], &ZeroCost);
    }

    #[test]
    fn drop_node_forces_refetch() {
        let mut c = Coherence::new(2, 100);
        let d0 = DataId(0);
        c.plan_compute(0, &[(Access::read_write(d0), 0)], &ZeroCost);
        c.plan_compute(
            1,
            &[(Access::read(d0), 0), (Access::read_write(DataId(1)), 1)],
            &ZeroCost,
        );
        assert_eq!(c.transfers(), 1);
        c.drop_node(1);
        let (_, x) = c.plan_compute(
            1,
            &[(Access::read(d0), 0), (Access::read_write(DataId(2)), 1)],
            &ZeroCost,
        );
        assert_eq!(x.len(), 1, "dropped copy must refetch");
    }
}
