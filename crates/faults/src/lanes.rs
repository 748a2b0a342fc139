//! The lane layout a plan is compiled against.
//!
//! The faults crate is deliberately independent of the cluster crate, so
//! the mapping from fault scopes (workers, nodes, NICs) to the flat lane
//! space of the simulated machine is passed in explicitly. Workload
//! drivers build it from their `ClusterSpec` (or from a plain worker
//! count for single-node runs).

use crate::plan::FaultScope;

/// One node's lane ranges in the flat lane space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLanes {
    /// Compute lanes `[lo, hi)`.
    pub compute: (usize, usize),
    /// NIC lanes `[lo, hi)` (empty for single-node machines).
    pub nic: (usize, usize),
}

/// Lane layout of the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMap {
    total: usize,
    nodes: Vec<NodeLanes>,
}

impl LaneMap {
    /// A single shared-memory node of `workers` lanes (no NICs).
    pub fn single_node(workers: usize) -> Self {
        LaneMap {
            total: workers,
            nodes: vec![NodeLanes {
                compute: (0, workers),
                nic: (workers, workers),
            }],
        }
    }

    /// A multi-node layout. `total` must cover every range.
    pub fn with_nodes(nodes: Vec<NodeLanes>, total: usize) -> Self {
        for n in &nodes {
            assert!(
                n.compute.1 <= total && n.nic.1 <= total,
                "lane out of range"
            );
            assert!(n.compute.0 <= n.compute.1 && n.nic.0 <= n.nic.1);
        }
        LaneMap { total, nodes }
    }

    /// Total lane count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node's lane ranges.
    pub fn node(&self, node: usize) -> NodeLanes {
        self.nodes[node]
    }

    /// Whether `scope` names a lane or node of this machine.
    pub fn contains(&self, scope: FaultScope) -> bool {
        match scope {
            FaultScope::Worker(w) => w < self.total,
            FaultScope::Node(n) => n < self.nodes.len(),
        }
    }

    /// Whether the machine can carry on after losing `scope` for good:
    /// one node of several, or a compute lane of a node that has another
    /// (a node's tasks are pinned to its own compute lanes; NIC lanes do
    /// not fail alone).
    pub fn survives(&self, scope: FaultScope) -> bool {
        match scope {
            FaultScope::Node(_) => self.nodes.len() > 1,
            FaultScope::Worker(w) => self.nodes.iter().any(|n| {
                let (lo, hi) = n.compute;
                (lo..hi).contains(&w) && hi - lo > 1
            }),
        }
    }

    /// All lanes a scope covers: one lane for a worker scope, compute +
    /// NIC lanes for a node scope.
    pub fn lanes_of(&self, scope: FaultScope) -> Vec<usize> {
        match scope {
            FaultScope::Worker(w) => {
                assert!(w < self.total, "worker {w} outside the lane space");
                vec![w]
            }
            FaultScope::Node(n) => {
                let nl = self.node(n);
                (nl.compute.0..nl.compute.1)
                    .chain(nl.nic.0..nl.nic.1)
                    .collect()
            }
        }
    }

    /// A node's NIC lanes.
    pub fn nic_lanes(&self, node: usize) -> Vec<usize> {
        let nl = self.node(node);
        (nl.nic.0..nl.nic.1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_covers_workers_only() {
        let m = LaneMap::single_node(4);
        assert_eq!(m.total(), 4);
        assert_eq!(m.lanes_of(FaultScope::Worker(2)), vec![2]);
        assert_eq!(m.lanes_of(FaultScope::Node(0)), vec![0, 1, 2, 3]);
        assert!(m.nic_lanes(0).is_empty());
    }

    #[test]
    fn multi_node_scopes_cover_compute_and_nic() {
        // 2 nodes x 2 workers, then 1 NIC lane each: lanes 4 and 5.
        let m = LaneMap::with_nodes(
            vec![
                NodeLanes {
                    compute: (0, 2),
                    nic: (4, 5),
                },
                NodeLanes {
                    compute: (2, 4),
                    nic: (5, 6),
                },
            ],
            6,
        );
        assert_eq!(m.lanes_of(FaultScope::Node(1)), vec![2, 3, 5]);
        assert_eq!(m.nic_lanes(0), vec![4]);
    }
}
