//! Cluster shape: nodes, per-node workers, per-node NIC lanes, memory.

/// Description of the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Compute workers per node.
    pub workers_per_node: usize,
    /// Communication lanes per node: how many transfers a node's NIC can
    /// have in flight concurrently in virtual time. 1 serializes (shared
    /// link), larger values cost each message independently.
    pub nic_lanes_per_node: usize,
    /// Memory per node in bytes (0 = unlimited). Advisory: drivers report
    /// per-node data footprints against it.
    pub mem_bytes_per_node: u64,
}

/// What a global worker index means inside a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Compute worker `slot` of `node`.
    Compute { node: usize, slot: usize },
    /// NIC lane `slot` of `node`.
    Nic { node: usize, slot: usize },
}

impl ClusterSpec {
    /// A cluster of `nodes` x `workers_per_node`, one NIC lane per node,
    /// unlimited memory.
    pub fn new(nodes: usize, workers_per_node: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(workers_per_node > 0, "nodes need at least one worker");
        ClusterSpec {
            nodes,
            workers_per_node,
            nic_lanes_per_node: 1,
            mem_bytes_per_node: 0,
        }
    }

    /// Set the per-node NIC lane count.
    pub fn with_nic_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "nodes need at least one NIC lane");
        self.nic_lanes_per_node = lanes;
        self
    }

    /// Total compute workers across all nodes.
    pub fn total_compute_workers(&self) -> usize {
        self.nodes * self.workers_per_node
    }

    /// Total runtime workers: every compute worker, then every NIC lane.
    /// Compute workers occupy global indices `[0, nodes*W)`; NIC lanes
    /// follow at `nodes*W + node*L + slot`.
    pub fn total_workers(&self) -> usize {
        self.nodes * (self.workers_per_node + self.nic_lanes_per_node)
    }

    /// Half-open global worker range of `node`'s compute workers.
    pub fn compute_range(&self, node: usize) -> (usize, usize) {
        assert!(node < self.nodes, "node {node} out of range");
        let lo = node * self.workers_per_node;
        (lo, lo + self.workers_per_node)
    }

    /// Half-open global worker range of `node`'s NIC lanes.
    pub fn nic_range(&self, node: usize) -> (usize, usize) {
        assert!(node < self.nodes, "node {node} out of range");
        let lo = self.nodes * self.workers_per_node + node * self.nic_lanes_per_node;
        (lo, lo + self.nic_lanes_per_node)
    }

    /// Classify a global worker index.
    pub fn lane_of(&self, worker: usize) -> Lane {
        let compute = self.nodes * self.workers_per_node;
        if worker < compute {
            Lane::Compute {
                node: worker / self.workers_per_node,
                slot: worker % self.workers_per_node,
            }
        } else {
            let k = worker - compute;
            assert!(
                k < self.nodes * self.nic_lanes_per_node,
                "worker {worker} out of range"
            );
            Lane::Nic {
                node: k / self.nic_lanes_per_node,
                slot: k % self.nic_lanes_per_node,
            }
        }
    }

    /// Human-readable lane label per global worker index
    /// (`n0.w3`, `n1.nic0`, ...), for trace rendering.
    pub fn lane_names(&self) -> Vec<String> {
        (0..self.total_workers())
            .map(|w| match self.lane_of(w) {
                Lane::Compute { node, slot } => format!("n{node}.w{slot}"),
                Lane::Nic { node, slot } => format!("n{node}.nic{slot}"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_layout_is_compute_then_nic() {
        let s = ClusterSpec::new(2, 3).with_nic_lanes(2);
        assert_eq!(s.total_compute_workers(), 6);
        assert_eq!(s.total_workers(), 10);
        assert_eq!(s.compute_range(0), (0, 3));
        assert_eq!(s.compute_range(1), (3, 6));
        assert_eq!(s.nic_range(0), (6, 8));
        assert_eq!(s.nic_range(1), (8, 10));
    }

    #[test]
    fn lane_of_roundtrips() {
        let s = ClusterSpec::new(2, 3).with_nic_lanes(2);
        assert_eq!(s.lane_of(0), Lane::Compute { node: 0, slot: 0 });
        assert_eq!(s.lane_of(4), Lane::Compute { node: 1, slot: 1 });
        assert_eq!(s.lane_of(6), Lane::Nic { node: 0, slot: 0 });
        assert_eq!(s.lane_of(9), Lane::Nic { node: 1, slot: 1 });
    }

    #[test]
    fn lane_names_cover_all_workers() {
        let s = ClusterSpec::new(2, 2).with_nic_lanes(1);
        let names = s.lane_names();
        assert_eq!(
            names,
            vec!["n0.w0", "n0.w1", "n1.w0", "n1.w1", "n0.nic0", "n1.nic0"]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_bounds_checked() {
        ClusterSpec::new(2, 2).compute_range(2);
    }
}
