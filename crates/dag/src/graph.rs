//! The task-graph structure.

use crate::access::Access;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Index of a task within a [`TaskGraph`] (submission order).
pub type TaskId = usize;

/// One vertex of the task graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskNode {
    /// Kernel-class label, e.g. `"geqrt"`.
    pub label: String,
    /// Expected duration (seconds); used as the weight for critical-path
    /// analysis and by the offline DES baseline. Zero if unknown.
    pub weight: f64,
    /// The task's data accesses (normalized: each region at most once).
    pub accesses: Vec<Access>,
}

/// A directed acyclic task graph with edge multiplicities.
///
/// Nodes are stored in submission order; edges always point from an earlier
/// task to a later one (guaranteed by the superscalar construction in
/// [`crate::build`]), so graphs built there are acyclic by construction.
/// Edge *multiplicity* counts how many distinct data dependences connect
/// the same task pair — Fig. 1 of the paper draws these as parallel edges.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    nodes: Vec<TaskNode>,
    succ: Vec<Vec<TaskId>>,
    pred: Vec<Vec<TaskId>>,
    /// Multiplicity per (from, to) pair.
    #[serde(with = "edge_map_serde")]
    multiplicity: BTreeMap<(TaskId, TaskId), u32>,
}

/// JSON map keys must be strings, so the multiplicity map round-trips as a
/// list of `(from, to, multiplicity)` triples.
mod edge_map_serde {
    use super::TaskId;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::BTreeMap;

    pub fn serialize<S: Serializer>(
        map: &BTreeMap<(TaskId, TaskId), u32>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        let v: Vec<(TaskId, TaskId, u32)> = map.iter().map(|(&(f, t), &m)| (f, t, m)).collect();
        v.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<BTreeMap<(TaskId, TaskId), u32>, D::Error> {
        let v: Vec<(TaskId, TaskId, u32)> = Vec::deserialize(de)?;
        Ok(v.into_iter().map(|(f, t, m)| ((f, t), m)).collect())
    }
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node, returning its id (submission order).
    pub fn add_node(&mut self, node: TaskNode) -> TaskId {
        self.nodes.push(node);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Add a dependence edge `from -> to`. Repeated edges raise the
    /// multiplicity but appear once in the adjacency lists.
    ///
    /// Panics if either id is out of range or `from == to`.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        assert!(
            from < self.nodes.len() && to < self.nodes.len(),
            "edge endpoint out of range"
        );
        assert_ne!(from, to, "self-dependence is not a hazard");
        let m = self.multiplicity.entry((from, to)).or_insert(0);
        *m += 1;
        if *m == 1 {
            self.succ[from].push(to);
            self.pred[to].push(from);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct edges (ignoring multiplicity).
    pub fn edge_count(&self) -> usize {
        self.multiplicity.len()
    }

    /// Total dependence count (sum of multiplicities).
    pub fn dependence_count(&self) -> u64 {
        self.multiplicity.values().map(|&m| m as u64).sum()
    }

    /// The node with id `id`.
    pub fn node(&self, id: TaskId) -> &TaskNode {
        &self.nodes[id]
    }

    /// All nodes in submission order.
    pub fn nodes(&self) -> &[TaskNode] {
        &self.nodes
    }

    /// Distinct successors of `id`.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succ[id]
    }

    /// Distinct predecessors of `id`.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.pred[id]
    }

    /// Multiplicity of the edge `from -> to` (0 if absent).
    pub fn edge_multiplicity(&self, from: TaskId, to: TaskId) -> u32 {
        self.multiplicity.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Iterate `(from, to, multiplicity)` in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId, u32)> + '_ {
        self.multiplicity.iter().map(|(&(f, t), &m)| (f, t, m))
    }

    /// Ids of tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        (0..self.len())
            .filter(|&i| self.pred[i].is_empty())
            .collect()
    }

    /// Ids of tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        (0..self.len())
            .filter(|&i| self.succ[i].is_empty())
            .collect()
    }

    /// Sum of all node weights (total work).
    pub fn total_weight(&self) -> f64 {
        self.nodes.iter().map(|n| n.weight).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(label: &str) -> TaskNode {
        TaskNode {
            label: label.into(),
            weight: 1.0,
            accesses: vec![],
        }
    }

    #[test]
    fn build_basic_graph() {
        let mut g = TaskGraph::new();
        let a = g.add_node(node("a"));
        let b = g.add_node(node("b"));
        let c = g.add_node(node("c"));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.successors(a), &[b, c]);
        assert_eq!(g.predecessors(c), &[a, b]);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![c]);
    }

    #[test]
    fn multiplicity_counts_parallel_edges() {
        let mut g = TaskGraph::new();
        let a = g.add_node(node("a"));
        let b = g.add_node(node("b"));
        g.add_edge(a, b);
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_multiplicity(a, b), 3);
        assert_eq!(g.dependence_count(), 3);
        assert_eq!(g.successors(a).len(), 1);
    }

    #[test]
    #[should_panic(expected = "self-dependence")]
    fn self_edge_panics() {
        let mut g = TaskGraph::new();
        let a = g.add_node(node("a"));
        g.add_edge(a, a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = TaskGraph::new();
        let a = g.add_node(node("a"));
        g.add_edge(a, 5);
    }

    #[test]
    fn total_weight_sums() {
        let mut g = TaskGraph::new();
        g.add_node(TaskNode {
            label: "x".into(),
            weight: 2.0,
            accesses: vec![],
        });
        g.add_node(TaskNode {
            label: "y".into(),
            weight: 3.5,
            accesses: vec![],
        });
        assert!((g.total_weight() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_deterministic() {
        let mut g = TaskGraph::new();
        let a = g.add_node(node("a"));
        let b = g.add_node(node("b"));
        let c = g.add_node(node("c"));
        g.add_edge(b, c);
        g.add_edge(a, b);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(a, b, 1), (b, c, 1)]);
    }

    #[test]
    fn serde_round_trip() {
        let mut g = TaskGraph::new();
        let a = g.add_node(node("a"));
        let b = g.add_node(node("b"));
        g.add_edge(a, b);
        let json = serde_json::to_string(&g).unwrap();
        let back: TaskGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
