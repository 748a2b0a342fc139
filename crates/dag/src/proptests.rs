//! Property-based tests for the DAG layer.

#![cfg(test)]

use crate::access::{Access, AccessMode, DataId};
use crate::analysis::profile;
use crate::build::DagBuilder;
use crate::critical_path::{bottom_levels, critical_path, top_levels};
use crate::validate::{is_acyclic, topological_sort};
use proptest::prelude::*;

fn access_strategy() -> impl Strategy<Value = Access> {
    (0u64..8, 0u8..3).prop_map(|(d, m)| Access {
        data: DataId(d),
        mode: match m {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => AccessMode::ReadWrite,
        },
        bytes: 0,
    })
}

fn stream_strategy() -> impl Strategy<Value = Vec<Vec<Access>>> {
    prop::collection::vec(prop::collection::vec(access_strategy(), 1..4), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hazard analysis always yields an acyclic, forward-edged graph.
    #[test]
    fn built_graphs_are_acyclic(stream in stream_strategy()) {
        let mut b = DagBuilder::new();
        for (i, acc) in stream.iter().enumerate() {
            b.submit(&format!("t{i}"), 1.0, acc);
        }
        let g = b.finish();
        prop_assert!(is_acyclic(&g));
        for (f, t, m) in g.edges() {
            prop_assert!(f < t, "backward edge {f}->{t}");
            prop_assert!(m >= 1);
        }
        // Topological sort covers everything exactly once.
        let order = topological_sort(&g).unwrap();
        prop_assert_eq!(order.len(), g.len());
    }

    /// Every conflicting pair is ordered in the transitive closure.
    #[test]
    fn conflicts_always_ordered(stream in stream_strategy()) {
        let norm: Vec<Vec<Access>> =
            stream.iter().map(|a| crate::access::normalize_accesses(a)).collect();
        let mut b = DagBuilder::new();
        for (i, acc) in norm.iter().enumerate() {
            b.submit(&format!("t{i}"), 1.0, acc);
        }
        let g = b.finish();
        let n = g.len();
        let mut reach = vec![vec![false; n]; n];
        for s in (0..n).rev() {
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for &v in g.successors(u) {
                    if !reach[s][v] {
                        reach[s][v] = true;
                        stack.push(v);
                    }
                }
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let conflict = norm[i].iter().any(|a| {
                    norm[j].iter().any(|c| a.data == c.data && a.mode.conflicts_with(c.mode))
                });
                if conflict {
                    prop_assert!(reach[i][j], "conflict ({i},{j}) unordered");
                }
            }
        }
    }

    /// Critical path is bounded by total work and is at least the heaviest
    /// single node; average parallelism is at least 1 for non-empty DAGs.
    #[test]
    fn critical_path_bounds(stream in stream_strategy(), weights in prop::collection::vec(0.01f64..10.0, 40)) {
        let mut b = DagBuilder::new();
        for (i, acc) in stream.iter().enumerate() {
            b.submit(&format!("t{i}"), weights[i % weights.len()], acc);
        }
        let g = b.finish();
        let cp = critical_path(&g);
        let total = g.total_weight();
        let heaviest = (0..g.len()).map(|i| g.node(i).weight).fold(0.0f64, f64::max);
        prop_assert!(cp.length <= total + 1e-9);
        prop_assert!(cp.length >= heaviest - 1e-9);
        let p = profile(&g);
        prop_assert!(p.avg_parallelism >= 1.0 - 1e-9);
        prop_assert!(p.depth <= g.len());
        prop_assert_eq!(p.width_profile.iter().sum::<usize>(), g.len());
    }

    /// Top+bottom level of any node never exceeds the critical path; the
    /// path reported actually achieves the reported length.
    #[test]
    fn levels_consistent(stream in stream_strategy()) {
        let mut b = DagBuilder::new();
        for (i, acc) in stream.iter().enumerate() {
            b.submit(&format!("t{i}"), 1.0 + (i % 3) as f64, acc);
        }
        let g = b.finish();
        let cp = critical_path(&g);
        let tl = top_levels(&g);
        let bl = bottom_levels(&g);
        for t in 0..g.len() {
            prop_assert!(tl[t] + bl[t] <= cp.length + 1e-9);
        }
        let path_weight: f64 = cp.path.iter().map(|&t| g.node(t).weight).sum();
        prop_assert!((path_weight - cp.length).abs() < 1e-9);
        // Path is actually a chain in the graph.
        for pair in cp.path.windows(2) {
            prop_assert!(g.edge_multiplicity(pair[0], pair[1]) > 0);
        }
    }

    /// DOT export mentions every node exactly once.
    #[test]
    fn dot_mentions_all_nodes(stream in stream_strategy()) {
        let mut b = DagBuilder::new();
        for (i, acc) in stream.iter().enumerate() {
            b.submit(&format!("t{i}"), 1.0, acc);
        }
        let g = b.finish();
        let dot = crate::dot::to_dot_default(&g);
        for i in 0..g.len() {
            prop_assert!(dot.contains(&format!("t{i} [label=")), "missing node {i}");
        }
    }
}
