//! Offline list-scheduling simulation of a task DAG, run on the replay
//! loop: the graph's dependences become one data region per task, each
//! task writing its own and reading its predecessors', so the scheduling
//! core derives exactly the graph's edges.

use crate::replay::{ReplayBody, ReplayEngine, ReplayTask};
use supersim_core::{ModelRegistry, SimConfig, SimSession};
use supersim_dag::critical_path::bottom_levels;
use supersim_dag::{Access, DataId, TaskGraph, TaskId};
use supersim_runtime::policy::{CentralFifo, Policy, PriorityQueue};
use supersim_runtime::RuntimeConfig;
use supersim_trace::{NameTable, Trace};

/// Ready-task ordering policy of the offline simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesPolicy {
    /// FIFO by task id (submission order) — mirrors a central FIFO runtime.
    Fifo,
    /// Highest bottom-level first (critical-path list scheduling / HEFT-
    /// style priority).
    BottomLevel,
}

/// Result of an offline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DesResult {
    /// The simulated schedule as a trace (virtual time).
    pub trace: Trace,
    /// Predicted makespan.
    pub makespan: f64,
    /// Tasks simulated.
    pub tasks: u64,
    /// Events processed by the event loop.
    pub events: u64,
}

/// Simulate greedy list scheduling of `graph` on `workers` identical
/// workers. `duration(task)` supplies each task's duration, called once
/// per task in id order — pass `|t| graph.node(t).weight` for
/// weight-based runs or close over sampled values for stochastic ones.
///
/// # Panics
///
/// If `workers` is zero, or an edge of `graph` points from a later task
/// to an earlier one: the graph is replayed in submission order, as every
/// [`supersim_dag::DagBuilder`] graph is built.
pub fn simulate(
    graph: &TaskGraph,
    workers: usize,
    policy: DesPolicy,
    mut duration: impl FnMut(TaskId) -> f64,
) -> DesResult {
    assert!(workers > 0, "need at least one worker");
    let n = graph.len();
    // Under BottomLevel a task's priority is minus its rank in (bottom
    // level descending, id ascending): unique, so no tie is left to the
    // queue.
    let mut priority = vec![0i64; n];
    let queue: Box<dyn Policy> = match policy {
        DesPolicy::Fifo => Box::new(CentralFifo::default()),
        DesPolicy::BottomLevel => {
            let bl = bottom_levels(graph);
            let mut order: Vec<TaskId> = (0..n).collect();
            order.sort_by(|&a, &b| bl[b].total_cmp(&bl[a]).then(a.cmp(&b)));
            for (rank, t) in order.into_iter().enumerate() {
                priority[t] = -(rank as i64);
            }
            Box::new(PriorityQueue::default())
        }
    };
    // The graph's labels as shared names, each distinct string made once.
    let mut names = NameTable::new();
    let tasks = (0..n).map(move |t| {
        let preds = graph.predecessors(t);
        let mut accesses = Vec::with_capacity(preds.len() + 1);
        accesses.push(Access::write(DataId(t as u64)));
        for &p in preds {
            assert!(
                p < t,
                "edge {p}->{t} points backwards: not a submission-order graph"
            );
            accesses.push(Access::read(DataId(p as u64)));
        }
        ReplayTask {
            label: names.intern(&graph.node(t).label),
            accesses,
            priority: priority[t],
            pin: None,
            body: ReplayBody::Fixed {
                duration: duration(t).max(0.0),
            },
        }
    });
    // An unbounded window: the whole graph is submitted before the first
    // dispatch, as an offline scheduler sees it.
    let config = RuntimeConfig::simple(workers);
    let session = SimSession::new(ModelRegistry::new(), SimConfig::default());
    let out = ReplayEngine::with_policy(&config, session.clone(), queue).run(tasks);
    let mut trace = session.finish_trace(workers);
    trace.normalize();

    // End-of-run totals ride on the result itself: no process-global
    // registry writes, so concurrent simulations never cross-talk.
    DesResult {
        trace,
        makespan: out.makespan,
        tasks: n as u64,
        events: out.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_dag::{Access, DagBuilder, DataId};

    fn weight_of(g: &TaskGraph) -> impl FnMut(TaskId) -> f64 + '_ {
        |t| g.node(t).weight
    }

    fn chain(n: usize, w: f64) -> TaskGraph {
        let mut b = DagBuilder::new();
        for i in 0..n {
            b.submit(&format!("t{i}"), w, &[Access::read_write(DataId(0))]);
        }
        b.finish()
    }

    #[test]
    fn chain_makespan_is_sum() {
        let g = chain(5, 2.0);
        let r = simulate(&g, 4, DesPolicy::Fifo, weight_of(&g));
        assert_eq!(r.makespan, 10.0);
        assert!(r.trace.validate(1e-12).is_ok());
    }

    #[test]
    fn independent_tasks_pack_perfectly() {
        let mut b = DagBuilder::new();
        for i in 0..6 {
            b.submit("t", 1.0, &[Access::write(DataId(i))]);
        }
        let g = b.finish();
        let r = simulate(&g, 3, DesPolicy::Fifo, weight_of(&g));
        assert_eq!(r.makespan, 2.0);
        // All workers used.
        let stats = supersim_trace::TraceStats::of(&r.trace);
        assert!(stats.per_worker_count.iter().all(|&c| c == 2));
    }

    #[test]
    fn respects_dependences() {
        // diamond: 0 -> {1,2} -> 3.
        let mut b = DagBuilder::new();
        b.submit("s", 1.0, &[Access::write(DataId(0))]);
        b.submit(
            "l",
            5.0,
            &[Access::read(DataId(0)), Access::write(DataId(1))],
        );
        b.submit(
            "r",
            2.0,
            &[Access::read(DataId(0)), Access::write(DataId(2))],
        );
        b.submit(
            "j",
            1.0,
            &[Access::read(DataId(1)), Access::read(DataId(2))],
        );
        let g = b.finish();
        let r = simulate(&g, 2, DesPolicy::Fifo, weight_of(&g));
        assert_eq!(r.makespan, 7.0); // 1 + max(5,2) + 1
        let sched: Vec<_> = r
            .trace
            .spans()
            .iter()
            .map(|e| supersim_dag::validate::ScheduledTask {
                task: e.task_id as usize,
                worker: e.worker,
                start: e.start,
                end: e.end,
            })
            .collect();
        assert!(supersim_dag::validate::validate_schedule(&g, &sched, 1e-9).is_ok());
    }

    #[test]
    fn bottom_level_beats_fifo_on_adversarial_graph() {
        // Two chains: a long chain (3 tasks of 2.0) and short independent
        // tasks submitted first. FIFO starts the short tasks and delays the
        // chain; bottom-level prioritizes the chain head.
        let mut b = DagBuilder::new();
        for i in 0..2 {
            b.submit("short", 2.0, &[Access::write(DataId(100 + i))]);
        }
        for _ in 0..3 {
            b.submit("chain", 2.0, &[Access::read_write(DataId(0))]);
        }
        let g = b.finish();
        let fifo = simulate(&g, 2, DesPolicy::Fifo, weight_of(&g));
        let blvl = simulate(&g, 2, DesPolicy::BottomLevel, weight_of(&g));
        assert!(blvl.makespan <= fifo.makespan);
        assert_eq!(blvl.makespan, 6.0); // chain on one worker, shorts on other
    }

    #[test]
    fn single_worker_serializes_everything() {
        let mut b = DagBuilder::new();
        for i in 0..4 {
            b.submit("t", 1.5, &[Access::write(DataId(i))]);
        }
        let g = b.finish();
        let r = simulate(&g, 1, DesPolicy::Fifo, weight_of(&g));
        assert_eq!(r.makespan, 6.0);
    }

    #[test]
    fn custom_duration_function() {
        let g = chain(3, 0.0);
        let mut i = 0;
        let r = simulate(&g, 1, DesPolicy::Fifo, |_| {
            i += 1;
            i as f64
        });
        assert_eq!(r.makespan, 6.0); // 1 + 2 + 3
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        let r = simulate(&g, 2, DesPolicy::Fifo, |_| 1.0);
        assert_eq!(r.makespan, 0.0);
        assert!(r.trace.is_empty());
    }

    #[test]
    fn zero_duration_tasks_complete() {
        let g = chain(3, 0.0);
        let r = simulate(&g, 2, DesPolicy::Fifo, |_| 0.0);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.trace.len(), 3);
    }

    #[test]
    #[should_panic(expected = "edge 1->0 points backwards")]
    fn a_backward_edge_is_refused() {
        let mut g = TaskGraph::new();
        for _ in 0..2 {
            g.add_node(supersim_dag::TaskNode {
                label: "t".into(),
                weight: 1.0,
                accesses: vec![],
            });
        }
        g.add_edge(1, 0);
        simulate(&g, 1, DesPolicy::Fifo, |_| 1.0);
    }

    #[test]
    fn run_totals_ride_on_the_result() {
        let g = chain(4, 1.0);
        let r = simulate(&g, 2, DesPolicy::Fifo, weight_of(&g));
        assert_eq!(r.tasks, 4);
        assert!(r.events >= 4, "at least one event per completed task");
    }
}
