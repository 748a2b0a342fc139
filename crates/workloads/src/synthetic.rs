//! Synthetic DAG workloads: chains, fork-join, and random layered graphs.
//!
//! Used by stress tests, the offline-DES comparison, and the ablation
//! benches — workload shapes where the analytic makespan is known or where
//! the DAG shape can be swept independently of linear algebra.

use crate::mode::ExecMode;
use rand::{Rng, SeedableRng};
use supersim_dag::{Access, DagBuilder, DataId, TaskGraph};
use supersim_runtime::{Runtime, TaskDesc};
use supersim_trace::NameTable;

/// One synthetic task: a label, a duration hint (used as DAG weight and by
/// busy-wait real mode), and its accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthTask {
    /// Kernel-class label.
    pub label: String,
    /// Nominal duration in (virtual) seconds.
    pub duration: f64,
    /// Data accesses.
    pub accesses: Vec<Access>,
}

/// A serial chain of `n` tasks (no parallelism; makespan = sum of
/// durations).
pub fn chain(n: usize, duration: f64) -> Vec<SynthTask> {
    (0..n)
        .map(|_| SynthTask {
            label: "link".to_string(),
            duration,
            accesses: vec![Access::read_write(DataId(0))],
        })
        .collect()
}

/// Fork-join: a source, `width` independent middle tasks, a sink.
pub fn fork_join(width: usize, duration: f64) -> Vec<SynthTask> {
    let mut tasks = Vec::with_capacity(width + 2);
    tasks.push(SynthTask {
        label: "fork".to_string(),
        duration,
        accesses: vec![Access::write(DataId(0))],
    });
    for i in 0..width {
        tasks.push(SynthTask {
            label: "mid".to_string(),
            duration,
            accesses: vec![Access::read(DataId(0)), Access::write(DataId(1 + i as u64))],
        });
    }
    tasks.push(SynthTask {
        label: "join".to_string(),
        duration,
        accesses: (0..width)
            .map(|i| Access::read(DataId(1 + i as u64)))
            .collect(),
    });
    tasks
}

/// Random layered DAG: `layers` layers of `width` tasks; each task reads
/// `fan_in` random outputs of the previous layer and writes its own output.
/// Durations are uniform in `[0.5, 1.5) * base_duration`. Deterministic in
/// `seed`.
pub fn layered(
    layers: usize,
    width: usize,
    fan_in: usize,
    base_duration: f64,
    seed: u64,
) -> Vec<SynthTask> {
    assert!(
        layers > 0 && width > 0,
        "layered DAG needs positive dimensions"
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut tasks = Vec::with_capacity(layers * width);
    let out_id = |layer: usize, slot: usize| DataId((layer * width + slot) as u64);
    for layer in 0..layers {
        for slot in 0..width {
            let mut accesses = vec![Access::write(out_id(layer, slot))];
            if layer > 0 {
                for _ in 0..fan_in.min(width) {
                    let src = rng.random_range(0..width);
                    accesses.push(Access::read(out_id(layer - 1, src)));
                }
            }
            let duration = base_duration * (0.5 + rng.random::<f64>());
            tasks.push(SynthTask {
                label: format!("l{layer}"),
                duration,
                accesses,
            });
        }
    }
    tasks
}

/// Build the explicit [`TaskGraph`] of a synthetic task list (weights from
/// durations) — input to the offline DES and the analysis tools.
pub fn to_graph(tasks: &[SynthTask]) -> TaskGraph {
    let mut b = DagBuilder::new();
    for t in tasks {
        b.submit(&t.label, t.duration, &t.accesses);
    }
    b.finish()
}

/// Submit a synthetic task list to the runtime.
///
/// In [`ExecMode::Real`] each body busy-sleeps for its nominal duration
/// (scaled by `real_time_scale`, so tests can run a "1 second" virtual
/// workload in milliseconds); in simulated mode it runs the sim-kernel
/// protocol (the session must hold a model per label — see
/// [`models_for`]).
pub fn submit(rt: &Runtime, tasks: &[SynthTask], mode: &ExecMode, real_time_scale: f64) -> u64 {
    let mut names = NameTable::new();
    for task in tasks {
        let label = names.intern(&task.label);
        let desc = match mode {
            ExecMode::Real => {
                let dur = std::time::Duration::from_secs_f64(task.duration * real_time_scale);
                TaskDesc::new(label, task.accesses.clone(), move |_ctx| {
                    spin_sleep(dur);
                })
            }
            ExecMode::Simulated(session) => TaskDesc::new(
                label,
                task.accesses.clone(),
                session.planned_body(&task.label),
            ),
        };
        rt.submit(desc);
    }
    tasks.len() as u64
}

/// Build a model registry giving every distinct label a constant model
/// equal to the *mean* duration of its tasks.
pub fn models_for(tasks: &[SynthTask]) -> supersim_core::ModelRegistry {
    use std::collections::BTreeMap;
    let mut sums: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for t in tasks {
        let e = sums.entry(&t.label).or_insert((0.0, 0));
        e.0 += t.duration;
        e.1 += 1;
    }
    let mut reg = supersim_core::ModelRegistry::new();
    for (label, (sum, n)) in sums {
        reg.insert(label, supersim_core::KernelModel::constant(sum / n as f64));
    }
    reg
}

/// Sleep that is accurate for sub-millisecond durations (hybrid
/// sleep+spin); plain `thread::sleep` overshoots badly at that scale.
pub fn spin_sleep(dur: std::time::Duration) {
    let start = std::time::Instant::now();
    if dur > std::time::Duration::from_millis(2) {
        std::thread::sleep(dur - std::time::Duration::from_millis(1));
    }
    while start.elapsed() < dur {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_core::{SimConfig, SimSession};
    use supersim_dag::validate::is_acyclic;
    use supersim_runtime::RuntimeConfig;

    #[test]
    fn chain_graph_is_serial() {
        let g = to_graph(&chain(5, 1.0));
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 4);
        let p = supersim_dag::analysis::profile(&g);
        assert_eq!(p.depth, 5);
        assert_eq!(p.max_width, 1);
    }

    #[test]
    fn fork_join_graph_shape() {
        let g = to_graph(&fork_join(4, 1.0));
        assert_eq!(g.len(), 6);
        let p = supersim_dag::analysis::profile(&g);
        assert_eq!(p.depth, 3);
        assert_eq!(p.max_width, 4);
        assert!(is_acyclic(&g));
    }

    #[test]
    fn layered_graph_deterministic_and_acyclic() {
        let a = layered(4, 6, 2, 1.0, 99);
        let b = layered(4, 6, 2, 1.0, 99);
        assert_eq!(a, b);
        let g = to_graph(&a);
        assert!(is_acyclic(&g));
        assert_eq!(g.len(), 24);
    }

    #[test]
    fn simulated_chain_has_exact_makespan() {
        let tasks = chain(6, 0.5);
        let session = SimSession::new(models_for(&tasks), SimConfig::default());
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        submit(&rt, &tasks, &ExecMode::Simulated(session.clone()), 1.0);
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(session.virtual_now(), 3.0);
    }

    #[test]
    fn simulated_fork_join_matches_critical_path() {
        // 1 fork + max(mid) + 1 join with enough workers = 3 units.
        let tasks = fork_join(8, 1.0);
        let session = SimSession::new(models_for(&tasks), SimConfig::default());
        let rt = Runtime::new(RuntimeConfig::simple(8));
        session.attach_quiesce(rt.probe());
        submit(&rt, &tasks, &ExecMode::Simulated(session.clone()), 1.0);
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(session.virtual_now(), 3.0);
    }

    #[test]
    fn real_mode_busy_sleep_approximates_duration() {
        let tasks = chain(3, 0.01); // 30 ms total at scale 1
        let rt = Runtime::new(RuntimeConfig::simple(1));
        let t0 = std::time::Instant::now();
        submit(&rt, &tasks, &ExecMode::Real, 1.0);
        rt.seal();
        rt.wait_all().unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed >= 0.029, "elapsed {elapsed}");
        assert!(elapsed < 0.5, "elapsed {elapsed}");
    }

    #[test]
    fn models_for_averages_durations() {
        let tasks = vec![
            SynthTask {
                label: "x".into(),
                duration: 1.0,
                accesses: vec![],
            },
            SynthTask {
                label: "x".into(),
                duration: 3.0,
                accesses: vec![],
            },
        ];
        let reg = models_for(&tasks);
        assert_eq!(reg.expect("x").mean(), 2.0);
    }
}
