//! The sweep executor: a shared work queue drained by scoped host
//! threads.
//!
//! Cells are independent simulations, so the pool is trivial: one atomic
//! next-cell index, `jobs` scoped threads each looping "claim a cell, run
//! it, append the result locally", and a final merge + sort by cell id.
//! The sorted merge makes the report independent of which thread ran
//! which cell — the determinism-across-`--jobs` guarantee. Each cell
//! builds its own [`supersim_core::SimSession`] over the sweep's shared read-only model
//! database; sessions own their clock, trace recorder, and counters, so
//! N cells in flight never cross-talk (DESIGN.md §10).

use super::report::{CellResult, SweepReport};
use super::{CellSpec, SweepSpec};
use crate::scenario::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use supersim_cluster::TRANSFER_LABEL;
use supersim_tile::flops;
use supersim_trace::fault::base_kernel;
use supersim_trace::Trace;

/// The result of one sweep invocation. Wall-clock timing lives here, not
/// in [`SweepReport`]: the serialized report must stay byte-identical
/// across runs.
pub struct SweepOutcome {
    /// The merged, deterministically ordered report.
    pub report: SweepReport,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Host threads used.
    pub jobs: usize,
    /// Aggregate of every cell session's published instruments, merged
    /// across cells (counters sum, histograms merge bucket-wise). Not
    /// deterministic — latency histograms sample wall time — which is
    /// exactly why it is separate from `report`.
    #[cfg(feature = "metrics")]
    pub metrics: supersim_metrics::MetricsSnapshot,
}

impl SweepOutcome {
    /// Cells executed per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        self.report.cells_total as f64 / self.wall_seconds.max(1e-12)
    }
}

impl SweepSpec {
    /// Execute the matrix on `jobs` host threads (0 = the host's
    /// available parallelism) and merge the results. The report is
    /// identical for every `jobs` value; only `wall_seconds` differs.
    pub fn run(&self, jobs: usize) -> SweepOutcome {
        let cells = self.cells();
        let bank = self.model_bank();
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        // No point spinning up more threads than cells.
        let jobs = jobs.min(cells.len()).max(1);

        let started = std::time::Instant::now();
        let next = AtomicUsize::new(0);
        let merged: Mutex<Vec<CellResult>> = Mutex::new(Vec::with_capacity(cells.len()));
        #[cfg(feature = "metrics")]
        let metrics: Mutex<supersim_metrics::MetricsSnapshot> =
            Mutex::new(supersim_metrics::MetricsSnapshot::default());
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    #[cfg(feature = "metrics")]
                    let mut local_metrics = supersim_metrics::MetricsSnapshot::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        // The cell's private session over the shared model
                        // database, kept so its metrics can be published.
                        let models = bank.for_nb(cell.scenario.tile_size_of());
                        let scenario = cell.scenario.clone().models_shared(models);
                        let session = scenario.fresh_session(false);
                        local.push(run_cell(cell, scenario.session(session.clone())));
                        #[cfg(feature = "metrics")]
                        session.publish_metrics(&mut local_metrics);
                    }
                    merged.lock().unwrap().append(&mut local);
                    #[cfg(feature = "metrics")]
                    metrics.lock().unwrap().merge(&local_metrics);
                });
            }
        });
        let results = merged.into_inner().unwrap();
        assert_eq!(results.len(), cells.len(), "every cell must report");

        SweepOutcome {
            report: SweepReport::assemble(results, self.autotune.as_deref()),
            wall_seconds: started.elapsed().as_secs_f64(),
            jobs,
            #[cfg(feature = "metrics")]
            metrics: metrics.into_inner().unwrap(),
        }
    }
}

fn transfer_spans(trace: &Trace) -> u64 {
    trace
        .spans()
        .iter()
        .filter(|e| base_kernel(&e.kernel) == TRANSFER_LABEL)
        .count() as u64
}

/// Execute one cell's `scenario` (the cell's own, with its session
/// attached) and flatten the terminal's result into a [`CellResult`].
/// Traces are dropped here — a thousand-cell sweep keeps numbers, not
/// schedules.
fn run_cell(cell: &CellSpec, scenario: Scenario) -> CellResult {
    let (n, nb) = (scenario.matrix_order(), scenario.tile_size_of());
    let (algorithm, faulted) = (scenario.algorithm, !scenario.faults.is_empty());
    let nodes = scenario.cluster.as_ref().map_or(0, |c| c.nodes);
    let mut result = CellResult {
        id: cell.id,
        algorithm: algorithm.name().to_string(),
        n,
        nb,
        scheduler: if nodes > 0 {
            "pinned".to_string()
        } else {
            scenario.scheduler.name().to_string()
        },
        workers: scenario.workers,
        nodes,
        interconnect: cell.interconnect.unwrap_or("-").to_string(),
        plan: cell.plan_name.clone(),
        seed: scenario.seed,
        backend: scenario.backend.name().to_string(),
        tasks: 0,
        makespan: 0.0,
        gflops: 0.0,
        transfers: 0,
        transfer_bytes: 0,
        slowdown: 1.0,
        retries: 0,
        restarted_tasks: 0,
        degradation: None,
    };

    if faulted {
        let outcome = scenario.run_faults();
        result.tasks = outcome.trace.len() as u64;
        result.makespan = outcome.faulted_makespan;
        result.gflops = flops::gflops(algorithm.flops(n), outcome.faulted_makespan);
        result.transfers = transfer_spans(&outcome.trace);
        // The faulted path surfaces a trace, not the coherence engine's
        // byte ledger, so bytes are reconstructed from the transfer span
        // count: one full tile each (exact whenever nb divides n, as in
        // tile-count-driven matrices).
        result.transfer_bytes = result.transfers * (nb * nb * 8) as u64;
        result.slowdown = outcome.report.slowdown;
        result.retries = outcome.report.retries;
        result.restarted_tasks = outcome.report.restarted_tasks;
        result.degradation = Some(outcome.report);
    } else if nodes > 0 {
        let run = scenario.run_cluster();
        result.tasks = run.trace.len() as u64;
        result.makespan = run.predicted_seconds;
        result.gflops = run.gflops;
        result.transfers = run.transfers;
        result.transfer_bytes = run.transfer_bytes;
    } else {
        let run = scenario.run_sim();
        result.tasks = run.trace.len() as u64;
        result.makespan = run.predicted_seconds;
        result.gflops = run.gflops;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Algorithm;
    use crate::sweep::FaultPlanSpec;
    use supersim_runtime::SchedulerKind;

    fn small_spec() -> SweepSpec {
        SweepSpec {
            tile_counts: vec![4],
            tile_sizes: vec![12],
            worker_counts: vec![3],
            seeds: vec![1, 2],
            plans: vec![
                FaultPlanSpec::clean(),
                FaultPlanSpec::preset("transient").unwrap(),
            ],
            node_counts: vec![0, 2],
            ..SweepSpec::default()
        }
    }

    /// The acceptance-criterion core: the merged report is byte-for-byte
    /// identical across runs and across `--jobs` values.
    #[test]
    fn report_is_identical_across_jobs() {
        let spec = small_spec();
        let one = spec.run(1);
        let four = spec.run(4);
        assert_eq!(one.report.to_json(), four.report.to_json());
        assert_eq!(one.report.to_csv(), four.report.to_csv());
        assert_eq!(one.report.counts(), four.report.counts());
        assert_eq!(one.jobs, 1);
    }

    #[test]
    fn faulted_cells_carry_degradation_reports() {
        let spec = small_spec();
        let outcome = spec.run(2);
        let cells = &outcome.report.cells;
        assert_eq!(cells.len(), 2 * 2 * 2);
        for c in cells {
            if c.plan == "clean" {
                assert!(c.degradation.is_none());
                assert_eq!(c.slowdown, 1.0);
            } else {
                let report = c.degradation.as_ref().expect("faulted cell report");
                assert_eq!(c.slowdown, report.slowdown);
                assert!(c.retries > 0, "transient preset must retry: cell {}", c.id);
            }
            if c.nodes > 0 {
                assert!(c.transfers > 0, "cluster cell moves tiles: cell {}", c.id);
            }
            assert!(c.makespan > 0.0);
        }
    }

    #[test]
    fn mixed_backends_share_one_report() {
        let spec = SweepSpec {
            tile_counts: vec![4],
            tile_sizes: vec![12],
            worker_counts: vec![3],
            schedulers: vec![SchedulerKind::Quark, SchedulerKind::StarPu],
            backend: None,
            ..SweepSpec::default()
        };
        let outcome = spec.run(2);
        let backends: Vec<&str> = outcome
            .report
            .cells
            .iter()
            .map(|c| c.backend.as_str())
            .collect();
        assert_eq!(backends, vec!["des", "threaded"]);
    }

    #[test]
    fn autotune_section_reports_argmin_over_the_matrix() {
        let spec = SweepSpec {
            algorithms: vec![Algorithm::Cholesky],
            orders: vec![96],
            tile_sizes: vec![12, 24, 48],
            worker_counts: vec![3],
            seeds: vec![1, 2, 3],
            autotune: Some("nb".to_string()),
            ..SweepSpec::default()
        };
        let outcome = spec.run(2);
        let tune = outcome.report.autotune.as_ref().expect("autotune section");
        assert_eq!(tune.groups.len(), 3);
        assert!(tune.groups.iter().all(|g| g.cells == 3));
        let best = tune
            .groups
            .iter()
            .min_by(|a, b| a.mean_makespan.total_cmp(&b.mean_makespan))
            .unwrap();
        assert_eq!(tune.best, best.value);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn merged_metrics_cover_every_cell() {
        let spec = SweepSpec {
            tile_counts: vec![4],
            tile_sizes: vec![12],
            worker_counts: vec![3],
            seeds: vec![1, 2, 3, 4],
            ..SweepSpec::default()
        };
        let outcome = spec.run(2);
        // 4 DES cells, one replay run each: per-session counters merged
        // across cells must sum exactly (a process-global counter could
        // not be attributed per invocation).
        assert_eq!(outcome.metrics.counter("des.replay.runs"), Some(4));
        let tasks: u64 = outcome.report.cells.iter().map(|c| c.tasks).sum();
        assert_eq!(outcome.metrics.counter("des.replay.tasks"), Some(tasks));
        assert_eq!(
            outcome.metrics.counter("trace.events.recorded"),
            Some(tasks)
        );
    }
}
