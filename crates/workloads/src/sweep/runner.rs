//! The sweep executor: scenario groups drained from a shared work queue.
//!
//! The unit of work is a *scenario group*: one fault-free scenario plus
//! every fault plan swept over it. The expansion nests `plans` between
//! `interconnects` and `seeds`, so with P plans and S seeds the cells of
//! group `g` are `(g / S)·P·S + g % S + p·S` for `p < P`: arithmetic, no
//! hashing, no lock. A group draws every run from one pass table
//! (`faultsim::Passes`): its fault-free scenario runs once, as the result
//! of every fault-free cell (`clean`) and the baseline (`clean_makespan`,
//! `critical_lane_clean`) of every faulted one. Phase A of a permanent
//! failure is the run of the plan without its failure, shared, so a
//! `kill` cell costs only its phase B: K faulted single-event plans cost
//! 1 + K passes, a kill's being its phase B. Results merge by cell id.
//!
//! The pool is trivial: one atomic next-group index and `jobs` workers,
//! each looping "claim a group, run it, keep the results", then a merge +
//! sort by cell id. At `jobs == 1` the worker is the calling thread; only
//! more jobs spawn scoped threads. The sorted merge makes the report
//! independent of which thread ran which group — the
//! determinism-across-`--jobs` guarantee. Every run builds its own
//! [`supersim_core::SimSession`] over the sweep's shared read-only model
//! database; sessions own their clock, trace recorder, and counters, so N
//! runs in flight never cross-talk (DESIGN.md §10).

use super::report::{CellResult, SweepReport};
use super::{CellSpec, ModelBank, SweepSpec};
use crate::faultsim::Passes;
use std::sync::atomic::{AtomicUsize, Ordering};
use supersim_cluster::TRANSFER_LABEL;
use supersim_core::SimSession;
use supersim_faults::{DegradationReport, FaultPlan};
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
    /// Aggregate of every run's session instruments, merged across runs
    /// (counters sum, histograms merge bucket-wise). Not deterministic —
    /// latency histograms sample wall time — which is exactly why it is
    /// separate from `report`.
    #[cfg(feature = "metrics")]
    pub metrics: supersim_metrics::MetricsSnapshot,
}

impl SweepOutcome {
    /// Cells executed per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        self.report.cells_total as f64 / self.wall_seconds.max(1e-12)
    }
}

/// What one worker collected.
#[derive(Default)]
struct Collected {
    results: Vec<CellResult>,
    #[cfg(feature = "metrics")]
    metrics: supersim_metrics::MetricsSnapshot,
}

impl Collected {
    /// Fold a finished run's session instruments in.
    fn publish(&mut self, _session: &SimSession) {
        #[cfg(feature = "metrics")]
        _session.publish_metrics(&mut self.metrics);
    }
}

impl SweepSpec {
    /// Execute the matrix on `jobs` host threads (0 = the host's
    /// available parallelism) and merge the results. The report is
    /// identical for every `jobs` value; only `wall_seconds` differs.
    pub fn run(&self, jobs: usize) -> SweepOutcome {
        let cells = self.cells();
        let bank = self.model_bank();
        let (plans, seeds) = (self.plans.len(), self.seeds.len());
        let groups = cells.len() / plans;
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        // No point spinning up more threads than groups.
        let jobs = jobs.min(groups).max(1);

        let started = std::time::Instant::now();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut out = Collected {
                results: Vec::with_capacity(cells.len().div_ceil(jobs)),
                ..Collected::default()
            };
            loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                if g >= groups {
                    break out;
                }
                let first = g / seeds * plans * seeds + g % seeds;
                let group = (0..plans).map(|p| &cells[first + p * seeds]);
                run_group(group, &bank, &mut out);
            }
        };
        let parts = if jobs == 1 {
            vec![work()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        let mut parts = parts.into_iter();
        let mut all = parts.next().expect("one worker at least");
        for part in parts {
            all.results.extend(part.results);
            #[cfg(feature = "metrics")]
            all.metrics.merge(&part.metrics);
        }
        assert_eq!(all.results.len(), cells.len(), "every cell must report");
        drop(cells);

        SweepOutcome {
            report: SweepReport::assemble(all.results, self.autotune.as_deref()),
            wall_seconds: started.elapsed().as_secs_f64(),
            jobs,
            #[cfg(feature = "metrics")]
            metrics: all.metrics,
        }
    }
}

/// `cell`'s coordinates, with the results of a run that has not happened
/// yet (no tasks, slowdown 1).
fn cell_result(cell: &CellSpec) -> CellResult {
    let scenario = &cell.scenario;
    let nodes = scenario.cluster.as_ref().map_or(0, |c| c.nodes);
    CellResult {
        id: cell.id,
        algorithm: scenario.algorithm.name().to_string(),
        n: scenario.matrix_order(),
        nb: scenario.tile_size_of(),
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
        slowdown: 1.0,
        ..CellResult::default()
    }
}

/// Record a faulted run of `result`'s cell: its `trace` and `report`.
fn record_faulted(result: &mut CellResult, trace: &Trace, report: DegradationReport) {
    let nb = result.nb;
    result.tasks = trace.len() as u64;
    result.makespan = report.faulted_makespan;
    let transfers = trace
        .spans()
        .iter()
        .filter(|e| base_kernel(&e.kernel) == TRANSFER_LABEL);
    result.transfers = transfers.count() as u64;
    // The faulted path surfaces a trace, not the coherence engine's byte
    // ledger, so bytes are reconstructed from the transfer span count: one
    // full tile each (exact whenever nb divides n, as in tile-count-driven
    // matrices).
    result.transfer_bytes = result.transfers * (nb * nb * 8) as u64;
    result.slowdown = report.slowdown;
    result.retries = report.retries;
    result.restarted_tasks = report.restarted_tasks;
    result.degradation = Some(report);
}

/// Run one scenario group (its cells, one per plan, in plan order) from
/// one pass table, dropped with its traces: a thousand-cell sweep keeps
/// numbers, not schedules.
fn run_group<'a>(
    mut group: impl Iterator<Item = &'a CellSpec>,
    bank: &ModelBank,
    out: &mut Collected,
) {
    let first = group.next().expect("a group has one cell per plan");
    let models = bank.for_nb(first.scenario.tile_size_of());
    let scenario = first.scenario.clone().faults(FaultPlan::new());
    let scenario = scenario.models_shared(models);
    let mut passes = Passes::new(&scenario);
    for cell in std::iter::once(first).chain(group) {
        let mut result = cell_result(cell);
        if cell.scenario.faults.is_empty() {
            let clean = &passes.passes[0];
            result.tasks = clean.trace.len() as u64;
            result.makespan = clean.makespan;
            result.transfers = clean.transfers;
            result.transfer_bytes = clean.transfer_bytes;
        } else {
            let (faulted, report) = passes.compare(&cell.scenario.faults);
            record_faulted(&mut result, &faulted.trace, report);
            for session in &faulted.replays {
                out.publish(session);
            }
        }
        result.gflops = flops::gflops(scenario.algorithm.flops(result.n), result.makespan);
        out.results.push(result);
    }
    for pass in &passes.passes {
        out.publish(&pass.session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Algorithm;
    use crate::scenario::Scenario;
    use crate::sweep::FaultPlanSpec;
    use proptest::prelude::*;
    use supersim_runtime::SchedulerKind;

    /// Run the fault-free `scenario` alone into `result`, as a clean cell
    /// ran before scenario groups.
    fn run_clean(scenario: Scenario, result: &mut CellResult) {
        if result.nodes > 0 {
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
    }

    /// The per-cell execution that scenario groups replaced, kept as the
    /// oracle: every cell alone on its own session, a faulted cell through
    /// [`Scenario::run_faults`] with a clean run of its own.
    fn per_cell_report(spec: &SweepSpec) -> SweepReport {
        let bank = spec.model_bank();
        let results = spec
            .cells()
            .iter()
            .map(|cell| {
                let models = bank.for_nb(cell.scenario.tile_size_of());
                let scenario = cell.scenario.clone().models_shared(models);
                let mut result = cell_result(cell);
                if cell.scenario.faults.is_empty() {
                    run_clean(scenario, &mut result);
                } else {
                    let outcome = scenario.run_faults();
                    record_faulted(&mut result, &outcome.trace, outcome.report);
                    result.gflops =
                        flops::gflops(cell.scenario.algorithm.flops(result.n), result.makespan);
                }
                result
            })
            .collect();
        SweepReport::assemble(results, spec.autotune.as_deref())
    }

    /// A cell's coordinates minus its plan: cells with equal keys share a
    /// scenario group.
    fn group_key(c: &CellResult) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/{}/{}/{}",
            c.algorithm,
            c.n,
            c.nb,
            c.scheduler,
            c.workers,
            c.nodes,
            c.interconnect,
            c.seed,
            c.backend
        )
    }

    /// Every faulted cell's baseline is its clean sibling's run, bit for
    /// bit.
    fn assert_baselines_are_the_clean_siblings(report: &SweepReport) {
        let clean: std::collections::HashMap<String, f64> = report
            .cells
            .iter()
            .filter(|c| c.plan == "clean")
            .map(|c| (group_key(c), c.makespan))
            .collect();
        for c in &report.cells {
            if let (Some(d), Some(m)) = (&c.degradation, clean.get(&group_key(c))) {
                assert_eq!(d.clean_makespan.to_bits(), m.to_bits(), "cell {}", c.id);
            }
        }
    }

    /// A small DES matrix over `plans` (preset names, in order).
    fn grouped_spec(plans: &[&str], nodes: Vec<usize>, seeds: Vec<u64>) -> SweepSpec {
        SweepSpec {
            tile_counts: vec![4, 6],
            tile_sizes: vec![12],
            worker_counts: vec![2, 3],
            node_counts: nodes,
            plans: plans
                .iter()
                .map(|p| FaultPlanSpec::preset(p).unwrap())
                .collect(),
            seeds,
            backend: Some(crate::replay::Backend::Des),
            ..SweepSpec::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Grouped execution reports exactly what per-cell execution
        /// reports, for any plan set (with or without `clean`, in any
        /// order), node axis and job count.
        #[test]
        fn grouping_matches_per_cell_execution(
            picks in prop::collection::vec(0usize..4, 1..7),
            nodes in prop_oneof![Just(vec![0]), Just(vec![2]), Just(vec![0, 2]), Just(vec![2, 0])],
            seeds in 1usize..3,
            jobs in 1usize..4,
        ) {
            let mut plans = Vec::new();
            for p in picks {
                let name = ["clean", "straggler", "transient", "kill"][p];
                if !plans.contains(&name) {
                    plans.push(name);
                }
            }
            let spec = grouped_spec(&plans, nodes, (1..=seeds as u64).collect());
            let grouped = spec.run(jobs).report;
            let oracle = per_cell_report(&spec);
            prop_assert_eq!(grouped.to_json(), oracle.to_json(), "plans {:?}", plans);
            prop_assert_eq!(grouped.to_csv(), oracle.to_csv());
            assert_baselines_are_the_clean_siblings(&grouped);
        }
    }

    /// The CI matrix's plan set, including a kill that lands mid-run.
    #[test]
    fn every_preset_matches_per_cell_execution() {
        let spec = grouped_spec(
            &["kill", "clean", "transient", "straggler"],
            vec![0, 2],
            vec![1, 2],
        );
        let grouped = spec.run(2).report;
        assert!(
            grouped.cells.iter().any(|c| c.restarted_tasks > 0),
            "some kill lands mid-run"
        );
        assert_eq!(grouped.to_json(), per_cell_report(&spec).to_json());
        assert_baselines_are_the_clean_siblings(&grouped);
    }

    /// One clean run per scenario group plus one per faulted cell: a
    /// clean + K-plan DES sweep over S fault-free scenarios runs
    /// S × (1 + K) replays (per-cell execution ran S × (1 + 2K)).
    #[cfg(feature = "metrics")]
    #[test]
    fn a_group_simulates_its_clean_scenario_once() {
        for (plans, k) in [
            (&["clean", "straggler", "transient"][..], 2),
            (&["straggler", "transient"][..], 2),
            (&["clean"][..], 0),
        ] {
            let spec = grouped_spec(plans, vec![0, 2], vec![1, 2]);
            let outcome = spec.run(2);
            let scenarios = outcome.report.cells_total / plans.len() as u64;
            assert_eq!(
                outcome.metrics.counter("des.replay.runs"),
                Some(scenarios * (1 + k)),
                "plans {plans:?}"
            );
        }
    }

    /// One scenario group over `clean,straggler,transient,kill` costs
    /// four passes: the clean one (also the kill's phase A), the
    /// straggler, the transient and the kill's phase B — one fewer than
    /// running each plan on its own, which simulates the kill's phase A.
    /// All four are DES replays in the merged metrics, the phase B's
    /// forked session included.
    #[test]
    fn a_kill_cell_costs_only_its_phase_b() {
        let spec = SweepSpec {
            tile_counts: vec![6],
            worker_counts: vec![3],
            ..grouped_spec(
                &["clean", "straggler", "transient", "kill"],
                vec![0],
                vec![1],
            )
        };
        let before = crate::faultsim::PASSES.with(|n| n.get());
        let outcome = spec.run(1);
        let passes = crate::faultsim::PASSES.with(|n| n.get()) - before;
        let report = &outcome.report;
        assert_eq!(report.cells.len(), 4);
        assert!(
            report.cells.iter().any(|c| c.restarted_tasks > 0),
            "the kill lands mid-run"
        );
        assert_eq!(passes, 4);
        #[cfg(feature = "metrics")]
        assert_eq!(outcome.metrics.counter("des.replay.runs"), Some(4));
    }

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
