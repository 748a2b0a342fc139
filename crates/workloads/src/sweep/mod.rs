//! The sweep orchestrator: thousands of scenarios per invocation.
//!
//! A [`SweepSpec`] describes a scenario *matrix* — the cartesian product
//! over algorithm / problem size / tile size / scheduler / workers /
//! nodes / interconnect / fault plan / seed, each axis an explicit list —
//! which expands deterministically into [`CellSpec`]s, executes across
//! host cores on a shared work queue (DES backend preferred, threaded
//! allowed per cell), and merges into one deterministically ordered
//! [`SweepReport`] with Pareto frontiers and an optional autotune
//! (argmin-over-the-matrix) section. This is the compare-schedulers-over-
//! a-corpus methodology of the batch-simulation literature, built on the
//! session isolation invariant: every cell gets its own `SimSession`
//! (clock, trace recorder, counters), and all cells share one read-only
//! fitted-model database built once up front. See DESIGN.md §10.
//!
//! ```
//! use supersim_workloads::sweep::SweepSpec;
//! let spec = SweepSpec {
//!     tile_counts: vec![4],
//!     tile_sizes: vec![8, 16],
//!     worker_counts: vec![3],
//!     seeds: vec![1, 2],
//!     ..SweepSpec::default()
//! };
//! let outcome = spec.run(2);
//! assert_eq!(outcome.report.cells.len(), 4);
//! ```

pub mod pareto;
pub mod report;
pub mod runner;

pub use pareto::{dominates, pareto_frontier};
pub use report::{
    autotune, AutotuneGroup, AutotuneReport, CellResult, ParetoReport, SweepReport, AUTOTUNE_AXES,
};
pub use runner::SweepOutcome;

use crate::driver::Algorithm;
use crate::replay::Backend;
use crate::scenario::{synthetic_model, uniform_models, Scenario, ScenarioError};
use crate::scenario::{SYNTHETIC_MU, SYNTHETIC_SIGMA};
use std::collections::BTreeMap;
use std::sync::Arc;
use supersim_cluster::{ClusterSpec, Hockney, Interconnect, SharedLink, ZeroCost};
use supersim_core::{ModelRegistry, SimConfig};
use supersim_faults::FaultPlan;
use supersim_runtime::SchedulerKind;

/// Cells one sweep may expand to: the expansion is materialized before
/// the first cell runs. A host with less headroom compares
/// [`SweepSpec::cell_bound`] against a tighter limit of its own.
pub const MAX_CELLS: u64 = 1 << 20;

const DEFAULT_LATENCY: f64 = 1e-5;
const DEFAULT_BANDWIDTH: f64 = 1e10;

/// An interconnect model described by value, so a spec is plain data and
/// each cell can build its own `Arc<dyn Interconnect>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterconnectSpec {
    /// Free transfers (upper-bound baseline).
    Zero,
    /// Hockney point-to-point: latency + size/bandwidth.
    Hockney {
        /// Per-message latency (seconds).
        latency: f64,
        /// Link bandwidth (bytes/second).
        bandwidth: f64,
    },
    /// One shared link per node (transfers serialize on the NIC lane).
    SharedLink {
        /// Per-message latency (seconds).
        latency: f64,
        /// Link bandwidth (bytes/second).
        bandwidth: f64,
    },
}

impl Default for InterconnectSpec {
    fn default() -> Self {
        InterconnectSpec::Hockney {
            latency: DEFAULT_LATENCY,
            bandwidth: DEFAULT_BANDWIDTH,
        }
    }
}

impl InterconnectSpec {
    /// The model called `name` (`zero`, `hockney`, `sharedlink`; absent =
    /// `hockney`) with the given latency (seconds, default 1e-5) and
    /// bandwidth (bytes/s, default 1e10) — the one name → model map.
    pub fn parse(
        name: Option<&str>,
        latency: Option<f64>,
        bandwidth: Option<f64>,
    ) -> Result<InterconnectSpec, ScenarioError> {
        let latency = latency.unwrap_or(DEFAULT_LATENCY);
        let bandwidth = bandwidth.unwrap_or(DEFAULT_BANDWIDTH);
        // Phrased positively, so NaN fails both.
        match (latency >= 0.0, bandwidth > 0.0) {
            (true, true) => {}
            (false, _) => return Err(ScenarioError::new("latency must be non-negative")),
            (true, false) => return Err(ScenarioError::new("bandwidth must be positive")),
        }
        let all = [
            InterconnectSpec::Zero,
            InterconnectSpec::Hockney { latency, bandwidth },
            InterconnectSpec::SharedLink { latency, bandwidth },
        ];
        let name = name.unwrap_or(all[1].name());
        ScenarioError::lookup("interconnect", name, all, |ic| ic.name())
    }

    /// The model's name as recorded in the report.
    pub fn name(&self) -> &'static str {
        match self {
            InterconnectSpec::Zero => "zero",
            InterconnectSpec::Hockney { .. } => "hockney",
            InterconnectSpec::SharedLink { .. } => "sharedlink",
        }
    }

    /// Build the interconnect model.
    pub fn build(&self) -> Arc<dyn Interconnect> {
        match *self {
            InterconnectSpec::Zero => Arc::new(ZeroCost),
            InterconnectSpec::Hockney { latency, bandwidth } => {
                Arc::new(Hockney::new(latency, bandwidth))
            }
            InterconnectSpec::SharedLink { latency, bandwidth } => {
                Arc::new(SharedLink::new(latency, bandwidth))
            }
        }
    }
}

/// A named fault plan: the name keys the report's `plan` column.
#[derive(Debug, Clone)]
pub struct FaultPlanSpec {
    /// Plan name in the report (`clean`, `straggler`, ...).
    pub name: String,
    /// The plan itself (empty = fault-free cell).
    pub plan: FaultPlan,
}

impl FaultPlanSpec {
    /// The fault-free plan.
    pub fn clean() -> FaultPlanSpec {
        FaultPlanSpec::named("clean", FaultPlan::new())
    }

    /// Wrap an explicit plan under a report name.
    pub fn named(name: impl Into<String>, plan: FaultPlan) -> FaultPlanSpec {
        FaultPlanSpec {
            name: name.into(),
            plan,
        }
    }

    /// Canned presets for CLI matrices, all within the lane-independent
    /// determinism contract (DESIGN.md §7): `clean`, `straggler` (node 0
    /// slowed 3x over the first 20% of the clean makespan timeline),
    /// `transient` (every 5th submission of each label fails once), and
    /// `kill` (worker lane 1 dies at t=0.05 with replay recovery).
    pub fn parse(name: &str) -> Result<FaultPlanSpec, ScenarioError> {
        let plan = match name {
            "clean" => FaultPlan::new(),
            "straggler" => FaultPlan::new().straggler_node(0, 0.0, 0.2, 3.0),
            "transient" => FaultPlan::new().transient(5, 1, 0.5),
            "kill" => FaultPlan::new().kill_worker(1, 0.05),
            _ => {
                let names = ["clean", "straggler", "transient", "kill"];
                return Err(ScenarioError::unknown("fault preset", name, &names));
            }
        };
        Ok(FaultPlanSpec::named(name, plan))
    }

    /// [`FaultPlanSpec::parse`] without the message.
    pub fn preset(name: &str) -> Option<FaultPlanSpec> {
        Self::parse(name).ok()
    }
}

/// Where the sweep's kernel models come from. Whatever the source, the
/// registry is materialized **once** and shared read-only (one `Arc`)
/// across every concurrent cell session.
#[derive(Debug, Clone)]
pub enum SweepModels {
    /// Synthetic log-normal models, one per kernel label of every swept
    /// algorithm: `ln N(mu, sigma)` seconds with a first-call warm-up
    /// factor.
    Synthetic {
        /// Log-normal location parameter.
        mu: f64,
        /// Log-normal scale parameter.
        sigma: f64,
        /// First-call warm-up factor (1.0 = none).
        warmup: f64,
    },
    /// One fitted-model database shared by every cell (e.g. loaded from a
    /// `CalibrationDb`).
    Shared(Arc<ModelRegistry>),
    /// A registry per tile size, for autotune sweeps whose calibrations
    /// are nb-dependent. Expansion fails fast if a swept tile size has no
    /// entry.
    PerTileSize(BTreeMap<usize, Arc<ModelRegistry>>),
}

/// A scenario matrix. Every axis is an explicit list; the product of the
/// lists (minus structurally impossible combinations, see
/// [`SweepSpec::cells`]) is the set of cells executed.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Algorithms to sweep.
    pub algorithms: Vec<Algorithm>,
    /// Explicit matrix orders. When non-empty this overrides
    /// `tile_counts`; when empty, `n = tiles * nb` per tile count.
    pub orders: Vec<usize>,
    /// Tile-grid sizes (used when `orders` is empty).
    pub tile_counts: Vec<usize>,
    /// Tile sizes (nb).
    pub tile_sizes: Vec<usize>,
    /// Scheduler profiles (single-node cells; cluster cells always use
    /// the pinned cluster profile).
    pub schedulers: Vec<SchedulerKind>,
    /// Worker counts (per node for cluster cells).
    pub worker_counts: Vec<usize>,
    /// Node counts; 0 means a single-node cell.
    pub node_counts: Vec<usize>,
    /// Interconnect models (cluster cells only; the axis collapses for
    /// single-node cells).
    pub interconnects: Vec<InterconnectSpec>,
    /// Named fault plans.
    pub plans: Vec<FaultPlanSpec>,
    /// Duration-sampling seeds.
    pub seeds: Vec<u64>,
    /// Backend for every cell; `None` resolves per cell
    /// ([`Backend::resolve`]): DES wherever it replays the cell
    /// deterministically, the threaded engine for the racy profiles.
    pub backend: Option<Backend>,
    /// Kernel-model source.
    pub models: SweepModels,
    /// Per-task scheduler overhead (seconds) applied to every cell.
    pub overhead_per_task: f64,
    /// NIC lanes per node (None = one).
    pub nic_lanes: Option<usize>,
    /// Autotune axis (see [`AUTOTUNE_AXES`]); adds an argmin section to
    /// the report.
    pub autotune: Option<String>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            algorithms: vec![Algorithm::default()],
            orders: Vec::new(),
            tile_counts: vec![8],
            tile_sizes: vec![64],
            schedulers: vec![SchedulerKind::default()],
            worker_counts: vec![4],
            node_counts: vec![0],
            interconnects: vec![InterconnectSpec::default()],
            plans: vec![FaultPlanSpec::clean()],
            seeds: vec![42],
            backend: None,
            models: SweepModels::Synthetic {
                mu: SYNTHETIC_MU,
                sigma: SYNTHETIC_SIGMA,
                warmup: 1.5,
            },
            overhead_per_task: 0.0,
            nic_lanes: None,
            autotune: None,
        }
    }
}

/// One fully resolved cell of the matrix: the [`Scenario`] it runs (no
/// models or session yet — the runner attaches the sweep's shared
/// database) plus what only the report needs.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Position in the expansion (the report's merge key).
    pub id: u64,
    /// The cell's scenario.
    pub scenario: Scenario,
    /// Fault-plan name.
    pub plan_name: String,
    /// Interconnect name (cluster cells only).
    pub interconnect: Option<&'static str>,
}

impl SweepSpec {
    /// An upper bound on the number of cells (the saturating product of
    /// the axis lengths), for a host to check before expanding anything.
    pub fn cell_bound(&self) -> u64 {
        let sizes = if self.orders.is_empty() {
            self.tile_counts.len()
        } else {
            self.orders.len()
        };
        [
            self.algorithms.len(),
            sizes,
            self.tile_sizes.len(),
            self.schedulers.len(),
            self.worker_counts.len(),
            self.node_counts.len(),
            self.interconnects.len(),
            self.plans.len(),
            self.seeds.len(),
        ]
        .iter()
        .fold(1u64, |product, &len| product.saturating_mul(len as u64))
    }

    /// Everything that makes the matrix legal to run: no empty axis, a
    /// known autotune axis, at most [`MAX_CELLS`] cells, usable kernel
    /// models, and every expanded cell a valid [`Scenario`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.try_cells().map(drop)
    }

    /// Expand the matrix into cells, deterministically: nested loops in
    /// axis order (algorithm, tile size, order/tiles, nodes, scheduler,
    /// workers, interconnect, plan, seed), ids assigned sequentially.
    /// Structurally impossible combinations are dropped, not errors: the
    /// distributed engine implements Cholesky and LU only, so QR ×
    /// cluster cells are skipped; cluster cells collapse the scheduler
    /// axis (always the pinned profile); single-node cells collapse the
    /// interconnect axis.
    ///
    /// # Panics
    ///
    /// With the message of [`SweepSpec::validate`] if it rejects the spec.
    pub fn cells(&self) -> Vec<CellSpec> {
        self.try_cells().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SweepSpec::cells`], or why [`SweepSpec::validate`] rejects the
    /// spec.
    pub fn try_cells(&self) -> Result<Vec<CellSpec>, ScenarioError> {
        for (name, empty) in [
            ("algorithms", self.algorithms.is_empty()),
            (
                "orders/tile_counts",
                self.orders.is_empty() && self.tile_counts.is_empty(),
            ),
            ("tile_sizes", self.tile_sizes.is_empty()),
            ("schedulers", self.schedulers.is_empty()),
            ("worker_counts", self.worker_counts.is_empty()),
            ("node_counts", self.node_counts.is_empty()),
            ("interconnects", self.interconnects.is_empty()),
            ("plans", self.plans.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(ScenarioError::new(format!("sweep axis {name} is empty")));
            }
        }
        if let Some(axis) = &self.autotune {
            if !(AUTOTUNE_AXES.contains(&axis.as_str()) || axis == "tile_size") {
                return Err(ScenarioError::new(format!(
                    "unknown autotune axis '{}' (one of {AUTOTUNE_AXES:?})",
                    serde::de::Quoted(axis)
                )));
            }
        }
        if self.cell_bound() > MAX_CELLS {
            return Err(ScenarioError::new(format!(
                "up to {} cells exceed the limit of {MAX_CELLS}",
                self.cell_bound()
            )));
        }
        match &self.models {
            SweepModels::Synthetic { mu, sigma, warmup } => {
                synthetic_model(*mu, *sigma, *warmup)?;
            }
            SweepModels::PerTileSize(map) => {
                if let Some(nb) = self.tile_sizes.iter().find(|nb| !map.contains_key(nb)) {
                    return Err(ScenarioError::new(format!(
                        "SweepModels::PerTileSize has no registry for nb={nb}"
                    )));
                }
            }
            SweepModels::Shared(_) => {}
        }

        let interconnects: Vec<_> = self.interconnects.iter().map(|ic| ic.build()).collect();
        let mut cells = Vec::new();
        for &algorithm in &self.algorithms {
            for &nb in &self.tile_sizes {
                let orders: Vec<usize> = if self.orders.is_empty() {
                    self.tile_counts
                        .iter()
                        .map(|t| t.saturating_mul(nb))
                        .collect()
                } else {
                    self.orders.clone()
                };
                for &n in &orders {
                    for &nodes in &self.node_counts {
                        if nodes > 0 && algorithm == Algorithm::Qr {
                            // Distributed QR is not implemented.
                            continue;
                        }
                        // Cluster cells always run the pinned cluster
                        // profile, single-node cells have no interconnect:
                        // iterating those axes would duplicate cells.
                        let (schedulers, ics) = if nodes > 0 {
                            (&self.schedulers[..1], &self.interconnects[..])
                        } else {
                            (&self.schedulers[..], &self.interconnects[..1])
                        };
                        for &scheduler in schedulers {
                            let backend = Backend::resolve(self.backend, scheduler, nodes > 0)?;
                            for &workers in &self.worker_counts {
                                for (ic, built) in ics.iter().zip(&interconnects) {
                                    for plan in &self.plans {
                                        for &seed in &self.seeds {
                                            let mut scenario = Scenario::new(algorithm)
                                                .n(n)
                                                .tile_size(nb)
                                                .scheduler(scheduler)
                                                .workers(workers)
                                                .config(SimConfig {
                                                    seed,
                                                    overhead_per_task: self.overhead_per_task,
                                                    ..SimConfig::default()
                                                })
                                                .seed(seed)
                                                .backend(backend)
                                                .faults(plan.plan.clone());
                                            if nodes > 0 {
                                                let cluster = ClusterSpec {
                                                    nodes,
                                                    workers_per_node: workers,
                                                    nic_lanes_per_node: self.nic_lanes.unwrap_or(1),
                                                    mem_bytes_per_node: 0,
                                                };
                                                scenario = scenario
                                                    .cluster(cluster)
                                                    .interconnect(built.clone());
                                            }
                                            scenario.validate()?;
                                            cells.push(CellSpec {
                                                id: cells.len() as u64,
                                                scenario,
                                                plan_name: plan.name.clone(),
                                                interconnect: (nodes > 0).then_some(ic.name()),
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Materialize the shared model database: one registry (or one per
    /// tile size), built once, shared read-only by every cell session.
    pub(crate) fn model_bank(&self) -> ModelBank {
        match &self.models {
            SweepModels::Shared(registry) => ModelBank::Single(registry.clone()),
            SweepModels::PerTileSize(map) => ModelBank::PerNb(map.clone()),
            SweepModels::Synthetic { mu, sigma, warmup } => {
                let model = synthetic_model(*mu, *sigma, *warmup).unwrap_or_else(|e| panic!("{e}"));
                ModelBank::Single(Arc::new(uniform_models(&self.algorithms, &model)))
            }
        }
    }
}

/// The materialized shared model database.
pub(crate) enum ModelBank {
    Single(Arc<ModelRegistry>),
    PerNb(BTreeMap<usize, Arc<ModelRegistry>>),
}

impl ModelBank {
    pub(crate) fn for_nb(&self, nb: usize) -> Arc<ModelRegistry> {
        match self {
            ModelBank::Single(r) => r.clone(),
            ModelBank::PerNb(map) => map
                .get(&nb)
                .unwrap_or_else(|| panic!("no model registry for nb={nb}"))
                .clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_the_cartesian_product() {
        let spec = SweepSpec {
            algorithms: vec![Algorithm::Cholesky, Algorithm::Lu],
            tile_counts: vec![4, 6],
            tile_sizes: vec![16, 32],
            schedulers: vec![SchedulerKind::Quark, SchedulerKind::StarPu],
            seeds: vec![1, 2, 3],
            ..SweepSpec::default()
        };
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 3);
        // Ids are sequential and the expansion is deterministic.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i as u64);
        }
        assert_eq!(
            spec.cells().iter().map(|c| c.id).collect::<Vec<_>>(),
            cells.iter().map(|c| c.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn orders_override_tile_counts() {
        let spec = SweepSpec {
            orders: vec![100, 200],
            tile_counts: vec![4, 6, 8],
            tile_sizes: vec![10],
            ..SweepSpec::default()
        };
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scenario.matrix_order(), 100);
        assert_eq!(cells[1].scenario.matrix_order(), 200);
    }

    #[test]
    fn cluster_cells_collapse_scheduler_and_skip_qr() {
        let spec = SweepSpec {
            algorithms: vec![Algorithm::Cholesky, Algorithm::Qr],
            schedulers: vec![SchedulerKind::Quark, SchedulerKind::StarPu],
            node_counts: vec![0, 4],
            interconnects: vec![InterconnectSpec::Zero, InterconnectSpec::default()],
            ..SweepSpec::default()
        };
        let cells = spec.cells();
        // Single-node: 2 algs x 2 schedulers x 1 interconnect (collapsed).
        // Cluster: cholesky only, 1 scheduler (collapsed) x 2 interconnects.
        assert_eq!(cells.len(), 2 * 2 + 2);
        assert!(cells
            .iter()
            .all(|c| c.scenario.cluster.is_none() || c.scenario.algorithm == Algorithm::Cholesky));
        assert!(cells
            .iter()
            .all(|c| c.scenario.cluster.is_some() == c.interconnect.is_some()));
    }

    #[test]
    fn auto_backend_prefers_des_where_deterministic() {
        let spec = SweepSpec {
            schedulers: vec![SchedulerKind::Quark, SchedulerKind::StarPu],
            node_counts: vec![0, 2],
            ..SweepSpec::default()
        };
        let cells = spec.cells();
        for c in &cells {
            let sc = &c.scenario;
            if sc.cluster.is_some() || sc.scheduler == SchedulerKind::Quark {
                assert_eq!(sc.backend, Backend::Des, "cell {}", c.id);
            } else {
                assert_eq!(sc.backend, Backend::Threaded, "cell {}", c.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot replay deterministically")]
    fn forced_des_rejects_racy_profiles() {
        let spec = SweepSpec {
            schedulers: vec![SchedulerKind::StarPu],
            backend: Some(Backend::Des),
            ..SweepSpec::default()
        };
        spec.cells();
    }

    /// `validate` is what `cells()` panics with, as a `Result`.
    #[test]
    fn validate_rejects_each_illegal_matrix_with_one_line() {
        assert_eq!(SweepSpec::default().validate(), Ok(()));
        for (spec, needle) in [
            (
                SweepSpec {
                    tile_sizes: vec![],
                    ..SweepSpec::default()
                },
                "sweep axis tile_sizes is empty",
            ),
            (
                SweepSpec {
                    autotune: Some("flux".to_string()),
                    ..SweepSpec::default()
                },
                "unknown autotune axis 'flux'",
            ),
            (
                SweepSpec {
                    seeds: (0..2048).collect(),
                    worker_counts: (1..=1024).collect(),
                    ..SweepSpec::default()
                },
                "cells exceed the limit",
            ),
            (
                SweepSpec {
                    orders: vec![64, 0],
                    ..SweepSpec::default()
                },
                "n must be positive",
            ),
            (
                SweepSpec {
                    tile_counts: vec![100_000],
                    ..SweepSpec::default()
                },
                "tasks exceed",
            ),
            (
                // The `kill` preset takes out worker lane 1.
                SweepSpec {
                    worker_counts: vec![1],
                    plans: vec![FaultPlanSpec::preset("kill").unwrap()],
                    ..SweepSpec::default()
                },
                "outside the machine",
            ),
            (
                SweepSpec {
                    schedulers: vec![SchedulerKind::OmpSs],
                    backend: Some(Backend::Des),
                    ..SweepSpec::default()
                },
                "cannot replay deterministically",
            ),
            (
                SweepSpec {
                    models: SweepModels::Synthetic {
                        mu: -6.0,
                        sigma: 0.0,
                        warmup: 1.0,
                    },
                    ..SweepSpec::default()
                },
                "sigma must be positive",
            ),
            (
                SweepSpec {
                    models: SweepModels::PerTileSize(BTreeMap::new()),
                    ..SweepSpec::default()
                },
                "no registry for nb=64",
            ),
            (
                SweepSpec {
                    overhead_per_task: f64::NAN,
                    ..SweepSpec::default()
                },
                "overhead_per_task",
            ),
        ] {
            let err = spec.validate().expect_err(needle).to_string();
            assert!(err.contains(needle), "want {needle:?}, got {err:?}");
            assert_eq!(err.lines().count(), 1, "{err:?}");
        }
    }

    #[test]
    fn cell_bound_is_the_product_of_the_axes() {
        let spec = SweepSpec {
            algorithms: vec![Algorithm::Cholesky, Algorithm::Qr],
            orders: vec![64, 128, 256],
            tile_counts: vec![1, 2, 3, 4, 5],
            node_counts: vec![0, 2],
            seeds: vec![1, 2, 3, 4],
            ..SweepSpec::default()
        };
        // `orders` overrides `tile_counts`; QR x cluster is dropped later.
        assert_eq!(spec.cell_bound(), 2 * 3 * 2 * 4);
        assert_eq!(spec.cells().len(), (2 + 1) * 3 * 4);
    }

    #[test]
    fn synthetic_bank_covers_all_swept_algorithms() {
        let spec = SweepSpec {
            algorithms: vec![Algorithm::Cholesky, Algorithm::Qr, Algorithm::Lu],
            ..SweepSpec::default()
        };
        let bank = spec.model_bank();
        let registry = bank.for_nb(64);
        for alg in &spec.algorithms {
            for label in alg.labels() {
                registry.expect(label);
            }
        }
    }
}
