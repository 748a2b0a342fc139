//! Typed request/response schema for the service, plus the mapping from
//! wire DTOs onto the existing [`Scenario`] / [`SweepSpec`] builders.
//!
//! The mapping is "unwrap the options with `Scenario`'s defaults, parse
//! names with the shared vocabulary, then `validate()`": the names, the
//! defaults and the legality rules are `supersim-workloads`', and its
//! errors are returned as `Err(String)` for the server to answer 400. What
//! this module adds is the daemon's own size ceilings
//! ([`MAX_RUN_TASKS`]). Response documents contain **only
//! virtual-time, seed-determined data** (no wall-clock timing, no lane
//! assignments beyond the canonical trace digest), so a cached response is
//! byte-identical to a cold one on the deterministic backends.

use crate::cache::ModelCache;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use supersim_cluster::ClusterSpec;
use supersim_core::{ModelRegistry, SimConfig};
use supersim_faults::FaultPlan;
use supersim_trace::{fnv1a, FNV1A_BASIS};
use supersim_workloads::scenario::{
    check_stream_epoch, parse_scheduler, SYNTHETIC_MU, SYNTHETIC_SIGMA,
};
use supersim_workloads::sweep::{FaultPlanSpec, InterconnectSpec, SweepModels};
use supersim_workloads::{
    Algorithm, Backend, ClusterRun, FaultOutcome, Scenario, SimRun, SweepSpec,
};

/// Maximum accepted request body (JSON) in bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Ceilings on what one request may ask this daemon to simulate, checked
/// on [`Scenario::task_count`] / [`Scenario::lane_count`] /
/// [`SweepSpec::cell_bound`] before a run thread is spawned or a tile
/// layout allocated. Constants, not configuration: they bound what one
/// request can cost a process other clients share, and sit far above
/// every CI job and benchmark request (the largest, the 1,000-node smoke,
/// is 20,000 DES lanes and 88,560 compute tasks). A DES lane is a few
/// words of state; a threaded lane is a host thread.
pub const MAX_RUN_TASKS: u64 = 2_000_000;
/// See [`MAX_RUN_TASKS`].
pub const MAX_DES_LANES: u64 = 65_536;
/// See [`MAX_RUN_TASKS`].
pub const MAX_THREADED_LANES: u64 = 256;
/// See [`MAX_RUN_TASKS`].
pub const MAX_SWEEP_CELLS: u64 = 4_096;

/// Refuse a scenario beyond this daemon's ceilings.
fn admit(scenario: &Scenario) -> Result<(), String> {
    Ok(scenario.fits(MAX_RUN_TASKS, MAX_DES_LANES, MAX_THREADED_LANES)?)
}

/// Where a request's kernel duration models come from.
#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case", deny_unknown_fields)]
pub enum ModelSource {
    /// Load a fitted [`supersim_calibrate::CalibrationDb`] from disk
    /// (cached by content fingerprint — see [`ModelCache`]).
    Calibration {
        /// Path to the calibration JSON on the server host.
        path: String,
    },
    /// Synthetic log-normal models for every kernel label (the CLI's
    /// default recipe): `logN(mu, sigma)` with a first-`workers`-tasks
    /// warm-up multiplier.
    Synthetic {
        /// Log-space mean (default -6.0, ~2.5 ms kernels).
        mu: Option<f64>,
        /// Log-space sigma (default 0.3).
        sigma: Option<f64>,
        /// Warm-up multiplier (default 1.0 = off).
        warmup: Option<f64>,
    },
    /// Constant-duration models (exact, reproducible timing).
    Constant {
        /// Seconds per kernel.
        seconds: f64,
    },
}

/// A distributed-scenario request fragment.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClusterRequest {
    /// Node count (> 0).
    pub nodes: usize,
    /// Compute workers per node (> 0).
    pub workers_per_node: usize,
    /// NIC lanes per node (default: the interconnect model's preference).
    pub nic_lanes: Option<usize>,
    /// Interconnect model: `zero` | `hockney` | `sharedlink` (default
    /// `hockney`).
    pub interconnect: Option<String>,
    /// Per-message latency seconds (hockney/sharedlink; default 1e-5).
    pub latency: Option<f64>,
    /// Bandwidth bytes/s (hockney/sharedlink; default 1e10).
    pub bandwidth: Option<f64>,
}

/// A `/run` request: one scenario. Every field is optional; defaults
/// mirror the CLI (`cholesky`, 8x8 tiles of 64, `quark`, 4 workers, seed
/// 42). `backend` additionally accepts `auto` (the default): DES replay
/// wherever the profile replays deterministically, threaded otherwise.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RunRequest {
    /// `cholesky` | `qr` | `lu`.
    pub algorithm: Option<String>,
    /// Matrix order (wins over `tiles`).
    pub n: Option<usize>,
    /// Tile-grid side (`n = tiles * tile_size`).
    pub tiles: Option<usize>,
    /// Tile size `nb`.
    pub tile_size: Option<usize>,
    /// `quark` | `starpu` | `ompss`.
    pub scheduler: Option<String>,
    /// Virtual worker count (per node for cluster scenarios).
    pub workers: Option<usize>,
    /// Duration-sampling seed.
    pub seed: Option<u64>,
    /// `auto` | `des` | `threaded`.
    pub backend: Option<String>,
    /// Kernel model source (default: synthetic log-normal).
    pub models: Option<ModelSource>,
    /// Distributed scenario.
    pub cluster: Option<ClusterRequest>,
    /// Full typed fault plan (wins over `fault_preset`).
    pub faults: Option<FaultPlan>,
    /// Canned plan: `clean` | `straggler` | `transient` | `kill`.
    pub fault_preset: Option<String>,
    /// Per-task scheduler overhead in seconds.
    pub overhead_per_task: Option<f64>,
    /// Virtual-time budget in seconds: the run is aborted (422) once the
    /// simulated clock exceeds it, checked at every retirement.
    pub virtual_budget: Option<f64>,
    /// Wall-clock timeout in milliseconds (overrides the server default;
    /// 0 disables).
    pub timeout_ms: Option<u64>,
    /// Answer with a chunked ndjson stream instead of one JSON document:
    /// every span of the run as a `span` event, in the order of its flush
    /// epochs, then one `result` or `error` event.
    pub stream: Option<bool>,
    /// Flush epoch, in virtual seconds, for streamed span events: spans
    /// are delivered once the simulated clock passes each epoch boundary
    /// (default 1.0; only meaningful with `stream: true`).
    pub stream_epoch: Option<f64>,
}

/// A `/sweep` request: a parameter matrix for [`SweepSpec`]. Axis fields
/// default to the sweep's own defaults when omitted; empty axes are
/// rejected (they would expand to nothing).
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepRequest {
    /// Algorithm axis.
    pub algorithms: Option<Vec<String>>,
    /// Explicit matrix orders (wins over `tile_counts`).
    pub orders: Option<Vec<usize>>,
    /// Tile-grid sides.
    pub tile_counts: Option<Vec<usize>>,
    /// Tile sizes.
    pub tile_sizes: Option<Vec<usize>>,
    /// Scheduler axis.
    pub schedulers: Option<Vec<String>>,
    /// Worker-count axis.
    pub worker_counts: Option<Vec<usize>>,
    /// Node-count axis (0 = single-node cell).
    pub node_counts: Option<Vec<usize>>,
    /// Fault-plan presets per cell.
    pub plans: Option<Vec<String>>,
    /// Seed axis.
    pub seeds: Option<Vec<u64>>,
    /// `auto` | `des` | `threaded`.
    pub backend: Option<String>,
    /// Interconnect for cluster cells: `zero` | `hockney` | `sharedlink`.
    pub interconnect: Option<String>,
    /// Interconnect latency seconds.
    pub latency: Option<f64>,
    /// Interconnect bandwidth bytes/s.
    pub bandwidth: Option<f64>,
    /// NIC lanes per node.
    pub nic_lanes: Option<usize>,
    /// Per-task overhead seconds.
    pub overhead_per_task: Option<f64>,
    /// Kernel models (synthetic/constant only; calibration databases are
    /// per-request work the sweep's model bank handles itself).
    pub models: Option<ModelSource>,
    /// Autotune axis name (see the sweep docs).
    pub autotune: Option<String>,
    /// Host threads, capped at the server's cores (absent or 0 = one).
    pub jobs: Option<usize>,
}

/// The scenario echo included in every `/run` response: what the server
/// actually ran, after defaulting — plus the content hash the response
/// cache keys on.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioEcho {
    /// Algorithm name.
    pub algorithm: String,
    /// Resolved matrix order.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Scheduler profile name.
    pub scheduler: String,
    /// Worker count (per node for cluster scenarios).
    pub workers: usize,
    /// Seed.
    pub seed: u64,
    /// Resolved backend name.
    pub backend: String,
    /// Fault plan name (`preset:<name>`, `custom`, or `none`).
    pub faults: String,
    /// `nodes x workers_per_node : interconnect` for cluster scenarios.
    pub cluster: Option<String>,
    /// `Scenario::content_hash()` as `0x`-prefixed hex.
    pub content_hash: String,
}

/// The deterministic result section of a `/run` response.
#[derive(Debug, Clone, Serialize)]
pub struct ResultDoc {
    /// `sim` | `cluster` | `faults`.
    pub kind: String,
    /// Predicted makespan in virtual seconds (the faulted makespan for
    /// `faults` runs).
    pub predicted_seconds: f64,
    /// Predicted GFLOP/s (0 for `faults` runs — two runs, one rate is
    /// meaningless).
    pub gflops: f64,
    /// Tasks completed.
    pub tasks: u64,
    /// Trace events recorded.
    pub trace_events: usize,
    /// FNV-1a 64 digest of the canonical (task-id-sorted, lane-free)
    /// trace text, `0x`-prefixed — byte-for-byte comparable across runs
    /// on the deterministic profiles.
    pub trace_hash: String,
    /// Transfer tasks (cluster runs).
    pub transfers: Option<u64>,
    /// Bytes moved (cluster runs).
    pub transfer_bytes: Option<u64>,
    /// Clean-run makespan (faults runs).
    pub clean_makespan: Option<f64>,
    /// Faulted-run makespan (faults runs).
    pub faulted_makespan: Option<f64>,
    /// `faulted / clean` (faults runs).
    pub slowdown: Option<f64>,
    /// Failed transient attempts (faults runs).
    pub retries: Option<u64>,
}

/// A full `/run` response document.
#[derive(Debug, Clone, Serialize)]
pub struct RunResponse {
    /// What ran.
    pub scenario: ScenarioEcho,
    /// What it predicted.
    pub result: ResultDoc,
}

/// Which terminal a prepared run goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// [`Scenario::run_sim`].
    Sim,
    /// [`Scenario::run_cluster`].
    Cluster,
    /// [`Scenario::run_faults`] (permanent failures need phased replay).
    Faults,
}

/// A validated, model-resolved run ready for execution.
pub struct PreparedRun {
    /// The scenario builder (models attached, no session yet — the server
    /// attaches one per execution so it can cancel it).
    pub scenario: Scenario,
    /// Shared model registry (for session construction).
    pub models: Arc<ModelRegistry>,
    /// Session config (seed + overhead).
    pub sim_config: SimConfig,
    /// Terminal to invoke.
    pub terminal: Terminal,
    /// Response echo (content hash already computed).
    pub echo: ScenarioEcho,
    /// Stable content hash (cache key).
    pub content_hash: u64,
    /// Virtual-time budget, if any.
    pub virtual_budget: Option<f64>,
    /// Requested wall timeout override.
    pub timeout_ms: Option<u64>,
    /// Stream the run's spans: the session's trace sink writes each
    /// flush epoch to the client as the run makes it.
    pub stream: bool,
    /// Virtual-seconds flush epoch for streamed span events.
    pub stream_epoch: f64,
    /// Response is safe to memoize: deterministic backend, not streamed.
    pub cacheable: bool,
}

/// An optional name of the vocabulary through its `parse`; absent = the
/// type's default (`cholesky`, `quark`, backend `auto`).
fn named<T: Default, E>(name: &Option<String>, parse: fn(&str) -> Result<T, E>) -> Result<T, E> {
    name.as_deref().map_or_else(|| Ok(T::default()), parse)
}

impl ModelSource {
    /// The source a request without `models` gets.
    const DEFAULT: ModelSource = ModelSource::Synthetic {
        mu: None,
        sigma: None,
        warmup: None,
    };

    /// `(mu, sigma, warmup)` of a synthetic source after defaulting.
    pub(crate) fn synthetic(mu: Option<f64>, sigma: Option<f64>, warmup: Option<f64>) -> [f64; 3] {
        [
            mu.unwrap_or(SYNTHETIC_MU),
            sigma.unwrap_or(SYNTHETIC_SIGMA),
            warmup.unwrap_or(1.0),
        ]
    }
}

impl RunRequest {
    /// Map the request onto a [`Scenario`] (absent fields keep the
    /// scenario's defaults), resolve its models through `cache`, and
    /// check it: [`Scenario::validate`], then the daemon's ceilings. A
    /// rejected request is an `Err` — a 400 — never a worker panic.
    pub fn prepare(&self, cache: &ModelCache) -> Result<PreparedRun, String> {
        let algorithm = named(&self.algorithm, Algorithm::parse)?;
        let scheduler = named(&self.scheduler, parse_scheduler)?;
        let choice = named(&self.backend, Backend::parse_choice)?;
        let backend = Backend::resolve(choice, scheduler, self.cluster.is_some())?;
        let defaults = Scenario::new(algorithm);
        let workers = self.workers.unwrap_or(defaults.workers_of());
        let seed = self.seed.unwrap_or(defaults.seed_of());
        let tile_size = self.tile_size.unwrap_or(defaults.tile_size_of());
        if !self.virtual_budget.is_none_or(|b| b >= 0.0) {
            return Err("virtual_budget must be non-negative".to_string());
        }
        let stream_epoch = check_stream_epoch("stream_epoch", self.stream_epoch.unwrap_or(1.0))?;

        let source = self.models.as_ref().unwrap_or(&ModelSource::DEFAULT);
        let (models, models_json) = cache.resolve(source, algorithm)?;
        let (plan, faults_name) = match (&self.faults, self.fault_preset.as_deref()) {
            (Some(p), _) => (p.clone(), "custom".to_string()),
            (None, Some(name)) => (FaultPlanSpec::parse(name)?.plan, format!("preset:{name}")),
            (None, None) => (FaultPlan::new(), "none".to_string()),
        };
        let terminal = match (plan.permanent_failure(), &self.cluster) {
            (Some(_), _) => Terminal::Faults,
            (None, Some(_)) => Terminal::Cluster,
            (None, None) => Terminal::Sim,
        };

        let sim_config = SimConfig {
            seed,
            overhead_per_task: self.overhead_per_task.unwrap_or(0.0),
            ..SimConfig::default()
        };
        let mut scenario = defaults
            .tile_size(tile_size)
            .scheduler(scheduler)
            .workers(workers)
            .seed(seed)
            .models_serialized(models.clone(), models_json)
            .config(sim_config.clone())
            .faults(plan)
            .backend(backend);
        if let Some(n) = self.n {
            scenario = scenario.n(n);
        } else if let Some(t) = self.tiles {
            scenario = scenario.tiles(t);
        }
        let mut cluster_echo = None;
        if let Some(c) = &self.cluster {
            let ic =
                InterconnectSpec::parse(c.interconnect.as_deref(), c.latency, c.bandwidth)?.build();
            let spec = ClusterSpec {
                nodes: c.nodes,
                workers_per_node: c.workers_per_node,
                nic_lanes_per_node: c.nic_lanes.unwrap_or(ic.default_nic_lanes()),
                mem_bytes_per_node: 0,
            };
            cluster_echo = Some(format!(
                "{}x{}:{}",
                c.nodes,
                c.workers_per_node,
                ic.fingerprint()
            ));
            scenario = scenario.cluster(spec).interconnect(ic);
        }
        scenario.validate()?;
        admit(&scenario)?;

        let content_hash = scenario.content_hash();
        let stream = self.stream.unwrap_or(false);
        let echo = ScenarioEcho {
            algorithm: algorithm.name().to_string(),
            n: scenario.matrix_order(),
            nb: tile_size,
            scheduler: scheduler.name().to_string(),
            workers,
            seed,
            backend: backend.name().to_string(),
            faults: faults_name,
            cluster: cluster_echo,
            content_hash: format!("{content_hash:#018x}"),
        };
        Ok(PreparedRun {
            scenario,
            models,
            sim_config,
            terminal,
            echo,
            content_hash,
            virtual_budget: self.virtual_budget,
            timeout_ms: self.timeout_ms,
            stream,
            stream_epoch,
            cacheable: backend == Backend::Des && !stream,
        })
    }
}

/// What a terminal produced, reduced to the deterministic fields.
pub enum RunOutput {
    /// From [`Scenario::run_sim`].
    Sim(SimRun),
    /// From [`Scenario::run_cluster`].
    Cluster(ClusterRun),
    /// From [`Scenario::run_faults`].
    Faults(FaultOutcome),
}

impl RunOutput {
    /// The run's final virtual clock (budget enforcement reads this).
    pub fn makespan(&self) -> f64 {
        match self {
            RunOutput::Sim(r) => r.predicted_seconds,
            RunOutput::Cluster(r) => r.predicted_seconds,
            RunOutput::Faults(o) => o.faulted_makespan,
        }
    }

    /// Build the deterministic result document.
    pub fn doc(&self) -> ResultDoc {
        let hash = |t: &supersim_trace::Trace| {
            format!("{:#018x}", fnv1a(FNV1A_BASIS, t.canonical().as_bytes()))
        };
        match self {
            RunOutput::Sim(r) => ResultDoc {
                kind: "sim".to_string(),
                predicted_seconds: r.predicted_seconds,
                gflops: r.gflops,
                tasks: r.stats.completed,
                trace_events: r.trace.len(),
                trace_hash: hash(&r.trace),
                transfers: None,
                transfer_bytes: None,
                clean_makespan: None,
                faulted_makespan: None,
                slowdown: None,
                retries: None,
            },
            RunOutput::Cluster(r) => ResultDoc {
                kind: "cluster".to_string(),
                predicted_seconds: r.predicted_seconds,
                gflops: r.gflops,
                tasks: r.stats.completed,
                trace_events: r.trace.len(),
                trace_hash: hash(&r.trace),
                transfers: Some(r.transfers),
                transfer_bytes: Some(r.transfer_bytes),
                clean_makespan: None,
                faulted_makespan: None,
                slowdown: None,
                retries: None,
            },
            RunOutput::Faults(o) => ResultDoc {
                kind: "faults".to_string(),
                predicted_seconds: o.faulted_makespan,
                gflops: 0.0,
                tasks: o.trace.len() as u64,
                trace_events: o.trace.len(),
                trace_hash: hash(&o.trace),
                transfers: None,
                transfer_bytes: None,
                clean_makespan: Some(o.clean_makespan),
                faulted_makespan: Some(o.faulted_makespan),
                slowdown: Some(o.report.slowdown),
                retries: Some(o.report.retries),
            },
        }
    }
}

impl SweepRequest {
    /// Map the request onto a [`SweepSpec`] (absent axes keep the sweep's
    /// defaults) and check it: the daemon's ceiling on the cell count,
    /// [`SweepSpec::try_cells`] (everything [`SweepSpec::validate`]
    /// checks), then the daemon's ceilings on every cell.
    pub fn spec(&self) -> Result<SweepSpec, String> {
        fn axis<T: Clone>(into: &mut Vec<T>, from: &Option<Vec<T>>) {
            if let Some(values) = from {
                into.clone_from(values);
            }
        }
        fn names<T, E>(
            into: &mut Vec<T>,
            from: &Option<Vec<String>>,
            parse: fn(&str) -> Result<T, E>,
        ) -> Result<(), E> {
            if let Some(names) = from {
                *into = names.iter().map(|s| parse(s)).collect::<Result<_, _>>()?;
            }
            Ok(())
        }
        let mut spec = SweepSpec::default();
        names(&mut spec.algorithms, &self.algorithms, Algorithm::parse)?;
        names(&mut spec.schedulers, &self.schedulers, parse_scheduler)?;
        names(&mut spec.plans, &self.plans, FaultPlanSpec::parse)?;
        axis(&mut spec.orders, &self.orders);
        axis(&mut spec.tile_counts, &self.tile_counts);
        axis(&mut spec.tile_sizes, &self.tile_sizes);
        axis(&mut spec.worker_counts, &self.worker_counts);
        axis(&mut spec.node_counts, &self.node_counts);
        axis(&mut spec.seeds, &self.seeds);
        spec.backend = named(&self.backend, Backend::parse_choice)?;
        if self.interconnect.is_some() || self.latency.is_some() || self.bandwidth.is_some() {
            let name = self.interconnect.as_deref();
            spec.interconnects = vec![InterconnectSpec::parse(name, self.latency, self.bandwidth)?];
        }
        spec.nic_lanes = self.nic_lanes;
        spec.overhead_per_task = self.overhead_per_task.unwrap_or(0.0);
        match &self.models {
            None => {}
            Some(ModelSource::Synthetic { mu, sigma, warmup }) => {
                let [mu, sigma, warmup] = ModelSource::synthetic(*mu, *sigma, *warmup);
                spec.models = SweepModels::Synthetic { mu, sigma, warmup };
            }
            Some(ModelSource::Constant { .. } | ModelSource::Calibration { .. }) => {
                return Err(
                    "sweeps take synthetic models only; use /run per scenario for the rest"
                        .to_string(),
                );
            }
        }
        spec.autotune.clone_from(&self.autotune);

        if spec.cell_bound() > MAX_SWEEP_CELLS {
            return Err(format!(
                "up to {} cells exceed the limit of {MAX_SWEEP_CELLS}",
                spec.cell_bound()
            ));
        }
        for cell in spec.try_cells()? {
            admit(&cell.scenario)?;
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(json: &str) -> RunRequest {
        serde_json::from_str(json).expect("request parses")
    }

    #[test]
    fn defaults_mirror_the_cli() {
        let cache = ModelCache::new();
        let p = req("{}").prepare(&cache).unwrap();
        assert_eq!(p.echo.algorithm, "cholesky");
        assert_eq!(p.echo.n, 512);
        assert_eq!(p.echo.nb, 64);
        assert_eq!(p.echo.workers, 4);
        assert_eq!(p.echo.seed, 42);
        // Quark replays deterministically, so auto resolves to DES.
        assert_eq!(p.echo.backend, "des");
        assert!(p.cacheable);
        assert_eq!(p.terminal, Terminal::Sim);
    }

    #[test]
    fn auto_backend_falls_back_for_racy_profiles() {
        let cache = ModelCache::new();
        let p = req("{\"scheduler\":\"starpu\"}").prepare(&cache).unwrap();
        assert_eq!(p.echo.backend, "threaded");
        assert!(!p.cacheable, "threaded runs are never memoized");
        // But forcing DES on a racy profile is a client error.
        let err = req("{\"scheduler\":\"starpu\",\"backend\":\"des\"}")
            .prepare(&cache)
            .err()
            .unwrap();
        assert!(err.contains("host-thread order"), "{err}");
    }

    #[test]
    fn invalid_fields_are_errors_not_panics() {
        let cache = ModelCache::new();
        for (json, needle) in [
            ("{\"n\":0}", "n must be positive"),
            ("{\"workers\":0}", "workers must be positive"),
            ("{\"algorithm\":\"gemm\"}", "unknown algorithm"),
            ("{\"fault_preset\":\"meteor\"}", "unknown fault preset"),
            (
                "{\"cluster\":{\"nodes\":0,\"workers_per_node\":2}}",
                "cluster.nodes",
            ),
            (
                "{\"algorithm\":\"qr\",\"cluster\":{\"nodes\":2,\"workers_per_node\":2}}",
                "distributed QR",
            ),
            ("{\"virtual_budget\":-1.0}", "virtual_budget"),
        ] {
            let err = req(json).prepare(&cache).err().unwrap();
            assert!(err.contains(needle), "for {json}: {err}");
        }
    }

    #[test]
    fn kill_preset_routes_to_the_faults_terminal() {
        let cache = ModelCache::new();
        let p = req("{\"fault_preset\":\"kill\",\"workers\":2}")
            .prepare(&cache)
            .unwrap();
        assert_eq!(p.terminal, Terminal::Faults);
        assert_eq!(p.echo.faults, "preset:kill");
    }

    #[test]
    fn sweep_mapping_validates_axes() {
        let ok: SweepRequest =
            serde_json::from_str("{\"tile_sizes\":[32,64],\"seeds\":[1,2]}").unwrap();
        let spec = ok.spec().unwrap();
        assert_eq!(spec.tile_sizes, vec![32, 64]);
        assert_eq!(spec.seeds, vec![1, 2]);
        let bad: SweepRequest = serde_json::from_str("{\"tile_sizes\":[]}").unwrap();
        assert!(bad.spec().unwrap_err().contains("tile_sizes"));
        let bad: SweepRequest = serde_json::from_str("{\"autotune\":\"flux\"}").unwrap();
        assert!(bad.spec().unwrap_err().contains("autotune"));
    }

    /// Names are judged by `supersim-workloads`; this module returns its
    /// text verbatim (`tests/cli.rs` pins the same for the CLI).
    #[test]
    fn unknown_names_return_the_vocabularys_text() {
        let cache = ModelCache::new();
        let sweep = |json: &str| -> SweepRequest { serde_json::from_str(json).unwrap() };
        let algorithm = Algorithm::parse("gemm").unwrap_err().to_string();
        let scheduler = parse_scheduler("slurm").unwrap_err().to_string();
        let backend = Backend::parse_choice("gpu").unwrap_err().to_string();
        let preset = FaultPlanSpec::parse("meteor").unwrap_err().to_string();
        let interconnect = InterconnectSpec::parse(Some("ether"), None, None)
            .unwrap_err()
            .to_string();
        for (run, sweeps, want) in [
            (
                "{\"algorithm\":\"gemm\"}",
                "{\"algorithms\":[\"lu\",\"gemm\"]}",
                algorithm,
            ),
            (
                "{\"scheduler\":\"slurm\"}",
                "{\"schedulers\":[\"slurm\"]}",
                scheduler,
            ),
            ("{\"backend\":\"gpu\"}", "{\"backend\":\"gpu\"}", backend),
            (
                "{\"fault_preset\":\"meteor\"}",
                "{\"plans\":[\"meteor\"]}",
                preset,
            ),
            (
                "{\"cluster\":{\"nodes\":2,\"workers_per_node\":2,\"interconnect\":\"ether\"}}",
                "{\"interconnect\":\"ether\"}",
                interconnect,
            ),
        ] {
            assert_eq!(req(run).prepare(&cache).err(), Some(want.clone()), "{run}");
            assert_eq!(sweep(sweeps).spec().err(), Some(want), "{sweeps}");
        }
    }

    /// Satellite 1: the size of a request is judged from closed forms,
    /// before a thread is spawned or a layout allocated — first by the
    /// library's ceilings, then by this daemon's tighter ones.
    #[test]
    fn oversize_requests_are_refused_with_the_limit_in_the_message() {
        let cache = ModelCache::new();
        for (json, needle) in [
            (
                "{\"tiles\":100000,\"backend\":\"des\"}",
                "tasks exceed the limit of 4294967295",
            ),
            (
                "{\"tiles\":300,\"backend\":\"des\"}",
                "4545100 tasks exceed the limit of 2000000",
            ),
            (
                "{\"tiles\":2,\"workers\":50000,\"backend\":\"threaded\"}",
                "50000 lanes exceed the threaded backend's limit of 4096",
            ),
            (
                "{\"tiles\":2,\"workers\":1000,\"backend\":\"threaded\"}",
                "1000 lanes exceed the threaded backend's limit of 256",
            ),
            (
                "{\"tiles\":2,\"backend\":\"des\",\"cluster\":{\"nodes\":5000,\"workers_per_node\":16}}",
                "100000 lanes exceed the des backend's limit of 65536",
            ),
        ] {
            let err = req(json).prepare(&cache).err().expect(json);
            assert!(err.contains(needle), "for {json}: {err}");
        }
        let sweep = |json: &str| -> SweepRequest { serde_json::from_str(json).unwrap() };
        let seeds: Vec<String> = (0..5000).map(|s| s.to_string()).collect();
        for (json, needle) in [
            (
                format!("{{\"seeds\":[{}]}}", seeds.join(",")),
                "5000 cells exceed the limit of 4096",
            ),
            (
                "{\"tile_counts\":[4,300]}".to_string(),
                "tasks exceed the limit of 2000000",
            ),
            (
                "{\"worker_counts\":[1000],\"backend\":\"threaded\"}".to_string(),
                "lanes exceed the threaded backend's limit of 256",
            ),
        ] {
            let err = sweep(&json).spec().expect_err(&json);
            assert!(err.contains(needle), "for {json}: {err}");
        }
        // What CI and the benchmark send stays far inside: the saturation
        // test's 80x80 tiles, the 1,000-node x 16-worker smoke's machine.
        for json in [
            "{\"tiles\":80,\"backend\":\"des\"}",
            "{\"tiles\":12,\"workers\":16,\"seed\":7,\"backend\":\"des\"}",
            "{\"n\":7680,\"tile_size\":96,\"backend\":\"des\",\"cluster\":{\"nodes\":1000,\"workers_per_node\":16}}",
        ] {
            assert!(req(json).prepare(&cache).is_ok(), "{json}");
        }
    }

    /// A `"faults"` plan arrives deserialized, past every `FaultPlan`
    /// builder method; `Scenario::validate` checks it like a built one.
    #[test]
    fn deserialized_fault_plans_are_validated() {
        let cache = ModelCache::new();
        let plan = |workers: usize, events: &str| {
            req(&format!(
                "{{\"tiles\":4,\"workers\":{workers},\"faults\":{{\"events\":[{events}],\"recovery\":\
                 {{\"backoff_base\":1e-4,\"backoff_cap\":1e-2,\"restart_delay\":0.0,\"checkpoint\":null}}}}}}"
            ))
            .prepare(&cache)
        };
        let straggler = |worker: usize, factor: f64| {
            format!(
                "{{\"Straggler\":{{\"scope\":{{\"Worker\":{worker}}},\"from\":0.0,\"until\":1.0,\"factor\":{factor:?}}}}}"
            )
        };
        let kill = |worker: usize| {
            format!("{{\"PermanentFailure\":{{\"scope\":{{\"Worker\":{worker}}},\"at\":0.01}}}}")
        };
        let transient = "{\"Transient\":{\"label\":null,\"period\":5,\"failures\":400000000,\"fail_fraction\":0.5}}";
        assert_eq!(plan(4, &straggler(1, 2.0)).unwrap().echo.faults, "custom");
        assert_eq!(plan(4, &kill(1)).unwrap().terminal, Terminal::Faults);
        for (prepared, needle) in [
            (plan(4, &straggler(1, -3.0)), "factor must be positive"),
            (plan(4, &straggler(9999, 2.0)), "outside the machine"),
            (
                plan(4, &format!("{},{}", kill(1), kill(2))),
                "at most one permanent failure",
            ),
            (plan(1, &kill(0)), "must leave survivors"),
            (plan(4, transient), "failures"),
        ] {
            let err = prepared.err().expect(needle);
            assert!(err.contains(needle), "want {needle:?}, got {err:?}");
        }
    }

    /// Satellite 4(c): what must not move. The `/run` documents for `{}`
    /// and for the benchmark's `run_body(seed)` shape — echo, content
    /// hash, makespan bits and trace hash — and the sweep report for its
    /// `sweep_body` shape, as the parent commit's binary printed them.
    #[test]
    fn response_documents_are_pinned() {
        let cache = ModelCache::new();
        let run = |json: &str| {
            let p = req(json).prepare(&cache).unwrap();
            let doc = RunResponse {
                result: RunOutput::Sim(p.scenario.run_sim()).doc(),
                scenario: p.echo,
            };
            serde_json::to_string(&doc).unwrap()
        };
        assert_eq!(
            run("{}"),
            "{\"scenario\":{\"algorithm\":\"cholesky\",\"n\":512,\"nb\":64,\"scheduler\":\"quark\",\
             \"workers\":4,\"seed\":42,\"backend\":\"des\",\"faults\":\"none\",\"cluster\":null,\
             \"content_hash\":\"0x9ee5710741b97479\"},\"result\":{\"kind\":\"sim\",\
             \"predicted_seconds\":0.09561276648707827,\"gflops\":0.469292978841524,\"tasks\":120,\
             \"trace_events\":120,\"trace_hash\":\"0x9a12f97f7c2eab36\",\"transfers\":null,\
             \"transfer_bytes\":null,\"clean_makespan\":null,\"faulted_makespan\":null,\
             \"slowdown\":null,\"retries\":null}}"
        );
        assert_eq!(
            run("{\"tiles\":12,\"workers\":16,\"seed\":7,\"backend\":\"des\"}"),
            "{\"scenario\":{\"algorithm\":\"cholesky\",\"n\":768,\"nb\":64,\"scheduler\":\"quark\",\
             \"workers\":16,\"seed\":7,\"backend\":\"des\",\"faults\":\"none\",\"cluster\":null,\
             \"content_hash\":\"0x949073de1d1b5b27\"},\"result\":{\"kind\":\"sim\",\
             \"predicted_seconds\":0.10628598683619868,\"gflops\":1.423423618704869,\"tasks\":364,\
             \"trace_events\":364,\"trace_hash\":\"0xfe51fd7603b41ee9\",\"transfers\":null,\
             \"transfer_bytes\":null,\"clean_makespan\":null,\"faulted_makespan\":null,\
             \"slowdown\":null,\"retries\":null}}"
        );
        let sweep: SweepRequest = serde_json::from_str(
            "{\"tile_counts\":[4,6],\"worker_counts\":[2,4],\"node_counts\":[0,2],\
             \"plans\":[\"clean\",\"straggler\"],\"seeds\":[1,2,3,4],\"backend\":\"des\",\"jobs\":1}",
        )
        .unwrap();
        let report = sweep.spec().unwrap().run(1).report;
        assert_eq!(report.cells_total, 64);
        let json = report.to_json();
        assert_eq!(
            (json.len(), fnv1a(FNV1A_BASIS, json.as_bytes())),
            (50_416, 0xcf45_7483_0c09_c9db)
        );
    }

    #[test]
    fn content_hash_flows_into_the_echo() {
        let cache = ModelCache::new();
        let a = req("{\"seed\":1}").prepare(&cache).unwrap();
        let b = req("{\"seed\":1}").prepare(&cache).unwrap();
        let c = req("{\"seed\":2}").prepare(&cache).unwrap();
        assert_eq!(a.content_hash, b.content_hash);
        assert_ne!(a.content_hash, c.content_hash);
        assert_eq!(a.echo.content_hash, format!("{:#018x}", a.content_hash));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]
        /// A valid request body with JSON-significant bytes written over
        /// it, a run of `[` spliced in, and then truncated parses into a
        /// `Value`, a `RunRequest` and a `SweepRequest` or fails, but never
        /// panics or overflows the stack.
        #[test]
        fn request_parse_never_panics(
            sweep in proptest::prelude::any::<bool>(),
            edits in proptest::prop::collection::vec(
                (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
                0..8,
            ),
            nest in (proptest::prelude::any::<usize>(), 0usize..200),
            cut in proptest::prelude::any::<usize>(),
        ) {
            const BYTES: &[u8] = b"\"\\{}[]:,u0e-. x9\ntfn";
            let body: &[u8] = if sweep {
                b"{\"tile_counts\":[4,6],\"plans\":[\"clean\",\"kill\"],\"seeds\":[1],\
                  \"latency\":1e-5,\"models\":{\"type\":\"synthetic\"},\"jobs\":2}"
            } else {
                b"{\"tiles\":4,\"scheduler\":\"quark\",\"seed\":7,\"stream\":false,\
                  \"cluster\":{\"nodes\":2,\"workers_per_node\":2,\"interconnect\":\"zero\"},\
                  \"faults\":{\"events\":[],\"recovery\":{\"backoff_base\":1e-4}},\
                  \"overhead_per_task\":-0.5e-3,\"stream_epoch\":null}"
            };
            let mut body = body.to_vec();
            for (at, b) in edits {
                let at = at % body.len();
                body[at] = BYTES[b % BYTES.len()];
            }
            let at = nest.0 % (body.len() + 1);
            body.splice(at..at, std::iter::repeat_n(b'[', nest.1));
            body.truncate(cut % (body.len() + 1));
            let text = std::str::from_utf8(&body).unwrap();
            let _ = serde_json::from_str::<serde_json::Value>(text);
            let _ = serde_json::from_str::<RunRequest>(text);
            let _ = serde_json::from_str::<SweepRequest>(text);
        }
    }
}
