//! The unified scenario builder: one typed entry point for every kind of
//! run the workload crate offers.
//!
//! A [`Scenario`] describes *what* to run (algorithm, problem size), *on
//! what* (scheduler profile, worker count, optionally a [`ClusterSpec`]
//! with an [`Interconnect`] and [`Placement`]), *from what randomness*
//! (seed or an explicit session), and *under what adversity* (a
//! [`FaultPlan`]). Terminal methods execute it:
//!
//! ```ignore
//! let sim = Scenario::new(Algorithm::Cholesky)
//!     .tiles(8)
//!     .tile_size(64)
//!     .scheduler(SchedulerKind::Quark)
//!     .workers(16)
//!     .seed(42)
//!     .models(registry)
//!     .run_sim();
//! ```
//!
//! A `Scenario` is also *the spec* the front ends share: the CLI, the
//! `serve` daemon and the sweep expander each map their text onto one
//! (names through the `parse` functions beside each type, all failing
//! with a [`ScenarioError`]), unwrap absent fields against
//! [`Scenario::new`]'s defaults, and ask [`Scenario::validate`] whether
//! it is legal — the single home of every check, returning `Result`. The
//! terminals call the same function and panic with its message:
//!
//! * [`Scenario::run_real`] — execute the actual kernels, verify, time;
//! * [`Scenario::run_sim`] — single-node simulated run (honours
//!   straggler/transient faults via the attached injector);
//! * [`Scenario::run_cluster`] — distributed simulated run;
//! * [`Scenario::run_faults`] — clean-vs-faulted comparison returning a
//!   [`crate::FaultOutcome`], including permanent-failure phased replay.

use crate::cluster::{exec_cluster, ClusterRun};
use crate::driver::{exec_real, exec_sim, Algorithm, RealRun, SimRun};
use crate::faultsim::{run_faults, FaultOutcome};
use crate::replay::Backend;
use std::sync::Arc;
use supersim_cluster::{BlockCyclic, ClusterSpec, Interconnect, Placement, ZeroCost};
use supersim_core::{KernelModel, ModelRegistry, SimConfig, SimSession};
use supersim_dist::Dist;
use supersim_faults::{CompiledFaults, FaultPlan, LaneMap};
use supersim_runtime::SchedulerKind;
use supersim_trace::{fnv1a, FNV1A_BASIS};

/// Why a scenario — or a name in its vocabulary — was rejected. `Display`
/// is the one-line message; the CLI, `serve` and `sweep` print or return
/// it unchanged and own no message text of their own for these checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(String);

impl ScenarioError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ScenarioError(msg.into())
    }

    /// `got` is not one of `names`; a long `got` is clipped
    /// ([`serde::de::Quoted`]).
    pub(crate) fn unknown(what: &str, got: &str, names: &[&str]) -> Self {
        let got = serde::de::Quoted(got);
        ScenarioError(format!("unknown {what} '{got}' ({})", names.join("|")))
    }

    /// The one text → value rule: the value among `all` that `print`s as
    /// `name`, or [`ScenarioError::unknown`] listing what they print as.
    pub(crate) fn lookup<T: Copy, const N: usize>(
        what: &str,
        name: &str,
        all: [T; N],
        print: impl Fn(T) -> &'static str,
    ) -> Result<T, Self> {
        let found = all.into_iter().find(|&v| print(v) == name);
        found.ok_or_else(|| Self::unknown(what, name, &all.map(print)))
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

impl From<ScenarioError> for String {
    fn from(e: ScenarioError) -> String {
        e.0
    }
}

/// Ceilings [`Scenario::validate`] enforces so that no accepted scenario
/// can exhaust the host before its first task runs: the tile layout is
/// `O(tiles^2)`, both engines keep per-lane state, and the threaded engine
/// spawns a host thread per lane. A host with less headroom (the `serve`
/// daemon) compares [`Scenario::task_count`] / [`Scenario::lane_count`]
/// against tighter limits of its own.
pub const MAX_TASKS: u64 = 1 << 32;
/// See [`MAX_TASKS`].
pub const MAX_LANES: u64 = 1 << 20;
/// See [`MAX_TASKS`].
pub const MAX_THREADED_LANES: u64 = 1 << 12;

/// The scheduler profile called `name` ([`SchedulerKind::parse`] with the
/// vocabulary's error).
pub fn parse_scheduler(name: &str) -> Result<SchedulerKind, ScenarioError> {
    SchedulerKind::parse(name).ok_or_else(|| {
        ScenarioError::unknown(
            "scheduler",
            name,
            &SchedulerKind::ALL.map(SchedulerKind::name),
        )
    })
}

/// Log-space mean of the built-in synthetic kernel model (~2.5 ms).
pub const SYNTHETIC_MU: f64 = -6.0;
/// Log-space sigma of the built-in synthetic kernel model.
pub const SYNTHETIC_SIGMA: f64 = 0.3;

/// The synthetic kernel model every front end offers when no calibration
/// is given: `logN(mu, sigma)` seconds, times `warmup` on each worker's
/// first call (1.0 = no warm-up).
pub fn synthetic_model(mu: f64, sigma: f64, warmup: f64) -> Result<KernelModel, ScenarioError> {
    let dist = Dist::log_normal(mu, sigma)
        .map_err(|e| ScenarioError::new(format!("bad synthetic model: {e}")))?;
    if warmup > 0.0 {
        Ok(KernelModel::with_warmup(dist, warmup))
    } else {
        Err(ScenarioError::new("warmup must be positive"))
    }
}

/// A registry giving every kernel label of `algorithms` the same `model`.
pub fn uniform_models(algorithms: &[Algorithm], model: &KernelModel) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    for label in algorithms.iter().flat_map(|a| a.labels()) {
        registry.insert(*label, model.clone());
    }
    registry
}

/// A declarative description of one run. See the [module docs](self).
#[derive(Clone)]
pub struct Scenario {
    pub(crate) algorithm: Algorithm,
    tiles: Option<usize>,
    tile_size: usize,
    n: Option<usize>,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) workers: usize,
    pub(crate) seed: u64,
    models: Option<Arc<ModelRegistry>>,
    /// `models` as `serde_json` writes it, when the caller serialised the
    /// shared registry once up front ([`Scenario::models_serialized`]).
    models_json: Option<Arc<str>>,
    config: Option<SimConfig>,
    session: Option<Arc<SimSession>>,
    pub(crate) cluster: Option<ClusterSpec>,
    interconnect: Option<Arc<dyn Interconnect>>,
    placement: Option<Arc<dyn Placement>>,
    pub(crate) faults: FaultPlan,
    pub(crate) backend: Backend,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("algorithm", &self.algorithm)
            .field("n", &self.matrix_order())
            .field("nb", &self.tile_size)
            .field("scheduler", &self.scheduler)
            .field("workers", &self.workers)
            .field("seed", &self.seed)
            .field("cluster", &self.cluster)
            .field("faults", &self.faults)
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// A scenario for `algorithm` with defaults: an 8x8 grid of 64-wide
    /// tiles (`n = 512`), the Quark profile, 4 workers, seed 42, no
    /// cluster, no faults.
    pub fn new(algorithm: Algorithm) -> Self {
        Scenario {
            algorithm,
            tiles: None,
            tile_size: 64,
            n: None,
            scheduler: SchedulerKind::default(),
            workers: 4,
            seed: 42,
            models: None,
            models_json: None,
            config: None,
            session: None,
            cluster: None,
            interconnect: None,
            placement: None,
            faults: FaultPlan::new(),
            backend: Backend::Threaded,
        }
    }

    /// Set the tile-grid side (`n = tiles * tile_size`). Overridden by an
    /// explicit [`Scenario::n`].
    pub fn tiles(mut self, tiles: usize) -> Self {
        self.tiles = Some(tiles);
        self
    }

    /// Set the tile size `nb`.
    pub fn tile_size(mut self, nb: usize) -> Self {
        self.tile_size = nb;
        self
    }

    /// Set the matrix order `n` directly (need not be a multiple of the
    /// tile size; the trailing tiles are ragged). Takes precedence over
    /// [`Scenario::tiles`].
    pub fn n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Select the scheduler profile.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Set the worker count (threads for real runs, virtual workers for
    /// single-node simulated runs; ignored by cluster runs, which size
    /// themselves from the [`ClusterSpec`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the seed (matrix generation for real runs; duration sampling
    /// for simulated runs built from [`Scenario::models`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Provide kernel duration models for simulated terminals. A session
    /// is built from these plus the seed/config on each simulated run.
    pub fn models(self, models: ModelRegistry) -> Self {
        self.models_shared(Arc::new(models))
    }

    /// Provide a *shared* read-only model registry. Sweeps build one
    /// fitted-model database up front and hand every cell the same `Arc`;
    /// sessions built from it reference it without cloning.
    pub fn models_shared(mut self, models: Arc<ModelRegistry>) -> Self {
        self.models = Some(models);
        self.models_json = None;
        self
    }

    /// [`Scenario::models_shared`] with the registry's JSON text (what
    /// `serde_json::to_string` writes for it) already in hand: a host that
    /// hashes many scenarios over one registry serialises it once, and
    /// [`Scenario::content_hash`] reuses the text.
    pub fn models_serialized(mut self, models: Arc<ModelRegistry>, json: Arc<str>) -> Self {
        debug_assert_eq!(
            serde_json::to_string(models.as_ref()).ok().as_deref(),
            Some(&*json),
            "the text must be the registry's own serialisation"
        );
        self.models = Some(models);
        self.models_json = Some(json);
        self
    }

    /// Override the full simulation config (seed, overhead, worker
    /// speeds, warm-up). The builder's `seed` is ignored for session
    /// construction when a config is given.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Use an existing session for simulated terminals instead of
    /// building one from models + seed. Takes precedence over
    /// [`Scenario::models`]/[`Scenario::config`]. Fault terminals that
    /// need several independent runs fork it.
    pub fn session(mut self, session: Arc<SimSession>) -> Self {
        self.session = Some(session);
        self
    }

    /// Make this a distributed scenario over `spec` (terminals:
    /// [`Scenario::run_cluster`] / [`Scenario::run_faults`]).
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.cluster = Some(spec);
        self
    }

    /// Select the interconnect model (cluster scenarios; default
    /// [`ZeroCost`]).
    pub fn interconnect(mut self, ic: Arc<dyn Interconnect>) -> Self {
        self.interconnect = Some(ic);
        self
    }

    /// Select the data placement (cluster scenarios; default
    /// [`BlockCyclic::square`] over the node count).
    pub fn placement(mut self, pl: Arc<dyn Placement>) -> Self {
        self.placement = Some(pl);
        self
    }

    /// Attach a fault plan. An empty plan (the default) leaves every
    /// simulated terminal bit-for-bit identical to a plan-free scenario.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Select the simulation backend (default [`Backend::Threaded`]). The
    /// DES replay backend produces the same canonical trace on the
    /// supported profiles (Quark single-node, cluster) without spawning
    /// one host thread per simulated worker; real runs always execute on
    /// the threaded engine.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The resolved matrix order.
    pub fn matrix_order(&self) -> usize {
        self.n
            .unwrap_or(self.tiles.unwrap_or(8).saturating_mul(self.tile_size))
    }

    /// The resolved tile size.
    pub fn tile_size_of(&self) -> usize {
        self.tile_size
    }

    /// The algorithm.
    pub fn algorithm_of(&self) -> Algorithm {
        self.algorithm
    }

    /// The scheduler profile.
    pub fn scheduler_of(&self) -> SchedulerKind {
        self.scheduler
    }

    /// The worker count (per node for cluster scenarios).
    pub fn workers_of(&self) -> usize {
        self.workers
    }

    /// The seed.
    pub fn seed_of(&self) -> u64 {
        self.seed
    }

    /// The backend.
    pub fn backend_of(&self) -> Backend {
        self.backend
    }

    /// Compute tasks in the scenario's stream, in closed form from the
    /// tile-grid side (saturating; transfers of a cluster run come on
    /// top). With [`Scenario::lane_count`], what a host can compare
    /// against its limits before anything is allocated.
    pub fn task_count(&self) -> u64 {
        let nt = self.matrix_order().div_ceil(self.tile_size.max(1));
        self.algorithm.task_count(nt as u64)
    }

    /// Lanes of the simulated machine (saturating): the workers of a
    /// single node, or every compute and NIC lane of the cluster. The
    /// threaded backend spends a host thread on each.
    pub fn lane_count(&self) -> u64 {
        match &self.cluster {
            None => self.workers as u64,
            Some(c) => (c.nodes as u64).saturating_mul(
                (c.workers_per_node as u64).saturating_add(c.nic_lanes_per_node as u64),
            ),
        }
    }

    /// Compare [`Scenario::task_count`] and [`Scenario::lane_count`]
    /// against a host's ceilings (the lane ceiling depends on the
    /// backend: a threaded lane is a host thread).
    pub fn fits(
        &self,
        max_tasks: u64,
        max_des_lanes: u64,
        max_threaded_lanes: u64,
    ) -> Result<(), ScenarioError> {
        let (tasks, lanes) = (self.task_count(), self.lane_count());
        let max_lanes = match self.backend {
            Backend::Threaded => max_threaded_lanes,
            Backend::Des => max_des_lanes,
        };
        if tasks > max_tasks {
            Err(ScenarioError::new(format!(
                "{tasks} tasks exceed the limit of {max_tasks}"
            )))
        } else if lanes > max_lanes {
            Err(ScenarioError::new(format!(
                "{lanes} lanes exceed the {} backend's limit of {max_lanes}",
                self.backend.name()
            )))
        } else {
            Ok(())
        }
    }

    /// Everything that makes the scenario legal to run, in one place:
    /// positive sizes, the size ceilings ([`MAX_TASKS`]), a backend that
    /// can replay the scheduler profile, no distributed QR, a
    /// non-negative overhead, a model for every kernel label, and a fault
    /// plan that is legal for this machine ([`FaultPlan::validate`]). The
    /// front ends call this and report the error;
    /// the terminals call it too and panic with the same message. Cheap:
    /// arithmetic plus `O(fault events)`, allocation-free for a fault-free
    /// scenario.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let err = |msg: String| Err(ScenarioError::new(msg));
        let cluster = self.cluster.as_ref();
        let sizes = [
            ("n", self.n.unwrap_or(1)),
            ("tiles", self.tiles.unwrap_or(1)),
            ("tile_size", self.tile_size),
            ("workers", self.workers),
            ("cluster.nodes", cluster.map_or(1, |c| c.nodes)),
            (
                "cluster.workers_per_node",
                cluster.map_or(1, |c| c.workers_per_node),
            ),
            (
                "cluster.nic_lanes",
                cluster.map_or(1, |c| c.nic_lanes_per_node),
            ),
        ];
        if let Some((what, _)) = sizes.iter().find(|(_, v)| *v == 0) {
            return err(format!("{what} must be positive"));
        }
        if cluster.is_some() && self.algorithm == Algorithm::Qr {
            return err("distributed QR is not implemented; use cholesky or lu".to_string());
        }
        Backend::resolve(Some(self.backend), self.scheduler, cluster.is_some())?;
        self.fits(MAX_TASKS, MAX_LANES, MAX_THREADED_LANES)?;
        if !self
            .config
            .as_ref()
            .is_none_or(|c| c.overhead_per_task >= 0.0)
        {
            return err("overhead_per_task must be non-negative".to_string());
        }
        if let Some(models) = &self.models {
            if let Some(label) = self
                .algorithm
                .labels()
                .iter()
                .find(|l| models.get(l).is_none())
            {
                return err(format!("no kernel model registered for '{label}'"));
            }
        }
        if self.faults.is_empty() {
            return Ok(());
        }
        self.faults
            .validate(&self.lane_map())
            .map_err(ScenarioError::new)
    }

    /// `self` if [`Scenario::validate`] accepts it; panics with its
    /// message otherwise. Every terminal starts here.
    fn checked(self) -> Self {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self
    }

    /// The resolved cluster interconnect (cluster scenarios only).
    pub(crate) fn resolved_interconnect(&self) -> Arc<dyn Interconnect> {
        self.interconnect
            .clone()
            .unwrap_or_else(|| Arc::new(ZeroCost))
    }

    /// The resolved cluster placement (cluster scenarios only).
    pub(crate) fn resolved_placement(&self) -> Arc<dyn Placement> {
        let spec = self.cluster.as_ref().expect("placement needs a cluster");
        self.placement
            .clone()
            .unwrap_or_else(|| Arc::new(BlockCyclic::square(spec.nodes)))
    }

    /// The session of the scenario's first simulated run: the explicit
    /// one, else a new one from models + config/seed. Later runs of one
    /// terminal fork it, so they see identical virgin state.
    pub(crate) fn fresh_session(&self) -> Arc<SimSession> {
        if let Some(s) = &self.session {
            s.clone()
        } else {
            let models = self
                .models
                .clone()
                .expect("simulated terminals need .models(...) or .session(...)");
            let config = match &self.config {
                Some(c) => c.clone(),
                None => SimConfig {
                    seed: self.seed,
                    ..SimConfig::default()
                },
            };
            SimSession::with_shared(models, config)
        }
    }

    /// A stable content hash of everything that determines this
    /// scenario's virtual-time outcome: algorithm, resolved sizes,
    /// scheduler, workers, seed, backend, cluster layout, interconnect
    /// and placement, fault plan, config overrides, and the attached
    /// duration-model database. Field-order independent (the builder's
    /// call order never matters) and seed-inclusive, so two scenarios
    /// hash equal only if a deterministic backend produces byte-identical
    /// results for both — the key the serve layer's content-addressed
    /// response cache relies on.
    ///
    /// Panics if an explicit session is attached without `.models(...)`:
    /// session internals (clock, RNG state) are not hashable, so callers
    /// must also provide the registry the session was built from.
    pub fn content_hash(&self) -> u64 {
        assert!(
            self.session.is_none() || self.models.is_some(),
            "content_hash cannot see inside an explicit session; \
             attach the registry it was built from via .models(...)"
        );
        let mut lines: Vec<String> = vec![
            format!("algorithm={}", self.algorithm.name()),
            format!("n={}", self.matrix_order()),
            format!("nb={}", self.tile_size),
            format!("scheduler={}", self.scheduler.name()),
            format!("workers={}", self.workers),
            format!("seed={}", self.seed),
            format!("backend={}", self.backend.name()),
        ];
        if let Some(spec) = &self.cluster {
            lines.push(format!(
                "cluster={}x{}:nic{}:mem{}",
                spec.nodes, spec.workers_per_node, spec.nic_lanes_per_node, spec.mem_bytes_per_node
            ));
            lines.push(format!(
                "interconnect={}",
                self.resolved_interconnect().fingerprint()
            ));
            lines.push(format!("placement={}", self.resolved_placement().name()));
        }
        if !self.faults.is_empty() {
            lines.push(format!(
                "faults={}",
                serde_json::to_string(&self.faults).expect("fault plans serialize")
            ));
        }
        if let Some(c) = &self.config {
            lines.push(format!(
                "config={}:{:?}:{:e}:{:?}:{:?}",
                c.seed, c.mitigation, c.overhead_per_task, c.worker_speeds, c.wakeup_mode
            ));
        }
        match (&self.models_json, &self.models) {
            (Some(json), _) => lines.push(format!("models={json}")),
            (None, Some(m)) => lines.push(format!(
                "models={}",
                serde_json::to_string(m.as_ref()).expect("model registries serialize")
            )),
            (None, None) => {}
        }
        // Sorting makes the digest independent of how fields are added
        // above — reordering this function can never silently invalidate
        // caches keyed on the hash.
        lines.sort();
        lines.iter().fold(FNV1A_BASIS, |h, line| {
            fnv1a(fnv1a(h, line.as_bytes()), b"\n")
        })
    }

    /// The lane map fault plans compile against: the cluster layout if
    /// one is set, else a single node of `workers` lanes.
    pub(crate) fn lane_map(&self) -> LaneMap {
        match &self.cluster {
            None => LaneMap::single_node(self.workers),
            Some(spec) => {
                let nodes = (0..spec.nodes)
                    .map(|n| supersim_faults::NodeLanes {
                        compute: spec.compute_range(n),
                        nic: spec.nic_range(n),
                    })
                    .collect();
                LaneMap::with_nodes(nodes, spec.total_workers())
            }
        }
    }

    /// Attach the scenario's compiled fault plan to `session` (no-op for
    /// an empty plan, preserving the bit-for-bit clean path). Returns the
    /// injector for stats readout.
    pub(crate) fn attach_plan(
        &self,
        session: &SimSession,
        plan: &FaultPlan,
        shift: f64,
    ) -> Option<Arc<CompiledFaults>> {
        if plan.is_empty() {
            return None;
        }
        let inj = Arc::new(CompiledFaults::compile(plan, &self.lane_map(), shift));
        session.attach_faults(inj.clone());
        Some(inj)
    }

    /// Execute the real kernels and verify the numerical result.
    /// Panics if a cluster or fault plan is attached — both exist only in
    /// simulation.
    pub fn run_real(self) -> RealRun {
        let sc = self.checked();
        assert!(
            sc.cluster.is_none(),
            "run_real is single-node; use run_cluster for distributed scenarios"
        );
        assert!(
            sc.faults.is_empty(),
            "faults are simulated only; use run_sim or run_faults"
        );
        assert!(
            sc.backend == Backend::Threaded,
            "run_real executes real kernels; the DES backend only replays simulations"
        );
        exec_real(
            sc.algorithm,
            sc.scheduler,
            sc.workers,
            sc.matrix_order(),
            sc.tile_size,
            sc.seed,
        )
    }

    /// Simulate the scenario on a single node. Straggler and transient
    /// events in the fault plan are injected; a plan with a permanent
    /// failure must go through [`Scenario::run_faults`] (it needs the
    /// two-phase replay and returns the richer [`FaultOutcome`]).
    pub fn run_sim(self) -> SimRun {
        assert!(
            self.cluster.is_none(),
            "scenario has a cluster; use run_cluster or run_faults"
        );
        assert!(
            self.faults.permanent_failure().is_none(),
            "permanent failures need the phased replay; use run_faults"
        );
        let sc = self.checked();
        let session = sc.fresh_session();
        sc.attach_plan(&session, &sc.faults, 0.0);
        exec_sim(&sc, session, &[], &mut |_| true)
    }

    /// Simulate the scenario on the attached cluster. Straggler,
    /// link-degradation and transient events are injected; permanent
    /// failures must go through [`Scenario::run_faults`].
    pub fn run_cluster(self) -> ClusterRun {
        assert!(
            self.cluster.is_some(),
            "run_cluster needs .cluster(ClusterSpec)"
        );
        assert!(
            self.faults.permanent_failure().is_none(),
            "permanent failures need the phased replay; use run_faults"
        );
        let sc = self.checked();
        let session = sc.fresh_session();
        sc.attach_plan(&session, &sc.faults, 0.0);
        let placement = sc.resolved_placement();
        exec_cluster(&sc, placement, session, &[], &mut |_| true)
    }

    /// Run the scenario clean *and* under its fault plan, returning both
    /// traces and a [`DegradationReport`](supersim_faults::DegradationReport). Handles every event
    /// kind, including permanent failures via two-phase replay
    /// (single-node: work-preserving cut; cluster: coordinated
    /// checkpoint/restart per the plan's [`supersim_faults::RecoveryPolicy`]).
    pub fn run_faults(self) -> FaultOutcome {
        run_faults(self.checked())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::make_session;
    use supersim_core::KernelModel;

    fn models(alg: Algorithm) -> ModelRegistry {
        let mut m = ModelRegistry::new();
        for l in alg.labels() {
            m.insert(*l, KernelModel::constant(0.01));
        }
        m
    }

    #[test]
    fn builder_resolves_sizes() {
        let s = Scenario::new(Algorithm::Cholesky).tiles(8).tile_size(64);
        assert_eq!(s.matrix_order(), 512);
        // Explicit n wins over tiles.
        let s = Scenario::new(Algorithm::Cholesky)
            .tiles(8)
            .tile_size(64)
            .n(160);
        assert_eq!(s.matrix_order(), 160);
        // Defaults: 8 tiles of 64.
        assert_eq!(Scenario::new(Algorithm::Lu).matrix_order(), 512);
    }

    #[test]
    fn scenario_runs_real_and_sim() {
        let real = Scenario::new(Algorithm::Cholesky)
            .n(24)
            .tile_size(8)
            .workers(2)
            .seed(1)
            .run_real();
        assert!(real.residual < 1e-11);

        let sim = Scenario::new(Algorithm::Cholesky)
            .n(32)
            .tile_size(8)
            .workers(2)
            .seed(1)
            .models(models(Algorithm::Cholesky))
            .run_sim();
        assert!(sim.predicted_seconds > 0.0);
        assert!(sim.trace.validate(1e-9).is_ok());
    }

    #[test]
    fn scenario_session_takes_precedence() {
        // An explicit session's seed governs, not the builder's. Sampled
        // durations, not the module's constant ones: the seed then decides
        // every duration, and the threaded engine orders equal completion
        // times by host-thread arrival, so a constant model makes even the
        // canonical trace racy.
        let sampled = synthetic_model(-4.6, 0.2, 1.0).unwrap();
        let sampled = || uniform_models(&[Algorithm::Cholesky], &sampled);
        let session = make_session(sampled(), 7);
        let a = Scenario::new(Algorithm::Cholesky)
            .n(40)
            .tile_size(10)
            .workers(3)
            .seed(999)
            .session(session)
            .run_sim();
        let b = Scenario::new(Algorithm::Cholesky)
            .n(40)
            .tile_size(10)
            .workers(3)
            .models(sampled())
            .seed(7)
            .run_sim();
        // Virtual times are seed-deterministic; worker placement is not —
        // compare the canonical (lane-free) projection.
        assert_eq!(a.trace.canonical(), b.trace.canonical());
    }

    #[test]
    fn empty_plan_is_bit_for_bit_clean() {
        let mk = || {
            Scenario::new(Algorithm::Lu)
                .n(40)
                .tile_size(10)
                .workers(3)
                .seed(5)
                .models(models(Algorithm::Lu))
        };
        let clean = mk().run_sim();
        let faulted = mk().faults(FaultPlan::new()).run_sim();
        assert_eq!(clean.trace.canonical(), faulted.trace.canonical());
        assert_eq!(clean.predicted_seconds, faulted.predicted_seconds);
    }

    #[test]
    fn straggler_plan_slows_run_sim() {
        let mk = || {
            Scenario::new(Algorithm::Cholesky)
                .n(48)
                .tile_size(12)
                .workers(2)
                .seed(9)
                .models(models(Algorithm::Cholesky))
        };
        let clean = mk().run_sim();
        let slow = mk()
            .faults(FaultPlan::new().straggler_worker(0, 0.0, f64::MAX, 2.0))
            .run_sim();
        assert!(
            slow.predicted_seconds > clean.predicted_seconds,
            "straggler must not speed the run up: {} vs {}",
            slow.predicted_seconds,
            clean.predicted_seconds
        );
    }

    #[test]
    #[should_panic(expected = "phased replay")]
    fn permanent_failure_rejected_by_run_sim() {
        let _ = Scenario::new(Algorithm::Cholesky)
            .n(32)
            .tile_size(8)
            .models(models(Algorithm::Cholesky))
            .faults(FaultPlan::new().kill_worker(1, 0.5))
            .run_sim();
    }

    /// Satellite 4(a): every name of the vocabulary parses back to the
    /// value that printed it, and an unknown name lists the known ones.
    #[test]
    fn vocabulary_round_trips() {
        use crate::sweep::{FaultPlanSpec, InterconnectSpec};
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::parse(alg.name()), Ok(alg));
        }
        for kind in SchedulerKind::ALL {
            assert_eq!(parse_scheduler(kind.name()), Ok(kind));
        }
        for backend in Backend::ALL {
            assert_eq!(Backend::parse(backend.name()), Ok(backend));
            assert_eq!(Backend::parse_choice(backend.name()), Ok(Some(backend)));
        }
        assert_eq!(Backend::parse_choice("auto"), Ok(None));
        for name in ["zero", "hockney", "sharedlink"] {
            let ic = InterconnectSpec::parse(Some(name), None, None).unwrap();
            assert_eq!(ic.name(), name);
            assert_eq!(ic.build().name(), name);
        }
        assert_eq!(
            InterconnectSpec::parse(None, None, None),
            Ok(InterconnectSpec::default())
        );
        for name in ["clean", "straggler", "transient", "kill"] {
            assert_eq!(FaultPlanSpec::parse(name).unwrap().name, name);
            assert!(FaultPlanSpec::preset(name).is_some());
        }
        assert!(FaultPlanSpec::preset("meteor").is_none());
        for (err, text) in [
            (
                Algorithm::parse("gemm").unwrap_err(),
                "unknown algorithm 'gemm' (cholesky|qr|lu)",
            ),
            (
                parse_scheduler("slurm").unwrap_err(),
                "unknown scheduler 'slurm' (quark|starpu|ompss)",
            ),
            (
                Backend::parse("gpu").unwrap_err(),
                "unknown backend 'gpu' (threaded|des)",
            ),
            (
                Backend::parse_choice("gpu").unwrap_err(),
                "unknown backend 'gpu' (auto|threaded|des)",
            ),
            (
                InterconnectSpec::parse(Some("ether"), None, None).unwrap_err(),
                "unknown interconnect 'ether' (zero|hockney|sharedlink)",
            ),
            (
                FaultPlanSpec::parse("meteor").unwrap_err(),
                "unknown fault preset 'meteor' (clean|straggler|transient|kill)",
            ),
            (
                InterconnectSpec::parse(None, Some(-1.0), None).unwrap_err(),
                "latency must be non-negative",
            ),
            (
                InterconnectSpec::parse(None, None, Some(f64::NAN)).unwrap_err(),
                "bandwidth must be positive",
            ),
        ] {
            assert_eq!(err.to_string(), text);
        }
    }

    #[test]
    fn backend_choice_resolves_per_scenario() {
        use SchedulerKind::{Quark, StarPu};
        let resolve = Backend::resolve;
        assert_eq!(resolve(None, Quark, false), Ok(Backend::Des));
        assert_eq!(resolve(None, StarPu, false), Ok(Backend::Threaded));
        // Cluster lanes are pinned, whatever the scheduler axis says.
        assert_eq!(resolve(None, StarPu, true), Ok(Backend::Des));
        assert_eq!(resolve(Some(Backend::Des), StarPu, true), Ok(Backend::Des));
        assert_eq!(
            resolve(Some(Backend::Threaded), Quark, false),
            Ok(Backend::Threaded)
        );
        let err = resolve(Some(Backend::Des), StarPu, false).unwrap_err();
        assert!(err.to_string().contains("cannot replay deterministically"));
    }

    #[test]
    fn uniform_models_cover_every_label_once() {
        let model = synthetic_model(SYNTHETIC_MU, SYNTHETIC_SIGMA, 1.5).unwrap();
        assert_eq!(model.warmup_factor, 1.5);
        let registry = uniform_models(&Algorithm::ALL, &model);
        for alg in Algorithm::ALL {
            for label in alg.labels() {
                assert_eq!(registry.expect(label), &model);
            }
        }
        // dgemm is shared by Cholesky and LU.
        assert_eq!(registry.len(), 11);
        assert!(synthetic_model(-6.0, 0.0, 1.0).is_err());
        assert!(synthetic_model(-6.0, 0.3, 0.0).is_err());
        assert!(synthetic_model(f64::NAN, 0.3, 1.0).is_err());
    }

    /// The closed form a host compares against its limits is the length
    /// of the stream the engines would pull.
    #[test]
    fn task_count_is_the_stream_length() {
        for alg in Algorithm::ALL {
            for nt in 1..=6usize {
                let (a, t) = crate::stream::layout(alg, nt * 8, 8);
                let streamed = crate::stream::tasks(alg, &a, t.as_ref()).count() as u64;
                let sc = Scenario::new(alg).tiles(nt).tile_size(8);
                assert_eq!(sc.task_count(), streamed, "{alg:?} nt={nt}");
                // Ragged orders round the grid up.
                assert_eq!(sc.n(nt * 8 - 3).task_count(), streamed);
            }
        }
        assert_eq!(
            Scenario::new(Algorithm::Qr).tiles(usize::MAX).task_count(),
            u64::MAX
        );
        let lanes = |nodes, workers, nic| {
            Scenario::new(Algorithm::Lu)
                .cluster(ClusterSpec {
                    nodes,
                    workers_per_node: workers,
                    nic_lanes_per_node: nic,
                    mem_bytes_per_node: 0,
                })
                .lane_count()
        };
        assert_eq!(lanes(1000, 16, 4), 20_000);
        assert_eq!(lanes(usize::MAX, usize::MAX, 1), u64::MAX);
        assert_eq!(Scenario::new(Algorithm::Lu).workers(7).lane_count(), 7);
    }

    /// Satellite 4(b): the one table of illegal scenarios. `tests/cli.rs`
    /// and `crates/serve/tests/service.rs` drive the same rows through
    /// the two other front ends.
    #[test]
    fn validate_rejects_each_illegal_scenario_with_one_line() {
        use supersim_faults::{FaultEvent, FaultScope, RecoveryPolicy};
        let base = || {
            Scenario::new(Algorithm::Cholesky)
                .n(64)
                .tile_size(16)
                .models(models(Algorithm::Cholesky))
        };
        let raw = |events: Vec<FaultEvent>| FaultPlan {
            events,
            recovery: RecoveryPolicy::default(),
        };
        let straggler = |worker, from, until, factor| {
            raw(vec![FaultEvent::Straggler {
                scope: FaultScope::Worker(worker),
                from,
                until,
                factor,
            }])
        };
        let kill = |worker, at| FaultEvent::PermanentFailure {
            scope: FaultScope::Worker(worker),
            at,
        };
        let cluster = |nodes, workers| ClusterSpec {
            nodes,
            workers_per_node: workers,
            nic_lanes_per_node: 1,
            mem_bytes_per_node: 0,
        };
        assert_eq!(base().validate(), Ok(()));
        assert_eq!(
            base()
                .faults(straggler(3, 0.0, 1.0, 2.0))
                .cluster(cluster(2, 2))
                .validate(),
            Ok(())
        );
        for (scenario, needle) in [
            (base().n(0), "n must be positive"),
            (base().tiles(0), "tiles must be positive"),
            (base().tile_size(0), "tile_size must be positive"),
            (base().workers(0), "workers must be positive"),
            (
                base().cluster(cluster(0, 2)),
                "cluster.nodes must be positive",
            ),
            (
                Scenario::new(Algorithm::Qr).cluster(cluster(2, 2)),
                "distributed QR",
            ),
            (
                base()
                    .scheduler(SchedulerKind::StarPu)
                    .backend(Backend::Des),
                "cannot replay deterministically",
            ),
            (
                base().faults(raw(vec![kill(0, 0.1), kill(1, 0.2)])),
                "at most one permanent failure",
            ),
            (
                base().workers(1).faults(raw(vec![kill(0, 0.1)])),
                "must leave survivors",
            ),
            (
                base()
                    .cluster(cluster(2, 1))
                    .faults(raw(vec![kill(0, 0.1)])),
                "must leave survivors",
            ),
            (
                base().faults(straggler(0, 0.0, 1.0, -3.0)),
                "factor must be positive",
            ),
            (
                base().faults(straggler(0, 1.0, 1.0, 2.0)),
                "window must be non-empty",
            ),
            (
                base().faults(straggler(9999, 0.0, 1.0, 2.0)),
                "outside the machine",
            ),
            (
                base().faults(raw(vec![FaultEvent::Transient {
                    label: None,
                    period: 5,
                    failures: 400_000_000,
                    fail_fraction: 0.5,
                }])),
                "failures",
            ),
            (base().n(6_400_000).backend(Backend::Des), "tasks exceed"),
            (base().workers(50_000), "lanes exceed the threaded"),
            (
                base().workers(5_000_000).backend(Backend::Des),
                "lanes exceed the des",
            ),
            (
                base().config(SimConfig {
                    overhead_per_task: -1.0,
                    ..SimConfig::default()
                }),
                "overhead_per_task",
            ),
            (
                Scenario::new(Algorithm::Qr).models(models(Algorithm::Lu)),
                "no kernel model registered for 'dgeqrt'",
            ),
        ] {
            let err = scenario.validate().expect_err(needle).to_string();
            assert!(err.contains(needle), "want {needle:?}, got {err:?}");
            assert_eq!(err.lines().count(), 1, "{err:?}");
        }
    }

    /// Library callers that skip `validate` get its message as the
    /// terminal's panic.
    #[test]
    #[should_panic(expected = "n must be positive")]
    fn terminals_panic_with_the_validation_message() {
        let _ = Scenario::new(Algorithm::Cholesky)
            .n(0)
            .models(models(Algorithm::Cholesky))
            .run_sim();
    }

    /// Content hashes key `serve`'s response cache and are echoed in every
    /// `/run` answer: their values must not move.
    #[test]
    fn content_hash_values_are_pinned() {
        let a = Scenario::new(Algorithm::Cholesky)
            .n(128)
            .tile_size(32)
            .workers(4)
            .seed(7)
            .models(models(Algorithm::Cholesky))
            .backend(Backend::Des);
        assert_eq!(a.content_hash(), 0x64cd_aeff_a5c4_51ab);
        let b = Scenario::new(Algorithm::Lu)
            .tiles(6)
            .tile_size(16)
            .seed(3)
            .models(models(Algorithm::Lu))
            .cluster(ClusterSpec::new(2, 3))
            .faults(FaultPlan::new().transient(4, 1, 0.5).kill_node(1, 0.05));
        assert_eq!(b.content_hash(), 0x6607_c113_be01_15d4);
    }

    #[test]
    fn content_hash_is_stable_and_order_independent() {
        let a = Scenario::new(Algorithm::Cholesky)
            .n(128)
            .tile_size(32)
            .workers(4)
            .seed(7)
            .models(models(Algorithm::Cholesky))
            .backend(Backend::Des);
        assert_eq!(a.content_hash(), a.clone().content_hash());
        // Builder call order must not matter.
        let b = Scenario::new(Algorithm::Cholesky)
            .backend(Backend::Des)
            .models(models(Algorithm::Cholesky))
            .seed(7)
            .workers(4)
            .tile_size(32)
            .n(128);
        assert_eq!(a.content_hash(), b.content_hash());
        // Equivalent size spellings resolve to the same hash.
        let c = Scenario::new(Algorithm::Cholesky)
            .tiles(4)
            .tile_size(32)
            .workers(4)
            .seed(7)
            .models(models(Algorithm::Cholesky))
            .backend(Backend::Des);
        assert_eq!(a.content_hash(), c.content_hash());
        // A registry serialised up front hashes as one serialised here;
        // replacing the registry drops the stale text.
        let registry = Arc::new(models(Algorithm::Cholesky));
        let json: Arc<str> = serde_json::to_string(registry.as_ref()).unwrap().into();
        let d = a.clone().models_serialized(registry, json);
        assert_eq!(a.content_hash(), d.content_hash());
        let lu = d.models(models(Algorithm::Lu));
        assert_eq!(
            lu.content_hash(),
            a.models(models(Algorithm::Lu)).content_hash()
        );
    }

    #[test]
    fn content_hash_separates_differing_scenarios() {
        let base = || {
            Scenario::new(Algorithm::Cholesky)
                .n(128)
                .tile_size(32)
                .workers(4)
                .seed(7)
                .models(models(Algorithm::Cholesky))
        };
        let h = base().content_hash();
        assert_ne!(h, base().seed(8).content_hash(), "seed-inclusive");
        assert_ne!(
            h,
            Scenario::new(Algorithm::Lu)
                .n(128)
                .tile_size(32)
                .workers(4)
                .seed(7)
                .models(models(Algorithm::Lu))
                .content_hash()
        );
        assert_ne!(h, base().n(160).content_hash());
        assert_ne!(h, base().workers(5).content_hash());
        assert_ne!(h, base().backend(Backend::Des).content_hash());
        assert_ne!(
            h,
            base()
                .faults(FaultPlan::new().straggler_worker(0, 0.0, 1.0, 2.0))
                .content_hash()
        );
        assert_ne!(
            h,
            base().cluster(ClusterSpec::new(4, 2)).content_hash(),
            "cluster layout is part of the identity"
        );
        // A differently parameterized interconnect changes the hash even
        // though the model name is the same.
        let hockney = |lat| {
            base()
                .cluster(ClusterSpec::new(4, 2))
                .interconnect(Arc::new(supersim_cluster::Hockney::new(lat, 1e9)))
                .content_hash()
        };
        assert_ne!(hockney(1e-6), hockney(2e-6));
    }

    #[test]
    #[should_panic(expected = "content_hash cannot see inside")]
    fn content_hash_rejects_opaque_sessions() {
        let session = make_session(models(Algorithm::Cholesky), 7);
        let _ = Scenario::new(Algorithm::Cholesky)
            .n(64)
            .tile_size(16)
            .session(session)
            .content_hash();
    }

    #[test]
    fn cluster_terminal_uses_defaults() {
        let run = Scenario::new(Algorithm::Cholesky)
            .n(48)
            .tile_size(12)
            .seed(3)
            .models(models(Algorithm::Cholesky))
            .cluster(ClusterSpec::new(4, 2))
            .run_cluster();
        assert_eq!(run.interconnect, "zero");
        assert_eq!(run.placement, "block-cyclic-2x2");
        assert!(run.transfers > 0);
    }
}
