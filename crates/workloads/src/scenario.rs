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
use supersim_core::{ModelRegistry, SimConfig, SimSession};
use supersim_faults::{CompiledFaults, FaultPlan, LaneMap};
use supersim_runtime::SchedulerKind;

/// A declarative description of one run. See the [module docs](self).
#[derive(Clone)]
pub struct Scenario {
    pub(crate) algorithm: Algorithm,
    tiles: Option<usize>,
    tile_size: usize,
    n: Option<usize>,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) workers: usize,
    seed: u64,
    models: Option<Arc<ModelRegistry>>,
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
            scheduler: SchedulerKind::Quark,
            workers: 4,
            seed: 42,
            models: None,
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
        assert!(tiles > 0, "need at least one tile");
        self.tiles = Some(tiles);
        self
    }

    /// Set the tile size `nb`.
    pub fn tile_size(mut self, nb: usize) -> Self {
        assert!(nb > 0, "tile size must be positive");
        self.tile_size = nb;
        self
    }

    /// Set the matrix order `n` directly (need not be a multiple of the
    /// tile size; the trailing tiles are ragged). Takes precedence over
    /// [`Scenario::tiles`].
    pub fn n(mut self, n: usize) -> Self {
        assert!(n > 0, "matrix order must be positive");
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
        assert!(workers > 0, "need at least one worker");
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
    pub fn models(mut self, models: ModelRegistry) -> Self {
        self.models = Some(Arc::new(models));
        self
    }

    /// Provide a *shared* read-only model registry. Sweeps build one
    /// fitted-model database up front and hand every cell the same `Arc`;
    /// sessions built from it reference it without cloning.
    pub fn models_shared(mut self, models: Arc<ModelRegistry>) -> Self {
        self.models = Some(models);
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
        self.n.unwrap_or(self.tiles.unwrap_or(8) * self.tile_size)
    }

    /// The resolved tile size.
    pub fn tile_size_of(&self) -> usize {
        self.tile_size
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

    /// A fresh session for one simulated run: the explicit session on
    /// first use (forked on later uses, so repeated terminals see
    /// identical virgin state), else models + config/seed.
    pub(crate) fn fresh_session(&self, used_before: bool) -> Arc<SimSession> {
        if let Some(s) = &self.session {
            if used_before {
                s.fork()
            } else {
                s.clone()
            }
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
        if let Some(m) = &self.models {
            lines.push(format!(
                "models={}",
                serde_json::to_string(m.as_ref()).expect("model registries serialize")
            ));
        }
        // Sorting makes the digest independent of how fields are added
        // above — reordering this function can never silently invalidate
        // caches keyed on the hash.
        lines.sort();
        let mut h = 0xcbf29ce484222325u64;
        for line in &lines {
            for b in line.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x100000001b3);
            }
            h ^= u64::from(b'\n');
            h = h.wrapping_mul(0x100000001b3);
        }
        h
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
        assert!(
            self.cluster.is_none(),
            "run_real is single-node; use run_cluster for distributed scenarios"
        );
        assert!(
            self.faults.is_empty(),
            "faults are simulated only; use run_sim or run_faults"
        );
        assert!(
            self.backend == Backend::Threaded,
            "run_real executes real kernels; the DES backend only replays simulations"
        );
        exec_real(
            self.algorithm,
            self.scheduler,
            self.workers,
            self.matrix_order(),
            self.tile_size,
            self.seed,
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
        let session = self.fresh_session(false);
        self.attach_plan(&session, &self.faults.clone(), 0.0);
        exec_sim(&self, session, &[], &mut |_| true)
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
        let session = self.fresh_session(false);
        self.attach_plan(&session, &self.faults.clone(), 0.0);
        let placement = self.resolved_placement();
        exec_cluster(&self, placement, session, &[], &mut |_| true)
    }

    /// Run the scenario clean *and* under its fault plan, returning both
    /// traces and a [`DegradationReport`](supersim_faults::DegradationReport). Handles every event
    /// kind, including permanent failures via two-phase replay
    /// (single-node: work-preserving cut; cluster: coordinated
    /// checkpoint/restart per the plan's [`supersim_faults::RecoveryPolicy`]).
    pub fn run_faults(self) -> FaultOutcome {
        run_faults(self)
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
        // An explicit session's seed governs, not the builder's.
        let session = make_session(models(Algorithm::Cholesky), 7);
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
            .models(models(Algorithm::Cholesky))
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
