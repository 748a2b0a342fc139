//! The simulation session: wires the virtual clock / Task Execution Queue,
//! the kernel models, the trace recorder, and the runtime's quiescence
//! probe into the simulated-kernel protocol of paper §V-D.
//!
//! Usage mirrors the paper: "the developer simply replaces the calls to
//! each computational kernel with a call to the simulated kernel":
//!
//! ```
//! use std::sync::Arc;
//! use supersim_core::{KernelModel, ModelRegistry, RaceMitigation, SimConfig, SimSession};
//! use supersim_runtime::{Runtime, RuntimeConfig, TaskDesc};
//! use supersim_dag::{Access, DataId};
//!
//! let mut models = ModelRegistry::new();
//! models.insert("work", KernelModel::constant(1.0));
//! let session = SimSession::new(models, SimConfig::default());
//!
//! let rt = Runtime::new(RuntimeConfig::simple(2));
//! session.attach_quiesce(rt.probe());
//! // A 3-task chain: virtual makespan must be exactly 3 seconds.
//! for _ in 0..3 {
//!     rt.submit(TaskDesc::new("work", vec![Access::read_write(DataId(0))],
//!         session.planned_body("work")));
//! }
//! rt.seal(); // a simulated run must declare submission complete
//! rt.wait_all().unwrap();
//! assert_eq!(session.virtual_now(), 3.0);
//! let trace = session.finish_trace(2);
//! assert_eq!(trace.len(), 3);
//! ```

use crate::model::ModelRegistry;
use crate::race::RaceMitigation;
use crate::teq::{Completion, TaskExecutionQueue, WakeupMode};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use supersim_runtime::{Quiesce, TaskContext};
use supersim_trace::{KernelName, Trace, TraceEvent, TraceRecorder};

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Seed for the per-task duration RNG. Durations depend only on
    /// `(seed, label, rank)`, the task's submission rank within its label
    /// (and, on heterogeneous platforms, the executing worker's speed), so
    /// a simulation is reproducible regardless of thread interleaving.
    pub seed: u64,
    /// Race mitigation strategy (paper §V-E).
    pub mitigation: RaceMitigation,
    /// Fixed scheduler overhead added to every simulated kernel duration
    /// (seconds). Models the per-task dispatch/bookkeeping cost the paper
    /// identifies as the main error source at small problem sizes (§VII);
    /// the `supersim-calibrate` crate's gap analysis can estimate it.
    /// 0 disables.
    pub overhead_per_task: f64,
    /// Relative speed of each virtual worker (empty = homogeneous).
    /// A sampled duration is divided by the executing worker's speed —
    /// the simplest model of the heterogeneous (CPU + GPU) platforms the
    /// paper lists as future work. Workers beyond the vector's length get
    /// speed 1.0.
    pub worker_speeds: Vec<f64>,
    /// Wakeup discipline for the session's Task Execution Queue.
    /// [`WakeupMode::Targeted`] (the default) wakes exactly the new front
    /// owner per retirement; [`WakeupMode::Broadcast`] is the thundering-
    /// herd baseline, kept selectable so the `supersim metrics` command
    /// can report wakeup counters for both disciplines side by side.
    pub wakeup_mode: WakeupMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5eed_5eed,
            mitigation: RaceMitigation::Quiesce,
            overhead_per_task: 0.0,
            worker_speeds: Vec::new(),
            wakeup_mode: WakeupMode::default(),
        }
    }
}

impl SimConfig {
    /// The speed factor of `worker` (1.0 when unspecified).
    pub fn speed_of(&self, worker: usize) -> f64 {
        self.worker_speeds.get(worker).copied().unwrap_or(1.0)
    }
}

/// Prescription for a transient task failure: the task fails
/// `failures` times (consuming part of a freshly sampled duration each
/// time, then backing off in virtual time) before succeeding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// Failed attempts before the task finally succeeds.
    pub failures: u32,
    /// Fraction of an attempt's duration consumed before the failure is
    /// detected, clamped to `[0, 1]`.
    pub fail_fraction: f64,
    /// Backoff after the first failed attempt (virtual seconds); attempt
    /// `i` backs off `backoff_base * 2^i`.
    pub backoff_base: f64,
    /// Ceiling on any single backoff (virtual seconds).
    pub backoff_cap: f64,
}

/// Deterministic fault hooks consulted by the simulated-kernel protocol.
///
/// Implementations must be pure functions of their arguments (plus
/// immutable compiled state): `perturb` runs under the TEQ state lock, so
/// the duration a task observes depends only on `(worker, start,
/// duration)` — never on host timing. An unattached injector (the default)
/// leaves every code path bit-for-bit identical to a fault-free session.
pub trait FaultInjector: Send + Sync {
    /// Perturbed duration of `duration` seconds of work starting at
    /// virtual time `start` on lane `worker` (straggler windows, degraded
    /// links). The default is the identity.
    fn perturb(&self, worker: usize, start: f64, duration: f64) -> f64 {
        let _ = (worker, start);
        duration
    }

    /// Transient-failure prescription for the `rank`-th submission of
    /// `label`, or `None` for a clean execution. Keyed on submission rank
    /// (not worker or task id) so the decision is placement-independent.
    fn transient(&self, label: &str, rank: u64) -> Option<TransientSpec> {
        let _ = (label, rank);
        None
    }

    /// Notification that a transient prescription was executed:
    /// `failures` retries costing `aborted_virtual_seconds` of discarded
    /// (post-perturbation) work. Implementations use this for fault
    /// accounting; determinism of the simulation does not depend on it.
    fn on_transient(&self, label: &str, failures: u32, aborted_virtual_seconds: f64) {
        let _ = (label, failures, aborted_virtual_seconds);
    }
}

/// Segment kinds of a simulated task's virtual timeline. A clean task is
/// a single [`SegmentKind::Work`] segment; a transiently failing one
/// interleaves failed attempts and backoffs before the final execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// A failed attempt (discarded work).
    Failed,
    /// Idle retry backoff.
    Backoff,
    /// The final, successful execution.
    Work,
}

/// The planned virtual timeline of one ranked kernel execution: everything
/// about the task's duration that is fixed at submission time — sampled
/// durations, transient-failure segments — before any start time or lane
/// assignment is known. Produced by [`SimSession::plan_ranked`] and, for
/// either engine's tasks, by [`SimSession::plan_body`]; both engines lay it
/// out with [`SimSession::lay_out`], so the same `(seed, label, rank)`
/// gives the same timeline on both.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelPlan {
    /// Nominal segment durations in timeline order: any number of
    /// `Failed`/`Backoff` segments, then exactly one `Work` segment. A
    /// clean execution is the `Work` segment alone.
    pub segments: Vec<(SegmentKind, f64)>,
    /// Failed attempts prescribed by the fault injector (0 = clean).
    pub failures: u32,
    /// Whether the injector prescribed a transient failure (true even for
    /// a degenerate `failures == 0` prescription, which still reports to
    /// [`FaultInjector::on_transient`]).
    pub transient: bool,
}

/// How a simulated task obtains its duration: the body of a task on
/// either engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayBody {
    /// The plan-based simulated-kernel protocol: duration drawn by
    /// [`SimSession::plan_ranked`] from `(seed, label, rank)`, warm-up and
    /// transient-fault prescriptions included. What
    /// [`SimSession::planned_body`] runs.
    Ranked {
        /// Submission rank of this task within its label (claim with
        /// [`SimSession::next_rank`] in stream order, exactly as
        /// `planned_body` does).
        rank: u64,
    },
    /// A fixed externally computed duration (transfer tasks costed by an
    /// interconnect model): no model, no RNG, no speed scaling, no
    /// overhead — but still perturbed by an attached injector. Zero
    /// durations are valid: the task occupies its lane for a virtual
    /// instant without advancing the clock.
    Fixed {
        /// Nominal duration in virtual seconds.
        duration: f64,
    },
}

/// One task's plan and laid-out timeline: the scratch an engine reuses
/// for every task it runs (one per worker thread on the threaded engine,
/// one per run in the DES loop), so planning and laying out a task
/// allocate nothing once the buffers have grown.
#[derive(Debug, Default)]
pub struct Timeline {
    plan: KernelPlan,
    /// Per-segment `(kind, start, end)`, in timeline order.
    bounds: Vec<(SegmentKind, f64, f64)>,
}

impl Timeline {
    /// Lay the plan's segments onto the virtual timeline from `start`,
    /// applying the injector's perturbation to work (but not idle backoff)
    /// and the TEQ's non-finite/negative clamping to every segment, into
    /// `bounds`. Returns the total duration: `(start + d) - start`, not
    /// `d`, for a clean task too — the rounding is part of the timeline.
    fn lay_out_from(&mut self, inj: Option<&dyn FaultInjector>, worker: usize, start: f64) -> f64 {
        self.bounds.clear();
        let mut t = start;
        for &(kind, nominal) in &self.plan.segments {
            // Backoff is idle waiting — a slow worker waits at the same rate
            // as a fast one — so only work is perturbed.
            let d = match (kind, inj) {
                (SegmentKind::Backoff, _) | (_, None) => nominal,
                (SegmentKind::Failed | SegmentKind::Work, Some(inj)) => {
                    inj.perturb(worker, t, nominal)
                }
            };
            let d = if d.is_finite() { d.max(0.0) } else { 0.0 };
            self.bounds.push((kind, t, t + d));
            t += d;
        }
        t - start
    }
}

/// One kernel class in a session's kernel table.
struct KernelEntry {
    /// The class's shared name: every span and task of the class carries
    /// a clone of it.
    name: KernelName,
    /// The rank [`SimSession::claim`] hands out next.
    next_rank: u64,
    /// `name` + [`supersim_trace::fault::FAIL_SUFFIX`], made when a
    /// failed attempt of the class is first recorded.
    failed: Option<KernelName>,
}

/// A session's kernel table, keyed by label. A `BTreeMap`: a session sees
/// a handful of labels, and a string compare or two beats hashing the
/// label on every submission.
#[derive(Default)]
struct Kernels {
    by_label: BTreeMap<KernelName, KernelEntry>,
    /// [`supersim_trace::fault::BACKOFF_LABEL`], made once per session.
    backoff: Option<KernelName>,
}

impl Kernels {
    /// Claim `label`'s next rank, with its name: one lookup once the
    /// label has been seen; its first sight makes the name, at rank 0.
    fn claim(&mut self, label: &str) -> (KernelName, u64) {
        let entry = match self.by_label.get_mut(label) {
            Some(entry) => entry,
            None => self.insert(label),
        };
        entry.next_rank += 1;
        (entry.name.clone(), entry.next_rank - 1)
    }

    /// A new entry for `label`, at rank 0.
    fn insert(&mut self, label: &str) -> &mut KernelEntry {
        let name = KernelName::from(label);
        self.by_label.entry(name.clone()).or_insert(KernelEntry {
            name,
            next_rank: 0,
            failed: None,
        })
    }

    /// The failed-attempt and backoff names of `label`'s spans.
    fn marked(&mut self, label: &str) -> (KernelName, KernelName) {
        let backoff = self
            .backoff
            .get_or_insert_with(|| supersim_trace::fault::BACKOFF_LABEL.into())
            .clone();
        let entry = match self.by_label.get_mut(label) {
            Some(entry) => entry,
            None => self.insert(label),
        };
        let failed = entry.failed.get_or_insert_with(|| {
            KernelName::from([label, supersim_trace::fault::FAIL_SUFFIX].concat())
        });
        (failed.clone(), backoff)
    }
}

/// What a session has attached, as one simulated kernel sees it.
#[derive(Clone, Default)]
struct Hooks {
    /// The runtime's quiescence probe (required by
    /// [`RaceMitigation::Quiesce`]); a cancelled run also drops the
    /// runtime's unstarted tasks through it.
    quiesce: Option<Arc<dyn Quiesce>>,
    /// Optional fault injector (straggler windows, transient failures,
    /// link degradation). `None` — the default — keeps every simulated
    /// path bit-for-bit identical to a fault-free session.
    faults: Option<Arc<dyn FaultInjector>>,
}

thread_local! {
    /// A worker thread's timeline scratch, reused by every kernel it runs.
    static SCRATCH: std::cell::Cell<Timeline> = std::cell::Cell::default();
}

/// [`Interrupt::state`] bit: cancellation was requested (or the deadline
/// passed).
const CANCELLED: u8 = 1;
/// [`Interrupt::state`] bit: a wall-clock deadline is armed.
const DEADLINE: u8 = 2;
/// Deadline polls per wall-clock read.
const DEADLINE_STRIDE: u32 = 64;

/// Request-scoped interruption, shared by a session and every fork of it
/// (the phases and attribution runs of one fault replay are one request):
/// cooperative cancellation and an optional wall-clock deadline. `state`
/// is zero unless either is in play, so the poll of an uninterrupted run
/// is one relaxed load.
#[derive(Default)]
struct Interrupt {
    /// [`CANCELLED`] | [`DEADLINE`].
    state: AtomicU8,
    /// The wall-clock deadline, set once.
    deadline: OnceLock<Instant>,
    /// Polls since the deadline was armed; the clock is read on every
    /// [`DEADLINE_STRIDE`]-th. A plain load + store, not an RMW: forks
    /// racing on it only shift the stride.
    polls: AtomicU32,
}

impl Interrupt {
    /// Whether a run polling this should stop.
    #[inline]
    fn fired(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            0 => false,
            s if s & CANCELLED != 0 => true,
            _ => self.deadline_passed(),
        }
    }

    /// The amortised deadline check; a passed deadline cancels, so later
    /// polls (and forks) stop on the flag alone.
    #[cold]
    fn deadline_passed(&self) -> bool {
        let n = self.polls.load(Ordering::Relaxed);
        self.polls.store(n.wrapping_add(1), Ordering::Relaxed);
        if n % DEADLINE_STRIDE != 0 || self.deadline.get().is_none_or(|d| Instant::now() < *d) {
            return false;
        }
        self.state.fetch_or(CANCELLED, Ordering::Relaxed);
        true
    }
}

/// A simulation session. Create one per simulated run; build every task
/// body with [`SimSession::planned_body`] in submission order (engines
/// that claim ranks themselves call [`SimSession::simulate_kernel`] or
/// [`SimSession::plan_body`]), then read the predicted makespan and the
/// virtual-time trace.
pub struct SimSession {
    teq: TaskExecutionQueue,
    /// Shared, read-only kernel models. An `Arc` so N concurrent sessions
    /// (a sweep's cells) can share one fitted-model database built once up
    /// front instead of cloning the registry per cell.
    models: Arc<ModelRegistry>,
    trace: TraceRecorder,
    config: SimConfig,
    /// The runtime's quiescence probe and the fault injector, behind one
    /// lock: a simulated kernel resolves both in one acquisition.
    hooks: Mutex<Hooks>,
    /// Warm-up budget for the plan-based protocol: the first `n`
    /// submissions of each label sample warm (see
    /// [`SimSession::set_warmup_slots`]). 0 disables warm-up entirely.
    warmup_slots: AtomicUsize,
    /// The kernel table: each label's shared name, its next submission
    /// rank ([`SimSession::claim`]) and its fault-marked names. Ranks are
    /// assigned on the (serial) master thread at submission time, so
    /// they are deterministic regardless of worker interleaving.
    kernel_table: Mutex<Kernels>,
    /// Cooperative cancellation and the wall-clock deadline
    /// ([`SimSession::request_cancel`], [`SimSession::set_deadline`]),
    /// polled by engines between retirements and shared with every
    /// [`SimSession::fork`]. Never set by the simulation itself.
    interrupt: Arc<Interrupt>,
    /// Virtual-time budget in seconds, stored as `f64` bits
    /// (`f64::INFINITY` = unlimited). Engines abort a run whose clock
    /// exceeds it — a guard against scenarios whose virtual span is
    /// unexpectedly huge even though each step is cheap. Per session:
    /// forks start unlimited.
    virtual_budget_bits: AtomicU64,
    /// Simulated kernels completed by this session. Per-session (not
    /// process-global) so N concurrent sessions never cross-talk.
    #[cfg(feature = "metrics")]
    kernels: AtomicU64,
    /// Settle-loop spins observed by this session.
    #[cfg(feature = "metrics")]
    quiesce_spins: AtomicU64,
    /// End-of-run counters accumulated by engines driving this session
    /// (e.g. the DES replay backend's run/task/event totals), published
    /// alongside the session's own instruments by
    /// [`SimSession::publish_metrics`].
    #[cfg(feature = "metrics")]
    run_counters: Mutex<BTreeMap<String, u64>>,
}

impl SimSession {
    /// Create a session over a model registry.
    pub fn new(models: ModelRegistry, config: SimConfig) -> Arc<Self> {
        Self::with_shared(Arc::new(models), config)
    }

    /// Create a session over a *shared* model registry. Sweeps build one
    /// fitted-model database up front and hand every concurrent session
    /// the same `Arc` — the registry is read-only, so sharing is free.
    pub fn with_shared(models: Arc<ModelRegistry>, config: SimConfig) -> Arc<Self> {
        Self::build(models, config, Arc::default())
    }

    fn build(
        models: Arc<ModelRegistry>,
        config: SimConfig,
        interrupt: Arc<Interrupt>,
    ) -> Arc<Self> {
        Arc::new(SimSession {
            teq: TaskExecutionQueue::with_wakeup_mode(config.wakeup_mode),
            models,
            trace: TraceRecorder::new(),
            config,
            hooks: Mutex::new(Hooks::default()),
            warmup_slots: AtomicUsize::new(0),
            kernel_table: Mutex::default(),
            interrupt,
            virtual_budget_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            #[cfg(feature = "metrics")]
            kernels: AtomicU64::new(0),
            #[cfg(feature = "metrics")]
            quiesce_spins: AtomicU64::new(0),
            #[cfg(feature = "metrics")]
            run_counters: Mutex::new(BTreeMap::new()),
        })
    }

    /// Attach the runtime's quiescence probe (required for
    /// [`RaceMitigation::Quiesce`]; ignored by the other strategies).
    pub fn attach_quiesce(&self, probe: Arc<dyn Quiesce>) {
        self.hooks.lock().quiesce = Some(probe);
    }

    /// Attach a fault injector. Call before submitting tasks; a session
    /// with no injector attached executes the exact fault-free code path.
    pub fn attach_faults(&self, injector: Arc<dyn FaultInjector>) {
        self.hooks.lock().faults = Some(injector);
    }

    /// The attached fault injector, if any (the DES replay backend reads
    /// it to draw the same kernel plans the threaded protocol would).
    pub fn fault_injector(&self) -> Option<Arc<dyn FaultInjector>> {
        self.hooks.lock().faults.clone()
    }

    /// The hooks one simulated kernel runs with, resolved once per task.
    /// Panics under [`RaceMitigation::Quiesce`] without a probe attached.
    fn hooks(&self) -> Hooks {
        let hooks = self.hooks.lock().clone();
        assert!(
            hooks.quiesce.is_some() || self.config.mitigation != RaceMitigation::Quiesce,
            "RaceMitigation::Quiesce requires attach_quiesce"
        );
        hooks
    }

    /// The session's virtual-time trace recorder. The DES replay backend
    /// records its spans here so [`SimSession::finish_trace`] returns the
    /// run's trace regardless of backend.
    pub fn trace_recorder(&self) -> &TraceRecorder {
        &self.trace
    }

    /// A fresh session with the same models and configuration but reset
    /// run state (clock at 0, empty trace, fresh warm-up and rank
    /// counters, no quiescence probe or fault injector, unlimited virtual
    /// budget). Cancellation and the wall-clock deadline are the
    /// request's, not the run's: the fork shares them, so cancelling
    /// either session stops both. Used by phased fault replay: the
    /// post-failure phase re-runs the surviving work on a clean clock and
    /// is stitched onto the pre-failure trace afterwards.
    pub fn fork(&self) -> Arc<Self> {
        Self::build(
            self.models.clone(),
            self.config.clone(),
            self.interrupt.clone(),
        )
    }

    /// Request cooperative cancellation: engines polling
    /// [`SimSession::should_abort`] (the DES loop and the threaded
    /// protocol, at every retirement) stop at their next retirement
    /// boundary, in this session and in every fork of it. Idempotent;
    /// there is no un-cancel. Safe to call from any thread while the run
    /// executes.
    pub fn request_cancel(&self) {
        self.interrupt.state.fetch_or(CANCELLED, Ordering::Relaxed);
    }

    /// Whether [`SimSession::request_cancel`] has been called, or a poll
    /// found the [`SimSession::set_deadline`] deadline passed.
    pub fn cancel_requested(&self) -> bool {
        self.interrupt.state.load(Ordering::Relaxed) & CANCELLED != 0
    }

    /// Arm a wall-clock deadline: once [`SimSession::should_abort`] finds
    /// it passed (it reads the clock on every 64th poll), the session and
    /// its forks are cancelled. Lets a caller run a simulation on its own
    /// thread instead of watching it from another. Set at most once; a
    /// later call is ignored.
    pub fn set_deadline(&self, at: Instant) {
        if self.interrupt.deadline.set(at).is_ok() {
            self.interrupt.state.fetch_or(DEADLINE, Ordering::Relaxed);
        }
    }

    /// Cap the run's virtual time: once the clock passes `seconds`,
    /// [`SimSession::should_abort`] fires. `f64::INFINITY` (the default)
    /// disables the cap. Panics on NaN or negative budgets.
    pub fn set_virtual_budget(&self, seconds: f64) {
        assert!(seconds >= 0.0, "virtual budget must be non-negative");
        self.virtual_budget_bits
            .store(seconds.to_bits(), Ordering::Relaxed);
    }

    /// Whether an engine driving this session should stop at the next
    /// clean boundary: cancellation was requested, the wall-clock
    /// deadline passed, or the virtual clock (`now`) has exceeded the
    /// budget. Engines pass their own clock rather than reading
    /// [`SimSession::virtual_now`] — the DES replay backend's clock never
    /// touches the TEQ. Once it fires in the threaded protocol, every
    /// retirement drops the runtime's unstarted tasks through the attached
    /// quiescence probe.
    #[inline]
    pub fn should_abort(&self, now: f64) -> bool {
        self.interrupt.fired()
            || now > f64::from_bits(self.virtual_budget_bits.load(Ordering::Relaxed))
    }

    /// The session configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The kernel-model registry this session samples from.
    pub fn models(&self) -> &ModelRegistry {
        &self.models
    }

    /// Current virtual time (the predicted elapsed seconds so far).
    pub fn virtual_now(&self) -> f64 {
        self.teq.now()
    }

    /// Consume the virtual-time trace recorded so far (normalized, with
    /// `workers` lanes).
    pub fn finish_trace(&self, workers: usize) -> Trace {
        self.trace.finish(workers)
    }

    /// Publish this session's observability data into `snap`: the TEQ
    /// tally (counts, latency histograms, wakeups under the configured
    /// [`WakeupMode`]'s name), the session's kernel / settle-spin counters
    /// (`sim.kernels.count`, `sim.quiesce.spins`), any engine run counters
    /// accumulated via [`SimSession::add_run_counter`] and the trace
    /// recorder's total event count. All of these are per-session: concurrent
    /// sessions publish disjoint totals with no process-global cross-talk.
    /// See DESIGN.md §5e for the metric catalog.
    #[cfg(feature = "metrics")]
    pub fn publish_metrics(&self, snap: &mut supersim_metrics::MetricsSnapshot) {
        self.teq.publish_metrics(snap);
        snap.push_counter("sim.kernels.count", self.kernels.load(Ordering::Relaxed));
        snap.push_counter(
            "sim.quiesce.spins",
            self.quiesce_spins.load(Ordering::Relaxed),
        );
        for (name, value) in self.run_counters.lock().iter() {
            snap.push_counter(name, *value);
        }
        snap.push_counter("trace.events.recorded", self.trace.total_recorded());
    }

    /// Accumulate an end-of-run counter under `name`, published by
    /// [`SimSession::publish_metrics`]. Engines driving this session (the
    /// DES replay backend) report their run/task/event totals here instead
    /// of to the process-global registry, so N concurrent sessions keep
    /// disjoint totals. A no-op without the `metrics` feature.
    pub fn add_run_counter(&self, _name: &str, _n: u64) {
        #[cfg(feature = "metrics")]
        {
            *self
                .run_counters
                .lock()
                .entry(_name.to_string())
                .or_insert(0) += _n;
        }
    }

    /// Count one simulated kernel against this session.
    #[inline]
    fn note_kernel(&self) {
        #[cfg(feature = "metrics")]
        self.kernels.fetch_add(1, Ordering::Relaxed);
    }

    /// Count settle-loop spins against this session.
    #[inline]
    fn note_quiesce_spins(&self, _spins: u64) {
        #[cfg(feature = "metrics")]
        self.quiesce_spins.fetch_add(_spins, Ordering::Relaxed);
    }

    /// Set the warm-up budget for the plan-based protocol: the first `n`
    /// submissions of each label (by submission rank, not worker arrival
    /// order) sample with the model's warm-up factor applied. Drivers set
    /// this to the worker count so a cold run warms one slot per worker;
    /// the choice of *which* tasks are warm is fixed at submission time
    /// and therefore deterministic across schedules and placements.
    pub fn set_warmup_slots(&self, n: usize) {
        self.warmup_slots.store(n, Ordering::Relaxed);
    }

    /// Claim the next submission rank for `label`, with the label's
    /// shared name — one lookup in the session's kernel table, which
    /// makes the name on the label's first sight only. Call from the
    /// (serial) master thread at task-build time;
    /// [`SimSession::planned_body`] does this for you.
    pub fn claim(&self, label: &str) -> (KernelName, u64) {
        self.kernel_table.lock().claim(label)
    }

    /// Claim the next submission rank for `label` ([`SimSession::claim`]
    /// without the name).
    pub fn next_rank(&self, label: &str) -> u64 {
        self.claim(label).1
    }

    /// Record one trace span per laid-out segment — failed attempts under
    /// `label` + [`supersim_trace::fault::FAIL_SUFFIX`], non-empty
    /// backoffs under [`supersim_trace::fault::BACKOFF_LABEL`], the
    /// closing work segment under `label` itself, all sharing `task_id`.
    /// Every span shares its name: the marked ones come from the kernel
    /// table, made once per session.
    fn record_segment_spans(
        &self,
        worker: usize,
        label: KernelName,
        task_id: u64,
        bounds: &[(SegmentKind, f64, f64)],
    ) {
        let (&(last, start, end), faulted) = bounds
            .split_last()
            .expect("a kernel plan ends in its work segment");
        debug_assert_eq!(last, SegmentKind::Work);
        let span = |kernel: KernelName, start: f64, end: f64| {
            self.trace.record_event(TraceEvent {
                worker,
                kernel,
                task_id,
                start,
                end,
            })
        };
        if !faulted.is_empty() {
            let (failed, backoff) = self.kernel_table.lock().marked(&label);
            for &(kind, s, e) in faulted {
                match kind {
                    SegmentKind::Failed => span(failed.clone(), s, e),
                    SegmentKind::Backoff if e > s => span(backoff.clone(), s, e),
                    SegmentKind::Backoff => {}
                    SegmentKind::Work => span(label.clone(), s, e),
                }
            }
        }
        span(label, start, end);
    }

    /// The simulated-kernel protocol (paper §V-D) for a task of `label`
    /// whose duration comes from `body`; clean, `Fixed` and transiently
    /// failing tasks alike. Call from inside a task body submitted to the
    /// runtime.
    ///
    /// The call blocks (in wall-clock time) until every simulated task with
    /// an earlier virtual completion has returned, then returns — from the
    /// scheduler's perspective the kernel "ran" for its virtual duration.
    pub fn simulate_kernel(&self, ctx: &TaskContext, label: &KernelName, body: ReplayBody) {
        let hooks = self.hooks();
        let inj = hooks.faults.as_deref();
        let mut scratch = SCRATCH.take();
        let speed = self.config.speed_of(ctx.worker);
        self.plan_body(label, body, speed, inj, &mut scratch);
        self.note_kernel();
        // (1)+(2): read the clock for the start and insert the completion,
        // laying the timeline out under the TEQ lock, so start-dependent
        // costs (straggler windows, degraded links) are a pure function of
        // the virtual timeline. (3): the trace records virtual times.
        let (ticket, _) = self.lay_out(
            inj,
            ctx.worker,
            label.clone(),
            ctx.task_id,
            &mut scratch,
            |lay| self.teq.insert_with(lay),
        );
        SCRATCH.set(scratch);
        // The task is now visible to the simulation: scheduler bookkeeping
        // for this dispatch is done.
        ctx.mark_registered();
        self.settle_and_retire(ticket, &hooks);
    }

    /// Steps (2)+(3) of the protocol on either engine, for the plan in
    /// `scratch`: `insert` is handed the layout, which maps the task's
    /// start to its total duration, and files the completion — the
    /// threaded protocol's `insert_with` calls it with the clock under the
    /// TEQ lock, the DES loop with its own clock. Then a transient
    /// prescription is reported to `inj` and the spans are recorded.
    pub fn lay_out<K>(
        &self,
        inj: Option<&dyn FaultInjector>,
        worker: usize,
        label: KernelName,
        task_id: u64,
        scratch: &mut Timeline,
        insert: impl FnOnce(&mut dyn FnMut(f64) -> f64) -> K,
    ) -> K {
        let key = insert(&mut |start| scratch.lay_out_from(inj, worker, start));
        let Timeline { plan, bounds } = scratch;
        if plan.transient {
            // The post-perturbation cost of the failed attempts.
            let aborted = bounds
                .iter()
                .filter(|b| b.0 == SegmentKind::Failed)
                .fold(0.0, |aborted, &(_, s, e)| aborted + (e - s));
            inj.expect("transient plan requires an injector")
                .on_transient(&label, plan.failures, aborted);
        }
        self.record_segment_spans(worker, label, task_id, bounds);
        key
    }

    /// The timeline of the `rank`-th submission of `label`
    /// ([`SimSession::plan_body`] of a ranked body, into a fresh plan).
    pub fn plan_ranked(
        &self,
        label: &str,
        rank: u64,
        speed: f64,
        inj: Option<&dyn FaultInjector>,
    ) -> KernelPlan {
        let mut scratch = Timeline::default();
        self.plan_body(label, ReplayBody::Ranked { rank }, speed, inj, &mut scratch);
        scratch.plan
    }

    /// Plan a task of `label` into `scratch` from its body. A fixed body
    /// is its duration as one clean segment. A ranked one is the sampled
    /// duration (RNG keyed by `(seed, label, rank)`, warm-up applied to the
    /// first [`SimSession::set_warmup_slots`] ranks, divided by the
    /// worker's `speed`) plus any transient-failure segments the injector
    /// prescribes — `failures` aborted attempts, each consuming a fraction
    /// of a *freshly sampled* duration (retries re-draw from the same keyed
    /// stream — a retry is a new execution, not a replay), separated by
    /// capped exponential backoff in virtual time, then the final
    /// successful execution. Both keys are fixed at submission time, so
    /// per-task durations are identical across worker counts, schedulers,
    /// cluster placements and engines.
    pub fn plan_body(
        &self,
        label: &str,
        body: ReplayBody,
        speed: f64,
        inj: Option<&dyn FaultInjector>,
        scratch: &mut Timeline,
    ) {
        let plan = &mut scratch.plan;
        plan.segments.clear();
        let rank = match body {
            ReplayBody::Ranked { rank } => rank,
            ReplayBody::Fixed { duration } => {
                plan.segments.push((SegmentKind::Work, duration));
                (plan.failures, plan.transient) = (0, false);
                return;
            }
        };
        assert!(speed > 0.0, "worker speed must be positive");
        let model = self.models.expect(label);
        let warm = (rank as usize) < self.warmup_slots.load(Ordering::Relaxed);
        let key = self.config.seed ^ label_hash(label) ^ rank.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = rand::rngs::StdRng::seed_from_u64(splitmix64(key));
        let _: u64 = rng.random();
        let mut attempt = model.sample(&mut rng, warm) / speed + self.config.overhead_per_task;
        let spec = inj.and_then(|inj| inj.transient(label, rank));
        plan.failures = spec.map_or(0, |spec| spec.failures);
        plan.transient = spec.is_some();
        if let Some(spec) = spec {
            let frac = spec.fail_fraction.clamp(0.0, 1.0);
            for i in 0..spec.failures {
                plan.segments.push((SegmentKind::Failed, attempt * frac));
                let backoff =
                    (spec.backoff_base * (1u64 << i.min(62)) as f64).min(spec.backoff_cap);
                plan.segments.push((SegmentKind::Backoff, backoff.max(0.0)));
                attempt = model.sample(&mut rng, warm) / speed + self.config.overhead_per_task;
            }
        }
        plan.segments.push((SegmentKind::Work, attempt));
    }

    /// Steps (4)+(5) of the protocol.
    fn settle_and_retire(&self, ticket: Completion, hooks: &Hooks) {
        // (4): wait to be the next virtual completion, guarding against the
        // §V-E race before retiring. `wait_front` parks on this thread's
        // condvar (targeted wakeup): the retiring front wakes exactly the
        // next front's owner, so re-entering the loop after a failed
        // settle check costs one wakeup, not a broadcast herd.
        //
        // A woken front owner can proceed only once the thread that woke it
        // — the previous front's owner — has propagated that completion and
        // registered its next task. Under the default policy the wakee may
        // preempt the waker on a shared CPU, find the system unsettled and
        // park again; batch-scheduled threads do not preempt on wakeup, so
        // the waker runs on to its own park first.
        batch_scheduling();

        // Settle retries: every extra pass through this loop means a
        // quiescence (or re-front) check failed and the task went back to
        // waiting. Accumulated locally and flushed to the global counter
        // once per kernel, so the hot loop touches no shared state.
        let mut spins = 0u64;
        let clock = loop {
            // The retired count as of reaching the front: the settle target.
            let retired = self.teq.wait_front(ticket);
            match self.config.mitigation {
                RaceMitigation::None => break self.teq.retire(ticket),
                RaceMitigation::SleepYield { .. } => self.config.mitigation.portable_delay(),
                // Every task already retired must have had its completion
                // propagated, and the scheduler must have no in-flight
                // dispatches.
                RaceMitigation::Quiesce => hooks
                    .quiesce
                    .as_ref()
                    .expect("hooks() checked the probe")
                    .wait_settled(retired),
            }
            // If another task retired while this one waited (it lost the
            // front in the meantime), the settle target is stale and the
            // wait must be re-run against the new count — otherwise this
            // task could slip out in the window in which the newly retired
            // task has left the queue but not yet released its successors.
            // The check and the retire are one TEQ lock acquisition.
            if let Some(clock) = self.teq.retire_if_settled(ticket, retired) {
                break clock;
            }
            spins += 1;
        };
        self.note_quiesce_spins(spins);
        // (5) happened above: the clock advanced to this task's completion.
        // Streaming mode: retirement is the only place the virtual clock
        // advances, so epoch flushes hang off it. One relaxed atomic
        // load when no sink is attached.
        self.trace.observe_clock(clock);
        // Cancellation, the deadline and the virtual budget stop a threaded
        // run at its retirements, as they stop the DES loop: the runtime
        // drops every task that has not started, and the tasks already
        // running retire as usual.
        if self.should_abort(clock) {
            if let Some(probe) = &hooks.quiesce {
                probe.cancel_pending();
            }
        }
    }

    /// Build a task body for the plan-based protocol: claims the label's
    /// next submission rank *now* (call on the master thread, in
    /// submission order) and runs [`SimSession::simulate_kernel`] with it
    /// when the task executes.
    pub fn planned_body(
        self: &Arc<Self>,
        label: impl AsRef<str>,
    ) -> impl FnOnce(&TaskContext) + Send + 'static {
        let session = self.clone();
        let (label, rank) = session.claim(label.as_ref());
        move |ctx: &TaskContext| session.simulate_kernel(ctx, &label, ReplayBody::Ranked { rank })
    }
}

/// Move the calling thread — a runtime worker about to park in the TEQ —
/// to batch scheduling, once per thread: its wakeups then never preempt
/// the thread that issued them. Virtual times do not depend on host
/// scheduling. Linux only; elsewhere a no-op.
fn batch_scheduling() {
    thread_local! {
        static SET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    if SET.replace(true) {
        return;
    }
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct SchedParam {
            sched_priority: i32,
        }
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        const SCHED_BATCH: i32 = 3;
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: the kernel reads one `sched_param` through a pointer that
        // is valid for the call; pid 0 names the calling thread, and a
        // refusal leaves its policy unchanged, so the result is ignored.
        unsafe { sched_setscheduler(0, SCHED_BATCH, &param) };
    }
}

/// FNV-1a hash of a label, mixing the kernel class into the ranked RNG key.
#[inline]
fn label_hash(label: &str) -> u64 {
    supersim_trace::fnv1a(supersim_trace::FNV1A_BASIS, label.as_bytes())
}

/// SplitMix64 — decorrelates the ranked key into a well-mixed RNG seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::KernelModel;
    use supersim_dag::{Access, DataId};
    use supersim_dist::Dist;
    use supersim_runtime::{Runtime, RuntimeConfig, TaskDesc};
    use supersim_trace::TraceComparison;

    fn constant_models(labels: &[(&str, f64)]) -> ModelRegistry {
        let mut m = ModelRegistry::new();
        for &(l, d) in labels {
            m.insert(l, KernelModel::constant(d));
        }
        m
    }

    fn d(i: u64) -> DataId {
        DataId(i)
    }

    fn new_session(models: ModelRegistry, mitigation: RaceMitigation) -> Arc<SimSession> {
        SimSession::new(
            models,
            SimConfig {
                seed: 42,
                mitigation,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn cancel_and_budget_drive_should_abort() {
        let s = new_session(constant_models(&[("k", 1.0)]), RaceMitigation::Quiesce);
        assert!(!s.cancel_requested());
        assert!(!s.should_abort(1e300), "default budget is unlimited");
        s.set_virtual_budget(10.0);
        assert!(!s.should_abort(10.0), "budget is inclusive");
        assert!(s.should_abort(10.0 + 1e-9));
        s.request_cancel();
        assert!(s.cancel_requested());
        assert!(s.should_abort(0.0), "cancel fires regardless of clock");
        // Cancellation is the request's: a fork carries it (phase B of a
        // fault replay must stop with phase A), but not the budget.
        let f = s.fork();
        assert!(f.cancel_requested());
        assert!(f.should_abort(0.0), "a cancelled session's fork aborts");
        let clean = new_session(constant_models(&[("k", 1.0)]), RaceMitigation::Quiesce);
        let f = clean.fork();
        clean.set_virtual_budget(1.0);
        assert!(!f.should_abort(1e300), "the budget stays per fork");
        f.request_cancel();
        assert!(
            clean.should_abort(0.0),
            "cancelling a fork cancels the request"
        );
    }

    #[test]
    fn a_passed_deadline_cancels_the_session_and_its_forks() {
        let s = new_session(constant_models(&[("k", 1.0)]), RaceMitigation::Quiesce);
        s.set_deadline(Instant::now() + std::time::Duration::from_secs(3600));
        assert!(!s.should_abort(0.0), "a future deadline does not fire");
        assert!(!s.cancel_requested());
        let passed = new_session(constant_models(&[("k", 1.0)]), RaceMitigation::Quiesce);
        let fork = passed.fork();
        passed.set_deadline(Instant::now());
        // The first poll of a stride reads the clock, on any fork.
        assert!(fork.should_abort(0.0), "a fork shares the deadline");
        assert!(passed.cancel_requested(), "a passed deadline cancels");
        assert!(passed.should_abort(0.0));
    }

    #[test]
    fn chain_makespan_is_exact() {
        let session = new_session(constant_models(&[("k", 1.5)]), RaceMitigation::Quiesce);
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        for _ in 0..4 {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::read_write(d(0))],
                session.planned_body("k"),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(session.virtual_now(), 6.0);
        let trace = session.finish_trace(2);
        assert_eq!(trace.len(), 4);
        assert!(trace.validate(1e-12).is_ok());
    }

    #[test]
    fn independent_tasks_fill_virtual_workers() {
        // 4 unit tasks on 2 workers: perfect packing = exactly 2 virtual
        // seconds (see DESIGN.md — FIFO dispatch, workers free at retire).
        let session = new_session(constant_models(&[("k", 1.0)]), RaceMitigation::Quiesce);
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        for i in 0..4u64 {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::write(d(i))],
                session.planned_body("k"),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(session.virtual_now(), 2.0);
    }

    #[test]
    fn more_virtual_workers_than_host_cores() {
        // 16 independent unit tasks on 16 workers: virtual makespan 1s even
        // on a single-core host — the central virtual-platform claim.
        let session = new_session(constant_models(&[("k", 1.0)]), RaceMitigation::Quiesce);
        let rt = Runtime::new(RuntimeConfig::simple(16));
        session.attach_quiesce(rt.probe());
        for i in 0..16u64 {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::write(d(i))],
                session.planned_body("k"),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
        assert_eq!(session.virtual_now(), 1.0);
        let trace = session.finish_trace(16);
        assert_eq!(trace.len(), 16);
        // Every task must start at virtual 0.
        assert!(trace.spans().iter().all(|e| e.start == 0.0));
    }

    #[test]
    fn diamond_respects_dependences_in_virtual_time() {
        // 0 -> {1, 2} -> 3 with distinct durations.
        let models = constant_models(&[("a", 1.0), ("b", 2.0), ("c", 3.0), ("e", 1.0)]);
        let session = new_session(models, RaceMitigation::Quiesce);
        let rt = Runtime::new(RuntimeConfig::simple(3));
        session.attach_quiesce(rt.probe());
        rt.submit(TaskDesc::new(
            "a",
            vec![Access::write(d(0))],
            session.planned_body("a"),
        ));
        rt.submit(TaskDesc::new(
            "b",
            vec![Access::read(d(0)), Access::write(d(1))],
            session.planned_body("b"),
        ));
        rt.submit(TaskDesc::new(
            "c",
            vec![Access::read(d(0)), Access::write(d(2))],
            session.planned_body("c"),
        ));
        rt.submit(TaskDesc::new(
            "e",
            vec![Access::read(d(1)), Access::read(d(2)), Access::write(d(3))],
            session.planned_body("e"),
        ));
        rt.seal();
        rt.wait_all().unwrap();
        // a: 0-1; b: 1-3; c: 1-4; e: 4-5.
        assert_eq!(session.virtual_now(), 5.0);
        let trace = session.finish_trace(3);
        let by_label = |l: &str| trace.spans().iter().find(|e| e.kernel == l).unwrap();
        assert_eq!((by_label("a").start, by_label("a").end), (0.0, 1.0));
        assert_eq!((by_label("b").start, by_label("b").end), (1.0, 3.0));
        assert_eq!((by_label("c").start, by_label("c").end), (1.0, 4.0));
        assert_eq!((by_label("e").start, by_label("e").end), (4.0, 5.0));
    }

    #[test]
    fn virtual_times_deterministic_across_runs() {
        // Random durations, same seed: virtual start/end of every task
        // must be bit-identical between runs, regardless of host timing.
        let run = || {
            let mut models = ModelRegistry::new();
            models.insert("k", KernelModel::new(Dist::log_normal(-2.0, 0.4).unwrap()));
            let session = SimSession::new(
                models,
                SimConfig {
                    seed: 7,
                    ..SimConfig::default()
                },
            );
            let rt = Runtime::new(RuntimeConfig::simple(3));
            session.attach_quiesce(rt.probe());
            for i in 0..30u64 {
                // Chain within each of 3 lanes: data id i % 3.
                rt.submit(TaskDesc::new(
                    "k",
                    vec![Access::read_write(d(i % 3))],
                    session.planned_body("k"),
                ));
            }
            rt.seal();
            rt.wait_all().unwrap();
            session.finish_trace(3)
        };
        let t1 = run();
        let t2 = run();
        let cmp = TraceComparison::compare(&t1, &t2);
        assert_eq!(cmp.makespan_rel_error, 0.0);
        assert_eq!(cmp.matched_tasks, 30);
        assert_eq!(cmp.mean_start_shift, 0.0);
    }

    /// The Fig. 5 scenario: two workers; A (1s) and B (2s) independent,
    /// C (0.5s) depends on A. Correct virtual trace: C starts at 1.0 and
    /// the makespan is 2.0 (B is the last to finish).
    fn fig5_run(mitigation: RaceMitigation) -> (f64, f64) {
        fig5_try(mitigation).expect("the Fig. 5 run failed")
    }

    /// [`fig5_run`], returning the task errors instead of panicking on
    /// them: unmitigated, B can reach `retire` just after C displaced it
    /// from the front, which trips the TEQ's non-front assertion.
    fn fig5_try(mitigation: RaceMitigation) -> Result<(f64, f64), Vec<String>> {
        let models = constant_models(&[("a", 1.0), ("b", 2.0), ("c", 0.5)]);
        let session = new_session(models, mitigation);
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        rt.submit(TaskDesc::new(
            "a",
            vec![Access::write(d(0))],
            session.planned_body("a"),
        ));
        rt.submit(TaskDesc::new(
            "b",
            vec![Access::write(d(1))],
            session.planned_body("b"),
        ));
        rt.submit(TaskDesc::new(
            "c",
            vec![Access::read(d(0))],
            session.planned_body("c"),
        ));
        rt.seal();
        rt.wait_all()?;
        let trace = session.finish_trace(2);
        let c = trace.spans().iter().find(|e| e.kernel == "c").unwrap();
        Ok((c.start, trace.makespan()))
    }

    #[test]
    fn fig5_race_fixed_by_quiesce() {
        for _ in 0..10 {
            let (c_start, makespan) = fig5_run(RaceMitigation::Quiesce);
            assert_eq!(c_start, 1.0, "C must start when A completes");
            assert_eq!(makespan, 2.0);
        }
    }

    #[test]
    fn fig5_race_fixed_by_sleep_yield() {
        // A generous sleep makes the portable mitigation reliable here.
        let m = RaceMitigation::SleepYield {
            yields: 8,
            sleep_us: 5000,
        };
        for _ in 0..5 {
            let (c_start, makespan) = fig5_run(m);
            assert_eq!(c_start, 1.0, "C must start when A completes");
            assert_eq!(makespan, 2.0);
        }
    }

    #[test]
    fn fig5_race_manifests_without_mitigation() {
        // Without mitigation, B usually retires before C registers, so C
        // reads the advanced clock (start 2.0 instead of 1.0). The race is
        // timing-dependent; require it to appear at least once in 20 runs
        // (in practice it appears nearly every run). When C inserts just
        // after B reached the front, B's retire trips the TEQ's non-front
        // assertion instead: the same race, caught by the queue.
        let mut raced = 0;
        for _ in 0..20 {
            match fig5_try(RaceMitigation::None) {
                Err(errors) => {
                    assert!(
                        errors.iter().all(|e| e.contains("non-front")),
                        "only the race may fail a run: {errors:?}"
                    );
                    raced += 1;
                }
                Ok((c_start, makespan)) if c_start > 1.5 => {
                    raced += 1;
                    assert!(makespan > 2.4, "raced run must show inflated makespan");
                }
                Ok(_) => {}
            }
        }
        assert!(
            raced > 0,
            "the race never manifested in 20 unmitigated runs"
        );
    }

    #[test]
    #[should_panic(expected = "requires attach_quiesce")]
    fn quiesce_without_probe_panics() {
        let session = new_session(constant_models(&[("k", 1.0)]), RaceMitigation::Quiesce);
        let rt = Runtime::new(RuntimeConfig::simple(1));
        // No attach_quiesce: the task body panics, the runtime records it.
        rt.submit(TaskDesc::new("k", vec![], session.planned_body("k")));
        let errs = rt.wait_all().unwrap_err();
        // Re-panic with the recorded message to satisfy should_panic.
        panic!("{}", errs[0]);
    }

    #[test]
    fn planned_warmup_is_rank_keyed_and_deterministic() {
        let run = |workers: usize| {
            let mut models = ModelRegistry::new();
            models.insert("k", KernelModel::with_warmup(Dist::constant(1.0), 3.0));
            let session = new_session(models, RaceMitigation::Quiesce);
            session.set_warmup_slots(1);
            let rt = Runtime::new(RuntimeConfig::simple(workers));
            session.attach_quiesce(rt.probe());
            for _ in 0..3u64 {
                rt.submit(TaskDesc::new(
                    "k",
                    vec![Access::read_write(d(0))],
                    session.planned_body("k"),
                ));
            }
            rt.seal();
            rt.wait_all().unwrap();
            session.virtual_now()
        };
        // A single chain: rank 0 is warm (3s), ranks 1-2 are 1s each.
        // The warm task is the *first submitted*, independent of which
        // worker happens to pop it — so the makespan is schedule-stable.
        assert_eq!(run(1), 5.0);
        assert_eq!(run(4), 5.0);
    }

    #[test]
    fn ranked_durations_independent_of_task_ids() {
        // Same label ranks must draw the same durations even when the
        // runtime task ids differ (e.g. transfer tasks interleaved).
        let run = |extra_tasks: u64| {
            let mut models = ModelRegistry::new();
            models.insert("k", KernelModel::new(Dist::log_normal(-2.0, 0.4).unwrap()));
            models.insert("pad", KernelModel::constant(0.0));
            let session = new_session(models, RaceMitigation::Quiesce);
            let rt = Runtime::new(RuntimeConfig::simple(2));
            session.attach_quiesce(rt.probe());
            for i in 0..extra_tasks {
                rt.submit(TaskDesc::new(
                    "pad",
                    vec![Access::write(d(100 + i))],
                    session.planned_body("pad"),
                ));
            }
            for i in 0..6u64 {
                rt.submit(TaskDesc::new(
                    "k",
                    vec![Access::read_write(d(i % 2))],
                    session.planned_body("k"),
                ));
            }
            rt.seal();
            rt.wait_all().unwrap();
            let trace = session.finish_trace(2);
            let mut durs: Vec<f64> = trace
                .spans()
                .iter()
                .filter(|e| e.kernel == "k")
                .map(|e| e.duration())
                .collect();
            durs.sort_by(f64::total_cmp);
            durs
        };
        assert_eq!(run(0), run(5), "padding tasks must not shift durations");
    }

    #[test]
    fn fixed_bodies_use_exact_duration_no_overhead() {
        let session = SimSession::new(
            ModelRegistry::new(), // no models needed
            SimConfig {
                overhead_per_task: 0.5,
                worker_speeds: vec![0.25],
                ..SimConfig::default()
            },
        );
        let rt = Runtime::new(RuntimeConfig::simple(1));
        session.attach_quiesce(rt.probe());
        let s = session.clone();
        rt.submit(TaskDesc::new("xfer", vec![Access::write(d(0))], move |c| {
            s.simulate_kernel(c, &c.label, ReplayBody::Fixed { duration: 2.0 })
        }));
        let s = session.clone();
        rt.submit(TaskDesc::new("xfer", vec![Access::write(d(1))], move |c| {
            s.simulate_kernel(c, &c.label, ReplayBody::Fixed { duration: 0.0 })
        }));
        rt.seal();
        rt.wait_all().unwrap();
        // Neither overhead nor worker speed applies to fixed durations.
        assert_eq!(session.virtual_now(), 2.0);
        let trace = session.finish_trace(1);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn splitmix_mixes() {
        // Adjacent inputs produce well-separated outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 10);
    }
}

#[cfg(test)]
mod extension_tests {
    //! Tests of the future-work extensions: heterogeneous worker speeds
    //! and per-task overhead modeling.
    use super::*;
    use crate::model::KernelModel;
    use supersim_dag::{Access, DataId};
    use supersim_runtime::{Runtime, RuntimeConfig, TaskDesc};

    fn models(dur: f64) -> ModelRegistry {
        let mut m = ModelRegistry::new();
        m.insert("k", KernelModel::constant(dur));
        m
    }

    #[test]
    fn overhead_per_task_extends_durations() {
        let session = SimSession::new(
            models(1.0),
            SimConfig {
                overhead_per_task: 0.5,
                ..SimConfig::default()
            },
        );
        let rt = Runtime::new(RuntimeConfig::simple(1));
        session.attach_quiesce(rt.probe());
        for i in 0..4u64 {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::write(DataId(i))],
                session.planned_body("k"),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
        // 4 tasks x (1.0 + 0.5) on one worker.
        assert_eq!(session.virtual_now(), 6.0);
    }

    #[test]
    fn heterogeneous_speeds_scale_durations() {
        // Worker 0 at speed 1, worker 1 at speed 4. A task on worker 1
        // takes a quarter of the time.
        let session = SimSession::new(
            models(2.0),
            SimConfig {
                worker_speeds: vec![1.0, 4.0],
                ..SimConfig::default()
            },
        );
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        for i in 0..2u64 {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::write(DataId(i))],
                session.planned_body("k"),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
        let trace = session.finish_trace(2);
        let durations: Vec<f64> = trace.spans().iter().map(|e| e.duration()).collect();
        let mut sorted = durations.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(
            sorted,
            vec![0.5, 2.0],
            "one fast (2/4) and one slow (2/1) execution"
        );
    }

    #[test]
    fn unspecified_workers_default_to_unit_speed() {
        let cfg = SimConfig {
            worker_speeds: vec![2.0],
            ..SimConfig::default()
        };
        assert_eq!(cfg.speed_of(0), 2.0);
        assert_eq!(cfg.speed_of(5), 1.0);
    }

    #[test]
    fn gpu_like_platform_prefers_parallel_finish() {
        // 8 independent tasks, 1 "GPU" (10x) + 1 CPU: the makespan is far
        // below the homogeneous 2-worker packing.
        let hetero = SimConfig {
            worker_speeds: vec![1.0, 10.0],
            ..SimConfig::default()
        };
        let session = SimSession::new(models(1.0), hetero);
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        for i in 0..8u64 {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::write(DataId(i))],
                session.planned_body("k"),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
        // Homogeneous 2 workers would need 4.0 virtual seconds.
        assert!(
            session.virtual_now() < 4.0,
            "makespan {}",
            session.virtual_now()
        );
    }
}

#[cfg(all(test, feature = "metrics"))]
mod isolation_tests {
    use super::*;
    use crate::model::KernelModel;
    use supersim_dag::{Access, DataId};
    use supersim_runtime::{Runtime, RuntimeConfig, TaskDesc};

    fn run_chain(session: &Arc<SimSession>, tasks: u64) {
        let rt = Runtime::new(RuntimeConfig::simple(2));
        session.attach_quiesce(rt.probe());
        for _ in 0..tasks {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::read_write(DataId(0))],
                session.planned_body("k"),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
    }

    /// Concurrent sessions publish *exact, disjoint* kernel counts — the
    /// property a process-global counter cannot provide. This is the
    /// session-isolation invariant the sweep orchestrator rests on
    /// (DESIGN.md §10).
    #[test]
    fn concurrent_sessions_do_not_cross_talk() {
        let make = || {
            let mut m = ModelRegistry::new();
            m.insert("k", KernelModel::constant(1.0));
            SimSession::new(m, SimConfig::default())
        };
        let a = make();
        let b = make();
        std::thread::scope(|s| {
            s.spawn(|| run_chain(&a, 3));
            s.spawn(|| run_chain(&b, 5));
        });
        a.add_run_counter("des.replay.runs", 1);

        let mut snap_a = supersim_metrics::MetricsSnapshot::default();
        a.publish_metrics(&mut snap_a);
        let mut snap_b = supersim_metrics::MetricsSnapshot::default();
        b.publish_metrics(&mut snap_b);
        assert_eq!(snap_a.counter("sim.kernels.count"), Some(3));
        assert_eq!(snap_b.counter("sim.kernels.count"), Some(5));
        assert_eq!(snap_a.counter("des.replay.runs"), Some(1));
        assert_eq!(snap_b.counter("des.replay.runs"), None);
    }

    /// The label hash keys every sampled duration: its values must not
    /// move, or every seeded trace and `trace_hash` moves with them.
    #[test]
    fn label_hash_values_are_pinned() {
        assert_eq!(label_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(label_hash("dgemm"), 0x8ef5_2f64_f50e_e9fd);
        assert_eq!(label_hash("dpotrf"), 0x7826_84fe_e932_e9c2);
    }

    /// A shared registry is one allocation: sessions built over the same
    /// `Arc` observe the same models without cloning.
    #[test]
    fn with_shared_reuses_one_registry() {
        let mut m = ModelRegistry::new();
        m.insert("k", KernelModel::constant(2.0));
        let shared = Arc::new(m);
        let a = SimSession::with_shared(shared.clone(), SimConfig::default());
        let b = SimSession::with_shared(shared.clone(), SimConfig::default());
        assert!(std::ptr::eq(a.models(), b.models()));
        assert!(std::ptr::eq(a.models(), a.fork().models()));
    }
}
