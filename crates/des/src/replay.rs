//! The pure-DES replay backend: a single-threaded event loop reproducing
//! the threaded engine's schedule on the Quark (central-FIFO) and Pinned
//! profiles — no host threads, no TEQ parking, no quiescence machinery.
//!
//! ## Why replay is possible
//!
//! The threaded simulation protocol serializes virtual time completely:
//! the quiescence gate (`(sealed || submitter_waiting) && in_dispatch == 0
//! && policy.stalled(busy)`) forbids the clock from advancing while any
//! dispatch is in flight, so between two consecutive retirements *every*
//! possible dispatch happens, and every task dispatched in that window
//! starts at the same virtual time — the current clock. The schedule is
//! therefore a deterministic function of (task stream, policy, seed), and
//! a sequential loop can reproduce it:
//!
//! 1. **Submit** tasks from the stream while the window has room, into
//!    the *same* [`SchedCore`] the threaded engine drives: one hazard
//!    analysis, one window, one policy object
//!    (`make_policy(config.policy, workers)`), one successor release.
//! 2. **Dispatch** one task per idle lane through the core, planning and
//!    laying out its virtual timeline with the session's
//!    [`SimSession::plan_body`] / [`SimSession::lay_out`] — the threaded
//!    protocol's own draws and arithmetic.
//! 3. **Retire** the earliest completion (min `(end, seq)`: the TEQ's
//!    [`Completion`] key), advance the clock, release successors through
//!    the core, refill the window, and dispatch again.
//!
//! The loop keeps only what the core leaves to its caller: virtual time
//! (the `(end, seq)` heap) and the lanes (which are idle, which may have
//! gained work).
//!
//! Work-stealing and locality-aware policies are *not* replayable: their
//! dispatch order depends on which host thread steals first, which the
//! quiescence gate does not serialize. [`ReplayEngine::new`] rejects them
//! with [`Unsupported`] rather than replaying something subtly wrong; the
//! same goes for heterogeneous `worker_speeds`, which would make durations
//! depend on the racy task-to-lane assignment.

use std::collections::BinaryHeap;
use std::sync::Arc;
pub use supersim_core::ReplayBody;
use supersim_core::{Completion, CompletionSeq, SimSession, Timeline};
use supersim_dag::Access;
use supersim_runtime::policy::{make_policy, Policy};
use supersim_runtime::{PolicyKind, RuntimeConfig, RuntimeStats, SchedCore};
use supersim_trace::{KernelName, NameTable};

/// One task of the replayed stream, in submission order. The label is
/// the class's shared [`KernelName`] in the product streams
/// ([`SimSession::claim`] hands it out with the rank); a `String`-labelled
/// stream is interned once per run, each distinct string made a name on
/// its first sight.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTask<L = String> {
    /// Kernel-class label (trace and duration-model key).
    pub label: L,
    /// Data accesses; hazards against earlier submissions become
    /// dependences.
    pub accesses: Vec<Access>,
    /// Scheduling priority (ignored by the supported FIFO policies, but
    /// carried so the policy object sees the same metadata).
    pub priority: i64,
    /// Pin to the half-open lane range `[start, end)` (Pinned policy).
    pub pin: Option<(usize, usize)>,
    /// Duration source.
    pub body: ReplayBody,
}

/// Outcome of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Predicted makespan (the final virtual clock).
    pub makespan: f64,
    /// Tasks completed.
    pub completed: u64,
    /// Retirement events processed.
    pub events: u64,
    /// Engine-compatible statistics (completed count, per-lane task
    /// counts; wall-clock fields stay zero — there are no host threads).
    pub stats: RuntimeStats,
    /// The run stopped early because the session's cancellation flag was
    /// raised or its virtual-time budget was exceeded
    /// ([`SimSession::should_abort`]). Makespan, counts and the recorded
    /// trace cover only the retired prefix.
    pub cancelled: bool,
}

/// The requested configuration cannot be replayed as pure discrete events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported(pub String);

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DES replay backend unsupported: {}", self.0)
    }
}

impl std::error::Error for Unsupported {}

/// Whether the replay backend can reproduce `policy`'s dispatch order.
/// The authoritative check behind [`ReplayEngine::new`], exposed so
/// front-ends can refuse an unsupported profile up front (clean exit)
/// instead of deep in a run.
pub fn replayable_policy(policy: PolicyKind) -> Result<(), Unsupported> {
    match policy {
        PolicyKind::CentralFifo | PolicyKind::Pinned => Ok(()),
        other => Err(Unsupported(format!(
            "policy {other:?} dispatches in host-thread order; only CentralFifo \
             (Quark) and Pinned (cluster) replay deterministically"
        ))),
    }
}

/// An executing task, retired in its [`Completion`] order, where `seq` is
/// dispatch order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Exec {
    done: Completion,
    lane: usize,
    task: u64,
}

/// A set of lanes as a fixed-width bitset, read out in ascending lane
/// order (ascending dispatch order is part of the replayed schedule).
struct LaneSet {
    words: Vec<u64>,
}

impl LaneSet {
    fn new(lanes: usize) -> Self {
        LaneSet {
            words: vec![0; lanes.div_ceil(64)],
        }
    }

    fn insert(&mut self, lane: usize) {
        self.words[lane / 64] |= 1 << (lane % 64);
    }

    fn remove(&mut self, lane: usize) {
        self.words[lane / 64] &= !(1 << (lane % 64));
    }

    fn contains(&self, lane: usize) -> bool {
        self.words[lane / 64] & (1 << (lane % 64)) != 0
    }

    /// Add the lanes of `idle` that a task pinned to `pin` (a validated
    /// half-open range; `None` = any lane) may run on.
    fn admit(&mut self, idle: &LaneSet, pin: Option<(usize, usize)>) {
        let Some((lo, hi)) = pin else {
            for (w, &i) in self.words.iter_mut().zip(&idle.words) {
                *w |= i;
            }
            return;
        };
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for w in first..=last {
            let mut mask = u64::MAX;
            if w == first {
                mask &= u64::MAX << (lo % 64);
            }
            if w == last {
                mask &= u64::MAX >> (63 - (hi - 1) % 64);
            }
            self.words[w] |= idle.words[w] & mask;
        }
    }

    /// Remove and return the smallest lane `>= from`.
    fn pop_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        self.words[w] &= !(bits & bits.wrapping_neg());
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

/// A replayed task's label type: how it becomes the span's name.
pub trait ReplayLabel {
    /// The label as a shared name, made through the run's `names` table
    /// if it is not one already.
    fn into_name(self, names: &mut NameTable) -> KernelName;
}

impl ReplayLabel for KernelName {
    fn into_name(self, _: &mut NameTable) -> KernelName {
        self
    }
}

impl ReplayLabel for String {
    fn into_name(self, names: &mut NameTable) -> KernelName {
        names.intern_owned(self)
    }
}

/// What the core hands back at dispatch: the label and duration source.
type Payload = (KernelName, ReplayBody);

/// The submission side of the loop: the lazily pulled stream, the core,
/// and the lanes a newly ready task can wake.
struct Submission<S> {
    stream: S,
    /// The run's names of `String` labels (empty for a stream of names).
    names: NameTable,
    exhausted: bool,
    lanes: usize,
    core: SchedCore<Payload>,
    idle: LaneSet,
    /// Idle lanes that may have gained work since the last dispatch pass.
    candidates: LaneSet,
}

impl<L: ReplayLabel, S: Iterator<Item = ReplayTask<L>>> Submission<S> {
    /// Submit tasks while the window has room — `Runtime::submit` without
    /// the backpressure parking. Newly ready tasks' admitting idle lanes
    /// become dispatch candidates.
    fn refill(&mut self) {
        while !self.exhausted && !self.core.window_full() {
            let Some(t) = self.stream.next() else {
                self.exhausted = true;
                break;
            };
            if let Some((lo, hi)) = t.pin {
                assert!(
                    lo < hi && hi <= self.lanes,
                    "task {} is pinned to lanes [{lo}, {hi}), which is not a non-empty \
                     range of this machine's {} lanes",
                    self.core.submitted(),
                    self.lanes
                );
            }
            let ReplayTask {
                label,
                accesses,
                priority,
                pin,
                body,
            } = t;
            let label = label.into_name(&mut self.names);
            if self.core.submit(&accesses, priority, pin, (label, body)).1 {
                self.candidates.admit(&self.idle, pin);
            }
        }
    }
}

/// The replay engine. Construct with [`ReplayEngine::new`], optionally
/// [`ReplayEngine::decommission`] lanes (fault replay), then
/// [`ReplayEngine::run`] the task stream.
pub struct ReplayEngine {
    session: Arc<SimSession>,
    core: SchedCore<Payload>,
    lanes: usize,
    decommissioned: Vec<bool>,
}

impl ReplayEngine {
    /// Build a replay engine for `config`'s policy over `config.workers`
    /// virtual lanes. Returns [`Unsupported`] for policies whose threaded
    /// dispatch order is not a deterministic function of the stream
    /// (work stealing, locality-aware, LIFO, priority) and for
    /// heterogeneous `worker_speeds`.
    pub fn new(config: &RuntimeConfig, session: Arc<SimSession>) -> Result<Self, Unsupported> {
        replayable_policy(config.policy)?;
        if !session.config().worker_speeds.is_empty() {
            return Err(Unsupported(
                "heterogeneous worker_speeds make durations depend on the racy \
                 task-to-lane assignment"
                    .into(),
            ));
        }
        let policy = make_policy(config.policy, config.workers);
        Ok(Self::with_policy(config, session, policy))
    }

    /// [`ReplayEngine::new`] dispatching through `policy` instead of the
    /// one `config.policy` names, and without the replayability checks:
    /// the offline list scheduler brings its own order, and tests count
    /// what the policy sees.
    pub(crate) fn with_policy(
        config: &RuntimeConfig,
        session: Arc<SimSession>,
        policy: Box<dyn Policy>,
    ) -> Self {
        assert!(config.workers > 0, "replay needs at least one lane");
        ReplayEngine {
            session,
            core: SchedCore::new(policy, config.window),
            lanes: config.workers,
            decommissioned: vec![false; config.workers],
        }
    }

    /// Permanently remove `lane` from service before the run (fault
    /// replay: a died worker or node lane). Mirrors
    /// `Runtime::decommission`: the lane never dispatches.
    pub fn decommission(&mut self, lane: usize) {
        assert!(lane < self.lanes, "no such lane: {lane}");
        self.decommissioned[lane] = true;
    }

    /// Replay the task stream, recording spans into the session's trace
    /// recorder, and return the outcome. Consumes the engine: the policy
    /// object and hazard state are single-use, like a `Runtime`.
    ///
    /// The stream is pulled lazily, at most a window ahead of
    /// retirement; per-task bookkeeping is recycled at retirement, and
    /// the hazard tracker forgets readers that have retired. So with a
    /// bounded `RuntimeConfig::window`, a lazy stream and a streaming
    /// trace sink attached to the session, memory is the window plus one
    /// entry per data region, however many tasks the stream yields and
    /// however often a region is read after its last write. (The live id
    /// span behind a straggler still costs 4 bytes per id.)
    ///
    /// # Panics
    ///
    /// If a task's `pin` is not a non-empty range of the machine's lanes.
    pub fn run<I, L>(self, tasks: I) -> ReplayOutcome
    where
        I: IntoIterator<Item = ReplayTask<L>>,
        L: ReplayLabel,
    {
        let ReplayEngine {
            session,
            core,
            lanes,
            decommissioned,
        } = self;
        let inj = session.fault_injector();
        let inj = inj.as_deref();
        let recorder = session.trace_recorder();
        let mut sub = Submission {
            stream: tasks.into_iter().fuse(),
            names: NameTable::new(),
            exhausted: false,
            lanes,
            core,
            idle: LaneSet::new(lanes),
            candidates: LaneSet::new(lanes),
        };
        for lane in (0..lanes).filter(|&l| !decommissioned[l]) {
            sub.idle.insert(lane);
        }
        let mut executing: BinaryHeap<Exec> = BinaryHeap::new();
        let mut clock = 0.0f64;
        let mut keys = CompletionSeq::default();
        let mut events = 0u64;
        let mut cancelled = false;
        let mut stats = RuntimeStats::new(lanes);
        // One task's plan and laid-out timeline, reused for every dispatch.
        let mut scratch = Timeline::default();

        // Initial fill: stream in up to a window of tasks, then dispatch
        // every lane that can take one (all at clock 0, like the threaded
        // engine's pre-first-retirement burst).
        sub.refill();
        sub.candidates.admit(&sub.idle, None);

        loop {
            // Dispatch pass: each candidate lane (ascending) takes at most
            // one task from the policy. A successful pop frees queue
            // positions, so pinned successors of the same round stay
            // covered by their own candidate lanes.
            let mut from = 0;
            while let Some(lane) = sub.candidates.pop_from(from) {
                from = lane + 1;
                if !sub.idle.contains(lane) {
                    continue;
                }
                let (Some((task, (label, body))), _) = sub.core.pop(lane) else {
                    continue;
                };
                sub.idle.remove(lane);
                // The threaded protocol's plan → layout → record path, with
                // this loop's clock as the start.
                session.plan_body(&label, body, 1.0, inj, &mut scratch);
                let done = session.lay_out(inj, lane, label, task, &mut scratch, |lay| {
                    keys.key(clock + lay(clock))
                });
                executing.push(Exec { done, lane, task });
            }

            // Cooperative cancellation / virtual-budget check, once per
            // retirement: the retirement boundary is the only point where
            // no dispatch is half-recorded, so stopping here leaves a
            // valid trace prefix.
            if session.should_abort(clock) {
                cancelled = true;
                break;
            }

            // Retire the earliest completion; its lane frees, successors
            // release, the window refills — in exactly the threaded
            // engine's order (successor pushes land before the refill's).
            let Some(exec) = executing.pop() else { break };
            events += 1;
            clock = clock.max(exec.done.end);
            // Streaming trace mode: every span ending at or before the
            // new clock is recorded, so elapsed flush epochs can drain.
            recorder.observe_clock(clock);
            sub.core.retire(exec.task, exec.lane, |pin| {
                sub.candidates.admit(&sub.idle, pin);
            });
            stats.completed += 1;
            stats.per_worker_tasks[exec.lane] += 1;
            if !decommissioned[exec.lane] {
                sub.idle.insert(exec.lane);
                sub.candidates.insert(exec.lane);
            }
            sub.refill();
        }

        assert!(
            cancelled || (sub.exhausted && sub.core.in_flight() == 0),
            "replay stalled: {} tasks submitted, {} in flight \
             (a task pinned exclusively to decommissioned lanes can never run)",
            sub.core.submitted(),
            sub.core.in_flight()
        );

        // Run totals go to the driving session, not a process-global
        // registry: N concurrent replay sessions keep disjoint counters.
        session.add_run_counter("des.replay.runs", 1);
        session.add_run_counter("des.replay.tasks", stats.completed);
        session.add_run_counter("des.replay.events", events);

        ReplayOutcome {
            makespan: clock,
            completed: stats.completed,
            events,
            stats,
            cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_core::{KernelModel, ModelRegistry, SimConfig};
    use supersim_dag::DataId;

    fn session(labels: &[&str], secs: f64, seed: u64) -> Arc<SimSession> {
        let mut m = ModelRegistry::new();
        for l in labels {
            m.insert(*l, KernelModel::constant(secs));
        }
        SimSession::new(
            m,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
    }

    fn ranked(session: &SimSession, label: &str, accesses: Vec<Access>) -> ReplayTask {
        ReplayTask {
            label: label.to_string(),
            accesses,
            priority: 0,
            pin: None,
            body: ReplayBody::Ranked {
                rank: session.next_rank(label),
            },
        }
    }

    #[test]
    fn virtual_budget_cancels_mid_run() {
        let s = session(&["w"], 2.0, 1);
        s.set_virtual_budget(5.0);
        let eng = ReplayEngine::new(&RuntimeConfig::simple(1), s.clone()).unwrap();
        let tasks: Vec<ReplayTask> = (0..10)
            .map(|_| ranked(&s, "w", vec![Access::read_write(DataId(0))]))
            .collect();
        let out = eng.run(tasks);
        assert!(out.cancelled);
        // 2s chain on one lane: retirements at 2, 4, 6 — the check after
        // clock 6 fires, so exactly three tasks retired.
        assert_eq!(out.completed, 3);
        assert!(out.makespan <= 6.0 + 1e-12);
    }

    #[test]
    fn cancel_request_stops_before_first_retirement() {
        let s = session(&["w"], 2.0, 1);
        s.request_cancel();
        let eng = ReplayEngine::new(&RuntimeConfig::simple(2), s.clone()).unwrap();
        let tasks: Vec<ReplayTask> = (0..4).map(|_| ranked(&s, "w", vec![])).collect();
        let out = eng.run(tasks);
        assert!(out.cancelled);
        assert_eq!(out.completed, 0);
    }

    #[test]
    fn clean_runs_report_not_cancelled() {
        let s = session(&["w"], 1.0, 1);
        let eng = ReplayEngine::new(&RuntimeConfig::simple(2), s.clone()).unwrap();
        let tasks: Vec<ReplayTask> = (0..4).map(|_| ranked(&s, "w", vec![])).collect();
        let out = eng.run(tasks);
        assert!(!out.cancelled);
        assert_eq!(out.completed, 4);
    }

    #[test]
    fn chain_serializes() {
        let s = session(&["w"], 2.0, 1);
        let eng = ReplayEngine::new(&RuntimeConfig::simple(4), s.clone()).unwrap();
        let tasks: Vec<ReplayTask> = (0..5)
            .map(|_| ranked(&s, "w", vec![Access::read_write(DataId(0))]))
            .collect();
        let out = eng.run(tasks);
        assert_eq!(out.makespan, 10.0);
        assert_eq!(out.completed, 5);
        let trace = s.finish_trace(4);
        assert_eq!(trace.len(), 5);
        assert!(trace.validate(1e-12).is_ok());
    }

    #[test]
    fn independent_tasks_pack() {
        let s = session(&["w"], 1.0, 1);
        let eng = ReplayEngine::new(&RuntimeConfig::simple(3), s.clone()).unwrap();
        let tasks: Vec<ReplayTask> = (0..6)
            .map(|i| ranked(&s, "w", vec![Access::write(DataId(i))]))
            .collect();
        let out = eng.run(tasks);
        assert_eq!(out.makespan, 2.0);
        assert_eq!(
            out.stats.per_worker_tasks,
            vec![2, 2, 2],
            "FIFO over ascending idle lanes balances exactly"
        );
    }

    #[test]
    fn window_limits_in_flight_submissions() {
        // Window 2 on 4 workers: despite 4 independent tasks and 4 lanes,
        // only 2 can be in flight, so the run takes 2 rounds.
        let s = session(&["w"], 1.0, 1);
        let cfg = RuntimeConfig {
            workers: 4,
            window: 2,
            ..RuntimeConfig::simple(4)
        };
        let eng = ReplayEngine::new(&cfg, s.clone()).unwrap();
        let tasks: Vec<ReplayTask> = (0..4)
            .map(|i| ranked(&s, "w", vec![Access::write(DataId(i))]))
            .collect();
        let out = eng.run(tasks);
        assert_eq!(out.makespan, 2.0);
    }

    #[test]
    fn decommissioned_lane_takes_no_work() {
        let s = session(&["w"], 1.0, 1);
        let mut eng = ReplayEngine::new(&RuntimeConfig::simple(2), s.clone()).unwrap();
        eng.decommission(0);
        let tasks: Vec<ReplayTask> = (0..3)
            .map(|i| ranked(&s, "w", vec![Access::write(DataId(i))]))
            .collect();
        let out = eng.run(tasks);
        assert_eq!(out.makespan, 3.0, "one surviving lane serializes");
        assert_eq!(out.stats.per_worker_tasks, vec![0, 3]);
    }

    #[test]
    fn unsupported_policies_are_rejected() {
        let s = session(&["w"], 1.0, 1);
        for kind in [
            PolicyKind::WorkStealing,
            PolicyKind::LocalityAware,
            PolicyKind::CentralLifo,
            PolicyKind::Priority,
        ] {
            let cfg = RuntimeConfig {
                policy: kind,
                ..RuntimeConfig::simple(2)
            };
            let err = match ReplayEngine::new(&cfg, s.clone()) {
                Err(e) => e,
                Ok(_) => panic!("{kind:?} must be rejected"),
            };
            assert!(err.0.contains("replay"), "{err}");
        }
    }

    #[test]
    fn heterogeneous_speeds_are_rejected() {
        let mut m = ModelRegistry::new();
        m.insert("w", KernelModel::constant(1.0));
        let s = SimSession::new(
            m,
            SimConfig {
                worker_speeds: vec![1.0, 2.0],
                ..SimConfig::default()
            },
        );
        assert!(ReplayEngine::new(&RuntimeConfig::simple(2), s).is_err());
    }

    #[test]
    fn pinned_tasks_respect_ranges() {
        let s = session(&["w"], 1.0, 1);
        let cfg = RuntimeConfig {
            policy: PolicyKind::Pinned,
            ..RuntimeConfig::simple(4)
        };
        let eng = ReplayEngine::new(&cfg, s.clone()).unwrap();
        // 4 independent tasks all pinned to lanes [2, 4).
        let tasks: Vec<ReplayTask> = (0..4)
            .map(|i| ReplayTask {
                pin: Some((2, 4)),
                ..ranked(&s, "w", vec![Access::write(DataId(i))])
            })
            .collect();
        let out = eng.run(tasks);
        assert_eq!(out.makespan, 2.0);
        assert_eq!(out.stats.per_worker_tasks, vec![0, 0, 2, 2]);
    }

    fn fixed(duration: f64, pin: Option<(usize, usize)>) -> ReplayTask {
        ReplayTask {
            label: "w".to_string(),
            accesses: vec![],
            priority: 0,
            pin,
            body: ReplayBody::Fixed { duration },
        }
    }

    #[test]
    #[should_panic(
        expected = "task 1 is pinned to lanes [3, 1), which is not a non-empty range of this machine's 4 lanes"
    )]
    fn an_empty_pin_is_rejected_at_submission() {
        let s = session(&[], 1.0, 1);
        let eng = ReplayEngine::new(&RuntimeConfig::simple(4), s).unwrap();
        eng.run([fixed(1.0, Some((0, 4))), fixed(1.0, Some((3, 1)))]);
    }

    #[test]
    #[should_panic(
        expected = "task 0 is pinned to lanes [4, 8), which is not a non-empty range of this machine's 4 lanes"
    )]
    fn a_pin_beyond_the_machine_is_rejected_at_submission() {
        // Under the Pinned policy this task could never dispatch; before
        // the check it surfaced only as the end-of-run "replay stalled".
        let s = session(&[], 1.0, 1);
        let cfg = RuntimeConfig {
            policy: PolicyKind::Pinned,
            ..RuntimeConfig::simple(4)
        };
        ReplayEngine::new(&cfg, s)
            .unwrap()
            .run([fixed(1.0, Some((4, 8)))]);
    }

    #[test]
    fn the_payload_is_the_one_the_core_sizes_its_node_for() {
        // `supersim_runtime`'s node-size test stands a `(KernelName,
        // (u64, f64))` in for this payload: a 64-byte node holds it.
        assert_eq!(
            std::mem::size_of::<Payload>(),
            std::mem::size_of::<(KernelName, (u64, f64))>()
        );
    }

    #[test]
    fn a_straggler_holds_the_id_span_open_but_not_the_slab() {
        // One 10⁶-unit task, then 10⁵ independent unit tasks, window 64:
        // the straggler outlives them all, so the core's ring spans every
        // id submitted behind it while at most 64 nodes are ever live. The
        // slab bound is `SchedCore::submit`'s debug assertion; here: the
        // run completes, on time, with a valid trace.
        let s = session(&[], 1.0, 1);
        let cfg = RuntimeConfig {
            window: 64,
            ..RuntimeConfig::simple(3)
        };
        let eng = ReplayEngine::new(&cfg, s.clone()).unwrap();
        let short = 100_000u64;
        let stream = std::iter::once(fixed(1e6, None)).chain((0..short).map(|_| fixed(1.0, None)));
        let out = eng.run(stream);
        assert_eq!(out.completed, short + 1);
        assert_eq!(out.makespan, 1e6);
        assert_eq!(out.stats.per_worker_tasks, vec![1, 50_000, 50_000]);
        let trace = s.finish_trace(3);
        assert_eq!(trace.len() as u64, short + 1);
        assert!(trace.validate(0.0).is_ok());
    }

    /// The DES twin of `core/tests/policy_guard.rs`: a counting policy
    /// passed through `with_policy` sees every task of a dependent
    /// workload pushed and popped exactly once.
    #[test]
    fn with_policy_routes_every_dispatch_through_the_policy() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use supersim_runtime::ReadyMeta;

        struct Counting {
            inner: Box<dyn Policy>,
            pushes: Arc<AtomicU64>,
            pops: Arc<AtomicU64>,
        }

        impl Policy for Counting {
            fn push(&mut self, task: u64, meta: ReadyMeta) {
                self.pushes.fetch_add(1, Ordering::Relaxed);
                self.inner.push(task, meta);
            }

            fn pop(&mut self, worker: usize) -> Option<u64> {
                let t = self.inner.pop(worker);
                self.pops
                    .fetch_add(u64::from(t.is_some()), Ordering::Relaxed);
                t
            }

            fn len(&self) -> usize {
                self.inner.len()
            }
        }

        let (pushes, pops) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let config = RuntimeConfig {
            window: 5,
            ..RuntimeConfig::simple(3)
        };
        let policy = Box::new(Counting {
            inner: make_policy(config.policy, config.workers),
            pushes: pushes.clone(),
            pops: pops.clone(),
        });
        let s = session(&["k"], 0.001, 1);
        // 4 chains of 8 over distinct tiles: tasks turn ready both at
        // submission and at a predecessor's retirement.
        let tasks: Vec<ReplayTask> = (0..32)
            .map(|i| ranked(&s, "k", vec![Access::read_write(DataId(i % 4))]))
            .collect();
        let out = ReplayEngine::with_policy(&config, s, policy).run(tasks);
        assert_eq!(out.completed, 32);
        assert_eq!(pushes.load(Ordering::Relaxed), 32);
        assert_eq!(pops.load(Ordering::Relaxed), 32);
    }

    mod lane_set_properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// An operation on the engine's two lane sets; lane numbers are
        /// taken modulo the machine width.
        #[derive(Debug, Clone)]
        enum Op {
            /// A lane retires (or starts) idle: `idle` and `candidates`.
            Free(usize),
            /// A lane dispatches: out of `idle`.
            Occupy(usize),
            /// A ready task admits idle lanes (`None` = unpinned).
            Admit(Option<(usize, usize)>),
            /// A dispatch pass drains `candidates` in ascending order.
            Drain,
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let lane = 0usize..40_000;
            let op = prop_oneof![
                lane.clone().prop_map(Op::Free),
                lane.clone().prop_map(Op::Free),
                lane.clone().prop_map(Op::Occupy),
                Just(Op::Admit(None)),
                (lane.clone(), lane).prop_map(|(a, b)| Op::Admit(Some((a, b)))),
                Just(Op::Drain),
            ];
            prop::collection::vec(op, 0..120)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The bitsets follow the `BTreeSet`s they replaced through
            /// random idle / pin / dispatch sequences, at widths on both
            /// sides of a word boundary and at the CI smoke's 20,000
            /// (decommissioned lanes are simply never freed).
            #[test]
            fn lane_sets_follow_the_btree_oracle(
                ops in ops(),
                lanes in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(20_000)],
            ) {
                let (mut idle, mut candidates) = (LaneSet::new(lanes), LaneSet::new(lanes));
                let mut idle_ref = BTreeSet::new();
                let mut candidates_ref = BTreeSet::new();
                for op in ops {
                    match op {
                        Op::Free(l) => {
                            let l = l % lanes;
                            idle.insert(l);
                            candidates.insert(l);
                            idle_ref.insert(l);
                            candidates_ref.insert(l);
                        }
                        Op::Occupy(l) => {
                            let l = l % lanes;
                            prop_assert_eq!(idle.contains(l), idle_ref.contains(&l));
                            idle.remove(l);
                            idle_ref.remove(&l);
                        }
                        Op::Admit(None) => {
                            candidates.admit(&idle, None);
                            candidates_ref.extend(idle_ref.iter().copied());
                        }
                        Op::Admit(Some((a, b))) => {
                            // A validated pin: lo < hi <= lanes.
                            let (a, b) = (a % lanes, b % lanes);
                            let (lo, hi) = (a.min(b), a.max(b) + 1);
                            candidates.admit(&idle, Some((lo, hi)));
                            candidates_ref.extend(idle_ref.range(lo..hi).copied());
                        }
                        Op::Drain => {
                            let mut drained = Vec::new();
                            let mut from = 0;
                            while let Some(l) = candidates.pop_from(from) {
                                from = l + 1;
                                drained.push(l);
                            }
                            let expected: Vec<usize> =
                                std::mem::take(&mut candidates_ref).into_iter().collect();
                            prop_assert_eq!(drained, expected);
                        }
                    }
                }
                // `pop_from` skips lanes below its argument.
                candidates.insert(0);
                candidates.insert(lanes - 1);
                let above_zero = candidates_ref.range(1..).next().copied();
                prop_assert_eq!(candidates.pop_from(1), above_zero.or(Some(lanes - 1)).filter(|&l| l > 0));
                prop_assert!(candidates.contains(0));
            }
        }
    }
}
