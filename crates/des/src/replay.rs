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
//! 1. **Submit** tasks from the stream while `in_flight < window`,
//!    resolving hazards through the *same* [`HazardTracker`] the threaded
//!    engine uses.
//! 2. **Dispatch** one task per idle lane through the *same*
//!    [`Policy`] object
//!    (`make_policy(config.policy, workers)`), laying out its virtual
//!    timeline with the session's [`SimSession::plan_ranked`] /
//!    [`supersim_core::layout_segments`] — the same draws and the same
//!    arithmetic as the threaded protocol.
//! 3. **Retire** the earliest completion (min `(end, seq)`, exactly the
//!    TEQ's ordering), advance the clock, release successors, refill the
//!    window, and dispatch again.
//!
//! Work-stealing and locality-aware policies are *not* replayable: their
//! dispatch order depends on which host thread steals first, which the
//! quiescence gate does not serialize. [`ReplayEngine::new`] rejects them
//! with [`Unsupported`] rather than replaying something subtly wrong; the
//! same goes for heterogeneous `worker_speeds`, which would make durations
//! depend on the racy task-to-lane assignment.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use supersim_core::{
    aborted_seconds, layout_segments, record_segment_spans, KernelPlan, SimSession,
};
use supersim_dag::Access;
use supersim_runtime::policy::{make_policy, Policy, ReadyMeta};
use supersim_runtime::{Chain, ChainPool, HazardTracker, PolicyKind, RuntimeConfig, RuntimeStats};

/// How a replayed task obtains its duration.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayBody {
    /// The plan-based simulated-kernel protocol: duration drawn by
    /// [`SimSession::plan_ranked`] from `(seed, label, rank)`, warm-up and
    /// transient-fault prescriptions included. Mirrors
    /// `SimSession::planned_body`.
    Ranked {
        /// Submission rank of this task within its label (claim with
        /// [`SimSession::next_rank`] in stream order, exactly as
        /// `planned_body` does).
        rank: u64,
    },
    /// A fixed externally computed duration (transfer tasks costed by an
    /// interconnect model). Mirrors `SimSession::run_fixed`: no model, no
    /// RNG, no overhead — but still perturbed by an attached injector.
    Fixed {
        /// Nominal duration in virtual seconds.
        duration: f64,
    },
}

/// One task of the replayed stream, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTask {
    /// Kernel-class label (trace and duration-model key).
    pub label: String,
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

/// An executing task, ordered like the TEQ: min `(end, seq)` where `seq`
/// is dispatch order.
struct Exec {
    end: f64,
    seq: u64,
    lane: usize,
    task: u64,
}

impl PartialEq for Exec {
    fn eq(&self, other: &Self) -> bool {
        self.end == other.end && self.seq == other.seq
    }
}

impl Eq for Exec {}

impl Ord for Exec {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed for BinaryHeap's max-heap: earliest (end, seq) on top.
        other
            .end
            .total_cmp(&self.end)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Exec {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// Per-task dependence bookkeeping (the DES analogue of the engine's
/// `Entry`, minus the thread machinery). The task payload itself is taken
/// out at dispatch.
#[derive(Default)]
struct Node {
    deps: usize,
    succs: Chain,
    task: Option<ReplayTask>,
}

/// Ring mark of an id whose task has retired.
const RETIRED: u32 = u32::MAX;

/// The in-flight tasks, keyed by submission id without hashing.
///
/// Ids are the contiguous submission counter, so `id - base` indexes a
/// ring of 4-byte handles covering the *live id span* — oldest unretired
/// id to newest submitted — while the nodes themselves sit in a slab
/// whose slots are reused as tasks retire, their successor lists in one
/// shared [`ChainPool`]. The slab therefore never outgrows the in-flight
/// window, even when one straggler keeps the id span long: replaying a
/// 10⁶-task stream holds 10⁶ nodes only if the window is that large. An
/// id below `base`, or marked [`RETIRED`], has retired and imposes no
/// dependence.
#[derive(Default)]
struct NodeTable {
    base: u64,
    ring: VecDeque<u32>,
    slab: Vec<Node>,
    free: Vec<u32>,
    succs: ChainPool,
}

impl NodeTable {
    /// Add the next submission; `id` must be one past the newest.
    fn insert(&mut self, id: u64, deps: usize, task: ReplayTask) {
        debug_assert_eq!(id, self.base + self.ring.len() as u64);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Node::default());
            u32::try_from(self.slab.len() - 1)
                .ok()
                .filter(|&slot| slot != RETIRED)
                .expect("more than u32::MAX tasks in flight")
        });
        let node = &mut self.slab[slot as usize];
        node.deps = deps;
        node.task = Some(task);
        self.ring.push_back(slot);
    }

    /// The slab slot of `id`, unless it has retired.
    fn slot(&self, id: u64) -> Option<usize> {
        let at = usize::try_from(id.checked_sub(self.base)?).ok()?;
        match *self.ring.get(at)? {
            RETIRED => None,
            slot => Some(slot as usize),
        }
    }

    /// The node of `id`, unless it has retired.
    fn get_mut(&mut self, id: u64) -> Option<&mut Node> {
        self.slot(id).map(|slot| &mut self.slab[slot])
    }

    /// Make `id` a successor of `pred`; false if `pred` has retired.
    fn add_successor(&mut self, pred: u64, id: u64) -> bool {
        let Some(slot) = self.slot(pred) else {
            return false;
        };
        self.succs.push(&mut self.slab[slot].succs, id);
        true
    }

    /// Detach and return the oldest remaining successor of in-flight `id`.
    fn pop_successor(&mut self, id: u64) -> Option<u64> {
        let slot = self.slot(id).expect("retired a task twice");
        self.succs.pop(&mut self.slab[slot].succs)
    }

    /// Retire `id` (its successors already popped), freeing its slot.
    fn retire(&mut self, id: u64) {
        let at = (id - self.base) as usize;
        let slot = std::mem::replace(&mut self.ring[at], RETIRED);
        debug_assert!(self.slab[slot as usize].succs.is_empty());
        self.free.push(slot);
        while self.ring.front() == Some(&RETIRED) {
            self.ring.pop_front();
            self.base += 1;
        }
    }
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

/// The submission side of the loop: the lazily pulled stream, the window
/// accounting, and everything a newly submitted or released task touches.
struct Submission<S> {
    stream: S,
    exhausted: bool,
    submitted: u64,
    in_flight: usize,
    window: usize,
    lanes: usize,
    nodes: NodeTable,
    hazards: HazardTracker,
    /// Scratch for one task's predecessor ids.
    preds: Vec<u64>,
    policy: Box<dyn Policy>,
    idle: LaneSet,
    /// Idle lanes that may have gained work since the last dispatch pass.
    candidates: LaneSet,
}

impl<S: Iterator<Item = ReplayTask>> Submission<S> {
    /// Submit tasks while the window has room, resolving hazards and
    /// pushing newly ready ones into the policy — `Runtime::submit`
    /// without the backpressure parking. Newly ready tasks' admitting
    /// idle lanes become dispatch candidates.
    fn refill(&mut self) {
        while !self.exhausted && self.in_flight < self.window {
            let Some(t) = self.stream.next() else {
                self.exhausted = true;
                break;
            };
            let id = self.submitted;
            self.submitted += 1;
            if let Some((lo, hi)) = t.pin {
                assert!(
                    lo < hi && hi <= self.lanes,
                    "task {id} is pinned to lanes [{lo}, {hi}), which is not a non-empty \
                     range of this machine's {} lanes",
                    self.lanes
                );
            }
            let affinity = self.hazards.analyze_into(id, &t.accesses, &mut self.preds);
            let mut deps = 0;
            for &p in &self.preds {
                deps += usize::from(self.nodes.add_successor(p, id));
            }
            if deps == 0 {
                let meta = ReadyMeta {
                    priority: t.priority,
                    releaser: None,
                    affinity,
                    pin: t.pin,
                };
                self.policy.push(id, meta);
                self.candidates.admit(&self.idle, t.pin);
            }
            self.nodes.insert(id, deps, t);
            self.in_flight += 1;
            debug_assert!(self.nodes.slab.len() <= self.window);
        }
    }
}

/// The replay engine. Construct with [`ReplayEngine::new`], optionally
/// [`ReplayEngine::decommission`] lanes (fault replay), then
/// [`ReplayEngine::run`] the task stream.
pub struct ReplayEngine {
    session: Arc<SimSession>,
    policy: Box<dyn Policy>,
    window: usize,
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
        assert!(config.workers > 0, "replay needs at least one lane");
        Ok(ReplayEngine {
            session,
            policy: make_policy(config.policy, config.workers),
            window: config.window,
            lanes: config.workers,
            decommissioned: vec![false; config.workers],
        })
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
    /// retirement, and per-task bookkeeping is recycled at retirement —
    /// so with a bounded `RuntimeConfig::window` (and a streaming trace
    /// sink attached to the session), memory stays flat no matter how
    /// many tasks the stream yields.
    ///
    /// # Panics
    ///
    /// If a task's `pin` is not a non-empty range of the machine's lanes.
    pub fn run<I>(self, tasks: I) -> ReplayOutcome
    where
        I: IntoIterator<Item = ReplayTask>,
    {
        let ReplayEngine {
            session,
            policy,
            window,
            lanes,
            decommissioned,
        } = self;
        let inj = session.fault_injector();
        let inj = inj.as_deref();
        let recorder = session.trace_recorder();
        let mut sub = Submission {
            stream: tasks.into_iter().fuse(),
            exhausted: false,
            submitted: 0,
            in_flight: 0,
            window,
            lanes,
            nodes: NodeTable::default(),
            hazards: HazardTracker::new(),
            preds: Vec::new(),
            policy,
            idle: LaneSet::new(lanes),
            candidates: LaneSet::new(lanes),
        };
        for lane in (0..lanes).filter(|&l| !decommissioned[l]) {
            sub.idle.insert(lane);
        }
        let mut executing: BinaryHeap<Exec> = BinaryHeap::new();
        let mut clock = 0.0f64;
        let mut next_seq = 0u64;
        let mut events = 0u64;
        let mut cancelled = false;
        let mut stats = RuntimeStats::new(lanes);
        // One task's plan and laid-out timeline, reused for every dispatch.
        let mut plan = KernelPlan::default();
        let mut bounds = Vec::new();

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
                let Some(task) = sub.policy.pop(lane) else {
                    continue;
                };
                sub.idle.remove(lane);
                let t = sub
                    .nodes
                    .get_mut(task)
                    .expect("policy dispatched an unknown task")
                    .task
                    .take()
                    .expect("task dispatched twice");
                // The same draws the threaded protocol would make; clean
                // and faulted tasks share one plan → layout → record path.
                match t.body {
                    ReplayBody::Ranked { rank } => {
                        session.plan_ranked_into(&t.label, rank, 1.0, inj, &mut plan)
                    }
                    ReplayBody::Fixed { duration } => plan.set_clean(duration),
                }
                let total = layout_segments(inj, lane, clock, &plan.segments, &mut bounds);
                if plan.is_transient() {
                    inj.expect("transient plan requires an injector")
                        .on_transient(&t.label, plan.failures, aborted_seconds(&bounds));
                }
                record_segment_spans(recorder, lane, t.label, task, &bounds);
                executing.push(Exec {
                    end: clock + total,
                    seq: next_seq,
                    lane,
                    task,
                });
                next_seq += 1;
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
            clock = clock.max(exec.end);
            // Streaming trace mode: every span ending at or before the
            // new clock is recorded, so elapsed flush epochs can drain.
            recorder.observe_clock(clock);
            while let Some(s) = sub.nodes.pop_successor(exec.task) {
                let e = sub
                    .nodes
                    .get_mut(s)
                    .expect("successor retired before its dep");
                e.deps -= 1;
                if e.deps == 0 {
                    let t = e.task.as_ref().expect("ready successor already dispatched");
                    let meta = ReadyMeta {
                        priority: t.priority,
                        releaser: Some(exec.lane),
                        affinity: first_written(&t.accesses),
                        pin: t.pin,
                    };
                    sub.policy.push(s, meta);
                    sub.candidates.admit(&sub.idle, t.pin);
                }
            }
            sub.nodes.retire(exec.task);
            sub.in_flight -= 1;
            stats.completed += 1;
            stats.per_worker_tasks[exec.lane] += 1;
            if !decommissioned[exec.lane] {
                sub.idle.insert(exec.lane);
                sub.candidates.insert(exec.lane);
            }
            sub.refill();
        }

        assert!(
            cancelled || (sub.exhausted && sub.in_flight == 0),
            "replay stalled: {} tasks submitted, {} in flight \
             (a task pinned exclusively to decommissioned lanes can never run)",
            sub.submitted,
            sub.in_flight
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

/// The locality-affinity hint of a released task: its first written data.
fn first_written(accesses: &[Access]) -> Option<u64> {
    accesses.iter().find(|a| a.mode.writes()).map(|a| a.data.0)
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
    fn a_straggler_holds_the_id_span_open_but_not_the_slab() {
        // One 10⁶-unit task, then 10⁵ independent unit tasks, window 64:
        // the straggler outlives them all, so the ring spans every id
        // submitted behind it while at most 64 nodes are ever live. The
        // slab bound is `refill`'s debug assertion; here: the run
        // completes, on time, with a valid trace.
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

    #[test]
    fn node_slots_are_reused_behind_a_straggler() {
        let mut nodes = NodeTable::default();
        nodes.insert(0, 0, fixed(1.0, None));
        for id in 1..=10_000u64 {
            nodes.insert(id, 0, fixed(1.0, None));
            assert!(nodes.add_successor(0, id), "the straggler is in flight");
            if id > 1 {
                assert!(!nodes.add_successor(id - 1, id), "retired: no dependence");
            }
            assert_eq!(nodes.pop_successor(0), Some(id));
            nodes.retire(id);
            assert!(nodes.get_mut(id).is_none());
        }
        assert_eq!(nodes.slab.len(), 2, "one slot per task in flight");
        assert_eq!(nodes.succs.capacity(), 1);
        assert_eq!((nodes.base, nodes.ring.len()), (0, 10_001));
        assert_eq!(nodes.pop_successor(0), None);
        nodes.retire(0);
        assert_eq!((nodes.base, nodes.ring.len()), (10_001, 0));
        assert!(!nodes.add_successor(0, 10_001));
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
