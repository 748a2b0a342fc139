//! Fault-injected execution: clean-vs-faulted comparison and the
//! two-phase replay of permanent failures.
//!
//! Straggler, transient and link-degradation events perturb a run *in
//! place* — the compiled [`FaultPlan`] is attached to the session as a
//! [`supersim_core::FaultInjector`] and the single simulation pass yields
//! the faulted schedule. A **permanent failure** cannot be simulated in
//! one pass (lanes vanish mid-run, and host-side aborts would be
//! nondeterministic), so it is replayed in two deterministic phases:
//!
//! * **Phase A** is the run of the plan without its failure, shared: the
//!   simulation is deterministic in virtual time, so what happened before
//!   the failure time `T` is exactly that run's prefix. The run is *cut*
//!   analytically at `T`. On a single node (shared memory) the machine
//!   quiesces fail-stop: work completed by `T` survives, every in-flight
//!   attempt — on dead and surviving lanes alike — aborts, is truncated
//!   and marked lost, and re-runs in phase B. On a cluster, recovery rolls
//!   back to the last coordinated checkpoint (or to scratch without a
//!   [`supersim_faults::CheckpointPolicy`]): every span after the rollback point is lost.
//!   Either way the cut is a pure function of the trace *times*, never
//!   of lane placement — which host lane a task lands on races run to
//!   run while virtual times are seed-deterministic (see
//!   [`supersim_trace::Trace::canonical`]) — so the replay decision is a
//!   pure function of `(seed, FaultPlan)`.
//! * **Phase B** forks the session (fresh clock, same models and seed
//!   derivation), rebuilds the machine with the dead lanes
//!   decommissioned — and, for a dead node, the placement remapped to
//!   the survivors — and re-submits exactly the tasks the cut left
//!   incomplete. Skipped tasks contribute no hazards, so the survivors'
//!   dependence structure is the full stream's.
//!
//! The phases are stitched onto one timeline: phase-B times shift by the
//! restart offset (`T` plus the recovery policy's restart delay and any
//! checkpoint overhead), phase-B task ids shift past phase A's. Durations re-sample in phase B (a re-executed attempt
//! is a new draw, keyed by the fork's fresh submission ranks); the
//! *decision* of what re-runs is a pure function of `(seed, FaultPlan)`,
//! so identical inputs give identical stitched traces.
//!
//! **One pass table per comparison.** The clean baseline, the faulted
//! run, each event alone (per-fault attribution) and a sweep group's plans
//! all come from one `Passes` table, which simulates a plan without its
//! permanent failure once, so a `kill` costs only its phase B; the clean
//! pass runs first, on the scenario's own session. A pass whose spans
//! went to a stream sink, or that stopped early, is no phase A: a failure
//! then runs its phase A again, on a fork.

use crate::cluster::exec_cluster;
use crate::driver::exec_sim;
use crate::scenario::Scenario;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use supersim_cluster::{Placement, TRANSFER_LABEL};
use supersim_core::SimSession;
use supersim_faults::{
    critical_lane, lost_name, mark_lost, stitch, DegradationReport, FaultAttribution, FaultEvent,
    FaultPlan, FaultScope,
};
use supersim_trace::fault::{base_kernel, event_kind, SpanKind};
use supersim_trace::{KernelName, Trace, TraceEvent};

/// Result of [`Scenario::run_faults`]: both runs and the comparison.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// Trace of the fault-free run.
    pub clean_trace: Trace,
    /// Trace under the full fault plan (failed attempts, backoffs, lost
    /// spans and restarted work all present, marked per
    /// `supersim_trace::fault`).
    pub trace: Trace,
    /// Makespan of the clean run (virtual seconds).
    pub clean_makespan: f64,
    /// Makespan under the fault plan.
    pub faulted_makespan: f64,
    /// The full degradation report (also serializable to JSON).
    pub report: DegradationReport,
}

/// One plan's execution result, before report assembly.
pub(crate) struct RunResult {
    pub(crate) trace: Rc<Trace>,
    makespan: f64,
    checkpoint_overhead: f64,
    restarted: u64,
    /// The phase-B sessions this result ran beyond the table's passes —
    /// its own replay and those of its per-fault attribution runs — so a
    /// sweep publishes their instruments too.
    pub(crate) replays: Vec<Arc<SimSession>>,
}

/// Placement wrapper re-homing a dead node's tiles onto the survivors,
/// cyclically by tile coordinates — the re-placement step of node-failure
/// recovery. Deterministic: a pure function of the inner placement and
/// the dead node.
struct RemapPlacement {
    inner: Arc<dyn Placement>,
    dead: usize,
    nodes: usize,
}

impl Placement for RemapPlacement {
    fn name(&self) -> String {
        format!("{}+remap-n{}", self.inner.name(), self.dead)
    }

    fn owner(&self, i: usize, j: usize) -> usize {
        let o = self.inner.owner(i, j);
        if o != self.dead {
            return o;
        }
        let s = (i + j) % (self.nodes - 1);
        if s >= self.dead {
            s + 1
        } else {
            s
        }
    }
}

/// Retries / aborted / lost totals, derived from the final trace (so the
/// cut of a phased replay is respected exactly). Summation runs in
/// canonical (task id, start) order: event order in the recorded trace is
/// lane-race dependent, and float addition order must not leak into the
/// report.
fn fault_numbers(trace: &Trace) -> (u64, f64, f64) {
    let mut events: Vec<&supersim_trace::TraceEvent> = trace.spans().iter().collect();
    events.sort_by(|a, b| a.task_id.cmp(&b.task_id).then(a.start.total_cmp(&b.start)));
    let (mut retries, mut aborted, mut lost) = (0u64, 0.0f64, 0.0f64);
    for e in events {
        match event_kind(e) {
            SpanKind::Failed => {
                retries += 1;
                aborted += e.end - e.start;
            }
            SpanKind::Lost => lost += e.end - e.start,
            SpanKind::Normal | SpanKind::Backoff => {}
        }
    }
    (retries, aborted, lost)
}

/// Map each compute task id in `trace` to its 0-based submission-stream
/// index: the i-th distinct non-transfer task id in ascending order is
/// the i-th task of the algorithm's stream (the runtime hands out ids in
/// submission order; transfer tasks interleave but are filtered out).
fn stream_indices(trace: &Trace) -> HashMap<u64, u64> {
    let mut ids: Vec<u64> = trace
        .spans()
        .iter()
        .filter(|e| base_kernel(&e.kernel) != TRANSFER_LABEL)
        .map(|e| e.task_id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .enumerate()
        .map(|(i, id)| (id, i as u64))
        .collect()
}

fn describe_event(ev: &FaultEvent) -> String {
    let scope = |s: &FaultScope| match s {
        FaultScope::Worker(w) => format!("worker {w}"),
        FaultScope::Node(n) => format!("node {n}"),
    };
    match ev {
        FaultEvent::Straggler {
            scope: s,
            from,
            until,
            factor,
        } => format!("straggler {} x{factor} [{from}, {until})", scope(s)),
        FaultEvent::PermanentFailure { scope: s, at } => {
            format!("kill {} at {at}", scope(s))
        }
        FaultEvent::Transient {
            label,
            period,
            failures,
            fail_fraction,
        } => format!(
            "transient {} period={period} failures={failures} frac={fail_fraction}",
            label.as_deref().unwrap_or("any-kernel")
        ),
        FaultEvent::LinkDegradation {
            node,
            from,
            until,
            factor,
        } => format!("degrade link node {node} x{factor} [{from}, {until})"),
    }
}

/// Whether plans `a` and `b` simulate the same pass: equal events bar the
/// permanent failure, and equal backoff when a transient reads it — all
/// that [`supersim_faults::CompiledFaults::compile`] reads of a plan.
fn same_pass(a: &FaultPlan, b: &FaultPlan) -> bool {
    fn events(p: &FaultPlan) -> impl Iterator<Item = &FaultEvent> {
        p.events
            .iter()
            .filter(|e| !matches!(e, FaultEvent::PermanentFailure { .. }))
    }
    let backoff = |p: &FaultPlan| (p.recovery.backoff_base, p.recovery.backoff_cap);
    let transient = events(a).any(|e| matches!(e, FaultEvent::Transient { .. }));
    events(a).eq(events(b)) && (!transient || backoff(a) == backoff(b))
}

/// A plan run to the end without its permanent failure.
pub(crate) struct Pass {
    plan: FaultPlan,
    /// Nothing streamed to a sink and no abort: a phase A may share it.
    whole: bool,
    pub(crate) session: Arc<SimSession>,
    pub(crate) trace: Rc<Trace>,
    pub(crate) makespan: f64,
    pub(crate) transfers: u64,
    pub(crate) transfer_bytes: u64,
}

/// The passes of one fault-free scenario, the clean one first; see the
/// module docs.
pub(crate) struct Passes<'s> {
    sc: &'s Scenario,
    pub(crate) passes: Vec<Pass>,
}

impl<'s> Passes<'s> {
    /// The table for `sc` (its plan ignored), the clean pass run at once
    /// on `sc`'s own session: a stream sink or budget there sees it.
    pub(crate) fn new(sc: &'s Scenario) -> Self {
        let mut table = Passes { sc, passes: vec![] };
        table.run(&FaultPlan::new());
        table
    }

    /// Run `plan`: its pass — simulated on a fork of the clean session
    /// unless the table has it (whole, for a phase A) — then phase B when
    /// its permanent failure lands before that pass ends.
    pub(crate) fn run(&mut self, plan: &FaultPlan) -> RunResult {
        let failure = plan.permanent_failure();
        let found = self
            .passes
            .iter()
            .position(|p| same_pass(&p.plan, plan) && (p.whole || failure.is_none()));
        let i = found.unwrap_or_else(|| {
            let clean = self.passes.first().map(|p| &p.session);
            let session = clean.map_or_else(|| self.sc.fresh_session(), |s| s.fork());
            self.sc.attach_plan(&session, plan, 0.0);
            let (trace, makespan, transfers, transfer_bytes) =
                run_pass(self.sc, session.clone(), None, &mut |_| true);
            self.passes.push(Pass {
                plan: plan.clone(),
                whole: session.trace_recorder().drained() == 0 && !session.should_abort(makespan),
                session,
                trace: Rc::new(trace),
                makespan,
                transfers,
                transfer_bytes,
            });
            self.passes.len() - 1
        });
        let a = &self.passes[i];
        match failure {
            Some((_, at)) if at < a.trace.t_max() => replay_after_failure(self.sc, plan, a),
            _ => RunResult {
                trace: a.trace.clone(),
                makespan: a.makespan,
                checkpoint_overhead: 0.0,
                restarted: 0,
                replays: Vec::new(),
            },
        }
    }

    /// Run `plan` and compare it with the clean pass, running each event
    /// alone when the plan has several (per-fault attribution).
    pub(crate) fn compare(&mut self, plan: &FaultPlan) -> (RunResult, DegradationReport) {
        let mut faulted = self.run(plan);
        let clean_makespan = self.passes[0].makespan;
        let ratio = |makespan: f64| {
            if clean_makespan > 0.0 {
                makespan / clean_makespan
            } else {
                1.0
            }
        };
        let per_fault = plan
            .events
            .iter()
            .map(|ev| {
                let makespan = if plan.events.len() == 1 {
                    faulted.makespan
                } else {
                    let alone = FaultPlan {
                        events: vec![ev.clone()],
                        recovery: plan.recovery.clone(),
                    };
                    let alone = self.run(&alone);
                    faulted.replays.extend(alone.replays);
                    alone.makespan
                };
                FaultAttribution {
                    fault: describe_event(ev),
                    makespan,
                    slowdown: ratio(makespan),
                }
            })
            .collect();
        let (retries, aborted, lost) = fault_numbers(&faulted.trace);
        let report = DegradationReport {
            clean_makespan,
            faulted_makespan: faulted.makespan,
            slowdown: ratio(faulted.makespan),
            critical_lane_clean: critical_lane(&self.passes[0].trace),
            critical_lane_faulted: critical_lane(&faulted.trace),
            retries,
            aborted_virtual_seconds: aborted,
            lost_virtual_seconds: lost,
            checkpoint_overhead: faulted.checkpoint_overhead,
            restarted_tasks: faulted.restarted,
            per_fault,
        };
        (faulted, report)
    }
}

/// Cut phase A at the failure: events ending by `rollback` are kept as
/// completed (their tasks' stream indices are returned as done); events
/// still running (or rolled back) before `cut` are truncated and marked
/// lost; events starting after `cut` never happened. On a single node `rollback == cut == T` (fail-stop
/// quiesce); on a cluster `rollback` is the last checkpoint before the
/// `cut`. Deliberately a pure function of event *times* — never of lane
/// placement, which is scheduler-race dependent — so identical
/// `(seed, plan)` inputs cut identically.
fn cut_phase_a(trace: &Trace, rollback: f64, cut: f64) -> (Vec<TraceEvent>, HashSet<u64>) {
    let stream = stream_indices(trace);
    let mut kept = Vec::new();
    let mut done = HashSet::new();
    // One `!lost` name per base kernel class.
    let mut lost: BTreeMap<&str, KernelName> = BTreeMap::new();
    for e in trace.spans() {
        if e.end <= rollback {
            if matches!(event_kind(e), SpanKind::Normal) {
                done.extend(stream.get(&e.task_id));
            }
            kept.push(e.clone());
        } else if e.start < cut {
            let base = base_kernel(&e.kernel);
            let name = lost.entry(base).or_insert_with(|| lost_name(base));
            kept.push(mark_lost(e, name, Some(cut)));
        }
    }
    (kept, done)
}

/// Phases "cut" and B of the replay of `plan`'s permanent failure, given
/// phase A (`a`, the pass of `plan` without its failure).
/// Single-node and cluster replays differ only in where recovery rolls
/// back to and in the placement remap of `run_pass`.
fn replay_after_failure(sc: &Scenario, plan: &FaultPlan, a: &Pass) -> RunResult {
    let (scope, at) = plan.permanent_failure().expect("a replay has a failure");
    // Shared memory, fail-stop quiesce: work completed by the failure
    // survives; every in-flight attempt aborts and re-runs with the
    // survivors. Distributed memory: recovery rolls back to the last
    // coordinated checkpoint (scratch without a policy); snapshots taken
    // before the failure plus the restore are pure overhead on the
    // restart offset.
    let (rollback, checkpoint_overhead) = match (&sc.cluster, &plan.recovery.checkpoint) {
        (None, _) => (at, 0.0),
        (Some(_), None) => (0.0, 0.0),
        (Some(_), Some(cp)) => {
            let k = (at / cp.interval).floor();
            (k * cp.interval, k * cp.snapshot_cost + cp.restore_cost)
        }
    };
    let (kept, done) = cut_phase_a(&a.trace, rollback, at);
    let offset = at + plan.recovery.restart_delay + checkpoint_overhead;
    let id_offset = a.trace.spans().iter().map(|e| e.task_id).max().unwrap_or(0) + 1;

    // Phase B: the survivors re-run the incomplete tasks on a fresh clock
    // and a fresh machine — cold caches (warm-up is charged again), an
    // empty coherence map (the restart invalidates every replicated
    // copy), dead lanes decommissioned before submission, and a dead
    // node's tiles re-homed.
    let session_b = a.session.fork();
    sc.attach_plan(&session_b, plan, offset);
    let mut restarted = 0;
    let (trace_b, ..) = run_pass(sc, session_b.clone(), Some(scope), &mut |i| {
        let rerun = !done.contains(&i);
        restarted += u64::from(rerun);
        rerun
    });

    let trace = stitch(sc.lane_map().total(), kept, &trace_b, offset, id_offset);
    RunResult {
        makespan: trace.t_max(),
        trace: Rc::new(trace),
        checkpoint_overhead,
        restarted,
        replays: vec![session_b],
    }
}

/// Execute [`Scenario::run_faults`]: the clean pass, the faulted run and
/// (for multi-event plans) the per-event attribution, from one table.
pub(crate) fn run_faults(sc: Scenario) -> FaultOutcome {
    let mut table = Passes::new(&sc);
    let (faulted, report) = table.compare(&sc.faults);
    let clean = std::mem::take(&mut table.passes).swap_remove(0).trace;
    let owned = |trace: Rc<Trace>| Rc::try_unwrap(trace).unwrap_or_else(|t| (*t).clone());
    FaultOutcome {
        clean_makespan: report.clean_makespan,
        faulted_makespan: faulted.makespan,
        clean_trace: owned(clean),
        trace: owned(faulted.trace),
        report,
    }
}

/// One simulated pass over the scenario's machine — single node or
/// cluster — submitting only the stream indices `keep` accepts. `failed`
/// is the scope a permanent failure took out: its lanes are
/// decommissioned before submission and a dead cluster node's tiles are
/// re-homed onto the survivors. Returns the trace, the makespan and the
/// transfers and bytes moved.
fn run_pass(
    sc: &Scenario,
    session: Arc<SimSession>,
    failed: Option<FaultScope>,
    keep: &mut dyn FnMut(u64) -> bool,
) -> (Trace, f64, u64, u64) {
    let dead = failed.map_or(Vec::new(), |scope| sc.lane_map().lanes_of(scope));
    let ran = match &sc.cluster {
        None => {
            let run = exec_sim(sc, session, &dead, keep);
            (run.trace, run.predicted_seconds, 0, 0)
        }
        Some(spec) => {
            let placement = match failed {
                Some(FaultScope::Node(dead)) => Arc::new(RemapPlacement {
                    inner: sc.resolved_placement(),
                    dead,
                    nodes: spec.nodes,
                }),
                _ => sc.resolved_placement(),
            };
            let run = exec_cluster(sc, placement, session, &dead, keep);
            (
                run.trace,
                run.predicted_seconds,
                run.transfers,
                run.transfer_bytes,
            )
        }
    };
    #[cfg(test)]
    PASSES.with(|n| n.set(n.get() + 1));
    ran
}

#[cfg(test)]
thread_local! {
    /// Passes [`run_pass`] made on this thread, for the pass-count tests.
    pub(crate) static PASSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Algorithm;
    use proptest::prelude::*;
    use supersim_cluster::ClusterSpec;
    use supersim_core::{KernelModel, ModelRegistry};
    use supersim_faults::{CheckpointPolicy, RecoveryPolicy};
    use supersim_runtime::SchedulerKind;

    fn models(alg: Algorithm, secs: f64) -> ModelRegistry {
        let mut m = ModelRegistry::new();
        for l in alg.labels() {
            m.insert(*l, KernelModel::constant(secs));
        }
        m
    }

    fn base(alg: Algorithm) -> Scenario {
        Scenario::new(alg)
            .n(60)
            .tile_size(12)
            .workers(3)
            .seed(11)
            .scheduler(SchedulerKind::Quark)
            .models(models(alg, 0.01))
    }

    #[test]
    fn empty_plan_outcome_is_clean() {
        let out = base(Algorithm::Cholesky).run_faults();
        assert_eq!(out.clean_trace, out.trace);
        assert_eq!(out.report.slowdown, 1.0);
        assert_eq!(out.report.retries, 0);
        assert_eq!(out.report.restarted_tasks, 0);
        assert!(out.report.per_fault.is_empty());
    }

    #[test]
    fn transient_plan_reports_retries() {
        let out = base(Algorithm::Cholesky)
            .faults(FaultPlan::new().transient(4, 2, 0.5))
            .run_faults();
        assert!(out.report.retries > 0);
        assert!(out.report.aborted_virtual_seconds > 0.0);
        assert!(out.faulted_makespan >= out.clean_makespan);
        assert!(out.trace.validate(1e-9).is_ok());
        // Failed attempts and backoffs appear in the trace but clean
        // kernels still dominate.
        let fails = out
            .trace
            .spans()
            .iter()
            .filter(|e| event_kind(e) == SpanKind::Failed)
            .count() as u64;
        assert_eq!(fails, out.report.retries);
    }

    #[test]
    fn worker_kill_replays_and_loses_work() {
        let clean = base(Algorithm::Cholesky).run_sim();
        let cut = clean.predicted_seconds * 0.4;
        let out = base(Algorithm::Cholesky)
            .faults(FaultPlan::new().kill_worker(2, cut))
            .run_faults();
        assert!(out.faulted_makespan >= out.clean_makespan);
        assert!(out.report.restarted_tasks > 0);
        assert!(out.trace.validate(1e-9).is_ok());
        // No post-cut work on the dead lane.
        for e in out.trace.lane(2) {
            assert!(
                e.end <= cut + 1e-9 || event_kind(e) == SpanKind::Lost,
                "dead lane ran after the cut: {e:?}"
            );
        }
    }

    #[test]
    fn a_cut_names_its_lost_spans_once_per_class() {
        // Rolled back to the start (a cluster without checkpoints), every
        // span begun before the cut is lost: many of each class.
        let clean = base(Algorithm::Cholesky).run_sim().trace;
        let (kept, done) = cut_phase_a(&clean, 0.0, clean.makespan() * 0.5);
        assert!(done.is_empty());
        let mut names: BTreeMap<&str, &KernelName> = BTreeMap::new();
        for e in &kept {
            assert_eq!(event_kind(e), SpanKind::Lost);
            let first = names.entry(&e.kernel).or_insert(&e.kernel);
            assert!(first.ptr_eq(&e.kernel), "a second name for {}", e.kernel);
        }
        assert_eq!(names.len(), 4, "{:?}", names.keys());
        assert!(kept.len() > 2 * names.len());
    }

    #[test]
    fn kill_after_completion_changes_nothing() {
        let out = base(Algorithm::Lu)
            .faults(FaultPlan::new().kill_worker(1, 1e9))
            .run_faults();
        // Worker placement races run to run; the canonical projection
        // (task ids, kernels, virtual times) is the determinism contract.
        assert_eq!(out.clean_trace.canonical(), out.trace.canonical());
        assert_eq!(out.report.restarted_tasks, 0);
        assert_eq!(out.report.lost_virtual_seconds, 0.0);
    }

    #[test]
    fn identical_plans_give_identical_outcomes() {
        // Events here are lane-placement independent: the node-0 straggler
        // covers every lane of a single-node run, transients key on
        // submission rank, and the permanent-failure cut is a pure
        // function of virtual times. That makes the whole outcome
        // reproducible in the canonical (lane-free) projection.
        // Sampled durations (~10 ms), not the module's constant ones: the
        // threaded engine orders equal completion times by host-thread
        // arrival, so a constant model makes even the canonical trace racy
        // under load.
        let sampled = crate::scenario::synthetic_model(-4.6, 0.2, 1.0).unwrap();
        let mk = || {
            base(Algorithm::Cholesky)
                .models(crate::scenario::uniform_models(
                    &[Algorithm::Cholesky],
                    &sampled,
                ))
                .faults(
                    FaultPlan::new()
                        .straggler_node(0, 0.0, 0.2, 3.0)
                        .transient_for("dgemm", 3, 1, 0.5)
                        .kill_worker(2, 0.15),
                )
                .run_faults()
        };
        let a = mk();
        let b = mk();
        assert!(a.report.restarted_tasks > 0, "the kill lands mid-run");
        assert_eq!(a.trace.canonical(), b.trace.canonical());
        assert_eq!(a.clean_trace.canonical(), b.clean_trace.canonical());
        assert_eq!(a.clean_makespan, b.clean_makespan);
        assert_eq!(a.faulted_makespan, b.faulted_makespan);
        assert_eq!(a.report.retries, b.report.retries);
        assert_eq!(
            a.report.aborted_virtual_seconds,
            b.report.aborted_virtual_seconds
        );
        assert_eq!(a.report.lost_virtual_seconds, b.report.lost_virtual_seconds);
        assert_eq!(a.report.restarted_tasks, b.report.restarted_tasks);
        assert_eq!(a.report.per_fault, b.report.per_fault);
        // Multi-event plan: attribution ran each event alone.
        assert_eq!(a.report.per_fault.len(), 3);
    }

    #[test]
    fn cluster_node_kill_remaps_and_restarts() {
        let sc = Scenario::new(Algorithm::Cholesky)
            .n(48)
            .tile_size(12)
            .seed(5)
            .models(models(Algorithm::Cholesky, 0.01))
            .cluster(ClusterSpec::new(4, 2));
        let clean = sc.clone().run_cluster();
        let cut = clean.predicted_seconds * 0.5;
        let out = sc.faults(FaultPlan::new().kill_node(1, cut)).run_faults();
        assert!(out.faulted_makespan > out.clean_makespan);
        assert!(out.report.restarted_tasks > 0);
        assert!(out.report.lost_virtual_seconds > 0.0);
        assert!(out.trace.validate(1e-9).is_ok());
        // Without checkpoints the whole prefix is rolled back: every
        // phase-A span is lost, so no kept event survives unmarked
        // before the cut... except none: completed set is empty.
        let spec = ClusterSpec::new(4, 2);
        let (lo, hi) = spec.compute_range(1);
        for e in out.trace.spans() {
            if (lo..hi).contains(&e.worker) {
                assert!(
                    e.end <= cut + 1e-9,
                    "dead node computed after the cut: {e:?}"
                );
            }
        }
    }

    #[test]
    fn cluster_checkpoints_preserve_prefix_and_cost_overhead() {
        let sc = Scenario::new(Algorithm::Cholesky)
            .n(48)
            .tile_size(12)
            .seed(5)
            .models(models(Algorithm::Cholesky, 0.01))
            .cluster(ClusterSpec::new(2, 2));
        let clean = sc.clone().run_cluster();
        let cut = clean.predicted_seconds * 0.6;
        let recovery = supersim_faults::RecoveryPolicy {
            checkpoint: Some(CheckpointPolicy {
                interval: cut / 2.5,
                snapshot_cost: 0.001,
                restore_cost: 0.002,
            }),
            ..Default::default()
        };
        let out = sc
            .clone()
            .faults(FaultPlan::new().kill_node(1, cut).with_recovery(recovery))
            .run_faults();
        // Two snapshots fit before the cut: overhead = 2*0.001 + 0.002.
        assert!((out.report.checkpoint_overhead - 0.004).abs() < 1e-12);
        // The checkpointed prefix survives: fewer tasks restarted than a
        // scratch restart would need.
        let scratch = sc.faults(FaultPlan::new().kill_node(1, cut)).run_faults();
        assert!(out.report.restarted_tasks < scratch.report.restarted_tasks);
        assert!(out.trace.validate(1e-9).is_ok());
    }

    /// The per-plan path the pass table replaced, kept as the oracle:
    /// every plan is its own full pass on a session of its own, phase A
    /// included.
    fn oracle_run(sc: &Scenario, plan: &FaultPlan) -> RunResult {
        let session = sc.fresh_session();
        sc.attach_plan(&session, plan, 0.0);
        let (trace, makespan, transfers, transfer_bytes) =
            run_pass(sc, session.clone(), None, &mut |_| true);
        let a = Pass {
            plan: plan.clone(),
            whole: true,
            session,
            trace: Rc::new(trace),
            makespan,
            transfers,
            transfer_bytes,
        };
        match plan.permanent_failure() {
            Some((_, at)) if at < a.trace.t_max() => replay_after_failure(sc, plan, &a),
            _ => RunResult {
                trace: a.trace,
                makespan,
                checkpoint_overhead: 0.0,
                restarted: 0,
                replays: Vec::new(),
            },
        }
    }

    /// [`Scenario::run_faults`] through [`oracle_run`]: the clean run, the
    /// faulted run and each event alone, none shared.
    fn oracle_run_faults(sc: &Scenario) -> FaultOutcome {
        let clean = oracle_run(sc, &FaultPlan::new());
        let faulted = oracle_run(sc, &sc.faults);
        let ratio = |m: f64| {
            if clean.makespan > 0.0 {
                m / clean.makespan
            } else {
                1.0
            }
        };
        let per_fault = sc
            .faults
            .events
            .iter()
            .map(|ev| {
                let makespan = if sc.faults.events.len() == 1 {
                    faulted.makespan
                } else {
                    let alone = FaultPlan {
                        events: vec![ev.clone()],
                        recovery: sc.faults.recovery.clone(),
                    };
                    oracle_run(sc, &alone).makespan
                };
                FaultAttribution {
                    fault: describe_event(ev),
                    makespan,
                    slowdown: ratio(makespan),
                }
            })
            .collect();
        let (retries, aborted, lost) = fault_numbers(&faulted.trace);
        let report = DegradationReport {
            clean_makespan: clean.makespan,
            faulted_makespan: faulted.makespan,
            slowdown: ratio(faulted.makespan),
            critical_lane_clean: critical_lane(&clean.trace),
            critical_lane_faulted: critical_lane(&faulted.trace),
            retries,
            aborted_virtual_seconds: aborted,
            lost_virtual_seconds: lost,
            checkpoint_overhead: faulted.checkpoint_overhead,
            restarted_tasks: faulted.restarted,
            per_fault,
        };
        FaultOutcome {
            clean_trace: (*clean.trace).clone(),
            trace: (*faulted.trace).clone(),
            clean_makespan: clean.makespan,
            faulted_makespan: faulted.makespan,
            report,
        }
    }

    /// A sampled-duration DES scenario, single node or a 2 × 2 cluster.
    fn sampled(alg: Algorithm, cluster: bool, seed: u64) -> Scenario {
        let model = crate::scenario::synthetic_model(-4.6, 0.3, 1.5).unwrap();
        let sc = Scenario::new(alg)
            .seed(seed)
            .backend(crate::replay::Backend::Des)
            .models(crate::scenario::uniform_models(&[alg], &model));
        if cluster {
            sc.n(48).tile_size(12).cluster(ClusterSpec::new(2, 2))
        } else {
            sc.n(60)
                .tile_size(12)
                .workers(3)
                .scheduler(SchedulerKind::Quark)
        }
    }

    /// Passes [`run_pass`] makes on this thread while `f` runs.
    fn passes_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = PASSES.with(|n| n.get());
        let out = f();
        (out, PASSES.with(|n| n.get()) - before)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pass table reports exactly what the per-plan path reports —
        /// the degradation JSON, the faulted and the clean trace, byte for
        /// byte — for straggler, transient, link and kill mixes on one node
        /// and on a cluster, with the kill before, at or after the end of
        /// its phase A.
        #[test]
        fn pass_table_matches_the_per_plan_path(
            shape in (any::<bool>(), 0usize..3, 1u64..1000),
            straggler in (0usize..3, 0.0f64..0.2, 0.05f64..0.4, 1.5f64..4.0),
            transient in (0usize..3, 1u64..6, 1u32..3),
            link in (any::<bool>(), 0.0f64..0.2, 1.5f64..4.0),
            kill in (0usize..3, 0usize..4),
            recovery in (0.0f64..0.05, any::<bool>(), 1e-4f64..1e-2),
        ) {
            let (cluster, alg, seed) = shape;
            let (restart_delay, checkpoint, backoff) = recovery;
            // Distributed QR does not exist.
            let alg = [Algorithm::Cholesky, Algorithm::Lu, Algorithm::Qr][alg % if cluster { 2 } else { 3 }];
            let mut plan = FaultPlan::new();
            // Each event is absent, or one of its scopes.
            let (scope, from, len, factor) = straggler;
            match scope {
                1 => plan = plan.straggler_worker(1, from, from + len, factor),
                2 => plan = plan.straggler_node(0, from, from + len, factor),
                _ => {}
            }
            let (which, period, failures) = transient;
            match which {
                1 => plan = plan.transient(period, failures, 0.5),
                2 => plan = plan.transient_for(alg.labels()[0], period, failures, 0.5),
                _ => {}
            }
            let (degrade, from, factor) = link;
            if degrade && cluster {
                plan = plan.degrade_link(1, from, from + 0.1, factor);
            }
            plan = plan.with_recovery(RecoveryPolicy {
                backoff_base: backoff,
                backoff_cap: backoff * 10.0,
                restart_delay,
                checkpoint: (checkpoint && cluster).then_some(CheckpointPolicy {
                    interval: 0.03,
                    snapshot_cost: 0.001,
                    restore_cost: 0.002,
                }),
            });
            let sc = sampled(alg, cluster, seed);
            let (scope, when) = kill;
            if scope > 0 {
                // Before, at and after the end of the run the kill cuts.
                let end = oracle_run(&sc, &plan).trace.t_max();
                let at = end * [0.3, 0.7, 1.0, 1.3][when];
                plan = if scope == 1 || !cluster {
                    plan.kill_worker(1, at)
                } else {
                    plan.kill_node(1, at)
                };
            }
            let sc = sc.faults(plan);
            let table = sc.clone().run_faults();
            let oracle = oracle_run_faults(&sc);
            prop_assert_eq!(
                serde_json::to_string(&table.report).unwrap(),
                serde_json::to_string(&oracle.report).unwrap()
            );
            prop_assert_eq!(&table.trace, &oracle.trace);
            prop_assert_eq!(&table.clean_trace, &oracle.clean_trace);
            prop_assert_eq!(table.trace.canonical(), oracle.trace.canonical());
            prop_assert_eq!(table.clean_makespan.to_bits(), oracle.clean_makespan.to_bits());
            prop_assert_eq!(table.faulted_makespan.to_bits(), oracle.faulted_makespan.to_bits());
        }
    }

    /// A kill-only plan costs the clean pass and its phase B: its phase A
    /// is the clean pass (the per-plan path ran 3 passes).
    #[test]
    fn a_kill_costs_only_its_phase_b() {
        let sc = sampled(Algorithm::Cholesky, false, 3);
        let end = sc.clone().run_sim().trace.t_max();
        let sc = sc.faults(FaultPlan::new().kill_worker(2, end * 0.5));
        let (out, passes) = passes_of(|| sc.clone().run_faults());
        assert!(out.report.restarted_tasks > 0, "the kill lands mid-run");
        assert_eq!(passes, 2);
        assert_eq!(passes_of(|| oracle_run_faults(&sc)).1, 3);
    }

    /// LU straggler + kill with per-fault attribution: clean, straggler
    /// (the faulted phase A and the straggler alone), the faulted phase B
    /// and the kill alone's phase B (the per-plan path ran 6 passes).
    #[test]
    fn attribution_shares_the_passes_of_the_faulted_run() {
        let sc = sampled(Algorithm::Lu, false, 5);
        let end = sc.clone().run_sim().trace.t_max();
        let sc = sc.faults(
            FaultPlan::new()
                .straggler_worker(1, 0.0, end * 0.5, 3.0)
                .kill_worker(0, end * 0.4),
        );
        let (out, passes) = passes_of(|| sc.clone().run_faults());
        assert!(out.report.restarted_tasks > 0, "the kill lands mid-run");
        assert_eq!(out.report.per_fault.len(), 2);
        assert_eq!(passes, 4);
        assert_eq!(passes_of(|| oracle_run_faults(&sc)).1, 6);
    }
}
