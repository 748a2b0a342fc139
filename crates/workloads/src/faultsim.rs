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
//! * **Phase A** runs the full workload with every non-permanent event
//!   injected, then *cuts* the trace analytically at the failure time
//!   `T`. On a single node (shared memory) the machine quiesces
//!   fail-stop: work completed by `T` survives, every in-flight attempt
//!   — on dead and surviving lanes alike — aborts, is truncated and
//!   marked lost, and re-runs in phase B. On a cluster, recovery rolls
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

use crate::cluster::exec_cluster;
use crate::driver::exec_sim;
use crate::scenario::Scenario;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use supersim_cluster::{Placement, TRANSFER_LABEL};
use supersim_core::SimSession;
use supersim_faults::{
    critical_lane, mark_lost, stitch, DegradationReport, FaultAttribution, FaultEvent, FaultPlan,
    FaultScope,
};
use supersim_trace::fault::{base_kernel, event_kind, SpanKind};
use supersim_trace::{Trace, TraceEvent};

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
#[derive(Debug, Clone)]
struct RunResult {
    trace: Trace,
    makespan: f64,
    checkpoint_overhead: f64,
    restarted: u64,
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

/// One simulated pass over the scenario's machine — single node or
/// cluster — submitting only the stream indices `keep` accepts. `failed`
/// is the scope a permanent failure took out: its lanes are
/// decommissioned before submission and a dead cluster node's tiles are
/// re-homed onto the survivors. Returns the trace and the makespan.
fn run_pass(
    sc: &Scenario,
    session: Arc<SimSession>,
    failed: Option<FaultScope>,
    keep: &mut dyn FnMut(u64) -> bool,
) -> (Trace, f64) {
    let dead = failed.map_or(Vec::new(), |scope| sc.lane_map().lanes_of(scope));
    match &sc.cluster {
        None => {
            let run = exec_sim(sc, session, &dead, keep);
            (run.trace, run.predicted_seconds)
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
            (run.trace, run.predicted_seconds)
        }
    }
}

/// Run one plan to completion: in one pass, or through the phased replay
/// when it contains a permanent failure.
fn run_plan(sc: &Scenario, plan: &FaultPlan, used: &mut bool) -> RunResult {
    let session = sc.fresh_session(*used);
    *used = true;
    sc.attach_plan(&session, plan, 0.0);
    let (trace, makespan) = run_pass(sc, session.clone(), None, &mut |_| true);
    let whole = RunResult {
        trace,
        makespan,
        checkpoint_overhead: 0.0,
        restarted: 0,
    };
    match plan.permanent_failure() {
        // A failure landing after completion leaves nothing to replay.
        Some((scope, at)) if at < whole.trace.t_max() => {
            replay_after_failure(sc, plan, scope, at, &session, &whole.trace)
        }
        _ => whole,
    }
}

/// Cut phase A at the failure: events ending by `rollback` are kept as
/// completed; events still running (or rolled back) before `cut` are
/// truncated and marked lost; events starting after `cut` never
/// happened. On a single node `rollback == cut == T` (fail-stop
/// quiesce); on a cluster `rollback` is the last checkpoint before the
/// `cut`. Deliberately a pure function of event *times* — never of lane
/// placement, which is scheduler-race dependent — so identical
/// `(seed, plan)` inputs cut identically.
fn cut_phase_a(trace: &Trace, rollback: f64, cut: f64) -> (Vec<TraceEvent>, HashSet<u64>) {
    let mut kept = Vec::new();
    let mut completed_ids = HashSet::new();
    for e in trace.spans() {
        if e.end <= rollback {
            if matches!(event_kind(e), SpanKind::Normal) {
                completed_ids.insert(e.task_id);
            }
            kept.push(e.clone());
        } else if e.start < cut {
            kept.push(mark_lost(e, Some(cut)));
        }
    }
    (kept, completed_ids)
}

/// Phases "cut" and B of the permanent-failure replay, given phase A
/// (`trace_a`, the full run on `session_a` with every non-permanent
/// event live). Single-node and cluster replays differ only in where
/// recovery rolls back to and in the placement remap of `run_pass`.
fn replay_after_failure(
    sc: &Scenario,
    plan: &FaultPlan,
    scope: FaultScope,
    at: f64,
    session_a: &SimSession,
    trace_a: &Trace,
) -> RunResult {
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
    let (kept, completed_ids) = cut_phase_a(trace_a, rollback, at);
    let stream = stream_indices(trace_a);
    let done: HashSet<u64> = completed_ids
        .iter()
        .filter_map(|id| stream.get(id).copied())
        .collect();
    let offset = at + plan.recovery.restart_delay + checkpoint_overhead;
    let id_offset = trace_a.spans().iter().map(|e| e.task_id).max().unwrap_or(0) + 1;

    // Phase B: the survivors re-run the incomplete tasks on a fresh clock
    // and a fresh machine — cold caches (warm-up is charged again), an
    // empty coherence map (the restart invalidates every replicated
    // copy), dead lanes decommissioned before submission, and a dead
    // node's tiles re-homed.
    let session_b = session_a.fork();
    sc.attach_plan(&session_b, plan, offset);
    let mut restarted = 0;
    let (trace_b, _) = run_pass(sc, session_b, Some(scope), &mut |i| {
        let rerun = !done.contains(&i);
        restarted += u64::from(rerun);
        rerun
    });

    let trace = stitch(sc.lane_map().total(), kept, &trace_b, offset, id_offset);
    RunResult {
        makespan: trace.t_max(),
        trace,
        checkpoint_overhead,
        restarted,
    }
}

/// Execute [`Scenario::run_faults`]: the clean run, the faulted run, and
/// (for multi-event plans) per-event attribution runs.
pub(crate) fn run_faults(sc: Scenario) -> FaultOutcome {
    let plan = sc.faults.clone();
    let mut used = false;
    let clean = run_plan(&sc, &FaultPlan::new(), &mut used);
    let faulted = if plan.is_empty() {
        clean.clone()
    } else {
        run_plan(&sc, &plan, &mut used)
    };

    let ratio = |makespan: f64| {
        if clean.makespan > 0.0 {
            makespan / clean.makespan
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
                let sub = FaultPlan {
                    events: vec![ev.clone()],
                    recovery: plan.recovery.clone(),
                };
                run_plan(&sc, &sub, &mut used).makespan
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
        clean_trace: clean.trace,
        clean_makespan: clean.makespan,
        faulted_makespan: faulted.makespan,
        trace: faulted.trace,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Algorithm;
    use supersim_cluster::ClusterSpec;
    use supersim_core::{KernelModel, ModelRegistry};
    use supersim_faults::CheckpointPolicy;
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
}
