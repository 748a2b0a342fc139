//! Fault-injection acceptance tests (DESIGN.md §7).
//!
//! The determinism contract: identical `(seed, FaultPlan)` yields
//! bit-for-bit identical *canonical* traces (task id, kernel, virtual
//! start/end — worker placement races run-to-run and is excluded), and an
//! empty plan is bit-for-bit identical to a plan-free run.
//!
//! The bit-for-bit contract is scoped to the *Quark* profile (the
//! default): its central FIFO makes the virtual-time schedule itself
//! deterministic, so only lane placement races. The StarPu and OmpSs
//! profiles deliberately model racy runtimes — stealing victims and
//! locality-queue refills follow host-thread interleaving, exactly as in
//! the systems they imitate — so their canonical *schedules* race
//! run-to-run and only rank-keyed quantities (retry counts, restart
//! counts) are stable. Determinism assertions also use only
//! lane-independent events (node-scoped stragglers, rank-keyed
//! transients, time-pure kills): a *worker-scoped* straggler's
//! perturbation keys on the racy lane assignment and is deterministic
//! only given the placement.

use proptest::prelude::*;
use std::sync::Arc;
use supersim::prelude::*;

const N: usize = 120;
const NB: usize = 20;

fn models(alg: Algorithm) -> ModelRegistry {
    let mut m = ModelRegistry::new();
    for l in alg.labels() {
        m.insert(*l, KernelModel::new(Dist::log_normal(-6.0, 0.3).unwrap()));
    }
    m
}

fn single_node(alg: Algorithm, kind: SchedulerKind, seed: u64) -> Scenario {
    Scenario::new(alg)
        .scheduler(kind)
        .workers(4)
        .n(N)
        .tile_size(NB)
        .models(models(alg))
        .seed(seed)
}

fn cluster(interconnect: Arc<dyn Interconnect>, seed: u64) -> Scenario {
    Scenario::new(Algorithm::Cholesky)
        .n(N)
        .tile_size(NB)
        .models(models(Algorithm::Cholesky))
        .seed(seed)
        .cluster(ClusterSpec::new(4, 2))
        .interconnect(interconnect)
        .placement(Arc::new(BlockCyclic::new(2, 2)))
}

/// A plan exercising every lane-independent event kind at once: uniform
/// slowdown, rank-keyed transients, and a time-pure permanent failure.
fn mixed_plan() -> FaultPlan {
    FaultPlan::new()
        .straggler_node(0, 0.0, 0.02, 3.0)
        .transient_for("dgemm", 3, 1, 0.5)
        .kill_worker(2, 0.03)
}

#[test]
fn same_seed_same_plan_same_canonical_trace() {
    let a = single_node(Algorithm::Cholesky, SchedulerKind::Quark, 42)
        .faults(mixed_plan())
        .run_faults();
    let b = single_node(Algorithm::Cholesky, SchedulerKind::Quark, 42)
        .faults(mixed_plan())
        .run_faults();
    assert_eq!(
        a.trace.canonical(),
        b.trace.canonical(),
        "faulted canonical traces differ"
    );
    assert_eq!(
        a.clean_trace.canonical(),
        b.clean_trace.canonical(),
        "clean canonical traces differ"
    );
    assert_eq!(a.report.clean_makespan, b.report.clean_makespan);
    assert_eq!(a.report.faulted_makespan, b.report.faulted_makespan);
    assert_eq!(a.report.retries, b.report.retries);
    assert_eq!(
        a.report.aborted_virtual_seconds,
        b.report.aborted_virtual_seconds
    );
    assert_eq!(a.report.lost_virtual_seconds, b.report.lost_virtual_seconds);
    assert_eq!(a.report.restarted_tasks, b.report.restarted_tasks);
    assert_eq!(a.report.per_fault, b.report.per_fault);
}

/// The racy profiles (stealing, locality queues) cannot promise stable
/// schedules, but rank-keyed fault decisions are schedule-independent:
/// which task ranks suffer a transient, and therefore how many retries
/// and re-executions occur, must not depend on the host interleaving.
#[test]
fn rank_keyed_counts_stable_on_racy_schedulers() {
    for kind in [SchedulerKind::StarPu, SchedulerKind::OmpSs] {
        let plan = || FaultPlan::new().transient(3, 2, 0.5);
        let a = single_node(Algorithm::Cholesky, kind, 42)
            .faults(plan())
            .run_faults();
        let b = single_node(Algorithm::Cholesky, kind, 42)
            .faults(plan())
            .run_faults();
        assert_eq!(a.report.retries, b.report.retries, "{kind:?}: retries");
        assert_eq!(
            a.report.restarted_tasks, b.report.restarted_tasks,
            "{kind:?}: restarted_tasks"
        );
        assert!(a.report.retries > 0, "{kind:?}: plan must bite");
    }
}

#[test]
fn cluster_same_plan_same_canonical_trace_both_interconnects() {
    let makes: [fn() -> Arc<dyn Interconnect>; 2] = [
        || Arc::new(Hockney::new(1e-4, 1e9)),
        || Arc::new(SharedLink::new(1e-4, 1e9)),
    ];
    for make in makes {
        let plan = || {
            FaultPlan::new()
                .degrade_link(0, 0.0, 0.02, 4.0)
                .transient(5, 1, 0.5)
                .kill_node(1, 0.03)
        };
        let a = cluster(make(), 42).faults(plan()).run_faults();
        let b = cluster(make(), 42).faults(plan()).run_faults();
        assert_eq!(a.trace.canonical(), b.trace.canonical());
        assert_eq!(a.clean_trace.canonical(), b.clean_trace.canonical());
        assert_eq!(a.report.faulted_makespan, b.report.faulted_makespan);
        assert_eq!(a.report.per_fault, b.report.per_fault);
    }
}

#[test]
fn empty_plan_is_clean_run_all_schedulers() {
    for kind in [
        SchedulerKind::Quark,
        SchedulerKind::StarPu,
        SchedulerKind::OmpSs,
    ] {
        let out = single_node(Algorithm::Cholesky, kind, 7)
            .faults(FaultPlan::new())
            .run_faults();
        // Cross-call bit-for-bit equality only holds on the deterministic
        // Quark schedule; the racy profiles can only promise the
        // within-call invariants below.
        if kind == SchedulerKind::Quark {
            let plain = single_node(Algorithm::Cholesky, kind, 7).run_sim();
            assert_eq!(
                plain.trace.canonical(),
                out.trace.canonical(),
                "empty plan must not perturb the run"
            );
        }
        assert_eq!(out.trace.canonical(), out.clean_trace.canonical());
        assert_eq!(out.report.slowdown, 1.0);
        assert_eq!(out.report.retries, 0);
        assert!(out.report.per_fault.is_empty());
    }
}

#[test]
fn empty_plan_is_clean_run_cluster_both_interconnects() {
    let makes: [fn() -> Arc<dyn Interconnect>; 2] = [
        || Arc::new(Hockney::new(1e-4, 1e9)),
        || Arc::new(SharedLink::new(1e-4, 1e9)),
    ];
    for make in makes {
        let plain = cluster(make(), 7).run_cluster();
        let out = cluster(make(), 7).faults(FaultPlan::new()).run_faults();
        assert_eq!(plain.trace.canonical(), out.trace.canonical());
        assert_eq!(out.trace.canonical(), out.clean_trace.canonical());
        assert_eq!(out.report.slowdown, 1.0);
    }
}

#[test]
fn retries_and_aborted_nonzero_iff_transients() {
    // Transients present: both counters must move.
    let with = single_node(Algorithm::Cholesky, SchedulerKind::Quark, 11)
        .faults(FaultPlan::new().transient(4, 2, 0.5))
        .run_faults();
    assert!(with.report.retries > 0, "transients must record retries");
    assert!(
        with.report.aborted_virtual_seconds > 0.0,
        "failed attempts must waste virtual time"
    );

    // Slowdown-only plan: both must stay zero.
    let without = single_node(Algorithm::Cholesky, SchedulerKind::Quark, 11)
        .faults(FaultPlan::new().straggler_node(0, 0.0, f64::MAX, 2.0))
        .run_faults();
    assert_eq!(without.report.retries, 0);
    assert_eq!(without.report.aborted_virtual_seconds, 0.0);
    assert_eq!(without.report.lost_virtual_seconds, 0.0);
}

#[test]
fn uniform_straggler_scales_constant_model_makespan_exactly() {
    // Constant kernel durations and a node-wide slowdown over the whole
    // timeline: every duration is multiplied by the factor, so the whole
    // schedule dilates linearly and the makespan scales by exactly the
    // factor (up to float rounding).
    let mut m = ModelRegistry::new();
    for l in Algorithm::Cholesky.labels() {
        m.insert(*l, KernelModel::constant(0.01));
    }
    let mk = || {
        Scenario::new(Algorithm::Cholesky)
            .workers(4)
            .n(N)
            .tile_size(NB)
            .models(m.clone())
            .seed(21)
    };
    for factor in [1.5, 2.0, 4.0] {
        let out = mk()
            .faults(FaultPlan::new().straggler_node(0, 0.0, f64::MAX, factor))
            .run_faults();
        let expected = out.report.clean_makespan * factor;
        let err = (out.report.faulted_makespan - expected).abs() / expected;
        assert!(
            err < 1e-9,
            "factor {factor}: faulted {} vs expected {expected}",
            out.report.faulted_makespan
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Injecting only work-increasing events (slowdown factor >= 1,
    /// transient retries) can never beat the clean run.
    #[test]
    fn faulted_makespan_never_beats_clean(
        seed in 0u64..1_000,
        factor in 1.0f64..4.0,
        until in 0.005f64..0.1,
        period in 2u64..8,
    ) {
        let out = single_node(Algorithm::Cholesky, SchedulerKind::Quark, seed)
            .faults(
                FaultPlan::new()
                    .straggler_node(0, 0.0, until, factor)
                    .transient(period, 1, 0.5),
            )
            .run_faults();
        prop_assert!(
            out.report.faulted_makespan >= out.report.clean_makespan - 1e-12,
            "faulted {} beat clean {}",
            out.report.faulted_makespan,
            out.report.clean_makespan
        );
        prop_assert!(out.report.slowdown >= 1.0 - 1e-12);
    }

    /// A permanent failure with recovery never finishes before the clean
    /// run, and the replay re-executes work whenever the kill lands
    /// mid-run.
    #[test]
    fn kill_with_recovery_never_beats_clean(
        seed in 0u64..1_000,
        at in 0.005f64..0.05,
    ) {
        let out = single_node(Algorithm::Cholesky, SchedulerKind::Quark, seed)
            .faults(FaultPlan::new().kill_worker(1, at))
            .run_faults();
        prop_assert!(
            out.report.faulted_makespan >= out.report.clean_makespan - 1e-12
        );
        if at < out.report.clean_makespan {
            prop_assert!(
                out.report.restarted_tasks > 0,
                "mid-run kill at {at} (clean makespan {}) must restart work",
                out.report.clean_makespan
            );
        }
    }
}
