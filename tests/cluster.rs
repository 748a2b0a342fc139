//! Multi-node cluster simulation acceptance tests (DESIGN.md §6).
//!
//! The control experiment: a distributed run over a zero-cost
//! interconnect must reproduce the single-node run of the same total
//! width *bit-for-bit* — owner-computes pinning constrains placement,
//! not virtual time, as long as no node's ready backlog exceeds its
//! lane count. And a real interconnect must cost something: makespan
//! strictly increases with link latency.

use std::collections::HashMap;
use std::sync::Arc;
use supersim::cluster::TRANSFER_LABEL;
use supersim::prelude::*;
use supersim::trace::KernelName;

const N: usize = 120;
const NB: usize = 20;
const SEED: u64 = 42;

/// Log-normal kernel models with a warm-up penalty (factor != 1), so
/// these tests also cover the rank-keyed warm-up plan: with
/// arrival-order warm-up the distributed and single-node runs would warm
/// different tasks and nothing below could hold.
fn models() -> ModelRegistry {
    let mut m = ModelRegistry::new();
    for l in Algorithm::Cholesky.labels() {
        m.insert(
            *l,
            KernelModel::with_warmup(Dist::log_normal(-6.0, 0.3).unwrap(), 2.0),
        );
    }
    m
}

fn session() -> Arc<SimSession> {
    SimSession::new(
        models(),
        SimConfig {
            seed: SEED,
            ..SimConfig::default()
        },
    )
}

fn distributed(interconnect: Arc<dyn Interconnect>) -> ClusterRun {
    Scenario::new(Algorithm::Cholesky)
        .n(N)
        .tile_size(NB)
        .session(session())
        .cluster(ClusterSpec::new(4, 8))
        .interconnect(interconnect)
        .placement(Arc::new(BlockCyclic::new(2, 2)))
        .run_cluster()
}

/// Compute events only (transfers excluded), as an order-free multiset
/// of exact virtual intervals. Task ids shift between the runs (transfer
/// tasks consume ids), so identity is (kernel, start, end) bits.
fn compute_multiset(t: &Trace) -> HashMap<(KernelName, u64, u64), usize> {
    let mut m = HashMap::new();
    for e in t.spans() {
        if e.kernel != TRANSFER_LABEL {
            *m.entry((e.kernel.clone(), e.start.to_bits(), e.end.to_bits()))
                .or_insert(0) += 1;
        }
    }
    m
}

#[test]
fn zero_cost_interconnect_reproduces_single_node_run() {
    let dist = distributed(Arc::new(ZeroCost));
    let single = Scenario::new(Algorithm::Cholesky)
        .workers(32)
        .n(N)
        .tile_size(NB)
        .session(session())
        .run_sim();

    // 4 nodes x 8 workers == 32 workers; free transfers must be invisible.
    assert!(
        dist.transfers > 0,
        "block-cyclic run crosses node boundaries"
    );
    assert_eq!(
        dist.trace.makespan().to_bits(),
        single.trace.makespan().to_bits(),
        "distributed {} vs single-node {}",
        dist.trace.makespan(),
        single.trace.makespan()
    );
    assert_eq!(
        compute_multiset(&dist.trace),
        compute_multiset(&single.trace),
        "compute tasks must occupy identical virtual intervals"
    );
}

#[test]
fn hockney_makespan_strictly_increases_with_latency() {
    let mut last = distributed(Arc::new(ZeroCost)).trace.makespan();
    for latency in [1e-4, 1e-3, 1e-2] {
        let run = distributed(Arc::new(Hockney::new(latency, 1e10)));
        let makespan = run.trace.makespan();
        assert!(
            makespan > last,
            "latency {latency}: makespan {makespan} not above {last}"
        );
        last = makespan;
    }
}

#[test]
fn shared_link_never_beats_contention_free_hockney() {
    // Same cost model, one NIC lane instead of four: serialization can
    // only delay completion.
    let hockney = distributed(Arc::new(Hockney::new(1e-3, 1e9)));
    let shared = distributed(Arc::new(SharedLink::new(1e-3, 1e9)));
    assert_eq!(hockney.transfers, shared.transfers);
    assert!(
        shared.trace.makespan() >= hockney.trace.makespan(),
        "shared {} vs hockney {}",
        shared.trace.makespan(),
        hockney.trace.makespan()
    );
}

#[test]
fn transfers_occupy_nic_lanes_only() {
    let run = distributed(Arc::new(Hockney::new(1e-4, 1e9)));
    let spec = ClusterSpec::new(4, 8);
    for e in run.trace.spans() {
        let is_nic = (0..4).any(|node| {
            let (lo, hi) = spec.nic_range(node);
            (lo..hi).contains(&e.worker)
        });
        if e.kernel == TRANSFER_LABEL {
            assert!(is_nic, "transfer on compute lane {}", e.worker);
        } else {
            assert!(
                !is_nic,
                "compute task {} on NIC lane {}",
                e.kernel, e.worker
            );
        }
    }
}

#[test]
fn cluster_runs_are_deterministic() {
    for make in [
        || -> Arc<dyn Interconnect> { Arc::new(Hockney::new(1e-4, 1e9)) },
        || -> Arc<dyn Interconnect> { Arc::new(SharedLink::new(1e-4, 1e9)) },
    ] {
        let a = distributed(make());
        let b = distributed(make());
        let cmp = TraceComparison::compare(&a.trace, &b.trace);
        assert_eq!(cmp.matched_tasks, a.trace.len());
        assert_eq!(cmp.makespan_rel_error, 0.0, "makespans differ");
        assert_eq!(cmp.mean_start_shift, 0.0, "start times differ");
    }
}
