//! Distributed workload driver: the tile factorizations over a
//! [`ClusterSpec`] with owner-computes placement.
//!
//! The task stream is *the* single-node stream of [`crate::stream`] —
//! same kernels, same tile accesses, same priorities, same ranks. The
//! only additions are each tile's byte size (from its dimensions) and
//! home node (from the [`Placement`]), from which
//! `stream::with_transfers` inserts a transfer task wherever a
//! read crosses the distribution. Under a zero-cost interconnect a
//! distributed run therefore reproduces the single-node schedule of the
//! same total width exactly.

use crate::data::SharedTiles;
use crate::driver::Algorithm;
use crate::replay::run_stream;
use crate::scenario::Scenario;
use crate::stream;
use std::sync::Arc;
use supersim_cluster::{ClusterSpec, Coherence, Placement};
use supersim_core::SimSession;
use supersim_dag::DataId;
use supersim_runtime::{PolicyKind, RuntimeConfig, RuntimeStats};
use supersim_tile::flops;
use supersim_trace::Trace;

/// Result of a distributed simulated run.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Algorithm simulated.
    pub algorithm: Algorithm,
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Cluster shape.
    pub spec: ClusterSpec,
    /// Interconnect model name.
    pub interconnect: &'static str,
    /// Placement name.
    pub placement: String,
    /// Compute tasks submitted.
    pub compute_tasks: u64,
    /// Transfer tasks inserted by the engine.
    pub transfers: u64,
    /// Bytes moved by those transfers.
    pub transfer_bytes: u64,
    /// Inbound transfer count per node.
    pub node_transfers: Vec<u64>,
    /// Inbound transfer bytes per node.
    pub node_bytes: Vec<u64>,
    /// Busy seconds of each node's NIC lanes.
    pub nic_busy_seconds: Vec<f64>,
    /// Bytes of matrix tiles owned by each node (the resident footprint
    /// to check against [`ClusterSpec::mem_bytes_per_node`]).
    pub node_owned_bytes: Vec<u64>,
    /// Predicted execution time (virtual seconds).
    pub predicted_seconds: f64,
    /// Wall-clock seconds the simulation itself took.
    pub wall_seconds: f64,
    /// Predicted GFLOP/s.
    pub gflops: f64,
    /// Virtual-time trace: compute lanes first, NIC lanes after (see
    /// [`ClusterSpec::lane_names`]).
    pub trace: Trace,
    /// Engine execution statistics.
    pub stats: RuntimeStats,
}

/// The simulated machine of a cluster: every lane — each node's compute
/// workers and NIC lanes — is a lane of **one** machine under the `Pinned`
/// policy, so virtual time is globally consistent by construction.
pub(crate) fn machine_config(spec: &ClusterSpec) -> RuntimeConfig {
    RuntimeConfig {
        workers: spec.total_workers(),
        policy: PolicyKind::Pinned,
        window: usize::MAX,
        name: "cluster",
    }
}

/// Home node and size in bytes of every tile of `a`, indexed by `DataId`
/// (`a` must start its id range at 0, as [`stream::layout`] grids do).
/// Panics if `placement` maps a tile outside the cluster.
pub(crate) fn tile_homes(
    a: &SharedTiles,
    placement: &dyn Placement,
    nodes: usize,
) -> Vec<(usize, u64)> {
    assert_eq!(a.id_range().0, 0, "tile ids must index the table");
    let mut homes = vec![(0, 0); a.len()];
    for i in 0..a.mt() {
        for j in 0..a.nt() {
            let owner = placement.owner(i, j);
            assert!(
                owner < nodes,
                "placement {} maps tile ({i},{j}) to node {owner} but the cluster has {nodes} nodes",
                placement.name(),
            );
            homes[a.data_id(i, j).0 as usize] = (owner, a.tile_bytes(i, j));
        }
    }
    homes
}

/// Run a distributed simulated factorization of the scenario's algorithm
/// over its cluster. The owner-computes rule places every task on the
/// node owning its output tile; cross-node reads become transfer tasks on
/// the consumer's NIC lanes, costed by the interconnect model.
///
/// Distributed QR is not implemented (its T-factor grid needs a second
/// placement); Cholesky and LU are.
///
/// This is the engine behind [`crate::Scenario::run_cluster`] and both
/// phases of the cluster fault replay: `dead` lanes are decommissioned
/// before the run and only stream indices `keep` accepts are submitted.
/// `placement` is passed separately from the scenario because recovery
/// re-homes a dead node's tiles.
pub(crate) fn exec_cluster(
    sc: &Scenario,
    placement: Arc<dyn Placement>,
    session: Arc<SimSession>,
    dead: &[usize],
    keep: &mut dyn FnMut(u64) -> bool,
) -> ClusterRun {
    let spec = sc
        .cluster
        .clone()
        .expect("run_cluster needs .cluster(ClusterSpec)");
    let interconnect = sc.resolved_interconnect();
    let (alg, n, nb) = (sc.algorithm, sc.matrix_order(), sc.tile_size_of());
    assert!(
        alg != Algorithm::Qr,
        "distributed QR is not implemented; use cholesky or lu"
    );
    let (a, _) = stream::layout(alg, n, nb);
    let homes = tile_homes(&a, &*placement, spec.nodes);
    let mut node_owned_bytes = vec![0u64; spec.nodes];
    for &(owner, bytes) in &homes {
        node_owned_bytes[owner] += bytes;
    }
    for label in alg.labels() {
        session.models().expect(label);
    }

    let config = machine_config(&spec);
    // One warm slot per compute worker, matching the first-call-per-worker
    // effect of a single-node run of the same width.
    session.set_warmup_slots(spec.total_compute_workers());
    // Ghost tiles are allocated above every id of the matrix.
    let mut coherence = Coherence::new(spec.nodes, a.id_range().1);
    let mut compute_tasks = 0;
    let t0 = std::time::Instant::now();
    let compute = stream::replay_tasks(stream::tasks(alg, &a, None), &session, keep)
        .inspect(|_| compute_tasks += 1);
    let home = |id: DataId| homes[id.0 as usize];
    let tasks = stream::with_transfers(compute, &spec, &*interconnect, home, &mut coherence);
    let (predicted_seconds, stats) =
        run_stream(sc.backend, &config, &session, dead, tasks).unwrap_or_else(|e| panic!("{e}"));
    let wall_seconds = t0.elapsed().as_secs_f64();
    let trace = session.finish_trace(spec.total_workers());

    let nic_busy_seconds = (0..spec.nodes)
        .map(|node| {
            let (lo, hi) = spec.nic_range(node);
            (lo..hi)
                .flat_map(|w| trace.lane(w))
                .map(|e| e.duration())
                .sum()
        })
        .collect();

    ClusterRun {
        algorithm: alg,
        n,
        nb,
        interconnect: interconnect.name(),
        placement: placement.name(),
        compute_tasks,
        transfers: coherence.transfers(),
        transfer_bytes: coherence.transfer_bytes(),
        node_transfers: coherence.node_transfers().to_vec(),
        node_bytes: coherence.node_bytes().to_vec(),
        nic_busy_seconds,
        node_owned_bytes,
        predicted_seconds,
        wall_seconds,
        gflops: flops::gflops(alg.flops(n), predicted_seconds),
        trace,
        stats,
        spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_cluster::{BlockCyclic, Hockney, Interconnect, ZeroCost};
    use supersim_core::{KernelModel, ModelRegistry, SimConfig};

    /// A full distributed run, spelled positionally.
    fn exec_cluster(
        alg: Algorithm,
        spec: ClusterSpec,
        interconnect: Arc<dyn Interconnect>,
        placement: Arc<dyn Placement>,
        n: usize,
        nb: usize,
        session: Arc<SimSession>,
    ) -> ClusterRun {
        let sc = Scenario::new(alg)
            .cluster(spec)
            .interconnect(interconnect)
            .n(n)
            .tile_size(nb);
        super::exec_cluster(&sc, placement, session, &[], &mut |_| true)
    }

    fn session(alg: Algorithm, seed: u64) -> Arc<SimSession> {
        let mut m = ModelRegistry::new();
        for l in alg.labels() {
            m.insert(*l, KernelModel::constant(0.01));
        }
        SimSession::new(
            m,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn distributed_cholesky_moves_data_and_validates() {
        let run = exec_cluster(
            Algorithm::Cholesky,
            ClusterSpec::new(4, 2),
            Arc::new(ZeroCost),
            Arc::new(BlockCyclic::square(4)),
            48,
            12,
            session(Algorithm::Cholesky, 3),
        );
        assert!(run.transfers > 0);
        assert!(run.transfer_bytes > 0);
        assert_eq!(run.node_transfers.iter().sum::<u64>(), run.transfers);
        assert_eq!(run.node_bytes.iter().sum::<u64>(), run.transfer_bytes);
        assert!(run.trace.validate(1e-9).is_ok());
        // Tiles are fully partitioned across nodes.
        assert_eq!(
            run.node_owned_bytes.iter().sum::<u64>(),
            (48 * 48 * 8) as u64
        );
        // Compute events + one trace event per transfer.
        assert_eq!(run.trace.len() as u64, run.compute_tasks + run.transfers);
    }

    #[test]
    fn distributed_lu_runs_on_row_placement() {
        let run = exec_cluster(
            Algorithm::Lu,
            ClusterSpec::new(2, 2),
            Arc::new(Hockney::new(1e-5, 1e9)),
            Arc::new(BlockCyclic::row(2)),
            40,
            10,
            session(Algorithm::Lu, 5),
        );
        assert!(run.transfers > 0);
        assert!(run.predicted_seconds > 0.0);
        // NIC lanes did real virtual work under a latency-ful model.
        assert!(run.nic_busy_seconds.iter().sum::<f64>() > 0.0);
        assert!(run.trace.validate(1e-9).is_ok());
    }

    #[test]
    #[should_panic(expected = "distributed QR is not implemented")]
    fn distributed_qr_is_rejected() {
        exec_cluster(
            Algorithm::Qr,
            ClusterSpec::new(2, 1),
            Arc::new(ZeroCost),
            Arc::new(BlockCyclic::row(2)),
            16,
            8,
            session(Algorithm::Qr, 1),
        );
    }
}
