//! The one task stream: each tile factorization written down **once**, as
//! a lazy iterator every consumer pulls from.
//!
//! The paper's method hands one serial task stream with one set of access
//! annotations to the scheduler and swaps only the kernel body (§V). Here
//! that stream is [`tasks`]; its consumers are
//!
//! * real mode (`submit` with [`ExecMode::Real`]): bodies execute the
//!   tile kernels;
//! * simulated mode: `replay_tasks` turns the stream into
//!   [`ReplayTask`]s — the single description of a simulated task — which
//!   `replay::run_stream` feeds to either engine, unchanged;
//! * distributed mode: `with_transfers` adapts a [`ReplayTask`] stream
//!   to a cluster by inserting the transfers [`Coherence`] plans and
//!   pinning every task to its node's lanes.

use crate::data::SharedTiles;
use crate::driver::Algorithm;
use crate::mode::ExecMode;
use crate::{cholesky, lu, qr};
use std::sync::Arc;
use supersim_cluster::{ClusterSpec, Coherence, Interconnect, TRANSFER_LABEL};
use supersim_core::SimSession;
use supersim_dag::{Access, DataId};
use supersim_des::{ReplayBody, ReplayTask};
use supersim_runtime::{Runtime, TaskDesc};
use supersim_tile::cholesky::CholeskyTask;
use supersim_tile::lu::LuTask;
use supersim_tile::qr::QrTask;

/// One kernel invocation of a tile factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A tile Cholesky kernel.
    Cholesky(CholeskyTask),
    /// A tile QR kernel.
    Qr(QrTask),
    /// A tile LU kernel.
    Lu(LuTask),
}

impl Kernel {
    /// Execute the kernel on the shared tiles (real mode). `t` is the
    /// T-factor grid QR needs.
    pub fn execute_real(self, a: &SharedTiles, t: Option<&SharedTiles>) {
        match self {
            Kernel::Cholesky(k) => cholesky::execute_real(a, k),
            Kernel::Qr(k) => qr::execute_real(a, t.expect("QR needs a T grid"), k),
            Kernel::Lu(k) => lu::execute_real(a, k, a.nb()),
        }
    }
}

/// One entry of an algorithm's serial task stream: what the scheduler is
/// told about the task, identical in every execution mode.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTask {
    /// 0-based position in the full stream.
    pub index: u64,
    /// The kernel invocation (what real mode executes).
    pub kernel: Kernel,
    /// Kernel-class label (trace and duration-model key).
    pub label: &'static str,
    /// Data accesses; the written tile comes last for Cholesky and LU.
    pub accesses: Vec<Access>,
    /// Static scheduling priority.
    pub priority: i64,
}

/// The tile grids a simulated run of `alg` is laid out over: the matrix
/// `A` and, for QR, the T-factor grid in the id range after it. Shapes
/// and ids only — no `O(n^2)` data.
pub fn layout(alg: Algorithm, n: usize, nb: usize) -> (SharedTiles, Option<SharedTiles>) {
    let a = SharedTiles::layout_only(n, n, nb, 0);
    let t = (alg == Algorithm::Qr).then(|| SharedTiles::layout_only(n, n, nb, a.id_range().1));
    (a, t)
}

/// Number a tile task list and describe each kernel as a [`StreamTask`].
fn stream_of<'a, K: 'a>(
    kernels: Vec<K>,
    describe: impl Fn(K) -> (Kernel, &'static str, Vec<Access>, i64) + 'a,
) -> Box<dyn Iterator<Item = StreamTask> + 'a> {
    Box::new((0..).zip(kernels).map(move |(index, k)| {
        let (kernel, label, accesses, priority) = describe(k);
        StreamTask {
            index,
            kernel,
            label,
            accesses,
            priority,
        }
    }))
}

/// The serial task stream of `alg` over the tile grid `a` (plus the
/// T-factor grid `t` for QR), in submission order, generated lazily.
pub fn tasks<'a>(
    alg: Algorithm,
    a: &'a SharedTiles,
    t: Option<&'a SharedTiles>,
) -> Box<dyn Iterator<Item = StreamTask> + 'a> {
    assert_eq!(a.mt(), a.nt(), "factorizations need a square tile grid");
    let nt = a.nt();
    match alg {
        Algorithm::Cholesky => stream_of(supersim_tile::cholesky::task_stream(nt), move |k| {
            let (acc, prio) = (cholesky::accesses(a, k), cholesky::priority(nt, k));
            (Kernel::Cholesky(k), k.label(), acc, prio)
        }),
        Algorithm::Qr => {
            let t = t.expect("QR needs a T grid");
            assert_eq!((a.mt(), a.nt()), (t.mt(), t.nt()), "T grid shape mismatch");
            let ((a_lo, a_hi), (t_lo, t_hi)) = (a.id_range(), t.id_range());
            assert!(a_hi <= t_lo || t_hi <= a_lo, "A and T id ranges overlap");
            stream_of(supersim_tile::qr::task_stream(nt), move |k| {
                let (acc, prio) = (qr::accesses(a, t, k), qr::priority(nt, k));
                (Kernel::Qr(k), k.label(), acc, prio)
            })
        }
        Algorithm::Lu => stream_of(supersim_tile::lu::task_stream(nt), move |k| {
            let (acc, prio) = (lu::accesses(a, k), lu::priority(nt, k));
            (Kernel::Lu(k), k.label(), acc, prio)
        }),
    }
}

/// A stream task as a simulated task, claiming the label's next
/// submission rank from `session`. Call in stream order: ranks key the
/// duration RNG, so they must not depend on the consumer.
fn ranked(session: &SimSession, t: StreamTask) -> ReplayTask {
    ReplayTask {
        label: t.label.to_string(),
        accesses: t.accesses,
        priority: t.priority,
        pin: None,
        body: ReplayBody::Ranked {
            rank: session.next_rank(t.label),
        },
    }
}

/// The simulated form of `stream`, filtered by `keep` over the stream
/// index (fault replay re-runs only the tasks a failure left incomplete).
/// Skipped tasks claim no rank and contribute no hazards, so the
/// survivors' mutual ordering is the full stream's.
pub(crate) fn replay_tasks<'a>(
    stream: impl Iterator<Item = StreamTask> + 'a,
    session: &'a SimSession,
    keep: &'a mut dyn FnMut(u64) -> bool,
) -> impl Iterator<Item = ReplayTask> + 'a {
    stream
        .filter(move |t| keep(t.index))
        .map(move |t| ranked(session, t))
}

/// The threaded engine's form of a simulated task: the same label,
/// accesses, priority and pin, with a body that runs the session's
/// simulated-kernel protocol.
pub(crate) fn task_desc(session: &Arc<SimSession>, t: ReplayTask) -> TaskDesc {
    let s = session.clone();
    let desc = match t.body {
        ReplayBody::Ranked { rank } => TaskDesc::new(t.label, t.accesses, move |ctx| {
            s.run_kernel_ranked(ctx, &ctx.label, rank)
        }),
        ReplayBody::Fixed { duration } => TaskDesc::new(t.label, t.accesses, move |ctx| {
            s.run_fixed(ctx, &ctx.label, duration)
        }),
    };
    TaskDesc {
        priority: t.priority,
        pin: t.pin,
        ..desc
    }
}

/// Submit the whole stream of `alg` to `rt` in the given mode. Returns
/// the number of tasks submitted; call `rt.seal()` afterwards.
pub(crate) fn submit(
    rt: &Runtime,
    alg: Algorithm,
    a: &SharedTiles,
    t: Option<&SharedTiles>,
    mode: &ExecMode,
) -> u64 {
    let mut count = 0;
    for task in tasks(alg, a, t) {
        rt.submit(match mode {
            ExecMode::Real => {
                let (a, t, kernel) = (a.clone(), t.cloned(), task.kernel);
                TaskDesc::new(task.label, task.accesses, move |_ctx| {
                    kernel.execute_real(&a, t.as_ref())
                })
                .with_priority(task.priority)
            }
            ExecMode::Simulated(session) => task_desc(session, ranked(session, task)),
        });
        count += 1;
    }
    count
}

/// Adapt a stream of compute tasks to a cluster. `home` maps each datum
/// to its home node and its size in bytes (what a transfer of it moves);
/// a task runs on the node owning the tile it writes (its last access —
/// owner-computes) and is pinned to that node's compute lanes. Every read that crosses the distribution becomes a
/// transfer task planned by `coherence`, yielded *before* its consumer
/// and pinned to the consumer's NIC lanes — so task ids, dependences and
/// NIC-lane occupancy are a function of the stream alone, whichever
/// engine runs it.
pub(crate) fn with_transfers<'a>(
    tasks: impl Iterator<Item = ReplayTask> + 'a,
    spec: &'a ClusterSpec,
    interconnect: &'a dyn Interconnect,
    home: impl Fn(DataId) -> (usize, u64) + 'a,
    coherence: &'a mut Coherence,
) -> impl Iterator<Item = ReplayTask> + 'a {
    let mut owned = Vec::new();
    tasks.flat_map(move |mut task| {
        owned.clear();
        owned.extend(task.accesses.iter().map(|a| {
            let (node, bytes) = home(a.data);
            (a.with_bytes(bytes), node)
        }));
        let node = owned.last().expect("every task writes a tile").1;
        assert!(node < spec.nodes, "node {node} out of range");
        let (accesses, transfers) = coherence.plan_compute(node, &owned, interconnect);
        task.accesses = accesses;
        task.pin = Some(spec.compute_range(node));
        transfers
            .into_iter()
            .map(move |x| ReplayTask {
                label: TRANSFER_LABEL.to_string(),
                accesses: x.accesses,
                priority: 0,
                pin: Some(spec.nic_range(x.node)),
                body: ReplayBody::Fixed {
                    duration: x.duration,
                },
            })
            .chain(std::iter::once(task))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{machine_config, tile_homes};
    use crate::replay::{run_stream, Backend};
    use std::collections::HashMap;
    use supersim_cluster::{BlockCyclic, Hockney, ZeroCost};
    use supersim_core::{KernelModel, ModelRegistry, SimConfig};
    use supersim_trace::Trace;

    const ALGORITHMS: [Algorithm; 3] = [Algorithm::Cholesky, Algorithm::Qr, Algorithm::Lu];

    fn session(labels: &[&str]) -> Arc<SimSession> {
        let mut models = ModelRegistry::new();
        for l in labels {
            models.insert(*l, KernelModel::constant(1.0));
        }
        SimSession::new(
            models,
            SimConfig {
                seed: 7,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn stream_is_the_tile_stream_with_the_public_annotations() {
        for nt in [1, 2, 5] {
            let (a, t) = layout(Algorithm::Qr, nt * 4, 4);
            let t = t.as_ref();
            let expected: [Vec<(&str, Vec<Access>, i64)>; 3] = [
                supersim_tile::cholesky::task_stream(nt)
                    .into_iter()
                    .map(|k| {
                        (
                            k.label(),
                            cholesky::accesses(&a, k),
                            cholesky::priority(nt, k),
                        )
                    })
                    .collect(),
                supersim_tile::qr::task_stream(nt)
                    .into_iter()
                    .map(|k| {
                        let acc = qr::accesses(&a, t.unwrap(), k);
                        (k.label(), acc, qr::priority(nt, k))
                    })
                    .collect(),
                supersim_tile::lu::task_stream(nt)
                    .into_iter()
                    .map(|k| (k.label(), lu::accesses(&a, k), lu::priority(nt, k)))
                    .collect(),
            ];
            for (alg, expected) in ALGORITHMS.into_iter().zip(expected) {
                let got: Vec<StreamTask> = tasks(alg, &a, t).collect();
                assert_eq!(got.len(), expected.len(), "{alg:?} nt={nt}");
                for (pos, (task, want)) in got.into_iter().zip(expected).enumerate() {
                    assert_eq!(task.index, pos as u64);
                    assert_eq!((task.label, task.accesses, task.priority), want);
                }
            }
        }
    }

    #[test]
    fn only_kept_tasks_claim_ranks() {
        for alg in ALGORITHMS {
            let (a, t) = layout(alg, 20, 4);
            let session = session(alg.labels());
            let mut keep = |i: u64| i % 3 != 1;
            let kept: Vec<ReplayTask> =
                replay_tasks(tasks(alg, &a, t.as_ref()), &session, &mut keep).collect();
            let full: Vec<StreamTask> = tasks(alg, &a, t.as_ref()).collect();
            let survivors: Vec<&StreamTask> = full.iter().filter(|t| t.index % 3 != 1).collect();
            assert_eq!(kept.len(), survivors.len());
            // Ranks count up per label over the kept tasks alone, in order.
            let mut next: HashMap<&str, u64> = HashMap::new();
            for (task, want) in kept.iter().zip(survivors) {
                assert_eq!(task.label, want.label);
                assert_eq!(task.accesses, want.accesses);
                let rank = next.entry(want.label).or_default();
                assert_eq!(task.body, ReplayBody::Ranked { rank: *rank });
                *rank += 1;
            }
            for (label, claimed) in next {
                assert_eq!(session.next_rank(label), claimed, "{alg:?} {label}");
            }
        }
    }

    #[test]
    fn one_node_cluster_stream_is_the_single_node_stream() {
        for alg in [Algorithm::Cholesky, Algorithm::Lu] {
            // Ragged edge tiles: 18 = 4 * 4 + 2.
            let (a, _) = layout(alg, 18, 4);
            let spec = ClusterSpec::new(1, 3);
            let homes = tile_homes(&a, &BlockCyclic::square(1), 1);
            let home = |id: DataId| homes[id.0 as usize];
            let mut coherence = Coherence::new(1, a.id_range().1);
            let (single, clustered) = (session(alg.labels()), session(alg.labels()));
            let got: Vec<ReplayTask> = with_transfers(
                replay_tasks(tasks(alg, &a, None), &clustered, &mut |_| true),
                &spec,
                &ZeroCost,
                home,
                &mut coherence,
            )
            .collect();
            let want: Vec<ReplayTask> =
                replay_tasks(tasks(alg, &a, None), &single, &mut |_| true).collect();
            assert_eq!(coherence.transfers(), 0);
            assert_eq!(got.len(), want.len());
            for (got, mut want) in got.into_iter().zip(want) {
                want.pin = Some(spec.compute_range(0));
                for acc in &mut want.accesses {
                    acc.bytes = homes[acc.data.0 as usize].1;
                    assert!(acc.bytes > 0);
                }
                assert_eq!(got, want);
            }
        }
    }

    // --- The cluster adaptor on both engines -------------------------
    //
    // Two nodes of one worker each; tile 0 lives on node 0, every other
    // tile on node 1, all of `tile_bytes` bytes. Tasks are one-second "k"
    // kernels.

    const D0: DataId = DataId(0);
    const D1: DataId = DataId(1);
    const D2: DataId = DataId(2);

    struct ClusterRun {
        stream: Vec<ReplayTask>,
        coherence: Coherence,
        spec: ClusterSpec,
        makespan: f64,
        trace: Trace,
    }

    impl ClusterRun {
        fn nic_busy_seconds(&self, node: usize) -> f64 {
            let (lo, hi) = self.spec.nic_range(node);
            (lo..hi)
                .flat_map(|w| self.trace.lane(w))
                .map(|e| e.duration())
                .sum()
        }
    }

    fn two_nodes(interconnect: &dyn Interconnect) -> ClusterSpec {
        ClusterSpec::new(2, 1).with_nic_lanes(interconnect.default_nic_lanes())
    }

    /// Adapt `compute` (one access list per task) to the two-node cluster
    /// and run it on `backend` with `dead` lanes decommissioned.
    fn run_cluster(
        backend: Backend,
        interconnect: &dyn Interconnect,
        tile_bytes: u64,
        dead: &[usize],
        compute: Vec<Vec<Access>>,
    ) -> ClusterRun {
        let spec = two_nodes(interconnect);
        let session = session(&["k"]);
        let mut coherence = Coherence::new(2, 100);
        let tasks = compute.into_iter().map(|accesses| ReplayTask {
            label: "k".to_string(),
            accesses,
            priority: 0,
            pin: None,
            body: ReplayBody::Ranked {
                rank: session.next_rank("k"),
            },
        });
        let home = |id: DataId| (usize::from(id != D0), tile_bytes);
        let stream: Vec<ReplayTask> =
            with_transfers(tasks, &spec, interconnect, home, &mut coherence).collect();
        let (makespan, _) = run_stream(
            backend,
            &machine_config(&spec),
            &session,
            dead,
            stream.iter().cloned(),
        )
        .unwrap();
        ClusterRun {
            trace: session.finish_trace(spec.total_workers()),
            stream,
            coherence,
            spec,
            makespan,
        }
    }

    const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Des];

    fn produce_then_consume() -> Vec<Vec<Access>> {
        vec![
            vec![Access::read_write(D0)],
            vec![Access::read(D0), Access::read_write(D1)],
        ]
    }

    #[test]
    fn remote_read_inserts_one_transfer() {
        for backend in BACKENDS {
            let run = run_cluster(backend, &ZeroCost, 0, &[], produce_then_consume());
            assert_eq!(run.coherence.transfers(), 1);
            assert_eq!(run.coherence.node_transfers(), &[0, 1]);
            // Zero-cost transfer: chain of two 1s kernels.
            assert_eq!(run.makespan, 2.0, "{backend:?}");
            // The transfer landed on node 1's NIC lane.
            assert_eq!(run.trace.lane(run.spec.nic_range(1).0).count(), 1);
            assert!(run.trace.validate(1e-9).is_ok());
        }
    }

    #[test]
    fn copies_are_reused_until_invalidated_by_write() {
        for backend in BACKENDS {
            let consume = |out| vec![Access::read(D0), Access::read_write(out)];
            let run = run_cluster(
                backend,
                &ZeroCost,
                0,
                &[],
                vec![
                    vec![Access::read_write(D0)],
                    // Two consumers on node 1: one fetch, the second
                    // reuses the copy.
                    consume(D1),
                    consume(D2),
                    // A rewrite at home invalidates node 1's copy: the
                    // next read refetches.
                    vec![Access::read_write(D0)],
                    consume(D1),
                ],
            );
            let labels: Vec<&str> = run.stream.iter().map(|t| t.label.as_str()).collect();
            assert_eq!(labels, ["k", "xfer", "k", "k", "k", "xfer", "k"]);
            assert_eq!(run.coherence.transfers(), 2);
            assert!(run.trace.validate(1e-9).is_ok());
            assert_eq!(run.trace.len(), 7, "{backend:?}");
        }
    }

    #[test]
    fn decommissioned_node_lanes_stay_idle() {
        for backend in BACKENDS {
            let spec = two_nodes(&ZeroCost);
            let dead: Vec<usize> = [spec.compute_range(1), spec.nic_range(1)]
                .into_iter()
                .flat_map(|(lo, hi)| lo..hi)
                .collect();
            // A 2-task chain on the surviving node runs to completion.
            let chain = vec![vec![Access::read_write(D0)]; 2];
            let run = run_cluster(backend, &ZeroCost, 0, &dead, chain);
            assert_eq!(run.makespan, 2.0, "{backend:?}");
            for w in dead {
                assert_eq!(run.trace.lane(w).count(), 0, "dead lane {w} executed work");
            }
        }
    }

    #[test]
    fn hockney_latency_shows_up_in_makespan() {
        for backend in BACKENDS {
            let run = run_cluster(
                backend,
                &Hockney::new(0.5, 1e9),
                0,
                &[],
                produce_then_consume(),
            );
            // 1s produce + 0.5s transfer (0 bytes) + 1s consume.
            assert!((run.makespan - 2.5).abs() < 1e-12, "{backend:?}");
            assert_eq!(run.coherence.transfer_bytes(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "owner-computes violated")]
    fn remote_write_is_rejected() {
        // The task runs on node 1 (it writes tile 1 last) but also writes
        // tile 0, which node 0 owns. Planning fails before any engine runs.
        run_cluster(
            Backend::Des,
            &ZeroCost,
            0,
            &[],
            vec![vec![Access::write(D0), Access::read_write(D1)]],
        );
    }

    #[test]
    fn transfer_bytes_are_counted() {
        for backend in BACKENDS {
            let run = run_cluster(
                backend,
                &Hockney::new(0.0, 1e6),
                2_000_000,
                &[],
                produce_then_consume(),
            );
            assert_eq!(run.coherence.transfer_bytes(), 2_000_000);
            // 1s + 2s transfer + 1s.
            assert!((run.makespan - 4.0).abs() < 1e-12, "{backend:?}");
            assert!((run.nic_busy_seconds(1) - 2.0).abs() < 1e-12);
            assert_eq!(run.nic_busy_seconds(0), 0.0);
        }
    }
}
