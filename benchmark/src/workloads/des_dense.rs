//! `des-dense`: a 45,760-task Cholesky DAG replayed on the DES backend with
//! sampled durations and a buffered trace.
//!
//! Dense hazard graph + duration sampling + event heap: `des`,
//! `runtime::hazards/policy`, `core::plan_ranked` and `dist` do nearly all
//! the work; trace sinks, `serve` and host threads do none.

use super::seeded::SeededSim;
use super::Ctx;
use crate::calib;
use crate::driver::{probe_ns, probe_ns_with, Metrics, OpOutcome, TracedSections, Workload};
use crate::stats::SimDigest;
use rand::SeedableRng;
use std::hint::black_box;
use supersim_core::{SimConfig, SimSession};
use supersim_dag::build::DagBuilder;
use supersim_des::{ReplayBody, ReplayEngine, ReplayTask};
use supersim_runtime::{HazardTracker, RuntimeStats, SchedulerKind};
use supersim_trace::TraceRecorder;
use supersim_workloads::{Backend, SharedTiles};

pub const TILES: usize = 64;
pub const WORKERS: usize = 48;

pub struct DesDense {
    sim: SeededSim,
    last_stats: Option<RuntimeStats>,
    seed: u64,
}

impl DesDense {
    /// Fit the models, then run one op per seed of the cycle to record the
    /// references (and fill every lazily built table on the way).
    pub fn setup(ctx: &Ctx) -> Result<DesDense, String> {
        let calib = calib::load(&ctx.data_dir)?;
        let sim = SeededSim::setup(calib, TILES, WORKERS, Backend::Des, ctx.seed, 1)?;
        Ok(DesDense {
            sim,
            last_stats: None,
            seed: ctx.seed,
        })
    }
}

impl Workload for DesDense {
    /// One seed cycle.
    fn counted_ops(&self) -> u64 {
        super::seeded::SEED_CYCLE as u64
    }

    fn op(&mut self, index: u64) -> OpOutcome {
        self.sim.op(index, &mut self.last_stats)
    }

    fn sim_digest(&self) -> SimDigest {
        self.sim.digest()
    }

    fn sim_size(&self) -> (f64, f64) {
        self.sim.size()
    }

    fn fit_ms(&self) -> f64 {
        self.sim.calib.fit_ms
    }

    fn sim_err_pct(&self) -> f64 {
        calib::sim_err_pct(&self.sim.calib, Backend::Des, self.seed)
    }

    fn layer_metrics(&mut self, sections: &TracedSections<'_>, out: &mut Metrics) {
        super::put_runtime_stats(out, self.last_stats.as_ref());
        let models = self.sim.calib.models.clone();
        let seed = self.sim.seeds[0];
        let session = || {
            let s = SimSession::with_shared(
                models.clone(),
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            );
            s.set_warmup_slots(WORKERS);
            s
        };
        const REPS: usize = 5;

        // Each probe feeds its layer what one op feeds it: the tiles=64
        // Cholesky stream, in submission order.
        let enumerate = || enumerate_cholesky(TILES);
        let enumerate_ns = probe_ns("workloads.enumerate", REPS, enumerate);
        let mut tasks = enumerate();
        let n = tasks.len() as f64;

        let mut deps = 0usize;
        let hazards_ns = probe_ns("runtime.hazards", REPS, || {
            let mut tracker = HazardTracker::new();
            deps = 0;
            for (id, t) in tasks.iter().enumerate() {
                deps += tracker.analyze(id as u64, &t.accesses).0.len();
            }
            deps
        });

        let dag_ns = probe_ns("dag.build", REPS, || {
            let mut b = DagBuilder::new();
            for t in &tasks {
                b.submit(&t.label, 1.0, &t.accesses);
            }
            b.finish()
        });

        let sample_ns = probe_ns("dist.sample", REPS, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut sum = 0.0;
            for t in &tasks {
                sum += models.expect(&t.label).sample(&mut rng, false);
            }
            sum
        });

        let plan_ns = probe_ns("core.plan", REPS, || {
            let s = session();
            for t in &tasks {
                let rank = s.next_rank(&t.label);
                black_box(s.plan_ranked(&t.label, rank, 1.0, None));
            }
        });

        // Claim the real ranks once, untimed, so the replay probe runs the
        // very stream `run_sim` builds.
        let ranker = session();
        for t in &mut tasks {
            t.body = ReplayBody::Ranked {
                rank: ranker.next_rank(&t.label),
            };
        }
        let config = SchedulerKind::Quark.config(WORKERS);
        let replay_ns = probe_ns_with(
            "des.replay",
            REPS,
            || (session(), tasks.clone()),
            |(s, stream)| {
                ReplayEngine::new(&config, s)
                    .expect("the Quark profile replays")
                    .run(stream)
                    .completed
            },
        );

        let reference = self.sim.run(0, Backend::Des).trace;
        let spans = reference.len() as f64;
        let record_ns = probe_ns("trace.record", REPS, || {
            let rec = TraceRecorder::new();
            for e in reference.spans() {
                rec.record(e.worker, &e.kernel, e.task_id, e.start, e.end);
            }
            rec.finish(WORKERS)
        });
        let canonical_ns = probe_ns("trace.canonical", REPS, || reference.canonical());

        let run_sim_ns = sections.traced.p50_ms() * 1e6;
        out.put("workloads.enumerate_ns_per_task", enumerate_ns / n, "ns");
        out.put("runtime.hazards_ns_per_task", hazards_ns / n, "ns");
        out.put("runtime.hazards_deps_per_task", deps as f64 / n, "count");
        out.put("dag.build_ns_per_task", dag_ns / n, "ns");
        out.put("dist.sample_ns_per_draw", sample_ns / n, "ns");
        out.put("core.plan_ns_per_task", plan_ns / n, "ns");
        out.put("trace.record_ns_per_span", record_ns / spans, "ns");
        out.put("des.replay_ns_per_task", replay_ns / n, "ns");
        out.put(
            "des.loop_residual_ns_per_task",
            (replay_ns - hazards_ns - plan_ns - record_ns) / n,
            "ns",
        );
        out.put(
            "workloads.run_sim_overhead_ns_per_task",
            (run_sim_ns - enumerate_ns - replay_ns) / n,
            "ns",
        );
        out.put("trace.canonical_ns_per_span", canonical_ns / spans, "ns");
        out.put("des.replay_share_of_op", replay_ns / run_sim_ns, "ratio");
    }
}

/// `tile::cholesky::task_stream` + `workloads::cholesky::{accesses,
/// priority}` as replay tasks, ranks not yet claimed.
pub fn enumerate_cholesky(tiles: usize) -> Vec<ReplayTask> {
    let n = tiles * calib::TILE_SIZE;
    let a = SharedTiles::layout_only(n, n, calib::TILE_SIZE, 0);
    supersim_tile::cholesky::task_stream(tiles)
        .into_iter()
        .map(|task| ReplayTask {
            label: task.label().to_string(),
            accesses: supersim_workloads::cholesky::accesses(&a, task),
            priority: supersim_workloads::cholesky::priority(tiles, task),
            pin: None,
            body: ReplayBody::Ranked { rank: 0 },
        })
        .collect()
}
