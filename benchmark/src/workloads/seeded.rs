//! The shape `des-dense` and `threaded-inloop` share: one Cholesky scenario
//! run over a fixed cycle of seeds, each op checked against the reference
//! recorded for its seed during set-up.

use crate::calib::{self, Calib};
use crate::driver::OpOutcome;
use crate::spans;
use crate::stats::{fnv1a, splitmix64, SimDigest};
use supersim_workloads::{Backend, SimRun};

/// Seeds per workload; ops cycle over them.
pub const SEED_CYCLE: usize = 25;

/// What an op must reproduce for its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub makespan_bits: u64,
    pub spans: usize,
    pub tasks: u64,
    /// FNV-1a of the canonical trace; compared in set-up only (rendering
    /// it costs as much as the op itself).
    pub canonical_fnv: u64,
}

impl Reference {
    pub fn of(run: &SimRun) -> Reference {
        Reference {
            makespan_bits: run.predicted_seconds.to_bits(),
            spans: run.trace.len(),
            tasks: run.stats.completed,
            canonical_fnv: fnv1a(run.trace.canonical().as_bytes()),
        }
    }

    /// The cheap per-op check: makespan bits and span count.
    pub fn matches(&self, run: &SimRun) -> bool {
        run.predicted_seconds.to_bits() == self.makespan_bits && run.trace.len() == self.spans
    }
}

/// A seeded Cholesky scenario with per-seed references.
pub struct SeededSim {
    pub calib: Calib,
    pub tiles: usize,
    pub workers: usize,
    pub backend: Backend,
    pub seeds: Vec<u64>,
    pub refs: Vec<Reference>,
}

impl SeededSim {
    /// Derive the seed cycle from `--seed` and run `warmups_per_seed` ops
    /// per seed; the first of each records the reference, the rest must
    /// reproduce it bit for bit (canonical trace included).
    pub fn setup(
        calib: Calib,
        tiles: usize,
        workers: usize,
        backend: Backend,
        seed: u64,
        warmups_per_seed: usize,
    ) -> Result<SeededSim, String> {
        let mut state = seed ^ fnv1a(format!("{tiles}x{workers}").as_bytes());
        let seeds: Vec<u64> = (0..SEED_CYCLE).map(|_| splitmix64(&mut state)).collect();
        let mut sim = SeededSim {
            calib,
            tiles,
            workers,
            backend,
            seeds,
            refs: Vec::with_capacity(SEED_CYCLE),
        };
        for i in 0..SEED_CYCLE {
            let reference = Reference::of(&sim.run(i, sim.backend));
            for _ in 1..warmups_per_seed {
                let again = Reference::of(&sim.run(i, sim.backend));
                if again != reference {
                    return Err(format!(
                        "seed {i}: the same scenario gave two results: {reference:?} vs {again:?}"
                    ));
                }
            }
            sim.refs.push(reference);
        }
        Ok(sim)
    }

    pub fn run(&self, seed_index: usize, backend: Backend) -> SimRun {
        calib::scenario(
            &self.calib,
            self.tiles,
            self.workers,
            backend,
            self.seeds[seed_index],
        )
        .run_sim()
    }

    /// One timed op: run, check, drop the result (a caller pays for all
    /// three). Returns the run's engine statistics through `stats`.
    pub fn op(&self, index: u64, stats: &mut Option<supersim_runtime::RuntimeStats>) -> OpOutcome {
        let i = (index % SEED_CYCLE as u64) as usize;
        let run = spans::within("workloads.run_sim", || self.run(i, self.backend));
        let ok = spans::within("bench.check", || self.refs[i].matches(&run));
        let _g = spans::enter("bench.drop_result");
        *stats = Some(run.stats);
        drop(run.trace);
        OpOutcome { ok, class: 0 }
    }

    pub fn digest(&self) -> SimDigest {
        let mut d = SimDigest::default();
        for r in &self.refs {
            d.add(&[r.makespan_bits, r.spans as u64, r.tasks, r.canonical_fnv]);
        }
        d
    }

    /// (tasks, spans) per op, averaged over the seed cycle.
    pub fn size(&self) -> (f64, f64) {
        let n = self.refs.len() as f64;
        (
            self.refs.iter().map(|r| r.tasks as f64).sum::<f64>() / n,
            self.refs.iter().map(|r| r.spans as f64).sum::<f64>() / n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_section, Metrics, TracedSections, Workload};
    use std::sync::Arc;
    use supersim_core::{KernelModel, ModelRegistry};
    use supersim_dist::Dist;

    fn calib() -> Calib {
        let mut m = ModelRegistry::new();
        for l in supersim_workloads::Algorithm::Cholesky.labels() {
            m.insert(
                *l,
                KernelModel::new(Dist::log_normal(-6.0, 0.3).expect("valid")),
            );
        }
        Calib {
            models: Arc::new(m),
            heldout_real_s: 1.0,
            fit_ms: 0.0,
        }
    }

    fn small(seed: u64) -> SeededSim {
        SeededSim::setup(calib(), 4, 3, Backend::Des, seed, 2).expect("set-up")
    }

    struct Wrap(SeededSim);

    impl Workload for Wrap {
        fn counted_ops(&self) -> u64 {
            SEED_CYCLE as u64
        }
        fn op(&mut self, index: u64) -> OpOutcome {
            self.0.op(index, &mut None)
        }
        fn sim_digest(&self) -> SimDigest {
            self.0.digest()
        }
        fn sim_size(&self) -> (f64, f64) {
            self.0.size()
        }
        fn fit_ms(&self) -> f64 {
            0.0
        }
        fn sim_err_pct(&self) -> f64 {
            0.0
        }
        fn layer_metrics(&mut self, _: &TracedSections<'_>, _: &mut Metrics) {}
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        assert_eq!(small(1).digest(), small(1).digest());
        assert_ne!(small(1).digest(), small(2).digest());
        // Tile Cholesky on 4x4 tiles: 4 + 2*6 + 4 = 20 tasks, one span each.
        assert_eq!(small(1).size(), (20.0, 20.0));
    }

    #[test]
    fn a_correct_run_fails_nothing_and_a_wrong_reference_fails_everything() {
        let mut w = Wrap(small(1));
        let s = run_section(&mut w, 0.05, 0);
        assert!(
            s.ops() > SEED_CYCLE as u64,
            "the section wraps the seed cycle"
        );
        assert_eq!(s.failed, 0);
        for r in &mut w.0.refs {
            r.makespan_bits ^= 1;
        }
        let s = run_section(&mut w, 0.05, 0);
        assert_eq!(s.failed, s.ops(), "ops_failed must equal ops_total");
    }
}
