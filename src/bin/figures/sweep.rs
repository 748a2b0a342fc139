//! Real-vs-simulated sweeps: the machinery behind paper Figs. 8–10.
//!
//! For each problem size: run the algorithm for real under a scheduler,
//! calibrate kernel models from that run's trace, simulate the same
//! configuration, and record predicted vs measured time/GFLOP/s and the
//! percentage error — exactly the series the paper plots.

use supersim::calibrate::{calibrate, FitOptions};
use supersim::core::{ModelRegistry, SimConfig};
use supersim::runtime::SchedulerKind;
use supersim::workloads::{Algorithm, Scenario};

/// Where the kernel models for a simulated point come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationSource {
    /// Calibrate from the real run at the same size (the paper's trace
    /// comparisons, Figs. 6–7, work this way).
    PerSize,
    /// Calibrate once from the real run at the given size and reuse for
    /// all sizes (the autotuning use case of §VI-B: pay for one real run,
    /// predict many configurations). No figure uses it yet; the tests do.
    #[allow(dead_code)]
    FromSize(usize),
}

/// One point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub nb: usize,
    /// Worker count.
    pub workers: usize,
    /// Measured wall-clock seconds of the real run.
    pub real_seconds: f64,
    /// Measured GFLOP/s.
    pub real_gflops: f64,
    /// Numerical residual of the real run (sanity).
    pub residual: f64,
    /// Predicted (virtual) seconds of the simulated run.
    pub sim_seconds: f64,
    /// Predicted GFLOP/s.
    pub sim_gflops: f64,
    /// Wall-clock seconds the simulation itself took.
    pub sim_wall_seconds: f64,
    /// Signed percentage error of the prediction:
    /// `(sim - real) / real * 100`.
    pub error_pct: f64,
}

/// A complete sweep series (one dashed+solid line pair of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Algorithm name.
    pub algorithm: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Points in ascending `n`.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Largest absolute percentage error across the series.
    pub fn max_abs_error_pct(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.error_pct.abs())
            .fold(0.0, f64::max)
    }

    /// Mean absolute percentage error.
    pub fn mean_abs_error_pct(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.error_pct.abs()).sum::<f64>() / self.points.len() as f64
    }

    /// Render as a CSV table (the plot data of Figs. 8–10).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "n,nb,workers,real_seconds,real_gflops,sim_seconds,sim_gflops,error_pct,sim_wall_seconds,residual\n",
        );
        for p in &self.points {
            s.push_str(&format!(
                "{},{},{},{:.6},{:.3},{:.6},{:.3},{:+.2},{:.6},{:.3e}\n",
                p.n,
                p.nb,
                p.workers,
                p.real_seconds,
                p.real_gflops,
                p.sim_seconds,
                p.sim_gflops,
                p.error_pct,
                p.sim_wall_seconds,
                p.residual,
            ));
        }
        s
    }
}

/// Run one real-vs-simulated sweep.
pub fn real_vs_sim(
    alg: Algorithm,
    kind: SchedulerKind,
    workers: usize,
    sizes: &[usize],
    nb: usize,
    seed: u64,
    source: CalibrationSource,
) -> SweepSeries {
    // Pre-calibrate if a single source size is requested.
    let base = |n: usize| {
        Scenario::new(alg)
            .scheduler(kind)
            .workers(workers)
            .n(n)
            .tile_size(nb)
    };
    let fixed_registry: Option<ModelRegistry> = match source {
        CalibrationSource::FromSize(n0) => {
            let real = base(n0).seed(seed).run_real();
            Some(calibrate(&real.trace, FitOptions::default()).registry)
        }
        CalibrationSource::PerSize => None,
    };

    let mut points = Vec::with_capacity(sizes.len());
    for (i, &n) in sizes.iter().enumerate() {
        let real = base(n).seed(seed.wrapping_add(i as u64)).run_real();
        let registry = match &fixed_registry {
            Some(r) => r.clone(),
            None => calibrate(&real.trace, FitOptions::default()).registry,
        };
        let sim = base(n)
            .models(registry)
            .config(SimConfig {
                seed: seed ^ n as u64,
                ..SimConfig::default()
            })
            .run_sim();
        let error_pct = (sim.predicted_seconds - real.seconds) / real.seconds * 100.0;
        points.push(SweepPoint {
            n,
            nb,
            workers,
            real_seconds: real.seconds,
            real_gflops: real.gflops,
            residual: real.residual,
            sim_seconds: sim.predicted_seconds,
            sim_gflops: sim.gflops,
            sim_wall_seconds: sim.wall_seconds,
            error_pct,
        });
    }
    SweepSeries {
        algorithm: alg.name().to_string(),
        scheduler: kind.name().to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_sane_errors() {
        let series = real_vs_sim(
            Algorithm::Cholesky,
            SchedulerKind::Quark,
            2,
            &[48, 64],
            16,
            1,
            CalibrationSource::PerSize,
        );
        assert_eq!(series.points.len(), 2);
        for p in &series.points {
            assert!(p.residual < 1e-10, "residual {}", p.residual);
            assert!(p.real_seconds > 0.0);
            assert!(p.sim_seconds > 0.0);
            assert!(p.error_pct.is_finite());
        }
        let csv = series.to_csv();
        assert!(csv.lines().count() == 3);
        assert!(csv.contains("error_pct"));
    }

    #[test]
    fn fixed_calibration_source_reuses_models() {
        let series = real_vs_sim(
            Algorithm::Cholesky,
            SchedulerKind::Quark,
            2,
            &[48],
            16,
            2,
            CalibrationSource::FromSize(64),
        );
        assert_eq!(series.points.len(), 1);
        assert!(series.max_abs_error_pct().is_finite());
        assert!(series.mean_abs_error_pct() <= series.max_abs_error_pct());
    }
}
