//! End-to-end pipeline tests: real run -> calibrate -> simulate -> compare,
//! for every scheduler profile and algorithm (the paper's full methodology
//! at test-friendly sizes).

use supersim::prelude::*;

/// The wall-clock reference for an accuracy assertion. The tests of this
/// binary spawn engine threads beside each other, and contention only ever
/// lengthens a real run: take the fastest of three (the caller calibrates
/// from that same run).
fn fastest_real(scenario: Scenario) -> RealRun {
    (0..3)
        .map(|_| scenario.clone().run_real())
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("three runs")
}

fn pipeline(alg: Algorithm, kind: SchedulerKind) -> (RealRun, SimRun) {
    let (n, nb, workers) = (120, 24, 1);
    let real = fastest_real(
        Scenario::new(alg)
            .scheduler(kind)
            .workers(workers)
            .n(n)
            .tile_size(nb)
            .seed(1234),
    );
    assert!(
        real.residual < 1e-10,
        "{alg:?}/{kind:?}: bad residual {}",
        real.residual
    );
    let cal = calibrate(&real.trace, FitOptions::default());
    let sim = Scenario::new(alg)
        .scheduler(kind)
        .workers(workers)
        .n(n)
        .tile_size(nb)
        .models(cal.registry)
        .seed(99)
        .run_sim();
    (real, sim)
}

#[test]
fn full_pipeline_all_schedulers_cholesky() {
    for kind in [
        SchedulerKind::Quark,
        SchedulerKind::StarPu,
        SchedulerKind::OmpSs,
    ] {
        let (real, sim) = pipeline(Algorithm::Cholesky, kind);
        let cmp = TraceComparison::compare(&real.trace, &sim.trace);
        assert!(cmp.same_kernel_population, "{kind:?}: population mismatch");
        assert_eq!(cmp.matched_tasks, real.trace.len());
        // Single worker, calibrated from the same run: the prediction must
        // be in the right ballpark even at this tiny size.
        assert!(
            cmp.makespan_abs_error() < 0.6,
            "{kind:?}: error {:.1}%",
            cmp.makespan_rel_error * 100.0
        );
        assert!(sim.trace.validate(1e-9).is_ok());
    }
}

#[test]
fn full_pipeline_all_schedulers_qr() {
    for kind in [
        SchedulerKind::Quark,
        SchedulerKind::StarPu,
        SchedulerKind::OmpSs,
    ] {
        let (real, sim) = pipeline(Algorithm::Qr, kind);
        let cmp = TraceComparison::compare(&real.trace, &sim.trace);
        assert!(cmp.same_kernel_population, "{kind:?}: population mismatch");
        assert!(cmp.makespan_abs_error() < 0.6, "{kind:?}");
    }
}

#[test]
fn full_pipeline_lu_extension() {
    let (real, sim) = pipeline(Algorithm::Lu, SchedulerKind::Quark);
    let cmp = TraceComparison::compare(&real.trace, &sim.trace);
    assert!(cmp.same_kernel_population);
    assert!(cmp.makespan_abs_error() < 0.6);
}

#[test]
fn moderate_size_prediction_is_accurate() {
    // The headline accuracy claim at a size where kernels dominate
    // overhead: error within ~15% (paper: worst case 16%, typical < 5%).
    let (n, nb, workers) = (480, 80, 1);
    let real = fastest_real(
        Scenario::new(Algorithm::Cholesky)
            .workers(workers)
            .n(n)
            .tile_size(nb)
            .seed(55),
    );
    let cal = calibrate(&real.trace, FitOptions::default());
    let sim = Scenario::new(Algorithm::Cholesky)
        .workers(workers)
        .n(n)
        .tile_size(nb)
        .models(cal.registry)
        .seed(3)
        .run_sim();
    let err = (sim.predicted_seconds - real.seconds).abs() / real.seconds;
    assert!(err < 0.15, "prediction error {:.1}%", err * 100.0);
}

#[test]
fn calibration_database_round_trip_through_simulation() {
    let (n, nb) = (96, 24);
    let real = Scenario::new(Algorithm::Cholesky)
        .workers(1)
        .n(n)
        .tile_size(nb)
        .seed(8)
        .run_real();
    let cal = calibrate(&real.trace, FitOptions::default());
    let db = CalibrationDb::new("integration", n, nb, 1, cal);
    let json = db.to_json();
    let back = CalibrationDb::from_json(&json).unwrap();
    let sim = Scenario::new(Algorithm::Cholesky)
        .workers(1)
        .n(n)
        .tile_size(nb)
        .models(back.calibration.registry)
        .seed(4)
        .run_sim();
    assert!(sim.predicted_seconds > 0.0);
}
