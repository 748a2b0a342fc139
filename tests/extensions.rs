//! Integration tests of the implemented future-work extensions
//! (paper §VII): overhead modeling, heterogeneous platforms, mixtures,
//! and cancellation under simulation.

use supersim::calibrate::estimate_overhead;
use supersim::core::{KernelModel, ModelRegistry, SimConfig, SimSession};
use supersim::dist::{Dist, Mixture};
use supersim::prelude::*;

/// The §VII claim behind `overhead_per_task`: modeling the per-task
/// scheduler cost (estimated from real-trace gaps) must not make the
/// prediction worse, and the unmodeled prediction must be optimistic
/// (the paper's own diagnosis of its small-size error).
#[test]
fn overhead_modeling_does_not_hurt_accuracy() {
    let (n, nb, workers) = (240, 30, 1); // small tiles: overhead-dominated
    let real = Scenario::new(Algorithm::Cholesky)
        .workers(workers)
        .n(n)
        .tile_size(nb)
        .seed(77)
        .run_real();
    let cal = calibrate(&real.trace, FitOptions::default());
    let overhead = estimate_overhead(&real.trace, 0.005)
        .map(|e| e.median_gap)
        .unwrap_or(0.0);
    assert!(
        overhead > 0.0,
        "a real run must show nonzero scheduler gaps"
    );

    let run_with = |oh: f64| {
        Scenario::new(Algorithm::Cholesky)
            .workers(workers)
            .n(n)
            .tile_size(nb)
            .models(cal.registry.clone())
            .config(SimConfig {
                seed: 5,
                overhead_per_task: oh,
                ..SimConfig::default()
            })
            .run_sim()
            .predicted_seconds
    };
    let plain = run_with(0.0);
    let modeled = run_with(overhead);

    let err_plain = (plain - real.seconds).abs() / real.seconds;
    let err_modeled = (modeled - real.seconds).abs() / real.seconds;
    assert!(
        plain <= real.seconds * 1.02,
        "unmodeled prediction should be optimistic"
    );
    assert!(modeled > plain, "overhead must lengthen the prediction");
    assert!(
        err_modeled <= err_plain + 0.02,
        "overhead modeling regressed accuracy: {:.2}% -> {:.2}%",
        err_plain * 100.0,
        err_modeled * 100.0
    );
}

/// Heterogeneous platform prediction: adding a 10x worker to a 1x worker
/// must shorten the predicted makespan of an independent task bag by the
/// theoretical factor (11x total speed vs 2x).
#[test]
fn heterogeneous_platform_speedup() {
    let bag = 44u64; // tasks
    let run = |speeds: Vec<f64>| {
        let mut models = ModelRegistry::new();
        models.insert("k", KernelModel::constant(1.0));
        let workers = speeds.len().max(2);
        let session = SimSession::new(
            models,
            SimConfig {
                worker_speeds: speeds,
                ..SimConfig::default()
            },
        );
        let rt = Runtime::new(RuntimeConfig::simple(workers));
        session.attach_quiesce(rt.probe());
        for i in 0..bag {
            rt.submit(TaskDesc::new(
                "k",
                vec![Access::write(DataId(i))],
                session.planned_body("k"),
            ));
        }
        rt.seal();
        rt.wait_all().unwrap();
        session.virtual_now()
    };
    let homo = run(vec![1.0, 1.0]);
    let hetero = run(vec![1.0, 10.0]);
    // Homogeneous: 44 unit tasks on 2 workers = 22s. Heterogeneous ideal:
    // 44 / 11 = 4s; greedy FIFO won't be perfectly ideal but must beat 8s.
    assert_eq!(homo, 22.0);
    assert!(hetero < 8.0, "heterogeneous makespan {hetero}");
}

/// A bimodal mixture model flows through the whole stack: registry,
/// serde persistence, and simulation.
#[test]
fn mixture_kernel_model_end_to_end() {
    let bimodal =
        Dist::Mixture(Mixture::bimodal(0.8, Dist::constant(0.001), Dist::constant(0.010)).unwrap());
    let mut models = ModelRegistry::new();
    models.insert("k", KernelModel::new(bimodal));
    // Persist and reload (the calibration-database path).
    let json = serde_json::to_string(&models).unwrap();
    let models: ModelRegistry = serde_json::from_str(&json).unwrap();

    let session = SimSession::new(
        models,
        SimConfig {
            seed: 3,
            ..SimConfig::default()
        },
    );
    let rt = Runtime::new(RuntimeConfig::simple(1));
    session.attach_quiesce(rt.probe());
    for i in 0..200u64 {
        rt.submit(TaskDesc::new(
            "k",
            vec![Access::write(DataId(i))],
            session.planned_body("k"),
        ));
    }
    rt.seal();
    rt.wait_all().unwrap();
    let trace = session.finish_trace(1);
    let slow = trace
        .spans()
        .iter()
        .filter(|e| e.duration() > 0.005)
        .count();
    // Expected ~20% slow; allow broad slack for 200 samples.
    assert!((20..=90).contains(&slow), "slow-mode count {slow}");
    // Mean duration between the two modes.
    let mean = trace.spans().iter().map(|e| e.duration()).sum::<f64>() / 200.0;
    assert!(mean > 0.001 && mean < 0.010);
}

/// Cancellation under simulation: abort a simulated run mid-flight; the
/// virtual clock stops advancing and the session stays consistent.
#[test]
fn abort_during_simulation() {
    let mut models = ModelRegistry::new();
    models.insert("k", KernelModel::constant(0.5));
    let session = SimSession::new(models, SimConfig::default());
    let rt = Runtime::new(RuntimeConfig::simple(2));
    session.attach_quiesce(rt.probe());
    for i in 0..40u64 {
        rt.submit(TaskDesc::new(
            "k",
            vec![Access::read_write(DataId(i % 2))],
            session.planned_body("k"),
        ));
    }
    rt.seal();
    let cancelled = rt.abort_pending();
    rt.wait_all().unwrap();
    let executed = rt.stats().completed;
    assert_eq!(executed + cancelled, 40);
    let trace = session.finish_trace(2);
    assert_eq!(trace.len() as u64, executed);
    assert!(trace.validate(1e-9).is_ok());
    // Two chains of 0.5s tasks: the clock reflects only executed tasks.
    assert!(session.virtual_now() <= 0.5 * executed as f64 + 1e-9);
}
