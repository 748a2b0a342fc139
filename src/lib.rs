//! # supersim
//!
//! A from-scratch Rust reproduction of **"Parallel Simulation of
//! Superscalar Scheduling"** (Haugen, Luszczek, Kurzak, YarKhan, Dongarra —
//! ICPP 2014): a parallel discrete-event simulator that predicts the
//! execution time *and trace* of algorithms running under dynamic
//! superscalar (task-dataflow) schedulers, by keeping a real scheduler in
//! the loop while replacing every computational kernel with a virtual-time
//! protocol.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `supersim-core` | virtual clock, Task Execution Queue, simulated-kernel protocol, race mitigations |
//! | [`runtime`] | `supersim-runtime` | the superscalar runtime with QUARK/StarPU/OmpSs profiles |
//! | [`cluster`] | `supersim-cluster` | multi-node simulation: interconnect models, placement, transfer tasks |
//! | [`faults`] | `supersim-faults` | deterministic fault injection: fault plans, recovery policies, degradation reports |
//! | [`workloads`] | `supersim-workloads` | tile Cholesky/QR/LU + synthetic DAGs in real & simulated modes |
//! | [`tile`] | `supersim-tile` | dense tile linear algebra kernels and drivers |
//! | [`calibrate`] | `supersim-calibrate` | kernel-model fitting from real traces |
//! | [`dist`] | `supersim-dist` | distributions, fitting, goodness-of-fit |
//! | [`dag`] | `supersim-dag` | hazard analysis, DAG export/analysis |
//! | [`trace`] | `supersim-trace` | trace model, SVG/ASCII rendering, comparison metrics |
//! | [`des`] | `supersim-des` | offline DES baseline (list scheduling) |
//! | [`metrics`] | `supersim-metrics` | lock-free metrics registry, snapshots, JSON export (feature `metrics`, on by default) |
//!
//! ## Quickstart
//!
//! Every run goes through the [`workloads::Scenario`] builder: describe
//! *what* to run, *on what*, and *under what adversity*, then call a
//! terminal. Calibrate from a real run, then simulate (the full loop the
//! paper evaluates in Figs. 8–10):
//!
//! ```
//! use supersim::prelude::*;
//!
//! // 1. A real run of the tile Cholesky under the QUARK profile.
//! let real = Scenario::new(Algorithm::Cholesky)
//!     .n(192)
//!     .tile_size(48)
//!     .workers(2)
//!     .scheduler(SchedulerKind::Quark)
//!     .seed(42)
//!     .run_real();
//! assert!(real.residual < 1e-12, "the real run must compute correctly");
//!
//! // 2. Fit kernel duration models from its trace.
//! let cal = calibrate(&real.trace, FitOptions::default());
//!
//! // 3. Simulate the same algorithm; compare predicted vs measured time.
//! let sim = Scenario::new(Algorithm::Cholesky)
//!     .n(192)
//!     .tile_size(48)
//!     .workers(2)
//!     .scheduler(SchedulerKind::Quark)
//!     .seed(7)
//!     .models(cal.registry)
//!     .run_sim();
//! let err = (sim.predicted_seconds - real.seconds).abs() / real.seconds;
//! assert!(err < 0.5, "calibrated prediction tracks the real run: {err}");
//! ```
//!
//! Fault injection composes onto any simulated scenario — attach a
//! [`faults::FaultPlan`] and use [`workloads::Scenario::run_faults`] for a
//! clean-vs-faulted comparison (see the `supersim faults` CLI command).

pub use supersim_calibrate as calibrate;
pub use supersim_cluster as cluster;
pub use supersim_core as core;
pub use supersim_dag as dag;
pub use supersim_des as des;
pub use supersim_dist as dist;
pub use supersim_faults as faults;
#[cfg(feature = "metrics")]
pub use supersim_metrics as metrics;
pub use supersim_runtime as runtime;
pub use supersim_serve as serve;
pub use supersim_tile as tile;
pub use supersim_trace as trace;
pub use supersim_workloads as workloads;

/// The most common imports for driving the simulator.
pub mod prelude {
    pub use supersim_calibrate::{calibrate, CalibrationDb, CollectOptions, FitOptions};
    pub use supersim_cluster::{
        BlockCyclic, ClusterSpec, Hockney, Interconnect, Placement, SharedLink, ZeroCost,
    };
    pub use supersim_core::{KernelModel, ModelRegistry, RaceMitigation, SimConfig, SimSession};
    pub use supersim_dag::{Access, AccessMode, DataId};
    pub use supersim_des::{simulate as des_simulate, DesPolicy};
    pub use supersim_dist::{Dist, Distribution};
    pub use supersim_faults::{
        CheckpointPolicy, DegradationReport, FaultEvent, FaultPlan, FaultScope, RecoveryPolicy,
    };
    pub use supersim_runtime::{
        PolicyKind, Runtime, RuntimeConfig, SchedulerKind, TaskContext, TaskDesc,
    };
    pub use supersim_trace::{Trace, TraceComparison, TraceRecorder, TraceStats};
    pub use supersim_workloads::{
        Algorithm, Backend, ClusterRun, ExecMode, FaultOutcome, RealRun, Scenario, SharedTiles,
        SimRun,
    };
}
