//! # supersim-workloads
//!
//! Workload definitions binding the tile linear algebra algorithms (and
//! synthetic DAGs) to the superscalar runtime — in **two execution modes**
//! from a single task-stream definition ([`stream`]):
//!
//! * [`ExecMode::Real`] — task bodies execute the actual tile kernels on
//!   shared tiles (with numerical verification afterwards);
//! * [`ExecMode::Simulated`] — task bodies call the simulated-kernel
//!   protocol of `supersim-core` ("the developer simply replaces the calls
//!   to each computational kernel with a call to the simulation library",
//!   paper §V).
//!
//! Both modes submit *identical* access annotations, so the scheduler sees
//! the same dependence graph — the property the paper's methodology rests
//! on.
//!
//! Modules:
//!
//! * [`data`] — tile grids shared across worker threads with stable
//!   [`supersim_dag::DataId`]s;
//! * [`mode`] — the execution-mode switch;
//! * [`cholesky`], [`qr`], [`lu`] — the three tile factorizations' access
//!   annotations, priorities and real kernel bodies (Cholesky and QR are
//!   the paper's case studies, LU is the documented extension);
//! * [`stream`] — the one lazy task stream per algorithm that every
//!   consumer pulls from: real mode, both simulation backends, and the
//!   cluster adaptor that inserts transfer tasks;
//! * [`synthetic`] — synthetic DAG generators (chains, fork-join, random
//!   layered graphs) for stress tests and the DES comparison;
//! * [`driver`] — the single-node run engines behind the scenario
//!   terminals, returning traces, timings and verification results;
//! * [`cluster`] — the distributed run engine: Cholesky/LU over a
//!   `supersim_cluster::ClusterSpec` with owner-computes placement and
//!   automatic transfer tasks;
//! * [`scenario`] — the **unified entry point**: a typed [`Scenario`]
//!   builder with `run_real` / `run_sim` / `run_cluster` / `run_faults`
//!   terminals, the one `validate()` every front end and terminal goes
//!   through, and the [`ScenarioError`] its vocabulary fails with;
//! * [`replay`] — the [`Backend`] switch and the one function that runs a
//!   simulated task stream on it: the threaded runtime, or the pure-DES
//!   replay engine (`supersim_des::ReplayEngine`) — same task values, same
//!   canonical traces, no host thread per simulated worker;
//! * [`faultsim`] — fault-injected execution and the two-phase replay of
//!   permanent failures, reported as a [`FaultOutcome`];
//! * [`sweep`] — the scenario-matrix orchestrator: a [`SweepSpec`]
//!   expands a cartesian product of axes into cells, runs them across
//!   host threads over one shared model database, and merges a
//!   deterministically ordered report with Pareto frontiers and
//!   autotune argmin (DESIGN.md §10).

pub mod cholesky;
pub mod cluster;
pub mod data;
pub mod driver;
pub mod faultsim;
pub mod lu;
pub mod mode;
pub mod qr;
pub mod replay;
pub mod scenario;
pub mod stream;
pub mod sweep;
pub mod synthetic;

pub use cluster::ClusterRun;
pub use data::SharedTiles;
pub use driver::{Algorithm, RealRun, SimRun};
pub use faultsim::FaultOutcome;
pub use mode::ExecMode;
pub use replay::Backend;
pub use scenario::{Scenario, ScenarioError};
pub use sweep::{SweepOutcome, SweepReport, SweepSpec};
