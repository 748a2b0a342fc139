//! # supersim-metrics
//!
//! Observability for the simulator's own internals. The paper's central
//! claim is that the simulated *trace* is faithful and cheap to produce;
//! this crate makes "cheap" continuously measurable instead of asserted
//! once: where does wall time go inside the Task Execution Queue, how
//! often do quiescence checks spin, how hard is the engine lock hit.
//!
//! Two layers:
//!
//! * [`instruments`] — [`LocalHistogram`], a plain log₂-scale nanosecond
//!   histogram. Every tally is per session or per run and lives inside
//!   the component that updates it, under a lock it already holds (the
//!   TEQ records its tallies *under the state mutex it already owns*,
//!   which costs nothing extra; see DESIGN.md §5e), so N concurrent
//!   sessions never cross-talk.
//! * [`snapshot`] — [`MetricsSnapshot`], a point-in-time, serializable
//!   view that components publish their tallies into, with JSON output
//!   via the vendored serde shims.
//!
//! Hot paths that cannot afford two `Instant::now` calls per operation
//! use [`sample::tick`]: a thread-local 1-in-N sampler whose first tick
//! on every thread always samples, so short runs still populate their
//! latency histograms.

pub mod instruments;
pub mod sample;
pub mod snapshot;

pub use instruments::{LocalHistogram, BUCKETS};
pub use snapshot::{BucketSample, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
