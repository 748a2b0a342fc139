//! Simulation-as-a-service: a resident `supersim serve` daemon.
//!
//! Spinning up a fresh process per scenario wastes the expensive,
//! reusable intermediates — fitted duration-model databases, shared model
//! registries — and gives interactive callers (notebooks, dashboards,
//! sweep frontends) no way to watch a run's trace or bound its cost.
//! This crate keeps one process resident and multiplexes typed scenario
//! and sweep requests over HTTP/1.1 (hand-rolled on `std::net`; the
//! workspace vendors every dependency):
//!
//! * **Admission control** — a bounded worker pool; past saturation the
//!   acceptor answers `503` + `Retry-After` instead of queueing without
//!   bound or silently dropping. ([`server`])
//! * **Bounded cost** — per-request wall-clock timeouts (`504`) and
//!   virtual-time budgets (`422`) with cooperative cancellation through
//!   [`supersim_core::SimSession::request_cancel`]. ([`server`])
//! * **Content-addressed caching** — duration-model registries keyed by
//!   calibration-file fingerprint, and full `/run` responses keyed by
//!   [`Scenario::content_hash`](supersim_workloads::Scenario::content_hash);
//!   on the deterministic DES backend a cache hit is byte-identical to
//!   the cold response. ([`cache`])
//! * **Streaming** — `"stream": true` switches `/run` to a chunked
//!   ndjson response: the run's trace sink writes every span as a `span`
//!   event as its flush epoch closes, and one `result` or `error` event
//!   ends it. Nothing is dropped; a client that goes away cancels the
//!   run. ([`server`], [`http`])
//!
//! See DESIGN.md §11 for the request lifecycle, cache keying, and
//! backpressure rules.

pub mod api;
pub mod cache;
pub mod http;
pub mod server;

pub use api::{
    ModelSource, ResultDoc, RunRequest, RunResponse, ScenarioEcho, SweepRequest, MAX_BODY_BYTES,
};
pub use cache::{ModelCache, ResponseCache};
pub use http::{client_request, ClientResponse};
pub use server::{ServeConfig, Server, ServerHandle};
