//! The daemon: accept loop, bounded worker pool with admission control,
//! request routing, per-request timeouts/budgets with cooperative
//! cancellation, progress streaming, and the response cache.
//!
//! ## Threading model
//!
//! One acceptor (the thread that called [`Server::run`]) plus a fixed
//! pool of `workers` request threads draining a bounded queue. Admission
//! control happens at accept time: when the queue already holds `queue`
//! waiting connections, the acceptor answers `503` with `Retry-After`
//! itself (on a short-lived thread, so slow clients cannot stall the
//! accept loop) — requests are *never* silently dropped. Each worker
//! executes its run on a separate child thread so the worker can watch
//! the wall clock, stream progress, and cancel the session when the
//! deadline passes.

use crate::api::{RunOutput, RunRequest, SweepRequest, Terminal, MAX_BODY_BYTES};
use crate::cache::{ModelCache, ResponseCache};
use crate::http::{read_request, ChunkedWriter, Request, Response};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use supersim_core::SimSession;
use supersim_metrics::{LocalHistogram, MetricsSnapshot};
use supersim_trace::sink::{push_ndjson_fields, ChannelSink};
use supersim_trace::TraceEvent;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8077` (port 0 = ephemeral).
    pub addr: String,
    /// Request worker threads (0 = available host parallelism).
    pub workers: usize,
    /// Connections allowed to wait beyond the in-service ones before the
    /// acceptor starts answering 503 (0 = no waiting room).
    pub queue: usize,
    /// Default per-request wall-clock timeout in milliseconds (0 = none);
    /// a request's `timeout_ms` overrides it.
    pub default_timeout_ms: u64,
    /// `Retry-After` seconds advertised on 503 responses.
    pub retry_after_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8077".to_string(),
            workers: 0,
            queue: 4,
            default_timeout_ms: 30_000,
            retry_after_secs: 1,
        }
    }
}

/// Per-endpoint counters and latency histograms — the service's own
/// observability, always on (independent of the simulator's `metrics`
/// feature).
#[derive(Default)]
struct ServeMetrics {
    counters: Mutex<BTreeMap<String, u64>>,
    latencies: Mutex<BTreeMap<String, LocalHistogram>>,
}

impl ServeMetrics {
    fn bump(&self, name: &str) {
        *self.counters.lock().entry(name.to_string()).or_insert(0) += 1;
    }

    fn record_latency(&self, endpoint: &str, elapsed: Duration) {
        self.latencies
            .lock()
            .entry(format!("serve.latency.{endpoint}"))
            .or_default()
            .record(elapsed.as_nanos() as u64);
    }

    fn publish(&self, snap: &mut MetricsSnapshot) {
        for (name, value) in self.counters.lock().iter() {
            snap.push_counter(name, *value);
        }
        for (name, hist) in self.latencies.lock().iter() {
            snap.push_histogram(name, hist);
        }
    }
}

/// Shared daemon state.
struct State {
    config: ServeConfig,
    addr: SocketAddr,
    pending: Mutex<VecDeque<TcpStream>>,
    wake: Condvar,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
    responses: ResponseCache,
    models: ModelCache,
    /// Aggregate of every served session's simulator instruments
    /// (TEQ tallies, kernel counts, replay totals), merged run by run.
    #[cfg(feature = "metrics")]
    sim_metrics: Mutex<MetricsSnapshot>,
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks; tests and
/// benches use [`Server::spawn`] for a background instance on an
/// ephemeral port.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

/// Handle to a background daemon started by [`Server::spawn`].
pub struct ServerHandle {
    /// The daemon's bound address.
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Politely stop the daemon (`POST /shutdown`) and join it.
    pub fn shutdown(self) {
        let _ = crate::http::client_request(
            self.addr,
            "POST",
            "/shutdown",
            "",
            Duration::from_secs(10),
        );
        let _ = self.thread.join();
    }
}

impl Server {
    /// Bind the listener (no requests served yet).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            state: Arc::new(State {
                config,
                addr,
                pending: Mutex::new(VecDeque::new()),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
                metrics: ServeMetrics::default(),
                responses: ResponseCache::new(),
                models: ModelCache::new(),
                #[cfg(feature = "metrics")]
                sim_metrics: Mutex::new(MetricsSnapshot::default()),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serve until `POST /shutdown`. Blocks the calling thread (it
    /// becomes the acceptor).
    pub fn run(self) {
        let workers = if self.state.config.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            self.state.config.workers
        };
        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let state = self.state.clone();
            pool.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn request worker"),
            );
        }

        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let mut pending = self.state.pending.lock();
            if pending.len() >= self.state.config.queue {
                drop(pending);
                // Saturated: answer 503 off-thread so a slow client can't
                // stall the accept loop.
                let state = self.state.clone();
                std::thread::spawn(move || reject_saturated(&state, stream));
                continue;
            }
            pending.push_back(stream);
            drop(pending);
            self.state.wake.notify_one();
        }

        self.state.shutdown.store(true, Ordering::Relaxed);
        self.state.wake.notify_all();
        for t in pool {
            let _ = t.join();
        }
    }

    /// Start the daemon on a background thread; returns once the
    /// listener is accepting.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let thread = std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || self.run())
            .expect("spawn acceptor");
        ServerHandle { addr, thread }
    }
}

/// Answer a saturated-queue connection: 503 + `Retry-After`, never a
/// silent drop. Reads (and discards) the request first so well-behaved
/// clients see the response rather than a reset.
fn reject_saturated(state: &State, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = read_request(&mut stream, MAX_BODY_BYTES);
    state.metrics.bump("serve.admission.rejected");
    state.metrics.bump("serve.responses.503");
    let _ = Response::error(503, "server saturated; retry")
        .header("Retry-After", &state.config.retry_after_secs.to_string())
        .write_to(&mut stream);
}

fn worker_loop(state: &State) {
    loop {
        let stream = {
            let mut pending = state.pending.lock();
            loop {
                if let Some(s) = pending.pop_front() {
                    break s;
                }
                if state.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                state.wake.wait(&mut pending);
            }
        };
        handle_connection(state, stream);
        if state.shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
}

fn handle_connection(state: &State, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let req = match read_request(&mut stream, MAX_BODY_BYTES) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.bump("serve.responses.400");
            let _ = Response::error(400, &format!("malformed request: {e}")).write_to(&mut stream);
            return;
        }
    };
    let endpoint = req.path.trim_start_matches('/').to_string();
    let endpoint = if endpoint.is_empty() {
        "root".to_string()
    } else {
        endpoint
    };
    state.metrics.bump(&format!("serve.requests.{endpoint}"));
    let started = Instant::now();
    let status = route(state, &req, &mut stream);
    state.metrics.bump(&format!("serve.responses.{status}"));
    state.metrics.record_latency(&endpoint, started.elapsed());
}

/// Dispatch one request; returns the response status for accounting.
fn route(state: &State, req: &Request, stream: &mut TcpStream) -> u16 {
    let send = |resp: Response, stream: &mut TcpStream| -> u16 {
        let status = resp.status;
        let _ = resp.write_to(stream);
        status
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            #[derive(Serialize)]
            struct Health {
                status: &'static str,
                queued: usize,
            }
            let body = serde_json::to_string(&Health {
                status: "ok",
                queued: state.pending.lock().len(),
            })
            .expect("health body serializes");
            send(Response::json(200, body), stream)
        }
        ("GET", "/metrics") => {
            let mut snap = MetricsSnapshot::default();
            state.metrics.publish(&mut snap);
            snap.push_gauge("serve.queue.depth", state.pending.lock().len() as i64);
            snap.push_gauge("serve.cache.responses", state.responses.len() as i64);
            snap.push_gauge("serve.cache.models", state.models.len() as i64);
            #[cfg(feature = "metrics")]
            snap.merge(&state.sim_metrics.lock());
            send(Response::json(200, snap.to_json()), stream)
        }
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::Relaxed);
            state.wake.notify_all();
            // Unblock the acceptor's `incoming()` with one no-op connect.
            let _ = TcpStream::connect_timeout(&state.addr, Duration::from_secs(1));
            send(
                Response::json(200, "{\"status\":\"shutting down\"}"),
                stream,
            )
        }
        ("POST", "/run") => handle_run(state, req, stream),
        ("POST", "/sweep") => handle_sweep(state, req, stream),
        ("GET" | "POST", _) => send(Response::error(404, "no such endpoint"), stream),
        _ => send(Response::error(405, "method not allowed"), stream),
    }
}

/// One streamed progress event.
#[derive(Serialize)]
struct ProgressEvent {
    event: &'static str,
    virtual_seconds: f64,
    executing: usize,
}

/// Forward every epoch batch currently in the channel to the chunked
/// stream, one chunk per span: the recorder's ndjson line tagged with an
/// `event` discriminator so clients demultiplex one ndjson stream of
/// progress, span, and result events. Returns false when the client
/// went away mid-write.
fn forward_spans(w: &mut ChunkedWriter<'_>, srx: &mpsc::Receiver<Vec<TraceEvent>>) -> bool {
    let mut line = Vec::new();
    while let Ok(batch) = srx.try_recv() {
        for e in &batch {
            line.clear();
            line.extend_from_slice(br#"{"event":"span","#);
            push_ndjson_fields(&mut line, e);
            line.extend_from_slice(b"}\n");
            if w.chunk(&line).is_err() {
                return false;
            }
        }
    }
    true
}

/// Where a `/run` response goes: one JSON document, or an already-open
/// chunked ndjson stream (whose 200 header has gone out, so errors become
/// terminal `error` events instead of status codes).
enum Sink<'a> {
    Plain(&'a mut TcpStream),
    Stream(ChunkedWriter<'a>),
}

fn handle_run(state: &State, req: &Request, stream: &mut TcpStream) -> u16 {
    let parsed: RunRequest = match serde_json::from_str(&String::from_utf8_lossy(&req.body)) {
        Ok(r) => r,
        Err(e) => {
            let _ = Response::error(400, &format!("bad request: {e}")).write_to(stream);
            return 400;
        }
    };
    let prepared = match parsed.prepare(&state.models) {
        Ok(p) => p,
        Err(e) => {
            let _ = Response::error(400, &e).write_to(stream);
            return 400;
        }
    };

    // Cache check: only deterministic (DES, non-streamed) responses are
    // ever inserted, so a hit is byte-identical to the cold body.
    if prepared.cacheable {
        if let Some(body) = state.responses.get(prepared.content_hash) {
            state.metrics.bump("serve.cache.hit");
            let _ = Response::json(200, body.as_bytes().to_vec())
                .header("X-Cache", "hit")
                .write_to(stream);
            return 200;
        }
        state.metrics.bump("serve.cache.miss");
    }

    // Run on a child thread so this worker can watch the wall clock,
    // stream progress, and cancel the session past the deadline.
    let session = SimSession::with_shared(prepared.models.clone(), prepared.sim_config.clone());
    if let Some(b) = prepared.virtual_budget {
        session.set_virtual_budget(b);
    }
    // Streaming runs subscribe to the trace: a bounded channel sink
    // drains finalized epoch batches off the recorder, and the progress
    // loop forwards them as `span` events. Bounded and lossy (drops are
    // counted and reported) so a slow client can never stall the run.
    let span_rx = prepared.stream.then(|| {
        let (stx, srx) = mpsc::sync_channel::<Vec<TraceEvent>>(256);
        let sink = ChannelSink::new(stx);
        let dropped = sink.dropped();
        session
            .trace_recorder()
            .attach_sink(Box::new(sink), prepared.stream_epoch);
        (srx, dropped)
    });
    let scenario = prepared.scenario.clone().session(session.clone());
    let terminal = prepared.terminal;
    let (tx, rx) = mpsc::channel::<Result<RunOutput, String>>();
    let runner = std::thread::Builder::new()
        .name("serve-run".to_string())
        .spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match terminal {
                Terminal::Sim => RunOutput::Sim(scenario.run_sim()),
                Terminal::Cluster => RunOutput::Cluster(scenario.run_cluster()),
                Terminal::Faults => RunOutput::Faults(scenario.run_faults()),
            }))
            .map_err(|p| panic_message(&*p));
            let _ = tx.send(out);
        })
        .expect("spawn run thread");

    let timeout_ms = prepared
        .timeout_ms
        .unwrap_or(state.config.default_timeout_ms);
    let deadline = (timeout_ms > 0).then(|| Instant::now() + Duration::from_millis(timeout_ms));

    let mut sink = if prepared.stream {
        match ChunkedWriter::start(stream, 200, &[("X-Cache".to_string(), "miss".to_string())]) {
            Ok(w) => Sink::Stream(w),
            Err(_) => {
                // Client went away before the stream opened: cancel and
                // let the runner wind down.
                session.request_cancel();
                drop(rx);
                let _ = runner.join();
                return 200;
            }
        }
    } else {
        Sink::Plain(stream)
    };

    let mut timed_out = false;
    let outcome = loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(out) => break Some(out),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Some(Err("run thread died without a result".to_string()))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Sink::Stream(w) = &mut sink {
                    if let Some((srx, _)) = &span_rx {
                        if !forward_spans(w, srx) {
                            session.request_cancel();
                            timed_out = true;
                            break None;
                        }
                    }
                    let ev = ProgressEvent {
                        event: "progress",
                        virtual_seconds: session.virtual_now(),
                        executing: session.executing(),
                    };
                    let line = format!(
                        "{}\n",
                        serde_json::to_string(&ev).expect("progress serializes")
                    );
                    if w.chunk(line.as_bytes()).is_err() {
                        // Client went away: cancel the run and stop.
                        session.request_cancel();
                        timed_out = true;
                        break None;
                    }
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    session.request_cancel();
                    state.metrics.bump("serve.timeouts");
                    timed_out = true;
                    // Grace period: a DES run exits at its next
                    // retirement; the threaded engine is best-effort and
                    // may run on detached.
                    let _ = rx.recv_timeout(Duration::from_millis(500));
                    break None;
                }
            }
        }
    };
    if outcome.is_some() {
        let _ = runner.join();
    }

    // Fold the served session's simulator instruments into the daemon
    // aggregate (runs that timed out still simulated work worth counting).
    #[cfg(feature = "metrics")]
    {
        let mut local = MetricsSnapshot::default();
        session.publish_metrics(&mut local);
        state.sim_metrics.lock().merge(&local);
    }

    match outcome {
        None => finish_run(sink, 504, "wall-clock timeout; run cancelled"),
        Some(Err(msg)) => finish_run(sink, 500, &format!("run failed: {msg}")),
        Some(Ok(out)) => {
            if timed_out {
                return finish_run(sink, 504, "wall-clock timeout; run cancelled");
            }
            // The DES backend stops past the budget (so the makespan
            // exceeds it exactly when the budget fired); the threaded
            // engine runs to completion and is checked after the fact.
            if prepared
                .virtual_budget
                .is_some_and(|b| out.makespan() > b || session.cancel_requested())
            {
                return finish_run(
                    sink,
                    422,
                    &format!(
                        "virtual budget exceeded: clock {} > budget {}",
                        out.makespan(),
                        prepared.virtual_budget.unwrap_or(f64::INFINITY)
                    ),
                );
            }
            let doc = crate::api::RunResponse {
                scenario: prepared.echo.clone(),
                result: out.doc(),
            };
            let body = serde_json::to_string(&doc).expect("run response serializes");
            match sink {
                Sink::Stream(mut w) => {
                    // The runner has joined, so the recorder's final
                    // flush has already landed in the channel: drain the
                    // tail, report any drops, then emit the result.
                    if let Some((srx, dropped)) = &span_rx {
                        let _ = forward_spans(&mut w, srx);
                        let d = dropped.load(Ordering::Relaxed);
                        if d > 0 {
                            let line = format!("{{\"event\":\"spans_dropped\",\"count\":{d}}}\n");
                            let _ = w.chunk(line.as_bytes());
                        }
                    }
                    let line = format!("{{\"event\":\"result\",\"data\":{body}}}\n");
                    let _ = w.chunk(line.as_bytes());
                    let _ = w.finish();
                    200
                }
                Sink::Plain(stream) => {
                    if prepared.cacheable {
                        state
                            .responses
                            .insert(prepared.content_hash, Arc::new(body.clone()));
                    }
                    let _ = Response::json(200, body)
                        .header("X-Cache", "miss")
                        .write_to(stream);
                    200
                }
            }
        }
    }
}

/// Emit a terminal error for `/run`: an `error` event on an open stream
/// (the 200 header already went out), a plain status response otherwise.
fn finish_run(sink: Sink<'_>, status: u16, msg: &str) -> u16 {
    match sink {
        Sink::Stream(mut w) => {
            let escaped = serde_json::to_string(msg).expect("string serializes");
            let line = format!("{{\"event\":\"error\",\"status\":{status},\"error\":{escaped}}}\n");
            let _ = w.chunk(line.as_bytes());
            let _ = w.finish();
        }
        Sink::Plain(stream) => {
            let _ = Response::error(status, msg).write_to(stream);
        }
    }
    status
}

fn handle_sweep(state: &State, req: &Request, stream: &mut TcpStream) -> u16 {
    let parsed: SweepRequest = match serde_json::from_str(&String::from_utf8_lossy(&req.body)) {
        Ok(r) => r,
        Err(e) => {
            let _ = Response::error(400, &format!("bad request: {e}")).write_to(stream);
            return 400;
        }
    };
    let spec = match parsed.spec() {
        Ok(s) => s,
        Err(e) => {
            let _ = Response::error(400, &e).write_to(stream);
            return 400;
        }
    };
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = parsed.jobs.unwrap_or(1).clamp(1, host);
    let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.run(jobs))) {
        Ok(o) => o,
        Err(p) => {
            let _ = Response::error(500, &format!("sweep failed: {}", panic_message(&*p)))
                .write_to(stream);
            return 500;
        }
    };
    #[cfg(feature = "metrics")]
    state.sim_metrics.lock().merge(&outcome.metrics);
    #[cfg(not(feature = "metrics"))]
    let _ = state;
    // The report is deterministic for a fixed spec (wall-clock data lives
    // outside it), so the body is byte-stable across jobs values too.
    let _ = Response::json(200, outcome.report.to_json()).write_to(stream);
    200
}

/// The text of a caught panic. Takes the payload itself — pass `&*boxed`:
/// a `&Box<dyn Any + Send>` would unsize to the `Any` of the *box* and
/// miss both downcasts.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic".to_string()
    }
}
