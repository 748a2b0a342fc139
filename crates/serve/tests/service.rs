//! End-to-end lifecycle tests of the resident service: admission control
//! under saturation, wall-clock timeout cancellation, virtual-time
//! budgets, response-cache byte identity, streaming, and the metrics
//! endpoint. Every test boots a real daemon on an ephemeral port and
//! talks to it over TCP through the same client the CI smoke job uses.

use std::time::Duration;
use supersim_serve::{client_request, ServeConfig, Server};

fn boot(workers: usize, queue: usize, default_timeout_ms: u64) -> supersim_serve::ServerHandle {
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue,
        default_timeout_ms,
        retry_after_secs: 7,
    })
    .expect("bind ephemeral port")
    .spawn()
}

fn post(
    handle: &supersim_serve::ServerHandle,
    path: &str,
    body: &str,
) -> supersim_serve::ClientResponse {
    client_request(handle.addr, "POST", path, body, Duration::from_secs(120)).expect("request")
}

fn get(handle: &supersim_serve::ServerHandle, path: &str) -> supersim_serve::ClientResponse {
    client_request(handle.addr, "GET", path, "", Duration::from_secs(30)).expect("request")
}

/// Past saturation (1 worker, 1 queue slot, 16 concurrent runs) every
/// request still gets an HTTP answer — 200 or 503 + `Retry-After`, never
/// a silent drop — and at least one of each appears.
#[test]
fn saturation_rejects_with_retry_after_never_drops() {
    let handle = boot(1, 1, 120_000);
    let addr = handle.addr;
    let clients: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                // Distinct seeds defeat the response cache; 40x40 tiles is
                // heavy enough (~21k tasks) to hold the single worker.
                let body = format!("{{\"tiles\":40,\"seed\":{i},\"backend\":\"des\"}}");
                client_request(addr, "POST", "/run", &body, Duration::from_secs(120))
                    .expect("every request gets an answer")
            })
        })
        .collect();
    let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let mut ok = 0;
    let mut rejected = 0;
    for r in &responses {
        match r.status {
            200 => ok += 1,
            503 => {
                rejected += 1;
                assert_eq!(
                    r.header("retry-after"),
                    Some("7"),
                    "503 carries the configured Retry-After"
                );
                assert!(r.body.contains("error"), "503 body explains: {}", r.body);
            }
            other => panic!("unexpected status {other}: {}", r.body),
        }
    }
    assert!(ok >= 1, "the admitted requests complete ({ok} ok)");
    assert!(
        rejected >= 1,
        "16 concurrent runs against capacity 2 must trip admission control"
    );
    let metrics = get(&handle, "/metrics").body;
    assert!(
        metrics.contains("serve.admission.rejected"),
        "rejections are counted: {metrics}"
    );
    handle.shutdown();
}

/// A run that exceeds its wall-clock timeout is cancelled mid-flight and
/// answered 504; the daemon stays healthy and counts the timeout.
#[test]
fn timeout_cancels_a_running_scenario() {
    let handle = boot(1, 4, 120_000);
    // 120x120 tiles is 295,240 tasks: a complete replay takes hundreds of
    // milliseconds even in a release build, against a 20 ms deadline. The
    // replay reads the clock every 64th retirement, so the 504 arrives
    // soon after the deadline, long before the run could have finished.
    let started = std::time::Instant::now();
    let resp = post(
        &handle,
        "/run",
        "{\"tiles\":120,\"backend\":\"des\",\"timeout_ms\":20}",
    );
    let elapsed = started.elapsed();
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("timeout"), "{}", resp.body);
    assert!(
        elapsed < Duration::from_millis(150),
        "the 504 must not wait for the run: {elapsed:?}"
    );
    // The daemon is still serving.
    let health = get(&handle, "/healthz");
    assert_eq!(health.status, 200);
    let metrics = get(&handle, "/metrics").body;
    assert!(metrics.contains("serve.timeouts"), "{metrics}");
    handle.shutdown();
}

/// A permanent-failure replay runs its phase B on a fork of the request's
/// session; the fork shares the deadline, so a timed-out `kill` run stops
/// in every phase instead of simulating on after its 504. With one worker,
/// `/healthz` answering at once shows nothing is still running.
#[test]
fn a_timed_out_kill_replay_stops_in_every_phase() {
    let handle = boot(1, 4, 120_000);
    let started = std::time::Instant::now();
    let resp = post(
        &handle,
        "/run",
        "{\"tiles\":120,\"workers\":8,\"backend\":\"des\",\"fault_preset\":\"kill\",\"timeout_ms\":20}",
    );
    let elapsed = started.elapsed();
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(
        elapsed < Duration::from_millis(300),
        "the 504 must not wait for the replay: {elapsed:?}"
    );
    let started = std::time::Instant::now();
    assert_eq!(get(&handle, "/healthz").status, 200);
    assert!(
        started.elapsed() < Duration::from_millis(100),
        "the worker is free again: {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

/// A virtual-time budget bounds the simulated clock: exceeding it is a
/// 422, enforced exactly on the DES backend.
#[test]
fn virtual_budget_exceeded_is_422() {
    let handle = boot(2, 4, 120_000);
    let resp = post(
        &handle,
        "/run",
        "{\"tiles\":16,\"backend\":\"des\",\"virtual_budget\":1e-6}",
    );
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(
        resp.body.contains("virtual budget exceeded"),
        "{}",
        resp.body
    );
    // The same scenario without the budget completes fine.
    let resp = post(&handle, "/run", "{\"tiles\":16,\"backend\":\"des\"}");
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.shutdown();
}

/// The scenario cache: a repeated deterministic (DES) request is served
/// from cache, byte-identical to the cold response.
#[test]
fn cache_hit_is_byte_identical_to_cold() {
    let handle = boot(2, 4, 120_000);
    // 32x32 tiles (~11k tasks) makes the cold run expensive enough that
    // the cached round trip must beat it by at least 5x.
    let body = "{\"tiles\":32,\"seed\":7,\"backend\":\"des\"}";
    let t0 = std::time::Instant::now();
    let cold = post(&handle, "/run", body);
    let cold_latency = t0.elapsed();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    let t1 = std::time::Instant::now();
    let warm = post(&handle, "/run", body);
    let warm_latency = t1.elapsed();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert!(
        warm_latency.as_secs_f64() * 5.0 <= cold_latency.as_secs_f64(),
        "cached round trip ({warm_latency:?}) must be >= 5x faster than cold ({cold_latency:?})"
    );
    assert_eq!(
        cold.body, warm.body,
        "cache hit must be byte-identical to the cold response"
    );
    // A different seed is a different scenario: miss, different document.
    let other = post(
        &handle,
        "/run",
        "{\"tiles\":32,\"seed\":8,\"backend\":\"des\"}",
    );
    assert_eq!(other.header("x-cache"), Some("miss"));
    assert_ne!(cold.body, other.body);
    // The response parses and echoes the content hash.
    let doc: serde_json::Value = serde_json::from_str(&cold.body).unwrap();
    assert!(doc["scenario"]["content_hash"]
        .as_str()
        .unwrap()
        .starts_with("0x"));
    assert!(doc["result"]["trace_hash"]
        .as_str()
        .unwrap()
        .starts_with("0x"));
    let metrics = get(&handle, "/metrics").body;
    assert!(metrics.contains("serve.cache.hit"), "{metrics}");
    handle.shutdown();
}

/// `"stream": true` switches to chunked ndjson ending in a result event,
/// with the run's finalized spans streamed as `span` events along the way.
#[test]
fn streaming_run_ends_with_a_result_event() {
    let handle = boot(2, 4, 120_000);
    let resp = post(
        &handle,
        "/run",
        "{\"tiles\":48,\"backend\":\"des\",\"stream\":true,\"stream_epoch\":0.5}",
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let last = resp.body.lines().last().expect("at least one event");
    assert!(last.contains("\"event\":\"result\""), "{last}");
    let doc: serde_json::Value = serde_json::from_str(last).unwrap();
    assert_eq!(doc["data"]["scenario"]["algorithm"], "cholesky");
    // Every task of the run arrives as a span event before the result.
    let spans = resp
        .body
        .lines()
        .filter(|l| l.contains("\"event\":\"span\""))
        .count();
    let tasks = doc["data"]["result"]["tasks"].as_u64().unwrap_or(0);
    assert!(
        spans as u64 >= tasks,
        "streamed {spans} spans for {tasks} tasks"
    );
    let span_line = resp
        .body
        .lines()
        .find(|l| l.contains("\"event\":\"span\""))
        .expect("at least one span event");
    let span: serde_json::Value = serde_json::from_str(span_line).unwrap();
    assert!(span["kernel"].as_str().is_some(), "{span_line}");
    assert!(span["end"].as_f64().unwrap() >= span["start"].as_f64().unwrap());
    // A span event is the sink's ndjson line with the tag spliced in.
    let bare = span_line.replacen("\"event\":\"span\",", "", 1);
    let parsed = supersim_trace::sink::parse_ndjson(&bare).unwrap();
    let line = supersim_trace::sink::ndjson_line(&parsed.spans()[0]);
    assert_eq!(span_line, format!("{{\"event\":\"span\",{}", &line[1..]));
    // A bad epoch is rejected before any work happens.
    let bad = post(
        &handle,
        "/run",
        "{\"tiles\":4,\"stream\":true,\"stream_epoch\":0.0}",
    );
    assert_eq!(bad.status, 400, "{}", bad.body);
    // So is one below the 1e-9 s floor.
    let tiny = post(
        &handle,
        "/run",
        "{\"tiles\":4,\"stream\":true,\"stream_epoch\":1e-300}",
    );
    assert_eq!(tiny.status, 400, "{}", tiny.body);
    assert!(tiny.body.contains("at least 1e-9"), "{}", tiny.body);
    handle.shutdown();
}

/// The body that once lost spans: a 12-tile straggler run whose epochs
/// come faster than a relay could forward them.
const STRAGGLER_12: &str =
    "{\"tiles\":12,\"backend\":\"des\",\"fault_preset\":\"straggler\",\"stream\":true";

/// A streamed body's `span` events with their tag stripped: the run's
/// ndjson trace.
fn streamed_spans(body: &str) -> String {
    body.lines()
        .filter(|l| l.starts_with("{\"event\":\"span\","))
        .map(|l| l.replacen("\"event\":\"span\",", "", 1) + "\n")
        .collect()
}

/// Every span of the run reaches the client, at the shortest legal epoch
/// as at the default one: the 364 tasks of a 12-tile Cholesky arrive as
/// 364 `span` events, then one `result` event and nothing else.
#[test]
fn a_streamed_run_loses_no_span_at_any_epoch() {
    let handle = boot(1, 4, 120_000);
    for epoch in ["1e-9", "1e-6", "1e-3", "1.0"] {
        let resp = post(
            &handle,
            "/run",
            &format!("{STRAGGLER_12},\"stream_epoch\":{epoch}}}"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let lines: Vec<&str> = resp.body.lines().collect();
        let (last, spans) = lines.split_last().expect("at least one event");
        assert!(
            last.starts_with("{\"event\":\"result\","),
            "ε {epoch}: {last}"
        );
        assert_eq!(spans.len(), 364, "ε {epoch}: every span, once");
        assert!(
            spans.iter().all(|l| l.starts_with("{\"event\":\"span\",")),
            "ε {epoch}: only span events before the result"
        );
        assert!(!resp.body.contains("spans_dropped"), "ε {epoch}");
    }
    handle.shutdown();
}

/// A streamed DES body is a function of the request: sent twice, it
/// comes back byte for byte.
#[test]
fn a_streamed_des_body_is_a_function_of_the_request() {
    let handle = boot(2, 4, 120_000);
    let body = format!("{STRAGGLER_12},\"stream_epoch\":1e-6}}");
    let first = post(&handle, "/run", &body);
    let second = post(&handle, "/run", &body);
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.body, second.body);
    handle.shutdown();
}

/// The streamed spans are the run's trace: parsed back, their canonical
/// FNV-1a is the `trace_hash` a plain run of the same body reports.
#[test]
fn streamed_spans_hash_to_the_plain_runs_trace_hash() {
    let handle = boot(2, 4, 120_000);
    let streamed = post(
        &handle,
        "/run",
        &format!("{STRAGGLER_12},\"stream_epoch\":1e-6}}"),
    );
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    let plain_body = STRAGGLER_12.replace(",\"stream\":true", "}");
    let plain = post(&handle, "/run", &plain_body);
    assert_eq!(plain.status, 200, "{}", plain.body);
    let doc: serde_json::Value = serde_json::from_str(&plain.body).unwrap();

    let mut trace = supersim_trace::sink::parse_ndjson(&streamed_spans(&streamed.body)).unwrap();
    trace.normalize();
    let hash = supersim_trace::fnv1a(supersim_trace::FNV1A_BASIS, trace.canonical().as_bytes());
    assert_eq!(trace.len(), 364);
    assert_eq!(
        format!("{hash:#018x}"),
        doc["result"]["trace_hash"].as_str().unwrap()
    );
    handle.shutdown();
}

/// A client that hangs up mid-stream cancels its run: the sink's next
/// write fails and stops the engine. The client reads the first chunk
/// of a 120-tile run (295,240 spans, far more than the socket buffers
/// hold, so the run cannot finish while nobody reads) and closes; the
/// daemon's one worker then answers `/metrics`, which shows fewer spans
/// recorded than the scenario has tasks.
#[cfg(feature = "metrics")]
#[test]
fn a_client_that_hangs_up_cancels_its_streamed_run() {
    use std::io::{Read, Write};
    const TASKS: u64 = 120 * 121 * 122 / 6;
    let handle = boot(1, 4, 120_000);
    let body = "{\"tiles\":120,\"backend\":\"des\",\"stream\":true,\"stream_epoch\":1e-3}";
    let mut conn = std::net::TcpStream::connect(handle.addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        conn,
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut seen = Vec::new();
    let mut buf = [0u8; 4096];
    while !String::from_utf8_lossy(&seen).contains("\"event\":\"span\"") {
        let n = conn.read(&mut buf).unwrap();
        assert!(n > 0, "the stream ended before its first span");
        seen.extend_from_slice(&buf[..n]);
    }
    drop(conn);

    let metrics: serde_json::Value = serde_json::from_str(&get(&handle, "/metrics").body).unwrap();
    let counter = |name: &str| {
        metrics["counters"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["name"] == name)
            .and_then(|c| c["value"].as_u64())
    };
    let recorded = counter("trace.events.recorded").expect("the run's spans are counted");
    assert!(
        recorded < TASKS,
        "{recorded} of {TASKS} spans recorded: the run went on without its client"
    );
    assert_eq!(
        counter("serve.timeouts"),
        None,
        "a hang-up is not a timeout"
    );
    assert_eq!(get(&handle, "/healthz").status, 200);
    handle.shutdown();
}

/// A streamed run times out the way a plain one does: the engine polls
/// the session's deadline, and the open stream ends with an `error` event
/// carrying 504 instead of a result. The daemon counts the timeout.
#[test]
fn a_timed_out_streamed_run_ends_with_a_504_event() {
    let handle = boot(1, 4, 120_000);
    for backend in ["des", "threaded"] {
        let started = std::time::Instant::now();
        let resp = post(
            &handle,
            "/run",
            &format!(
                "{{\"tiles\":100,\"workers\":8,\"backend\":\"{backend}\",\"stream\":true,\"timeout_ms\":20}}"
            ),
        );
        let elapsed = started.elapsed();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let last = resp.body.lines().last().expect("at least one event");
        assert!(last.contains("\"event\":\"error\""), "{backend}: {last}");
        assert!(last.contains("\"status\":504"), "{backend}: {last}");
        assert!(
            elapsed < Duration::from_secs(2),
            "{backend}: the 504 must not wait for the run: {elapsed:?}"
        );
    }
    let metrics = get(&handle, "/metrics").body;
    assert!(metrics.contains("serve.timeouts"), "{metrics}");
    handle.shutdown();
}

/// `/sweep` maps the request onto the sweep runner and returns the
/// deterministic merged report; malformed matrices are 400s.
#[test]
fn sweep_endpoint_runs_a_matrix() {
    let handle = boot(2, 4, 120_000);
    let resp = post(
        &handle,
        "/sweep",
        "{\"tile_counts\":[4],\"tile_sizes\":[16,32],\"seeds\":[1],\"jobs\":2}",
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc: serde_json::Value = serde_json::from_str(&resp.body).unwrap();
    assert!(doc["cells_total"].as_u64().unwrap() >= 2, "{}", resp.body);
    let bad = post(&handle, "/sweep", "{\"tile_sizes\":[]}");
    assert_eq!(bad.status, 400, "{}", bad.body);
    handle.shutdown();
}

/// Protocol errors: bad JSON is 400, unknown paths are 404, unsupported
/// methods are 405 — all as JSON error documents.
#[test]
fn protocol_errors_map_to_statuses() {
    let handle = boot(1, 4, 120_000);
    let bad = post(&handle, "/run", "{not json");
    assert_eq!(bad.status, 400, "{}", bad.body);
    let invalid = post(&handle, "/run", "{\"workers\":0}");
    assert_eq!(invalid.status, 400, "{}", invalid.body);
    assert!(invalid.body.contains("workers"), "{}", invalid.body);
    let missing = get(&handle, "/nope");
    assert_eq!(missing.status, 404);
    let wrong = client_request(
        handle.addr,
        "DELETE",
        "/healthz",
        "",
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(wrong.status, 405);
    handle.shutdown();
}

/// Satellite 4(b), third front end: every row of the illegal-input table
/// (`scenario::tests::validate_rejects_each_illegal_scenario_with_one_line`)
/// is a prompt 400 with a one-line reason under 1 KiB, and the daemon
/// answers `/healthz` afterwards. At the parent commit the two oversize
/// rows aborted the whole process (a 560 GB tile layout; 50,000 thread
/// spawns) and the custom-plan rows ran (or wedged a worker), because a
/// deserialized plan skipped the builder's checks.
#[test]
fn rejected_inputs_are_400s_and_the_daemon_survives() {
    let handle = boot(2, 4, 120_000);
    let plan = |workers: usize, events: &str| {
        format!(
            "{{\"tiles\":4,\"workers\":{workers},\"faults\":{{\"events\":[{events}],\"recovery\":\
             {{\"backoff_base\":1e-4,\"backoff_cap\":1e-2,\"restart_delay\":0.0,\"checkpoint\":null}}}}}}"
        )
    };
    let straggler = |worker: usize, until: f64, factor: f64| {
        format!(
            "{{\"Straggler\":{{\"scope\":{{\"Worker\":{worker}}},\"from\":0.0,\"until\":{until:?},\"factor\":{factor:?}}}}}"
        )
    };
    let kill = |worker: usize| {
        format!("{{\"PermanentFailure\":{{\"scope\":{{\"Worker\":{worker}}},\"at\":0.01}}}}")
    };
    let seeds: Vec<String> = (0..5000).map(|s| s.to_string()).collect();
    let long = "g".repeat(1 << 20);
    let clipped = format!("{}…", &long[..64]);
    // A value's `{:?}` is clipped by the same rule: `String("` and 56
    // bytes (its quote JSON-escaped in the body).
    let clipped_value = format!("expected object, got String(\\\"{}…", &long[..56]);
    let rows: Vec<(&str, String, &str)> = vec![
        ("/run", "{\"n\":0}".into(), "n must be positive"),
        ("/run", "{\"workers\":0}".into(), "workers must be positive"),
        (
            "/run",
            "{\"algorithm\":\"qr\",\"cluster\":{\"nodes\":2,\"workers_per_node\":2}}".into(),
            "distributed QR",
        ),
        (
            "/run",
            "{\"scheduler\":\"starpu\",\"backend\":\"des\"}".into(),
            "cannot replay deterministically",
        ),
        (
            "/run",
            plan(4, &format!("{},{}", kill(1), kill(2))),
            "at most one permanent failure",
        ),
        ("/run", plan(1, &kill(0)), "must leave survivors"),
        ("/run", plan(4, &straggler(1, 1.0, -3.0)), "factor must be positive"),
        ("/run", plan(4, &straggler(1, 0.0, 2.0)), "window must be non-empty"),
        ("/run", plan(4, &straggler(9999, 1.0, 2.0)), "outside the machine"),
        (
            "/run",
            plan(
                4,
                "{\"Transient\":{\"label\":null,\"period\":5,\"failures\":400000000,\"fail_fraction\":0.5}}",
            ),
            "failures",
        ),
        (
            "/run",
            plan(
                4,
                &(0..1025)
                    .map(|i| straggler(i % 4, 1.0 + i as f64, 2.0))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            "at most 1024 events, got 1025",
        ),
        (
            "/run",
            "{\"tiles\":100000,\"backend\":\"des\"}".into(),
            "tasks exceed",
        ),
        (
            "/run",
            "{\"tiles\":2,\"workers\":50000,\"backend\":\"threaded\"}".into(),
            "lanes exceed",
        ),
        (
            "/sweep",
            format!("{{\"seeds\":[{}]}}", seeds.join(",")),
            "cells exceed",
        ),
        ("/sweep", "{\"tile_counts\":[100000]}".into(), "tasks exceed"),
        (
            "/sweep",
            "{\"plans\":[\"kill\"],\"worker_counts\":[1]}".into(),
            "outside the machine",
        ),
        // A misspelt key, top-level or nested, would run the defaults.
        (
            "/run",
            "{\"tiles\":4,\"workerz\":3}".into(),
            "unknown field `workerz` in RunRequest",
        ),
        (
            "/run",
            "{\"cluster\":{\"nodes\":2,\"workers_per_node\":2,\"latncy\":1e-3}}".into(),
            "unknown field `latncy` in ClusterRequest",
        ),
        (
            "/run",
            "{\"models\":{\"type\":\"constant\",\"seconds\":1e-3,\"warmpu\":2.0}}".into(),
            "unknown field `warmpu` in ModelSource::Constant",
        ),
        (
            "/run",
            plan(4, &kill(1)).replace("\"at\"", "\"when\""),
            "unknown field `when` in FaultEvent::PermanentFailure",
        ),
        (
            "/run",
            plan(4, "").replace("restart_delay", "restart_dealy"),
            "unknown field `restart_dealy` in RecoveryPolicy",
        ),
        (
            "/sweep",
            "{\"tile_counts\":[4],\"plan\":[\"kill\"]}".into(),
            "unknown field `plan` in SweepRequest",
        ),
        // An unknown name of a megabyte, as a value or as a key, is quoted
        // by its first 64 bytes only.
        ("/run", format!("{{\"algorithm\":\"{long}\"}}"), clipped.as_str()),
        ("/run", format!("{{\"tiles\":4,\"{long}\":3}}"), clipped.as_str()),
        // A megabyte value where an object belongs is quoted the same way.
        (
            "/run",
            format!("{{\"models\":\"{long}\"}}"),
            clipped_value.as_str(),
        ),
    ];
    for (path, body, needle) in rows {
        let started = std::time::Instant::now();
        let resp = post(&handle, path, &body);
        let elapsed = started.elapsed();
        let shown = &body[..body.len().min(120)];
        assert_eq!(resp.status, 400, "{shown}: {}", resp.body);
        assert!(resp.body.len() < 1024, "{shown}: {} bytes", resp.body.len());
        assert!(resp.body.contains(needle), "{shown}: {}", resp.body);
        assert_eq!(resp.body.lines().count(), 1, "{}", resp.body);
        assert!(
            elapsed < Duration::from_secs(5),
            "{shown}: a rejection must not do the work first ({elapsed:?})"
        );
        assert_eq!(get(&handle, "/healthz").status, 200, "after {shown}");
    }
    handle.shutdown();
}

/// A panic inside a run — an engine bug, not a rejected input — is caught
/// per request and its message reaches the 500 body. Here a calibration
/// file carries a kernel model deserialization cannot vet: an empirical
/// distribution with no samples, which panics when first drawn from.
#[test]
fn engine_panics_are_500s_carrying_the_message() {
    use supersim_calibrate::{calibrate, CalibrationDb, FitOptions};
    use supersim_trace::{Trace, TraceEvent};
    let mut trace = Trace::new(1);
    let labels = supersim_workloads::Algorithm::Cholesky.labels();
    for (i, kernel) in labels.iter().cycle().take(160).enumerate() {
        trace.push(TraceEvent {
            worker: 0,
            kernel: (*kernel).into(),
            task_id: i as u64,
            start: i as f64,
            end: i as f64 + 0.01,
        });
    }
    let cal = calibrate(&trace, FitOptions::default());
    let mut db = CalibrationDb::new("poisoned", 64, 8, 1, cal);
    let empty: supersim_dist::Dist =
        serde_json::from_str("{\"family\":\"empirical\",\"sorted\":[]}")
            .expect("deserializes unchecked");
    db.calibration
        .registry
        .insert("dgemm", supersim_core::KernelModel::new(empty));
    let dir = std::env::temp_dir().join(format!("supersim-serve-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("poisoned.json");
    db.save(&path).unwrap();

    let handle = boot(1, 4, 120_000);
    let body = format!(
        "{{\"tiles\":4,\"models\":{{\"type\":\"calibration\",\"path\":{:?}}}}}",
        path.to_str().unwrap()
    );
    let resp = post(&handle, "/run", &body);
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("run failed"), "{}", resp.body);
    assert!(
        !resp.body.contains("opaque panic") && resp.body.contains("empty range"),
        "the panic's own text must reach the client: {}",
        resp.body
    );
    assert_eq!(get(&handle, "/healthz").status, 200);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A body nested far past the JSON parser's depth limit is a 400 on both
/// JSON endpoints, and so is a body holding one multi-megabyte string;
/// the daemon answers `/healthz` afterwards. 10,000 `[` used to overflow
/// a pool thread's stack and abort the process.
#[test]
fn hostile_json_bodies_are_400s_and_the_daemon_survives() {
    let handle = boot(1, 4, 120_000);
    let nested = "[".repeat(100_000);
    for path in ["/run", "/sweep"] {
        let resp = post(&handle, path, &nested);
        assert_eq!(resp.status, 400, "{path}: {}", resp.body);
        assert!(resp.body.contains("nested deeper"), "{}", resp.body);
    }
    let long = format!("{{\"tiles\":\"{}\"}}", "a".repeat(3 << 20));
    let resp = post(&handle, "/run", &long);
    assert_eq!(
        resp.status,
        400,
        "{}",
        &resp.body[..resp.body.len().min(200)]
    );
    assert_eq!(get(&handle, "/healthz").status, 200);
    handle.shutdown();
}

/// A `/run` body that is not UTF-8 is a 400 for its encoding, before any
/// key is read: two different bodies must never share one request, or
/// one cache key. The daemon answers `/healthz` afterwards.
#[test]
fn non_utf8_run_body_is_a_400() {
    use std::io::{Read, Write};
    let handle = boot(1, 4, 120_000);
    let body = b"{\"tiles\":2,\"backend\":\"des\",\"note\":\"\xFF\"}";
    let mut stream = std::net::TcpStream::connect(handle.addr).expect("connect");
    let head = format!(
        "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("not UTF-8"), "{response}");
    let valid = post(&handle, "/run", "{\"tiles\":2,\"backend\":\"des\"}");
    assert_eq!(valid.status, 200, "{}", valid.body);
    assert_eq!(get(&handle, "/healthz").status, 200);
    handle.shutdown();
}

/// Every metric name `/metrics` reports.
fn metric_names(handle: &supersim_serve::ServerHandle) -> std::collections::BTreeSet<String> {
    let body = get(handle, "/metrics").body;
    let v: serde_json::Value = serde_json::from_str(&body).expect("metrics are JSON");
    ["counters", "gauges", "histograms"]
        .iter()
        .flat_map(|kind| v[*kind].as_array().cloned().unwrap_or_default())
        .map(|m| m["name"].as_str().expect("named metric").to_string())
        .collect()
}

/// Requests to unknown paths share one `other` bucket: 10,000 distinct
/// 404 paths leave the set of metric names unchanged.
#[test]
fn unknown_paths_share_one_metrics_bucket() {
    let handle = boot(1, 4, 120_000);
    assert_eq!(get(&handle, "/nope").status, 404);
    // A `/metrics` request counts itself once it is answered.
    metric_names(&handle);
    let before = metric_names(&handle);
    assert!(before.contains("serve.requests.other"), "{before:?}");
    for i in 0..10_000 {
        assert_eq!(get(&handle, &format!("/nope/{i}")).status, 404);
    }
    assert_eq!(metric_names(&handle), before);
    handle.shutdown();
}
