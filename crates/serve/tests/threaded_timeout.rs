//! A timed-out threaded `/run` stops instead of running on detached. Its
//! own test binary: it counts this process's threads, which tests running
//! concurrently in the same binary would disturb.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};
use supersim_serve::{client_request, ServeConfig, Server};

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

/// 100x100 tiles on the threaded engine is 171,700 tasks, seconds of work
/// against a 20 ms deadline. The run polls the deadline at its
/// retirements, so the 504 comes soon after it, and the run's engine
/// threads have been joined by the time the answer arrives.
#[test]
fn a_timed_out_threaded_run_leaves_no_thread_behind() {
    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue: 4,
        default_timeout_ms: 120_000,
        retry_after_secs: 1,
    })
    .expect("bind ephemeral port")
    .spawn();
    let request = |method: &str, path: &str, body: &str| {
        client_request(handle.addr, method, path, body, Duration::from_secs(120)).expect("request")
    };
    assert_eq!(request("GET", "/healthz", "").status, 200);
    let before = threads();
    let started = Instant::now();
    let resp = request(
        "POST",
        "/run",
        "{\"tiles\":100,\"workers\":8,\"backend\":\"threaded\",\"timeout_ms\":20}",
    );
    let elapsed = started.elapsed();
    assert_eq!(resp.status, 504, "{}", resp.body);
    assert!(resp.body.contains("timeout"), "{}", resp.body);
    // A joined thread leaves the kernel's count a moment after `join`
    // returns; a run left running keeps its threads for seconds.
    let mut after = threads();
    for _ in 0..50 {
        if after == before {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        after = threads();
    }
    assert_eq!(
        after, before,
        "threads of the timed-out run are still alive ({elapsed:?} after the request)"
    );
    assert_eq!(request("GET", "/healthz", "").status, 200);
    handle.shutdown();
}
