//! End-to-end tests of the `supersim` CLI binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_supersim"))
}

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("supersim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn info_lists_schedulers() {
    let out = bin().arg("info").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("quark"));
    assert!(text.contains("starpu"));
    assert!(text.contains("ompss"));
    assert!(text.contains("cholesky"));
}

#[test]
fn no_args_exits_with_usage() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("commands:"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn dag_command_emits_stats_and_dot() {
    let dot_path = tmpdir().join("qr.dot");
    let out = bin()
        .args(["dag", "--alg", "qr", "--nt", "4", "--dot"])
        .arg(&dot_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("30 tasks"), "{text}");
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph"));
    std::fs::remove_file(&dot_path).ok();
}

#[test]
fn real_then_sim_round_trip() {
    let dir = tmpdir();
    let cal = dir.join("cal.json");
    let out = bin()
        .args([
            "real",
            "--alg",
            "cholesky",
            "--n",
            "96",
            "--nb",
            "24",
            "--calibration-out",
        ])
        .arg(&cal)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("residual"), "{text}");

    let svg = dir.join("trace.svg");
    let chrome = dir.join("trace.json");
    let out = bin()
        .args([
            "sim",
            "--alg",
            "cholesky",
            "--n",
            "192",
            "--nb",
            "24",
            "--workers",
            "4",
        ])
        .args(["--calibration"])
        .arg(&cal)
        .args(["--svg"])
        .arg(&svg)
        .args(["--chrome"])
        .arg(&chrome)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("predicted"), "{text}");
    assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
    assert!(!json.as_array().unwrap().is_empty());
    // Only this test's files: the directory is shared with tests running
    // concurrently in this process.
    for f in [&cal, &svg, &chrome] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn predict_reports_error_percentage() {
    let out = bin()
        .args([
            "predict",
            "--alg",
            "cholesky",
            "--n",
            "120",
            "--nb",
            "30",
            "--overhead",
            "auto",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error:"), "{text}");
    assert!(text.contains("overhead:"), "{text}");
}

#[cfg(feature = "metrics")]
#[test]
fn metrics_dumps_instrumented_snapshot() {
    let dir = tmpdir();
    let chrome = dir.join("metrics-trace.json");
    let out = bin()
        .args([
            "metrics",
            "--workload",
            "cholesky",
            "--n",
            "192",
            "--nb",
            "24",
            "--workers",
            "4",
            "--chrome",
        ])
        .arg(&chrome)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let counter = |name: &str| {
        snap["counters"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["name"] == name)
            .map(|c| c["value"].as_u64().unwrap())
    };
    // Both wakeup modes ran (the default --mode both), each counted under
    // its own name.
    assert!(counter("teq.wakeup.targeted").unwrap() > 0);
    assert!(counter("teq.wakeup.broadcast").unwrap() > 0);
    assert!(counter("teq.insert.count").unwrap() > 0);
    assert!(counter("sim.kernels.count").unwrap() > 0);
    // The parked-wait histogram is timed unconditionally, so a non-trivial
    // run always lands samples in it.
    let wait = snap["histograms"]
        .as_array()
        .unwrap()
        .iter()
        .find(|h| h["name"] == "teq.wait.parked.ns")
        .expect("teq.wait.parked.ns histogram present");
    assert!(wait["count"].as_u64().unwrap() > 0);
    assert!(wait["sum_ns"].as_u64().unwrap() > 0);
    // The chrome export gained counter tracks alongside the task events.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
    let arr = trace.as_array().unwrap();
    assert!(arr.iter().any(|e| e["ph"] == "X"));
    assert!(arr
        .iter()
        .any(|e| e["ph"] == "C" && e["name"] == "running_tasks"));
    assert!(arr
        .iter()
        .any(|e| e["ph"] == "C" && e["name"] == "teq.wakeup.targeted"));
    std::fs::remove_file(&chrome).ok();
}

#[cfg(feature = "metrics")]
#[test]
fn metrics_trace_out_is_deterministic() {
    let dir = tmpdir();
    let run = |path: &std::path::Path| {
        let out = bin()
            .args([
                "metrics",
                "--workload",
                "cholesky",
                "--n",
                "160",
                "--nb",
                "20",
                "--workers",
                "3",
                "--mode",
                "targeted",
                "--seed",
                "7",
                "--trace-out",
            ])
            .arg(path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let a = dir.join("a.txt");
    let b = dir.join("b.txt");
    run(&a);
    run(&b);
    let ta = std::fs::read_to_string(&a).unwrap();
    assert_eq!(ta, std::fs::read_to_string(&b).unwrap());
    assert!(!ta.is_empty());
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

/// The DES replay has no TEQ, so `metrics --backend des` replays once —
/// every span of the trace exactly once — and refuses a second wakeup mode.
#[cfg(feature = "metrics")]
#[test]
fn des_metrics_replay_once() {
    let trace = tmpdir().join("des-once.txt");
    let args = [
        "metrics",
        "--n",
        "512",
        "--nb",
        "64",
        "--workers",
        "8",
        "--seed",
        "42",
        "--backend",
        "des",
    ];
    let out = bin()
        .args(args)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let counter = |name: &str| {
        snap["counters"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["name"] == name)
            .map(|c| c["value"].as_u64().unwrap())
    };
    let spans = std::fs::read_to_string(&trace).unwrap().lines().count() as u64;
    assert_eq!(spans, 120);
    assert_eq!(counter("des.replay.runs"), Some(1));
    assert_eq!(counter("des.replay.tasks"), Some(spans));
    assert!(!String::from_utf8(out.stderr).unwrap().contains("Broadcast"));
    std::fs::remove_file(&trace).ok();
    for mode in ["both", "broadcast"] {
        let out = bin().args(args).args(["--mode", mode]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "--mode {mode}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: ") && err.contains("TEQ"), "{err}");
    }
}

#[test]
fn a_closed_stdout_pipe_is_a_clean_exit() {
    // `supersim … | head -1`: the reader takes one line and goes away
    // while the writer still has more than a pipe's worth (64 KiB) to
    // say, so the write fails with EPIPE however the two are scheduled.
    use std::io::{BufRead, BufReader, Read};
    let spans = tmpdir().join("head.ndjson");
    let ndjson: String = (0..20_000)
        .map(|i| {
            format!(r#"{{"worker":0,"kernel":"k","task_id":{i},"start":{i}.0,"end":{i}.5}}"#) + "\n"
        })
        .collect();
    std::fs::write(&spans, ndjson).unwrap();
    let mut child = bin()
        .args(["trace-convert", "--in"])
        .arg(&spans)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::with_capacity(64, child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert_eq!(first, "0 k 0.0 0.5\n");
    drop(stdout);
    let status = child.wait().unwrap();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "{status}: {stderr}");
    assert_eq!(stderr, "", "no panic report, no error line");
    std::fs::remove_file(&spans).ok();
}

#[test]
fn sim_without_calibration_is_an_error() {
    let out = bin().args(["sim", "--alg", "qr"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--calibration"));
}

/// Every rejected input — flag syntax, unknown names, and each row of the
/// illegal-scenario table that `Scenario::validate` and `serve` are also
/// driven with (satellite 4(b)) — exits 2 with exactly one `error:` line
/// on stderr: no panic dump (exit 101), no allocation abort (exit 134).
#[test]
fn invalid_arguments_exit_two_with_one_line() {
    let many_seeds: Vec<String> = (0..2048).map(|s| s.to_string()).collect();
    let many_workers: Vec<String> = (1..=1024).map(|w| w.to_string()).collect();
    let (many_seeds, many_workers) = (many_seeds.join(","), many_workers.join(","));
    for (args, needle) in [
        (&["metrics", "--n", "0"][..], "n must be positive"),
        (
            &["metrics", "--workers", "0"][..],
            "workers must be positive",
        ),
        (&["cluster", "--alg", "qr"][..], "distributed QR"),
        (
            &["cluster", "--nodes", "0"][..],
            "cluster.nodes must be positive",
        ),
        (
            &["metrics", "--scheduler", "starpu", "--backend", "des"][..],
            "cannot replay deterministically",
        ),
        (
            &["faults", "--kill-worker", "0:0.1", "--kill-node", "0:0.2"][..],
            "at most one permanent failure",
        ),
        (
            &["faults", "--workers", "1", "--kill-worker", "0:0.01"][..],
            "must leave survivors",
        ),
        (
            &["faults", "--straggler", "0:0:1:-3"][..],
            "factor must be positive",
        ),
        (
            &["faults", "--straggler", "0:1:1:2"][..],
            "window must be non-empty",
        ),
        (
            &["faults", "--straggler", "9999:0:1:2"][..],
            "outside the machine",
        ),
        (
            &["faults", "--transient", "5:400000000:0.5"][..],
            "failures",
        ),
        (
            &[
                "metrics",
                "--n",
                "6400000",
                "--nb",
                "64",
                "--backend",
                "des",
            ][..],
            "tasks exceed",
        ),
        (
            &["metrics", "--workers", "50000", "--backend", "threaded"][..],
            "lanes exceed",
        ),
        (
            &[
                "sweep",
                "--tiles",
                "2",
                "--seeds",
                &many_seeds,
                "--workers",
                &many_workers,
            ][..],
            "cells exceed",
        ),
        (
            &["sweep", "--autotune", "flux", "--tiles", "2"][..],
            "autotune",
        ),
        (&["dag", "--nt", "100000"][..], "tasks exceed"),
        // Plain flag-syntax errors, for comparison.
        (&["metrics", "--n", "banana"][..], "bad value for --n"),
        (
            &["faults", "--straggler", "0:1"][..],
            "bad --straggler entry",
        ),
        (&["metrics", "--seed"][..], "needs a value"),
        // A misspelt flag would run a plausible, wrong experiment.
        (
            &["faults", "--kil-worker", "0:0.01"][..],
            "unknown flag --kil-worker for faults",
        ),
        (&["metrics", "--wrokers", "3"][..], "unknown flag --wrokers"),
        (&["sweep", "--tiles", "2", "--plan", "kill"][..], "--plans"),
    ] {
        let out = bin().args(args).output().unwrap();
        let shown: Vec<&str> = args.iter().map(|a| &a[..a.len().min(40)]).collect();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{shown:?}: expected exit 2, got {:?}",
            out.status.code()
        );
        let err = String::from_utf8(out.stderr).unwrap();
        let lines: Vec<&str> = err.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(
            lines.len(),
            1,
            "{shown:?}: want one stderr line, got {err:?}"
        );
        assert!(
            lines[0].starts_with("error: ") && lines[0].contains(needle),
            "{shown:?}: want {needle:?} in {err:?}"
        );
    }
}

/// The CLI owns no text for the vocabulary's names: an unknown one prints
/// the library's `ScenarioError` verbatim (satellite 4(a); the `serve`
/// half is `api::tests::unknown_names_return_the_vocabularys_text`).
#[test]
fn unknown_names_print_the_vocabularys_text() {
    use supersim::workloads::scenario::parse_scheduler;
    use supersim::workloads::sweep::{FaultPlanSpec, InterconnectSpec};
    use supersim::workloads::{Algorithm, Backend};
    let ether = InterconnectSpec::parse(Some("ether"), None, None).unwrap_err();
    for (args, want) in [
        (
            &["faults", "--alg", "gemm"][..],
            Algorithm::parse("gemm").unwrap_err(),
        ),
        (
            &["sweep", "--alg", "lu,gemm"][..],
            Algorithm::parse("gemm").unwrap_err(),
        ),
        (
            &["real", "--scheduler", "slurm"][..],
            parse_scheduler("slurm").unwrap_err(),
        ),
        (
            &["sweep", "--schedulers", "slurm"][..],
            parse_scheduler("slurm").unwrap_err(),
        ),
        (
            &["cluster", "--backend", "gpu"][..],
            Backend::parse("gpu").unwrap_err(),
        ),
        (
            &["sweep", "--backend", "gpu"][..],
            Backend::parse_choice("gpu").unwrap_err(),
        ),
        (&["cluster", "--interconnect", "ether"][..], ether.clone()),
        (&["sweep", "--interconnects", "zero,ether"][..], ether),
        (
            &["sweep", "--plans", "meteor"][..],
            FaultPlanSpec::parse("meteor").unwrap_err(),
        ),
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            format!("error: {want}\n"),
            "{args:?}"
        );
    }
}

/// An unknown name of a megabyte — a key in a calibration file — and one
/// near the argument-length limit are refused on one short line quoting
/// at most their first 64 bytes.
#[test]
fn long_unknown_names_are_quoted_clipped() {
    let cal = tmpdir().join("long-key.json");
    std::fs::write(&cal, format!("{{\"{}\":1}}", "k".repeat(1 << 20))).unwrap();
    let alg = "g".repeat(100_000);
    let runs = [
        bin()
            .arg("sim")
            .arg("--calibration")
            .arg(&cal)
            .output()
            .unwrap(),
        bin().args(["faults", "--alg", &alg]).output().unwrap(),
    ];
    for (out, clipped) in runs.iter().zip([
        format!("`{}…`", "k".repeat(64)),
        format!("'{}…'", "g".repeat(64)),
    ]) {
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        let shown = &err[..err.len().min(200)];
        assert!(err.len() < 1024, "{} bytes: {shown}", err.len());
        assert!(
            err.starts_with("error: ") && err.contains(&clipped),
            "{shown}"
        );
    }
    std::fs::remove_file(&cal).ok();
}

/// Satellite 4(c): documents that must not move — the `--help` text, and
/// the key order of the `cluster` and `faults` stdout reports.
#[test]
fn help_text_and_report_keys_are_pinned() {
    let help = bin().arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(2));
    assert_eq!(
        String::from_utf8(help.stderr).unwrap(),
        "supersim — parallel simulation of superscalar scheduling

commands:
  real     run an algorithm for real; verify, time, optionally calibrate
  sim      simulate from a stored calibration
  predict  real run + calibration + simulation, with comparison
  cluster  simulate a distributed run over N nodes with an interconnect model
  faults   clean-vs-faulted comparison under a deterministic fault plan
  sweep    run a scenario matrix across host cores, merge one report
  serve    resident HTTP daemon: /run, /sweep, /healthz, /metrics
  dag      emit the task DAG of an algorithm
  metrics  run a simulated workload and dump instrumentation as JSON
  trace-convert rebuild a canonical trace from streamed ndjson spans
  info     list algorithms and scheduler profiles

common flags: --alg cholesky|qr|lu  --scheduler quark|starpu|ompss
              --n N  --nb NB  --workers W  --seed S
see the module docs for per-command flags
"
    );
    let keys = |args: &[&str]| -> Vec<String> {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .filter_map(|l| l.strip_prefix("  \"")?.split('"').next().map(String::from))
            .collect()
    };
    assert_eq!(
        keys(&[
            "cluster",
            "--n",
            "96",
            "--nb",
            "24",
            "--nodes",
            "2",
            "--workers",
            "2"
        ]),
        [
            "algorithm",
            "n",
            "nb",
            "nodes",
            "workers_per_node",
            "nic_lanes_per_node",
            "interconnect",
            "placement",
            "seed",
            "backend",
            "compute_tasks",
            "transfers",
            "transfer_bytes",
            "node_transfers",
            "node_bytes",
            "nic_busy_seconds",
            "node_owned_bytes",
            "predicted_seconds",
            "gflops",
            "wall_seconds"
        ]
    );
    assert_eq!(
        keys(&[
            "faults",
            "--n",
            "96",
            "--nb",
            "24",
            "--workers",
            "2",
            "--transient",
            "5:1:0.5"
        ]),
        [
            "clean_makespan",
            "faulted_makespan",
            "slowdown",
            "critical_lane_clean",
            "critical_lane_faulted",
            "retries",
            "aborted_virtual_seconds",
            "lost_virtual_seconds",
            "checkpoint_overhead",
            "restarted_tasks",
            "per_fault"
        ]
    );
}

/// `supersim serve` boots, answers /healthz, and stops on /shutdown.
#[test]
fn serve_command_boots_and_shuts_down() {
    use std::io::BufRead;
    let mut child = bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--serve-workers", "2"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The first stderr line announces the bound address.
    let mut line = String::new();
    std::io::BufReader::new(child.stderr.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr: std::net::SocketAddr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("serve announces its address")
        .parse()
        .unwrap();
    let health = supersim::serve::client_request(
        addr,
        "GET",
        "/healthz",
        "",
        std::time::Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\""));
    let bye = supersim::serve::client_request(
        addr,
        "POST",
        "/shutdown",
        "",
        std::time::Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(bye.status, 200);
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exits cleanly after /shutdown");
}

/// `real --trace-out` writes the ndjson span format, so `trace-convert`
/// reads a real run's trace back exactly as it reads a streamed one.
#[test]
fn real_trace_out_is_ndjson_that_trace_convert_reads() {
    let spans = tmpdir().join("real-spans.ndjson");
    let out = bin()
        .args(["real", "--alg", "cholesky", "--n", "96", "--nb", "24"])
        .arg("--trace-out")
        .arg(&spans)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ndjson = std::fs::read_to_string(&spans).unwrap();
    // 4x4 tiles: 4 potrf + 6 trsm + 6 syrk + 4 gemm.
    assert_eq!(ndjson.lines().count(), 20);
    assert!(ndjson.starts_with("{\"worker\":"), "{ndjson}");
    let out = bin()
        .args(["trace-convert", "--in"])
        .arg(&spans)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().count(), 20);
    std::fs::remove_file(&spans).ok();
}

/// A `--trace-stream` file that cannot be written fails the command with
/// one `error:` line and exit 2, for both commands that stream.
#[cfg(all(target_os = "linux", feature = "metrics"))]
#[test]
fn trace_stream_write_failure_exits_two() {
    for args in [
        &["metrics", "--n", "256", "--nb", "64", "--backend", "des"][..],
        &[
            "cluster",
            "--n",
            "192",
            "--nb",
            "48",
            "--nodes",
            "2",
            "--backend",
            "des",
        ][..],
    ] {
        let out = bin()
            .args(args)
            .args(["--trace-stream", "/dev/full"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "{args:?}: {err}");
        assert!(errors[0].contains("cannot write /dev/full"), "{err}");
        assert!(out.stdout.is_empty(), "no report after a failed stream");
    }
}
