//! Emit a machine-readable performance baseline for the simulation hot
//! path to `BENCH_simcore.json` (in the current directory, or the path
//! given as the first positional argument).
//!
//! Scenarios come from `supersim_bench::contention`: TEQ drain throughput
//! under broadcast vs targeted wakeups at several waiter counts, plus
//! engine burst throughput. The 64-waiter TEQ point carries the acceptance
//! criterion for the targeted-wakeup redesign: >= 2x over the broadcast
//! baseline.
//!
//! Flags (for the CI perf gate):
//!
//! * `--gate FILE` — compare the fresh targeted-wakeup 64-waiter median
//!   drain throughput against the committed baseline in `FILE`; exit
//!   non-zero if it regressed by more than 30%. The DES-backend 4x8
//!   cluster drain datapoint, the 256-cell sweep-orchestrator
//!   throughput (cells/s on a fixed DES matrix), and the resident
//!   service's cached /run round-trip rate are gated the same way
//!   (30% floor) when the committed baseline carries them.
//! * `--overhead-bin PATH` — `PATH` is this same binary built with
//!   `--no-default-features` (metrics compiled out). Alternates rounds of
//!   in-process measurement with spawns of `PATH --probe-targeted-64`, so
//!   the on/off samples interleave in time and host drift cancels —
//!   measuring the two builds minutes apart was observed to mis-report
//!   the overhead by tens of percent either way. Embeds an `overhead`
//!   section; the 2% budget verdict is recorded and printed, not a hard
//!   failure (the regression gate is the enforced one; overhead trends
//!   are judged from the uploaded artifacts).
//! * `--probe-targeted-64` — print one median gate-point measurement and
//!   exit; used by `--overhead-bin` as the other half of the pair.

use serde::Serialize;
use supersim_bench::contention::{engine_throughput, teq_throughput};
use supersim_core::WakeupMode;

/// Tasks each waiter thread retires per drain (matches the bench).
const PER_WAITER: usize = 50;
/// Timed repetitions per point; the best (max throughput) is reported to
/// suppress scheduler noise, as is standard for contention microbenchmarks.
const REPS: usize = 5;
/// Repetitions for the gate/overhead measurement. The drain is bimodal
/// under scheduler luck (a fortunate interleaving turns most waits into
/// immediate front hits and inflates throughput ~30x), so the gates
/// compare **medians**, which sit stably in the all-parked mode; a best-of
/// comparison would be pure noise.
const GATE_REPS: usize = 31;

#[derive(Serialize)]
struct TeqPoint {
    waiters: usize,
    tasks: usize,
    broadcast_tasks_per_sec: f64,
    targeted_tasks_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct EnginePoint {
    workers: usize,
    tasks: usize,
    tasks_per_sec: f64,
}

/// Wall-clock drain throughput of a distributed (multi-node) simulated
/// workload: scheduler + pinned NIC lanes + transfer tasks, virtual
/// kernels. Tracks the cluster subsystem's end-to-end overhead, on either
/// the threaded engine (one host thread per simulated lane) or the
/// pure-DES replay backend (single host thread).
#[derive(Serialize)]
struct ClusterPoint {
    nodes: usize,
    workers_per_node: usize,
    interconnect: String,
    backend: String,
    compute_tasks: u64,
    transfers: u64,
    tasks_per_sec: f64,
}

/// Wall-clock throughput of the sweep orchestrator on a fixed 256-cell
/// DES matrix (cells completed per second, merged report included).
/// Tracks the end-to-end batch path: matrix expansion, per-cell session
/// construction over the shared model database, DES replay, merge + sort,
/// Pareto extraction.
#[derive(Serialize)]
struct SweepPoint {
    cells: usize,
    jobs: usize,
    cells_per_sec: f64,
}

/// Round-trip throughput of the resident service answering a cached
/// deterministic /run request over real loopback TCP (fresh connection
/// per request, as the CLI client works). Tracks the serve hot path:
/// accept, parse, content-hash lookup, memoized response write.
#[derive(Serialize)]
struct ServePoint {
    requests: usize,
    cached_requests_per_sec: f64,
}

#[derive(Serialize)]
struct Acceptance {
    waiters: usize,
    speedup: f64,
    required: f64,
    pass: bool,
}

/// DES-vs-threaded cluster drain speedup at the replay backend's
/// acceptance point (4 nodes x 8 workers): the DES engine must drain the
/// same distributed workload at least 10x faster in wall-clock terms.
#[derive(Serialize)]
struct DesAcceptance {
    nodes: usize,
    workers_per_node: usize,
    threaded_tasks_per_sec: f64,
    des_tasks_per_sec: f64,
    speedup: f64,
    required: f64,
    pass: bool,
}

/// Metrics-on vs metrics-off cost of the instrumentation on the 64-waiter
/// targeted drain (median throughputs), per the observability acceptance
/// criterion. Negative `overhead_percent` means the instrumented build
/// measured faster — i.e. the true overhead is below measurement noise.
#[derive(Serialize)]
struct Overhead {
    targeted_64_on_tasks_per_sec: f64,
    targeted_64_off_tasks_per_sec: f64,
    overhead_percent: f64,
    required_percent: f64,
    pass: bool,
}

/// Peak-RSS scaling of the trace pipeline from 10^4 to 10^6 tasks on the
/// DES replay backend, measured in spawned child processes (VmHWM is
/// process-wide, so both modes need a fresh process). Streaming mode must
/// stay flat — ratio at most 2.0, the bounded-memory acceptance criterion
/// — while buffered mode is recorded to document the linear growth being
/// avoided.
#[derive(Serialize)]
struct TraceStreamRss {
    streaming_rss_kb_10k: u64,
    streaming_rss_kb_1m: u64,
    streaming_ratio: f64,
    buffered_rss_kb_10k: u64,
    buffered_rss_kb_1m: u64,
    buffered_ratio: f64,
    required_ratio: f64,
    pass: bool,
}

#[derive(Serialize)]
struct Baseline {
    benchmark: String,
    metrics_enabled: bool,
    per_waiter_tasks: usize,
    reps: usize,
    gate_reps: usize,
    /// Median targeted-wakeup drain throughput at 64 waiters — the number
    /// the CI perf gate and the metrics-overhead gate compare.
    targeted_64_median_tasks_per_sec: f64,
    /// DES-backend cluster drain throughput at 4x8 — the second number the
    /// CI perf gate compares (30% regression floor).
    des_cluster_4x8_tasks_per_sec: f64,
    /// Sweep-orchestrator throughput on the fixed 256-cell DES matrix —
    /// the third gated number (30% regression floor).
    sweep_256_cells_per_sec: f64,
    /// Cached /run round-trip rate of the resident service — the fourth
    /// gated number (30% regression floor).
    serve_cached_rps: f64,
    teq: Vec<TeqPoint>,
    engine: Vec<EnginePoint>,
    cluster: Vec<ClusterPoint>,
    sweep: SweepPoint,
    serve: ServePoint,
    trace_stream_rss: TraceStreamRss,
    acceptance: Acceptance,
    des_acceptance: DesAcceptance,
    overhead: Option<Overhead>,
}

fn best<F: FnMut() -> f64>(mut f: F) -> f64 {
    (0..REPS).map(|_| f()).fold(0.0f64, f64::max)
}

fn median<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    let mut xs: Vec<f64> = (0..reps).map(|_| f()).collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// The median targeted 64-waiter throughput recorded in a previously
/// written baseline JSON.
fn targeted_64_of(path: &str) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let v: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad JSON in {path}: {e}"));
    v["targeted_64_median_tasks_per_sec"]
        .as_f64()
        .expect("targeted_64_median_tasks_per_sec number in baseline")
}

/// The DES-backend 4x8 cluster drain throughput recorded in a previously
/// written baseline JSON; `None` if that baseline predates the replay
/// backend (the gate then skips the comparison instead of failing).
fn des_cluster_4x8_of(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let v: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad JSON in {path}: {e}"));
    v["des_cluster_4x8_tasks_per_sec"].as_f64()
}

/// The sweep throughput recorded in a previously written baseline JSON;
/// `None` if that baseline predates the sweep orchestrator (the gate then
/// skips the comparison instead of failing).
fn sweep_256_of(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let v: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad JSON in {path}: {e}"));
    v["sweep_256_cells_per_sec"].as_f64()
}

/// The cached-request service throughput recorded in a previously written
/// baseline JSON; `None` if that baseline predates the serve daemon (the
/// gate then skips the comparison instead of failing).
fn serve_cached_rps_of(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let v: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad JSON in {path}: {e}"));
    v["serve_cached_rps"].as_f64()
}

/// Best-of-REPS throughput of the sweep orchestrator on a fixed 256-cell
/// DES matrix: 2 tile counts x 2 worker counts x {single-node, 2-node
/// cluster} x {clean, straggler} x 16 seeds, quark/pinned profiles, DES
/// replay everywhere, one shared synthetic model database.
fn sweep_point() -> SweepPoint {
    use supersim_workloads::sweep::{FaultPlanSpec, SweepSpec};
    use supersim_workloads::Backend;

    let spec = SweepSpec {
        tile_counts: vec![4, 6],
        tile_sizes: vec![32],
        worker_counts: vec![2, 4],
        node_counts: vec![0, 2],
        plans: vec![
            FaultPlanSpec::clean(),
            FaultPlanSpec::preset("straggler").expect("straggler preset"),
        ],
        seeds: (1..=16).collect(),
        backend: Some(Backend::Des),
        ..SweepSpec::default()
    };
    let probe = spec.run(0);
    let cells = probe.report.cells_total as usize;
    assert_eq!(cells, 256, "the gated sweep matrix is fixed at 256 cells");
    let mut rate = probe.cells_per_sec();
    for _ in 1..REPS {
        rate = rate.max(spec.run(0).cells_per_sec());
    }
    SweepPoint {
        cells,
        jobs: probe.jobs,
        cells_per_sec: rate,
    }
}

/// Best-of-REPS cached-request throughput of the resident service: boot
/// an in-process daemon on an ephemeral loopback port, prime the response
/// cache with one cold deterministic DES run, then time batches of
/// sequential round trips that all hit the cache.
fn serve_point() -> ServePoint {
    use std::time::{Duration, Instant};
    use supersim_serve::{client_request, ServeConfig, Server};

    const BATCH: usize = 200;
    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 64,
        default_timeout_ms: 0,
        retry_after_secs: 1,
    })
    .expect("bind ephemeral port")
    .spawn();
    let rate = {
        let body = "{\"tiles\":8,\"seed\":7,\"backend\":\"des\"}";
        let post = || {
            client_request(handle.addr, "POST", "/run", body, Duration::from_secs(60))
                .expect("serve answers")
        };
        let cold = post();
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert_eq!(cold.header("x-cache"), Some("miss"));
        let warm = post();
        assert_eq!(warm.header("x-cache"), Some("hit"), "cache primed");
        best(|| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                assert_eq!(post().status, 200);
            }
            BATCH as f64 / t0.elapsed().as_secs_f64().max(1e-12)
        })
    };
    handle.shutdown();
    ServePoint {
        requests: BATCH,
        cached_requests_per_sec: rate,
    }
}

/// The `--probe-stream-rss` payload: replay the synthetic task stream of
/// [`supersim_bench::stream_bench`] on the DES backend — streaming mode
/// drains spans to a null sink at 0.05s virtual epochs, buffered mode
/// accumulates them all — and report this process's peak RSS.
fn stream_rss_probe(tasks: u64, streaming: bool) -> u64 {
    let report = supersim_bench::stream_bench::StreamBench {
        tasks,
        streaming,
        ..Default::default()
    }
    .run()
    .expect("a null-sink probe does no I/O");
    assert_eq!(report.completed, tasks, "probe stream fully retired");
    assert_eq!(
        report.resident_spans as u64 + report.streamed_spans,
        tasks,
        "every span accounted for"
    );
    report.peak_rss_kb
}

/// One median gate-point measurement (the `--probe-targeted-64` payload).
fn gate_point_median() -> f64 {
    median(GATE_REPS, || {
        teq_throughput(WakeupMode::Targeted, 64, PER_WAITER)
    })
}

/// Best-of-REPS wall-clock throughput (tasks drained per second, compute +
/// transfer) of a distributed tile Cholesky on constant kernel models.
fn cluster_point(
    nodes: usize,
    workers: usize,
    model: &str,
    backend: supersim_workloads::Backend,
) -> ClusterPoint {
    use std::sync::Arc;
    use supersim_cluster::{BlockCyclic, Hockney, Interconnect, ZeroCost};
    use supersim_core::{KernelModel, ModelRegistry, SimConfig};
    use supersim_workloads::{Algorithm, Scenario};

    let interconnect: Arc<dyn Interconnect> = match model {
        "zero" => Arc::new(ZeroCost),
        "hockney" => Arc::new(Hockney::new(1e-5, 1e10)),
        other => panic!("unknown interconnect {other}"),
    };
    let run_once = || {
        let mut models = ModelRegistry::new();
        for l in Algorithm::Cholesky.labels() {
            models.insert(*l, KernelModel::constant(1e-6));
        }
        Scenario::new(Algorithm::Cholesky)
            .n(480)
            .tile_size(48)
            .models(models)
            .config(SimConfig {
                seed: 42,
                ..SimConfig::default()
            })
            .cluster(supersim_cluster::ClusterSpec::new(nodes, workers))
            .interconnect(interconnect.clone())
            .placement(Arc::new(BlockCyclic::square(nodes)))
            .backend(backend)
            .run_cluster()
    };
    let probe = run_once();
    let tasks_per_sec = best(|| {
        let run = run_once();
        (run.compute_tasks + run.transfers) as f64 / run.wall_seconds.max(1e-12)
    });
    ClusterPoint {
        nodes,
        workers_per_node: workers,
        interconnect: model.to_string(),
        backend: backend.name().to_string(),
        compute_tasks: probe.compute_tasks,
        transfers: probe.transfers,
        tasks_per_sec,
    }
}

fn main() {
    let mut out = "BENCH_simcore.json".to_string();
    let mut gate_path: Option<String> = None;
    let mut overhead_bin_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--probe-targeted-64" => {
                println!("{}", gate_point_median());
                return;
            }
            "--probe-stream-rss" => {
                let tasks: u64 = args
                    .next()
                    .expect("--probe-stream-rss needs a task count")
                    .parse()
                    .expect("task count");
                let streaming = match args.next().as_deref() {
                    Some("streaming") => true,
                    Some("buffered") => false,
                    other => panic!("--probe-stream-rss needs streaming|buffered, got {other:?}"),
                };
                println!("{}", stream_rss_probe(tasks, streaming));
                return;
            }
            "--gate" => gate_path = Some(args.next().expect("--gate needs a file")),
            "--overhead-bin" => {
                overhead_bin_path = Some(args.next().expect("--overhead-bin needs a path"))
            }
            other if !other.starts_with("--") => out = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }

    let mut teq = Vec::new();
    for &waiters in &[1usize, 8, 48, 64, 128, 256] {
        eprintln!("teq contention: {waiters} waiters x {PER_WAITER} tasks ...");
        let broadcast = best(|| teq_throughput(WakeupMode::Broadcast, waiters, PER_WAITER));
        let targeted = best(|| teq_throughput(WakeupMode::Targeted, waiters, PER_WAITER));
        teq.push(TeqPoint {
            waiters,
            tasks: waiters * PER_WAITER,
            broadcast_tasks_per_sec: broadcast,
            targeted_tasks_per_sec: targeted,
            speedup: targeted / broadcast,
        });
    }

    let mut engine = Vec::new();
    for &workers in &[1usize, 2, 4, 8] {
        eprintln!("engine burst: {workers} workers ...");
        let tasks = 5_000;
        engine.push(EnginePoint {
            workers,
            tasks,
            tasks_per_sec: best(|| engine_throughput(workers, tasks)),
        });
    }

    let mut cluster = Vec::new();
    for &(nodes, workers, model) in &[(2usize, 4usize, "zero"), (4, 4, "hockney")] {
        eprintln!("cluster drain: {nodes} nodes x {workers} workers, {model} ...");
        cluster.push(cluster_point(
            nodes,
            workers,
            model,
            supersim_workloads::Backend::Threaded,
        ));
    }
    // The replay-backend acceptance point: the same 4x8 distributed
    // workload on the threaded engine (32 compute + NIC host threads) vs
    // the single-threaded DES engine.
    eprintln!("cluster drain: 4 nodes x 8 workers, hockney, threaded vs des ...");
    let thr_4x8 = cluster_point(4, 8, "hockney", supersim_workloads::Backend::Threaded);
    let des_4x8 = cluster_point(4, 8, "hockney", supersim_workloads::Backend::Des);
    let des_speedup = des_4x8.tasks_per_sec / thr_4x8.tasks_per_sec;
    let des_acceptance = DesAcceptance {
        nodes: 4,
        workers_per_node: 8,
        threaded_tasks_per_sec: thr_4x8.tasks_per_sec,
        des_tasks_per_sec: des_4x8.tasks_per_sec,
        speedup: des_speedup,
        required: 10.0,
        pass: des_speedup >= 10.0,
    };
    let des_cluster_4x8 = des_4x8.tasks_per_sec;
    cluster.push(thr_4x8);
    cluster.push(des_4x8);

    eprintln!("sweep throughput: fixed 256-cell DES matrix ...");
    let sweep = sweep_point();
    let sweep_256 = sweep.cells_per_sec;

    eprintln!("serve throughput: cached /run round trips ...");
    let serve = serve_point();
    let serve_rps = serve.cached_requests_per_sec;

    eprintln!("trace-stream rss: DES replay 10^4 vs 10^6 tasks, streaming vs buffered ...");
    let exe = std::env::current_exe().expect("current exe");
    let probe_rss = |tasks: u64, mode: &str| -> u64 {
        let out = std::process::Command::new(&exe)
            .arg("--probe-stream-rss")
            .arg(tasks.to_string())
            .arg(mode)
            .output()
            .expect("spawn rss probe");
        assert!(
            out.status.success(),
            "rss probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .expect("probe prints one peak-rss number")
    };
    let s10k = probe_rss(10_000, "streaming");
    let s1m = probe_rss(1_000_000, "streaming");
    let b10k = probe_rss(10_000, "buffered");
    let b1m = probe_rss(1_000_000, "buffered");
    let streaming_ratio = s1m as f64 / s10k.max(1) as f64;
    let trace_stream_rss = TraceStreamRss {
        streaming_rss_kb_10k: s10k,
        streaming_rss_kb_1m: s1m,
        streaming_ratio,
        buffered_rss_kb_10k: b10k,
        buffered_rss_kb_1m: b1m,
        buffered_ratio: b1m as f64 / b10k.max(1) as f64,
        required_ratio: 2.0,
        pass: streaming_ratio <= 2.0,
    };

    let gate = teq
        .iter()
        .find(|p| p.waiters == 64)
        .expect("64-waiter point present");
    let acceptance = Acceptance {
        waiters: 64,
        speedup: gate.speedup,
        required: 2.0,
        pass: gate.speedup >= 2.0,
    };

    eprintln!("gate point: targeted @ 64 waiters, median of {GATE_REPS} ...");
    let mut on_medians = vec![gate_point_median()];
    let overhead = overhead_bin_path.map(|bin| {
        // Interleave rounds so host drift hits both builds alike.
        const ROUNDS: usize = 5;
        let mut off_medians = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            eprintln!("overhead round {}/{ROUNDS} (off then on) ...", round + 1);
            let out = std::process::Command::new(&bin)
                .arg("--probe-targeted-64")
                .output()
                .unwrap_or_else(|e| panic!("cannot run probe {bin}: {e}"));
            assert!(
                out.status.success(),
                "probe {bin} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let off: f64 = String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .expect("probe prints one number");
            off_medians.push(off);
            on_medians.push(gate_point_median());
        }
        let mid = |xs: &mut Vec<f64>| {
            xs.sort_by(|a, b| a.total_cmp(b));
            xs[xs.len() / 2]
        };
        let on = mid(&mut on_medians);
        let off = mid(&mut off_medians);
        let overhead_percent = (off - on) / off * 100.0;
        Overhead {
            targeted_64_on_tasks_per_sec: on,
            targeted_64_off_tasks_per_sec: off,
            overhead_percent,
            required_percent: 2.0,
            pass: overhead_percent <= 2.0,
        }
    });
    let fresh_targeted_64 = match &overhead {
        Some(o) => o.targeted_64_on_tasks_per_sec,
        None => on_medians[0],
    };

    let baseline = Baseline {
        benchmark: "simcore contention hot path".to_string(),
        metrics_enabled: cfg!(feature = "metrics"),
        per_waiter_tasks: PER_WAITER,
        reps: REPS,
        gate_reps: GATE_REPS,
        targeted_64_median_tasks_per_sec: fresh_targeted_64,
        des_cluster_4x8_tasks_per_sec: des_cluster_4x8,
        sweep_256_cells_per_sec: sweep_256,
        serve_cached_rps: serve_rps,
        teq,
        engine,
        cluster,
        sweep,
        serve,
        trace_stream_rss,
        acceptance,
        des_acceptance,
        overhead,
    };

    let json = serde_json::to_string_pretty(&baseline).expect("serialize baseline");
    std::fs::write(&out, json.as_bytes()).expect("write baseline file");
    println!(
        "wrote {out}: targeted/broadcast speedup at 64 waiters = {:.2}x ({})",
        baseline.acceptance.speedup,
        if baseline.acceptance.pass {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "des/threaded cluster drain speedup at 4x8 = {:.2}x (des {:.0}/s vs threaded {:.0}/s, required {:.0}x) {}",
        baseline.des_acceptance.speedup,
        baseline.des_acceptance.des_tasks_per_sec,
        baseline.des_acceptance.threaded_tasks_per_sec,
        baseline.des_acceptance.required,
        if baseline.des_acceptance.pass {
            "PASS"
        } else {
            "FAIL"
        }
    );

    println!(
        "trace-stream rss 10^6/10^4: streaming {:.2}x ({} -> {} KiB, ceiling {:.1}x), buffered {:.2}x ({} -> {} KiB) {}",
        baseline.trace_stream_rss.streaming_ratio,
        baseline.trace_stream_rss.streaming_rss_kb_10k,
        baseline.trace_stream_rss.streaming_rss_kb_1m,
        baseline.trace_stream_rss.required_ratio,
        baseline.trace_stream_rss.buffered_ratio,
        baseline.trace_stream_rss.buffered_rss_kb_10k,
        baseline.trace_stream_rss.buffered_rss_kb_1m,
        if baseline.trace_stream_rss.pass {
            "PASS"
        } else {
            "FAIL"
        }
    );

    let mut failed = false;
    if let Some(o) = &baseline.overhead {
        println!(
            "metrics overhead at 64 waiters: {:.2}% (on {:.0}/s vs off {:.0}/s, budget {:.1}%) {}",
            o.overhead_percent,
            o.targeted_64_on_tasks_per_sec,
            o.targeted_64_off_tasks_per_sec,
            o.required_percent,
            if o.pass {
                "PASS"
            } else {
                "OVER (informational)"
            }
        );
    }
    if let Some(path) = gate_path {
        let committed = targeted_64_of(&path);
        let ratio = fresh_targeted_64 / committed;
        let pass = ratio >= 0.7;
        println!(
            "perf gate vs {path}: fresh targeted@64 = {:.0}/s, committed = {:.0}/s, ratio {:.2} (floor 0.70) {}",
            fresh_targeted_64,
            committed,
            ratio,
            if pass { "PASS" } else { "FAIL" }
        );
        failed |= !pass;
        match des_cluster_4x8_of(&path) {
            Some(committed_des) => {
                let ratio = des_cluster_4x8 / committed_des;
                let pass = ratio >= 0.7;
                println!(
                    "perf gate vs {path}: fresh des-cluster@4x8 = {:.0}/s, committed = {:.0}/s, ratio {:.2} (floor 0.70) {}",
                    des_cluster_4x8,
                    committed_des,
                    ratio,
                    if pass { "PASS" } else { "FAIL" }
                );
                failed |= !pass;
            }
            None => println!(
                "perf gate vs {path}: no des_cluster_4x8_tasks_per_sec in committed baseline, skipping DES gate"
            ),
        }
        match sweep_256_of(&path) {
            Some(committed_sweep) => {
                let ratio = sweep_256 / committed_sweep;
                let pass = ratio >= 0.7;
                println!(
                    "perf gate vs {path}: fresh sweep@256 = {:.0} cells/s, committed = {:.0} cells/s, ratio {:.2} (floor 0.70) {}",
                    sweep_256,
                    committed_sweep,
                    ratio,
                    if pass { "PASS" } else { "FAIL" }
                );
                failed |= !pass;
            }
            None => println!(
                "perf gate vs {path}: no sweep_256_cells_per_sec in committed baseline, skipping sweep gate"
            ),
        }
        // The trace_stream_rss gate is absolute (the bounded-memory
        // contract, not a regression ratio): streaming peak RSS at 10^6
        // tasks must stay within 2x of the 10^4-task run.
        {
            let pass = baseline.trace_stream_rss.pass;
            println!(
                "perf gate: trace_stream_rss streaming ratio {:.2} (ceiling {:.1}) {}",
                baseline.trace_stream_rss.streaming_ratio,
                baseline.trace_stream_rss.required_ratio,
                if pass { "PASS" } else { "FAIL" }
            );
            failed |= !pass;
        }
        match serve_cached_rps_of(&path) {
            Some(committed_serve) => {
                let ratio = serve_rps / committed_serve;
                let pass = ratio >= 0.7;
                println!(
                    "perf gate vs {path}: fresh serve cached rps = {:.0}/s, committed = {:.0}/s, ratio {:.2} (floor 0.70) {}",
                    serve_rps,
                    committed_serve,
                    ratio,
                    if pass { "PASS" } else { "FAIL" }
                );
                failed |= !pass;
            }
            None => println!(
                "perf gate vs {path}: no serve_cached_rps in committed baseline, skipping serve gate"
            ),
        }
    }
    if failed {
        std::process::exit(1);
    }
}
