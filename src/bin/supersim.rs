//! `supersim` — command-line front end for the superscalar scheduling
//! simulator.
//!
//! ```text
//! supersim real    --alg cholesky --n 720 --nb 90 [--scheduler quark]
//!                  [--workers 1] [--seed 42] [--trace-out t.txt]
//!                  [--calibration-out cal.json]
//! supersim sim     --alg cholesky --n 2000 --nb 100 --calibration cal.json
//!                  [--workers 8] [--svg out.svg] [--chrome out.json]
//!                  [--overhead auto|SECONDS]
//! supersim predict --alg qr --n 1000 --nb 100     (real + calibrate + sim)
//! supersim cluster --alg cholesky --n 960 --nb 96 --nodes 4 [--workers 4]
//!                  [--interconnect zero|hockney|sharedlink] [--latency S]
//!                  [--bandwidth B/s] [--nic-lanes L]
//!                  [--placement square|row|col|PxQ] [--seed 42]
//!                  [--backend threaded|des]
//!                  [--trace-out t.txt] [--chrome t.json] [--svg t.svg]
//! supersim faults  [--alg cholesky|lu] [--n 512] [--nb 64] [--workers 8] [--seed 42]
//!                  [--straggler W:FROM:UNTIL:FACTOR[,..]]
//!                  [--straggler-node N:FROM:UNTIL:FACTOR[,..]]
//!                  [--kill-worker W:AT | --kill-node N:AT]
//!                  [--transient PERIOD:FAILURES:FRAC] [--transient-label dgemm]
//!                  [--degrade-link N:FROM:UNTIL:FACTOR[,..]]
//!                  [--backoff-base S] [--backoff-cap S] [--restart-delay S]
//!                  [--checkpoint INTERVAL:SNAPSHOT:RESTORE]
//!                  [--nodes N  + the cluster flags above for distributed runs]
//!                  [--backend threaded|des]
//!                  [--trace-out faulted.txt] [--clean-trace-out clean.txt]
//!                  [--svg t.svg] [--chrome t.json]
//! supersim sweep   [--alg cholesky,lu] [--n 512,1024 | --tiles 4,8] [--nb 32,64]
//!                  [--schedulers quark,starpu,ompss] [--workers 4,8]
//!                  [--nodes 0,4] [--interconnects zero,hockney,sharedlink]
//!                  [--latency S] [--bandwidth B/s] [--nic-lanes L]
//!                  [--plans clean,straggler,transient,kill] [--seeds 1,2,3]
//!                  [--backend auto|des|threaded] [--jobs J] [--overhead S]
//!                  [--calibration cal.json] [--autotune nb|scheduler|workers|nodes|interconnect]
//!                  [--out report.json] [--csv report.csv] [--counts-out counts.txt]
//!                  [--metrics-out m.json]
//! supersim serve   [--addr 127.0.0.1:8077] [--serve-workers W] [--queue Q]
//!                  [--timeout-ms MS] [--retry-after S]
//! supersim dag     --alg qr --nt 4 [--dot out.dot]
//! supersim metrics --workload cholesky [--n 512] [--nb 64] [--workers 8]
//!                  [--seed 42] [--mode both|targeted|broadcast]
//!                  [--backend threaded|des]
//!                  [--out m.json] [--chrome t.json] [--trace-out t.txt]
//!                  [--trace-stream spans.ndjson] [--stream-epoch 1.0]
//! supersim trace-convert --in spans.ndjson [--out canonical.txt]
//! supersim info
//! ```
//!
//! `metrics` runs a synthetic simulated workload (lognormal kernel models,
//! no calibration file needed) once per requested TEQ wakeup mode and dumps
//! the merged [`supersim::metrics::MetricsSnapshot`] as JSON: TEQ traffic
//! and wait-latency histograms, engine counters, trace-shard occupancy.
//! `--chrome` adds counter tracks next to the task timeline;
//! `--trace-out` writes the (virtual-time, deterministic) text trace of
//! the last run, which CI diffs bit-for-bit across repeated runs.
//!
//! `--trace-stream` (on `metrics` and `cluster`) attaches a streaming
//! ndjson sink to the run's trace recorder: finalized spans are written
//! out at each virtual-time epoch boundary instead of buffering in
//! memory, so trace output stays bounded no matter how long the run is.
//! `trace-convert` rebuilds the canonical text projection from such a
//! file — byte-identical to `--trace-out` on the deterministic profiles,
//! which CI verifies.
//!
//! `--backend des` (on `metrics`, `cluster` and `faults`) replays the same
//! scenario on the single-threaded pure-DES engine instead of the threaded
//! runtime: identical canonical traces for the Quark/cluster profiles, but
//! no host thread per simulated worker — this is how thousand-node
//! topologies stay simulable on one core.
//!
//! `sweep` expands the cartesian product of the comma-separated axis lists
//! into scenario cells and executes them across host threads over one
//! shared model database (DES backend wherever it replays deterministically,
//! unless `--backend` forces one engine). The merged report — per-cell
//! makespan / retries / transfer volume / degradation, Pareto frontier over
//! (makespan, slowdown, transfer bytes), optional `--autotune` argmin — is
//! deterministically ordered: byte-for-byte identical across runs and
//! across `--jobs` values (a CI gate). JSON goes to `--out` or stdout, the
//! human summary to stderr.
//!
//! `faults` runs the same scenario twice — clean and under the fault plan
//! assembled from the fault flags — and prints the
//! [`supersim::faults::DegradationReport`] as JSON (clean vs faulted
//! makespan, critical-path shift, per-fault attribution). Without
//! `--nodes` it mirrors the single-node `metrics` recipe; with `--nodes`
//! it mirrors the `cluster` recipe, so an *empty* plan reproduces those
//! commands' canonical traces bit-for-bit (a CI gate).

use std::collections::HashMap;
use std::process::exit;
use supersim::calibrate::{calibrate, estimate_overhead, CalibrationDb, FitOptions};
use supersim::core::{SimConfig, SimSession};
use supersim::prelude::*;
use supersim::trace::{chrome, svg, text};

fn main() {
    // Invalid arguments exit 2 with a one-line stderr message — every
    // flag parser here follows that convention, but values that pass
    // parsing can still trip `assert!`s deep in the builder crates
    // (e.g. `--n 0`, inconsistent fault windows), which would otherwise
    // abort with a multi-line panic dump and exit 101. Route those
    // through the same convention: print the panic payload as a single
    // `error:` line and exit 2.
    std::panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "internal error".to_string()
        };
        eprintln!("error: {}", msg.lines().next().unwrap_or("internal error"));
    }));
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let cmd = args.remove(0);
    let opts = parse_flags(&args);
    let outcome = std::panic::catch_unwind(|| match cmd.as_str() {
        "real" => cmd_real(&opts),
        "sim" => cmd_sim(&opts),
        "predict" => cmd_predict(&opts),
        "cluster" => cmd_cluster(&opts),
        "faults" => cmd_faults(&opts),
        "sweep" => cmd_sweep(&opts),
        "serve" => cmd_serve(&opts),
        "dag" => cmd_dag(&opts),
        "metrics" => cmd_metrics(&opts),
        "trace-convert" => cmd_trace_convert(&opts),
        "info" => cmd_info(),
        "help" | "--help" | "-h" => usage_and_exit(),
        other => {
            eprintln!("unknown command: {other}");
            usage_and_exit();
        }
    });
    if outcome.is_err() {
        exit(2);
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "supersim — parallel simulation of superscalar scheduling\n\
         \n\
         commands:\n\
         \x20 real     run an algorithm for real; verify, time, optionally calibrate\n\
         \x20 sim      simulate from a stored calibration\n\
         \x20 predict  real run + calibration + simulation, with comparison\n\
         \x20 cluster  simulate a distributed run over N nodes with an interconnect model\n\
         \x20 faults   clean-vs-faulted comparison under a deterministic fault plan\n\
         \x20 sweep    run a scenario matrix across host cores, merge one report\n\
         \x20 serve    resident HTTP daemon: /run, /sweep, /healthz, /metrics\n\
         \x20 dag      emit the task DAG of an algorithm\n\
         \x20 metrics  run a simulated workload and dump instrumentation as JSON\n\
         \x20 trace-convert rebuild a canonical trace from streamed ndjson spans\n\
         \x20 info     list algorithms and scheduler profiles\n\
         \n\
         common flags: --alg cholesky|qr|lu  --scheduler quark|starpu|ompss\n\
         \x20             --n N  --nb NB  --workers W  --seed S\n\
         see the module docs for per-command flags"
    );
    exit(2)
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag --{key} needs a value");
                exit(2)
            });
            map.insert(key.to_string(), value);
        } else {
            eprintln!("unexpected argument {a}");
            exit(2);
        }
    }
    map
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    match opts.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v}");
            exit(2)
        }),
    }
}

fn algorithm(opts: &HashMap<String, String>) -> Algorithm {
    match opts.get("alg").map(String::as_str) {
        Some("cholesky") | None => Algorithm::Cholesky,
        Some("qr") => Algorithm::Qr,
        Some("lu") => Algorithm::Lu,
        Some(other) => {
            eprintln!("unknown algorithm {other} (cholesky|qr|lu)");
            exit(2)
        }
    }
}

fn backend(opts: &HashMap<String, String>) -> supersim::workloads::Backend {
    match opts.get("backend") {
        None => supersim::workloads::Backend::Threaded,
        Some(v) => supersim::workloads::Backend::parse(v).unwrap_or_else(|| {
            eprintln!("unknown backend {v} (threaded|des)");
            exit(2)
        }),
    }
}

fn scheduler(opts: &HashMap<String, String>) -> SchedulerKind {
    match opts.get("scheduler").map(String::as_str) {
        Some("quark") | None => SchedulerKind::Quark,
        Some("starpu") => SchedulerKind::StarPu,
        Some("ompss") => SchedulerKind::OmpSs,
        Some(other) => {
            eprintln!("unknown scheduler {other} (quark|starpu|ompss)");
            exit(2)
        }
    }
}

/// `--trace-stream PATH [--stream-epoch S]`: attach a streaming ndjson
/// sink to the session's recorder, draining finalized spans at
/// virtual-time epoch boundaries instead of buffering the whole run.
fn attach_stream_sink(session: &SimSession, opts: &HashMap<String, String>) {
    if let Some(path) = opts.get("trace-stream") {
        let epoch = get(opts, "stream-epoch", 1.0f64);
        if !epoch.is_finite() || epoch <= 0.0 {
            eprintln!("--stream-epoch must be a positive number of virtual seconds");
            exit(2);
        }
        let sink = supersim::trace::sink::NdjsonSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            exit(2)
        });
        session.trace_recorder().attach_sink(Box::new(sink), epoch);
        eprintln!("streaming spans to {path} (epoch {epoch}s)");
    }
}

/// `supersim trace-convert --in spans.ndjson [--out canonical.txt]`:
/// rebuild the canonical text projection from a streamed ndjson span
/// file — the bridge CI uses to byte-compare streamed and buffered runs.
fn cmd_trace_convert(opts: &HashMap<String, String>) {
    let input = opts.get("in").unwrap_or_else(|| {
        eprintln!("trace-convert needs --in spans.ndjson");
        exit(2)
    });
    let data = std::fs::read_to_string(input).unwrap_or_else(|e| {
        eprintln!("cannot read {input}: {e}");
        exit(2)
    });
    let mut trace = supersim::trace::sink::parse_ndjson(&data).unwrap_or_else(|e| {
        eprintln!("bad ndjson in {input}: {e}");
        exit(2)
    });
    trace.normalize();
    let canonical = trace.canonical();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &canonical).expect("write canonical trace");
            eprintln!("canonical trace ({} spans) written to {path}", trace.len());
        }
        None => print!("{canonical}"),
    }
}

fn cmd_real(opts: &HashMap<String, String>) {
    let alg = algorithm(opts);
    let kind = scheduler(opts);
    let n = get(opts, "n", 720usize);
    let nb = get(opts, "nb", 90usize);
    let workers = get(opts, "workers", 1usize);
    let seed = get(opts, "seed", 42u64);

    println!(
        "real {} n={n} nb={nb} workers={workers} scheduler={}",
        alg.name(),
        kind.name()
    );
    let run = Scenario::new(alg)
        .scheduler(kind)
        .workers(workers)
        .n(n)
        .tile_size(nb)
        .seed(seed)
        .run_real();
    println!(
        "elapsed {:.4}s   {:.2} GFLOP/s   residual {:.2e}",
        run.seconds, run.gflops, run.residual
    );
    let stats = TraceStats::of(&run.trace);
    println!("{}", stats.report());

    if let Some(path) = opts.get("trace-out") {
        std::fs::write(path, text::write(&run.trace)).expect("write trace");
        println!("trace written to {path}");
    }
    if let Some(path) = opts.get("calibration-out") {
        let cal = calibrate(&run.trace, FitOptions::default());
        let db = CalibrationDb::new(
            format!("{} n={n} nb={nb} workers={workers}", alg.name()),
            n,
            nb,
            workers,
            cal,
        );
        db.save(std::path::Path::new(path))
            .expect("write calibration");
        println!("calibration written to {path}");
    }
}

fn cmd_sim(opts: &HashMap<String, String>) {
    let alg = algorithm(opts);
    let kind = scheduler(opts);
    let n = get(opts, "n", 2000usize);
    let nb = get(opts, "nb", 100usize);
    let workers = get(opts, "workers", 8usize);
    let seed = get(opts, "seed", 42u64);

    let Some(cal_path) = opts.get("calibration") else {
        eprintln!("sim requires --calibration FILE (produce one with `supersim real --calibration-out ...`)");
        exit(2)
    };
    let db = CalibrationDb::load(std::path::Path::new(cal_path)).unwrap_or_else(|e| {
        eprintln!("cannot load calibration: {e}");
        exit(2)
    });

    let overhead = match opts.get("overhead").map(String::as_str) {
        None => 0.0,
        Some("auto") => {
            eprintln!("--overhead auto requires a trace; use `predict` instead");
            exit(2)
        }
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad --overhead value {v}");
            exit(2)
        }),
    };

    let config = SimConfig {
        seed,
        overhead_per_task: overhead,
        ..SimConfig::default()
    };
    println!(
        "sim {} n={n} nb={nb} workers={workers} scheduler={} (calibration: {})",
        alg.name(),
        kind.name(),
        db.description
    );
    let run = Scenario::new(alg)
        .scheduler(kind)
        .workers(workers)
        .n(n)
        .tile_size(nb)
        .models(db.calibration.registry)
        .config(config)
        .run_sim();
    println!(
        "predicted {:.4}s   {:.2} GFLOP/s   (simulation wall time {:.4}s, {} tasks)",
        run.predicted_seconds,
        run.gflops,
        run.wall_seconds,
        run.trace.len()
    );

    if let Some(path) = opts.get("svg") {
        std::fs::write(path, svg::render_default(&run.trace)).expect("write svg");
        println!("trace SVG written to {path}");
    }
    if let Some(path) = opts.get("chrome") {
        std::fs::write(path, chrome::to_chrome_json(&run.trace)).expect("write chrome trace");
        println!("chrome trace written to {path}");
    }
}

fn cmd_predict(opts: &HashMap<String, String>) {
    let alg = algorithm(opts);
    let kind = scheduler(opts);
    let n = get(opts, "n", 720usize);
    let nb = get(opts, "nb", 90usize);
    let workers = get(opts, "workers", 1usize);
    let seed = get(opts, "seed", 42u64);
    let model_overhead = opts.get("overhead").map(String::as_str) == Some("auto");

    println!(
        "predict {} n={n} nb={nb} workers={workers} scheduler={}",
        alg.name(),
        kind.name()
    );
    let real = Scenario::new(alg)
        .scheduler(kind)
        .workers(workers)
        .n(n)
        .tile_size(nb)
        .seed(seed)
        .run_real();
    println!(
        "real:      {:.4}s  {:.2} GFLOP/s  residual {:.2e}",
        real.seconds, real.gflops, real.residual
    );
    let cal = calibrate(&real.trace, FitOptions::default());
    let overhead = if model_overhead {
        let est = estimate_overhead(&real.trace, 0.01)
            .map(|e| e.median_gap)
            .unwrap_or(0.0);
        println!(
            "overhead:  modeling {:.2} µs/task from trace gaps",
            est * 1e6
        );
        est
    } else {
        0.0
    };
    let sim = Scenario::new(alg)
        .scheduler(kind)
        .workers(workers)
        .n(n)
        .tile_size(nb)
        .models(cal.registry)
        .config(SimConfig {
            seed,
            overhead_per_task: overhead,
            ..SimConfig::default()
        })
        .run_sim();
    println!(
        "simulated: {:.4}s  {:.2} GFLOP/s  (sim wall {:.4}s)",
        sim.predicted_seconds, sim.gflops, sim.wall_seconds
    );
    let err = (sim.predicted_seconds - real.seconds) / real.seconds * 100.0;
    println!("error:     {err:+.2}%");
    let cmp = TraceComparison::compare(&real.trace, &sim.trace);
    println!("traces:    {}", cmp.summary());
}

/// Canonical virtual-time trace text: one line per task, sorted by task
/// id, no worker lanes. Worker placement is scheduler-race dependent, but
/// virtual times are seed-deterministic, so this format diffs bit-for-bit
/// across repeated runs (the CI determinism gates rely on that).
fn canonical_trace(trace: &supersim::trace::Trace) -> String {
    trace.canonical()
}

/// Simulate a distributed run: N nodes of W workers, owner-computes
/// block-cyclic placement, automatic transfer tasks costed by the chosen
/// interconnect model. Prints a JSON report to stdout; the human summary
/// goes to stderr.
fn cmd_cluster(opts: &HashMap<String, String>) {
    use std::sync::Arc;
    use supersim::cluster::{ClusterSpec, Hockney, Interconnect, SharedLink, ZeroCost};
    use supersim::trace::chrome::LaneGroup;

    let alg = match opts.get("alg").map(String::as_str) {
        Some("cholesky") | None => Algorithm::Cholesky,
        Some("lu") => Algorithm::Lu,
        Some(other) => {
            eprintln!("unknown cluster algorithm {other} (cholesky|lu; distributed QR is not implemented)");
            exit(2)
        }
    };
    let n = get(opts, "n", 960usize);
    let nb = get(opts, "nb", 96usize);
    let nodes = get(opts, "nodes", 4usize);
    let workers = get(opts, "workers", 4usize);
    let seed = get(opts, "seed", 42u64);
    let latency = get(opts, "latency", 1e-5f64);
    let bandwidth = get(opts, "bandwidth", 1e10f64);
    let interconnect: Arc<dyn Interconnect> = match opts.get("interconnect").map(String::as_str) {
        Some("zero") => Arc::new(ZeroCost),
        Some("hockney") | None => Arc::new(Hockney::new(latency, bandwidth)),
        Some("sharedlink") => Arc::new(SharedLink::new(latency, bandwidth)),
        Some(other) => {
            eprintln!("unknown interconnect {other} (zero|hockney|sharedlink)");
            exit(2)
        }
    };
    let nic_lanes = get(opts, "nic-lanes", interconnect.default_nic_lanes());
    let placement = match opts.get("placement").map(String::as_str) {
        None | Some("square") => BlockCyclic::square(nodes),
        Some("row") => BlockCyclic::row(nodes),
        Some("col") => BlockCyclic::col(nodes),
        Some(grid) => {
            let parts: Vec<usize> = grid
                .split('x')
                .map(|p| {
                    p.parse().unwrap_or_else(|_| {
                        eprintln!("bad --placement {grid} (square|row|col|PxQ)");
                        exit(2)
                    })
                })
                .collect();
            if parts.len() != 2 || parts[0] * parts[1] != nodes {
                eprintln!("--placement {grid} must be PxQ with P*Q = {nodes} nodes");
                exit(2);
            }
            BlockCyclic::new(parts[0], parts[1])
        }
    };

    // Built-in lognormal kernel models with a warm-up factor — no
    // calibration file needed, and deterministic for the given seed (the
    // plan-based protocol keys durations by submission rank, not worker).
    let mut models = ModelRegistry::new();
    for l in alg.labels() {
        models.insert(
            *l,
            KernelModel::with_warmup(Dist::log_normal(-6.0, 0.3).unwrap(), 1.5),
        );
    }
    let session = SimSession::new(
        models,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    let backend = backend(opts);
    let spec = ClusterSpec::new(nodes, workers).with_nic_lanes(nic_lanes);
    eprintln!(
        "cluster {} n={n} nb={nb} nodes={nodes} workers={workers}/node nic-lanes={nic_lanes} \
         interconnect={} placement={} backend={}",
        alg.name(),
        interconnect.name(),
        placement.name(),
        backend.name()
    );
    attach_stream_sink(&session, opts);
    let run = Scenario::new(alg)
        .n(n)
        .tile_size(nb)
        .session(session)
        .cluster(spec.clone())
        .interconnect(interconnect)
        .placement(Arc::new(placement))
        .backend(backend)
        .run_cluster();
    eprintln!(
        "predicted {:.4}s   {:.2} GFLOP/s   {} compute tasks, {} transfers ({} bytes)   (wall {:.4}s)",
        run.predicted_seconds,
        run.gflops,
        run.compute_tasks,
        run.transfers,
        run.transfer_bytes,
        run.wall_seconds
    );

    // The vendored serde derive does not support generic (lifetime-
    // parameterised) structs, so the report owns its data.
    #[derive(serde::Serialize)]
    struct ClusterReport {
        algorithm: String,
        n: usize,
        nb: usize,
        nodes: usize,
        workers_per_node: usize,
        nic_lanes_per_node: usize,
        interconnect: String,
        placement: String,
        seed: u64,
        backend: String,
        compute_tasks: u64,
        transfers: u64,
        transfer_bytes: u64,
        node_transfers: Vec<u64>,
        node_bytes: Vec<u64>,
        nic_busy_seconds: Vec<f64>,
        node_owned_bytes: Vec<u64>,
        predicted_seconds: f64,
        gflops: f64,
        wall_seconds: f64,
    }
    let report = ClusterReport {
        algorithm: alg.name().to_string(),
        n,
        nb,
        nodes,
        workers_per_node: workers,
        nic_lanes_per_node: nic_lanes,
        interconnect: run.interconnect.to_string(),
        placement: run.placement.clone(),
        seed,
        backend: backend.name().to_string(),
        compute_tasks: run.compute_tasks,
        transfers: run.transfers,
        transfer_bytes: run.transfer_bytes,
        node_transfers: run.node_transfers.clone(),
        node_bytes: run.node_bytes.clone(),
        nic_busy_seconds: run.nic_busy_seconds.clone(),
        node_owned_bytes: run.node_owned_bytes.clone(),
        predicted_seconds: run.predicted_seconds,
        gflops: run.gflops,
        wall_seconds: run.wall_seconds,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serialize report")
    );

    if let Some(path) = opts.get("trace-out") {
        std::fs::write(path, canonical_trace(&run.trace)).expect("write trace");
        eprintln!("canonical trace written to {path}");
    }
    if let Some(path) = opts.get("chrome") {
        let names = spec.lane_names();
        let lanes: Vec<LaneGroup> = (0..spec.total_workers())
            .map(|w| {
                let node = match spec.lane_of(w) {
                    supersim::cluster::Lane::Compute { node, .. } => node,
                    supersim::cluster::Lane::Nic { node, .. } => node,
                };
                LaneGroup {
                    pid: node,
                    process_name: format!("node {node}"),
                    thread_name: names[w].clone(),
                }
            })
            .collect();
        std::fs::write(path, chrome::to_chrome_json_grouped(&run.trace, &lanes))
            .expect("write chrome trace");
        eprintln!("chrome trace written to {path}");
    }
    if let Some(path) = opts.get("svg") {
        let svg_opts = svg::SvgOptions {
            title: format!(
                "{} n={n} nb={nb}: {} nodes x {} workers over {}",
                alg.name(),
                nodes,
                workers,
                run.interconnect
            ),
            lane_names: spec.lane_names(),
            ..Default::default()
        };
        std::fs::write(path, svg::render(&run.trace, &svg_opts)).expect("write svg");
        eprintln!("trace SVG written to {path}");
    }
}

/// Parse a fault flag holding a comma-separated list of `:`-separated
/// numeric tuples, e.g. `--straggler 0:0.0:0.5:2.0,3:0.1:0.2:4.0`.
fn fault_tuples(opts: &HashMap<String, String>, key: &str, arity: usize) -> Vec<Vec<f64>> {
    let Some(v) = opts.get(key) else {
        return Vec::new();
    };
    v.split(',')
        .map(|item| {
            let parts: Vec<f64> = item
                .split(':')
                .map(|p| {
                    p.parse().unwrap_or_else(|_| {
                        eprintln!(
                            "bad --{key} entry {item:?} (need {arity} ':'-separated numbers)"
                        );
                        exit(2)
                    })
                })
                .collect();
            if parts.len() != arity {
                eprintln!("bad --{key} entry {item:?} (need {arity} ':'-separated numbers)");
                exit(2);
            }
            parts
        })
        .collect()
}

/// Assemble a [`FaultPlan`] from the `faults` command's flags.
fn fault_plan(opts: &HashMap<String, String>) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for t in fault_tuples(opts, "straggler", 4) {
        plan = plan.straggler_worker(t[0] as usize, t[1], t[2], t[3]);
    }
    for t in fault_tuples(opts, "straggler-node", 4) {
        plan = plan.straggler_node(t[0] as usize, t[1], t[2], t[3]);
    }
    for t in fault_tuples(opts, "degrade-link", 4) {
        plan = plan.degrade_link(t[0] as usize, t[1], t[2], t[3]);
    }
    for t in fault_tuples(opts, "transient", 3) {
        let (period, failures, frac) = (t[0] as u64, t[1] as u32, t[2]);
        plan = match opts.get("transient-label") {
            Some(label) => plan.transient_for(label.clone(), period, failures, frac),
            None => plan.transient(period, failures, frac),
        };
    }
    let kills_w = fault_tuples(opts, "kill-worker", 2);
    let kills_n = fault_tuples(opts, "kill-node", 2);
    if kills_w.len() + kills_n.len() > 1 {
        eprintln!("at most one permanent failure (--kill-worker or --kill-node) per plan");
        exit(2);
    }
    for t in kills_w {
        plan = plan.kill_worker(t[0] as usize, t[1]);
    }
    for t in kills_n {
        plan = plan.kill_node(t[0] as usize, t[1]);
    }

    let mut recovery = RecoveryPolicy::default();
    recovery.backoff_base = get(opts, "backoff-base", recovery.backoff_base);
    recovery.backoff_cap = get(opts, "backoff-cap", recovery.backoff_cap);
    recovery.restart_delay = get(opts, "restart-delay", recovery.restart_delay);
    if let Some(cp) = opts.get("checkpoint") {
        let parts: Vec<f64> = cp
            .split(':')
            .map(|p| {
                p.parse().unwrap_or_else(|_| {
                    eprintln!("bad --checkpoint {cp:?} (need INTERVAL:SNAPSHOT:RESTORE)");
                    exit(2)
                })
            })
            .collect();
        if parts.len() != 3 {
            eprintln!("bad --checkpoint {cp:?} (need INTERVAL:SNAPSHOT:RESTORE)");
            exit(2);
        }
        recovery.checkpoint = Some(CheckpointPolicy {
            interval: parts[0],
            snapshot_cost: parts[1],
            restore_cost: parts[2],
        });
    }
    plan.with_recovery(recovery)
}

/// Clean-vs-faulted comparison under a deterministic fault plan. Without
/// `--nodes` the scenario mirrors the single-node `metrics` recipe
/// (synthetic lognormal models, n=512 nb=64 workers=8); with `--nodes` it
/// mirrors the `cluster` recipe (warm-up models, interconnect flags), so
/// an empty plan reproduces those commands' canonical traces bit-for-bit.
/// The [`supersim::faults::DegradationReport`] goes to stdout as JSON,
/// the human summary to stderr.
fn cmd_faults(opts: &HashMap<String, String>) {
    use std::sync::Arc;
    use supersim::cluster::{ClusterSpec, Hockney, Interconnect, SharedLink, ZeroCost};

    let cluster_mode = opts.contains_key("nodes");
    let alg = match opts.get("alg").map(String::as_str) {
        Some("cholesky") | None => Algorithm::Cholesky,
        Some("qr") if !cluster_mode => Algorithm::Qr,
        Some("lu") => Algorithm::Lu,
        Some(other) => {
            eprintln!(
                "unknown faults algorithm {other} ({})",
                if cluster_mode {
                    "cholesky|lu with --nodes"
                } else {
                    "cholesky|qr|lu"
                }
            );
            exit(2)
        }
    };
    let plan = fault_plan(opts);
    let seed = get(opts, "seed", 42u64);
    let backend = backend(opts);

    let (out, label) = if cluster_mode {
        let n = get(opts, "n", 960usize);
        let nb = get(opts, "nb", 96usize);
        let nodes = get(opts, "nodes", 4usize);
        let workers = get(opts, "workers", 4usize);
        let latency = get(opts, "latency", 1e-5f64);
        let bandwidth = get(opts, "bandwidth", 1e10f64);
        let interconnect: Arc<dyn Interconnect> = match opts.get("interconnect").map(String::as_str)
        {
            Some("zero") => Arc::new(ZeroCost),
            Some("hockney") | None => Arc::new(Hockney::new(latency, bandwidth)),
            Some("sharedlink") => Arc::new(SharedLink::new(latency, bandwidth)),
            Some(other) => {
                eprintln!("unknown interconnect {other} (zero|hockney|sharedlink)");
                exit(2)
            }
        };
        let nic_lanes = get(opts, "nic-lanes", interconnect.default_nic_lanes());
        let mut models = ModelRegistry::new();
        for l in alg.labels() {
            models.insert(
                *l,
                KernelModel::with_warmup(Dist::log_normal(-6.0, 0.3).unwrap(), 1.5),
            );
        }
        let spec = ClusterSpec::new(nodes, workers).with_nic_lanes(nic_lanes);
        let label = format!(
            "faults {} n={n} nb={nb} nodes={nodes} workers={workers}/node interconnect={} backend={}",
            alg.name(),
            interconnect.name(),
            backend.name()
        );
        let out = Scenario::new(alg)
            .n(n)
            .tile_size(nb)
            .models(models)
            .config(SimConfig {
                seed,
                ..SimConfig::default()
            })
            .cluster(spec)
            .interconnect(interconnect)
            .placement(Arc::new(BlockCyclic::square(nodes)))
            .backend(backend)
            .faults(plan)
            .run_faults();
        (out, label)
    } else {
        let kind = scheduler(opts);
        if let Err(e) = backend.supports(kind) {
            eprintln!("{e}");
            exit(2)
        }
        let n = get(opts, "n", 512usize);
        let nb = get(opts, "nb", 64usize);
        let workers = get(opts, "workers", 8usize);
        let mut models = ModelRegistry::new();
        for l in alg.labels() {
            models.insert(*l, KernelModel::new(Dist::log_normal(-6.0, 0.3).unwrap()));
        }
        let label = format!(
            "faults {} n={n} nb={nb} workers={workers} scheduler={} backend={}",
            alg.name(),
            kind.name(),
            backend.name()
        );
        let out = Scenario::new(alg)
            .scheduler(kind)
            .workers(workers)
            .n(n)
            .tile_size(nb)
            .models(models)
            .config(SimConfig {
                seed,
                ..SimConfig::default()
            })
            .backend(backend)
            .faults(plan)
            .run_faults();
        (out, label)
    };

    let r = &out.report;
    eprintln!("{label}");
    eprintln!(
        "clean {:.4}s -> faulted {:.4}s  (x{:.3} slowdown)",
        r.clean_makespan, r.faulted_makespan, r.slowdown
    );
    eprintln!(
        "retries {}  restarted tasks {}  aborted {:.4}s  lost {:.4}s  checkpoint overhead {:.4}s",
        r.retries,
        r.restarted_tasks,
        r.aborted_virtual_seconds,
        r.lost_virtual_seconds,
        r.checkpoint_overhead
    );
    if r.critical_lane_clean != r.critical_lane_faulted {
        eprintln!(
            "critical path moved: lane {} -> lane {}",
            r.critical_lane_clean, r.critical_lane_faulted
        );
    }
    for f in &r.per_fault {
        eprintln!(
            "  {:<40} makespan {:.4}s  (x{:.3})",
            f.fault, f.makespan, f.slowdown
        );
    }
    println!(
        "{}",
        serde_json::to_string_pretty(r).expect("serialize report")
    );

    if let Some(path) = opts.get("trace-out") {
        std::fs::write(path, canonical_trace(&out.trace)).expect("write trace");
        eprintln!("faulted canonical trace written to {path}");
    }
    if let Some(path) = opts.get("clean-trace-out") {
        std::fs::write(path, canonical_trace(&out.clean_trace)).expect("write trace");
        eprintln!("clean canonical trace written to {path}");
    }
    if let Some(path) = opts.get("svg") {
        std::fs::write(path, svg::render_default(&out.trace)).expect("write svg");
        eprintln!("faulted trace SVG written to {path}");
    }
    if let Some(path) = opts.get("chrome") {
        std::fs::write(path, chrome::to_chrome_json(&out.trace)).expect("write chrome trace");
        eprintln!("faulted chrome trace written to {path}");
    }
    #[cfg(feature = "metrics")]
    if let Some(path) = opts.get("metrics-out") {
        let mut snap = supersim::metrics::MetricsSnapshot::default();
        r.publish_metrics(&mut snap);
        std::fs::write(path, snap.to_json()).expect("write metrics");
        eprintln!("fault metrics written to {path}");
    }
}

/// Parse a comma-separated list flag; `None` when the flag is absent.
fn parse_list<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str) -> Option<Vec<T>> {
    opts.get(key).map(|v| {
        v.split(',')
            .map(|p| {
                p.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad value in --{key}: {p}");
                    exit(2)
                })
            })
            .collect()
    })
}

/// Expand and execute a scenario matrix; see the module docs for flags.
fn cmd_sweep(opts: &HashMap<String, String>) {
    use supersim::workloads::sweep::{
        FaultPlanSpec, InterconnectSpec, SweepBackend, SweepModels, SweepSpec,
    };

    let defaults = SweepSpec::default();
    let algorithms = opts.get("alg").map_or(defaults.algorithms.clone(), |v| {
        v.split(',')
            .map(|name| match name.trim() {
                "cholesky" => Algorithm::Cholesky,
                "qr" => Algorithm::Qr,
                "lu" => Algorithm::Lu,
                other => {
                    eprintln!("unknown algorithm {other} (cholesky|qr|lu)");
                    exit(2)
                }
            })
            .collect()
    });
    let schedulers = opts
        .get("schedulers")
        .map_or(defaults.schedulers.clone(), |v| {
            v.split(',')
                .map(|name| match name.trim() {
                    "quark" => SchedulerKind::Quark,
                    "starpu" => SchedulerKind::StarPu,
                    "ompss" => SchedulerKind::OmpSs,
                    other => {
                        eprintln!("unknown scheduler {other} (quark|starpu|ompss)");
                        exit(2)
                    }
                })
                .collect()
        });
    let latency = get(opts, "latency", 1e-5f64);
    let bandwidth = get(opts, "bandwidth", 1e10f64);
    let interconnects = opts
        .get("interconnects")
        .map_or(defaults.interconnects.clone(), |v| {
            v.split(',')
                .map(|name| {
                    InterconnectSpec::parse(name.trim(), latency, bandwidth).unwrap_or_else(|| {
                        eprintln!("unknown interconnect {name} (zero|hockney|sharedlink)");
                        exit(2)
                    })
                })
                .collect()
        });
    let plans = opts.get("plans").map_or(defaults.plans.clone(), |v| {
        v.split(',')
            .map(|name| {
                FaultPlanSpec::preset(name.trim()).unwrap_or_else(|| {
                    eprintln!("unknown fault plan {name} (clean|straggler|transient|kill)");
                    exit(2)
                })
            })
            .collect()
    });
    let backend = opts.get("backend").map_or(defaults.backend, |v| {
        SweepBackend::parse(v).unwrap_or_else(|| {
            eprintln!("unknown sweep backend {v} (auto|des|threaded)");
            exit(2)
        })
    });
    // One shared read-only model database for every cell: either loaded
    // from a calibration file or the synthetic default.
    let models = match opts.get("calibration") {
        None => defaults.models.clone(),
        Some(path) => {
            let db = CalibrationDb::load(std::path::Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot load calibration: {e}");
                exit(2)
            });
            eprintln!("sweep models: {}", db.description);
            SweepModels::Shared(db.shared_models())
        }
    };

    let spec = SweepSpec {
        algorithms,
        orders: parse_list(opts, "n").unwrap_or_default(),
        tile_counts: parse_list(opts, "tiles").unwrap_or(defaults.tile_counts.clone()),
        tile_sizes: parse_list(opts, "nb").unwrap_or(defaults.tile_sizes.clone()),
        schedulers,
        worker_counts: parse_list(opts, "workers").unwrap_or(defaults.worker_counts.clone()),
        node_counts: parse_list(opts, "nodes").unwrap_or(defaults.node_counts.clone()),
        interconnects,
        plans,
        seeds: parse_list(opts, "seeds").unwrap_or(defaults.seeds.clone()),
        backend,
        models,
        overhead_per_task: get(opts, "overhead", 0.0f64),
        nic_lanes: parse_list(opts, "nic-lanes").map(|v: Vec<usize>| v[0]),
        autotune: opts.get("autotune").cloned(),
    };

    let cells = spec.cells().len();
    let jobs = get(opts, "jobs", 0usize);
    eprintln!(
        "sweep: {cells} cells, jobs={}",
        if jobs == 0 {
            "auto".to_string()
        } else {
            jobs.to_string()
        }
    );
    let outcome = spec.run(jobs);
    eprintln!(
        "swept {} cells on {} threads in {:.3}s ({:.1} cells/s); Pareto frontier: {} cells",
        outcome.report.cells_total,
        outcome.jobs,
        outcome.wall_seconds,
        outcome.cells_per_sec(),
        outcome.report.pareto.frontier.len()
    );
    if let Some(tune) = &outcome.report.autotune {
        eprintln!("autotune: best {} = {}", tune.axis, tune.best);
    }

    let json = outcome.report.to_json();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &json).expect("write report");
            eprintln!("merged report written to {path}");
        }
        None => println!("{json}"),
    }
    if let Some(path) = opts.get("csv") {
        std::fs::write(path, outcome.report.to_csv()).expect("write csv");
        eprintln!("csv report written to {path}");
    }
    if let Some(path) = opts.get("counts-out") {
        std::fs::write(path, outcome.report.counts()).expect("write counts");
        eprintln!("rank-keyed counts written to {path}");
    }
    #[cfg(feature = "metrics")]
    if let Some(path) = opts.get("metrics-out") {
        std::fs::write(path, outcome.metrics.to_json()).expect("write metrics");
        eprintln!("merged metrics written to {path}");
    }
}

/// Start the resident simulation service (see DESIGN.md §11). Blocks
/// until `POST /shutdown`.
fn cmd_serve(opts: &HashMap<String, String>) {
    let config = supersim::serve::ServeConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8077".to_string()),
        workers: get(opts, "serve-workers", 0usize),
        queue: get(opts, "queue", 4usize),
        default_timeout_ms: get(opts, "timeout-ms", 30_000u64),
        retry_after_secs: get(opts, "retry-after", 1u64),
    };
    let addr = config.addr.clone();
    let server = supersim::serve::Server::bind(config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        exit(2)
    });
    eprintln!(
        "serving on http://{}  (POST /run, POST /sweep, GET /healthz, GET /metrics, POST /shutdown)",
        server.local_addr()
    );
    server.run();
}

fn cmd_dag(opts: &HashMap<String, String>) {
    let alg = algorithm(opts);
    let nt = get(opts, "nt", 4usize);
    let (a, t) = supersim::workloads::stream::layout(alg, nt * 8, 8);
    let mut builder = supersim::dag::DagBuilder::new();
    for task in supersim::workloads::stream::tasks(alg, &a, t.as_ref()) {
        builder.submit(task.label, 1.0, &task.accesses);
    }
    let g = builder.finish();
    let profile = supersim::dag::analysis::profile(&g);
    println!(
        "{} DAG ({nt}x{nt} tiles): {} tasks, {} edges ({} dependences), depth {}, max width {}, avg parallelism {:.2}",
        alg.name(),
        profile.tasks,
        profile.edges,
        profile.dependences,
        profile.depth,
        profile.max_width,
        profile.avg_parallelism
    );
    if let Some(path) = opts.get("dot") {
        std::fs::write(path, supersim::dag::dot::to_dot_default(&g)).expect("write dot");
        println!("DOT written to {path}");
    }
}

/// Run a synthetic simulated workload once per requested TEQ wakeup mode,
/// publish every instrumented component into one snapshot, and dump it.
#[cfg(feature = "metrics")]
fn cmd_metrics(opts: &HashMap<String, String>) {
    use supersim::core::WakeupMode;
    use supersim::metrics::MetricsSnapshot;

    let alg = match opts
        .get("workload")
        .or_else(|| opts.get("alg"))
        .map(String::as_str)
    {
        Some("cholesky") | None => Algorithm::Cholesky,
        Some("qr") => Algorithm::Qr,
        Some("lu") => Algorithm::Lu,
        Some("cluster-cholesky") => {
            cmd_metrics_cluster(opts, Algorithm::Cholesky);
            return;
        }
        Some("cluster-lu") => {
            cmd_metrics_cluster(opts, Algorithm::Lu);
            return;
        }
        Some(other) => {
            eprintln!("unknown workload {other} (cholesky|qr|lu|cluster-cholesky|cluster-lu)");
            exit(2)
        }
    };
    let kind = scheduler(opts);
    let n = get(opts, "n", 512usize);
    let nb = get(opts, "nb", 64usize);
    let workers = get(opts, "workers", 8usize);
    let seed = get(opts, "seed", 42u64);
    let modes: &[WakeupMode] = match opts.get("mode").map(String::as_str) {
        None | Some("both") => &[WakeupMode::Targeted, WakeupMode::Broadcast],
        Some("targeted") => &[WakeupMode::Targeted],
        Some("broadcast") => &[WakeupMode::Broadcast],
        Some(other) => {
            eprintln!("unknown --mode {other} (both|targeted|broadcast)");
            exit(2)
        }
    };

    let backend = backend(opts);
    if let Err(e) = backend.supports(kind) {
        eprintln!("{e}");
        exit(2)
    }
    let mut snap = MetricsSnapshot::default();
    let mut last_trace = None;
    for &mode in modes {
        let mut models = ModelRegistry::new();
        for l in alg.labels() {
            models.insert(*l, KernelModel::new(Dist::log_normal(-6.0, 0.3).unwrap()));
        }
        let session = SimSession::new(
            models,
            SimConfig {
                seed,
                wakeup_mode: mode,
                ..SimConfig::default()
            },
        );
        attach_stream_sink(&session, opts);
        let run = Scenario::new(alg)
            .scheduler(kind)
            .workers(workers)
            .n(n)
            .tile_size(nb)
            .session(session.clone())
            .backend(backend)
            .run_sim();
        session.publish_metrics(&mut snap);
        run.stats.publish_metrics(&mut snap);
        // In streaming mode the finished trace is empty by design — the
        // spans went to the sink — so count resident + drained.
        eprintln!(
            "{mode:?} wakeups: {} tasks, predicted {:.4}s (wall {:.4}s)",
            run.trace.len() as u64 + session.trace_recorder().drained(),
            run.predicted_seconds,
            run.wall_seconds
        );
        last_trace = Some(run.trace);
    }
    // All engine counters (sim.*, des.*, trace.*) are per-session and
    // arrive via session.publish_metrics above — nothing process-global
    // remains to fold in.
    let json = snap.to_json();
    println!("{json}");
    if let Some(path) = opts.get("out") {
        std::fs::write(path, &json).expect("write metrics");
        eprintln!("metrics written to {path}");
    }
    let trace = last_trace.expect("at least one mode ran");
    if let Some(path) = opts.get("chrome") {
        std::fs::write(path, chrome::to_chrome_json_with_metrics(&trace, &snap))
            .expect("write chrome trace");
        eprintln!("chrome trace written to {path}");
    }
    if let Some(path) = opts.get("trace-out") {
        std::fs::write(path, canonical_trace(&trace)).expect("write trace");
        eprintln!("canonical trace written to {path}");
    }
}

/// `supersim metrics --workload cluster-cholesky|cluster-lu`: run a
/// distributed simulated workload and dump cluster instrumentation
/// (transfer counts/bytes, per-node NIC busy time) alongside the session
/// and engine metrics.
#[cfg(feature = "metrics")]
fn cmd_metrics_cluster(opts: &HashMap<String, String>, alg: Algorithm) {
    use std::sync::Arc;
    use supersim::cluster::{ClusterSpec, Hockney};
    use supersim::metrics::MetricsSnapshot;

    let n = get(opts, "n", 480usize);
    let nb = get(opts, "nb", 60usize);
    let nodes = get(opts, "nodes", 4usize);
    let workers = get(opts, "workers", 2usize);
    let seed = get(opts, "seed", 42u64);

    let mut models = ModelRegistry::new();
    for l in alg.labels() {
        models.insert(
            *l,
            KernelModel::with_warmup(Dist::log_normal(-6.0, 0.3).unwrap(), 1.5),
        );
    }
    let session = SimSession::new(
        models,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    attach_stream_sink(&session, opts);
    let run = Scenario::new(alg)
        .n(n)
        .tile_size(nb)
        .session(session.clone())
        .cluster(ClusterSpec::new(nodes, workers))
        .interconnect(Arc::new(Hockney::new(1e-5, 1e10)))
        .placement(Arc::new(BlockCyclic::square(nodes)))
        .backend(backend(opts))
        .run_cluster();

    let mut snap = MetricsSnapshot::default();
    session.publish_metrics(&mut snap);
    run.stats.publish_metrics(&mut snap);
    snap.push_counter("cluster.transfers", run.transfers);
    snap.push_counter("cluster.transfer.bytes", run.transfer_bytes);
    snap.push_gauge("cluster.nodes", nodes as i64);
    for node in 0..nodes {
        snap.push_counter(
            &format!("cluster.node.{node:02}.transfers"),
            run.node_transfers[node],
        );
        snap.push_counter(
            &format!("cluster.node.{node:02}.transfer.bytes"),
            run.node_bytes[node],
        );
        snap.push_gauge(
            &format!("cluster.node.{node:02}.nic.busy_us"),
            (run.nic_busy_seconds[node] * 1e6).round() as i64,
        );
    }
    eprintln!(
        "cluster-{} metrics: {} compute tasks, {} transfers, predicted {:.4}s",
        alg.name(),
        run.compute_tasks,
        run.transfers,
        run.predicted_seconds
    );
    let json = snap.to_json();
    println!("{json}");
    if let Some(path) = opts.get("out") {
        std::fs::write(path, &json).expect("write metrics");
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = opts.get("chrome") {
        std::fs::write(path, chrome::to_chrome_json_with_metrics(&run.trace, &snap))
            .expect("write chrome trace");
        eprintln!("chrome trace written to {path}");
    }
    if let Some(path) = opts.get("trace-out") {
        std::fs::write(path, canonical_trace(&run.trace)).expect("write trace");
        eprintln!("canonical trace written to {path}");
    }
}

/// Without the `metrics` feature the instrumentation is compiled out, so
/// there is nothing to dump.
#[cfg(not(feature = "metrics"))]
fn cmd_metrics(_opts: &HashMap<String, String>) {
    eprintln!("this binary was built without the `metrics` feature; rebuild with default features");
    exit(2)
}

fn cmd_info() {
    println!("supersim {}", env!("CARGO_PKG_VERSION"));
    println!("algorithms: cholesky (Algorithm 1), qr (Algorithm 2), lu (extension)");
    println!("schedulers:");
    for kind in [
        SchedulerKind::Quark,
        SchedulerKind::StarPu,
        SchedulerKind::OmpSs,
    ] {
        let c = kind.config(1);
        println!(
            "  {:<8} policy={:?} window={}",
            kind.name(),
            c.policy,
            if c.window == usize::MAX {
                "unbounded".to_string()
            } else {
                c.window.to_string()
            }
        );
    }
    println!("race mitigations: quiesce (exact), sleep_yield (portable), none (demo)");
}
