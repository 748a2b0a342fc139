//! `supersim` — command-line front end for the superscalar scheduling
//! simulator.
//!
//! ```text
//! supersim real    --alg cholesky --n 720 --nb 90 [--scheduler quark]
//!                  [--workers 1] [--seed 42] [--trace-out spans.ndjson]
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
//! no calibration file needed) once per requested TEQ wakeup mode (once on
//! `--backend des`, which has no TEQ) and dumps the merged
//! [`supersim::metrics::MetricsSnapshot`] as JSON: TEQ traffic and
//! wait-latency histograms, engine counters, trace-shard occupancy.
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
//! which CI verifies. `real --trace-out` writes its wall-clock trace in
//! the same ndjson format, so `trace-convert` reads it too.
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
use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;
use supersim::calibrate::{calibrate, estimate_overhead, CalibrationDb, FitOptions};
use supersim::core::{SimConfig, SimSession, WakeupMode};
use supersim::prelude::*;
use supersim::trace::sink::ndjson_line;
use supersim::trace::{chrome, svg};
use supersim::workloads::scenario::{
    parse_scheduler, synthetic_model, uniform_models, SYNTHETIC_MU, SYNTHETIC_SIGMA,
};
use supersim::workloads::sweep::{FaultPlanSpec, InterconnectSpec, SweepModels, SweepSpec};

type Opts = HashMap<String, String>;

/// The scenario flags of the single-node recipes ([`scenario_from`]).
const SCENARIO: &str = "alg scheduler n nb workers seed";
/// The cluster flags ([`with_cluster`]).
const CLUSTER: &str = "nodes interconnect latency bandwidth nic-lanes placement";
/// The streaming-trace flags ([`session_for`]).
const STREAM: &str = "trace-stream stream-epoch";
/// The fault-plan flags ([`fault_plan`]).
const FAULTS: &str = "straggler straggler-node kill-worker kill-node transient \
                      transient-label degrade-link backoff-base backoff-cap \
                      restart-delay checkpoint";

/// The sweep's axis and output flags ([`cmd_sweep`]).
const SWEEP: &str = "alg n tiles nb schedulers workers nodes interconnects latency \
                     bandwidth nic-lanes plans seeds backend jobs overhead calibration \
                     autotune out csv counts-out metrics-out";

/// A command: its name, its body, and every flag it reads, as
/// space-separated flag sets. Any other flag is refused before it runs.
type Command = (&'static str, fn(&Opts), &'static [&'static str]);

const COMMANDS: &[Command] = &[
    ("real", cmd_real, &[SCENARIO, "trace-out calibration-out"]),
    (
        "sim",
        cmd_sim,
        &[SCENARIO, "calibration overhead svg chrome"],
    ),
    ("predict", cmd_predict, &[SCENARIO, "overhead"]),
    (
        "cluster",
        cmd_cluster,
        &[SCENARIO, "backend", CLUSTER, STREAM, "trace-out chrome svg"],
    ),
    (
        "faults",
        cmd_faults,
        &[
            SCENARIO,
            "backend",
            FAULTS,
            CLUSTER,
            "trace-out clean-trace-out svg chrome metrics-out",
        ],
    ),
    ("sweep", cmd_sweep, &[SWEEP]),
    (
        "serve",
        cmd_serve,
        &["addr serve-workers queue timeout-ms retry-after"],
    ),
    ("dag", cmd_dag, &["alg nt dot"]),
    (
        "metrics",
        cmd_metrics,
        &[
            "workload mode",
            SCENARIO,
            "backend",
            CLUSTER,
            STREAM,
            "out chrome trace-out",
        ],
    ),
    ("trace-convert", cmd_trace_convert, &["in out"]),
    ("info", cmd_info, &[]),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let cmd = args.remove(0);
    match COMMANDS.iter().find(|(name, ..)| *name == cmd) {
        Some((name, run, flags)) => run(&parse_flags(name, flags, &args)),
        None if matches!(cmd.as_str(), "help" | "--help" | "-h") => usage_and_exit(),
        None => {
            eprintln!("unknown command: {cmd}");
            usage_and_exit();
        }
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

/// Every rejected input ends here: one `error:` line on stderr, exit 2.
/// The messages about names and scenario legality are the library's
/// (`ScenarioError`); this file adds text only for flag syntax and files.
fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

/// Every stdout write goes through here. A reader that went away
/// (`supersim real … | head -1`) has what it wanted: that is a clean exit,
/// not the panic `println!` makes of it.
fn write_stdout(text: std::fmt::Arguments) {
    use std::io::Write as _;
    match std::io::stdout().write_fmt(text) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => exit(0),
        Err(e) => fail(format!("cannot write to stdout: {e}")),
    }
}

/// `println!` through [`write_stdout`].
macro_rules! say {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn or_fail<T, E: Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| fail(e))
}

/// `--key value` pairs of `cmd`'s arguments. A flag outside the
/// command's `flags` is refused with the list of the ones it reads: a
/// misspelt flag would otherwise run a plausible, wrong experiment.
fn parse_flags(cmd: &str, flags: &[&str], args: &[String]) -> Opts {
    let known = || flags.iter().flat_map(|set| set.split_whitespace());
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            fail(format!("unexpected argument {a}"))
        };
        if !known().any(|f| f == key) {
            let list: Vec<String> = known().map(|f| format!("--{f}")).collect();
            let list = if list.is_empty() {
                "none".to_string()
            } else {
                list.join(" ")
            };
            fail(format!(
                "unknown flag --{key} for {cmd} (its flags: {list})"
            ))
        }
        let Some(value) = it.next() else {
            fail(format!("flag --{key} needs a value"))
        };
        map.insert(key.to_string(), value.clone());
    }
    map
}

/// The flag's value parsed as `T`, if the flag was given.
fn opt<T: FromStr>(opts: &Opts, key: &str) -> Option<T> {
    opts.get(key).map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(format!("bad value for --{key}: {v}")))
    })
}

fn get<T: FromStr>(opts: &Opts, key: &str, default: T) -> T {
    opt(opts, key).unwrap_or(default)
}

/// A flag naming one value of the vocabulary; absent = the type's default.
fn named<T: Default, E: Display>(opts: &Opts, key: &str, parse: fn(&str) -> Result<T, E>) -> T {
    opts.get(key).map_or_else(T::default, |v| or_fail(parse(v)))
}

/// A comma-separated list flag, each item through `parse`; `None` when
/// the flag is absent.
fn list<T, E: Display>(
    opts: &Opts,
    key: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Option<Vec<T>> {
    opts.get(key).map(|v| {
        v.split(',')
            .map(|item| or_fail(parse(item.trim())))
            .collect()
    })
}

fn numbers<T: FromStr>(opts: &Opts, key: &str) -> Option<Vec<T>> {
    list(opts, key, |item| {
        item.parse()
            .map_err(|_| format!("bad value in --{key}: {item}"))
    })
}

/// One output file a command can write: `(flag, label, render)`.
type Output<'a> = (&'a str, &'a str, &'a dyn Fn() -> String);

/// Write every output whose flag was given and confirm each through
/// `note` (`<label> written to <path>`): stdout for the line-oriented
/// commands, stderr for those whose stdout is a JSON document.
fn write_outputs(opts: &Opts, note: fn(&str), outputs: &[Output]) {
    for (flag, label, render) in outputs {
        if let Some(path) = opts.get(*flag) {
            std::fs::write(path, render())
                .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
            note(&format!("{label} written to {path}"));
        }
    }
}

fn to_stdout(line: &str) {
    say!("{line}");
}

fn to_stderr(line: &str) {
    eprintln!("{line}");
}

/// The scenario the common flags (`--alg --scheduler --n --nb --workers
/// --seed`) describe; `(n, nb, workers)` are the command's size defaults —
/// the one thing the commands disagree on.
fn scenario_from(opts: &Opts, alg: Algorithm, (n, nb, workers): (usize, usize, usize)) -> Scenario {
    Scenario::new(alg)
        .scheduler(named(opts, "scheduler", parse_scheduler))
        .n(get(opts, "n", n))
        .tile_size(get(opts, "nb", nb))
        .workers(get(opts, "workers", workers))
        .seed(get(opts, "seed", 42u64))
}

/// `<cmd> <alg> n=<n> nb=<nb> workers=<w> scheduler=<s>`: the header line
/// of the single-node commands.
fn describe(cmd: &str, sc: &Scenario) -> String {
    format!(
        "{cmd} {} n={} nb={} workers={} scheduler={}",
        sc.algorithm_of().name(),
        sc.matrix_order(),
        sc.tile_size_of(),
        sc.workers_of(),
        sc.scheduler_of().name()
    )
}

/// The cluster flags (`--nodes --interconnect --latency --bandwidth
/// --nic-lanes --placement`) applied to `sc`, whose `--workers` count per
/// node. `nic_lanes` is the command's default lane count (`None` = the
/// interconnect model's preference).
fn with_cluster(
    opts: &Opts,
    sc: Scenario,
    nic_lanes: Option<usize>,
) -> (Scenario, ClusterSpec, Arc<dyn Interconnect>, BlockCyclic) {
    let nodes = get(opts, "nodes", 4usize);
    let name = opts.get("interconnect").map(String::as_str);
    let interconnect = or_fail(InterconnectSpec::parse(
        name,
        opt(opts, "latency"),
        opt(opts, "bandwidth"),
    ))
    .build();
    let spec = ClusterSpec {
        nodes,
        workers_per_node: sc.workers_of(),
        nic_lanes_per_node: get(
            opts,
            "nic-lanes",
            nic_lanes.unwrap_or(interconnect.default_nic_lanes()),
        ),
        mem_bytes_per_node: 0,
    };
    // `--nodes 0` is `validate`'s to reject; the grids only must not panic
    // on it first.
    let placement = match opts.get("placement").map(String::as_str) {
        None | Some("square") => BlockCyclic::square(nodes.max(1)),
        Some("row") => BlockCyclic::row(nodes.max(1)),
        Some("col") => BlockCyclic::col(nodes.max(1)),
        Some(grid) => {
            let parts: Vec<usize> = grid.split('x').map(|p| p.parse().unwrap_or(0)).collect();
            if parts.len() != 2 || parts[0].checked_mul(parts[1]) != Some(nodes) || nodes == 0 {
                fail(format!(
                    "--placement {grid} must be square|row|col or PxQ with P*Q = {nodes} nodes"
                ));
            }
            BlockCyclic::new(parts[0], parts[1])
        }
    };
    let sc = sc
        .cluster(spec.clone())
        .interconnect(interconnect.clone())
        .placement(Arc::new(placement));
    (sc, spec, interconnect, placement)
}

/// The built-in kernel models — no calibration file needed, and
/// deterministic for a given seed (the plan-based protocol keys durations
/// by submission rank, not worker): `logN(-6.0, 0.3)`, with a 1.5x
/// warm-up on the cluster recipes.
fn synthetic_models(alg: Algorithm, clustered: bool) -> ModelRegistry {
    let warmup = if clustered { 1.5 } else { 1.0 };
    let model = or_fail(synthetic_model(SYNTHETIC_MU, SYNTHETIC_SIGMA, warmup));
    uniform_models(&[alg], &model)
}

/// A session of its own for `sc`'s run, so the command can publish its
/// metrics afterwards, with `--trace-stream PATH [--stream-epoch S]`
/// honoured: a streaming ndjson sink on the recorder drains finalized
/// spans at virtual-time epoch boundaries instead of buffering the run.
fn session_for(
    opts: &Opts,
    sc: &Scenario,
    clustered: bool,
    wakeup_mode: WakeupMode,
) -> Arc<SimSession> {
    let session = SimSession::new(
        synthetic_models(sc.algorithm_of(), clustered),
        SimConfig {
            seed: sc.seed_of(),
            wakeup_mode,
            ..SimConfig::default()
        },
    );
    if let Some(path) = opts.get("trace-stream") {
        let epoch = get(opts, "stream-epoch", 1.0f64);
        if !epoch.is_finite() || epoch <= 0.0 {
            fail("--stream-epoch must be a positive number of virtual seconds");
        }
        let sink = supersim::trace::sink::NdjsonSink::create(path)
            .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
        session.trace_recorder().attach_sink(Box::new(sink), epoch);
        eprintln!("streaming spans to {path} (epoch {epoch}s)");
    }
    session
}

/// After a run on a [`session_for`] session: a `--trace-stream` file the
/// sink could not write fails the command.
fn check_trace_stream(opts: &Opts, session: &SimSession) {
    if let (Some(path), Some(e)) = (
        opts.get("trace-stream"),
        session.trace_recorder().sink_error(),
    ) {
        fail(format!("cannot write {path}: {e}"));
    }
}

/// `supersim trace-convert --in spans.ndjson [--out canonical.txt]`:
/// rebuild the canonical text projection from a streamed ndjson span
/// file — the bridge CI uses to byte-compare streamed and buffered runs.
fn cmd_trace_convert(opts: &Opts) {
    let input = opts
        .get("in")
        .unwrap_or_else(|| fail("trace-convert needs --in spans.ndjson"));
    let data = std::fs::read_to_string(input)
        .unwrap_or_else(|e| fail(format!("cannot read {input}: {e}")));
    let mut trace = supersim::trace::sink::parse_ndjson(&data)
        .unwrap_or_else(|e| fail(format!("bad ndjson in {input}: {e}")));
    trace.normalize();
    let label = format!("canonical trace ({} spans)", trace.len());
    match opts.get("out") {
        Some(_) => write_outputs(opts, to_stderr, &[("out", &label, &|| trace.canonical())]),
        None => write_stdout(format_args!("{}", trace.canonical())),
    }
}

fn cmd_real(opts: &Opts) {
    let sc = scenario_from(opts, named(opts, "alg", Algorithm::parse), (720, 90, 1));
    or_fail(sc.validate());
    say!("{}", describe("real", &sc));
    let run = sc.run_real();
    say!(
        "elapsed {:.4}s   {:.2} GFLOP/s   residual {:.2e}",
        run.seconds,
        run.gflops,
        run.residual
    );
    say!("{}", TraceStats::of(&run.trace).report());
    let calibration = || {
        let what = format!(
            "{} n={} nb={} workers={}",
            run.algorithm.name(),
            run.n,
            run.nb,
            run.workers
        );
        let cal = calibrate(&run.trace, FitOptions::default());
        CalibrationDb::new(what, run.n, run.nb, run.workers, cal).to_json()
    };
    write_outputs(
        opts,
        to_stdout,
        &[
            ("trace-out", "trace", &|| {
                run.trace
                    .spans()
                    .iter()
                    .map(|e| ndjson_line(e) + "\n")
                    .collect()
            }),
            ("calibration-out", "calibration", &calibration),
        ],
    );
}

fn cmd_sim(opts: &Opts) {
    let Some(cal_path) = opts.get("calibration") else {
        fail("sim requires --calibration FILE (produce one with `supersim real --calibration-out ...`)")
    };
    let db = CalibrationDb::load(std::path::Path::new(cal_path))
        .unwrap_or_else(|e| fail(format!("cannot load calibration: {e}")));
    if opts.get("overhead").map(String::as_str) == Some("auto") {
        fail("--overhead auto requires a trace; use `predict` instead");
    }
    let sc = scenario_from(opts, named(opts, "alg", Algorithm::parse), (2000, 100, 8));
    let config = SimConfig {
        seed: sc.seed_of(),
        overhead_per_task: get(opts, "overhead", 0.0),
        ..SimConfig::default()
    };
    let sc = sc.models(db.calibration.registry).config(config);
    or_fail(sc.validate());
    say!("{} (calibration: {})", describe("sim", &sc), db.description);
    let run = sc.run_sim();
    say!(
        "predicted {:.4}s   {:.2} GFLOP/s   (simulation wall time {:.4}s, {} tasks)",
        run.predicted_seconds,
        run.gflops,
        run.wall_seconds,
        run.trace.len()
    );
    write_outputs(
        opts,
        to_stdout,
        &[
            ("svg", "trace SVG", &|| {
                svg::render(&run.trace, &svg::SvgOptions::default())
            }),
            ("chrome", "chrome trace", &|| {
                chrome::to_chrome_json(&run.trace)
            }),
        ],
    );
}

fn cmd_predict(opts: &Opts) {
    let sc = scenario_from(opts, named(opts, "alg", Algorithm::parse), (720, 90, 1));
    or_fail(sc.validate());
    let model_overhead = opts.get("overhead").map(String::as_str) == Some("auto");

    say!("{}", describe("predict", &sc));
    let real = sc.clone().run_real();
    say!(
        "real:      {:.4}s  {:.2} GFLOP/s  residual {:.2e}",
        real.seconds,
        real.gflops,
        real.residual
    );
    let cal = calibrate(&real.trace, FitOptions::default());
    let overhead = if model_overhead {
        let est = estimate_overhead(&real.trace, 0.01)
            .map(|e| e.median_gap)
            .unwrap_or(0.0);
        say!(
            "overhead:  modeling {:.2} µs/task from trace gaps",
            est * 1e6
        );
        est
    } else {
        0.0
    };
    let config = SimConfig {
        seed: sc.seed_of(),
        overhead_per_task: overhead,
        ..SimConfig::default()
    };
    let sim = sc.models(cal.registry).config(config);
    or_fail(sim.validate());
    let sim = sim.run_sim();
    say!(
        "simulated: {:.4}s  {:.2} GFLOP/s  (sim wall {:.4}s)",
        sim.predicted_seconds,
        sim.gflops,
        sim.wall_seconds
    );
    let err = (sim.predicted_seconds - real.seconds) / real.seconds * 100.0;
    say!("error:     {err:+.2}%");
    let cmp = TraceComparison::compare(&real.trace, &sim.trace);
    say!("traces:    {}", cmp.summary());
}

/// Simulate a distributed run: N nodes of W workers, owner-computes
/// block-cyclic placement, automatic transfer tasks costed by the chosen
/// interconnect model. Prints a JSON report to stdout; the human summary
/// goes to stderr.
fn cmd_cluster(opts: &Opts) {
    use supersim::trace::chrome::LaneGroup;

    let alg = named(opts, "alg", Algorithm::parse);
    let sc = scenario_from(opts, alg, (960, 96, 4)).backend(named(opts, "backend", Backend::parse));
    let (sc, spec, interconnect, placement) = with_cluster(opts, sc, None);
    or_fail(sc.validate());
    let (n, nb, seed, backend) = (
        sc.matrix_order(),
        sc.tile_size_of(),
        sc.seed_of(),
        sc.backend_of(),
    );
    eprintln!(
        "cluster {} n={n} nb={nb} nodes={} workers={}/node nic-lanes={} \
         interconnect={} placement={} backend={}",
        alg.name(),
        spec.nodes,
        spec.workers_per_node,
        spec.nic_lanes_per_node,
        interconnect.name(),
        placement.name(),
        backend.name()
    );
    let session = session_for(opts, &sc, true, WakeupMode::default());
    let run = sc.session(session.clone()).run_cluster();
    check_trace_stream(opts, &session);
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
        nodes: spec.nodes,
        workers_per_node: spec.workers_per_node,
        nic_lanes_per_node: spec.nic_lanes_per_node,
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
    say!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serialize report")
    );

    let grouped_chrome = || {
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
        chrome::to_chrome_json_grouped(&run.trace, &lanes)
    };
    let lane_svg = || {
        let svg_opts = svg::SvgOptions {
            title: format!(
                "{} n={n} nb={nb}: {} nodes x {} workers over {}",
                alg.name(),
                spec.nodes,
                spec.workers_per_node,
                run.interconnect
            ),
            lane_names: spec.lane_names(),
            ..Default::default()
        };
        svg::render(&run.trace, &svg_opts)
    };
    write_outputs(
        opts,
        to_stderr,
        &[
            ("trace-out", "canonical trace", &|| run.trace.canonical()),
            ("chrome", "chrome trace", &grouped_chrome),
            ("svg", "trace SVG", &lane_svg),
        ],
    );
}

/// Parse a fault flag holding a comma-separated list of `:`-separated
/// numeric tuples, e.g. `--straggler 0:0.0:0.5:2.0,3:0.1:0.2:4.0`.
fn fault_tuples(opts: &Opts, key: &str, arity: usize) -> Vec<Vec<f64>> {
    let tuple = |item: &str| {
        let parts: Vec<f64> = item.split(':').flat_map(str::parse).collect();
        if parts.len() == arity && item.split(':').count() == arity {
            Ok(parts)
        } else {
            Err(format!(
                "bad --{key} entry {item:?} (need {arity} ':'-separated numbers)"
            ))
        }
    };
    list(opts, key, tuple).unwrap_or_default()
}

/// Assemble a [`FaultPlan`] from the `faults` command's flags. Events are
/// written down as given; `Scenario::validate` judges them.
fn fault_plan(opts: &Opts) -> FaultPlan {
    let window = |key: &str, scope: fn(usize) -> FaultScope| {
        let events = fault_tuples(opts, key, 4).into_iter();
        events.map(move |t| FaultEvent::Straggler {
            scope: scope(t[0] as usize),
            from: t[1],
            until: t[2],
            factor: t[3],
        })
    };
    let kill = |key: &str, scope: fn(usize) -> FaultScope| {
        let events = fault_tuples(opts, key, 2).into_iter();
        events.map(move |t| FaultEvent::PermanentFailure {
            scope: scope(t[0] as usize),
            at: t[1],
        })
    };
    let mut events: Vec<FaultEvent> = window("straggler", FaultScope::Worker)
        .chain(window("straggler-node", FaultScope::Node))
        .collect();
    for t in fault_tuples(opts, "degrade-link", 4) {
        events.push(FaultEvent::LinkDegradation {
            node: t[0] as usize,
            from: t[1],
            until: t[2],
            factor: t[3],
        });
    }
    for t in fault_tuples(opts, "transient", 3) {
        events.push(FaultEvent::Transient {
            label: opts.get("transient-label").cloned(),
            period: t[0] as u64,
            failures: t[1] as u32,
            fail_fraction: t[2],
        });
    }
    events.extend(kill("kill-worker", FaultScope::Worker));
    events.extend(kill("kill-node", FaultScope::Node));

    let defaults = RecoveryPolicy::default();
    let recovery = RecoveryPolicy {
        backoff_base: get(opts, "backoff-base", defaults.backoff_base),
        backoff_cap: get(opts, "backoff-cap", defaults.backoff_cap),
        restart_delay: get(opts, "restart-delay", defaults.restart_delay),
        checkpoint: fault_tuples(opts, "checkpoint", 3)
            .last()
            .map(|t| CheckpointPolicy {
                interval: t[0],
                snapshot_cost: t[1],
                restore_cost: t[2],
            }),
    };
    FaultPlan { events, recovery }
}

/// Clean-vs-faulted comparison under a deterministic fault plan. Without
/// `--nodes` the scenario mirrors the single-node `metrics` recipe
/// (synthetic lognormal models, n=512 nb=64 workers=8); with `--nodes` it
/// mirrors the `cluster` recipe (warm-up models, interconnect flags), so
/// an empty plan reproduces those commands' canonical traces bit-for-bit.
/// The [`supersim::faults::DegradationReport`] goes to stdout as JSON,
/// the human summary to stderr.
fn cmd_faults(opts: &Opts) {
    let clustered = opts.contains_key("nodes");
    let alg = named(opts, "alg", Algorithm::parse);
    let sizes = if clustered {
        (960, 96, 4)
    } else {
        (512, 64, 8)
    };
    let sc = scenario_from(opts, alg, sizes)
        .backend(named(opts, "backend", Backend::parse))
        .models(synthetic_models(alg, clustered))
        .faults(fault_plan(opts));
    let (sc, label) = if clustered {
        let (sc, spec, interconnect, _) = with_cluster(opts, sc, None);
        let label = format!(
            "faults {} n={} nb={} nodes={} workers={}/node interconnect={}",
            alg.name(),
            sc.matrix_order(),
            sc.tile_size_of(),
            spec.nodes,
            spec.workers_per_node,
            interconnect.name()
        );
        (sc, label)
    } else {
        let label = describe("faults", &sc);
        (sc, label)
    };
    or_fail(sc.validate());
    let label = format!("{label} backend={}", sc.backend_of().name());
    let out = sc.run_faults();

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
    say!(
        "{}",
        serde_json::to_string_pretty(r).expect("serialize report")
    );

    write_outputs(
        opts,
        to_stderr,
        &[
            ("trace-out", "faulted canonical trace", &|| {
                out.trace.canonical()
            }),
            ("clean-trace-out", "clean canonical trace", &|| {
                out.clean_trace.canonical()
            }),
            ("svg", "faulted trace SVG", &|| {
                svg::render(&out.trace, &svg::SvgOptions::default())
            }),
            ("chrome", "faulted chrome trace", &|| {
                chrome::to_chrome_json(&out.trace)
            }),
        ],
    );
    #[cfg(feature = "metrics")]
    write_outputs(
        opts,
        to_stderr,
        &[("metrics-out", "fault metrics", &|| {
            let mut snap = supersim::metrics::MetricsSnapshot::default();
            r.publish_metrics(&mut snap);
            snap.to_json()
        })],
    );
}

/// Expand and execute a scenario matrix; see the module docs for flags.
fn cmd_sweep(opts: &Opts) {
    let defaults = SweepSpec::default();
    let (latency, bandwidth) = (opt(opts, "latency"), opt(opts, "bandwidth"));
    // One shared read-only model database for every cell: either loaded
    // from a calibration file or the synthetic default.
    let models = match opts.get("calibration") {
        None => defaults.models,
        Some(path) => {
            let db = CalibrationDb::load(std::path::Path::new(path))
                .unwrap_or_else(|e| fail(format!("cannot load calibration: {e}")));
            eprintln!("sweep models: {}", db.description);
            SweepModels::Shared(db.shared_models())
        }
    };
    let spec = SweepSpec {
        algorithms: list(opts, "alg", Algorithm::parse).unwrap_or(defaults.algorithms),
        orders: numbers(opts, "n").unwrap_or_default(),
        tile_counts: numbers(opts, "tiles").unwrap_or(defaults.tile_counts),
        tile_sizes: numbers(opts, "nb").unwrap_or(defaults.tile_sizes),
        schedulers: list(opts, "schedulers", parse_scheduler).unwrap_or(defaults.schedulers),
        worker_counts: numbers(opts, "workers").unwrap_or(defaults.worker_counts),
        node_counts: numbers(opts, "nodes").unwrap_or(defaults.node_counts),
        interconnects: list(opts, "interconnects", |name| {
            InterconnectSpec::parse(Some(name), latency, bandwidth)
        })
        .unwrap_or(defaults.interconnects),
        plans: list(opts, "plans", FaultPlanSpec::parse).unwrap_or(defaults.plans),
        seeds: numbers(opts, "seeds").unwrap_or(defaults.seeds),
        backend: named(opts, "backend", Backend::parse_choice),
        models,
        overhead_per_task: get(opts, "overhead", 0.0f64),
        nic_lanes: opt(opts, "nic-lanes"),
        autotune: opts.get("autotune").cloned(),
    };

    let cells = or_fail(spec.try_cells()).len();
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
    if !opts.contains_key("out") {
        say!("{json}");
    }
    write_outputs(
        opts,
        to_stderr,
        &[
            ("out", "merged report", &|| json.clone()),
            ("csv", "csv report", &|| outcome.report.to_csv()),
            ("counts-out", "rank-keyed counts", &|| {
                outcome.report.counts()
            }),
        ],
    );
    #[cfg(feature = "metrics")]
    write_outputs(
        opts,
        to_stderr,
        &[("metrics-out", "merged metrics", &|| {
            outcome.metrics.to_json()
        })],
    );
}

/// Start the resident simulation service (see DESIGN.md §11). Blocks
/// until `POST /shutdown`.
fn cmd_serve(opts: &Opts) {
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
    let server = supersim::serve::Server::bind(config)
        .unwrap_or_else(|e| fail(format!("cannot bind {addr}: {e}")));
    eprintln!(
        "serving on http://{}  (POST /run, POST /sweep, GET /healthz, GET /metrics, POST /shutdown)",
        server.local_addr()
    );
    server.run();
}

fn cmd_dag(opts: &Opts) {
    let alg = named(opts, "alg", Algorithm::parse);
    let nt = get(opts, "nt", 4usize);
    or_fail(Scenario::new(alg).tiles(nt).tile_size(8).validate());
    let (a, t) = supersim::workloads::stream::layout(alg, nt * 8, 8);
    let mut builder = supersim::dag::DagBuilder::new();
    for task in supersim::workloads::stream::tasks(alg, &a, t.as_ref()) {
        builder.submit(task.label, 1.0, &task.accesses);
    }
    let g = builder.finish();
    let profile = supersim::dag::analysis::profile(&g);
    say!(
        "{} DAG ({nt}x{nt} tiles): {} tasks, {} edges ({} dependences), depth {}, max width {}, avg parallelism {:.2}",
        alg.name(),
        profile.tasks,
        profile.edges,
        profile.dependences,
        profile.depth,
        profile.max_width,
        profile.avg_parallelism
    );
    write_outputs(
        opts,
        to_stdout,
        &[("dot", "DOT", &|| supersim::dag::dot::to_dot_default(&g))],
    );
}

/// Run a synthetic simulated workload once per requested TEQ wakeup mode
/// (once on the DES backend, which has no TEQ), publish every
/// instrumented component into one snapshot, and dump it.
/// `--workload cluster-cholesky|cluster-lu` runs the distributed recipe
/// instead (once, over the default 4x2 Hockney cluster with one NIC lane
/// per node) and adds cluster instrumentation: transfer counts/bytes and
/// per-node NIC busy time.
#[cfg(feature = "metrics")]
fn cmd_metrics(opts: &Opts) {
    use supersim::metrics::MetricsSnapshot;

    let workload = opts.get("workload").or_else(|| opts.get("alg"));
    let workload = workload.map_or(Algorithm::default().name(), String::as_str);
    let (clustered, name) = match workload.strip_prefix("cluster-") {
        Some(name) => (true, name),
        None => (false, workload),
    };
    let alg = or_fail(Algorithm::parse(name));
    let backend = named(opts, "backend", Backend::parse);
    // The DES replay has no TEQ: a second wakeup mode would replay the
    // identical run again, so it runs once and refuses the other modes.
    let des = backend == Backend::Des;
    let both = [WakeupMode::Targeted, WakeupMode::Broadcast];
    let modes = match (opts.get("mode").map(String::as_str), clustered || des) {
        (Some(mode @ ("both" | "broadcast")), _) if des => fail(format!(
            "--mode {mode} needs --backend threaded: the DES replay has no TEQ wakeups"
        )),
        (None, false) | (Some("both"), _) => &both[..],
        (None, true) | (Some("targeted"), _) => &both[..1],
        (Some("broadcast"), _) => &both[1..],
        (Some(other), _) => fail(format!("unknown --mode {other} (both|targeted|broadcast)")),
    };
    let sizes = if clustered {
        (480, 60, 2)
    } else {
        (512, 64, 8)
    };
    let mut sc = scenario_from(opts, alg, sizes).backend(backend);
    if clustered {
        sc = with_cluster(opts, sc, Some(1)).0;
    }
    or_fail(sc.validate());

    let mut snap = MetricsSnapshot::default();
    let mut last_trace = None;
    for &mode in modes {
        let session = session_for(opts, &sc, clustered, mode);
        let sc = sc.clone().session(session.clone());
        let trace = if clustered {
            let run = sc.run_cluster();
            session.publish_metrics(&mut snap);
            run.stats.publish_metrics(&mut snap);
            snap.push_counter("cluster.transfers", run.transfers);
            snap.push_counter("cluster.transfer.bytes", run.transfer_bytes);
            snap.push_gauge("cluster.nodes", run.spec.nodes as i64);
            for node in 0..run.spec.nodes {
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
            run.trace
        } else {
            let run = sc.run_sim();
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
            run.trace
        };
        check_trace_stream(opts, &session);
        last_trace = Some(trace);
    }
    // All engine counters (sim.*, des.*, trace.*) are per-session and
    // arrive via session.publish_metrics above — nothing process-global
    // remains to fold in.
    let json = snap.to_json();
    say!("{json}");
    let trace = last_trace.expect("at least one mode ran");
    write_outputs(
        opts,
        to_stderr,
        &[
            ("out", "metrics", &|| json.clone()),
            ("chrome", "chrome trace", &|| {
                chrome::to_chrome_json_with_metrics(&trace, &snap)
            }),
            ("trace-out", "canonical trace", &|| trace.canonical()),
        ],
    );
}

/// Without the `metrics` feature the instrumentation is compiled out, so
/// there is nothing to dump.
#[cfg(not(feature = "metrics"))]
fn cmd_metrics(_opts: &Opts) {
    fail("this binary was built without the `metrics` feature; rebuild with default features")
}

fn cmd_info(_opts: &Opts) {
    say!("supersim {}", env!("CARGO_PKG_VERSION"));
    say!("algorithms: cholesky (Algorithm 1), qr (Algorithm 2), lu (extension)");
    say!("schedulers:");
    for kind in SchedulerKind::ALL {
        let c = kind.config(1);
        say!(
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
    say!("race mitigations: quiesce (exact), sleep_yield (portable), none (demo)");
}
