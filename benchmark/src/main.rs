//! supersim's regression benchmark. See README.md for the metric tables.
//!
//! ```text
//! supersim-benchmark [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick]
//! supersim-benchmark --aa [N]        A/A check: two interleaved sets of N runs per workload
//! supersim-benchmark schema          print BENCHMARK.json
//! supersim-benchmark record          re-record data/ (runs real kernels; by hand only)
//! ```
//!
//! One process runs one workload. Without `--workload` the binary re-runs
//! itself once per workload, so high-water marks never mix.

mod aa;
mod alloc;
mod calib;
mod driver;
mod pin;
mod schema;
mod spans;
mod stats;
mod workloads;

use driver::{run_section, Metrics, Section, TracedSections, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The paper's worst-case accuracy claim, asserted on every run: a
/// held-out prediction further than this from the recorded real makespan
/// makes the run incorrect, whatever its speed.
const ACCURACY_ENVELOPE_PCT: f64 = 16.0;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub aa: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        aa: None,
    };
    let mut it = argv.iter().peekable();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    // `--trace` and `--aa` take an optional value: the next argument counts
    // only when it is a number.
    let optional_number = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
        let n = it.peek().and_then(|v| v.parse::<usize>().ok());
        if n.is_some() {
            it.next();
        }
        n
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(value(arg, it.next())?),
            "--seed" => {
                a.seed = value(arg, it.next())?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                a.seconds = value(arg, it.next())?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => a.trace = optional_number(&mut it).unwrap_or(1) != 0,
            "--quick" => a.quick = true,
            "--aa" => a.aa = Some(optional_number(&mut it).unwrap_or(10).max(2)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.quick {
        a.seconds /= 10.0;
    }
    Ok(a)
}

/// Where `data/` and `out/` live: next to `run.sh`, which exports its own
/// directory; a binary started by hand falls back to where it was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("SUPERSIM_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

extern "C" {
    /// glibc: give free heap pages back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Forget the set-up's memory, so `peak_rss_mb` is the timed section's own
/// high-water mark: return the pages the set-up freed (its round-trip
/// checks hold whole traces for a moment), then reset `VmHWM` to what is
/// resident now. Where the kernel refuses the reset, the set-up's peak
/// stays in — the same on every commit measured in that place.
fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator already holds free; no other thread of this process is
    // running application code while the driver is between sections.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("schema") => {
            print!("{}", schema::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("record") => {
            return match calib::record(&bench_dir().join("data")) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("record: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--aa [N]]");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.aa {
        return aa::run(&args, n);
    }
    match &args.workload {
        // A wrong answer is reported in the result line (`correct`), for
        // the caller to weigh; only a run that could not finish fails.
        Some(name) => match run_workload(name, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{name}: {e}");
                ExitCode::FAILURE
            }
        },
        None => run_all(&argv),
    }
}

/// No `--workload`: one child process per workload, in order.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut worst = ExitCode::SUCCESS;
    for name in workloads::NAMES {
        println!("== {name} ==");
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", name])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("{name}: run failed");
            worst = ExitCode::FAILURE;
        }
    }
    worst
}

fn run_workload(name: &str, args: &Args) -> Result<(), String> {
    if !workloads::NAMES.contains(&name) {
        return Err(format!("unknown workload (one of {:?})", workloads::NAMES));
    }
    // Before anything spawns: engine and server threads inherit the mask.
    let (unpinned_mask, pinned_cpus) = pin::pin_to_one();
    if pinned_cpus == 0 {
        eprintln!("warning: sched_setaffinity refused; results depend on thread placement");
    }
    if args.quick {
        println!("--quick: a smoke run, not comparable with full runs");
    }
    let ctx = workloads::Ctx {
        seed: args.seed,
        data_dir: bench_dir().join("data"),
        unpinned_mask,
    };
    if args.trace {
        spans::install();
    }

    // Set-up: everything before the first timed op, and the only place
    // caches fill. Repeated, because one set-up is a second or two of work
    // and its time is a gated metric; the last instance is the one used.
    let reps = if args.trace || args.quick {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..reps {
        drop(workload.take());
        let t0 = Instant::now();
        let w = spans::within("setup", || workloads::setup(name, &ctx))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up ran");
    if !reset_peak_rss() {
        eprintln!("warning: cannot reset VmHWM; peak RSS figures include the set-up");
    }

    let sim_err_pct = w.sim_err_pct();
    println!(
        "{name}/sim_err_pct: {sim_err_pct:?} % (asserted envelope: {ACCURACY_ENVELOPE_PCT} %)"
    );

    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    let attempted;
    let failed;
    if !args.trace {
        let s = run_section(w.as_mut(), args.seconds, 0);
        let rss = driver::peak_rss_mb();
        let counted = driver::run_counted(w.as_mut(), s.ops());
        attempted = s.ops() + counted.ops;
        failed = s.failed + counted.failed;
        e2e.put("setup_s", stats::median(&setup_s), "s");
        e2e.put("ops_per_s", s.ops_per_s(), "1/s");
        e2e.put("op_p50_ms", s.p50_ms(), "ms");
        e2e.put("peak_heap_mb", counted.peak_heap_mb, "MiB");
        print_section_summary(name, &s, w.as_ref(), pinned_cpus);
        println!("{name}/peak_rss_mb: {rss:?} MiB (timed section; ungated, see README)");
    } else {
        // Untraced half first (spans off), then the traced half with the
        // span log and the sink wrappers on, then the counted section with
        // spans off again: two atomic updates per allocation would
        // otherwise pass for tracing overhead.
        let log = spans::take();
        let untraced = run_section(w.as_mut(), args.seconds / 2.0, 0);
        if let Some(log) = log {
            spans::put_back(log);
        }
        w.trace_mode(true);
        let traced = run_section(w.as_mut(), args.seconds / 2.0, untraced.ops());
        w.trace_mode(false);
        let rss = driver::peak_rss_mb();
        let log = spans::take();
        let counted = driver::run_counted(w.as_mut(), untraced.ops() + traced.ops());
        if let Some(log) = log {
            spans::put_back(log);
        }
        attempted = untraced.ops() + traced.ops() + counted.ops;
        failed = untraced.failed + traced.failed + counted.failed;
        print_section_summary(name, &untraced, w.as_ref(), pinned_cpus);

        op_metrics(&mut layers, &untraced, &traced);
        layers.put("ops_failed", failed as f64, "count");
        layers.put("pinned_cpus", f64::from(pinned_cpus), "count");
        layers.put(
            "proc.cpu_per_wall",
            untraced.cpu_s / untraced.wall_s,
            "ratio",
        );
        layers.put("mem.peak_rss_mb", rss, "MiB");
        layers.put("mem.peak_heap_mb", counted.peak_heap_mb, "MiB");
        layers.put("mem.allocs_per_op", counted.allocs_per_op, "count");
        let (tasks, spans_per_op) = w.sim_size();
        layers.put("sim.tasks_per_op", tasks, "count");
        layers.put("sim.spans_per_op", spans_per_op, "count");
        layers.put("sim.tasks_per_s", tasks * untraced.ops_per_s(), "1/s");
        layers.put("sim.err_pct", sim_err_pct, "%");
        layers.put(
            "sim.digest32",
            (w.sim_digest().value() & 0xffff_ffff) as f64,
            "count",
        );
        layers.put("calibrate.fit_ms", w.fit_ms(), "ms");
        layers.put("setup.traced_s", setup_s[0], "s");
        layers.put(
            "setup.calibrate_share",
            w.fit_ms() / 1e3 / setup_s[0],
            "ratio",
        );
        w.layer_metrics(
            &TracedSections {
                untraced: &untraced,
                traced: &traced,
            },
            &mut layers,
        );
        if let Some(log) = spans::take() {
            harness_share(&log, &mut layers);
            write_trace(name, &log)?;
        }
    }
    drop(w);

    let correct = failed == 0 && sim_err_pct <= ACCURACY_ENVELOPE_PCT;
    let (declared, measured): (Vec<(&str, &str)>, &Metrics) = if args.trace {
        (
            schema::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
            &layers,
        )
    } else {
        (
            schema::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect(),
            &e2e,
        )
    };
    for (n, _, _) in &measured.0 {
        debug_assert!(
            declared.iter().any(|(d, _)| d == n),
            "undeclared metric {n}"
        );
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (metric, unit)) in declared.iter().enumerate() {
        // A layer this workload does not exercise reads 0.
        let mut v = measured.get(metric).unwrap_or(0.0);
        if !v.is_finite() {
            eprintln!("warning: {metric} is not finite; reporting 0");
            v = 0.0;
        }
        println!("{name}/{metric}: {v:?} {unit}");
        let comma = if i > 0 { ", " } else { "" };
        json.push_str(&format!(
            "{comma}\"{metric}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Counts a reader wants next to the metrics: not gated, not in the JSON.
fn print_section_summary(name: &str, s: &Section, w: &dyn Workload, pinned_cpus: u32) {
    println!("{name}/pinned_cpus: {pinned_cpus}");
    println!("{name}/ops_total: {}", s.ops());
    println!("{name}/ops_failed: {}", s.failed);
    println!("{name}/sim_digest: {:#018x}", w.sim_digest().value());
    println!(
        "{name}/segment_ops_per_s: {:?}",
        s.segment_ops_per_s
            .iter()
            .map(|r| (r * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
}

/// Medians and tails of the untraced half, and what tracing cost.
fn op_metrics(out: &mut Metrics, untraced: &Section, traced: &Section) {
    let lat = stats::sorted(&untraced.lat_ms);
    out.put("op.n", lat.len() as f64, "count");
    out.put("op.p50_ms", stats::percentile_sorted(&lat, 50.0), "ms");
    out.put("op.p90_ms", stats::percentile_sorted(&lat, 90.0), "ms");
    // The highest percentile with ten samples beyond it; a sample too
    // small for any reports its median as the tail.
    let (pct, tail) = stats::tail(&lat).unwrap_or((50.0, stats::percentile_sorted(&lat, 50.0)));
    out.put("op.tail_ms", tail, "ms");
    out.put("op.tail_pct", pct, "%");
    out.put("op.traced_p50_ms", traced.p50_ms(), "ms");
    out.put(
        "trace_overhead_pct",
        (untraced.ops_per_s() - traced.ops_per_s()) / untraced.ops_per_s() * 100.0,
        "%",
    );
}

/// Share of the op spans' time not covered by child spans: the harness's
/// own loop, checks aside.
fn harness_share(log: &spans::SpanLog, out: &mut Metrics) {
    let own = log.self_times_ns();
    let (mut total, mut harness) = (0u64, 0u64);
    for (s, own) in log.spans().iter().zip(own) {
        if s.name == "op" {
            total += s.end_ns - s.start_ns;
            harness += own;
        }
    }
    if total > 0 {
        out.put(
            "bench.harness_self_pct",
            harness as f64 / total as f64 * 100.0,
            "%",
        );
    }
}

fn write_trace(name: &str, log: &spans::SpanLog) -> Result<(), String> {
    log.check_nesting()?;
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{name}.json"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    log.write_json(name, &mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{name}/trace_file: {} ({} spans)",
        path.display(),
        log.spans().len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "des-dense",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("des-dense"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, false));
        assert!(args(&["--trace", "1"]).unwrap().trace);
        // Bare `--trace` means on, and does not swallow the next flag.
        let a = args(&["--trace", "--seed", "3"]).unwrap();
        assert!(a.trace && a.seed == 3);
        assert_eq!(args(&["--aa"]).unwrap().aa, Some(10));
        assert_eq!(args(&["--aa", "4"]).unwrap().aa, Some(4));
        assert_eq!(
            args(&["--quick"]).unwrap().seconds,
            schema::RUN_SECONDS as f64 / 10.0
        );
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
