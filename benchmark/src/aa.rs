//! `--aa N`: the benchmark judging itself.
//!
//! Runs every workload as two interleaved sets A1 B1 A2 B2 ... of N runs
//! each, every run a fresh process with its own seed, exactly as the
//! acceptance rule does with a parent and a change — except that both
//! sets are the same code. Prints, per end-to-end metric, both medians,
//! how much worse the second is than the first, each set's quartile
//! distance as a share of its median, and PASS or FAIL against the
//! metric's bound.

use crate::schema::{EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::{workloads, Args};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One run's end-to-end metrics, from the last line of its stdout.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let doc: serde_json::Value = serde_json::from_str(last).map_err(|e| e.to_string())?;
    if doc.get("correct").and_then(|c| c.as_bool()) != Some(true) {
        return Err(format!(
            "{workload} seed {seed} reported incorrect outputs: {last}"
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64())
                .map(|v| (m.name.to_string(), v))
                .ok_or_else(|| format!("{workload}: no {} in {last}", m.name))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if m.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn run(args: &Args, n: usize) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut all_pass = true;
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "IQR A", "IQR B", "bound"
    );
    for name in names {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for i in 0..n {
            for (set, values) in sets.iter_mut().enumerate() {
                let seed = args.seed + (2 * i + set) as u64;
                match run_once(name, seed, args.seconds) {
                    Ok(metrics) => {
                        for (k, v) in metrics {
                            values.entry(k).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for m in &END_TO_END {
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let (med_a, med_b) = (median(a), median(b));
            let worse = worse_by(m, med_a, med_b);
            let (iqr_a, iqr_b) = (iqr_share(a), iqr_share(b));
            // The acceptance rule: B's median no worse than A's by more
            // than the bound, and (set-up time aside) each spread within it.
            let spread_ok = m.name == "setup_s" || iqr_a.max(iqr_b) <= m.bound;
            let pass = worse <= m.bound && spread_ok;
            all_pass &= pass;
            let note = if !pass {
                "FAIL"
            } else if worse.abs() > m.bound / 2.0
                || (m.name != "setup_s" && iqr_a.max(iqr_b) > m.bound / 3.0)
            {
                "PASS (noisy: lengthen the run or demote the metric)"
            } else {
                "PASS"
            };
            println!(
                "{:<16} {:<12} {:>12.5} {:>12.5} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {note}",
                name,
                m.name,
                med_a,
                med_b,
                worse * 100.0,
                iqr_a * 100.0,
                iqr_b * 100.0,
                m.bound * 100.0
            );
        }
    }
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
