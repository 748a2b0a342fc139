//! The closed-loop driver: one client, one op in flight, every op checked.

use crate::spans;
use crate::stats::{median, percentile_sorted, sorted, SimDigest};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Segments per timed section; `ops_per_s` is the median of their rates.
pub const SEGMENTS: usize = 5;

/// What one op reports back to the driver.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// The op's output matched the reference for its inputs.
    pub ok: bool,
    /// Request class, for workloads that mix several (0 otherwise).
    pub class: u8,
}

/// One benchmark workload. `setup` constructors live on the concrete
/// types; everything the timed loop needs is here.
pub trait Workload {
    /// Ops per indivisible block: segments end on block boundaries, so
    /// every segment of a mixed workload holds the same mix.
    fn block_len(&self) -> u64 {
        1
    }

    /// Ops in the section run under the counting allocator after the timed
    /// one: whole blocks, and every distinct input at least once.
    fn counted_ops(&self) -> u64;

    /// Run op number `index` and check its output. With span recording on,
    /// the op wraps its public calls in child spans.
    fn op(&mut self, index: u64) -> OpOutcome;

    /// Checks too slow for the timed loop, run after a section on a sample
    /// of its ops. Returns how many of them failed.
    fn verify_after(&mut self) -> u64 {
        0
    }

    /// Digest of every reference tuple ops are checked against.
    fn sim_digest(&self) -> SimDigest;

    /// Simulated tasks and trace spans one op produces, averaged over the
    /// op cycle (exact: both are functions of the inputs).
    fn sim_size(&self) -> (f64, f64);

    /// `parse_ndjson` + `calibrate` wall time of the last set-up.
    fn fit_ms(&self) -> f64;

    /// Held-out prediction error (see `calib`), on this workload's backend.
    fn sim_err_pct(&self) -> f64;

    /// Entering or leaving the traced section: workloads whose child spans
    /// need a wrapper inside the program's call path switch it here.
    fn trace_mode(&mut self, _on: bool) {}

    /// `--trace 1` only: workload counters and layer probes.
    fn layer_metrics(&mut self, sections: &TracedSections<'_>, out: &mut Metrics);
}

/// Everything measured over one timed section.
#[derive(Debug, Default)]
pub struct Section {
    pub lat_ms: Vec<f64>,
    pub class: Vec<u8>,
    pub segment_ops_per_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub failed: u64,
}

impl Section {
    pub fn ops(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        median(&self.segment_ops_per_s)
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// Ascending latencies of one request class.
    pub fn class_sorted(&self, class: u8) -> Vec<f64> {
        let v: Vec<f64> = self
            .lat_ms
            .iter()
            .zip(&self.class)
            .filter(|(_, c)| **c == class)
            .map(|(l, _)| *l)
            .collect();
        sorted(&v)
    }

    pub fn class_p50_ms(&self, class: u8) -> f64 {
        let v = self.class_sorted(class);
        if v.is_empty() {
            0.0
        } else {
            percentile_sorted(&v, 50.0)
        }
    }
}

/// The two halves of a `--trace 1` run.
pub struct TracedSections<'a> {
    pub untraced: &'a Section,
    pub traced: &'a Section,
}

/// One op, timed and fenced: a panic inside it is a failed op, not a crash.
fn timed_op(w: &mut dyn Workload, index: u64) -> (f64, OpOutcome) {
    spans::set_op(index);
    let _op_span = spans::enter("op");
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| w.op(index)));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    (
        ms,
        outcome.unwrap_or(OpOutcome {
            ok: false,
            class: 0,
        }),
    )
}

/// Run `w` closed-loop for `seconds`, starting at op number `first`.
/// The section is cut into [`SEGMENTS`] spans of equal time; each ends at
/// the first block boundary past its deadline and reports ops / wall.
pub fn run_section(w: &mut dyn Workload, seconds: f64, first: u64) -> Section {
    let block = w.block_len();
    let seg_len = seconds / SEGMENTS as f64;
    let mut s = Section::default();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut seg_start = t0;
    let mut seg_ops = 0u64;
    let mut index = first;
    while s.segment_ops_per_s.len() < SEGMENTS {
        for _ in 0..block {
            let (ms, outcome) = timed_op(w, index);
            s.lat_ms.push(ms);
            s.class.push(outcome.class);
            s.failed += u64::from(!outcome.ok);
            index += 1;
        }
        seg_ops += block;
        let now = Instant::now();
        let due = seg_len * (s.segment_ops_per_s.len() + 1) as f64;
        if (now - t0).as_secs_f64() >= due {
            s.segment_ops_per_s
                .push(seg_ops as f64 / (now - seg_start).as_secs_f64());
            seg_start = now;
            seg_ops = 0;
        }
    }
    s.wall_s = t0.elapsed().as_secs_f64();
    s.cpu_s = cpu_seconds() - cpu0;
    s.failed += w.verify_after();
    s
}

/// What the counting allocator saw over a fixed number of ops.
#[derive(Debug)]
pub struct Counted {
    pub ops: u64,
    pub failed: u64,
    /// Peak live heap above the level at the first op, in MiB.
    pub peak_heap_mb: f64,
    pub allocs_per_op: f64,
}

/// Run [`Workload::counted_ops`] ops, untimed, under the counting
/// allocator. A fixed op count makes the figures a function of the inputs
/// alone (up to hash seeds and thread interleaving), unlike peak RSS, which
/// on the dense workload wanders by a third between identical runs.
pub fn run_counted(w: &mut dyn Workload, first: u64) -> Counted {
    let ops = w.counted_ops();
    debug_assert_eq!(ops % w.block_len(), 0, "count whole blocks");
    let mut failed = 0;
    crate::alloc::start();
    for index in first..first + ops {
        failed += u64::from(!timed_op(w, index).1.ok);
    }
    let (peak_bytes, allocs) = crate::alloc::stop();
    failed += w.verify_after();
    Counted {
        ops,
        failed,
        peak_heap_mb: peak_bytes as f64 / (1 << 20) as f64,
        allocs_per_op: allocs as f64 / ops as f64,
    }
}

/// Named measurements with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            !self.0.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// Median wall time of `reps` calls of `f`, each inside a span `name`, in
/// nanoseconds. One untimed call first warms caches and the allocator.
pub fn probe_ns<T>(name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    probe_ns_with(name, reps, || (), |()| f())
}

/// [`probe_ns`] for calls that consume their input: `prepare` builds it
/// outside the timed span, `run` is timed.
pub fn probe_ns_with<S, T>(
    name: &'static str,
    reps: usize,
    mut prepare: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> f64 {
    std::hint::black_box(run(prepare()));
    let mut ns = Vec::with_capacity(reps);
    for rep in 0..reps {
        let input = prepare();
        spans::set_op(rep as u64);
        let _g = spans::enter(name);
        let t0 = Instant::now();
        std::hint::black_box(run(input));
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat`; ticks are 1/100 s on every Linux this runs on.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        wrong_reference: bool,
        calls: u64,
    }

    impl Workload for Fake {
        fn block_len(&self) -> u64 {
            4
        }
        fn counted_ops(&self) -> u64 {
            8
        }
        fn op(&mut self, index: u64) -> OpOutcome {
            self.calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(200));
            let reference = if self.wrong_reference {
                u64::MAX
            } else {
                index * 2
            };
            OpOutcome {
                ok: index * 2 == reference,
                class: (index % 2) as u8,
            }
        }
        fn sim_digest(&self) -> SimDigest {
            SimDigest::default()
        }
        fn sim_size(&self) -> (f64, f64) {
            (1.0, 1.0)
        }
        fn fit_ms(&self) -> f64 {
            0.0
        }
        fn sim_err_pct(&self) -> f64 {
            0.0
        }
        fn layer_metrics(&mut self, _: &TracedSections<'_>, _: &mut Metrics) {}
    }

    #[test]
    fn sections_have_five_segments_of_whole_blocks() {
        let mut w = Fake {
            wrong_reference: false,
            calls: 0,
        };
        let s = run_section(&mut w, 0.05, 100);
        assert_eq!(s.segment_ops_per_s.len(), SEGMENTS);
        assert_eq!(s.ops(), w.calls);
        assert_eq!(s.ops() % 4, 0, "segments end on block boundaries");
        assert_eq!(s.failed, 0);
        assert!(s.wall_s >= 0.05);
        // Median of the five segment rates, not ops / wall.
        let mut r = s.segment_ops_per_s.clone();
        r.sort_by(f64::total_cmp);
        assert_eq!(s.ops_per_s(), r[2]);
        assert_eq!(
            s.class_sorted(0).len() + s.class_sorted(1).len(),
            s.ops() as usize
        );
    }

    #[test]
    fn a_wrong_reference_fails_every_op() {
        let mut w = Fake {
            wrong_reference: true,
            calls: 0,
        };
        let s = run_section(&mut w, 0.02, 0);
        assert_eq!(s.failed, s.ops(), "ops_failed must equal ops_total");
    }
}
