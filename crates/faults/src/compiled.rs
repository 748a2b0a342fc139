//! Compiling a [`FaultPlan`] into the injector the core session consults.

use crate::lanes::LaneMap;
use crate::plan::{FaultEvent, FaultPlan};
use parking_lot::Mutex;
use supersim_core::{FaultInjector, TransientSpec};

/// Fault accounting accumulated during a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Failed attempts executed (each costs discarded virtual work).
    pub retries: u64,
    /// Tasks that suffered at least one transient failure.
    pub transient_tasks: u64,
    /// Virtual seconds of discarded (aborted) work.
    pub aborted_virtual_seconds: f64,
}

/// A piecewise-constant slowdown-rate function over virtual time:
/// `factors[i]` applies on `[times[i-1], times[i])` (with open ends), and
/// work advances through the segments at `1/factor` work units per
/// virtual second. Overlapping windows multiply.
#[derive(Debug, Clone, PartialEq)]
struct PiecewiseRate {
    times: Vec<f64>,
    factors: Vec<f64>, // len == times.len() + 1
}

impl PiecewiseRate {
    fn from_windows(windows: &[(f64, f64, f64)]) -> Option<Self> {
        if windows.is_empty() {
            return None;
        }
        let mut times: Vec<f64> = windows.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        let mut factors = Vec::with_capacity(times.len() + 1);
        // Interval i spans [times[i-1], times[i]); probe its midpoint
        // against every window. The unbounded end intervals carry the
        // factor at -inf / +inf (always 1.0 for finite windows).
        for i in 0..=times.len() {
            let probe = if i == 0 {
                times[0] - 1.0
            } else if i == times.len() {
                times[times.len() - 1] + 1.0
            } else {
                (times[i - 1] + times[i]) / 2.0
            };
            let f: f64 = windows
                .iter()
                .filter(|&&(a, b, _)| probe >= a && probe < b)
                .map(|&(_, _, f)| f)
                .product();
            factors.push(f);
        }
        Some(PiecewiseRate { times, factors })
    }

    /// Virtual seconds that `work` nominal seconds of work started at
    /// `start` take under this rate function.
    fn elapsed(&self, start: f64, mut work: f64) -> f64 {
        if work <= 0.0 {
            return 0.0;
        }
        let mut i = self.times.partition_point(|&t| t <= start);
        let mut t = start;
        loop {
            let f = self.factors[i];
            if i == self.times.len() {
                return t + work * f - start;
            }
            let seg_end = self.times[i];
            let cap = (seg_end - t) / f;
            if work <= cap {
                return t + work * f - start;
            }
            work -= cap;
            t = seg_end;
            i += 1;
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CompiledTransient {
    label: Option<String>,
    period: u64,
    failures: u32,
    fail_fraction: f64,
}

/// A [`FaultPlan`] compiled against a [`LaneMap`]: the
/// [`FaultInjector`] implementation the drivers attach to a session.
pub struct CompiledFaults {
    /// Per-lane slowdown rate (None = never perturbed).
    lanes: Vec<Option<PiecewiseRate>>,
    transients: Vec<CompiledTransient>,
    backoff_base: f64,
    backoff_cap: f64,
    stats: Mutex<FaultStats>,
}

impl CompiledFaults {
    /// Compile `plan` for a machine laid out as `map`. Permanent-failure
    /// events are ignored here — the phased-replay driver handles them —
    /// so the same compiled injector serves both replay phases.
    ///
    /// `shift` subtracts from every window boundary: phase B of a
    /// permanent-failure replay runs on a fresh clock starting at 0, so
    /// its windows must be expressed relative to the restart offset.
    pub fn compile(plan: &FaultPlan, map: &LaneMap, shift: f64) -> Self {
        let mut windows: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); map.total()];
        let mut transients = Vec::new();
        for ev in &plan.events {
            match ev {
                FaultEvent::Straggler {
                    scope,
                    from,
                    until,
                    factor,
                } => {
                    for lane in map.lanes_of(*scope) {
                        windows[lane].push((from - shift, until - shift, *factor));
                    }
                }
                FaultEvent::LinkDegradation {
                    node,
                    from,
                    until,
                    factor,
                } => {
                    for lane in map.nic_lanes(*node) {
                        windows[lane].push((from - shift, until - shift, *factor));
                    }
                }
                FaultEvent::Transient {
                    label,
                    period,
                    failures,
                    fail_fraction,
                } => transients.push(CompiledTransient {
                    label: label.clone(),
                    period: *period,
                    failures: *failures,
                    fail_fraction: *fail_fraction,
                }),
                FaultEvent::PermanentFailure { .. } => {}
            }
        }
        CompiledFaults {
            lanes: windows
                .into_iter()
                .map(|w| PiecewiseRate::from_windows(&w))
                .collect(),
            transients,
            backoff_base: plan.recovery.backoff_base,
            backoff_cap: plan.recovery.backoff_cap,
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// Snapshot of the fault accounting.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock()
    }

    /// Publish the fault accounting into `snap`.
    #[cfg(feature = "metrics")]
    pub fn publish_metrics(&self, snap: &mut supersim_metrics::MetricsSnapshot) {
        let s = self.stats();
        snap.push_counter("faults.retries", s.retries);
        snap.push_counter("faults.transient.tasks", s.transient_tasks);
        snap.push_gauge(
            "faults.aborted.virtual_us",
            (s.aborted_virtual_seconds * 1e6).round() as i64,
        );
    }
}

impl FaultInjector for CompiledFaults {
    fn perturb(&self, worker: usize, start: f64, duration: f64) -> f64 {
        match self.lanes.get(worker).and_then(|r| r.as_ref()) {
            None => duration,
            Some(rate) => rate.elapsed(start, duration),
        }
    }

    fn transient(&self, label: &str, rank: u64) -> Option<TransientSpec> {
        for t in &self.transients {
            let label_ok = t.label.as_deref().is_none_or(|l| l == label);
            // `rank.is_multiple_of(period)` (Rust 1.87): period 0 matches rank 0.
            if label_ok && rank.checked_rem(t.period).unwrap_or(rank) == 0 {
                return Some(TransientSpec {
                    failures: t.failures,
                    fail_fraction: t.fail_fraction,
                    backoff_base: self.backoff_base,
                    backoff_cap: self.backoff_cap,
                });
            }
        }
        None
    }

    fn on_transient(&self, _label: &str, failures: u32, aborted_virtual_seconds: f64) {
        let mut s = self.stats.lock();
        s.retries += failures as u64;
        s.transient_tasks += 1;
        s.aborted_virtual_seconds += aborted_virtual_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn work_outside_windows_is_unperturbed() {
        let r = PiecewiseRate::from_windows(&[(10.0, 20.0, 2.0)]).unwrap();
        approx(r.elapsed(0.0, 5.0), 5.0);
        approx(r.elapsed(25.0, 5.0), 5.0);
    }

    #[test]
    fn work_inside_a_window_is_scaled() {
        let r = PiecewiseRate::from_windows(&[(10.0, 20.0, 2.0)]).unwrap();
        // Entirely inside: 3 work units at factor 2 = 6 seconds.
        approx(r.elapsed(10.0, 3.0), 6.0);
        // Straddling the end: 5 work inside (10s, exhausting the window
        // at t=20)? No — 5 work at factor 2 = 10s ends exactly at 20.
        approx(r.elapsed(10.0, 5.0), 10.0);
        // 6 work: 5 inside (10s), 1 after (1s).
        approx(r.elapsed(10.0, 6.0), 11.0);
        // Entering from before: 2 work to reach the window (2s), then 1
        // work at factor 2 (2s).
        approx(r.elapsed(8.0, 3.0), 4.0);
    }

    #[test]
    fn overlapping_windows_multiply() {
        let r = PiecewiseRate::from_windows(&[(0.0, 10.0, 2.0), (5.0, 10.0, 3.0)]).unwrap();
        // 1 work at t=6: factor 6.
        approx(r.elapsed(6.0, 0.5), 3.0);
        // 2.5 work from 0: 2.5 work at factor 2 = 5s, ends at 5.0 exactly.
        approx(r.elapsed(0.0, 2.5), 5.0);
        // 3 work from 0: 2.5 at factor 2 (5s), 0.5 at factor 6 (3s).
        approx(r.elapsed(0.0, 3.0), 8.0);
    }

    #[test]
    fn compiled_perturb_scopes_to_lanes() {
        let plan = FaultPlan::new().straggler_worker(1, 0.0, 100.0, 4.0);
        let inj = CompiledFaults::compile(&plan, &LaneMap::single_node(3), 0.0);
        approx(inj.perturb(0, 0.0, 1.0), 1.0);
        approx(inj.perturb(1, 0.0, 1.0), 4.0);
        approx(inj.perturb(2, 0.0, 1.0), 1.0);
    }

    #[test]
    fn compile_shift_moves_windows() {
        let plan = FaultPlan::new().straggler_worker(0, 10.0, 20.0, 2.0);
        let inj = CompiledFaults::compile(&plan, &LaneMap::single_node(1), 10.0);
        // The window now covers [0, 10) on the shifted clock.
        approx(inj.perturb(0, 0.0, 1.0), 2.0);
        approx(inj.perturb(0, 12.0, 1.0), 1.0);
    }

    #[test]
    fn transient_selection_is_periodic_and_label_filtered() {
        let plan = FaultPlan::new().transient_for("dgemm", 3, 2, 0.5);
        let inj = CompiledFaults::compile(&plan, &LaneMap::single_node(1), 0.0);
        assert!(inj.transient("dgemm", 0).is_some());
        assert!(inj.transient("dgemm", 1).is_none());
        assert!(inj.transient("dgemm", 3).is_some());
        assert!(inj.transient("dpotrf", 0).is_none());
        let spec = inj.transient("dgemm", 0).unwrap();
        assert_eq!(spec.failures, 2);
        assert_eq!(spec.fail_fraction, 0.5);
    }

    #[test]
    fn rank_zero_always_matches_some_task() {
        // The monotonicity acceptance property "retries nonzero iff the
        // plan has transients" hinges on rank 0 matching any period.
        for period in [1, 2, 7, 1000] {
            let plan = FaultPlan::new().transient(period, 1, 0.5);
            let inj = CompiledFaults::compile(&plan, &LaneMap::single_node(1), 0.0);
            assert!(inj.transient("anything", 0).is_some());
        }
    }

    #[test]
    fn stats_accumulate_via_on_transient() {
        let plan = FaultPlan::new().transient(1, 2, 0.5);
        let inj = CompiledFaults::compile(&plan, &LaneMap::single_node(1), 0.0);
        inj.on_transient("k", 2, 0.75);
        inj.on_transient("k", 2, 0.25);
        let s = inj.stats();
        assert_eq!(s.retries, 4);
        assert_eq!(s.transient_tasks, 2);
        approx(s.aborted_virtual_seconds, 1.0);
    }
}
