//! The fault plan: what goes wrong, when, and how the system recovers.

use crate::lanes::LaneMap;
use serde::{Deserialize, Serialize};

/// What a fault event applies to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultScope {
    /// One worker lane (single-node runs: a worker index; cluster runs: a
    /// global lane index).
    Worker(usize),
    /// Every lane of one node — compute workers and NIC lanes.
    Node(usize),
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum FaultEvent {
    /// Multiplicative slowdown of the scoped lanes over a virtual-time
    /// window: work started (or in progress) inside `[from, until)` takes
    /// `factor` times longer per unit. Factors of overlapping windows
    /// multiply.
    Straggler {
        scope: FaultScope,
        from: f64,
        until: f64,
        factor: f64,
    },
    /// The scoped lanes die permanently at virtual time `at`. At most one
    /// permanent failure per plan.
    PermanentFailure { scope: FaultScope, at: f64 },
    /// Transient task failure: every `period`-th submission of a label
    /// (rank 0, period, 2·period, …) aborts `failures` times — consuming
    /// `fail_fraction` of a freshly sampled duration per attempt, with
    /// capped exponential backoff between attempts — before succeeding.
    /// `label: None` applies to every kernel label.
    Transient {
        label: Option<String>,
        period: u64,
        failures: u32,
        fail_fraction: f64,
    },
    /// NIC/link degradation: transfers on `node`'s NIC lanes executing
    /// inside `[from, until)` take `factor` times longer per unit (the
    /// bandwidth/latency scaling of the Hockney/SharedLink cost, applied
    /// at execution time so the window is honoured).
    LinkDegradation {
        node: usize,
        from: f64,
        until: f64,
        factor: f64,
    },
}

/// Checkpoint/restart cost model (cluster permanent failures): global
/// coordinated snapshots every `interval` virtual seconds, each costing
/// `snapshot_cost`; after a failure the machine restores the last
/// snapshot for `restore_cost` and re-executes everything after it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CheckpointPolicy {
    /// Virtual seconds between snapshots (must be positive).
    pub interval: f64,
    /// Virtual seconds each snapshot costs (added to the faulted
    /// makespan once per snapshot taken before the failure).
    pub snapshot_cost: f64,
    /// Virtual seconds to restore the last snapshot after a failure.
    pub restore_cost: f64,
}

/// How the system recovers from the plan's faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RecoveryPolicy {
    /// First retry backoff for transient failures (virtual seconds);
    /// attempt `i` backs off `backoff_base * 2^i`.
    pub backoff_base: f64,
    /// Ceiling on any single backoff (virtual seconds).
    pub backoff_cap: f64,
    /// Virtual seconds between a permanent failure and the restart of the
    /// surviving configuration (failure detection + re-placement cost).
    pub restart_delay: f64,
    /// Optional checkpoint/restart model for permanent failures. `None`
    /// restarts from the failure cut (single-node) or from scratch
    /// (cluster) with no snapshot overhead.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            backoff_base: 1e-4,
            backoff_cap: 1e-2,
            restart_delay: 0.0,
            checkpoint: None,
        }
    }
}

/// A deterministic fault plan: events plus recovery policy. An empty
/// plan (no events) perturbs nothing — drivers skip injector attachment
/// entirely, so the simulation is bit-for-bit the fault-free one.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
    /// Recovery parameters shared by all events.
    pub recovery: RecoveryPolicy,
}

/// Most failed attempts one transient event may prescribe per task. Each
/// attempt becomes two segments of the task's planned timeline, so the
/// bound keeps that plan small however the event was written down.
pub const MAX_TRANSIENT_FAILURES: u32 = 64;

/// Most events one plan may hold. Compiling a plan's straggler rates and
/// attributing its slowdown event by event both grow faster than its
/// length, so the bound keeps the cost of any accepted plan small
/// however it was written down.
pub const MAX_FAULT_EVENTS: usize = 1_024;

impl FaultEvent {
    /// The checks an event can fail on its own — whether it was built by a
    /// [`FaultPlan`] method or deserialized. Phrased positively, so NaN
    /// fails each of them.
    pub fn check(&self) -> Result<(), String> {
        let (ok, rule) = match *self {
            FaultEvent::Straggler {
                from,
                until,
                factor,
                ..
            }
            | FaultEvent::LinkDegradation {
                from,
                until,
                factor,
                ..
            } => (
                factor > 0.0 && until > from,
                "a slowdown's factor must be positive and its window must be non-empty",
            ),
            FaultEvent::PermanentFailure { at, .. } => {
                (at >= 0.0, "a permanent failure needs a non-negative time")
            }
            FaultEvent::Transient {
                period,
                failures,
                fail_fraction,
                ..
            } => (
                period > 0
                    && (1..=MAX_TRANSIENT_FAILURES).contains(&failures)
                    && (0.0..=1.0).contains(&fail_fraction),
                "a transient fault needs a positive period, 1..=64 failures, \
                 and fail_fraction must be in [0, 1]",
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{rule}: {self:?}"))
        }
    }
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Everything that makes a plan legal for a machine laid out as `map`:
    /// at most [`MAX_FAULT_EVENTS`] events (checked first, so an oversize
    /// plan costs nothing more), every event's own [`FaultEvent::check`],
    /// at most one permanent
    /// failure, every scope inside the lane space, a permanent failure
    /// the machine survives, and a positive checkpoint interval. The
    /// builder methods below panic on the first two; a deserialized plan
    /// has passed through none of them, so front ends call this before
    /// running it.
    pub fn validate(&self, map: &LaneMap) -> Result<(), String> {
        if self.events.len() > MAX_FAULT_EVENTS {
            return Err(format!(
                "a fault plan holds at most {MAX_FAULT_EVENTS} events, got {}",
                self.events.len()
            ));
        }
        self.single_permanent()?;
        for ev in &self.events {
            ev.check()?;
            let (scope, what) = match *ev {
                FaultEvent::Straggler { scope, .. } => (scope, "straggler"),
                FaultEvent::PermanentFailure { scope, .. } => (scope, "permanent failure"),
                FaultEvent::LinkDegradation { node, .. } => {
                    (FaultScope::Node(node), "link degradation")
                }
                FaultEvent::Transient { .. } => continue,
            };
            if !map.contains(scope) {
                return Err(format!(
                    "{what} targets {scope:?}, outside the machine ({} nodes, {} lanes)",
                    map.node_count(),
                    map.total()
                ));
            }
            if matches!(ev, FaultEvent::PermanentFailure { .. }) && !map.survives(scope) {
                return Err(format!(
                    "a permanent failure must leave survivors, but {scope:?} is the only node \
                     or not a compute lane of a node that has another"
                ));
            }
        }
        if !self.recovery.checkpoint.is_none_or(|c| c.interval > 0.0) {
            return Err("the checkpoint interval must be positive".to_string());
        }
        Ok(())
    }

    /// Add a straggler window on one worker lane.
    pub fn straggler_worker(self, worker: usize, from: f64, until: f64, factor: f64) -> Self {
        self.with(FaultEvent::Straggler {
            scope: FaultScope::Worker(worker),
            from,
            until,
            factor,
        })
    }

    /// Add a straggler window covering every lane of a node.
    pub fn straggler_node(self, node: usize, from: f64, until: f64, factor: f64) -> Self {
        self.with(FaultEvent::Straggler {
            scope: FaultScope::Node(node),
            from,
            until,
            factor,
        })
    }

    /// Kill one worker lane at virtual time `at`.
    pub fn kill_worker(self, worker: usize, at: f64) -> Self {
        self.with(FaultEvent::PermanentFailure {
            scope: FaultScope::Worker(worker),
            at,
        })
    }

    /// Kill a whole node at virtual time `at`.
    pub fn kill_node(self, node: usize, at: f64) -> Self {
        self.with(FaultEvent::PermanentFailure {
            scope: FaultScope::Node(node),
            at,
        })
    }

    /// Add transient failures on every label (every `period`-th submission
    /// fails `failures` times, losing `fail_fraction` of each attempt).
    pub fn transient(self, period: u64, failures: u32, fail_fraction: f64) -> Self {
        self.with(FaultEvent::Transient {
            label: None,
            period,
            failures,
            fail_fraction,
        })
    }

    /// Add transient failures on one kernel label.
    pub fn transient_for(
        self,
        label: impl Into<String>,
        period: u64,
        failures: u32,
        fail_fraction: f64,
    ) -> Self {
        self.with(FaultEvent::Transient {
            label: Some(label.into()),
            period,
            failures,
            fail_fraction,
        })
    }

    /// Add a link-degradation window on a node's NIC lanes.
    pub fn degrade_link(self, node: usize, from: f64, until: f64, factor: f64) -> Self {
        self.with(FaultEvent::LinkDegradation {
            node,
            from,
            until,
            factor,
        })
    }

    /// Append `ev`, panicking with the message [`FaultPlan::validate`]
    /// would return if it is illegal on its own or is a second permanent
    /// failure.
    fn with(mut self, ev: FaultEvent) -> Self {
        let checked = ev.check().and_then(|()| {
            self.events.push(ev);
            self.single_permanent()
        });
        if let Err(e) = checked {
            panic!("{e}");
        }
        self
    }

    /// Replace the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The plan's permanent failure, if any.
    pub fn permanent_failure(&self) -> Option<(FaultScope, f64)> {
        self.events.iter().find_map(|e| match e {
            FaultEvent::PermanentFailure { scope, at } => Some((*scope, *at)),
            _ => None,
        })
    }

    fn single_permanent(&self) -> Result<(), String> {
        let n = self
            .events
            .iter()
            .filter(|e| matches!(e, FaultEvent::PermanentFailure { .. }))
            .count();
        if n <= 1 {
            Ok(())
        } else {
            Err(format!(
                "at most one permanent failure per plan (got {n}); \
                 model cascading failures as separate scenarios"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(p.permanent_failure().is_none());
    }

    #[test]
    fn builder_accumulates_events() {
        let p = FaultPlan::new()
            .straggler_worker(2, 0.0, 1.0, 2.0)
            .transient_for("dgemm", 10, 2, 0.5)
            .degrade_link(1, 0.5, 2.0, 4.0)
            .kill_node(3, 1.5);
        assert_eq!(p.events.len(), 4);
        assert_eq!(p.permanent_failure(), Some((FaultScope::Node(3), 1.5)));
    }

    #[test]
    #[should_panic(expected = "at most one permanent failure")]
    fn two_permanent_failures_rejected() {
        let _ = FaultPlan::new().kill_worker(0, 1.0).kill_node(1, 2.0);
    }

    #[test]
    #[should_panic(expected = "fail_fraction must be in [0, 1]")]
    fn bad_fail_fraction_rejected() {
        let _ = FaultPlan::new().transient(5, 1, 1.5);
    }

    /// A deserialized plan skips every builder method; `validate` holds
    /// the same checks plus the scope and recovery ones.
    #[test]
    fn validate_checks_a_deserialized_plan_like_a_built_one() {
        assert_eq!(
            MAX_TRANSIENT_FAILURES, 64,
            "the transient rule's text names the bound"
        );
        let map = LaneMap::single_node(4);
        let plan = |events: &str| -> FaultPlan {
            let recovery = serde_json::to_string(&RecoveryPolicy::default()).unwrap();
            serde_json::from_str(&format!(
                "{{\"events\":[{events}],\"recovery\":{recovery}}}"
            ))
            .expect("plan parses")
        };
        let straggler = |scope: &str, until: f64, factor: f64| {
            format!(
                "{{\"Straggler\":{{\"scope\":{scope},\"from\":0.0,\"until\":{until:?},\"factor\":{factor:?}}}}}"
            )
        };
        let kill = |w: usize| {
            format!("{{\"PermanentFailure\":{{\"scope\":{{\"Worker\":{w}}},\"at\":0.5}}}}")
        };
        let transient = |failures: u64| {
            format!(
                "{{\"Transient\":{{\"label\":null,\"period\":5,\"failures\":{failures},\"fail_fraction\":0.5}}}}"
            )
        };
        assert_eq!(
            plan(&straggler("{\"Worker\":1}", 1.0, 2.0)).validate(&map),
            Ok(())
        );
        for (events, needle) in [
            (
                straggler("{\"Worker\":1}", 1.0, -3.0),
                "factor must be positive",
            ),
            (
                straggler("{\"Worker\":1}", 0.0, 2.0),
                "window must be non-empty",
            ),
            (
                straggler("{\"Worker\":9999}", 1.0, 2.0),
                "outside the machine",
            ),
            (straggler("{\"Node\":1}", 1.0, 2.0), "outside the machine"),
            (
                format!("{},{}", kill(0), kill(1)),
                "at most one permanent failure",
            ),
            (transient(400_000_000), "1..=64 failures"),
            (transient(0), "1..=64 failures"),
        ] {
            let err = plan(&events).validate(&map).unwrap_err();
            assert!(err.contains(needle), "{events}: {err}");
        }
        let bad_recovery = FaultPlan::new().with_recovery(RecoveryPolicy {
            checkpoint: Some(CheckpointPolicy {
                interval: 0.0,
                snapshot_cost: 0.0,
                restore_cost: 0.0,
            }),
            ..RecoveryPolicy::default()
        });
        assert!(bad_recovery.validate(&map).is_err());
    }

    #[test]
    fn a_plan_holds_at_most_max_fault_events() {
        let map = LaneMap::single_node(4);
        let plan = |n: usize| {
            (0..n).fold(FaultPlan::new(), |p, i| {
                p.straggler_worker(i % 4, i as f64, i as f64 + 0.5, 2.0)
            })
        };
        assert_eq!(plan(MAX_FAULT_EVENTS).validate(&map), Ok(()));
        // Checked before anything else: the extra event is illegal too.
        let mut over = plan(MAX_FAULT_EVENTS);
        over.events.push(FaultEvent::Straggler {
            scope: FaultScope::Worker(9999),
            from: 0.0,
            until: 1.0,
            factor: 2.0,
        });
        assert_eq!(
            over.validate(&map),
            Err("a fault plan holds at most 1024 events, got 1025".to_string())
        );
    }

    #[test]
    fn plans_roundtrip_through_json() {
        let p = FaultPlan::new()
            .straggler_node(0, 0.0, 2.0, 1.5)
            .transient(7, 1, 0.25);
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
