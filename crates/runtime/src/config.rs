//! Runtime configuration and scheduler profiles.

/// Ready-queue scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// One global FIFO queue (QUARK's default dispatch order).
    CentralFifo,
    /// One global LIFO stack (depth-first; cache-friendly).
    CentralLifo,
    /// One global priority queue ordered by the task's `priority` field
    /// (higher first), FIFO within equal priorities — StarPU's `prio`/`dm`
    /// family once priorities are set from a duration model.
    Priority,
    /// Per-worker deques with work stealing (StarPU's `ws` policy): a task
    /// released by worker `w` is pushed to `w`'s deque; workers pop LIFO
    /// from their own deque and steal FIFO from others.
    WorkStealing,
    /// Per-worker queues keyed by data affinity (OmpSs/Nanos++-style):
    /// a task is queued on the worker that owns its first writable data
    /// region; stealing is allowed when a worker's own queue is empty.
    LocalityAware,
    /// FIFO honoring per-task worker-range pins (cluster simulation:
    /// compute tasks pinned to a node's workers, transfers to its NIC
    /// lanes). Unpinned tasks may run anywhere.
    Pinned,
}

/// Named scheduler profile: a preset of policy + window modeled after one
/// of the paper's three runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// QUARK (UTK): central FIFO, task window, quiescence query available.
    #[default]
    Quark,
    /// StarPU (INRIA): work stealing, effectively unbounded window.
    StarPu,
    /// OmpSs (BSC): locality-aware queues, moderate throttle.
    OmpSs,
}

impl SchedulerKind {
    /// Every profile, in the paper's order.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Quark,
        SchedulerKind::StarPu,
        SchedulerKind::OmpSs,
    ];

    /// The profile called `name` — the inverse of [`SchedulerKind::name`].
    pub fn parse(name: &str) -> Option<SchedulerKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The profile's human-readable name (as used in figure labels).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Quark => "quark",
            SchedulerKind::StarPu => "starpu",
            SchedulerKind::OmpSs => "ompss",
        }
    }

    /// Default configuration for this profile with `workers` threads.
    pub fn config(self, workers: usize) -> RuntimeConfig {
        match self {
            SchedulerKind::Quark => RuntimeConfig {
                workers,
                policy: PolicyKind::CentralFifo,
                window: 5000,
                name: "quark",
            },
            SchedulerKind::StarPu => RuntimeConfig {
                workers,
                policy: PolicyKind::WorkStealing,
                window: usize::MAX,
                name: "starpu",
            },
            SchedulerKind::OmpSs => RuntimeConfig {
                workers,
                policy: PolicyKind::LocalityAware,
                window: 2000,
                name: "ompss",
            },
        }
    }
}

/// Full runtime configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads. Independent of host core count: in
    /// simulation mode tasks block rather than compute, so any number of
    /// virtual workers runs fine on any host.
    pub workers: usize,
    /// Ready-queue policy.
    pub policy: PolicyKind,
    /// Task window: `submit` blocks while this many tasks are in flight
    /// (submitted but not completed). QUARK-style backpressure.
    pub window: usize,
    /// Profile name used in traces/reports.
    pub name: &'static str,
}

impl RuntimeConfig {
    /// A minimal config: central FIFO, unbounded window.
    pub fn simple(workers: usize) -> Self {
        RuntimeConfig {
            workers,
            policy: PolicyKind::CentralFifo,
            window: usize::MAX,
            name: "simple",
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::simple(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_presets() {
        let q = SchedulerKind::Quark.config(4);
        assert_eq!(q.policy, PolicyKind::CentralFifo);
        assert_eq!(q.window, 5000);
        assert_eq!(q.workers, 4);
        assert_eq!(q.name, "quark");

        let s = SchedulerKind::StarPu.config(2);
        assert_eq!(s.policy, PolicyKind::WorkStealing);
        assert_eq!(s.window, usize::MAX);

        let o = SchedulerKind::OmpSs.config(8);
        assert_eq!(o.policy, PolicyKind::LocalityAware);
        assert_eq!(o.window, 2000);
    }

    #[test]
    fn names() {
        assert_eq!(SchedulerKind::Quark.name(), "quark");
        assert_eq!(SchedulerKind::StarPu.name(), "starpu");
        assert_eq!(SchedulerKind::OmpSs.name(), "ompss");
    }

    #[test]
    fn names_round_trip_through_parse() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("slurm"), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Quark);
    }

    #[test]
    fn default_is_simple() {
        let c = RuntimeConfig::default();
        assert_eq!(c.policy, PolicyKind::CentralFifo);
        assert_eq!(c.window, usize::MAX);
    }
}
