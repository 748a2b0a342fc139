//! The scheduling core: everything a task passes through between
//! submission and retirement, with no locks, clocks or I/O.
//!
//! A [`SchedCore`] resolves a task's hazards against earlier submissions,
//! holds it until its predecessors retire, hands it to the policy once it
//! is ready, gives it out at [`SchedCore::pop`] and releases its
//! successors at [`SchedCore::retire`], counting the submission window on
//! the way. Both engines drive this one core: the threaded [`Runtime`]
//! behind its lock (payload: the task body and label), and the DES
//! replay loop in `supersim-des` (payload: the label and duration source),
//! which also runs the offline list scheduler. Virtual time, lanes and
//! wakeups stay with each engine.
//!
//! [`Runtime`]: crate::Runtime

use crate::chain::{Chain, ChainPool};
use crate::hazards::HazardTracker;
use crate::policy::{Policy, ReadyMeta};
use std::collections::VecDeque;
use supersim_dag::Access;

/// Per-task bookkeeping, 64 bytes with either engine's payload. The
/// payload is taken out at dispatch. A window of these is live at once,
/// so the node is kept small: a 32-bit dependence count, and the policy
/// metadata without the releaser (known only at release), its optional
/// fields packed with a "none" value ([`Node::meta`] unpacks them).
struct Node<T> {
    deps: u32,
    succs: Chain,
    priority: i64,
    /// The first written region, or [`NO_AFFINITY`].
    affinity: u64,
    /// The half-open lane range, or [`NO_PIN`].
    pin: (u32, u32),
    payload: Option<T>,
}

/// [`Node::affinity`] of a task that writes nothing. Region ids never
/// reach it: a tile grid refuses an id range that would, and ghost
/// counters start far below it.
const NO_AFFINITY: u64 = u64::MAX;

/// [`Node::pin`] of a task that may run on any lane.
const NO_PIN: (u32, u32) = (u32::MAX, u32::MAX);

impl<T> Node<T> {
    fn new(
        deps: u32,
        priority: i64,
        affinity: Option<u64>,
        pin: Option<(usize, usize)>,
        payload: T,
    ) -> Self {
        let lane = |l: usize| {
            u32::try_from(l)
                .ok()
                .filter(|&l| l != u32::MAX)
                .unwrap_or_else(|| panic!("pinned lane {l} is past the core's 32-bit lanes"))
        };
        Node {
            deps,
            succs: Chain::default(),
            priority,
            affinity: affinity.unwrap_or(NO_AFFINITY),
            pin: pin.map_or(NO_PIN, |(lo, hi)| (lane(lo), lane(hi))),
            payload: Some(payload),
        }
    }

    fn pin(&self) -> Option<(usize, usize)> {
        (self.pin != NO_PIN).then_some((self.pin.0 as usize, self.pin.1 as usize))
    }

    /// What the policy sees of this task, released by `releaser`.
    fn meta(&self, releaser: Option<usize>) -> ReadyMeta {
        ReadyMeta {
            priority: self.priority,
            releaser,
            affinity: (self.affinity != NO_AFFINITY).then_some(self.affinity),
            pin: self.pin(),
        }
    }
}

/// Ring mark of an id whose task has retired.
const RETIRED: u32 = u32::MAX;

/// The in-flight tasks, keyed by submission id without hashing.
///
/// Ids are the contiguous submission counter, so `id - base` indexes a
/// ring of 4-byte handles covering the *live id span* — oldest unretired
/// id to newest submitted — while the nodes themselves sit in a slab
/// whose slots are reused as tasks retire, their successor lists in one
/// shared [`ChainPool`]. The slab therefore never outgrows the in-flight
/// window, even when one straggler keeps the id span long: replaying a
/// 10⁶-task stream holds 10⁶ nodes only if the window is that large. Its
/// capacity does not either: it doubles like a `Vec`, but never past the
/// window. An id below `base`, or marked [`RETIRED`], has retired and
/// imposes no dependence.
struct NodeTable<T> {
    base: u64,
    ring: VecDeque<u32>,
    slab: Vec<Node<T>>,
    /// The most tasks in flight at once (the core's window), and so the
    /// slab's bound in length and capacity.
    window: usize,
    free: Vec<u32>,
    succs: ChainPool,
}

impl<T> NodeTable<T> {
    fn new(window: usize) -> Self {
        NodeTable {
            base: 0,
            ring: VecDeque::new(),
            slab: Vec::new(),
            window,
            free: Vec::new(),
            succs: ChainPool::default(),
        }
    }

    /// The id the next submission gets.
    fn next_id(&self) -> u64 {
        self.base + self.ring.len() as u64
    }

    /// Add the next submission.
    fn insert(&mut self, node: Node<T>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = node;
                slot
            }
            None => {
                let len = self.slab.len();
                if len == self.slab.capacity() {
                    // `Vec`'s own growth (4, then doubling), clipped.
                    let grown = (2 * len).max(4).min(self.window).max(len + 1);
                    self.slab.reserve_exact(grown - len);
                }
                self.slab.push(node);
                u32::try_from(len)
                    .ok()
                    .filter(|&slot| slot != RETIRED)
                    .expect("more than u32::MAX tasks in flight")
            }
        };
        self.ring.push_back(slot);
    }

    /// The slab slot of `id`, unless it has retired.
    fn slot(&self, id: u64) -> Option<usize> {
        let at = usize::try_from(id.checked_sub(self.base)?).ok()?;
        match *self.ring.get(at)? {
            RETIRED => None,
            slot => Some(slot as usize),
        }
    }

    /// The node of `id`, unless it has retired.
    fn get_mut(&mut self, id: u64) -> Option<&mut Node<T>> {
        self.slot(id).map(|slot| &mut self.slab[slot])
    }

    /// Make `id` a successor of `pred`; false if `pred` has retired.
    fn add_successor(&mut self, pred: u64, id: u32) -> bool {
        let Some(slot) = self.slot(pred) else {
            return false;
        };
        self.succs.push(&mut self.slab[slot].succs, id);
        true
    }

    /// Detach and return the oldest remaining successor of in-flight `id`.
    fn pop_successor(&mut self, id: u64) -> Option<u64> {
        let slot = self.slot(id).expect("retired a task twice");
        self.succs.pop(&mut self.slab[slot].succs).map(u64::from)
    }

    /// Retire `id` (its successors already popped), freeing its slot.
    fn retire(&mut self, id: u64) {
        let at = (id - self.base) as usize;
        let slot = std::mem::replace(&mut self.ring[at], RETIRED);
        debug_assert!(self.slab[slot as usize].succs.is_empty());
        self.free.push(slot);
        while self.ring.front() == Some(&RETIRED) {
            self.ring.pop_front();
            self.base += 1;
        }
    }
}

/// The single-threaded task table both engines drive: hazards, window,
/// policy, dispatch, retirement and successor release. `T` is whatever
/// the engine needs back at dispatch.
pub struct SchedCore<T> {
    nodes: NodeTable<T>,
    hazards: HazardTracker,
    /// Scratch for one task's predecessor ids.
    preds: Vec<u64>,
    policy: Box<dyn Policy>,
    in_flight: usize,
    /// Cancelled ids still queued in the policy, skipped at pop.
    stale: usize,
}

impl<T> SchedCore<T> {
    /// An empty core dispatching through `policy`, admitting at most
    /// `window` unretired tasks.
    pub fn new(policy: Box<dyn Policy>, window: usize) -> Self {
        SchedCore {
            nodes: NodeTable::new(window),
            hazards: HazardTracker::new(),
            preds: Vec::new(),
            policy,
            in_flight: 0,
            stale: 0,
        }
    }

    /// The ready-queue policy (for its quiescence and wakeup queries).
    pub fn policy(&self) -> &dyn Policy {
        &*self.policy
    }

    /// Tasks submitted so far; also the id the next submission gets.
    pub fn submitted(&self) -> u64 {
        self.nodes.next_id()
    }

    /// Tasks submitted but neither retired nor cancelled.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether the window is full: no submission until a task retires.
    pub fn window_full(&self) -> bool {
        self.in_flight >= self.nodes.window
    }

    /// Submit the next task: its hazards against earlier, unretired
    /// submissions become dependences. Returns its id and whether it is
    /// ready (queued in the policy) right away. The caller checks the
    /// window first.
    ///
    /// # Panics
    ///
    /// At the 2³²-th submission: ids are 32-bit inside the core. Also if
    /// `pin` names a lane at or past `u32::MAX`.
    pub fn submit(
        &mut self,
        accesses: &[Access],
        priority: i64,
        pin: Option<(usize, usize)>,
        payload: T,
    ) -> (u64, bool) {
        let id = self.nodes.next_id();
        let id32 = u32::try_from(id)
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("a scheduling core takes at most 2^32 - 1 submissions");
        self.hazards.retire_below(self.nodes.base);
        let affinity = self.hazards.analyze_into(id, accesses, &mut self.preds);
        let mut deps = 0;
        for &p in &self.preds {
            deps += usize::from(self.nodes.add_successor(p, id32));
        }
        let deps = u32::try_from(deps).expect("fewer than 2^32 predecessors");
        let node = Node::new(deps, priority, affinity, pin, payload);
        if deps == 0 {
            self.policy.push(id, node.meta(None));
        }
        self.nodes.insert(node);
        self.in_flight += 1;
        debug_assert!(self.nodes.slab.len() <= self.nodes.window);
        (id, deps == 0)
    }

    /// Dispatch the policy's next task for `lane`: its id and payload,
    /// and how many ids cancelled while queued were skipped on the way.
    pub fn pop(&mut self, lane: usize) -> (Option<(u64, T)>, usize) {
        let mut skipped = 0;
        while let Some(id) = self.policy.pop(lane) {
            match self.nodes.get_mut(id) {
                Some(node) => {
                    let payload = node.payload.take().expect("dispatched twice");
                    return (Some((id, payload)), skipped);
                }
                None => {
                    assert!(self.stale > 0, "policy dispatched unknown task {id}");
                    self.stale -= 1;
                    skipped += 1;
                }
            }
        }
        (None, skipped)
    }

    /// Retire dispatched task `id`, which ran on `lane`: each successor
    /// whose last dependence this was goes to the policy, in submission
    /// order, and `on_ready` sees its pin. Frees one window slot.
    pub fn retire(
        &mut self,
        id: u64,
        lane: usize,
        mut on_ready: impl FnMut(Option<(usize, usize)>),
    ) {
        while let Some(s) = self.nodes.pop_successor(id) {
            let node = self
                .nodes
                .get_mut(s)
                .expect("successor retired before its dependence");
            node.deps -= 1;
            if node.deps == 0 {
                self.policy.push(s, node.meta(Some(lane)));
                on_ready(node.pin());
            }
        }
        self.nodes.retire(id);
        self.in_flight -= 1;
    }

    /// Cancel every task not yet dispatched: its payload is dropped, it
    /// leaves the window and imposes no dependence. Dispatched tasks keep
    /// running and retire as usual, releasing nothing. Cancelled ids
    /// already queued stay in the policy until [`SchedCore::pop`] skips
    /// them. Returns the number cancelled.
    pub fn cancel_pending(&mut self) -> u64 {
        let mut cancelled = 0;
        for id in self.nodes.base..self.nodes.next_id() {
            let Some(slot) = self.nodes.slot(id) else {
                continue;
            };
            // Every successor of a live task is pending: cancelled below.
            let node = &mut self.nodes.slab[slot];
            while self.nodes.succs.pop(&mut node.succs).is_some() {}
            if node.payload.take().is_some() {
                self.stale += usize::from(node.deps == 0);
                self.nodes.retire(id);
                cancelled += 1;
            }
        }
        self.in_flight -= cancelled;
        cancelled as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CentralFifo;

    fn node() -> Node<()> {
        Node::new(0, 0, None, None, ())
    }

    #[test]
    fn a_node_is_64_bytes_for_either_engine() {
        // The engine's per-task entry was 96 bytes, and the slab that
        // replaced the entry table holds up to a window of nodes: every
        // task of a run that fits in Quark's window of 5,000. With the
        // label a shared name, the affinity and pin packed and the
        // releaser left to release time, a node is 64 bytes.
        type Threaded = (crate::task::TaskBody, supersim_trace::KernelName);
        // The DES payload: a name and a 16-byte duration source.
        type Des = (supersim_trace::KernelName, (u64, f64));
        assert_eq!(std::mem::size_of::<Node<Threaded>>(), 64);
        assert_eq!(std::mem::size_of::<Node<Des>>(), 64);
    }

    #[test]
    fn packed_metadata_round_trips() {
        let n = Node::new(0, -3, Some(7), Some((2, 5)), ());
        let m = n.meta(Some(1));
        assert_eq!(
            (m.priority, m.releaser, m.affinity, m.pin),
            (-3, Some(1), Some(7), Some((2, 5)))
        );
        let m = node().meta(None);
        assert_eq!((m.affinity, m.pin), (None, None));
        let edge = Node::new(0, 0, Some(0), Some((0, u32::MAX as usize - 1)), ());
        assert_eq!(edge.meta(None).affinity, Some(0));
        assert_eq!(edge.pin(), Some((0, u32::MAX as usize - 1)));
    }

    #[test]
    fn node_slots_are_reused_behind_a_straggler() {
        let mut nodes = NodeTable::new(usize::MAX);
        nodes.insert(node());
        for id in 1..=10_000u32 {
            nodes.insert(node());
            assert!(nodes.add_successor(0, id), "the straggler is in flight");
            if id > 1 {
                assert!(
                    !nodes.add_successor(u64::from(id - 1), id),
                    "retired: no dependence"
                );
            }
            assert_eq!(nodes.pop_successor(0), Some(u64::from(id)));
            nodes.retire(u64::from(id));
            assert!(nodes.get_mut(u64::from(id)).is_none());
        }
        assert_eq!(nodes.slab.len(), 2, "one slot per task in flight");
        assert_eq!(nodes.succs.capacity(), 1);
        assert_eq!((nodes.base, nodes.ring.len()), (0, 10_001));
        assert_eq!(nodes.pop_successor(0), None);
        nodes.retire(0);
        assert_eq!((nodes.base, nodes.ring.len()), (10_001, 0));
        assert!(!nodes.add_successor(0, 10_001));
    }

    #[test]
    fn the_slab_grows_like_a_vec_but_never_past_the_window() {
        let capacity_at = |window: usize, tasks: usize| {
            let mut nodes = NodeTable::new(window);
            for _ in 0..tasks {
                nodes.insert(node());
            }
            nodes.slab.capacity()
        };
        // Quark's window: 5,000 slots, not the 8,192 of plain doubling.
        assert_eq!(capacity_at(5_000, 5_000), 5_000);
        assert_eq!(capacity_at(5_000, 4_097), 5_000);
        assert_eq!(capacity_at(5_000, 4_096), 4_096);
        // Below the window, and without one, growth is `Vec`'s.
        assert_eq!(capacity_at(5_000, 3), 4);
        assert_eq!(capacity_at(usize::MAX, 5_000), 8_192);
        assert_eq!(capacity_at(3, 3), 3);
    }

    #[test]
    #[should_panic(expected = "a scheduling core takes at most 2^32 - 1 submissions")]
    fn the_2_pow_32nd_submission_is_refused() {
        use supersim_dag::DataId;
        let mut core = SchedCore::new(Box::new(CentralFifo::default()), usize::MAX);
        // As if 2^32 - 2 tasks had been submitted and retired.
        core.nodes.base = u64::from(u32::MAX) - 1;
        let (id, ready) = core.submit(&[Access::write(DataId(0))], 0, None, ());
        assert_eq!((id, ready), (u64::from(u32::MAX) - 1, true));
        core.submit(&[Access::read(DataId(0))], 0, None, ());
    }

    #[test]
    fn cancelled_ids_are_skipped_at_pop() {
        use supersim_dag::DataId;
        let mut core = SchedCore::new(Box::new(CentralFifo::default()), usize::MAX);
        let x = DataId(0);
        core.submit(&[Access::write(x)], 0, None, "running");
        core.submit(&[Access::write(DataId(1))], 0, None, "queued");
        core.submit(&[Access::read(x)], 0, None, "waiting");
        assert_eq!(core.pop(0), (Some((0, "running")), 0));
        assert_eq!(core.cancel_pending(), 2);
        assert_eq!((core.in_flight(), core.stale), (1, 1));
        assert_eq!(core.pop(0), (None, 1), "the queued id was cancelled");
        assert_eq!(core.stale, 0);
        core.retire(0, 0, |_| panic!("a cancelled successor was released"));
        assert_eq!((core.in_flight(), core.nodes.ring.len()), (0, 0));
        // A new phase depends on nothing cancelled.
        assert_eq!(core.submit(&[Access::read(x)], 0, None, "next"), (3, true));
    }

    /// The access stream of a right-looking tile Cholesky on `nt × nt`
    /// tiles, tile `(i, j)` being region `i·nt + j`.
    fn cholesky(nt: u64) -> Vec<Vec<Access>> {
        use supersim_dag::DataId;
        let tile = |i: u64, j: u64| DataId(i * nt + j);
        let mut tasks = Vec::new();
        for k in 0..nt {
            tasks.push(vec![Access::read_write(tile(k, k))]);
            for i in k + 1..nt {
                tasks.push(vec![
                    Access::read(tile(k, k)),
                    Access::read_write(tile(i, k)),
                ]);
            }
            for i in k + 1..nt {
                tasks.push(vec![
                    Access::read(tile(i, k)),
                    Access::read_write(tile(i, i)),
                ]);
                for j in k + 1..i {
                    tasks.push(vec![
                        Access::read(tile(i, k)),
                        Access::read(tile(j, k)),
                        Access::read_write(tile(i, j)),
                    ]);
                }
            }
        }
        tasks
    }

    #[test]
    fn reader_memory_follows_the_window_not_the_stream() {
        // A finished panel is read by every later update of its step and
        // never written again. Dispatching every ready task and retiring
        // in submission order behind a 64-task window (at most 128 live
        // reads), the reader pool keeps under twice that plus one task's
        // accesses, whatever the matrix: 816, 5,984 and 45,760 tasks.
        // Without forgetting, it holds every panel read: 1,360, 10,912
        // and 87,360 cells.
        let capacity = |nt| {
            let mut core = SchedCore::new(Box::new(CentralFifo::default()), 64);
            let mut stream = cholesky(nt).into_iter();
            let mut running = std::collections::BinaryHeap::new();
            loop {
                while !core.window_full() {
                    let Some(accesses) = stream.next() else { break };
                    core.submit(&accesses, 0, None, ());
                }
                while let (Some((id, ())), _) = core.pop(0) {
                    running.push(std::cmp::Reverse(id));
                }
                let Some(std::cmp::Reverse(id)) = running.pop() else {
                    break;
                };
                core.retire(id, 0, |_| {});
            }
            assert_eq!((core.in_flight(), stream.len()), (0, 0));
            core.hazards.reader_capacity()
        };
        for nt in [16, 32, 64] {
            let cells = capacity(nt);
            assert!(cells <= 2 * 128 + 3, "{nt} tiles: {cells} reader cells");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use supersim_dag::{AccessMode, DagBuilder, DataId};

        /// The `dag` proptest strategy: up to 40 tasks of 1–3 accesses
        /// over 8 regions.
        fn stream() -> impl Strategy<Value = Vec<Vec<Access>>> {
            let access = (0u64..8, 0u8..3).prop_map(|(d, m)| Access {
                data: DataId(d),
                mode: match m {
                    0 => AccessMode::Read,
                    1 => AccessMode::Write,
                    _ => AccessMode::ReadWrite,
                },
                bytes: 0,
            });
            prop::collection::vec(prop::collection::vec(access, 1..4), 1..40)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Submitting a random stream through the core under any
            /// window, dispatching on one lane and retiring in an
            /// adversarial order (`picks` chooses among the dispatched
            /// tasks), releases every task exactly once and only after all
            /// of its `DagBuilder` predecessors have retired. Cancelling
            /// at `cancel_at` retirements (about half the cases never
            /// cancel) leaves no live node once the dispatched tasks
            /// retire.
            #[test]
            fn releases_follow_the_dag_builder_graph(
                stream in stream(),
                window in prop_oneof![Just(1usize), Just(2), Just(8), Just(usize::MAX)],
                picks in prop::collection::vec(any::<usize>(), 64),
                cancel_at in 0usize..80,
            ) {
                let mut builder = DagBuilder::new();
                for accesses in &stream {
                    builder.submit("t", 1.0, accesses);
                }
                let graph = builder.finish();
                let n = stream.len();
                let mut core = SchedCore::new(Box::new(CentralFifo::default()), window);
                let mut next = 0;
                let (mut retired, mut released) = (vec![false; n], vec![0u32; n]);
                let mut running: Vec<u64> = Vec::new();
                let mut retirements = 0;
                let mut cancelled = false;
                loop {
                    while next < n && !cancelled && !core.window_full() {
                        let (id, _) = core.submit(&stream[next], 0, None, next);
                        prop_assert_eq!(id, next as u64);
                        next += 1;
                    }
                    if cancel_at == retirements && !cancelled {
                        // Ready ids may sit in the queue: they go stale.
                        cancelled = true;
                        let before = core.in_flight();
                        let dropped = core.cancel_pending();
                        prop_assert_eq!(before - dropped as usize, running.len());
                    }
                    while let (Some((id, payload)), _) = core.pop(0) {
                        prop_assert_eq!(id as usize, payload);
                        released[payload] += 1;
                        for &p in graph.predecessors(payload) {
                            prop_assert!(retired[p], "task {} ran before its predecessor {}", payload, p);
                        }
                        running.push(id);
                    }
                    if !cancelled {
                        // Nothing is held back whose predecessors all retired.
                        for t in (0..next).filter(|&t| released[t] == 0) {
                            prop_assert!(
                                graph.predecessors(t).iter().any(|&p| !retired[p]),
                                "task {} is held back with every predecessor retired", t
                            );
                        }
                    }
                    if running.is_empty() {
                        break;
                    }
                    let id = running.swap_remove(picks[retirements % picks.len()] % running.len());
                    core.retire(id, 0, |_| {});
                    retired[id as usize] = true;
                    retirements += 1;
                }
                prop_assert_eq!(core.in_flight(), 0);
                prop_assert_eq!(core.nodes.ring.len(), 0, "a live node survived");
                prop_assert_eq!(core.pop(0), (None, 0));
                prop_assert_eq!(core.stale, 0);
                if cancelled {
                    prop_assert!(released.iter().all(|&r| r <= 1));
                } else {
                    prop_assert_eq!(next, n);
                    prop_assert!(released.iter().all(|&r| r == 1));
                }
            }
        }
    }
}
