//! Submission-side hazard analysis, shared by the threaded engine and the
//! pure-DES replay backend.
//!
//! The superscalar contract: tasks are submitted serially with data-access
//! annotations, and RaW/WaR/WaW hazards against earlier submissions become
//! dependences. This module owns the per-data reader/writer state and the
//! predecessor derivation. It was extracted from `Runtime::submit` so the
//! DES replay backend resolves dependences through the *same* code — a
//! precondition of the bit-for-bit trace-equality contract between the two
//! backends (see DESIGN.md, "Replay backend").

use crate::chain::{Chain, ChainPool};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use supersim_dag::{normalize_accesses_into, Access, DataId};

/// [`DataState::last_writer`] of a region not written yet.
const NO_WRITER: u32 = u32::MAX;

/// Per-data hazard state (same discipline as `supersim_dag::build`): 12
/// bytes, so a map entry with its key is 24.
struct DataState {
    /// The last task to write the region, or [`NO_WRITER`].
    last_writer: u32,
    /// Readers since the last write, in [`HazardTracker::readers`], in
    /// ascending id order.
    readers: Chain,
}

impl Default for DataState {
    fn default() -> Self {
        DataState {
            last_writer: NO_WRITER,
            readers: Chain::default(),
        }
    }
}

/// Multiplicative hasher for [`DataId`] keys. Data ids are handed out by
/// the program's own tile layouts and ghost counters — small, dense
/// integers, never attacker-chosen — so SipHash's collision resistance
/// buys nothing here and costs more than the rest of the analysis. The
/// golden-ratio multiply spreads dense ids over the high bits; the final
/// rotate brings them down to where the table takes its bucket index.
#[derive(Default)]
struct DataIdHasher(u64);

impl Hasher for DataIdHasher {
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Tracks reader/writer state per data id across a serial submission
/// stream and derives each task's predecessor set. Task ids are below
/// `u32::MAX` (a scheduling core takes fewer than 2³² submissions), so
/// the state holds them in 32 bits.
///
/// A region keeps its readers until its next write, so a region read
/// often and never written again (a finished panel) would keep every
/// reader id for the rest of the stream. Inside a scheduling core the
/// tracker is told which ids have retired, and a reader that has retired
/// can create no dependence: the core refuses it. So the tracker forgets
/// such readers in a sweep over the regions, run when the reader pool is
/// about to carve new cells and its live count has more than doubled
/// since the last sweep. Reader memory then follows the unretired tasks,
/// not the stream. Standalone (no retirement known) nothing is forgotten.
#[derive(Default)]
pub struct HazardTracker {
    /// A map, not a dense table: cluster ghost ids grow without bound.
    data: HashMap<DataId, DataState, BuildHasherDefault<DataIdHasher>>,
    /// Every region's current readers.
    readers: ChainPool,
    /// Every id below this one has retired (0: none known to have).
    frontier: u64,
    /// `readers.live()` when the last sweep ended.
    swept: usize,
    /// The task under analysis, normalized — reused across tasks.
    normalized: Vec<Access>,
}

impl HazardTracker {
    /// Empty tracker: no data has been touched yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every id below `frontier` has retired, so as a reader it can
    /// create no dependence and may be forgotten. Never decreases.
    pub(crate) fn retire_below(&mut self, frontier: u64) {
        debug_assert!(frontier >= self.frontier, "the frontier went back");
        self.frontier = frontier;
    }

    /// Drop every reader below the frontier. Chains hold ascending ids,
    /// so the retired readers of a region are a prefix of its chain.
    fn forget_retired(&mut self) {
        for st in self.data.values_mut() {
            while self
                .readers
                .front(&st.readers)
                .is_some_and(|r| u64::from(r) < self.frontier)
            {
                self.readers.pop(&mut st.readers);
            }
        }
        self.swept = self.readers.live();
    }

    /// Cells the reader pool has carved: its peak number of readers.
    #[cfg(test)]
    pub(crate) fn reader_capacity(&self) -> usize {
        self.readers.capacity()
    }

    /// Record task `id`'s accesses and return `(preds, affinity)`: the
    /// sorted, deduplicated predecessor task ids, and the first written
    /// data id (the locality-affinity hint). Accesses are normalized
    /// (duplicate data ids merged) before analysis, exactly as
    /// `Runtime::submit` always did.
    ///
    /// `id` must be the caller's next submission id; predecessors only
    /// ever reference earlier ids.
    ///
    /// # Panics
    ///
    /// If `id` is `u32::MAX` or more.
    pub fn analyze(&mut self, id: u64, accesses: &[Access]) -> (Vec<u64>, Option<u64>) {
        let mut preds = Vec::new();
        let affinity = self.analyze_into(id, accesses, &mut preds);
        (preds, affinity)
    }

    /// [`HazardTracker::analyze`] with the predecessors written into a
    /// caller-owned buffer (cleared first) and the affinity returned: a
    /// submission loop that reuses `preds` analyzes without allocating.
    /// Inside a scheduling core, which tells the tracker what has
    /// retired, retired readers may be missing from `preds`.
    pub fn analyze_into(
        &mut self,
        id: u64,
        accesses: &[Access],
        preds: &mut Vec<u64>,
    ) -> Option<u64> {
        let id = u32::try_from(id)
            .ok()
            .filter(|&id| id != NO_WRITER)
            .unwrap_or_else(|| panic!("task id {id} is past the tracker's 32-bit ids"));
        preds.clear();
        // This task may carve reader cells (one per access at most), and
        // the pool has more than doubled since the last sweep.
        let carves = self.readers.spare() < accesses.len();
        if carves && self.frontier > 0 && self.readers.live() > 2 * self.swept {
            self.forget_retired();
        }
        normalize_accesses_into(accesses, &mut self.normalized);
        for a in &self.normalized {
            let st = self.data.entry(a.data).or_default();
            if st.last_writer != NO_WRITER {
                preds.push(u64::from(st.last_writer));
            }
            if a.mode.writes() {
                while let Some(reader) = self.readers.pop(&mut st.readers) {
                    preds.push(u64::from(reader));
                }
                st.last_writer = id;
            } else {
                self.readers.push(&mut st.readers, id);
            }
        }
        preds.sort_unstable();
        preds.dedup();
        self.normalized
            .iter()
            .find(|a| a.mode.writes())
            .map(|a| a.data.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_war_waw_hazards() {
        let mut h = HazardTracker::new();
        let x = DataId(0);
        // 0 writes x; 1 reads x (RaW on 0); 2 writes x (WaR on 1, WaW on 0).
        let (p0, a0) = h.analyze(0, &[Access::write(x)]);
        assert!(p0.is_empty());
        assert_eq!(a0, Some(0));
        let (p1, a1) = h.analyze(1, &[Access::read(x)]);
        assert_eq!(p1, vec![0]);
        assert_eq!(a1, None);
        let (p2, _) = h.analyze(2, &[Access::write(x)]);
        assert_eq!(p2, vec![0, 1]);
    }

    #[test]
    fn concurrent_readers_share_no_hazard() {
        let mut h = HazardTracker::new();
        let x = DataId(3);
        h.analyze(0, &[Access::write(x)]);
        let (p1, _) = h.analyze(1, &[Access::read(x)]);
        let (p2, _) = h.analyze(2, &[Access::read(x)]);
        assert_eq!(p1, vec![0]);
        assert_eq!(p2, vec![0]);
    }

    #[test]
    fn preds_are_sorted_and_deduped() {
        let mut h = HazardTracker::new();
        let (x, y) = (DataId(0), DataId(1));
        h.analyze(0, &[Access::write(x), Access::write(y)]);
        // Reads both — writer 0 appears twice before dedup.
        let (p, _) = h.analyze(1, &[Access::read(y), Access::read(x)]);
        assert_eq!(p, vec![0]);
    }

    #[test]
    fn affinity_is_first_written_data() {
        let mut h = HazardTracker::new();
        let (p, aff) = h.analyze(0, &[Access::read(DataId(5)), Access::read_write(DataId(9))]);
        assert!(p.is_empty());
        assert_eq!(aff, Some(9));
    }

    #[test]
    fn a_region_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<(DataId, DataState)>(), 24);
    }

    #[test]
    #[should_panic(expected = "task id 4294967295 is past the tracker's 32-bit ids")]
    fn ids_are_32_bit_with_one_value_reserved() {
        let mut h = HazardTracker::new();
        let x = DataId(0);
        let last = u64::from(u32::MAX) - 1;
        h.analyze(last - 1, &[Access::write(x)]);
        assert_eq!(h.analyze(last, &[Access::read_write(x)]).0, [last - 1]);
        h.analyze(last + 1, &[Access::read(x)]);
    }

    #[test]
    fn retired_readers_of_a_finished_region_are_forgotten() {
        // One region written once, then read by every later task and
        // never written again; each reader retires four tasks later.
        let x = DataId(0);
        let (mut core, mut standalone) = (HazardTracker::new(), HazardTracker::new());
        for id in 0..10_000u64 {
            let access = if id == 0 {
                Access::write(x)
            } else {
                Access::read(x)
            };
            core.retire_below(id.saturating_sub(4));
            core.analyze(id, &[access]);
            standalone.analyze(id, &[access]);
        }
        assert!(core.reader_capacity() <= 16, "{}", core.reader_capacity());
        assert_eq!(
            standalone.reader_capacity(),
            9_999,
            "standalone forgets nothing"
        );
        // The next write depends on the writer and the readers not yet
        // forgotten (at most a pool's worth, the live ones among them);
        // the standalone tracker still names every reader.
        let (preds, _) = core.analyze(10_000, &[Access::write(x)]);
        assert!(preds.len() <= 17 && preds[0] == 0, "{preds:?}");
        assert!(
            preds.ends_with(&[9_995, 9_996, 9_997, 9_998, 9_999]),
            "{preds:?}"
        );
        assert_eq!(
            standalone.analyze(10_000, &[Access::write(x)]).0.len(),
            10_000
        );
    }

    /// The analysis `analyze_into` replaced, kept as its oracle: a fresh
    /// normalized copy per task, a `Vec` of readers per region.
    #[derive(Default)]
    struct Reference(std::collections::BTreeMap<DataId, (Option<u64>, Vec<u64>)>);

    impl Reference {
        fn analyze(&mut self, id: u64, accesses: &[Access]) -> (Vec<u64>, Option<u64>) {
            let accesses = supersim_dag::normalize_accesses(accesses);
            let affinity = accesses.iter().find(|a| a.mode.writes()).map(|a| a.data.0);
            let mut preds = Vec::new();
            for a in &accesses {
                let (last_writer, readers) = self.0.entry(a.data).or_default();
                preds.extend(*last_writer);
                if a.mode.writes() {
                    preds.append(readers);
                    *last_writer = Some(id);
                } else {
                    readers.push(id);
                }
            }
            preds.sort_unstable();
            preds.dedup();
            (preds, affinity)
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use supersim_dag::AccessMode;

        /// Few regions and up to five accesses per task: duplicate data
        /// ids within a task, and the mode merges they cause, are common.
        fn stream() -> impl Strategy<Value = Vec<Vec<Access>>> {
            let mode = prop_oneof![
                Just(AccessMode::Read),
                Just(AccessMode::Write),
                Just(AccessMode::ReadWrite)
            ];
            let access = (0u64..5, mode, 0u64..3).prop_map(|(d, mode, bytes)| Access {
                data: DataId(d << 40),
                mode,
                bytes,
            });
            prop::collection::vec(prop::collection::vec(access, 0..6), 0..60)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `analyze` and `analyze_into` — one tracker each, the latter
            /// reusing a dirty buffer — agree with the reference on every
            /// task of a random stream.
            #[test]
            fn analyze_into_equals_analyze_equals_the_reference(stream in stream()) {
                let (mut wrapped, mut reused) = (HazardTracker::new(), HazardTracker::new());
                let mut reference = Reference::default();
                let mut preds = vec![u64::MAX; 3];
                for (id, accesses) in stream.iter().enumerate() {
                    let id = id as u64;
                    let expected = reference.analyze(id, accesses);
                    prop_assert_eq!(&wrapped.analyze(id, accesses), &expected);
                    let affinity = reused.analyze_into(id, accesses, &mut preds);
                    prop_assert_eq!((preds.clone(), affinity), expected);
                }
            }

            /// With a retirement frontier that only moves forward, the
            /// analysis names every predecessor at or above the frontier
            /// that the reference names, and nothing the reference does
            /// not: forgetting drops retired readers only.
            #[test]
            fn a_frontier_forgets_only_retired_predecessors(
                stream in stream(),
                steps in prop::collection::vec(0u64..4, 60),
            ) {
                let mut tracker = HazardTracker::new();
                let mut reference = Reference::default();
                let mut frontier = 0;
                for (id, accesses) in stream.iter().enumerate() {
                    let id = id as u64;
                    frontier = (frontier + steps[id as usize]).min(id);
                    tracker.retire_below(frontier);
                    let (want, want_affinity) = reference.analyze(id, accesses);
                    let (got, affinity) = tracker.analyze(id, accesses);
                    prop_assert_eq!(affinity, want_affinity);
                    prop_assert!(got.iter().all(|p| want.contains(p)), "{:?} ⊄ {:?}", got, want);
                    let live = |preds: &[u64]| -> Vec<u64> {
                        preds.iter().copied().filter(|&p| p >= frontier).collect()
                    };
                    prop_assert_eq!(live(&got), live(&want));
                }
            }
        }
    }
}
