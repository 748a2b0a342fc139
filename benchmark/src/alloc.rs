//! A counting global allocator, switched on for the counted section only.
//!
//! Peak RSS wanders by up to a third between identical runs of the dense
//! workload; the heap's own high-water mark repeats within 1 %. Counting
//! costs two atomic updates per allocation (15 % on the dense workload), so
//! it never runs inside a timed section: those pay only the relaxed load of
//! the switch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since [`start`]; negative when the
/// section frees more set-up memory than it allocates.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters beside it never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
            grew(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zero the counters and start counting.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
}

/// Stop counting; returns (peak bytes above the level at [`start`],
/// allocation calls).
pub fn stop() -> (u64, u64) {
    ON.store(false, Ordering::SeqCst);
    (
        PEAK.load(Ordering::Relaxed).max(0) as u64,
        ALLOCS.load(Ordering::Relaxed),
    )
}
