//! CPU pinning without a libc dependency.
//!
//! On a small shared VM a cross-vCPU futex wake is a VM exit, so unpinned
//! the threaded engine flips between a fast and a 3x slower mode from one
//! process to the next and nothing repeats. Every workload therefore
//! confines its whole process — driver, engine threads, server threads — to
//! one CPU before it spawns anything; threads inherit the mask.

/// `cpu_set_t` as glibc lays it out: 1,024 bits.
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's current affinity mask, if the kernel reports one.
pub fn current() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable 128-byte buffer and the size passed
    // is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Restrict the calling thread (and every thread it spawns afterwards) to
/// `set`. Returns whether the kernel accepted it.
pub fn apply(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live 128-byte buffer and the size passed is exactly
    // its size; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// Pin to the highest-numbered CPU of the current mask (CPU 0 takes most
/// interrupts). Returns the mask to restore with [`apply`] and the number
/// of CPUs the process is now confined to: 1, or 0 if pinning was refused.
pub fn pin_to_one() -> (Option<CpuSet>, u32) {
    let Some(before) = current() else {
        return (None, 0);
    };
    let Some(cpu) = (0..1024)
        .rev()
        .find(|&c| before[c / 64] >> (c % 64) & 1 == 1)
    else {
        return (Some(before), 0);
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    let ok = apply(&one);
    (Some(before), u32::from(ok))
}
