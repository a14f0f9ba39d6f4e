//! Pinning the run to one CPU.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and so every thread it spawns afterwards,
/// which inherit its mask — to the first CPU it may run on. Returns that
/// CPU, or `None` when the mask cannot be read or set.
///
/// On a 2-vCPU virtual machine, wake-ups crossing between the vCPUs (socket
/// threads, scheduler, worker pool) made `served_churn` throughput differ
/// by up to 2× between identical runs; on one CPU it repeats within a few
/// percent.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is WORDS * 8 bytes long, the size passed; pid 0 names
    // the calling thread; the call writes at most that many bytes.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is WORDS * 8 bytes long, the size passed; pid 0 names
    // the calling thread; the call only reads the mask.
    if unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}
